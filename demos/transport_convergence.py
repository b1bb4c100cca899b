# Solve the unconstrained transport equation at three resolutions and
# watch the interior error against the closed form shrink first order.
# The terminal payoff u*exp(-u) rides along the characteristics, so the
# exact solution is just the shifted profile.

import numpy as np

from qvilab import expr as ex
from qvilab.core import Cone, Grid, ImpulseProblem
from qvilab.solver import (estimate_dissipation, interior_mask, solve_hjb,
                           suggest_t_nodes)

problem = ImpulseProblem(
    n=1, T=1.0,
    H=ex.parse("-p1", ("t", "x1", "p1")),
    h=ex.parse("x1*exp(-x1)", ("x1",)),
    ell=ex.parse("1000000*(1 + xi1)", ("t", "x1", "xi1")),
    cone=Cone.orthant(1),
)

print("pure transport, box [-2, 5], errors away from the clamped edges")
print(f"{'x nodes':>8}  {'t nodes':>8}  {'max interior error':>20}  ratio")

previous = None
for x_nodes in (351, 701, 1401):
    probe = Grid(T=1.0, t_nodes=2, x_min=(-2.0,), x_max=(5.0,),
                 x_nodes=(x_nodes,))
    sigma = estimate_dissipation(problem, probe)
    nt = suggest_t_nodes(probe, sigma)
    grid = Grid(T=1.0, t_nodes=nt, x_min=(-2.0,), x_max=(5.0,),
                x_nodes=(x_nodes,))
    result = solve_hjb(problem, grid, sigma)

    env = grid.full_env()
    u = env["x1"] - grid.T + env["t"]
    exact = u * np.exp(-u)
    err = np.abs(result.V.values - exact)[interior_mask(grid, sigma)]
    worst = float(err.max())

    ratio = "" if previous is None else f"{previous / worst:.2f}"
    print(f"{x_nodes:>8}  {nt:>8}  {worst:>20.6g}  {ratio}")
    previous = worst

print()
print("halving the mesh roughly halves the error: the monotone scheme")
print("converges at first order, which is the price of its stability")
