# Solve the constrained problem and look at where the obstacle binds.
# With a proportional jump cost on the transported profile the contact
# set is a diagonal band: in the coordinate u = x - T + t it is the same
# interval on every time slice.

import numpy as np

from qvilab import expr as ex
from qvilab.core import Cone, Grid, ImpulseProblem
from qvilab.obstacle import evaluate_slice_values
from qvilab.solver import extract_regions, solve_qvi

problem = ImpulseProblem(
    n=1, T=1.0,
    H=ex.parse("-p1", ("t", "x1", "p1")),
    h=ex.parse("x1*exp(-x1)", ("x1",)),
    ell=ex.parse("0.05*(1 + xi1)", ("t", "x1", "xi1")),
    cone=Cone.orthant(1),
)

# the box [-1, 7] reaches past the optimal jump target near x = 4.6
grid = Grid(T=1.0, t_nodes=201, x_min=(-1.0,), x_max=(7.0,),
            x_nodes=(561,))
result = solve_qvi(problem, grid)
contact = extract_regions(result)  # True where the obstacle binds

print(f"solved {grid.t_nodes}x{grid.x_nodes[0]} nodes, "
      f"max fixed point sweeps {int(result.iterations.max())}")
print(f"intervention fraction {contact.sum() / contact.size:.4f} "
      f"({int(contact.sum())} nodes)")
print(f"clipped nodes {int(result.clipped.sum())} "
      f"in {int((result.clipped > 0).sum())} slice(s)")
# further back the unclipped step already sits at or just below N
print("strict clips (N[W] < W0) sit next to the terminal slice; an "
      "intervention node is within the dissipation scale of N")
# a clipped node whose best jump lands on the box edge would be flagged;
# this box holds every jump target, so the list is empty
print(f"flags {list(result.flags)}")

# where the band sits, slice by slice, in the transported coordinate
x = grid.axes[0]
print()
print(" t      band in x            band in u = x - T + t")
for k in range(0, grid.t_nodes - 1, 40):
    row = contact[k]
    if not row.any():
        print(f"{grid.t[k]:.2f}   (empty)")
        continue
    lo, hi = x[row].min(), x[row].max()
    t = grid.t[k]
    print(f"{t:.2f}   [{lo:6.3f}, {hi:6.3f}]     "
          f"[{lo - 1 + t:6.3f}, {hi - 1 + t:6.3f}]")

print()
print("the u-interval barely moves: jumping is worthwhile exactly where")
print("the profile plus the jump cost undercuts waiting, and that")
print("tradeoff is carried along the characteristics unchanged")

# the argmin impulse inside the band points at a fixed landing spot; a
# solve keeps no jumps, so N gives them again on the settled slice
k = grid.t_nodes // 2
row = contact[k]
_, xi = evaluate_slice_values(grid, result.V.values[k:k + 1],
                              grid.t[k:k + 1], problem.ell, problem.cone)
landing = x[row] + xi[0, row, 0]
print()
print(f"mid-slice landing points: {landing.min():.3f} .. {landing.max():.3f}")
print("every profitable jump lands near the same downhill spot w*")
