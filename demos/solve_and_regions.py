# Solve the constrained problem and look at where the obstacle binds.
# With a proportional jump cost on the transported profile the contact
# set is a diagonal band: in the coordinate u = x - T + t it is the same
# interval on every time slice.

import numpy as np

from qvilab import expr as ex
from qvilab.core import Cone, Grid, ImpulseProblem
from qvilab.solver import extract_regions, solve_qvi

problem = ImpulseProblem(
    n=1, T=1.0,
    H=ex.parse("-p1", ("t", "x1", "p1")),
    h=ex.parse("x1*exp(-x1)", ("x1",)),
    ell=ex.parse("0.05*(1 + xi1)", ("t", "x1", "xi1")),
    cone=Cone.orthant(1),
)

# the box must reach past the optimal jump target near x = 4.6
grid = Grid(T=1.0, t_nodes=201, x_min=(-1.0,), x_max=(7.0,),
            x_nodes=(561,))
result = solve_qvi(problem, grid)
regions = extract_regions(result)

print(f"solved {grid.t_nodes}x{grid.x_nodes[0]} nodes, "
      f"max fixed point sweeps {int(result.iterations.max())}")
print(f"intervention fraction {regions.fraction:.4f} "
      f"({regions.n_intervention} nodes)")

# where the band sits, slice by slice, in the transported coordinate
x = grid.axes[0]
print()
print(" t      band in x            band in u = x - T + t")
for k in range(0, grid.t_nodes - 1, 40):
    row = regions.labels[k].astype(bool)
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

# the argmin impulse inside the band points at a fixed landing spot
k = grid.t_nodes // 2
row = regions.labels[k].astype(bool)
landing = x[row] + result.argmin_xi[k, row, 0]
print()
print(f"mid-slice landing points: {landing.min():.3f} .. {landing.max():.3f}")
print("every profitable jump lands near the same downhill spot w*")
