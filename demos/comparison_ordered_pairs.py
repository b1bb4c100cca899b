# Order in, order out: lift any piece of the data (terminal payoff,
# Hamiltonian, jump cost) and the solved value function moves the same
# way, up to the scheme's interior tolerance. This is the discrete
# shadow of the comparison principle.

from qvilab import comparison as cmp
from qvilab import expr as ex
from qvilab.core import Cone, Grid, ImpulseProblem

base = ImpulseProblem(
    n=1, T=1.0,
    H=ex.parse("-p1", ("t", "x1", "p1")),
    h=ex.parse("x1*exp(-x1)", ("x1",)),
    ell=ex.parse("0.05*(1 + xi1)", ("t", "x1", "xi1")),
    cone=Cone.orthant(1),
)

grid = Grid(T=1.0, t_nodes=61, x_min=(-1.0,), x_max=(4.0,), x_nodes=(141,))

cases = [
    ("terminal payoff + 0.25", ("0.25", None, None)),
    ("hamiltonian + bump", (None, "max(0, 0.25 - (t - 0.5)^2 - (x1 - 1.5)^2)",
                            None)),
    ("jump cost + 0.02", (None, None, "0.02")),
]

print("max interior (V - V_hat) for lifted partners "
      f"(tolerance {10 * (grid.dt + sum(grid.dx)):.4f})")
print()
for label, offsets in cases:
    first, second = cmp.ordered_pair_generator(base, offsets)
    report = cmp.compare_solutions(first, second, grid)
    print(f"{label:>24}: max diff {report.max_difference:+.3e}  "
          f"{'OK' if report.passed else 'VIOLATED'}")

# an unordered pair is still measured, but the order audit fails it
print()
first, second = cmp.ordered_pair_generator(base, ("1.0", None, None))
report = cmp.compare_solutions(second, first, grid)
print(f"reversed pair: {report.notes}")
print(f"max diff {report.max_difference:+.3f}, ordered = {report.ordered}, "
      f"{'OK' if report.passed else 'VIOLATED'}")
