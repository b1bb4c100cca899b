# The doubling trick maximizes Phi(t, s, x, y) over pairs of points and
# then squeezes the pair together by shrinking the penalty weights.
# The grid sweep makes the squeeze visible: the time and space gaps at
# the argmax fall as the penalties tighten, and the penalty residual
# stays nonpositive at every level, which is the inequality the proof
# leans on.

from qvilab import comparison as cmp
from qvilab import expr as ex
from qvilab.core import Cone, Grid, ImpulseProblem, sample
from qvilab.solver import solve_qvi

problem = ImpulseProblem(
    n=1, T=1.0,
    H=ex.parse("-p1", ("t", "x1", "p1")),
    h=ex.parse("x1*exp(-x1)", ("x1",)),
    ell=ex.parse("0.05*(1 + xi1)", ("t", "x1", "xi1")),
    cone=Cone.orthant(1),
)

# moderate box: keeps the confinement weight from dragging the argmax
# to the large-|V| edge of the domain
grid = Grid(T=1.0, t_nodes=201, x_min=(0.5,), x_max=(3.5,), x_nodes=(351,))

# pair a known super-solution candidate with the solved function
V = sample(ex.parse("(x1 - 1 + t)*exp(-(x1 - 1 + t))", ("t", "x1")), grid)
result = solve_qvi(problem, grid)

levels = (0.1, 0.05, 0.025, 0.0125)
diag = cmp.doubling_maximize(V, result.V, theta=0.001, levels=levels)

print("    eps     t-gap     x-gap     Phi max    residual")
for lev in diag.levels:
    print(f"{lev.epsilon:>7.4f}  {lev.t_gap:8.5f}  {lev.x_gap:8.5f}  "
          f"{lev.phi_value:9.6f}  {lev.residual_symmetry:10.3e}")

print()
print(f"gaps nonincreasing: {diag.gaps_nonincreasing()}")
print(f"argmax certificate over random tuples: {diag.certificate_ok}")
final = diag.final
print(f"final argmax pair: t0 = s0 = {final.t0:.4f}, "
      f"x0 = {final.x0[0]:.4f}, y0 = {final.y0[0]:.4f}")
print()
print("as eps shrinks the maximizing pair collapses onto the diagonal,")
print("so the (1/eps)|t - s|^2 term really does vanish in the limit")
