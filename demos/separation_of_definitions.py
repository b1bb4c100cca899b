# The same function can satisfy one super-solution definition and fail
# the other. The classical form only asks for the minimum of the two
# conditions, so a strictly negative obstacle gap is forgiven wherever
# the equation itself holds; the modified form insists on the constraint
# everywhere and flags the whole profitable band.

from qvilab.core import Grid
from qvilab.example import build_instance, verify_separation

instance = build_instance(t0=0.5, l0=0.05)

print("separating instance at l0 = 0.05")
print(f"  roots of the jump payoff: xi1 = {instance.xi1:.6f}, "
      f"xi2 = {instance.xi2:.6f}")
print(f"  cheapest jump value  psi_min = {instance.psi_min:.6f}")
print(f"  value at the anchor  V(t0, x0) = {instance.value_at_anchor:.6f}")
print(f"  obstacle gap at the anchor     = {instance.gap:.6f}  (negative:")
print("   jumping beats waiting, the constraint is violated)")
print(f"  profitable band in u: ({instance.u_lo:.4f}, {instance.u_hi:.4f}),"
      f" margin delta = {instance.delta:.4f}")

grid = Grid(T=1.0, t_nodes=101, x_min=(-1.0,), x_max=(4.0,), x_nodes=(351,))
report = verify_separation(instance, grid)

print()
print(f"classical super-solution check: "
      f"{'PASS' if report.classical.passed else 'FAIL'}")
print(f"modified super-solution check:  "
      f"{'PASS' if report.modified.passed else 'FAIL'}")
print(f"sub-solution check:             "
      f"{'PASS' if report.sub.passed else 'FAIL'}")

cons = report.modified.constraint_violations
print()
print(f"the modified check reports {len(cons)} constraint violations;")
print(f"all inside the band: {report.violations_in_band}")
if cons:
    us = [v.x[0] - 1.0 + v.t for v in cons]
    print(f"violation span in u: {min(us):.3f} .. {max(us):.3f}")

print()
print("so the candidate is a perfectly good classical super-solution")
print("while failing the modified definition, which is exactly the")
print("stronger-notion gap the comparison machinery has to respect")
