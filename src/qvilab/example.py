"""A transported profile that splits the two super-solution definitions.

The instance lives on the transport problem H(p) = -p with terminal
payoff h(x) = x e^{-x} and proportional impulse cost ell0*(1 + xi) on
the half-line cone.  The value candidate

    V(t, x) = u e^{-u},          u = x - T + t,

rides the characteristics, so V_t + H(V_x) = 0 everywhere and
V(T, x) = h(x).  Jumping by xi from the anchor point x0 = T - t0 + 1
(where u = 1, the crest of u e^{-u}) costs

    psi(xi) = (1 + xi) * (e^{-(1+xi)} + ell0),

and psi has interior critical points 0 < xi1 < 1 < xi2 exactly when
ell0 < e^{-2}.  For small enough ell0 the far minimum dips below the
crest value e^{-1}: the jump is profitable, the obstacle constraint
N[V] - V >= 0 fails on a band of u values around 1, and V cannot be a
super-solution in the constrained (modified) sense.  Every classical
probe still passes, because wherever the constraint is broken the
classical minimum picks the negative obstacle branch.  A nonnegative
bump g supported where the constraint already fails keeps V an
unconstrained transport sub-solution of the bumped equation without
disturbing either verdict, which makes the separation sharp.

``build_instance`` computes the critical points by bisection, the
profitable band (u_lo, u_hi) from the closed-form gap, the diamond
radius delta = min(1 - u_lo, u_hi - 1), and the bump expression.
``verify_separation`` runs the checkers on a grid and reports the
verdict pattern; ``measure_obstacle_gap`` cross-checks the grid
obstacle search against the closed-form psi minimization.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import bisect

from . import expr as ex
from .core import Cone, ConfigError, Grid, GridFunction, ImpulseProblem
from .obstacle import evaluate_slice_values
from .viscosity import (
    check_hjb_subsolution,
    check_qvi_supersolution_classical,
    check_qvi_supersolution_modified,
    obstacle_gap,
)

__all__ = [
    "COST_THRESHOLD",
    "ExampleInstance",
    "SeparationReport",
    "build_instance",
    "psi",
    "psi_prime",
    "continuum_gap",
    "sample_value_function",
    "measure_obstacle_gap",
    "verify_separation",
]

COST_THRESHOLD = math.exp(-2.0)
ROOT_TOL = 1e-10
XI_CAP = 20.0


def psi(l0, xi):
    """Cost-plus-landing value of a jump of size xi from the crest."""
    xi = np.asarray(xi, dtype=float)
    return (1.0 + xi) * (np.exp(-(1.0 + xi)) + l0)


def psi_prime(l0, xi):
    xi = np.asarray(xi, dtype=float)
    return l0 - xi * np.exp(-(1.0 + xi))


def _gap_interior(l0, w_star, u):
    # value of jumping straight to the fixed best target w* = 1 + xi2,
    # minus the held value u e^{-u}
    B = w_star * math.exp(-w_star) + l0 * (1.0 + w_star)
    u = np.asarray(u, dtype=float)
    return B - l0 * u - u * np.exp(-u)


def continuum_gap(l0, xi2, u):
    """Closed-form N[V] - V along the transported coordinate u."""
    w_star = 1.0 + xi2
    u = np.asarray(u, dtype=float)
    interior = _gap_interior(l0, w_star, u)
    return np.where(u <= w_star, np.minimum(l0, interior), l0)


@dataclass(frozen=True)
class ExampleInstance:
    """Derived data of one separation instance."""

    T: float
    t0: float
    l0: float
    x0: float
    xi1: float
    xi2: float
    psi_min: float
    value_at_anchor: float
    gap: float
    u_lo: float
    u_hi: float
    delta: float
    bump_height: float
    g_source: str
    needs_smaller_cost: bool

    def in_band(self, t, x1):
        """Whether (t, x1) sits strictly inside the profitable band."""
        if self.needs_smaller_cost:
            return False
        u = x1 - self.T + t
        return self.u_lo < u < self.u_hi

    def value_source(self):
        return (f"(x1 - {self.T!r} + t)*exp(-(x1 - {self.T!r} + t))")

    def problem(self, with_bump=True):
        g_node = None
        if with_bump and self.g_source:
            g_node = ex.parse(self.g_source, {"t", "x1"})
        return ImpulseProblem(
            n=1, T=self.T,
            H=ex.parse("-p1", {"t", "x1", "p1"}),
            h=ex.parse("x1*exp(-x1)", {"x1"}),
            ell=ex.parse(f"{self.l0!r}*(1 + xi1)", {"t", "x1", "xi1"}),
            cone=Cone.orthant(1),
            g=g_node)

    def to_dict(self):
        return {
            "T": self.T, "t0": self.t0, "l0": self.l0, "x0": self.x0,
            "xi1": self.xi1, "xi2": self.xi2,
            "psi_min": self.psi_min,
            "value_at_anchor": self.value_at_anchor,
            "gap": self.gap,
            "u_lo": None if math.isnan(self.u_lo) else self.u_lo,
            "u_hi": None if math.isnan(self.u_hi) else self.u_hi,
            "delta": self.delta,
            "bump_height": self.bump_height,
            "g_source": self.g_source,
            "needs_smaller_cost": self.needs_smaller_cost,
        }


def _check_sign_pattern(l0, xi1, xi2):
    # psi' must be positive before the first critical point, negative
    # between them, positive beyond; 100 interior samples per interval
    for lo, hi, sign in ((0.0, xi1, 1.0), (xi1, xi2, -1.0),
                         (xi2, xi2 + 5.0, 1.0)):
        pts = lo + (hi - lo) * (np.arange(1, 101) / 101.0)
        vals = sign * psi_prime(l0, pts)
        if not np.all(vals > 0.0):
            raise ConfigError(
                "jump-cost profile does not alternate slope as expected; "
                f"failure in ({lo:.6g}, {hi:.6g})")


def build_instance(t0=0.5, l0=0.05, T=1.0, bump_height=0.05,
                   scan_step=0.005) -> ExampleInstance:
    """Derive the separation data for a cost level and anchor time.

    Needs 0 < l0 < e^{-2} so the jump profile has two critical points;
    below roughly 0.077 the far dip is profitable and the instance can
    exhibit the separation, otherwise it carries needs_smaller_cost.
    """
    if T <= 0.0:
        raise ConfigError(f"need T > 0, got {T}")
    if not 0.0 <= t0 < T:
        raise ConfigError(f"need 0 <= t0 < T, got {t0}")
    if not 0.0 < l0 < COST_THRESHOLD:
        raise ConfigError(
            f"base cost out of range: need 0 < l0 < e^-2 = "
            f"{COST_THRESHOLD:.6f}, got {l0}")
    if bump_height <= 0.0:
        raise ConfigError("need bump_height > 0")

    target = l0 * math.e

    def f(xi):
        return xi * math.exp(-xi) - target

    if not (f(0.0) < 0.0 < f(1.0)) or not f(XI_CAP) < 0.0:
        raise ConfigError("root bracket failure for the jump profile")
    xi1 = float(bisect(f, 0.0, 1.0, xtol=1e-13))
    xi2 = float(bisect(f, 1.0, XI_CAP, xtol=1e-13))
    for root in (xi1, xi2):
        if abs(root * math.exp(-root) - target) > ROOT_TOL:
            raise ConfigError("critical-point residual exceeds tolerance")
    _check_sign_pattern(l0, xi1, xi2)

    x0 = T - t0 + 1.0
    psi_min = float(psi(l0, xi2))
    anchor = float(math.exp(-1.0))
    gap = psi_min - anchor

    if gap >= -1e-9:
        return ExampleInstance(
            T=T, t0=t0, l0=l0, x0=x0, xi1=xi1, xi2=xi2, psi_min=psi_min,
            value_at_anchor=anchor, gap=gap, u_lo=math.nan, u_hi=math.nan,
            delta=0.0, bump_height=bump_height, g_source="",
            needs_smaller_cost=True)

    w_star = 1.0 + xi2

    def gap_at(u):
        return float(_gap_interior(l0, w_star, u))

    # outward sign scan from the anchor u = 1, then bisection polish
    u = 1.0
    while gap_at(u - scan_step) < 0.0:
        u -= scan_step
        if u < scan_step:
            raise ConfigError("profitable band scan left the domain")
    u_lo = float(bisect(gap_at, u - scan_step, u, xtol=1e-12))
    u = 1.0
    while gap_at(u + scan_step) < 0.0:
        u += scan_step
        if u > w_star:
            raise ConfigError("profitable band scan passed the jump target")
    u_hi = float(bisect(gap_at, u, u + scan_step, xtol=1e-12))
    delta = min(1.0 - u_lo, u_hi - 1.0)

    half = delta / 2.0
    radial = f"(abs(t - {t0!r}) + abs(x1 - {x0!r}))/{half!r}"
    g_source = (f"{bump_height!r}*cos({math.pi / 2.0!r}"
                f"*min(1, {radial}))^2*max(0, sign(1 - {radial}))")

    return ExampleInstance(
        T=T, t0=t0, l0=l0, x0=x0, xi1=xi1, xi2=xi2, psi_min=psi_min,
        value_at_anchor=anchor, gap=gap, u_lo=u_lo, u_hi=u_hi, delta=delta,
        bump_height=bump_height, g_source=g_source, needs_smaller_cost=False)


def sample_value_function(instance, grid) -> GridFunction:
    """Sample the transported profile; the final slice is h exactly.

    Evaluating the profile at t = T would reassociate x - T + T and
    drift by an ulp, so the terminal slice is written from the payoff
    expression itself.
    """
    if grid.n != 1:
        raise ConfigError("the separation instance is one-dimensional")
    if grid.T != instance.T:
        raise ConfigError("grid horizon does not match the instance")
    profile = ex.parse(instance.value_source(), {"t", "x1"})
    env = grid.full_env()
    values = np.asarray(ex.evaluate(profile, env), dtype=float)
    h_node = ex.parse("x1*exp(-x1)", {"x1"})
    values[-1] = ex.evaluate(h_node, grid.space_env())
    return GridFunction(grid, values)


def measure_obstacle_gap(instance, x_min=-1.0, x_max=5.0, x_nodes=601,
                         search=None):
    """Grid obstacle search vs closed-form psi minimization at the anchor.

    The box must contain the jump target x0 + xi2 and place x0 on a
    node; the slice itself is sampled analytically so the comparison
    isolates the search and interpolation error.
    """
    grid = Grid(T=instance.T, t_nodes=2, x_min=(x_min,), x_max=(x_max,),
                x_nodes=(x_nodes,))
    axis = grid.axes[0]
    i0 = int(round((instance.x0 - x_min) / grid.dx[0]))
    if not 0 <= i0 < x_nodes or abs(axis[i0] - instance.x0) > 1e-9:
        raise ConfigError("anchor point x0 must be a grid node")
    if x_max < instance.x0 + instance.xi2:
        raise ConfigError("box does not contain the optimal jump target")
    u = axis - instance.T + instance.t0
    slice_vals = u * np.exp(-u)
    problem = instance.problem(with_bump=False)
    values, _, _ = evaluate_slice_values(grid, slice_vals, instance.t0,
                                         problem.ell, problem.cone, search)
    measured = float(values[i0] - slice_vals[i0])
    return {
        "measured": measured,
        "oracle": instance.gap,
        "difference": abs(measured - instance.gap),
    }


@dataclass(frozen=True)
class SeparationReport:
    """Checker verdicts for one instance on one grid."""

    instance: ExampleInstance
    classical: object
    modified: object
    sub: object
    separated: bool
    violations_in_band: bool
    terminal_exact: bool
    notes: str = ""

    def to_dict(self):
        return {
            "instance": self.instance.to_dict(),
            "classical_passed": bool(self.classical.passed),
            "modified_passed": bool(self.modified.passed),
            "sub_passed": bool(self.sub.passed),
            "constraint_violations": len(self.modified.constraint_violations),
            "separated": bool(self.separated),
            "violations_in_band": bool(self.violations_in_band),
            "terminal_exact": bool(self.terminal_exact),
            "notes": self.notes,
        }

    def to_json(self, indent=2):
        return json.dumps(self.to_dict(), indent=indent)

    def summary(self):
        lines = [
            "classical super-solution check: "
            + ("pass" if self.classical.passed else "FAIL"),
            "modified super-solution check:  "
            + ("pass" if self.modified.passed else "FAIL")
            + f" ({len(self.modified.constraint_violations)} constraint"
              " violations)",
            "transport sub-solution check:   "
            + ("pass" if self.sub.passed else "FAIL"),
            "separation exhibited: " + ("yes" if self.separated else "no"),
        ]
        if self.notes:
            lines.append(self.notes)
        return "\n".join(lines)


def verify_separation(instance, grid, spec=None, search=None):
    """Run all three checkers on the sampled profile over one grid."""
    problem = instance.problem()
    V = sample_value_function(instance, grid)
    gap = obstacle_gap(V, problem, search)
    classical = check_qvi_supersolution_classical(V, problem, spec, gap=gap)
    modified = check_qvi_supersolution_modified(V, problem, spec, gap=gap)
    sub = check_hjb_subsolution(V, problem, spec)

    separated = bool(classical.passed and not modified.passed)
    cons = modified.constraint_violations
    if instance.needs_smaller_cost:
        in_band = len(cons) == 0
    else:
        in_band = all(instance.in_band(v.t, v.x[0]) for v in cons)

    h_node = ex.parse("x1*exp(-x1)", {"x1"})
    terminal_exact = bool(np.array_equal(
        V.values[-1], np.asarray(ex.evaluate(h_node, grid.space_env()),
                                 dtype=float)))

    notes = ""
    if instance.needs_smaller_cost:
        notes = ("no profitable jump at this cost level; shrink the base "
                 "cost to exhibit the separation")
    return SeparationReport(
        instance=instance, classical=classical, modified=modified, sub=sub,
        separated=separated, violations_in_band=in_band,
        terminal_exact=terminal_exact, notes=notes)
