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
verdict pattern together with ``measure_obstacle_gap``, which
cross-checks the grid obstacle operator against the closed-form psi
minimization.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import expr as ex
from .core import (Cone, ConfigError, Grid, GridFunction, ImpulseProblem,
                   role_variables, sample_terminal)
from .obstacle import evaluate_slice_values
from .viscosity import (
    TOL_FACTOR,
    VARIANT_HJB_SUB,
    VARIANT_QVI_SUPER_CLASSICAL,
    VARIANT_QVI_SUPER_MODIFIED,
    check_notions,
    obstacle_gap,
    validate_tol_factor,
)

__all__ = [
    "COST_THRESHOLD",
    "HORIZON",
    "BUMP_HEIGHT",
    "ExampleInstance",
    "SeparationReport",
    "build_instance",
    "anchor_grid",
    "psi",
    "psi_prime",
    "continuum_gap",
    "sample_value_function",
    "measure_obstacle_gap",
    "verify_separation",
]

COST_THRESHOLD = math.exp(-2.0)
HORIZON = 1.0  # T of every instance
BUMP_HEIGHT = 0.05  # peak of the bump g at the anchor
ROOT_TOL = 1e-10
XI_CAP = 20.0
_SCAN_STEP = 0.005  # outward step of the profitable-band sign scan
_BISECT_RTOL = 4.0 * np.finfo(float).eps  # scipy.optimize.bisect's rtol
_ROLES = role_variables(1)
_PAYOFF = ex.parse("x1*exp(-x1)", _ROLES["h"])  # the terminal payoff h


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
        """Whether (t, x1) sits strictly inside the profitable band.

        Elementwise on arrays.  An instance that needs a smaller cost has
        NaN band edges, so nothing is inside its band.
        """
        u = x1 - self.T + t
        return (self.u_lo < u) & (u < self.u_hi)

    def value_source(self):
        return (f"(x1 - {self.T!r} + t)*exp(-(x1 - {self.T!r} + t))")

    def problem(self):
        """The transport problem of the instance, with its bump g if any.

        N reads only ell and the cone, which the bump leaves alone.
        """
        g_node = None
        if self.g_source:
            g_node = ex.parse(self.g_source, _ROLES["g"])
        return ImpulseProblem(
            n=1, T=self.T,
            H=ex.parse("-p1", _ROLES["H"]),
            h=_PAYOFF,
            ell=ex.parse(f"{self.l0!r}*(1 + xi1)", _ROLES["ell"]),
            cone=Cone.orthant(1),
            g=g_node)


def _bisect(f, a, b, xtol):
    """A root of f in [a, b] by bisection, as scipy.optimize.bisect finds it.

    The same halving, the same stopping rule (f exactly 0 at the midpoint,
    or half width below xtol + 4*eps*|midpoint|) and the same 100-step
    limit, so the returned float is scipy's.
    """
    fa, fb = f(a), f(b)
    if fa * fb > 0.0:
        raise ConfigError(f"bisection bracket [{a!r}, {b!r}] has no sign change")
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    dm = b - a
    for _ in range(100):
        dm *= 0.5
        xm = a + dm
        fm = f(xm)
        if fm * fa >= 0.0:
            a = xm
        if fm == 0.0 or abs(dm) < xtol + _BISECT_RTOL * abs(xm):
            return xm
    raise ConfigError("bisection did not converge in 100 steps")


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


def build_instance(t0=0.5, l0=0.05) -> ExampleInstance:
    """Derive the separation data for a cost level and anchor time.

    The horizon is HORIZON and the bump peaks at BUMP_HEIGHT.  Needs
    0 <= t0 < HORIZON, and 0 < l0 < e^{-2} so the jump profile has two
    critical points; below roughly 0.077 the far dip is profitable and
    the instance can exhibit the separation, otherwise it carries
    needs_smaller_cost.
    """
    T = HORIZON
    if not 0.0 <= t0 < T:
        raise ConfigError(f"need 0 <= t0 < T, got {t0}")
    if not 0.0 < l0 < COST_THRESHOLD:
        raise ConfigError(
            f"base cost out of range: need 0 < l0 < e^-2 = "
            f"{COST_THRESHOLD:.6f}, got {l0}")

    target = l0 * math.e

    def f(xi):
        return xi * math.exp(-xi) - target

    if not (f(0.0) < 0.0 < f(1.0)) or not f(XI_CAP) < 0.0:
        raise ConfigError("root bracket failure for the jump profile")
    xi1 = _bisect(f, 0.0, 1.0, xtol=1e-13)
    xi2 = _bisect(f, 1.0, XI_CAP, xtol=1e-13)
    for root in (xi1, xi2):
        if abs(root * math.exp(-root) - target) > ROOT_TOL:
            raise ConfigError("critical-point residual exceeds tolerance")
    _check_sign_pattern(l0, xi1, xi2)

    x0 = T - t0 + 1.0
    psi_min = float(psi(l0, xi2))
    anchor = float(math.exp(-1.0))
    # the cheapest jump is the far dip or, at psi(0+) = anchor + l0, the
    # near-zero one (xi1 is a local maximum of psi)
    gap = min(psi_min - anchor, l0)

    if gap >= -1e-9:
        return ExampleInstance(
            T=T, t0=t0, l0=l0, x0=x0, xi1=xi1, xi2=xi2, psi_min=psi_min,
            value_at_anchor=anchor, gap=gap, u_lo=math.nan, u_hi=math.nan,
            delta=0.0, bump_height=BUMP_HEIGHT, g_source="",
            needs_smaller_cost=True)

    w_star = 1.0 + xi2

    def gap_at(u):
        return float(_gap_interior(l0, w_star, u))

    # outward sign scan from the anchor u = 1, then bisection polish
    u = 1.0
    while gap_at(u - _SCAN_STEP) < 0.0:
        u -= _SCAN_STEP
        if u < _SCAN_STEP:
            raise ConfigError("profitable band scan left the domain")
    u_lo = _bisect(gap_at, u - _SCAN_STEP, u, xtol=1e-12)
    u = 1.0
    while gap_at(u + _SCAN_STEP) < 0.0:
        u += _SCAN_STEP
        if u > w_star:
            raise ConfigError("profitable band scan passed the jump target")
    u_hi = _bisect(gap_at, u, u + _SCAN_STEP, xtol=1e-12)
    delta = min(1.0 - u_lo, u_hi - 1.0)

    half = delta / 2.0
    radial = f"(abs(t - {t0!r}) + abs(x1 - {x0!r}))/{half!r}"
    g_source = (f"{BUMP_HEIGHT!r}*cos({math.pi / 2.0!r}"
                f"*min(1, {radial}))^2*max(0, sign(1 - {radial}))")

    return ExampleInstance(
        T=T, t0=t0, l0=l0, x0=x0, xi1=xi1, xi2=xi2, psi_min=psi_min,
        value_at_anchor=anchor, gap=gap, u_lo=u_lo, u_hi=u_hi, delta=delta,
        bump_height=BUMP_HEIGHT, g_source=g_source, needs_smaller_cost=False)


def anchor_grid(instance, t_nodes, x_nodes):
    """The `reproduce-example` grid and the index k0 of the time t0.

    The box [-1.5, max(5.5, x0 + xi2 + 1)] reaches the jump target, or the
    clipped search would hide the dip.  t0 must be a time node (else a
    ConfigError): the anchor slice is read there, never at a nearby node.
    """
    x_hi = max(5.5, instance.x0 + instance.xi2 + 1.0)
    grid = Grid(instance.T, t_nodes, (-1.5,), (x_hi,), (x_nodes,))
    k0 = int(round(instance.t0 / grid.dt))
    if abs(instance.t0 / grid.dt - k0) > 1e-9:
        raise ConfigError(
            f"t0 {instance.t0!r} is not a time node of the grid: "
            f"{grid.t_nodes} nodes on [0, {instance.T!r}] step by {grid.dt!r}")
    return grid, k0


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
    # the profile is a function of (t, x), the variables g reads
    profile = ex.parse(instance.value_source(), _ROLES["g"])
    values = np.asarray(ex.evaluate(profile, grid.full_env()), dtype=float)
    values[-1] = sample_terminal(_PAYOFF, grid)
    return GridFunction(grid, values)


def measure_obstacle_gap(instance):
    """N[V] - V at the anchor x0, by the grid obstacle operator.

    The orthant obstacle at x0 reads only landing points at or right of
    x0, so the box is the 0.01 lattice x0 + 0.01*k for k from 0 to
    ceil((xi2 + 0.5)/0.01): it holds the jump target x0 + xi2, and the
    anchor is node 0 for any anchor time.  The slice is sampled
    analytically, so the distance to the closed form instance.gap
    isolates the search and interpolation error.
    """
    steps = math.ceil((instance.xi2 + 0.5) / 0.01)
    grid = Grid(T=instance.T, t_nodes=2, x_min=(instance.x0,),
                x_max=(instance.x0 + 0.01 * steps,), x_nodes=(steps + 1,))
    u = grid.axes[0] - instance.T + instance.t0
    slice_vals = u * np.exp(-u)
    problem = instance.problem()
    values, _, _ = evaluate_slice_values(grid, slice_vals, instance.t0,
                                         problem.ell, problem.cone)
    return float(values[0] - slice_vals[0])


def _verdict(report):
    return "PASS" if report.passed else "FAIL"


@dataclass(frozen=True)
class SeparationReport:
    """Checker verdicts for one instance on one grid.

    `measured` is measure_obstacle_gap(instance).  `gap` is the N[V] - V
    array the constrained checkers read; it is not part of the JSON
    report.
    """

    instance: ExampleInstance
    classical: object
    modified: object
    sub: object
    separated: bool
    violations_in_band: bool
    measured: float
    gap: np.ndarray = field(repr=False, compare=False)
    notes: str = ""

    def to_dict(self):
        """The `reproduce-example` report: each fact once."""
        instance = self.instance
        return {
            "classical": _verdict(self.classical),
            "modified": _verdict(self.modified),
            "separated": bool(self.separated),
            "sub": _verdict(self.sub),
            "constraint_violations": len(self.modified.constraint_violations),
            "violations_in_band": bool(self.violations_in_band),
            "notes": self.notes,
            "obstacle_at_anchor": instance.value_at_anchor + instance.gap,
            "gap_measured": self.measured,
            "gap_difference": abs(self.measured - instance.gap),
            "instance": asdict(instance),
        }


def verify_separation(instance, grid, tol_factor=TOL_FACTOR):
    """Run all three checkers on the sampled profile over one grid.

    `tol_factor` is the checkers' probe tolerance in units of dt + sum dx.
    The gap N[V] - V is viscosity.obstacle_gap's, at the radius every
    command uses.  The three notions are one check_notions call, so they
    share one probe field and this one gap.  The report also carries
    measure_obstacle_gap(instance).
    """
    # first, so a bad tol_factor is rejected before N runs on every slice
    validate_tol_factor(tol_factor, grid)
    measured = measure_obstacle_gap(instance)
    problem = instance.problem()
    V = sample_value_function(instance, grid)
    gap = obstacle_gap(V, problem)
    sub, classical, modified = check_notions(
        V, problem, (VARIANT_HJB_SUB, VARIANT_QVI_SUPER_CLASSICAL,
                     VARIANT_QVI_SUPER_MODIFIED), tol_factor, gap)

    separated = bool(classical.passed and not modified.passed)
    cons = modified.constraint_violations
    in_band = bool(np.all(instance.in_band(cons.t, cons.x[:, 0])))

    notes = ""
    if instance.needs_smaller_cost:
        notes = ("no profitable jump at this cost level; shrink the base "
                 "cost to exhibit the separation")
    return SeparationReport(
        instance=instance, classical=classical, modified=modified, sub=sub,
        separated=separated, violations_in_band=in_band, measured=measured,
        gap=gap, notes=notes)
