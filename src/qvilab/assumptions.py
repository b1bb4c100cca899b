"""Sampled audits of the structural hypotheses behind the impulse model.

The solver and the comparison machinery lean on a handful of inequalities:
a lower bound on the terminal payoff, a growth envelope and a modulus of
continuity for the Hamiltonian, a coercivity floor, a modulus, and strict
subadditivity for the impulse cost, and order/regularity relations between
two problems being compared.  None of these can be proved symbolically for
expression-defined data, so this module checks them numerically: evaluate
each inequality on a reproducible sample cloud and report the worst margin
together with the point that attains it.

Sampling is an Owen-scrambled Halton sequence with a fixed seed,
optionally augmented with grid nodes.  The sampler is ``core.halton``:
numpy only, and bitwise equal to scipy's ``qmc.Halton(scramble=True)``
with the same seed.  Audits are therefore deterministic and prefix stable:
rerunning with a larger sample count reuses the smaller run's points.  As a
consequence every min-over-samples margin is monotone in the sample count.
The two modulus checks are the exception: they compare the largest observed
variation across three dyadic separation scales (the bound must shrink as
the separation shrinks), and a maximum over a growing sample set need not
move monotonically.

A margin is the slack in the inequality (nonnegative means it holds at that
point).  A check passes when its worst margin is at least minus the check's
tolerance: 1e-9 where the arithmetic is exact, 1e-6 for scanned extrema.
"""

from dataclasses import asdict, dataclass

import numpy as np

from . import expr as ex
from .core import ConfigError, Grid, make_env
from .core import halton as _halton

TOL_EXACT = 1e-9
TOL_SCAN = 1e-6
P_MAX = 4.0  # the gradient samples fill [-P_MAX, P_MAX]^n
SEED = 11  # base seed of every Halton stream

# seed offsets keep the per-check Halton streams independent
_OFF_X = 1
_OFF_TXP = 2
_OFF_MOD_BASE = 3
_OFF_MOD_STEP = 4
_OFF_TX = 5
_OFF_XI = 6
_OFF_XI_PAIR = 7
_OFF_NODE_PAIRS = 8


# ------------------------------------------------------------- sampling ----

@dataclass(frozen=True)
class SamplerSpec:
    """Where and how densely to sample the hypothesis checks.

    `x_min`/`x_max` bound the spatial box and `xi_max` the ray
    coefficients of sampled impulses.  The gradient box is always
    [-P_MAX, P_MAX]^n and the Halton streams start from SEED.  When
    `grid` is given its nodes join the `x` cloud and the `(t, x, p)`
    cloud, there with p = 0; the cost clouds never include them.
    """

    x_min: tuple
    x_max: tuple
    xi_max: float = 4.0
    n_samples: int = 512
    grid: Grid = None

    def __post_init__(self):
        object.__setattr__(self, "x_min", tuple(float(v) for v in self.x_min))
        object.__setattr__(self, "x_max", tuple(float(v) for v in self.x_max))
        if len(self.x_min) != len(self.x_max) or not self.x_min:
            raise ConfigError("sampler box bounds must agree in dimension")
        for lo, hi in zip(self.x_min, self.x_max):
            if not lo < hi:
                raise ConfigError(f"sampler box needs x_min < x_max, got [{lo}, {hi}]")
        if not (np.isfinite(self.xi_max) and self.xi_max > 0.0):
            raise ConfigError(f"need xi_max > 0, got {self.xi_max}")
        if self.n_samples < 8:
            raise ConfigError(f"need n_samples >= 8, got {self.n_samples}")

    @property
    def n(self):
        return len(self.x_min)


def default_sampler(grid):
    """Sampler over a grid's box, with the grid's nodes joined in and ray
    coefficients up to the box diagonal, the radius of the obstacle N."""
    return SamplerSpec(x_min=grid.x_min, x_max=grid.x_max,
                       xi_max=grid.box_diagonal, grid=grid)


def _check_dimension(spec, problem):
    if spec.n != problem.n:
        raise ConfigError(
            f"sampler dimension {spec.n} does not match problem dimension {problem.n}")


def _grid_full_nodes(grid):
    space = grid.space_nodes()
    t = np.repeat(grid.t, space.shape[0])
    x = np.tile(space, (grid.t_nodes, 1))
    return t, x


def _x_cloud(spec):
    """Spatial samples (N, n): Halton points plus any grid space nodes."""
    lo = np.asarray(spec.x_min)
    hi = np.asarray(spec.x_max)
    u = _halton(spec.n, spec.n_samples, SEED + _OFF_X)
    pts = lo + u * (hi - lo)
    if spec.grid is not None:
        pts = np.vstack([pts, spec.grid.space_nodes()])
    return pts


def _txp_cloud(spec, T):
    """(t, x, p) samples; grid nodes join with p = 0."""
    n = spec.n
    u = _halton(1 + 2 * n, spec.n_samples, SEED + _OFF_TXP)
    t = u[:, 0] * T
    lo = np.asarray(spec.x_min)
    hi = np.asarray(spec.x_max)
    x = lo + u[:, 1:1 + n] * (hi - lo)
    p = (2.0 * u[:, 1 + n:] - 1.0) * P_MAX
    if spec.grid is not None:
        gt, gx = _grid_full_nodes(spec.grid)
        t = np.concatenate([t, gt])
        x = np.vstack([x, gx])
        p = np.vstack([p, np.zeros_like(gx)])
    return t, x, p


def _tx_cloud(spec, T, seed_offset=_OFF_TX):
    n = spec.n
    u = _halton(1 + n, spec.n_samples, SEED + seed_offset)
    t = u[:, 0] * T
    lo = np.asarray(spec.x_min)
    hi = np.asarray(spec.x_max)
    x = lo + u[:, 1:] * (hi - lo)
    return t, x


def _xi_cloud(spec, cone, seed_offset):
    """Impulses (N, n) in the cone: zero, the capped extreme rays, then a
    Halton block over ray coefficients in [0, xi_max]^m."""
    m = cone.n_rays
    u = _halton(m, spec.n_samples, SEED + seed_offset)
    lam = u * spec.xi_max
    fixed = np.vstack([np.zeros((1, m)), spec.xi_max * np.eye(m)])
    return cone.from_coefficients(np.vstack([fixed, lam]))


# --------------------------------------------------------------- report ----

@dataclass(frozen=True)
class CheckResult:
    """One audited inequality: its worst sampled margin and where."""

    name: str
    points_tested: int
    worst_margin: float
    worst_point: dict
    tolerance: float
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class AuditReport:
    checks: tuple

    def __post_init__(self):
        object.__setattr__(self, "checks", tuple(self.checks))

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def check(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(f"no check named {name!r}")

    def to_dict(self):
        return {"passed": self.passed, "checks": [asdict(c) for c in self.checks]}


def _py(value):
    if isinstance(value, np.ndarray):
        return [float(v) for v in value]
    return float(value)


def _join(*notes):
    return "; ".join(s for s in notes if s)


def _masked_eval(node, env, count):
    """Evaluate vectorized; on a domain error retry per point, masking the
    offenders with NaN so the audit continues elsewhere."""
    try:
        vals = ex.evaluate(node, env)
        return np.broadcast_to(np.asarray(vals, dtype=float), (count,)).copy(), ""
    except ex.DomainError as err:
        vals = np.full(count, np.nan)
        for i in range(count):
            env_i = {k: (v[i] if isinstance(v, np.ndarray) else v)
                     for k, v in env.items()}
            try:
                vals[i] = ex.evaluate(node, env_i)
            except ex.DomainError:
                pass
        skipped = int(np.isnan(vals).sum())
        return vals, f"{skipped} of {count} samples skipped: {err}"


def _argmin_lex(margins, coord_rows):
    """Index of the smallest margin; exact ties go to the lexicographically
    smallest coordinate row."""
    best = np.min(margins)
    idx = np.flatnonzero(margins == best)
    if idx.size == 1:
        return int(idx[0])
    rows = coord_rows[idx]
    order = np.lexsort(rows.T[::-1])
    return int(idx[order[0]])


def _min_check(name, margins, points, tolerance, note=""):
    """Reduce per-sample margins to a CheckResult.

    `points` maps coordinate names to arrays aligned with `margins`; the
    worst point is reported under those names.
    """
    margins = np.asarray(margins, dtype=float)
    valid = ~np.isnan(margins)  # NaN marks a masked sample; inf is a margin
    n_valid = int(valid.sum())
    if n_valid == 0:
        return CheckResult(name, 0, float("nan"), {}, tolerance, False,
                           note or "no valid samples")
    work = np.where(valid, margins, np.inf)
    cols = [np.asarray(v, dtype=float).reshape(len(margins), -1)
            for v in points.values()]
    coord_rows = np.hstack(cols) if cols else np.zeros((len(margins), 0))
    idx = _argmin_lex(work, coord_rows)
    worst = float(work[idx])
    worst_point = {k: _py(np.asarray(v)[idx]) for k, v in points.items()}
    return CheckResult(name, n_valid, worst, worst_point, tolerance,
                       worst >= -tolerance, note)


# ------------------------------------------------------ modulus estimate ----

def _modulus_check(name, values, problem, fixed, spec, base_seed, step_seed):
    """Empirical modulus of continuity across three dyadic separation scales.

    `values(problem, t, x, q)` returns (per-point values, note) with NaN at
    invalid points.  Both ends of a pair (t, x), (t2, x2) read the same q,
    the rows of `fixed` taken in turn, and the modulus bounds the absolute
    difference of their values.  Pairs are binned by actual separation
    |t - t2| + |x - x2|; the check's margin is the smallest decrease
    between consecutive binned maxima, so it is nonnegative exactly when
    the observed variation shrinks with the scale.
    """
    n = spec.n
    T = problem.T
    lo = np.asarray(spec.x_min)
    hi = np.asarray(spec.x_max)
    radius0 = (T + float(np.linalg.norm(hi - lo))) / 4.0

    t0, x0 = _tx_cloud(spec, T, seed_offset=base_seed)
    u = _halton(2 + n, spec.n_samples, SEED + step_seed)
    direction = 2.0 * u[:, :1 + n] - 1.0
    weight = np.abs(direction[:, 0]) + np.linalg.norm(direction[:, 1:], axis=1)
    weight = np.where(weight == 0.0, 1.0, weight)
    unit_t = direction[:, 0] / weight
    unit_x = direction[:, 1:] / weight[:, None]
    mix = 0.5 + 0.5 * u[:, 1 + n]

    ts, xs, t2s, x2s, seps = [], [], [], [], []
    for level in range(3):
        r = radius0 / 2.0 ** level * mix
        t2 = np.clip(t0 + r * unit_t, 0.0, T)
        x2 = np.clip(x0 + r[:, None] * unit_x, lo, hi)
        ts.append(t0)
        xs.append(x0)
        t2s.append(t2)
        x2s.append(x2)
        seps.append(np.abs(t2 - t0) + np.linalg.norm(x2 - x0, axis=1))
    t, x = np.concatenate(ts), np.vstack(xs)
    t2, x2 = np.concatenate(t2s), np.vstack(x2s)
    sep = np.concatenate(seps)

    reps = int(np.ceil(len(t) / len(fixed)))
    q = np.tile(fixed, (reps, 1))[:len(t)]
    a, note_a = values(problem, t, x, q)
    b, note_b = values(problem, t2, x2, q)
    diff = np.abs(a - b)
    note = _join(note_a, note_b)

    edges = [radius0, radius0 / 2.0, radius0 / 4.0, radius0 / 8.0]
    maxima = []
    worst_pairs = []
    used = 0
    for k in range(3):
        mask = (sep > edges[k + 1]) & (sep <= edges[k]) & np.isfinite(diff)
        used += int(mask.sum())
        if not mask.any():
            maxima.append(0.0)
            worst_pairs.append(None)
            note = _join(note, f"empty separation bin at scale {edges[k]:.3g}")
            continue
        vals = np.where(mask, diff, -np.inf)
        j = int(np.argmax(vals))
        maxima.append(float(vals[j]))
        worst_pairs.append(j)

    drops = [maxima[0] - maxima[1], maxima[1] - maxima[2]]
    which = int(np.argmin(drops))
    margin = float(drops[which])
    j = worst_pairs[which + 1]
    if j is None:
        worst_point = {"scales": [float(e) for e in edges[:3]], "maxima": maxima}
    else:
        worst_point = {
            "t": float(t[j]), "x": _py(x[j]),
            "t2": float(t2[j]), "x2": _py(x2[j]),
            "separation": float(sep[j]), "maxima": maxima,
        }
    return CheckResult(name, used, margin, worst_point, TOL_SCAN,
                       margin >= -TOL_SCAN, note)


# ---------------------------------------------------------------- audits ----

def _hamiltonian_vals(problem, t, x, p):
    vals, note = _masked_eval(problem.H, make_env(t=t, x=x, p=p), len(t))
    if problem.g is not None:
        g_vals, g_note = _masked_eval(problem.g, make_env(t=t, x=x), len(t))
        vals = vals + g_vals
        note = _join(note, g_note)
    return vals, note


def _cost_vals(problem, t, x, xi):
    return _masked_eval(problem.ell, make_env(t=t, x=x, xi=xi), len(t))


def audit_H1(problem, constants, sampler_spec):
    """Audit the terminal lower bound, the Hamiltonian growth envelope, and
    the Hamiltonian modulus of continuity."""
    spec = sampler_spec
    _check_dimension(spec, problem)
    checks = []

    x = _x_cloud(spec)
    h_vals, note = _masked_eval(problem.h, make_env(x=x), len(x))
    checks.append(_min_check("terminal lower bound", h_vals + constants.h0,
                             {"x": x}, TOL_SCAN, note))

    t, xs, p = _txp_cloud(spec, problem.T)
    h_of_p, note = _hamiltonian_vals(problem, t, xs, p)
    xnorm = np.linalg.norm(xs, axis=1)
    pnorm = np.linalg.norm(p, axis=1)
    with np.errstate(over="ignore"):  # an inf bound leaves no finite margin
        envelope = constants.L * (1.0 + xnorm ** constants.mu) * (1.0 + pnorm)
    checks.append(_min_check("hamiltonian growth", envelope - np.abs(h_of_p),
                             {"t": t, "x": xs, "p": p}, TOL_SCAN, note))

    p_fixed = _halton(problem.n, spec.n_samples, SEED + _OFF_MOD_BASE + 17)
    p_fixed = (2.0 * p_fixed - 1.0) * P_MAX
    checks.append(_modulus_check("hamiltonian modulus", _hamiltonian_vals,
                                 problem, p_fixed, spec,
                                 _OFF_MOD_BASE, _OFF_MOD_STEP))
    return AuditReport(tuple(checks))


def audit_H2(problem, constants, sampler_spec):
    """Audit the impulse-cost coercivity floor, modulus, and strict
    subadditivity."""
    spec = sampler_spec
    _check_dimension(spec, problem)
    checks = []
    cone = problem.cone

    xi = _xi_cloud(spec, cone, _OFF_XI)
    t, x = _tx_cloud(spec, problem.T)
    count = min(len(t), len(xi))
    t, x, xi_c = t[:count], x[:count], xi[:count]
    cost, note = _cost_vals(problem, t, x, xi_c)
    with np.errstate(over="ignore"):
        floor = constants.ell0 + constants.alpha * np.linalg.norm(xi_c, axis=1) ** constants.beta
    checks.append(_min_check("cost coercivity", cost - floor,
                             {"t": t, "x": x, "xi": xi_c}, TOL_SCAN, note))

    xi_fixed = _xi_cloud(spec, cone, _OFF_XI + 23)
    checks.append(_modulus_check("cost modulus", _cost_vals, problem,
                                 xi_fixed, spec,
                                 _OFF_MOD_BASE + 13, _OFF_MOD_STEP + 13))

    xi2 = _xi_cloud(spec, cone, _OFF_XI_PAIR)
    count = min(len(t), len(xi), len(xi2))
    ts, xs = t[:count], x[:count]
    a, b = xi[:count], xi2[:count]
    one, n1 = _cost_vals(problem, ts, xs, a)
    two, n2 = _cost_vals(problem, ts, xs + a, b)
    alt_one, n3 = _cost_vals(problem, ts, xs, b)
    alt_two, n4 = _cost_vals(problem, ts, xs + b, a)
    combined, n5 = _cost_vals(problem, ts, xs, a + b)
    chained = np.minimum(one + two, alt_one + alt_two)
    checks.append(_min_check("cost subadditivity",
                             chained - combined - constants.delta0,
                             {"t": ts, "x": xs, "xi": a, "xi2": b},
                             TOL_EXACT, _join(n1, n2, n3, n4, n5)))
    return AuditReport(tuple(checks))


def check_pair(problem, problem_hat):
    """Reject two problems of different dimensions or horizons."""
    if problem.n != problem_hat.n:
        raise ConfigError("mismatched problem dimensions")
    if problem.T != problem_hat.T:
        raise ConfigError("compared problems must share the horizon")


def audit_order(problem_pair, sampler_spec):
    """Audit the data order of two problems on the sample clouds.

    Three checks, in this order: "terminal order" (h <= h_hat),
    "hamiltonian order" (H + g <= H_hat + g_hat) and "cost order"
    (ell <= ell_hat); each margin is the second value minus the first.
    """
    problem, problem_hat = problem_pair
    check_pair(problem, problem_hat)
    if (problem.cone.kind != problem_hat.cone.kind
            or problem.cone.rays.shape != problem_hat.cone.rays.shape
            or not np.array_equal(problem.cone.rays, problem_hat.cone.rays)):
        raise ConfigError("compared problems must share the impulse cone")
    spec = sampler_spec
    _check_dimension(spec, problem)
    checks = []

    x = _x_cloud(spec)
    env = make_env(x=x)
    h_vals, n1 = _masked_eval(problem.h, env, len(x))
    h_hat, n2 = _masked_eval(problem_hat.h, env, len(x))
    checks.append(_min_check("terminal order", h_hat - h_vals, {"x": x},
                             TOL_EXACT, _join(n1, n2)))

    t, xs, p = _txp_cloud(spec, problem.T)
    ham, n1 = _hamiltonian_vals(problem, t, xs, p)
    ham_hat, n2 = _hamiltonian_vals(problem_hat, t, xs, p)
    checks.append(_min_check("hamiltonian order", ham_hat - ham,
                             {"t": t, "x": xs, "p": p}, TOL_EXACT,
                             _join(n1, n2)))

    xi = _xi_cloud(spec, problem.cone, _OFF_XI)
    tc, xc = _tx_cloud(spec, problem.T)
    count = min(len(tc), len(xi))
    tc, xc, xi = tc[:count], xc[:count], xi[:count]
    cost, n1 = _cost_vals(problem, tc, xc, xi)
    cost_hat, n2 = _cost_vals(problem_hat, tc, xc, xi)
    checks.append(_min_check("cost order", cost_hat - cost,
                             {"t": tc, "x": xc, "xi": xi}, TOL_EXACT,
                             _join(n1, n2)))
    return AuditReport(tuple(checks))


def audit_comparison_hypotheses(problem_pair, constants, V, V_hat, sampler_spec):
    """Audit the data order of two problems (the checks of audit_order)
    and the growth and Hoelder regularity of a candidate solution pair."""
    if V.grid != V_hat.grid:
        raise ConfigError("compared grid functions must share the grid")
    checks = list(audit_order(problem_pair, sampler_spec).checks)
    spec = sampler_spec
    n = spec.n

    grid = V.grid
    gt, gx = _grid_full_nodes(grid)
    with np.errstate(over="ignore"):  # an inf bound leaves no finite margin
        bound = constants.C * (1.0 + np.linalg.norm(gx, axis=1) ** constants.gamma)
    margins = np.concatenate([bound - np.abs(V.values.ravel()),
                              bound - np.abs(V_hat.values.ravel())])
    which = np.concatenate([np.zeros(len(gt)), np.ones(len(gt))])
    checks.append(_min_check("value growth", margins,
                             {"t": np.concatenate([gt, gt]),
                              "x": np.vstack([gx, gx]),
                              "is_second": which}, TOL_SCAN))

    u = _halton(1 + 2 * n, spec.n_samples, SEED + _OFF_NODE_PAIRS)
    t_idx = np.minimum((u[:, 0] * grid.t_nodes).astype(int), grid.t_nodes - 1)
    i_idx = tuple(np.minimum((u[:, 1 + d] * grid.x_nodes[d]).astype(int),
                             grid.x_nodes[d] - 1) for d in range(n))
    j_idx = tuple(np.minimum((u[:, 1 + n + d] * grid.x_nodes[d]).astype(int),
                             grid.x_nodes[d] - 1) for d in range(n))
    xi_pts = np.stack([grid.axes[d][i_idx[d]] for d in range(n)], axis=1)
    xj_pts = np.stack([grid.axes[d][j_idx[d]] for d in range(n)], axis=1)
    dist = np.linalg.norm(xi_pts - xj_pts, axis=1)
    with np.errstate(over="ignore"):
        holder_bound = constants.C * (1.0 + dist ** constants.kappa)
    dv = np.abs(V.values[(t_idx,) + i_idx] - V.values[(t_idx,) + j_idx])
    dv_hat = np.abs(V_hat.values[(t_idx,) + i_idx] - V_hat.values[(t_idx,) + j_idx])
    margins = np.concatenate([holder_bound - dv, holder_bound - dv_hat])
    t_pairs = grid.t[t_idx]
    checks.append(_min_check("value holder", margins,
                             {"t": np.concatenate([t_pairs, t_pairs]),
                              "x": np.vstack([xi_pts, xi_pts]),
                              "x2": np.vstack([xj_pts, xj_pts]),
                              "is_second": np.concatenate([np.zeros(len(dv)),
                                                           np.ones(len(dv))])},
                             TOL_SCAN))
    return AuditReport(tuple(checks))
