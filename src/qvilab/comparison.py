"""Order preservation between solved problems and its two-point diagnostic.

Two impulse problems whose data are ordered pointwise (terminal payoff,
Hamiltonian, and impulse cost all dominated by their counterparts) have
ordered value functions.  ``compare_solutions`` measures this on a grid:
both problems are solved with one shared monotone scheme and the maximum
of V - V_hat over the trusted interior sub-box is reported against a
first-order tolerance 10*(dt + sum dx).

``doubling_maximize`` exposes the two-point machinery behind that fact.
It maximizes

    Phi(t, s, x, y) = (1 - theta*G) V(t, x) - V_hat(s, y) - phi(t, s, x, y)

over node tuples, where

    phi = theta * w(t, s) * (<x> + <y>) - rho*(t + s)
          + (1/2 eps)|t - s|^2 + (1/2 delta)|x - y|^2,
    w(t, s) = (2 nu T - t - s) / (2 nu T),       <x> = sqrt(1 + |x|^2).

The search set is a full product of time nodes with a strided subset of
space nodes, so it contains the symmetric tuples (t, t, x, x); comparing
the argmax against the two symmetric tuples it dominates turns the
quadratic penalties into the bound

    (1/eps)|t0-s0|^2 + (1/delta)|x0-y0|^2
        <= |V(t0,x0) - V(s0,y0)| + |V_hat(t0,x0) - V_hat(s0,y0)|

up to the small cross term theta*(t0-s0)*(<x0> - <y0>)/(nu T) that the
barrier contributes off the diagonal.  ``residual_symmetry`` reports the
bound as displayed (without the cross term); ``residual_certified``
includes it and is nonpositive by construction whenever the search ran.
Halving eps and delta across levels drives |t0-s0| and |x0-y0| down,
which is the limit step the diagnostic is meant to make visible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .assumptions import (
    TOL_EXACT,
    SamplerSpec,
    _OFF_XI,
    _masked_eval,
    _tx_cloud,
    _txp_cloud,
    _x_cloud,
    _xi_cloud,
    audit_comparison_hypotheses,
    default_sampler,
)
from .core import AssumptionConstants, ConfigError, ImpulseProblem
from .solver import SchemeParams, estimate_dissipation, interior_mask, solve_qvi
from .viscosity import _tolerance_unit

__all__ = [
    "DoublingParams",
    "DoublingLevel",
    "DoublingDiagnostics",
    "ComparisonReport",
    "ordered_pair_generator",
    "shared_scheme",
    "compare_solutions",
    "doubling_maximize",
    "write_trend_csv",
    "DOUBLING_LEVELS",
    "TUPLE_BUDGET",
]

DOUBLING_LEVELS = (0.1, 0.05, 0.025)
TUPLE_BUDGET = 10 ** 7

_ORDER_CHECKS = ("terminal order", "hamiltonian order", "cost order")

# constants used only to gate on the order checks; growth and regularity
# bounds are made vacuous
_PERMISSIVE = AssumptionConstants(
    L=1.0, mu=0.0, h0=1.0, ell0=1e-9, alpha=1e-9, beta=0.5, delta0=1e-9,
    C=1e9, gamma=0.0, kappa=0.25)


# ------------------------------------------------------------- ordering ----


def _offset_expr(raw, allowed, label):
    if raw is None:
        return None
    if isinstance(raw, str):
        return ex.parse(raw, allowed)
    extra = ex.variables(raw) - allowed
    if extra:
        raise ConfigError(
            f"{label} uses disallowed variable(s): {sorted(extra)}")
    return raw


def _plus(base_node, offset):
    if offset is None:
        return base_node
    return ex.Bin("+", base_node, offset)


def _require_nonneg(node, env, count, label):
    vals, _ = _masked_eval(node, env, count)
    vals = np.asarray(vals, dtype=float)
    finite = np.isfinite(vals)
    if not finite.any():
        raise ConfigError(f"{label} could not be evaluated on the sample set")
    worst = int(np.nanargmin(np.where(finite, vals, np.nan)))
    if vals[worst] < -TOL_EXACT:
        where = {k: np.asarray(v).ravel()[worst] for k, v in env.items()}
        raise ConfigError(
            f"{label} samples negative: {vals[worst]:.6g} at "
            + ", ".join(f"{k}={v:.6g}" for k, v in sorted(where.items())))


def ordered_pair_generator(base, offsets, sampler_spec=None):
    """Build a problem pair ordered by construction.

    ``offsets`` is a triple (dh, dH, dell) of expressions or strings
    (None means zero): the returned pair is (base, dominated) with
    h + dh, H + dH, ell + dell on the second member.  Each offset is
    sampled over the audit clouds and must be nonnegative there, so the
    order hypotheses of compare_solutions hold on the sample set.
    """
    if len(offsets) != 3:
        raise ConfigError("offsets must be a (dh, dH, dell) triple")
    n = base.n
    x_names = {f"x{d + 1}" for d in range(n)}
    p_names = {f"p{d + 1}" for d in range(n)}
    xi_names = {f"xi{d + 1}" for d in range(n)}
    dh = _offset_expr(offsets[0], x_names, "terminal offset")
    dH = _offset_expr(offsets[1], {"t"} | x_names | p_names,
                      "hamiltonian offset")
    dell = _offset_expr(offsets[2], {"t"} | x_names | xi_names, "cost offset")

    spec = sampler_spec
    if spec is None:
        spec = SamplerSpec(x_min=(-4.0,) * n, x_max=(4.0,) * n)
    if spec.n != n:
        raise ConfigError(
            f"sampler dimension {spec.n} does not match problem dimension {n}")

    if dh is not None:
        X = _x_cloud(spec)
        env = {f"x{d + 1}": X[:, d] for d in range(n)}
        _require_nonneg(dh, env, len(X), "terminal offset")
    if dH is not None:
        t, x, p = _txp_cloud(spec, base.T)
        env = {"t": t}
        env.update({f"x{d + 1}": x[:, d] for d in range(n)})
        env.update({f"p{d + 1}": p[:, d] for d in range(n)})
        _require_nonneg(dH, env, len(t), "hamiltonian offset")
    if dell is not None:
        xi = _xi_cloud(spec, base.cone, _OFF_XI)
        t, x = _tx_cloud(spec, base.T)
        count = min(len(t), len(xi))
        env = {"t": t[:count]}
        env.update({f"x{d + 1}": x[:count, d] for d in range(n)})
        env.update({f"xi{d + 1}": xi[:count, d] for d in range(n)})
        _require_nonneg(dell, env, count, "cost offset")

    dominated = ImpulseProblem(
        n=base.n, T=base.T,
        H=_plus(base.H, dH), h=_plus(base.h, dh), ell=_plus(base.ell, dell),
        cone=base.cone, g=base.g)
    return base, dominated


# ----------------------------------------------------------- comparison ----


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of solving an ordered pair with a shared scheme."""

    max_difference: float
    tolerance: float
    passed: bool
    ordered: bool
    audit: object
    scheme: SchemeParams
    V: object
    V_hat: object
    interior_points: int
    notes: str = ""

    def to_dict(self):
        return {
            "max_difference": float(self.max_difference),
            "tolerance": float(self.tolerance),
            "passed": bool(self.passed),
            "ordered": bool(self.ordered),
            "interior_points": int(self.interior_points),
            "dissipation": [float(s) for s in self.scheme.dissipation],
            "audit": self.audit.to_dict(),
            "notes": self.notes,
        }

    def to_json(self, indent=2):
        return json.dumps(self.to_dict(), indent=indent)

    def summary(self):
        verdict = "pass" if self.passed else "FAIL"
        return (f"{verdict}  max(V - V_hat) = {self.max_difference:.6g} "
                f"over {self.interior_points} interior nodes "
                f"(tolerance {self.tolerance:.6g})")


def shared_scheme(problem, problem_hat, grid, factor=1.05):
    """One dissipation vector strong enough for both Hamiltonians."""
    a = estimate_dissipation(problem, grid, factor)
    b = estimate_dissipation(problem_hat, grid, factor)
    return SchemeParams(dissipation=tuple(max(u, v) for u, v in zip(a, b)))


def compare_solutions(problem, problem_hat, grid, scheme=None, search=None,
                      constants=None, sampler_spec=None, override=False):
    """Solve both problems with one scheme and measure max(V - V_hat).

    The data order is audited first (terminal, Hamiltonian, cost margins
    all nonnegative on the sample clouds); a failed audit raises unless
    ``override`` is set, in which case the difference is measured anyway
    and the report carries ordered=False.
    """
    if problem.n != problem_hat.n:
        raise ConfigError("mismatched problem dimensions")
    if problem.T != problem_hat.T:
        raise ConfigError("compared problems must share the horizon")
    if scheme is None:
        scheme = shared_scheme(problem, problem_hat, grid)
    res = solve_qvi(problem, grid, scheme, search)
    res_hat = solve_qvi(problem_hat, grid, scheme, search)

    spec = sampler_spec if sampler_spec is not None else default_sampler(grid)
    audit = audit_comparison_hypotheses(
        (problem, problem_hat), constants if constants is not None
        else _PERMISSIVE, res.V, res_hat.V, spec)
    ordered = all(audit.check(name).passed for name in _ORDER_CHECKS)
    notes = []
    if not ordered:
        failing = [name for name in _ORDER_CHECKS
                   if not audit.check(name).passed]
        if not override:
            raise ConfigError(
                "data order audit failed: " + ", ".join(failing)
                + " (pass override=True to measure anyway)")
        notes.append("order audit failed: " + ", ".join(failing))

    mask = interior_mask(grid, scheme)
    diff = res.V.values - res_hat.V.values
    if mask.any():
        max_diff = float(diff[mask].max())
        interior = int(mask.sum())
    else:
        max_diff = float(diff.max())
        interior = int(diff.size)
        notes.append("interior sub-box empty; measured over all nodes")

    tolerance = 10.0 * _tolerance_unit(grid)
    return ComparisonReport(
        max_difference=max_diff, tolerance=tolerance,
        passed=bool(max_diff <= tolerance), ordered=ordered, audit=audit,
        scheme=scheme, V=res.V, V_hat=res_hat.V, interior_points=interior,
        notes="; ".join(notes))


# -------------------------------------------------------------- doubling ---


@dataclass(frozen=True)
class DoublingParams:
    """Penalty and barrier weights for the two-point maximization."""

    theta: float = 0.01
    nu: float = 2.0
    epsilon: float = 0.1
    delta: float = 0.1
    rho: float = 1e-3
    G: float = 10.0

    def __post_init__(self):
        for name in ("theta", "epsilon", "delta", "rho"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"need {name} > 0")
        if not self.nu > 1.0:
            raise ConfigError("need nu > 1")
        if not self.G > 1.0:
            raise ConfigError("need G > 1")
        if not self.theta * self.G < 1.0:
            raise ConfigError("need theta*G < 1")


@dataclass(frozen=True)
class DoublingLevel:
    """Argmax data and residuals for one (epsilon, delta) setting."""

    epsilon: float
    delta: float
    t0: float
    s0: float
    x0: tuple
    y0: tuple
    t_gap: float
    x_gap: float
    phi_value: float
    residual_symmetry: float
    residual_certified: float
    growth_lhs: float
    growth_constant: float

    def to_dict(self):
        return {
            "epsilon": self.epsilon, "delta": self.delta,
            "t0": self.t0, "s0": self.s0,
            "x0": list(self.x0), "y0": list(self.y0),
            "t_gap": self.t_gap, "x_gap": self.x_gap,
            "phi_value": self.phi_value,
            "residual_symmetry": self.residual_symmetry,
            "residual_certified": self.residual_certified,
            "growth_lhs": self.growth_lhs,
            "growth_constant": self.growth_constant,
        }


@dataclass(frozen=True)
class DoublingDiagnostics:
    """Trend table of two-point maximizations as the penalties tighten."""

    params: DoublingParams
    levels: tuple
    stride: int
    space_points: int
    tuples_per_level: int
    certificate_count: int
    certificate_ok: bool
    notes: str = ""

    @property
    def final(self) -> DoublingLevel:
        return self.levels[-1]

    @property
    def argmax(self):
        f = self.final
        return (f.t0, f.s0, f.x0, f.y0)

    @property
    def phi_value(self):
        return self.final.phi_value

    @property
    def residual_symmetry(self):
        return self.final.residual_symmetry

    def gaps_nonincreasing(self):
        pairs = zip(self.levels, self.levels[1:])
        return all(b.t_gap <= a.t_gap + 1e-12 and b.x_gap <= a.x_gap + 1e-12
                   for a, b in pairs)

    def to_dict(self):
        return {
            "theta": self.params.theta, "nu": self.params.nu,
            "rho": self.params.rho, "G": self.params.G,
            "stride": self.stride, "space_points": self.space_points,
            "tuples_per_level": self.tuples_per_level,
            "certificate_count": self.certificate_count,
            "certificate_ok": bool(self.certificate_ok),
            "levels": [lev.to_dict() for lev in self.levels],
            "notes": self.notes,
        }

    def to_json(self, indent=2):
        return json.dumps(self.to_dict(), indent=indent)

    def summary(self):
        lines = [
            f"two-point search: stride {self.stride}, "
            f"{self.tuples_per_level} tuples per level, certificate "
            + ("ok" if self.certificate_ok else "FAILED")]
        for lev in self.levels:
            lines.append(
                f"  eps={lev.epsilon:g} delta={lev.delta:g}: "
                f"|t0-s0|={lev.t_gap:.6g} |x0-y0|={lev.x_gap:.6g} "
                f"residual={lev.residual_symmetry:.6g}")
        return "\n".join(lines)


def write_trend_csv(diag, path):
    cols = ("epsilon", "delta", "t0", "s0", "t_gap", "x_gap", "phi_value",
            "residual_symmetry", "residual_certified", "growth_constant")
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for lev in diag.levels:
            row = [getattr(lev, c) for c in cols]
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _space_coords(grid):
    mesh = np.meshgrid(*grid.axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _phi_tuples(As, Bs, t, sub, norms, prm, eps, dlt, T, kk, ll, ii, jj):
    """Phi for explicit index tuples; the certificate's reference path."""
    w = (2.0 * prm.nu * T - t[kk] - t[ll]) / (2.0 * prm.nu * T)
    d2 = ((sub[ii] - sub[jj]) ** 2).sum(axis=-1)
    phi = (prm.theta * w * (norms[ii] + norms[jj])
           - prm.rho * (t[kk] + t[ll])
           + 0.5 / eps * (t[kk] - t[ll]) ** 2
           + 0.5 / dlt * d2)
    return (1.0 - prm.theta * prm.G) * As[kk, ii] - Bs[ll, jj] - phi


def doubling_maximize(V, V_hat, params=None, grid=None, levels=None,
                      budget=TUPLE_BUDGET, certificate=1000, seed=7,
                      gamma=0.0):
    """Maximize Phi over node tuples at a ladder of penalty weights.

    ``levels`` is a sequence of scalars (used for both epsilon and delta)
    or (epsilon, delta) pairs; by default three levels halve the params'
    values.  The space axes are strided so the full search stays within
    ``budget`` tuples; time pairs are always exhaustive, and the strided
    subset is closed under the symmetric tuples the residual bound needs.
    """
    if params is None:
        params = DoublingParams()
    if grid is None:
        grid = V.grid
    if V.grid != grid or V_hat.grid != grid:
        raise ConfigError("V and V_hat must share the grid")
    if not 0.0 <= gamma < 1.0:
        raise ConfigError("need 0 <= gamma < 1")
    if levels is None:
        levels = tuple((params.epsilon / 2 ** k, params.delta / 2 ** k)
                       for k in range(3))
    else:
        levels = tuple(
            (float(lev), float(lev)) if np.isscalar(lev)
            else (float(lev[0]), float(lev[1])) for lev in levels)
    if not levels:
        raise ConfigError("need at least one (epsilon, delta) level")

    t = grid.t
    nt = grid.t_nodes
    T = grid.T
    coords = _space_coords(grid)
    n_space = coords.shape[0]
    q_cap = max(1, int(np.sqrt(budget / float(nt * nt))))
    stride = int(np.ceil(n_space / q_cap))
    idx = np.arange(0, n_space, stride)
    q = len(idx)

    As = V.values.reshape(nt, -1)[:, idx]
    Bs = V_hat.values.reshape(nt, -1)[:, idx]
    sub = coords[idx]
    norms = np.sqrt(1.0 + (sub ** 2).sum(axis=1))
    pair_norms = norms[:, None] + norms[None, :]
    D2 = ((sub[:, None, :] - sub[None, :, :]) ** 2).sum(axis=-1)
    fac = 1.0 - params.theta * params.G
    two_nu_T = 2.0 * params.nu * T

    rows = []
    cert_ok = True
    rng = np.random.default_rng(seed)
    for eps, dlt in levels:
        if eps <= 0.0 or dlt <= 0.0:
            raise ConfigError("levels must be positive")
        half_d2 = 0.5 / dlt * D2
        best = -np.inf
        best_idx = (0, 0, 0, 0)
        for k in range(nt):
            w = (two_nu_T - t[k] - t) / two_nu_T
            pen = 0.5 / eps * (t[k] - t) ** 2 - params.rho * (t[k] + t)
            phi = (params.theta * w[:, None, None] * pair_norms[None, :, :]
                   + pen[:, None, None] + half_d2[None, :, :])
            val = fac * As[k][None, :, None] - Bs[:, None, :] - phi
            m = float(val.max())
            if m > best:
                best = m
                l, i, j = np.unravel_index(int(val.argmax()), val.shape)
                best_idx = (k, int(l), int(i), int(j))

        k0, l0, i0, j0 = best_idx
        phi_max = float(_phi_tuples(As, Bs, t, sub, norms, params, eps, dlt,
                                    T, k0, l0, i0, j0))
        if certificate > 0:
            kk = rng.integers(0, nt, size=certificate)
            ll = rng.integers(0, nt, size=certificate)
            ii = rng.integers(0, q, size=certificate)
            jj = rng.integers(0, q, size=certificate)
            other = _phi_tuples(As, Bs, t, sub, norms, params, eps, dlt, T,
                                kk, ll, ii, jj)
            cert_ok = cert_ok and bool(
                np.all(other <= phi_max + 1e-12 * (1.0 + abs(phi_max))))

        t0, s0 = float(t[k0]), float(t[l0])
        x0, y0 = sub[i0], sub[j0]
        dt0 = t0 - s0
        dx2 = float(((x0 - y0) ** 2).sum())
        v_gap = abs(float(As[k0, i0]) - float(As[l0, j0]))
        vh_gap = abs(float(Bs[k0, i0]) - float(Bs[l0, j0]))
        residual = dt0 ** 2 / eps + dx2 / dlt - v_gap - vh_gap
        nx0 = float(np.sqrt(1.0 + (x0 ** 2).sum()))
        ny0 = float(np.sqrt(1.0 + (y0 ** 2).sum()))
        cross = params.theta * dt0 * (nx0 - ny0) / (params.nu * T)
        growth_lhs = (params.theta * (nx0 + ny0)
                      + 0.5 / eps * dt0 ** 2 + 0.5 / dlt * dx2)
        growth_constant = growth_lhs * params.theta ** (gamma / (1.0 - gamma))
        rows.append(DoublingLevel(
            epsilon=eps, delta=dlt, t0=t0, s0=s0,
            x0=tuple(float(v) for v in x0), y0=tuple(float(v) for v in y0),
            t_gap=abs(dt0), x_gap=float(np.sqrt(dx2)), phi_value=phi_max,
            residual_symmetry=residual,
            residual_certified=residual + cross,
            growth_lhs=growth_lhs, growth_constant=growth_constant))

    note = (f"space axis strided by {stride}: {q} of {n_space} points; "
            "time pairs exhaustive")
    return DoublingDiagnostics(
        params=params, levels=tuple(rows), stride=stride, space_points=q,
        tuples_per_level=nt * nt * q * q, certificate_count=certificate,
        certificate_ok=cert_ok, notes=note)
