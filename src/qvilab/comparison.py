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
which is the limit step the diagnostic is meant to make visible.  The
confinement weight theta is the one weight a caller sets; nu, rho and G
are the module constants NU, RHO and G, and the default ladder of
(eps, delta) levels is DOUBLING_LEVELS.

The maximum over the search set is found without evaluating all of it.
Time is cut into blocks of 8 nodes, and each (time block, time block,
space index, space index) gets an upper bound on Phi from the block's
largest (1 - theta*G) V, smallest V_hat, smallest w and smallest time
penalty.  The best tuple of the 64 highest-bound blocks is the
incumbent, and every block whose bound reaches it (less a rounding
slack) is evaluated with the per-tuple arithmetic of a sweep over the
whole set.  The argmax is therefore the one that sweep finds, ties
included: the first tuple in (k, l, i, j) order among those attaining
the maximum.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import expr as ex
from .assumptions import (SamplerSpec, audit_comparison_hypotheses,
                          audit_order, default_sampler)
from .core import ConfigError, ImpulseProblem, make_env, role_variables
from .solver import estimate_dissipation, interior_mask, solve_qvi

__all__ = [
    "DoublingLevel",
    "DoublingDiagnostics",
    "ComparisonReport",
    "ordered_pair_generator",
    "shared_dissipation",
    "compare_solutions",
    "doubling_maximize",
    "DOUBLING_LEVELS",
    "TUPLE_BUDGET",
    "THETA",
    "NU",
    "RHO",
    "G",
]

DOUBLING_LEVELS = (0.1, 0.05, 0.025)  # eps = delta, halved per level
THETA = 0.01  # default confinement weight; 0 < theta and theta*G < 1
NU = 2.0  # barrier horizon factor of w(t, s), > 1
RHO = 1e-3  # time tilt, > 0
G = 10.0  # weight factor of V in Phi, > 1
TUPLE_BUDGET = 10 ** 7
CERTIFICATE_TUPLES = 1000  # random tuples each level's maximum is checked on
CERTIFICATE_SEED = 7
_TIME_BLOCK = 8  # time nodes per block of the bounded search
_INCUMBENT_BLOCKS = 64  # highest-bound blocks evaluated for a first incumbent

_ORDER_CHECKS = ("terminal order", "hamiltonian order", "cost order")


# ------------------------------------------------------------- ordering ----


def _offset_expr(raw, allowed):
    # a parsed offset's variables are checked by the dominated problem
    return ex.parse(raw, allowed) if isinstance(raw, str) else raw


def _plus(base_node, offset):
    if offset is None:
        return base_node
    return ex.Bin("+", base_node, offset)


def ordered_pair_generator(base, offsets):
    """Build a problem pair ordered by construction.

    ``offsets`` is a triple (dh, dH, dell) of expressions or strings
    (None means zero): the returned pair is (base, dominated) with
    h + dh, H + dH, ell + dell on the second member.  The pair's data
    order is audited (assumptions.audit_order) over [-4, 4]^n, and each
    given offset must keep its order there, so the order hypotheses of
    compare_solutions hold on the sample set.
    """
    if len(offsets) != 3:
        raise ConfigError("offsets must be a (dh, dH, dell) triple")
    n = base.n
    roles = role_variables(n)
    labels = ("terminal offset", "hamiltonian offset", "cost offset")
    dh, dH, dell = (_offset_expr(raw, roles[role])
                    for raw, role in zip(offsets, ("h", "H", "ell")))

    dominated = ImpulseProblem(
        n=base.n, T=base.T,
        H=_plus(base.H, dH), h=_plus(base.h, dh), ell=_plus(base.ell, dell),
        cone=base.cone, g=base.g)
    order = audit_order((base, dominated),
                        SamplerSpec(x_min=(-4.0,) * n, x_max=(4.0,) * n))
    for offset, label, check in zip((dh, dH, dell), labels, order.checks):
        if offset is None or check.passed:
            continue
        if check.points_tested == 0:
            raise ConfigError(f"{label} could not be evaluated on the sample set")
        where = make_env(**check.worst_point)
        raise ConfigError(
            f"{label} samples negative: {check.worst_margin:.6g} at "
            + ", ".join(f"{k}={v:.6g}" for k, v in sorted(where.items())))
    return base, dominated


# ----------------------------------------------------------- comparison ----


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of solving an ordered pair with a shared dissipation."""

    max_difference: float
    tolerance: float
    ordered: bool
    audit: object
    dissipation: tuple
    V: object
    V_hat: object
    interior_points: int
    notes: str = ""

    @property
    def passed(self):
        """The data are ordered and max(V - V_hat) is within the tolerance."""
        return self.ordered and self.max_difference <= self.tolerance

    def to_dict(self):
        return {
            "max_difference": float(self.max_difference),
            "tolerance": float(self.tolerance),
            "passed": bool(self.passed),
            "ordered": bool(self.ordered),
            "interior_points": int(self.interior_points),
            "dissipation": [float(s) for s in self.dissipation],
            "audit": self.audit.to_dict(),
            "notes": self.notes,
        }


def shared_dissipation(problem, problem_hat, grid):
    """One dissipation tuple strong enough for both Hamiltonians."""
    a = estimate_dissipation(problem, grid)
    b = estimate_dissipation(problem_hat, grid)
    return tuple(max(u, v) for u, v in zip(a, b))


def compare_solutions(problem, problem_hat, grid, constants=None):
    """Solve both problems with one dissipation and measure max(V - V_hat).

    The data order (terminal, Hamiltonian, cost margins all nonnegative
    on the default sampler's clouds) is audited after both solves: by
    assumptions.audit_order, or, when ``constants`` are given, as part of
    audit_comparison_hypotheses, which also bounds the two solutions.  The
    difference is measured either way; a failed order audit gives
    ordered=False, names the failing checks in ``notes``, and so fails
    ``passed``.
    """
    if problem.n != problem_hat.n:
        raise ConfigError("mismatched problem dimensions")
    if problem.T != problem_hat.T:
        raise ConfigError("compared problems must share the horizon")
    dissipation = shared_dissipation(problem, problem_hat, grid)
    res = solve_qvi(problem, grid, dissipation)
    res_hat = solve_qvi(problem_hat, grid, dissipation)

    pair, spec = (problem, problem_hat), default_sampler(grid)
    if constants is None:
        audit = audit_order(pair, spec)
    else:
        audit = audit_comparison_hypotheses(pair, constants, res.V, res_hat.V,
                                            spec)
    failing = [name for name in _ORDER_CHECKS if not audit.check(name).passed]
    ordered = not failing
    notes = []
    if not ordered:
        notes.append("order audit failed: " + ", ".join(failing))

    mask = interior_mask(grid, dissipation)
    diff = res.V.values - res_hat.V.values
    if mask.any():
        max_diff = float(diff[mask].max())
        interior = int(mask.sum())
    else:
        max_diff = float(diff.max())
        interior = int(diff.size)
        notes.append("interior sub-box empty; measured over all nodes")

    return ComparisonReport(
        max_difference=max_diff, tolerance=10.0 * grid.tolerance_unit,
        ordered=ordered, audit=audit, dissipation=dissipation,
        V=res.V, V_hat=res_hat.V, interior_points=interior,
        notes="; ".join(notes))


# -------------------------------------------------------------- doubling ---


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


@dataclass(frozen=True)
class DoublingDiagnostics:
    """Trend table of two-point maximizations as the penalties tighten."""

    theta: float
    stride: int
    space_points: int
    tuples_per_level: int
    certificate_count: int
    certificate_ok: bool
    levels: tuple
    notes: str = ""

    @property
    def final(self) -> DoublingLevel:
        return self.levels[-1]

    def gaps_nonincreasing(self):
        pairs = zip(self.levels, self.levels[1:])
        return all(b.t_gap <= a.t_gap + 1e-12 and b.x_gap <= a.x_gap + 1e-12
                   for a, b in pairs)

    @property
    def passed(self):
        """The certificate holds, the gaps shrink level by level, and every
        level's certified residual is nonpositive."""
        return (self.certificate_ok and self.gaps_nonincreasing()
                and all(lev.residual_certified <= 0.0 for lev in self.levels))

    def to_dict(self):
        """The fields in order, and the constants NU, RHO, G after theta."""
        payload = asdict(self)
        return {"theta": payload.pop("theta"), "nu": NU, "rho": RHO, "G": G,
                **payload}

    def table(self):
        """trend.csv as the header and blocks core.write_table takes: one
        row per level, one column per scalar field of DoublingLevel."""
        # annotations are strings under `from __future__ import annotations`
        cols = [f.name for f in fields(DoublingLevel) if f.type == "float"]
        return cols, [[[getattr(lev, c) for lev in self.levels] for c in cols]]


def _square(v):
    """v ** 2 of a Python float; inf when the square overflows."""
    try:
        return v ** 2
    except OverflowError:
        return math.inf


def _time_penalty(eps, gap):
    """0.5/eps * gap**2 of an array of time gaps; inf, with no warning,
    where it overflows (then the bound's slack is not finite)."""
    with np.errstate(over="ignore"):
        return 0.5 / eps * gap ** 2


def _phi_tuples(As, Bs, t, sub, norms, theta, eps, dlt, T, kk, ll, ii, jj):
    """Phi for explicit index tuples; the certificate's reference path."""
    w = (2.0 * NU * T - t[kk] - t[ll]) / (2.0 * NU * T)
    d2 = ((sub[ii] - sub[jj]) ** 2).sum(axis=-1)
    phi = (theta * w * (norms[ii] + norms[jj])
           - RHO * (t[kk] + t[ll])
           + _time_penalty(eps, t[kk] - t[ll])
           + 0.5 / dlt * d2)
    return (1.0 - theta * G) * As[kk, ii] - Bs[ll, jj] - phi


def _chunk_blocks(nt, q):
    """Blocks per evaluation of the bounded search: at most one time slice
    of the sweep, nt*q*q tuples."""
    return max(1, nt * q * q // _TIME_BLOCK ** 2)


def _sweep_argmax(FA, Bs, t, pair_norms, half_d2, theta, eps, T):
    """First (k, l, i, j) in row-major order at which Phi is largest.

    Phi(k, l, i, j) = FA[k, i] - Bs[l, j]
                      - (((theta*w)*pair_norms[i, j] + pen) + half_d2[i, j])

    with w and pen functions of (t[k], t[l]): the arithmetic of a sweep
    over every tuple, applied only to the blocks that can hold the maximum.
    A block (K, L, i, j) pairs two time blocks of _TIME_BLOCK nodes with
    two space indices.  No tuple of it exceeds the block bound, which takes
    the largest FA, the smallest Bs, the smallest w (the last time of each
    block) and the smallest pen (the closest times, the largest t + s).
    The incumbent is the best tuple of the _INCUMBENT_BLOCKS highest-bound
    blocks; every block whose bound is within a rounding slack of it is
    then evaluated.  Those blocks hold every maximiser, so the answer is
    the full sweep's, ties included: the first k that reaches the maximum,
    then the first (l, i, j) within it.  Like the sweep's `max`, a k whose
    Phi holds a NaN is skipped; NaN needs magnitudes near overflow, where
    the slack is not finite and every block is evaluated.  No temporary
    holds more than one time slice of the sweep, nt*q*q values.
    """
    nt, q = Bs.shape
    b = _TIME_BLOCK
    two_nu_T = 2.0 * NU * T
    starts = np.arange(0, nt, b)
    nb = starts.size
    last = np.minimum(starts + b, nt) - 1
    offs = np.arange(b)
    rows_per_batch = max(1, nt // nb)  # bound rows per batch: <= nt*q*q
    chunk = _chunk_blocks(nt, q)

    def time_terms(tk, tl):
        w = (two_nu_T - tk - tl) / two_nu_T
        return theta * w, _time_penalty(eps, tk - tl) - RHO * (tk + tl)

    def evaluate(K, L, i, j):
        """(Phi, k, l) on every tuple of the given blocks, Phi of shape
        (blocks, b, b); tuples past the last time node repeat it."""
        kk = np.minimum(K[:, None, None] * b + offs[:, None], nt - 1)
        ll = np.minimum(L[:, None, None] * b + offs, nt - 1)
        ii, jj = i[:, None, None], j[:, None, None]
        tw, pen = time_terms(t[kk], t[ll])
        val = FA[kk, ii] - Bs[ll, jj] - (
            (tw * pair_norms[ii, jj] + pen) + half_d2[ii, jj])
        return val, kk, ll

    a_hi = np.maximum.reduceat(FA, starts, axis=0)
    b_lo = np.minimum.reduceat(Bs, starts, axis=0)
    t_last = t[last]
    tw_lo = time_terms(t_last[:, None], t_last)[0]
    near = np.maximum(0.0, np.maximum(t[starts] - t_last[:, None],
                                      t[starts][:, None] - t_last))
    pen_lo = _time_penalty(eps, near) - RHO * (t_last[:, None] + t_last)

    def bound_batches():
        """(first K, bounds of shape (rows, nb, q, q)) per batch of rows."""
        for K0 in range(0, nb, rows_per_batch):
            K = slice(K0, K0 + rows_per_batch)
            bound = a_hi[K, None, :, None] - b_lo[None, :, None, :]
            bound -= tw_lo[K, :, None, None] * pair_norms
            bound -= pen_lo[K, :, None, None]
            bound -= half_d2
            yield K0, bound

    with np.errstate(over="ignore"):  # values near overflow: inf, no slack
        scale = (np.abs(FA).max() + np.abs(Bs).max() + theta * pair_norms.max()
                 + 0.5 / eps * _square(T) + 2.0 * RHO * T + half_d2.max())
    slack = 1e-12 * (1.0 + scale)
    threshold = -np.inf
    if math.isfinite(slack):
        top_bound, top_block = np.empty(0), np.empty(0, dtype=np.int64)
        for K0, bound in bound_batches():
            n = min(_INCUMBENT_BLOCKS, bound.size)
            keep = np.argpartition(bound.ravel(), -n)[-n:]
            top_bound = np.concatenate([top_bound, bound.ravel()[keep]])
            top_block = np.concatenate([top_block, K0 * nb * q * q + keep])
            keep = np.argpartition(top_bound, -n)[-n:]
            top_bound, top_block = top_bound[keep], top_block[keep]
        blocks = np.unravel_index(top_block, (nb, nb, q, q))
        incumbent = max(evaluate(*(ax[c:c + chunk] for ax in blocks))[0].max()
                        for c in range(0, top_block.size, chunk))
        threshold = incumbent - slack

    best = np.full(nt, -np.inf)  # per k: largest Phi evaluated,
    first = np.full(nt, nt * nt * q * q)  # the first tuple reaching it,
    has_nan = np.zeros(nt, dtype=bool)  # and whether a Phi was NaN
    for K0, bound in bound_batches():
        # `not <` keeps NaN bounds, which occur only when threshold is -inf
        K, L, i, j = np.nonzero(~(bound < threshold))
        K += K0
        for c in range(0, K.size, chunk):
            ic, jc = i[c:c + chunk], j[c:c + chunk]
            val, kk, ll = evaluate(K[c:c + chunk], L[c:c + chunk], ic, jc)
            top = np.full(nt, -np.inf)
            np.maximum.at(top, kk.ravel(), val.max(axis=2).ravel())
            hit = (val == top[kk]) & (top >= best)[kk]
            m, a, col = np.nonzero(hit)
            k, l = kk[m, a, 0], ll[m, 0, col]
            top_first = np.full(nt, nt * nt * q * q)
            np.minimum.at(top_first, k, ((k * nt + l) * q + ic[m]) * q + jc[m])
            first = np.where(top > best, top_first,
                             np.where(top == best,
                                      np.minimum(first, top_first), first))
            best = np.where(top > best, top, best)
            has_nan |= np.isnan(top)

    best[has_nan] = -np.inf
    k0 = int(np.argmax(best))
    if not best[k0] > -np.inf:
        return 0, 0, 0, 0
    return tuple(int(v) for v in np.unravel_index(first[k0], (nt, nt, q, q)))


def doubling_maximize(V, V_hat, theta=THETA, levels=None):
    """Maximize Phi over node tuples at a ladder of penalty weights.

    ``theta`` is the confinement weight, with 0 < theta and theta*G < 1.
    ``levels`` is a sequence of scalars (used for both epsilon and delta)
    or (epsilon, delta) pairs; by default DOUBLING_LEVELS.  The space axes
    are strided so the full search stays within TUPLE_BUDGET tuples; time
    pairs are always exhaustive, and the strided subset is closed under the
    symmetric tuples the residual bound needs.  The maximum over that set
    is exact (a bounded search over time blocks; the first maximiser in
    (k, l, i, j) order wins ties), and ``tuples_per_level`` counts the set.
    Each level's maximum is certified against CERTIFICATE_TUPLES random
    tuples drawn with seed CERTIFICATE_SEED.
    """
    if not theta > 0.0:
        raise ConfigError("need theta > 0")
    if not theta * G < 1.0:
        raise ConfigError("need theta*G < 1")
    grid = V.grid
    if V_hat.grid != grid:
        raise ConfigError("V and V_hat must share the grid")
    if not math.isfinite(2.0 * NU * grid.T):
        # the barrier weight w(t, s) divides by 2 nu T
        raise ConfigError(f"2*nu*T overflows at T = {grid.T!r}")
    levels = tuple(
        (float(lev), float(lev)) if np.isscalar(lev)
        else (float(lev[0]), float(lev[1]))
        for lev in (DOUBLING_LEVELS if levels is None else levels))
    if not levels:
        raise ConfigError("need at least one (epsilon, delta) level")
    for lev in (value for pair in levels for value in pair):
        # the penalties weigh by 0.5/level, so that must be finite too
        if not (lev > 0.0 and math.isfinite(lev) and math.isfinite(0.5 / lev)):
            raise ConfigError(
                f"levels must be positive and finite with 0.5/level finite, "
                f"got {lev!r}")

    t = grid.t
    nt = grid.t_nodes
    T = grid.T
    coords = grid.space_nodes()
    n_space = coords.shape[0]
    q_cap = max(1, int(np.sqrt(TUPLE_BUDGET / float(nt * nt))))
    stride = int(np.ceil(n_space / q_cap))
    idx = np.arange(0, n_space, stride)
    q = len(idx)

    As = V.values.reshape(nt, -1)[:, idx]
    Bs = V_hat.values.reshape(nt, -1)[:, idx]
    sub = coords[idx]
    norms = np.sqrt(1.0 + (sub ** 2).sum(axis=1))
    pair_norms = norms[:, None] + norms[None, :]
    D2 = ((sub[:, None, :] - sub[None, :, :]) ** 2).sum(axis=-1)
    FA = (1.0 - theta * G) * As

    rows = []
    cert_ok = True
    rng = np.random.default_rng(CERTIFICATE_SEED)
    for eps, dlt in levels:
        half_d2 = 0.5 / dlt * D2
        k0, l0, i0, j0 = _sweep_argmax(FA, Bs, t, pair_norms, half_d2,
                                       theta, eps, T)
        phi_max = float(_phi_tuples(As, Bs, t, sub, norms, theta, eps, dlt,
                                    T, k0, l0, i0, j0))
        kk = rng.integers(0, nt, size=CERTIFICATE_TUPLES)
        ll = rng.integers(0, nt, size=CERTIFICATE_TUPLES)
        ii = rng.integers(0, q, size=CERTIFICATE_TUPLES)
        jj = rng.integers(0, q, size=CERTIFICATE_TUPLES)
        other = _phi_tuples(As, Bs, t, sub, norms, theta, eps, dlt, T,
                            kk, ll, ii, jj)
        cert_ok = cert_ok and bool(
            np.all(other <= phi_max + 1e-12 * (1.0 + abs(phi_max))))

        t0, s0 = float(t[k0]), float(t[l0])
        x0, y0 = sub[i0], sub[j0]
        dt0 = t0 - s0
        dx2 = float(((x0 - y0) ** 2).sum())
        v_gap = abs(float(As[k0, i0]) - float(As[l0, j0]))
        vh_gap = abs(float(Bs[k0, i0]) - float(Bs[l0, j0]))
        residual = _square(dt0) / eps + dx2 / dlt - v_gap - vh_gap
        nx0 = float(np.sqrt(1.0 + (x0 ** 2).sum()))
        ny0 = float(np.sqrt(1.0 + (y0 ** 2).sum()))
        cross = theta * dt0 * (nx0 - ny0) / (NU * T)
        growth_lhs = (theta * (nx0 + ny0)
                      + 0.5 / eps * _square(dt0) + 0.5 / dlt * dx2)
        rows.append(DoublingLevel(
            epsilon=eps, delta=dlt, t0=t0, s0=s0,
            x0=tuple(float(v) for v in x0), y0=tuple(float(v) for v in y0),
            t_gap=abs(dt0), x_gap=float(np.sqrt(dx2)), phi_value=phi_max,
            residual_symmetry=residual,
            residual_certified=residual + cross,
            growth_lhs=growth_lhs))

    note = (f"space axis strided by {stride}: {q} of {n_space} points; "
            "time pairs exhaustive")
    return DoublingDiagnostics(
        theta=theta, stride=stride, space_points=q,
        tuples_per_level=nt * nt * q * q,
        certificate_count=CERTIFICATE_TUPLES,
        certificate_ok=cert_ok, levels=tuple(rows), notes=note)
