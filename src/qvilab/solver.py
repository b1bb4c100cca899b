"""Backward-in-time monotone schemes for the HJB equation and its
impulse-constrained variant.

The explicit step uses a central gradient plus local dissipation

    V_k = V_{k+1} + dt * ( H(t_{k+1}, x, D V_{k+1}) + sum_d sigma_d * L_d )

with L_d the undivided second difference along axis d over 2*dx_d and
clamped (copied-edge) ghost values.  The step is monotone in the stencil
values when sigma_d dominates |dH/dp_d| and the time step satisfies

    dt * sum_d sigma_d / dx_d <= cfl_safety.

The constrained solve clips every stepped slice by the impulse obstacle
through the fixed point W <- min(W_unclipped, N[W]), which converges
geometrically because each application either leaves a node alone or
lowers it by at least the cost floor.

Residual bookkeeping: for stepped slices the scheme residual equals
(unclipped step - final slice)/dt, which is zero exactly at continuation
nodes and nonnegative elsewhere, and the reported residual is the
minimum of that and the obstacle gap N[V] - V.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import ceil
from typing import Optional

import numpy as np
from scipy.stats import qmc

from . import expr as ex
from . import obstacle as obs
from .core import GridFunction


class SolverError(Exception):
    """Raised when a solve cannot proceed or produces non-finite values."""


class CflError(SolverError):
    """Raised when the time step is too large for the dissipation chosen."""


class FixedPointError(SolverError):
    """Raised when the per-slice obstacle fixed point fails to settle."""


@dataclass(frozen=True)
class SchemeParams:
    dissipation: tuple  # sigma_d per spatial dimension
    cfl_safety: float = 0.9
    fp_tol: float = 1e-9
    fp_max_iter: int = 100
    enforce_cfl: bool = True

    def __post_init__(self):
        diss = tuple(float(s) for s in self.dissipation)
        object.__setattr__(self, "dissipation", diss)
        if any(s < 0 or not np.isfinite(s) for s in diss):
            raise ValueError(f"dissipation must be nonnegative, got {diss}")
        if not (0.0 < self.cfl_safety <= 1.0):
            raise ValueError(f"cfl_safety must be in (0, 1], got {self.cfl_safety}")
        if self.fp_tol <= 0 or self.fp_max_iter < 1:
            raise ValueError("fp_tol must be positive and fp_max_iter >= 1")


def estimate_dissipation(problem, grid, factor=1.05, n_samples=512, seed=0):
    """Dissipation per axis: factor times the largest sampled |dH/dp_d|.

    The p-range per axis comes from one-sided difference quotients of the
    terminal slice, padded by one plus half their spread; (t, x, p) sample
    points are low-discrepancy so the estimate is reproducible.
    """
    env = grid.space_env()
    h_vals = np.broadcast_to(
        np.asarray(ex.evaluate(problem.h, env), dtype=float), tuple(grid.x_nodes)
    )
    p_lo, p_hi = [], []
    for d in range(grid.n):
        diffs = np.diff(h_vals, axis=d) / grid.dx[d]
        spread = float(diffs.max() - diffs.min()) if diffs.size else 0.0
        pad = 1.0 + 0.5 * spread
        p_lo.append(float(diffs.min()) - pad if diffs.size else -pad)
        p_hi.append(float(diffs.max()) + pad if diffs.size else pad)

    n = grid.n
    sampler = qmc.Halton(d=1 + 2 * n, scramble=True, seed=seed)
    u = sampler.random(n_samples)
    t_s = u[:, 0] * grid.T
    x_s = [grid.x_min[d] + u[:, 1 + d] * (grid.x_max[d] - grid.x_min[d])
           for d in range(n)]
    p_s = [p_lo[d] + u[:, 1 + n + d] * (p_hi[d] - p_lo[d]) for d in range(n)]

    sigma = []
    for d in range(n):
        eps = 1e-4 * (1.0 + np.abs(p_s[d]))
        env_hi = {"t": t_s}
        env_lo = {"t": t_s}
        for dd in range(n):
            env_hi[f"x{dd + 1}"] = x_s[dd]
            env_lo[f"x{dd + 1}"] = x_s[dd]
            shift = eps if dd == d else 0.0
            env_hi[f"p{dd + 1}"] = p_s[dd] + shift
            env_lo[f"p{dd + 1}"] = p_s[dd] - shift
        dh = (np.asarray(ex.evaluate(problem.H, env_hi), dtype=float)
              - np.asarray(ex.evaluate(problem.H, env_lo), dtype=float))
        slope = np.abs(dh) / (2.0 * eps)
        sigma.append(factor * float(slope.max()) if slope.size else 0.0)
    return tuple(sigma)


def make_scheme_params(problem, grid, factor=1.05, **kwargs) -> SchemeParams:
    return SchemeParams(dissipation=estimate_dissipation(problem, grid, factor),
                        **kwargs)


def cfl_number(grid, scheme: SchemeParams) -> float:
    return grid.dt * sum(s / dx for s, dx in zip(scheme.dissipation, grid.dx))


def suggest_t_nodes(grid, dissipation, cfl_safety=0.9) -> int:
    """Smallest node count whose time step satisfies the stability bound."""
    rate = sum(s / dx for s, dx in zip(dissipation, grid.dx))
    if rate <= 0.0:
        return 2
    return max(2, ceil(grid.T * rate / cfl_safety) + 1)


def check_cfl(grid, scheme: SchemeParams):
    number = cfl_number(grid, scheme)
    if number > scheme.cfl_safety:
        needed = suggest_t_nodes(grid, scheme.dissipation, scheme.cfl_safety)
        raise CflError(
            f"time step violates the stability bound: "
            f"dt*sum(sigma/dx) = {number:.6g} > {scheme.cfl_safety:.6g}; "
            f"use at least t_nodes = {needed}"
        )


@dataclass(frozen=True)
class SolveResult:
    V: GridFunction
    residual: GridFunction
    obstacle_gap: Optional[GridFunction]
    argmin_xi: Optional[np.ndarray]
    truncated: Optional[np.ndarray]
    iterations: np.ndarray
    flags: tuple
    scheme: SchemeParams
    wall_time: float


# ------------------------------------------------------------------ steps ----

def _axis_neighbors(W, axis):
    pad = [(1, 1) if a == axis else (0, 0) for a in range(W.ndim)]
    Wp = np.pad(W, pad, mode="edge")
    hi = [slice(None)] * W.ndim
    lo = [slice(None)] * W.ndim
    hi[axis] = slice(2, None)
    lo[axis] = slice(0, -2)
    return Wp[tuple(hi)], Wp[tuple(lo)]


def _hjb_step(problem, grid, scheme, W, t_next, space_env):
    grads = {}
    diss = np.zeros_like(W)
    for d in range(grid.n):
        hi, lo = _axis_neighbors(W, d)
        grads[f"p{d + 1}"] = (hi - lo) / (2.0 * grid.dx[d])
        if scheme.dissipation[d] != 0.0:
            diss = diss + scheme.dissipation[d] * (hi - 2.0 * W + lo) / (2.0 * grid.dx[d])
    try:
        H = problem.hamiltonian(t_next, space_env, grads)
    except ex.DomainError as e:
        raise SolverError(
            f"Hamiltonian evaluation failed at t = {t_next:.6g}: {e}"
        ) from e
    return W + grid.dt * (np.asarray(H, dtype=float) + diss)


def _check_finite(vals, t, grid):
    bad = ~np.isfinite(vals)
    if bad.any():
        idx = np.argwhere(bad)[0]
        point = ", ".join(
            f"x{d + 1} = {grid.axes[d][idx[d]]:.6g}" for d in range(grid.n)
        )
        raise SolverError(
            f"non-finite value produced at t = {t:.6g}, {point}"
        )


def solve_hjb(problem, grid, scheme=None, constants=None) -> SolveResult:
    """Unconstrained backward solve; terminal slice is the sampled data."""
    return _backward(problem, grid, scheme, constants, obstacle=False)


def solve_qvi(problem, grid, scheme=None, search=None,
              constants=None) -> SolveResult:
    """Backward solve with every stepped slice clipped by the obstacle.

    Each slice runs W <- min(W_unclipped, N[W]) until the update falls
    below fp_tol, then records the obstacle gap, impulse argmin and
    truncation of the settled slice (from the last sweep when its update
    was exactly zero, since that sweep already saw the settled slice).
    The terminal slice is the sampled terminal data and is never clipped.
    `search` defaults to obstacle.default_search(grid).
    """
    return _backward(problem, grid, scheme, constants, obstacle=True,
                     search=search)


def _backward(problem, grid, scheme, constants, obstacle, search=None):
    """The backward loop of both solves, with the obstacle on or off.

    Off, no obstacle call is made and no gap, argmin or truncation array
    is allocated; the residual (W0 - V_k)/dt then vanishes identically.
    """
    start = time.perf_counter()
    if scheme is None:
        scheme = make_scheme_params(problem, grid)
    if scheme.enforce_cfl:
        check_cfl(grid, scheme)
    space_env = grid.space_env()
    nt = grid.t_nodes
    V = np.empty(grid.shape)
    V[nt - 1] = np.broadcast_to(
        np.asarray(ex.evaluate(problem.h, space_env), dtype=float),
        tuple(grid.x_nodes),
    )
    residual = np.zeros(grid.shape)
    iterations = np.zeros(nt, dtype=int)
    gap = argmin = truncated = None
    if obstacle:
        gap = np.empty(grid.shape)
        argmin = np.zeros(grid.shape + (grid.n,))
        truncated = np.zeros(grid.shape, dtype=bool)
        # terminal slice: gap recorded for reporting, never enforced
        n_term, argmin[nt - 1], truncated[nt - 1] = obs.evaluate_slice_values(
            grid, V[nt - 1], float(grid.t[nt - 1]), problem.ell, problem.cone,
            search)
        gap[nt - 1] = n_term - V[nt - 1]

    for k in range(nt - 2, -1, -1):
        t_k = float(grid.t[k])
        W0 = _hjb_step(problem, grid, scheme, V[k + 1], float(grid.t[k + 1]),
                       space_env)
        _check_finite(W0, t_k, grid)
        if not obstacle:
            V[k] = W0
            continue
        W, n_vals, argmin[k], truncated[k], iterations[k] = _settle(
            problem, grid, scheme, search, W0, t_k)
        V[k] = W
        gap[k] = n_vals - W
        residual[k] = np.minimum((W0 - W) / grid.dt, gap[k])

    flags = []
    if constants is not None and float(np.min(V[nt - 1])) + constants.h0 < 0.0:
        flags.append("hypotheses unaudited")
    if obstacle and truncated.any():
        flags.append("obstacle search truncated")
    return SolveResult(
        V=GridFunction(grid, V),
        residual=GridFunction(grid, residual),
        obstacle_gap=None if gap is None else GridFunction(grid, gap),
        argmin_xi=argmin,
        truncated=truncated,
        iterations=iterations,
        flags=tuple(flags),
        scheme=scheme,
        wall_time=time.perf_counter() - start,
    )


def _settle(problem, grid, scheme, search, W0, t_k):
    """Fixed point W <- min(W0, N[W]) of one stepped slice.

    Returns (W, N[W], argmin, truncated, sweeps).
    """
    W = W0
    for it in range(1, scheme.fp_max_iter + 1):
        n_vals, arg_k, trunc_k = obs.evaluate_slice_values(
            grid, W, t_k, problem.ell, problem.cone, search
        )
        W_new = np.minimum(W0, n_vals)
        delta = float(np.max(np.abs(W_new - W)))
        W = W_new
        if delta <= scheme.fp_tol:
            break
    else:
        raise FixedPointError(
            f"obstacle fixed point did not settle at t = {t_k:.6g}: "
            f"last update {delta:.3g} after {scheme.fp_max_iter} sweeps"
        )
    if delta > 0.0:
        # the last sweep saw the previous iterate; a zero update means
        # it saw this one, so its N, argmin and truncation stand
        n_vals, arg_k, trunc_k = obs.evaluate_slice_values(
            grid, W, t_k, problem.ell, problem.cone, search
        )
    return W, n_vals, arg_k, trunc_k, it


# ------------------------------------------------------------ diagnostics ----

def obstacle_scale(grid, scheme: SchemeParams) -> float:
    """Dissipation length scale sum_d sigma_d * dx_d.

    The scheme resolves the obstacle contact set only up to its numerical
    viscosity: inside a contact region the solved slice sits below the
    obstacle by an amount of this order, so region classification must
    threshold the gap at this scale rather than at the fixed point
    tolerance.
    """
    return sum(s * dx for s, dx in zip(scheme.dissipation, grid.dx))


def mask_tolerances(grid, scheme: SchemeParams):
    """Per-slice gap threshold for contact classification.

    The below-obstacle dip inside a contact region accumulates with the
    backward horizon (the smoothing acts for time T - t), so the base
    dissipation scale is stretched by 1 + 2*(T - t).
    """
    return obstacle_scale(grid, scheme) * (1.0 + 2.0 * (grid.T - grid.t))


@dataclass(frozen=True)
class RegionMap:
    labels: np.ndarray      # 1 where an impulse is active, 0 elsewhere
    argmin_xi: np.ndarray   # impulse at labeled nodes, zero elsewhere
    n_intervention: int
    fraction: float


def extract_regions(result: SolveResult, tol=None) -> RegionMap:
    """Classify stepped nodes by whether the obstacle is active there.

    Default tol is the horizon-stretched dissipation scale, see
    mask_tolerances.
    """
    if result.obstacle_gap is None:
        raise ValueError("result has no obstacle data; solve with solve_qvi")
    grid = result.V.grid
    if tol is None:
        tol_rows = mask_tolerances(grid, result.scheme)
    else:
        tol_rows = np.full(grid.t_nodes, float(tol))
    gap = result.obstacle_gap.values
    labels = (gap <= tol_rows.reshape((grid.t_nodes,) + (1,) * grid.n)).astype(np.int8)
    labels[-1] = 0  # terminal slice holds data, not a decision
    arg = np.where(labels[..., None] == 1, result.argmin_xi, 0.0)
    n_int = int(labels.sum())
    return RegionMap(
        labels=labels,
        argmin_xi=arg,
        n_intervention=n_int,
        fraction=float(n_int) / labels.size,
    )


def interior_mask(grid, dissipation, cells=5, margin=0.2, influence=1.5):
    """Nodes far enough from the spatial boundary to trust the solution.

    Clamped edges radiate errors inward at the dissipation speed, so each
    slice drops a collar of width max(cells*dx, margin) plus
    influence * sigma_d * (T - t) on both sides of every axis.
    """
    if isinstance(dissipation, SchemeParams):
        dissipation = dissipation.dissipation
    mask = np.ones(grid.shape, dtype=bool)
    horizon = grid.T - grid.t  # (t_nodes,)
    for d in range(grid.n):
        dist = np.maximum(cells * grid.dx[d], margin) \
            + influence * dissipation[d] * horizon
        axis = grid.axes[d]
        ok = (axis[None, :] >= grid.x_min[d] + dist[:, None]) & (
            axis[None, :] <= grid.x_max[d] - dist[:, None]
        )
        shape = [grid.t_nodes] + [1] * grid.n
        shape[1 + d] = grid.x_nodes[d]
        mask &= ok.reshape(shape)
    return mask
