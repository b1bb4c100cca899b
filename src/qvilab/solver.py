"""Backward-in-time monotone schemes for the HJB equation and its
impulse-constrained variant.

The explicit step uses a central gradient plus local dissipation

    V_k = V_{k+1} + dt * ( H(t_{k+1}, x, D V_{k+1}) + sum_d sigma_d * L_d )

with L_d the undivided second difference along axis d over 2*dx_d and
clamped (copied-edge) ghost values.  The step is monotone in the stencil
values when sigma_d dominates |dH/dp_d| and the time step satisfies

    dt * sum_d sigma_d / dx_d <= CFL_SAFETY.

The scheme is its dissipation: a tuple with one sigma_d >= 0 per axis,
estimated from the problem when a solve is given none.

The constrained solve clips every stepped slice by the impulse obstacle
through the fixed point W <- min(W_unclipped, N[W]), which converges
geometrically because each application either leaves a node alone or
lowers it by at least the cost floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, isfinite
from typing import Optional

import numpy as np

from . import expr as ex
from . import obstacle as obs
from .core import (GridFunction, axis_names, check_horizon, halton, make_env,
                   sample_terminal)


class SolverError(Exception):
    """Raised when a solve cannot proceed or produces non-finite values."""


class CflError(SolverError):
    """Raised when the time step is too large for the dissipation chosen."""


class FixedPointError(SolverError):
    """Raised when the per-slice obstacle fixed point fails to settle."""


FP_TOL = 1e-9  # a slice's obstacle fixed point settles below this update
FP_MAX_ITER = 100  # sweeps before the fixed point is declared stuck
DISSIPATION_FACTOR = 1.05  # margin of sigma_d over the largest |dH/dp_d|
DISSIPATION_SAMPLES = 512  # Halton (t, x, p) points, seed 0
CFL_SAFETY = 0.9  # bound on dt * sum_d sigma_d / dx_d
# interior_mask collar: max(INTERIOR_CELLS*dx, INTERIOR_MARGIN) plus
# INTERIOR_INFLUENCE * sigma_d * (T - t)
INTERIOR_CELLS = 5
INTERIOR_MARGIN = 0.2
INTERIOR_INFLUENCE = 1.5


def estimate_dissipation(problem, grid):
    """Dissipation per axis: DISSIPATION_FACTOR times the largest sampled
    |dH/dp_d|.

    The p-range per axis comes from one-sided difference quotients of the
    terminal slice, padded by one plus half their spread; (t, x, p) sample
    points are low-discrepancy so the estimate is reproducible.
    """
    return _dissipation(problem, grid, sample_terminal(problem.h, grid))


def _dissipation(problem, grid, h_vals):
    """estimate_dissipation on the terminal slice h_vals, sampled already."""
    p_lo, p_hi = [], []
    for d in range(grid.n):
        diffs = np.diff(h_vals, axis=d) / grid.dx[d]
        spread = float(diffs.max() - diffs.min()) if diffs.size else 0.0
        pad = 1.0 + 0.5 * spread
        p_lo.append(float(diffs.min()) - pad if diffs.size else -pad)
        p_hi.append(float(diffs.max()) + pad if diffs.size else pad)

    n = grid.n
    u = halton(1 + 2 * n, DISSIPATION_SAMPLES, 0)
    t_s = u[:, 0] * grid.T
    x_s = [grid.x_min[d] + u[:, 1 + d] * (grid.x_max[d] - grid.x_min[d])
           for d in range(n)]
    p_s = [p_lo[d] + u[:, 1 + n + d] * (p_hi[d] - p_lo[d]) for d in range(n)]

    sigma = []
    for d in range(n):
        eps = 1e-4 * (1.0 + np.abs(p_s[d]))
        shift = [eps if dd == d else 0.0 for dd in range(n)]
        hi = make_env(t=t_s, x=x_s, p=[p + s for p, s in zip(p_s, shift)])
        lo = make_env(t=t_s, x=x_s, p=[p - s for p, s in zip(p_s, shift)])
        dh = (np.asarray(ex.evaluate(problem.H, hi), dtype=float)
              - np.asarray(ex.evaluate(problem.H, lo), dtype=float))
        slope = np.abs(dh) / (2.0 * eps)
        sigma.append(DISSIPATION_FACTOR * float(slope.max())
                     if slope.size else 0.0)
    return tuple(sigma)


def cfl_number(grid, dissipation) -> float:
    return grid.dt * sum(s / dx for s, dx in zip(dissipation, grid.dx))


def suggest_t_nodes(grid, dissipation) -> int:
    """Smallest node count whose time step satisfies the stability bound.

    Raises CflError when that count is not finite.
    """
    rate = sum(s / dx for s, dx in zip(dissipation, grid.dx))
    if rate <= 0.0:
        return 2
    steps = grid.T * rate / CFL_SAFETY
    if not isfinite(steps):
        raise CflError(
            f"no finite t_nodes satisfies the stability bound: "
            f"T*sum(sigma/dx) = {grid.T * rate:.6g}")
    return max(2, ceil(steps) + 1)


def check_cfl(grid, dissipation):
    """Validate a dissipation for the grid; return it as a tuple of floats.

    It needs one finite sigma_d >= 0 per axis (ValueError otherwise), and
    the time step must satisfy the stability bound (CflError otherwise).
    """
    diss = tuple(float(s) for s in dissipation)
    if len(diss) != grid.n or not all(isfinite(s) and s >= 0.0 for s in diss):
        raise ValueError(
            f"dissipation needs one finite value >= 0 per axis "
            f"({grid.n} here), got {diss}")
    number = cfl_number(grid, diss)
    if number > CFL_SAFETY:
        try:
            hint = f"use at least t_nodes = {suggest_t_nodes(grid, diss)}"
        except CflError as err:
            hint = str(err)
        raise CflError(
            f"time step violates the stability bound: "
            f"dt*sum(sigma/dx) = {number:.6g} > {CFL_SAFETY:.6g}; {hint}"
        )
    return diss


@dataclass(frozen=True)
class SolveResult:
    V: GridFunction
    obstacle_gap: Optional[GridFunction]
    iterations: np.ndarray
    clipped: np.ndarray  # nodes per slice strictly clipped, N[W] < W0
    flags: tuple
    dissipation: tuple


# ------------------------------------------------------------------ steps ----

def _axis_neighbors(W, axis):
    """The next and previous node of W along `axis`, the edge node
    standing in for the missing one (copied-edge ghosts): the same arrays
    as the slices [2:] and [:-2] of np.pad(W, ..., mode="edge")."""
    def part(start, stop):
        return W[(slice(None),) * axis + (slice(start, stop),)]
    hi = np.concatenate([part(1, None), part(-1, None)], axis=axis)
    lo = np.concatenate([part(None, 1), part(None, -1)], axis=axis)
    return hi, lo


def _hjb_step(problem, grid, dissipation, W, t_next, x):
    """One explicit step from W at t_next; x is the space meshgrid.

    Differences of values near the float limit overflow quietly: the step
    then holds inf or NaN, which the caller's _check_finite reports.
    """
    grads = []
    diss = np.zeros_like(W)
    with np.errstate(over="ignore", invalid="ignore"):
        for d in range(grid.n):
            hi, lo = _axis_neighbors(W, d)
            grads.append((hi - lo) / (2.0 * grid.dx[d]))
            if dissipation[d] != 0.0:
                diss = diss + dissipation[d] * (hi - 2.0 * W + lo) / (2.0 * grid.dx[d])
        try:
            H = problem.hamiltonian(t_next, x, grads)
        except ex.DomainError as e:
            raise SolverError(
                f"Hamiltonian evaluation failed at t = {t_next:.6g}: {e}"
            ) from e
        return W + grid.dt * (np.asarray(H, dtype=float) + diss)


def _check_finite(vals, t, grid):
    bad = ~np.isfinite(vals)
    if bad.any():
        idx = np.argwhere(bad)[0]
        x = [axis[i] for axis, i in zip(grid.axes, idx)]
        point = ", ".join(f"{name} = {v:.6g}"
                          for name, v in make_env(x=x).items())
        raise SolverError(
            f"non-finite value produced at t = {t:.6g}, {point}"
        )


def solve_hjb(problem, grid, dissipation=None) -> SolveResult:
    """Unconstrained backward solve; terminal slice is the sampled data.

    `dissipation` (one sigma_d per axis) defaults to
    estimate_dissipation(problem, grid).  The grid must end at the
    problem's horizon (ConfigError otherwise).  A solve audits no
    hypothesis; assumptions.audit_H1 and audit_H2 do.
    """
    return _backward(problem, grid, dissipation, obstacle=False)


def solve_qvi(problem, grid, dissipation=None) -> SolveResult:
    """Backward solve with every stepped slice clipped by the obstacle.

    Each slice runs W <- min(W_unclipped, N[W]) until the update falls
    below FP_TOL, then records the obstacle gap of the settled slice
    (from the last sweep when its update was exactly zero, since that
    sweep already saw the settled slice), but not its argmin, which
    obstacle.evaluate_slice_values gives again bit for bit.  The terminal
    slice is the sampled terminal data and is never clipped.
    `dissipation` and the horizon are as in solve_hjb.  N is the one every
    command uses, over the ball of the box diagonal.

    `clipped` counts the clipped nodes (N[W] < W_unclipped) of each slice.
    A clipped node is cut by the box when its jump lands within half a
    cell of an edge along an axis it moves; `flags` counts these per axis
    and side, on the exact path and the search alike.
    """
    return _backward(problem, grid, dissipation, obstacle=True)


def _backward(problem, grid, dissipation, obstacle):
    """The backward loop of both solves, with the obstacle on or off.

    Off, no obstacle call is made and no gap array is allocated.  On,
    the clipped and box-edge counts of solve_qvi are taken slice by
    slice from W0 and the settled argmin, which is then dropped.
    """
    check_horizon(problem, grid)
    terminal = sample_terminal(problem.h, grid)
    if dissipation is None:
        dissipation = _dissipation(problem, grid, terminal)
    dissipation = check_cfl(grid, dissipation)
    x = np.meshgrid(*grid.axes, indexing="ij")
    nt = grid.t_nodes
    V = np.empty(grid.shape)
    V[nt - 1] = terminal
    iterations = np.zeros(nt, dtype=int)
    clipped_count = np.zeros(nt, dtype=int)
    gap = np.empty(grid.shape) if obstacle else None
    box = np.column_stack([grid.x_min, grid.x_max])  # (low, high) per axis
    edges = np.zeros(box.shape, dtype=int)  # clipped nodes cut at each edge
    if obstacle:
        # terminal slice: never enforced; its gap is kept so that the gap
        # equals viscosity.obstacle_gap(V) on every slice
        n_term, _ = obs.evaluate_slice_values(
            grid, V[nt - 1:], grid.t[nt - 1:], problem.ell, problem.cone)
        gap[nt - 1] = n_term[0] - V[nt - 1]

    for k in range(nt - 2, -1, -1):
        t_k = float(grid.t[k])
        W0 = _hjb_step(problem, grid, dissipation, V[k + 1],
                       float(grid.t[k + 1]), x)
        _check_finite(W0, t_k, grid)
        if not obstacle:
            V[k] = W0
            continue
        W, n_vals, argmin, iterations[k] = _settle(problem, grid, W0, t_k)
        V[k] = W
        gap[k] = n_vals - W
        clipped = n_vals < W0
        clipped_count[k] = np.count_nonzero(clipped)
        if not clipped_count[k]:
            # nothing clipped: skip building and counting each axis's
            # landing points, whose edge counts would all be 0
            continue
        for d in range(grid.n):
            xi = argmin[..., d]
            land = (x[d] + xi)[clipped & (xi != 0.0)]  # clipped, moved along d
            half = 0.5 * grid.dx[d]
            edges[d] += (np.count_nonzero(land <= box[d, 0] + half),
                         np.count_nonzero(land >= box[d, 1] - half))

    flags = tuple(f"best jump reaches {name} = {edge:.6g} at {count} clipped nodes"
                  for name, sides, counts in zip(axis_names("x", grid.n), box, edges)
                  for edge, count in zip(sides, counts) if count)
    return SolveResult(
        V=GridFunction(grid, V),
        obstacle_gap=None if gap is None else GridFunction(grid, gap),
        iterations=iterations,
        clipped=clipped_count,
        flags=flags,
        dissipation=dissipation,
    )


def _settle(problem, grid, W0, t_k):
    """Fixed point W <- min(W0, N[W]) of one stepped slice.

    Returns (W, N[W], argmin, sweeps).
    """
    W = W0
    for it in range(1, FP_MAX_ITER + 1):
        n_vals, arg_k = obs.evaluate_slice_values(
            grid, W[None], [t_k], problem.ell, problem.cone)
        W_new = np.minimum(W0, n_vals[0])
        delta = float(np.max(np.abs(W_new - W)))
        W = W_new
        if delta <= FP_TOL:
            break
    else:
        raise FixedPointError(
            f"obstacle fixed point did not settle at t = {t_k:.6g}: "
            f"last update {delta:.3g} after {FP_MAX_ITER} sweeps"
        )
    if delta > 0.0:
        # the last sweep saw the previous iterate; a zero update means
        # it saw this one, so its N and argmin stand
        n_vals, arg_k = obs.evaluate_slice_values(
            grid, W[None], [t_k], problem.ell, problem.cone)
    return W, n_vals[0], arg_k[0], it


# ------------------------------------------------------------ diagnostics ----

def obstacle_scale(grid, dissipation) -> float:
    """Dissipation length scale sum_d sigma_d * dx_d.

    The scheme resolves the obstacle contact set only up to its numerical
    viscosity: inside a contact region the solved slice sits below the
    obstacle by an amount of this order, so region classification must
    threshold the gap at this scale rather than at the fixed point
    tolerance.
    """
    return sum(s * dx for s, dx in zip(dissipation, grid.dx))


def mask_tolerances(grid, dissipation):
    """Per-slice gap threshold for contact classification.

    The below-obstacle dip inside a contact region accumulates with the
    backward horizon (the smoothing acts for time T - t), so the base
    dissipation scale is stretched by 1 + 2*(T - t).
    """
    return obstacle_scale(grid, dissipation) * (1.0 + 2.0 * (grid.T - grid.t))


def extract_regions(result: SolveResult) -> np.ndarray:
    """Contact mask of a constrained solve: True at the stepped nodes
    where the obstacle is active, False elsewhere and on the terminal
    slice, which holds data, not a decision.

    A node is active where its gap N[V] - V is within the
    horizon-stretched dissipation scale, see mask_tolerances.
    """
    if result.obstacle_gap is None:
        raise ValueError("result has no obstacle data; solve with solve_qvi")
    grid = result.V.grid
    tol_rows = mask_tolerances(grid, result.dissipation)
    mask = result.obstacle_gap.values <= tol_rows.reshape(
        (grid.t_nodes,) + (1,) * grid.n)
    mask[-1] = False
    return mask


def interior_mask(grid, dissipation):
    """Nodes far enough from the spatial boundary to trust the solution.

    Clamped edges radiate errors inward at the dissipation speed, so each
    slice drops a collar of width max(INTERIOR_CELLS*dx, INTERIOR_MARGIN)
    plus INTERIOR_INFLUENCE * sigma_d * (T - t) on both sides of every
    axis.
    """
    mask = np.ones(grid.shape, dtype=bool)
    horizon = grid.T - grid.t  # (t_nodes,)
    for d in range(grid.n):
        dist = np.maximum(INTERIOR_CELLS * grid.dx[d], INTERIOR_MARGIN) \
            + INTERIOR_INFLUENCE * dissipation[d] * horizon
        axis = grid.axes[d]
        ok = (axis[None, :] >= grid.x_min[d] + dist[:, None]) & (
            axis[None, :] <= grid.x_max[d] - dist[:, None]
        )
        shape = [grid.t_nodes] + [1] * grid.n
        shape[1 + d] = grid.x_nodes[d]
        mask &= ok.reshape(shape)
    return mask
