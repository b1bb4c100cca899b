"""Impulse obstacle operator on grid functions.

evaluate_slice_values takes a stack of time slices, values (K, *x_nodes)
at times t (K,).  For a time slice V(t, .) the obstacle value at x is

    N[V](t, x) = inf over cone impulses xi of  V(t, x + xi) + ell(t, x, xi)

where V is multilinearly interpolated in space (clamped at the box edges)
and the infimum is taken over the cone intersected with the ball
|xi| <= the box diagonal, which reaches every landing point in the box
from every node.  Ties are broken toward smaller |xi|, then
lexicographically.

Exact path.  When the cone is the orthant, ell does not use x, and ell
is affine in xi (by the structure of its expression) with slopes
c_d = ell(e_d) - ell(0) >= 0, the infimum is computed exactly.  On every
box of whole or partial cells the interpolant plus the cost is
multilinear, so it is minimised at a corner; beyond the box edge the
clamped value stays put while the cost grows.
The minimum therefore lies among the landing points {x_d} u {nodes > x_d}
on each axis.  At the nodes, comparing V + c.y over them is a suffix
minimum, taken along axis 2 and then over the row minima along axis 1;
the first index attaining it is the shortest jump along its axis.  A node
with minimisers in two rows picks among the first minimiser of each
row.  At a single point the landing points are enumerated.  The returned
value is still V(x + xi) + ell(t, xi) at the chosen impulse.

Every other problem uses the search: a coarse product scan of COARSE
points per ray coefficient, followed by REFINE_LEVELS nested zooms of
REFINE_POINTS points per coefficient around the incumbent, each shrinking
the bracket to one cell of the previous level.  Multimodal landscapes are
handled by the scan; the refinement only sharpens the winning basin.
The search takes the nodes in batches of NODE_BATCH // COARSE**m, which
keeps the bits and bounds a call's peak memory.  A cone has at most
n + 1 <= 3 rays (core.Cone.from_rays), so COARSE**m <= 15,625 and a
batch holds at least 16 nodes.
With REFINE_LEVELS = 0 the search is the shared scan alone: one fixed
probe set for every slice, so it is exactly monotone in V and equivariant
under constant shifts.  Its value never exceeds the payoff of any
probed impulse, so it is an upper bound of the exact infimum.

The path is chosen per slice, at its t: a cost that reads t can have a
negative slope on some slices of a stack only, and those take the search.
The exact slices of a stack share one node scan with a leading slice
axis; the search slices fill the search's node batches with whole
slices, or with one slice's nodes.  Payoffs go through core.interp_slice, whose points
carry the same leading axis.  Every step is elementwise over the slices
and every tie is broken per node, so each slice's value and argmin are
bit for bit what a stack of that slice alone gives.

Neither path knows where the box cuts a jump short: the solver reads
that from the settled argmin (see solver.solve_qvi).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import expr as ex
from .core import GridFunction, axis_names, interp_slice, make_env

COARSE = 25  # scan points per ray coefficient in the search
REFINE_LEVELS = 10  # nested zooms of the search after the scan
REFINE_POINTS = 9  # points per ray coefficient in each zoom of the search
NODE_BATCH = 1 << 18  # candidates a per-node scan of N holds at once


@dataclass(frozen=True)
class ObstacleResult:
    value: float
    argmin: np.ndarray  # impulse xi, shape (n,)
    probes: int


# -------------------------------------------------------------- internals ----

def _batch_best(values, xi):
    """Per-node best column with (value, |xi|, lex xi) tie-breaking.

    values: (N, B); xi: (N, B, n).  Returns indices (N,).
    """
    norms = np.linalg.norm(xi, axis=-1)
    vbest = values.min(axis=1, keepdims=True)
    tie = values == vbest
    nmask = np.where(tie, norms, np.inf)
    nbest = nmask.min(axis=1, keepdims=True)
    tie &= nmask == nbest
    c0 = np.where(tie, xi[..., 0], np.inf)
    tie &= c0 == c0.min(axis=1, keepdims=True)
    if xi.shape[-1] == 2:
        c1 = np.where(tie, xi[..., 1], np.inf)
        tie &= c1 == c1.min(axis=1, keepdims=True)
    return np.argmax(tie, axis=1)


def _pick(values, xi, lam):
    """(value, xi, lam) of the _batch_best column of every node.

    values: (N, B); xi: (N, B, n); lam: (N, B, m).
    """
    col = _batch_best(values, xi)
    rows = np.arange(col.size)
    return values[rows, col], xi[rows, col], lam[rows, col]


def _psi(grid, values, t, ell, x, xi):
    """psi(xi) = V_interp(t, x + xi) + ell(t, x, xi) on a stack of slices:
    values (K, *x_nodes) at times t (K,), impulses xi (K, ..., n) and
    points x that broadcast against them.  Returns xi's shape without its
    last axis."""
    v = interp_slice(grid, values, x + xi)
    t = t.reshape((-1,) + (1,) * (v.ndim - 1))
    return v + ex.evaluate(ell, make_env(t=t, x=x, xi=xi))


def _coarse_lambda_grid(m, xi_max):
    axes = [np.linspace(0.0, xi_max, COARSE) for _ in range(m)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([md.ravel() for md in mesh], axis=-1)  # (B, m)


def _search(grid, values, t, ell, nodes_x, cone):
    """Run the coarse scan plus zoom refinement at the points nodes_x
    (N, n) of every slice of the stack values (K, *x_nodes) at times t
    (K,), over the ball of the box diagonal.

    Returns (values, argmin_xi, probes) of shapes (K, N), (K, N, n);
    probes counts the payoffs evaluated.  Each node of each slice picks
    on its own, so the stack is one batch of K*N nodes.
    """
    xi_max = grid.box_diagonal
    x = nodes_x[:, None, :]
    rays = cone.rays
    m = cone.n_rays
    shape = (len(values), len(nodes_x))
    probes = 0

    def eval_lam(lam):
        """lam: (K*N, B, m).  Returns (psi, xi) with psi = inf off the ball."""
        nonlocal probes
        xi = lam @ rays
        stacked = xi.reshape(shape + xi.shape[1:])  # (K, N, B, n)
        vals = _psi(grid, values, t, ell, x, stacked).reshape(xi.shape[:-1])
        probes += vals.size
        norms = np.linalg.norm(xi, axis=-1)
        vals = np.where(norms <= xi_max * (1.0 + 1e-12), vals, np.inf)
        return vals, xi

    # coarse shared scan (the lambda grid always includes 0)
    lam0 = np.broadcast_to(_coarse_lambda_grid(m, xi_max),
                           (shape[0] * shape[1], COARSE**m, m))
    best = _pick(*eval_lam(lam0), lam0)

    # nested zooms around the incumbent coefficient vector
    step = xi_max / (COARSE - 1)
    offsets_1d = np.linspace(-1.0, 1.0, REFINE_POINTS)
    mesh = np.meshgrid(*([offsets_1d] * m), indexing="ij")
    offsets = np.stack([md.ravel() for md in mesh], axis=-1)  # (B, m)
    for _ in range(REFINE_LEVELS):
        lam = best[2][:, None, :] + step * offsets[None, :, :]
        np.clip(lam, 0.0, xi_max, out=lam)
        cand = _pick(*eval_lam(lam), lam)
        # the incumbent is column 0: a full tie or a NaN value keeps it
        best = _pick(*(np.stack(pair, axis=1) for pair in zip(best, cand)))
        step *= 2.0 / (REFINE_POINTS - 1)

    return best[0].reshape(shape), best[1].reshape(shape + (grid.n,)), probes


# ------------------------------------------------------------- exact path ----

def _slopes_at(ell, n, t):
    """Cost slopes c_d = ell(t, e_d) - ell(t, 0), or None if one is negative."""
    basis = np.vstack([np.zeros(n), np.eye(n)])
    cost = np.broadcast_to(
        np.asarray(ex.evaluate(ell, make_env(t=float(t), xi=basis)),
                   dtype=float), (n + 1,))
    slopes = cost[1:] - cost[0]
    return None if np.any(slopes < 0.0) else slopes


@lru_cache(maxsize=64)
def _cost_slopes(ell, n):
    """Slopes of ell as a function of t, or None when its form rules out
    the exact path: it reads x, or it is not affine in xi.

    Decided once per cost expression (the nodes are frozen, so they key
    the cache).  A cost that does not read t has its slopes evaluated here
    once; one that reads t is evaluated at each call's t.
    """
    if (ex.degree(ell, axis_names("x", n)) != 0
            or ex.degree(ell, axis_names("xi", n)) is None):
        return None
    if "t" in ex.variables(ell):
        return lambda t: _slopes_at(ell, n, t)
    slopes = _slopes_at(ell, n, 0.0)
    if slopes is not None:
        slopes.setflags(write=False)  # shared by every call on this cost
    return lambda t: slopes


def _exact_slopes(grid, t, ell, cone):
    """Per time of `t`, the cost slopes c_d = ell(t, e_d) - ell(t, 0) when
    the exact path applies, else None: a list.

    The path is not taken by a cone other than the orthant, a cost that
    reads x or is not affine in xi, or at a time where a slope is negative.
    """
    slopes_at = _cost_slopes(ell, grid.n) if cone.kind == "orthant" else None
    return [None if slopes_at is None else slopes_at(tk) for tk in t]


def _exact_point(grid, values, slopes, x):
    """Impulse attaining N at one point x (n,) of the box, by enumeration
    over one slice `values` (*x_nodes).

    Candidates: the product over the axes of {x_d} u {nodes > x_d}.
    Returns (xi, number of candidates).
    """
    coords, index = [], []
    for d, axis in enumerate(grid.axes):
        first = int(np.searchsorted(axis, x[d], side="left"))
        ids = np.arange(first, axis.size)
        if not (first < axis.size and axis[first] == x[d]):
            ids = np.concatenate([[-1], ids])
        coords.append(np.where(ids < 0, x[d], axis[np.maximum(ids, 0)]))
        index.append(ids)
    ys = np.meshgrid(*coords, indexing="ij")
    index = np.meshgrid(*index, indexing="ij")
    v = values[tuple(np.maximum(i, 0) for i in index)]
    off = np.any([i < 0 for i in index], axis=0)
    if off.any():
        points = np.stack([y[off] for y in ys], axis=-1)
        v[off] = interp_slice(grid, values[None], points[None])[0]
    key = v
    for slope, y in zip(slopes, ys):
        key = key + slope * y  # left to right: ((v + c1*y1) + c2*y2)
    xi = np.stack([y - xd for y, xd in zip(ys, x)], axis=-1)
    xi = xi.reshape(-1, grid.n)
    pick = _batch_best(key.reshape(1, -1), xi[None])[0]
    return xi[pick], key.size


def _suffix_min(key):
    """Suffix minimum of `key` along its first axis, and the first index
    at or after each position that attains it."""
    low = np.minimum.accumulate(key[::-1])[::-1]
    size = key.shape[0]
    hit = np.where((key == low).T, np.arange(size), size).T
    return low, np.minimum.accumulate(hit[::-1])[::-1]


def _exact_nodes(grid, values, slopes):
    """Impulses attaining N at every node of a stack of slices, values
    (K, *x_nodes) with cost slopes (K, n); shape (K, *x_nodes, n).

    The minimum of V + c.y over the nodes at or above each node is a
    suffix minimum: along the axis in 1-d, along axis 2 and then over the
    row minima along axis 1 in 2-d, each pass over every slice at once.
    The first index attaining it is the shortest jump along its axis.  A
    2-d node whose next row also attains its minimum has minimisers in two
    rows and goes through _node_ties for the (|xi|, lexicographic)
    tie-break; a second minimiser in the same row lies farther along axis
    2, so the first one wins already.
    """
    if grid.n == 1:
        axis = grid.axes[0]
        _, arg = _suffix_min((values + slopes * axis).T)  # (n1, K)
        return (axis[arg] - axis[:, None]).T[..., None]
    ax0, ax1 = grid.axes
    key = (values + slopes[:, :1, None] * ax0[:, None]
           + slopes[:, 1:, None] * ax1)  # left to right, as at a point
    row_min, row_arg = _suffix_min(key.T)  # (n2, n1, K): along axis 2
    best, arg0 = _suffix_min(row_min.transpose(1, 0, 2))  # (n1, n2, K)
    cols = np.arange(ax1.size)[:, None]
    ks = np.arange(len(values))
    xi = np.stack([ax0[arg0] - ax0[:, None, None],
                   ax1[row_arg[cols, arg0, ks]] - ax1[:, None]], axis=-1)
    after = np.concatenate([best[1:], np.full(best[:1].shape, np.nan)])
    ti, tj, tk = np.nonzero(after[arg0, cols, ks] == best)
    xi[ti, tj, tk] = _node_ties(grid, row_min, row_arg, ti, tj, tk)
    return xi.transpose(2, 0, 1, 3)


def _node_ties(grid, row_min, row_arg, ti, tj, tk):
    """Tie-broken impulses at the nodes (ti, tj) of the slices tk of a 2-d
    stack, shape (T, 2).

    The node scan sends here the nodes whose minimum is attained in two
    rows.  In row p >= i, node (i, j) of slice k meets its minimum where
    row_min[j, p, k] equals it, first at column row_arg[j, p, k], the
    row's shortest jump; so it compares one candidate per row, rows above
    it at an infinite key.  Tied nodes go in batches of about NODE_BATCH
    candidates.
    """
    ax0, ax1 = grid.axes
    rows = np.arange(ax0.size)
    out = np.empty((ti.size, 2))
    step = max(1, NODE_BATCH // ax0.size)
    for lo in range(0, ti.size, step):
        i, j, k = ti[lo:lo + step, None], tj[lo:lo + step], tk[lo:lo + step]
        cand = np.where(rows >= i, row_min[j, :, k], np.inf)
        xi = np.stack([ax0 - ax0[i], ax1[row_arg[j, :, k]] - ax1[j, None]],
                      axis=-1)
        out[lo:lo + step] = xi[np.arange(j.size), _batch_best(cand, xi)]
    return out


def _exact_stack(grid, values, t, ell, slopes):
    """N and its argmin at every node of slices that take the exact path,
    with cost slopes (K, n): shapes (K, *x_nodes), (K, *x_nodes, n)."""
    bxi = _exact_nodes(grid, values, slopes)
    vals = _psi(grid, values, t, ell, grid.space_nodes(),
                bxi.reshape(len(t), -1, grid.n))
    return vals.reshape(values.shape), bxi


def _search_stack(grid, values, t, ell, cone):
    """N and its argmin at every node of slices that take the search:
    shapes (K, *x_nodes), (K, *x_nodes, n).  A batch holds whole slices,
    or one slice's nodes, at most NODE_BATCH // COARSE**m nodes in all."""
    nodes = grid.space_nodes()
    step = NODE_BATCH // COARSE**cone.n_rays
    rows = max(1, step // len(nodes))
    vals = np.empty(values.shape[:1] + nodes.shape[:1])
    bxi = np.empty(values.shape[:1] + nodes.shape)
    for k in range(0, len(t), rows):
        for lo in range(0, len(nodes), step):
            part = slice(k, k + rows), slice(lo, lo + step)
            vals[part], bxi[part], _ = _search(
                grid, values[part[0]], t[part[0]], ell, nodes[part[1]], cone)
    return vals.reshape(values.shape), bxi.reshape(values.shape + (grid.n,))


def evaluate_slice_values(grid, values, t, ell, cone):
    """Obstacle operator at every spatial node of a stack of slices.

    `values` (K, *x_nodes) holds the slices at the times `t` (K,).  Each
    slice takes the exact path when the problem allows it at its time,
    else the search: a cost that reads t may send one stack down both.
    The exact slices share one node scan; the search slices go in node
    batches under NODE_BATCH.  Returns (values, argmin_xi) with shapes (K, *x_nodes),
    (K, *x_nodes, n), each slice bit for bit what a stack of that slice
    alone gives.
    """
    values = np.asarray(values, dtype=float)
    t = np.asarray(t, dtype=float)
    slopes = _exact_slopes(grid, t, ell, cone)
    exact = np.array([s is not None for s in slopes])
    if exact.all():
        return _exact_stack(grid, values, t, ell, np.array(slopes))
    if not exact.any():
        return _search_stack(grid, values, t, ell, cone)
    vals, bxi = np.empty(values.shape), np.empty(values.shape + (grid.n,))
    vals[exact], bxi[exact] = _exact_stack(
        grid, values[exact], t[exact], ell,
        np.array([s for s in slopes if s is not None]))
    vals[~exact], bxi[~exact] = _search_stack(grid, values[~exact],
                                              t[~exact], ell, cone)
    return vals, bxi


def evaluate(V: GridFunction, t_index, x_point, ell, cone):
    """Obstacle value at one (t_index, x_point), x_point inside the box.

    Runs the slice machinery on a single point, so every guarantee of
    evaluate_slice_values (path choice, tie-breaking, value at nodes)
    holds verbatim.  `probes` counts the payoffs the search evaluated, or
    the candidates the exact path compared.
    """
    grid = V.grid
    x_point = np.atleast_1d(np.asarray(x_point, dtype=float))
    if x_point.shape != (grid.n,):
        raise ValueError(f"x_point must have shape ({grid.n},)")
    for d in range(grid.n):
        if not (grid.x_min[d] <= x_point[d] <= grid.x_max[d]):
            raise ValueError(
                f"x_point component {d + 1} = {x_point[d]} outside "
                f"[{grid.x_min[d]}, {grid.x_max[d]}]"
            )
    values = V.values[t_index][None]
    t = grid.t[[t_index]]
    points = x_point[None, :]
    slopes = _exact_slopes(grid, t, ell, cone)[0]
    if slopes is None:
        value, bxi, probes = _search(grid, values, t, ell, points, cone)
    else:
        xi, probes = _exact_point(grid, values[0], slopes, x_point)
        bxi = xi[None, None]
        value = _psi(grid, values, t, ell, points, bxi)
    return ObstacleResult(float(value[0, 0]), np.array(bxi[0, 0]), probes)
