"""Impulse obstacle operator on grid functions.

For a time slice V(t, .) the obstacle value at x is

    N[V](t, x) = inf over cone impulses xi of  V(t, x + xi) + ell(t, x, xi)

where V is multilinearly interpolated in space (clamped at the box edges)
and the infimum is taken over the cone intersected with a ball
|xi| <= xi_max, the box diagonal unless a search says otherwise.  Ties
are broken toward smaller |xi|, then lexicographically.

Exact path.  When the cone is the orthant, ell does not use x, ell is
affine in xi (by the structure of its expression) with slopes
c_d = ell(e_d) - ell(0) >= 0, and, in 2-d, xi_max reaches the box
diagonal, the infimum is computed exactly.  On every box of whole or
partial cells the interpolant plus the cost is multilinear, so it is
minimised at a corner; beyond the box edge the clamped value stays put
while the cost grows.  The minimum therefore lies among the landing
points {x_d} u {nodes > x_d} on each axis (plus the window end x + xi_max
in 1-d), and comparing V + c.y over them is a range minimum in 1-d and a
separable suffix minimum along both axes in 2-d.  The returned value is
still V(x + xi) + ell(t, xi) at the chosen impulse.

Every other problem uses the search: a coarse product scan in ray
coefficients followed by nested zoom refinements around the incumbent, so
multimodal landscapes are handled by the scan and the refinement only
sharpens the winning basin.  Its value never exceeds the payoff of any
probed impulse, so it is an upper bound of the exact infimum.

On both paths the `truncated` flag records results whose impulse sits at
the radius cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .core import GridFunction, interp_slice


@dataclass(frozen=True)
class SearchParams:
    """Controls for the obstacle infimum.

    xi_max caps |xi| on both paths.  The other fields steer the search;
    on the exact path (see the module docstring for when it applies) only
    `coarse` is read, for the truncation threshold
    xi_max - xi_max/(2*(coarse - 1)).  `coarse` is the scan count per ray
    coefficient; `refine_levels` nested zooms of `refine_points` points per
    coefficient follow, each shrinking the bracket to one cell of the
    previous level.  refine_levels=0 reduces the search to the shared
    coarse scan, which is what exact monotonicity or equivariance
    comparisons of the search should use.
    """

    xi_max: float
    coarse: int = 25
    refine_levels: int = 10
    refine_points: int = 9

    def __post_init__(self):
        if not (self.xi_max > 0.0 and np.isfinite(self.xi_max)):
            raise ValueError(f"xi_max must be positive and finite, got {self.xi_max}")
        if self.coarse < 2:
            raise ValueError("coarse scan needs at least 2 points per coefficient")
        if self.refine_levels < 0 or (self.refine_levels > 0 and self.refine_points < 3):
            raise ValueError("refinement needs refine_points >= 3")


def default_search(grid):
    """The one radius policy of N: xi_max = the box diagonal.

    Every landing point inside the box lies within one diagonal of every
    node, so this ball reaches all of them; it is also the radius the 2-d
    exact path needs.  Callers that pass no search get this policy, so
    every command sees the same N.
    """
    return SearchParams(xi_max=grid.box_diagonal)


@dataclass(frozen=True)
class ObstacleResult:
    value: float
    argmin: np.ndarray  # impulse xi, shape (n,)
    truncated: bool
    probes: int


# -------------------------------------------------------------- internals ----

def _lex_less(a, b):
    """Row-wise lexicographic a < b for (N, n) arrays, n in {1, 2}."""
    if a.shape[-1] == 1:
        return a[..., 0] < b[..., 0]
    return (a[..., 0] < b[..., 0]) | (
        (a[..., 0] == b[..., 0]) & (a[..., 1] < b[..., 1])
    )


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


def _merge_best(best, cand):
    """Merge candidate (value, norm, xi, lam) tuples into the running best."""
    bv, bn, bxi, blam = best
    cv, cn, cxi, clam = cand
    better = (cv < bv) | (
        (cv == bv) & ((cn < bn) | ((cn == bn) & _lex_less(cxi, bxi)))
    )
    bv = np.where(better, cv, bv)
    bn = np.where(better, cn, bn)
    bxi = np.where(better[:, None], cxi, bxi)
    blam = np.where(better[:, None], clam, blam)
    return bv, bn, bxi, blam


class _SliceEvaluator:
    """Evaluates psi(xi) = V_interp(t, x + xi) + ell(t, x, xi) in batches."""

    def __init__(self, grid, slice_values, t, ell, nodes_x):
        self.grid = grid
        self.slice_values = np.asarray(slice_values, dtype=float)
        self.t = float(t)
        self.ell = ell
        self.nodes_x = nodes_x  # (N, n)
        self.n = nodes_x.shape[1]
        self.probes = 0

    def psi(self, xi):
        """xi: (N, B, n).  Returns (N, B)."""
        target = self.nodes_x[:, None, :] + xi
        v = interp_slice(self.grid, self.slice_values, target)
        env = {"t": self.t}
        for d in range(self.n):
            env[f"x{d + 1}"] = self.nodes_x[:, None, d]
            env[f"xi{d + 1}"] = xi[..., d]
        cost = np.asarray(ex.evaluate(self.ell, env), dtype=float)
        cost = np.broadcast_to(cost, v.shape)
        self.probes += v.size
        return v + cost


def _coarse_lambda_grid(m, search):
    axes = [np.linspace(0.0, search.xi_max, search.coarse) for _ in range(m)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([md.ravel() for md in mesh], axis=-1)  # (B, m)


def _search(ev: _SliceEvaluator, cone, search: SearchParams):
    """Run the coarse scan plus zoom refinement for every node of `ev`.

    Returns (values, argmin_xi, truncated) flat over nodes.
    """
    rays = cone.rays
    m = cone.n_rays
    n_nodes = ev.nodes_x.shape[0]
    rows = np.arange(n_nodes)

    def eval_lam(lam):
        """lam: (N, B, m).  Returns (psi-with-cap, xi, norms), off-ball = inf."""
        xi = lam @ rays
        vals = ev.psi(xi)
        norms = np.linalg.norm(xi, axis=-1)
        vals = np.where(norms <= search.xi_max * (1.0 + 1e-12), vals, np.inf)
        return vals, xi, norms

    # coarse shared scan (the lambda grid always includes 0)
    lam0 = np.broadcast_to(
        _coarse_lambda_grid(m, search)[None], (n_nodes, search.coarse**m, m)
    )
    vals, xi_b, norms = eval_lam(lam0)
    pick = _batch_best(vals, xi_b)
    best = (
        vals[rows, pick],
        norms[rows, pick],
        xi_b[rows, pick, :],
        lam0[rows, pick, :],
    )

    # nested zooms around the incumbent coefficient vector
    step = search.xi_max / (search.coarse - 1)
    offsets_1d = np.linspace(-1.0, 1.0, search.refine_points)
    mesh = np.meshgrid(*([offsets_1d] * m), indexing="ij")
    offsets = np.stack([md.ravel() for md in mesh], axis=-1)  # (B, m)
    for _ in range(search.refine_levels):
        lam = best[3][:, None, :] + step * offsets[None, :, :]
        np.clip(lam, 0.0, search.xi_max, out=lam)
        vals, xi_b, norms = eval_lam(lam)
        pick = _batch_best(vals, xi_b)
        cand = (
            vals[rows, pick],
            norms[rows, pick],
            xi_b[rows, pick, :],
            lam[rows, pick, :],
        )
        best = _merge_best(best, cand)
        step *= 2.0 / (search.refine_points - 1)

    values, bnorm, bxi, _ = best
    return values, bxi, _truncated(bnorm, search)


def _truncated(norms, search):
    """Impulses within half a coarse scan step of the radius cap."""
    coarse_step = search.xi_max / (search.coarse - 1)
    return norms >= search.xi_max - 0.5 * coarse_step


# ------------------------------------------------------------- exact path ----

def _xi_free(node):
    return not any(name.startswith("xi") for name in ex.variables(node))


def _affine_in_xi(node):
    """True when the expression is affine in xi by its structure."""
    if isinstance(node, ex.Neg):
        return _affine_in_xi(node.arg)
    if isinstance(node, ex.Bin):
        if node.op in ("+", "-"):
            return _affine_in_xi(node.left) and _affine_in_xi(node.right)
        if node.op == "*":
            return (_xi_free(node.left) and _affine_in_xi(node.right)) or (
                _xi_free(node.right) and _affine_in_xi(node.left))
        if node.op == "/":
            return _xi_free(node.right) and _affine_in_xi(node.left)
    if isinstance(node, (ex.Bin, ex.Call)):
        return _xi_free(node)
    return True  # Num or Var


def _exact_slopes(grid, t, ell, cone, search):
    """Cost slopes c_d = ell(e_d) - ell(0) when the exact path applies.

    Returns None when it does not: a cone other than the orthant, a cost
    that reads x or is not affine in xi, a negative slope, or, in 2-d, a
    radius short of the box diagonal (the ball would cut cells).
    """
    if cone.kind != "orthant":
        return None
    names = ex.variables(ell)
    if any(name.startswith("x") and not name.startswith("xi") for name in names):
        return None
    if not _affine_in_xi(ell):
        return None
    if grid.n == 2 and search.xi_max < grid.box_diagonal:
        return None
    basis = np.vstack([np.zeros(grid.n), np.eye(grid.n)])
    env = {"t": float(t)}
    env.update({f"xi{d + 1}": basis[:, d] for d in range(grid.n)})
    cost = np.broadcast_to(np.asarray(ex.evaluate(ell, env), dtype=float),
                           (grid.n + 1,))
    slopes = cost[1:] - cost[0]
    if np.any(slopes < 0.0):
        return None
    return slopes


def _range_min(key, lo, hi):
    """Leftmost minimum of key[lo..hi] for each query pair (lo, hi).

    Sparse table of minima over power-of-two spans; an empty range
    (lo > hi) gives an infinite value.  Returns (values, indices).
    """
    m = key.size
    table_v = np.full((m.bit_length(), m), np.inf)
    table_i = np.zeros(table_v.shape, dtype=np.int64)
    table_v[0] = key
    table_i[0] = np.arange(m)
    span, level = 1, 0
    while 2 * span <= m:
        v, i = table_v[level, :m - span + 1], table_i[level, :m - span + 1]
        right = v[span:] < v[:-span]
        table_v[level + 1, :m - 2 * span + 1] = np.where(right, v[span:], v[:-span])
        table_i[level + 1, :m - 2 * span + 1] = np.where(right, i[span:], i[:-span])
        span, level = 2 * span, level + 1
    empty = hi < lo
    lo = np.where(empty, 0, lo)
    length = np.where(empty, 1, hi - lo + 1)
    k = np.frexp(length)[1] - 1  # floor(log2(length))
    start_r = lo + length - (1 << k)
    left_v, right_v = table_v[k, lo], table_v[k, start_r]
    take_r = right_v < left_v
    values = np.where(empty, np.inf, np.where(take_r, right_v, left_v))
    index = np.where(take_r, table_i[k, start_r], table_i[k, lo])
    return values, index


def _exact_1d(grid, values, slope, xi_max, x):
    """Impulses attaining N at points x (N,) of a 1-d box, with candidate counts.

    Candidates: no jump, the nodes in (x, x + xi_max], and the window end
    x + xi_max when it falls inside the box between nodes.  They are
    compared on V(y) + slope*y, with node values at nodes and interpolated
    values elsewhere.
    """
    axis = grid.axes[0]
    m = axis.size
    key = values + slope * axis
    first = np.searchsorted(axis, x, side="left")
    on_node = axis[np.minimum(first, m - 1)] == x
    own = np.empty(x.shape)
    own[on_node] = key[first[on_node]]
    off = ~on_node
    if off.any():
        own[off] = interp_slice(grid, values, x[off, None]) + slope * x[off]
    lo = first + on_node  # first node strictly right of x
    reach = x + xi_max
    hi = np.searchsorted(axis, reach, side="right") - 1
    node_key, node = _range_min(key, lo, hi)
    inside = (reach < axis[-1]) & (axis[hi] != reach)
    end_key = np.full(x.shape, np.inf)
    if inside.any():
        end_key[inside] = (interp_slice(grid, values, reach[inside, None])
                           + slope * reach[inside])
    keys = np.stack([own, node_key, end_key], axis=1)
    xi = np.stack([np.zeros(x.shape), axis[node] - x, np.full(x.shape, xi_max)],
                  axis=1)[..., None]
    pick = _batch_best(keys, xi)
    count = 1 + np.maximum(hi - lo + 1, 0) + inside
    return xi[np.arange(x.size), pick], count


def _exact_2d_point(grid, values, slopes, x):
    """Impulse attaining N at one point x (2,) of a 2-d box, by enumeration.

    Candidates: the product over both axes of {x_d} u {nodes > x_d}.
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
    y0, y1 = np.meshgrid(*coords, indexing="ij")
    i0, i1 = np.meshgrid(*index, indexing="ij")
    v = values[np.maximum(i0, 0), np.maximum(i1, 0)]
    off = (i0 < 0) | (i1 < 0)
    if off.any():
        v[off] = interp_slice(grid, values, np.stack([y0[off], y1[off]], axis=-1))
    key = v + slopes[0] * y0 + slopes[1] * y1
    xi = np.stack([y0 - x[0], y1 - x[1]], axis=-1).reshape(1, -1, 2)
    pick = _batch_best(key.reshape(1, -1), xi)[0]
    return xi[0, pick], key.size


def _exact_2d_nodes(grid, values, slopes):
    """Impulses attaining N at every node of a 2-d box, shape (n1*n2, 2).

    The minimum of V + c.y over the quadrant above each node is a suffix
    minimum along axis 2 and then along axis 1; the scans also count the
    minimisers, and nodes with more than one go through _exact_2d_point
    for the (|xi|, lexicographic) tie-break.
    """
    ax0, ax1 = grid.axes
    key = values + slopes[0] * ax0[:, None] + slopes[1] * ax1[None, :]
    n0, n1 = key.shape
    row_min = key.copy()
    row_arg = np.broadcast_to(np.arange(n1), key.shape).copy()
    row_cnt = np.ones(key.shape, dtype=np.int64)
    for j in range(n1 - 2, -1, -1):
        k, r = key[:, j], row_min[:, j + 1]
        take = r < k
        row_min[:, j] = np.where(take, r, k)
        row_arg[:, j] = np.where(take, row_arg[:, j + 1], j)
        row_cnt[:, j] = np.where(take, row_cnt[:, j + 1],
                                 np.where(k == r, row_cnt[:, j + 1] + 1, 1))
    best = row_min.copy()
    arg0 = np.broadcast_to(np.arange(n0)[:, None], key.shape).copy()
    cnt = row_cnt.copy()
    for i in range(n0 - 2, -1, -1):
        k, r = row_min[i], best[i + 1]
        take = r < k
        best[i] = np.where(take, r, k)
        arg0[i] = np.where(take, arg0[i + 1], i)
        cnt[i] = np.where(take, cnt[i + 1],
                          np.where(k == r, cnt[i + 1] + row_cnt[i], row_cnt[i]))
    arg1 = row_arg[arg0, np.arange(n1)]
    xi = np.stack([ax0[arg0] - ax0[:, None], ax1[arg1] - ax1[None, :]], axis=-1)
    for i, j in np.argwhere(cnt > 1):
        xi[i, j] = _exact_2d_point(grid, values, slopes, np.array([ax0[i], ax1[j]]))[0]
    return xi.reshape(-1, 2)


def _exact_payoff(grid, values, t, ell, x, xi, search):
    """Payoff V(x + xi) + ell(t, xi) and truncation flag of chosen impulses."""
    env = {"t": float(t)}
    env.update({f"xi{d + 1}": xi[:, d] for d in range(grid.n)})
    cost = np.broadcast_to(np.asarray(ex.evaluate(ell, env), dtype=float),
                           (x.shape[0],))
    payoff = interp_slice(grid, values, x + xi) + cost
    return payoff, _truncated(np.linalg.norm(xi, axis=-1), search)


def _obstacle(grid, slice_values, t, ell, cone, search, points, at_nodes):
    """N at points (N, n) by the exact path when it applies, else the search.

    `at_nodes` says the points are every node in row-major order.  Returns
    (values, argmin_xi, truncated, probes) flat over the points; probes
    counts the payoffs the search evaluated or the candidates the exact
    path compared (None for the 2-d node scan).  A search of None means
    default_search(grid).
    """
    if search is None:
        search = default_search(grid)
    slopes = _exact_slopes(grid, t, ell, cone, search)
    if slopes is None:
        ev = _SliceEvaluator(grid, slice_values, t, ell, points)
        values, bxi, truncated = _search(ev, cone, search)
        return values, bxi, truncated, ev.probes
    slice_values = np.asarray(slice_values, dtype=float)
    if grid.n == 1:
        bxi, counts = _exact_1d(grid, slice_values, slopes[0], search.xi_max,
                                points[:, 0])
        probes = int(counts.sum())
    elif at_nodes:
        bxi, probes = _exact_2d_nodes(grid, slice_values, slopes), None
    else:
        xi, probes = _exact_2d_point(grid, slice_values, slopes, points[0])
        bxi = xi[None, :]
    values, truncated = _exact_payoff(grid, slice_values, t, ell, points, bxi,
                                      search)
    return values, bxi, truncated, probes


def evaluate_slice_values(grid, slice_values, t, ell, cone, search=None):
    """Obstacle operator applied to raw slice values at every spatial node.

    Takes the exact path when the problem allows it, else the search.
    Returns (values, argmin_xi, truncated) with shapes
    (*x_nodes,), (*x_nodes, n), (*x_nodes,).
    """
    space_env = grid.space_env()
    nodes_x = np.stack(
        [space_env[f"x{d + 1}"].ravel() for d in range(grid.n)], axis=-1
    )
    values, bxi, truncated, _ = _obstacle(grid, slice_values, t, ell, cone,
                                          search, nodes_x, at_nodes=True)
    shape = tuple(grid.x_nodes)
    return (
        values.reshape(shape),
        bxi.reshape(shape + (grid.n,)),
        truncated.reshape(shape),
    )


def evaluate_slice(V: GridFunction, t_index, ell, cone, search=None):
    """Obstacle operator applied to time slice `t_index` of a grid function."""
    t = float(V.grid.t[t_index])
    return evaluate_slice_values(V.grid, V.values[t_index], t, ell, cone, search)


def evaluate(V: GridFunction, t_index, x_point, ell, cone, search=None):
    """Obstacle value at one (t_index, x_point), x_point inside the box.

    Runs the slice machinery on a single point, so every guarantee of
    evaluate_slice (path choice, tie-breaking, truncation flag, value at
    nodes) holds verbatim.  `probes` counts the payoffs the search
    evaluated, or the candidates the exact path compared.
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
    t = float(grid.t[t_index])
    values, bxi, truncated, probes = _obstacle(
        grid, V.values[t_index], t, ell, cone, search, x_point[None, :],
        at_nodes=False)
    return ObstacleResult(
        value=float(values[0]),
        argmin=np.array(bxi[0]),
        truncated=bool(truncated[0]),
        probes=probes,
    )
