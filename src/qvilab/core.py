"""Problem containers, grids, config loading and sampling.

A problem instance couples a Hamiltonian H(t, x, p), a terminal payoff h(x),
an impulse cost ell(t, x, xi) with impulses constrained to a closed convex
cone, and an optional additive running term g(t, x) that is folded into H
wherever the library evaluates it.  Space is 1-d or 2-d, time runs on [0, T].

Config files are line oriented `key = value` with three sections:

    [problem]   n, T, H, h, ell, cone, g (optional)
    [constants] L, mu, h0, ell0, alpha, beta, delta0, C, gamma, kappa
    [grid]      t_nodes, x_nodes, x_min, x_max

Any other section or key is rejected with a ConfigError, whether it comes
from the file or from an override.

Expression values and cone descriptions are double-quoted strings; numbers
are plain decimal literals, comma separated when per-dimension.  A cone is
either "orthant" or a semicolon separated ray list such as "1,0; 0,1".
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields

import numpy as np

from . import expr as ex


class ConfigError(Exception):
    """Malformed config text, missing keys, or out-of-range constants."""


# ------------------------------------------------------------ variables ----
#
# Expressions read t and one variable per axis for each coordinate: x1..xn,
# p1..pn, xi1..xin.  This section is the one place that spells those names.

_AXIS_COORDS = ("x", "p", "xi")


def axis_names(coord, n):
    """The names of `coord` ("x", "p" or "xi") on n axes: x1..xn."""
    return tuple(f"{coord}{d + 1}" for d in range(n))


def role_variables(n):
    """The variables each problem expression may read in dimension n.

    {"H": t, x, p; "h": x; "ell": t, x, xi; "g": t, x}, as frozensets.
    A grid function given in closed form reads what g reads.
    """
    t = frozenset({"t"})
    x, p, xi = (frozenset(axis_names(c, n)) for c in _AXIS_COORDS)
    return {"H": t | x | p, "h": x, "ell": t | x | xi, "g": t | x}


def make_env(**coords):
    """The environment expr.evaluate reads, from coordinates by keyword.

    `t` passes through as it is.  `x`, `p` and `xi` are each a sequence of
    per-axis arrays, or one array whose last axis is the dimension (axis d
    is then its view [..., d]), and become x1..xn, p1..pn and xi1..xin.
    Pass only the coordinates the expression reads.
    """
    env = {}
    for coord, value in coords.items():
        if coord == "t":
            env["t"] = value
            continue
        if coord not in _AXIS_COORDS:
            raise TypeError(f"make_env() got an unknown coordinate {coord!r}")
        if isinstance(value, np.ndarray):
            value = [value[..., d] for d in range(value.shape[-1])]
        env.update(zip(axis_names(coord, len(value)), value))
    return env


# ------------------------------------------------------------ constants ----

@dataclass(frozen=True)
class AssumptionConstants:
    """Constants used by the structural hypothesis audits.

    L, mu bound the Hamiltonian growth; h0 bounds the terminal payoff from
    below; ell0, alpha, beta give the impulse-cost coercivity floor
    ell0 + alpha*|xi|^beta; delta0 is the strict subadditivity margin; C,
    gamma, kappa are the growth/regularity constants for comparison checks.
    """

    L: float
    mu: float
    h0: float
    ell0: float
    alpha: float
    beta: float
    delta0: float
    C: float
    gamma: float
    kappa: float

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ConfigError(f"constant out of range: {f.name}={value!r} "
                                  "(need a finite value)")
        checks = [
            ("L", self.L > 0.0, "need L > 0"),
            ("mu", 0.0 <= self.mu < 1.0, "need 0 <= mu < 1"),
            ("h0", self.h0 > 0.0, "need h0 > 0"),
            ("ell0", self.ell0 > 0.0, "need ell0 > 0"),
            ("alpha", self.alpha > 0.0, "need alpha > 0"),
            ("beta", 0.0 < self.beta < 1.0, "need 0 < beta < 1"),
            ("delta0", self.delta0 > 0.0, "need delta0 > 0"),
            ("C", self.C > 0.0, "need C > 0"),
            ("gamma", 0.0 <= self.gamma < 1.0, "need 0 <= gamma < 1"),
            ("kappa", 0.0 < self.kappa < self.beta, "need 0 < kappa < beta"),
        ]
        for name, ok, hint in checks:
            if not ok:
                raise ConfigError(
                    f"constant out of range: {name}={getattr(self, name)!r} ({hint})"
                )


# ----------------------------------------------------------------- cone ----

@dataclass(frozen=True)
class Cone:
    """Closed convex cone of admissible impulses.

    Represented by generating rays (unit normalized).  `kind` is "orthant"
    for the nonnegative orthant, where the rays are the coordinate basis,
    or "rays" for an explicit conic hull.
    """

    kind: str
    rays: np.ndarray  # (m, n), rows unit length

    @staticmethod
    def orthant(n):
        return Cone("orthant", np.eye(n))

    @staticmethod
    def from_rays(rays):
        """The cone spanned by `rays`, each scaled to unit length.

        Each ray needs a positive, finite length: a zero ray, a NaN or
        infinite component, or a length that overflows is a ConfigError.
        A nonzero ray whose length underflows is still accepted.  More than
        n + 1 rays is a ConfigError: no convex cone in one or two dimensions
        needs them (a half-plane or the whole plane takes three, as
        "1, 0; 0, 1; -1, -1"), and the obstacle search scans
        obstacle.COARSE**m points per node for m rays.
        """
        rays = np.atleast_2d(np.asarray(rays, dtype=float))
        if rays.size == 0:
            raise ConfigError("cone needs at least one ray")
        if len(rays) > rays.shape[1] + 1:
            raise ConfigError(f"cone has {len(rays)} rays, at most {rays.shape[1] + 1}")
        with np.errstate(over="ignore"):  # an overflowing length is inf
            norms = np.linalg.norm(rays, axis=1)
        # a length that underflows to 0 is measured on the ray scaled by its
        # largest component; every other ray keeps its plain norm
        tiny = (norms == 0.0) & np.any(rays != 0.0, axis=1)
        if tiny.any():
            rays = rays.copy()
            rays[tiny] /= np.abs(rays[tiny]).max(axis=1, keepdims=True)
            norms[tiny] = np.linalg.norm(rays[tiny], axis=1)
        for ray, norm in zip(rays, norms):
            if not 0.0 < norm < math.inf:
                raise ConfigError(f"cone ray {ray.tolist()} needs a positive, "
                                  f"finite length, got {float(norm)!r}")
        return Cone("rays", rays / norms[:, None])

    @property
    def n(self):
        return self.rays.shape[1]

    @property
    def n_rays(self):
        return self.rays.shape[0]

    def from_coefficients(self, lam):
        """Map nonnegative ray coefficients (..., m) to impulses (..., n)."""
        lam = np.asarray(lam, dtype=float)
        return lam @ self.rays

    def __post_init__(self):
        object.__setattr__(self, "rays", np.asarray(self.rays, dtype=float))
        self.rays.setflags(write=False)


# ----------------------------------------------------------------- grid ----

def _count(value, key):
    """A node count as an int; ConfigError unless `value` is integral."""
    try:
        count = int(value)
    except (TypeError, ValueError, OverflowError):
        count = None
    if count is None or count != value:
        raise ConfigError(f"grid needs an integral {key}, got {value!r}")
    return count


def _box_diagonal(x_min, x_max):
    """Length of the diagonal of a box; inf when its square overflows."""
    try:
        square = sum((hi - lo) ** 2 for lo, hi in zip(x_min, x_max))
    except OverflowError:
        return math.inf
    return float(np.sqrt(square))


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on [0, T] x [x_min, x_max]."""

    T: float
    t_nodes: int
    x_min: tuple
    x_max: tuple
    x_nodes: tuple

    def __post_init__(self):
        object.__setattr__(self, "x_min", tuple(float(v) for v in np.atleast_1d(self.x_min)))
        object.__setattr__(self, "x_max", tuple(float(v) for v in np.atleast_1d(self.x_max)))
        object.__setattr__(self, "t_nodes", _count(self.t_nodes, "t_nodes"))
        object.__setattr__(self, "x_nodes", tuple(
            _count(v, "x_nodes") for v in np.atleast_1d(self.x_nodes)))
        if not (math.isfinite(self.T) and self.T > 0.0):
            raise ConfigError(f"grid needs a finite T > 0, got {self.T}")
        if self.t_nodes < 2:
            raise ConfigError(f"grid needs t_nodes >= 2, got {self.t_nodes}")
        if not (len(self.x_min) == len(self.x_max) == len(self.x_nodes)):
            raise ConfigError("x_min, x_max, x_nodes must agree in dimension")
        for d, (lo, hi, cnt) in enumerate(zip(self.x_min, self.x_max, self.x_nodes)):
            if cnt < 2:
                raise ConfigError(f"grid needs x_nodes >= 2 in dimension {d + 1}")
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ConfigError(
                    f"grid needs finite x_min and x_max in dimension {d + 1}")
            if not lo < hi:
                raise ConfigError(f"grid needs x_min < x_max in dimension {d + 1}")
            if not math.isfinite(hi - lo):
                raise ConfigError(
                    f"grid needs a finite width x_max - x_min in dimension {d + 1}")
        # spacing and node coordinates, built once and kept out of the
        # dataclass fields so ==, hash and repr still see only the five above
        object.__setattr__(self, "_dx", tuple(
            (hi - lo) / (cnt - 1)
            for lo, hi, cnt in zip(self.x_min, self.x_max, self.x_nodes)))
        t = np.linspace(0.0, self.T, self.t_nodes)
        axes = tuple(np.linspace(lo, hi, cnt)
                     for lo, hi, cnt in zip(self.x_min, self.x_max, self.x_nodes))
        meshes = np.meshgrid(*axes, indexing="ij")
        space = np.stack([m.ravel() for m in meshes], axis=-1)
        for arr in (t, space) + axes:
            arr.setflags(write=False)
        object.__setattr__(self, "_t", t)
        object.__setattr__(self, "_axes", axes)
        object.__setattr__(self, "_space_nodes", space)

    @property
    def n(self):
        return len(self.x_nodes)

    @property
    def dt(self):
        return self.T / (self.t_nodes - 1)

    @property
    def dx(self):
        return self._dx

    @property
    def t(self):
        """Time nodes, a read-only array."""
        return self._t

    @property
    def axes(self):
        """Per-dimension node coordinates, a fresh list of read-only arrays."""
        return list(self._axes)

    @property
    def shape(self):
        return (self.t_nodes,) + tuple(self.x_nodes)

    @property
    def tolerance_unit(self):
        """Step scale dt + sum(dx); default tolerances are multiples of it."""
        return self.dt + float(sum(self.dx))

    @property
    def box_diagonal(self):
        return _box_diagonal(self.x_min, self.x_max)

    def space_env(self):
        """Meshgrid environment {x1: ..., x2: ...} over the spatial box."""
        return make_env(x=np.meshgrid(*self.axes, indexing="ij"))

    def full_env(self):
        """Meshgrid environment {t, x1, ...} over the full space-time grid."""
        t, *x = np.meshgrid(self.t, *self.axes, indexing="ij")
        return make_env(t=t, x=x)

    def space_nodes(self):
        """Space node coordinates in row-major order, shape (nodes, n): a
        read-only array built once per grid."""
        return self._space_nodes

    def refine(self, factor=2):
        """Grid with factor-times finer spacing in every direction."""
        return Grid(
            self.T,
            (self.t_nodes - 1) * factor + 1,
            self.x_min,
            self.x_max,
            tuple((c - 1) * factor + 1 for c in self.x_nodes),
        )


# -------------------------------------------------------- grid functions ----

@dataclass(frozen=True)
class GridFunction:
    """Finite values on every node of a Grid, write-once after creation.

    A float64 array is wrapped as it is, not copied, and wrapping it
    freezes it: the caller's array turns read-only too.  Any other input
    is converted to a new float64 array first.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            raise ConfigError(
                f"grid function shape {vals.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ConfigError("grid function values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def summary(self):
        """Extrema and their first (row-major) locations."""
        flat_min = int(np.argmin(self.values))
        flat_max = int(np.argmax(self.values))
        return {
            "min": float(self.values.min()),
            "max": float(self.values.max()),
            "argmin": self._coords(flat_min),
            "argmax": self._coords(flat_max),
        }

    def _coords(self, flat_index):
        idx = np.unravel_index(flat_index, self.values.shape)
        coords = [float(self.grid.t[idx[0]])]
        for d, axis in enumerate(self.grid.axes):
            coords.append(float(axis[idx[d + 1]]))
        return coords

    def shifted(self, c):
        return GridFunction(self.grid, self.values + c)


def write_csv(gf, path):
    """Write a grid function as CSV, one row per space-time node.

    The header is `t,x1,value` in 1-d and `t,x1,x2,value` in 2-d.  Rows
    follow `gf.values` in row-major order: t slowest, then x1, then x2.
    Every number, coordinates included, is written with `%.17g`, which
    round-trips a float64, and every line ends with a newline.  The bytes
    depend only on the grid and the values; artifacts compared by checksum
    rely on that.
    """
    grid = gf.grid
    cols = ["t", *axis_names("x", grid.n), "value"]
    # ",x1[,x2]" per space node in row-major order, each coordinate
    # formatted once per grid rather than once per row
    space = [""]
    for axis in grid.axes:
        tokens = [f"{v:.17g}" for v in axis.tolist()]
        space = [f"{head},{tok}" for head in space for tok in tokens]
    # t_tok.join(tails) puts the slice's t token before every row but the
    # first, so t_tok + t_tok.join(tails) is the slice's format template
    tails = [f"{head},%.17g\n" for head in space]
    values = gf.values.reshape(grid.t_nodes, -1)
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for k, t in enumerate(grid.t.tolist()):
            t_tok = f"{t:.17g}"
            fh.write((t_tok + t_tok.join(tails)) % tuple(values[k].tolist()))


_TABLE_CHUNK = 1 << 16  # table rows formatted per write


def write_table(path, header, blocks):
    """Write a CSV table: the header line, then the rows of each block.

    A block holds one cell per column: a str, written on each of its rows;
    None, an empty cell; or a column of shape (rows,) or (rows, axes),
    whose axes are joined by ';' (width 0: an empty cell).  Integers print
    as %d, other numbers as %.17g.  A block is one line template, filled
    _TABLE_CHUNK rows at a time.  Grid functions go through write_csv.
    """
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            specs, columns = [], []
            for cell in block:
                if cell is None or isinstance(cell, str):
                    specs.append((cell or "").replace("%", "%%"))
                    continue
                cell = np.column_stack([cell])  # (rows, axes)
                spec = "%d" if cell.dtype.kind in "iu" else "%.17g"
                specs.append(";".join([spec] * cell.shape[1]))
                columns.extend(cell.T)
            line = ",".join(specs) + "\n"
            for s in range(0, len(columns[0]), _TABLE_CHUNK):
                # object dtype keeps integers int and the rest float
                table = np.array([c[s:s + _TABLE_CHUNK] for c in columns],
                                 dtype=object)
                fh.write((line * table.shape[1])
                         % tuple(table.T.ravel().tolist()))


def read_csv(grid, path):
    """Load a grid function exported by write_csv onto a matching grid."""
    try:
        with open(path) as fh:
            header = fh.readline().strip().split(",")
    except UnicodeDecodeError as err:
        raise ConfigError(f"cannot read CSV {str(path)!r}: {err}") from err
    expected = ["t", *axis_names("x", grid.n), "value"]
    if header != expected:
        raise ConfigError(
            f"unexpected CSV header {header!r}; this grid needs {expected!r}"
        )
    try:
        values = np.loadtxt(path, delimiter=",", skiprows=1,
                            usecols=grid.n + 1, ndmin=1)
    except ValueError as err:
        raise ConfigError(f"malformed CSV {str(path)!r}: {err}") from err
    want = int(np.prod(grid.shape))
    if values.size != want:
        raise ConfigError(f"CSV holds {values.size} rows, grid needs {want}")
    _check_csv_nodes(grid, path)
    return GridFunction(grid, values.reshape(grid.shape))


def _check_csv_nodes(grid, path):
    """Raise ConfigError unless the CSV's t and x columns are grid nodes.

    `%.17g` round-trips, so write_csv on this grid gives the node
    coordinates bitwise.  Three places are read, not every row: the first
    time slice pins the space axes and t[0], the first row of the second
    slice pins t[1], and the last row pins t[-1] and the box corner.
    With the row count checked, those pin every uniform grid.
    """
    space = grid.space_nodes()
    m, t = space.shape[0], grid.t
    try:
        head = np.loadtxt(path, delimiter=",", skiprows=1, max_rows=m + 1,
                          usecols=range(grid.n + 1), ndmin=2)
        with open(path, "rb") as fh:
            fh.seek(0, 2)  # the end: the last row is in the last 4 KiB
            fh.seek(max(0, fh.tell() - 4096))
            last_row = fh.read().rstrip().rsplit(b"\n", 1)[-1].split(b",")
        last = [float(tok) for tok in last_row[:grid.n + 1]]
    except ValueError as err:
        raise ConfigError(f"malformed CSV {str(path)!r}: {err}") from err
    want_head = np.column_stack(
        [np.r_[np.full(m, t[0]), t[1]], np.vstack([space, space[:1]])])
    if not (np.array_equal(head, want_head)
            and last == [t[-1], *space[-1]]):
        raise ConfigError(
            f"CSV {str(path)!r} was written on another grid: its t and x "
            f"columns are not the nodes of {grid!r}")


# ---------------------------------------------------------- interpolation ----

def interp_slice(grid, values, points):
    """Multilinear interpolation of a stack of time slices with clamped
    edges.

    `values` has shape (K, *grid.x_nodes); `points` has shape (K, ..., n),
    and its leading axis picks the slice each point reads.  Returns shape
    (K, ...).  Points outside the box are clamped to the boundary
    coordinate-wise.
    """
    points = np.asarray(points, dtype=float)
    n = grid.n
    if points.shape[-1] != n:
        raise ValueError(f"points must have last dimension {n}")
    flat = values.reshape(-1)
    wts = []
    for d in range(n):
        lo = grid.x_min[d]
        dx = grid.dx[d]
        cnt = grid.x_nodes[d]
        f = (points[..., d] - lo) / dx
        f = f.clip(0.0, cnt - 1.0)  # np.clip's ufunc, without its wrapper
        i = np.minimum(f.astype(np.int64), cnt - 2)
        # flat index of each point's lower corner
        index = i if d == 0 else index * cnt + i
        wts.append(f - i)
    if len(values) > 1:  # a one-slice stack has no slice offset
        size = flat.size // len(values)
        index = index + size * np.arange(len(values)).reshape(
            (-1,) + (1,) * (points.ndim - 2))
    if n == 1:
        w0 = wts[0]
        v0 = flat[index]
        return v0 + w0 * (flat[index + 1] - v0)
    w0, w1 = wts
    step = grid.x_nodes[1]
    c00 = flat[index]
    c01 = flat[index + 1]
    c10 = flat[index + step]
    c11 = flat[index + step + 1]
    lo_edge = c00 + w1 * (c01 - c00)
    hi_edge = c10 + w1 * (c11 - c10)
    return lo_edge + w0 * (hi_edge - lo_edge)


# -------------------------------------------------------------- problems ----

_CONSTANT_KEYS = ("L", "mu", "h0", "ell0", "alpha", "beta", "delta0", "C", "gamma", "kappa")
# the keys each config section may define; any other key is rejected
_SECTION_KEYS = {
    "problem": ("n", "T", "H", "h", "ell", "cone", "g"),
    "constants": _CONSTANT_KEYS,
    "grid": ("t_nodes", "x_nodes", "x_min", "x_max"),
}


@dataclass(frozen=True)
class ImpulseProblem:
    """Hamiltonian, terminal payoff, impulse cost, and impulse cone.

    `g` is an optional additive running term in (t, x); every Hamiltonian
    evaluation in the library uses H(t, x, p) + g(t, x).
    """

    n: int
    T: float
    H: object
    h: object
    ell: object
    cone: Cone
    g: object = None

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ConfigError(f"space dimension must be 1 or 2, got {self.n}")
        if not (math.isfinite(self.T) and self.T > 0.0):
            raise ConfigError(f"need a finite T > 0, got {self.T}")
        if self.cone.n != self.n:
            raise ConfigError(
                f"cone dimension {self.cone.n} does not match problem dimension {self.n}"
            )
        for label, allowed in role_variables(self.n).items():
            node = getattr(self, label)
            extra = set() if node is None else ex.variables(node) - allowed
            if extra:
                raise ConfigError(
                    f"expression for {label} uses disallowed variable(s): "
                    f"{sorted(extra)}"
                )

    # -- evaluation helper; x, p are coordinate arrays as make_env takes
    # -- them.  Wherever H is evaluated for a scheme step, a probe or an
    # -- audit, g(t, x) is added to it; each of those three callers adds it
    # -- under its own policy for a domain error (hamiltonian() here raises
    # -- it, the probe field skips the slope combination, the audits mask
    # -- the point).  Only the dissipation estimate differentiates H alone,
    # -- since g reads no p.

    def hamiltonian(self, t, x, p):
        """H(t, x, p) + g(t, x)."""
        out = ex.evaluate(self.H, make_env(t=t, x=x, p=p))
        if self.g is not None:
            out = out + ex.evaluate(self.g, make_env(t=t, x=x))
        return out


def check_horizon(problem, grid):
    """Reject a grid that does not end at the problem's horizon."""
    if problem.T != grid.T:
        raise ConfigError(
            f"grid horizon {grid.T!r} does not match the problem's {problem.T!r}")


def sample(e, grid):
    """Evaluate an expression on every (t, x) node of the grid."""
    out = ex.evaluate(e, grid.full_env())
    out = np.broadcast_to(np.asarray(out, dtype=float), grid.shape)
    return GridFunction(grid, out)


def sample_terminal(h, grid):
    """A terminal payoff h on the space nodes: a read-only x_nodes array."""
    return np.broadcast_to(
        np.asarray(ex.evaluate(h, grid.space_env()), dtype=float),
        tuple(grid.x_nodes))


# -------------------------------------------------------------- sampling ----

def _primes(count):
    """The first `count` primes, by trial division."""
    primes = []
    k = 2
    while len(primes) < count:
        if all(k % p for p in primes if p * p <= k):
            primes.append(k)
        k += 1
    return primes


def halton(dim, count, seed):
    """Owen-scrambled Halton points in [0, 1)^dim, shape (count, dim).

    Owen's randomized Halton (arXiv:1706.02808): coordinate d writes the
    point index in the d-th prime base b and sends digit j through its own
    random permutation of range(b), for every j with b**-(j+1) > 2**-54.
    The permutations are drawn from np.random.default_rng(seed) base by
    base, and the digits are summed in increasing j, so the points equal
    scipy.stats.qmc.Halton(dim, scramble=True, seed=seed).random(count)
    bit for bit.  The first k points do not depend on `count`.

    A base's permutations come from one rng.permuted call over its rows,
    which draws the same stream as shuffling the rows one by one.  Digit
    j of every index below count is 0 once b**j >= count, so from there
    on each digit adds the one constant perm[0] * b**-(j+1); it is still
    added digit by digit in increasing j, so no rounding moves.
    """
    rng = np.random.default_rng(seed)
    index = np.arange(count)
    columns = []
    for base in _primes(dim):
        digits = math.ceil(54 / math.log2(base)) - 1
        perms = rng.permuted(np.tile(np.arange(base), (digits, 1)), axis=1)
        live = 0  # digits that vary over the points: base**live >= count
        while base**live < count:
            live += 1
        quotient = index
        column = np.zeros(count)
        scale = 1.0 / base
        for j, perm in enumerate(perms):
            if j < live:
                quotient, digit = np.divmod(quotient, base)
                column += perm[digit] * scale
            else:
                column += perm[0] * scale
            scale /= base
        columns.append(column)
    return np.array(columns).T


# ---------------------------------------------------------- config parsing ----

def parse_config_dict(text):
    """Parse config text into {section: {key: raw value string}}."""
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SECTION_KEYS:
                raise ConfigError(f"unknown section [{current}] on line {lineno}")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value' on line {lineno}: {raw.strip()!r}")
        if current is None:
            raise ConfigError(f"key outside any section on line {lineno}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"empty key on line {lineno}")
        sections[current][key] = value
    return sections


def _unquote(value, key):
    if len(value) >= 2 and value[0] == '"' and value[-1] == '"':
        return value[1:-1]
    raise ConfigError(f"value for '{key}' must be a double-quoted string, got {value!r}")


def read_floats(value, key):
    """The comma-separated numbers of `value`; `key` names it in errors."""
    try:
        return tuple(float(part.strip()) for part in value.split(","))
    except ValueError:
        raise ConfigError(f"value for '{key}' must be numeric, got {value!r}") from None


def _float(value, key):
    parts = read_floats(value, key)
    if len(parts) != 1:
        raise ConfigError(f"value for '{key}' must be a single number, got {value!r}")
    return parts[0]


def _ints(value, key):
    parts = read_floats(value, key)
    if not all(math.isfinite(f) and f == int(f) for f in parts):
        raise ConfigError(f"value for '{key}' must be an integer, got {value!r}")
    return tuple(int(f) for f in parts)


def read_int(value, key):
    """The one integer of `value`, such as "7" or "7e2"; `key` names it in
    errors."""
    _float(value, key)  # one number, not a list
    return _ints(value, key)[0]


def _require(section, key, table):
    if key not in table:
        raise ConfigError(f"missing required key '{key}' in section [{section}]")
    return table[key]


def _parse_cone(value, n):
    text = _unquote(value, "cone").strip()
    if text == "orthant":
        return Cone.orthant(n)
    rays = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        comps = read_floats(part, "cone")
        if len(comps) != n:
            raise ConfigError(
                f"cone ray {part!r} has {len(comps)} component(s), problem has n={n}"
            )
        rays.append(comps)
    if not rays:
        raise ConfigError("cone description is empty")
    return Cone.from_rays(rays)


@dataclass(frozen=True)
class ProblemConfig:
    """Everything a config file defines, plus its canonical hash."""

    problem: ImpulseProblem
    constants: AssumptionConstants
    grid: Grid
    config_hash: str


def apply_overrides(sections, overrides):
    """Apply 'section.key=value' override strings to a parsed config dict."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        target, value = item.split("=", 1)
        if "." not in target:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        section, key = target.split(".", 1)
        section = section.strip()
        key = key.strip()
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown override section {section!r}")
        sections.setdefault(section, {})[key] = value.strip()
    return sections


def load_problem(text, overrides=()):
    """Build problem, constants, and grid from config text.

    Optional overrides are 'section.key=value' strings applied on top of the
    parsed file before validation.
    """
    sections = parse_config_dict(text)
    if overrides:
        sections = apply_overrides(sections, overrides)
    for name, keys in _SECTION_KEYS.items():
        if name not in sections:
            raise ConfigError(f"missing section [{name}]")
        unknown = sorted(set(sections[name]) - set(keys))
        if unknown:
            raise ConfigError(
                f"unknown key '{unknown[0]}' in section [{name}]; "
                f"it takes {', '.join(keys)}")
    prob = sections["problem"]
    cons = sections["constants"]
    grd = sections["grid"]

    n = read_int(_require("problem", "n", prob), "n")
    if n not in (1, 2):
        raise ConfigError(f"space dimension must be 1 or 2, got {n}")
    T = _float(_require("problem", "T", prob), "T")
    roles = role_variables(n)

    def parse_expr(key, optional=False):
        if optional and key not in prob:
            return None
        src = _unquote(_require("problem", key, prob), key)
        try:
            return ex.parse(src, roles[key])
        except ex.ExprError as err:
            raise ConfigError(f"bad expression for '{key}': {err}") from err

    H = parse_expr("H")
    h = parse_expr("h")
    ell = parse_expr("ell")
    g = parse_expr("g", optional=True)
    cone = _parse_cone(_require("problem", "cone", prob), n)

    constants = AssumptionConstants(
        **{key: _float(_require("constants", key, cons), key) for key in _CONSTANT_KEYS}
    )

    t_nodes = read_int(_require("grid", "t_nodes", grd), "t_nodes")
    x_nodes = _ints(_require("grid", "x_nodes", grd), "x_nodes")
    x_min = read_floats(_require("grid", "x_min", grd), "x_min")
    x_max = read_floats(_require("grid", "x_max", grd), "x_max")
    if not (len(x_nodes) == len(x_min) == len(x_max) == n):
        raise ConfigError(
            f"grid keys must each have {n} value(s): "
            f"x_nodes={x_nodes}, x_min={x_min}, x_max={x_max}"
        )
    # the diagonal is the impulse radius of N and bounds the cost samples;
    # an infinite width makes it infinite
    diagonal = _box_diagonal(x_min, x_max)
    if not 0.0 < diagonal < math.inf:
        raise ConfigError(
            f"grid box from x_min={x_min} to x_max={x_max} needs finite "
            f"widths and a positive, finite diagonal, got {diagonal}")
    grid = Grid(T, t_nodes, x_min, x_max, x_nodes)

    problem = ImpulseProblem(n=n, T=T, H=H, h=h, ell=ell, cone=cone, g=g)
    _check_cost_positive(problem, grid)

    digest = hashlib.sha256()
    digest.update(text.encode())
    for item in overrides:
        digest.update(b"\x00" + item.encode())
    return ProblemConfig(problem, constants, grid, digest.hexdigest())


def _check_cost_positive(problem, grid):
    """Reject costs that are not strictly positive on a coarse sample."""
    rng = np.random.default_rng(0)
    t = rng.uniform(0.0, problem.T, 64)
    x = [rng.uniform(lo, hi, 64) for lo, hi in zip(grid.x_min, grid.x_max)]
    lam = rng.uniform(0.0, grid.box_diagonal, (64, problem.cone.n_rays))
    xi = problem.cone.from_coefficients(lam)
    vals = np.asarray(ex.evaluate(problem.ell, make_env(t=t, x=x, xi=xi)),
                      dtype=float)
    bad = vals[vals <= 0.0]
    if bad.size:
        raise ConfigError(
            "impulse cost must be strictly positive; found nonpositive sample "
            f"value {float(bad[0])!r}"
        )
