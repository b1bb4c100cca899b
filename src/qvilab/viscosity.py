"""Probe-based checkers for viscosity-style inequalities on grids.

A smooth test function touching a grid function from above or below is
replaced by a finite quadratic family at each probed node: the time and
space slopes run over the one-sided difference quotients and their
midpoint, and the curvature takes the values {0, 1, 10} times the local
second-difference magnitude.  RADIUS, CURVATURES and ADMISSION_SLACK fix
the family; only the tolerance factor is a parameter.  The curvature is
signed so that growing it only enlarges the admitted set: convex test
functions on the sub side, concave on the super side.  A linear probe
cannot touch a smoothly curving function on a discrete neighborhood, so
the zero-curvature probes cover kinks while the curved ones cover smooth
points.  A probe enters a check only after its touching condition is
verified on the full radius-RADIUS node neighborhood, which makes every
reported violation re-checkable from the stored probe data.

Checks refute, they never certify: a clean report means no violation was
found among the probed points at the stated tolerance, nothing more.  The
probe tolerance is discretization aware: tol_factor*(dt + sum dx) plus the
probe's effective curvature times (dt + sum dx), since a difference
quotient admitted against local curvature |V''| deviates from the true
slope by a step times |V''|.  Zero-curvature probes, the ones that matter
at kinks, keep the tight base tolerance.

Five checks share one driver, and the table _NOTIONS says how they
differ.  The transport checks test the parabolic inequality a + H(t, x, p)
against zero on one side.  The constrained sub check adds the obstacle
constraint V <= N[V].  The two constrained super checks differ exactly
where the definitions differ: the classical one asks min{a + H, N[V] - V}
<= tol at every probe, the modified one demands the constraint globally
and the transport inequality wherever V sits strictly below the obstacle.
The final time slice carries only the terminal comparison with h.

check_notions is that driver, and it takes several notions on one grid
function at once.  They share one probe field (the slope candidates, the
curvature scale and H + g at every center, none of which depends on the
probe side) and one gap N[V] - V, so each notion adds only its own scan.
The five public checks each call it with one notion.  The field is built
one slab of whole time rows at a time, at most SLAB_CENTERS centers per
slab, so the field's memory follows SLAB_CENTERS and not t_nodes.
obstacle_gap runs N on slabs of the same size.

The scan makes one pass per (space slopes, time slope) pair.  It first
finds the centers where the flat probe breaks the inequality; a curved
probe's tolerance is never below the flat one, so all three curvatures
are compared only among those centers, as one (curvature, center) array.
The probes that break it, gathered over every slab, go to one touching
test, which visits the nearest ring of neighbors first and drops a probe
at its first refuting neighbor.  So the cost follows the number of
candidates, not 3 * 3^n * 3 full-array passes, and the rows equal those
of such passes with every neighbor tested, whatever SLAB_CENTERS is.
But a pass holds every slab's candidates until its one test (testing each
slab apart is 6 to 12 times slower; README), so the peak is bounded only
while they are few: hjb-super on an 81x81 plane, H = -p1 - p2 + sqrt(p1 +
1.3), peaks at 2.1, 48.3 and 575.4 MiB at 21, 41 and 81 time nodes.
"""

import itertools
from dataclasses import dataclass, fields

import numpy as np

from . import expr as ex
from .core import ConfigError, check_horizon, make_env, sample_terminal
from .obstacle import evaluate_slice_values

VARIANT_HJB_SUB = "HJB-SUB"
VARIANT_HJB_SUPER = "HJB-SUPER"
VARIANT_QVI_SUB = "QVI-SUB"
VARIANT_QVI_SUPER_CLASSICAL = "QVI-SUPER-CLASSICAL"
VARIANT_QVI_SUPER_MODIFIED = "QVI-SUPER-MODIFIED"

# variant: (probe side, V <= N[V] required at every node, how the probes
# see the gap N[V] - V: not at all, as min{a + H, gap}, or only where
# gap > 2*(dt + sum dx), whatever the tolerance factor, i.e. strictly
# below the obstacle)
_NOTIONS = {
    VARIANT_HJB_SUB: ("sub", False, None),
    VARIANT_HJB_SUPER: ("super", False, None),
    VARIANT_QVI_SUB: ("sub", True, None),
    VARIANT_QVI_SUPER_CLASSICAL: ("super", False, "min"),
    VARIANT_QVI_SUPER_MODIFIED: ("super", True, "below"),
}

RADIUS = 3  # probe neighborhood, in nodes along every axis
CURVATURES = (0.0, 1.0, 10.0)  # multiples of the local second difference
ADMISSION_SLACK = 1e-12  # relative to 1 + max|V|
TOL_FACTOR = 10.0  # default probe tolerance, in units of dt + sum dx
SLAB_CENTERS = 2 ** 14  # probe centers per slab of the scan


_PROBE_KEYS = ("t_index", "x_index", "t", "x", "a", "p", "kappa",
               "kappa_eff", "margin")


@dataclass(frozen=True, eq=False)
class Violations:
    """One kind of violation as row-aligned arrays: t_index (k,), x_index
    (k, n), t (k,), x (k, n), margin (k,), and for probe rows the probe,
    a (k,), p (k, n), kappa (k,), kappa_eff (k,); node rows (constraint
    and terminal) leave those four None."""

    t_index: np.ndarray
    x_index: np.ndarray
    t: np.ndarray
    x: np.ndarray
    margin: np.ndarray
    a: np.ndarray = None
    p: np.ndarray = None
    kappa: np.ndarray = None
    kappa_eff: np.ndarray = None

    def __len__(self):
        return len(self.margin)

    def __eq__(self, other):
        # np.array_equal holds for None against None, fails against an array
        return isinstance(other, Violations) and all(
            np.array_equal(getattr(self, k), getattr(other, k))
            for k in _PROBE_KEYS)

    def summary(self):
        """Row count, count of distinct (t_index, x_index) nodes, and the
        worst row: the first with the smallest margin, None if no rows."""
        if not len(self):
            return {"rows": 0, "nodes": 0, "worst": None}
        node = np.column_stack([self.t_index, self.x_index])
        key = np.ravel_multi_index(node.T, node.max(axis=0) + 1)
        j = int(np.argmin(self.margin))
        return {"rows": len(self), "nodes": len(np.unique(key)),
                "worst": {"t_index": int(self.t_index[j]),
                          "x_index": self.x_index[j].tolist(),
                          "margin": float(self.margin[j])}}


def _rows(grid, t_index, x_index, margin, **probe):
    """Violations at the nodes (t_index[j], *x_index[j]); the coordinates
    are gathered from grid.t and grid.axes."""
    axes = grid.axes
    x = np.column_stack([axes[d][x_index[:, d]] for d in range(grid.n)])
    return Violations(t_index, x_index, grid.t[t_index], x, margin, **probe)


@dataclass(frozen=True)
class ViscosityReport:
    variant: str
    points_tested: int
    probes_per_point: int
    violations: Violations
    constraint_violations: Violations
    terminal_violations: Violations
    pde_tolerance: float
    constraint_tolerance: float
    notes: str = ""

    def kinds(self):
        """(kind, Violations) pairs: probe, constraint, terminal."""
        return (("probe", self.violations),
                ("constraint", self.constraint_violations),
                ("terminal", self.terminal_violations))

    @property
    def passed(self):
        return not any(len(rows) for _, rows in self.kinds())

    def to_dict(self):
        """The variant, the verdict, then each other field, with every
        Violations as its summary(); table() holds the rows."""
        payload = {"variant": self.variant, "passed": self.passed}
        for field in fields(self)[1:]:
            value = getattr(self, field.name)
            payload[field.name] = (value.summary()
                                   if isinstance(value, Violations) else value)
        return payload

    def table(self):
        """violations.csv for core.write_table: per row its kind, then the
        columns of _PROBE_KEYS; node rows leave the probe cells empty."""
        return (("kind",) + _PROBE_KEYS,
                [(kind, *(getattr(rows, key) for key in _PROBE_KEYS))
                 for kind, rows in self.kinds()])


# -------------------------------------------------------------- obstacle ----

def obstacle_gap(V, problem):
    """N[V] - V on every time slice of a grid function.

    N is the one the solver clips with, over the ball of the box
    diagonal.  The checkers take this array as `gap=`.  N runs on slabs
    of whole time slices, at most SLAB_CENTERS nodes per slab (at least
    one slice), so its scratch memory follows SLAB_CENTERS and not
    t_nodes; each slice is bit for bit what N on that slice alone gives.
    A cost that raises stops the gap at the earliest slab it fails on,
    with the error of the first operation that fails there.
    """
    grid = V.grid
    gap = np.empty(grid.shape)
    step = max(1, SLAB_CENTERS // int(np.prod(grid.x_nodes)))
    for start in range(0, grid.t_nodes, step):
        rows = slice(start, start + step)
        vals, _ = evaluate_slice_values(grid, V.values[rows], grid.t[rows],
                                        problem.ell, problem.cone)
        np.subtract(vals, V.values[rows], out=gap[rows])
    return gap


# ------------------------------------------------------------ probe scan ----

def _block(arr, offsets, radius):
    idx = tuple(slice(radius + o, s - radius + o)
                for o, s in zip(offsets, arr.shape))
    return arr[idx]


class _ProbeField:
    """Slope candidates, curvature scale and H + g at the probe centers of
    the center rows [start, stop), all of them by default."""

    def __init__(self, V, problem, start=0, stop=None):
        grid = V.grid
        self.grid = grid
        r = RADIUS
        n = grid.n
        if stop is None:
            stop = grid.t_nodes - 2 * r
        self.start = start
        Vv = V.values[start:stop + 2 * r]  # the rows and their neighborhoods
        V0 = _block(Vv, (0,) * (1 + n), r)
        self.center_shape = V0.shape

        steps = (grid.dt,) + grid.dx
        fwd, bwd, curv = [], [], []
        for axis in range(1 + n):
            off_p = tuple(1 if d == axis else 0 for d in range(1 + n))
            off_m = tuple(-1 if d == axis else 0 for d in range(1 + n))
            up = _block(Vv, off_p, r)
            dn = _block(Vv, off_m, r)
            fwd.append((up - V0) / steps[axis])
            bwd.append((V0 - dn) / steps[axis])
            curv.append(np.abs(up + dn - 2.0 * V0) / steps[axis] ** 2)
        cand = [(f, b, 0.5 * (f + b)) for f, b in zip(fwd, bwd)]
        self.a_cand = cand[0]
        # p_cand[c][d] is the c-th slope candidate along axis d
        self.p_cand = tuple(zip(*cand[1:]))
        self.curv_scale = curv[0]
        for c in curv[1:]:
            self.curv_scale = np.maximum(self.curv_scale, c)

        t = grid.t[r + start:r + stop].reshape((-1,) + (1,) * n)
        x = [grid.axes[d][r:grid.x_nodes[d] - r]
             .reshape((1,) * (1 + d) + (-1,) + (1,) * (n - 1 - d))
             for d in range(n)]
        self.ham = {}
        self.skipped = []
        g = None  # reads no p: evaluated once, after the first good H
        for combo in itertools.product(range(3), repeat=n):
            p = [self.p_cand[combo[d]][d] for d in range(n)]
            try:
                vals = ex.evaluate(problem.H, make_env(t=t, x=x, p=p))
                if problem.g is not None:
                    if g is None:
                        g = ex.evaluate(problem.g, make_env(t=t, x=x))
                    vals = vals + g
                self.ham[combo] = np.broadcast_to(vals, self.center_shape)
            except ex.DomainError as err:
                self.skipped.append((combo, str(err)))


def _center_shape(grid):
    """The shape of the probe centers, the nodes with a full RADIUS
    neighborhood; None when an axis has fewer than two of them."""
    shape = tuple(s - 2 * RADIUS for s in grid.shape)
    return shape if min(shape) >= 2 else None


def _slack(Vv):
    # max|V| without an |V| array: abs and negation are exact
    return ADMISSION_SLACK * (1.0 + float(max(np.max(Vv), -np.min(Vv))))


def _touches(Vv, center, a, p, kappa_eff, side, grid, slack):
    """Whether each probe touches Vv from its side on the RADIUS node
    neighborhood of `center`: index arrays aligned with the probe arrays.
    Neighbors are visited nearest ring first, and a probe leaves the test
    at its first refuting neighbor, so each neighbor costs only the probes
    still standing."""
    steps = (grid.dt,) + grid.dx
    r = RADIUS
    sign = -1.0 if side == "sub" else 1.0
    ok = np.zeros(len(a), dtype=bool)
    alive = np.arange(len(a))  # positions of the probes still standing
    V0 = Vv[center]
    offsets = itertools.product(range(-r, r + 1), repeat=len(center))
    # by ring; [1:] drops the center itself
    for off in sorted(offsets, key=lambda o: max(map(abs, o)))[1:]:
        neighbor = tuple(c + o for c, o in zip(center, off))
        lin = a * (off[0] * steps[0])
        dist2 = (off[0] * steps[0]) ** 2
        for d in range(grid.n):
            step = off[1 + d] * steps[1 + d]
            lin = lin + p[d] * step
            dist2 += step ** 2
        lhs = Vv[neighbor] - V0 - lin + sign * 0.5 * kappa_eff * dist2
        good = (lhs <= slack) if side == "sub" else (lhs >= -slack)
        if not good.all():
            alive = alive[good]
            if not len(alive):
                return ok
            center = tuple(c[good] for c in center)
            a, V0, kappa_eff = a[good], V0[good], kappa_eff[good]
            p = [pd[good] for pd in p]
    ok[alive] = True
    return ok


def _candidates(field, side, base_tol, unit, gap, sees_gap):
    """One slab's probes that break the one-sided inequality, before the
    touching test: per (combo, slope) pass, ((combo, a_choice), (center, k,
    a, p, kappa_eff, margin)), with center the flat index into the whole
    center block, k the index into CURVATURES and p one column per axis.

    side "sub": a + H < -tol.  side "super": a + H > tol, additionally
    requiring gap > tol when `sees_gap` is "min", and restricted to the
    strictly-below-obstacle centers (gap > 2*unit) when it is "below".

    Each pass finds the flat probe's candidates once, at base_tol.  A
    curved probe's tolerance is never below base_tol (a NaN one admits
    nothing), so its candidates lie among them; they are compared with a
    (curvature, candidate) tolerance array.
    """
    r = RADIUS
    sign = -1.0 if side == "sub" else 1.0
    kappas = np.array(CURVATURES)
    offset = field.start * int(np.prod(field.center_shape[1:]))
    if sees_gap:  # only super-side notions see the gap
        rows = gap[field.start:field.start + field.center_shape[0] + 2 * r]
        gap_centers = _block(rows, (0,) * gap.ndim, r).ravel()
        # the centers the gap lets a flat probe through
        if sees_gap == "min":
            gap_open = gap_centers > base_tol
        else:
            gap_open = gap_centers > 2.0 * unit
    for combo, ham in field.ham.items():
        for a_choice in range(3):
            # sign*(a + H): in place, so no second center block is held
            pde = (field.a_cand[a_choice] + ham).ravel()
            pde *= sign
            flat = pde > base_tol
            if sees_gap:
                flat &= gap_open
            flat = np.flatnonzero(flat)  # positions, in np.nonzero order
            if not len(flat):
                continue
            pde_f = pde[flat]
            curv_f = field.curv_scale.ravel()[flat]
            # tolerance grows with the probe's effective curvature: a
            # one-sided slope admitted against curvature |V''| sits
            # O(step * |V''|) away from the true gradient; one row per kappa
            tol = base_tol + kappas[:, None] * curv_f * unit
            cond = pde_f > tol
            margin = -pde_f
            if sees_gap == "min":
                gap_f = gap_centers[flat]
                cond &= gap_f > tol
                margin = np.maximum(margin, -gap_f)
            k, sel = np.nonzero(cond)
            if not len(sel):
                continue
            idx = np.unravel_index(flat[sel], field.center_shape)
            p = np.column_stack([field.p_cand[combo[d]][d][idx]
                                 for d in range(field.grid.n)])
            yield (combo, a_choice), (
                flat[sel] + offset, k, field.a_cand[a_choice][idx], p,
                kappas[k] * curv_f[sel], margin[sel])


def _admitted_rows(V, passes, side, skipped, slack):
    """The candidates of every pass that touch V, as Violations ordered by
    (t_index, x_index, kappa, a, p).  A pass's candidates, gathered over
    the slabs, go to one touching test; passes of a skipped slope
    combination are dropped."""
    grid = V.grid
    n = grid.n
    r = RADIUS
    kappas = np.array(CURVATURES)
    # one (t_index, x_index, a, p, kappa, kappa_eff, margin) block per pass,
    # indices relative to the center block
    blocks = [(np.empty(0, dtype=np.intp), np.empty((0, n), dtype=np.intp),
               np.empty(0), np.empty((0, n)), np.empty(0), np.empty(0),
               np.empty(0))]
    shape = _center_shape(grid)
    for key in sorted(passes):
        if key[0] in skipped:
            continue
        center, k, a, p, kappa_eff, margin = (
            np.concatenate(column) for column in zip(*passes[key]))
        idx = np.unravel_index(center, shape)
        keep = _touches(V.values, tuple(i + r for i in idx), a, list(p.T),
                        kappa_eff, side, grid, slack)
        if not keep.any():
            continue
        blocks.append((idx[0][keep], np.column_stack([i[keep]
                                                      for i in idx[1:]]),
                       a[keep], p[keep], kappas[k[keep]], kappa_eff[keep],
                       margin[keep]))
    t_index, x_index, a, p, kappa, kappa_eff, margin = (
        np.concatenate(column) for column in zip(*blocks))
    # lexsort's last key is the primary one; the sort is stable
    order = np.lexsort((*p.T[::-1], a, kappa, *x_index.T[::-1], t_index))
    return _rows(grid, t_index[order] + r, x_index[order] + r, margin[order],
                 a=a[order], p=p[order], kappa=kappa[order],
                 kappa_eff=kappa_eff[order])


def _scan_violations(V, problem, scans, base_tol, unit, gap):
    """Collect admitted probes violating each (side, sees_gap) of `scans`:
    one Violations per scan, and the skipped slope combinations, each
    with the error of the first slab it raised on.

    Every scan reads each slab's field, of at most SLAB_CENTERS centers
    (at least one row), and the rows equal those of one slab over the
    whole center block.  A slope combination whose H + g raises
    DomainError on any slab is skipped on every slab.
    """
    shape = _center_shape(V.grid)
    rows, per_row = (shape[0], int(np.prod(shape[1:]))) if shape else (0, 1)
    step = max(1, SLAB_CENTERS // per_row)
    passes = [{} for _ in scans]  # per scan, (combo, a_choice): blocks
    skipped = {}  # combo: error
    for start in range(0, rows, step):
        field = _ProbeField(V, problem, start, min(start + step, rows))
        for combo, err in field.skipped:
            skipped.setdefault(combo, err)
        for found, (side, sees_gap) in zip(passes, scans):
            for key, block in _candidates(field, side, base_tol, unit, gap,
                                          sees_gap):
                found.setdefault(key, []).append(block)
        del field  # so the next slab's field is not built beside it
    slack = _slack(V.values)
    return ([_admitted_rows(V, found, side, skipped, slack)
             for found, (side, _) in zip(passes, scans)], skipped)


def _terminal_nodes(V, problem, side, ctol):
    grid = V.grid
    h = sample_terminal(problem.h, grid)
    last = V.values[-1]
    margin = h - last if side == "sub" else last - h
    idx = np.nonzero(margin < -ctol)
    k = np.full(idx[0].shape, grid.t_nodes - 1)
    return _rows(grid, k, np.column_stack(idx), margin[idx])


def _constraint_nodes(V, gap, ctol):
    idx = np.nonzero(gap[:-1] < -ctol)
    return _rows(V.grid, idx[0], np.column_stack(idx[1:]), gap[idx])


def _notes(shape, skipped):
    """The report's notes: a grid too small to probe, and each skipped
    slope combination, in combination order, with the error the scan
    caught on it (see _scan_violations)."""
    parts = []
    if shape is None:
        parts.append("grid too small for probe neighborhoods; "
                     "no interior points tested")
    for combo, err in sorted(skipped.items()):
        parts.append(f"probe slope combination {combo} skipped: {err}")
    return "; ".join(parts)


def _gap_or_compute(V, problem, gap):
    if gap is None:
        return obstacle_gap(V, problem)
    if hasattr(gap, "values"):
        gap = gap.values
    gap = np.asarray(gap, dtype=float)
    if gap.shape != V.grid.shape:
        raise ConfigError("precomputed obstacle gap shape does not match grid")
    return gap


def validate_tol_factor(tol_factor, grid):
    """Raise ConfigError unless the probe tolerance factor is finite and
    positive, and so is the probe tolerance tol_factor*(dt + sum dx) it
    gives on `grid`: an infinite one would let every probe pass."""
    if not (np.isfinite(tol_factor) and tol_factor > 0):
        raise ConfigError(f"need a finite tol_factor > 0, got {tol_factor}")
    if not np.isfinite(float(tol_factor) * grid.tolerance_unit):
        raise ConfigError(f"probe tolerance tol_factor*(dt + sum dx) = "
                          f"{tol_factor!r}*{grid.tolerance_unit!r} overflows")


def check_notions(V, problem, variants, tol_factor=TOL_FACTOR, gap=None):
    """Probe V for several notions of _NOTIONS: one ViscosityReport per
    variant, in the order given.

    The notions share one probe field, built slab by slab, which does not
    depend on the probe side, and one gap N[V] - V (an array or grid
    function on V's grid).
    The gap is computed with obstacle_gap when a constrained notion is
    given None, and not at all when no notion reads it.  V's grid must end
    at the problem's horizon (ConfigError otherwise).
    """
    grid = V.grid
    validate_tol_factor(tol_factor, grid)
    notions = [_NOTIONS[variant] for variant in variants]
    check_horizon(problem, grid)
    unit = grid.tolerance_unit
    if any(constrained or sees_gap for _, constrained, sees_gap in notions):
        gap = _gap_or_compute(V, problem, gap)
    scans = [(side, sees_gap) for side, _, sees_gap in notions]
    probe_rows, skipped = _scan_violations(V, problem, scans,
                                           tol_factor * unit, unit, gap)
    shape = _center_shape(grid)
    notes = _notes(shape, skipped)
    no_rows = _rows(grid, np.empty(0, dtype=np.intp),
                    np.empty((0, grid.n), dtype=np.intp), np.empty(0))
    reports = []
    for variant, (side, constrained, _), violations in zip(
            variants, notions, probe_rows):
        constraint = (_constraint_nodes(V, gap, unit) if constrained
                      else no_rows)
        terminal = _terminal_nodes(V, problem, side, unit)
        reports.append(ViscosityReport(
            variant, int(np.prod(shape)) if shape else 0,
            3 * 3 ** grid.n * len(CURVATURES), violations, constraint,
            terminal, tol_factor * unit, unit, notes))
    return reports


# ------------------------------------------------------------- checkers ----

def check_hjb_subsolution(V, problem, tol_factor=TOL_FACTOR):
    """One-sided transport check: a + H(t, x, p) >= -tol at admitted
    sub-side probes, plus the terminal inequality V(T, .) <= h."""
    return check_notions(V, problem, (VARIANT_HJB_SUB,), tol_factor)[0]


def check_hjb_supersolution(V, problem, tol_factor=TOL_FACTOR):
    """Mirror of check_hjb_subsolution: a + H <= tol at admitted super-side
    probes, terminal V(T, .) >= h."""
    return check_notions(V, problem, (VARIANT_HJB_SUPER,), tol_factor)[0]


def check_qvi_subsolution(V, problem, tol_factor=TOL_FACTOR, gap=None):
    """Constrained sub-solution check.

    The defining inequality min{a + H, N[V] - V} >= 0 splits: the obstacle
    branch does not involve the probe, so nodes with N[V] - V < -tol are
    reported once as constraint violations, and admitted probes with
    a + H < -tol are reported as probe violations.
    """
    return check_notions(V, problem, (VARIANT_QVI_SUB,), tol_factor, gap)[0]


def check_qvi_subsolution_decomposed(V, problem, tol_factor=TOL_FACTOR,
                                     gap=None):
    """Split form of the constrained sub-solution check: run the obstacle
    constraint check and the pure transport check separately and conjoin
    the verdicts.  Produces the same violation sets as the direct check."""
    hjb = check_hjb_subsolution(V, problem, tol_factor)
    unit = V.grid.tolerance_unit
    gap = _gap_or_compute(V, problem, gap)
    constraint = _constraint_nodes(V, gap, unit)
    note = "decomposed: constraint check conjoined with transport check"
    if hjb.notes:
        note = hjb.notes + "; " + note
    return ViscosityReport(
        VARIANT_QVI_SUB, hjb.points_tested, hjb.probes_per_point,
        hjb.violations, constraint, hjb.terminal_violations,
        hjb.pde_tolerance, unit, note)


def check_qvi_supersolution_classical(V, problem, tol_factor=TOL_FACTOR,
                                      gap=None):
    """Classical constrained super-solution check: at every admitted
    super-side probe, min{a + H, N[V] - V} <= tol; terminal V(T, .) >= h.
    The obstacle constraint itself is NOT required."""
    return check_notions(V, problem, (VARIANT_QVI_SUPER_CLASSICAL,),
                         tol_factor, gap)[0]


def check_qvi_supersolution_modified(V, problem, tol_factor=TOL_FACTOR,
                                     gap=None):
    """Modified constrained super-solution check, the stronger variant.

    Three parts: terminal V(T, .) >= h; the obstacle constraint
    V <= N[V] + (dt + sum dx) at every node below the final time; and the
    transport inequality a + H <= tol at admitted super-side probes,
    required only where V sits strictly below the obstacle (gap >
    2*(dt + sum dx), whatever the tolerance factor), since on the contact
    set no transport inequality is demanded.
    """
    return check_notions(V, problem, (VARIANT_QVI_SUPER_MODIFIED,),
                         tol_factor, gap)[0]
