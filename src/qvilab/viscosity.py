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
The five public checks each call it with one notion.

The scan makes one pass per (space slopes, time slope) pair.  It first
finds the centers where the flat probe breaks the inequality; a curved
probe's tolerance is never below the flat one, so all three curvatures
are compared only among those centers, as one (curvature, center) array.
The probes that break it go to one touching test, which visits the
nearest ring of neighbors first and drops a probe at its first refuting
neighbor.  So the cost follows the number of candidates, not
3 * 3^n * 3 full-array passes, and the rows equal those of such passes
with every neighbor tested.
"""

import itertools
from dataclasses import dataclass, fields

import numpy as np

from . import expr as ex
from .core import ConfigError, make_env, sample_terminal
from .obstacle import evaluate_slice_values

VARIANT_HJB_SUB = "HJB-SUB"
VARIANT_HJB_SUPER = "HJB-SUPER"
VARIANT_QVI_SUB = "QVI-SUB"
VARIANT_QVI_SUPER_CLASSICAL = "QVI-SUPER-CLASSICAL"
VARIANT_QVI_SUPER_MODIFIED = "QVI-SUPER-MODIFIED"

# variant: (probe side, V <= N[V] required at every node, how the probes
# see the gap N[V] - V: not at all, as min{a + H, gap}, or only where
# gap > 2*tol, i.e. strictly below the obstacle)
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

    N is the one the solver clips with, at the radius
    obstacle.default_search(grid).  The checkers take this array as `gap=`.
    """
    grid = V.grid
    gap = np.empty(grid.shape)
    for k in range(grid.t_nodes):
        vals, _, _ = evaluate_slice_values(grid, V.values[k], grid.t[k],
                                           problem.ell, problem.cone)
        gap[k] = vals - V.values[k]
    return gap


# ------------------------------------------------------------ probe scan ----

def _block(arr, offsets, radius):
    idx = tuple(slice(radius + o, s - radius + o)
                for o, s in zip(offsets, arr.shape))
    return arr[idx]


class _ProbeField:
    """Per-center slope candidates, curvature scale, and Hamiltonian values."""

    def __init__(self, V, problem):
        grid = V.grid
        self.grid = grid
        r = RADIUS
        n = grid.n
        shape = grid.shape
        self.empty = any(s < 2 * r + 2 for s in shape)
        self.ham = {}
        self.skipped = []
        if self.empty:
            self.n_centers = 0
            return
        Vv = V.values
        zero = (0,) * (1 + n)
        self.V0 = _block(Vv, zero, r)
        self.center_shape = self.V0.shape
        self.n_centers = int(np.prod(self.center_shape))

        steps = (grid.dt,) + grid.dx
        fwd, bwd, curv = [], [], []
        for axis in range(1 + n):
            off_p = tuple(1 if d == axis else 0 for d in range(1 + n))
            off_m = tuple(-1 if d == axis else 0 for d in range(1 + n))
            up = _block(Vv, off_p, r)
            dn = _block(Vv, off_m, r)
            fwd.append((up - self.V0) / steps[axis])
            bwd.append((self.V0 - dn) / steps[axis])
            curv.append(np.abs(up + dn - 2.0 * self.V0) / steps[axis] ** 2)
        self.a_cand = (fwd[0], bwd[0], 0.5 * (fwd[0] + bwd[0]))
        self.p_cand = tuple(
            tuple((fwd[1 + d], bwd[1 + d], 0.5 * (fwd[1 + d] + bwd[1 + d]))[c]
                  for d in range(n))
            for c in range(3))
        # p_cand[c][d] is the c-th slope candidate along axis d
        self.curv_scale = curv[0]
        for c in curv[1:]:
            self.curv_scale = np.maximum(self.curv_scale, c)

        self.t_centers = grid.t[r:grid.t_nodes - r]
        self.x_centers = tuple(grid.axes[d][r:grid.x_nodes[d] - r]
                               for d in range(n))
        t = self.t_centers.reshape((-1,) + (1,) * n)
        x = [axis.reshape((1,) * (1 + d) + (-1,) + (1,) * (n - 1 - d))
             for d, axis in enumerate(self.x_centers)]
        self.slack = _slack(Vv)
        self.Vv = Vv

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

    def probes_per_point(self):
        n = self.grid.n
        return 3 * 3 ** n * len(CURVATURES)


def _slack(Vv):
    return ADMISSION_SLACK * (1.0 + float(np.max(np.abs(Vv))))


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


def _scan_violations(field, side, base_tol, unit, gap, sees_gap):
    """Collect admitted probes violating the one-sided inequality.

    side "sub": a + H < -tol.  side "super": a + H > tol, additionally
    requiring gap > tol when `sees_gap` is "min", and restricted to the
    strictly-below-obstacle centers (gap > 2*unit) when it is "below".
    Rows are ordered by (t_index, x_index, kappa, a, p).

    Each (combo, slope) pass finds the flat probe's candidates once, at
    base_tol.  A curved probe's tolerance is never below base_tol (a NaN
    one admits nothing), so its candidates lie among them.  The pass
    compares them with a (curvature, candidate) tolerance array and sends
    every pair that breaks it to one touching test.
    """
    grid = field.grid
    n = grid.n
    sign = -1.0 if side == "sub" else 1.0
    kappas = np.array(CURVATURES)
    if sees_gap:  # only super-side notions see the gap
        gap_centers = _block(gap, (0,) * gap.ndim, RADIUS).ravel()
        # the centers the gap lets a flat probe through
        if sees_gap == "min":
            gap_open = gap_centers > base_tol
        else:
            gap_open = gap_centers > 2.0 * unit
    # one (t_index, x_index, a, p, kappa, kappa_eff, margin) block per
    # (combo, slope) pass, indices relative to the center block
    blocks = [(np.empty(0, dtype=np.intp), np.empty((0, n), dtype=np.intp),
               np.empty(0), np.empty((0, n)), np.empty(0), np.empty(0),
               np.empty(0))]
    for combo, ham in sorted(field.ham.items()):
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
            if sees_gap == "min":
                gap_f = gap_centers[flat]
                cond &= gap_f > tol
            k, sel = np.nonzero(cond)
            if not len(sel):
                continue
            cand_idx = np.unravel_index(flat[sel], field.center_shape)
            a = field.a_cand[a_choice][cand_idx]
            p_list = [field.p_cand[combo[d]][d][cand_idx] for d in range(n)]
            kappa_eff = kappas[k] * curv_f[sel]
            keep = _touches(field.Vv, tuple(ci + RADIUS for ci in cand_idx),
                            a, p_list, kappa_eff, side, grid, field.slack)
            if not keep.any():
                continue
            margin = -pde_f[sel][keep]
            if sees_gap == "min":
                margin = np.maximum(margin, -gap_f[sel][keep])
            blocks.append((
                cand_idx[0][keep],
                np.column_stack([i[keep] for i in cand_idx[1:]]),
                a[keep], np.column_stack([pl[keep] for pl in p_list]),
                kappas[k][keep], kappa_eff[keep], margin))
    t_index, x_index, a, p, kappa, kappa_eff, margin = (
        np.concatenate(column) for column in zip(*blocks))
    # lexsort's last key is the primary one; the sort is stable
    order = np.lexsort((*p.T[::-1], a, kappa, *x_index.T[::-1], t_index))
    r = RADIUS
    return _rows(grid, t_index[order] + r, x_index[order] + r, margin[order],
                 a=a[order], p=p[order], kappa=kappa[order],
                 kappa_eff=kappa_eff[order])


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


def _notes(field):
    parts = []
    if field.empty:
        parts.append("grid too small for probe neighborhoods; "
                     "no interior points tested")
    for combo, err in field.skipped:
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

    The notions share one probe field, which does not depend on the probe
    side, and one gap N[V] - V (an array or grid function on V's grid).
    The gap is computed with obstacle_gap when a constrained notion is
    given None, and not at all when no notion reads it.  V's grid must end
    at the problem's horizon (ConfigError otherwise).
    """
    grid = V.grid
    validate_tol_factor(tol_factor, grid)
    notions = [_NOTIONS[variant] for variant in variants]
    if problem.T != grid.T:
        raise ConfigError(
            f"grid horizon {grid.T!r} does not match the problem's {problem.T!r}")
    unit = grid.tolerance_unit
    if any(constrained or sees_gap for _, constrained, sees_gap in notions):
        gap = _gap_or_compute(V, problem, gap)
    field = _ProbeField(V, problem)
    notes = _notes(field)
    no_rows = _rows(grid, np.empty(0, dtype=np.intp),
                    np.empty((0, grid.n), dtype=np.intp), np.empty(0))
    reports = []
    for variant, (side, constrained, sees_gap) in zip(variants, notions):
        violations = _scan_violations(field, side, tol_factor * unit, unit,
                                      gap, sees_gap)
        constraint = (_constraint_nodes(V, gap, unit) if constrained
                      else no_rows)
        terminal = _terminal_nodes(V, problem, side, unit)
        reports.append(ViscosityReport(
            variant, field.n_centers, field.probes_per_point(), violations,
            constraint, terminal, tol_factor * unit, unit, notes))
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
    V <= N[V] + tol at every node below the final time; and the transport
    inequality a + H <= tol at admitted super-side probes, required only
    where V sits strictly below the obstacle (gap > 2*tol), since on the
    contact set no transport inequality is demanded.
    """
    return check_notions(V, problem, (VARIANT_QVI_SUPER_MODIFIED,),
                         tol_factor, gap)[0]


# ------------------------------------------------- re-assertion helpers ----

def _probe_family(V, problem, t_index, x_index):
    """All probes (a, p, kappa, kappa_eff) the scan would try at one node."""
    field = _ProbeField(V, problem)
    if field.empty:
        return []
    grid = V.grid
    ci = tuple(i - RADIUS for i in (t_index, *x_index))
    if not all(0 <= c < s for c, s in zip(ci, field.center_shape)):
        raise ConfigError("node has no full probe neighborhood")
    out = []
    for combo in itertools.product(range(3), repeat=grid.n):
        for a_choice in range(3):
            for kappa in CURVATURES:
                a = float(field.a_cand[a_choice][ci])
                p = tuple(float(field.p_cand[combo[d]][d][ci])
                          for d in range(grid.n))
                out.append((a, p, kappa,
                            float(kappa * field.curv_scale[ci])))
    return out


def _probe_admitted(V, t_index, x_index, a, p, kappa_eff, side):
    """Re-verify the touching condition for stored probe data."""
    grid = V.grid
    node = (t_index, *x_index)
    if not all(RADIUS <= i < s - RADIUS for i, s in zip(node, grid.shape)):
        raise ConfigError("node has no full probe neighborhood")
    center = tuple(np.array([i]) for i in node)
    return bool(_touches(V.values, center, np.array([a], dtype=float),
                         [np.array([pd], dtype=float) for pd in p],
                         np.array([kappa_eff], dtype=float), side, grid,
                         _slack(V.values)))
