"""Probe-based checkers for viscosity-style inequalities on grids.

A smooth test function touching a grid function from above or below is
replaced by a finite quadratic family at each probed node: the time and
space slopes run over the one-sided difference quotients and their
midpoint, and the curvature takes the values {0, 1, 10} times the local
second-difference magnitude.  The curvature is signed so that growing it
only enlarges the admitted set: convex test functions on the sub side,
concave on the super side.  A linear probe cannot touch a smoothly curving
function on a discrete neighborhood, so the zero-curvature probes cover
kinks while the curved ones cover smooth points.  A probe enters a check
only after its touching condition is verified on the full radius-r node
neighborhood, which makes every reported violation re-checkable from the
stored probe data.

Checks refute, they never certify: a clean report means no violation was
found among the probed points at the stated tolerance, nothing more.  The
probe tolerance is discretization aware: tol_factor*(dt + sum dx) plus the
probe's effective curvature times (dt + sum dx), since a difference
quotient admitted against local curvature |V''| deviates from the true
slope by a step times |V''|.  Zero-curvature probes, the ones that matter
at kinks, keep the tight base tolerance.

Five checks share the machinery.  The transport checks test the parabolic
inequality a + H(t, x, p) against zero on one side.  The constrained sub
check adds the obstacle constraint V <= N[V].  The two constrained super
checks differ exactly where the definitions differ: the classical one asks
min{a + H, N[V] - V} <= tol at every probe, the modified one demands the
constraint globally and the transport inequality wherever V sits strictly
below the obstacle.  The final time slice carries only the terminal
comparison with h.
"""

import itertools
import json
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .core import ConfigError
from .obstacle import evaluate_slice_values

VARIANT_HJB_SUB = "HJB-SUB"
VARIANT_HJB_SUPER = "HJB-SUPER"
VARIANT_QVI_SUB = "QVI-SUB"
VARIANT_QVI_SUPER_CLASSICAL = "QVI-SUPER-CLASSICAL"
VARIANT_QVI_SUPER_MODIFIED = "QVI-SUPER-MODIFIED"


@dataclass(frozen=True)
class ProbeSpec:
    """Probe family and tolerance knobs for the viscosity checks."""

    radius: int = 3
    curvatures: tuple = (0.0, 1.0, 10.0)
    tol_factor: float = 10.0
    admission_slack: float = 1e-12

    def __post_init__(self):
        object.__setattr__(self, "curvatures",
                           tuple(float(c) for c in self.curvatures))
        if self.radius < 1:
            raise ConfigError(f"need probe radius >= 1, got {self.radius}")
        if not self.curvatures or any(c < 0 for c in self.curvatures):
            raise ConfigError("curvature multipliers must be nonnegative")
        if self.tol_factor <= 0:
            raise ConfigError(f"need tol_factor > 0, got {self.tol_factor}")
        if self.admission_slack < 0:
            raise ConfigError("admission slack must be nonnegative")


@dataclass(frozen=True)
class Violation:
    """An admitted probe whose tested inequality failed."""

    t_index: int
    x_index: tuple
    t: float
    x: tuple
    a: float
    p: tuple
    kappa: float
    kappa_eff: float
    margin: float

    def to_dict(self):
        return {"t_index": self.t_index, "x_index": list(self.x_index),
                "t": self.t, "x": list(self.x), "a": self.a,
                "p": list(self.p), "kappa": self.kappa,
                "kappa_eff": self.kappa_eff, "margin": self.margin}


@dataclass(frozen=True)
class NodeViolation:
    """A node where a probe-free inequality (constraint or terminal) failed."""

    t_index: int
    x_index: tuple
    t: float
    x: tuple
    margin: float

    def to_dict(self):
        return {"t_index": self.t_index, "x_index": list(self.x_index),
                "t": self.t, "x": list(self.x), "margin": self.margin}


@dataclass(frozen=True)
class ViscosityReport:
    variant: str
    points_tested: int
    probes_per_point: int
    violations: tuple
    constraint_violations: tuple
    terminal_violations: tuple
    pde_tolerance: float
    constraint_tolerance: float
    notes: str = ""

    @property
    def passed(self):
        return not (self.violations or self.constraint_violations
                    or self.terminal_violations)

    def to_dict(self):
        return {
            "variant": self.variant,
            "passed": self.passed,
            "points_tested": self.points_tested,
            "probes_per_point": self.probes_per_point,
            "violations": [v.to_dict() for v in self.violations],
            "constraint_violations": [v.to_dict()
                                      for v in self.constraint_violations],
            "terminal_violations": [v.to_dict()
                                    for v in self.terminal_violations],
            "pde_tolerance": self.pde_tolerance,
            "constraint_tolerance": self.constraint_tolerance,
            "notes": self.notes,
        }

    def to_json(self, indent=2):
        return json.dumps(self.to_dict(), indent=indent)

    def summary(self):
        verdict = "no violation found" if self.passed else "FAIL"
        return (f"{self.variant}: {verdict} "
                f"({len(self.violations)} probe, "
                f"{len(self.constraint_violations)} constraint, "
                f"{len(self.terminal_violations)} terminal violations; "
                f"{self.points_tested} points x {self.probes_per_point} probes)")


def write_violations_csv(report, path):
    """Plot-ready CSV of all violation locations in a report."""
    rows = ["kind,t_index,x_index,t,x,margin"]
    for kind, items in (("probe", report.violations),
                        ("constraint", report.constraint_violations),
                        ("terminal", report.terminal_violations)):
        for v in items:
            xi = ";".join(str(i) for i in v.x_index)
            xs = ";".join("%.17g" % c for c in v.x)
            rows.append(f"{kind},{v.t_index},{xi},%.17g,{xs},%.17g"
                        % (v.t, v.margin))
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")


# -------------------------------------------------------------- obstacle ----

def obstacle_gap(V, problem, search=None):
    """N[V] - V on every time slice of a grid function.

    `search` defaults to obstacle.default_search(grid), the radius the
    solver clips with.
    """
    grid = V.grid
    gap = np.empty(grid.shape)
    for k in range(grid.t_nodes):
        vals, _, _ = evaluate_slice_values(grid, V.values[k], grid.t[k],
                                           problem.ell, problem.cone, search)
        gap[k] = vals - V.values[k]
    return gap


# ------------------------------------------------------------ probe scan ----

def _block(arr, offsets, radius):
    idx = tuple(slice(radius + o, s - radius + o)
                for o, s in zip(offsets, arr.shape))
    return arr[idx]


def _tolerance_unit(grid):
    """Step scale dt + sum(dx); default probe tolerances are multiples of it."""
    return grid.dt + float(sum(grid.dx))


class _ProbeField:
    """Per-center slope candidates, curvature scale, and Hamiltonian values."""

    def __init__(self, V, problem, spec):
        grid = V.grid
        self.grid = grid
        self.spec = spec
        r = spec.radius
        n = grid.n
        shape = grid.shape
        self.empty = any(s < 2 * r + 2 for s in shape)
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
        t_env = self.t_centers.reshape((-1,) + (1,) * n)
        x_env = {}
        for d in range(n):
            sh = (1,) * (1 + d) + (-1,) + (1,) * (n - 1 - d)
            x_env[f"x{d + 1}"] = self.x_centers[d].reshape(sh)
        self.t_env = t_env
        self.x_env = x_env
        self.slack = spec.admission_slack * (1.0 + float(np.max(np.abs(Vv))))
        self.Vv = Vv

        self.ham = {}
        self.skipped = []
        for combo in itertools.product(range(3), repeat=n):
            env = {"t": t_env}
            env.update(x_env)
            for d in range(n):
                env[f"p{d + 1}"] = self.p_cand[combo[d]][d]
            try:
                vals = ex.evaluate(problem.H, env)
                if problem.g is not None:
                    vals = vals + ex.evaluate(problem.g, {"t": t_env, **x_env})
                self.ham[combo] = np.broadcast_to(vals, self.center_shape)
            except ex.DomainError as err:
                self.skipped.append((combo, str(err)))

    def probes_per_point(self):
        n = self.grid.n
        return 3 * 3 ** n * len(self.spec.curvatures)

    def admitted(self, cand_idx, a, p_list, kappa_eff, side):
        """Verify the touching condition at candidate centers.

        cand_idx indexes the center block; a, p_list, kappa_eff are aligned
        candidate arrays.  Returns a boolean mask.
        """
        r = self.spec.radius
        grid = self.grid
        n = grid.n
        global_idx = tuple(ci + r for ci in cand_idx)
        V0 = self.Vv[global_idx]
        ok = np.ones(len(V0), dtype=bool)
        steps = (grid.dt,) + grid.dx
        sign = -1.0 if side == "sub" else 1.0
        for off in itertools.product(range(-r, r + 1), repeat=1 + n):
            if all(o == 0 for o in off):
                continue
            neighbor = tuple(global_idx[d] + off[d] for d in range(1 + n))
            Vn = self.Vv[neighbor]
            lin = a * (off[0] * steps[0])
            dist2 = (off[0] * steps[0]) ** 2
            for d in range(n):
                step = off[1 + d] * steps[1 + d]
                lin = lin + p_list[d] * step
                dist2 += step ** 2
            lhs = Vn - V0 - lin + sign * 0.5 * kappa_eff * dist2
            if side == "sub":
                ok &= lhs <= self.slack
            else:
                ok &= lhs >= -self.slack
        return ok


def _scan_violations(field, side, spec, unit, gap_centers=None,
                     classical=False, region_mask=None):
    """Collect admitted probes violating the one-sided inequality.

    side "sub": a + H < -tol.  side "super": a + H > tol, additionally
    requiring gap > tol when `classical`, and restricted to `region_mask`
    when given (the strictly-below-obstacle region of the modified check).
    """
    if field.empty:
        return []
    grid = field.grid
    n = grid.n
    out = []
    base_tol = spec.tol_factor * unit
    for combo, ham in sorted(field.ham.items()):
        for a_choice in range(3):
            pde = field.a_cand[a_choice] + ham
            for kappa in spec.curvatures:
                # tolerance grows with the probe's effective curvature: a
                # one-sided slope admitted against curvature |V''| sits
                # O(step * |V''|) away from the true gradient
                tol = base_tol + kappa * field.curv_scale * unit
                if side == "sub":
                    cond = pde < -tol
                else:
                    cond = pde > tol
                    if classical:
                        cond &= gap_centers > tol
                if region_mask is not None:
                    cond = cond & region_mask
                if not cond.any():
                    continue
                cand_idx = np.nonzero(cond)
                a = field.a_cand[a_choice][cand_idx]
                p_list = [field.p_cand[combo[d]][d][cand_idx]
                          for d in range(n)]
                kappa_eff = kappa * field.curv_scale[cand_idx]
                keep = field.admitted(cand_idx, a, p_list, kappa_eff, side)
                if not keep.any():
                    continue
                pde_c = pde[cand_idx]
                gap_c = gap_centers[cand_idx] if classical else None
                for j in np.nonzero(keep)[0]:
                    kt = int(cand_idx[0][j]) + spec.radius
                    xi = tuple(int(cand_idx[1 + d][j]) + spec.radius
                               for d in range(n))
                    if side == "sub":
                        margin = float(pde_c[j])
                    elif classical:
                        margin = -float(min(pde_c[j], gap_c[j]))
                    else:
                        margin = -float(pde_c[j])
                    out.append(Violation(
                        t_index=kt, x_index=xi, t=float(grid.t[kt]),
                        x=tuple(float(grid.axes[d][xi[d]]) for d in range(n)),
                        a=float(a[j]), p=tuple(float(pl[j]) for pl in p_list),
                        kappa=float(kappa), kappa_eff=float(kappa_eff[j]),
                        margin=margin))
    out.sort(key=lambda v: (v.t_index, v.x_index, v.kappa, v.a, v.p))
    return out


def _terminal_nodes(V, problem, side, ctol):
    grid = V.grid
    h = np.broadcast_to(
        np.asarray(ex.evaluate(problem.h, grid.space_env()), dtype=float),
        grid.shape[1:])
    last = V.values[-1]
    margin = h - last if side == "sub" else last - h
    idx = np.nonzero(margin < -ctol)
    k = np.full(idx[0].shape, grid.t_nodes - 1)
    return _node_violations(grid, k, idx, margin[idx])


def _constraint_nodes(V, gap, ctol):
    idx = np.nonzero(gap[:-1] < -ctol)
    return _node_violations(V.grid, idx[0], idx[1:], gap[idx])


def _node_violations(grid, t_index, x_index, margin):
    """NodeViolations at the nodes (t_index, *x_index), in array order.

    Coordinates are gathered from grid.t and grid.axes once per call and
    converted to Python scalars in bulk.
    """
    t = grid.t[t_index].tolist()
    x = zip(*(axis[i].tolist() for axis, i in zip(grid.axes, x_index)))
    xi = zip(*(i.tolist() for i in x_index))
    return [NodeViolation(t_index=k, x_index=ix, t=tk, x=xk, margin=m)
            for k, ix, tk, xk, m in zip(t_index.tolist(), xi, t, x,
                                        margin.tolist())]


def _notes(field, extra=""):
    parts = []
    if field.empty:
        parts.append("grid too small for probe neighborhoods; "
                     "no interior points tested")
    for combo, err in getattr(field, "skipped", []):
        parts.append(f"probe slope combination {combo} skipped: {err}")
    if extra:
        parts.append(extra)
    return "; ".join(parts)


def _gap_or_compute(V, problem, search, gap):
    if gap is None:
        return obstacle_gap(V, problem, search)
    if hasattr(gap, "values"):
        gap = gap.values
    gap = np.asarray(gap, dtype=float)
    if gap.shape != V.grid.shape:
        raise ConfigError("precomputed obstacle gap shape does not match grid")
    return gap


def _center_gap(field, gap):
    if field.empty:
        return None
    r = field.spec.radius
    return _block(gap, (0,) * gap.ndim, r)


# ------------------------------------------------------------- checkers ----

def check_hjb_subsolution(V, problem, spec=None):
    """One-sided transport check: a + H(t, x, p) >= -tol at admitted
    sub-side probes, plus the terminal inequality V(T, .) <= h."""
    spec = spec or ProbeSpec()
    unit = _tolerance_unit(V.grid)
    field = _ProbeField(V, problem, spec)
    violations = _scan_violations(field, "sub", spec, unit)
    terminal = _terminal_nodes(V, problem, "sub", unit)
    return ViscosityReport(
        VARIANT_HJB_SUB, field.n_centers, field.probes_per_point(),
        tuple(violations), (), tuple(terminal),
        spec.tol_factor * unit, unit, _notes(field))


def check_hjb_supersolution(V, problem, spec=None):
    """Mirror of check_hjb_subsolution: a + H <= tol at admitted super-side
    probes, terminal V(T, .) >= h."""
    spec = spec or ProbeSpec()
    unit = _tolerance_unit(V.grid)
    field = _ProbeField(V, problem, spec)
    violations = _scan_violations(field, "super", spec, unit)
    terminal = _terminal_nodes(V, problem, "super", unit)
    return ViscosityReport(
        VARIANT_HJB_SUPER, field.n_centers, field.probes_per_point(),
        tuple(violations), (), tuple(terminal),
        spec.tol_factor * unit, unit, _notes(field))


def check_qvi_subsolution(V, problem, spec=None, search=None, gap=None):
    """Constrained sub-solution check.

    The defining inequality min{a + H, N[V] - V} >= 0 splits: the obstacle
    branch does not involve the probe, so nodes with N[V] - V < -tol are
    reported once as constraint violations, and admitted probes with
    a + H < -tol are reported as probe violations.
    """
    spec = spec or ProbeSpec()
    grid = V.grid
    unit = _tolerance_unit(grid)
    gap = _gap_or_compute(V, problem, search, gap)
    field = _ProbeField(V, problem, spec)
    violations = _scan_violations(field, "sub", spec, unit)
    constraint = _constraint_nodes(V, gap, unit)
    terminal = _terminal_nodes(V, problem, "sub", unit)
    return ViscosityReport(
        VARIANT_QVI_SUB, field.n_centers, field.probes_per_point(),
        tuple(violations), tuple(constraint), tuple(terminal),
        spec.tol_factor * unit, unit, _notes(field))


def check_qvi_subsolution_decomposed(V, problem, spec=None, search=None,
                                     gap=None):
    """Split form of the constrained sub-solution check: run the obstacle
    constraint check and the pure transport check separately and conjoin
    the verdicts.  Produces the same violation sets as the direct check."""
    spec = spec or ProbeSpec()
    grid = V.grid
    unit = _tolerance_unit(grid)
    gap = _gap_or_compute(V, problem, search, gap)
    hjb = check_hjb_subsolution(V, problem, spec)
    constraint = _constraint_nodes(V, gap, unit)
    note = "decomposed: constraint check conjoined with transport check"
    if hjb.notes:
        note = hjb.notes + "; " + note
    return ViscosityReport(
        VARIANT_QVI_SUB, hjb.points_tested, hjb.probes_per_point,
        hjb.violations, tuple(constraint), hjb.terminal_violations,
        hjb.pde_tolerance, unit, note)


def check_qvi_supersolution_classical(V, problem, spec=None, search=None,
                                      gap=None):
    """Classical constrained super-solution check: at every admitted
    super-side probe, min{a + H, N[V] - V} <= tol; terminal V(T, .) >= h.
    The obstacle constraint itself is NOT required."""
    spec = spec or ProbeSpec()
    grid = V.grid
    unit = _tolerance_unit(grid)
    gap = _gap_or_compute(V, problem, search, gap)
    field = _ProbeField(V, problem, spec)
    violations = _scan_violations(field, "super", spec, unit,
                                  gap_centers=_center_gap(field, gap),
                                  classical=True)
    terminal = _terminal_nodes(V, problem, "super", unit)
    return ViscosityReport(
        VARIANT_QVI_SUPER_CLASSICAL, field.n_centers,
        field.probes_per_point(), tuple(violations), (), tuple(terminal),
        spec.tol_factor * unit, unit, _notes(field))


def check_qvi_supersolution_modified(V, problem, spec=None, search=None,
                                     gap=None):
    """Modified constrained super-solution check, the stronger variant.

    Three parts: terminal V(T, .) >= h; the obstacle constraint
    V <= N[V] + tol at every node below the final time; and the transport
    inequality a + H <= tol at admitted super-side probes, required only
    where V sits strictly below the obstacle (gap > 2*tol), since on the
    contact set no transport inequality is demanded.
    """
    spec = spec or ProbeSpec()
    grid = V.grid
    unit = _tolerance_unit(grid)
    gap = _gap_or_compute(V, problem, search, gap)
    field = _ProbeField(V, problem, spec)
    region = None
    if not field.empty:
        region = _center_gap(field, gap) > 2.0 * unit
    violations = _scan_violations(field, "super", spec, unit,
                                  region_mask=region)
    constraint = _constraint_nodes(V, gap, unit)
    terminal = _terminal_nodes(V, problem, "super", unit)
    return ViscosityReport(
        VARIANT_QVI_SUPER_MODIFIED, field.n_centers,
        field.probes_per_point(), tuple(violations), tuple(constraint),
        tuple(terminal), spec.tol_factor * unit, unit, _notes(field))


# ------------------------------------------------- re-assertion helpers ----

def probe_family(V, problem, t_index, x_index, spec=None):
    """All probes (a, p, kappa, kappa_eff) the scan would try at one node."""
    spec = spec or ProbeSpec()
    field = _ProbeField(V, problem, spec)
    if field.empty:
        return []
    r = spec.radius
    grid = V.grid
    ci = (t_index - r,) + tuple(i - r for i in x_index)
    if any(c < 0 for c in ci) or any(
            c >= s for c, s in zip(ci, field.center_shape)):
        raise ConfigError("node has no full probe neighborhood")
    out = []
    for combo in itertools.product(range(3), repeat=grid.n):
        for a_choice in range(3):
            for kappa in spec.curvatures:
                a = float(field.a_cand[a_choice][ci])
                p = tuple(float(field.p_cand[combo[d]][d][ci])
                          for d in range(grid.n))
                out.append((a, p, kappa,
                            float(kappa * field.curv_scale[ci])))
    return out


def probe_admitted(V, t_index, x_index, a, p, kappa_eff, side, spec=None):
    """Re-verify the touching condition for stored probe data."""
    spec = spec or ProbeSpec()
    grid = V.grid
    r = spec.radius
    n = grid.n
    if not (r <= t_index < grid.t_nodes - r):
        raise ConfigError("node has no full probe neighborhood")
    for d in range(n):
        if not (r <= x_index[d] < grid.x_nodes[d] - r):
            raise ConfigError("node has no full probe neighborhood")
    Vv = V.values
    center = (t_index,) + tuple(x_index)
    V0 = Vv[center]
    slack = spec.admission_slack * (1.0 + float(np.max(np.abs(Vv))))
    steps = (grid.dt,) + grid.dx
    sign = -1.0 if side == "sub" else 1.0
    for off in itertools.product(range(-r, r + 1), repeat=1 + n):
        if all(o == 0 for o in off):
            continue
        neighbor = tuple(center[d] + off[d] for d in range(1 + n))
        lin = a * off[0] * steps[0]
        dist2 = (off[0] * steps[0]) ** 2
        for d in range(n):
            step = off[1 + d] * steps[1 + d]
            lin += p[d] * step
            dist2 += step ** 2
        lhs = Vv[neighbor] - V0 - lin + sign * 0.5 * kappa_eff * dist2
        if side == "sub" and lhs > slack:
            return False
        if side == "super" and lhs < -slack:
            return False
    return True
