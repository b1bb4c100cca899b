"""Viscosity checkers: probe mechanics, verdicts, and cross-check identities."""

import itertools
import json
from dataclasses import fields, replace
from hashlib import sha256
from pathlib import Path

import numpy as np
import pytest

from qvilab import example as exm
from qvilab import expr as ex
from qvilab import viscosity as vc
from qvilab.core import (Cone, ConfigError, Grid, GridFunction, ImpulseProblem,
                         load_problem, sample, write_table)
from qvilab.solver import solve_qvi

PLANE = Path(__file__).resolve().parent.parent / "perfbench" / "plane.cfg"


def make_problem(H="-p1", h="x1*exp(-x1)", ell="0.05*(1 + xi1)", n=1, T=1.0):
    x_names = {f"x{d + 1}" for d in range(n)}
    p_names = {f"p{d + 1}" for d in range(n)}
    xi_names = {f"xi{d + 1}" for d in range(n)}
    return ImpulseProblem(
        n=n, T=T,
        H=ex.parse(H, {"t"} | x_names | p_names),
        h=ex.parse(h, x_names),
        ell=ex.parse(ell, {"t"} | x_names | xi_names),
        cone=Cone.orthant(n),
    )


GRID = Grid(T=1.0, t_nodes=61, x_min=(-1.0,), x_max=(4.0,), x_nodes=(141,))


def analytic_profile(grid):
    # transported terminal payoff: constant along characteristics of -p
    e = ex.parse("(x1 - 1 + t)*exp(-(x1 - 1 + t))", {"t", "x1"})
    return sample(e, grid)


def frozen_terminal(grid):
    e = ex.parse("x1*exp(-x1)", {"x1"})
    return sample(e, grid)


def node_keys(rows):
    """The (t_index, x_index) of every row, as a set."""
    return set(zip(rows.t_index.tolist(), map(tuple, rows.x_index.tolist())))


def probe_keys(rows):
    """The (t_index, x_index, kappa) of every probe row, as a set."""
    return set(zip(rows.t_index.tolist(), map(tuple, rows.x_index.tolist()),
                   rows.kappa.tolist()))


@pytest.fixture(scope="module")
def problem():
    return make_problem()


@pytest.fixture(scope="module")
def solved(problem):
    return solve_qvi(problem, GRID, (1.05,))


@pytest.fixture(scope="module")
def corpus(problem, solved):
    """Named grid functions with varied verdict profiles, plus shared
    obstacle gaps."""
    members = {}
    members["solved"] = (solved.V, solved.obstacle_gap)
    shifted = GridFunction(GRID, solved.V.values + 5.0)
    members["shifted"] = (shifted, vc.obstacle_gap(shifted, problem))
    profile = analytic_profile(GRID)
    members["profile"] = (profile, vc.obstacle_gap(profile, problem))
    frozen = frozen_terminal(GRID)
    members["frozen"] = (frozen, vc.obstacle_gap(frozen, problem))
    x = GRID.axes[0]
    bump = 0.4 * np.exp(-(((x - 1.5) / 0.3) ** 2))
    corrupted = GridFunction(GRID, solved.V.values + bump)
    members["corrupted"] = (corrupted, vc.obstacle_gap(corrupted, problem))
    flat = GridFunction(GRID, np.full(GRID.shape, -1.0e6))
    members["flat"] = (flat, vc.obstacle_gap(flat, problem))
    return members


class TestProbeSpec:
    def test_validation(self, problem):
        # rejected before any obstacle gap is computed
        V = frozen_terminal(GRID)
        for checker in (vc.check_hjb_subsolution, vc.check_hjb_supersolution,
                        vc.check_qvi_subsolution,
                        vc.check_qvi_subsolution_decomposed,
                        vc.check_qvi_supersolution_classical,
                        vc.check_qvi_supersolution_modified,
                        lambda V, problem, factor: vc.check_notions(
                            V, problem, tuple(vc._NOTIONS), factor)):
            for bad in (0.0, float("nan"), float("inf")):
                with pytest.raises(ConfigError, match="tol_factor"):
                    checker(V, problem, bad)


class TestProbeMechanics:
    def setup_method(self):
        self.grid = Grid(T=1.0, t_nodes=11, x_min=(-2.0,), x_max=(2.0,),
                         x_nodes=(41,))
        self.V = sample(ex.parse("x1*x1", {"x1"}), self.grid)
        self.center = (5, 20)  # x = 0, the bottom of the parabola

    def test_linear_probe_cannot_touch_smooth_minimum_from_above(self):
        assert not vc._probe_admitted(self.V, 5, (20,), 0.0, (0.0,), 0.0, "sub")

    def test_curved_probe_touches_it(self):
        # second difference of x^2 is exactly 2, so kappa_eff = 2 closes
        # the quadratic wiggle exactly
        assert vc._probe_admitted(self.V, 5, (20,), 0.0, (0.0,), 2.0, "sub")

    def test_super_side_admits_linear_probe_at_minimum(self):
        assert vc._probe_admitted(self.V, 5, (20,), 0.0, (0.0,), 0.0, "super")

    def test_probe_family_size_and_scaling(self, problem):
        fam = vc._probe_family(self.V, problem, 5, (20,))
        assert len(fam) == 27
        kappas = sorted({k for (_, _, k, _) in fam})
        assert kappas == [0.0, 1.0, 10.0]
        eff = sorted({ke for (_, _, k, ke) in fam if k == 1.0})
        assert eff[-1] == pytest.approx(2.0, abs=1e-9)

    def test_center_without_neighborhood_rejected(self, problem):
        with pytest.raises(ConfigError):
            vc._probe_family(self.V, problem, 1, (20,))
        with pytest.raises(ConfigError):
            vc._probe_admitted(self.V, 5, (39,), 0.0, (0.0,), 0.0, "sub")


class TestTransportChecks:
    def test_frozen_terminal_fails_sub_exactly_left_of_the_peak(self, problem):
        # V(t,x) = h(x) has a = 0, so the sub inequality reads -h'(x) >= 0,
        # which fails precisely where h is increasing, i.e. x < 1
        V = frozen_terminal(GRID)
        report = vc.check_hjb_subsolution(V, problem)
        assert report.violations
        assert np.all(report.violations.x[:, 0] < 1.0)
        assert np.any(report.violations.x[:, 0] < 0.0)
        assert not report.terminal_violations
        assert not report.constraint_violations
        assert not report.passed

    def test_violation_margins_and_admission_are_recomputable(self, problem):
        V = frozen_terminal(GRID)
        report = vc.check_hjb_subsolution(V, problem)
        unit = report.constraint_tolerance
        rows = report.violations
        assert len(rows) >= 50
        for j in range(50):
            # margin is a + H(p) = a - p for the transport Hamiltonian
            assert rows.margin[j] == pytest.approx(rows.a[j] - rows.p[j, 0],
                                                   abs=1e-12)
            assert rows.margin[j] < -(report.pde_tolerance
                                      + rows.kappa_eff[j] * unit)
            assert vc._probe_admitted(V, rows.t_index[j], rows.x_index[j],
                                      rows.a[j], rows.p[j],
                                      rows.kappa_eff[j], "sub")

    def test_super_mirror_of_negated_function(self, problem):
        V = frozen_terminal(GRID)
        neg = GridFunction(GRID, -V.values)
        sub = vc.check_hjb_subsolution(V, problem)
        sup = vc.check_hjb_supersolution(neg, problem)
        assert probe_keys(sub.violations) == probe_keys(sup.violations)
        # both break V <= N[V] (a jump to the crest or past it pays), yet
        # the transport checks report no constraint rows
        assert not sub.constraint_violations
        assert not sup.constraint_violations

    def test_terminal_inequalities_are_one_sided(self, problem):
        above = GridFunction(GRID, frozen_terminal(GRID).values + 1.0)
        below = GridFunction(GRID, frozen_terminal(GRID).values - 1.0)
        assert vc.check_hjb_subsolution(above, problem).terminal_violations
        assert not vc.check_hjb_supersolution(above, problem).terminal_violations
        assert not vc.check_hjb_subsolution(below, problem).terminal_violations
        assert vc.check_hjb_supersolution(below, problem).terminal_violations

    def test_two_dimensional_linear_function(self, tmp_path):
        # coarse grid, so the drift is scaled to clear the tolerance
        problem = make_problem(H="-4*p1 - 4*p2", h="x1 + x2",
                               ell="0.3 + 0.2*(xi1 + xi2)", n=2)
        grid = Grid(T=1.0, t_nodes=13, x_min=(-2.0, -2.0), x_max=(2.0, 2.0),
                    x_nodes=(21, 21))
        V = sample(ex.parse("x1 + x2 - t", {"t", "x1", "x2"}), grid)
        report = vc.check_hjb_subsolution(V, problem)
        assert report.probes_per_point == 81
        assert report.violations
        rows = report.violations
        assert rows.a[0] == pytest.approx(-1.0, abs=1e-12)
        assert rows.p[0].tolist() == [pytest.approx(1.0), pytest.approx(1.0)]
        assert rows.margin[0] == pytest.approx(-9.0, abs=1e-12)
        assert len(rows) == 127575
        # the summary, and all 127,575 probe rows with their probe columns,
        # pinned byte for byte
        text = json.dumps(report.to_dict(), indent=2)
        assert sha256(text.encode()).hexdigest() == \
            "5f2f45200f145d08f1f4affa29d577c22ceb46841b6ca8607f38b87d112b96ac"
        path = tmp_path / "violations.csv"
        write_table(path, *report.table())
        assert sha256(path.read_bytes()).hexdigest() == \
            "ad14ad63ace317b3e5138b059cf29ab632aea5bc5d081c72b4898dcc01e232a8"
        sup = vc.check_hjb_supersolution(V, problem)
        assert not sup.violations


@pytest.fixture(scope="module")
def fine(problem):
    grid = Grid(T=1.0, t_nodes=101, x_min=(-0.5,), x_max=(4.0,),
                x_nodes=(351,))
    return solve_qvi(problem, grid, (1.05,))


@pytest.fixture(scope="module")
def verdicts(problem):
    grid = Grid(T=1.0, t_nodes=101, x_min=(-1.0,), x_max=(4.0,),
                x_nodes=(351,))
    V = analytic_profile(grid)
    gap = vc.obstacle_gap(V, problem)
    classical = vc.check_qvi_supersolution_classical(V, problem, gap=gap)
    modified = vc.check_qvi_supersolution_modified(V, problem, gap=gap)
    sub = vc.check_qvi_subsolution(V, problem, gap=gap)
    return grid, classical, modified, sub


class TestGapBands:
    """How each super check reads N[V] - V.  V = 5t breaks a + H <= tol at
    every probe (a + H = 5); a hand-made gap takes four values on four
    bands of x: below -tol, within 2 units, between 2 units and the probe
    tolerance, and 3, above the tolerance but below a + H."""

    def test_probe_and_constraint_rows_follow_the_gap(self, problem):
        V = sample(ex.parse("5*t", {"t"}), GRID)
        unit = GRID.dt + GRID.dx[0]
        x = GRID.axes[0]
        bands = [x < 0.5, (0.5 <= x) & (x < 1.5), (1.5 <= x) & (x < 2.5),
                 2.5 <= x]
        gap = np.broadcast_to(np.select(bands, [-1.0, 1.5 * unit,
                                                5.0 * unit, 3.0]), GRID.shape)
        centers = np.arange(GRID.x_nodes[0]) >= 3
        centers &= np.arange(GRID.x_nodes[0]) < GRID.x_nodes[0] - 3
        where = lambda mask: set(np.nonzero(mask & centers)[0].tolist())
        columns = lambda rows: set(rows.x_index[:, 0].tolist())

        hjb = vc.check_hjb_supersolution(V, problem)
        classical = vc.check_qvi_supersolution_classical(V, problem,
                                                         gap=gap)
        modified = vc.check_qvi_supersolution_modified(V, problem, gap=gap)
        assert columns(hjb.violations) == where(centers)
        assert columns(classical.violations) == where(bands[3])
        assert columns(modified.violations) == where(bands[2] | bands[3])
        # classical margin is -min{a + H, gap}; modified reads a + H alone
        assert np.all(classical.violations.margin == -3.0)
        assert np.allclose(modified.violations.margin, -5.0)
        assert not hjb.constraint_violations
        assert not classical.constraint_violations
        rows = modified.constraint_violations
        assert columns(rows) == set(np.nonzero(bands[0])[0].tolist())
        assert set(rows.t_index.tolist()) == set(range(GRID.t_nodes - 1))


class TestSolverSelfConsistency:
    def test_solution_is_a_constrained_subsolution(self, problem, fine):
        report = vc.check_qvi_subsolution(fine.V, problem,
                                          gap=fine.obstacle_gap)
        assert report.passed

    def test_solution_passes_classical_super_check(self, problem, fine):
        report = vc.check_qvi_supersolution_classical(fine.V, problem,
                                                      gap=fine.obstacle_gap)
        assert report.passed

    def test_solution_passes_modified_super_check(self, problem, fine):
        report = vc.check_qvi_supersolution_modified(fine.V, problem,
                                                     gap=fine.obstacle_gap)
        assert report.passed


class TestSeparationPattern:
    """The analytic transported profile separates the two super definitions:
    jumping into the far valley beats holding on a mid strip, so the
    obstacle constraint fails there while every transport probe is clean."""

    def test_classical_passes(self, verdicts):
        _, classical, _, _ = verdicts
        assert classical.passed

    def test_modified_fails_only_through_the_constraint(self, verdicts):
        _, _, modified, _ = verdicts
        assert not modified.passed
        assert modified.constraint_violations
        assert not modified.violations
        assert not modified.terminal_violations

    def test_constraint_violations_sit_on_the_profitable_strip(self, verdicts):
        grid, _, modified, _ = verdicts
        rows = modified.constraint_violations
        u = rows.x[:, 0] - grid.T + rows.t
        assert np.all((0.4 < u) & (u < 2.8))

    def test_profile_is_still_a_constrained_subsolution_except_constraint(
            self, verdicts):
        _, _, modified, sub = verdicts
        assert not sub.violations
        assert node_keys(sub.constraint_violations) == \
            node_keys(modified.constraint_violations)


class TestSeparationBand:
    def test_band_test_is_strict_and_elementwise(self):
        # binary-exact edges, so u = x1 - T + t lands on them exactly
        inst = replace(exm.build_instance(t0=0.5, l0=0.05),
                       u_lo=0.25, u_hi=1.75)
        u = np.array([0.25, 0.5, 1.0, 1.75, 0.0, 3.0])
        got = inst.in_band(np.full(u.shape, 0.5), u + 0.5)
        assert got.tolist() == [False, True, True, False, False, False]
        closed = exm.build_instance(t0=0.5, l0=0.13)
        assert not np.any(closed.in_band(np.zeros(3), np.array([0.5, 1, 2])))


class TestDecomposedAgreement:
    def test_direct_and_decomposed_reports_agree_on_corpus(self, problem,
                                                           corpus):
        for name, (V, gap) in corpus.items():
            direct = vc.check_qvi_subsolution(V, problem, gap=gap)
            split = vc.check_qvi_subsolution_decomposed(V, problem, gap=gap)
            assert direct.violations == split.violations, name
            assert direct.constraint_violations == split.constraint_violations, name
            assert direct.terminal_violations == split.terminal_violations, name
            assert direct.passed == split.passed, name
            assert direct.variant == split.variant == vc.VARIANT_QVI_SUB

    def test_corpus_exercises_both_verdicts(self, problem, corpus):
        outcomes = {}
        for name, (V, gap) in corpus.items():
            outcomes[name] = vc.check_qvi_subsolution(V, problem,
                                                      gap=gap).passed
        assert any(outcomes.values()) and not all(outcomes.values()), outcomes


class TestStrengthOrdering:
    def test_modified_pass_implies_classical_pass(self, problem, corpus):
        for name, (V, gap) in corpus.items():
            classical = vc.check_qvi_supersolution_classical(V, problem,
                                                             gap=gap)
            modified = vc.check_qvi_supersolution_modified(V, problem,
                                                           gap=gap)
            if modified.passed:
                assert classical.passed, name

    def test_transport_super_plus_constraint_implies_modified(self, problem,
                                                              corpus):
        for name, (V, gap) in corpus.items():
            hjb = vc.check_hjb_supersolution(V, problem)
            modified = vc.check_qvi_supersolution_modified(V, problem,
                                                           gap=gap)
            constraint_ok = (not modified.constraint_violations
                             and not modified.terminal_violations)
            if hjb.passed and constraint_ok:
                assert modified.passed, name


class TestShiftInvariance:
    def test_verdict_sets_survive_constant_shifts(self, problem, corpus):
        V, gap = corpus["corrupted"]
        shifted = GridFunction(GRID, V.values + 100.0)
        gap_s = vc.obstacle_gap(shifted, problem)
        for checker in (vc.check_qvi_subsolution,
                        vc.check_qvi_supersolution_classical,
                        vc.check_qvi_supersolution_modified):
            base = checker(V, problem, gap=gap)
            moved = checker(shifted, problem, gap=gap_s)
            key = lambda r: (probe_keys(r.violations),
                             node_keys(r.constraint_violations))
            assert key(base) == key(moved)
            assert base.passed == moved.passed


class TestEdgesAndPlumbing:
    def test_tiny_grid_reports_no_probe_centers(self, problem):
        grid = Grid(T=1.0, t_nodes=5, x_min=(-1.0,), x_max=(4.0,),
                    x_nodes=(7,))
        V = analytic_profile(grid)
        report = vc.check_qvi_subsolution(V, problem)
        assert report.points_tested == 0
        assert not report.violations
        assert "no interior points" in report.notes

    def test_domain_error_combos_are_skipped_with_note(self):
        problem = make_problem(H="sqrt(p1)")
        V = frozen_terminal(GRID)
        report = vc.check_hjb_subsolution(V, problem)
        assert "skipped" in report.notes
        assert report.points_tested > 0

    def test_bump_adds_to_h_and_is_evaluated_once(self, monkeypatch):
        # g reads no slope, so one evaluation serves all 3^n combinations
        bumped = make_problem(n=2, H="-p1 - p2", h="x1 + x2",
                              ell="0.3 + 0.2*(xi1 + xi2)")
        bumped = replace(bumped, g=ex.parse("20*x1*x2 - 10*t",
                                            {"t", "x1", "x2"}))
        merged = make_problem(n=2, H="-p1 - p2 + (20*x1*x2 - 10*t)",
                              h="x1 + x2", ell="0.3 + 0.2*(xi1 + xi2)")
        grid = Grid(T=1.0, t_nodes=13, x_min=(-2.0, -2.0), x_max=(2.0, 2.0),
                    x_nodes=(21, 21))
        V = sample(ex.parse("x1*x1 - x2 + t", {"t", "x1", "x2"}), grid)
        calls = []
        evaluate = ex.evaluate

        def counted(node, env):
            calls.append(node is bumped.g)
            return evaluate(node, env)

        monkeypatch.setattr(ex, "evaluate", counted)
        report = vc.check_hjb_subsolution(V, bumped)
        assert sum(calls) == 1
        assert report.violations
        assert report == vc.check_hjb_subsolution(V, merged)

    def test_bad_gap_shape_rejected(self, problem):
        V = frozen_terminal(GRID)
        with pytest.raises(ConfigError):
            vc.check_qvi_subsolution(V, problem, gap=np.zeros((3, 3)))

    def test_json_and_csv_outputs(self, problem, tmp_path):
        V = frozen_terminal(GRID)
        report = vc.check_hjb_subsolution(V, problem)
        payload = report.to_dict()
        assert payload["variant"] == vc.VARIANT_HJB_SUB
        assert payload["passed"] is False
        rows = report.violations
        assert payload["violations"]["rows"] == len(rows)
        assert payload["violations"]["nodes"] == len(node_keys(rows))
        # the worst row is the first with the smallest margin
        j = np.flatnonzero(rows.margin == rows.margin.min())[0]
        assert payload["violations"]["worst"] == {
            "t_index": rows.t_index[j], "x_index": [rows.x_index[j, 0]],
            "margin": rows.margin.min()}
        assert payload["constraint_violations"] == {"rows": 0, "nodes": 0,
                                                    "worst": None}
        path = tmp_path / "violations.csv"
        write_table(str(path), *report.table())
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "kind,t_index,x_index,t,x,a,p,kappa,kappa_eff,margin"
        assert len(lines) == 1 + len(report.violations)
        first = lines[1].split(",")
        assert first[0] == "probe"
        assert float(first[3]) == pytest.approx(report.violations.t[0])


# ------------------------------------------------ scan against references ----

def touches_every_offset(Vv, center, a, p, kappa_eff, side, grid, slack):
    """Reference for viscosity._touches: every probe tested on every
    neighbor, in itertools.product order."""
    steps = (grid.dt,) + grid.dx
    r = vc.RADIUS
    sign = -1.0 if side == "sub" else 1.0
    V0 = Vv[center]
    ok = np.ones(np.shape(V0), dtype=bool)
    for off in itertools.product(range(-r, r + 1), repeat=len(center)):
        if not any(off):
            continue
        neighbor = tuple(c + o for c, o in zip(center, off))
        lin = a * (off[0] * steps[0])
        dist2 = (off[0] * steps[0]) ** 2
        for d in range(grid.n):
            step = off[1 + d] * steps[1 + d]
            lin = lin + p[d] * step
            dist2 += step ** 2
        lhs = Vv[neighbor] - V0 - lin + sign * 0.5 * kappa_eff * dist2
        ok &= (lhs <= slack) if side == "sub" else (lhs >= -slack)
    return ok


def scan_every_pass(field, side, base_tol, unit, gap, sees_gap):
    """Reference for viscosity._scan_violations: one full-array pass per
    (combo, slope, curvature), each candidate set sent whole to
    touches_every_offset, rows in the same order."""
    grid = field.grid
    n = grid.n
    r = vc.RADIUS
    if sees_gap:
        gap_centers = vc._block(gap, (0,) * gap.ndim, r)
        below = gap_centers > 2.0 * unit
    blocks = [(np.empty(0, dtype=np.intp), np.empty((0, n), dtype=np.intp),
               np.empty(0), np.empty((0, n)), np.empty(0), np.empty(0),
               np.empty(0))]
    for combo, ham in sorted(field.ham.items()):
        for a_choice in range(3):
            pde = field.a_cand[a_choice] + ham
            for kappa in vc.CURVATURES:
                tol = base_tol + kappa * field.curv_scale * unit
                if side == "sub":
                    cond = pde < -tol
                else:
                    cond = pde > tol
                    if sees_gap == "min":
                        cond &= gap_centers > tol
                    elif sees_gap == "below":
                        cond &= below
                if not cond.any():
                    continue
                cand_idx = np.nonzero(cond)
                a = field.a_cand[a_choice][cand_idx]
                p_list = [field.p_cand[combo[d]][d][cand_idx]
                          for d in range(n)]
                kappa_eff = kappa * field.curv_scale[cand_idx]
                keep = touches_every_offset(
                    field.Vv, tuple(ci + r for ci in cand_idx), a, p_list,
                    kappa_eff, side, grid, field.slack)
                if not keep.any():
                    continue
                pde_k = pde[cand_idx][keep]
                if side == "sub":
                    margin = pde_k
                elif sees_gap == "min":
                    margin = -np.minimum(pde_k, gap_centers[cand_idx][keep])
                else:
                    margin = -pde_k
                blocks.append((
                    cand_idx[0][keep],
                    np.column_stack([i[keep] for i in cand_idx[1:]]),
                    a[keep], np.column_stack([pl[keep] for pl in p_list]),
                    np.full(margin.shape, kappa), kappa_eff[keep], margin))
    t_index, x_index, a, p, kappa, kappa_eff, margin = (
        np.concatenate(column) for column in zip(*blocks))
    order = np.lexsort((*p.T[::-1], a, kappa, *x_index.T[::-1], t_index))
    return vc._rows(grid, t_index[order] + r, x_index[order] + r,
                    margin[order], a=a[order], p=p[order], kappa=kappa[order],
                    kappa_eff=kappa_eff[order])


def scan_rows(V, problem, gap, factors):
    """{(variant, factor): (scan rows, reference rows)} over every notion;
    notions that scan alike share one run."""
    field = vc._ProbeField(V, problem)
    unit = V.grid.tolerance_unit
    runs = {}
    for factor in factors:
        for variant, (side, _, sees_gap) in vc._NOTIONS.items():
            args = (field, side, factor * unit, unit, gap, sees_gap)
            key = (side, sees_gap, factor)
            if key not in runs:
                runs[key] = (vc._scan_violations(*args),
                             scan_every_pass(*args))
            yield (variant, factor), runs[key]


def assert_same_rows(V, problem, gap, factors):
    """Every notion's rows equal the reference's; returns the row counts."""
    counts = {}
    for key, (rows, reference) in scan_rows(V, problem, gap, factors):
        assert rows == reference, key
        counts[key] = len(rows)
    return counts


def noisy(V, scale, seed):
    rng = np.random.default_rng(seed)
    return GridFunction(V.grid, V.values
                        + scale * rng.standard_normal(V.grid.shape))


def tilted(V, slope):
    """V + slope*t: a + H moves by the slope and touching stays, so every
    admitted probe breaks one side's inequality for a large enough slope."""
    t = V.grid.t.reshape((-1,) + (1,) * V.grid.n)
    return GridFunction(V.grid, V.values + slope * t)


def two_dimensional_fixture():
    problem = make_problem(H="-4*p1 - 4*p2", h="x1 + x2",
                           ell="0.3 + 0.2*(xi1 + xi2)", n=2)
    grid = Grid(T=1.0, t_nodes=13, x_min=(-2.0, -2.0), x_max=(2.0, 2.0),
                x_nodes=(21, 21))
    return problem, sample(ex.parse("x1 + x2 - t", {"t", "x1", "x2"}), grid)


class TestScanMatchesReference:
    """The scan finds flat-probe candidates once per slope and drops a
    probe at its first refuting neighbor; its rows must equal those of a
    full pass per curvature with every neighbor tested."""

    def test_separation_profile_every_notion(self):
        # the reproduce-example box; every probe is admitted once tilted,
        # so the tilted profile runs on the coarser grid
        instance = exm.build_instance(0.5, 0.05)
        problem = instance.problem()
        for nt, nx in ((201, 701), (101, 351)):
            grid, _ = exm.anchor_grid(instance, nt, nx)
            V = exm.sample_value_function(instance, grid)
            gap = vc.obstacle_gap(V, problem)
            assert_same_rows(V, problem, gap, (0.1, 1.0, 8.0, 10.0, 12.0))
        # N[V] - V stays below l0 = 0.05 < 2*unit here; doubled, the
        # modified check sees centers strictly below the obstacle
        for tilt in (1.0, -1.0):
            counts = assert_same_rows(tilted(V, tilt), problem, 2.0 * gap,
                                      (1.0,))
            assert all(counts[v, 1.0] for v in vc._NOTIONS
                       if (vc._NOTIONS[v][0] == "super") == (tilt > 0))

    def test_plane_solution(self):
        cfg = load_problem(PLANE.read_text())
        solved = solve_qvi(cfg.problem, cfg.grid)
        gap = solved.obstacle_gap.values
        assert_same_rows(solved.V, cfg.problem, gap, (0.1, 1.0, 10.0))
        for tilt in (5.0, -5.0):
            counts = assert_same_rows(tilted(solved.V, tilt), cfg.problem,
                                      gap, (1.0,))
            side = vc.VARIANT_HJB_SUPER if tilt > 0 else vc.VARIANT_HJB_SUB
            assert counts[side, 1.0]

    def test_two_dimensional_fixture(self):
        problem, V = two_dimensional_fixture()
        gap = vc.obstacle_gap(V, problem)
        counts = assert_same_rows(V, problem, gap, (10.0,))
        assert counts[vc.VARIANT_HJB_SUB, 10.0] == 127575
        # noisy and tilted to the super side, with a gap that opens only
        # two columns of x2
        gap = np.full(V.grid.shape, -1.0)
        gap[..., 7:9] = 1.0
        counts = assert_same_rows(noisy(tilted(V, 20.0), 1e-2, 1), problem,
                                  gap, (1.0,))
        assert 0 < counts[vc.VARIANT_QVI_SUPER_MODIFIED, 1.0] \
            < counts[vc.VARIANT_HJB_SUPER, 1.0]

    def test_one_touching_test_per_pass(self, monkeypatch):
        # the three curvatures of a (combo, slope) pass share one touching
        # call: at most 9 combos x 3 slopes, not one call per curvature
        problem, V = two_dimensional_fixture()
        calls = []
        touches = vc._touches

        def counted(*args):
            calls.append(args)
            return touches(*args)

        monkeypatch.setattr(vc, "_touches", counted)
        report = vc.check_hjb_subsolution(V, problem)
        assert len(report.violations) == 127575
        assert len(calls) <= 27

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_noisy_profiles_admit_probes(self, problem, seed):
        V = noisy(analytic_profile(GRID), 1e-3, seed)
        gap = vc.obstacle_gap(V, problem)
        counts = assert_same_rows(V, problem, gap, (0.1, 1.0, 10.0))
        assert all(counts[v, 0.1] for v in (vc.VARIANT_HJB_SUB,
                                            vc.VARIANT_HJB_SUPER,
                                            vc.VARIANT_QVI_SUPER_CLASSICAL))

    def test_values_near_overflow(self, problem):
        # second differences overflow: curv_scale is inf or NaN, where
        # every curvature's tolerance, flat included, admits nothing
        V = GridFunction(GRID, 1e308 * np.cos(3.0 * analytic_profile(GRID)
                                              .values))
        gap = np.where(np.arange(GRID.x_nodes[0]) % 2, 1.0, -1.0) \
            * np.ones(GRID.shape)
        with np.errstate(all="ignore"):
            curv = vc._ProbeField(V, problem).curv_scale
            counts = assert_same_rows(V, problem, gap, (0.1, 10.0))
        assert np.isinf(curv).any() and np.isnan(curv).any()
        assert all(counts[v, 0.1] for v in vc._NOTIONS)

    @pytest.mark.parametrize("side", ["sub", "super"])
    def test_touches_matches_every_offset(self, side):
        problem, V = two_dimensional_fixture()
        V = noisy(V, 1e-2, 2)
        field = vc._ProbeField(V, problem)
        rng = np.random.default_rng(3)
        centers = tuple(rng.integers(0, s, 5000) for s in field.center_shape)
        a = field.a_cand[2][centers] + rng.normal(0.0, 0.05, 5000)
        p = [field.p_cand[2][d][centers] + rng.normal(0.0, 0.05, 5000)
             for d in range(2)]
        kappa_eff = rng.choice(vc.CURVATURES, 5000) * field.curv_scale[centers]
        shifted = tuple(c + vc.RADIUS for c in centers)
        args = (field.Vv, shifted, a, p, kappa_eff, side, field.grid,
                field.slack)
        got = vc._touches(*args)
        assert np.array_equal(got, touches_every_offset(*args))
        assert 0 < got.sum() < len(got)
        for j in np.flatnonzero(got)[:5].tolist() + \
                np.flatnonzero(~got)[:5].tolist():
            assert vc._probe_admitted(
                V, int(shifted[0][j]), [int(shifted[1][j]),
                                        int(shifted[2][j])],
                float(a[j]), [float(p[0][j]), float(p[1][j])],
                float(kappa_eff[j]), side) == got[j]


# ------------------------------------------------ several notions at once ----

SINGLE_CHECKERS = {
    vc.VARIANT_HJB_SUB: vc.check_hjb_subsolution,
    vc.VARIANT_HJB_SUPER: vc.check_hjb_supersolution,
    vc.VARIANT_QVI_SUB: vc.check_qvi_subsolution,
    vc.VARIANT_QVI_SUPER_CLASSICAL: vc.check_qvi_supersolution_classical,
    vc.VARIANT_QVI_SUPER_MODIFIED: vc.check_qvi_supersolution_modified,
}


def assert_same_report(got, want):
    """Every scalar and every Violations column, dtype included."""
    for spec in fields(vc.ViscosityReport):
        a, b = getattr(got, spec.name), getattr(want, spec.name)
        if not isinstance(b, vc.Violations):
            assert a == b, spec.name
            continue
        for column in fields(vc.Violations):
            x, y = getattr(a, column.name), getattr(b, column.name)
            key = (spec.name, column.name)
            assert (x is None) == (y is None), key
            if y is not None:
                assert x.dtype == y.dtype and np.array_equal(x, y), key


def separation_profile(nt, nx):
    instance = exm.build_instance(0.5, 0.05)
    grid, _ = exm.anchor_grid(instance, nt, nx)
    return instance.problem(), exm.sample_value_function(instance, grid)


class TestCheckNotions:
    """One check_notions call over several notions reports, notion by
    notion, what the single checkers report."""

    def cases(self):
        # the separation profile: constraint rows, and a gap computed by
        # the driver itself
        problem, V = separation_profile(101, 351)
        yield "example", problem, V, None
        # tilted up on a coarser grid: super-side probe rows; the doubled
        # gap puts centers strictly below the obstacle
        problem, V = separation_profile(41, 141)
        yield ("example tilted", problem, tilted(V, 1.0),
               2.0 * vc.obstacle_gap(V, problem))
        # noisy plane with a gap that opens two columns of x2: sub-side
        # probe rows, constraint rows and super-side terminal rows
        problem, V = two_dimensional_fixture()
        gap = np.full(V.grid.shape, -1.0)
        gap[..., 7:9] = 1.0
        yield "plane", problem, noisy(V, 1e-2, 2), gap

    def test_reports_equal_the_single_checkers(self):
        variants = tuple(vc._NOTIONS)
        seen = {kind: 0 for kind in ("probe", "constraint", "terminal")}
        for name, problem, V, gap in self.cases():
            together = vc.check_notions(V, problem, variants, 3.0, gap)
            assert [r.variant for r in together] == list(variants), name
            for variant, got in zip(variants, together):
                check = SINGLE_CHECKERS[variant]
                if variant in (vc.VARIANT_HJB_SUB, vc.VARIANT_HJB_SUPER):
                    want = check(V, problem, 3.0)  # takes no gap
                else:
                    want = check(V, problem, 3.0, gap=gap)
                assert_same_report(got, want)
                for kind, rows in got.kinds():
                    seen[kind] += len(rows)
        assert all(seen.values()), seen

    def test_order_follows_the_variants(self):
        problem, V = two_dimensional_fixture()
        V = noisy(V, 1e-2, 2)
        gap = np.full(V.grid.shape, -1.0)
        gap[..., 7:9] = 1.0
        order = (vc.VARIANT_QVI_SUPER_MODIFIED, vc.VARIANT_HJB_SUB,
                 vc.VARIANT_QVI_SUPER_MODIFIED)
        reports = vc.check_notions(V, problem, order, gap=gap)
        assert [r.variant for r in reports] == list(order)
        assert_same_report(reports[0], reports[2])
        assert_same_report(reports[1], vc.check_hjb_subsolution(V, problem))

    def test_transport_notions_compute_no_gap(self, monkeypatch):
        def refused(*args):
            raise AssertionError("obstacle_gap called")

        problem, V = separation_profile(41, 141)
        monkeypatch.setattr(vc, "obstacle_gap", refused)
        reports = vc.check_notions(
            V, problem, (vc.VARIANT_HJB_SUB, vc.VARIANT_HJB_SUPER))
        assert [r.passed for r in reports] == [True, True]
        with pytest.raises(AssertionError, match="obstacle_gap"):
            vc.check_notions(V, problem, (vc.VARIANT_QVI_SUB,))
