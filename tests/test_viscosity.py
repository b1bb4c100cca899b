"""Viscosity checkers: probe mechanics, verdicts, and cross-check identities."""

import json
from dataclasses import replace
from hashlib import sha256

import numpy as np
import pytest

from qvilab import example as exm
from qvilab import expr as ex
from qvilab import viscosity as vc
from qvilab.core import Cone, ConfigError, Grid, GridFunction, ImpulseProblem, sample
from qvilab.obstacle import SearchParams
from qvilab.solver import solve_qvi


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
SEARCH = SearchParams(xi_max=5.0, refine_levels=6)


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
    return solve_qvi(problem, GRID, (1.05,), SEARCH)


@pytest.fixture(scope="module")
def corpus(problem, solved):
    """Named grid functions with varied verdict profiles, plus shared
    obstacle gaps."""
    members = {}
    members["solved"] = (solved.V, solved.obstacle_gap)
    shifted = GridFunction(GRID, solved.V.values + 5.0)
    members["shifted"] = (shifted, vc.obstacle_gap(shifted, problem, SEARCH))
    profile = analytic_profile(GRID)
    members["profile"] = (profile, vc.obstacle_gap(profile, problem, SEARCH))
    frozen = frozen_terminal(GRID)
    members["frozen"] = (frozen, vc.obstacle_gap(frozen, problem, SEARCH))
    x = GRID.axes[0]
    bump = 0.4 * np.exp(-(((x - 1.5) / 0.3) ** 2))
    corrupted = GridFunction(GRID, solved.V.values + bump)
    members["corrupted"] = (corrupted, vc.obstacle_gap(corrupted, problem,
                                                       SEARCH))
    flat = GridFunction(GRID, np.full(GRID.shape, -1.0e6))
    members["flat"] = (flat, vc.obstacle_gap(flat, problem, SEARCH))
    return members


class TestProbeSpec:
    def test_validation(self, problem):
        # rejected before any obstacle gap is computed
        V = frozen_terminal(GRID)
        for checker in (vc.check_hjb_subsolution, vc.check_hjb_supersolution,
                        vc.check_qvi_subsolution,
                        vc.check_qvi_subsolution_decomposed,
                        vc.check_qvi_supersolution_classical,
                        vc.check_qvi_supersolution_modified):
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
        assert not vc.probe_admitted(self.V, 5, (20,), 0.0, (0.0,), 0.0, "sub")

    def test_curved_probe_touches_it(self):
        # second difference of x^2 is exactly 2, so kappa_eff = 2 closes
        # the quadratic wiggle exactly
        assert vc.probe_admitted(self.V, 5, (20,), 0.0, (0.0,), 2.0, "sub")

    def test_super_side_admits_linear_probe_at_minimum(self):
        assert vc.probe_admitted(self.V, 5, (20,), 0.0, (0.0,), 0.0, "super")

    def test_probe_family_size_and_scaling(self, problem):
        fam = vc.probe_family(self.V, problem, 5, (20,))
        assert len(fam) == 27
        kappas = sorted({k for (_, _, k, _) in fam})
        assert kappas == [0.0, 1.0, 10.0]
        eff = sorted({ke for (_, _, k, ke) in fam if k == 1.0})
        assert eff[-1] == pytest.approx(2.0, abs=1e-9)

    def test_center_without_neighborhood_rejected(self, problem):
        with pytest.raises(ConfigError):
            vc.probe_family(self.V, problem, 1, (20,))
        with pytest.raises(ConfigError):
            vc.probe_admitted(self.V, 5, (39,), 0.0, (0.0,), 0.0, "sub")


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
        for v in report.violations.to_dicts()[:50]:
            # margin is a + H(p) = a - p for the transport Hamiltonian
            assert v["margin"] == pytest.approx(v["a"] - v["p"][0], abs=1e-12)
            assert v["margin"] < -(report.pde_tolerance
                                   + v["kappa_eff"] * unit)
            assert vc.probe_admitted(V, v["t_index"], v["x_index"], v["a"],
                                     v["p"], v["kappa_eff"], "sub")

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
        v = report.violations.to_dicts()[0]
        assert v["a"] == pytest.approx(-1.0, abs=1e-12)
        assert v["p"] == [pytest.approx(1.0), pytest.approx(1.0)]
        assert v["margin"] == pytest.approx(-9.0, abs=1e-12)
        # all 127,575 probe rows, pinned byte for byte
        text = json.dumps(report.to_dict(), indent=2)
        assert sha256(text.encode()).hexdigest() == \
            "f133d4d7acdc6f0953ebb971292bd8e5b00a715c9dd2671ee62867de7ad5b6fd"
        path = tmp_path / "violations.csv"
        vc.write_violations_csv(report, path)
        assert sha256(path.read_bytes()).hexdigest() == \
            "6ec0800e246c84085329f0f3e1852cfa3ae387d1f7a6586eb3f556eddb5016d4"
        sup = vc.check_hjb_supersolution(V, problem)
        assert not sup.violations


@pytest.fixture(scope="module")
def fine(problem):
    grid = Grid(T=1.0, t_nodes=101, x_min=(-0.5,), x_max=(4.0,),
                x_nodes=(351,))
    return solve_qvi(problem, grid, (1.05,), SEARCH)


@pytest.fixture(scope="module")
def verdicts(problem):
    grid = Grid(T=1.0, t_nodes=101, x_min=(-1.0,), x_max=(4.0,),
                x_nodes=(351,))
    V = analytic_profile(grid)
    gap = vc.obstacle_gap(V, problem, SEARCH)
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
        gap_s = vc.obstacle_gap(shifted, problem, SEARCH)
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
        assert len(payload["violations"]) == len(report.violations)
        path = tmp_path / "violations.csv"
        vc.write_violations_csv(report, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("kind,")
        assert len(lines) == 1 + len(report.violations)
        first = lines[1].split(",")
        assert first[0] == "probe"
        assert float(first[3]) == pytest.approx(report.violations.t[0])
