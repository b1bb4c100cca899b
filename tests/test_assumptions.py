"""Audit checks: frozen margins, exact invariants, and report plumbing."""

import json

import numpy as np
import pytest

from qvilab import assumptions as au
from qvilab.core import (AssumptionConstants, Cone, ConfigError, Grid,
                         ImpulseProblem, sample)
from qvilab import expr as ex


def constants_with(**overrides):
    base = dict(L=1.0, mu=0.0, h0=3.0, ell0=0.05, alpha=0.05, beta=0.5,
                delta0=0.05, C=16.0, gamma=0.0, kappa=0.25)
    base.update(overrides)
    return AssumptionConstants(**base)


def make_problem(H="-p1", h="x1*exp(-x1)", ell="0.05 + 0.05*xi1", n=1, T=1.0):
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


def spec_1d(n_samples=512, grid=None, **kw):
    return au.SamplerSpec(x_min=(-1.0,), x_max=(3.0,), n_samples=n_samples,
                          grid=grid, **kw)


GRID = Grid(T=1.0, t_nodes=21, x_min=(-1.0,), x_max=(3.0,), x_nodes=(81,))


class TestSamplerSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            au.SamplerSpec(x_min=(0.0,), x_max=(0.0,))
        with pytest.raises(ConfigError):
            au.SamplerSpec(x_min=(0.0, 1.0), x_max=(2.0,))
        with pytest.raises(ConfigError):
            au.SamplerSpec(x_min=(0.0,), x_max=(1.0,), xi_max=-2.0)
        with pytest.raises(ConfigError):
            au.SamplerSpec(x_min=(0.0,), x_max=(1.0,), n_samples=4)

    def test_default_sampler_wraps_grid(self):
        spec = au.default_sampler(GRID)
        assert spec.x_min == GRID.x_min and spec.x_max == GRID.x_max
        assert spec.grid is GRID
        assert spec.xi_max == pytest.approx(GRID.box_diagonal)

    def test_dimension_mismatch_rejected(self):
        problem = make_problem()
        bad = au.SamplerSpec(x_min=(0.0, 0.0), x_max=(1.0, 1.0))
        with pytest.raises(ConfigError):
            au.audit_H1(problem, constants_with(), bad)
        with pytest.raises(ConfigError):
            au.audit_H2(problem, constants_with(), bad)


class TestTerminalLowerBound:
    def test_tight_box_minimum_with_small_floor_fails(self):
        # min of x*exp(-x) on [-1, 3] is -e at the node x = -1
        problem = make_problem()
        report = au.audit_H1(problem, constants_with(h0=0.5), spec_1d(grid=GRID))
        check = report.check("terminal lower bound")
        assert check.worst_margin == pytest.approx(0.5 - np.e, abs=1e-12)
        assert not check.passed
        assert check.worst_point["x"] == [pytest.approx(-1.0)]

    def test_large_floor_passes(self):
        problem = make_problem()
        report = au.audit_H1(problem, constants_with(h0=3.0), spec_1d(grid=GRID))
        check = report.check("terminal lower bound")
        assert check.worst_margin == pytest.approx(3.0 - np.e, abs=1e-12)
        assert check.passed

    def test_point_counts(self):
        report = au.audit_H1(make_problem(), constants_with(), spec_1d(grid=GRID))
        assert report.check("terminal lower bound").points_tested == 512 + 81
        assert report.check("hamiltonian growth").points_tested == 512 + 21 * 81


class TestHamiltonianGrowth:
    def test_transport_margin(self):
        # envelope L*(1+|x|^mu)*(1+|p|) with mu = 0 doubles the constant,
        # so |H| = |p| leaves slack 2 + |p|, attained exactly at the p = 0
        # rows the grid contributes
        report = au.audit_H1(make_problem(), constants_with(), spec_1d(grid=GRID))
        check = report.check("hamiltonian growth")
        assert check.worst_margin == pytest.approx(2.0, abs=1e-12)
        assert check.passed

    def test_bilinear_fails_on_wide_box(self):
        report = au.audit_H1(make_problem(H="p1*x1"), constants_with(),
                             spec_1d(grid=GRID))
        check = report.check("hamiltonian growth")
        assert check.worst_margin < -1.0
        assert not check.passed

    def test_domain_error_masks_and_continues(self):
        report = au.audit_H1(make_problem(H="sqrt(p1) - p1"), constants_with(),
                             spec_1d())
        check = report.check("hamiltonian growth")
        assert "skipped" in check.note
        assert 0 < check.points_tested < 512
        assert np.isfinite(check.worst_margin)


class TestHamiltonianModulus:
    def test_p_only_hamiltonian_has_zero_variation(self):
        report = au.audit_H1(make_problem(), constants_with(), spec_1d())
        check = report.check("hamiltonian modulus")
        assert check.worst_margin == 0.0
        assert check.passed

    def test_oscillatory_coefficient_decreases_across_scales(self):
        report = au.audit_H1(make_problem(H="sin(3*x1)*p1 - p1"),
                             constants_with(), spec_1d())
        check = report.check("hamiltonian modulus")
        assert check.passed
        maxima = check.worst_point["maxima"]
        assert maxima[0] > maxima[1] > maxima[2] > 0.0


class TestCostCoercivity:
    def test_floor_dips_below_sublinear_envelope(self):
        # 0.05|xi| - 0.05*sqrt(|xi|) bottoms out at -0.0125 at |xi| = 1/4
        problem = make_problem()
        report = au.audit_H2(problem, constants_with(), spec_1d(xi_max=4.0))
        check = report.check("cost coercivity")
        assert check.worst_margin == pytest.approx(-0.0125, abs=1e-4)
        assert not check.passed
        assert check.worst_point["xi"] == [pytest.approx(0.25, abs=0.02)]

    def test_larger_fixed_cost_passes(self):
        problem = make_problem(ell="0.2 + 0.1*xi1")
        report = au.audit_H2(problem, constants_with(), spec_1d(xi_max=4.0))
        assert report.check("cost coercivity").passed


class TestCostSubadditivity:
    def test_linear_cost_margin_is_exactly_fixed_cost_minus_delta(self):
        problem = make_problem(ell="0.05 + 0.05*xi1")
        report = au.audit_H2(problem, constants_with(delta0=0.05),
                             spec_1d(xi_max=4.0))
        check = report.check("cost subadditivity")
        assert abs(check.worst_margin - 0.0) <= 1e-12
        assert check.passed

    def test_two_dimensional_linear_cost(self):
        problem = make_problem(H="-p1 - p2", h="x1 + x2",
                               ell="0.3 + 0.2*(xi1 + xi2)", n=2)
        spec = au.SamplerSpec(x_min=(-1.0, -1.0), x_max=(3.0, 3.0), xi_max=4.0)
        report = au.audit_H2(problem, constants_with(delta0=0.1), spec)
        check = report.check("cost subadditivity")
        assert abs(check.worst_margin - 0.2) <= 1e-12
        assert check.passed

    def test_constant_cost(self):
        problem = make_problem(ell="1")
        report = au.audit_H2(problem, constants_with(delta0=0.9), spec_1d())
        check = report.check("cost subadditivity")
        assert check.worst_margin == pytest.approx(0.1, abs=1e-12)
        assert check.passed

    def test_strictly_concave_cost_fails_without_slack(self):
        # sqrt cost: chaining two jumps can beat one by less than delta0
        problem = make_problem(ell="0.01 + sqrt(xi1)")
        report = au.audit_H2(problem, constants_with(delta0=0.05), spec_1d())
        check = report.check("cost subadditivity")
        # margin approaches 0.01 - delta0 as one impulse shrinks to zero
        assert check.worst_margin < 0.0
        assert not check.passed


class TestCostModulus:
    def test_x_independent_cost_has_zero_variation(self):
        report = au.audit_H2(make_problem(), constants_with(), spec_1d())
        check = report.check("cost modulus")
        assert check.worst_margin == 0.0
        assert check.passed

    def test_spatial_wobble_decreases_across_scales(self):
        problem = make_problem(ell="0.05 + 0.05*xi1 + 0.01*sin(2*x1)")
        report = au.audit_H2(problem, constants_with(), spec_1d())
        check = report.check("cost modulus")
        assert check.passed
        maxima = check.worst_point["maxima"]
        assert maxima[0] > maxima[1] > maxima[2] > 0.0


def separation_value(grid):
    e = ex.parse("(x1 - 1 + t)*exp(-(x1 - 1 + t))", {"t", "x1"})
    return sample(e, grid)


class TestComparisonHypotheses:
    def test_identical_pair_orders_are_exactly_zero(self):
        problem = make_problem()
        V = separation_value(GRID)
        report = au.audit_comparison_hypotheses(
            (problem, problem), constants_with(), V, V,
            spec_1d(grid=GRID))
        for name in ("terminal order", "hamiltonian order", "cost order"):
            check = report.check(name)
            assert check.worst_margin == 0.0
            assert check.passed
        assert report.check("value growth").passed
        assert report.check("value holder").passed
        assert report.passed

    def test_shifted_terminal_gives_constant_margin(self):
        lhs = make_problem()
        rhs = make_problem(h="x1*exp(-x1) + 0.1")
        V = separation_value(GRID)
        report = au.audit_comparison_hypotheses(
            (lhs, rhs), constants_with(), V, V, spec_1d(grid=GRID))
        assert report.check("terminal order").worst_margin == pytest.approx(
            0.1, abs=1e-12)

    def test_order_violation_is_caught(self):
        lhs = make_problem()
        rhs = make_problem(h="x1*exp(-x1) - 0.1")
        V = separation_value(GRID)
        report = au.audit_comparison_hypotheses(
            (lhs, rhs), constants_with(), V, V, spec_1d(grid=GRID))
        check = report.check("terminal order")
        assert check.worst_margin == pytest.approx(-0.1, abs=1e-12)
        assert not check.passed

    def test_hamiltonian_and_cost_offsets(self):
        lhs = make_problem()
        rhs = make_problem(H="-p1 + 0.05", ell="0.05 + 0.05*xi1 + 0.01")
        V = separation_value(GRID)
        report = au.audit_comparison_hypotheses(
            (lhs, rhs), constants_with(), V, V, spec_1d(grid=GRID))
        assert report.check("hamiltonian order").worst_margin == pytest.approx(
            0.05, abs=1e-12)
        assert report.check("cost order").worst_margin == pytest.approx(
            0.01, abs=1e-12)

    def test_growth_bound_fails_for_small_constant(self):
        # |V| reaches 2e^2 at the corner node (t, x) = (0, -1), beating
        # C*(1+|x|^0) = 2
        problem = make_problem()
        V = separation_value(GRID)
        report = au.audit_comparison_hypotheses(
            (problem, problem), constants_with(C=1.0), V, V,
            spec_1d(grid=GRID))
        check = report.check("value growth")
        assert check.worst_margin == pytest.approx(2.0 - 2.0 * np.e ** 2,
                                                   rel=1e-12)
        assert not check.passed
        assert check.worst_point["t"] == pytest.approx(0.0)
        assert check.worst_point["x"] == [pytest.approx(-1.0)]

    def test_mismatched_pairs_rejected(self):
        one = make_problem()
        two = make_problem(H="-p1 - p2", h="x1 + x2",
                           ell="0.3 + 0.2*(xi1 + xi2)", n=2)
        V = separation_value(GRID)
        with pytest.raises(ConfigError, match="dimension"):
            au.audit_comparison_hypotheses((one, two), constants_with(), V, V,
                                           spec_1d(grid=GRID))
        short = make_problem(T=0.5)
        with pytest.raises(ConfigError, match="horizon"):
            au.audit_comparison_hypotheses((one, short), constants_with(), V, V,
                                           spec_1d(grid=GRID))
        other_grid = Grid(T=1.0, t_nodes=11, x_min=(-1.0,), x_max=(3.0,),
                          x_nodes=(41,))
        with pytest.raises(ConfigError, match="share the grid"):
            au.audit_comparison_hypotheses(
                (one, one), constants_with(), V, separation_value(other_grid),
                spec_1d(grid=GRID))


class TestReportPlumbing:
    def test_pass_flag_matches_margin_and_tolerance(self):
        problem = make_problem()
        reports = [
            au.audit_H1(problem, constants_with(h0=0.5), spec_1d(grid=GRID)),
            au.audit_H2(problem, constants_with(), spec_1d()),
        ]
        for report in reports:
            for check in report.checks:
                assert check.passed == (check.worst_margin >= -check.tolerance)
            assert report.passed == all(c.passed for c in report.checks)

    def test_json_round_trip(self):
        report = au.audit_H1(make_problem(), constants_with(), spec_1d())
        payload = json.loads(json.dumps(report.to_dict(), indent=2))
        assert payload["passed"] == report.passed
        assert [c["name"] for c in payload["checks"]] == \
            [c.name for c in report.checks]
        assert isinstance(payload["checks"][0]["worst_point"]["x"], list)

    def test_only_nan_margins_are_skipped(self):
        # NaN marks a masked sample; an infinite margin is a margin
        points = {"x": np.array([0.0, 1.0, 2.0])}
        check = au._min_check("c", [np.inf, np.nan, np.inf], points, 0.0)
        assert (check.points_tested, check.worst_margin) == (2, np.inf)
        assert check.passed and check.worst_point == {"x": 0.0}
        check = au._min_check("c", [1.0, -np.inf, np.nan], points, 0.0)
        assert (check.points_tested, check.worst_margin) == (2, -np.inf)
        assert not check.passed and check.worst_point == {"x": 1.0}
        check = au._min_check("c", [np.nan] * 3, points, 0.0)
        assert check.points_tested == 0 and np.isnan(check.worst_margin)
        assert not check.passed and check.note == "no valid samples"

    def test_summary_and_lookup(self):
        report = au.audit_H1(make_problem(), constants_with(h0=0.5),
                             spec_1d(grid=GRID))
        with pytest.raises(KeyError):
            report.check("no such check")


class TestMonotoneInSamples:
    def test_halton_prefix_property(self):
        a = au._halton(3, 64, 11)
        b = au._halton(3, 256, 11)
        assert np.array_equal(a, b[:64])

    def test_min_margins_never_increase_with_more_samples(self):
        problem = make_problem(H="sin(3*x1)*p1 - p1",
                               ell="0.05 + 0.05*xi1 + 0.01*sin(2*x1)")
        names = ["terminal lower bound", "hamiltonian growth",
                 "cost coercivity", "cost subadditivity"]
        margins = {name: [] for name in names}
        for n_samples in (64, 128, 256, 512):
            spec = spec_1d(n_samples=n_samples)
            h1 = au.audit_H1(problem, constants_with(), spec)
            h2 = au.audit_H2(problem, constants_with(), spec)
            for name in names[:2]:
                margins[name].append(h1.check(name).worst_margin)
            for name in names[2:]:
                margins[name].append(h2.check(name).worst_margin)
        for name in names:
            seq = margins[name]
            assert all(b <= a for a, b in zip(seq, seq[1:])), (name, seq)
