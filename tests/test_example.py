"""Separation instance: derived constants, bump support, grid verdicts."""

import json
import math

import numpy as np
import pytest

from qvilab import expr as ex
from qvilab import viscosity as vc
from qvilab.core import ConfigError, Grid
from qvilab.example import (
    COST_THRESHOLD,
    anchor_grid,
    build_instance,
    continuum_gap,
    measure_obstacle_gap,
    psi,
    psi_prime,
    sample_value_function,
    verify_separation,
)


@pytest.fixture(scope="module")
def inst():
    return build_instance(0.5, 0.05)


@pytest.fixture(scope="module")
def report(inst):
    grid = Grid(T=1.0, t_nodes=101, x_min=(-1.0,), x_max=(4.0,),
                x_nodes=(351,))
    return verify_separation(inst, grid)


class TestBuildInstance:
    def test_reference_constants(self, inst):
        assert inst.x0 == 1.5
        assert inst.xi1 == pytest.approx(0.160, abs=2e-3)
        assert inst.xi2 == pytest.approx(3.14, abs=1e-2)
        assert 0.0 < inst.xi1 < 1.0 < inst.xi2
        target = 0.05 * math.e
        for root in (inst.xi1, inst.xi2):
            assert abs(root * math.exp(-root) - target) <= 1e-10
        assert inst.psi_min == pytest.approx(0.2730, abs=1e-3)
        assert inst.value_at_anchor == pytest.approx(1.0 / math.e, abs=1e-15)
        assert inst.gap == pytest.approx(-0.0949, abs=1e-3)
        assert not inst.needs_smaller_cost

    def test_profitable_band_and_delta(self, inst):
        assert 0.45 < inst.u_lo < 0.52
        assert 2.55 < inst.u_hi < 2.70
        assert inst.delta == pytest.approx(1.0 - inst.u_lo, abs=1e-12)
        for edge in (inst.u_lo, inst.u_hi):
            assert continuum_gap(0.05, inst.xi2, edge) \
                == pytest.approx(0.0, abs=1e-9)
        assert continuum_gap(0.05, inst.xi2, 1.0) \
            == pytest.approx(inst.gap, abs=1e-12)
        assert continuum_gap(0.05, inst.xi2, 0.3) > 0.0
        assert continuum_gap(0.05, inst.xi2, 3.0) > 0.0
        # beyond the best target only the null jump remains
        assert continuum_gap(0.05, inst.xi2, 6.0) == 0.05

    def test_slope_sign_pattern(self, inst):
        before = np.linspace(0.01, inst.xi1 - 0.01, 100)
        between = np.linspace(inst.xi1 + 0.01, inst.xi2 - 0.01, 100)
        beyond = np.linspace(inst.xi2 + 0.01, inst.xi2 + 5.0, 100)
        assert np.all(psi_prime(0.05, before) > 0.0)
        assert np.all(psi_prime(0.05, between) < 0.0)
        assert np.all(psi_prime(0.05, beyond) > 0.0)
        assert psi(0.05, inst.xi2) < psi(0.05, 0.0)

    def test_cost_level_validation(self):
        with pytest.raises(ConfigError, match="out of range"):
            build_instance(0.5, 0.2)
        with pytest.raises(ConfigError, match="out of range"):
            build_instance(0.5, COST_THRESHOLD)
        with pytest.raises(ConfigError, match="out of range"):
            build_instance(0.5, 0.0)
        with pytest.raises(ConfigError):
            build_instance(1.0, 0.05)
        with pytest.raises(ConfigError):
            build_instance(-0.1, 0.05)

    def test_near_threshold_cost_is_flagged(self):
        for l0 in (0.13, 0.135):
            flagged = build_instance(0.5, l0)
            assert flagged.needs_smaller_cost
            assert flagged.gap > 0.0
            assert 0.7 < flagged.xi1 < 1.0 < flagged.xi2 < 1.45
            assert flagged.delta == 0.0
            assert flagged.g_source == ""

    def test_profitability_threshold_sits_below_the_root_threshold(self):
        assert not build_instance(0.5, 0.07).needs_smaller_cost
        assert build_instance(0.5, 0.08).needs_smaller_cost


class TestBump:
    def test_nonnegative_and_vanishing_outside_the_support(self, inst):
        g = ex.parse(inst.g_source, {"t", "x1"})
        tt, xx = np.meshgrid(np.linspace(0.0, 1.0, 81),
                             np.linspace(-1.0, 4.0, 201), indexing="ij")
        vals = np.asarray(ex.evaluate(g, {"t": tt, "x1": xx}), dtype=float)
        assert np.all(vals >= 0.0)
        r = (np.abs(tt - inst.t0) + np.abs(xx - inst.x0)) / (inst.delta / 2.0)
        assert np.all(vals[r >= 1.0] == 0.0)
        assert np.any(vals > 0.0)

    def test_peak_height_at_the_anchor(self, inst):
        g = ex.parse(inst.g_source, {"t", "x1"})
        center = float(ex.evaluate(g, {"t": inst.t0, "x1": inst.x0}))
        assert center == pytest.approx(inst.bump_height, abs=1e-15)

    def test_support_fits_inside_the_band(self, inst):
        # along the support, u = x - T + t moves by at most delta/2
        assert inst.u_lo < 1.0 - inst.delta / 2.0
        assert 1.0 + inst.delta / 2.0 < inst.u_hi


class TestSampling:
    def test_terminal_slice_is_the_payoff_exactly(self, inst):
        grid = Grid(T=1.0, t_nodes=11, x_min=(-1.0,), x_max=(4.0,),
                    x_nodes=(41,))
        V = sample_value_function(inst, grid)
        h = ex.parse("x1*exp(-x1)", {"x1"})
        assert np.array_equal(V.values[-1],
                              np.asarray(ex.evaluate(h, grid.space_env())))

    def test_profile_values(self, inst):
        grid = Grid(T=1.0, t_nodes=11, x_min=(-1.0,), x_max=(4.0,),
                    x_nodes=(41,))
        V = sample_value_function(inst, grid)
        t, x = grid.t[3], grid.axes[0][20]
        u = x - 1.0 + t
        assert V.values[3, 20] == pytest.approx(u * math.exp(-u), abs=1e-15)

    def test_horizon_mismatch_rejected(self, inst):
        grid = Grid(T=2.0, t_nodes=11, x_min=(-1.0,), x_max=(4.0,),
                    x_nodes=(41,))
        with pytest.raises(ConfigError):
            sample_value_function(inst, grid)


class TestGapAgreement:
    def test_grid_search_matches_the_closed_form(self, inst):
        measured = measure_obstacle_gap(inst)
        assert measured < 0.0
        assert abs(measured - inst.gap) <= 1e-6

    def test_box_must_contain_the_jump_target(self):
        # the measurement box grows with the jump target x0 + xi2 (6.39
        # at l0 = 0.02, t0 = 0): a clamped target would miss the closed form;
        # t0 = 1/3 and 0.123 put the anchor x0 = 2 - t0 between hundredths
        for l0 in (0.02, 0.05, 0.08):
            for t0 in (0.0, 0.5, 0.9, 1.0 / 3.0, 0.123):
                instance = build_instance(t0=t0, l0=l0)
                measured = measure_obstacle_gap(instance)
                assert abs(measured - instance.gap) <= 1e-6, (l0, t0)

    @pytest.mark.parametrize("l0", (0.12, 0.13, 0.135))
    def test_near_zero_jump_caps_the_closed_form_gap(self, l0):
        # psi(0+) - e^-1 = l0; above it, the far dip is not the cheapest jump
        flagged = build_instance(0.5, l0)
        assert flagged.psi_min - flagged.value_at_anchor > l0
        assert flagged.gap == l0
        assert abs(measure_obstacle_gap(flagged) - flagged.gap) <= 1e-6


class TestVerdicts:
    def test_classical_passes(self, report):
        assert report.classical.passed

    def test_modified_fails_only_through_the_constraint(self, report):
        assert not report.modified.passed
        assert report.modified.constraint_violations
        assert not report.modified.violations
        assert not report.modified.terminal_violations

    def test_profile_is_a_transport_subsolution_of_the_bumped_problem(
            self, report):
        assert report.sub.passed

    def test_separation_summary_flags(self, report):
        assert report.separated
        assert report.violations_in_band
        payload = json.loads(json.dumps(report.to_dict(), indent=2))
        assert payload["separated"] is True
        assert payload["classical"] == "PASS"
        assert payload["modified"] == "FAIL"
        assert payload["constraint_violations"] > 0

    def test_tolerance_factor_reaches_every_checker(self, inst):
        grid = Grid(T=1.0, t_nodes=21, x_min=(-1.0,), x_max=(4.0,),
                    x_nodes=(51,))
        rep = verify_separation(inst, grid, 3.0)
        unit = grid.dt + grid.dx[0]
        for checked in (rep.classical, rep.modified, rep.sub):
            assert checked.pde_tolerance == 3.0 * unit
        with pytest.raises(ConfigError, match="tol_factor"):
            verify_separation(inst, grid, 0.0)

    def test_three_notions_share_one_field_and_one_gap(self, inst,
                                                      monkeypatch):
        # one probe field for all three checkers, and N on each slice once
        fields, slices = [], []
        field_class = vc._ProbeField
        evaluate = vc.evaluate_slice_values

        class Counted(field_class):
            def __init__(self, *args):
                fields.append(args)
                super().__init__(*args)

        def counted(*args, **kwargs):
            slices.append(args[2])
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(vc, "_ProbeField", Counted)
        monkeypatch.setattr(vc, "evaluate_slice_values", counted)
        grid = Grid(T=1.0, t_nodes=21, x_min=(-1.0,), x_max=(4.0,),
                    x_nodes=(51,))
        with pytest.raises(ConfigError, match="tol_factor"):
            verify_separation(inst, grid, 0.0)
        assert not fields and not slices
        rep = verify_separation(inst, grid)
        assert len(fields) == 1
        assert slices == list(grid.t)
        assert [r.variant for r in (rep.sub, rep.classical, rep.modified)] \
            == [vc.VARIANT_HJB_SUB, vc.VARIANT_QVI_SUPER_CLASSICAL,
                vc.VARIANT_QVI_SUPER_MODIFIED]

    def test_flagged_instance_passes_both_checks(self):
        flagged = build_instance(0.5, 0.13)
        grid = Grid(T=1.0, t_nodes=61, x_min=(-1.0,), x_max=(4.0,),
                    x_nodes=(141,))
        rep = verify_separation(flagged, grid)
        assert rep.classical.passed and rep.modified.passed
        assert not rep.separated
        assert rep.violations_in_band
        assert "shrink" in rep.notes


class TestSeparationUnderRefinement:
    """The verdict pattern on the reproduce-example box at three nested
    grids: the classical check passes, the modified one fails through the
    obstacle constraint alone, and on the anchor slice N[V] - V < 0 holds
    exactly at the nodes inside the profitable band."""

    @pytest.mark.parametrize("nt, nx, constraint_rows, band_nodes", [
        (101, 351, 7974, 104),
        (201, 701, 36588, 208),
        (401, 1401, 156028, 415),
    ])
    def test_pattern_holds_at_every_level(self, inst, nt, nx,
                                          constraint_rows, band_nodes):
        # the box of `qvilab reproduce-example`
        grid, k0 = anchor_grid(inst, nt, nx)
        rep = verify_separation(inst, grid)
        assert rep.classical.passed
        assert not rep.modified.passed
        assert rep.separated and rep.violations_in_band
        assert not rep.modified.violations
        assert not rep.modified.terminal_violations
        assert len(rep.modified.constraint_violations) == constraint_rows
        assert rep.sub.passed

        assert k0 == int(round(inst.t0 / grid.dt))
        assert grid.t[k0] == inst.t0
        negative = rep.gap[k0] < 0.0
        band = inst.in_band(grid.t[k0], grid.axes[0])
        assert np.array_equal(negative, band)
        assert int(band.sum()) == band_nodes
