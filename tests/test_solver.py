"""Scheme tests: transport oracle, exact invariants, DP cross-check."""

import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import brentq, minimize_scalar

from qvilab import cli
from qvilab import expr as ex
from qvilab import obstacle as obs
from qvilab.core import (
    AssumptionConstants,
    Cone,
    ConfigError,
    Grid,
    GridFunction,
    ImpulseProblem,
    interp_slice,
    load_problem,
    role_variables,
)
from qvilab import solver
from qvilab.assumptions import audit_H1, default_sampler
from qvilab.viscosity import check_qvi_supersolution_modified
from qvilab.solver import (
    CFL_SAFETY,
    FP_TOL,
    CflError,
    SolverError,
    cfl_number,
    check_cfl,
    estimate_dissipation,
    extract_regions,
    interior_mask,
    solve_hjb,
    solve_qvi,
    suggest_t_nodes,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
PLANE = CONFIGS.parent / "perfbench" / "plane.cfg"
ELL0 = 0.05


def transport_problem(H_src="-p1", h_src="x1*exp(-x1)",
                      ell_src="0.05*(1 + xi1)"):
    return ImpulseProblem(
        n=1, T=1.0,
        H=ex.parse(H_src, ("t", "x1", "p1")),
        h=ex.parse(h_src, ("x1",)),
        ell=ex.parse(ell_src, ("t", "x1", "xi1")),
        cone=Cone.orthant(1),
    )


def f_profile(u):
    return u * np.exp(-u)


def dp_solve_transport(grid, ell0=ELL0):
    """Independent semi-Lagrangian + node-enumeration reference.

    Transport follows the characteristic one step, then impulses are
    minimized by brute force over grid nodes to the right.
    """
    x = grid.axes[0]
    W = f_profile(x)
    out = np.empty(grid.shape)
    out[-1] = W
    X = x[None, :] - x[:, None]  # candidate impulse x_j - x_i
    payoff_cost = np.where(X >= 0.0, ell0 * (1.0 + X), np.inf)
    for k in range(grid.t_nodes - 2, -1, -1):
        target = (x - grid.dt)[:, None]
        W = interp_slice(grid, W[None], target[None])[0]
        for _ in range(5):
            N = (W[None, :] + payoff_cost).min(axis=1)
            W_new = np.minimum(W, N)
            done = np.max(np.abs(W_new - W)) < 1e-12
            W = W_new
            if done:
                break
        out[k] = W
    return out


def strip_bounds(ell0):
    """Roots of the continuation-vs-jump gap along the profile coordinate."""

    def gap(u):
        ref = minimize_scalar(
            lambda xi: f_profile(u + xi) + ell0 * (1.0 + xi),
            bounds=(0.0, 8.0), method="bounded", options={"xatol": 1e-12},
        )
        return ref.fun - f_profile(u)

    us = np.linspace(-0.5, 4.0, 2001)
    gs = np.array([gap(u) for u in us])
    sign_change = np.flatnonzero(np.sign(gs[:-1]) != np.sign(gs[1:]))
    roots = [brentq(gap, us[i], us[i + 1], xtol=1e-10) for i in sign_change]
    return roots


class TestTransportOracle:
    def run_hjb(self, x_nodes):
        problem = transport_problem()
        probe = Grid(T=1.0, t_nodes=2, x_min=(-2.0,), x_max=(5.0,),
                     x_nodes=(x_nodes,))
        sigma = estimate_dissipation(problem, probe)
        nt = suggest_t_nodes(probe, sigma)
        grid = Grid(T=1.0, t_nodes=nt, x_min=(-2.0,), x_max=(5.0,),
                    x_nodes=(x_nodes,))
        res = solve_hjb(problem, grid, sigma)
        env = grid.full_env()
        exact = f_profile(env["x1"] - grid.T + env["t"])
        mask = interior_mask(grid, sigma)
        err = float(np.max(np.abs(res.V.values - exact)[mask]))
        return err, sigma

    def test_error_bound_and_refinement(self):
        err_coarse, sigma = self.run_hjb(701)
        assert sigma[0] == pytest.approx(1.05, rel=1e-6)
        assert err_coarse <= 0.02
        err_fine, _ = self.run_hjb(1401)
        assert err_coarse / err_fine >= 1.5

    def test_two_dimensional_transport(self):
        problem = ImpulseProblem(
            n=2, T=1.0,
            H=ex.parse("-p1 - p2", ("t", "x1", "x2", "p1", "p2")),
            h=ex.parse("sin(x1) + cos(x2)", ("x1", "x2")),
            ell=ex.parse("0.1 + 0.05*(xi1 + xi2)",
                         ("t", "x1", "x2", "xi1", "xi2")),
            cone=Cone.orthant(2),
        )
        probe = Grid(T=1.0, t_nodes=2, x_min=(-2.0, -2.0), x_max=(3.0, 3.0),
                     x_nodes=(101, 101))
        sigma = estimate_dissipation(problem, probe)
        nt = suggest_t_nodes(probe, sigma)
        grid = Grid(T=1.0, t_nodes=nt, x_min=(-2.0, -2.0), x_max=(3.0, 3.0),
                    x_nodes=(101, 101))
        res = solve_hjb(problem, grid, sigma)
        env = grid.full_env()
        s = grid.T - env["t"]
        exact = np.sin(env["x1"] - s) + np.cos(env["x2"] - s)
        mask = interior_mask(grid, sigma)
        err = float(np.max(np.abs(res.V.values - exact)[mask]))
        assert err <= 0.05


class TestExactInvariants:
    def test_zero_hamiltonian_keeps_terminal_data(self):
        problem = transport_problem(H_src="0")
        grid = Grid(T=1.0, t_nodes=11, x_min=(-1.0,), x_max=(4.0,),
                    x_nodes=(21,))
        res = solve_hjb(problem, grid)
        assert res.dissipation == (0.0,)
        for k in range(grid.t_nodes):
            assert np.array_equal(res.V.values[k], res.V.values[-1])

    def test_prohibitive_cost_reduces_to_unconstrained(self):
        problem = transport_problem(ell_src="1000000")
        grid = Grid(T=1.0, t_nodes=51, x_min=(-1.0,), x_max=(4.0,),
                    x_nodes=(101,))
        dissipation = (1.05,)
        free = solve_hjb(problem, grid, dissipation)
        clipped = solve_qvi(problem, grid, dissipation)
        assert np.array_equal(free.V.values, clipped.V.values)
        assert not extract_regions(clipped).any()
        assert clipped.iterations.max() <= 2

    def test_terminal_shift_invariance(self):
        base = transport_problem()
        shifted = transport_problem(h_src="x1*exp(-x1) + 0.75")
        grid = Grid(T=1.0, t_nodes=101, x_min=(-1.0,), x_max=(4.0,),
                    x_nodes=(201,))
        dissipation = (1.05,)
        v1 = solve_qvi(base, grid, dissipation).V.values
        v2 = solve_qvi(shifted, grid, dissipation).V.values
        assert float(np.max(np.abs(v2 - (v1 + 0.75)))) <= 1e-10

    def test_terminal_slice_is_sampled_data(self):
        problem = transport_problem()
        grid = Grid(T=1.0, t_nodes=21, x_min=(-1.0,), x_max=(4.0,),
                    x_nodes=(51,))
        res = solve_qvi(problem, grid, (1.05,))
        assert np.array_equal(res.V.values[-1], f_profile(grid.axes[0]))


class TestObstacleOff:
    @pytest.fixture
    def no_obstacle(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("obstacle evaluated")

        monkeypatch.setattr(obs, "evaluate_slice_values", refuse)

    def test_unconstrained_solve_makes_no_obstacle_call(self, no_obstacle,
                                                        restep):
        problem = transport_problem()
        grid = Grid(T=1.0, t_nodes=21, x_min=(-1.0,), x_max=(4.0,),
                    x_nodes=(51,))
        dissipation = (1.05,)
        res = solve_hjb(problem, grid, dissipation)
        assert res.obstacle_gap is None
        assert res.flags == ()
        assert not res.iterations.any() and not res.clipped.any()
        # every slice is the unclipped step of the next, bit for bit
        assert np.array_equal(res.V.values[:-1], restep(problem, res))
        with pytest.raises(AssertionError, match="obstacle evaluated"):
            solve_qvi(problem, grid, dissipation)

    def test_no_obstacle_command_makes_no_obstacle_call(self, no_obstacle,
                                                        tmp_path):
        config = CONFIGS / "transport.cfg"
        assert cli.main(["solve", str(config), "--no-obstacle",
                         "--out", str(tmp_path)]) == 0
        assert not (tmp_path / "obstacle_gap.csv").exists()


class TestTerminalSample:
    @pytest.mark.parametrize("solve", [solve_qvi, solve_hjb])
    def test_h_is_evaluated_once_per_solve(self, solve, monkeypatch):
        problem = transport_problem()
        grid = Grid(T=1.0, t_nodes=21, x_min=(-1.0,), x_max=(4.0,),
                    x_nodes=(51,))
        expected = estimate_dissipation(problem, grid)
        evaluate = ex.evaluate
        reads = []

        def counting(node, env):
            reads.append(node is problem.h)
            return evaluate(node, env)

        monkeypatch.setattr(ex, "evaluate", counting)
        res = solve(problem, grid)
        assert sum(reads) == 1
        # the one sample feeds the dissipation estimate and the last slice
        assert res.dissipation == expected
        assert np.array_equal(res.V.values[-1],
                              f_profile(grid.axes[0]))


class TestGuards:
    def test_cfl_error_names_needed_nodes(self):
        problem = transport_problem(H_src="-3*p1")
        grid = Grid(T=1.0, t_nodes=201, x_min=(-1.0,), x_max=(4.0,),
                    x_nodes=(701,))
        sigma = estimate_dissipation(problem, grid)
        assert sigma[0] == pytest.approx(3.15, rel=1e-6)
        with pytest.raises(CflError, match="t_nodes") as err:
            solve_hjb(problem, grid, sigma)
        needed = int(re.search(r"t_nodes = (\d+)", str(err.value)).group(1))
        grid_ok = Grid(T=1.0, t_nodes=needed, x_min=(-1.0,), x_max=(4.0,),
                       x_nodes=(701,))
        assert check_cfl(grid_ok, sigma) == sigma  # no raise
        assert cfl_number(grid_ok, sigma) <= CFL_SAFETY

    def test_suggest_t_nodes_zero_dissipation(self):
        grid = Grid(T=1.0, t_nodes=5, x_min=(0.0,), x_max=(1.0,),
                    x_nodes=(11,))
        assert suggest_t_nodes(grid, (0.0,)) == 2

    def test_fixed_point_that_does_not_settle_raises(self, monkeypatch,
                                                     tmp_path, capsys):
        # example.cfg clips a slice whose fixed point takes a second sweep
        config = CONFIGS / "example.cfg"
        cfg = load_problem(config.read_text())
        assert solve_qvi(cfg.problem, cfg.grid).iterations.max() == 2
        monkeypatch.setattr(solver, "FP_MAX_ITER", 1)
        with pytest.raises(solver.FixedPointError,
                           match="did not settle .* after 1 sweeps"):
            solve_qvi(cfg.problem, cfg.grid)
        assert cli.main(["solve", str(config), "--out", str(tmp_path)]) == 1
        assert ("solver failure: obstacle fixed point did not settle"
                in capsys.readouterr().err)

    def test_domain_failure_names_slice(self):
        problem = transport_problem(H_src="sqrt(p1)", h_src="x1*x1")
        grid = Grid(T=1.0, t_nodes=21, x_min=(-1.0,), x_max=(4.0,),
                    x_nodes=(51,))
        dissipation = (1.0,)
        with pytest.raises(SolverError, match="Hamiltonian evaluation failed"):
            solve_hjb(problem, grid, dissipation)

    def test_terminal_bound_is_audited_not_flagged(self):
        # h + h0 >= 0 is check's audit; the sampler holds every space node
        # of the grid, so a solve has nothing to add and flags nothing
        problem = transport_problem()
        grid = Grid(T=1.0, t_nodes=21, x_min=(-1.0,), x_max=(4.0,),
                    x_nodes=(51,))
        kw = dict(L=1.0, mu=0.0, ell0=0.05, alpha=0.05, beta=0.5,
                  delta0=0.05, C=16.0, gamma=0.0, kappa=0.25)
        for h0, passed in ((0.5, False), (3.0, True)):
            report = audit_H1(problem, AssumptionConstants(h0=h0, **kw),
                              default_sampler(grid))
            check = report.check("terminal lower bound")
            assert check.passed is passed
            assert check.worst_point == {"x": [-1.0]}
        assert solve_hjb(problem, grid, (1.05,)).flags == ()

    @pytest.mark.parametrize("call", [
        solve_hjb, solve_qvi,
        lambda problem, grid: check_qvi_supersolution_modified(
            GridFunction(grid, np.zeros(grid.shape)), problem),
    ], ids=["solve_hjb", "solve_qvi", "checker"])
    def test_grid_horizon_must_match_the_problem(self, call):
        # the solver would step to grid.T while the audits sample
        # [0, problem.T]
        grid = Grid(3.0, 61, (-1.0,), (4.0,), (51,))
        with pytest.raises(ConfigError, match="horizon"):
            call(transport_problem(), grid)

    def test_scheme_params_validation(self):
        grid = Grid(T=1.0, t_nodes=21, x_min=(-1.0,), x_max=(4.0,),
                    x_nodes=(51,))
        for bad in ((-1.0,), (float("nan"),), (float("inf"),)):
            with pytest.raises(ValueError, match="dissipation"):
                check_cfl(grid, bad)
        assert check_cfl(grid, (1,)) == (1.0,)

    @pytest.mark.parametrize("n", [1, 2])
    def test_wrong_length_dissipation_rejected_before_any_step(
            self, n, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("stepped")

        monkeypatch.setattr(solver, "_hjb_step", refuse)
        roles = role_variables(n)
        problem = ImpulseProblem(
            n=n, T=1.0, H=ex.parse("0", roles["H"]),
            h=ex.parse("0", roles["h"]), ell=ex.parse("0.1", roles["ell"]),
            cone=Cone.orthant(n))
        grid = Grid(T=1.0, t_nodes=11, x_min=(-1.0,) * n, x_max=(1.0,) * n,
                    x_nodes=(11,) * n)
        wrong = (1.05,) * (3 - n)  # 2 values on a 1-d grid, 1 on a 2-d one
        for solve in (solve_hjb, solve_qvi):
            with pytest.raises(ValueError, match="dissipation"):
                solve(problem, grid, wrong)


@pytest.fixture(scope="module")
def qvi_example():
    problem = transport_problem()
    grid = Grid(T=1.0, t_nodes=201, x_min=(-1.0,), x_max=(4.0,),
                x_nodes=(701,))
    dissipation = (1.05,)
    res = solve_qvi(problem, grid, dissipation)
    dp = dp_solve_transport(grid)
    return grid, res, dp


@pytest.fixture(scope="module")
def qvi_wide():
    problem = transport_problem()
    grid = Grid(T=1.0, t_nodes=201, x_min=(-1.0,), x_max=(7.0,),
                x_nodes=(1121,))
    res = solve_qvi(problem, grid, (1.05,))
    return grid, res


class TestConstrainedSolve:
    def test_constraint_holds_on_stepped_slices(self, qvi_example):
        grid, res, _ = qvi_example
        stepped_gap = res.obstacle_gap.values[:-1]
        assert float(stepped_gap.min()) >= -1e-8

    def test_residual_identity(self, qvi_example, fixed_point_residual):
        grid, res, _ = qvi_example
        r = fixed_point_residual(transport_problem(), res)
        tol = 10.0 * (grid.dt + sum(grid.dx))
        assert r.shape == (grid.t_nodes - 1, grid.x_nodes[0])
        assert float(np.max(np.abs(r))) <= 1e-8
        assert np.mean(np.abs(r) <= tol) >= 0.99

    def test_matches_dp_reference(self, qvi_example):
        grid, res, dp = qvi_example
        mask = interior_mask(grid, res.dissipation)
        err = float(np.max(np.abs(res.V.values - dp)[mask]))
        assert err <= 0.05

    def test_intervention_strip_location(self, qvi_wide):
        # on a box wide enough to hold the optimal jump target the contact
        # strip is a diagonal band in the profile coordinate at every slice
        grid, res = qvi_wide
        u_lo, u_hi = strip_bounds(ELL0)
        x = grid.axes[0]
        for t_target in (0.0, 0.5, 0.9):
            k = int(round(t_target / grid.dt))
            row = extract_regions(res)[k]
            idx = np.flatnonzero(row)
            assert idx.size > 0
            # one contiguous run whose ends track the profile-coordinate
            # strip; the contact set is resolved to the dissipation scale
            assert np.all(np.diff(idx) == 1)
            u = x + grid.t[k] - grid.T
            u_start, u_end = u[idx[0]], u[idx[-1]]
            assert abs(u_start - u_lo) <= 0.1
            assert abs(u_end - u_hi) <= 0.45
            # the comfortably-interior part of the strip is always marked
            core = (u >= u_lo + 0.25) & (u <= u_hi - 0.25)
            assert row[core].all()

    def test_clipped_box_strip_at_midslice(self, qvi_example):
        # on the narrow box every clipped jump lands on the edge x1 = 4
        # (the solve flags it), which lifts the obstacle backward in time;
        # the strip still shows at mid horizon and covers the reference
        # point x = 1.5, t = 0.5
        grid, res, _ = qvi_example
        k = grid.t_nodes // 2
        row = extract_regions(res)[k]
        assert row.any()
        i_ref = int(np.argmin(np.abs(grid.axes[0] - 1.5)))
        assert row[i_ref]

    def test_strip_shrinks_as_cost_grows(self):
        # profitability of a jump dies well before the critical points of
        # the payoff profile vanish at exp(-2): the strip is already empty
        # near cost level 0.08, so the classic triple {0.05, 0.1, 0.2}
        # shrinks only weakly while {0.05, 0.06, 0.07} shrinks strictly
        fractions = {}
        for ell0 in (0.05, 0.06, 0.07, 0.1, 0.2):
            problem = transport_problem(ell_src=f"{ell0}*(1 + xi1)")
            grid = Grid(T=1.0, t_nodes=201, x_min=(-1.0,), x_max=(7.0,),
                        x_nodes=(1121,))
            res = solve_qvi(problem, grid, (1.05,))
            fractions[ell0] = extract_regions(res).mean()
        assert fractions[0.05] > fractions[0.06] > fractions[0.07] > 0.0
        assert fractions[0.05] > fractions[0.1] >= fractions[0.2]
        assert fractions[0.1] == 0.0 and fractions[0.2] == 0.0

    def test_extract_regions_consistency(self, qvi_example, jumps):
        grid, res, _ = qvi_example
        mask = extract_regions(res)
        assert mask.dtype == bool and mask.shape == grid.shape
        assert not mask[-1].any()
        assert 0.0 < float(mask.sum()) / mask.size < 1.0
        norms = np.linalg.norm(jumps(transport_problem(), res)[mask], axis=-1)
        assert float(norms.min()) > 0.5

    def test_fixed_point_settles_quickly(self, qvi_example):
        grid, res, _ = qvi_example
        assert int(res.iterations[:-1].max()) <= 6
        assert int(res.iterations[-1]) == 0

    def test_box_edge_flag_counts_clipped_jumps(self, qvi_example, qvi_wide,
                                                restep, jumps):
        # recount the rule from the result: a node is clipped where
        # N[V] = V + gap < W0, and cut where its jump lands within half a
        # cell of the edge; on [-1, 4] that is every clipped node
        grid, res, _ = qvi_example
        W0 = restep(transport_problem(), res)
        clipped = res.V.values[:-1] + res.obstacle_gap.values[:-1] < W0
        xi = jumps(transport_problem(), res)[:-1, :, 0]
        cut = (xi != 0.0) & (grid.axes[0] + xi >= 4.0 - 0.5 * grid.dx[0])
        assert np.count_nonzero(clipped & cut) == np.count_nonzero(clipped) == 296
        assert res.flags == ("best jump reaches x1 = 4 at 296 clipped nodes",)
        # on [-1, 7] the box holds the jump target
        assert np.count_nonzero(jumps(transport_problem(), qvi_wide[1])) > 0
        assert qvi_wide[1].flags == ()

    def test_clipped_counts_the_strictly_clipped_nodes(self, qvi_example,
                                                       qvi_wide, restep):
        # recount from the result: a node is clipped where N[V] = V + gap
        # < W0; the terminal slice is data and is never clipped, and on
        # both boxes every clip sits in the slice next to it
        grid, res, _ = qvi_example
        W0 = restep(transport_problem(), res)
        clipped = res.V.values[:-1] + res.obstacle_gap.values[:-1] < W0
        assert np.array_equal(res.clipped[:-1],
                              np.count_nonzero(clipped, axis=1))
        assert res.clipped.shape == res.iterations.shape
        for result, total in ((res, 296), (qvi_wide[1], 297)):
            assert np.flatnonzero(result.clipped).tolist() == [grid.t_nodes - 2]
            assert int(result.clipped.sum()) == total

    def test_extract_regions_needs_obstacle_data(self):
        problem = transport_problem()
        grid = Grid(T=1.0, t_nodes=5, x_min=(-1.0,), x_max=(4.0,),
                    x_nodes=(11,))
        res = solve_hjb(problem, grid, (1.05,))
        with pytest.raises(ValueError, match="obstacle"):
            extract_regions(res)

    def test_ray_cone_takes_the_search_and_matches_the_orthant(
            self, monkeypatch):
        # one ray along +x1 allows the orthant's impulses, but N takes the
        # search there: its value bounds the exact one from above
        grid = Grid(T=1.0, t_nodes=61, x_min=(-1.0,), x_max=(4.0,),
                    x_nodes=(141,))
        orthant = transport_problem()
        searched = []
        search = obs._search

        def spy(*args, **kwargs):
            searched.append(args[5].kind)
            return search(*args, **kwargs)

        monkeypatch.setattr(obs, "_search", spy)
        exact = solve_qvi(orthant, grid, (1.05,))
        assert not searched
        res = solve_qvi(replace(orthant, cone=Cone.from_rays([[1.0]])), grid,
                        (1.05,))
        assert searched and set(searched) == {"rays"}
        diff = res.V.values - exact.V.values
        assert float(diff.min()) >= -FP_TOL
        assert float(diff.max()) <= 1e-8
        assert float(res.obstacle_gap.values[:-1].min()) >= -1e-8
        # the search's zoom may stop short of the edge x1 = 4, but within
        # half a cell, so both paths flag the same clipped nodes
        assert res.flags == exact.flags == (
            "best jump reaches x1 = 4 at 59 clipped nodes",)
        assert int(exact.iterations.max()) <= 2
        assert int(res.iterations.max()) <= 2


class TestTwoDimensionalConstrained:
    def test_constraint_and_shapes(self, jumps):
        problem = ImpulseProblem(
            n=2, T=1.0,
            H=ex.parse("-p1 - p2", ("t", "x1", "x2", "p1", "p2")),
            h=ex.parse("sin(x1) + cos(x2)", ("x1", "x2")),
            ell=ex.parse("0.1 + 0.05*(xi1 + xi2)",
                         ("t", "x1", "x2", "xi1", "xi2")),
            cone=Cone.orthant(2),
        )
        grid = Grid(T=1.0, t_nodes=21, x_min=(-2.0, -2.0), x_max=(3.0, 3.0),
                    x_nodes=(41, 41))
        res = solve_qvi(problem, grid, (1.05, 1.05))
        assert res.V.values.shape == (21, 41, 41)
        assert jumps(problem, res).shape == (21, 41, 41, 2)
        assert float(res.obstacle_gap.values[:-1].min()) >= -1e-8
        # sin + cos has spread 4 > cost floor, so some impulse fires
        assert extract_regions(res).any()

    @pytest.mark.parametrize("t_nodes, x_nodes", [(21, 41), (41, 81)])
    def test_solve_holds_no_per_node_jump_grid(self, t_nodes, x_nodes):
        # V and the gap, each also copied into its write-once GridFunction,
        # are four grids; a jump grid of n = 2 floats per node adds two
        cfg = load_problem(PLANE.read_text(), (
            f"grid.t_nodes={t_nodes}", f"grid.x_nodes={x_nodes},{x_nodes}"))
        tracemalloc.start()
        try:
            res = solve_qvi(cfg.problem, cfg.grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * res.V.values.nbytes, peak / res.V.values.nbytes


class TestInteriorMask:
    def test_collar_geometry(self):
        grid = Grid(T=1.0, t_nodes=11, x_min=(-2.0,), x_max=(5.0,),
                    x_nodes=(71,))
        mask = interior_mask(grid, (1.0,))
        x = grid.axes[0]
        # terminal slice: collar is just the base margin 0.5 = max(0.5, 0.2)
        expect_last = (x >= -1.5) & (x <= 4.5)
        assert np.array_equal(mask[-1], expect_last)
        # initial slice adds the full influence cone 1.5 * 1.0 * 1.0
        expect_first = (x >= -2.0 + 0.5 + 1.5) & (x <= 5.0 - 0.5 - 1.5)
        assert np.array_equal(mask[0], expect_first)
        # widening in time
        assert mask.sum(axis=1)[0] <= mask.sum(axis=1)[-1]


SHIPPED = [load_problem(path.read_text()) for path in (
    CONFIGS / "example.cfg", CONFIGS / "example-lifted.cfg",
    CONFIGS / "transport.cfg", PLANE)]


@st.composite
def stable_steps(draw):
    """(step, W, raise mask, raise amounts): one explicit step of a shipped
    Hamiltonian on a small grid of its box, with the estimated dissipation
    and a time step within the CFL bound."""
    cfg = draw(st.sampled_from(SHIPPED))
    box = cfg.grid
    nodes = tuple(draw(st.integers(2, 8)) for _ in range(box.n))
    coarse = Grid(box.T, 2, box.x_min, box.x_max, nodes)
    # the suggested count is the coarsest time step within the bound
    t_nodes = (suggest_t_nodes(coarse, estimate_dissipation(cfg.problem,
                                                            coarse))
               + draw(st.sampled_from((0, 0, 1, 10))))
    grid = Grid(box.T, t_nodes, box.x_min, box.x_max, nodes)
    dissipation = check_cfl(grid, estimate_dissipation(cfg.problem, grid))
    x = np.meshgrid(*grid.axes, indexing="ij")
    t_next = float(grid.t[draw(st.integers(1, t_nodes - 1))])

    def step(W):
        return solver._hjb_step(cfg.problem, grid, dissipation, W, t_next, x)

    W = draw(hnp.arrays(np.float64, nodes,
                        elements=st.floats(-1e3, 1e3)))
    mask = draw(hnp.arrays(np.bool_, nodes))
    amounts = draw(hnp.arrays(np.float64, nodes,
                              elements=st.floats(0.0, 1e3)))
    return step, W, mask, amounts


class TestMonotoneStep:
    """Raising any input of _hjb_step never lowers any output (the
    monotonicity of Barles and Souganidis), under the CFL bound."""

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(case=stable_steps())
    def test_raising_inputs_never_lowers_an_output(self, case):
        step, W, mask, amounts = case
        # every raise is at least 1e-6 of the slice's scale, far above the
        # rounding of the step, so the comparison is exact
        raised = W + np.where(mask, 1e-6 + amounts, 0.0) * (
            1.0 + np.abs(W).max())
        assert np.all(step(raised) >= step(W))

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(case=stable_steps())
    def test_raises_down_to_one_ulp_lower_nothing_beyond_rounding(self,
                                                                   case):
        step, W, mask, amounts = case
        raised = np.where(mask, np.maximum(np.nextafter(W, np.inf),
                                           W + amounts), W)
        base = step(W)
        # one-ulp raises can round an output one ulp lower; the margin is
        # four ulps of the largest input or output magnitude
        margin = 4.0 * np.finfo(float).eps * (np.abs(raised).max()
                                              + np.abs(base).max())
        assert np.all(step(raised) >= base - margin)
