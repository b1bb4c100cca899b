"""Obstacle operator: oracles, exact properties, search behavior."""

import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from qvilab import expr as ex
from qvilab import obstacle as obs
from qvilab.core import (Cone, Grid, GridFunction, ImpulseProblem, load_problem,
                         sample, sample_terminal)
from qvilab.obstacle import ObstacleResult, evaluate, evaluate_slice_values
from qvilab.solver import solve_qvi

ELL0 = 0.05
PLANE = Path(__file__).resolve().parent.parent / "perfbench" / "plane.cfg"


def orthant_rays(n):
    """The orthant written as rays: the same jumps, taken by the search."""
    return Cone.from_rays(np.eye(n))


def make_grid_1d(x_min=-1.0, x_max=4.0, x_nodes=501, t_nodes=3):
    return Grid(T=1.0, t_nodes=t_nodes, x_min=(x_min,), x_max=(x_max,),
                x_nodes=(x_nodes,))


def constant_slice_fn(grid, fn):
    """GridFunction whose every time slice equals fn sampled in space."""
    env = grid.space_env()
    vals = np.broadcast_to(fn(env["x1"]) if grid.n == 1 else fn(env),
                           grid.shape).copy()
    return GridFunction(grid, vals)


class TestOracles:
    def test_kink_slice_reaches_bottom(self):
        # V = |x - 2| interpolates exactly, so the infimum is the constant
        # cost paid to jump onto the kink.
        grid = make_grid_1d()
        V = constant_slice_fn(grid, lambda x: np.abs(x - 2.0))
        ell = ex.parse("0.05", ("t", "x1", "xi1"))
        (vals,), (argmin,) = evaluate_slice_values(
            grid, V.values[:1], grid.t[:1], ell, orthant_rays(1))
        x = grid.axes[0]
        left = x <= 2.0
        assert np.allclose(vals[left], 0.05, atol=1e-9)
        assert np.allclose(argmin[left, 0], 2.0 - x[left], atol=1e-6)
        # to the right of the kink the best impulse is no impulse
        right = x > 2.0 + 1e-9
        assert np.allclose(vals[right], np.abs(x[right] - 2.0) + 0.05, atol=1e-9)
        assert np.allclose(argmin[right, 0], 0.0, atol=1e-6)

    def test_separation_profile_minimum(self):
        # slice f(u) = u*exp(-u); at u0 = 1 the obstacle equals
        # min over xi >= 0 of f(1 + xi) + ell0*(1 + xi), the profile whose
        # far root drives the counterexample construction.
        grid = make_grid_1d(x_min=-1.0, x_max=5.0, x_nodes=1201)
        V = constant_slice_fn(grid, lambda x: x * np.exp(-x))
        ell = ex.parse("0.05*(1 + xi1)", ("t", "x1", "xi1"))
        res = evaluate(V, 0, np.array([1.0]), ell, orthant_rays(1))

        def psi(xi):
            s = 1.0 + xi
            return s * np.exp(-s) + ELL0 * s

        ref = minimize_scalar(psi, bounds=(1.0, 5.0), method="bounded",
                              options={"xatol": 1e-12})
        assert abs(res.value - ref.fun) <= 1e-6
        assert abs(res.argmin[0] - ref.x) <= 1e-4
        assert res.argmin[0] > 3.0  # the far root, not the near one

    def test_flat_slice_picks_zero_impulse(self):
        # constant V and constant cost: every impulse ties, the reported
        # argmin must be the smallest one.
        grid = make_grid_1d(x_nodes=51)
        V = GridFunction(grid, np.zeros(grid.shape))
        ell = ex.parse("0.05", ("t", "x1", "xi1"))
        vals, argmin = evaluate_slice_values(
            grid, V.values[1:2], grid.t[1:2], ell, orthant_rays(1))
        assert np.allclose(vals, 0.05, atol=0)
        assert np.all(argmin == 0.0)

    def test_decreasing_slice_jumps_to_the_edge(self):
        grid = make_grid_1d(x_nodes=251)
        V = constant_slice_fn(grid, lambda x: -x)
        ell = ex.parse("0.05", ("t", "x1", "xi1"))
        # from the left edge the best jump is the whole box diagonal
        res = evaluate(V, 0, np.array([-1.0]), ell, orthant_rays(1))
        assert res.argmin[0] == pytest.approx(5.0, abs=1e-9)
        assert res.value == pytest.approx(-4.0 + 0.05, abs=1e-9)
        # a solve flags it on the search path as on the exact one: the
        # first stepped slice clips every node left of x = 3.95, and each
        # jump lands on x1 = 4; the slice below, stepped from it, clips none
        problem = ImpulseProblem(
            n=1, T=1.0, H=ex.parse("0", ("t", "x1", "p1")),
            h=ex.parse("-x1", ("x1",)), ell=ell, cone=orthant_rays(1))
        flag = ("best jump reaches x1 = 4 at 248 clipped nodes",)
        assert solve_qvi(problem, grid, (0.0,)).flags == flag
        orthant = replace(problem, cone=Cone.orthant(1))
        assert solve_qvi(orthant, grid, (0.0,)).flags == flag
        # mirrored, the jump runs left and reaches the low edge
        mirror = replace(problem, h=ex.parse("x1", ("x1",)),
                         cone=Cone.from_rays([[-1.0]]))
        assert solve_qvi(mirror, grid, (0.0,)).flags == (
            "best jump reaches x1 = -1 at 248 clipped nodes",)

    def test_cost_depends_on_t_and_x(self):
        # V identically zero and a cost increasing in xi: the infimum sits
        # at xi = 0 and reproduces the cost formula exactly.
        grid = make_grid_1d(x_nodes=41, t_nodes=5)
        V = GridFunction(grid, np.zeros(grid.shape))
        ell = ex.parse("0.05*(1 + t) + 0.01*abs(x1) + 0.05*xi1",
                       ("t", "x1", "xi1"))
        vals, argmin = evaluate_slice_values(grid, V.values, grid.t, ell,
                                             Cone.orthant(1))
        for k in (0, 4):
            expect = 0.05 * (1 + grid.t[k]) + 0.01 * np.abs(grid.axes[0])
            assert np.allclose(vals[k], expect, atol=1e-12)
        assert np.all(argmin == 0.0)


class TestTwoDimensional:
    def test_orthant_reaches_separable_kink(self, monkeypatch):
        grid = Grid(T=1.0, t_nodes=2, x_min=(-1.0, -1.0), x_max=(4.0, 4.0),
                    x_nodes=(51, 51))
        env = grid.space_env()
        slice_vals = np.abs(env["x1"] - 1.0) + np.abs(env["x2"] - 3.0)
        vals = np.broadcast_to(slice_vals, grid.shape).copy()
        V = GridFunction(grid, vals)
        ell = ex.parse("0.05", ("t", "x1", "x2", "xi1", "xi2"))
        monkeypatch.setattr(obs, "COARSE", 13)
        monkeypatch.setattr(obs, "REFINE_LEVELS", 10)
        res = evaluate(V, 0, np.array([0.0, 1.0]), ell, orthant_rays(2))
        # kink bottom: accuracy is one final zoom cell per coordinate
        assert res.value == pytest.approx(0.05, abs=2e-6)
        assert np.allclose(res.argmin, [1.0, 2.0], atol=1e-4)

    def test_single_ray_cone_stays_on_ray(self):
        grid = Grid(T=1.0, t_nodes=2, x_min=(-1.0, -1.0), x_max=(4.0, 4.0),
                    x_nodes=(51, 51))
        env = grid.space_env()
        slice_vals = np.abs(env["x1"] - 2.0) + np.abs(env["x2"] - 2.0)
        V = GridFunction(grid, np.broadcast_to(slice_vals, grid.shape).copy())
        ell = ex.parse("0.1", ("t", "x1", "x2", "xi1", "xi2"))
        cone = Cone.from_rays([[1.0, 1.0]])
        res = evaluate(V, 0, np.array([0.0, 0.0]), ell, cone)
        # the ray passes through the bottom of the separable kink at (2, 2)
        assert res.value == pytest.approx(0.1, abs=1e-6)
        assert np.allclose(res.argmin, [2.0, 2.0], atol=1e-4)

    def test_single_ray_off_bottom_minimum(self):
        # paraboloid centered at (2, 0): restricted to the diagonal ray the
        # minimizer is its projection (1, 1)
        grid = Grid(T=1.0, t_nodes=2, x_min=(-1.0, -1.0), x_max=(4.0, 4.0),
                    x_nodes=(501, 501))
        env = grid.space_env()
        slice_vals = (env["x1"] - 2.0) ** 2 + env["x2"] ** 2
        V = GridFunction(grid, np.broadcast_to(slice_vals, grid.shape).copy())
        ell = ex.parse("0.1", ("t", "x1", "x2", "xi1", "xi2"))
        cone = Cone.from_rays([[1.0, 1.0]])
        res = evaluate(V, 0, np.array([0.0, 0.0]), ell, cone)
        # bilinear interpolation of the quadratic costs dx^2/4 in value
        assert res.value == pytest.approx(2.0 + 0.1, abs=1e-4)
        assert np.allclose(res.argmin, [1.0, 1.0], atol=0.02)


    def test_search_memory_does_not_grow_with_the_slice(self):
        # the search takes the nodes in batches of NODE_BATCH // COARSE**m
        # candidates, so one slice of 41^2 nodes peaks as one of 21^2 does
        peaks = []
        for nx in (21, 41):
            cfg = load_problem(PLANE.read_text(), (
                'problem.cone="1, 0; 0, 1"', f"grid.x_nodes={nx},{nx}"))
            values = sample_terminal(cfg.problem.h, cfg.grid)
            tracemalloc.start()
            try:
                evaluate_slice_values(cfg.grid, values[None], [0.5],
                                      cfg.problem.ell, cfg.problem.cone)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.2 * peaks[0], peaks
        assert peaks[1] < 48 * 2 ** 20, peaks

    @pytest.mark.parametrize("n", [1, 2])
    def test_one_node_of_the_widest_cone_fits_a_batch(self, n):
        # a cone has at most n + 1 rays, so one node's coarse scan of
        # COARSE**m candidates stays within NODE_BATCH
        assert obs.COARSE ** (n + 1) <= obs.NODE_BATCH


class TestExactProperties:
    @pytest.fixture
    def scan_only(self, monkeypatch):
        monkeypatch.setattr(obs, "COARSE", 41)
        monkeypatch.setattr(obs, "REFINE_LEVELS", 0)

    def test_monotone_in_v_on_random_pairs(self, scan_only):
        # shared scan-only probe set makes monotonicity exact
        rng = np.random.default_rng(7)
        grid = make_grid_1d(x_nodes=61)
        ell = ex.parse("0.05 + 0.05*xi1", ("t", "x1", "xi1"))
        cone = orthant_rays(1)
        worst = 0.0
        for _ in range(100):
            base = rng.normal(size=grid.x_nodes[0])
            bump = rng.uniform(0.0, 1.0, size=grid.x_nodes[0])
            (nv, nw), _ = evaluate_slice_values(
                grid, np.stack([base, base + bump]), [0.5, 0.5], ell, cone)
            worst = max(worst, float(np.max(nv - nw)))
        assert worst <= 1e-12

    def test_shift_equivariance(self, scan_only):
        rng = np.random.default_rng(8)
        grid = make_grid_1d(x_nodes=61)
        ell = ex.parse("0.05 + 0.05*xi1", ("t", "x1", "xi1"))
        cone = orthant_rays(1)
        for c in (1.0, -2.5, 0.125):
            base = rng.normal(size=grid.x_nodes[0])
            (nv, ns), (av, as_) = evaluate_slice_values(
                grid, np.stack([base, base + c]), [0.5, 0.5], ell, cone)
            assert np.max(np.abs(ns - (nv + c))) <= 1e-12
            assert np.array_equal(av, as_)

    def test_never_exceeds_probed_payoff(self, monkeypatch):
        # with refinement on, the result is a running min over every probe,
        # so it is bounded by each coarse-lattice payoff
        rng = np.random.default_rng(9)
        grid = make_grid_1d(x_nodes=61)
        ell = ex.parse("0.05 + 0.05*xi1", ("t", "x1", "xi1"))
        cone = orthant_rays(1)
        monkeypatch.setattr(obs, "COARSE", 17)
        monkeypatch.setattr(obs, "REFINE_LEVELS", 6)
        base = rng.normal(size=grid.x_nodes[0])
        (vals,), _ = evaluate_slice_values(grid, base[None], [0.5], ell, cone)
        x = grid.axes[0]
        from qvilab.core import interp_slice
        for xi in np.linspace(0.0, grid.box_diagonal, 17):
            target = np.clip(x + xi, -1.0, 4.0)[None, :, None]
            payoff = interp_slice(grid, base[None], target)[0] + 0.05 + 0.05 * xi
            assert np.all(vals <= payoff + 1e-12)

    def test_monotone_with_refinement_smooth(self):
        # refined searches follow different probe paths, so only ask for
        # agreement at the optimization accuracy, not bitwise
        grid = make_grid_1d(x_nodes=201)
        ell = ex.parse("0.05 + 0.05*xi1", ("t", "x1", "xi1"))
        cone = orthant_rays(1)
        x = grid.axes[0]
        base = np.sin(x)
        (nv, nw), _ = evaluate_slice_values(
            grid, np.stack([base, base + 0.3]), [0.5, 0.5], ell, cone)
        assert np.max(nv - nw) <= 1e-9


class TestInterfaces:
    def test_point_matches_slice_at_nodes(self, monkeypatch):
        rng = np.random.default_rng(11)
        grid = make_grid_1d(x_nodes=41)
        V = GridFunction(grid, rng.normal(size=grid.shape))
        ell = ex.parse("0.05 + 0.05*xi1", ("t", "x1", "xi1"))
        cone = orthant_rays(1)
        monkeypatch.setattr(obs, "COARSE", 15)
        monkeypatch.setattr(obs, "REFINE_LEVELS", 4)
        (vals,), (argmin,) = evaluate_slice_values(
            grid, V.values[1:2], grid.t[1:2], ell, cone)
        for i in (0, 7, 23, 40):
            res = evaluate(V, 1, np.array([grid.axes[0][i]]), ell, cone)
            assert res.value == vals[i]
            assert res.argmin[0] == argmin[i, 0]
            assert res.probes > 0
            assert isinstance(res, ObstacleResult)

    def test_point_between_nodes(self):
        grid = make_grid_1d(x_nodes=501)
        V = constant_slice_fn(grid, lambda x: np.abs(x - 2.0))
        ell = ex.parse("0.05", ("t", "x1", "xi1"))
        res = evaluate(V, 0, np.array([0.123]), ell, orthant_rays(1))
        # kink bottom off the probe lattice: one final zoom cell of slack
        assert res.value == pytest.approx(0.05, abs=2e-7)
        assert res.argmin[0] == pytest.approx(2.0 - 0.123, abs=1e-5)

    def test_point_outside_box_rejected(self):
        grid = make_grid_1d(x_nodes=21)
        V = GridFunction(grid, np.zeros(grid.shape))
        ell = ex.parse("0.05", ("t", "x1", "xi1"))
        with pytest.raises(ValueError, match="outside"):
            evaluate(V, 0, np.array([4.5]), ell, Cone.orthant(1))

