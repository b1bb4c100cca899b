"""Obstacle operator: oracles, exact properties, search behavior."""

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from qvilab import expr as ex
from qvilab.core import Cone, Grid, GridFunction, sample
from qvilab.obstacle import (
    ObstacleResult,
    SearchParams,
    evaluate,
    evaluate_slice,
    evaluate_slice_values,
)

ELL0 = 0.05


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
        search = SearchParams(xi_max=4.0)
        vals, argmin, trunc = evaluate_slice(V, 0, ell, Cone.orthant(1), search)
        x = grid.axes[0]
        left = x <= 2.0
        assert np.allclose(vals[left], 0.05, atol=1e-9)
        assert np.allclose(argmin[left, 0], 2.0 - x[left], atol=1e-6)
        # to the right of the kink the best impulse is no impulse
        right = x > 2.0 + 1e-9
        assert np.allclose(vals[right], np.abs(x[right] - 2.0) + 0.05, atol=1e-9)
        assert np.allclose(argmin[right, 0], 0.0, atol=1e-6)
        assert not trunc.any()

    def test_separation_profile_minimum(self):
        # slice f(u) = u*exp(-u); at u0 = 1 the obstacle equals
        # min over xi >= 0 of f(1 + xi) + ell0*(1 + xi), the profile whose
        # far root drives the counterexample construction.
        grid = make_grid_1d(x_min=-1.0, x_max=5.0, x_nodes=1201)
        V = constant_slice_fn(grid, lambda x: x * np.exp(-x))
        ell = ex.parse("0.05*(1 + xi1)", ("t", "x1", "xi1"))
        search = SearchParams(xi_max=5.5)
        res = evaluate(V, 0, np.array([1.0]), ell, Cone.orthant(1), search)

        def psi(xi):
            s = 1.0 + xi
            return s * np.exp(-s) + ELL0 * s

        ref = minimize_scalar(psi, bounds=(1.0, 5.0), method="bounded",
                              options={"xatol": 1e-12})
        assert abs(res.value - ref.fun) <= 1e-6
        assert abs(res.argmin[0] - ref.x) <= 1e-4
        assert not res.truncated
        assert res.argmin[0] > 3.0  # the far root, not the near one

    def test_flat_slice_picks_zero_impulse(self):
        # constant V and constant cost: every impulse ties, the reported
        # argmin must be the smallest one.
        grid = make_grid_1d(x_nodes=51)
        V = GridFunction(grid, np.zeros(grid.shape))
        ell = ex.parse("0.05", ("t", "x1", "xi1"))
        search = SearchParams(xi_max=2.0)
        vals, argmin, trunc = evaluate_slice(V, 1, ell, Cone.orthant(1), search)
        assert np.allclose(vals, 0.05, atol=0)
        assert np.all(argmin == 0.0)
        assert not trunc.any()

    def test_decreasing_slice_truncates_at_cap(self):
        grid = make_grid_1d(x_nodes=251)
        V = constant_slice_fn(grid, lambda x: -x)
        ell = ex.parse("0.05", ("t", "x1", "xi1"))
        search = SearchParams(xi_max=2.0)
        res = evaluate(V, 0, np.array([0.0]), ell, Cone.orthant(1), search)
        assert res.truncated
        assert res.argmin[0] == pytest.approx(2.0, abs=1e-9)
        assert res.value == pytest.approx(-2.0 + 0.05, abs=1e-9)

    def test_cost_depends_on_t_and_x(self):
        # V identically zero and a cost increasing in xi: the infimum sits
        # at xi = 0 and reproduces the cost formula exactly.
        grid = make_grid_1d(x_nodes=41, t_nodes=5)
        V = GridFunction(grid, np.zeros(grid.shape))
        ell = ex.parse("0.05*(1 + t) + 0.01*abs(x1) + 0.05*xi1",
                       ("t", "x1", "xi1"))
        search = SearchParams(xi_max=1.0)
        for k in (0, 4):
            t = grid.t[k]
            vals, argmin, _ = evaluate_slice(V, k, ell, Cone.orthant(1), search)
            expect = 0.05 * (1 + t) + 0.01 * np.abs(grid.axes[0])
            assert np.allclose(vals, expect, atol=1e-12)
            assert np.all(argmin == 0.0)


class TestTwoDimensional:
    def test_orthant_reaches_separable_kink(self):
        grid = Grid(T=1.0, t_nodes=2, x_min=(-1.0, -1.0), x_max=(4.0, 4.0),
                    x_nodes=(51, 51))
        env = grid.space_env()
        slice_vals = np.abs(env["x1"] - 1.0) + np.abs(env["x2"] - 3.0)
        vals = np.broadcast_to(slice_vals, grid.shape).copy()
        V = GridFunction(grid, vals)
        ell = ex.parse("0.05", ("t", "x1", "x2", "xi1", "xi2"))
        search = SearchParams(xi_max=5.0, coarse=13, refine_levels=10)
        res = evaluate(V, 0, np.array([0.0, 1.0]), ell, Cone.orthant(2), search)
        # kink bottom: accuracy is one final zoom cell per coordinate
        assert res.value == pytest.approx(0.05, abs=2e-6)
        assert np.allclose(res.argmin, [1.0, 2.0], atol=1e-4)
        assert not res.truncated

    def test_single_ray_cone_stays_on_ray(self):
        grid = Grid(T=1.0, t_nodes=2, x_min=(-1.0, -1.0), x_max=(4.0, 4.0),
                    x_nodes=(51, 51))
        env = grid.space_env()
        slice_vals = np.abs(env["x1"] - 2.0) + np.abs(env["x2"] - 2.0)
        V = GridFunction(grid, np.broadcast_to(slice_vals, grid.shape).copy())
        ell = ex.parse("0.1", ("t", "x1", "x2", "xi1", "xi2"))
        cone = Cone.from_rays([[1.0, 1.0]])
        search = SearchParams(xi_max=5.0)
        res = evaluate(V, 0, np.array([0.0, 0.0]), ell, cone, search)
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
        search = SearchParams(xi_max=5.0)
        res = evaluate(V, 0, np.array([0.0, 0.0]), ell, cone, search)
        # bilinear interpolation of the quadratic costs dx^2/4 in value
        assert res.value == pytest.approx(2.0 + 0.1, abs=1e-4)
        assert np.allclose(res.argmin, [1.0, 1.0], atol=0.02)


class TestExactProperties:
    def scan_only(self, xi_max=3.0):
        return SearchParams(xi_max=xi_max, coarse=41, refine_levels=0)

    def test_monotone_in_v_on_random_pairs(self):
        # shared scan-only probe set makes monotonicity exact
        rng = np.random.default_rng(7)
        grid = make_grid_1d(x_nodes=61)
        ell = ex.parse("0.05 + 0.05*xi1", ("t", "x1", "xi1"))
        cone = Cone.orthant(1)
        search = self.scan_only()
        worst = 0.0
        for _ in range(100):
            base = rng.normal(size=grid.x_nodes[0])
            bump = rng.uniform(0.0, 1.0, size=grid.x_nodes[0])
            nv, _, _ = evaluate_slice_values(grid, base, 0.5, ell, cone, search)
            nw, _, _ = evaluate_slice_values(grid, base + bump, 0.5, ell, cone,
                                             search)
            worst = max(worst, float(np.max(nv - nw)))
        assert worst <= 1e-12

    def test_shift_equivariance(self):
        rng = np.random.default_rng(8)
        grid = make_grid_1d(x_nodes=61)
        ell = ex.parse("0.05 + 0.05*xi1", ("t", "x1", "xi1"))
        cone = Cone.orthant(1)
        search = self.scan_only()
        for c in (1.0, -2.5, 0.125):
            base = rng.normal(size=grid.x_nodes[0])
            nv, av, _ = evaluate_slice_values(grid, base, 0.5, ell, cone, search)
            ns, as_, _ = evaluate_slice_values(grid, base + c, 0.5, ell, cone,
                                               search)
            assert np.max(np.abs(ns - (nv + c))) <= 1e-12
            assert np.array_equal(av, as_)

    def test_never_exceeds_probed_payoff(self):
        # with refinement on, the result is a running min over every probe,
        # so it is bounded by each coarse-lattice payoff
        rng = np.random.default_rng(9)
        grid = make_grid_1d(x_nodes=61)
        ell = ex.parse("0.05 + 0.05*xi1", ("t", "x1", "xi1"))
        cone = Cone.orthant(1)
        search = SearchParams(xi_max=3.0, coarse=17, refine_levels=6)
        base = rng.normal(size=grid.x_nodes[0])
        vals, _, _ = evaluate_slice_values(grid, base, 0.5, ell, cone, search)
        x = grid.axes[0]
        from qvilab.core import interp_slice
        for xi in np.linspace(0.0, 3.0, 17):
            target = np.clip(x + xi, -1.0, 4.0)[:, None]
            payoff = interp_slice(grid, base, target) + 0.05 + 0.05 * xi
            assert np.all(vals <= payoff + 1e-12)

    def test_monotone_with_refinement_smooth(self):
        # refined searches follow different probe paths, so only ask for
        # agreement at the optimization accuracy, not bitwise
        grid = make_grid_1d(x_nodes=201)
        ell = ex.parse("0.05 + 0.05*xi1", ("t", "x1", "xi1"))
        cone = Cone.orthant(1)
        search = SearchParams(xi_max=3.0)
        x = grid.axes[0]
        base = np.sin(x)
        nv, _, _ = evaluate_slice_values(grid, base, 0.5, ell, cone, search)
        nw, _, _ = evaluate_slice_values(grid, base + 0.3, 0.5, ell, cone,
                                         search)
        assert np.max(nv - nw) <= 1e-9


class TestInterfaces:
    def test_point_matches_slice_at_nodes(self):
        rng = np.random.default_rng(11)
        grid = make_grid_1d(x_nodes=41)
        V = GridFunction(grid, rng.normal(size=grid.shape))
        ell = ex.parse("0.05 + 0.05*xi1", ("t", "x1", "xi1"))
        cone = Cone.orthant(1)
        search = SearchParams(xi_max=2.0, coarse=15, refine_levels=4)
        vals, argmin, trunc = evaluate_slice(V, 1, ell, cone, search)
        for i in (0, 7, 23, 40):
            res = evaluate(V, 1, np.array([grid.axes[0][i]]), ell, cone, search)
            assert res.value == vals[i]
            assert res.argmin[0] == argmin[i, 0]
            assert res.truncated == bool(trunc[i])
            assert res.probes > 0
            assert isinstance(res, ObstacleResult)

    def test_point_between_nodes(self):
        grid = make_grid_1d(x_nodes=501)
        V = constant_slice_fn(grid, lambda x: np.abs(x - 2.0))
        ell = ex.parse("0.05", ("t", "x1", "xi1"))
        res = evaluate(V, 0, np.array([0.123]), ell, Cone.orthant(1),
                       SearchParams(xi_max=4.0))
        # kink bottom off the probe lattice: one final zoom cell of slack
        assert res.value == pytest.approx(0.05, abs=2e-7)
        assert res.argmin[0] == pytest.approx(2.0 - 0.123, abs=1e-5)

    def test_point_outside_box_rejected(self):
        grid = make_grid_1d(x_nodes=21)
        V = GridFunction(grid, np.zeros(grid.shape))
        ell = ex.parse("0.05", ("t", "x1", "xi1"))
        with pytest.raises(ValueError, match="outside"):
            evaluate(V, 0, np.array([4.5]), ell, Cone.orthant(1),
                     SearchParams(xi_max=1.0))

    def test_search_params_validation(self):
        with pytest.raises(ValueError, match="xi_max"):
            SearchParams(xi_max=0.0)
        with pytest.raises(ValueError, match="coarse"):
            SearchParams(xi_max=1.0, coarse=1)
        with pytest.raises(ValueError, match="refine_points"):
            SearchParams(xi_max=1.0, refine_points=2)
        SearchParams(xi_max=1.0, refine_levels=0, refine_points=2)  # ok

