"""Exact obstacle path: brute-force oracles, upper-bound check on the
search, eligibility fallbacks and property tests."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvilab import cli
from qvilab import example as exm
from qvilab import expr as ex
from qvilab import obstacle as obs
from qvilab import viscosity as vc
from qvilab.core import Cone, Grid, GridFunction, interp_slice, load_problem
from qvilab.obstacle import (
    SearchParams,
    _exact_slopes,
    _search,
    _SliceEvaluator,
    default_search,
    evaluate,
    evaluate_slice,
    evaluate_slice_values,
)
from qvilab.solver import solve_qvi

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
VARS_1D = ("t", "x1", "xi1")
VARS_2D = ("t", "x1", "x2", "xi1", "xi2")


def grid_1d(x_nodes=41, x_min=-1.0, x_max=4.0):
    return Grid(T=1.0, t_nodes=3, x_min=(x_min,), x_max=(x_max,),
                x_nodes=(x_nodes,))


def grid_2d(x_nodes=(9, 11), x_min=(-1.0, 0.0), x_max=(2.0, 3.0)):
    return Grid(T=1.0, t_nodes=3, x_min=x_min, x_max=x_max, x_nodes=x_nodes)


def nodes_of(grid):
    env = grid.space_env()
    return np.stack([env[f"x{d + 1}"].ravel() for d in range(grid.n)], axis=-1)


def payoffs(grid, values, ell, t, x, xi):
    """V(x + xi) + ell(t, xi) for impulses xi (B, n), as the operator reports it."""
    env = {"t": t}
    env.update({f"xi{d + 1}": xi[:, d] for d in range(grid.n)})
    cost = np.broadcast_to(np.asarray(ex.evaluate(ell, env), dtype=float),
                           (xi.shape[0],))
    return interp_slice(grid, values, x + xi) + cost


def payoff(grid, values, ell, t, x, xi):
    return payoffs(grid, values, ell, t, x, np.asarray(xi)[None, :])[0]


def node_or_interp(grid, values, y):
    """Node value where every coordinate of y is a node, else interpolated."""
    index = []
    for d, axis in enumerate(grid.axes):
        hit = np.flatnonzero(axis == y[d])
        if hit.size == 0:
            return interp_slice(grid, values, np.asarray(y)[None, :])[0]
        index.append(hit[0])
    return values[tuple(index)]


def oracle(grid, values, slopes, xi_max, x):
    """Brute-force enumeration of the exact path's candidate set at x.

    1-d landing points: x, the nodes in (x, x + xi_max], and the window end
    x + xi_max when it lies strictly inside the box between nodes.  2-d:
    the product over both axes of {x_d} u {nodes > x_d}.  Picks by
    V(y) + c.y, then |xi|, then lexicographic xi.  Returns (xi, count).
    """
    if grid.n == 1:
        axis, x0 = grid.axes[0], x[0]
        cands = [(x0, 0.0)] + [(y, y - x0) for y in axis
                               if x0 < y <= x0 + xi_max]
        end = x0 + xi_max
        if end < axis[-1] and end not in axis:
            cands.append((end, xi_max))
        ranked = [(node_or_interp(grid, values, [y]) + slopes[0] * y, xi)
                  for y, xi in cands]
        return np.array([min(ranked)[1]]), len(ranked)
    per_axis = [[x[d]] + [y for y in axis if y > x[d]]
                for d, axis in enumerate(grid.axes)]
    ranked = []
    for y0 in per_axis[0]:
        for y1 in per_axis[1]:
            key = (node_or_interp(grid, values, [y0, y1]) + slopes[0] * y0
                   + slopes[1] * y1)
            xi = np.array([[y0 - x[0], y1 - x[1]]])
            ranked.append((key, np.linalg.norm(xi, axis=-1)[0], *xi[0]))
    return np.array(min(ranked)[2:]), len(ranked)


def check_against_oracle(grid, values, ell, search, points=()):
    """Slice at every node, and evaluate at the nodes and at `points`."""
    t = 0.5
    cone = Cone.orthant(grid.n)
    slopes = _exact_slopes(grid, t, ell, cone, search)
    assert slopes is not None
    V = GridFunction(grid, np.broadcast_to(values, grid.shape))
    slice_vals, slice_xi, _ = evaluate_slice(V, 1, ell, cone, search)
    nodes = nodes_of(grid)
    for i, x in enumerate(np.vstack([nodes, np.reshape(points, (-1, grid.n))])):
        want_xi, want_count = oracle(grid, values, slopes, search.xi_max, x)
        want_value = payoff(grid, values, ell, t, x, want_xi)
        if i < len(nodes):
            idx = np.unravel_index(i, grid.x_nodes)
            assert np.array_equal(slice_xi[idx], want_xi), (x, slice_xi[idx])
            assert slice_vals[idx] == want_value
        res = evaluate(V, 1, x, ell, cone, search)
        assert np.array_equal(res.argmin, want_xi), (x, res.argmin, want_xi)
        assert res.value == want_value
        assert res.probes == want_count


# ---------------------------------------------------------------- oracles ----

class TestOracle:
    @pytest.mark.parametrize("xi_max", [5.0, 1.3, 1.0])
    def test_random_1d_slices(self, xi_max):
        # 5.0 covers the box; 1.3 ends the window between nodes; 1.0 ends it
        # on a node (dx = 0.25), where no separate end candidate is added
        rng = np.random.default_rng(21)
        grid = grid_1d(x_nodes=21, x_min=0.0, x_max=5.0)
        ell = ex.parse("0.05 + 0.08*xi1", VARS_1D)
        search = SearchParams(xi_max=xi_max)
        off_node = rng.uniform(0.0, 5.0, size=(8, 1))
        for _ in range(5):
            values = rng.normal(size=21)
            check_against_oracle(grid, values, ell, search, off_node)

    def test_random_2d_slices(self):
        rng = np.random.default_rng(22)
        grid = grid_2d()
        ell = ex.parse("0.1 + 0.05*xi1 + 0.2*xi2", VARS_2D)
        search = SearchParams(xi_max=grid.box_diagonal)
        off_node = np.column_stack([rng.uniform(-1.0, 2.0, 6),
                                    rng.uniform(0.0, 3.0, 6)])
        # half-off: one coordinate on a node line, the other between nodes
        mixed = np.array([[grid.axes[0][3], 1.1], [0.05, grid.axes[1][4]]])
        for _ in range(3):
            values = rng.normal(size=grid.x_nodes)
            check_against_oracle(grid, values, ell, search,
                                 np.vstack([off_node, mixed]))

    @pytest.mark.parametrize("cost", ["0.1", "0.1 + 1.0*xi1"])
    def test_plateau_1d_tie_break(self, cost):
        # dyadic nodes and integer values make many keys tie exactly
        rng = np.random.default_rng(23)
        grid = grid_1d(x_nodes=17, x_min=0.0, x_max=4.0)
        ell = ex.parse(cost, VARS_1D)
        for xi_max in (4.0, 1.5):
            search = SearchParams(xi_max=xi_max)
            for _ in range(5):
                values = rng.integers(0, 3, size=17).astype(float)
                check_against_oracle(grid, values, ell, search)

    @pytest.mark.parametrize("cost", ["0.1", "0.1 + 1.0*xi1 + 0.5*xi2",
                                      "0.1 + 1.0*xi2"])
    def test_plateau_2d_tie_break(self, cost):
        rng = np.random.default_rng(24)
        grid = grid_2d(x_nodes=(9, 7), x_min=(0.0, 0.0), x_max=(2.0, 1.5))
        ell = ex.parse(cost, VARS_2D)
        search = SearchParams(xi_max=grid.box_diagonal)
        for _ in range(3):
            values = rng.integers(0, 3, size=grid.x_nodes).astype(float)
            check_against_oracle(grid, values, ell, search)

    @pytest.mark.parametrize("n", [1, 2])
    def test_point_matches_slice_bitwise_at_nodes(self, n):
        rng = np.random.default_rng(25)
        if n == 1:
            grid = grid_1d(x_nodes=30)
            ell = ex.parse("0.05 + 0.05*xi1", VARS_1D)
            search = SearchParams(xi_max=1.7)
        else:
            grid = grid_2d()
            ell = ex.parse("0.05 + 0.05*(xi1 + xi2)", VARS_2D)
            search = SearchParams(xi_max=grid.box_diagonal)
        values = rng.integers(0, 4, size=grid.shape).astype(float)
        values[1] = rng.normal(size=grid.x_nodes)
        V = GridFunction(grid, values)
        cone = Cone.orthant(n)
        for k in (0, 1):
            vals, argmin, trunc = evaluate_slice(V, k, ell, cone, search)
            for flat, x in enumerate(nodes_of(grid)):
                idx = np.unravel_index(flat, grid.x_nodes)
                res = evaluate(V, k, x, ell, cone, search)
                assert res.value == vals[idx]
                assert np.array_equal(res.argmin, argmin[idx])
                assert res.truncated == bool(trunc[idx])

    def test_value_is_the_infimum_of_sampled_payoffs(self):
        # independent of the candidate rule: no feasible impulse, inside or
        # beyond the box, pays less than the reported value
        rng = np.random.default_rng(26)
        cases = ((grid_1d(x_nodes=21), ex.parse("0.05 + 0.1*xi1", VARS_1D)),
                 (grid_2d(), ex.parse("0.05 + 0.1*xi1 + 0.02*xi2", VARS_2D)))
        for grid, ell in cases:
            xi_max = 2.2 if grid.n == 1 else grid.box_diagonal
            search = SearchParams(xi_max=xi_max)
            values = rng.normal(size=grid.x_nodes)
            vals, _, _ = evaluate_slice_values(grid, values, 0.5, ell,
                                               Cone.orthant(grid.n), search)
            vals = vals.ravel()
            for i, x in enumerate(nodes_of(grid)):
                xi = rng.uniform(0.0, xi_max, size=(200, grid.n))
                xi = xi[np.linalg.norm(xi, axis=1) <= xi_max]
                psi = payoffs(grid, values, ell, 0.5, x, xi)
                assert vals[i] <= psi.min() + 1e-12


# ------------------------------------------------------- search is a bound ----

class TestSearchUpperBound:
    def search_values(self, grid, values, ell, search):
        ev = _SliceEvaluator(grid, values, 0.5, ell, nodes_of(grid))
        return _search(ev, Cone.orthant(grid.n), search)[0]

    @pytest.mark.parametrize("xi_max", [5.0, 1.3])
    def test_1d(self, xi_max):
        rng = np.random.default_rng(31)
        grid = grid_1d(x_nodes=41)
        ell = ex.parse("0.05*(1 + xi1)", VARS_1D)
        search = SearchParams(xi_max=xi_max)
        for _ in range(5):
            values = np.cumsum(rng.normal(size=41)) * 0.2
            exact, _, _ = evaluate_slice_values(grid, values, 0.5, ell,
                                                Cone.orthant(1), search)
            searched = self.search_values(grid, values, ell, search)
            assert np.all(searched >= exact - 1e-12)

    def test_2d(self):
        rng = np.random.default_rng(32)
        grid = grid_2d(x_nodes=(9, 9))
        ell = ex.parse("0.1 + 0.05*(xi1 + xi2)", VARS_2D)
        search = SearchParams(xi_max=grid.box_diagonal)
        for _ in range(2):
            values = rng.normal(size=grid.x_nodes)
            exact, _, _ = evaluate_slice_values(grid, values, 0.5, ell,
                                                Cone.orthant(2), search)
            searched = self.search_values(grid, values, ell, search)
            assert np.all(searched >= exact.ravel() - 1e-12)

    def test_example_config_slices(self):
        cfg = load_problem((CONFIGS / "example.cfg").read_text())
        res = solve_qvi(cfg.problem, cfg.grid, constants=cfg.constants)
        grid = cfg.grid
        search = default_search(grid)
        for k in range(0, grid.t_nodes, 20):
            exact, _, _ = evaluate_slice_values(
                grid, res.V.values[k], float(grid.t[k]), cfg.problem.ell,
                cfg.problem.cone, search)
            ev = _SliceEvaluator(grid, res.V.values[k], float(grid.t[k]),
                                 cfg.problem.ell, nodes_of(grid))
            searched = _search(ev, cfg.problem.cone, search)[0]
            assert np.all(searched >= exact - 1e-12)


# -------------------------------------------------------------- fallback ----

class TestEligibility:
    @pytest.mark.parametrize("source", [
        "0.05*(1 + xi1)", "(0.1 + 0.05*xi1)/2", "-(-0.1 - xi1)",
        "exp(t)*xi1 + 0.1 + t^2", "0.1 + xi1*(1 + t)", "0.3",
    ])
    def test_affine_costs_take_the_exact_path(self, source):
        ell = ex.parse(source, VARS_1D)
        assert _exact_slopes(grid_1d(), 0.5, ell, Cone.orthant(1),
                             SearchParams(xi_max=1.0)) is not None

    @pytest.mark.parametrize("n, source, cone, xi_max", [
        (1, "0.05*(1 + xi1^2)", "orthant", 2.0),        # nonlinear in xi
        (1, "0.05 + sqrt(xi1)", "orthant", 2.0),        # call on xi
        (1, "0.05 + xi1*xi1", "orthant", 2.0),          # product of xi terms
        (1, "0.1 + 0.05/(1 + xi1)", "orthant", 2.0),    # division by xi
        (1, "0.05 + 0.01*x1 + 0.05*xi1", "orthant", 2.0),  # reads x
        (1, "0.05 + 0.05*xi1", "rays", 2.0),            # ray cone
        (1, "2.0 - 0.1*xi1", "orthant", 2.0),           # negative slope
        (2, "0.1 + 0.05*(xi1 + xi2)", "orthant", 2.5),  # ball cuts cells
        (2, "0.1 + 0.05*xi1 - 0.01*xi2", "orthant", 10.0),  # negative slope
    ])
    def test_ineligible_problems_run_the_search(self, n, source, cone, xi_max):
        rng = np.random.default_rng(41)
        grid = grid_1d(x_nodes=21) if n == 1 else grid_2d(x_nodes=(7, 7))
        ell = ex.parse(source, VARS_1D if n == 1 else VARS_2D)
        cone = Cone.orthant(n) if cone == "orthant" else Cone.from_rays(
            np.eye(n))
        search = SearchParams(xi_max=xi_max, coarse=9, refine_levels=3)
        assert _exact_slopes(grid, 0.5, ell, cone, search) is None
        values = rng.normal(size=grid.x_nodes)
        got = evaluate_slice_values(grid, values, 0.5, ell, cone, search)
        ev = _SliceEvaluator(grid, values, 0.5, ell, nodes_of(grid))
        want = _search(ev, cone, search)
        assert np.array_equal(got[0].ravel(), want[0])
        assert np.array_equal(got[1].reshape(-1, n), want[1])
        assert np.array_equal(got[2].ravel(), want[2])


# ------------------------------------------------------------- properties ----

@st.composite
def slices(draw):
    n = draw(st.sampled_from([1, 2]))
    if n == 1:
        grid = grid_1d(x_nodes=draw(st.integers(2, 24)))
        xi_max = draw(st.sampled_from([5.0, 2.0, 0.7]))
        ell = ex.parse("0.05 + 0.1*xi1", VARS_1D)
    else:
        grid = grid_2d(x_nodes=(draw(st.integers(2, 6)),
                                draw(st.integers(2, 6))))
        xi_max = grid.box_diagonal
        ell = ex.parse("0.05 + 0.1*xi1 + 0.03*xi2", VARS_2D)
    size = int(np.prod(grid.x_nodes))
    level = st.floats(-100.0, 100.0, allow_nan=False)
    values = np.array(draw(st.lists(level, min_size=size, max_size=size)))
    bump = np.array(draw(st.lists(st.floats(0.0, 50.0), min_size=size,
                                  max_size=size)))
    return (grid, values.reshape(grid.x_nodes), bump.reshape(grid.x_nodes),
            ell, SearchParams(xi_max=xi_max))


def exact_n(grid, values, ell, search):
    cone = Cone.orthant(grid.n)
    assert _exact_slopes(grid, 0.5, ell, cone, search) is not None
    return evaluate_slice_values(grid, values, 0.5, ell, cone, search)[0]


PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                             database=None)


@PROPERTY_SETTINGS
@given(slices())
def test_exact_n_is_monotone_in_v(case):
    grid, values, bump, ell, search = case
    low = exact_n(grid, values, ell, search)
    high = exact_n(grid, values + bump, ell, search)
    assert np.all(low <= high + 1e-10)


@PROPERTY_SETTINGS
@given(slices(), st.floats(-100.0, 100.0, allow_nan=False))
def test_exact_n_is_shift_equivariant(case, shift):
    grid, values, _, ell, search = case
    base = exact_n(grid, values, ell, search)
    moved = exact_n(grid, values + shift, ell, search)
    assert np.allclose(moved, base + shift, rtol=0.0, atol=1e-10)


# ------------------------------------------------------ callers of the path ----

class TestCallers:
    def test_solve_reuses_settled_sweep_bitwise(self, monkeypatch):
        cfg = load_problem((CONFIGS / "example.cfg").read_text(),
                           ("grid.t_nodes=21", "grid.x_nodes=71"))
        calls = []
        inner = obs.evaluate_slice_values

        def counted(*args):
            calls.append(1)
            return inner(*args)

        monkeypatch.setattr(obs, "evaluate_slice_values", counted)
        res = solve_qvi(cfg.problem, cfg.grid, constants=cfg.constants)
        monkeypatch.undo()
        grid = cfg.grid
        # every slice here settles with an update of exactly zero, so the
        # calls are one per sweep plus the terminal slice, no repeat
        assert len(calls) == 1 + int(res.iterations.sum())
        search = default_search(grid)
        for k in range(grid.t_nodes - 1):
            n_vals, arg, trunc = evaluate_slice_values(
                grid, res.V.values[k], float(grid.t[k]), cfg.problem.ell,
                cfg.problem.cone, search)
            assert np.array_equal(res.obstacle_gap.values[k],
                                  n_vals - res.V.values[k])
            assert np.array_equal(res.argmin_xi[k], arg)
            assert np.array_equal(res.truncated[k], trunc)

    def test_every_caller_resolves_the_one_radius(self, monkeypatch,
                                                   tmp_path):
        seen = {}
        inner = obs._exact_slopes
        caller = ["solve_qvi"]

        def spy(grid, t, ell, cone, search):
            seen.setdefault(caller[0], set()).add(
                search == default_search(grid)
                == SearchParams(xi_max=grid.box_diagonal))
            return inner(grid, t, ell, cone, search)

        monkeypatch.setattr(obs, "_exact_slopes", spy)
        cfg = load_problem((CONFIGS / "example.cfg").read_text(),
                           ("grid.t_nodes=21", "grid.x_nodes=71"))
        res = solve_qvi(cfg.problem, cfg.grid, constants=cfg.constants)
        caller[0] = "obstacle_gap"
        vc.obstacle_gap(res.V, cfg.problem)
        caller[0] = "measure_obstacle_gap"
        exm.measure_obstacle_gap(exm.build_instance())
        caller[0] = "reproduce-example"
        assert cli.main(["reproduce-example", "--out", str(tmp_path)]) == 0
        assert seen == {name: {True} for name in (
            "solve_qvi", "obstacle_gap", "measure_obstacle_gap",
            "reproduce-example")}

    def test_grid_nodes_are_cached_read_only(self):
        grid = grid_2d()
        assert grid.t is grid.t
        assert grid.axes[0] is grid.axes[0]
        assert not grid.t.flags.writeable
        assert not grid.axes[1].flags.writeable
        assert np.array_equal(grid.t, np.linspace(0.0, 1.0, 3))
        twin = grid_2d()
        assert twin == grid and hash(twin) == hash(grid)
        assert repr(twin) == repr(grid) and "_t" not in repr(grid)
