"""Exact obstacle path: brute-force oracles, upper-bound check on the
search, eligibility fallbacks and property tests."""

import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvilab import expr as ex
from qvilab import obstacle as obs
from qvilab.core import (Cone, Grid, GridFunction, ImpulseProblem, interp_slice,
                         load_problem)
from qvilab.obstacle import (_exact_slopes, _search, evaluate,
                             evaluate_slice_values)
from qvilab.solver import solve_qvi

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
PERFBENCH = CONFIGS.parent / "perfbench"
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
    return interp_slice(grid, values[None], (x + xi)[None])[0] + cost


def payoff(grid, values, ell, t, x, xi):
    return payoffs(grid, values, ell, t, x, np.asarray(xi)[None, :])[0]


def node_or_interp(grid, values, y):
    """Node value where every coordinate of y is a node, else interpolated."""
    index = []
    for d, axis in enumerate(grid.axes):
        hit = np.flatnonzero(axis == y[d])
        if hit.size == 0:
            return interp_slice(grid, values[None],
                                np.asarray(y)[None, None, :])[0, 0]
        index.append(hit[0])
    return values[tuple(index)]


def oracle(grid, values, slopes, x):
    """Brute-force enumeration of the exact path's candidate set at x.

    Landing points: the product over the axes of {x_d} u {nodes > x_d}.
    Picks by V(y) + c.y, then |xi|, then lexicographic xi.  Returns
    (xi, count).
    """
    per_axis = [[x[d]] + [y for y in axis if y > x[d]]
                for d, axis in enumerate(grid.axes)]
    ranked = []
    for y in itertools.product(*per_axis):
        key = node_or_interp(grid, values, y)
        for slope, y_d in zip(slopes, y):
            key = key + slope * y_d
        xi = np.array([np.subtract(y, x)])
        ranked.append((key, np.linalg.norm(xi, axis=-1)[0], *xi[0]))
    return np.array(min(ranked)[2:]), len(ranked)


def check_against_oracle(grid, values, ell, points=()):
    """Slice at every node, and evaluate at the nodes and at `points`."""
    t = 0.5
    cone = Cone.orthant(grid.n)
    (slopes,) = _exact_slopes(grid, [t], ell, cone)
    assert slopes is not None
    V = GridFunction(grid, np.broadcast_to(values, grid.shape))
    (slice_vals,), (slice_xi,) = evaluate_slice_values(
        grid, V.values[1:2], grid.t[1:2], ell, cone)
    nodes = nodes_of(grid)
    for i, x in enumerate(np.vstack([nodes, np.reshape(points, (-1, grid.n))])):
        want_xi, want_count = oracle(grid, values, slopes, x)
        want_value = payoff(grid, values, ell, t, x, want_xi)
        if i < len(nodes):
            idx = np.unravel_index(i, grid.x_nodes)
            assert np.array_equal(slice_xi[idx], want_xi), (x, slice_xi[idx])
            assert slice_vals[idx] == want_value
        res = evaluate(V, 1, x, ell, cone)
        assert np.array_equal(res.argmin, want_xi), (x, res.argmin, want_xi)
        assert res.value == want_value
        assert res.probes == want_count


# ---------------------------------------------------------------- oracles ----

class TestOracle:
    def test_random_1d_slices(self):
        rng = np.random.default_rng(21)
        grid = grid_1d(x_nodes=21, x_min=0.0, x_max=5.0)
        ell = ex.parse("0.05 + 0.08*xi1", VARS_1D)
        off_node = rng.uniform(0.0, 5.0, size=(8, 1))
        for _ in range(5):
            values = rng.normal(size=21)
            check_against_oracle(grid, values, ell, off_node)

    def test_random_2d_slices(self):
        rng = np.random.default_rng(22)
        grid = grid_2d()
        ell = ex.parse("0.1 + 0.05*xi1 + 0.2*xi2", VARS_2D)
        off_node = np.column_stack([rng.uniform(-1.0, 2.0, 6),
                                    rng.uniform(0.0, 3.0, 6)])
        # half-off: one coordinate on a node line, the other between nodes
        mixed = np.array([[grid.axes[0][3], 1.1], [0.05, grid.axes[1][4]]])
        for _ in range(3):
            values = rng.normal(size=grid.x_nodes)
            check_against_oracle(grid, values, ell,
                                 np.vstack([off_node, mixed]))

    @pytest.mark.parametrize("cost", ["0.1", "0.1 + 1.0*xi1"])
    def test_plateau_1d_tie_break(self, cost):
        # dyadic nodes and integer values make many keys tie exactly
        rng = np.random.default_rng(23)
        grid = grid_1d(x_nodes=17, x_min=0.0, x_max=4.0)
        ell = ex.parse(cost, VARS_1D)
        for _ in range(5):
            values = rng.integers(0, 3, size=17).astype(float)
            check_against_oracle(grid, values, ell)

    @pytest.mark.parametrize("cost", ["0.1", "0.1 + 1.0*xi1 + 0.5*xi2",
                                      "0.1 + 1.0*xi2", "0.1 + 1.0*xi1"])
    def test_plateau_2d_tie_break(self, cost):
        # "0.1 + 1.0*xi1" has a zero slope along axis 2, so keys tie
        # within rows, which the first-index scan settles without _node_ties
        rng = np.random.default_rng(24)
        grid = grid_2d(x_nodes=(9, 7), x_min=(0.0, 0.0), x_max=(2.0, 1.5))
        ell = ex.parse(cost, VARS_2D)
        for _ in range(3):
            values = rng.integers(0, 3, size=grid.x_nodes).astype(float)
            check_against_oracle(grid, values, ell)

    def test_point_keys_sum_left_to_right(self):
        # tenths and these slopes round, so which keys tie depends on the
        # order of summation; the oracle and the node scans take
        # ((v + c1*y1) + c2*y2)
        rng = np.random.default_rng(27)
        grid = grid_2d(x_nodes=(9, 7), x_min=(0.0, 0.0), x_max=(2.0, 1.5))
        ell = ex.parse("0.1 + 0.3*xi1 + 0.7*xi2", VARS_2D)
        for _ in range(10):
            values = 0.1 * rng.integers(0, 3, size=grid.x_nodes)
            check_against_oracle(grid, values, ell)

    @pytest.mark.parametrize("n", [1, 2])
    def test_point_matches_slice_bitwise_at_nodes(self, n):
        rng = np.random.default_rng(25)
        if n == 1:
            grid = grid_1d(x_nodes=30)
            ell = ex.parse("0.05 + 0.05*xi1", VARS_1D)
        else:
            grid = grid_2d()
            ell = ex.parse("0.05 + 0.05*(xi1 + xi2)", VARS_2D)
        # the exact path, where points and nodes run different code
        values = rng.integers(0, 4, size=grid.shape).astype(float)
        values[1] = rng.normal(size=grid.x_nodes)
        V = GridFunction(grid, values)
        cone = Cone.orthant(n)
        assert _exact_slopes(grid, [0.5], ell, cone)[0] is not None
        vals, argmin = evaluate_slice_values(grid, V.values[:2], grid.t[:2],
                                             ell, cone)
        for k in (0, 1):
            for flat, x in enumerate(nodes_of(grid)):
                idx = (k,) + np.unravel_index(flat, grid.x_nodes)
                res = evaluate(V, k, x, ell, cone)
                assert res.value == vals[idx]
                assert np.array_equal(res.argmin, argmin[idx])

    def test_tied_nodes_match_the_point_enumerator_in_any_batch(
            self, monkeypatch):
        # integer values tie many keys; the batched tie-break over the row
        # minima must pick what _exact_point picks over the whole quadrant
        # at each tied node, whatever the batch
        rng = np.random.default_rng(28)
        grid = grid_2d(x_nodes=(9, 7), x_min=(0.0, 0.0), x_max=(2.0, 1.5))
        ax0, ax1 = grid.axes
        # the three slices run as one stack, each with its own slopes
        slopes = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.5]])
        values = rng.integers(0, 3, size=(3,) + grid.x_nodes).astype(float)
        key = (values + slopes[:, :1, None] * ax0[:, None]
               + slopes[:, 1:, None] * ax1)
        row_min, row_arg = obs._suffix_min(key.T)
        ti, tj, tk = np.nonzero(np.ones(grid.x_nodes + (3,), dtype=bool))
        want = np.array([obs._exact_point(grid, values[k], slopes[k],
                                          np.array([ax0[i], ax1[j]]))[0]
                         for i, j, k in zip(ti, tj, tk)])
        for batch in (1, 100, obs.NODE_BATCH):
            monkeypatch.setattr(obs, "NODE_BATCH", batch)
            got = obs._node_ties(grid, row_min, row_arg, ti, tj, tk)
            assert np.array_equal(got, want)

    def test_two_column_pick_keeps_the_incumbent(self):
        # the search merges its incumbent (column 0) with each zoom level's
        # pick (column 1) by the one (value, |xi|, lexicographic) rule
        nan = np.nan
        cases = [  # incumbent, candidate: (value, xi), then the column kept
            ((1.0, (0.5, 0.0)), (1.0, (0.5, 0.0)), 0),  # full tie
            ((1.0, (0.5, 0.0)), (0.9, (0.5, 0.0)), 1),  # lower value
            ((1.0, (0.5, 0.0)), (1.0, (0.2, 0.0)), 1),  # shorter jump
            ((1.0, (0.2, 0.0)), (1.0, (0.5, 0.0)), 0),
            ((1.0, (0.8, 0.6)), (1.0, (0.6, 0.8)), 1),  # lexicographic
            ((1.0, (0.6, 0.8)), (1.0, (0.8, 0.6)), 0),
            ((1.0, (0.5, 0.0)), (nan, (0.1, 0.0)), 0),  # NaN keeps column 0
            ((nan, (0.5, 0.0)), (0.1, (0.1, 0.0)), 0),
        ]
        values = np.array([[inc[0], cand[0]] for inc, cand, _ in cases])
        xi = np.array([[inc[1], cand[1]] for inc, cand, _ in cases])
        assert obs._batch_best(values, xi).tolist() == [
            kept for _, _, kept in cases]

    def test_value_is_the_infimum_of_sampled_payoffs(self):
        # independent of the candidate rule: no feasible impulse, inside or
        # beyond the box, pays less than the reported value; the 1-d case
        # writes the orthant as a ray, so it runs the search
        rng = np.random.default_rng(26)
        cases = ((grid_1d(x_nodes=21), ex.parse("0.05 + 0.1*xi1", VARS_1D),
                  Cone.from_rays(np.eye(1))),
                 (grid_2d(), ex.parse("0.05 + 0.1*xi1 + 0.02*xi2", VARS_2D),
                  Cone.orthant(2)))
        for grid, ell, cone in cases:
            xi_max = grid.box_diagonal
            values = rng.normal(size=grid.x_nodes)
            vals, _ = evaluate_slice_values(grid, values[None], [0.5], ell,
                                            cone)
            vals = vals.ravel()
            for i, x in enumerate(nodes_of(grid)):
                xi = rng.uniform(0.0, xi_max, size=(200, grid.n))
                xi = xi[np.linalg.norm(xi, axis=1) <= xi_max]
                psi = payoffs(grid, values, ell, 0.5, x, xi)
                assert vals[i] <= psi.min() + 1e-12


# ------------------------------------------------------- search is a bound ----

class TestSearchUpperBound:
    def search_values(self, grid, values, ell, t=0.5):
        return _search(grid, values[None], np.array([t]), ell,
                       nodes_of(grid), Cone.orthant(grid.n))[0][0]

    def test_1d(self):
        rng = np.random.default_rng(31)
        grid = grid_1d(x_nodes=41)
        ell = ex.parse("0.05*(1 + xi1)", VARS_1D)
        for _ in range(5):
            values = np.cumsum(rng.normal(size=41)) * 0.2
            (exact,), _ = evaluate_slice_values(grid, values[None], [0.5],
                                                ell, Cone.orthant(1))
            searched = self.search_values(grid, values, ell)
            assert np.all(searched >= exact - 1e-12)

    def test_2d(self):
        rng = np.random.default_rng(32)
        grid = grid_2d(x_nodes=(9, 9))
        ell = ex.parse("0.1 + 0.05*(xi1 + xi2)", VARS_2D)
        for _ in range(2):
            values = rng.normal(size=grid.x_nodes)
            (exact,), _ = evaluate_slice_values(grid, values[None], [0.5],
                                                ell, Cone.orthant(2))
            searched = self.search_values(grid, values, ell)
            assert np.all(searched >= exact.ravel() - 1e-12)

    def test_example_config_slices(self):
        cfg = load_problem((CONFIGS / "example.cfg").read_text())
        res = solve_qvi(cfg.problem, cfg.grid)
        grid = cfg.grid
        ks = slice(0, grid.t_nodes, 20)
        exact, _ = evaluate_slice_values(grid, res.V.values[ks], grid.t[ks],
                                         cfg.problem.ell, cfg.problem.cone)
        searched = _search(grid, res.V.values[ks], grid.t[ks],
                           cfg.problem.ell, nodes_of(grid),
                           cfg.problem.cone)[0]
        assert np.all(searched >= exact - 1e-12)


# -------------------------------------------------------------- fallback ----

class TestEligibility:
    @pytest.mark.parametrize("source", [
        "0.05*(1 + xi1)", "(0.1 + 0.05*xi1)/2", "-(-0.1 - xi1)",
        "exp(t)*xi1 + 0.1 + t^2", "0.1 + xi1*(1 + t)", "0.3",
    ])
    def test_affine_costs_take_the_exact_path(self, source):
        ell = ex.parse(source, VARS_1D)
        grid = grid_1d()
        assert _exact_slopes(grid, [0.5], ell, Cone.orthant(1))[0] is not None

    def test_exact_path_flags_the_box_edge(self):
        # node 0 jumps across the whole box, the diagonal: the exact path
        # lands on the edge x1 = 1 as the search would, and the solve says
        # so; the first stepped slice clips its 20 nodes left of the edge,
        # and the slice below it, stepped from that one, clips none
        grid = grid_1d(x_nodes=21, x_min=0.0, x_max=1.0)
        problem = ImpulseProblem(
            n=1, T=1.0, H=ex.parse("0", ("t", "x1", "p1")),
            h=ex.parse("-10*x1", ("x1",)),
            ell=ex.parse("0.05 + 0.01*xi1", VARS_1D), cone=Cone.orthant(1))
        assert _exact_slopes(grid, [0.5], problem.ell,
                             problem.cone)[0] is not None
        res = solve_qvi(problem, grid, (0.0,))
        _, arg = evaluate_slice_values(grid, res.V.values[:1], grid.t[:1],
                                       problem.ell, problem.cone)
        assert arg[0, 0, 0] == 1.0
        assert res.flags == ("best jump reaches x1 = 1 at 20 clipped nodes",)
        point = evaluate(res.V, 0, [0.0], problem.ell, problem.cone)
        assert point.argmin[0] == 1.0

    @pytest.mark.parametrize("n, source, cone", [
        (1, "0.05*(1 + xi1^2)", "orthant"),           # nonlinear in xi
        (1, "0.05 + sqrt(xi1)", "orthant"),           # call on xi
        (1, "0.05 + xi1*xi1", "orthant"),             # product of xi terms
        (1, "0.1 + 0.05/(1 + xi1)", "orthant"),       # division by xi
        (1, "0.05 + 0.01*x1 + 0.05*xi1", "orthant"),  # reads x
        (1, "0.05 + 0.05*xi1", "rays"),               # ray cone
        (1, "2.0 - 0.1*xi1", "orthant"),              # negative slope
        (2, "0.1 + 0.05*xi1 - 0.01*xi2", "orthant"),  # negative slope
    ])
    def test_ineligible_problems_run_the_search(self, n, source, cone,
                                                 monkeypatch):
        rng = np.random.default_rng(41)
        grid = grid_1d(x_nodes=21) if n == 1 else grid_2d(x_nodes=(7, 7))
        ell = ex.parse(source, VARS_1D if n == 1 else VARS_2D)
        cone = Cone.orthant(n) if cone == "orthant" else Cone.from_rays(
            np.eye(n))
        monkeypatch.setattr(obs, "COARSE", 9)
        monkeypatch.setattr(obs, "REFINE_LEVELS", 3)
        assert _exact_slopes(grid, [0.5], ell, cone) == [None]
        values = rng.normal(size=(1,) + grid.x_nodes)
        t = np.array([0.5])
        got = evaluate_slice_values(grid, values, t, ell, cone)
        want = _search(grid, values, t, ell, nodes_of(grid), cone)
        assert np.array_equal(got[0].reshape(1, -1), want[0])
        assert np.array_equal(got[1].reshape(1, -1, n), want[1])

    def test_form_of_the_cost_is_judged_once(self):
        """t-free slopes are computed once per cost and shared read-only;
        t-dependent ones follow each call's t; the cone is still checked
        on every call."""
        grid = grid_1d()
        cone = Cone.orthant(1)
        timed = ex.parse("xi1*(1 + t)", VARS_1D)
        times = (0.0, 0.25, 0.5)
        for t, slopes in zip(times, _exact_slopes(grid, times, timed, cone)):
            assert slopes[0] == 1.0 + t
        source = "0.05*(1 + xi1)"
        (first,) = _exact_slopes(grid, [0.2], ex.parse(source, VARS_1D), cone)
        (again,) = _exact_slopes(grid, [0.7], ex.parse(source, VARS_1D), cone)
        assert again is first and not first.flags.writeable
        assert first[0] == 0.05 * 2.0 - 0.05 * 1.0
        rays = Cone.from_rays([[1.0]])
        ell = ex.parse(source, VARS_1D)
        assert _exact_slopes(grid, [0.2], ell, rays) == [None]


# ------------------------------------------------------------- properties ----

@st.composite
def slices(draw):
    n = draw(st.sampled_from([1, 2]))
    if n == 1:
        grid = grid_1d(x_nodes=draw(st.integers(2, 24)))
        ell = ex.parse("0.05 + 0.1*xi1", VARS_1D)
    else:
        grid = grid_2d(x_nodes=(draw(st.integers(2, 6)),
                                draw(st.integers(2, 6))))
        ell = ex.parse("0.05 + 0.1*xi1 + 0.03*xi2", VARS_2D)
    size = int(np.prod(grid.x_nodes))
    level = st.floats(-100.0, 100.0, allow_nan=False)
    values = np.array(draw(st.lists(level, min_size=size, max_size=size)))
    bump = np.array(draw(st.lists(st.floats(0.0, 50.0), min_size=size,
                                  max_size=size)))
    return (grid, values.reshape(grid.x_nodes), bump.reshape(grid.x_nodes),
            ell)


def exact_n(grid, values, ell):
    """N on the exact path over a stack of slices, all at t = 0.5."""
    cone = Cone.orthant(grid.n)
    assert _exact_slopes(grid, [0.5], ell, cone)[0] is not None
    return evaluate_slice_values(grid, values, np.full(len(values), 0.5),
                                 ell, cone)[0]


PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                             database=None)


@PROPERTY_SETTINGS
@given(slices())
def test_exact_n_is_monotone_in_v(case):
    grid, values, bump, ell = case
    low, high = exact_n(grid, np.stack([values, values + bump]), ell)
    assert np.all(low <= high + 1e-10)


@PROPERTY_SETTINGS
@given(slices(), st.floats(-100.0, 100.0, allow_nan=False))
def test_exact_n_is_shift_equivariant(case, shift):
    grid, values, _, ell = case
    base, moved = exact_n(grid, np.stack([values, values + shift]), ell)
    assert np.allclose(moved, base + shift, rtol=0.0, atol=1e-10)


@st.composite
def tied_slices(draw):
    """2-d slices on dyadic axes whose keys V + c.y tie across rows: integer
    plateaus, or keys constant along each row."""
    x_nodes = (draw(st.integers(2, 7)), draw(st.integers(2, 7)))
    grid = grid_2d(x_nodes=x_nodes, x_min=(0.0, 0.0),
                   x_max=((x_nodes[0] - 1) / 4, (x_nodes[1] - 1) / 4))
    slopes = [draw(st.sampled_from([0.0, 0.5, 1.0])) for _ in range(2)]
    ell = ex.parse(f"0.125 + {slopes[0]}*xi1 + {slopes[1]}*xi2", VARS_2D)
    by_row = draw(st.booleans())
    size = x_nodes[0] if by_row else x_nodes[0] * x_nodes[1]
    levels = np.array(draw(st.lists(st.integers(0, 2), min_size=size,
                                    max_size=size)), dtype=float)
    if by_row:
        values = levels[:, None] - slopes[1] * grid.axes[1][None, :]
    else:
        values = levels.reshape(x_nodes)
    return grid, values, ell


@PROPERTY_SETTINGS
@given(tied_slices())
def test_tied_2d_slices_match_the_oracle(case):
    grid, values, ell = case
    check_against_oracle(grid, values, ell)


# ------------------------------------------------------ callers of the path ----

class TestCallers:
    def test_only_cross_row_ties_reach_the_tie_break(self, monkeypatch):
        # a tie within one row is settled by the first index; only nodes
        # whose minimisers span rows go through _node_ties
        cfg = load_problem((PERFBENCH / "plane.cfg").read_text())
        tied = []
        inner = obs._node_ties

        def counted(*args):
            tied.append(args[-1].size)
            return inner(*args)

        monkeypatch.setattr(obs, "_node_ties", counted)
        solve_qvi(cfg.problem, cfg.grid)
        assert tied and sum(tied) <= 16

    def test_a_tied_node_compares_one_candidate_per_row(self, monkeypatch):
        # at 41x81^2 hundreds of nodes per slice tie across rows; each
        # compares the first minimiser of every row, not its whole quadrant
        cfg = load_problem((PERFBENCH / "plane.cfg").read_text(),
                           ("grid.t_nodes=41", "grid.x_nodes=81,81"))
        widths, inside = [], []
        node_ties, batch_best = obs._node_ties, obs._batch_best

        def ties(*args):
            inside.append(True)
            try:
                return node_ties(*args)
            finally:
                inside.pop()

        def best(values, xi):
            if inside:
                widths.append(values.shape[1])
            return batch_best(values, xi)

        monkeypatch.setattr(obs, "_node_ties", ties)
        monkeypatch.setattr(obs, "_batch_best", best)
        solve_qvi(cfg.problem, cfg.grid)
        assert widths and max(widths) <= 81, max(widths)

    def test_solve_reuses_settled_sweep_bitwise(self, monkeypatch):
        cfg = load_problem((CONFIGS / "example.cfg").read_text(),
                           ("grid.t_nodes=21", "grid.x_nodes=71"))
        calls = []
        inner = obs.evaluate_slice_values

        def counted(*args):
            out = inner(*args)
            (t,), (argmin,) = args[2], out[1]  # a one-slice stack
            calls.append((float(t), argmin))
            return out

        monkeypatch.setattr(obs, "evaluate_slice_values", counted)
        res = solve_qvi(cfg.problem, cfg.grid)
        monkeypatch.undo()
        grid = cfg.grid
        # every slice here settles with an update of exactly zero, so the
        # calls are one per sweep plus the terminal slice, no repeat
        assert len(calls) == 1 + int(res.iterations.sum())
        # per slice, the argmin of its last sweep: the one the solve
        # counts box-edge jumps from, and then drops
        settled = dict(calls)
        n_vals, arg = evaluate_slice_values(
            grid, res.V.values, grid.t, cfg.problem.ell, cfg.problem.cone)
        assert np.array_equal(res.obstacle_gap.values, n_vals - res.V.values)
        for k in range(grid.t_nodes - 1):
            assert np.array_equal(settled[float(grid.t[k])], arg[k])

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
