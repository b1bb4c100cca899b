"""The stacked obstacle operator against the per-slice loop it replaced.

evaluate_slice_values takes a stack of slices, and viscosity.obstacle_gap
feeds it slabs of them.  Both must give, bit for bit, what N on each
slice alone gives: on the exact path (ties included), on the search, on
a stack whose cost reads t and sends some slices down each path, and
whichever slab or node batch a slice falls in.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvilab import expr as ex
from qvilab import obstacle as obs
from qvilab import viscosity as vc
from qvilab.core import Cone, Grid, GridFunction, ImpulseProblem
from qvilab.obstacle import evaluate_slice_values

VARS = {1: ("t", "x1", "xi1"), 2: ("t", "x1", "x2", "xi1", "xi2")}


def per_slice(grid, values, t, ell, cone):
    """N and its argmin one slice at a time, each as a stack of one: the
    reference every stack must match."""
    parts = [evaluate_slice_values(grid, values[k:k + 1], t[k:k + 1], ell,
                                   cone) for k in range(len(t))]
    return tuple(np.concatenate(column) for column in zip(*parts))


def assert_bitwise(got, want):
    assert got.shape == want.shape
    assert np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                          np.ascontiguousarray(want).view(np.uint64))


def problem_on(grid, source, cone):
    n = grid.n
    return ImpulseProblem(n=n, T=grid.T, H=ex.parse("0", ("t", "p1")),
                          h=ex.parse("0", ("x1",)),
                          ell=ex.parse(source, VARS[n]), cone=cone)


@st.composite
def stacks(draw):
    """(grid, ell source, cone, values of shape grid.shape).

    The axes are dyadic and the values integer levels, tenths or normal
    draws, so that many keys V + c.y tie across nodes and rows, as in the
    plateau tests of the exact path.  `path` picks the problem: affine
    costs on the orthant (exact), a cost whose xi1 slope 0.5 - t changes
    sign inside the stack (mixed), or the orthant written as rays
    (search).
    """
    n = draw(st.sampled_from([1, 2]))
    path = draw(st.sampled_from(["exact", "mixed", "search"]))
    x_nodes = tuple(draw(st.integers(2, 12 if n == 1 else 6))
                    for _ in range(n))
    grid = Grid(T=1.0, t_nodes=draw(st.integers(2, 9)), x_min=(0.0,) * n,
                x_max=tuple((c - 1) / 4 for c in x_nodes), x_nodes=x_nodes)
    slopes = [draw(st.sampled_from(["0", "0.5", "1", "0.3", "0.7"]))
              for _ in range(n)]
    if path == "mixed":
        slopes[0] = "(0.5 - t)"
    source = " + ".join(["0.125"] + [f"{c}*xi{d + 1}"
                                     for d, c in enumerate(slopes)])
    cone = Cone.from_rays(np.eye(n)) if path == "search" else Cone.orthant(n)
    levels = draw(st.sampled_from(["integer", "tenths", "normal"]))
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    if levels == "normal":
        values = rng.normal(size=grid.shape)
    else:
        values = rng.integers(0, 3, size=grid.shape).astype(float)
        if levels == "tenths":
            values *= 0.1
    return grid, source, cone, values


# a small search: the parity holds for any probe set, and it keeps the
# search slices cheap
SMALL_SEARCH = {"COARSE": 9, "REFINE_LEVELS": 2}

STACK_SETTINGS = settings(max_examples=120, deadline=None, derandomize=True,
                          database=None)


@STACK_SETTINGS
@given(stacks(), st.integers(1, 40))
def test_a_stack_equals_its_slices(case, batch_nodes):
    # a search batch of batch_nodes nodes: whole slices, or one slice's
    # nodes split across batches
    grid, source, cone, values = case
    ell = ex.parse(source, VARS[grid.n])
    with pytest.MonkeyPatch.context() as mp:
        for name, value in SMALL_SEARCH.items():
            mp.setattr(obs, name, value)
        mp.setattr(obs, "NODE_BATCH", batch_nodes * 9 ** cone.n_rays)
        got = evaluate_slice_values(grid, values, grid.t, ell, cone)
        want = per_slice(grid, values, grid.t, ell, cone)
    for g, w in zip(got, want):
        assert_bitwise(g, w)


@STACK_SETTINGS
@given(stacks(), st.data())
def test_obstacle_gap_equals_the_per_slice_loop(case, data):
    # rows per slab from one to every slice: the last slab is short
    # whenever rows does not divide t_nodes
    grid, source, cone, values = case
    problem = problem_on(grid, source, cone)
    per_row = int(np.prod(grid.x_nodes))
    rows = data.draw(st.integers(1, grid.t_nodes), label="rows")
    extra = data.draw(st.integers(0, per_row - 1), label="extra")
    V = GridFunction(grid, values)
    with pytest.MonkeyPatch.context() as mp:
        for name, value in SMALL_SEARCH.items():
            mp.setattr(obs, name, value)
        mp.setattr(vc, "SLAB_CENTERS", rows * per_row + extra)
        gap = vc.obstacle_gap(V, problem)
        n_vals, _ = per_slice(grid, values, grid.t, problem.ell, problem.cone)
    assert_bitwise(gap, n_vals - values)


def test_a_mixed_stack_takes_both_paths():
    # the slope 0.5 - t of "0.125 + (0.5 - t)*xi1" is negative after t =
    # 0.5: those slices run the search, the others the exact node scan
    grid = Grid(T=1.0, t_nodes=5, x_min=(0.0,), x_max=(2.0,), x_nodes=(9,))
    ell = ex.parse("0.125 + (0.5 - t)*xi1", VARS[1])
    slopes = obs._exact_slopes(grid, grid.t, ell, Cone.orthant(1))
    assert [s is None for s in slopes] == [False, False, False, True, True]


def test_a_slab_boundary_mid_grid(monkeypatch):
    # 7 slices of 5 nodes in slabs of 2 slices: N runs on stacks of 2, 2,
    # 2 and 1 slices, and the gap is the per-slice loop's
    grid = Grid(T=1.0, t_nodes=7, x_min=(0.0,), x_max=(1.0,), x_nodes=(5,))
    problem = problem_on(grid, "0.05 + 0.1*xi1", Cone.orthant(1))
    values = np.random.default_rng(3).normal(size=grid.shape)
    stacked = []
    inner = vc.evaluate_slice_values

    def counted(grid, values, t, ell, cone):
        stacked.append(list(t))
        return inner(grid, values, t, ell, cone)

    monkeypatch.setattr(vc, "SLAB_CENTERS", 2 * 5 + 4)
    monkeypatch.setattr(vc, "evaluate_slice_values", counted)
    gap = vc.obstacle_gap(GridFunction(grid, values), problem)
    assert stacked == [list(grid.t[k:k + 2]) for k in range(0, 7, 2)]
    n_vals, _ = per_slice(grid, values, grid.t, problem.ell, problem.cone)
    assert_bitwise(gap, n_vals - values)


def test_a_failing_cost_stops_at_its_earliest_slab(monkeypatch):
    # sqrt(0.5 - t) fails from t = 0.625 on, in the second of two slabs of
    # 4 slices; the gap raises what N on that first failing slice raises
    grid = Grid(T=1.0, t_nodes=9, x_min=(0.0,), x_max=(1.0,), x_nodes=(5,))
    problem = problem_on(grid, "0.05 + sqrt(0.5 - t)*xi1", Cone.orthant(1))
    values = np.zeros(grid.shape)
    with pytest.raises(ex.DomainError) as alone:
        evaluate_slice_values(grid, values[5:6], grid.t[5:6], problem.ell,
                              problem.cone)
    monkeypatch.setattr(vc, "SLAB_CENTERS", 4 * 5)
    with pytest.raises(ex.DomainError) as slab:
        vc.obstacle_gap(GridFunction(grid, values), problem)
    assert str(slab.value) == str(alone.value)
    assert "'sqrt'" in str(slab.value)
