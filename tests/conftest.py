"""Shared helpers: re-derive a solve's fixed-point residual and its jumps
from its values, and read a violations.csv back into columns."""

import numpy as np
import pytest

from qvilab import obstacle as obs
from qvilab import solver


def _restep(problem, result):
    """The explicit step W0_k from V_{k+1}, for every stepped slice k."""
    grid = result.V.grid
    V = result.V.values
    x = np.meshgrid(*grid.axes, indexing="ij")
    return np.stack([
        solver._hjb_step(problem, grid, result.dissipation, V[k + 1],
                         float(grid.t[k + 1]), x)
        for k in range(grid.t_nodes - 1)])


def _fixed_point_residual(problem, result):
    """min((W0 - V_k)/dt, N[V_k] - V_k) on every stepped slice k.

    The gap is the solve's own, so N is not evaluated again.
    """
    grid = result.V.grid
    W0 = _restep(problem, result)
    return np.minimum((W0 - result.V.values[:-1]) / grid.dt,
                      result.obstacle_gap.values[:-1])


@pytest.fixture
def restep():
    return _restep


def _jumps(problem, result):
    """The argmin of N at every slice V_k, shape grid.shape + (n,): a
    solve keeps none, and on a stepped slice this is its settled jump."""
    grid = result.V.grid
    return obs.evaluate_slice_values(grid, result.V.values, grid.t,
                                     problem.ell, problem.cone)[1]


@pytest.fixture
def fixed_point_residual():
    return _fixed_point_residual


@pytest.fixture
def jumps():
    return _jumps


# the violations.csv columns that hold one cell part per space axis
_AXIS_COLUMNS = ("x_index", "x", "p")


def _read_violations(path):
    """violations.csv as {kind: {column: array or None}}, rows in file
    order: x_index, x and p as (rows, n), the rest as (rows,), index
    columns int and the others float; a column left empty is None."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        lines = {}
        for line in fh:
            kind, *cells = line.rstrip("\n").split(",")
            assert len(cells) == len(header) - 1, line
            lines.setdefault(kind, []).append(cells)
    assert header[0] == "kind"
    table = {}
    for kind, rows in lines.items():
        table[kind] = columns = {}
        for key, cells in zip(header[1:], zip(*rows)):
            if not any(cells):
                columns[key] = None
                continue
            cast = int if key.endswith("index") else float
            parts = np.array([[cast(v) for v in cell.split(";")]
                              for cell in cells])
            columns[key] = parts if key in _AXIS_COLUMNS else parts[:, 0]
    return table


@pytest.fixture
def read_violations():
    return _read_violations
