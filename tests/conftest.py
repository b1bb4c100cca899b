"""Shared helpers: re-derive a solve's fixed-point residual from its values."""

import numpy as np
import pytest

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


@pytest.fixture
def fixed_point_residual():
    return _fixed_point_residual
