"""CSV writer byte identity, CSV round trip, malformed CSV input, and the
bulk construction of node violation tables."""

from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qvilab import cli
from qvilab import expr as ex
from qvilab.core import ConfigError, Grid, GridFunction, load_problem, read_csv, write_csv
from qvilab.viscosity import _constraint_nodes, _terminal_nodes

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def row_at_a_time_csv(gf, path):
    """Reference writer: one f-string per row over full_env meshgrids."""
    grid = gf.grid
    cols = ["t"] + [f"x{d + 1}" for d in range(grid.n)] + ["value"]
    env = grid.full_env()
    stacks = [env["t"]] + [env[f"x{d + 1}"] for d in range(grid.n)] + [gf.values]
    flat = [s.ravel() for s in stacks]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in zip(*flat):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def assert_same_bytes(gf, tmp_path):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_csv(gf, new)
    row_at_a_time_csv(gf, old)
    assert new.read_bytes() == old.read_bytes()


# values whose %.17g text has a sign, a subnormal, an exponent or no dot
SPECIAL = np.array([-0.0, 0.0, 5e-324, 1e308, -1e-300, 1.0, -7.0, 123456789.0,
                    1e16, 1e17, 0.1, -2.5e-7, 1.7976931348623157e308,
                    2.2250738585072014e-308, 1 / 3, -123.456e-20])


def filled(grid, seed):
    """Grid function cycling SPECIAL through random scaled normals."""
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=grid.shape) * 10.0 ** rng.integers(-30, 30, grid.shape)
    flat = vals.reshape(-1)
    flat[::3] = np.resize(SPECIAL, flat[::3].size)
    return GridFunction(grid, vals)


GRIDS = [
    Grid(1.0, 2, (0.0,), (1.0,), (2,)),
    Grid(1.0, 2, (-1.0,), (4.0,), (351,)),
    Grid(2.5, 7, (-1.5,), (3.25,), (13,)),
    Grid(0.3, 5, (-1e-3,), (1e5,), (17,)),
    Grid(1.0, 2, (0.0, 0.0), (1.0, 1.0), (2, 2)),
    Grid(1.0, 2, (-1.0, 0.0), (2.0, 3.0), (3, 5)),
    Grid(0.7, 4, (0.0, -2.0), (1.0, 1e-2), (9, 4)),
]


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.t_nodes}x{g.x_nodes}")
@pytest.mark.parametrize("seed", [0, 1])
def test_writer_matches_row_at_a_time_bytes(grid, seed, tmp_path):
    assert_same_bytes(filled(grid, seed), tmp_path)


@pytest.mark.parametrize("value", SPECIAL.tolist())
def test_writer_matches_on_constant_special_values(value, tmp_path):
    grid = Grid(1.0, 3, (0.0, 0.0), (1.0, 2.0), (3, 2))
    assert_same_bytes(GridFunction(grid, np.full(grid.shape, value)), tmp_path)


def test_writer_output_layout(tmp_path):
    grid = Grid(1.0, 2, (0.0, 0.0), (1.0, 2.0), (2, 3))
    gf = GridFunction(grid, np.arange(12.0).reshape(grid.shape) - 0.5)
    path = tmp_path / "out.csv"
    write_csv(gf, path)
    lines = path.read_text().split("\n")
    assert lines[0] == "t,x1,x2,value"
    assert lines[1:4] == ["0,0,0,-0.5", "0,0,1,0.5", "0,0,2,1.5"]
    assert lines[-2] == "1,1,2,10.5"
    assert lines[-1] == ""
    assert len(lines) == 2 + 12


@st.composite
def grid_functions(draw):
    n = draw(st.sampled_from([1, 2]))
    t_nodes = draw(st.integers(2, 4))
    x_nodes = tuple(draw(st.integers(2, 5)) for _ in range(n))
    grid = Grid(1.0, t_nodes, (0.0,) * n, (1.0,) * n, x_nodes)
    values = draw(hnp.arrays(np.float64, grid.shape,
                             elements=st.floats(allow_nan=False,
                                                allow_infinity=False)))
    return GridFunction(grid, values)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(gf=grid_functions())
def test_read_inverts_write_bitwise(gf, tmp_path_factory):
    path = tmp_path_factory.mktemp("round") / "gf.csv"
    write_csv(gf, path)
    back = read_csv(gf.grid, path)
    np.testing.assert_array_equal(back.values.view(np.int64),
                                  gf.values.view(np.int64))


MALFORMED = {"bad_cell": "t,x1,value\n0,0,abc\n", "short_row": "t,x1,value\n0,0\n"}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_read_csv_malformed_is_config_error(name, tmp_path):
    path = tmp_path / f"{name}.csv"
    path.write_text(MALFORMED[name])
    with pytest.raises(ConfigError, match=f"{name}.csv"):
        read_csv(Grid(1.0, 2, (0.0,), (1.0,), (2,)), path)


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_cli_malformed_solution_exits_2(name, tmp_path, capsys):
    path = tmp_path / f"{name}.csv"
    path.write_text(MALFORMED[name])
    code = cli.main(["viscosity", str(CONFIGS / "transport.cfg"),
                     "--variant", "hjb-super", "--solution", str(path),
                     "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed CSV")
    assert str(path) in err


# ------------------------------------------------ node violation tables ----

def loop_terminal_nodes(V, problem, side, ctol):
    """Reference: one row dict per node, coordinates read per node."""
    grid = V.grid
    h = np.broadcast_to(
        np.asarray(ex.evaluate(problem.h, grid.space_env()), dtype=float),
        grid.shape[1:])
    last = V.values[-1]
    margin = h - last if side == "sub" else last - h
    out = []
    for idx in zip(*np.nonzero(margin < -ctol)):
        out.append({
            "t_index": grid.t_nodes - 1, "x_index": [int(i) for i in idx],
            "t": float(grid.T),
            "x": [float(grid.axes[d][idx[d]]) for d in range(grid.n)],
            "margin": float(margin[idx])})
    return out


def loop_constraint_nodes(V, gap, ctol):
    """Reference: one row dict per node, coordinates read per node."""
    grid = V.grid
    out = []
    for idx in zip(*np.nonzero(gap[:-1] < -ctol)):
        k = int(idx[0])
        xi = [int(i) for i in idx[1:]]
        out.append({
            "t_index": k, "x_index": xi, "t": float(grid.t[k]),
            "x": [float(grid.axes[d][xi[d]]) for d in range(grid.n)],
            "margin": float(gap[idx])})
    return out


def assert_same_violations(new, old):
    rows = new.to_dicts()
    assert len(new) == len(rows) == len(old)
    assert rows == old
    for row in rows:
        assert list(row) == ["t_index", "x_index", "t", "x", "margin"]
        assert type(row["t_index"]) is int
        assert type(row["t"]) is float and type(row["margin"]) is float
        assert all(type(i) is int for i in row["x_index"])
        assert all(type(x) is float for x in row["x"])


# the grid reproduce-example checks: 201 x 701 nodes on [-1.5, x_hi]
VIOLATION_GRIDS = [
    Grid(1.0, 201, (-1.5,), (4.0,), (701,)),
    Grid(1.0, 11, (-1.0, 0.0), (2.0, 3.0), (13, 7)),
]


@pytest.mark.parametrize("grid", VIOLATION_GRIDS, ids=lambda g: f"n{g.n}")
def test_constraint_nodes_match_loop(grid):
    rng = np.random.default_rng(3)
    gap = rng.normal(scale=1e-3, size=grid.shape)
    V = GridFunction(grid, rng.normal(size=grid.shape))
    new = _constraint_nodes(V, gap, 5e-4)
    old = loop_constraint_nodes(V, gap, 5e-4)
    assert len(old) > 100
    assert_same_violations(new, old)
    assert len(_constraint_nodes(V, np.abs(gap), 5e-4)) == 0


@pytest.mark.parametrize("grid", VIOLATION_GRIDS, ids=lambda g: f"n{g.n}")
@pytest.mark.parametrize("side", ["sub", "super"])
def test_terminal_nodes_match_loop(grid, side):
    if grid.n == 1:
        problem = load_problem((CONFIGS / "example.cfg").read_text()).problem
    else:
        # _terminal_nodes reads only the terminal payoff h
        problem = SimpleNamespace(h=ex.parse("x1*exp(-x2)", ("x1", "x2")))
    rng = np.random.default_rng(4)
    h = np.broadcast_to(ex.evaluate(problem.h, grid.space_env()),
                        grid.shape[1:])
    values = rng.normal(size=grid.shape)
    values[-1] = h + rng.normal(scale=1e-3, size=h.shape)
    V = GridFunction(grid, values)
    new = _terminal_nodes(V, problem, side, 5e-4)
    old = loop_terminal_nodes(V, problem, side, 5e-4)
    assert len(old) > 1
    assert_same_violations(new, old)
