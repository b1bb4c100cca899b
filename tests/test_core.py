import ast
import math
import re
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from qvilab import core
from qvilab.core import (
    AssumptionConstants,
    Cone,
    ConfigError,
    Grid,
    GridFunction,
    ImpulseProblem,
    interp_slice,
    load_problem,
    sample,
)
from qvilab.expr import parse


BASIC_CONFIG = """
# 1-d transport problem with linear impulse cost
[problem]
n = 1
T = 1.0
H = "-p1"
h = "x1*exp(-x1)"
ell = "0.05 + 0.05*xi1"
cone = "orthant"

[constants]
L = 1.0
mu = 0.0
h0 = 3.0
ell0 = 0.05
alpha = 0.05
beta = 0.5
delta0 = 0.05
C = 16.0
gamma = 0.0
kappa = 0.25

[grid]
t_nodes = 11
x_nodes = 21
x_min = -1.0
x_max = 4.0
"""


def config_with(**replacements):
    text = BASIC_CONFIG
    for key, value in replacements.items():
        out = []
        for line in text.splitlines():
            if line.strip().startswith(key + " "):
                out.append(f"{key} = {value}")
            else:
                out.append(line)
        text = "\n".join(out)
    return text


class TestConstants:
    def test_valid(self):
        c = AssumptionConstants(1.0, 0.0, 3.0, 0.05, 0.05, 0.5, 0.05, 16.0, 0.0, 0.25)
        assert c.beta == 0.5

    def test_beta_out_of_range_names_key(self):
        with pytest.raises(ConfigError) as err:
            AssumptionConstants(1.0, 0.0, 3.0, 0.05, 0.05, 1.2, 0.05, 16.0, 0.0, 0.25)
        assert "beta" in str(err.value)

    def test_kappa_must_stay_below_beta(self):
        with pytest.raises(ConfigError) as err:
            AssumptionConstants(1.0, 0.0, 3.0, 0.05, 0.05, 0.5, 0.05, 16.0, 0.0, 0.7)
        assert "kappa" in str(err.value)

    def test_nonfinite_constant_names_key(self):
        valid = [1.0, 0.0, 3.0, 0.05, 0.05, 0.5, 0.05, 16.0, 0.0, 0.25]
        for index, field in enumerate(fields(AssumptionConstants)):
            for bad in (math.inf, -math.inf, math.nan):
                values = list(valid)
                values[index] = bad
                with pytest.raises(ConfigError,
                                   match=f"{field.name}=.*finite"):
                    AssumptionConstants(*values)

    def test_mu_zero_allowed(self):
        c = AssumptionConstants(1.0, 0.0, 3.0, 0.05, 0.05, 0.5, 0.05, 16.0, 0.0, 0.25)
        assert c.mu == 0.0


class TestCone:
    def test_rays_are_normalized(self):
        cone = Cone.from_rays([[3.0, 4.0]])
        assert np.allclose(np.linalg.norm(cone.rays, axis=1), 1.0)

    def test_zero_ray_rejected(self):
        with pytest.raises(ConfigError):
            Cone.from_rays([[0.0, 0.0]])

    @pytest.mark.parametrize("ray", [[math.nan, 1.0], [math.inf, 0.0],
                                     [1e308, 1e308], [0.0, 0.0]],
                             ids=["nan", "inf", "overflow", "zero"])
    def test_ray_needs_a_positive_finite_length(self, ray):
        # [1e308, 1e308] is finite, but its length overflows to inf and
        # would scale the ray to zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="positive, finite length"):
                Cone.from_rays([ray])

    @pytest.mark.parametrize("ray, unit", [
        ([1e-200, 1e-200], [math.sqrt(0.5), math.sqrt(0.5)]),
        ([-5e-324, 0.0], [-1.0, 0.0]),
        ([3e-170, -4e-170], [0.6, -0.8]),
    ], ids=["diagonal", "subnormal", "three-four-five"])
    def test_ray_whose_length_underflows_is_accepted(self, ray, unit):
        # the plain norm squares each component to 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rays = Cone.from_rays([ray, [1.0, 2.0]]).rays
        assert np.allclose(rays[0], unit, rtol=0.0, atol=1e-15)
        assert np.array_equal(rays[1], np.array([1.0, 2.0]) / math.sqrt(5.0))

    def test_ordinary_rays_keep_their_plain_unit_ray(self):
        rng = np.random.default_rng(5)
        rays = (rng.normal(size=(402, 2))
                * 10.0 ** rng.uniform(-150.0, 150.0, size=(402, 1)))
        want = rays / np.linalg.norm(rays, axis=1)[:, None]
        got = np.vstack([Cone.from_rays(three).rays
                         for three in rays.reshape(134, 3, 2)])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [1, 2])
    def test_more_than_n_plus_one_rays_rejected(self, n):
        # the search scans COARSE**m coefficient points per node
        Cone.from_rays(np.ones((n + 1, n)))
        with pytest.raises(ConfigError, match=f"cone has {n + 2} rays"):
            Cone.from_rays(np.ones((n + 2, n)))

    def test_coefficient_map(self):
        cone = Cone.orthant(2)
        xi = cone.from_coefficients(np.array([[1.0, 2.0], [0.0, 0.5]]))
        assert np.array_equal(xi, np.array([[1.0, 2.0], [0.0, 0.5]]))


class TestGrid:
    def test_spacing(self):
        grid = Grid(1.0, 11, (-1.0,), (4.0,), (21,))
        assert grid.dt == pytest.approx(0.1)
        assert grid.dx[0] == pytest.approx(0.25)
        assert grid.t[0] == 0.0 and grid.t[-1] == 1.0
        assert grid.axes[0][0] == -1.0 and grid.axes[0][-1] == 4.0

    def test_refine(self):
        grid = Grid(1.0, 11, (-1.0,), (4.0,), (21,))
        fine = grid.refine(2)
        assert fine.t_nodes == 21 and fine.x_nodes == (41,)
        assert fine.dx[0] == pytest.approx(grid.dx[0] / 2)

    def test_validation(self):
        with pytest.raises(ConfigError):
            Grid(1.0, 1, (-1.0,), (4.0,), (21,))
        with pytest.raises(ConfigError):
            Grid(1.0, 11, (4.0,), (-1.0,), (21,))
        with pytest.raises(ConfigError):
            Grid(-1.0, 11, (-1.0,), (4.0,), (21,))
        for bad in (math.inf, math.nan):
            with pytest.raises(ConfigError, match="finite T"):
                Grid(bad, 11, (-1.0,), (4.0,), (21,))
            with pytest.raises(ConfigError, match="finite x_min and x_max"):
                Grid(1.0, 11, (-1.0,), (bad,), (21,))
            with pytest.raises(ConfigError, match="finite x_min and x_max"):
                Grid(1.0, 11, (-bad,), (4.0,), (21,))

    def test_overflowing_width_rejected(self):
        # finite ends whose difference overflows would fill the axis with
        # inf and nan; a wide box with a finite width still builds
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="finite width"):
                Grid(1.0, 3, (-1.7e308,), (1.7e308,), (5,))
            with pytest.raises(ConfigError, match="dimension 2"):
                Grid(1.0, 3, (0.0, -1.7e308), (1.0, 1.7e308), (3, 5))
            grid = Grid(1.0, 13, (-1e154,), (1e154,), (5,))
        assert np.isfinite(grid.axes[0]).all()

    @pytest.mark.parametrize("t_nodes, x_nodes", [
        (11, (2.5,)), (2.5, (21,)), (11, (21, 7.5)), (math.inf, (21,)),
        (math.nan, (21,)), ("11", (21,)), (11, ("21",)), (None, (21,))])
    def test_nonintegral_counts_rejected(self, t_nodes, x_nodes):
        x_min, x_max = (-1.0,) * len(x_nodes), (4.0,) * len(x_nodes)
        with pytest.raises(ConfigError, match="integral"):
            Grid(1.0, t_nodes, x_min, x_max, x_nodes)

    def test_integral_counts_accepted(self):
        grid = Grid(1.0, 11.0, (-1.0,), (4.0,), (np.int64(21),))
        assert grid == Grid(1.0, 11, (-1.0,), (4.0,), (21,))
        assert type(grid.t_nodes) is int and type(grid.x_nodes[0]) is int
        assert grid.shape == (11, 21)

    def test_space_nodes_are_built_once_read_only(self):
        grid = Grid(1.0, 3, (0.0, -1.0), (1.0, 1.0), (3, 4))
        nodes = grid.space_nodes()
        assert grid.space_nodes() is nodes
        with pytest.raises(ValueError):
            nodes[0, 0] = 5.0
        mesh = np.meshgrid(*grid.axes, indexing="ij")
        assert np.array_equal(nodes, np.stack([m.ravel() for m in mesh], -1))
        twin = Grid(1.0, 3, (0.0, -1.0), (1.0, 1.0), (3, 4))
        assert twin == grid and hash(twin) == hash(grid)
        assert repr(twin) == repr(grid) and "_space" not in repr(grid)

    def test_tolerance_unit(self):
        grid = Grid(1.0, 11, (0.0, -1.0), (1.0, 1.0), (21, 5))
        assert grid.tolerance_unit == grid.dt + float(sum(grid.dx))
        assert grid.tolerance_unit == pytest.approx(0.1 + 0.05 + 0.5)


class TestGridFunction:
    def grid(self):
        return Grid(1.0, 3, (0.0,), (1.0,), (3,))

    def test_shape_checked(self):
        with pytest.raises(ConfigError):
            GridFunction(self.grid(), np.zeros((3, 4)))

    def test_nonfinite_rejected(self):
        vals = np.zeros((3, 3))
        vals[1, 1] = np.nan
        with pytest.raises(ConfigError):
            GridFunction(self.grid(), vals)

    def test_write_once(self):
        gf = GridFunction(self.grid(), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            gf.values[0, 0] = 1.0

    def test_summary_first_row_major_tie(self):
        vals = np.zeros((3, 3))
        vals[0, 2] = -1.0
        vals[2, 0] = -1.0
        vals[1, 1] = 5.0
        gf = GridFunction(self.grid(), vals)
        s = gf.summary()
        assert s["min"] == -1.0 and s["max"] == 5.0
        assert s["argmin"] == [0.0, 1.0]  # (t=0, x=1) comes first row-major
        assert s["argmax"] == [0.5, 0.5]

    def test_csv_round_trip(self, tmp_path):
        grid = Grid(1.0, 2, (0.0,), (1.0,), (2,))
        gf = GridFunction(grid, np.array([[1.0, 2.0], [3.0, 4.0]]))
        path = tmp_path / "out.csv"
        core.write_csv(gf, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,x1,value"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 0.0 and float(first[2]) == 1.0
        # row-major: t varies slowest
        assert [float(l.split(",")[2]) for l in lines[1:]] == [1.0, 2.0, 3.0, 4.0]

    def test_csv_2d_header(self, tmp_path):
        grid = Grid(1.0, 2, (0.0, 0.0), (1.0, 1.0), (2, 2))
        gf = GridFunction(grid, np.arange(8.0).reshape(2, 2, 2))
        path = tmp_path / "out2.csv"
        core.write_csv(gf, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,x1,x2,value"
        assert len(lines) == 9

    def test_read_csv_inverts_write(self, tmp_path):
        grid = Grid(1.0, 3, (-1.0, 0.0), (1.0, 2.0), (4, 3))
        rng = np.random.default_rng(3)
        gf = GridFunction(grid, rng.normal(size=grid.shape))
        path = tmp_path / "round.csv"
        core.write_csv(gf, path)
        back = core.read_csv(grid, path)
        assert np.array_equal(back.values, gf.values)

    def test_read_csv_rejects_foreign_grid(self, tmp_path):
        grid = Grid(1.0, 2, (0.0,), (1.0,), (2,))
        gf = GridFunction(grid, np.array([[1.0, 2.0], [3.0, 4.0]]))
        path = tmp_path / "round.csv"
        core.write_csv(gf, path)
        with pytest.raises(ConfigError, match="rows"):
            core.read_csv(Grid(1.0, 3, (0.0,), (1.0,), (2,)), path)
        with pytest.raises(ConfigError, match="header"):
            core.read_csv(Grid(1.0, 2, (0.0, 0.0), (1.0, 1.0), (2, 2)), path)

    @pytest.mark.parametrize("row, col", [(0, 0), (5, 2), (11, 1), (12, 0),
                                          (12, 2), (35, 0), (35, 1)],
                             ids=["t0", "slice0-x2", "slice0-last-x1",
                                  "t1", "slice1-x2", "t-last", "last-x1"])
    def test_read_csv_checks_the_node_coordinates(self, tmp_path, row, col):
        # rows 0-11 are the first time slice, row 12 opens the second and
        # row 35 closes the file; each pins part of the grid
        grid = Grid(1.0, 3, (-1.0, 0.0), (1.0, 2.0), (4, 3))
        path = tmp_path / "nodes.csv"
        core.write_csv(GridFunction(grid, np.zeros(grid.shape)), path)
        lines = path.read_text().splitlines(keepends=True)
        fields = lines[1 + row].split(",")
        fields[col] = repr(float(fields[col]) + 0.25)
        lines[1 + row] = ",".join(fields)
        path.write_text("".join(lines))
        with pytest.raises(ConfigError, match="another grid") as err:
            core.read_csv(grid, path)
        assert "nodes.csv" in str(err.value)

    def test_read_csv_rejects_the_same_row_count_on_another_grid(self,
                                                                 tmp_path):
        path = tmp_path / "other.csv"
        grid = Grid(1.0, 3, (0.0,), (1.0,), (5,))
        core.write_csv(GridFunction(grid, np.zeros(grid.shape)), path)
        for other in (Grid(1.0, 5, (0.0,), (1.0,), (3,)),  # swapped counts
                      Grid(2.0, 3, (0.0,), (1.0,), (5,)),  # longer horizon
                      Grid(1.0, 3, (-1.0,), (1.0,), (5,))):  # wider box
            with pytest.raises(ConfigError, match="another grid"):
                core.read_csv(other, path)
        assert core.read_csv(grid, path).grid == grid


class TestSampling:
    def test_terminal_payoff_values(self):
        grid = Grid(1.0, 3, (-1.0,), (4.0,), (6,))
        gf = sample(parse("x1*exp(-x1)", ("x1",)), grid)
        # frozen oracle values: h(-1) = -e, h(0) = 0, h(1) = 1/e
        assert gf.values[0, 0] == pytest.approx(-math.e, abs=1e-15)
        assert gf.values[0, 1] == 0.0
        assert gf.values[2, 2] == pytest.approx(math.exp(-1.0), abs=1e-15)
        # time-independent expression: identical slices
        assert np.array_equal(gf.values[0], gf.values[1])

    def test_constant_expression_broadcasts(self):
        grid = Grid(1.0, 3, (-1.0,), (4.0,), (6,))
        gf = sample(parse("2.5", ()), grid)
        assert np.all(gf.values == 2.5)

    def test_space_time_dependence(self):
        grid = Grid(1.0, 3, (0.0,), (1.0,), (3,))
        gf = sample(parse("t*10 + x1", ("t", "x1")), grid)
        assert gf.values[1, 2] == pytest.approx(5.0 + 1.0)
        assert gf.values[2, 0] == pytest.approx(10.0)


class TestVariableConvention:
    def test_only_core_spells_variable_names(self):
        builder = re.compile(r"""f["'](x|p|xi)\{""")
        offenders = [
            f"{path.name}:{lineno}"
            for path in sorted(Path(core.__file__).parent.glob("*.py"))
            if path.name != "core.py"
            for lineno, line in enumerate(path.read_text().splitlines(), 1)
            if builder.search(line)]
        assert offenders == []

    def test_role_variables(self):
        roles = core.role_variables(2)
        assert roles == {
            "H": {"t", "x1", "x2", "p1", "p2"},
            "h": {"x1", "x2"},
            "ell": {"t", "x1", "x2", "xi1", "xi2"},
            "g": {"t", "x1", "x2"},
        }
        assert core.role_variables(1)["H"] == {"t", "x1", "p1"}

    def test_make_env_names_axis_lists_and_last_axis_views(self):
        pts = np.arange(6.0).reshape(3, 2)
        column = np.array([7.0, 8.0, 9.0])
        env = core.make_env(t=0.5, x=pts, p=[column, column])
        assert list(env) == ["t", "x1", "x2", "p1", "p2"]
        assert env["t"] == 0.5
        for d, (x, p) in enumerate([(env["x1"], env["p1"]),
                                    (env["x2"], env["p2"])]):
            # a view of the stacked array, so the evaluated bytes match
            assert np.shares_memory(x, pts)
            assert np.array_equal(x, pts[:, d])
            assert p is column
        with pytest.raises(TypeError, match="unknown coordinate"):
            core.make_env(y=[column])


def _private(name):
    return name.startswith("_") and not name.endswith("__")


class TestModuleBoundaries:
    def test_no_module_reads_another_modules_private_names(self):
        """A name with a leading underscore stays inside its module: no
        qvilab module imports one from another or reads `alias._name`
        through a module it imported."""
        offenders = []
        for path in sorted(Path(core.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            modules = set()  # local names bound to qvilab modules
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules.update(alias.asname or alias.name.split(".")[0]
                                   for alias in node.names
                                   if alias.name.split(".")[0] == "qvilab")
                elif isinstance(node, ast.ImportFrom):
                    source = node.module or ""
                    if node.level == 0 and source.split(".")[0] != "qvilab":
                        continue
                    for alias in node.names:
                        if _private(alias.name):
                            offenders.append(
                                f"{path.name}:{node.lineno} imports {alias.name}")
                        elif source in ("", "qvilab"):  # a module itself
                            modules.add(alias.asname or alias.name)
            for node in ast.walk(tree):
                if not (isinstance(node, ast.Attribute) and _private(node.attr)):
                    continue
                root = node.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name) and root.id in modules:
                    offenders.append(
                        f"{path.name}:{node.lineno} reads {root.id}...{node.attr}")
        assert offenders == []


class TestInterpolation:
    def test_values_at_nodes_exact(self):
        grid = Grid(1.0, 2, (0.0,), (2.0,), (5,))
        vals = np.array([0.0, 1.0, 4.0, 9.0, 16.0])
        pts = grid.axes[0][:, None]
        assert np.array_equal(interp_slice(grid, vals[None], pts[None]),
                              vals[None])

    def test_linear_between_nodes(self):
        grid = Grid(1.0, 2, (0.0,), (2.0,), (5,))
        vals = np.array([0.0, 1.0, 4.0, 9.0, 16.0])
        got = interp_slice(grid, vals[None], np.array([[[0.25]]]))
        assert got[0, 0] == pytest.approx(0.5)

    def test_clamped_outside_box(self):
        grid = Grid(1.0, 2, (0.0,), (2.0,), (5,))
        vals = np.array([0.0, 1.0, 4.0, 9.0, 16.0])
        got = interp_slice(grid, vals[None], np.array([[[-3.0], [99.0]]]))
        assert got[0, 0] == 0.0 and got[0, 1] == 16.0

    def test_bilinear(self):
        grid = Grid(1.0, 2, (0.0, 0.0), (1.0, 1.0), (2, 2))
        vals = np.array([[0.0, 1.0], [2.0, 3.0]])
        got = interp_slice(grid, vals[None], np.array([[[0.5, 0.5]]]))
        assert got[0, 0] == pytest.approx(1.5)

    @pytest.mark.parametrize("x_nodes", [(7,), (5, 6)])
    def test_leading_axis_picks_the_slice(self, x_nodes):
        # each slice of a stack reads its own values, bit for bit what a
        # one-slice stack of it gives
        n = len(x_nodes)
        grid = Grid(1.0, 2, (0.0,) * n, (1.0,) * n, x_nodes)
        rng = np.random.default_rng(5)
        vals = rng.normal(size=(3,) + x_nodes)
        pts = rng.uniform(-0.2, 1.2, size=(3, 4, 2, n))
        got = interp_slice(grid, vals, pts)
        assert got.shape == (3, 4, 2)
        for k in range(3):
            want = interp_slice(grid, vals[k:k + 1], pts[k:k + 1])[0]
            assert np.array_equal(got[k].view(np.uint64),
                                  want.view(np.uint64))


class TestConfig:
    def test_load_basic(self):
        cfg = load_problem(BASIC_CONFIG)
        assert cfg.problem.n == 1
        assert cfg.grid.t_nodes == 11
        assert cfg.constants.ell0 == 0.05
        assert cfg.problem.g is None
        assert len(cfg.config_hash) == 64

    def test_missing_key_named(self):
        text = "\n".join(
            line for line in BASIC_CONFIG.splitlines() if not line.startswith("ell =")
        )
        with pytest.raises(ConfigError) as err:
            load_problem(text)
        assert "'ell'" in str(err.value)

    def test_constant_out_of_range_propagates(self):
        with pytest.raises(ConfigError) as err:
            load_problem(config_with(beta="1.2"))
        assert "beta" in str(err.value)

    def test_expression_error_reported(self):
        with pytest.raises(ConfigError) as err:
            load_problem(config_with(H='"-q1"'))
        assert "H" in str(err.value)

    def test_unquoted_expression_rejected(self):
        with pytest.raises(ConfigError):
            load_problem(config_with(H="-p1"))

    def test_nonpositive_cost_rejected(self):
        with pytest.raises(ConfigError) as err:
            load_problem(config_with(ell='"-1.0"'))
        assert "positive" in str(err.value)

    def test_overrides(self):
        cfg = load_problem(BASIC_CONFIG, overrides=("grid.t_nodes=5", "constants.ell0=0.1"))
        assert cfg.grid.t_nodes == 5
        assert cfg.constants.ell0 == 0.1

    def test_override_changes_hash(self):
        a = load_problem(BASIC_CONFIG)
        b = load_problem(BASIC_CONFIG, overrides=("grid.t_nodes=5",))
        assert a.config_hash != b.config_hash

    def test_bad_override_rejected(self):
        with pytest.raises(ConfigError):
            load_problem(BASIC_CONFIG, overrides=("nonsense",))
        with pytest.raises(ConfigError):
            load_problem(BASIC_CONFIG, overrides=("nosuch.key=1",))

    def test_optional_g(self):
        text = BASIC_CONFIG.replace('H = "-p1"', 'H = "-p1"\ng = "0.5"')
        cfg = load_problem(text)
        assert cfg.problem.g is not None
        # hamiltonian helper folds g in
        val = cfg.problem.hamiltonian(0.0, [0.0], [2.0])
        assert val == pytest.approx(-1.5)

    def test_two_dimensional_config(self):
        text = """
[problem]
n = 2
T = 0.5
H = "-p1 - p2"
h = "x1 + x2"
ell = "0.1 + 0.1*(xi1 + xi2)"
cone = "1,0; 0,1"

[constants]
L = 1.0
mu = 0.0
h0 = 5.0
ell0 = 0.1
alpha = 0.1
beta = 0.5
delta0 = 0.1
C = 8.0
gamma = 0.0
kappa = 0.25

[grid]
t_nodes = 5
x_nodes = 7, 9
x_min = -1.0, -1.0
x_max = 1.0, 1.0
"""
        cfg = load_problem(text)
        assert cfg.problem.n == 2
        assert cfg.grid.x_nodes == (7, 9)
        assert cfg.problem.cone.kind == "rays"

    def test_grid_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            load_problem(config_with(x_min="-1.0, -1.0"))

    def test_problem_rejects_wrong_vars(self):
        with pytest.raises(ConfigError) as err:
            ImpulseProblem(
                n=1,
                T=1.0,
                H=parse("-p1", ("p1",)),
                h=parse("t", ("t",)),  # h may not depend on t
                ell=parse("1", ()),
                cone=Cone.orthant(1),
            )
        assert "h" in str(err.value)

    @pytest.mark.parametrize("T", [math.inf, math.nan, 0.0])
    def test_problem_needs_a_finite_positive_horizon(self, T):
        with pytest.raises(ConfigError, match="finite T > 0"):
            ImpulseProblem(n=1, T=T, H=parse("-p1", ("p1",)),
                           h=parse("1", ()), ell=parse("1", ()),
                           cone=Cone.orthant(1))

    def test_deterministic_loading(self):
        a = load_problem(BASIC_CONFIG)
        b = load_problem(BASIC_CONFIG)
        assert a.config_hash == b.config_hash
        assert a.grid == b.grid
