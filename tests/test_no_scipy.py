"""The runtime path is numpy only: Halton and bisection equal scipy's.

`core.halton` and `example._bisect` replace `scipy.stats.qmc.Halton` and
`scipy.optimize.bisect`; both must return the same floats bit for bit, so
every artifact stays byte-identical.  No CLI command may import scipy,
and no module of the package imports it anywhere, not even inside a
function.
"""

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import bisect as scipy_bisect
from scipy.stats import qmc

from qvilab import assumptions as au
from qvilab import cli
from qvilab import example as exm
from qvilab import solver
from qvilab.core import ConfigError, halton

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
EXAMPLE = str(CONFIGS / "example.cfg")
LIFTED = str(CONFIGS / "example-lifted.cfg")
PLANE = str(ROOT / "perfbench" / "plane.cfg")
PROFILE = "(x1 - 1 + t)*exp(-(x1 - 1 + t))"
FAST = ["--grid-nt", "41", "--grid-nx", "101"]


def scipy_halton(dim, count, seed):
    return qmc.Halton(d=dim, scramble=True, seed=seed).random(count)


def assert_bitwise(got, want):
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes(order="A") == want.tobytes(order="A")
    assert got.flags.f_contiguous == want.flags.f_contiguous


class TestHalton:
    @pytest.mark.parametrize("dim", range(1, 8))
    def test_bitwise_equal_to_scipy(self, dim):
        for count in (1, 7, 100, 512, 1000, 4096):
            for seed in range(8):
                assert_bitwise(halton(dim, count, seed),
                               scipy_halton(dim, count, seed))

    @pytest.mark.parametrize("dim, seed", [(1, 0), (3, 11), (5, 2), (7, 30)])
    def test_prefix_property(self, dim, seed):
        long = halton(dim, 1000, seed)
        for count in (1, 64, 999):
            assert np.array_equal(halton(dim, count, seed), long[:count])

    def test_every_draw_of_the_package_matches(self, monkeypatch, tmp_path):
        """The audits of `check` and the dissipation estimate of `solve`
        (1-d and 2-d) get scipy's points for their own dims and seeds."""
        calls = []

        def spy(dim, count, seed):
            got = halton(dim, count, seed)
            assert_bitwise(got, scipy_halton(dim, count, seed))
            calls.append((dim, count, seed))
            return got

        monkeypatch.setattr(au, "_halton", spy)
        monkeypatch.setattr(solver, "halton", spy)
        assert cli.main(["check", EXAMPLE, "--out", str(tmp_path)]) == 0
        assert cli.main(["check", PLANE, "--out", str(tmp_path)]) == 0
        assert cli.main(["solve", EXAMPLE, *FAST, "--out", str(tmp_path)]) == 0
        assert cli.main(["solve", PLANE, "--out", str(tmp_path)]) == 0
        assert (3, 512, 0) in calls and (5, 512, 0) in calls
        assert len({seed for _, _, seed in calls}) >= 5


def critical_point_f(l0):
    target = l0 * math.e
    return lambda xi: xi * math.exp(-xi) - target


class TestBisection:
    def test_critical_points_equal_scipy(self):
        levels = np.linspace(0.0, exm.COST_THRESHOLD, 402)[1:-1]
        assert len(levels) == 400
        for l0 in levels:
            f = critical_point_f(float(l0))
            for a, b in ((0.0, 1.0), (1.0, exm.XI_CAP)):
                got = exm._bisect(f, a, b, xtol=1e-13)
                assert got == scipy_bisect(f, a, b, xtol=1e-13)
                assert type(got) is float

    def test_every_root_of_build_instance_equals_scipy(self, monkeypatch):
        calls = []
        inner = exm._bisect

        def spy(f, a, b, xtol):
            got = inner(f, a, b, xtol)
            assert got == scipy_bisect(f, a, b, xtol=xtol)
            calls.append(xtol)
            return got

        monkeypatch.setattr(exm, "_bisect", spy)
        separating = 0
        for l0 in np.linspace(0.002, 0.13, 40):
            for t0 in (0.0, 0.5, 0.9):
                start = len(calls)
                inst = exm.build_instance(t0=t0, l0=float(l0))
                roots = len(calls) - start
                assert roots == (2 if inst.needs_smaller_cost else 4)
                separating += not inst.needs_smaller_cost
        assert calls.count(1e-12) == 2 * separating > 0

    def test_endpoint_roots_are_returned(self):
        f = lambda x: x - 1.0  # noqa: E731
        for a, b in ((1.0, 3.0), (-2.0, 1.0)):
            got = exm._bisect(f, a, b, xtol=1e-12)
            assert got == scipy_bisect(f, a, b, xtol=1e-12) == 1.0

    def test_exact_zero_at_a_midpoint_stops(self):
        f = lambda x: x - 0.5  # noqa: E731
        assert exm._bisect(f, 0.0, 1.0, xtol=1e-12) == 0.5

    def test_decreasing_function_and_bracket_errors(self):
        f = lambda x: 2.0 - x * x  # noqa: E731
        got = exm._bisect(f, 0.0, 3.0, xtol=1e-14)
        assert got == scipy_bisect(f, 0.0, 3.0, xtol=1e-14)
        assert abs(got - math.sqrt(2.0)) < 1e-13
        with pytest.raises(ConfigError, match="no sign change"):
            exm._bisect(f, 2.0, 3.0, xtol=1e-12)
        with pytest.raises(ConfigError, match="did not converge"):
            exm._bisect(lambda x: x - 1.0, 0.0, 1e300, xtol=1e-12)


# Each command on a small grid, in one interpreter; prints exit codes and
# the scipy modules loaded by the end.
_PROBE = """
import json, sys
from qvilab import cli
argvs = json.loads(sys.argv[1])
codes = [cli.main(argv) for argv in argvs]
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


def run_probe(argvs, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(argvs)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def scipy_imports(path):
    """(line, module) of every import of scipy in one source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name == "scipy" or name.startswith("scipy.")]
    return sorted(found)


class TestNoScipyImport:
    def test_no_package_module_imports_scipy(self):
        sources = sorted((ROOT / "src" / "qvilab").rglob("*.py"))
        assert sources
        found = {path.name: scipy_imports(path) for path in sources}
        assert {name: hits for name, hits in found.items() if hits} == {}

    def test_importing_the_cli_loads_no_scipy(self, tmp_path):
        assert run_probe([], tmp_path) == {"codes": [], "scipy": []}

    def test_no_command_loads_scipy(self, tmp_path):
        out = str(tmp_path)
        argvs = [
            ["check", EXAMPLE, "--out", out],
            ["solve", EXAMPLE, *FAST, "--out", out],
            ["solve", PLANE, "--out", out],
            ["viscosity", EXAMPLE, *FAST, "--analytic", PROFILE,
             "--variant", "qvi-super-modified", "--out", out],
            ["compare", EXAMPLE, LIFTED, *FAST, "--out", out],
            ["doubling", EXAMPLE, "--analytic", PROFILE, "--levels", "0.2",
             "--out", out],
            ["reproduce-example", "--grid-nt", "101", "--grid-nx", "351",
             "--out", out],
        ]
        result = run_probe(argvs, tmp_path)
        assert result["scipy"] == []
        assert len(result["codes"]) == len(argvs)
        assert set(result["codes"]) <= {0, 1}
