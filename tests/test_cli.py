"""Command line surface: exit codes, artifacts, determinism, overrides."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qvilab import cli
from qvilab import expr as ex
from qvilab import viscosity as vc
from qvilab.core import Grid, load_problem, read_csv, sample
from qvilab.solver import interior_mask, solve_qvi

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
EXAMPLE = str(CONFIGS / "example.cfg")
LIFTED = str(CONFIGS / "example-lifted.cfg")
TRANSPORT = str(CONFIGS / "transport.cfg")
PLANE = str(CONFIGS.parent / "perfbench" / "plane.cfg")
PROFILE = "(x1 - 1 + t)*exp(-(x1 - 1 + t))"

# CFL-safe shrink used where a test does not care about resolution
FAST = ["--grid-nt", "41", "--grid-nx", "101"]


def run(argv):
    return cli.main(argv)


@pytest.fixture(scope="module")
def solve_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("solve")
    code = run(["solve", EXAMPLE, "--out", str(out)])
    assert code == 0
    return out


class TestCheck:
    def test_example_config_passes(self, tmp_path, capsys):
        assert run(["check", EXAMPLE, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "check.json").read_text())
        assert report["passed"] is True
        names = {c["name"]: c for rep in ("hamiltonian", "structure")
                 for c in report[rep]["checks"]}
        # proportional cost: splitting a jump saves exactly the base cost,
        # and the declared margin consumes all of it
        sub = names["cost subadditivity"]
        assert sub["passed"] is True
        assert abs(sub["worst_margin"]) <= 1e-12
        out = capsys.readouterr().out
        assert "check: PASS" in out

    def test_bad_constant_is_invalid_input(self, tmp_path, capsys):
        text = Path(EXAMPLE).read_text().replace("beta = 0.5", "beta = 1.2")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert run(["check", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "beta" in err

    def test_growth_violation_fails_with_margin(self, tmp_path, capsys):
        assert run(["check", EXAMPLE, "--set", 'problem.H="3*p1*x1"',
                    "--out", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL  hamiltonian growth" in out
        report = json.loads((tmp_path / "check.json").read_text())
        growth = [c for c in report["hamiltonian"]["checks"]
                  if c["name"] == "hamiltonian growth"][0]
        assert growth["worst_margin"] < 0.0

    def test_missing_config_is_invalid_input(self, tmp_path):
        assert run(["check", str(tmp_path / "nope.cfg"),
                    "--out", str(tmp_path)]) == 2


class TestSolve:
    def test_transport_matches_closed_form(self, tmp_path):
        assert run(["solve", TRANSPORT, "--no-obstacle",
                    "--out", str(tmp_path)]) == 0
        grid = Grid(T=1.0, t_nodes=101, x_min=(-1.0,), x_max=(4.0,),
                    x_nodes=(351,))
        V = read_csv(grid, tmp_path / "solution.csv")
        exact = sample(ex.parse(PROFILE, {"t", "x1"}), grid)
        payload = json.loads((tmp_path / "solve.json").read_text())
        mask = interior_mask(grid, tuple(payload["dissipation"]))
        err = np.abs(V.values - exact.values)[mask]
        assert float(err.max()) <= 0.02

    def test_huge_cost_equals_no_obstacle_byte_for_byte(self, tmp_path):
        a = tmp_path / "constrained"
        b = tmp_path / "free"
        assert run(["solve", TRANSPORT, "--out", str(a)]) == 0
        assert run(["solve", TRANSPORT, "--no-obstacle", "--out", str(b)]) == 0
        assert (a / "solution.csv").read_bytes() == \
            (b / "solution.csv").read_bytes()
        payload = json.loads((a / "solve.json").read_text())
        assert payload["intervention_fraction"] == 0.0

    def test_example_config_intervenes(self, solve_dir):
        payload = json.loads((solve_dir / "solve.json").read_text())
        assert payload["passed"] is True
        assert payload["intervention_fraction"] > 0.0
        assert payload["intervention_nodes"] > 0
        for name in ("solution.csv", "residual.csv", "obstacle_gap.csv",
                     "manifest.json"):
            assert (solve_dir / name).exists()

    def test_unstable_step_fails_with_diagnostics(self, tmp_path, capsys):
        assert run(["solve", EXAMPLE, "--grid-nt", "11",
                    "--out", str(tmp_path)]) == 1
        assert "stability" in capsys.readouterr().err

    def test_outputs_are_deterministic(self, tmp_path):
        a = tmp_path / "first"
        b = tmp_path / "second"
        for out in (a, b):
            assert run(["solve", EXAMPLE, *FAST, "--out", str(out)]) == 0
        for name in ("solution.csv", "residual.csv", "solve.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_manifest_records_the_run(self, tmp_path):
        assert run(["solve", EXAMPLE, *FAST, "--set", "grid.x_max=3.5",
                    "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "solve"
        assert len(manifest["config_hash"]) == 64
        assert manifest["overrides"] == ["grid.t_nodes=41",
                                         "grid.x_nodes=101",
                                         "grid.x_max=3.5"]
        assert manifest["passed"] is True
        assert manifest["wall_time_s"] > 0.0
        for name in manifest["artifacts"]:
            assert (tmp_path / name).exists()


class TestViscosity:
    def test_modified_fails_on_the_profile(self, tmp_path, capsys):
        assert run(["viscosity", EXAMPLE, "--analytic", PROFILE,
                    "--variant", "qvi-super-modified",
                    "--out", str(tmp_path)]) == 1
        report = json.loads((tmp_path / "viscosity.json").read_text())
        assert report["passed"] is False
        assert not report["violations"]
        assert report["constraint_violations"]
        # every flagged node sits in the profitable strip
        for v in report["constraint_violations"]:
            u = v["x"][0] - 1.0 + v["t"]
            assert 0.4 < u < 2.7
        assert "constraint violation at" in capsys.readouterr().out

    def test_classical_passes_on_the_profile(self, tmp_path):
        assert run(["viscosity", EXAMPLE, "--analytic", PROFILE,
                    "--variant", "qvi-super-classical",
                    "--out", str(tmp_path)]) == 0

    def test_solver_output_is_a_subsolution(self, tmp_path, solve_dir):
        assert run(["viscosity", EXAMPLE,
                    "--solution", str(solve_dir / "solution.csv"),
                    "--variant", "qvi-sub", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "viscosity.json").read_text())
        assert report["passed"] is True

    def test_fresh_solve_is_the_default_subject(self, tmp_path, capsys):
        assert run(["viscosity", EXAMPLE, *FAST,
                    "--variant", "qvi-sub", "--out", str(tmp_path)]) == 0
        assert "fresh solve" in capsys.readouterr().out

    @pytest.mark.parametrize("config", [EXAMPLE, PLANE],
                             ids=["example", "plane"])
    def test_fresh_solve_gap_is_reused(self, tmp_path, monkeypatch, config):
        # the constrained checks read the solve's own N[V] - V: each report
        # equals the checker on a recomputed gap, and no gap is recomputed
        cfg = load_problem(Path(config).read_text())
        res = solve_qvi(cfg.problem, cfg.grid, constants=cfg.constants)
        gap = vc.obstacle_gap(res.V, cfg.problem)

        def refuse(*args, **kwargs):
            raise AssertionError("obstacle gap recomputed")

        monkeypatch.setattr(vc, "obstacle_gap", refuse)
        for variant in ("qvi-sub", "qvi-super-classical",
                        "qvi-super-modified"):
            out = tmp_path / variant
            assert run(["viscosity", config, "--variant", variant,
                        "--out", str(out)]) in (0, 1)
            expect = cli._VARIANTS[variant](res.V, cfg.problem, gap=gap)
            assert ((out / "viscosity.json").read_text()
                    == expect.to_json() + "\n")

    def test_both_sources_is_invalid(self, tmp_path, solve_dir):
        assert run(["viscosity", EXAMPLE,
                    "--solution", str(solve_dir / "solution.csv"),
                    "--analytic", PROFILE,
                    "--variant", "qvi-sub", "--out", str(tmp_path)]) == 2

    def test_wrong_shape_solution_is_invalid(self, tmp_path, solve_dir):
        assert run(["viscosity", EXAMPLE, "--grid-nx", "101",
                    "--solution", str(solve_dir / "solution.csv"),
                    "--variant", "qvi-sub", "--out", str(tmp_path)]) == 2

    def test_bad_expression_is_invalid(self, tmp_path):
        assert run(["viscosity", EXAMPLE, "--analytic", "sqrt*",
                    "--variant", "qvi-sub", "--out", str(tmp_path)]) == 2


class TestCompare:
    def test_identical_configs_have_zero_gap(self, tmp_path):
        assert run(["compare", EXAMPLE, EXAMPLE, *FAST,
                    "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "compare.json").read_text())
        assert report["max_difference"] == 0.0
        assert report["ordered"] is True
        assert (tmp_path / "difference.csv").exists()

    def test_ordered_pair_passes(self, tmp_path):
        assert run(["compare", EXAMPLE, LIFTED, *FAST,
                    "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "compare.json").read_text())
        assert report["max_difference"] < 0.0

    def test_reversed_pair_fails_the_order_audit(self, tmp_path, capsys):
        assert run(["compare", LIFTED, EXAMPLE, *FAST,
                    "--out", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "order audit failed" in out
        report = json.loads((tmp_path / "compare.json").read_text())
        assert report["ordered"] is False

    def test_mismatched_grids_are_invalid(self, tmp_path):
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(Path(EXAMPLE).read_text().replace(
            "x_max = 4.0", "x_max = 5.0"))
        assert run(["compare", EXAMPLE, str(cfg),
                    "--out", str(tmp_path)]) == 2


class TestDoubling:
    def test_trend_table_is_emitted(self, tmp_path):
        assert run(["doubling", EXAMPLE, "--analytic", PROFILE,
                    "--theta", "0.001", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "trend.csv").read_text().strip().splitlines()
        assert lines[0].startswith("epsilon,delta,t0,s0")
        assert len(lines) == 4
        diag = json.loads((tmp_path / "doubling.json").read_text())
        assert [lev["epsilon"] for lev in diag["levels"]] == [0.1, 0.05, 0.025]
        assert all(lev["residual_certified"] <= 0.0 for lev in diag["levels"])

    def test_custom_levels_flag(self, tmp_path):
        assert run(["doubling", EXAMPLE, "--analytic", PROFILE,
                    "--levels", "0.2,0.1", "--out", str(tmp_path)]) == 0
        diag = json.loads((tmp_path / "doubling.json").read_text())
        assert [lev["epsilon"] for lev in diag["levels"]] == [0.2, 0.1]

    def test_two_function_pair(self, tmp_path, solve_dir):
        assert run(["doubling", EXAMPLE, "--analytic", PROFILE,
                    "--solution-hat", str(solve_dir / "solution.csv"),
                    "--theta", "0.001", "--out", str(tmp_path)]) == 0

    def test_bad_levels_are_invalid(self, tmp_path):
        assert run(["doubling", EXAMPLE, "--analytic", PROFILE,
                    "--levels", "a,b", "--out", str(tmp_path)]) == 2


class TestReproduceExample:
    def test_default_run_separates(self, tmp_path, capsys):
        assert run(["reproduce-example", "--grid-nt", "101",
                    "--grid-nx", "351", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "example.json").read_text())
        assert payload["gap"] == pytest.approx(-0.095, abs=1e-3)
        assert payload["gap_difference"] <= 1e-6
        assert payload["classical"] == "PASS"
        assert payload["modified"] == "FAIL"
        assert payload["separated"] is True
        assert payload["obstacle_at_anchor"] == pytest.approx(
            payload["value_at_anchor"] + payload["gap"], abs=1e-12)
        out = capsys.readouterr().out
        assert "reproduce-example: PASS" in out
        slice_lines = (tmp_path / "anchor_slice.csv").read_text().splitlines()
        assert slice_lines[0] == "x1,obstacle_minus_value"
        assert len(slice_lines) == 352
        dips = [float(line.split(",")[1]) for line in slice_lines[1:]]
        assert min(dips) < -0.09

    def test_unprofitable_cost_does_not_separate(self, tmp_path, capsys):
        assert run(["reproduce-example", "--l0", "0.08", "--grid-nt", "101",
                    "--grid-nx", "351", "--out", str(tmp_path)]) == 1
        payload = json.loads((tmp_path / "example.json").read_text())
        assert payload["separated"] is False
        assert payload["classical"] == "PASS"
        assert payload["modified"] == "PASS"
        assert "shrink" in payload["notes"]

    def test_cost_above_root_threshold_is_invalid(self, tmp_path):
        assert run(["reproduce-example", "--l0", "0.2",
                    "--out", str(tmp_path)]) == 2

    def test_bad_nx_is_invalid(self, tmp_path):
        assert run(["reproduce-example", "--grid-nx", "101,101",
                    "--out", str(tmp_path)]) == 2


class TestEntryPoint:
    def test_console_script_help(self):
        proc = subprocess.run([sys.executable, "-m", "qvilab.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        for name in ("check", "solve", "viscosity", "compare", "doubling",
                     "reproduce-example"):
            assert name in proc.stdout

    def test_unknown_variant_is_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["viscosity", EXAMPLE, "--variant", "bogus",
                 "--out", str(tmp_path)])
        assert err.value.code == 2
