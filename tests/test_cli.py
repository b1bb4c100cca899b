"""Command line surface: exit codes, artifacts, determinism, overrides."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qvilab import cli
from qvilab import example as exm
from qvilab import expr as ex
from qvilab import viscosity as vc
from qvilab.assumptions import default_sampler
from qvilab.core import Grid, load_problem, read_csv, sample, write_table
from qvilab.solver import interior_mask, solve_qvi

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
EXAMPLE = str(CONFIGS / "example.cfg")
LIFTED = str(CONFIGS / "example-lifted.cfg")
TRANSPORT = str(CONFIGS / "transport.cfg")
PLANE = str(CONFIGS.parent / "perfbench" / "plane.cfg")
PROFILE = "(x1 - 1 + t)*exp(-(x1 - 1 + t))"

# CFL-safe shrink used where a test does not care about resolution
FAST = ["--grid-nt", "41", "--grid-nx", "101"]
# everything solve writes, with or without the obstacle
SOLVE_FILES = ["manifest.json", "solution.csv", "solve.json"]


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

    def test_infinite_growth_bound_passes(self, tmp_path):
        # L = 1e308 takes the growth envelope past the float range at every
        # sample: an inf margin holds, so the audit passes over all points
        assert run(["check", EXAMPLE, "--set", "constants.L=1e308",
                    "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "check.json").read_text())
        growth = next(c for c in report["hamiltonian"]["checks"]
                      if c["name"] == "hamiltonian growth")
        assert growth["passed"] is True
        assert growth["points_tested"] > 0

    def test_infinite_margin_names_its_kind(self, tmp_path):
        # null alone would not tell +inf from -inf or from no samples
        assert run(["check", EXAMPLE, "--set", "constants.L=1e308",
                    "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "check.json").read_text())
        checks = [c for rep in ("hamiltonian", "structure")
                  for c in report[rep]["checks"]]
        growth = next(c for c in checks if c["name"] == "hamiltonian growth")
        assert growth["worst_margin"] is None
        assert growth["worst_margin_kind"] == "+inf"
        assert list(growth).index("worst_margin_kind") \
            == list(growth).index("worst_margin") + 1
        # finite margins gain no key
        assert all("worst_margin_kind" not in c for c in checks
                   if c["worst_margin"] is not None)

    def test_missing_config_is_invalid_input(self, tmp_path):
        assert run(["check", str(tmp_path / "nope.cfg"),
                    "--out", str(tmp_path)]) == 2

    def test_non_utf8_config_is_invalid_input(self, tmp_path, capsys):
        cfg = tmp_path / "binary.cfg"
        cfg.write_bytes(Path(EXAMPLE).read_bytes() + b"\xff\n")
        assert run(["check", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "binary.cfg" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("config", [EXAMPLE, PLANE],
                             ids=["example", "plane"])
    def test_audits_with_the_default_sampler(self, tmp_path, monkeypatch,
                                             config):
        # the ray coefficients reach the box diagonal, as N's search does
        specs = []

        def spy(inner):
            def audit(problem, constants, spec):
                specs.append(spec)
                return inner(problem, constants, spec)
            return audit

        for name in ("audit_H1", "audit_H2"):
            monkeypatch.setattr(cli, name, spy(getattr(cli, name)))
        assert run(["check", config, "--out", str(tmp_path)]) == 0
        grid = load_problem(Path(config).read_text()).grid
        assert specs == [default_sampler(grid)] * 2
        assert specs[0].xi_max == grid.box_diagonal


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
        for name in ("solution.csv", "manifest.json"):
            assert (solve_dir / name).exists()
        for name in ("obstacle_gap.csv", "residual.csv"):
            assert not (solve_dir / name).exists()

    def test_flags_name_the_box_edge_on_both_paths(self, solve_dir,
                                                    tmp_path):
        # every clipped jump lands on x1 = 4; the ray cone "1" allows the
        # same jumps but takes the search, whose zoom stops short of the
        # edge by less than half a cell
        flags = ["best jump reaches x1 = 4 at 148 clipped nodes"]
        assert json.loads((solve_dir / "solve.json").read_text())[
            "flags"] == flags
        assert run(["solve", EXAMPLE, "--set", 'problem.cone="1"',
                    "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "solve.json").read_text())[
            "flags"] == flags

    @pytest.mark.parametrize("argv, counts", [
        ([EXAMPLE], (148, 1)), ([LIFTED], (125, 1)), ([PLANE], (419, 1)),
        ([TRANSPORT], (0, 0)), ([TRANSPORT, "--no-obstacle"], None)],
        ids=["example", "lifted", "plane", "transport",
             "transport-no-obstacle"])
    def test_writes_one_grid_and_counts_the_clipped_nodes(self, tmp_path,
                                                          argv, counts):
        # every clip sits in the slice next to the terminal one; an
        # unconstrained run has no clipped counts
        assert run(["solve", *argv, "--out", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == SOLVE_FILES
        payload = json.loads((tmp_path / "solve.json").read_text())
        keys = ("clipped_nodes", "clipped_slices")
        if counts is None:
            assert not set(keys) & set(payload)
        else:
            assert tuple(payload[key] for key in keys) == counts

    @pytest.mark.parametrize("config", [EXAMPLE, PLANE],
                             ids=["example", "plane"])
    def test_the_gap_is_recovered_from_the_solution(self, tmp_path, config):
        # solve writes no gap grid: N[V] - V of the solution.csv it writes
        # is the solve's own gap bit for bit, so a check that reads the
        # file writes the bytes of a check on a fresh solve
        cfg = load_problem(Path(config).read_text())
        out = tmp_path / "solve"
        assert run(["solve", config, "--out", str(out)]) == 0
        solution = out / "solution.csv"
        gap = solve_qvi(cfg.problem, cfg.grid).obstacle_gap.values
        assert np.array_equal(
            vc.obstacle_gap(read_csv(cfg.grid, solution), cfg.problem), gap)
        codes = [run(["viscosity", config, "--variant", "qvi-sub", *source,
                      "--out", str(tmp_path / name)])
                 for name, source in (("read", ["--solution", str(solution)]),
                                      ("fresh", []))]
        assert codes[0] == codes[1]
        for name in ("viscosity.json", "violations.csv"):
            assert ((tmp_path / "read" / name).read_bytes()
                    == (tmp_path / "fresh" / name).read_bytes())

    def test_unstable_step_fails_with_diagnostics(self, tmp_path, capsys):
        assert run(["solve", EXAMPLE, "--grid-nt", "11",
                    "--out", str(tmp_path)]) == 1
        assert "stability" in capsys.readouterr().err

    def test_outputs_are_deterministic(self, tmp_path):
        a = tmp_path / "first"
        b = tmp_path / "second"
        for out in (a, b):
            assert run(["solve", EXAMPLE, *FAST, "--out", str(out)]) == 0
        for name in ("solution.csv", "solve.json"):
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
    def test_modified_fails_on_the_profile(self, tmp_path, capsys,
                                           read_violations):
        assert run(["viscosity", EXAMPLE, "--analytic", PROFILE,
                    "--variant", "qvi-super-modified",
                    "--out", str(tmp_path)]) == 1
        report = json.loads((tmp_path / "viscosity.json").read_text())
        assert report["passed"] is False
        assert report["violations"]["rows"] == 0
        assert report["constraint_violations"]["rows"] > 0
        table = read_violations(tmp_path / "violations.csv")
        assert list(table) == ["constraint"]
        rows = table["constraint"]
        assert len(rows["t"]) == report["constraint_violations"]["rows"]
        # every flagged node sits in the profitable strip
        u = rows["x"][:, 0] - 1.0 + rows["t"]
        assert np.all((0.4 < u) & (u < 2.7))
        assert "constraint violation at" in capsys.readouterr().out

    def test_examples_of_each_kind_are_printed(self, tmp_path, capsys):
        assert run(["viscosity", TRANSPORT, "--variant", "hjb-sub",
                    "--analytic", "abs(x1)", "--grid-nt", "41",
                    "--grid-nx", "71", "--out", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "48195 probe, 0 constraint, 66 terminal violations" in out
        assert out.count("  probe violation at t=") == 5
        assert out.count("  terminal violation at t=1, ") == 5
        assert "constraint violation at" not in out

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
        res = solve_qvi(cfg.problem, cfg.grid)
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
                    == json.dumps(expect.to_dict(), indent=2) + "\n")
            expect_csv = tmp_path / f"{variant}.csv"
            write_table(expect_csv, *expect.table())
            assert ((out / "violations.csv").read_bytes()
                    == expect_csv.read_bytes())

    def test_both_sources_is_invalid(self, tmp_path, solve_dir):
        assert run(["viscosity", EXAMPLE,
                    "--solution", str(solve_dir / "solution.csv"),
                    "--analytic", PROFILE,
                    "--variant", "qvi-sub", "--out", str(tmp_path)]) == 2

    def test_non_utf8_solution_is_invalid(self, tmp_path, capsys):
        path = tmp_path / "binary.csv"
        path.write_bytes(np.random.default_rng(0).bytes(300))
        assert run(["viscosity", EXAMPLE, "--solution", str(path),
                    "--variant", "hjb-sub", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "binary.csv" in err
        assert "Traceback" not in err

    def test_wrong_shape_solution_is_invalid(self, tmp_path, solve_dir):
        assert run(["viscosity", EXAMPLE, "--grid-nx", "101",
                    "--solution", str(solve_dir / "solution.csv"),
                    "--variant", "qvi-sub", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("solve_flags, read_flags", [
        (["--set", "grid.x_min=-3", "--set", "grid.x_max=2"], []),
        (["--grid-nt", "41", "--grid-nx", "101"],
         ["--grid-nt", "101", "--grid-nx", "41"]),
    ], ids=["box-shifted", "node-counts-swapped"])
    def test_solution_written_on_another_grid_is_invalid(
            self, solve_flags, read_flags, tmp_path, capsys):
        # both files hold as many rows as the grid that reads them
        solved = tmp_path / "solved"
        assert run(["solve", TRANSPORT, "--no-obstacle", *solve_flags,
                    "--out", str(solved)]) == 0
        capsys.readouterr()
        assert run(["viscosity", TRANSPORT, *read_flags,
                    "--variant", "hjb-super",
                    "--solution", str(solved / "solution.csv"),
                    "--out", str(tmp_path / "probe")]) == 2
        err = capsys.readouterr().err
        assert "another grid" in err and "solution.csv" in err

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

    def test_every_output_gives_one_verdict(self, tmp_path, capsys):
        # lifting the first h puts it above the second: the data are not
        # ordered, although max(V - V_hat) = 0.1 is within the tolerance
        cfg = tmp_path / "high.cfg"
        cfg.write_text(Path(EXAMPLE).read_text().replace(
            'h = "x1*exp(-x1)"', 'h = "x1*exp(-x1) + 0.1"'))
        out = tmp_path / "out"
        assert run(["compare", str(cfg), EXAMPLE, *FAST,
                    "--out", str(out)]) == 1
        report = json.loads((out / "compare.json").read_text())
        assert report["ordered"] is False
        assert report["max_difference"] == pytest.approx(0.1, abs=1e-9)
        assert report["max_difference"] <= report["tolerance"]
        assert report["passed"] is False
        assert json.loads((out / "manifest.json").read_text())["passed"] is False
        assert "compare: FAIL" in capsys.readouterr().out

    def test_tol_is_the_recorded_tolerance(self, tmp_path, capsys):
        assert run(["compare", EXAMPLE, LIFTED, *FAST, "--tol", "0",
                    "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "compare.json").read_text())
        assert report["tolerance"] == 0.0
        assert report["passed"] is True
        assert "(tolerance 0)" in capsys.readouterr().out

    def test_overflowing_bounds_are_null_margins(self, tmp_path):
        # C = 1e308 takes the growth bound C*(1 + |x|^0) and the Hoelder
        # bound C*(1 + d^kappa) past the float range: the growth margin is
        # written as null, with no numpy overflow warning on the way
        assert run(["compare", EXAMPLE, LIFTED, *FAST,
                    "--set", "constants.C=1e308", "--out", str(tmp_path)]) == 0
        checks = json.loads((tmp_path / "compare.json").read_text())[
            "audit"]["checks"]
        growth = next(c for c in checks if c["name"] == "value growth")
        assert growth["worst_margin"] is None

    def test_infinite_growth_bound_passes(self, tmp_path):
        # an inf growth margin holds at every node of both solutions
        assert run(["compare", EXAMPLE, LIFTED, *FAST,
                    "--set", "constants.C=1e308", "--out", str(tmp_path)]) == 0
        checks = json.loads((tmp_path / "compare.json").read_text())[
            "audit"]["checks"]
        growth = next(c for c in checks if c["name"] == "value growth")
        assert growth["passed"] is True
        assert growth["points_tested"] == 2 * 41 * 101

    def test_infinite_margin_names_its_kind(self, tmp_path):
        assert run(["compare", EXAMPLE, LIFTED, *FAST,
                    "--set", "constants.C=1e308", "--out", str(tmp_path)]) == 0
        checks = json.loads((tmp_path / "compare.json").read_text())[
            "audit"]["checks"]
        growth = next(c for c in checks if c["name"] == "value growth")
        assert growth["worst_margin"] is None
        assert growth["worst_margin_kind"] == "+inf"
        assert all("worst_margin_kind" not in c for c in checks
                   if c["worst_margin"] is not None)

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
        # doubling.json is the one record of the trend
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            "doubling.json", "manifest.json"]
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

    @pytest.mark.parametrize("flags", [("--solution", "--analytic"),
                                       ("--solution-hat", "--analytic-hat")])
    def test_conflicting_sources_name_both_flags(self, flags, tmp_path,
                                                 capsys):
        # the first function comes from --analytic in the hat case, so the
        # run reaches the hat's two sources without a solve
        assert run(["doubling", EXAMPLE, "--analytic", "x1",
                    flags[0], "missing.csv", flags[1], "x1",
                    "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: pass either {flags[0]} or {flags[1]}, not both\n")
        assert not (tmp_path / "doubling.json").exists()

    @pytest.mark.parametrize("theta", ["0", "0.1"])
    def test_theta_outside_its_range_is_invalid(self, theta, tmp_path,
                                                capsys):
        assert run(["doubling", EXAMPLE, "--analytic", "x1",
                    "--grid-nt", "11", "--grid-nx", "21", "--theta", theta,
                    "--out", str(tmp_path)]) == 2
        assert "theta" in capsys.readouterr().err
        assert not (tmp_path / "doubling.json").exists()

    def test_bad_levels_are_invalid(self, tmp_path):
        for levels in ("a,b", ""):
            assert run(["doubling", EXAMPLE, "--analytic", PROFILE,
                        "--levels", levels, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("level", ["nan", "inf", "1e-320"])
    def test_levels_need_a_finite_penalty_weight(self, level, tmp_path):
        # the penalties weigh by 0.5/level: NaN and inf levels, and levels
        # so small that 0.5/level overflows, wrote NaN or Infinity to JSON
        assert run(["doubling", EXAMPLE, "--analytic", "x1",
                    "--grid-nt", "11", "--grid-nx", "21", "--levels", level,
                    "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "doubling.json").exists()

    def test_horizon_needs_a_finite_barrier_weight(self, tmp_path, capsys):
        # w(t, s) divides by 2*nu*T: where that overflows, doubling.json
        # held NaN at a placeholder argmax
        def doubling(T, out):
            return run(["doubling", EXAMPLE, "--analytic", PROFILE,
                        "--grid-nt", "3", "--grid-nx", "5",
                        "--set", "grid.x_min=0", "--set", "grid.x_max=1",
                        "--set", f"problem.T={T}", "--out", str(out)])

        assert doubling("1e308", tmp_path / "over") == 2
        assert "2*nu*T" in capsys.readouterr().err
        assert not (tmp_path / "over" / "doubling.json").exists()
        assert doubling("1e200", tmp_path / "big") == 0
        diag = json.loads((tmp_path / "big" / "doubling.json").read_text())
        assert all(np.isfinite(lev["phi_value"]) for lev in diag["levels"])

    @pytest.mark.filterwarnings("error")
    def test_time_penalty_overflow_raises_no_warning(self, tmp_path):
        # past T ~ 1.34e154, 0.5/eps*(t - s)**2 overflows to inf on purpose:
        # the bound's slack is then not finite and every block is evaluated
        assert run(["doubling", EXAMPLE, "--analytic", PROFILE,
                    "--grid-nt", "3", "--grid-nx", "5",
                    "--set", "grid.x_min=0", "--set", "grid.x_max=1",
                    "--set", "problem.T=1.5e154", "--out", str(tmp_path)]) == 0
        diag = json.loads((tmp_path / "doubling.json").read_text())
        assert all(np.isfinite(lev["phi_value"]) for lev in diag["levels"])


class TestReproduceExample:
    def test_default_run_separates(self, tmp_path, capsys):
        assert run(["reproduce-example", "--grid-nt", "101",
                    "--grid-nx", "351", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "example.json").read_text())
        instance = payload["instance"]
        assert instance["gap"] == pytest.approx(-0.095, abs=1e-3)
        assert payload["gap_difference"] <= 1e-6
        assert payload["classical"] == "PASS"
        assert payload["modified"] == "FAIL"
        assert payload["separated"] is True
        assert payload["obstacle_at_anchor"] == pytest.approx(
            instance["value_at_anchor"] + instance["gap"], abs=1e-12)
        out = capsys.readouterr().out
        assert "reproduce-example: PASS" in out
        slice_lines = (tmp_path / "anchor_slice.csv").read_text().splitlines()
        assert slice_lines[0] == "x1,obstacle_minus_value"
        assert len(slice_lines) == 352
        dips = [float(line.split(",")[1]) for line in slice_lines[1:]]
        assert min(dips) < -0.09

    def test_anchor_slice_is_the_report_gap_row(self, tmp_path,
                                                 monkeypatch):
        # the CSV writes the gap the checkers read, not a recomputed one
        reports = []
        inner = exm.verify_separation

        def kept(*args, **kwargs):
            reports.append(inner(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(exm, "verify_separation", kept)
        assert run(["reproduce-example", "--grid-nt", "101",
                    "--grid-nx", "351", "--out", str(tmp_path)]) == 0
        report, = reports
        k0 = 50  # t0 = 0.5 on 101 nodes over [0, 1]
        rows = (tmp_path / "anchor_slice.csv").read_text().splitlines()[1:]
        got = np.array([[float(c) for c in row.split(",")] for row in rows])
        assert np.array_equal(got[:, 1], report.gap[k0])

    @pytest.mark.parametrize("t0", ["0.25", "0.96"])
    def test_anchor_time_off_the_grid_is_invalid(self, t0, tmp_path, capsys):
        # 11 nodes step by 0.1: 0.25 was written as the t = 0.2 slice and
        # 0.96 as the terminal one
        out = tmp_path / "out"
        assert run(["reproduce-example", "--grid-nt", "11", "--t0", t0,
                    "--out", str(out)]) == 2
        assert "not a time node" in capsys.readouterr().err
        assert not out.exists()

    def test_anchor_time_on_the_grid_writes_its_slice(self, tmp_path,
                                                       monkeypatch):
        reports = []
        inner = exm.verify_separation

        def kept(*args, **kwargs):
            reports.append(inner(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(exm, "verify_separation", kept)
        assert run(["reproduce-example", "--grid-nt", "11", "--grid-nx",
                    "141", "--t0", "0.3", "--out", str(tmp_path)]) in (0, 1)
        report, = reports
        rows = (tmp_path / "anchor_slice.csv").read_text().splitlines()[1:]
        got = np.array([float(row.split(",")[1]) for row in rows])
        assert np.array_equal(got, report.gap[3])

    def test_anchor_between_hundredths_gets_a_verdict(self, tmp_path,
                                                      capsys):
        # x0 = 2 - 1/3 is off every 0.01 lattice from a round number; the
        # anchor gap is measured on the lattice that starts at x0 itself
        assert run(["reproduce-example", "--grid-nt", "4", "--grid-nx", "101",
                    "--t0", "0.3333333333333333",
                    "--out", str(tmp_path)]) in (0, 1)
        assert "anchor point" not in capsys.readouterr().err
        payload = json.loads((tmp_path / "example.json").read_text())
        assert payload["gap_difference"] <= 1e-6

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


# each command with the one JSON report it writes besides manifest.json
REPORTS = {
    "check": (["check", EXAMPLE], "check.json"),
    "solve": (["solve", EXAMPLE, *FAST], "solve.json"),
    "viscosity": (["viscosity", EXAMPLE, *FAST, "--variant", "qvi-sub",
                   "--analytic", PROFILE], "viscosity.json"),
    "compare": (["compare", EXAMPLE, LIFTED, *FAST], "compare.json"),
    "doubling": (["doubling", EXAMPLE, *FAST, "--analytic", PROFILE],
                 "doubling.json"),
    "reproduce-example": (["reproduce-example", "--grid-nt", "101",
                           "--grid-nx", "351"], "example.json"),
}


@pytest.mark.parametrize("command", sorted(REPORTS))
def test_every_command_writes_one_report(command, tmp_path):
    argv, report = REPORTS[command]
    assert run([*argv, "--out", str(tmp_path)]) in (0, 1)
    written = sorted(f.name for f in tmp_path.glob("*.json"))
    assert written == sorted([report, "manifest.json"])


class TestEntryPoint:
    def test_console_script_help(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(CONFIGS.parent / "src"), env.get("PYTHONPATH"))
            if p)
        proc = subprocess.run([sys.executable, "-m", "qvilab.cli", "--help"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        for name in ("check", "solve", "viscosity", "compare", "doubling",
                     "reproduce-example"):
            assert name in proc.stdout

    def test_unknown_variant_is_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["viscosity", EXAMPLE, "--variant", "bogus",
                 "--out", str(tmp_path)])
        assert err.value.code == 2


# every command that reads --tol, and `solve`, which has none, with
# arguments that would otherwise run
TOL_COMMANDS = {
    "solve": ["solve", EXAMPLE, *FAST],
    "viscosity": ["viscosity", EXAMPLE, *FAST, "--variant", "hjb-super",
                  "--analytic", "abs(x1)"],
    "compare": ["compare", EXAMPLE, LIFTED, *FAST],
    "reproduce-example": ["reproduce-example", *FAST],
}


class TestConfigNumbers:
    @pytest.mark.parametrize("flags", [
        ["--set", "grid.x_nodes=1e400"],
        ["--set", "grid.t_nodes=nan"],
        ["--set", "grid.t_nodes=inf"],
        ["--set", "problem.T=inf"],
        ["--set", "problem.T=nan"],
        ["--set", "grid.x_max=inf"],
        ["--grid-nx", "2.5"],
        ["--grid-nt", "2.5"],
        ["--set", "constants.L=inf"],
        ["--set", 'problem.cone="a"'],
        ["--set", 'problem.cone="nan"'],
        ["--set", 'problem.cone="inf"'],
        ["--set", 'problem.cone="1,x; 0,1"'],
    ], ids=lambda flags: "=".join(flags).lstrip("-"))
    def test_non_finite_or_fractional_numbers_are_invalid(self, flags,
                                                          tmp_path, capsys):
        assert run(["solve", EXAMPLE, *flags, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        # the message names the key it rejects
        setting = (flags[1].split("=")[0] if flags[0] == "--set" else
                   {"--grid-nx": "x_nodes", "--grid-nt": "t_nodes"}[flags[0]])
        assert setting.rpartition(".")[2] in err

    @pytest.mark.parametrize("argv", [
        ["solve", EXAMPLE, "--grid-nx", "101"],
        ["reproduce-example", "--grid-nx", "141", "--t0", "0.3"],
    ], ids=["solve", "reproduce-example"])
    def test_grid_nt_is_read_like_a_config_integer(self, argv, tmp_path):
        # "4.1e1" means 41, as it does for grid.t_nodes and --grid-nx
        written = []
        for text in ("41", "4.1e1"):
            out = tmp_path / text
            assert run([*argv, "--grid-nt", text, "--out", str(out)]) in (0, 1)
            written.append({f.name: f.read_bytes() for f in out.iterdir()
                            if f.name != "manifest.json"})
        assert written[0] and written[0] == written[1]

    @pytest.mark.parametrize("lo, hi", [(-1e200, 1e200), (-1.7e308, 1.7e308),
                                        (-5e-324, 5e-324)])
    @pytest.mark.parametrize("command", ["solve", "check", "viscosity",
                                         "doubling"])
    def test_degenerate_box_is_invalid(self, command, lo, hi, tmp_path,
                                       capsys):
        # a diagonal that overflows or underflows leaves N no radius
        extra = {"viscosity": ["--variant", "hjb-sub"],
                 "doubling": ["--analytic", PROFILE]}.get(command, [])
        assert run([command, EXAMPLE, *extra, "--set", f"grid.x_min={lo!r}",
                    "--set", f"grid.x_max={hi!r}",
                    "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "error: grid box" in err and "diagonal" in err

    @settings(max_examples=60, deadline=None)
    @given(x_min=st.floats(allow_nan=False, allow_infinity=False),
           x_max=st.floats(allow_nan=False, allow_infinity=False),
           T=st.floats(allow_nan=False, allow_infinity=False))
    @example(x_min=-1e200, x_max=1e200, T=1.0)
    @example(x_min=-1.7e308, x_max=1.7e308, T=1.0)
    @example(x_min=-5e-324, x_max=5e-324, T=1.0)
    @example(x_min=-5e-324, x_max=1e-320, T=5e-324)
    @example(x_min=-1.0, x_max=-0.9, T=1e308)
    @example(x_min=0.0, x_max=1.0, T=1.3407807929942597e+154)
    def test_any_box_and_horizon_ends_in_an_exit_code(self, x_min, x_max, T):
        # finite floats, subnormals and near-overflow values alike end in
        # a verdict, an invalid-input error or a solver failure
        for command in (["solve"], ["doubling", "--analytic", PROFILE]):
            with tempfile.TemporaryDirectory() as out:
                code = run([command[0], EXAMPLE, *command[1:],
                            "--grid-nt", "3", "--grid-nx", "5",
                            "--set", f"grid.x_min={x_min!r}",
                            "--set", f"grid.x_max={x_max!r}",
                            "--set", f"problem.T={T!r}", "--out", out])
            assert code in (0, 1, 2), command

    def test_nonpositive_cost_prints_a_plain_number(self, tmp_path, capsys):
        # the ray -1 makes 0.05*(1 + xi1) negative at the far samples
        assert run(["solve", EXAMPLE, *FAST, "--set", 'problem.cone="-1"',
                    "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "np.float64" not in err
        assert float(err.rsplit("value ", 1)[1]) < 0.0

    @settings(max_examples=40, deadline=None)
    @given(rays=st.lists(
        st.lists(st.one_of(st.floats(-1.0, 3.0).map(repr),
                           st.floats().map(repr),
                           st.sampled_from(["nan", "inf", "-inf", "x", "",
                                            "1e400", "-0", "orthant"])),
                 min_size=1, max_size=2).map(",".join),
        max_size=8).map("; ".join))
    @example(rays="1")
    @example(rays="0.5; 2")
    @example(rays="1e308")
    @example(rays="1,x; 0,1")
    @example(rays="1; -1; 1")
    @example(rays="1; 1; 1; 1; 1; 1; 1; 1")
    def test_any_cone_text_ends_in_an_exit_code(self, rays):
        with tempfile.TemporaryDirectory() as out:
            code = run(["solve", EXAMPLE, "--grid-nt", "3", "--grid-nx", "5",
                        "--set", f'problem.cone="{rays}"', "--out", out])
        assert code in (0, 1, 2), rays

    @settings(max_examples=40, deadline=None)
    @given(nt=st.integers(2, 21), nx=st.integers(2, 41),
           l0=st.floats(0.0, exm.COST_THRESHOLD, exclude_min=True,
                        exclude_max=True),
           data=st.data())
    def test_any_example_grid_and_anchor_node_ends_in_an_exit_code(
            self, nt, nx, l0, data):
        # every time node before the last is a valid anchor time
        t0 = data.draw(st.integers(0, nt - 2)) * (1.0 / (nt - 1))
        printed = io.StringIO()
        with tempfile.TemporaryDirectory() as out, \
                contextlib.redirect_stdout(printed), \
                contextlib.redirect_stderr(printed):
            code = run(["reproduce-example", "--grid-nt", str(nt),
                        "--grid-nx", str(nx), "--l0", repr(l0),
                        "--t0", repr(t0), "--out", out])
        assert code in (0, 1, 2), (nt, nx, l0, t0)
        assert "anchor point" not in printed.getvalue()


def expression_command(key, text, out):
    """argv that reads `text` as problem key `key`, or as --analytic."""
    grid = ["--grid-nt", "3", "--grid-nx", "5", "--out", out]
    if key == "analytic":
        return ["doubling", EXAMPLE, f"--analytic={text}", *grid]
    return ["solve", EXAMPLE, "--set", f'problem.{key}="{text}"', *grid]


DEEP = ["(" * 300 + "x1" + ")" * 300, "-" * 5000 + "x1",
        " + ".join(["x1"] * 3000)]
# each used to end in a traceback or a numpy warning
INVALID_TEXT = [("h", "1e400"), ("ell", "1e400"), ("ell", "0.05 + xi1^1e400"),
                *(("h", text) for text in DEEP),
                *(("analytic", text) for text in ("1e400", *DEEP))]

# text for the expression keys: grammar tokens in any order, numbers near
# and past overflow, and any of those wrapped far past the depth bound
_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, min_value=0.0).map(repr),
    st.sampled_from(["0", "1", "0.05", "1e308", "1.7976931348623157e308",
                     "1.8e308", "1e400", "1e-400", "5e-324", "9" * 400]))
_TOKENS = st.one_of(
    _NUMBERS,
    st.sampled_from(["t", "x1", "p1", "xi1", "y", *ex.FUNCTION_NAMES,
                     "+", "-", "*", "/", "^", "(", ")", ",", " "]))
_SOUP = st.lists(_TOKENS, max_size=12).map(" ".join)
_WELL_FORMED = st.recursive(
    st.one_of(_NUMBERS, st.sampled_from(["t", "x1", "p1", "xi1"])),
    lambda sub: st.one_of(
        st.tuples(sub, st.sampled_from("+-*/^"), sub).map(
            lambda parts: f"({' '.join(parts)})"),
        sub.map(lambda arg: f"-{arg}"),
        st.tuples(st.sampled_from(["exp", "log", "sqrt", "abs", "sin",
                                   "cos", "sign"]), sub).map(
            lambda parts: f"{parts[0]}({parts[1]})")),
    max_leaves=12)


@st.composite
def _nested(draw, text):
    inner = draw(text)
    levels = draw(st.sampled_from([ex.MAX_DEPTH - 1, ex.MAX_DEPTH,
                                   ex.MAX_DEPTH + 1, 300, 3000]))
    wrap = draw(st.sampled_from(["parentheses", "minus", "sum", "call"]))
    if wrap == "parentheses":
        return "(" * levels + inner + ")" * levels
    if wrap == "minus":
        return "-" * levels + inner
    if wrap == "sum":
        return " + ".join([inner] * (levels + 1))
    return "sqrt(" * levels + inner + ")" * levels


class TestExpressionText:
    @pytest.mark.parametrize("key, text", INVALID_TEXT,
                             ids=lambda value: value[:20])
    def test_overflowing_or_deep_text_is_invalid(self, key, text, tmp_path,
                                                 capsys):
        assert run(expression_command(key, text, str(tmp_path))) == 2
        named = ("bad --analytic expression" if key == "analytic"
                 else f"bad expression for '{key}'")
        assert f"error: {named}: " in capsys.readouterr().err

    @settings(max_examples=60, deadline=None)
    @given(key=st.sampled_from(["H", "h", "ell", "g", "analytic"]),
           text=st.one_of(_SOUP, _WELL_FORMED, _nested(_SOUP),
                          _nested(_WELL_FORMED)))
    @example(key="h", text="1e400")
    @example(key="ell", text="1e400")
    @example(key="ell", text="0.05 + xi1^1e400")
    @example(key="h", text=DEEP[0])
    @example(key="h", text=DEEP[1])
    @example(key="h", text=DEEP[2])
    @example(key="analytic", text="1e400")
    @example(key="analytic", text=DEEP[0])
    @example(key="analytic", text=DEEP[1])
    @example(key="analytic", text=DEEP[2])
    def test_any_expression_text_ends_in_an_exit_code(self, key, text):
        printed = io.StringIO()
        with tempfile.TemporaryDirectory() as out, \
                contextlib.redirect_stdout(printed), \
                contextlib.redirect_stderr(printed):
            code = run(expression_command(key, text, out))
        assert code in (0, 1, 2), (key, text)
        assert "Traceback" not in printed.getvalue()


class TestConfigKeys:
    @pytest.mark.parametrize("section, key", [
        ("grid", "xnodes"), ("grid", "dt"), ("constants", "Lx"),
        ("constants", "l0"), ("problem", "HH"), ("problem", "t_nodes")])
    @pytest.mark.parametrize("source", ["set", "file"])
    def test_unknown_key_is_invalid(self, section, key, source, tmp_path,
                                    capsys):
        config, flags = EXAMPLE, ["--set", f"{section}.{key}=5"]
        if source == "file":
            config = tmp_path / "typo.cfg"
            config.write_text(Path(EXAMPLE).read_text().replace(
                f"[{section}]", f"[{section}]\n{key} = 5"))
            flags = []
        out = tmp_path / "out"
        assert run(["solve", str(config), *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and f"'{key}' in section [{section}]" in err
        assert not out.exists()


def _refuse_constant(constant):
    raise ValueError(f"{constant} is not strict JSON")


class TestStrictJson:
    def test_non_finite_floats_are_written_as_null(self):
        nan, inf = float("nan"), float("inf")
        payload = {"nan": nan, "list": [inf, -inf, 1.5],
                   "nested": {"tuple": (np.float64(-inf), 2)}, "text": "NaN"}
        text = cli.json_text(payload)
        assert text.endswith("}\n")
        assert json.loads(text, parse_constant=_refuse_constant) == {
            "nan": None, "list": [None, None, 1.5],
            "nested": {"tuple": [None, 2]}, "text": "NaN"}

    def test_non_finite_worst_margins_name_their_kind(self):
        checks = [{"worst_margin": margin, "passed": True}
                  for margin in (float("inf"), -np.inf, float("nan"), -0.5)]
        text = cli.json_text({"checks": checks, "other": float("inf")})
        assert json.loads(text)["checks"] == [
            {"worst_margin": None, "worst_margin_kind": "+inf",
             "passed": True},
            {"worst_margin": None, "worst_margin_kind": "-inf",
             "passed": True},
            {"worst_margin": None, "worst_margin_kind": "no samples",
             "passed": True},
            {"worst_margin": -0.5, "passed": True}]
        assert '"other": null' in text

    def test_a_band_without_edges_is_null(self, tmp_path):
        # no profitable jump at l0 = 0.1: the band edges are NaN
        assert run(["reproduce-example", "--l0", "0.1", "--grid-nt", "21",
                    "--grid-nx", "71", "--out", str(tmp_path)]) == 1
        payload = {name: json.loads((tmp_path / name).read_text(),
                                    parse_constant=_refuse_constant)
                   for name in ("manifest.json", "example.json")}
        instance = payload["example.json"]["instance"]
        assert instance["needs_smaller_cost"] is True
        assert instance["u_lo"] is None and instance["u_hi"] is None


def exit_code(argv):
    """cli.main's exit code, argparse's rejections included."""
    try:
        return run(argv)
    except SystemExit as err:
        return err.code


SMALL = ["--grid-nt", "21", "--grid-nx", "71"]
EXTREMES = ("nan", "inf", "1e308", "1e-320")
# the range edges of each [constants] key (kappa < beta = 0.5 here); check
# reads every key, and compare's growth and Hoelder bounds read C, gamma
# and kappa
CONSTANT_EDGES = {"L": ("0",), "mu": ("0", "1"), "h0": ("0",), "ell0": ("0",),
                  "alpha": ("0",), "beta": ("0", "1"), "delta0": ("0",),
                  "C": ("0",), "gamma": ("0", "1"), "kappa": ("0", "0.5")}
DOUBLING = ["doubling", EXAMPLE, *SMALL, "--analytic", PROFILE]
EXTREME_ARGV = [
    pytest.param([command, *configs, *SMALL, "--set", f"constants.{key}={value}"],
                 id=f"{command}-{key}={value}")
    for key, edges in CONSTANT_EDGES.items()
    for value in EXTREMES + edges
    for command, configs in (("check", [EXAMPLE]),
                             ("compare", [EXAMPLE, LIFTED]))
    if command == "check" or key in ("C", "gamma", "kappa")
] + [
    pytest.param([*argv, flag, value], id=f"{argv[0]}{flag}={value}")
    for argv, flag, edges in (
        (["viscosity", EXAMPLE, *SMALL, "--variant", "hjb-super",
          "--analytic", "abs(x1)"], "--tol", ("0", "-1")),
        (["compare", EXAMPLE, LIFTED, *SMALL], "--tol", ("0", "-1")),
        (DOUBLING, "--theta", ("0", "0.1")),
        (DOUBLING, "--levels", ("0", "-1")))
    for value in EXTREMES + edges
] + [pytest.param([*DOUBLING, "--analytic-hat", "1e300*x1"],
                  id="doubling--analytic-hat=1e300*x1")]


class TestOutOfMemory:
    @pytest.mark.parametrize("argv", [
        ["reproduce-example", "--grid-nx", "100000000000"],
        ["solve", EXAMPLE, "--grid-nx", "100000000000"],
    ], ids=["reproduce-example", "solve"])
    def test_an_over_large_grid_is_invalid_input(self, argv, tmp_path,
                                                 monkeypatch, capsys):
        # the grid's axes are its first allocation; numpy refuses one this
        # large with a MemoryError, raised here before any byte is taken
        linspace = np.linspace
        message = ("Unable to allocate 745. GiB for an array with shape "
                   "(100000000000,) and data type float64")

        def refuse(start, stop, num=50, **kwargs):
            if num > 10 ** 9:
                raise MemoryError(message)
            return linspace(start, stop, num, **kwargs)

        monkeypatch.setattr(np, "linspace", refuse)
        assert run([*argv, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: out of memory: {message}\n"
        assert not list(tmp_path.iterdir())


class TestExtremeValues:
    @pytest.mark.parametrize("argv", EXTREME_ARGV)
    def test_ends_in_an_exit_code_without_a_warning(self, argv, tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = exit_code([*argv, "--out", str(tmp_path)])
        assert code in (0, 1, 2)
        assert [str(w.message) for w in caught] == []


class TestFlags:
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("command", sorted(TOL_COMMANDS))
    def test_tol_must_be_finite_and_nonnegative(self, command, value,
                                                tmp_path):
        # a NaN tolerance makes every `pde > tol` test false, so a failing
        # check would pass; `solve` rejects --tol of any value
        with pytest.raises(SystemExit) as err:
            run([*TOL_COMMANDS[command], "--tol", value,
                 "--out", str(tmp_path)])
        assert err.value.code == 2
        assert not list(tmp_path.iterdir())

    def test_zero_probe_tolerance_is_invalid(self, tmp_path):
        assert run([*TOL_COMMANDS["viscosity"], "--tol", "0",
                    "--out", str(tmp_path)]) == 2

    def test_zero_probe_tolerance_is_rejected_before_solving(
            self, tmp_path, monkeypatch, capsys):
        def no_solve(*args, **kwargs):
            raise AssertionError("solve_qvi ran before --tol 0 was rejected")

        monkeypatch.setattr(cli, "solve_qvi", no_solve)
        assert run(["viscosity", EXAMPLE, *FAST, "--variant", "hjb-sub",
                    "--tol", "0", "--out", str(tmp_path)]) == 2
        assert ("need a finite tol_factor > 0, got 0.0"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv", [
        ["viscosity", TRANSPORT, "--variant", "hjb-sub", "--analytic", "x1",
         "--set", "grid.x_max=1e5", "--grid-nt", "9", "--grid-nx", "9"],
        ["viscosity", TRANSPORT, "--variant", "qvi-super-modified",
         "--set", "grid.x_max=1e5", "--grid-nt", "9", "--grid-nx", "9"],
        ["reproduce-example", "--grid-nx", "2"],
    ], ids=["viscosity-analytic", "viscosity-solve", "reproduce-example"])
    def test_overflowing_probe_tolerance_is_rejected_before_solving(
            self, argv, tmp_path, monkeypatch, capsys):
        # 1e308*(dt + sum dx) is inf on these wide grids, so no probe could
        # fail; the run must stop before any solve or N runs
        def refuse(*args, **kwargs):
            raise AssertionError("solved before --tol was rejected")

        for module, name in ((cli, "solve_qvi"), (exm, "verify_separation"),
                             (vc, "evaluate_slice_values")):
            monkeypatch.setattr(module, name, refuse)
        assert run([*argv, "--tol", "1e308", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --tol: probe tolerance")
        assert "overflows" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["check", EXAMPLE, "--tol", "123"],
        ["doubling", EXAMPLE, "--analytic", PROFILE, "--tol", "1"],
        ["solve", EXAMPLE, "--tol", "1"],
        ["reproduce-example", "--set", "problem.T=7"],
    ], ids=["check-tol", "doubling-tol", "solve-tol",
            "reproduce-example-set"])
    def test_flags_a_command_ignores_are_rejected(self, argv, tmp_path):
        with pytest.raises(SystemExit) as err:
            run([*argv, "--out", str(tmp_path)])
        assert err.value.code == 2
