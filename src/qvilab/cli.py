"""Command line front end.

Each subcommand loads a problem configuration (or, for
``reproduce-example``, builds the canonical separating instance), runs
one library operation, writes CSV tables and JSON reports plus a run
manifest into ``--out``, and exits with a three-way status:

* 0  the checked property holds (for ``solve``: the solve returned),
* 1  the input was valid but the check or solve failed,
* 2  the input itself was rejected.

Outputs are byte-deterministic for fixed inputs; the manifest is the
one exception since it records wall time.  CSV goes through core's two
writers, and JSON is strict (RFC 8259): a non-finite float is null.
Printed numbers use 17 significant digits so they round-trip exactly.
"""

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import time
from pathlib import Path

from . import comparison as cmp
from . import example as exm
from . import expr as ex
from . import viscosity as vc
from .assumptions import audit_H1, audit_H2, default_sampler
from .core import (ConfigError, GridFunction, load_problem, read_csv,
                   read_floats, read_int, role_variables, sample, write_csv,
                   write_table)
from .solver import SolverError, extract_regions, solve_hjb, solve_qvi


def f17(value):
    """Format one number with 17 significant digits."""
    return f"{float(value):.17g}"


def _finite(value):
    """`value` with every non-finite float in it replaced by None."""
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    finite = not isinstance(value, float) or math.isfinite(value)
    return value if finite else None


def json_text(payload):
    """Strict JSON text of a report, with every non-finite float as null."""
    return json.dumps(_finite(payload), indent=2, allow_nan=False) + "\n"


# -------------------------------------------------------------- session ----

class _Session:
    """Collects artifacts for one command run and writes the manifest, the
    provenance record kept next to every command's artifacts."""

    def __init__(self, command, out_dir, config_hash, overrides):
        self.command = command
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.config_hash = config_hash
        self.overrides = tuple(overrides)
        self.artifacts = []
        self.start = time.perf_counter()

    def path(self, name):
        self.artifacts.append(name)
        return self.out / name

    def write_json(self, name, payload):
        self.path(name).write_text(json_text(payload))

    def finish(self, passed, label=None):
        """Write the manifest, print `label: PASS|FAIL`, return the status."""
        summary = f"{label or self.command}: {'PASS' if passed else 'FAIL'}"
        manifest = {
            "command": self.command,
            "config_hash": self.config_hash,
            "overrides": list(self.overrides),
            "artifacts": list(self.artifacts),
            "wall_time_s": time.perf_counter() - self.start,
            "passed": bool(passed),
            "summary": summary,
        }
        (self.out / "manifest.json").write_text(json_text(manifest))
        print(summary)
        return 0 if passed else 1


# ----------------------------------------------------------- config glue ----

def _collect_overrides(args):
    overrides = []
    if getattr(args, "grid_nt", None) is not None:
        overrides.append(f"grid.t_nodes={args.grid_nt}")
    if getattr(args, "grid_nx", None) is not None:
        overrides.append(f"grid.x_nodes={args.grid_nx}")
    overrides.extend(getattr(args, "set", []) or [])
    return overrides


def _load_config(path, overrides):
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config {path!r}: {err}") from err
    return load_problem(text, overrides)


def _sample_expression(cfg, source, flag):
    # a grid function in closed form reads what g reads: t and x
    names = role_variables(cfg.problem.n)["g"]
    try:
        node = ex.parse(source, names)
    except ex.ExprError as err:
        raise ConfigError(f"bad {flag} expression: {err}") from err
    return sample(node, cfg.grid)


def _tol_factor(args, grid):
    """--tol's probe tolerance factor, checked before any solve or N runs."""
    tol_factor = vc.TOL_FACTOR if args.tol is None else args.tol
    try:
        vc.validate_tol_factor(tol_factor, grid)
    except ConfigError as err:
        raise ConfigError(f"--tol: {err}") from None
    return tol_factor


def _solution_on_grid(cfg, args, suffix=""):
    """(grid function, obstacle gap, source) from --solution CSV, --analytic
    expr, or a fresh solve; the gap is the solve's, None otherwise."""
    solution = getattr(args, "solution" + suffix, None)
    analytic = getattr(args, "analytic" + suffix, None)
    flag = "--solution" + suffix.replace("_", "-")
    if solution and analytic:
        raise ConfigError(f"pass either {flag} or --analytic{suffix}, not both")
    if solution:
        return read_csv(cfg.grid, solution), None, f"solution file {solution}"
    if analytic:
        return (_sample_expression(cfg, analytic,
                                   "--analytic" + suffix.replace("_", "-")),
                None, "analytic expression")
    if suffix:
        return None, None, ""
    result = solve_qvi(cfg.problem, cfg.grid)
    return result.V, result.obstacle_gap, "fresh solve"


# ------------------------------------------------------------- commands ----

def cmd_check(args):
    overrides = _collect_overrides(args)
    cfg = _load_config(args.config, overrides)
    run = _Session("check", args.out, cfg.config_hash, overrides)
    spec = default_sampler(cfg.grid)
    hamiltonian = audit_H1(cfg.problem, cfg.constants, spec)
    structure = audit_H2(cfg.problem, cfg.constants, spec)
    passed = hamiltonian.passed and structure.passed
    run.write_json("check.json", {
        "passed": passed,
        "hamiltonian": hamiltonian.to_dict(),
        "structure": structure.to_dict(),
    })
    for report in (hamiltonian, structure):
        for check in report.checks:
            status = "pass" if check.passed else "FAIL"
            print(f"{status}  {check.name}: worst margin "
                  f"{f17(check.worst_margin)} over {check.points_tested} points")
    return run.finish(passed)


def cmd_solve(args):
    overrides = _collect_overrides(args)
    cfg = _load_config(args.config, overrides)
    run = _Session("solve", args.out, cfg.config_hash, overrides)
    if args.no_obstacle:
        result = solve_hjb(cfg.problem, cfg.grid)
    else:
        result = solve_qvi(cfg.problem, cfg.grid)

    write_csv(result.V, run.path("solution.csv"))
    payload = {
        "passed": True,  # a solve that returns has settled; failures raise
        "value_summary": result.V.summary(),
        "flags": list(result.flags),
        "max_fixed_point_sweeps": int(result.iterations.max()),
        "dissipation": list(result.dissipation),
    }
    if result.obstacle_gap is not None:
        write_csv(result.obstacle_gap, run.path("obstacle_gap.csv"))
        regions = extract_regions(result)
        payload["intervention_fraction"] = regions.fraction
        payload["intervention_nodes"] = regions.n_intervention
        print(f"intervention fraction {f17(regions.fraction)}")
    run.write_json("solve.json", payload)
    return run.finish(True)


_VARIANTS = {
    "hjb-sub": vc.check_hjb_subsolution,
    "hjb-super": vc.check_hjb_supersolution,
    "qvi-sub": vc.check_qvi_subsolution,
    "qvi-super-classical": vc.check_qvi_supersolution_classical,
    "qvi-super-modified": vc.check_qvi_supersolution_modified,
}


def cmd_viscosity(args):
    overrides = _collect_overrides(args)
    cfg = _load_config(args.config, overrides)
    run = _Session("viscosity", args.out, cfg.config_hash, overrides)
    tol_factor = _tol_factor(args, cfg.grid)
    V, gap, source = _solution_on_grid(cfg, args)
    checker = _VARIANTS[args.variant]
    reuse = {}
    if gap is not None and args.variant.startswith("qvi"):
        reuse["gap"] = gap  # the fresh solve's N[V] - V, so N runs once
    report = checker(V, cfg.problem, tol_factor, **reuse)
    run.write_json("viscosity.json", report.to_dict())
    write_table(run.path("violations.csv"), *report.table())
    counts = ", ".join(f"{len(rows)} {kind}" for kind, rows in report.kinds())
    print(f"checked {source} as {report.variant}: {counts} violations")
    for kind, rows in report.kinds():
        for t, x, margin in zip(rows.t[:5], rows.x[:5], rows.margin[:5]):
            print(f"  {kind} violation at t={f17(t)}, "
                  f"x=({', '.join(f17(c) for c in x)}), margin {f17(margin)}")
    return run.finish(report.passed, f"viscosity {args.variant}")


def cmd_compare(args):
    overrides = _collect_overrides(args)
    cfg = _load_config(args.config, overrides)
    cfg_hat = _load_config(args.config_hat, overrides)
    if cfg_hat.grid != cfg.grid:
        raise ConfigError("compared configs must declare identical grids")
    run = _Session("compare", args.out,
                   cfg.config_hash + ":" + cfg_hat.config_hash, overrides)
    report = cmp.compare_solutions(cfg.problem, cfg_hat.problem, cfg.grid,
                                   constants=cfg.constants)
    if args.tol is not None:
        report = dataclasses.replace(report, tolerance=args.tol)
    run.write_json("compare.json", report.to_dict())
    difference = report.V.values - report.V_hat.values
    write_csv(GridFunction(cfg.grid, difference), run.path("difference.csv"))
    print(f"max interior difference {f17(report.max_difference)} "
          f"(tolerance {f17(report.tolerance)})")
    if not report.ordered:
        print("data order audit failed; difference measured anyway")
    return run.finish(report.passed)


def cmd_doubling(args):
    overrides = _collect_overrides(args)
    cfg = _load_config(args.config, overrides)
    run = _Session("doubling", args.out, cfg.config_hash, overrides)
    V, _, source = _solution_on_grid(cfg, args)
    V_hat, _, hat_source = _solution_on_grid(cfg, args, suffix="_hat")
    if V_hat is None:
        V_hat, hat_source = V, "the same function"
    levels = None
    if args.levels is not None:
        levels = read_floats(args.levels, "--levels")
    diag = cmp.doubling_maximize(V, V_hat, theta=args.theta, levels=levels)
    run.write_json("doubling.json", diag.to_dict())
    write_table(run.path("trend.csv"), *diag.table())
    print(f"doubling on {source} vs {hat_source}: {len(diag.levels)} levels, "
          f"{diag.space_points} space points per slice")
    for lev in diag.levels:
        print(f"  eps={f17(lev.epsilon)} t_gap={f17(lev.t_gap)} "
              f"x_gap={f17(lev.x_gap)} residual={f17(lev.residual_symmetry)}")
    return run.finish(diag.passed)


def cmd_example(args):
    instance = exm.build_instance(t0=args.t0, l0=args.l0)
    nt = 201 if args.grid_nt is None else read_int(args.grid_nt, "--grid-nt")
    nx = 701 if args.grid_nx is None else read_int(args.grid_nx, "--grid-nx")
    grid, k0 = exm.anchor_grid(instance, nt, nx)
    key = f"reproduce-example l0={instance.l0!r} t0={instance.t0!r} nt={nt} nx={nx}"
    run = _Session("reproduce-example", args.out,
                   hashlib.sha256(key.encode()).hexdigest(), ())
    report = exm.verify_separation(instance, grid, _tol_factor(args, grid))
    write_table(run.path("anchor_slice.csv"), ("x1", "obstacle_minus_value"),
                [(grid.axes[0], report.gap[k0])])
    payload = report.to_dict()
    run.write_json("example.json", payload)

    print(f"l0 {f17(instance.l0)}: xi1 {f17(instance.xi1)}, "
          f"xi2 {f17(instance.xi2)}, gap {f17(instance.gap)}, "
          f"delta {f17(instance.delta)}")
    print(f"classical {payload['classical']}, modified {payload['modified']}")
    if report.notes:
        print(f"note: {report.notes}")
    return run.finish(report.separated)


# --------------------------------------------------------------- parser ----

def _tolerance(text):
    """--tol: a finite number >= 0; anything else is an argparse error."""
    value = float(text)  # argparse reports a ValueError as a bad value
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(
            f"need a finite number >= 0, got {text!r}")
    return value


_TOL_DIFFERENCE = ("absolute tolerance on the max interior difference, >= 0 "
                   "(default 10*(dt + sum dx))")
_TOL_FACTOR = ("probe tolerance as a factor on dt + sum dx, > 0 "
               "(default 10; 0 exits 2)")


def _add_common(sub, config=True, tol=None):
    """Flags shared by the subcommands; `tol` is the help of --tol, if any."""
    if config:
        sub.add_argument("config", help="problem configuration file")
        sub.add_argument("--set", action="append", default=[],
                         metavar="SECTION.KEY=VALUE",
                         help="override one config value after parsing")
    sub.add_argument("--grid-nt", default=None, metavar="N",
                     help="override grid.t_nodes")
    sub.add_argument("--grid-nx", default=None, metavar="N[,M]",
                     help="override grid.x_nodes")
    if tol:
        sub.add_argument("--tol", type=_tolerance, default=None, help=tol)
    sub.add_argument("--out", default=".", metavar="DIR",
                     help="directory for artifacts (default: current)")


def _add_solution_source(sub):
    sub.add_argument("--solution", default=None, metavar="FILE",
                     help="grid function CSV to check")
    sub.add_argument("--analytic", default=None, metavar="EXPR",
                     help="closed-form expression in t, x1[, x2] to check")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qvilab",
        description="grid laboratory for impulse-control value functions")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="audit structural hypotheses")
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", help="solve the constrained equation")
    _add_common(p)
    p.add_argument("--no-obstacle", action="store_true",
                   help="solve the unconstrained equation instead")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("viscosity", help="probe one solution notion")
    _add_common(p, tol=_TOL_FACTOR)
    _add_solution_source(p)
    p.add_argument("--variant", required=True, choices=sorted(_VARIANTS),
                   help="which notion to check")
    p.set_defaults(func=cmd_viscosity)

    p = sub.add_parser("compare", help="measure order between two problems")
    _add_common(p, tol=_TOL_DIFFERENCE)
    p.add_argument("config_hat",
                   help="configuration whose data dominates the first "
                        "(overrides apply to both configs)")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("doubling", help="run the pair-maximization sweep")
    _add_common(p)
    _add_solution_source(p)
    p.add_argument("--solution-hat", default=None, metavar="FILE",
                   help="second grid function (default: reuse the first)")
    p.add_argument("--analytic-hat", default=None, metavar="EXPR",
                   help="second closed form (default: reuse the first)")
    p.add_argument("--theta", type=float, default=cmp.THETA,
                   help="confinement weight for the pair functional, with "
                        f"0 < theta < 1/{cmp.G:g} (default {cmp.THETA:g})")
    p.add_argument("--levels", default=None, metavar="E1,E2,...",
                   help="comma-separated penalty levels (eps = delta)")
    p.set_defaults(func=cmd_doubling)

    p = sub.add_parser("reproduce-example",
                       help="rebuild the separating instance and verify it")
    _add_common(p, config=False, tol=_TOL_FACTOR)
    p.add_argument("--l0", type=float, default=0.05,
                   help="base impulse cost (default 0.05)")
    p.add_argument("--t0", type=float, default=0.5,
                   help="anchor time, a time node of the grid (default 0.5)")
    p.set_defaults(func=cmd_example)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ex.ExprError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except SolverError as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
