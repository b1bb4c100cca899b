"""Workload definitions and the correctness gate.

A job is one closed-loop pass of a workload's CLI commands, called
in-process through `qvilab.cli.main(argv)`, with every artifact written to
a fresh directory.  The gate compares a job's exit codes, verdicts and
solution grid against `reference.json`, which `record.py` wrote from the
unmodified package.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
OUT = ROOT / ".perfbench_out"
SCRATCH = OUT / "tmp"

WORKLOADS = ("solve", "separation", "transport", "plane")

# The seed picks one variation.  Variation 0 runs the commands exactly as
# the workload states them; the others shift the terminal payoff h by a
# binary-exact constant (the solve does the same work on shifted values) or,
# for reproduce-example, move the probe tolerance factor.  Every variation
# has the verdicts recorded in reference.json.
H_SHIFTS = (None, "0.125", "0.25")
PROBE_TOLS = (None, "8", "12")
N_VARIATIONS = 3

TRANSPORT_GRID = ["--grid-nx", "701", "--grid-nt", "201"]

# Absolute tolerance on the solution grid (per node).  A correct, more exact
# obstacle operator moves the constrained solutions by far less: about
# 8.4e-10 on example.cfg, 2.6e-8 on plane.cfg, 4.4e-9 on the anchor slice
# (measured against a search with 8x finer scan and 16 refinement levels).
# transport never calls the obstacle, so only rounding may move it.
ATOL = {"solve": 1e-6, "separation": 1e-6, "transport": 1e-9, "plane": 1e-6}

# Scalars checked to ATOL, and verdicts that must match exactly.
SCALARS = {"separation": {"example.json": ("gap_measured",)}}
VERDICTS = {
    "solve": {"solve.json": ("passed",)},
    "separation": {"example.json": ("separated", "classical", "modified")},
    "transport": {"solve.json": ("passed",), "viscosity.json": ("passed",),
                  "doubling.json": ("certificate_ok",)},
    "plane": {"solve.json": ("passed",)},
}
# The CSV holding the grid the gate compares: coordinate columns, then values.
GRID_FILE = {"solve": "solution.csv", "separation": "anchor_slice.csv",
             "transport": "solution.csv", "plane": "solution.csv"}
# Grid points kept in the reference for the pointwise check.
SAMPLE_POINTS = 200


def _shift(h, variation):
    shift = H_SHIFTS[variation]
    return [] if shift is None else ["--set", f'problem.h="{h} + {shift}"']


def config_path(name):
    if name == "plane.cfg":
        return str(HERE / name)
    return str(ROOT / "configs" / name)


def commands(workload, variation, out):
    """The CLI argv lists of one job, writing into directory `out`."""
    out_args = ["--out", str(out)]
    if workload == "solve":
        return [["solve", config_path("example.cfg")]
                + _shift("x1*exp(-x1)", variation) + out_args]
    if workload == "separation":
        tol = PROBE_TOLS[variation]
        extra = [] if tol is None else ["--tol", tol]
        return [["reproduce-example"] + extra + out_args]
    if workload == "transport":
        cfg = config_path("transport.cfg")
        common = TRANSPORT_GRID + _shift("x1*exp(-x1)", variation) + out_args
        solution = ["--solution", str(Path(out) / "solution.csv")]
        return [["solve", cfg, "--no-obstacle"] + common,
                ["viscosity", cfg, "--variant", "hjb-super"] + solution + common,
                ["doubling", cfg] + solution + common]
    if workload == "plane":
        return [["solve", config_path("plane.cfg")]
                + _shift("sin(x1) + cos(x2)", variation) + out_args]
    raise ValueError(f"unknown workload {workload!r}")


def setup_configs(workload, variation):
    """(config path, overrides) pairs each command of the workload loads."""
    configs = []
    for argv in commands(workload, variation, "."):
        if argv[0] == "reproduce-example":
            continue
        overrides = []
        if "--grid-nt" in argv:
            overrides.append(f"grid.t_nodes={argv[argv.index('--grid-nt') + 1]}")
        if "--grid-nx" in argv:
            overrides.append(f"grid.x_nodes={argv[argv.index('--grid-nx') + 1]}")
        if "--set" in argv:
            overrides.append(argv[argv.index("--set") + 1])
        configs.append((argv[1], overrides))
    return configs


# ----------------------------------------------------------------- gate ----

def load_grid(workload, out):
    """The compared grid of a job's artifacts, read without qvilab.

    Rows are in row-major node order, so the shape is the count of
    distinct values in each coordinate column.
    """
    data = np.loadtxt(Path(out) / GRID_FILE[workload], delimiter=",",
                      skiprows=1, ndmin=2)
    shape = tuple(len(np.unique(column)) for column in data[:, :-1].T)
    return data[:, -1].reshape(shape)


def strides(shape):
    """Per-axis strides that keep about SAMPLE_POINTS grid points."""
    per_axis = SAMPLE_POINTS ** (1.0 / len(shape))
    return tuple(max(1, int(np.ceil(n / per_axis))) for n in shape)


def summarize_grid(values):
    """Strided sample, plus the sum of every slice along the first axis
    (a time slice of a solution; a single node of the anchor slice)."""
    sample = values[tuple(slice(None, None, s) for s in strides(values.shape))]
    sums = values.reshape(values.shape[0], -1).sum(axis=1)
    return {"shape": list(values.shape), "sample": _digits(sample.ravel()),
            "sums": _digits(sums)}


def _digits(array):
    """13 significant digits: far below every tolerance, a third shorter."""
    return [float(f"{v:.13g}") for v in array]


def artifact_hashes(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out).iterdir())
            if p.is_file() and p.name != "manifest.json"}


def artifact_bytes(out):
    return sum(p.stat().st_size for p in Path(out).iterdir()
               if p.is_file() and p.name != "manifest.json")


def _read_json(out, name):
    return json.loads((Path(out) / name).read_text())


def record_job(workload, out, codes):
    """Reference entry for one job, taken from its artifacts."""
    values = load_grid(workload, out)
    return {
        "codes": codes,
        "verdicts": {name: {k: _read_json(out, name)[k] for k in keys}
                     for name, keys in VERDICTS[workload].items()},
        "scalars": {name: {k: _read_json(out, name)[k] for k in keys}
                    for name, keys in SCALARS.get(workload, {}).items()},
        "grid": summarize_grid(values),
        "sha256": artifact_hashes(out),
    }


def check_job(workload, variation, out, codes, reference):
    """Problems found in one job's outputs; an empty list means correct."""
    want = reference["workloads"][workload][variation]
    problems = []
    if codes != want["codes"]:
        return [f"exit codes {codes}, expected {want['codes']}"]
    atol = ATOL[workload]
    try:
        for name, keys in want["verdicts"].items():
            got = _read_json(out, name)
            for key, value in keys.items():
                if got.get(key) != value:
                    problems.append(f"{name} {key} = {got.get(key)!r}, "
                                    f"expected {value!r}")
        for name, keys in want["scalars"].items():
            got = _read_json(out, name)
            for key, value in keys.items():
                if not abs(float(got[key]) - value) <= atol:
                    problems.append(f"{name} {key} = {got[key]!r}, "
                                    f"expected {value!r} +- {atol:g}")
        values = load_grid(workload, out)
    except (OSError, ValueError, KeyError) as err:
        return problems + [f"unreadable artifacts: {err}"]
    problems.extend(compare_grid(values, want["grid"], atol))
    return problems


def compare_grid(values, ref, atol):
    """Pointwise check on the sample; each slice sum adds many nodes, so its
    tolerance is atol times the number of nodes summed."""
    if list(values.shape) != ref["shape"]:
        return [f"solution grid shape {values.shape}, expected {ref['shape']}"]
    problems = []
    got = summarize_grid(values)
    for key, scale in (("sample", 1), ("sums", values.size // values.shape[0])):
        diff = np.abs(np.asarray(got[key]) - np.asarray(ref[key])).max()
        if not diff <= atol * scale:
            problems.append(f"solution {key} off by {diff:.3g} "
                            f"> {atol * scale:g}")
    return problems


def changed_artifacts(workload, variation, out, reference):
    """Artifacts (manifest.json excluded) whose bytes differ from the
    reference run.  Reported as a count, never failed on."""
    want = reference["workloads"][workload][variation]["sha256"]
    got = artifact_hashes(out)
    return sum(got.get(name) != digest for name, digest in want.items()) + \
        len(set(got) - set(want))


def load_reference():
    return json.loads(REFERENCE.read_text())
