"""Write reference.json: the outputs the correctness gate compares against.

Run from the repository root on a commit whose outputs are trusted:

    python3 perfbench/record.py

Each workload variation runs once, in-process.  The script refuses to
record a variation whose exit codes or verdicts are not the known ones:
every command exits 0 and reproduce-example shows the separation
(classical PASS, modified FAIL).  A change that claims a speed-up must
not re-record; the gate exists to catch its output drifting.
"""

import contextlib
import io
import json
import platform
import shutil
import sys
import tempfile
from importlib import metadata

import workloads as wl

KNOWN_VERDICTS = {
    "solve.json": {"passed": True},
    "viscosity.json": {"passed": True},
    "doubling.json": {"certificate_ok": True},
    "example.json": {"separated": True, "classical": "PASS",
                     "modified": "FAIL"},
}


def record(cli, workload, variation):
    wl.SCRATCH.mkdir(parents=True, exist_ok=True)
    out = tempfile.mkdtemp(dir=wl.SCRATCH)
    try:
        argvs = wl.commands(workload, variation, out)
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(argv) for argv in argvs]
        entry = wl.record_job(workload, out, codes)
    finally:
        shutil.rmtree(out)
    if codes != [0] * len(argvs):
        raise SystemExit(f"{workload}[{variation}]: exit codes {codes}")
    for name, verdicts in entry["verdicts"].items():
        if verdicts != KNOWN_VERDICTS[name]:
            raise SystemExit(f"{workload}[{variation}]: {name} {verdicts}")
    return entry


def dump(obj, depth=0):
    """JSON with one line per leaf, so a re-recorded value shows in a diff."""
    pad = " " * (depth + 1)
    if isinstance(obj, dict) and obj:
        items = [f"{pad}{json.dumps(k)}: {dump(v, depth + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + " " * depth + "}"
    if isinstance(obj, list) and obj and isinstance(obj[0], dict):
        items = [pad + dump(v, depth + 1) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + " " * depth + "]"
    return json.dumps(obj)


def main():
    sys.path.insert(0, str(wl.ROOT / "src"))
    from qvilab import cli

    reference = {
        "recorded_with": {"python": platform.python_version(),
                          "numpy": metadata.version("numpy"),
                          "scipy": metadata.version("scipy")},
        "workloads": {
            workload: [record(cli, workload, v)
                       for v in range(wl.N_VARIATIONS)]
            for workload in wl.WORKLOADS
        },
    }
    wl.REFERENCE.write_text(dump(reference) + "\n")
    print(f"wrote {wl.REFERENCE}")


if __name__ == "__main__":
    main()
