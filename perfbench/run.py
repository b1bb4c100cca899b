"""qvilab benchmark: CLI set-up time, job time and peak memory per workload.

Run from the repository root:

    python3 perfbench/run.py --workload solve --seed 3 --seconds 12 --trace 0
    python3 perfbench/run.py          # every workload, untraced then traced

With --trace 0 it reports the end-to-end metrics (setup_s, job_s,
peak_rss_mb); with --trace 1 it reports the per-layer metrics of a traced
run.  The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  Each workload runs in its own child
process (worker.py); set-up is timed in separate fresh interpreters.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

import workloads as wl

END_TO_END = ("setup_s", "job_s", "peak_rss_mb")
SETUP_REPEATS = 3
WORKER_TIMEOUT_S = 110
SETUP_TIMEOUT_S = 20

# What a CLI user pays before any work: a fresh interpreter importing the
# CLI and parsing the configs the workload's commands load.
SETUP_CODE = """
import json, sys
from pathlib import Path
import qvilab.cli
from qvilab.core import load_problem
for path, overrides in json.loads(sys.argv[1]):
    load_problem(Path(path).read_text(), overrides)
"""


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(wl.ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def time_setup(workload, variation):
    payload = json.dumps(wl.setup_configs(workload, variation))
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, payload],
                              cwd=wl.ROOT, env=child_env(),
                              timeout=SETUP_TIMEOUT_S)
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"set-up exited with {proc.returncode}")
    return statistics.median(samples)


def run_worker(workload, variation, seconds, trace):
    cmd = [sys.executable, str(wl.HERE / "worker.py"),
           "--workload", workload, "--variation", str(variation),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=wl.ROOT, env=child_env(),
                          stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker for {workload} exited with "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def facts(workload, seed, variation, seconds, trace):
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "workload": workload, "seed": seed, "variation": variation,
        "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def run_workload(workload, seed, seconds, trace):
    """One workload, untraced or traced; returns the result record."""
    variation = seed % wl.N_VARIATIONS
    result = run_worker(workload, variation, seconds, trace)
    metrics = result["metrics"]
    if trace:
        wanted = [name for name in metrics if name not in END_TO_END]
        required = ("trace.jobs",)
    else:
        metrics["setup_s"] = [time_setup(workload, variation), "s"]
        wanted = required = END_TO_END
    missing = [name for name in required if name not in metrics]
    if missing:
        raise BenchError(f"{workload}: no result for {', '.join(missing)} "
                         f"(problems: {result['problems']})")
    mismatches = metrics.get("trace.count_mismatches", [0])[0]
    record = {
        "correct": result["failed"] == 0 and mismatches == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name][0],
                           "unit": metrics[name][1]} for name in wanted},
    }
    info = facts(workload, seed, variation, seconds, trace)
    info["jobs"] = metrics.get("jobs", metrics.get("trace.jobs"))[0]
    detail = dict(record, facts=info, problems=result["problems"])
    wl.OUT.mkdir(exist_ok=True)
    path = wl.OUT / f"result_{workload}_trace{trace}.json"
    path.write_text(json.dumps(detail, indent=2) + "\n")
    for problems in result["problems"]:
        print(f"{workload}: job failed: {'; '.join(problems)}",
              file=sys.stderr)
    return record, detail


def print_table(workload, record):
    for name, m in record["metrics"].items():
        print(f"{workload:<11} {name:<40} {m['value']:>16.6g} {m['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, default=None,
                        help="one workload (default: all, untraced and traced)")
    parser.add_argument("--seed", type=int, default=0,
                        help="picks the input variation (0: as documented)")
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [wl.ROOT / "src" / "qvilab" / "cli.py",
              wl.ROOT / "configs" / "example.cfg",
              wl.ROOT / "configs" / "transport.cfg"]
    absent = [str(p.relative_to(wl.ROOT)) for p in needed if not p.is_file()]
    if absent:
        print(f"not a qvilab checkout: missing {', '.join(absent)}",
              file=sys.stderr)
        return 2

    try:
        if args.workload is not None:
            record, detail = run_workload(args.workload, args.seed,
                                          args.seconds, args.trace)
            print_table(args.workload, record)
            print("facts: " + json.dumps(detail["facts"]))
            print(json.dumps(record))
            return 0
        combined = {"correct": True, "attempted": 0, "failed": 0,
                    "metrics": {}}
        for workload in wl.WORKLOADS:
            for trace in (0, 1):
                record, detail = run_workload(workload, args.seed,
                                              args.seconds, trace)
                print_table(workload, record)
                combined["correct"] &= record["correct"]
                combined["attempted"] += record["attempted"]
                combined["failed"] += record["failed"]
                for name, m in record["metrics"].items():
                    combined["metrics"][f"{workload}.{name}"] = m
        print("facts: " + json.dumps(detail["facts"]))
        print(json.dumps(combined))
        return 0
    except (BenchError, subprocess.SubprocessError) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
