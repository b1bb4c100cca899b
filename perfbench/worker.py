"""Run one workload's jobs in this interpreter and print a JSON result.

run.py starts this script in a fresh process per workload, so that the
peak RSS it reports belongs to that workload alone and no warm state
carries over.  Usage:

    python3 perfbench/worker.py --workload solve --variation 0 \
        --seconds 12 --trace 0

The last stdout line is {"attempted", "failed", "problems", "metrics"};
each metric is [value, unit].
"""

import argparse
import contextlib
import io
import itertools
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import spans
import workloads as wl

MIN_JOBS = 3          # timed jobs per untraced run, whatever --seconds says
MIN_TRACED_JOBS = 2   # traced jobs per traced run, so counts can be compared


def run_job(cli, workload, variation, reference, tracer=None):
    """One job in a fresh directory.

    Returns (seconds, problems, changed artifacts, artifact bytes).
    """
    out = Path(tempfile.mkdtemp(dir=wl.SCRATCH))
    try:
        argvs = wl.commands(workload, variation, out)
        sink = io.StringIO()
        codes = []
        if tracer is not None:
            tracer.install()
        try:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                start = time.perf_counter()
                for argv in argvs:
                    try:
                        codes.append(cli.main(argv))
                    except SystemExit as err:
                        codes.append(err.code)
                elapsed = time.perf_counter() - start
        except Exception as err:  # a job that raises counts as failed
            return 0.0, [f"raised {type(err).__name__}: {err}"], 0, 0
        finally:
            if tracer is not None:
                tracer.uninstall()
        problems = wl.check_job(workload, variation, out, codes, reference)
        changed = wl.changed_artifacts(workload, variation, out, reference)
        return elapsed, problems, changed, wl.artifact_bytes(out)
    finally:
        shutil.rmtree(out, ignore_errors=True)


class Tally:
    """Jobs attempted and the problems of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.problems = []

    def add(self, problems):
        self.attempted += 1
        if problems:
            self.problems.append(problems)
        return problems


def untraced(cli, args, reference, tally):
    times = []
    deadline = time.perf_counter() + args.seconds
    for n in itertools.count():
        if n >= MIN_JOBS and time.perf_counter() >= deadline:
            break
        seconds, problems, _, _ = run_job(cli, args.workload, args.variation,
                                          reference)
        if not tally.add(problems):
            times.append(seconds)
    if not times:
        return {}
    return {"job_s": [statistics.median(times), "s"],
            "jobs": [len(times), "count"]}


def traced(cli, args, reference, tally):
    """Alternate untraced and traced jobs; per-layer metrics per job."""
    tracer = spans.Tracer()
    plain, timed, per_job, changed, sizes = [], [], [], [], []
    deadline = time.perf_counter() + args.seconds
    for n in itertools.count():
        if n >= MIN_TRACED_JOBS and time.perf_counter() >= deadline:
            break
        seconds, problems, _, _ = run_job(cli, args.workload, args.variation,
                                          reference)
        if not tally.add(problems):
            plain.append(seconds)
        tracer.job += 1
        seconds, problems, n_changed, size = run_job(
            cli, args.workload, args.variation, reference, tracer)
        if tally.add(problems):
            continue
        timed.append(seconds)
        per_job.append(spans.job_metrics(tracer.spans, tracer.job))
        changed.append(n_changed)
        sizes.append(size)
    tracer.write(wl.OUT / f"spans_{args.workload}.csv")
    if not (plain and timed):
        return {}
    mismatched = [name for name in spans.COUNT_METRICS
                  if len({job[name] for job in per_job}) != 1]
    if mismatched:
        print(f"traced counts differ between jobs: {', '.join(mismatched)}",
              file=sys.stderr)
    metrics = {"trace.count_mismatches": [len(mismatched), "count"]}
    for name, unit in spans.PER_JOB_UNITS.items():
        metrics[name] = [statistics.median(job[name] for job in per_job),
                         unit]
    metrics["cli.artifact_bytes"] = [statistics.median(sizes), "bytes"]
    metrics["gate.artifacts_changed"] = [max(changed), "count"]
    metrics["trace.job_s"] = [statistics.median(timed), "s"]
    metrics["trace.overhead_frac"] = [
        statistics.median(timed) / statistics.median(plain) - 1.0, "ratio"]
    metrics["trace.jobs"] = [len(timed), "count"]
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--variation", type=int, required=True,
                        choices=range(wl.N_VARIATIONS))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(wl.ROOT / "src"))
    from qvilab import cli

    reference = wl.load_reference()
    wl.SCRATCH.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    # untimed warm-up job, checked like the others
    _, problems, _, _ = run_job(cli, args.workload, args.variation, reference)
    tally.add(problems)
    measure = traced if args.trace else untraced
    metrics = measure(cli, args, reference, tally)
    if not args.trace:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = [rss, "MiB"]
    metrics["error_rate"] = [
        len(tally.problems) / tally.attempted, "ratio"]
    print(json.dumps({"attempted": tally.attempted,
                      "failed": len(tally.problems),
                      "problems": tally.problems,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
