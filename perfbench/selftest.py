"""Self-test of the benchmark harness.  Run from the repository root:

    python3 perfbench/selftest.py

1. Each workload runs once untraced and twice traced with --seconds 1.
   Every metric BENCHMARK.json names must be present with its unit, every
   job must pass the gate, and the count metrics must repeat exactly
   between the two traced runs.
2. The traced runs must show the layer split the workloads were chosen for.
3. A job checked against a deliberately wrong reference must fail the gate.
"""

import copy
import json
import subprocess
import sys

import spans
import worker
import workloads as wl


def run(workload, trace):
    cmd = [sys.executable, str(wl.HERE / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=wl.ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, result
    return {name: (m["value"], m["unit"])
            for name, m in result["metrics"].items()}


def check_metrics(bench):
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    traced = {}
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            got = run(workload, trace)
            assert {k: u for k, (_, u) in got.items()} == expected[trace], \
                (workload, trace, sorted(set(got) ^ set(expected[trace])))
        again = run(workload, 1)
        traced[workload] = got
        for name in spans.COUNT_METRICS:
            assert got[name][0] == again[name][0], (workload, name)
        print(f"{workload}: metrics and units present, counts repeat")
    return traced


def check_layer_split(traced):
    solve, transport = traced["solve"], traced["transport"]
    separation, plane = traced["separation"], traced["plane"]
    share = (solve["obstacle.evaluate_slice_values.busy_s"][0]
             / solve["trace.job_s"][0])
    assert share >= 0.5, f"solve: obstacle share {share:.2f}"
    assert transport["obstacle.evaluate_slice_values.calls"][0] == 0
    share = transport["core.write_csv.busy_s"][0] / transport["trace.job_s"][0]
    assert share >= 0.5, f"transport: write_csv share {share:.2f}"
    grid_calls = (separation["core.Grid.t.calls"][0]
                  + separation["core.Grid.axes.calls"][0])
    assert grid_calls >= 70000, f"separation: {grid_calls} Grid rebuilds"
    assert plane["core.interp_slice.points_2d"][0] > 0
    print("layer split as documented")


def check_gate_catches_wrong_reference():
    sys.path.insert(0, str(wl.ROOT / "src"))
    from qvilab import cli

    wrong = copy.deepcopy(wl.load_reference())
    entry = wrong["workloads"]["solve"][0]
    entry["grid"]["sample"][100] += 1e-3
    entry["verdicts"]["solve.json"]["passed"] = False
    wl.SCRATCH.mkdir(parents=True, exist_ok=True)
    _, problems, _, _ = worker.run_job(cli, "solve", 0, wrong)
    assert any("sample off by" in p for p in problems), problems
    assert any("passed" in p for p in problems), problems
    tally = worker.Tally()
    tally.add(problems)
    assert len(tally.problems) == 1 and tally.attempted == 1
    print("gate fails a job checked against a wrong reference")


def main():
    bench = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    traced = check_metrics(bench)
    check_layer_split(traced)
    check_gate_catches_wrong_reference()
    print("selftest passed")


if __name__ == "__main__":
    main()
