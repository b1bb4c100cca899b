"""Span recorder for the traced run.

The wrappers live here, not in the package: `install` swaps each traced
function for a timing wrapper in every qvilab namespace that bound it
(module globals and dict values such as the CLI's variant table), and
`uninstall` puts the originals back.  Spans stay in memory as
[name, start, end, parent, job, counts] until the run ends.
"""

import os
import sys
import time

import numpy as np

perf_counter = time.perf_counter

# Per-span counters, taken from the call's arguments and result after the
# span's end time is read.
#   evaluate_slice_values: (nodes, 1 if N < slice at one or more nodes)
#   interp_slice:          (points, space dimension)
#   write_csv:             (rows, bytes, space dimension)
#   read_csv:              (rows,)
#   evaluate:              (points in the result,)
#   solve_qvi/solve_hjb:   (fixed-point sweeps, stepped slices)
#   viscosity check_*:     (points tested x probes per point, violations)
#   doubling_maximize:     (tuples searched over all levels,)


def _slice_counts(args, kwargs, result):
    slice_values = np.asarray(args[1])
    return slice_values.size, int(bool(np.any(result[0] < slice_values)))


def _interp_counts(args, kwargs, result):
    grid, points = args[0], np.asarray(args[2])
    return points.size // grid.n, grid.n


def _write_counts(args, kwargs, result):
    gf, path = args
    return gf.values.size, os.path.getsize(path), gf.grid.n


def _read_counts(args, kwargs, result):
    return (result.values.size,)


def _expr_counts(args, kwargs, result):
    return (int(np.size(result)),)


def _solve_counts(args, kwargs, result):
    return int(result.iterations.sum()), result.V.grid.t_nodes - 1


def _check_counts(args, kwargs, report):
    violations = (len(report.violations) + len(report.constraint_violations)
                  + len(report.terminal_violations))
    return report.points_tested * report.probes_per_point, violations


def _doubling_counts(args, kwargs, diag):
    return (diag.tuples_per_level * len(diag.levels),)


def _no_counts(args, kwargs, result):
    return ()


# (module, attribute, span name, counter)
TRACED = (
    ("qvilab.obstacle", "evaluate_slice_values",
     "obstacle.evaluate_slice_values", _slice_counts),
    ("qvilab.core", "interp_slice", "core.interp_slice", _interp_counts),
    ("qvilab.core", "write_csv", "core.write_csv", _write_counts),
    ("qvilab.core", "read_csv", "core.read_csv", _read_counts),
    ("qvilab.expr", "evaluate", "expr.evaluate", _expr_counts),
    ("qvilab.solver", "solve_qvi", "solver.solve", _solve_counts),
    ("qvilab.solver", "solve_hjb", "solver.solve", _solve_counts),
    ("qvilab.viscosity", "obstacle_gap", "viscosity.obstacle_gap",
     _no_counts),
    ("qvilab.comparison", "doubling_maximize",
     "comparison.doubling_maximize", _doubling_counts),
    ("qvilab.example", "verify_separation", "example.verify_separation",
     _no_counts),
    ("qvilab.example", "measure_obstacle_gap",
     "example.measure_obstacle_gap", _no_counts),
    ("qvilab.cli", "main", "cli.main", _no_counts),
) + tuple(
    ("qvilab.viscosity", name, "viscosity.check", _check_counts)
    for name in ("check_hjb_subsolution", "check_hjb_supersolution",
                 "check_qvi_subsolution", "check_qvi_subsolution_decomposed",
                 "check_qvi_supersolution_classical",
                 "check_qvi_supersolution_modified"))

# Grid properties rebuilt on every access; wrapped on the class.
TRACED_PROPERTIES = (("t", "core.Grid.t"), ("axes", "core.Grid.axes"))


class Tracer:
    """Records nested spans for the jobs run while it is installed."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = -1
        self._undo = []

    def _wrap(self, fn, name, counter):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, perf_counter(), 0.0,
                    stack[-1] if stack else -1, self.job, ()]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            span[5] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Swap every traced function in every qvilab namespace."""
        modules = [m for key, m in sys.modules.items()
                   if key == "qvilab" or key.startswith("qvilab.")]
        for module_name, attr, name, counter in TRACED:
            orig = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(orig, name, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._rebind(module.__dict__, key, wrapper, orig)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is orig:
                                self._rebind(value, k, wrapper, orig)
        grid_cls = sys.modules["qvilab.core"].Grid
        for attr, name in TRACED_PROPERTIES:
            prop = vars(grid_cls)[attr]
            wrapped = property(self._wrap(prop.fget, name, _no_counts))
            setattr(grid_cls, attr, wrapped)
            self._undo.append((grid_cls, attr, prop))

    def _rebind(self, table, key, wrapper, orig):
        table[key] = wrapper
        self._undo.append((table, key, orig))

    def uninstall(self):
        for target, key, orig in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = orig
            else:
                setattr(target, key, orig)
        self._undo.clear()

    def write(self, path):
        """Dump the spans as CSV: name,start,end,parent,job,counts..."""
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,job,counts\n")
            for name, start, end, parent, job, counts in self.spans:
                tail = ";".join(str(c) for c in counts)
                fh.write(f"{name},{start!r},{end!r},{parent},{job},{tail}\n")


# Metrics derived from one job's spans, with their units.
PER_JOB_UNITS = {
    "obstacle.evaluate_slice_values.calls": "count",
    "obstacle.evaluate_slice_values.nodes": "count",
    "obstacle.evaluate_slice_values.busy_s": "s",
    "obstacle.evaluate_slice_values.self_s": "s",
    "obstacle.probes": "count",
    "obstacle.binding_frac": "ratio",
    "core.write_csv.calls": "count",
    "core.write_csv.rows": "count",
    "core.write_csv.bytes": "bytes",
    "core.write_csv.busy_s": "s",
    "core.read_csv.calls": "count",
    "core.read_csv.rows": "count",
    "core.read_csv.busy_s": "s",
    "core.interp_slice.calls": "count",
    "core.interp_slice.points": "count",
    "core.interp_slice.points_2d": "count",
    "core.interp_slice.busy_s": "s",
    "core.Grid.t.calls": "count",
    "core.Grid.axes.calls": "count",
    "core.Grid.busy_s": "s",
    "expr.evaluate.calls": "count",
    "expr.evaluate.points": "count",
    "expr.evaluate.busy_s": "s",
    "solver.solve.calls": "count",
    "solver.solve.busy_s": "s",
    "solver.solve.self_s": "s",
    "solver.sweeps": "count",
    "solver.slices": "count",
    "viscosity.check.calls": "count",
    "viscosity.check.busy_s": "s",
    "viscosity.check.self_s": "s",
    "viscosity.obstacle_gap.busy_s": "s",
    "viscosity.probes": "count",
    "viscosity.violations": "count",
    "comparison.doubling_maximize.busy_s": "s",
    "comparison.doubling_maximize.tuples": "count",
    "example.verify_separation.busy_s": "s",
    "example.verify_separation.self_s": "s",
    "example.measure_obstacle_gap.busy_s": "s",
    "cli.self_s": "s",
    "mem.obstacle_batch_mb": "MiB",
    "mem.csv_env_mb": "MiB",
}

# Counts that must repeat exactly from one traced job to the next.
COUNT_METRICS = tuple(name for name, unit in PER_JOB_UNITS.items()
                      if unit in ("count", "bytes"))


def job_metrics(spans, job):
    """Per-layer metrics of one job from its spans (a list of span rows).

    busy_s sums the spans of a name that have no enclosing span of the
    same name; self_s subtracts the time covered by direct child spans.
    """
    out = {name: 0 for name in PER_JOB_UNITS}
    rows = [(i, s) for i, s in enumerate(spans) if s[4] == job]
    child_time = {}
    for _, s in rows:
        if s[3] >= 0:
            child_time[s[3]] = child_time.get(s[3], 0.0) + (s[2] - s[1])

    def inside(index, names):
        parent = spans[index][3]
        while parent >= 0:
            if spans[parent][0] in names:
                return True
            parent = spans[parent][3]
        return False

    binding = 0
    for i, (name, start, end, parent, _, counts) in rows:
        dur = end - start
        own = dur - child_time.get(i, 0.0)
        if name == "cli.main":
            out["cli.self_s"] += own
            continue
        if name in ("core.Grid.t", "core.Grid.axes"):
            out[name + ".calls"] += 1
            out["core.Grid.busy_s"] += dur
            continue
        if name + ".calls" in out:
            out[name + ".calls"] += 1
        nested = inside(i, (name,))
        if not nested:
            out[name + ".busy_s"] += dur
            if name + ".self_s" in out:
                out[name + ".self_s"] += own
        if name == "obstacle.evaluate_slice_values":
            out["obstacle.evaluate_slice_values.nodes"] += counts[0]
            binding += counts[1]
        elif name == "core.interp_slice":
            out["core.interp_slice.points"] += counts[0]
            if counts[1] == 2:
                out["core.interp_slice.points_2d"] += counts[0]
            if inside(i, ("obstacle.evaluate_slice_values",)):
                out["obstacle.probes"] += counts[0]
                batch = counts[0] * counts[1] * 8 / 2**20
                out["mem.obstacle_batch_mb"] = max(
                    out["mem.obstacle_batch_mb"], batch)
        elif name == "core.write_csv":
            out["core.write_csv.rows"] += counts[0]
            out["core.write_csv.bytes"] += counts[1]
            env = counts[0] * (counts[2] + 1) * 8 / 2**20
            out["mem.csv_env_mb"] = max(out["mem.csv_env_mb"], env)
        elif name == "core.read_csv":
            out["core.read_csv.rows"] += counts[0]
        elif name == "expr.evaluate":
            out["expr.evaluate.points"] += counts[0]
        elif name == "solver.solve":
            out["solver.sweeps"] += counts[0]
            out["solver.slices"] += counts[1]
        elif name == "viscosity.check" and not nested:
            out["viscosity.probes"] += counts[0]
            out["viscosity.violations"] += counts[1]
        elif name == "comparison.doubling_maximize":
            out["comparison.doubling_maximize.tuples"] += counts[0]
    calls = out["obstacle.evaluate_slice_values.calls"]
    out["obstacle.binding_frac"] = binding / calls if calls else 0.0
    return out
