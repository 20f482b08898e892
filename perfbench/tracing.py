"""Per-layer tracing of the morphbeam pipeline from outside the package.

While a traced pass runs, the module-level names through which one layer
calls the next (for example ``morphbeam.bcd.solve_per_antenna_sdp``) are
replaced by timing wrappers, and the originals are put back when the pass
ends. Each wrapper records a span (name, start, end, parent span, pass id)
in memory and, where the callee returns a report, pulls counts out of it.
Nothing inside ``src/morphbeam`` is edited.

A wrap point that no longer exists (a later change renamed the function)
is skipped and reported as absent; the metrics derived from it are left
out of the result instead of crashing the run.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# Per-layer metrics: (name, unit, better, end-to-end metrics it should move
# and on which workloads). The per_layer list of BENCHMARK.json mirrors the
# first three fields; the fourth is the mapping later issues cite.
LAYER_METRICS = [
    ("covariance.sdp_calls", "count", "lower",
     "run_s on desk-mimo (~45%); nothing on pattern-io"),
    ("covariance.sdp_s", "s", "lower", "run_s on desk-mimo"),
    ("covariance.sdp_p50_ms", "ms", "lower", "run_s on desk-mimo"),
    ("covariance.newton_steps", "count", "lower", "run_s on desk-mimo"),
    ("covariance.newton_per_solve", "count", "lower",
     "run_s on desk-mimo; lowered by warm-starting y"),
    ("covariance.sdp_max_gap", "ratio", "lower", "correctness of every workload that solves an SDP"),
    ("covariance.sdp_unconverged", "count", "lower", "failed instances on desk-mimo"),
    ("shape_opt.ascent_calls", "count", "lower", "run_s on desk-mimo (~55%); nothing on pattern-io"),
    ("shape_opt.ascent_s", "s", "lower", "run_s on desk-mimo"),
    ("shape_opt.self_s", "s", "lower", "run_s on desk-mimo"),
    ("shape_opt.accepted_steps", "count", "lower",
     "run_s on desk-mimo; a new step rule may also move objective_dbm and min_target_dbm"),
    ("shape_opt.evals_per_gradient", "ratio", "lower", "run_s on desk-mimo"),
    ("shape_opt.accept_ratio", "ratio", "higher", "run_s on desk-mimo"),
    ("shape_opt.max_iters_stops", "count", "lower", "run_s and objective_dbm on desk-mimo"),
    ("shape_opt.step_floor_stops", "count", "lower", "run_s and objective_dbm on desk-mimo"),
    ("objective.gradient_calls", "count", "lower", "run_s on desk-mimo"),
    ("objective.gradient_s", "s", "lower", "run_s on desk-mimo"),
    ("objective.power_evals", "count", "lower", "run_s on desk-mimo"),
    ("objective.power_eval_s", "s", "lower", "run_s on desk-mimo"),
    ("objective.cumulated_power_calls", "count", "lower", "run_s on desk-mimo"),
    ("array_model.steering_calls", "count", "lower", "run_s on desk-mimo"),
    ("array_model.steering_s", "s", "lower", "run_s on desk-mimo"),
    ("array_model.response_calls", "count", "lower", "run_s on desk-mimo"),
    ("array_model.response_s", "s", "lower", "run_s on desk-mimo"),
    ("bcd.outer_iters", "count", "lower", "run_s on desk-mimo"),
    ("bcd.self_s", "s", "lower", "run_s on desk-mimo"),
    ("beampattern.grid_calls", "count", "lower", "run_s on pattern-io"),
    ("beampattern.grid_s", "s", "lower", "run_s on pattern-io; under 1% of run_s elsewhere"),
    ("beampattern.directions", "count", "higher", "run_s on pattern-io"),
    ("beampattern.directions_per_s", "1/s", "higher", "run_s on pattern-io"),
    ("beampattern.flops_computed", "count", "lower", "run_s on pattern-io (computed from sizes, not measured)"),
    ("beampattern.target_powers_s", "s", "lower", "run_s on pattern-io"),
    ("results.write_s", "s", "lower", "run_s on pattern-io"),
    ("results.read_s", "s", "lower", "run_s on pattern-io"),
    ("results.bytes_written", "bytes", "lower", "run_s on pattern-io"),
    ("results.rows", "count", "lower", "run_s on pattern-io"),
    ("experiments.self_s", "s", "lower", "setup_s and run_s on every workload"),
    ("config.load_s", "s", "lower", "setup_s and run_s on every workload"),
    ("tracing.overhead", "ratio", "lower", "none: traced run_s over untraced run_s of the same run"),
]

# Counts a traced run at the default seed must reproduce exactly.
CHECKED_COUNTS = (
    "covariance.sdp_calls",
    "covariance.newton_steps",
    "objective.gradient_calls",
    "objective.power_evals",
    "shape_opt.accepted_steps",
)


def _sdp_hook(tr, args, result):
    _, report = result
    tr.counts["covariance.newton_steps"] += report.iterations
    tr.counts["covariance.sdp_unconverged"] += int(not report.converged)
    tr.gaps.append(report.relative_gap)


def _ascent_hook(tr, args, result):
    _, trace = result
    tr.counts["shape_opt.accepted_steps"] += trace.n_iters
    tr.counts["shape_opt.max_iters_stops"] += int(trace.status == "max_iters")
    tr.counts["shape_opt.step_floor_stops"] += int(trace.status == "step_floor")


def _grid_hook(tr, args, result):
    n = args[1].n_elements
    m = result.power_dbm.size
    tr.counts["beampattern.directions"] += m
    # complex N x N by N x M product plus the column-wise a^H (R a) reduction
    tr.counts["beampattern.flops_computed"] += 8 * n * n * m + 8 * n * m


def _write_hook(tr, args, result):
    tr.counts["results.bytes_written"] += os.path.getsize(args[0])


def _read_hook(tr, args, result):
    rows = getattr(result, "power_dbm", result)
    tr.counts["results.rows"] += rows.size


# (module, attribute, span name, counter bumped per call, result hook)
WRAP_POINTS = [
    ("morphbeam.config", "load_config", "config.load", None, None),
    ("morphbeam.experiments", "run_optimize", "experiments", None, None),
    ("morphbeam.experiments", "run_beampattern", "experiments", None, None),
    ("morphbeam.experiments", "solve_benchmark", "bcd", None, None),
    ("morphbeam.bcd", "solve_per_antenna_sdp", "covariance.sdp", None, _sdp_hook),
    ("morphbeam.bcd", "ascend_shape", "shape_opt.ascent", None, _ascent_hook),
    ("morphbeam.bcd", "cumulated_power", "objective.cumulated_power", None, None),
    ("morphbeam.bcd", "response_matrix", "array_model.response", None, None),
    ("morphbeam.shape_opt", "shape_gradient", "objective.gradient", None, None),
    ("morphbeam.shape_opt", "steering_matrix", "objective.power_eval",
     "objective.power_evals", None),
    ("morphbeam.objective", "steering_matrix", "array_model.steering",
     "objective.gradient_calls", None),
    ("morphbeam.array_model", "steering_matrix", "array_model.steering", None, None),
    ("morphbeam.beampattern", "steering_matrix", "array_model.steering", None, None),
    ("morphbeam.beampattern", "response_matrix", "array_model.response", None, None),
    ("morphbeam.beampattern", "cumulated_power", "objective.cumulated_power", None, None),
    ("morphbeam.experiments", "evaluate_beampattern", "beampattern.grid", None, _grid_hook),
    ("morphbeam.experiments", "target_powers", "beampattern.target_powers", None, None),
    ("morphbeam.beampattern", "target_powers", "beampattern.target_powers", None, None),
    ("morphbeam.experiments", "write_covariance_csv", "results.write", None, _write_hook),
    ("morphbeam.experiments", "write_shape_csv", "results.write", None, _write_hook),
    ("morphbeam.experiments", "write_beampattern_csv", "results.write", None, _write_hook),
    ("morphbeam.experiments", "read_covariance_csv", "results.read", None, _read_hook),
    ("morphbeam.experiments", "read_shape_csv", "results.read", None, _read_hook),
    ("morphbeam.results", "read_beampattern_csv", "results.read", None, _read_hook),
]

# Metrics left out when a wrap point that records the span is absent.
_FEEDS = {
    "config.load": ("config.load_s",),
    "experiments": ("experiments.self_s",),
    "bcd": ("bcd.self_s",),
    "covariance.sdp": (
        "covariance.sdp_calls", "covariance.sdp_s", "covariance.sdp_p50_ms",
        "covariance.newton_steps", "covariance.newton_per_solve",
        "covariance.sdp_max_gap", "covariance.sdp_unconverged", "bcd.outer_iters"),
    "shape_opt.ascent": (
        "shape_opt.ascent_calls", "shape_opt.ascent_s", "shape_opt.self_s",
        "shape_opt.accepted_steps", "shape_opt.accept_ratio",
        "shape_opt.max_iters_stops", "shape_opt.step_floor_stops"),
    "objective.gradient": ("objective.gradient_s", "shape_opt.self_s"),
    "objective.power_eval": (
        "objective.power_evals", "objective.power_eval_s", "shape_opt.evals_per_gradient",
        "shape_opt.accept_ratio", "shape_opt.self_s",
        "array_model.steering_calls", "array_model.steering_s"),
    "objective.cumulated_power": ("objective.cumulated_power_calls",),
    "array_model.steering": (
        "objective.gradient_calls", "shape_opt.evals_per_gradient",
        "array_model.steering_calls", "array_model.steering_s"),
    "array_model.response": ("array_model.response_calls", "array_model.response_s"),
    "beampattern.grid": (
        "beampattern.grid_calls", "beampattern.grid_s", "beampattern.directions",
        "beampattern.directions_per_s", "beampattern.flops_computed"),
    "beampattern.target_powers": ("beampattern.target_powers_s",),
    "results.write": ("results.write_s", "results.bytes_written"),
    "results.read": ("results.read_s", "results.rows"),
}


class Tracer:
    """Spans and counts of the traced passes, held in memory."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent, pass_id]
        self.absent: dict[str, str] = {}    # wrap point -> span it would record
        self.counts: Counter = Counter()     # of the current pass
        self.gaps: list[float] = []          # of the current pass
        self._first = 0                      # index of the current pass's root span
        self._stack: list[int] = []
        self._pass_id = None

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        span = [name, 0.0, 0.0, parent, self._pass_id]
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, counter, hook):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                self.counts[counter] += 1
            if hook is not None:
                hook(self, args, result)
            return result
        return traced

    @contextmanager
    def traced_pass(self, pass_id: int):
        """Install the wrappers and open the pass's root span; undo both on exit."""
        saved = []
        for module_name, attr, name, counter, hook in WRAP_POINTS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.absent[f"{module_name}.{attr}"] = name
                continue
            saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter, hook))
        self.counts = Counter()
        self.gaps = []
        self._first = len(self.spans)
        self._pass_id = pass_id
        root = self._open("pass")
        try:
            yield
        finally:
            self._close(root)
            self._pass_id = None
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def pass_metrics(self) -> dict:
        """Per-layer metrics of the last traced pass.

        Self time is a span's duration minus that of its children; calls
        are sequential, so children never overlap each other.
        """
        counts, gaps = self.counts, self.gaps
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans[self._first:]:
            child_time[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        durations: dict[str, list[float]] = defaultdict(list)
        for i, (name, start, end, _, _) in enumerate(self.spans[self._first:], self._first):
            total[name] += end - start
            self_time[name] += end - start - child_time[i]
            durations[name].append(end - start)

        def calls(name):
            return len(durations[name])

        sdp_calls = calls("covariance.sdp")
        grads = counts["objective.gradient_calls"]
        evals = counts["objective.power_evals"]
        grid_s = total["beampattern.grid"]
        out = {
            "covariance.sdp_calls": sdp_calls,
            "covariance.sdp_s": total["covariance.sdp"],
            "covariance.sdp_p50_ms": (1e3 * statistics.median(durations["covariance.sdp"])
                                      if sdp_calls else 0.0),
            "covariance.newton_steps": counts["covariance.newton_steps"],
            "covariance.newton_per_solve": (counts["covariance.newton_steps"] / sdp_calls
                                            if sdp_calls else 0.0),
            "covariance.sdp_max_gap": max(gaps, default=0.0),
            "covariance.sdp_unconverged": counts["covariance.sdp_unconverged"],
            "shape_opt.ascent_calls": calls("shape_opt.ascent"),
            "shape_opt.ascent_s": total["shape_opt.ascent"],
            "shape_opt.self_s": self_time["shape_opt.ascent"],
            "shape_opt.accepted_steps": counts["shape_opt.accepted_steps"],
            "shape_opt.evals_per_gradient": evals / grads if grads else 0.0,
            "shape_opt.accept_ratio": counts["shape_opt.accepted_steps"] / evals if evals else 0.0,
            "shape_opt.max_iters_stops": counts["shape_opt.max_iters_stops"],
            "shape_opt.step_floor_stops": counts["shape_opt.step_floor_stops"],
            "objective.gradient_calls": grads,
            "objective.gradient_s": total["objective.gradient"],
            "objective.power_evals": evals,
            "objective.power_eval_s": total["objective.power_eval"],
            "objective.cumulated_power_calls": calls("objective.cumulated_power"),
            "array_model.steering_calls": calls("array_model.steering") + evals,
            "array_model.steering_s": total["array_model.steering"] + total["objective.power_eval"],
            "array_model.response_calls": calls("array_model.response"),
            "array_model.response_s": total["array_model.response"],
            "bcd.outer_iters": sdp_calls,
            "bcd.self_s": self_time["bcd"],
            "beampattern.grid_calls": calls("beampattern.grid"),
            "beampattern.grid_s": grid_s,
            "beampattern.directions": counts["beampattern.directions"],
            "beampattern.directions_per_s": (counts["beampattern.directions"] / grid_s
                                             if grid_s else 0.0),
            "beampattern.flops_computed": counts["beampattern.flops_computed"],
            "beampattern.target_powers_s": total["beampattern.target_powers"],
            "results.write_s": total["results.write"],
            "results.read_s": total["results.read"],
            "results.bytes_written": counts["results.bytes_written"],
            "results.rows": counts["results.rows"],
            "experiments.self_s": self_time["experiments"],
            "config.load_s": total["config.load"],
        }
        for span_name in self.absent.values():
            for metric in _FEEDS[span_name]:
                out.pop(metric, None)
        return out

    def dump(self) -> dict:
        """Spans in a compact column form, for the trace file."""
        return {
            "columns": ["name", "start_s", "end_s", "parent", "pass_id"],
            "rows": self.spans,
            "absent_wrap_points": sorted(self.absent),
        }
