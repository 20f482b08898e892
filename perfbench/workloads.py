"""One benchmark workload in its own process: set up, run timed passes, check.

Started by ``run.py``, one process per workload. It prints one JSON object as
the last line of its standard output. With ``--setup-only`` it stops after
set-up and reports only the set-up time, which ``run.py`` uses to take a
median over several set-ups.

Set-up time runs from ``--t0``, a ``time.monotonic()`` reading taken by the
parent just before it started this process, to the first timed call. On
Linux that clock is shared by all processes. Every pass of one run does the
same work on the same inputs.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from morphbeam import (  # noqa: E402
    array_model,
    beampattern,
    config,
    covariance,
    experiments,
    objective,
    results,
    units,
)

import tracing  # noqa: E402

DESK_CONFIG = ROOT / "configs" / "desk-10x10.json"
OUT = ROOT / "perfbench" / "out"

OBJECTIVE_REL_TOL = 1e-9
PATTERN_SIZES = (10, 20)
FIXTURE_MIXING = 0.1


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _require(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _close(reported: float, independent: float, what: str) -> None:
    rel = abs(reported - independent) / max(abs(independent), 1e-300)
    _require(rel <= OBJECTIVE_REL_TOL,
             f"{what}: reported {reported!r} vs recomputed {independent!r} (rel {rel:.3g})")


@contextmanager
def capture(module, attr: str, sink: list):
    """Keep the return values of ``module.attr`` while the block runs."""
    original = getattr(module, attr)

    def keep(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append(result)
        return result

    setattr(module, attr, keep)
    try:
        yield
    finally:
        setattr(module, attr, original)


def environment(seed: int) -> dict:
    deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(handle, fn):
                getter = getattr(handle, fn)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {
        "numpy": np.__version__,
        "blas": f"{deps.get('name')} {deps.get('version')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "seed": seed,
    }


# --- workloads -------------------------------------------------------------
#
# Each workload class makes its inputs in __init__ (set-up), runs one pass in
# run_pass() (timed), and checks that pass's outputs in check() (untimed).
# check() returns (objective_dbm, min_target_dbm) per instance, or raises.


class Desk:
    """run_optimize on the desk config (fim-mimo), the paper's headline instance.

    The config keeps its own seed whatever the workload seed is. That seed
    draws the random start shapes, which change the work: over ten runs the
    quartile spread of the pass time was 0.22 with config seeds 0-9 and 0.10
    with config seed 0 throughout, so a seeded config measures the seed more
    than the code.
    """

    def __init__(self, work: Path):
        self.work = work
        cfg = config.load_config(DESK_CONFIG)
        self.geom = cfg.build_geometry()
        self.targets = cfg.build_targets()
        self.instances = 1

    def run_pass(self):
        self.solved, self.record = [], None
        with capture(experiments, "solve_benchmark", self.solved):
            cfg = config.load_config(DESK_CONFIG)
            self.record = experiments.run_optimize(cfg, self.work, threads=1)

    def check(self):
        (res,) = self.solved
        rec = self.record
        res.cov.validate()
        res.shape.validate(self.geom)
        for r in res.trace.records:
            _require(r.sdp_converged and r.sdp_gap <= covariance.DEFAULT_SDP_TOL,
                     f"outer {r.index}: SDP converged={r.sdp_converged} gap={r.sdp_gap:g}")
        rm = array_model.response_matrix(self.geom, self.targets, res.shape)
        _close(rec.objective_mw, objective.cumulated_power(res.cov, rm), "objective")
        return [(rec.objective_dbm, rec.min_target_dbm)]


class PatternIO:
    """Beampattern grid, CSV write and read-back, and target powers on seeded fixtures."""

    def __init__(self, seed: int, work: Path):
        rng = np.random.default_rng([seed, 4])
        raw = json.loads(DESK_CONFIG.read_text())
        self.cases = []
        for n in PATTERN_SIZES:
            raw["geometry"].update(n_x=n, n_z=n)
            cfg = config.ExperimentConfig.from_dict(raw)
            geom, targets = cfg.build_geometry(), cfg.build_targets()
            shape = array_model.SurfaceShape.uniform_random(geom, rng)
            cov = self._fixture_covariance(geom, targets, shape, cfg, rng)
            cov.validate()
            shape.validate(geom)
            case_dir = work / f"n{geom.n_elements}"
            case_dir.mkdir(parents=True, exist_ok=True)
            (case_dir / "config.json").write_text(json.dumps(raw))
            results.write_covariance_csv(case_dir / "covariance.csv", cov.r)
            results.write_shape_csv(case_dir / "shape.csv", shape.displacements)
            self.cases.append((geom, targets, shape, cov, case_dir))
        self.instances = len(self.cases)

    @staticmethod
    def _fixture_covariance(geom, targets, shape, cfg, rng):
        """Rank-K PSD covariance with diag exactly P_t/N, aimed at the targets.

        R = V V^H with V = A G (A the target steering vectors, G = I plus a
        small seeded K x K mixing, so every target gets a similar share),
        rows of V rescaled to squared norm P_t/N.
        """
        a = array_model.response_matrix(geom, targets, shape).a
        k = targets.n_targets
        mix = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        v = a @ (np.eye(k) + FIXTURE_MIXING * mix)
        p_t = units.dbm_to_mw(cfg.p_t_dbm)
        v *= np.sqrt(p_t / geom.n_elements) / np.linalg.norm(v, axis=1, keepdims=True)
        r = v @ v.conj().T
        r = 0.5 * (r + r.conj().T)
        return covariance.CovarianceMatrix(r=r, power_budget=p_t,
                                           constraint_kind=covariance.ConstraintKind.PER_ANTENNA)

    def run_pass(self):
        self.outputs = []
        for geom, targets, shape, cov, case_dir in self.cases:
            cfg = config.load_config(case_dir / "config.json")
            grids = []
            with capture(experiments, "evaluate_beampattern", grids):
                path = experiments.run_beampattern(cfg, case_dir, threads=1)
            back = results.read_beampattern_csv(path)
            powers = beampattern.target_powers(cov, geom, targets, shape)
            self.outputs.append((grids[0], back, powers))

    def check(self):
        out = []
        for (geom, targets, shape, cov, _), (grid, back, powers) in zip(
                self.cases, self.outputs):
            _require(np.all(np.isfinite(grid.power_dbm)), "grid has non-finite entries")
            _require(back.power_dbm.shape == grid.power_dbm.shape
                     and np.array_equal(back.power_dbm, grid.power_dbm),
                     "beampattern CSV read-back differs from what was written")
            per_dbm, cum_mw, min_dbm = powers
            rm = array_model.response_matrix(geom, targets, shape)
            independent = objective.cumulated_power(cov, rm)
            _close(cum_mw, independent, "cumulated power")
            _close(float(np.sum(10.0 ** (per_dbm / 10.0))), independent, "summed target powers")
            out.append((units.mw_to_dbm(cum_mw), min_dbm))
        return out


WORKLOADS = {
    "desk-mimo": lambda seed, work: Desk(work),
    "pattern-io": PatternIO,
}


# --- measurement -----------------------------------------------------------


def _timed_pass(wl, stats: dict, around=nullcontext) -> float:
    """Time one pass (inside ``around``), then check it untimed.

    A pass or check that raises marks the pass's instances failed and the run
    goes on, so that the failure is counted rather than hidden by an exit.
    """
    stats["attempted"] += wl.instances
    tic = time.perf_counter()
    try:
        with around():
            wl.run_pass()
    except Exception:
        elapsed = time.perf_counter() - tic
        stats["failed"] += wl.instances
        stats["errors"].append(traceback.format_exc(limit=3))
        return elapsed
    elapsed = time.perf_counter() - tic
    try:
        checked = wl.check()
    except Exception:
        stats["failed"] += wl.instances
        stats["errors"].append(traceback.format_exc(limit=3))
        return elapsed
    for obj_dbm, min_dbm in checked:
        stats["objective_dbm"].append(obj_dbm)
        stats["min_target_dbm"].append(min_dbm)
    return elapsed


def _passes(budget: float, run_one) -> list[float]:
    """Start passes until ``budget`` seconds have gone; the last one may run over."""
    times = [run_one(0)]
    while sum(times) < budget:
        times.append(run_one(len(times)))
    return times


def _count_check(name: str, seed: int, metrics: list[dict]) -> dict:
    """Compare traced counts with the ones stored for the default seed."""
    if seed != 0:
        return {"status": "skipped", "reason": "counts are stored for seed 0 only"}
    stored = json.loads((Path(__file__).parent / "expected_counts.json").read_text()).get(name)
    if stored is None:
        return {"status": "mismatch", "problems": [f"no counts stored for {name}"]}
    problems = []
    for key in tracing.CHECKED_COUNTS:
        for i, m in enumerate(metrics):
            if key not in m:
                problems.append(f"{key}: absent in traced pass {i}")
            elif m[key] != stored[key]:
                problems.append(f"{key}: stored {stored[key]}, traced pass {i} gave {m[key]}")
    return {"status": "mismatch" if problems else "pass", "stored": stored,
            "problems": problems}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--tag", required=True, help="work directory name, unique per process")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    work = OUT / "work" / args.tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = {"setup_s": setup_s, "env": environment(args.seed)}
        stats = {"attempted": 0, "failed": 0, "objective_dbm": [], "min_target_dbm": [],
                 "errors": []}
        if args.trace:
            result.update(_traced(args, wl, stats))
        else:
            times = _passes(args.seconds, lambda i: _timed_pass(wl, stats))
            result["run_s"] = statistics.median(times)
            result["pass_times"] = times
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result.update(stats)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _traced(args, wl, stats: dict) -> dict:
    """Untraced and traced passes in turn; per-layer metrics are medians of the traced ones.

    Alternating keeps the overhead ratio fair when the machine's speed
    drifts, and the first, cold pass is an untraced one.
    """
    tracer = tracing.Tracer()
    untraced_times, traced_times, per_pass = [], [], []

    def one_pass(i):
        if i % 2 == 0:
            untraced_times.append(_timed_pass(wl, stats))
            return untraced_times[-1]
        traced_times.append(_timed_pass(wl, stats, lambda: tracer.traced_pass(i)))
        per_pass.append(tracer.pass_metrics())
        return traced_times[-1]

    _passes(args.seconds, one_pass)
    if not traced_times:                 # the budget ended after the first pass
        one_pass(1)
    untraced = statistics.median(untraced_times)
    traced_s = statistics.median(traced_times)
    layer = {key: statistics.median(m[key] for m in per_pass)
             for key in per_pass[0]}
    layer["tracing.overhead"] = traced_s / untraced
    out = {
        "run_s": untraced,
        "traced_run_s": traced_s,
        "layer": layer,
        "absent_wrap_points": sorted(tracer.absent),
        "count_check": _count_check(args.workload, args.seed, per_pass),
    }
    OUT.mkdir(parents=True, exist_ok=True)
    dump = {"workload": args.workload, "env": environment(args.seed), **out,
            "per_pass": per_pass, "spans": tracer.dump()}
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps(dump))
    out["trace_file"] = str(trace_file.relative_to(ROOT))
    return out


if __name__ == "__main__":
    sys.exit(main())
