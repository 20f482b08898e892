"""morphbeam benchmark: end-to-end metrics per workload, or a traced run.

Usage, from the root of the repository:

    python3 perfbench/run.py                      # every workload, seed 0
    python3 perfbench/run.py --workload desk-mimo --seed 3 --seconds 20
    python3 perfbench/run.py --workload all --trace 1   # per-layer metrics

Each workload runs in its own single-threaded process with the BLAS thread
count fixed at 1 and recorded. Set-up is repeated in ``SETUPS - 1`` extra
processes that stop after set-up, and ``setup_s`` is the median over all of
them. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
The traced run also writes its spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("desk-mimo", "pattern-io")
SETUPS = 5
TIMEOUT_S = 170.0                      # a whole run must end within 180 s

# Single-threaded numerics: ROADMAP item 4 found that the BLAS thread count
# alone moves the desk objective in the 11th digit.
WORKER_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
}

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("objective_dbm", "dBm"),
    ("min_target_dbm", "dBm"),
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _worker(args, tag: str, deadline: float, setup_only: bool) -> dict:
    cmd = [sys.executable, str(HERE / "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--tag", tag]
    if setup_only:
        cmd.append("--setup-only")
    env = {**os.environ, **WORKER_ENV}
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args.workload}: worker did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{args.workload}: worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(args, deadline: float) -> dict:
    """Set up ``SETUPS - 1`` times, then set up and measure once more."""
    setups = [_worker(args, f"{args.workload}-setup{i}", deadline, True)["setup_s"]
              for i in range(SETUPS - 1)]
    result = _worker(args, args.workload, deadline, False)
    setups.append(result["setup_s"])
    result["setup_s"] = statistics.median(setups)
    result["setup_samples"] = setups
    return result


def _mean_dbm(values_dbm):
    """dBm of the mean linear power, so one weak target cannot swamp the mean."""
    if not values_dbm:
        return float("nan")
    return 10.0 * math.log10(statistics.fmean(10.0 ** (v / 10.0) for v in values_dbm))


def report(name: str, result: dict, trace: bool) -> dict:
    """Print one workload's metrics and verdict; return its metric dict."""
    env = result["env"]
    print(f"== {name}  seed={env['seed']}  numpy {env['numpy']}  {env['blas']}"
          f"  blas_threads={env['blas_threads']}  nproc={env['nproc']}"
          f"  python {env['python']}")
    failed_frac = result["failed"] / result["attempted"]
    if trace:
        metrics = {}
        units = {m[0]: m[1] for m in tracing.LAYER_METRICS}
        for key, value in result["layer"].items():
            metrics[key] = {"value": value, "unit": units[key]}
        for point in result["absent_wrap_points"]:
            print(f"  ABSENT wrap point {point}: metrics that need it are left out")
        check = result["count_check"]
        print(f"  exact-count check: {check['status']}")
        for problem in check.get("problems", []):
            print(f"    MISMATCH {problem}")
        print(f"  untraced run_s {result['run_s']:.4f} s, traced run_s "
              f"{result['traced_run_s']:.4f} s, spans in {result['trace_file']}")
    else:
        values = {
            "setup_s": result["setup_s"],
            "run_s": result["run_s"],
            "peak_rss_mb": result["peak_rss_mb"],
            "objective_dbm": _mean_dbm(result["objective_dbm"]),
            "min_target_dbm": _mean_dbm(result["min_target_dbm"]),
        }
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END}
    width = max(len(k) for k in metrics)
    for key, m in metrics.items():
        print(f"  {key:<{width}}  {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':<{width}}  {failed_frac:.6g} ({result['failed']} of "
          f"{result['attempted']} instances)")
    for err in result["errors"]:
        print(f"  FAILED: {err.strip()}")
    verdict = "PASS" if result["failed"] == 0 else "FAIL"
    print(f"  checks: {verdict}")
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=45.0,
                   help="measuring time per workload run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "morphbeam" / "__init__.py").is_file():
        print(f"error: no morphbeam sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        deadline = time.monotonic() + TIMEOUT_S
        try:
            result = run_workload(argparse.Namespace(**{**vars(args), "workload": name}),
                                  deadline)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        metrics = report(name, result, bool(args.trace))
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        combined["metrics"].update({prefix + k: v for k, v in metrics.items()})
    combined["correct"] = combined["failed"] == 0
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
