"""The benchmark's per-layer tracer still binds to every layer of the package.

``perfbench/tracing.py`` measures each layer by swapping module-level names
(for example ``morphbeam.shape_opt.steering_matrix``) for timing wrappers.
A name that a refactor removes is reported as absent and its metrics drop
out of the traced result, so the benchmark's last line no longer holds the
per-layer names that ``BENCHMARK.json`` declares. These tests turn that
into a test failure.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from morphbeam.config import ExperimentConfig
from morphbeam.experiments import run_beampattern, run_optimize

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tiny_config():
    return ExperimentConfig.from_dict({
        "geometry": {
            "n_x": 3, "n_z": 3,
            "dx_wavelengths": 0.5, "dz_wavelengths": 0.5,
            "frequency_hz": 28e9, "d_max_wavelengths": 0.5,
        },
        "targets": [
            {"theta_deg": 40.0, "phi_deg": 70.0},
            {"theta_deg": 120.0, "phi_deg": 100.0},
        ],
        "power": {"p_t_dbm": 10.0},
        "algorithm": {"scheme": "fim-mimo", "max_outer_iters": 3,
                      "n_starts": 2, "ascent_max_iters": 50},
        "output": {"dir": "out", "grid_points": 7},
        "seed": 0,
    })


def test_every_wrap_point_resolves_to_a_callable(tracing):
    for module_name, attr, *_ in tracing.WRAP_POINTS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_traced_pass_binds_every_wrap_point_and_yields_the_declared_metrics(
        tracing, tmp_path):
    tracer = tracing.Tracer()
    cfg = _tiny_config()
    with tracer.traced_pass(0):
        run_optimize(cfg, tmp_path)
        run_beampattern(cfg, tmp_path)
    assert tracer.absent == {}

    metrics = tracer.pass_metrics()
    # the wrappers are looked up at call time, so each layer the pass ran
    # through shows up in the counts
    for name in ("covariance.sdp_calls", "shape_opt.ascent_calls",
                 "objective.power_evals", "objective.cumulated_power_calls",
                 "array_model.response_calls", "beampattern.grid_calls",
                 "results.bytes_written", "results.rows"):
        assert metrics[name] > 0, name

    metrics["tracing.overhead"] = 1.0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(metrics) == {m["name"] for m in declared}
    json.dumps(metrics, allow_nan=False)
