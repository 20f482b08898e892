"""The benchmark's per-layer tracer still binds to every layer of the package.

``perfbench/tracing.py`` measures each layer by swapping module-level names
(for example ``morphbeam.shape_opt.steering_matrix``) for timing wrappers.
A name that a refactor removes is reported as absent and its metrics drop
out of the traced result, so the benchmark's last line no longer holds the
per-layer names that ``BENCHMARK.json`` declares. These tests turn that
into a test failure, and run each workload's own pass and output check once,
so a change that breaks what ``perfbench/workloads.py`` captures fails here.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import loop_steering
from morphbeam import covariance
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


@pytest.fixture(scope="module")
def workloads():
    # workloads.py imports its sibling tracing.py by plain name
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return module


def _tiny_config():
    return ExperimentConfig.from_dict({
        "geometry": {
            "n_x": 3, "n_z": 3,
            "dx_wavelengths": 0.5, "dz_wavelengths": 0.5,
            "d_max_wavelengths": 0.5,
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


def test_desk_workload_pass_passes_its_check(workloads, tmp_path):
    wl = workloads.Desk(tmp_path)
    wl.run_pass()
    assert len(wl.check()) == wl.instances == 1


def test_pattern_io_workload_pass_passes_its_check(workloads, tmp_path):
    wl = workloads.PatternIO(0, tmp_path)
    wl.run_pass()
    assert len(wl.check()) == wl.instances == 2


def test_traced_pattern_io_pass_reads_the_factor_and_times_the_grid(tracing, workloads,
                                                                    tmp_path):
    # The tracer counts read_covariance_csv's result by its ``.size`` and
    # takes the grid's geometry from evaluate_beampattern's second argument;
    # a traced pass breaks if either contract does.
    wl = workloads.PatternIO(0, tmp_path)
    tracer = tracing.Tracer()
    with tracer.traced_pass(1):
        wl.run_pass()
    assert tracer.absent == {}
    metrics = tracer.pass_metrics()
    for name in ("results.read_s", "results.rows", "beampattern.grid_s"):
        assert metrics[name] > 0, name
    assert len(wl.check()) == wl.instances == 2


def test_pattern_io_grid_matches_the_fixture_covariance(workloads, tmp_path, monkeypatch):
    # PatternIO.check compares the grid with its CSV read-back and the target
    # powers, never with the fixture's R. The grid runs on the G that the
    # covariance writer stored, so a writer that stores anything but a
    # factor of R (U_k lam_k instead of U_k sqrt(lam_k), say) passes that
    # check; here grid cells are compared with a^H R a on the dense R the
    # fixture built and a steering vector built element by element.
    dense = []

    def recording(**kwargs):
        dense.append(np.array(kwargs["r"]))
        return covariance.CovarianceMatrix(**kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(workloads, "covariance", SimpleNamespace(
            CovarianceMatrix=recording, ConstraintKind=covariance.ConstraintKind))
        wl = workloads.PatternIO(0, tmp_path)
    wl.run_pass()
    assert len(dense) == len(wl.cases) == 2
    for r, (geom, _, shape, _, _), (grid, _, _) in zip(dense, wl.cases, wl.outputs):
        mw = 10.0 ** (grid.power_dbm / 10.0)
        peak = np.unravel_index(np.argmax(mw), mw.shape)
        cells = [peak] + [(i, j) for i in range(0, mw.shape[0], 45)
                          for j in range(0, mw.shape[1], 45)]
        for i, j in cells:
            a = loop_steering(geom, grid.theta_axis[i], grid.phi_axis[j], shape.displacements)
            want = float(np.real(a.conj() @ r @ a))
            assert mw[i, j] == pytest.approx(want, rel=1e-9), (geom.n_elements, i, j)
