"""Experiment runners and command-line entry point.

The runner tests recompute every persisted quantity from the artifacts they
read back, so a regression in any serialization path shows up as a numeric
mismatch rather than a silent format drift.
"""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

import morphbeam
from morphbeam.array_model import SurfaceShape
from morphbeam.bcd import Scheme
from morphbeam.beampattern import evaluate_beampattern, target_powers
from morphbeam.cli import main
from morphbeam.config import ConfigError, ExperimentConfig
from morphbeam.covariance import DEFAULT_SDP_TOL, CovarianceMatrix
from morphbeam.experiments import (
    MissingInputError,
    SolverFailure,
    run_beampattern,
    run_compare,
    run_optimize,
    run_sweep_power,
    run_sweep_range,
)
from morphbeam.results import (
    ResultRecord,
    read_beampattern_csv,
    read_covariance_csv,
    read_shape_csv,
    write_covariance_csv,
    write_shape_csv,
)
from morphbeam.units import dbm_to_mw, mw_to_dbm


def test_star_import_resolves_every_public_name():
    # a name in __all__ that moved to another module would break this import
    namespace = {}
    exec("from morphbeam import *", namespace)
    assert set(morphbeam.__all__) <= namespace.keys()


def small_config_dict(n=3, seed=0, n_starts=2, max_outer=8, grid=13):
    "A quick-to-solve two-target instance for runner tests."
    return {
        "geometry": {
            "n_x": n, "n_z": n,
            "dx_wavelengths": 0.5, "dz_wavelengths": 0.5,
            "d_max_wavelengths": 0.5,
        },
        "targets": [
            {"theta_deg": 40.0, "phi_deg": 70.0},
            {"theta_deg": 120.0, "phi_deg": 100.0},
        ],
        "power": {"p_t_dbm": 10.0},
        "algorithm": {
            "scheme": "fim-mimo", "max_outer_iters": max_outer,
            "n_starts": n_starts, "ascent_max_iters": 120,
        },
        "output": {"dir": "out", "grid_points": grid},
        "seed": seed,
    }


def tiny_config_dict(seed=0):
    "An even smaller instance for end-to-end command tests."
    raw = small_config_dict(n=2, n_starts=1, max_outer=5, grid=9, seed=seed)
    raw["algorithm"]["ascent_max_iters"] = 80
    return raw


def write_config(tmp_path, raw, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


# -- experiment runners ----------------------------------------------------


def test_run_optimize_artifacts_are_self_consistent(tmp_path):
    cfg = ExperimentConfig.from_dict(small_config_dict())
    record = run_optimize(cfg, tmp_path)

    for name in ("record.json", "covariance.csv", "shape.csv"):
        assert (tmp_path / name).exists()
    assert ResultRecord.load(tmp_path / "record.json") == record

    g = read_covariance_csv(tmp_path / "covariance.csv")
    cov = CovarianceMatrix(g, power_budget=dbm_to_mw(cfg.p_t_dbm))   # R = G G^H
    shape = SurfaceShape(read_shape_csv(tmp_path / "shape.csv"))
    geom = cfg.build_geometry()
    per_dbm, cum_mw, min_dbm = target_powers(cov, geom, cfg.build_targets(), shape)

    assert cum_mw == pytest.approx(record.objective_mw, rel=1e-9)
    assert min_dbm == pytest.approx(record.min_target_dbm, abs=1e-9)
    assert np.allclose(per_dbm, record.per_target_dbm, atol=1e-9)
    assert record.objective_dbm == pytest.approx(
        mw_to_dbm(record.objective_mw), abs=1e-12)
    assert record.config_digest == cfg.digest()
    assert record.scheme == "fim-mimo"
    assert record.seed == 0
    assert record.outer_iterations >= 1
    assert record.termination_reason in {"threshold", "stationary", "max_iters"}
    assert record.sdp_all_converged is True
    assert 0.0 <= record.max_sdp_gap <= DEFAULT_SDP_TOL


@pytest.mark.parametrize("scheme", ["fim-mimo", "raa-mimo"])
def test_record_shows_unconverged_sdp(tmp_path, monkeypatch, scheme):
    # The trace records reach record.json for every scheme, raa-mimo's one
    # outer iteration on the flat surface included. The 4x4 array with three targets
    # has a rank-3 optimum at the zero shape, so no solve can certify it
    # within the 2-step cap.
    monkeypatch.setattr("morphbeam.covariance.DEFAULT_ITER_CAP", 2)
    raw = tiny_config_dict()
    raw["geometry"]["n_x"] = raw["geometry"]["n_z"] = 4
    raw["targets"] = [{"theta_deg": th, "phi_deg": ph}
                      for th, ph in ((30.0, 60.0), (30.0, 120.0), (135.0, 90.0))]
    raw["algorithm"]["scheme"] = scheme
    record = run_optimize(ExperimentConfig.from_dict(raw), tmp_path)
    assert record.sdp_all_converged is False
    assert record.max_sdp_gap > DEFAULT_SDP_TOL
    saved = json.loads((tmp_path / "record.json").read_text())
    assert saved["sdp_all_converged"] is False
    assert saved["artifact_version"] == 4
    # one stop per outer of the kept start
    stops = saved["ascent_stops"]
    assert sorted(stops) == ["gradient_tol", "max_iters", "step_floor"]
    assert sum(stops.values()) == saved["outer_iterations"] == record.outer_iterations


@pytest.mark.parametrize("scheme", ["raa-mimo", "raa-pa"])
def test_cli_optimize_refuses_init_for_a_rigid_scheme(tmp_path, capsys, scheme):
    # a rigid scheme runs on the flat surface and has no room for an init
    # shape, so the config is refused instead of the shape being dropped
    raw = tiny_config_dict()
    raw["algorithm"]["scheme"] = scheme
    raw["algorithm"]["init_displacements"] = [0.4] * 4
    path = write_config(tmp_path, raw)
    out = tmp_path / "run"
    rc = main(["optimize", "--config", str(path), "--out", str(out)])
    assert rc == 2
    assert "init_displacements" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, sweep_args", [
    ("compare-schemes", []),
    ("sweep-power", ["--p-t-dbm", "0,10"]),
])
def test_cli_init_start_goes_to_the_morphing_schemes_only(tmp_path, capsys, command,
                                                          sweep_args):
    raw = tiny_config_dict()
    raw["algorithm"]["init_displacements"] = [0.4] * 4
    path = write_config(tmp_path, raw)
    out = tmp_path / "run"
    rc = main([command, "--config", str(path), "--out", str(out), *sweep_args])
    assert rc == 0
    if command == "compare-schemes":
        for scheme in ("raa-mimo", "raa-pa"):
            shape = read_shape_csv(out / f"shape-{scheme}.csv")
            np.testing.assert_array_equal(shape, np.zeros(4))


def test_run_beampattern_requires_prior_optimize(tmp_path):
    cfg = ExperimentConfig.from_dict(small_config_dict())
    with pytest.raises(MissingInputError):
        run_beampattern(cfg, tmp_path)


def test_runners_reject_more_than_one_thread(tmp_path):
    # Runs are serial; threads=1 is the only accepted value, never ignored.
    cfg = ExperimentConfig.from_dict(small_config_dict())
    with pytest.raises(ValueError, match="threads"):
        run_optimize(cfg, tmp_path, threads=2)
    with pytest.raises(ValueError, match="threads"):
        run_beampattern(cfg, tmp_path, threads=2)


def test_run_beampattern_grid_dimensions_and_ceiling(tmp_path):
    cfg = ExperimentConfig.from_dict(small_config_dict())
    run_optimize(cfg, tmp_path)
    dest = run_beampattern(cfg, tmp_path)

    grid = read_beampattern_csv(dest)
    g = cfg.output.grid_points
    assert grid.power_dbm.shape == (g, g)
    assert grid.theta_axis[0] == pytest.approx(0.0, abs=1e-12)
    assert grid.theta_axis[-1] == pytest.approx(np.pi, abs=1e-9)
    # probing power at any angle is capped by P_t times the element count
    p_t = dbm_to_mw(cfg.p_t_dbm)
    ceiling = mw_to_dbm(p_t * cfg.geometry.n_x * cfg.geometry.n_z)
    assert grid.power_dbm.max() <= ceiling + 1e-9


def test_run_compare_artifacts_and_scheme_ordering(tmp_path):
    cfg = ExperimentConfig.from_dict(small_config_dict())
    records = run_compare(cfg, tmp_path)

    order = [s.value for s in Scheme]
    assert [rec.scheme for rec in records] == order
    for value in order:
        assert (tmp_path / f"record-{value}.json").exists()
        assert (tmp_path / f"covariance-{value}.csv").exists()
        assert (tmp_path / f"shape-{value}.csv").exists()
    assert len({rec.config_digest for rec in records}) == 1

    vals = {rec.scheme: rec.objective_mw for rec in records}
    assert vals["fim-mimo"] >= vals["raa-mimo"] * (1.0 - 1e-12)
    assert vals["fim-pa"] >= vals["raa-pa"] * (1.0 - 1e-12)
    assert vals["raa-pa"] <= vals["raa-mimo"] * (1.0 + 1e-12)

    with open(tmp_path / "summary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["scheme", "cumulated_mw", "cumulated_dbm", "min_target_dbm"]
    assert [row[0] for row in rows[1:]] == order
    for row, rec in zip(rows[1:], records):
        assert float(row[1]) == pytest.approx(rec.objective_mw, rel=1e-12)
        assert float(row[3]) == pytest.approx(rec.min_target_dbm, abs=1e-9)


def test_run_sweep_power_scales_covariances_exactly(tmp_path):
    cfg = ExperimentConfig.from_dict(small_config_dict())
    rows = run_sweep_power(cfg, tmp_path, [20.0, 0.0, 10.0])

    assert len(rows) == 3 * len(Scheme)
    levels = [row[0] for row in rows]
    assert levels == sorted(levels)
    by_level = {(row[0], row[1]): row[2] for row in rows}
    for scheme in (s.value for s in Scheme):
        ref = by_level[(10.0, scheme)]
        assert by_level[(0.0, scheme)] == pytest.approx(0.1 * ref, rel=1e-12)
        assert by_level[(20.0, scheme)] == pytest.approx(10.0 * ref, rel=1e-12)
    for row in rows:
        assert row[3] == pytest.approx(mw_to_dbm(row[2]), abs=1e-12)
    assert (tmp_path / "sweep_power.csv").exists()


def test_run_sweep_power_rejects_empty_levels(tmp_path):
    cfg = ExperimentConfig.from_dict(small_config_dict())
    with pytest.raises(ValueError):
        run_sweep_power(cfg, tmp_path, [])
    for bad in ([np.nan], [10.0, -np.inf], [np.inf]):
        with pytest.raises(ValueError, match="finite"):
            run_sweep_power(cfg, tmp_path / "sweep", bad)
    assert not (tmp_path / "sweep").exists()


def test_run_sweep_range_warm_ladder_is_monotone(tmp_path):
    cfg = ExperimentConfig.from_dict(small_config_dict(n=2))
    sizes = [(2, 2), (3, 2)]
    rows = run_sweep_range(cfg, tmp_path, [0.5, 0.0, 0.25], sizes=sizes)

    assert len(rows) == len(sizes) * 3
    for i, (n_x, n_z) in enumerate(sizes):
        chain = rows[3 * i: 3 * i + 3]
        assert [(row[1], row[2]) for row in chain] == [(n_x, n_z)] * 3
        assert [row[0] for row in chain] == [0.0, 0.25, 0.5]
        vals = [row[3] for row in chain]
        assert vals[1] >= vals[0] * (1.0 - 1e-12)
        assert vals[2] >= vals[1] * (1.0 - 1e-12)
    assert (tmp_path / "sweep_range.csv").exists()


def test_run_sweep_range_rejects_bad_ranges(tmp_path):
    cfg = ExperimentConfig.from_dict(small_config_dict(n=2))
    with pytest.raises(ValueError):
        run_sweep_range(cfg, tmp_path, [])
    with pytest.raises(ValueError):
        run_sweep_range(cfg, tmp_path, [-0.1, 0.5])
    for bad in ([0.25, np.inf], [np.nan], [0.25, np.nan]):
        with pytest.raises(ValueError, match="finite"):
            run_sweep_range(cfg, tmp_path / "sweep", bad)
    assert not (tmp_path / "sweep").exists()


def test_run_sweep_range_rejects_an_empty_size_list(tmp_path):
    # an empty size list would sweep nothing and write a header-only CSV
    cfg = ExperimentConfig.from_dict(small_config_dict(n=2))
    with pytest.raises(ConfigError, match="at least one array size"):
        run_sweep_range(cfg, tmp_path / "sweep", [0.5], sizes=[])
    assert not (tmp_path / "sweep").exists()


# -- command-line interface ------------------------------------------------


def test_cli_optimize_succeeds(tmp_path, capsys):
    path = write_config(tmp_path, tiny_config_dict())
    out = tmp_path / "run"
    rc = main(["optimize", "--config", str(path), "--out", str(out)])
    assert rc == 0
    assert "dBm cumulated" in capsys.readouterr().out
    assert (out / "record.json").exists()


def test_cli_beampattern_succeeds(tmp_path, capsys):
    path = write_config(tmp_path, tiny_config_dict())
    out = tmp_path / "run"
    assert main(["optimize", "--config", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    rc = main(["beampattern", "--config", str(path), "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == f"beampattern grid -> {out / 'beampattern.csv'}\n"
    assert (out / "beampattern.csv").exists()


def test_cli_compare_schemes_succeeds(tmp_path, capsys):
    path = write_config(tmp_path, tiny_config_dict())
    out = tmp_path / "cmp"
    rc = main(["compare-schemes", "--config", str(path), "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in printed[:-1]] == [s.value for s in Scheme]
    assert all("dBm cumulated, min target" in line for line in printed[:-1])
    assert printed[-1] == f"summary -> {out / 'summary.csv'}"
    assert len((out / "summary.csv").read_text().splitlines()) == 1 + len(Scheme)
    assert len(list(out.glob("record-*.json"))) == len(Scheme)


def test_cli_rejects_malformed_json(tmp_path, capsys):
    # a file that is not UTF-8 text is as malformed as bad JSON
    path = tmp_path / "broken.json"
    for content in (b"{not json", b"\xff\xfe{"):
        path.write_bytes(content)
        rc = main(["optimize", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(path) in err


def test_cli_rejects_unknown_config_key(tmp_path, capsys):
    raw = tiny_config_dict()
    raw["surprise"] = 1
    path = write_config(tmp_path, raw)
    rc = main(["optimize", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("block, key, value", [
    ("targets", "rcs_re", 1.0),
    ("targets", "rcs_im", 0.0),
    ("algorithm", "init_scheme", "uniform-box"),
    ("geometry", "frequency_hz", 28e9),
    ("algorithm", "grad_tol", 1e-6),
    ("algorithm", "armijo_c", 1e-4),
    ("algorithm", "shrink", 0.5),
    ("algorithm", "initial_step", 1e-2),
])
def test_cli_rejects_removed_config_keys(tmp_path, capsys, block, key, value):
    # targets carry no RCS weight, the start list has no scheme switch,
    # lengths are in wavelengths so no carrier frequency enters, and the
    # ascent line search is fixed; a config that sets these keys is
    # rejected, never silently accepted
    desk = Path(__file__).resolve().parent.parent / "configs" / "desk-10x10.json"
    raw = json.loads(desk.read_text())
    entry = raw[block][0] if block == "targets" else raw[block]
    entry[key] = value
    path = write_config(tmp_path, raw)
    rc = main(["optimize", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 2
    assert f"unknown keys ['{key}']" in capsys.readouterr().err


@pytest.mark.parametrize("block, key, value", [
    ("power", "p_t_dbm", float("nan")),
    ("geometry", "dx_wavelengths", float("nan")),
    ("targets", "theta_deg", float("nan")),
    ("geometry", "d_max_wavelengths", float("inf")),
    ("algorithm", "rel_increase_threshold_db", float("nan")),
])
def test_cli_rejects_non_finite_config_numbers(tmp_path, capsys, block, key, value):
    # json.loads reads the NaN and Infinity literals. They are configuration
    # errors, caught before the output directory is made; a NaN threshold
    # would otherwise be accepted and never stop the loop.
    raw = tiny_config_dict()
    entry = raw[block][0] if block == "targets" else raw[block]
    entry[key] = value
    path = write_config(tmp_path, raw)
    assert ("NaN" if np.isnan(value) else "Infinity") in path.read_text()
    out = tmp_path / "run"
    rc = main(["optimize", "--config", str(path), "--out", str(out)])
    assert rc == 2
    assert f"key '{key}' must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("p_t_dbm", [4000.0, -4000.0])
def test_cli_optimize_refuses_a_power_beyond_the_float_range(tmp_path, capsys, p_t_dbm):
    # 4000 dBm is 1e400 mW, which overflows a float, and -4000 dBm rounds
    # to 0 mW: both are configuration errors, caught before the output
    # directory is made, not a traceback or a solver failure.
    raw = tiny_config_dict()
    raw["power"]["p_t_dbm"] = p_t_dbm
    path = write_config(tmp_path, raw)
    out = tmp_path / "run"
    rc = main(["optimize", "--config", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error:") and "p_t_dbm" in err
    assert not out.exists()


def test_cli_missing_config_file(tmp_path, capsys):
    rc = main(["optimize", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path)])
    assert rc == 4
    assert "cannot read config" in capsys.readouterr().err


def test_cli_beampattern_before_optimize(tmp_path, capsys):
    path = write_config(tmp_path, tiny_config_dict())
    out = tmp_path / "empty"
    out.mkdir()
    rc = main(["beampattern", "--config", str(path), "--out", str(out)])
    assert rc == 4
    assert "missing input" in capsys.readouterr().err


def _grid_must_not_run(*args, **kwargs):
    raise AssertionError("the grid ran on a bad artifact")


def test_cli_beampattern_unreadable_artifact_is_io_error(tmp_path, capsys, monkeypatch):
    # A covariance.csv that does not parse is an I/O problem (exit 4), not a
    # solver failure, and it is reported before any grid work.
    path = write_config(tmp_path, tiny_config_dict())
    out = tmp_path / "run"
    assert main(["optimize", "--config", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    cov = out / "covariance.csv"
    lines = cov.read_text().splitlines()
    cov.write_text("\n".join([lines[0]] + [",".join(ln.split(",")[:3]) for ln in lines[1:]]))
    monkeypatch.setattr("morphbeam.experiments.evaluate_beampattern", _grid_must_not_run)
    rc = main(["beampattern", "--config", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 4
    assert "covariance.csv" in err and "solver failure" not in err
    assert not (out / "beampattern.csv").exists()


def _set_line(k, text):
    "An edit of an artifact's lines that replaces line ``k`` (0 is the header) by text(line)."
    def edit(lines):
        lines[k] = text(lines[k])
        return lines
    return edit


@pytest.mark.parametrize("name, edit, rc, reason", [
    # a non-finite entry of the factor makes the artifact unreadable
    ("covariance.csv", _set_line(1, lambda ln: ln.rsplit(",", 2)[0] + ",nan,0.0"), 4,
     "nan re"),
    # artifact version 3 stored R's entries under this header; read as G they
    # would give a grid of R^2 without an error
    ("covariance.csv", _set_line(0, lambda ln: "row,col,re,im"), 4, "expected header"),
    # a displacement outside d_max does not fit the config's geometry
    ("shape.csv", _set_line(1, lambda ln: ln.split(",")[0] + ",7.5"), 2,
     "exceeds morphing limit"),
    # an infinite displacement is unreadable, like a nan one
    ("shape.csv", _set_line(1, lambda ln: ln.split(",")[0] + ",inf"), 4,
     "infinite displacement_wavelengths"),
], ids=["nan-factor", "version-3-header", "shape-outside-d-max", "inf-shape"])
def test_cli_beampattern_rejects_an_edited_artifact(tmp_path, capsys, monkeypatch,
                                                    name, edit, rc, reason):
    path = write_config(tmp_path, tiny_config_dict())
    out = tmp_path / "run"
    assert main(["optimize", "--config", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    lines = edit((out / name).read_text().splitlines())
    (out / name).write_text("\r\n".join(lines) + "\r\n")
    monkeypatch.setattr("morphbeam.experiments.evaluate_beampattern", _grid_must_not_run)
    assert main(["beampattern", "--config", str(path), "--out", str(out)]) == rc
    err = capsys.readouterr().err
    assert name in err and reason in err and "solver failure" not in err
    assert not (out / "beampattern.csv").exists()


def test_run_beampattern_runs_no_eigh_on_a_rank1_artifact(tmp_path, monkeypatch):
    # The grid sweeps the stored factor: on a rank-1 N = 400 artifact nothing
    # factors an N x N matrix, and the grid matches the one on R = G G^H.
    raw = small_config_dict(n=20, grid=31)
    cfg = ExperimentConfig.from_dict(raw)
    geom = cfg.build_geometry()
    rng = np.random.default_rng(5)
    w = np.sqrt(dbm_to_mw(10.0) / 400) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 400))
    r = np.outer(w, w.conj())
    write_covariance_csv(tmp_path / "covariance.csv", r)
    shape = SurfaceShape(rng.uniform(-0.5, 0.5, 400))
    write_shape_csv(tmp_path / "shape.csv", shape.displacements)
    assert read_covariance_csv(tmp_path / "covariance.csv").shape == (400, 1)

    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh ran during the beampattern command")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    grid = read_beampattern_csv(run_beampattern(cfg, tmp_path))
    monkeypatch.undo()
    axis = np.linspace(0.0, np.pi, 31)
    want = evaluate_beampattern(CovarianceMatrix(r=r, power_budget=dbm_to_mw(10.0)), geom,
                                shape, axis, axis)
    mw, want_mw = 10.0 ** (grid.power_dbm / 10.0), 10.0 ** (want.power_dbm / 10.0)
    np.testing.assert_array_less(np.abs(mw - want_mw), 1e-12 * want_mw.max())


@pytest.mark.parametrize("artifact", ["covariance.csv", "shape.csv"])
def test_cli_beampattern_artifact_that_does_not_fit_is_config_error(tmp_path, capsys,
                                                                    monkeypatch, artifact):
    # Artifacts of a 2x2 run under a 3x3 config do not fit its geometry:
    # a configuration error (exit 2) that names the file, before any grid work.
    small = write_config(tmp_path, tiny_config_dict(), name="small.json")
    out = tmp_path / "run"
    assert main(["optimize", "--config", str(small), "--out", str(out)]) == 0
    capsys.readouterr()
    if artifact == "shape.csv":
        # keep a covariance that fits, so only the shape is the wrong size
        r = np.eye(9, dtype=complex) * dbm_to_mw(10.0) / 9
        write_covariance_csv(out / "covariance.csv", r)
    large = write_config(tmp_path, small_config_dict(n=3), name="large.json")
    monkeypatch.setattr("morphbeam.experiments.evaluate_beampattern", _grid_must_not_run)
    rc = main(["beampattern", "--config", str(large), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error:") and artifact in err
    assert not (out / "beampattern.csv").exists()


def test_cli_beampattern_refuses_a_covariance_of_another_power_budget(tmp_path, capsys,
                                                                    monkeypatch):
    # covariance.csv of a 10 dBm run does not meet a 30 dBm config's
    # per-antenna budget: a configuration error naming the file, not a grid
    # drawn at the stored 10 dBm
    raw = tiny_config_dict()
    path = write_config(tmp_path, raw)
    out = tmp_path / "run"
    assert main(["optimize", "--config", str(path), "--out", str(out)]) == 0
    raw["power"]["p_t_dbm"] = 30.0
    louder = write_config(tmp_path, raw, name="louder.json")
    capsys.readouterr()
    with monkeypatch.context() as m:
        m.setattr("morphbeam.experiments.evaluate_beampattern", _grid_must_not_run)
        assert main(["beampattern", "--config", str(louder), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "covariance.csv" in err
    assert "per-antenna diagonal" in err
    assert not (out / "beampattern.csv").exists()
    assert main(["beampattern", "--config", str(path), "--out", str(out)]) == 0


def test_cli_solver_failure_exit_code(tmp_path, capsys, monkeypatch):
    path = write_config(tmp_path, tiny_config_dict())

    def boom(*args, **kwargs):
        raise SolverFailure("synthetic failure")

    monkeypatch.setattr("morphbeam.cli.run_optimize", boom)
    rc = main(["optimize", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 3
    assert "solver failure" in capsys.readouterr().err


def test_cli_linear_algebra_failure_names_the_scheme(tmp_path, capsys, monkeypatch):
    path = write_config(tmp_path, tiny_config_dict())

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("synthetic singular matrix")

    monkeypatch.setattr("morphbeam.experiments.solve_benchmark", singular)
    rc = main(["optimize", "--config", str(path), "--out", str(tmp_path / "run")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "linear algebra failure in scheme fim-mimo" in err
    assert "synthetic singular matrix" in err


def test_cli_seed_override_changes_record(tmp_path):
    path = write_config(tmp_path, tiny_config_dict())
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["optimize", "--config", str(path), "--out", str(out_a)]) == 0
    assert main(["optimize", "--config", str(path), "--out", str(out_b),
                 "--seed", "3"]) == 0
    rec_a = ResultRecord.load(out_a / "record.json")
    rec_b = ResultRecord.load(out_b / "record.json")
    assert rec_a.seed == 0
    assert rec_b.seed == 3
    assert rec_a.config_digest != rec_b.config_digest


def test_cli_reruns_are_bitwise_reproducible(tmp_path):
    path = write_config(tmp_path, tiny_config_dict())
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["optimize", "--config", str(path), "--out", str(out_a)]) == 0
    assert main(["optimize", "--config", str(path), "--out", str(out_b)]) == 0
    rec_a = ResultRecord.load(out_a / "record.json")
    rec_b = ResultRecord.load(out_b / "record.json")
    assert rec_a.canonical_json() == rec_b.canonical_json()
    assert rec_a.digest() == rec_b.digest()
    assert ((out_a / "covariance.csv").read_text()
            == (out_b / "covariance.csv").read_text())
    assert (out_a / "shape.csv").read_text() == (out_b / "shape.csv").read_text()


def test_cli_rejects_malformed_sizes(tmp_path):
    path = write_config(tmp_path, tiny_config_dict())
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep-range", "--config", str(path), "--out", str(tmp_path),
              "--sizes", "4y4"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("command, bad_args, message", [
    ("sweep-power", ["--p-t-dbm", "1,abc"], "not a comma-separated float list: '1,abc'"),
    ("sweep-range", ["--sizes", "4xa"], "sizes look like 10x10, got '4xa'"),
    ("sweep-range", ["--sizes", ","], "empty size list"),
], ids=["float-list", "size-not-int", "empty-sizes"])
def test_cli_rejects_malformed_lists(tmp_path, capsys, command, bad_args, message):
    path = write_config(tmp_path, tiny_config_dict())
    out = tmp_path / "sweep"
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--config", str(path), "--out", str(out), *bad_args])
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_beampattern_refuses_a_seed(tmp_path, capsys):
    # The grid reads the optimize artifacts, so a seed would change nothing.
    path = write_config(tmp_path, tiny_config_dict())
    out = tmp_path / "run"
    assert main(["optimize", "--config", str(path), "--out", str(out)]) == 0
    with pytest.raises(SystemExit) as excinfo:
        main(["beampattern", "--config", str(path), "--out", str(out), "--seed", "7"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err
    assert not (out / "beampattern.csv").exists()


def test_cli_rejects_threads_flag(tmp_path):
    path = write_config(tmp_path, tiny_config_dict())
    with pytest.raises(SystemExit) as excinfo:
        main(["optimize", "--config", str(path), "--out", str(tmp_path),
              "--threads", "2"])
    assert excinfo.value.code == 2
    assert not (tmp_path / "record.json").exists()


@pytest.mark.parametrize("command, sweep_args", [
    ("sweep-range", ["--d-max=-0.1,0.5"]),
    ("sweep-range", ["--d-max="]),
    ("sweep-range", ["--d-max", "0.5", "--sizes", "0x2"]),
    ("sweep-power", ["--p-t-dbm="]),
    ("sweep-power", ["--p-t-dbm", "nan"]),
    ("sweep-power", ["--p-t-dbm=-inf"]),
    ("sweep-range", ["--d-max", "0.25,inf"]),
    ("sweep-range", ["--d-max", "0.25,nan"]),
    ("sweep-power", ["--p-t-dbm", "10,4000"]),
    ("sweep-power", ["--p-t-dbm=10,-4000"]),
])
def test_cli_rejects_bad_sweep_arguments_before_output(tmp_path, capsys, command,
                                                       sweep_args):
    # Invalid sweep arguments are configuration errors (exit 2), not solver
    # failures, and are caught before the output directory is made.
    path = write_config(tmp_path, tiny_config_dict())
    out = tmp_path / "sweep"
    rc = main([command, "--config", str(path), "--out", str(out), *sweep_args])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


def test_cli_sweep_power_writes_rows(tmp_path, capsys):
    path = write_config(tmp_path, tiny_config_dict())
    out = tmp_path / "sweep"
    rc = main(["sweep-power", "--config", str(path), "--out", str(out),
               "--p-t-dbm", "0,10"])
    assert rc == 0
    lines = (out / "sweep_power.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * len(Scheme)


def test_cli_sweep_range_writes_rows(tmp_path, capsys):
    path = write_config(tmp_path, tiny_config_dict())
    out = tmp_path / "sweep"
    rc = main(["sweep-range", "--config", str(path), "--out", str(out),
               "--d-max", "0,0.25"])
    assert rc == 0
    lines = (out / "sweep_range.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 2


@pytest.mark.parametrize("sweep_args", [
    ["--d-max", "0,0.5"],                        # 0.4 exceeds the smallest range
    ["--d-max", "0.5", "--sizes", "2x2,3x3"],    # four entries for nine elements
])
def test_cli_sweep_range_rejects_init_that_does_not_fit(tmp_path, capsys, sweep_args):
    raw = tiny_config_dict()
    raw["algorithm"]["init_displacements"] = [0.4] * 4
    path = write_config(tmp_path, raw)
    out = tmp_path / "sweep"
    rc = main(["sweep-range", "--config", str(path), "--out", str(out), *sweep_args])
    assert rc == 2
    assert "init_displacements" in capsys.readouterr().err
    assert not (out / "sweep_range.csv").exists()


def test_cli_sweep_range_runs_with_init_that_fits(tmp_path, capsys):
    raw = tiny_config_dict()
    raw["algorithm"]["init_displacements"] = [0.4] * 4
    path = write_config(tmp_path, raw)
    out = tmp_path / "sweep"
    rc = main(["sweep-range", "--config", str(path), "--out", str(out),
               "--d-max", "0.4,0.5"])
    assert rc == 0
    lines = (out / "sweep_range.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 2
