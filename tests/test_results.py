"""Result records and CSV artifact round trips."""

import numpy as np
import pytest

from morphbeam.beampattern import BeampatternGrid
from morphbeam.results import (
    BEAMPATTERN_HEADER,
    COMPARE_HEADER,
    COVARIANCE_HEADER,
    SHAPE_HEADER,
    SWEEP_POWER_HEADER,
    SWEEP_RANGE_HEADER,
    ResultRecord,
    read_beampattern_csv,
    read_covariance_csv,
    read_shape_csv,
    write_beampattern_csv,
    write_compare_csv,
    write_covariance_csv,
    write_shape_csv,
    write_sweep_power_csv,
    write_sweep_range_csv,
)


def sample_record(**overrides):
    kw = dict(
        config_digest="ab" * 32,
        scheme="fim-mimo",
        seed=3,
        objective_mw=1454.93,
        objective_dbm=31.6,
        per_target_dbm=[25.6, 25.6, 28.5],
        min_target_dbm=25.6,
        outer_iterations=18,
        sdp_all_converged=True,
        max_sdp_gap=1.1e-7,
        termination_reason="threshold",
        wall_time_seconds=8.2,
    )
    kw.update(overrides)
    return ResultRecord(**kw)


class TestResultRecord:
    def test_save_load_round_trip(self, tmp_path):
        rec = sample_record()
        rec.save(tmp_path / "record.json")
        back = ResultRecord.load(tmp_path / "record.json")
        assert back == rec

    def test_canonical_form_ignores_wall_time(self):
        a = sample_record(wall_time_seconds=1.0)
        b = sample_record(wall_time_seconds=99.0)
        assert a.canonical_json() == b.canonical_json()
        assert a.digest() == b.digest()
        assert "wall_time" not in a.canonical_json()

    def test_digest_tracks_payload(self):
        assert sample_record().digest() != sample_record(seed=4).digest()

    def test_version_gate(self):
        d = sample_record().to_dict()
        d["artifact_version"] = 999
        with pytest.raises(ValueError):
            ResultRecord.from_dict(d)


class TestCsvRoundTrips:
    def test_covariance_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        r = g @ g.conj().T
        path = tmp_path / "cov.csv"
        write_covariance_csv(path, r)
        assert path.read_text().splitlines()[0] == ",".join(COVARIANCE_HEADER)
        back = read_covariance_csv(path)
        np.testing.assert_array_equal(back, r)   # str() round-trips doubles

    def test_shape_exact(self, tmp_path):
        d = np.array([0.0, -0.25, 0.3333333333333333, 1e-17])
        path = tmp_path / "shape.csv"
        write_shape_csv(path, d)
        assert path.read_text().splitlines()[0] == ",".join(SHAPE_HEADER)
        np.testing.assert_array_equal(read_shape_csv(path), d)

    def test_beampattern_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        grid = BeampatternGrid(
            theta_axis=np.linspace(0.0, np.pi, 7),
            phi_axis=np.linspace(0.0, np.pi, 5),
            power_dbm=rng.uniform(-40, 30, (7, 5)),
        )
        path = tmp_path / "bp.csv"
        write_beampattern_csv(path, grid)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(BEAMPATTERN_HEADER)
        assert len(lines) == 1 + 7 * 5
        back = read_beampattern_csv(path)
        # angles pass through a degree conversion, so allow rounding there
        np.testing.assert_allclose(back.theta_axis, grid.theta_axis, atol=1e-12)
        np.testing.assert_allclose(back.phi_axis, grid.phi_axis, atol=1e-12)
        np.testing.assert_array_equal(back.power_dbm, grid.power_dbm)

    def test_header_mismatch_detected(self, tmp_path):
        path = tmp_path / "cov.csv"
        write_shape_csv(path, np.zeros(3))       # wrong artifact on purpose
        with pytest.raises(ValueError):
            read_covariance_csv(path)

    def test_sweep_and_compare_writers(self, tmp_path):
        p_path = tmp_path / "sp.csv"
        write_sweep_power_csv(p_path, [(10.0, "raa-pa", 1.5, 1.76)])
        assert p_path.read_text().splitlines()[0] == ",".join(SWEEP_POWER_HEADER)

        r_path = tmp_path / "sr.csv"
        write_sweep_range_csv(r_path, [(0.5, 10, 10, 1454.9)])
        assert r_path.read_text().splitlines()[0] == ",".join(SWEEP_RANGE_HEADER)

        c_path = tmp_path / "cmp.csv"
        write_compare_csv(c_path, [("fim-mimo", 1454.9, 31.6, 25.6)])
        assert c_path.read_text().splitlines()[0] == ",".join(COMPARE_HEADER)
