"""Strict JSON experiment-config parsing and domain-object builders."""

import json

import numpy as np
import pytest

from morphbeam.bcd import BcdConfig, Scheme
from morphbeam.config import ConfigError, ExperimentConfig, load_config


def base_dict(**overrides):
    d = {
        "geometry": {
            "n_x": 3, "n_z": 3,
            "dx_wavelengths": 0.5, "dz_wavelengths": 0.5,
            "d_max_wavelengths": 0.5,
        },
        "targets": [
            {"theta_deg": 30.0, "phi_deg": 60.0},
            {"theta_deg": 135.0, "phi_deg": 90.0},
        ],
        "power": {"p_t_dbm": 10.0},
        "algorithm": {"scheme": "fim-mimo", "n_starts": 2,
                      "max_outer_iters": 8, "ascent_max_iters": 120},
        "output": {"dir": "out", "grid_points": 25},
        "seed": 0,
    }
    d.update(overrides)
    return d


class TestParsing:
    def test_round_trip(self):
        cfg = ExperimentConfig.from_dict(base_dict())
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert cfg.to_dict() == again.to_dict()
        assert cfg.digest() == again.digest()

    def test_digest_tracks_content(self):
        cfg1 = ExperimentConfig.from_dict(base_dict())
        cfg2 = ExperimentConfig.from_dict(base_dict(seed=1))
        assert cfg1.digest() != cfg2.digest()
        assert len(cfg1.digest()) == 64

    def test_canonical_json_is_key_sorted(self):
        text = ExperimentConfig.from_dict(base_dict()).canonical_json()
        parsed = json.loads(text)
        assert list(parsed) == sorted(parsed)

    def test_defaults(self):
        d = base_dict()
        del d["algorithm"], d["output"], d["seed"]
        cfg = ExperimentConfig.from_dict(d)
        assert cfg.seed == 0
        assert cfg.scheme is Scheme.FIM_MIMO
        assert cfg.algorithm.n_starts == 4
        assert cfg.output.grid_points == 181

    def test_empty_algorithm_block_matches_bcd_defaults(self):
        cfg = ExperimentConfig.from_dict(base_dict(algorithm={}, seed=7))
        assert cfg.build_bcd() == BcdConfig(rng_seed=7)

    def test_unknown_keys_rejected_everywhere(self):
        for breaker in (
            lambda d: d.update(extra=1),
            lambda d: d["geometry"].update(extra=1),
            lambda d: d["targets"][0].update(extra=1),
            lambda d: d["power"].update(extra=1),
            lambda d: d["algorithm"].update(extra=1),
            lambda d: d["output"].update(extra=1),
        ):
            d = base_dict()
            breaker(d)
            with pytest.raises(ConfigError):
                ExperimentConfig.from_dict(d)

    def test_missing_required_keys(self):
        d = base_dict()
        del d["geometry"]["n_x"]
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d)
        d = base_dict()
        del d["power"]
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d)

    def test_type_errors(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(base_dict(seed="zero"))
        d = base_dict()
        d["geometry"]["n_x"] = True          # bools are not ints here
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d)
        d = base_dict()
        d["geometry"]["dx_wavelengths"] = "0.5"
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d)
        with pytest.raises(ConfigError, match="config root must be an object, got list"):
            ExperimentConfig.from_dict([base_dict()])

    def test_integer_beyond_float_range_is_config_error(self):
        # float() overflows on it; it is as unusable as the Infinity literal
        d = base_dict()
        d["power"]["p_t_dbm"] = 10 ** 400
        with pytest.raises(ConfigError, match="key 'p_t_dbm' must be finite"):
            ExperimentConfig.from_dict(json.loads(json.dumps(d)))

    def test_target_entries_must_be_objects(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(base_dict(targets=[1.0]))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(base_dict(targets=[]))

    def test_bad_enum_values(self):
        d = base_dict()
        d["algorithm"]["scheme"] = "maximal-beam"
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d)
        # there is no init_scheme key; n_starts alone sets the start list
        d = base_dict()
        d["algorithm"]["init_scheme"] = "random-walk"
        with pytest.raises(ConfigError, match=r"unknown keys \['init_scheme'\]"):
            ExperimentConfig.from_dict(d)

    def test_semantic_validation(self):
        d = base_dict(seed=-1)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d)
        d = base_dict()
        d["geometry"]["d_max_wavelengths"] = -0.5
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d)
        d = base_dict()
        d["targets"][0]["theta_deg"] = 200.0
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d)
        d = base_dict()
        d["output"]["grid_points"] = 1
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d)
        d = base_dict()
        d["algorithm"]["ascent_max_iters"] = 0
        with pytest.raises(ConfigError, match="ascent_max_iters"):
            ExperimentConfig.from_dict(d)

    def test_init_displacements_checked_against_geometry(self):
        d = base_dict()
        d["algorithm"]["init_displacements"] = [0.0] * 5   # wrong length
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d)
        d = base_dict()
        d["algorithm"]["init_displacements"] = [0.9] * 9   # outside the box
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d)
        d = base_dict()
        d["algorithm"]["init_displacements"] = ["a"] * 9
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d)
        d = base_dict()
        d["algorithm"]["init_displacements"] = [float("nan")] + [0.0] * 8
        with pytest.raises(ConfigError, match="non-finite"):
            ExperimentConfig.from_dict(d)
        d = base_dict()
        d["algorithm"]["init_displacements"] = [0.1] * 9
        cfg = ExperimentConfig.from_dict(d)
        ((shape, cov),) = cfg.build_starts()
        np.testing.assert_allclose(shape.displacements, 0.1)
        assert cov is None

    def test_config_error_is_value_error(self):
        assert issubclass(ConfigError, ValueError)


class TestBuilders:
    def test_geometry_units(self):
        cfg = ExperimentConfig.from_dict(base_dict())
        geom = cfg.build_geometry()
        assert geom.n_elements == 9
        assert geom.dx == 0.5
        assert geom.d_max == 0.5

    def test_targets_in_radians(self):
        cfg = ExperimentConfig.from_dict(base_dict())
        ts = cfg.build_targets()
        np.testing.assert_allclose(ts.thetas, np.deg2rad([30.0, 135.0]))
        np.testing.assert_allclose(ts.phis, np.deg2rad([60.0, 90.0]))

    def test_bcd_wiring(self):
        d = base_dict(seed=5)
        d["algorithm"]["rel_increase_threshold_db"] = -20.0
        cfg = ExperimentConfig.from_dict(d)
        bcd = cfg.build_bcd()
        assert bcd.rng_seed == 5
        assert bcd.rel_increase_threshold == pytest.approx(1e-2)
        assert bcd.ascent_max_iters == 120

    def test_init_shape_none_when_unset(self):
        cfg = ExperimentConfig.from_dict(base_dict())
        assert cfg.build_starts() == ()


class TestLoadConfig:
    def test_reads_valid_file(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(base_dict()))
        cfg = load_config(path)
        assert cfg.p_t_dbm == 10.0

    def test_malformed_json_is_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_file_is_os_error(self, tmp_path):
        with pytest.raises(OSError):
            load_config(tmp_path / "nope.json")

    def test_bundled_reference_config_parses(self):
        from pathlib import Path
        path = Path(__file__).resolve().parent.parent / "configs" / "desk-10x10.json"
        cfg = load_config(path)
        assert cfg.build_geometry().n_elements == 100
        assert cfg.build_targets().n_targets == 3

    def test_bundled_reference_config_digest_is_stable(self):
        # config_digest in every record hashes this; a parsing or default
        # change that alters it breaks comparison with earlier records.
        from pathlib import Path
        path = Path(__file__).resolve().parent.parent / "configs" / "desk-10x10.json"
        assert load_config(path).digest() == (
            "7b7f2addfae57ea6d0651c8a092a408b590e84843ac746f2c5d428e97eb25dfb")
