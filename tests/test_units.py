import numpy as np
import pytest

from morphbeam.units import DBM_FLOOR, dbm_to_mw, mw_to_dbm


def test_dbm_mw_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p_dbm = float(rng.uniform(-50.0, 50.0))
        assert mw_to_dbm(dbm_to_mw(p_dbm)) == pytest.approx(p_dbm, abs=1e-12)


def test_known_conversions():
    assert dbm_to_mw(0.0) == 1.0
    assert dbm_to_mw(10.0) == pytest.approx(10.0)
    assert dbm_to_mw(30.0) == pytest.approx(1000.0)
    assert mw_to_dbm(1.0) == 0.0


def test_dbm_floor_for_nonpositive_power():
    assert mw_to_dbm(0.0) == DBM_FLOOR
    assert mw_to_dbm(-3.0) == DBM_FLOOR
    assert mw_to_dbm(1e-300) <= DBM_FLOOR


def test_powers_beyond_the_float_range():
    # 4000 dBm is 1e400 mW, and -4000 dBm rounds to 0 mW
    assert dbm_to_mw(4000.0) == np.inf
    assert dbm_to_mw(-4000.0) == 0.0
    assert dbm_to_mw(3000.0) == pytest.approx(1e300)
