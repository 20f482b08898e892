"""Unit conversions shared by the I/O layers.

Internal computations are carried out in linear milliwatts, radians, and
wavelength-normalized lengths; dBm and degrees appear only at the
command-line / file boundary.
"""

from __future__ import annotations

import math

DBM_FLOOR = -200.0
"""Smallest dBm value emitted for (numerically) zero linear power."""


def dbm_to_mw(p_dbm: float) -> float:
    "Convert dBm to linear milliwatts: inf above the float range, 0.0 below it."
    try:
        return 10.0 ** (p_dbm / 10.0)
    except OverflowError:
        return math.inf


def mw_to_dbm(p_mw: float) -> float:
    "Convert linear milliwatts to dBm, floored for zero/negative power."
    if p_mw <= 0.0:
        return DBM_FLOOR
    return max(10.0 * math.log10(p_mw), DBM_FLOOR)

