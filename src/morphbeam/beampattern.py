"""Transmit beampattern evaluation over elevation/azimuth grids.

Radiated power toward a direction is the quadratic form a^H R_X a of the
steering vector, in linear milliwatts; grids convert to dBm with a floor so
downstream files stay finite. Every power here takes a
:class:`~morphbeam.covariance.CovarianceMatrix` and works on its N x k
factor G (R_X = G G^H, what ``covariance.csv`` stores): a direction's power
is ||G^H a||^2, k inner products instead of the N of R_X a, and no N x N
matrix is formed. A certified rank-1 optimum has k = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .array_model import ArrayGeometry, SurfaceShape, TargetSet, steering_matrix, response_matrix
from .covariance import CovarianceMatrix, _factor, column_powers
from .objective import cumulated_power
from .units import DBM_FLOOR

# directions per steering build when sweeping a grid; bounds peak memory
# (about 13 MB of traced allocations for N = 400 elements and k = 3)
_GRID_CHUNK = 512


def _mw_to_dbm_vec(p_mw: np.ndarray) -> np.ndarray:
    "Elementwise dBm with the documented floor; tolerates zeros."
    p = np.asarray(p_mw, dtype=float)
    out = np.full(p.shape, DBM_FLOOR)
    pos = p > 0.0
    out[pos] = np.maximum(10.0 * np.log10(p[pos]), DBM_FLOOR)
    return out


@dataclass
class BeampatternGrid:
    """Power map in dBm over an elevation x azimuth grid (radians)."""

    theta_axis: np.ndarray
    phi_axis: np.ndarray
    power_dbm: np.ndarray

    def __post_init__(self) -> None:
        self.theta_axis = np.asarray(self.theta_axis, dtype=float).ravel()
        self.phi_axis = np.asarray(self.phi_axis, dtype=float).ravel()
        self.power_dbm = np.asarray(self.power_dbm, dtype=float)
        for name, ax in (("theta_axis", self.theta_axis), ("phi_axis", self.phi_axis)):
            if ax.size < 1:
                raise ValueError(f"{name} is empty")
            if not np.all((ax >= 0.0) & (ax <= np.pi)):        # NaN fails too
                raise ValueError(f"{name} must lie within [0, pi]")
            if ax.size > 1 and np.any(np.diff(ax) <= 0.0):
                raise ValueError(f"{name} must be strictly increasing")
        if self.power_dbm.shape != (self.theta_axis.size, self.phi_axis.size):
            raise ValueError(
                f"power grid shape {self.power_dbm.shape} does not match axes "
                f"({self.theta_axis.size}, {self.phi_axis.size})"
            )
        if not np.all(np.isfinite(self.power_dbm)):
            raise ValueError("power grid contains non-finite entries")


def evaluate_beampattern(
    cov: CovarianceMatrix,
    geom: ArrayGeometry,
    shape: SurfaceShape,
    theta_axis: np.ndarray,
    phi_axis: np.ndarray,
) -> BeampatternGrid:
    """Power ||G^H a||^2 = a^H R_X a on the cartesian product of the axes.

    The sweep runs on ``cov``'s N x k factor G, R_X = G G^H. Anything but
    a :class:`~morphbeam.covariance.CovarianceMatrix` raises TypeError, since
    an N x N R_X read as G would draw R_X^2, and a G without N rows raises
    ValueError.

    Directions are visited in order of sin(theta) sin(phi) and in chunks of
    ``_GRID_CHUNK``, so the steering matrix never materializes for the whole
    grid at once and each chunk's directions share few displacement phases
    (on a 181 x 181 grid over [0, pi]^2, 32,761 directions have 10,031
    distinct values).
    """
    g_h = _factor(cov, geom.n_elements).conj().T
    theta_axis = np.asarray(theta_axis, dtype=float).ravel()
    phi_axis = np.asarray(phi_axis, dtype=float).ravel()

    tt, pp = np.meshgrid(theta_axis, phi_axis, indexing="ij")
    order = np.argsort((np.sin(tt) * np.sin(pp)).ravel(), kind="stable")
    flat_t = tt.ravel()[order]
    flat_p = pp.ravel()[order]
    power = np.empty(order.size)
    for lo in range(0, order.size, _GRID_CHUNK):
        hi = min(lo + _GRID_CHUNK, order.size)
        a = steering_matrix(geom, flat_t[lo:hi], flat_p[lo:hi], shape.displacements)
        power[order[lo:hi]] = np.sum(np.abs(g_h @ a) ** 2, axis=0)

    grid = _mw_to_dbm_vec(power).reshape(theta_axis.size, phi_axis.size)
    return BeampatternGrid(theta_axis=theta_axis, phi_axis=phi_axis, power_dbm=grid)


def target_powers(
    cov: CovarianceMatrix,
    geom: ArrayGeometry,
    targets: TargetSet,
    shape: SurfaceShape,
) -> tuple[np.ndarray, float, float]:
    """Per-target powers in dBm, their linear sum in mW, and the minimum dBm.

    The linear sum equals :func:`morphbeam.objective.cumulated_power` by
    construction (same quadratic forms, same summation).
    """
    g = _factor(cov, geom.n_elements)
    rm = response_matrix(geom, targets, shape)
    gha = g.conj().T @ rm.a
    per_dbm = _mw_to_dbm_vec(np.real(column_powers(gha, gha)))
    return per_dbm, cumulated_power(cov, rm), float(per_dbm.min())
