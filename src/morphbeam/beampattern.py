"""Transmit beampattern evaluation over elevation/azimuth grids.

Radiated power toward a direction is the quadratic form a^H R_X a of the
steering vector, in linear milliwatts; grids convert to dBm with a floor so
downstream files stay finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .array_model import ArrayGeometry, SurfaceShape, TargetSet, steering_matrix, response_matrix
from .objective import column_powers, cumulated_power
from .units import DBM_FLOOR

# directions per matrix product when sweeping a grid; bounds peak memory
_GRID_CHUNK = 4096

DEFAULT_GRID_POINTS = 181


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
            if np.any(ax < 0.0) or np.any(ax > np.pi):
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


def default_axes(n_points: int = DEFAULT_GRID_POINTS) -> tuple[np.ndarray, np.ndarray]:
    "Uniform axes over [0, pi], the full elevation/azimuth domain."
    ax = np.linspace(0.0, np.pi, n_points)
    return ax, ax.copy()


def evaluate_beampattern(
    r_x,
    geom: ArrayGeometry,
    shape: SurfaceShape,
    theta_axis: np.ndarray | None = None,
    phi_axis: np.ndarray | None = None,
) -> BeampatternGrid:
    """Quadratic-form power a^H R_X a on the cartesian product of the axes.

    Axes default to 181 uniform points over [0, pi] each. Directions are
    evaluated in chunks so the steering matrix never materializes for the
    whole grid at once.
    """
    if theta_axis is None or phi_axis is None:
        t_def, p_def = default_axes()
        theta_axis = t_def if theta_axis is None else theta_axis
        phi_axis = p_def if phi_axis is None else phi_axis
    theta_axis = np.asarray(theta_axis, dtype=float).ravel()
    phi_axis = np.asarray(phi_axis, dtype=float).ravel()
    r = getattr(r_x, "r", r_x)

    tt, pp = np.meshgrid(theta_axis, phi_axis, indexing="ij")
    flat_t = tt.ravel()
    flat_p = pp.ravel()
    power = np.empty(flat_t.size)
    for lo in range(0, flat_t.size, _GRID_CHUNK):
        hi = min(lo + _GRID_CHUNK, flat_t.size)
        a = steering_matrix(geom, flat_t[lo:hi], flat_p[lo:hi], shape.displacements)
        power[lo:hi] = np.real(column_powers(a, r @ a))

    grid = _mw_to_dbm_vec(power).reshape(theta_axis.size, phi_axis.size)
    return BeampatternGrid(theta_axis=theta_axis, phi_axis=phi_axis, power_dbm=grid)


def target_powers(
    r_x,
    geom: ArrayGeometry,
    targets: TargetSet,
    shape: SurfaceShape,
) -> tuple[np.ndarray, float, float]:
    """Per-target powers in dBm, their linear sum in mW, and the minimum dBm.

    The linear sum equals :func:`morphbeam.objective.cumulated_power` by
    construction (same quadratic forms, same summation).
    """
    rm = response_matrix(geom, targets, shape)
    r = getattr(r_x, "r", r_x)
    per_mw = np.real(column_powers(rm.a, r @ rm.a))
    per_dbm = _mw_to_dbm_vec(per_mw)
    return per_dbm, cumulated_power(r, rm), float(per_dbm.min())
