"""Transmit beampattern evaluation over elevation/azimuth grids.

Radiated power toward a direction is the quadratic form a^H R_X a of the
steering vector, in linear milliwatts; grids convert to dBm with a floor so
downstream files stay finite. A grid sweeps R_X as a sum of rank-1 terms,
R_X = sum_i lam_i u_i u_i^H, and takes each direction's power as
sum_i lam_i |u_i^H a|^2: k inner products per direction instead of the N of
R_X a. A :class:`CovarianceFactor` G (R_X = G G^H, what ``covariance.csv``
stores) is swept as it is, with lam = 1; a dense R_X is factored once into
its k numerically nonzero eigenpairs. A certified rank-1 optimum has k = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .array_model import ArrayGeometry, SurfaceShape, TargetSet, steering_matrix, response_matrix
from .objective import _as_matrix, _check_covariance, column_powers, cumulated_power
from .units import DBM_FLOOR

# directions per matrix product when sweeping a grid; bounds peak memory
# (about 31 MB of traced allocations for N = 400 elements)
_GRID_CHUNK = 1024


def _eigenpairs(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (lam, U_k) of R's Hermitian part with |lam| > N eps max|lam|.

    ``eigh`` alone would read one triangle only; the Hermitian part keeps
    Re(a^H R a) exact. Negative eigenvalues above the cut are kept, and R = 0
    keeps none. What is dropped is at most N^2 eps max|lam| in any quadratic
    form a^H R a with unit-modulus a, the size of the rounding of a^H (R a).
    """
    lam, u = np.linalg.eigh(0.5 * (r + r.conj().T))
    keep = np.abs(lam) > r.shape[0] * np.finfo(float).eps * np.max(np.abs(lam))
    return lam[keep], u[:, keep]


@dataclass(frozen=True)
class CovarianceFactor:
    """A covariance given by its N x k factor G, R_X = G G^H."""

    g: np.ndarray

    def __post_init__(self) -> None:
        g = np.asarray(self.g, dtype=complex)
        if g.ndim != 2 or 0 in g.shape:
            raise ValueError(f"covariance factor must be a nonempty N x k matrix, "
                             f"got shape {g.shape}")
        if not np.all(np.isfinite(g)):
            raise ValueError("covariance factor has non-finite entries")
        object.__setattr__(self, "g", g)


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
    r_x,
    geom: ArrayGeometry,
    shape: SurfaceShape,
    theta_axis: np.ndarray,
    phi_axis: np.ndarray,
) -> BeampatternGrid:
    """Quadratic-form power Re(a^H R_X a) on the cartesian product of the axes.

    ``r_x`` is a :class:`CovarianceFactor` G or a dense R_X (an ndarray or a
    CovarianceMatrix). Each direction's power is lam . |U_k^H a|^2:

    - for G, U_k = G and lam = 1, so no N x N matrix is formed or factored;
    - for a dense R_X, U_k and lam are the eigenpairs of its Hermitian part
      above rounding (:func:`_eigenpairs`), negative ones included, so an
      indefinite R_X still gives its exact quadratic forms and R_X = 0 keeps
      none (the grid sits at the dBm floor). A full-rank R_X keeps all N
      pairs and costs one ``eigh`` plus one product of the size of R_X A.

    Directions are visited in order of sin(theta) sin(phi) and in chunks of
    ``_GRID_CHUNK``, so the steering matrix never materializes for the whole
    grid at once and each chunk's directions share few displacement phases
    (on a 181 x 181 grid over [0, pi]^2, 32,761 directions have 10,031
    distinct values). Raises ValueError if G does not have N rows, or if a
    dense R_X is not a finite Hermitian N x N matrix.
    """
    theta_axis = np.asarray(theta_axis, dtype=float).ravel()
    phi_axis = np.asarray(phi_axis, dtype=float).ravel()
    n = geom.n_elements
    if isinstance(r_x, CovarianceFactor):
        if r_x.g.shape[0] != n:
            raise ValueError(f"covariance factor has {r_x.g.shape[0]} rows, expected {n}")
        lam, u_k = np.ones(r_x.g.shape[1]), r_x.g
    else:
        lam, u_k = _eigenpairs(_check_covariance(_as_matrix(r_x), n))
    u_h = u_k.conj().T

    tt, pp = np.meshgrid(theta_axis, phi_axis, indexing="ij")
    order = np.argsort((np.sin(tt) * np.sin(pp)).ravel(), kind="stable")
    flat_t = tt.ravel()[order]
    flat_p = pp.ravel()[order]
    power = np.empty(order.size)
    for lo in range(0, order.size, _GRID_CHUNK):
        hi = min(lo + _GRID_CHUNK, order.size)
        a = steering_matrix(geom, flat_t[lo:hi], flat_p[lo:hi], shape.displacements)
        power[order[lo:hi]] = lam @ np.abs(u_h @ a) ** 2

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
    r = _as_matrix(r_x)
    per_mw = np.real(column_powers(rm.a, r @ rm.a))
    per_dbm = _mw_to_dbm_vec(per_mw)
    return per_dbm, cumulated_power(r, rm), float(per_dbm.min())
