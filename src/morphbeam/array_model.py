"""Geometry, steering vectors, and response matrices for a morphable planar array.

The array is a uniform planar array in the xz plane whose elements can be
displaced along the surface normal (y axis). Element n sits at
``(i_x * dx, displacement_n, i_z * dz)`` with the flat index convention

    n = i_z * n_x + i_x        (0-based, row-major over z then x)

which matches the Kronecker ordering ``kron(a_z, a_x)`` used to assemble the
planar phase factors. All lengths are expressed in carrier wavelengths so
phases reduce to 2*pi times geometric path differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

# Displacements up to this far beyond d_max (wavelengths) still pass
# ``SurfaceShape.validate``, so rounding at the box edge is not an error.
_BOX_TOL = 1e-12


@dataclass(frozen=True)
class ArrayGeometry:
    """Static layout of the transmitting array.

    Parameters
    ----------
    n_x, n_z : int
        Number of elements along the x and z axes; total is ``n_x * n_z``.
    dx, dz : float
        Inter-element spacing along x and z, in wavelengths.
    d_max : float
        Elastic morphing limit per element, in wavelengths (>= 0).
    """

    n_x: int
    n_z: int
    dx: float
    dz: float
    d_max: float = 0.0

    def __post_init__(self) -> None:
        if self.n_x < 1 or self.n_z < 1:
            raise ValueError(f"element counts must be >= 1, got {self.n_x}x{self.n_z}")
        # written so that NaN fails every check
        if not (0.0 < self.dx < np.inf and 0.0 < self.dz < np.inf):
            raise ValueError(
                f"spacings must be finite and positive, got dx={self.dx}, dz={self.dz}")
        if not 0.0 <= self.d_max < np.inf:
            raise ValueError(f"morphing limit must be finite and >= 0, got {self.d_max}")

    @property
    def n_elements(self) -> int:
        return self.n_x * self.n_z


@dataclass
class SurfaceShape:
    """Per-element out-of-plane displacement, in wavelengths."""

    displacements: np.ndarray

    def __post_init__(self) -> None:
        self.displacements = np.asarray(self.displacements, dtype=float).ravel()

    @classmethod
    def zero(cls, geom: ArrayGeometry) -> "SurfaceShape":
        return cls(np.zeros(geom.n_elements))

    @classmethod
    def uniform_random(cls, geom: ArrayGeometry, rng: np.random.Generator) -> "SurfaceShape":
        "Draw each displacement uniformly from [-d_max, d_max]."
        return cls(rng.uniform(-geom.d_max, geom.d_max, size=geom.n_elements))

    def validate(self, geom: ArrayGeometry) -> None:
        "Raise ValueError on length mismatch, non-finite or out-of-range displacements."
        if self.displacements.shape != (geom.n_elements,):
            raise ValueError(
                f"shape has {self.displacements.size} displacements, "
                f"geometry has {geom.n_elements} elements"
            )
        if not np.all(np.isfinite(self.displacements)):
            raise ValueError("shape has non-finite displacements")
        worst = float(np.max(np.abs(self.displacements), initial=0.0))
        if worst > geom.d_max + _BOX_TOL:
            raise ValueError(
                f"displacement {worst:g} exceeds morphing limit {geom.d_max:g}"
            )

    def copy(self) -> "SurfaceShape":
        return SurfaceShape(self.displacements.copy())


@dataclass
class TargetSet:
    """Target directions (elevation theta, azimuth phi, radians), all weighted equally."""

    thetas: np.ndarray
    phis: np.ndarray

    def __post_init__(self) -> None:
        self.thetas = np.atleast_1d(np.asarray(self.thetas, dtype=float))
        self.phis = np.atleast_1d(np.asarray(self.phis, dtype=float))
        if self.thetas.size != self.phis.size:
            raise ValueError("thetas and phis must have equal length")
        if self.thetas.size < 1:
            raise ValueError("at least one target is required")
        if not np.all((self.thetas >= 0.0) & (self.thetas <= np.pi)):   # NaN fails too
            raise ValueError("elevation angles must lie in [0, pi]")
        if not np.all((self.phis >= 0.0) & (self.phis <= np.pi)):
            raise ValueError("azimuth angles must lie in [0, pi]")

    @classmethod
    def from_degrees(cls, thetas_deg, phis_deg) -> "TargetSet":
        return cls(np.deg2rad(thetas_deg), np.deg2rad(phis_deg))

    @property
    def n_targets(self) -> int:
        return self.thetas.size


@dataclass
class ResponseMatrix:
    """Stacked steering vectors A (N x K), one column per target.

    The correlation B = A A^H that the objective tr(R B) depends on has rank
    at most K; every consumer works on A, so B is never formed.
    """

    a: np.ndarray

    @property
    def n_elements(self) -> int:
        return self.a.shape[0]

    @property
    def n_targets(self) -> int:
        return self.a.shape[1]


def steering_matrix(
    geom: ArrayGeometry,
    thetas: np.ndarray,
    phis: np.ndarray,
    displacements: np.ndarray,
) -> np.ndarray:
    """Steering vectors for several directions at once, as columns.

    Phase model per element and direction (theta, phi):
    x and z contributions from the rigid grid, plus the displacement term
    ``exp(-j 2 pi d_n sin(theta) sin(phi))``.

    Returns an (n_elements, n_directions) complex matrix whose entries all
    have unit modulus.

    The displacement term depends on a direction only through
    ``sin(theta) sin(phi)``, so it is exponentiated once per distinct value
    and gathered into the columns; every entry has the same bits as when
    each column is computed on its own.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    displacements = np.asarray(displacements, dtype=float).ravel()
    if displacements.size != geom.n_elements:
        raise ValueError(
            f"shape has {displacements.size} displacements, "
            f"geometry has {geom.n_elements} elements"
        )

    sin_t = np.sin(thetas)
    v_x = geom.dx * sin_t * np.cos(phis)          # wavelengths
    v_z = geom.dz * np.cos(thetas)
    a_x = np.exp(-1j * TWO_PI * np.outer(np.arange(geom.n_x), v_x))   # (n_x, M)
    a_z = np.exp(-1j * TWO_PI * np.outer(np.arange(geom.n_z), v_z))   # (n_z, M)
    # kron(a_z, a_x) for every direction: flat index i_z * n_x + i_x
    planar = (a_z[:, None, :] * a_x[None, :, :]).reshape(geom.n_elements, -1)
    s, inv = np.unique(sin_t * np.sin(phis), return_inverse=True)
    a_y = np.exp(-1j * TWO_PI * np.outer(displacements, s))
    return planar * a_y[:, inv]


def response_matrix(
    geom: ArrayGeometry, targets: TargetSet, shape: SurfaceShape
) -> ResponseMatrix:
    """Build A, one steering vector per target as a column, at ``shape``."""
    return ResponseMatrix(
        a=steering_matrix(geom, targets.thetas, targets.phis, shape.displacements))
