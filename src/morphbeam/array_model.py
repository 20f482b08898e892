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


def phasor(phase) -> np.ndarray:
    """exp(-j 2 pi phase), elementwise, for a real array ``phase``.

    The angle is the same product ``-2 pi * phase`` that
    ``np.exp(-2j * np.pi * phase)`` exponentiates; its cosine is written
    into the real part and its sine into the imaginary part of one complex
    array, with no complex temporary. Entries agree with that ``np.exp``
    to 2 eps. Where numpy's cos and sin round as the C library's complex
    exp does (they do with numpy 2.4 on x86-64 Linux), they are bit-equal,
    except that a phase of +0.0 gives an imaginary part of -0.0.
    """
    angle = np.multiply(phase, -TWO_PI)
    out = np.empty(np.shape(angle), dtype=complex)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    return out


def steering_matrix(
    geom: ArrayGeometry,
    thetas: np.ndarray,
    phis: np.ndarray,
    displacements: np.ndarray,
) -> np.ndarray:
    """Steering vectors for several directions at once, as columns.

    Phase model per element (i_x, i_z, d_n) and direction (theta, phi):
    ``exp(-j 2 pi (i_x dx u + i_z dz w + d_n v))`` with
    ``u = sin(theta) cos(phi)``, ``w = cos(theta)`` and
    ``v = sin(theta) sin(phi)``, built as the product of the three
    phasors.

    Returns an (n_elements, n_directions) complex matrix whose entries all
    have unit modulus.

    The z and displacement phasors depend on a direction only through
    ``dz w`` and ``v``, so each is built once per distinct value and
    gathered into the columns. ``dz w`` is never zero, and ``v`` is read as
    ``v + 0.0``, which turns -0.0 into +0.0, so merging equal values merges
    equal bits. ``u`` is not deduplicated: it is -0.0 at theta = -0.0 and
    +0.0 at theta = 0.0, whose phasors differ in the sign of a zero. So
    every column has the same bits as when it is built on its own. The
    planar product is written straight into the result and the
    displacement phasors are multiplied in place, so the gathered phasors
    are the one N x M temporary.
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
    u = geom.dx * sin_t * np.cos(phis)          # wavelengths
    w, inv_w = np.unique(geom.dz * np.cos(thetas), return_inverse=True)
    v, inv_v = np.unique(sin_t * np.sin(phis) + 0.0, return_inverse=True)
    a_x = phasor(np.outer(np.arange(geom.n_x), u))              # (n_x, M)
    a_z = phasor(np.outer(np.arange(geom.n_z), w))              # (n_z, distinct w)
    # kron(a_z, a_x) for every direction: flat index i_z * n_x + i_x
    out = np.empty((geom.n_z, geom.n_x, u.size), dtype=complex)
    np.multiply(np.take(a_z, inv_w, axis=1)[:, None, :], a_x[None, :, :], out=out)
    out = out.reshape(geom.n_elements, u.size)
    out *= np.take(phasor(np.outer(displacements, v)), inv_v, axis=1)
    return out


def response_matrix(
    geom: ArrayGeometry, targets: TargetSet, shape: SurfaceShape
) -> ResponseMatrix:
    """Build A, one steering vector per target as a column, at ``shape``."""
    return ResponseMatrix(
        a=steering_matrix(geom, targets.thetas, targets.phis, shape.displacements))
