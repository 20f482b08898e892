"""Cumulated probing power at the target directions and its shape gradient.

The objective is ``P_c = sum_k a_k^H R a_k = tr(R B)`` in linear milliwatts.
Its gradient with respect to the per-element displacement exploits the fact
that the derivative of A with respect to displacement n is nonzero only in
row n: with c_k = sin(theta_k) sin(phi_k),

    dP_c/dd_n = 2 * 2pi * sum_k c_k * Im(A[n, k] * conj((R A)[n, k]))

so the power and the gradient at one shape share the single product R A,
O(K N^2) for both. The shape ascent builds A from a cached planar factor
and takes the power, and for an accepted point the gradient, from one such
product per trial point.
"""

from __future__ import annotations

import numpy as np

from .array_model import (
    ArrayGeometry,
    ResponseMatrix,
    SurfaceShape,
    TargetSet,
    steering_matrix,
)

IMAG_RESIDUE_REL = 1e-10
"""Largest tolerated |imag|/|value| before the real cast is considered unsound."""


def _check_covariance(r: np.ndarray, n: int) -> np.ndarray:
    r = np.asarray(r)
    if r.shape != (n, n):
        raise ValueError(f"covariance is {r.shape}, expected ({n}, {n})")
    herm_err = float(np.max(np.abs(r - r.conj().T), initial=0.0))
    if herm_err > 1e-10 * max(1.0, float(np.max(np.abs(r)))):
        raise ValueError(f"covariance is not Hermitian (max asymmetry {herm_err:g})")
    return r


def _as_matrix(r_x) -> np.ndarray:
    "Accept a CovarianceMatrix or a bare ndarray."
    return getattr(r_x, "r", r_x)


def column_powers(a: np.ndarray, ra: np.ndarray) -> np.ndarray:
    "Quadratic forms a_k^H R a_k of the columns of A, complex, from A and R @ A."
    return np.sum(a.conj() * ra, axis=0)


def power_gradient(a: np.ndarray, ra: np.ndarray, c: np.ndarray) -> np.ndarray:
    """dP_c/dd from A, RA = R @ A and c_k = sin(theta_k) sin(phi_k)."""
    return 2.0 * (2.0 * np.pi) * (np.imag(a * ra.conj()) @ c)


def cumulated_power(r_x, rm: ResponseMatrix) -> float:
    """Total probing power tr(R B) = sum_k a_k^H R a_k, in mW.

    Raises ValueError for non-Hermitian or dimension-mismatched inputs, or
    if the quadratic-form sum develops a non-negligible imaginary part.
    """
    r = _check_covariance(_as_matrix(r_x), rm.n_elements)
    total = complex(np.sum(column_powers(rm.a, r @ rm.a)))
    if abs(total.imag) > IMAG_RESIDUE_REL * max(abs(total.real), 1e-300):
        raise ValueError(f"objective has imaginary residue {total.imag:g}")
    return float(total.real)


def shape_gradient(
    r_x,
    geom: ArrayGeometry,
    targets: TargetSet,
    shape: SurfaceShape,
) -> np.ndarray:
    """Gradient of the cumulated power w.r.t. each displacement (mW per wavelength)."""
    a = steering_matrix(geom, targets.thetas, targets.phis, shape.displacements)
    r = _check_covariance(_as_matrix(r_x), geom.n_elements)
    return power_gradient(a, r @ a, np.sin(targets.thetas) * np.sin(targets.phis))
