"""Cumulated probing power at the target directions and its shape gradient.

The objective is ``P_c = sum_k a_k^H R a_k = sum_k ||G^H a_k||^2`` in linear
milliwatts, R = G G^H held by its N x k factor. Its gradient with respect to
the per-element displacement exploits the fact that the derivative of A
with respect to displacement n is nonzero only in row n: with
c_k = sin(theta_k) sin(phi_k),

    dP_c/dd_n = 2 * 2pi * sum_k c_k * Im(A[n, k] * conj((G (G^H A))[n, k]))

so the power takes the k x K product G^H A and the gradient one more
product with G, O(k K N) each, and no N x N matrix is formed.
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
from .covariance import CovarianceMatrix, _factor, factor_power


def power_gradient(a: np.ndarray, ra: np.ndarray, c: np.ndarray) -> np.ndarray:
    """dP_c/dd from A, RA = R @ A and c_k = sin(theta_k) sin(phi_k)."""
    return 2.0 * (2.0 * np.pi) * ((a * ra.conj()).imag @ c)


def cumulated_power(cov: CovarianceMatrix, rm: ResponseMatrix) -> float:
    """Total probing power tr(R B) = sum_k ||G^H a_k||^2, in mW.

    TypeError unless ``cov`` is a :class:`CovarianceMatrix`, ValueError
    unless its factor has the response's N rows.
    """
    g = _factor(cov, rm.n_elements)
    return factor_power(g.conj().T @ rm.a)


def shape_gradient(
    cov: CovarianceMatrix,
    geom: ArrayGeometry,
    targets: TargetSet,
    shape: SurfaceShape,
) -> np.ndarray:
    """Gradient of the cumulated power w.r.t. each displacement (mW per wavelength)."""
    g = _factor(cov, geom.n_elements)
    a = steering_matrix(geom, targets.thetas, targets.phis, shape.displacements)
    return power_gradient(a, g @ (g.conj().T @ a), np.sin(targets.thetas) * np.sin(targets.phis))
