"""Cumulated probing power at the target directions and its shape gradient.

The objective is ``P_c = sum_k a_k^H R a_k = sum_k ||G^H a_k||^2`` in linear
milliwatts, R = G G^H held by its N x k factor. Its gradient with respect to
the per-element displacement exploits the fact that the derivative of A
with respect to displacement n is nonzero only in row n: with
c_k = sin(theta_k) sin(phi_k),

    dP_c/dd_n = 2 * 2pi * sum_k c_k * Im(A[n, k] * conj((G (G^H A))[n, k]))

so the power takes the k x K product G^H A and the gradient one more
product with G, O(k K N) each, and no N x N matrix is formed. The Hessian
has the same structure: with R = G G^H,

    -d^2P_c/dd^2 = 8 pi^2 (Diag(d) - U U^T),
    d_n = sum_k c_k^2 Re(A[n, k] * conj((G (G^H A))[n, k])),

where U is the real N x 2kK view of M, column (j, k) of M being
c_k * conj(G[:, j]) * A[:, k], so it too needs no N x N matrix.
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


def power_curvature(a: np.ndarray, ra: np.ndarray, factor: np.ndarray,
                    c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """d and U of the Hessian -d^2P_c/dd^2 = 8 pi^2 (Diag(d) - U U^T) (module docstring).

    From A, RA = R @ A, the N x k factor G of R and c_k = sin(theta_k) sin(phi_k).
    U's columns interleave Re and Im of M's; U U^T does not depend on their order.
    """
    # C order, so that the float view can split every complex entry; a
    # factor from an eigendecomposition may be stored column-major
    m = np.multiply(factor.conj()[:, :, None], (a * c)[:, None, :], order="C")
    return (a * ra.conj()).real @ (c * c), m.reshape(a.shape[0], -1).view(float)


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
