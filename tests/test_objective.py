"""Cumulated-power objective and its displacement gradient."""

import numpy as np
import pytest

from conftest import desk_geometry, desk_targets, finite_difference_gradient
from morphbeam.array_model import ArrayGeometry, SurfaceShape, TargetSet, response_matrix
from morphbeam.covariance import CovarianceMatrix
from morphbeam.objective import cumulated_power, shape_gradient


def make_geom(n_x=3, n_z=3, d_max=0.5):
    return ArrayGeometry(n_x=n_x, n_z=n_z, dx=0.5, dz=0.5, d_max=d_max)


def random_feasible_r(n, p_t, rng):
    """Random per-antenna-feasible covariance: sqrt(p_t/n) times a row-normalized factor."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return CovarianceMatrix(np.sqrt(p_t / n) * g, power_budget=p_t)


def test_cumulated_power_matches_per_target_sum():
    rng = np.random.default_rng(0)
    geom = make_geom()
    targets = TargetSet(thetas=rng.uniform(0, np.pi, 4),
                        phis=rng.uniform(0, np.pi, 4))
    shape = SurfaceShape(rng.uniform(-0.5, 0.5, geom.n_elements))
    rm = response_matrix(geom, targets, shape)
    cov = random_feasible_r(geom.n_elements, 10.0, rng)
    r = cov.r
    direct = sum(
        float(np.real(rm.a[:, k].conj() @ r @ rm.a[:, k]))
        for k in range(targets.n_targets)
    )
    assert cumulated_power(cov, rm) == pytest.approx(direct, rel=1e-12)


def test_cumulated_power_accepts_covariance_wrapper():
    rng = np.random.default_rng(1)
    geom = make_geom()
    targets = TargetSet(thetas=np.array([1.0]), phis=np.array([1.2]))
    rm = response_matrix(geom, targets, SurfaceShape.zero(geom))
    # the dense constructor stores R's eigenfactor, another factor of the same R
    cov = random_feasible_r(geom.n_elements, 5.0, rng)
    dense = CovarianceMatrix(r=cov.r, power_budget=5.0)
    assert cumulated_power(dense, rm) == pytest.approx(cumulated_power(cov, rm), rel=1e-12)


def test_cumulated_power_linear_in_covariance():
    rng = np.random.default_rng(2)
    geom = make_geom()
    targets = TargetSet(thetas=rng.uniform(0, np.pi, 3),
                        phis=rng.uniform(0, np.pi, 3))
    rm = response_matrix(geom, targets, SurfaceShape.zero(geom))
    r1 = random_feasible_r(geom.n_elements, 10.0, rng)
    r2 = random_feasible_r(geom.n_elements, 10.0, rng)
    # 2.5 R1 + 0.5 R2 = G G^H for G = [sqrt(2.5) G1, sqrt(0.5) G2]
    both = CovarianceMatrix(np.hstack([np.sqrt(2.5) * r1.g, np.sqrt(0.5) * r2.g]),
                            power_budget=30.0)
    lhs = cumulated_power(both, rm)
    rhs = 2.5 * cumulated_power(r1, rm) + 0.5 * cumulated_power(r2, rm)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_cumulated_power_nonnegative_for_psd():
    rng = np.random.default_rng(3)
    geom = make_geom()
    targets = TargetSet(thetas=rng.uniform(0, np.pi, 2),
                        phis=rng.uniform(0, np.pi, 2))
    rm = response_matrix(geom, targets, SurfaceShape.zero(geom))
    for _ in range(10):
        assert cumulated_power(random_feasible_r(9, 1.0, rng), rm) >= 0.0


def test_cumulated_power_validates_inputs():
    geom = make_geom()
    targets = TargetSet(thetas=np.array([1.0]), phis=np.array([1.0]))
    rm = response_matrix(geom, targets, SurfaceShape.zero(geom))
    with pytest.raises(ValueError, match="rows"):
        cumulated_power(CovarianceMatrix(r=np.eye(4), power_budget=4.0), rm)  # wrong dimension
    with pytest.raises(TypeError, match="CovarianceMatrix"):
        cumulated_power(np.eye(9), rm)           # a bare matrix
    bad = np.eye(9, dtype=complex)
    bad[0, 1] = 1.0                              # not Hermitian: refused when built
    with pytest.raises(ValueError, match="not Hermitian"):
        CovarianceMatrix(r=bad, power_budget=9.0)
    bad[0, 1] = np.nan                           # not finite
    with pytest.raises(ValueError, match="non-finite"):
        CovarianceMatrix(r=bad, power_budget=9.0)
    # a skew-Hermitian part too small for the Hermitian check is rounding:
    # the dense constructor factors the Hermitian part, and the power, a sum
    # of squared moduli, is real with no residue to check
    geom = desk_geometry(0.0)
    rm = response_matrix(geom, desk_targets(), SurfaceShape.zero(geom))
    a1 = rm.a[:, 0]
    skewed = np.eye(geom.n_elements) + 4e-11j * np.outer(a1, a1.conj())
    cov = CovarianceMatrix(r=skewed, power_budget=float(geom.n_elements))
    want = float(np.real(np.sum(rm.a.conj() * (skewed @ rm.a))))
    assert cumulated_power(cov, rm) == pytest.approx(want, rel=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    for _ in range(20):
        geom = make_geom(n_x=int(rng.integers(2, 5)), n_z=int(rng.integers(2, 5)))
        k = int(rng.integers(1, 5))
        targets = TargetSet(thetas=rng.uniform(0.1, np.pi - 0.1, k),
                            phis=rng.uniform(0.1, np.pi - 0.1, k))
        shape = SurfaceShape(rng.uniform(-0.5, 0.5, geom.n_elements))
        r = random_feasible_r(geom.n_elements, 10.0, rng)
        g_analytic = shape_gradient(r, geom, targets, shape)
        g_numeric = finite_difference_gradient(r.r, geom, targets, shape)
        err = np.linalg.norm(g_analytic - g_numeric)
        assert err <= 1e-6 * max(np.linalg.norm(g_analytic), 1.0)


def test_gradient_vanishes_when_displacements_are_invisible():
    # sin(theta) sin(phi) = 0 along phi = 0, so displacement changes never
    # alter the phase and the gradient must be exactly zero.
    geom = make_geom()
    targets = TargetSet(thetas=np.array([np.pi / 3]), phis=np.array([0.0]))
    rng = np.random.default_rng(5)
    shape = SurfaceShape(rng.uniform(-0.5, 0.5, geom.n_elements))
    r = random_feasible_r(geom.n_elements, 10.0, rng)
    np.testing.assert_array_equal(shape_gradient(r, geom, targets, shape),
                                  np.zeros(geom.n_elements))


def test_gradient_additive_over_targets():
    rng = np.random.default_rng(6)
    geom = make_geom()
    thetas = rng.uniform(0.1, np.pi - 0.1, 3)
    phis = rng.uniform(0.1, np.pi - 0.1, 3)
    shape = SurfaceShape(rng.uniform(-0.5, 0.5, geom.n_elements))
    r = random_feasible_r(geom.n_elements, 10.0, rng)
    combined = shape_gradient(r, geom, TargetSet(thetas=thetas, phis=phis), shape)
    parts = sum(
        shape_gradient(r, geom,
                       TargetSet(thetas=thetas[k:k + 1], phis=phis[k:k + 1]),
                       shape)
        for k in range(3)
    )
    np.testing.assert_allclose(combined, parts, rtol=1e-12, atol=1e-12)


def test_finite_difference_rejects_bad_step():
    geom = make_geom()
    targets = TargetSet(thetas=np.array([1.0]), phis=np.array([1.0]))
    with pytest.raises(ValueError):
        finite_difference_gradient(np.eye(9), geom, targets,
                                   SurfaceShape.zero(geom), h=0.0)
