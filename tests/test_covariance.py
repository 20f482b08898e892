"""Per-antenna SDP solver, rank-1 randomization, spectrum of B."""

import logging

import numpy as np
import pytest

from conftest import DESK_P_T_MW, desk_geometry, desk_targets
from morphbeam.array_model import ArrayGeometry, SurfaceShape, TargetSet, response_matrix
from morphbeam.covariance import (
    _RANK_FLOOR,
    DEFAULT_SDP_TOL,
    ConstraintKind,
    CovarianceMatrix,
    randomize_rank1,
    rank_profile,
    solve_per_antenna_sdp,
)


def random_b(n, k, rng):
    f = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    b = f @ f.conj().T
    return 0.5 * (b + b.conj().T)


def unit_modulus_b(n, rng):
    a = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    return np.outer(a, a.conj())


class TestPerAntennaSdp:
    def test_single_steering_vector_reaches_analytic_optimum(self):
        # With B = a a^H for unit-modulus a the optimum is p_t * n, attained
        # by the phase-aligned rank-1 covariance.
        rng = np.random.default_rng(0)
        for n in (4, 9, 16):
            b = unit_modulus_b(n, rng)
            cov, report = solve_per_antenna_sdp(b, p_t=10.0)
            assert report.objective == pytest.approx(10.0 * n, rel=1e-8)
            cov.validate()

    def test_identity_b_gives_power_budget(self):
        # tr(R I) = tr(R) = p_t for every feasible R.
        cov, report = solve_per_antenna_sdp(np.eye(6), p_t=4.0)
        assert report.objective == pytest.approx(4.0, rel=1e-6)

    def test_certificate_on_random_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(3, 12))
            k = int(rng.integers(1, 5))
            b = random_b(n, k, rng)
            p_t = float(rng.uniform(0.5, 20.0))
            cov, report = solve_per_antenna_sdp(b, p_t)
            assert report.converged
            assert report.objective <= report.dual_bound + 1e-6 * abs(report.dual_bound)
            # the diagonal-constrained optimum never beats the trace-constrained
            # one, p_t * lambda_max(B)
            total = p_t * float(np.linalg.eigvalsh(b)[-1])
            assert report.objective <= total * (1.0 + 1e-6)
            cov.validate()
            # reported objective is the actual quadratic-form value of cov
            assert report.objective == pytest.approx(
                float(np.real(np.sum(cov.r * b.T))), rel=1e-10)

    def test_diagonal_is_exact(self):
        rng = np.random.default_rng(2)
        b = random_b(8, 3, rng)
        cov, report = solve_per_antenna_sdp(b, p_t=5.0)
        np.testing.assert_allclose(np.real(np.diag(cov.r)), 5.0 / 8, rtol=1e-12)
        assert report.residuals["max_diag_error"] <= 1e-12

    def test_input_validation(self):
        with pytest.raises(ValueError):
            solve_per_antenna_sdp(np.eye(4), p_t=0.0)
        with pytest.raises(ValueError):
            solve_per_antenna_sdp(np.eye(4), p_t=1.0, tol=0.0)
        bad = np.eye(4, dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(ValueError):
            solve_per_antenna_sdp(bad, p_t=1.0)
        with pytest.raises(ValueError):
            solve_per_antenna_sdp(-np.eye(4), p_t=1.0)

    def test_iteration_cap_is_reported(self, caplog):
        # Stopping at the Newton cap must show in the report and the log, and
        # still return a feasible covariance under a valid dual bound.
        geom = ArrayGeometry(n_x=4, n_z=4, dx=0.5, dz=0.5, wavelength=0.0107)
        targets = TargetSet.from_degrees([30.0, 30.0, 135.0], [60.0, 120.0, 90.0])
        rm = response_matrix(geom, targets, SurfaceShape.zero(geom))
        with caplog.at_level(logging.WARNING, logger="morphbeam.covariance"):
            cov, report = solve_per_antenna_sdp(rm.b, 4.0, iter_cap=2)
        assert report.converged is False
        assert report.iterations == 2
        cov.validate()
        assert report.dual_bound >= report.objective
        assert report.relative_gap > DEFAULT_SDP_TOL
        assert any(rec.levelno == logging.WARNING and "iteration cap" in rec.getMessage()
                   for rec in caplog.records)

    @pytest.mark.parametrize("case", ["eigenvalue-below-floor", "k-above-n", "single-element"])
    def test_cases_of_the_rank_factor(self, case):
        # B's factor F drops eigenvalues under the floor and has r = N when
        # K >= N; the certificate must hold for the B passed in either way.
        th, ph = np.deg2rad([40.0, 120.0]), np.deg2rad([70.0, 100.0])
        if case == "eigenvalue-below-floor":
            geom = ArrayGeometry(n_x=4, n_z=4, dx=0.5, dz=0.5, wavelength=0.0107)
            targets = TargetSet(np.array([th[0], th[0] + 1e-6, th[1]]),
                                np.array([ph[0], ph[0] + 1e-6, ph[1]]))
        elif case == "k-above-n":
            geom = ArrayGeometry(n_x=2, n_z=1, dx=0.5, dz=0.5, wavelength=0.0107)
            targets = TargetSet(np.deg2rad([40.0, 120.0, 80.0]),
                                np.deg2rad([70.0, 100.0, 30.0]))
        else:
            geom = ArrayGeometry(n_x=1, n_z=1, dx=0.5, dz=0.5, wavelength=0.0107)
            targets = TargetSet(th, ph)
        b = response_matrix(geom, targets, SurfaceShape.zero(geom)).b
        eigvals = np.linalg.eigvalsh(b)
        if case == "eigenvalue-below-floor":
            assert 0.0 < eigvals[-3] < _RANK_FLOOR * eigvals[-1]
        else:
            assert eigvals[0] > 1e-3 * eigvals[-1]          # full rank
        n = geom.n_elements
        cov, report = solve_per_antenna_sdp(b, 4.0)
        assert report.converged
        assert report.relative_gap <= DEFAULT_SDP_TOL
        assert report.objective <= report.dual_bound
        assert report.objective == pytest.approx(
            float(np.real(np.sum(cov.r * b.T))), rel=1e-9)
        np.testing.assert_allclose(np.real(np.diag(cov.r)), 4.0 / n, rtol=1e-12)
        cov.validate()

    @pytest.mark.parametrize("shape_seed, objective, dual_bound", [
        (None, 1040.4659371162802, 1040.4660496160143),
        (1, 1066.6061092487691, 1066.6062245615037),
        (2, 1059.2035344946357, 1059.203648931769),
    ])
    def test_desk_answers_are_pinned(self, shape_seed, objective, dual_bound):
        # Values of the dense-algebra solver this one replaced, on the desk
        # B at the zero shape and two seeded uniform-box shapes.
        geom = desk_geometry(1.0)
        shape = (SurfaceShape.zero(geom) if shape_seed is None else
                 SurfaceShape.uniform_random(geom, np.random.default_rng(shape_seed)))
        b = response_matrix(geom, desk_targets(), shape).b
        _, report = solve_per_antenna_sdp(b, DESK_P_T_MW)
        assert report.objective == pytest.approx(objective, rel=1e-6)
        assert report.dual_bound == pytest.approx(dual_bound, rel=1e-6)

    def test_scale_invariance_of_argmax(self):
        # Scaling B scales the objective; scaling p_t scales the covariance.
        rng = np.random.default_rng(3)
        b = random_b(6, 2, rng)
        _, rep1 = solve_per_antenna_sdp(b, p_t=2.0)
        _, rep2 = solve_per_antenna_sdp(10.0 * b, p_t=2.0)
        assert rep2.objective == pytest.approx(10.0 * rep1.objective, rel=1e-6)
        _, rep3 = solve_per_antenna_sdp(b, p_t=4.0)
        assert rep3.objective == pytest.approx(2.0 * rep1.objective, rel=1e-6)


class TestRandomizeRank1:
    def test_weights_have_constant_modulus(self):
        rng = np.random.default_rng(6)
        b = random_b(8, 3, rng)
        cov, _ = solve_per_antenna_sdp(b, p_t=8.0)
        w, val = randomize_rank1(cov, b, p_t=8.0, n_samples=200, rng_seed=1)
        np.testing.assert_allclose(np.abs(w), 1.0, rtol=1e-12)
        assert val == pytest.approx(float(np.real(w.conj() @ b @ w)), rel=1e-12)

    def test_never_beats_the_relaxation_dual(self):
        rng = np.random.default_rng(7)
        b = random_b(8, 3, rng)
        cov, report = solve_per_antenna_sdp(b, p_t=8.0)
        _, val = randomize_rank1(cov, b, p_t=8.0, n_samples=500, rng_seed=2)
        assert val <= report.dual_bound * (1.0 + 1e-9)

    def test_value_nondecreasing_in_sample_count(self):
        # Samples come from one sequential stream, so more samples can only
        # improve the best value for the same seed.
        rng = np.random.default_rng(8)
        b = random_b(6, 2, rng)
        cov, _ = solve_per_antenna_sdp(b, p_t=6.0)
        vals = [
            randomize_rank1(cov, b, p_t=6.0, n_samples=m, rng_seed=3)[1]
            for m in (1, 10, 100, 400)
        ]
        assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(9)
        b = random_b(5, 2, rng)
        cov, _ = solve_per_antenna_sdp(b, p_t=5.0)
        w1, v1 = randomize_rank1(cov, b, p_t=5.0, n_samples=50, rng_seed=42)
        w2, v2 = randomize_rank1(cov, b, p_t=5.0, n_samples=50, rng_seed=42)
        np.testing.assert_array_equal(w1, w2)
        assert v1 == v2

    def test_validation(self):
        rng = np.random.default_rng(10)
        b = random_b(4, 1, rng)
        cov, _ = solve_per_antenna_sdp(b, p_t=4.0)
        with pytest.raises(ValueError):
            randomize_rank1(cov, b, p_t=4.0, n_samples=0)
        degenerate = CovarianceMatrix(r=np.zeros((4, 4), dtype=complex),
                                      power_budget=4.0,
                                      constraint_kind=ConstraintKind.PER_ANTENNA)
        with pytest.raises(ValueError):
            randomize_rank1(degenerate, b, p_t=4.0, n_samples=10)


class TestRankProfile:
    def test_eigenvalues_descending_and_trace_residual(self):
        rng = np.random.default_rng(11)
        geom = ArrayGeometry(n_x=4, n_z=4, dx=0.5, dz=0.5, wavelength=0.0107)
        k = 3
        targets = TargetSet(thetas=rng.uniform(0, np.pi, k),
                            phis=rng.uniform(0, np.pi, k))
        rm = response_matrix(geom, targets, SurfaceShape.zero(geom))
        eigvals, residual = rank_profile(rm.b, expected_trace=k * geom.n_elements)
        assert np.all(np.diff(eigvals) <= 0.0)
        assert residual <= 1e-10 * k * geom.n_elements
        # correlation of k steering vectors has rank at most k
        assert np.sum(eigvals > 1e-8 * eigvals[0]) <= k


class TestCovarianceValidate:
    def test_catches_wrong_diagonal(self):
        cov = CovarianceMatrix(r=np.eye(4, dtype=complex), power_budget=8.0,
                               constraint_kind=ConstraintKind.PER_ANTENNA)
        with pytest.raises(ValueError):
            cov.validate()

    def test_catches_indefinite(self):
        # diagonal exactly p_t/N = 1, but eigenvalues 3, 1, 1 and -1
        r = np.eye(4, dtype=complex)
        r[0, 1] = r[1, 0] = 2.0
        cov = CovarianceMatrix(r=r, power_budget=4.0,
                               constraint_kind=ConstraintKind.PER_ANTENNA)
        with pytest.raises(ValueError, match="not PSD"):
            cov.validate()
