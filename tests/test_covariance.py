"""Per-antenna SDP solver, rank-1 randomization, spectrum of B = A A^H."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import morphbeam.covariance as covariance
from conftest import DESK_P_T_MW, desk_geometry, desk_targets, rank_profile
from morphbeam import bcd
from morphbeam.array_model import ArrayGeometry, SurfaceShape, TargetSet, response_matrix
from morphbeam.bcd import BcdConfig, Scheme, solve_benchmark
from morphbeam.beampattern import target_powers
from morphbeam.covariance import (
    DEFAULT_ITER_CAP,
    DEFAULT_SDP_TOL,
    ConstraintKind,
    CovarianceMatrix,
    column_powers,
    randomize_rank1,
    solve_per_antenna_sdp,
)


def random_a(n, k, rng):
    return rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))


def gram(a):
    "B = A A^H, built here: the package never forms it."
    return a @ a.conj().T


def unit_modulus_a(n, rng):
    return np.exp(1j * rng.uniform(0, 2 * np.pi, (n, 1)))


def rank(r):
    "Numerical rank of a covariance, relative to its largest entry."
    return int(np.linalg.matrix_rank(r, tol=1e-9 * float(np.max(np.abs(r)))))


def _with_nan():
    a = np.ones((4, 2), dtype=complex)
    a[1, 0] = np.nan
    return a


# 0 < P_t < inf fails for each of these; NaN compares false with everything.
BAD_POWER = [pytest.param(v, id=name) for name, v in
             (("nan", np.nan), ("inf", np.inf), ("zero", 0.0), ("negative", -1.0))]

BAD_STEERING = [
    pytest.param(np.ones(4, dtype=complex), "N x K", id="one-dimensional"),
    pytest.param(np.ones((4, 0), dtype=complex), "N x K", id="no-targets"),
    pytest.param(_with_nan(), "non-finite", id="non-finite"),
    pytest.param(np.zeros((4, 2), dtype=complex), "all zero", id="all-zero"),
]


def _near_coincident_a(n_side, offset):
    """A of min(N - 2, 5) seeded targets and a copy of the first moved by ``offset`` rad.

    The array is n_side x n_side at a seeded shape in a d_max = 0.5 box;
    with these draws the 9- and 16-element cases run the block stage.
    """
    geom = ArrayGeometry(n_x=n_side, n_z=n_side, dx=0.5, dz=0.5, d_max=0.5)
    rng = np.random.default_rng(0)
    k = min(geom.n_elements - 2, 5)
    thetas, phis = rng.uniform(0, np.pi, k), rng.uniform(0, np.pi, k)
    targets = TargetSet(np.append(thetas, thetas[0] + offset), np.append(phis, phis[0] + offset))
    return response_matrix(geom, targets, SurfaceShape.uniform_random(geom, rng)).a


NEAR_OFFSETS = (1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3)


def _assert_certified_solve(a):
    "Solve at P_t = 4: converged, bound above the value, tr(R B) and diag(R) = 4 / N."
    cov, report = solve_per_antenna_sdp(a, 4.0)
    assert report.converged
    assert report.relative_gap <= DEFAULT_SDP_TOL
    assert report.objective <= report.dual_bound
    assert report.objective == pytest.approx(
        float(np.real(np.sum(cov.r * gram(a).T))), rel=1e-9)
    np.testing.assert_allclose(np.real(np.diag(cov.r)), 4.0 / a.shape[0], rtol=1e-12)
    cov.validate()


class TestPerAntennaSdp:
    def test_single_steering_vector_reaches_analytic_optimum(self):
        # With B = a a^H for unit-modulus a the optimum is p_t * n, attained
        # by the phase-aligned rank-1 covariance.
        rng = np.random.default_rng(0)
        for n in (4, 9, 16):
            a = unit_modulus_a(n, rng)
            cov, report = solve_per_antenna_sdp(a, p_t=10.0)
            assert report.objective == pytest.approx(10.0 * n, rel=1e-8)
            cov.validate()

    def test_identity_b_gives_power_budget(self):
        # A = I gives B = I, and tr(R I) = tr(R) = p_t for every feasible R.
        cov, report = solve_per_antenna_sdp(np.eye(6), p_t=4.0)
        assert report.objective == pytest.approx(4.0, rel=1e-6)

    def test_certificate_on_random_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(3, 12))
            k = int(rng.integers(1, 5))
            a = random_a(n, k, rng)
            b = gram(a)
            p_t = float(rng.uniform(0.5, 20.0))
            cov, report = solve_per_antenna_sdp(a, p_t)
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
        cov, report = solve_per_antenna_sdp(random_a(8, 3, rng), p_t=5.0)
        np.testing.assert_allclose(np.real(np.diag(cov.r)), 5.0 / 8, rtol=1e-12)
        assert float(np.max(np.abs(np.real(np.diag(cov.r)) - 5.0 / 8))) <= 1e-12

    def test_input_validation(self):
        with pytest.raises(ValueError):
            solve_per_antenna_sdp(np.eye(4), p_t=0.0)

    @pytest.mark.parametrize("p_t", BAD_POWER)
    def test_rejects_bad_power_budget(self, p_t):
        with pytest.raises(ValueError, match="finite and positive"):
            solve_per_antenna_sdp(np.eye(4), p_t)

    @pytest.mark.parametrize("bad, message", BAD_STEERING)
    def test_rejects_bad_steering_matrix(self, bad, message):
        with pytest.raises(ValueError, match=message):
            solve_per_antenna_sdp(bad, p_t=1.0)

    def test_no_n_by_n_decomposition(self, monkeypatch):
        # B = A A^H has rank K, so nothing on the solve path may decompose
        # an N x N matrix; record what every decomposition is handed.
        n = 100
        geom = ArrayGeometry(n_x=10, n_z=10, dx=0.5, dz=0.5)
        a = response_matrix(geom, desk_targets(), SurfaceShape.zero(geom)).a
        shapes = []
        for name in ("eigh", "eigvalsh", "svd", "cholesky", "eig", "eigvals", "qr", "inv",
                     "solve", "slogdet"):
            original = getattr(np.linalg, name)

            def recording(x, *args, _original=original, **kwargs):
                shapes.append(np.shape(x))
                return _original(x, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        _, report = solve_per_antenna_sdp(a, 4.0)
        assert report.converged
        assert shapes
        assert all(shape[-2:] != (n, n) for shape in shapes), shapes

    def test_zero_row_of_a(self):
        # An element that no target sees has a zero row in A, and so in
        # B V; the power steps must still keep its row of V at unit norm.
        geom = desk_geometry(0.0, n_x=4, n_z=4)
        a = response_matrix(geom, desk_targets(), SurfaceShape.zero(geom)).a
        a[2] = 0.0
        cov, report = solve_per_antenna_sdp(a, 6.0)
        assert rank(cov.r) > 1              # the block stage ran
        assert report.converged
        cov.validate()
        assert report.objective == pytest.approx(
            float(np.real(np.sum(cov.r * gram(a).T))), rel=1e-9)

    def test_iteration_cap_is_reported(self, caplog, monkeypatch):
        # Stopping at the power-step cap must show in the report and the log,
        # and still return a feasible covariance under a valid dual bound.
        geom = ArrayGeometry(n_x=4, n_z=4, dx=0.5, dz=0.5)
        targets = TargetSet.from_degrees([30.0, 30.0, 135.0], [60.0, 120.0, 90.0])
        rm = response_matrix(geom, targets, SurfaceShape.zero(geom))
        monkeypatch.setattr("morphbeam.covariance.DEFAULT_ITER_CAP", 2)
        with caplog.at_level(logging.WARNING, logger="morphbeam.covariance"):
            cov, report = solve_per_antenna_sdp(rm.a, 4.0)
        assert report.converged is False
        assert report.iterations == 2
        cov.validate()
        assert report.dual_bound >= report.objective
        assert report.relative_gap > DEFAULT_SDP_TOL
        assert any(rec.levelno == logging.WARNING and "iteration cap" in rec.getMessage()
                   for rec in caplog.records)

    @pytest.mark.parametrize("case", ["eigenvalue-below-1e-10", "k-above-n", "single-element"])
    def test_cases_of_the_rank_factor(self, case):
        # B's factor F has r = min(N, K) columns, a near-zero singular value
        # among them or r = N when K >= N; the certificate holds either way.
        th, ph = np.deg2rad([40.0, 120.0]), np.deg2rad([70.0, 100.0])
        if case == "eigenvalue-below-1e-10":
            geom = ArrayGeometry(n_x=4, n_z=4, dx=0.5, dz=0.5)
            targets = TargetSet(np.array([th[0], th[0] + 1e-6, th[1]]),
                                np.array([ph[0], ph[0] + 1e-6, ph[1]]))
        elif case == "k-above-n":
            geom = ArrayGeometry(n_x=2, n_z=1, dx=0.5, dz=0.5)
            targets = TargetSet(np.deg2rad([40.0, 120.0, 80.0]),
                                np.deg2rad([70.0, 100.0, 30.0]))
        else:
            geom = ArrayGeometry(n_x=1, n_z=1, dx=0.5, dz=0.5)
            targets = TargetSet(th, ph)
        a = response_matrix(geom, targets, SurfaceShape.zero(geom)).a
        eigvals = np.linalg.eigvalsh(gram(a))
        if case == "eigenvalue-below-1e-10":
            assert 0.0 < eigvals[-3] < 1e-10 * eigvals[-1]
        else:
            assert eigvals[0] > 1e-3 * eigvals[-1]          # full rank
        _assert_certified_solve(a)

    @pytest.mark.parametrize("n_side", [2, 3, 4])
    def test_near_offsets_cross_1e_10(self, n_side):
        # The offsets put B's smallest relative eigenvalue on both sides of 1e-10.
        svs = [np.linalg.svd(_near_coincident_a(n_side, off), compute_uv=False)
               for off in NEAR_OFFSETS]
        ratios = [(sv[-1] / sv[0]) ** 2 for sv in svs]
        assert min(ratios) < 1e-10 < max(ratios)

    @pytest.mark.parametrize("offset", NEAR_OFFSETS)
    @pytest.mark.parametrize("n_side", [2, 3, 4])
    def test_near_coincident_targets(self, n_side, offset):
        # F keeps the near-zero singular pair of the two close targets.
        _assert_certified_solve(_near_coincident_a(n_side, offset))

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
        a = response_matrix(geom, desk_targets(), shape).a
        _, report = solve_per_antenna_sdp(a, DESK_P_T_MW)
        assert report.objective == pytest.approx(objective, rel=1e-6)
        assert report.dual_bound == pytest.approx(dual_bound, rel=1e-6)

    def test_desk_zero_shape_split_is_pinned(self):
        # The desk SDP at the zero shape has more than one optimum within the
        # certified gap: a generalized power method reaches the same total
        # with the split 384.51 / 384.51 / 271.45 mW, and the BCD run that
        # follows it misses the per-target criterion. Pin the interior
        # point's split so a solver that lands elsewhere fails here first.
        geom = desk_geometry(1.0)
        a = response_matrix(geom, desk_targets(), SurfaceShape.zero(geom)).a
        cov, _ = solve_per_antenna_sdp(a, DESK_P_T_MW)
        per_target = np.real(column_powers(a, cov.r @ a))
        np.testing.assert_allclose(per_target, [411.15175, 411.15175, 218.16245], rtol=1e-5)

    def test_scale_invariance_of_argmax(self):
        # Scaling B scales the objective; scaling p_t scales the covariance.
        rng = np.random.default_rng(3)
        a = random_a(6, 2, rng)
        _, rep1 = solve_per_antenna_sdp(a, p_t=2.0)
        _, rep2 = solve_per_antenna_sdp(np.sqrt(10.0) * a, p_t=2.0)
        assert rep2.objective == pytest.approx(10.0 * rep1.objective, rel=1e-6)
        _, rep3 = solve_per_antenna_sdp(a, p_t=4.0)
        assert rep3.objective == pytest.approx(2.0 * rep1.objective, rel=1e-6)


def _fast_path_panel():
    "Seeded steering matrices: random N = 1-30, K = 1-5, K >= N, coincident targets."
    rng = np.random.default_rng(12)
    panel = []
    for _ in range(40):
        n = int(rng.integers(1, 31))
        k = int(rng.integers(1, 6))
        panel.append(random_a(n, k, rng))
    for n, k in ((1, 3), (2, 4), (3, 5), (4, 4)):
        panel.append(random_a(n, k, rng))
    for n in (5, 12, 25):
        col = random_a(n, 1, rng)
        panel.append(np.concatenate([col, col, random_a(n, 1, rng)], axis=1))
        panel.append(np.concatenate([unit_modulus_a(n, rng)] * 3, axis=1))
    geom = desk_geometry(1.0)
    for seed in (None, 1, 2, 3):
        shape = (SurfaceShape.zero(geom) if seed is None else
                 SurfaceShape.uniform_random(geom, np.random.default_rng(seed)))
        panel.append(response_matrix(geom, desk_targets(), shape).a)
    return panel


class TestRank1FastPath:
    def test_no_uncertified_result(self):
        # Every solve, rank 1 or not, returns a covariance within the
        # certified gap. A rank-1 R is w w^H from the rank-1 stage, and the
        # dual point behind the reported bound is y' = lam y with
        # y_n = Re(conj(w_n) (B w)_n) and lam the top eigenvalue of
        # Diag(y)^-1/2 B Diag(y)^-1/2; a dense eigensolver confirms lam and
        # that Diag(y') - B is PSD at small N.
        n_fast = n_dense = 0
        for a in _fast_path_panel():
            n = a.shape[0]
            b = gram(a)
            p_t = 3.0
            cov, report = solve_per_antenna_sdp(a, p_t)
            assert report.converged
            assert report.relative_gap <= DEFAULT_SDP_TOL
            gap = (report.dual_bound - report.objective) / report.dual_bound
            assert 0.0 <= gap <= DEFAULT_SDP_TOL + 1e-12
            assert report.objective == pytest.approx(
                float(np.real(np.sum(cov.r * b.T))), rel=1e-9)
            assert 0 < report.iterations <= DEFAULT_ITER_CAP
            cov.validate()
            if rank(cov.r) > 1:
                continue
            n_fast += 1
            w = cov.r[:, 0] / np.sqrt(cov.r[0, 0].real)
            np.testing.assert_allclose(cov.r, np.outer(w, w.conj()), atol=1e-12 * p_t)
            if n <= 12:
                n_dense += 1
                y = np.real(w.conj() * (b @ w))
                lam = report.dual_bound / float(np.sum(y))
                y_dual = lam * y
                root = 1.0 / np.sqrt(y)
                assert lam == pytest.approx(
                    float(np.linalg.eigvalsh(root[:, None] * b * root * (p_t / n))[-1]), rel=1e-9)
                scale = float(np.linalg.eigvalsh(b)[-1]) * p_t / n
                assert np.linalg.eigvalsh(np.diag(y_dual) - b * p_t / n)[0] >= -1e-9 * scale
        assert n_fast >= 10 and n_dense >= 5, (n_fast, n_dense)

    def test_single_target_takes_the_fast_path(self):
        rng = np.random.default_rng(13)
        for n in (1, 7, 30):
            a = random_a(n, 1, rng)
            cov, report = solve_per_antenna_sdp(a, p_t=5.0)
            assert rank(cov.r) == 1
            assert report.iterations > 0
            assert report.relative_gap <= DEFAULT_SDP_TOL
            lam, vec = np.linalg.eigh(cov.r)
            w = np.sqrt(lam[-1]) * vec[:, -1]
            np.testing.assert_allclose(np.abs(w) ** 2, 5.0 / n, rtol=1e-10)
            np.testing.assert_allclose(cov.r, np.outer(w, w.conj()), atol=1e-12)

    def test_desk_zero_shape_falls_back(self):
        # Its optimum has rank 3, so no rank-1 point can be certified and
        # the block stage returns the centre of a rank-3 face.
        geom = desk_geometry(1.0)
        a = response_matrix(geom, desk_targets(), SurfaceShape.zero(geom)).a
        cov, report = solve_per_antenna_sdp(a, DESK_P_T_MW)
        assert rank(cov.r) == 3
        assert report.iterations > 0
        assert report.converged

    def test_desk_zero_shape_without_the_centre(self, monkeypatch):
        # When the centre's Cholesky factor fails, the block stage keeps its
        # certified iterate instead of the face's centre.
        geom = desk_geometry(1.0)
        a = response_matrix(geom, desk_targets(), SurfaceShape.zero(geom)).a

        calls = []

        def no_cholesky(x, *args, **kwargs):
            calls.append(np.shape(x))
            raise np.linalg.LinAlgError("synthetic failure")

        monkeypatch.setattr(np.linalg, "cholesky", no_cholesky)
        cov, report = solve_per_antenna_sdp(a, DESK_P_T_MW)
        assert calls == [(3, 3)]            # the rank-3 face's centre was tried
        assert report.converged
        assert report.relative_gap <= DEFAULT_SDP_TOL
        cov.validate()
        assert report.objective == pytest.approx(
            float(np.real(np.sum(cov.r * gram(a).T))), rel=1e-9)

    def test_a_certified_rank1_solve_runs_one_eigh(self, monkeypatch, morph_mimo_results):
        # One r x r eigh gives the certificate's bound and its face, so the
        # SDP at the desk fim-mimo optimum shape decomposes nothing else; the
        # secular solve it replaced ran one eigh per step, 6 in all.
        res, _ = morph_mimo_results[1.0]
        a = response_matrix(desk_geometry(1.0), desk_targets(), res.shape).a
        shapes = []
        eigh = np.linalg.eigh

        def counting(x, *args, **kwargs):
            shapes.append(np.shape(x))
            return eigh(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        cov, report = solve_per_antenna_sdp(a, DESK_P_T_MW)
        assert report.converged and cov.g.shape[1] == 1
        assert shapes == [(3, 3)]


def _family_a(family, n, k, seed):
    "A seeded N x K steering matrix: Gaussian, unit-modulus, or with coincident targets."
    rng = np.random.default_rng(seed)
    a = random_a(n, k, rng)
    if family == "unit-modulus":
        return np.exp(1j * np.angle(a))
    if family == "coincident":
        return a[:, rng.integers(0, max(1, k // 2), k)]
    return a


def _recording(monkeypatch, name, record):
    "Wrap covariance.<name> so that ``record`` sees each call's result."
    original = getattr(covariance, name)

    def wrapper(*args):
        out = original(*args)
        record(out)
        return out

    monkeypatch.setattr(covariance, name, wrapper)


def _assert_valid_certificate(a, v):
    """``_certify`` of the unit-row V (or vector w) on the normalized problem of A, checked densely.

    Diag(y') - B must be PSD up to the rounding of ``eigvalsh``, and the
    bound 1^T y' finite and at least tr(V^H B V), whatever V is.
    """
    u, sv, _ = np.linalg.svd(a, full_matrices=False)
    an, f = a / sv[0], u * (sv / sv[0])
    value, y_dual, dual, _, face = covariance._certify(an, v, f)
    b = gram(an)
    vm = v.reshape(a.shape[0], -1)
    assert value == pytest.approx(float(np.real(np.trace(vm.conj().T @ b @ vm))),
                                  rel=1e-12, abs=1e-15)
    assert np.isfinite(dual) and dual == pytest.approx(float(np.sum(y_dual)), rel=1e-12)
    assert dual >= value
    slack = np.diag(y_dual) - f @ f.conj().T
    assert np.linalg.eigvalsh(slack)[0] >= -1e-14 * max(1.0, float(np.max(y_dual)))
    assert 1 <= face.shape[1] <= f.shape[1]


class TestSolverProperties:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 12), k=st.integers(1, 4), columns=st.integers(0, 4),
           zero_row=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_certificate_of_any_iterate_is_valid(self, n, k, columns, zero_row, seed):
        # Not only solver outputs: a random unit-row V has y_n <= 0 in some
        # rows, as does a zero row of A (y_n = 0), and K >= N gives r = N.
        rng = np.random.default_rng(seed)
        a = random_a(n, k, rng)
        if zero_row and n > 1:
            a[rng.integers(n)] = 0.0
        v = random_a(n, min(columns, n, k), rng) if columns else random_a(n, 1, rng)[:, 0]
        _assert_valid_certificate(a, covariance._rownorm(v))

    def test_certificate_of_an_iterate_that_b_annihilates(self):
        # B V = 0 makes every y_n zero; the floor keeps the bound finite.
        a = np.ones((2, 1), dtype=complex)
        v = np.array([1.0, -1.0], dtype=complex)
        _assert_valid_certificate(a, v)

    @settings(max_examples=100, deadline=None)
    @given(family=st.sampled_from(["gaussian", "unit-modulus", "coincident"]),
           n=st.integers(1, 30), k=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_every_solve_is_certified(self, family, n, k, seed):
        # K >= N is drawn too; the last certificate's y' is the reported
        # bound's dual point, and a dense eigensolver confirms it at small N.
        a = _family_a(family, n, k, seed)
        duals = []
        with pytest.MonkeyPatch.context() as mp:
            _recording(mp, "_certify", lambda out: duals.append(out[1]))
            cov, report = solve_per_antenna_sdp(a, 2.0)
        assert report.converged
        assert report.iterations < DEFAULT_ITER_CAP
        cov.validate()
        assert report.objective <= report.dual_bound
        sv1 = float(np.linalg.norm(a, 2))
        y = duals[-1]
        assert 2.0 / n * sv1 ** 2 * float(np.sum(y)) == pytest.approx(report.dual_bound, rel=1e-12)
        if n <= 12:
            slack = np.diag(y) - gram(a / sv1)
            assert np.linalg.eigvalsh(slack)[0] >= -1e-14 * max(1.0, float(np.max(y)))

    @pytest.mark.parametrize("which", ["desk-zero-shape", "slowest-panel-input"])
    def test_block_stage_value_never_falls(self, which, monkeypatch):
        # Panel input 21 (N = 28, K = 4) is the one that plain steps take to
        # the 10,000-step cap; without the safeguard both inputs lose value.
        if which == "desk-zero-shape":
            geom = desk_geometry(1.0)
            a = response_matrix(geom, desk_targets(), SurfaceShape.zero(geom)).a
        else:
            a = _fast_path_panel()[21]
        certified, stepped = [], []
        _recording(monkeypatch, "_certify", lambda out: certified.append(out[0]))
        _recording(monkeypatch, "_anderson_step",
                   lambda out: stepped.append(float(np.vdot(out[0], out[0]).real)))
        _, report = solve_per_antenna_sdp(a, 3.0)
        assert report.converged
        assert len(certified) >= 2 and stepped             # the block stage ran
        assert np.all(np.diff(certified[1:]) >= 0.0)
        # Each step's value ||F^H V||^2 falls at most by rounding.
        assert np.all(np.diff(stepped) >= -1e-13 * stepped[-1])


class TestStepBudget:
    """Power-step counts are deterministic, so a regression to plain steps fails here."""

    def test_panel_solves_take_at_most_1000_steps(self):
        steps = [solve_per_antenna_sdp(a, 3.0)[1].iterations for a in _fast_path_panel()]
        assert max(steps) <= 1000, sorted(steps)[-5:]

    def test_desk_fim_mimo_takes_at_most_6000_sdp_steps(self, monkeypatch):
        runs = []
        run_single_start = bcd._run_single_start

        def keep(*args, **kwargs):
            runs.append(run_single_start(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(bcd, "_run_single_start", keep)
        solve_benchmark(Scheme.FIM_MIMO, desk_geometry(1.0), desk_targets(), DESK_P_T_MW,
                        BcdConfig(rng_seed=0, n_starts=4))
        assert len(runs) == 4
        total = sum(rec.sdp_iterations for res in runs for rec in res.trace.records)
        assert total <= 6000, total


class TestNewtonStep:
    """K >= N, where the factor F has full rank (r = N)."""

    def test_k_above_n_certificate_and_exact_diagonal(self):
        # K >= N makes the factor F full rank (r = N), so the block stage
        # runs with N columns; the certificate and the diagonal must hold.
        rng = np.random.default_rng(7)
        n, p_t = 36, 2.0
        a = random_a(n, 40, rng)
        b = gram(a)
        cov, report = solve_per_antenna_sdp(a, p_t)
        assert report.converged
        assert report.relative_gap <= DEFAULT_SDP_TOL
        assert report.objective <= report.dual_bound
        assert report.objective == pytest.approx(
            float(np.real(np.sum(cov.r * b.T))), rel=1e-9)
        np.testing.assert_allclose(np.real(np.diag(cov.r)), p_t / n, rtol=1e-12)
        cov.validate()
        # the scaled identity is feasible, and no feasible R beats p_t lambda_max(B)
        assert report.objective >= p_t / n * float(np.real(np.trace(b)))
        assert report.dual_bound <= p_t * float(np.linalg.eigvalsh(b)[-1]) * (1.0 + 2e-6)


class TestDegenerateFace:
    """Orthogonal targets: every split of the power among them is optimal.

    On a 16 x 16 array the desk targets' steering vectors are exactly
    orthogonal at the zero shape. The optimal face is then all of
    {R >= 0 : diag(R) = P_t/N, range(R) = span(A)}, and its analytic centre
    is R = (P_t/N) A A^H / K, the equal split.
    """

    @staticmethod
    def orthogonal_a():
        geom = desk_geometry(0.0, n_x=16, n_z=16)
        a = response_matrix(geom, desk_targets(), SurfaceShape.zero(geom)).a
        assert np.max(np.abs(np.triu(a.conj().T @ a, 1))) <= 1e-12 * geom.n_elements
        return a

    def test_answer_does_not_depend_on_the_target_order(self):
        a = self.orthogonal_a()
        cov, report = solve_per_antenna_sdp(a, DESK_P_T_MW)
        assert report.relative_gap <= DEFAULT_SDP_TOL
        assert rank(cov.r) == 3
        for order in ([2, 0, 1], [1, 0, 2], [0, 2, 1]):
            moved, _ = solve_per_antenna_sdp(a[:, order], DESK_P_T_MW)
            assert np.max(np.abs(moved.r - cov.r)) <= 1e-9 * np.max(np.abs(cov.r))

    def test_raa_mimo_splits_the_power_equally(self):
        geom = desk_geometry(0.0, n_x=16, n_z=16)
        res = solve_benchmark(Scheme.RAA_MIMO, geom, desk_targets(), DESK_P_T_MW, BcdConfig())
        per_dbm, total_mw, _ = target_powers(res.cov, geom, desk_targets(), res.shape)
        assert total_mw == pytest.approx(DESK_P_T_MW * geom.n_elements, rel=1e-9)
        assert float(np.max(per_dbm) - np.min(per_dbm)) <= 1e-6
        assert per_dbm[0] == pytest.approx(10.0 * np.log10(DESK_P_T_MW * 256 / 3), abs=1e-6)


class TestRandomizeRank1:
    def test_weights_have_constant_modulus(self):
        rng = np.random.default_rng(6)
        a = random_a(8, 3, rng)
        cov, _ = solve_per_antenna_sdp(a, p_t=8.0)
        w, val = randomize_rank1(cov, a, n_samples=200, rng_seed=1)
        np.testing.assert_allclose(np.abs(w), 1.0, rtol=1e-12)
        assert val == pytest.approx(float(np.real(w.conj() @ gram(a) @ w)), rel=1e-12)

    def test_never_beats_the_relaxation_dual(self):
        rng = np.random.default_rng(7)
        a = random_a(8, 3, rng)
        cov, report = solve_per_antenna_sdp(a, p_t=8.0)
        _, val = randomize_rank1(cov, a, n_samples=500, rng_seed=2)
        assert val <= report.dual_bound * (1.0 + 1e-9)

    def test_value_nondecreasing_in_sample_count(self):
        # Samples come from one sequential stream, so more samples can only
        # improve the best value for the same seed.
        rng = np.random.default_rng(8)
        a = random_a(6, 2, rng)
        cov, _ = solve_per_antenna_sdp(a, p_t=6.0)
        vals = [
            randomize_rank1(cov, a, n_samples=m, rng_seed=3)[1]
            for m in (1, 10, 100, 400)
        ]
        assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(9)
        a = random_a(5, 2, rng)
        cov, _ = solve_per_antenna_sdp(a, p_t=5.0)
        w1, v1 = randomize_rank1(cov, a, n_samples=50, rng_seed=42)
        w2, v2 = randomize_rank1(cov, a, n_samples=50, rng_seed=42)
        np.testing.assert_array_equal(w1, w2)
        assert v1 == v2

    def test_validation(self):
        rng = np.random.default_rng(10)
        a = random_a(4, 1, rng)
        cov, _ = solve_per_antenna_sdp(a, p_t=4.0)
        with pytest.raises(ValueError):
            randomize_rank1(cov, a, n_samples=0)
        # a zero R is refused when built from its dense form, a zero G when drawn from
        with pytest.raises(ValueError, match="zero"):
            CovarianceMatrix(r=np.zeros((4, 4), dtype=complex), power_budget=4.0,
                             constraint_kind=ConstraintKind.PER_ANTENNA)
        degenerate = CovarianceMatrix(np.zeros((4, 1), dtype=complex), power_budget=4.0)
        with pytest.raises(ValueError, match="zero"):
            randomize_rank1(degenerate, a, n_samples=10)
        with pytest.raises(ValueError, match="rows"):
            randomize_rank1(cov, random_a(5, 1, rng), n_samples=10)

    def test_rejects_non_hermitian_or_non_finite_covariance(self):
        # eigh reads one triangle only: an edited upper triangle would draw
        # the same weights as before, and a NaN would draw NaN weights; the
        # dense constructor refuses both, so no such covariance reaches a draw
        rng = np.random.default_rng(10)
        a = random_a(4, 2, rng)
        cov, _ = solve_per_antenna_sdp(a, p_t=4.0)
        for edit, message in ((0.5j, "not Hermitian"), (np.nan, "non-finite")):
            r = cov.r.copy()
            r[0, 1] += edit
            with pytest.raises(ValueError, match=message):
                CovarianceMatrix(r=r, power_budget=4.0,
                                 constraint_kind=ConstraintKind.PER_ANTENNA)

    def test_weights_spend_the_covariance_budget(self):
        # the budget is read off the covariance, so it is given once
        rng = np.random.default_rng(12)
        a = random_a(8, 2, rng)
        cov, _ = solve_per_antenna_sdp(a, p_t=2.0)
        w, val = randomize_rank1(cov, a, n_samples=50, rng_seed=4)
        np.testing.assert_allclose(np.abs(w) ** 2, 2.0 / 8, rtol=1e-12)
        assert val == pytest.approx(float(np.real(w.conj() @ gram(a) @ w)), rel=1e-12)

    def test_rank1_covariance_draws_its_vector(self):
        # R = rho w w^H has one eigenpair, so every draw is w up to one
        # common phase, and the value is ||A^H w||^2
        rng = np.random.default_rng(15)
        a = random_a(8, 3, rng)
        w = np.sqrt(4.0 / 8) * np.exp(2j * np.pi * rng.uniform(size=8))
        cov = CovarianceMatrix(r=np.outer(w, w.conj()), power_budget=4.0,
                               constraint_kind=ConstraintKind.PER_ANTENNA)
        w_out, val = randomize_rank1(cov, a, n_samples=20, rng_seed=5)
        phase = w_out[0] / w[0]
        assert abs(phase) == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(w_out, phase * w, rtol=0, atol=1e-12)
        a_w = a.conj().T @ w
        assert val == pytest.approx(float(np.real(np.vdot(a_w, a_w))), rel=1e-12)

    def test_draws_depend_on_r_not_on_the_factor_phases(self):
        # Rotating each column of G by a unit phase leaves R = G G^H as it
        # is, but the SVD behind eigenfactor() may then return its columns
        # with other phases, so the same seeded normals would draw other G z.
        rm = response_matrix(desk_geometry(1.0), desk_targets(),
                             SurfaceShape.zero(desk_geometry(1.0)))
        cov, _ = solve_per_antenna_sdp(rm.a, DESK_P_T_MW)
        assert cov.g.shape[1] == 3
        rotated = CovarianceMatrix(cov.g * np.exp(1j * np.array([0.7, -2.1, 2.9])),
                                   power_budget=DESK_P_T_MW)
        np.testing.assert_allclose(rotated.r, cov.r, rtol=0, atol=1e-15)
        w, val = randomize_rank1(cov, rm.a, rng_seed=0)
        w_rot, val_rot = randomize_rank1(rotated, rm.a, rng_seed=0)
        assert val_rot == pytest.approx(val, rel=1e-12)
        np.testing.assert_allclose(w_rot, w, rtol=0, atol=1e-12)

    def test_draws_hold_under_a_last_bit_change_of_the_factor(self):
        # At the desk zero shape each column of R's eigenfactor has top
        # moduli that tie up to rounding, so a peak read by a plain argmax
        # flips with the last bits of G, and the draws turn with it.
        rm = response_matrix(desk_geometry(1.0), desk_targets(),
                             SurfaceShape.zero(desk_geometry(1.0)))
        cov, _ = solve_per_antenna_sdp(rm.a, DESK_P_T_MW)
        w, val = randomize_rank1(cov, rm.a, rng_seed=0)
        rng = np.random.default_rng(3)
        for _ in range(20):
            nudged = CovarianceMatrix(
                cov.g * (1.0 + 1e-15 * rng.standard_normal(cov.g.shape)),
                power_budget=DESK_P_T_MW)
            w_nudged, val_nudged = randomize_rank1(nudged, rm.a, rng_seed=0)
            np.testing.assert_allclose(w_nudged, w, rtol=0, atol=1e-12)
            assert val_nudged == pytest.approx(val, rel=1e-12)

    def test_draw_layout_is_sample_major_over_the_factor_columns(self):
        # Sample s is G z_s / sqrt(2) with (Re z_s, Im z_s) the stream's
        # entries [2 k s, 2 k (s + 1)), k real parts then k imaginary ones,
        # and G is eigenfactor() with each column's first entry within
        # _PEAK_TIE_REL of its largest modulus turned real and positive.
        # Rebuilt here, the choice is bit-equal.
        rm = response_matrix(desk_geometry(1.0), desk_targets(),
                             SurfaceShape.zero(desk_geometry(1.0)))
        cov, _ = solve_per_antenna_sdp(rm.a, DESK_P_T_MW)
        n_samples, seed = 200, 11
        w, val = randomize_rank1(cov, rm.a, n_samples=n_samples, rng_seed=seed)
        g = cov.eigenfactor()
        n, k = g.shape
        assert k == 3
        mod = np.abs(g)
        first = np.argmax(mod >= (1.0 - covariance._PEAK_TIE_REL) * mod.max(axis=0), axis=0)
        peak = g[first, np.arange(k)]
        g = g * (peak.conj() / np.abs(peak))
        z = np.random.default_rng(seed).standard_normal((n_samples, 2, k))
        xi = g @ ((z[:, 0] + 1j * z[:, 1]).T / np.sqrt(2.0))
        w_all = np.sqrt(DESK_P_T_MW / n) * np.exp(1j * np.angle(xi))
        a_w = rm.a.conj().T @ w_all
        values = np.real(column_powers(a_w, a_w))
        best = int(np.argmax(values))
        np.testing.assert_array_equal(w.view(np.uint64), w_all[:, best].copy().view(np.uint64))
        assert np.float64(val).view(np.uint64) == values[best].view(np.uint64)

    @pytest.mark.parametrize("p_t", BAD_POWER)
    def test_rejects_bad_power_budget(self, p_t):
        cov = CovarianceMatrix(r=np.eye(4, dtype=complex), power_budget=p_t,
                               constraint_kind=ConstraintKind.PER_ANTENNA)
        with pytest.raises(ValueError, match="finite and positive"):
            randomize_rank1(cov, np.ones((4, 1), dtype=complex), n_samples=10)

    @pytest.mark.parametrize("bad, message", BAD_STEERING)
    def test_rejects_bad_steering_matrix(self, bad, message):
        cov = CovarianceMatrix(r=np.eye(4, dtype=complex), power_budget=4.0,
                               constraint_kind=ConstraintKind.PER_ANTENNA)
        with pytest.raises(ValueError, match=message):
            randomize_rank1(cov, bad, n_samples=10)


class TestRankProfile:
    def test_eigenvalues_descending_and_trace_residual(self):
        rng = np.random.default_rng(11)
        geom = ArrayGeometry(n_x=4, n_z=4, dx=0.5, dz=0.5)
        k = 3
        targets = TargetSet(thetas=rng.uniform(0, np.pi, k),
                            phis=rng.uniform(0, np.pi, k))
        rm = response_matrix(geom, targets, SurfaceShape.zero(geom))
        eigvals, residual = rank_profile(gram(rm.a), expected_trace=k * geom.n_elements)
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
        # a NaN diagonal entry is not p_t/N either, though it compares false;
        # it is refused when the covariance is built
        r = np.eye(4, dtype=complex)
        r[2, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            CovarianceMatrix(r=r, power_budget=4.0,
                             constraint_kind=ConstraintKind.PER_ANTENNA)

    def test_catches_non_square(self):
        with pytest.raises(ValueError, match=r"covariance is \(3, 4\)"):
            CovarianceMatrix(r=np.ones((3, 4), dtype=complex), power_budget=3.0,
                             constraint_kind=ConstraintKind.PER_ANTENNA)

    def test_catches_non_hermitian(self):
        # diagonal exactly p_t/N = 1; R[1, 0] should be conj(R[0, 1]) = -0.5j
        r = np.eye(4, dtype=complex)
        r[0, 1] = r[1, 0] = 0.5j
        with pytest.raises(ValueError, match="not Hermitian"):
            CovarianceMatrix(r=r, power_budget=4.0,
                             constraint_kind=ConstraintKind.PER_ANTENNA)
        # an asymmetry within 1e-10 of the largest entry is rounding
        r = np.eye(4, dtype=complex)
        r[0, 1] = 1e-12
        CovarianceMatrix(r=r, power_budget=4.0,
                         constraint_kind=ConstraintKind.PER_ANTENNA).validate()

    @pytest.mark.parametrize("p_t", BAD_POWER)
    def test_rejects_bad_power_budget(self, p_t):
        # G = 0 with P_t = 0 meets every other check
        for cov in (CovarianceMatrix(r=np.eye(4, dtype=complex), power_budget=p_t,
                                     constraint_kind=ConstraintKind.PER_ANTENNA),
                    CovarianceMatrix(np.zeros((4, 1), dtype=complex), power_budget=p_t)):
            with pytest.raises(ValueError, match="finite and positive"):
                cov.validate()

    def test_catches_indefinite(self):
        # diagonal exactly p_t/N = 1, but eigenvalues 3, 1, 1 and -1
        r = np.eye(4, dtype=complex)
        r[0, 1] = r[1, 0] = 2.0
        with pytest.raises(ValueError, match="not PSD"):
            CovarianceMatrix(r=r, power_budget=4.0,
                             constraint_kind=ConstraintKind.PER_ANTENNA)
