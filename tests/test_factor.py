"""The covariance held by its factor G, R = G G^H: dense equivalence, refusals, memory."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import morphbeam.covariance as covariance
from conftest import DESK_P_T_MW, desk_geometry, desk_targets, loop_beampattern_mw
from morphbeam.array_model import (
    ArrayGeometry,
    SurfaceShape,
    TargetSet,
    response_matrix,
    steering_matrix,
)
from morphbeam.bcd import BcdConfig, Scheme, solve_benchmark
from morphbeam.beampattern import evaluate_beampattern, target_powers
from morphbeam.covariance import CovarianceMatrix, randomize_rank1, solve_per_antenna_sdp
from morphbeam.objective import cumulated_power, power_gradient, shape_gradient
from morphbeam.results import read_covariance_csv, write_covariance_csv
from morphbeam.shape_opt import ascend_shape


def _close(got, want, scale):
    "Entrywise agreement to 1e-12 of ``scale``, the size of the terms the value sums."
    assert np.max(np.abs(np.asarray(got) - np.asarray(want))) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(n_x=st.integers(1, 4), n_z=st.integers(1, 4), n_targets=st.integers(1, 4),
       k=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_factor_agrees_with_its_dense_product(n_x, n_z, n_targets, k, seed):
    # Every quadratic form and gradient on G matches the same form on the
    # dense R = G G^H, computed here with R @ A; so does the dense
    # constructor, which stores R's eigenfactor instead of G.
    rng = np.random.default_rng(seed)
    geom = ArrayGeometry(n_x=n_x, n_z=n_z, dx=0.5, dz=0.5, d_max=0.5)
    n = geom.n_elements
    targets = TargetSet(rng.uniform(0.1, np.pi - 0.1, n_targets),
                        rng.uniform(0.1, np.pi - 0.1, n_targets))
    shape = SurfaceShape(rng.uniform(-0.5, 0.5, n))
    g = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    r = g @ g.conj().T
    p_t = float(np.trace(r).real)
    a = steering_matrix(geom, targets.thetas, targets.phis, shape.displacements)
    ra = r @ a
    c = np.sin(targets.thetas) * np.sin(targets.phis)
    per_want = np.real(np.sum(a.conj() * ra, axis=0))
    total_want = float(np.sum(per_want))
    grad_want = power_gradient(a, ra, c)
    # |terms| of each sum: a^H R a <= N tr(R), and the gradient's sum over
    # targets weighs each by 4 pi |c_k|
    power_scale = n * p_t
    grad_scale = 4.0 * np.pi * float(np.sum(np.abs(c))) * power_scale
    t_axis, p_axis = np.linspace(0.0, np.pi, 7), np.linspace(0.0, np.pi, 5)
    grid_want = loop_beampattern_mw(r, geom, shape, t_axis, p_axis)
    rm = response_matrix(geom, targets, shape)

    for cov in (CovarianceMatrix(g, power_budget=p_t), CovarianceMatrix(r=r, power_budget=p_t)):
        _close(cumulated_power(cov, rm), total_want, power_scale)
        _close(shape_gradient(cov, geom, targets, shape), grad_want, grad_scale)
        per_dbm, total, _ = target_powers(cov, geom, targets, shape)
        _close(total, total_want, power_scale)
        lit = per_want > 1e-6 * power_scale           # a dBm round trip keeps ~1e-15 relative
        _close(10.0 ** (per_dbm[lit] / 10.0), per_want[lit], power_scale)
        _, trace = ascend_shape(cov, geom, targets, shape, max_iters=1)
        _close(trace.objectives[0], total_want, power_scale)
        _close(trace.grad_norms[0], np.linalg.norm(grad_want), grad_scale * np.sqrt(n))
        grid = evaluate_beampattern(cov, geom, shape, t_axis, p_axis)
        lit = grid_want > 1e-6 * power_scale
        _close(10.0 ** (grid.power_dbm[lit] / 10.0), grid_want[lit], power_scale)
        _close(cov.r, r, p_t)


class TestRefusals:
    @pytest.mark.parametrize("r, reason", [
        (np.diag([1.0, np.nan, 1.0]), "non-finite"),
        (np.array([[1.0, 0.5j], [0.5j, 1.0]]), "not Hermitian"),
        (np.diag([1.0, 1.0, -1e-3]), "not PSD"),
        (np.zeros((3, 3)), "zero"),
    ], ids=["nan", "non-hermitian", "indefinite", "zero"])
    def test_dense_constructor_refuses(self, r, reason):
        with pytest.raises(ValueError, match=reason):
            CovarianceMatrix(r=r, power_budget=3.0)

    def test_construction_refuses_a_bad_factor(self):
        g = np.ones((4, 2), dtype=complex)
        g[1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            CovarianceMatrix(g, power_budget=4.0)
        for bad in (np.ones(4), np.ones((0, 2)), np.ones((4, 0)), np.ones((2, 2, 2))):
            with pytest.raises(ValueError, match="nonempty N x k"):
                CovarianceMatrix(bad, power_budget=4.0)
        for both_or_neither in ({"r": np.eye(4)}, {}):
            with pytest.raises(TypeError, match="not both or neither"):
                CovarianceMatrix(*([np.ones((4, 1))] if both_or_neither else []),
                                 power_budget=4.0, **both_or_neither)

    def test_every_consumer_refuses_a_factor_with_the_wrong_row_count(self):
        geom = ArrayGeometry(n_x=2, n_z=2, dx=0.5, dz=0.5, d_max=0.5)
        targets = TargetSet.from_degrees([40.0], [70.0])
        shape = SurfaceShape.zero(geom)
        rm = response_matrix(geom, targets, shape)
        three_rows = CovarianceMatrix(np.ones((3, 1), dtype=complex), power_budget=3.0)
        axis = np.linspace(0.0, np.pi, 3)
        calls = [
            lambda cov: cumulated_power(cov, rm),
            lambda cov: shape_gradient(cov, geom, targets, shape),
            lambda cov: ascend_shape(cov, geom, targets, shape),
            lambda cov: target_powers(cov, geom, targets, shape),
            lambda cov: evaluate_beampattern(cov, geom, shape, axis, axis),
            lambda cov: randomize_rank1(cov, rm.a, n_samples=4),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="3 rows, expected 4"):
                call(three_rows)
            with pytest.raises(TypeError, match="CovarianceMatrix"):
                call(np.eye(4, dtype=complex))          # a bare dense R

    def test_validate_refuses_a_row_norm_off_the_budget(self):
        w = np.exp(1j * np.linspace(0.0, 3.0, 4))[:, None]     # |w_n|^2 = 1 = P_t / N
        CovarianceMatrix(w, power_budget=4.0).validate()
        CovarianceMatrix(np.hstack([w, w]) / np.sqrt(2.0), power_budget=4.0).validate()
        off = w.copy()
        off[2] *= 1.0 + 1e-6
        with pytest.raises(ValueError, match="per-antenna diagonal off"):
            CovarianceMatrix(off, power_budget=4.0).validate()


class TestWrittenRank:
    """``covariance.csv`` gets R's numerical rank, whatever the column count of the held G."""

    @staticmethod
    def written_columns(cov, tmp_path):
        path = tmp_path / "covariance.csv"
        write_covariance_csv(path, cov)
        back = read_covariance_csv(path)
        np.testing.assert_array_equal(back, cov.eigenfactor())
        np.testing.assert_allclose(back @ back.conj().T, cov.r, rtol=0,
                                   atol=1e-12 * np.max(np.abs(cov.r)))
        return back.shape[1]

    def test_rank1_stage_optimum_writes_one_column(self, tmp_path):
        geom = ArrayGeometry(n_x=4, n_z=4, dx=0.5, dz=0.5, d_max=0.0)
        targets = TargetSet.from_degrees([30.0, 35.0], [60.0, 65.0])
        cov, report = solve_per_antenna_sdp(response_matrix(geom, targets,
                                                            SurfaceShape.zero(geom)).a, 10.0)
        assert report.converged and cov.g.shape[1] == 1
        assert self.written_columns(cov, tmp_path) == 1

    def test_block_stage_on_a_one_column_face_writes_one_column(self, tmp_path, monkeypatch):
        # With the rank-1 stage cut to one step, the block stage runs with
        # r = 3 columns on targets whose optimum is unique and rank 1. Its
        # certified iterate has lam_2 / lam_1 near 1e-9, above the N eps
        # floor; the solve returns the centre of the one-column face of the
        # last certificate, exp(j arg u).
        geom = ArrayGeometry(n_x=10, n_z=10, dx=0.5, dz=0.5, d_max=1.0)
        targets = TargetSet.from_degrees([80.0, 85.0, 90.0], [80.0, 85.0, 90.0])
        a = response_matrix(geom, targets,
                            SurfaceShape.uniform_random(geom, np.random.default_rng(0))).a
        faces = []
        certify, power_method = covariance._certify, covariance._power_method

        def keep_face(an, v, f):
            out = certify(an, v, f)
            faces.append(out[4].shape[1])
            return out

        monkeypatch.setattr(covariance, "_certify", keep_face)
        monkeypatch.setattr(covariance, "_power_method", lambda an, w, cap: power_method(an, w, 1))
        cov, report = solve_per_antenna_sdp(a, DESK_P_T_MW)
        assert report.converged and report.iterations > 1
        assert len(faces) >= 2 and faces[-1] == 1          # the block stage ran
        assert cov.g.shape[1] == 1
        cov.validate()
        assert self.written_columns(cov, tmp_path) == 1

    def test_several_columns_of_rank_one_write_one_column(self, tmp_path):
        # the thin SVD keeps covariance_factor's columns: a G = w c^T with
        # three columns and unit rows is rank 1 to rounding
        rng = np.random.default_rng(3)
        w = np.exp(2j * np.pi * rng.uniform(size=50))
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        cov = CovarianceMatrix(np.outer(w, c / np.linalg.norm(c)), power_budget=50.0)
        cov.validate()
        assert self.written_columns(cov, tmp_path) == 1

    def test_face_centre_writes_its_columns(self, tmp_path):
        # the desk zero shape's optimum is the centre of a three-column face
        geom = desk_geometry(1.0)
        a = response_matrix(geom, desk_targets(), SurfaceShape.zero(geom)).a
        cov, report = solve_per_antenna_sdp(a, DESK_P_T_MW)
        assert report.converged and cov.g.shape[1] == 3
        assert self.written_columns(cov, tmp_path) == 3


def test_optimize_path_allocates_no_n_by_n_array(tmp_path):
    # One fim-mimo start and one outer iteration at N = 400, then the
    # covariance writer: the SDP, the ascent and the writer work on N x k
    # and N x K arrays, so the traced peak stays below one N x N complex
    # array (2.56 MB). Forming R = G G^H once fails here.
    geom = desk_geometry(1.0, n_x=20, n_z=20)
    n = geom.n_elements
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        res = solve_benchmark(Scheme.FIM_MIMO, geom, desk_targets(), DESK_P_T_MW,
                              BcdConfig(n_starts=1, max_outer_iters=1))
        write_covariance_csv(tmp_path / "covariance.csv", res.cov)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.trace.n_outer == 1 and res.trace.records[0].sdp_converged
    assert peak - base < n * n * 16, f"peak {(peak - base) / 1e6:.2f} MB"
