"""Acceptance suite: one test per numbered criterion.

Each test carries a ``criterion`` marker; the terminal summary prints one
PASS/FAIL line per criterion at the end of the run. The desk-scale runs
(10x10 array, three targets, 10 dBm budget) come from session fixtures in
conftest so several criteria can dissect the same optimizer output.
"""

import time

import numpy as np
import pytest

from conftest import DESK_P_T_MW, desk_geometry, desk_targets, finite_difference_gradient
from morphbeam.array_model import (
    ArrayGeometry,
    SurfaceShape,
    TargetSet,
    response_matrix,
)
from morphbeam.bcd import (
    AscentConfig,
    BcdConfig,
    Scheme,
    TerminationReason,
    solve_benchmark,
)
from morphbeam.beampattern import target_powers
from morphbeam.config import ExperimentConfig
from morphbeam.covariance import rank_profile, solve_per_antenna_sdp
from morphbeam.experiments import run_compare
from morphbeam.objective import shape_gradient

WAVELENGTH = 0.0107068735  # 28 GHz carrier


def _random_instance(rng, n_x, n_z, k, d_max=0.5):
    "Random geometry/targets/shape triple away from the coordinate poles."
    geom = ArrayGeometry(n_x=n_x, n_z=n_z, dx=0.5, dz=0.5,
                         wavelength=WAVELENGTH, d_max=d_max)
    targets = TargetSet(rng.uniform(0.05 * np.pi, 0.95 * np.pi, k),
                        rng.uniform(0.05 * np.pi, 0.95 * np.pi, k))
    shape = SurfaceShape(rng.uniform(-d_max, d_max, geom.n_elements))
    return geom, targets, shape


def _random_feasible_r(rng, n, p_t):
    "Random covariance with every diagonal entry exactly p_t/n."
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return (p_t / n) * (g @ g.conj().T)


@pytest.mark.criterion(1, "analytic gradient matches central differences")
def test_gradient_matches_central_differences():
    sizes = [(2, 2), (4, 4), (6, 6)]
    ranks = [1, 3, 5]
    worst = 0.0
    tic = time.perf_counter()
    for i in range(200):
        rng = np.random.default_rng(7000 + i)
        geom, targets, shape = _random_instance(
            rng, *sizes[i % 3], ranks[(i // 3) % 3])
        r = _random_feasible_r(rng, geom.n_elements, 10.0)
        grad = shape_gradient(r, geom, targets, shape)
        fd = finite_difference_gradient(r, geom, targets, shape)
        rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - tic
    assert worst < 1e-6
    assert elapsed < 60.0


@pytest.mark.criterion(2, "response correlation has exact trace and rank at most K")
def test_trace_identity_and_rank_bound():
    sizes = [(2, 2), (3, 3), (4, 4), (5, 4)]
    for i in range(60):
        rng = np.random.default_rng(8100 + i)
        k = 1 + i % 5
        geom, targets, shape = _random_instance(rng, *sizes[i % 4], k)
        b = response_matrix(geom, targets, shape).b
        expected = float(k * geom.n_elements)
        eigs, residual = rank_profile(b, expected_trace=expected)
        assert abs(residual) <= 1e-10 * expected
        assert int(np.sum(eigs > 1e-8 * eigs[0])) <= k


@pytest.mark.criterion(3, "single-target optimum saturates the array gain")
def test_single_target_reaches_full_array_gain():
    p_t = 10.0
    tic = time.perf_counter()
    for n_x, n_z in [(2, 2), (4, 4), (10, 10)]:
        geom = desk_geometry(0.0, n_x=n_x, n_z=n_z)
        targets = TargetSet.from_degrees(np.array([75.0]), np.array([40.0]))
        b = response_matrix(geom, targets, SurfaceShape.zero(geom)).b
        cov, report = solve_per_antenna_sdp(b, p_t)
        ideal = p_t * geom.n_elements
        assert abs(report.objective - ideal) <= 1e-4 * ideal
        cov.validate()
    assert time.perf_counter() - tic < 60.0


@pytest.mark.criterion(4, "duality certificate bounds every solve")
def test_solver_certificate_holds():
    sizes = [(2, 2), (3, 3), (4, 4)]
    p_t = 10.0
    for i in range(30):
        rng = np.random.default_rng(8700 + i)
        geom, targets, shape = _random_instance(rng, *sizes[i % 3], 1 + i % 5)
        b = response_matrix(geom, targets, shape).b
        cov, report = solve_per_antenna_sdp(b, p_t)
        bound = report.dual_bound
        assert report.objective <= bound + 1e-6 * abs(bound)
        lam_max = float(np.linalg.eigvalsh(b)[-1])
        assert report.objective <= p_t * lam_max * (1.0 + 1e-6) + 1e-9
        recomputed = float(np.real(np.trace(cov.r @ b)))
        assert report.objective == pytest.approx(recomputed, rel=1e-9)


def _row_normalized(g):
    return g / np.linalg.norm(g, axis=-1, keepdims=True)


def _oracle_best(b, p_t, seed, n_total=100_000):
    """Best feasible objective found by seeded sampling over covariance roots.

    Any covariance with diagonal p_t/n factors as (p_t/n) G G^H with
    unit-norm rows of G, so sampling G covers the whole feasible set. A
    uniform warmup seeds a shrinking random search around the incumbent.
    """
    rng = np.random.default_rng(seed)
    n = b.shape[0]
    rho = p_t / n

    def batch_value(g):
        return rho * np.real(np.einsum("sic,ij,sjc->s", g.conj(), b, g))

    n_warm = n_total // 5
    g = _row_normalized(rng.standard_normal((n_warm, n, n))
                        + 1j * rng.standard_normal((n_warm, n, n)))
    vals = batch_value(g)
    k = int(np.argmax(vals))
    best_g, best_v = g[k], float(vals[k])

    sigma, misses, drawn = 0.3, 0, n_warm
    while drawn < n_total:
        s = min(256, n_total - drawn)
        cand = _row_normalized(
            best_g[None] + sigma * (rng.standard_normal((s, n, n))
                                    + 1j * rng.standard_normal((s, n, n))))
        vals = batch_value(cand)
        k = int(np.argmax(vals))
        if vals[k] > best_v:
            best_v, best_g = float(vals[k]), cand[k]
            misses = 0
        else:
            misses += s
            if misses >= 512:
                sigma = max(sigma / 2.0, 1e-5)
                misses = 0
        drawn += s
    return best_v


@pytest.mark.criterion(5, "sampling oracle confirms the three-target optimum")
def test_solver_matches_sampling_oracle():
    master = np.random.default_rng(42)
    p_t = 5.0
    for i in range(10):
        f = master.standard_normal((3, 2)) + 1j * master.standard_normal((3, 2))
        b = f @ f.conj().T
        b = 0.5 * (b + b.conj().T)
        _, report = solve_per_antenna_sdp(b, p_t)
        oracle = _oracle_best(b, p_t, seed=1000 + i)
        assert abs(report.objective - oracle) < 5e-3 * oracle


@pytest.mark.criterion(6, "coordinate ascent is monotone and terminates early")
def test_bcd_monotone_and_converges(morph_mimo_results):
    total_wall = 0.0
    for _, (res, wall) in sorted(morph_mimo_results.items()):
        trace = res.trace
        obj = trace.objectives
        assert np.all(np.diff(obj) >= -1e-12 * np.abs(obj[:-1]))
        assert trace.n_outer <= 50
        assert trace.termination_reason != TerminationReason.MAX_ITERS
        total_wall += wall
    assert total_wall < 600.0


@pytest.mark.criterion(7, "morphing gains exceed the rigid baselines")
def test_morphing_gain_over_rigid(rigid_results, morph_mimo_results,
                                  morph_pa_results):
    rigid_mimo = rigid_results[Scheme.RAA_MIMO].objective_mw
    rigid_pa = rigid_results[Scheme.RAA_PA].objective_mw
    morph_mimo = morph_mimo_results[0.5][0].objective_mw
    morph_pa = morph_pa_results[0.5].objective_mw
    assert morph_mimo >= 1.35 * rigid_mimo
    assert morph_pa >= 1.15 * rigid_pa


@pytest.mark.criterion(8, "per-target minima reproduce the reference levels")
def test_per_target_minimum_levels(rigid_results, morph_mimo_results,
                                   morph_pa_results):
    targets = desk_targets()

    def min_dbm(res, d_max):
        geom = desk_geometry(d_max)
        return target_powers(res.cov, geom, targets, res.shape)[2]

    fim_mimo = min_dbm(morph_mimo_results[1.0][0], 1.0)
    fim_pa = min_dbm(morph_pa_results[1.0], 1.0)
    raa_mimo = min_dbm(rigid_results[Scheme.RAA_MIMO], 0.0)
    raa_pa = min_dbm(rigid_results[Scheme.RAA_PA], 0.0)

    assert fim_mimo > fim_pa > raa_pa
    assert fim_mimo > raa_mimo
    assert abs(fim_mimo - 26.64) <= 1.5
    assert abs(raa_mimo - 23.56) <= 0.5


@pytest.mark.criterion(9, "morphing-range gains diminish")
def test_diminishing_returns(warm_range_values):
    v_flat = warm_range_values[0.0]
    v_half = warm_range_values[0.5]
    v_full = warm_range_values[1.0]
    gain_first = (v_half - v_flat) / v_flat
    gain_second = (v_full - v_half) / v_half
    assert gain_first > gain_second > 0.0


@pytest.mark.criterion(10, "scheme dominance and warm-start monotonicity")
def test_dominance_suite():
    rng = np.random.default_rng(2024)
    rel = 1e-8
    cfg = BcdConfig(max_outer_iters=10, n_starts=1, rng_seed=0,
                    ascent=AscentConfig(max_iters=120))
    rigid_geom = desk_geometry(0.0, n_x=4, n_z=4)
    quarter_geom = desk_geometry(0.25, n_x=4, n_z=4)
    half_geom = desk_geometry(0.5, n_x=4, n_z=4)
    for _ in range(50):
        k = int(rng.integers(2, 5))
        targets = TargetSet(rng.uniform(np.pi / 12, 11 * np.pi / 12, k),
                            rng.uniform(np.pi / 12, 11 * np.pi / 12, k))
        raa_pa = solve_benchmark(Scheme.RAA_PA, rigid_geom, targets,
                                 DESK_P_T_MW, cfg)
        raa_mimo = solve_benchmark(Scheme.RAA_MIMO, rigid_geom, targets,
                                   DESK_P_T_MW, cfg)
        fim_quarter = solve_benchmark(Scheme.FIM_MIMO, quarter_geom, targets,
                                      DESK_P_T_MW, cfg)
        fim_half = solve_benchmark(
            Scheme.FIM_MIMO, half_geom, targets, DESK_P_T_MW, cfg,
            provided_starts=((fim_quarter.shape, fim_quarter.cov),))
        assert raa_pa.objective_mw <= raa_mimo.objective_mw * (1.0 + rel)
        assert raa_mimo.objective_mw <= fim_quarter.objective_mw * (1.0 + rel)
        assert fim_quarter.objective_mw <= fim_half.objective_mw * (1.0 + rel)


@pytest.mark.criterion(11, "records are byte-identical across reruns")
def test_records_reproducible(tmp_path):
    raw = {
        "geometry": {
            "n_x": 2, "n_z": 2,
            "dx_wavelengths": 0.5, "dz_wavelengths": 0.5,
            "frequency_hz": 28e9, "d_max_wavelengths": 0.5,
        },
        "targets": [
            {"theta_deg": 40.0, "phi_deg": 70.0},
            {"theta_deg": 120.0, "phi_deg": 100.0},
        ],
        "power": {"p_t_dbm": 10.0},
        "algorithm": {"scheme": "fim-mimo", "max_outer_iters": 5,
                      "n_starts": 1, "ascent_max_iters": 80},
        "output": {"dir": "out", "grid_points": 9},
        "seed": 0,
    }
    cfg = ExperimentConfig.from_dict(raw)
    first = run_compare(cfg, tmp_path / "a")
    second = run_compare(cfg, tmp_path / "b")
    assert len(first) == len(second) == 4
    for rec_a, rec_b in zip(first, second):
        assert rec_a.canonical_json() == rec_b.canonical_json()
        assert rec_a.digest() == rec_b.digest()
