"""Outer alternating loop and the four benchmark schemes."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DESK_P_T_MW, desk_geometry, desk_targets
from morphbeam import array_model, beampattern, objective, shape_opt
from morphbeam.array_model import ArrayGeometry, SurfaceShape, TargetSet, response_matrix
from morphbeam.bcd import (
    BcdConfig,
    InitScheme,
    Scheme,
    TerminationReason,
    _covariance_step,
    solve_benchmark,
)
from morphbeam.beampattern import evaluate_beampattern, target_powers
from morphbeam.covariance import (
    DEFAULT_SDP_TOL,
    CovarianceMatrix,
    solve_per_antenna_sdp,
)
from morphbeam.objective import cumulated_power
from morphbeam.results import read_covariance_csv, write_covariance_csv
from morphbeam.units import DBM_FLOOR

P_T = 10.0


def make_instance(d_max, n=4, k=3, seed=0):
    rng = np.random.default_rng(seed)
    geom = ArrayGeometry(n_x=n, n_z=n, dx=0.5, dz=0.5, d_max=d_max)
    targets = TargetSet(thetas=rng.uniform(0.3, np.pi - 0.3, k),
                        phis=rng.uniform(0.3, np.pi - 0.3, k))
    return geom, targets


def quick_cfg(**kw):
    kw.setdefault("n_starts", 2)
    kw.setdefault("max_outer_iters", 15)
    kw.setdefault("ascent_max_iters", 200)
    kw.setdefault("rng_seed", 0)
    return BcdConfig(**kw)


class TestBcdConfig:
    def test_threshold_conversion(self):
        cfg = BcdConfig(rel_increase_threshold_db=-30.0)
        assert cfg.rel_increase_threshold == pytest.approx(1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            BcdConfig(max_outer_iters=0)
        with pytest.raises(ValueError):
            BcdConfig(n_starts=0)
        with pytest.raises(ValueError):
            BcdConfig(rng_seed=-1)
        # a NaN threshold compares false and would turn the threshold stop off
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                BcdConfig(rel_increase_threshold_db=bad)


class TestBcdOptimize:
    def test_zero_range_reduces_to_single_sdp(self):
        geom, targets = make_instance(d_max=0.0)
        rm = response_matrix(geom, targets, SurfaceShape.zero(geom))
        _, rep = solve_per_antenna_sdp(rm.a, P_T)
        res = solve_benchmark(Scheme.FIM_MIMO, geom, targets, P_T, quick_cfg())
        trace = res.trace
        np.testing.assert_array_equal(res.shape.displacements, np.zeros(geom.n_elements))
        assert trace.records[-1].objective_mw == pytest.approx(rep.objective, rel=1e-9)
        # the second outer iteration sees no progress and stops
        assert trace.termination_reason is TerminationReason.STATIONARY
        assert trace.n_outer == 2

    def test_single_target_saturates_upper_bound(self):
        # One steering direction: optimum is p_t * n regardless of the shape.
        geom, _ = make_instance(d_max=0.25)
        targets = TargetSet(thetas=np.array([np.pi / 3]), phis=np.array([np.pi / 4]))
        res = solve_benchmark(Scheme.FIM_MIMO, geom, targets, P_T, quick_cfg())
        assert res.trace.records[-1].objective_mw == pytest.approx(
            P_T * geom.n_elements, rel=1e-8)

    def test_objectives_nondecreasing_within_run(self):
        geom, targets = make_instance(d_max=0.5, seed=1)
        res = solve_benchmark(Scheme.FIM_MIMO, geom, targets, P_T, quick_cfg())
        assert np.all(np.diff(res.trace.objectives) >= 0.0)

    def test_morphing_never_loses_to_rigid(self):
        # The zero start's first outer iteration is exactly the rigid solve,
        # so the reduced maximum can only be at least that.
        for seed in range(3):
            geom, targets = make_instance(d_max=0.5, seed=seed)
            rm = response_matrix(geom, targets, SurfaceShape.zero(geom))
            _, rep = solve_per_antenna_sdp(rm.a, P_T)
            res = solve_benchmark(Scheme.FIM_MIMO, geom, targets, P_T, quick_cfg())
            assert res.trace.records[-1].objective_mw >= rep.objective * (1.0 - 1e-12)

    def test_provided_pair_start_dominates_its_seed(self):
        geom, targets = make_instance(d_max=0.25, seed=2)
        res1 = solve_benchmark(Scheme.FIM_MIMO, geom, targets, P_T, quick_cfg())
        obj1 = res1.trace.records[-1].objective_mw
        geom2 = ArrayGeometry(n_x=geom.n_x, n_z=geom.n_z, dx=geom.dx, dz=geom.dz,
                              d_max=0.5)
        res2 = solve_benchmark(Scheme.FIM_MIMO, geom2, targets, P_T, quick_cfg(),
                               provided_starts=((res1.shape, res1.cov),))
        assert res2.trace.records[-1].objective_mw >= obj1

    def test_deterministic_for_seed(self):
        geom, targets = make_instance(d_max=0.5, seed=3)
        r1 = solve_benchmark(Scheme.FIM_MIMO, geom, targets, P_T, quick_cfg())
        r2 = solve_benchmark(Scheme.FIM_MIMO, geom, targets, P_T, quick_cfg())
        np.testing.assert_array_equal(r1.shape.displacements, r2.shape.displacements)
        np.testing.assert_array_equal(r1.cov.r, r2.cov.r)
        np.testing.assert_array_equal(r1.trace.objectives, r2.trace.objectives)

    def test_tie_goes_to_lowest_start_index(self):
        # With d_max = 0 a provided zero shape repeats the zero start exactly,
        # so the two runs tie and the earlier one must be kept.
        geom, targets = make_instance(d_max=0.0)
        res = solve_benchmark(Scheme.FIM_MIMO, geom, targets, P_T, quick_cfg(),
                              provided_starts=((SurfaceShape.zero(geom), None),))
        assert res.trace.start_index == 0
        assert res.trace.init_label == InitScheme.ZERO.value

    def test_rejects_nonpositive_power(self):
        geom, targets = make_instance(d_max=0.5)
        with pytest.raises(ValueError):
            solve_benchmark(Scheme.FIM_MIMO, geom, targets, 0.0, quick_cfg())

    @pytest.mark.parametrize("p_t", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_power_budget_that_is_not_finite_and_positive(self, p_t):
        geom, targets = make_instance(d_max=0.5)
        for scheme in Scheme:
            with pytest.raises(ValueError, match="finite and positive"):
                solve_benchmark(scheme, geom, targets, p_t, quick_cfg())

    def test_trace_records_are_complete(self):
        geom, targets = make_instance(d_max=0.5, seed=5)
        trace = solve_benchmark(Scheme.FIM_MIMO, geom, targets, P_T, quick_cfg()).trace
        assert trace.n_outer == len(trace.records)
        for i, rec in enumerate(trace.records, start=1):
            assert rec.index == i
            assert rec.sdp_converged
            assert rec.sdp_gap <= 1e-6
            assert rec.sdp_iterations > 0        # every solve takes power steps
            assert rec.objective_mw >= rec.sdp_objective_mw * (1.0 - 1e-12)
        assert trace.init_label in {s.value for s in InitScheme}


class TestSolveBenchmark:
    def test_scheme_accepts_string(self):
        geom, targets = make_instance(d_max=0.0)
        res = solve_benchmark("raa-mimo", geom, targets, P_T, quick_cfg())
        assert res.scheme is Scheme.RAA_MIMO
        # without a cfg the defaults run, which at d_max = 0 differ from
        # quick_cfg only in settings a rigid scheme does not read
        default = solve_benchmark("raa-mimo", geom, targets, P_T)
        assert default.objective_mw == res.objective_mw

    def test_rigid_mimo_matches_direct_sdp(self):
        geom, targets = make_instance(d_max=0.0, seed=6)
        rm = response_matrix(geom, targets, SurfaceShape.zero(geom))
        cov, rep = solve_per_antenna_sdp(rm.a, P_T)
        res = solve_benchmark(Scheme.RAA_MIMO, geom, targets, P_T, quick_cfg())
        np.testing.assert_array_equal(res.cov.r, cov.r)
        assert res.objective_mw == pytest.approx(rep.objective, rel=1e-12)
        [record] = res.trace.records
        assert record.sdp_gap == rep.relative_gap

    @pytest.mark.parametrize("scheme", [Scheme.RAA_MIMO, Scheme.RAA_PA])
    def test_rigid_refuses_a_start_off_the_flat_surface(self, scheme):
        # a rigid scheme runs on d_max = 0, so a start it cannot take is an
        # error, not a start it drops; the zero shape is still a valid start
        geom = ArrayGeometry(n_x=3, n_z=3, dx=0.5, dz=0.5, d_max=0.5)
        targets = TargetSet.from_degrees([30.0, 135.0], [60.0, 90.0])
        with pytest.raises(ValueError, match="exceeds morphing limit 0"):
            solve_benchmark(scheme, geom, targets, P_T, quick_cfg(),
                            provided_starts=((SurfaceShape(np.full(9, 0.4)), None),))
        plain = solve_benchmark(scheme, geom, targets, P_T, quick_cfg())
        res = solve_benchmark(scheme, geom, targets, P_T, quick_cfg(),
                              provided_starts=((SurfaceShape.zero(geom), None),))
        assert res.objective_mw == plain.objective_mw
        assert res.trace.start_index == 0

    def test_rigid_pa_weights_are_feasible_and_consistent(self):
        geom, targets = make_instance(d_max=0.0, seed=7)
        res = solve_benchmark(Scheme.RAA_PA, geom, targets, P_T, quick_cfg())
        n = geom.n_elements
        np.testing.assert_allclose(np.abs(res.weights), np.sqrt(P_T / n), rtol=1e-12)
        rm = response_matrix(geom, targets, SurfaceShape.zero(geom))
        direct = float(np.real(res.weights.conj() @ (rm.a @ (rm.a.conj().T @ res.weights))))
        assert res.objective_mw == pytest.approx(direct, rel=1e-12)
        # reported covariance is the rank-1 outer product of the weights
        np.testing.assert_allclose(res.cov.r,
                                   np.outer(res.weights, res.weights.conj()),
                                   atol=1e-14)

    def test_pa_never_beats_mimo_on_same_surface(self):
        # The rank-1 value is feasible for the matrix problem, so it cannot
        # exceed the dual bound; against the primal it can sit up to one
        # solver gap high, hence the certificate-based tolerance.
        geom, targets = make_instance(d_max=0.0, seed=8)
        rm = response_matrix(geom, targets, SurfaceShape.zero(geom))
        _, rep = solve_per_antenna_sdp(rm.a, P_T)
        mimo = solve_benchmark(Scheme.RAA_MIMO, geom, targets, P_T, quick_cfg())
        pa = solve_benchmark(Scheme.RAA_PA, geom, targets, P_T, quick_cfg())
        assert pa.objective_mw <= rep.dual_bound * (1.0 + 1e-12)
        assert pa.objective_mw <= mimo.objective_mw * (1.0 + rep.relative_gap + 1e-12)

    def test_morphing_pa_never_loses_to_rigid_pa(self):
        # The rigid draw reuses the zero start's first-iteration stream and
        # held weights are only replaced by better ones.
        for seed in range(3):
            geom, targets = make_instance(d_max=0.5, seed=seed)
            cfg = quick_cfg(rng_seed=seed)
            rigid = solve_benchmark(Scheme.RAA_PA, geom, targets, P_T, cfg)
            morph = solve_benchmark(Scheme.FIM_PA, geom, targets, P_T, cfg)
            assert morph.objective_mw >= rigid.objective_mw * (1.0 - 1e-12)

    def test_rigid_schemes_are_the_first_bcd_covariance_step(self):
        # On a flat surface one outer iteration of the zero start is the
        # rigid step: the same SDP, draw stream, held-value rule and ascent,
        # so each rigid result equals its morphing twin's bit for bit.
        for seed in range(3):
            geom, targets = make_instance(d_max=0.0, seed=seed)
            cfg = quick_cfg(rng_seed=seed, max_outer_iters=1, n_starts=1)
            res = {scheme: solve_benchmark(scheme, geom, targets, P_T, cfg)
                   for scheme in Scheme}
            for rigid, twin in ((Scheme.RAA_MIMO, Scheme.FIM_MIMO),
                                (Scheme.RAA_PA, Scheme.FIM_PA)):
                got, want = res[rigid], res[twin]
                assert got.objective_mw == want.objective_mw
                np.testing.assert_array_equal(got.shape.displacements,
                                              want.shape.displacements)
                np.testing.assert_array_equal(got.cov.r, want.cov.r)
                if rigid is Scheme.RAA_PA:
                    np.testing.assert_array_equal(got.weights, want.weights)
                else:
                    assert got.weights is None and want.weights is None
                [got_rec], [want_rec] = got.trace.records, want.trace.records
                assert (replace(got_rec, elapsed_seconds=0.0)
                        == replace(want_rec, elapsed_seconds=0.0))

    def test_morphing_mimo_never_loses_to_rigid_mimo(self):
        for seed in range(3):
            geom, targets = make_instance(d_max=0.5, seed=seed)
            cfg = quick_cfg(rng_seed=seed)
            rigid = solve_benchmark(Scheme.RAA_MIMO, geom, targets, P_T, cfg)
            morph = solve_benchmark(Scheme.FIM_MIMO, geom, targets, P_T, cfg)
            assert morph.objective_mw >= rigid.objective_mw * (1.0 - 1e-12)

    @pytest.mark.parametrize("scheme", [Scheme.RAA_PA, Scheme.FIM_PA])
    def test_pa_refuses_a_provided_covariance(self, scheme):
        # PA holds weights, never a covariance, so a seed covariance would be
        # ignored and the warm start could lose to it; a shape alone is fine
        geom, targets = make_instance(d_max=0.5)
        seed = solve_benchmark(Scheme.RAA_MIMO, geom, targets, P_T, quick_cfg())
        with pytest.raises(ValueError, match="provided covariance"):
            solve_benchmark(scheme, geom, targets, P_T, quick_cfg(),
                            provided_starts=((SurfaceShape.zero(geom), seed.cov),))
        res = solve_benchmark(scheme, geom, targets, P_T, quick_cfg(max_outer_iters=1),
                              provided_starts=((SurfaceShape.zero(geom), None),))
        assert res.weights is not None

    def test_morphing_pa_reports_weights_and_trace(self):
        geom, targets = make_instance(d_max=0.5, seed=9)
        res = solve_benchmark(Scheme.FIM_PA, geom, targets, P_T, quick_cfg())
        assert res.weights is not None
        assert res.trace.records[-1].rank1_objective_mw is not None
        final_rm = response_matrix(geom, targets, res.shape)
        assert res.objective_mw == pytest.approx(
            cumulated_power(res.cov, final_rm), rel=1e-12)

    def test_benchmark_deterministic(self):
        geom, targets = make_instance(d_max=0.5, seed=10)
        r1 = solve_benchmark(Scheme.FIM_PA, geom, targets, P_T, quick_cfg())
        r2 = solve_benchmark(Scheme.FIM_PA, geom, targets, P_T, quick_cfg())
        assert r1.objective_mw == r2.objective_mw
        np.testing.assert_array_equal(r1.shape.displacements, r2.shape.displacements)
        np.testing.assert_array_equal(r1.weights, r2.weights)


@pytest.mark.parametrize("phased_array", [False, True], ids=["mimo", "pa"])
def test_covariance_step_keeps_only_a_strictly_better_held_covariance(phased_array):
    # One incumbent rule for both schemes: the held covariance survives only
    # when it is strictly better on rm, and a tie goes to the fresh candidate.
    geom, targets = make_instance(d_max=0.0, seed=3)
    rm = response_matrix(geom, targets, SurfaceShape.zero(geom))
    key = (0, 0, 1)
    fresh = _covariance_step(rm, P_T, phased_array, key, None)[0]
    tie = CovarianceMatrix(fresh.g.copy(), power_budget=P_T)
    better = CovarianceMatrix(fresh.g * (1.0 + 1e-9), power_budget=P_T)
    assert cumulated_power(fresh, rm) == cumulated_power(tie, rm) < cumulated_power(better, rm)
    assert _covariance_step(rm, P_T, phased_array, key, better)[0] is better
    got = _covariance_step(rm, P_T, phased_array, key, tie)[0]
    assert got is not tie
    np.testing.assert_array_equal(got.g, fresh.g)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_pa_covariance_step_scores_its_candidate_as_the_held_one(n):
    # The candidate w w^H and a held covariance meet in one strict test, so
    # both are scored by cumulated_power; randomize_rank1's batched score of
    # the same w may differ from it in the last bit.
    for seed in range(10):
        geom, targets = make_instance(d_max=0.0, n=n, seed=seed)
        rm = response_matrix(geom, targets, SurfaceShape.zero(geom))
        cov, _, _, value = _covariance_step(rm, P_T, True, (seed, 0, 1), None)
        assert value == cumulated_power(cov, rm)


# Angles in degrees, mixed with arbitrary ones in [0, 180]: at 0 and 180 a
# target sits at a pole (sin(theta) sin(phi) = 0, so the shape has no effect).
_EDGE_DEG = (0.0, 45.0, 90.0, 135.0, 180.0)
_angle_deg = st.one_of(st.sampled_from(_EDGE_DEG),
                       st.floats(0.0, 180.0, allow_nan=False))


@st.composite
def edge_instances(draw):
    n_x = draw(st.integers(1, 3))
    n_z = draw(st.integers(1, 3))
    d_max = draw(st.sampled_from((0.0, 0.25, 1.0)))
    k = draw(st.integers(1, 4))
    if draw(st.booleans()):
        thetas = [draw(_angle_deg)] * k          # coincident targets
        phis = [draw(_angle_deg)] * k
    else:
        thetas = draw(st.lists(_angle_deg, min_size=k, max_size=k))
        phis = draw(st.lists(_angle_deg, min_size=k, max_size=k))
    geom = ArrayGeometry(n_x=n_x, n_z=n_z, dx=0.5, dz=0.5, d_max=d_max)
    return geom, TargetSet.from_degrees(thetas, phis)


class TestEdgeInputs:
    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(edge_instances())
    def test_every_scheme_solves_with_a_certificate(self, tmp_path_factory, instance):
        # Covers N = 1, K >= N, coincident targets, poles and d_max = 0, on
        # the solve and on the grid path: R's factor, covariance.csv, the grid.
        geom, targets = instance
        path = tmp_path_factory.mktemp("edge") / "covariance.csv"
        t_axis, p_axis = np.unique(targets.thetas), np.unique(targets.phis)
        at_targets = (np.searchsorted(t_axis, targets.thetas),
                      np.searchsorted(p_axis, targets.phis))
        cfg = quick_cfg(max_outer_iters=4, ascent_max_iters=30)
        for scheme in Scheme:
            res = solve_benchmark(scheme, geom, targets, P_T, cfg)
            res.cov.validate()
            res.shape.validate(geom)
            assert np.isfinite(res.objective_mw) and res.objective_mw > 0.0
            for r in res.trace.records:
                assert r.sdp_converged and r.sdp_gap <= DEFAULT_SDP_TOL
            per_dbm, total_mw, min_dbm = target_powers(res.cov, geom, targets, res.shape)
            assert np.all(np.isfinite(per_dbm))
            assert np.isfinite(total_mw) and np.isfinite(min_dbm)
            g = res.cov.eigenfactor()
            write_covariance_csv(path, res.cov)
            back = read_covariance_csv(path)
            np.testing.assert_array_equal(back, g)
            grid = evaluate_beampattern(CovarianceMatrix(back, power_budget=P_T), geom,
                                        res.shape, t_axis, p_axis)
            lit = per_dbm > DBM_FLOOR
            np.testing.assert_allclose(10.0 ** (grid.power_dbm[at_targets][lit] / 10.0),
                                       10.0 ** (per_dbm[lit] / 10.0), rtol=1e-9)


def test_steering_is_built_once_per_start(monkeypatch):
    # Only the displacement phase of A depends on the shape, so a start
    # builds its targets' flat-surface steering matrix once, and every outer
    # iteration's A and every ascent trial point reuse it. Every module that
    # builds steering matrices is watched, so a build per outer iteration or
    # per ascent fails here wherever it comes back.
    builds = []
    original = array_model.steering_matrix

    def counting(geom, thetas, phis, displacements):
        builds.append(np.asarray(displacements).copy())
        return original(geom, thetas, phis, displacements)

    for module in (array_model, beampattern, objective, shape_opt):
        monkeypatch.setattr(module, "steering_matrix", counting)
    cfg = BcdConfig(n_starts=2, max_outer_iters=4)
    res = solve_benchmark(Scheme.FIM_MIMO, desk_geometry(1.0), desk_targets(), DESK_P_T_MW, cfg)
    assert res.trace.n_outer > 1
    assert len(builds) <= cfg.n_starts
    assert not any(np.any(d) for d in builds)      # all at the flat surface
