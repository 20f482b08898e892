"""Projected gradient ascent on the surface displacements."""

import numpy as np
import pytest

from conftest import DESK_P_T_MW, capped_ascend_shape, desk_geometry, desk_targets
from morphbeam import bcd, shape_opt
from morphbeam.array_model import (
    ArrayGeometry,
    SurfaceShape,
    TargetSet,
    response_matrix,
    steering_matrix,
)
from morphbeam.bcd import BcdConfig, Scheme, solve_benchmark
from morphbeam.covariance import CovarianceMatrix, solve_per_antenna_sdp
from morphbeam.objective import cumulated_power
from morphbeam.shape_opt import (
    STATUS_GRADIENT_TOL,
    STATUS_MAX_ITERS,
    STATUS_STEP_FLOOR,
    ascend_shape,
    project_shape,
)


def make_instance(d_max, n=3, k=2, seed=0):
    rng = np.random.default_rng(seed)
    geom = ArrayGeometry(n_x=n, n_z=n, dx=0.5, dz=0.5, d_max=d_max)
    targets = TargetSet(thetas=rng.uniform(0.3, np.pi - 0.3, k),
                        phis=rng.uniform(0.3, np.pi - 0.3, k))
    rm = response_matrix(geom, targets, SurfaceShape.zero(geom))
    cov, _ = solve_per_antenna_sdp(rm.a, p_t=10.0)
    return geom, targets, cov


class TestProjectShape:
    def test_clamps_to_box(self):
        x = np.array([-2.0, -0.1, 0.0, 0.1, 2.0])
        np.testing.assert_array_equal(project_shape(x, 0.5),
                                      [-0.5, -0.1, 0.0, 0.1, 0.5])

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-3, 3, 20)
        once = project_shape(x, 0.7)
        np.testing.assert_array_equal(project_shape(once, 0.7), once)

    def test_rejects_negative_range(self):
        with pytest.raises(ValueError):
            project_shape(np.zeros(3), -0.1)


class TestAscendShape:
    def test_rejects_nonpositive_max_iters(self):
        geom, targets, cov = make_instance(d_max=0.5)
        for max_iters in (0, -1):
            with pytest.raises(ValueError, match="max_iters"):
                ascend_shape(cov, geom, targets, SurfaceShape.zero(geom), max_iters)

    def test_objectives_nondecreasing(self):
        geom, targets, cov = make_instance(d_max=0.5)
        shape0 = SurfaceShape.zero(geom)
        final, trace = ascend_shape(cov, geom, targets, shape0)
        assert np.all(np.diff(trace.objectives) >= 0.0)
        assert trace.objectives.size == trace.n_iters + 1

    def test_strictly_improves_from_flat_surface(self):
        # seed 12 is a flat start with real headroom (about 12% gain); many
        # seeds start near-stationary, where only nondecrease can be asserted
        geom, targets, cov = make_instance(d_max=0.5, seed=12)
        rm = response_matrix(geom, targets, SurfaceShape.zero(geom))
        start = cumulated_power(cov, rm)
        final, trace = ascend_shape(cov, geom, targets, SurfaceShape.zero(geom))
        assert trace.objectives[-1] > start * 1.05
        rm_final = response_matrix(geom, targets, final)
        assert cumulated_power(cov, rm_final) == pytest.approx(
            float(trace.objectives[-1]), rel=1e-12)

    def test_final_shape_in_box(self):
        geom, targets, cov = make_instance(d_max=0.25, seed=3)
        rng = np.random.default_rng(4)
        shape0 = SurfaceShape(rng.uniform(-0.25, 0.25, geom.n_elements))
        final, _ = ascend_shape(cov, geom, targets, shape0)
        assert np.all(np.abs(final.displacements) <= 0.25 + 1e-15)

    def test_zero_range_cannot_move(self):
        geom, targets, cov = make_instance(d_max=0.0)
        final, trace = ascend_shape(cov, geom, targets, SurfaceShape.zero(geom))
        np.testing.assert_array_equal(final.displacements, np.zeros(geom.n_elements))
        assert trace.status in (STATUS_STEP_FLOOR, STATUS_GRADIENT_TOL)
        assert trace.n_iters == 0
        assert trace.projected_grad_norm == 0.0

    def test_gradient_tol_status_when_gradient_vanishes(self):
        # All displacement phases vanish along phi = 0, so the gradient is
        # identically zero and the loop exits immediately.
        geom, _, cov = make_instance(d_max=0.5)
        targets = TargetSet(thetas=np.array([1.0]), phis=np.array([0.0]))
        rm = response_matrix(geom, targets, SurfaceShape.zero(geom))
        cov0, _ = solve_per_antenna_sdp(rm.a, p_t=10.0)
        _, trace = ascend_shape(cov0, geom, targets, SurfaceShape.zero(geom))
        assert trace.status == STATUS_GRADIENT_TOL
        assert trace.n_iters == 0

    def test_max_iters_status(self):
        geom, targets, cov = make_instance(d_max=0.5)
        _, trace = ascend_shape(cov, geom, targets, SurfaceShape.zero(geom), 2)
        assert trace.status == STATUS_MAX_ITERS
        assert trace.n_iters == 2
        assert trace.grad_norms.size == 3   # one per visited iterate

    def test_deterministic(self):
        geom, targets, cov = make_instance(d_max=0.5, seed=8)
        f1, t1 = ascend_shape(cov, geom, targets, SurfaceShape.zero(geom))
        f2, t2 = ascend_shape(cov, geom, targets, SurfaceShape.zero(geom))
        np.testing.assert_array_equal(f1.displacements, f2.displacements)
        np.testing.assert_array_equal(t1.objectives, t2.objectives)

    def test_projects_infeasible_start(self):
        geom, targets, cov = make_instance(d_max=0.1)
        shape0 = SurfaceShape(np.full(geom.n_elements, 5.0))
        final, trace = ascend_shape(cov, geom, targets, shape0)
        assert np.all(np.abs(final.displacements) <= 0.1 + 1e-15)


def test_trial_matrices_equal_steering_matrix_bit_for_bit(monkeypatch):
    # The ascent builds A as the flat-shape steering matrix times the
    # displacement phase. At the start and at the returned shape (the first
    # and last points whose gradient it takes) that must be steering_matrix
    # itself. Two targets are mirrored, so they share sin(theta) sin(phi).
    geom = ArrayGeometry(n_x=4, n_z=4, dx=0.5, dz=0.5, d_max=0.4)
    targets = TargetSet.from_degrees([30.0, 60.0, 135.0], [60.0, 30.0, 90.0])
    rng = np.random.default_rng(4)
    start = rng.uniform(-0.4, 0.4, geom.n_elements)
    rm = response_matrix(geom, targets, SurfaceShape(start))
    cov, _ = solve_per_antenna_sdp(rm.a, p_t=10.0)
    seen = []
    gradient = shape_opt.power_gradient

    def keep(a, ra, c):
        seen.append(a.copy())
        return gradient(a, ra, c)

    monkeypatch.setattr(shape_opt, "power_gradient", keep)
    final, trace = ascend_shape(cov, geom, targets, SurfaceShape(start))
    assert trace.n_iters > 0 and len(seen) == trace.n_gradients
    for a, x in ((seen[0], start), (seen[-1], final.displacements)):
        want = steering_matrix(geom, targets.thetas, targets.phis, x)
        np.testing.assert_array_equal(a.view(np.uint64), want.view(np.uint64))


class TestAscentCounts:
    @pytest.mark.parametrize("d_max, seed, max_iters", [
        (0.5, 0, 1000), (0.5, 12, 1000), (0.25, 3, 1000), (0.5, 0, 2), (0.0, 0, 1000)])
    def test_counts_match_the_trace(self, d_max, seed, max_iters):
        geom, targets, cov = make_instance(d_max=d_max, seed=seed)
        _, trace = ascend_shape(cov, geom, targets, SurfaceShape.zero(geom),
                                max_iters)
        assert trace.n_evals >= trace.n_iters + 1
        assert trace.n_gradients == trace.grad_norms.size

    def test_desk_kept_start_needs_few_evaluations_per_gradient(self, morph_mimo_results):
        res, _ = morph_mimo_results[1.0]
        evals = sum(r.ascent_evals for r in res.trace.records)
        gradients = sum(r.ascent_gradients for r in res.trace.records)
        assert evals <= 3 * gradients

    def test_no_desk_ascent_runs_to_the_cap(self, morph_mimo_results):
        for d_max, (res, _) in morph_mimo_results.items():
            capped = [r.index for r in res.trace.records if r.ascent_status == STATUS_MAX_ITERS]
            assert capped == [], f"d_max {d_max}: outers {capped} ran to the cap"


@pytest.fixture(scope="module")
def desk_zero_start_ascents():
    "Covariance and start shape of the first twelve ascents of the desk d_max = 1 zero start."
    geom = desk_geometry(1.0)
    seen = []

    def keep(cov, geom, targets, shape, *rest):
        seen.append((CovarianceMatrix(cov.g.copy(), power_budget=cov.power_budget),
                     shape.copy()))
        return ascend_shape(cov, geom, targets, shape, *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bcd, "ascend_shape", keep)
        solve_benchmark(Scheme.FIM_MIMO, geom, desk_targets(), DESK_P_T_MW,
                        BcdConfig(n_starts=1, max_outer_iters=12))
    return geom, seen


def noop_then_move_instance():
    """A 2x2 ascent whose boxed gradient is at rounding level.

    R = w w^H, held as its factor w, with w the steering vector at x0 (times
    10, so P_t/N = 100) except for phase twists of
    -/+1e-5 on the two elements pinned at +/-d_max. Those two pull outward
    and carry the gradient norm; the free elements' gradient is at rounding
    level. The first steps would be too short to move the free elements yet
    pass the Armijo test, whose threshold rounds away, and the doubled steps
    would then move them; the Armijo-demand stop ends the ascent first.
    """
    geom = ArrayGeometry(n_x=2, n_z=2, dx=0.5, dz=0.5, d_max=0.5)
    targets = TargetSet(thetas=np.array([1.9]), phis=np.array([1e-3]))
    x0 = np.array([0.5, -0.5, 0.1, 0.3])
    a = steering_matrix(geom, targets.thetas, targets.phis, x0)[:, 0]
    w = 10.0 * a * np.exp(1j * np.array([-1e-5, 1e-5, 0.0, 0.0]))
    return CovarianceMatrix(w[:, None], power_budget=400.0), geom, targets, SurfaceShape(x0)


class TestRepeatedStateStop:
    """The ascent stops once its loop cycles at equal power, on the capped loop's state."""

    @staticmethod
    def assert_matches_capped_loop(cov, geom, targets, start):
        # The ascent returns the capped loop's state after the steps it took.
        # The capped loop may find a few ulps more power later: the stop
        # forgoes rises below what the power can resolve.
        final, trace = ascend_shape(cov, geom, targets, start)
        stopped, stopped_trace = capped_ascend_shape(cov, geom, targets, start,
                                                     max_iters=trace.n_iters)
        assert final.displacements.tobytes() == stopped.displacements.tobytes()
        np.testing.assert_array_equal(trace.objectives, stopped_trace.objectives)
        assert trace.projected_grad_norm == stopped_trace.projected_grad_norm
        want, want_trace = capped_ascend_shape(cov, geom, targets, start)
        power = want_trace.objectives[-1]
        assert trace.objectives[-1] >= power - 4 * np.spacing(power)
        return final, trace, want_trace

    def test_crawling_desk_ascent_stops_early(self, desk_zero_start_ascents):
        # Which outers crawl (the capped loop runs to max_iters, repeating a
        # rejected step and an accepted equal-power step) moves with the last
        # bits of the covariance, so every captured one is checked.
        geom, seen = desk_zero_start_ascents
        crawls = 0
        for cov, start in seen:
            _, trace, want = self.assert_matches_capped_loop(cov, geom, desk_targets(), start)
            if want.status == STATUS_MAX_ITERS:
                crawls += 1
                assert trace.status == STATUS_STEP_FLOOR
                assert 10 * trace.n_evals < want.n_evals, (trace.n_evals, want.n_evals)
        assert crawls

    def test_equal_power_step_before_a_strict_increase(self, desk_zero_start_ascents):
        geom, seen = desk_zero_start_ascents
        cov, start = seen[0]
        _, trace, _ = self.assert_matches_capped_loop(cov, geom, desk_targets(), start)
        rises = np.diff(trace.objectives)
        first_equal = np.flatnonzero(rises == 0.0)[0]
        assert np.any(rises[first_equal:] > 0.0)

    def test_noop_step_before_a_move(self):
        # Once ||g_boxed||^2 >= ARMIJO_C ||g||^2 is required, a no-op first
        # step needs ||g|| < 1.1e-12 sqrt(N) d_max, below GRAD_TOL, so the
        # ascent stops at the start.
        cov, geom, targets, start = noop_then_move_instance()
        final, trace, want = self.assert_matches_capped_loop(cov, geom, targets, start)
        after_one, _ = capped_ascend_shape(cov, geom, targets, start, max_iters=1)
        assert after_one.displacements.tobytes() == start.displacements.tobytes()
        assert final.displacements.tobytes() == start.displacements.tobytes()
        assert trace.status == STATUS_GRADIENT_TOL
