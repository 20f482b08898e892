"""Projected gradient ascent on the surface displacements."""

import numpy as np
import pytest

from morphbeam import shape_opt
from morphbeam.array_model import (
    ArrayGeometry,
    SurfaceShape,
    TargetSet,
    response_matrix,
    steering_matrix,
)
from morphbeam.covariance import solve_per_antenna_sdp
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

    def test_accepts_bare_matrix(self):
        geom, targets, cov = make_instance(d_max=0.5)
        f1, t1 = ascend_shape(cov, geom, targets, SurfaceShape.zero(geom))
        f2, t2 = ascend_shape(cov.r, geom, targets, SurfaceShape.zero(geom))
        np.testing.assert_array_equal(f1.displacements, f2.displacements)
        np.testing.assert_array_equal(t1.objectives, t2.objectives)

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
