"""Projected Newton ascent on the surface displacements."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import DESK_P_T_MW, desk_geometry, desk_targets, projected_gradient_ascent
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
from morphbeam.objective import cumulated_power, power_curvature, power_gradient
from morphbeam.shape_opt import (
    STATUS_GRADIENT_TOL,
    STATUS_MAX_ITERS,
    STATUS_STEP_FLOOR,
    ascend_shape,
    newton_direction,
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
def desk_ascents():
    """Every ascent of desk fim-mimo at d_max = 1 (4 starts) and every start's run.

    Each ascent is (covariance, final shape, trace).
    """
    ascents, runs = [], []
    run_single_start = bcd._run_single_start

    def keep_ascent(cov, geom, targets, shape, *rest):
        final, trace = ascend_shape(cov, geom, targets, shape, *rest)
        ascents.append((cov, final, trace))
        return final, trace

    def keep_run(*args, **kwargs):
        runs.append(run_single_start(*args, **kwargs))
        return runs[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bcd, "ascend_shape", keep_ascent)
        mp.setattr(bcd, "_run_single_start", keep_run)
        solve_benchmark(Scheme.FIM_MIMO, desk_geometry(1.0), desk_targets(), DESK_P_T_MW,
                        BcdConfig(rng_seed=0, n_starts=4))
    return ascents, runs


def noop_then_move_instance():
    """A 2x2 ascent whose free gradient is at rounding level.

    R = w w^H, held as its factor w, with w the steering vector at x0 (times
    10, so P_t/N = 100) except for phase twists of
    -/+1e-5 on the two elements pinned at +/-d_max. Those two pull outward
    and carry the gradient norm; the free elements' gradient is at rounding
    level, so no step on them has an Armijo demand of an ulp of the power.
    """
    geom = ArrayGeometry(n_x=2, n_z=2, dx=0.5, dz=0.5, d_max=0.5)
    targets = TargetSet(thetas=np.array([1.9]), phis=np.array([1e-3]))
    x0 = np.array([0.5, -0.5, 0.1, 0.3])
    a = steering_matrix(geom, targets.thetas, targets.phis, x0)[:, 0]
    w = 10.0 * a * np.exp(1j * np.array([-1e-5, 1e-5, 0.0, 0.0]))
    return CovarianceMatrix(w[:, None], power_budget=400.0), geom, targets, SurfaceShape(x0)


class TestRepeatedStateStop:
    """No state repeats: every accepted step raises the power by at least an ulp."""

    def test_every_desk_step_raises_the_power(self, desk_ascents):
        # An accepted step meets an Armijo demand of at least one ulp of the
        # power, so the power rises strictly and no loop state can recur.
        ascents, runs = desk_ascents
        assert len(ascents) == sum(res.trace.n_outer for res in runs)
        for _, _, trace in ascents:
            assert np.all(np.diff(trace.objectives) > 0.0)
            assert trace.status != STATUS_MAX_ITERS

    def test_noop_step_before_a_move(self):
        # A step whose Armijo demand is below one ulp of the power is not
        # even evaluated; here every free step is, so the ascent stops at
        # the start after the one evaluation there.
        cov, geom, targets, start = noop_then_move_instance()
        final, trace = ascend_shape(cov, geom, targets, start)
        assert final.displacements.tobytes() == start.displacements.tobytes()
        assert (trace.status, trace.n_iters, trace.n_evals) == (STATUS_STEP_FLOOR, 0, 1)
        assert trace.projected_grad_norm > 0.0


class TestNewtonAscent:
    """The projected Newton step: its Hessian, its Woodbury solve and where it stops."""

    def test_desk_ascents_end_at_a_local_maximum(self, desk_ascents):
        # A first-order projected ascent, run on from each final shape to the
        # ulp floor, finds no more than 1e-9 of relative power left.
        ascents, _ = desk_ascents
        geom = desk_geometry(1.0)
        for cov, final, trace in ascents:
            further = projected_gradient_ascent(cov, geom, desk_targets(), final)
            assert further <= trace.objectives[-1] * (1.0 + 1e-9)

    def test_desk_fim_mimo_takes_at_most_1000_ascent_evaluations(self, desk_ascents):
        _, runs = desk_ascents
        assert len(runs) == 4
        total = sum(rec.ascent_evals for res in runs for rec in res.trace.records)
        assert total <= 1000, total

    def test_seeded_panel_run_16_stays_below_the_cap(self, monkeypatch):
        # Run 16 of a seeded panel of random instances, whose ill-conditioned
        # first ascent of the second start crawled to the 1,000-step cap
        # under a gradient step.
        rng = np.random.default_rng(2026)
        for _ in range(17):
            n, k = int(rng.integers(4, 9)), int(rng.integers(2, 6))
            targets = TargetSet(thetas=rng.uniform(0.2, np.pi - 0.2, k),
                                phis=rng.uniform(0.2, np.pi - 0.2, k))
        assert (n, k) == (4, 5)
        statuses = []

        def keep(*args):
            final, trace = ascend_shape(*args)
            statuses.append(trace.status)
            return final, trace

        monkeypatch.setattr(bcd, "ascend_shape", keep)
        solve_benchmark(Scheme.FIM_MIMO, desk_geometry(0.5, n, n), targets, DESK_P_T_MW,
                        BcdConfig(n_starts=2, rng_seed=16))
        assert statuses and STATUS_MAX_ITERS not in statuses

    def test_a_common_shift_leaves_the_power_alone(self):
        # Moving every element by t rotates each target's phase only, so
        # P(x + t 1) = P(x) and the unshifted Hessian is singular along 1.
        geom, targets, cov = make_instance(d_max=1.0, n=4, k=3, seed=5)
        x = np.random.default_rng(6).uniform(-0.5, 0.5, geom.n_elements)
        power = cumulated_power(cov, response_matrix(geom, targets, SurfaceShape(x)))
        for t in (0.3, -0.45, 0.123):
            moved = cumulated_power(cov, response_matrix(geom, targets, SurfaceShape(x + t)))
            assert moved == pytest.approx(power, rel=1e-13)
        a = steering_matrix(geom, targets.thetas, targets.phis, x)
        c = np.sin(targets.thetas) * np.sin(targets.phis)
        d, u = power_curvature(a, cov.g @ (cov.g.conj().T @ a), cov.g, c)
        ones = np.ones(geom.n_elements)
        assert np.abs(d - u @ (u.T @ ones)).max() <= 1e-12 * np.abs(d).max()

    def test_first_step_from_the_desk_zero_start_raises_the_power(self):
        # The desk zero start is all free, where the shift mu makes the
        # singular Hessian solvable.
        geom = desk_geometry(1.0)
        zero = SurfaceShape.zero(geom)
        cov, _ = solve_per_antenna_sdp(response_matrix(geom, desk_targets(), zero).a,
                                       DESK_P_T_MW)
        final, trace = ascend_shape(cov, geom, desk_targets(), zero, max_iters=1)
        assert trace.n_iters == 1
        assert np.all(np.isfinite(final.displacements)) and np.any(final.displacements)
        assert trace.objectives[1] > trace.objectives[0]

    def test_direction_without_curvature_follows_the_gradient(self):
        # d underflows to 0 with c_k^2 near a pole; the step is then g / 8 pi^2.
        g = np.array([1e-203, -2e-203, 3e-203])
        free = np.array([True, False, True])
        step, mu = newton_direction(g, np.zeros(3), np.full((3, 2), 1e-189), free)
        assert mu == 0.0
        np.testing.assert_array_equal(step, g * free / (8.0 * np.pi ** 2))


@st.composite
def curvature_instances(draw):
    "A point x, a factor G with k <= 3 columns, N <= 16, K <= 4 and a nonempty free set."
    geom = ArrayGeometry(n_x=draw(st.integers(1, 4)), n_z=draw(st.integers(1, 4)),
                         dx=0.5, dz=0.5, d_max=1.0)
    n, n_targets, k = geom.n_elements, draw(st.integers(1, 4)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    targets = TargetSet(thetas=rng.uniform(0.2, np.pi - 0.2, n_targets),
                        phis=rng.uniform(0.2, np.pi - 0.2, n_targets))
    g = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    free = draw(hnp.arrays(np.bool_, (n,)).filter(np.any))
    return geom, targets, g, rng.uniform(-1.0, 1.0, n), free


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(curvature_instances())
def test_hessian_and_newton_step_match_dense_forms(instance):
    geom, targets, g, x, free = instance
    c = np.sin(targets.thetas) * np.sin(targets.phis)

    def gradient(x):
        a = steering_matrix(geom, targets.thetas, targets.phis, x)
        return power_gradient(a, g @ (g.conj().T @ a), c), a

    grad, a = gradient(x)
    d, u = power_curvature(a, g @ (g.conj().T @ a), g, c)
    hessian = -8.0 * np.pi ** 2 * (np.diag(d) - u @ u.T)
    h = 1e-5
    columns = []
    for e in np.eye(x.size):
        columns.append((gradient(x + h * e)[0] - gradient(x - h * e)[0]) / (2.0 * h))
    # the size of the terms whose difference the Hessian is (it is 0 at N = 1)
    scale = 8.0 * np.pi ** 2 * np.max(np.abs(d) + (u * u).sum(axis=1))
    np.testing.assert_allclose(np.array(columns).T, hessian, rtol=0.0, atol=1e-6 * scale)

    step, mu = newton_direction(grad, d, u, free)
    dense = 8.0 * np.pi ** 2 * (np.diag(d[free] + mu) - u[free] @ u[free].T)
    np.linalg.cholesky(dense)
    want = np.linalg.solve(dense, grad[free])
    assert np.all(step[~free] == 0.0)
    np.testing.assert_allclose(step[free], want, rtol=0.0, atol=1e-7 * np.abs(want).max())


@st.composite
def scaled_ascents(draw):
    "An ascent instance with N <= 16, K <= 4, a random factor G and a power-of-two scale."
    n_x, n_z = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    geom = ArrayGeometry(n_x=n_x, n_z=n_z, dx=0.5, dz=0.5,
                         d_max=draw(st.sampled_from((0.0, 0.25, 1.0))))
    k = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    targets = TargetSet(thetas=rng.uniform(0.2, np.pi - 0.2, k),
                        phis=rng.uniform(0.2, np.pi - 0.2, k))
    cols = draw(st.integers(1, k))
    g = rng.standard_normal((geom.n_elements, cols)) + 1j * rng.standard_normal((geom.n_elements, cols))
    start = SurfaceShape(rng.uniform(-geom.d_max, geom.d_max, geom.n_elements))
    return geom, targets, g, start, draw(st.integers(-30, 30))


class TestPowerBudgetScale:
    """The power budget P_t scales the objective and leaves the shape alone."""

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(scaled_ascents())
    def test_scaling_the_factor_keeps_every_step(self, instance):
        # G -> 2^j G scales the power and gradient by exactly 4^j; every
        # threshold of the ascent is a ratio or a move in wavelengths.
        geom, targets, g, start, j = instance
        base, base_trace = ascend_shape(CovarianceMatrix(g, power_budget=1.0),
                                        geom, targets, start)
        scaled, trace = ascend_shape(CovarianceMatrix(g * 2.0 ** j, power_budget=4.0 ** j),
                                     geom, targets, start)
        assert scaled.displacements.tobytes() == base.displacements.tobytes()
        np.testing.assert_array_equal(trace.objectives, base_trace.objectives * 4.0 ** j)
        assert (trace.status, trace.n_evals) == (base_trace.status, base_trace.n_evals)

    @pytest.mark.parametrize("scheme", [Scheme.FIM_MIMO, Scheme.FIM_PA])
    @pytest.mark.parametrize("k", [-40, -10, 10])
    def test_desk_solve_scales_with_the_budget(self, scheme, k, morph_mimo_results,
                                               morph_pa_results):
        # run_sweep_power scales one solve per scheme on this: at P_t 2^k the
        # desk d_max = 1 run keeps its shape bit for bit and scales its power.
        want = (morph_mimo_results[1.0][0] if scheme is Scheme.FIM_MIMO
                else morph_pa_results[1.0])
        got = solve_benchmark(scheme, desk_geometry(1.0), desk_targets(),
                              DESK_P_T_MW * 2.0 ** k, BcdConfig(rng_seed=0, n_starts=4))
        assert got.shape.displacements.tobytes() == want.shape.displacements.tobytes()
        assert got.objective_mw == want.objective_mw * 2.0 ** k
