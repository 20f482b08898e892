"""Angle-grid power maps and per-target summaries."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import desk_targets, loop_beampattern_mw
from morphbeam.array_model import ArrayGeometry, SurfaceShape, TargetSet, response_matrix
from morphbeam.beampattern import BeampatternGrid, evaluate_beampattern, target_powers
from morphbeam.covariance import CovarianceMatrix, solve_per_antenna_sdp
from morphbeam.objective import cumulated_power
from morphbeam.results import read_covariance_csv, write_covariance_csv
from morphbeam.units import DBM_FLOOR


# the config's default grid (output.grid_points): 181 points over [0, pi]
AXIS = np.linspace(0.0, np.pi, 181)


def make_geom(n=4, d_max=0.0):
    return ArrayGeometry(n_x=n, n_z=n, dx=0.5, dz=0.5, d_max=d_max)


def dense(r):
    "A dense R as a CovarianceMatrix; its budget, tr(R), is not read by a grid."
    return CovarianceMatrix(r=r, power_budget=float(np.trace(r).real))


def factored(g):
    "The covariance G G^H of a factor G, with budget tr(G G^H)."
    return CovarianceMatrix(g, power_budget=float(np.sum(np.abs(g) ** 2)))


def test_uncorrelated_covariance_radiates_uniformly():
    # R = (p_t/n) I gives a^H R a = p_t for every unit-modulus steering
    # vector: the pattern is flat at 10*log10(p_t) dBm.
    geom = make_geom()
    n = geom.n_elements
    r = (10.0 / n) * np.eye(n, dtype=complex)
    grid = evaluate_beampattern(dense(r), geom, SurfaceShape.zero(geom),
                                np.linspace(0, np.pi, 21),
                                np.linspace(0, np.pi, 19))
    np.testing.assert_allclose(grid.power_dbm, 10.0, atol=1e-10)


def test_grid_agrees_with_target_powers():
    rng = np.random.default_rng(0)
    geom = make_geom(d_max=0.3)
    targets = TargetSet(thetas=np.sort(rng.uniform(0.2, np.pi - 0.2, 3)),
                        phis=np.sort(rng.uniform(0.2, np.pi - 0.2, 3)))
    shape = SurfaceShape(rng.uniform(-0.3, 0.3, geom.n_elements))
    rm = response_matrix(geom, targets, shape)
    cov, _ = solve_per_antenna_sdp(rm.a, p_t=10.0)

    grid = evaluate_beampattern(cov, geom, shape, targets.thetas, targets.phis)
    per_dbm, cum_mw, min_dbm = target_powers(cov, geom, targets, shape)
    for k in range(3):
        assert grid.power_dbm[k, k] == pytest.approx(per_dbm[k], abs=1e-12)
    assert cum_mw == pytest.approx(cumulated_power(cov, rm), rel=1e-12)
    assert min_dbm == per_dbm.min()


def test_single_target_peak_value_and_location():
    # Steered at one direction the power there is p_t * n; nowhere on the
    # grid can it exceed that.
    geom = make_geom()
    theta0, phi0 = np.pi / 3, np.pi / 4
    targets = TargetSet(thetas=np.array([theta0]), phis=np.array([phi0]))
    rm = response_matrix(geom, targets, SurfaceShape.zero(geom))
    cov, _ = solve_per_antenna_sdp(rm.a, p_t=10.0)
    axis = np.linspace(0.0, np.pi, 90)   # lattice avoids theta0/phi0 exactly
    t_axis = np.sort(np.append(axis, theta0))
    p_axis = np.sort(np.append(axis, phi0))
    grid = evaluate_beampattern(cov, geom, SurfaceShape.zero(geom),
                                t_axis, p_axis)
    peak_dbm = 10.0 * np.log10(10.0 * geom.n_elements)
    i = int(np.searchsorted(t_axis, theta0))
    j = int(np.searchsorted(p_axis, phi0))
    assert grid.power_dbm[i, j] == pytest.approx(peak_dbm, abs=1e-9)
    assert float(grid.power_dbm.max()) <= peak_dbm + 1e-9


def test_power_bounded_by_budget_times_elements():
    rng = np.random.default_rng(1)
    geom = make_geom(d_max=0.5)
    targets = TargetSet(thetas=rng.uniform(0.2, np.pi - 0.2, 3),
                        phis=rng.uniform(0.2, np.pi - 0.2, 3))
    shape = SurfaceShape(rng.uniform(-0.5, 0.5, geom.n_elements))
    rm = response_matrix(geom, targets, shape)
    cov, _ = solve_per_antenna_sdp(rm.a, p_t=7.0)
    grid = evaluate_beampattern(cov, geom, shape, AXIS, AXIS)
    # a^H R a <= lambda_max(R) * n <= tr(R) * n = p_t * n
    bound_dbm = 10.0 * np.log10(7.0 * geom.n_elements)
    assert float(grid.power_dbm.max()) <= bound_dbm + 1e-9


def test_rank1_nulls_hit_the_floor():
    # An orthogonal direction of a rank-1 covariance gets exactly zero
    # power, which must map to the documented dBm floor, not -inf.
    w = np.array([1.0, 1.0], dtype=complex)
    r = np.outer(w, w.conj())
    orth = np.array([1.0, -1.0], dtype=complex)
    assert abs(orth.conj() @ r @ orth) < 1e-14
    geom = ArrayGeometry(n_x=2, n_z=1, dx=0.5, dz=0.5)
    # find the angle where the steering vector equals orth up to phase:
    # phase difference pi between the two x elements => dx sin(t) cos(p) = 1/2
    theta = np.pi / 2
    phi = 0.0  # cos(phi) = 1, sin(theta) = 1 -> path difference 0.5 -> phase pi
    grid = evaluate_beampattern(dense(r), geom, SurfaceShape.zero(geom),
                                np.array([theta]), np.array([phi]))
    assert grid.power_dbm[0, 0] == -200.0


def random_covariance(n, rng, p_t=10.0):
    "Full-rank Hermitian PSD matrix with trace p_t, so no direction is a null."
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    r = g @ g.conj().T
    return p_t * r / np.real(np.trace(r))


def test_grid_matches_per_direction_loop():
    rng = np.random.default_rng(2)
    geom = make_geom(n=3, d_max=0.7)
    shape = SurfaceShape(rng.uniform(-0.7, 0.7, geom.n_elements))
    r = random_covariance(geom.n_elements, rng)
    t_axis = p_axis = np.linspace(0.0, np.pi, 19)
    grid = evaluate_beampattern(dense(r), geom, shape, t_axis, p_axis)
    want = loop_beampattern_mw(r, geom, shape, t_axis, p_axis)
    np.testing.assert_allclose(10.0 ** (grid.power_dbm / 10.0), want, rtol=1e-12)


# strictly increasing axes over [0, pi] that hold both ends; up to 32
# points, so a 32 x 32 grid spans more than one chunk
INCREASING_AXES = st.lists(st.floats(0.0, np.pi, exclude_min=True, exclude_max=True),
                           max_size=30, unique=True).map(
    lambda inner: np.array([0.0, *sorted(inner), np.pi]))


@settings(max_examples=30, deadline=None)
@given(n_x=st.integers(1, 4), n_z=st.integers(1, 4), k=st.integers(1, 3),
       t_axis=INCREASING_AXES, p_axis=INCREASING_AXES, seed=st.integers(0, 2**32 - 1))
def test_grid_matches_per_direction_loop_on_drawn_axes(n_x, n_z, k, t_axis, p_axis, seed):
    rng = np.random.default_rng(seed)
    geom = ArrayGeometry(n_x=n_x, n_z=n_z, dx=0.5, dz=0.5, d_max=0.5)
    shape = SurfaceShape(rng.uniform(-0.5, 0.5, geom.n_elements))
    g = rng.standard_normal((geom.n_elements, k)) + 1j * rng.standard_normal((geom.n_elements, k))
    grid = evaluate_beampattern(factored(g), geom, shape, t_axis, p_axis)
    want = loop_beampattern_mw(g @ g.conj().T, geom, shape, t_axis, p_axis)
    got = np.where(grid.power_dbm == DBM_FLOOR, 0.0, 10.0 ** (grid.power_dbm / 10.0))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)


def _covariance_of_kind(kind, geom, shape, rng):
    "A PSD covariance of the named kind, and how many eigenpairs it has above rounding."
    n = geom.n_elements
    if kind == "rank-1":
        w = np.sqrt(10.0 / n) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
        return np.outer(w, w.conj()), 1
    if kind == "rank-3":
        v = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
        return v @ v.conj().T, 3
    # "face-centre": the desk targets at a seeded shape have a rank-2
    # optimum, the analytic centre of its face
    a = response_matrix(geom, desk_targets(), shape).a
    cov, report = solve_per_antenna_sdp(a, p_t=10.0)
    assert report.converged
    return cov.r, 2


@pytest.mark.parametrize("kind", ["rank-1", "rank-3", "face-centre", "zero"])
def test_grid_matches_direct_quadratic_forms(kind):
    # The grid runs on R's factor, its eigenpairs above N eps max lam;
    # against the per-direction Re(a^H R a) it may differ by rounding only.
    # An all-zero factor puts the whole grid at the dBm floor.
    rng = np.random.default_rng(4)
    geom = make_geom(d_max=0.4)
    shape = SurfaceShape(rng.uniform(-0.4, 0.4, geom.n_elements))
    t_axis, p_axis = np.linspace(0.0, np.pi, 23), np.linspace(0.0, np.pi, 19)
    if kind == "zero":
        zero = factored(np.zeros((geom.n_elements, 1)))
        grid = evaluate_beampattern(zero, geom, shape, t_axis, p_axis)
        assert np.all(grid.power_dbm == DBM_FLOOR)
        return
    r, rank = _covariance_of_kind(kind, geom, shape, rng)
    cov = dense(r)
    assert cov.g.shape[1] == rank
    grid = evaluate_beampattern(cov, geom, shape, t_axis, p_axis)
    want = loop_beampattern_mw(r, geom, shape, t_axis, p_axis)
    got = np.where(grid.power_dbm == DBM_FLOOR, 0.0, 10.0 ** (grid.power_dbm / 10.0))
    peak = float(got.max())
    assert peak > 0.0
    np.testing.assert_array_less(np.abs(got - np.maximum(want, 0.0)), 1e-12 * peak)


@pytest.mark.parametrize("kind", ["rank-1", "rank-3", "face-centre"])
def test_grid_on_stored_factor_matches_grid_on_its_product(kind, tmp_path):
    # covariance.csv stores G with R = G G^H; the grid swept on the G read
    # back agrees with the grid on a fresh factor of G G^H to rounding.
    rng = np.random.default_rng(6)
    geom = make_geom(d_max=0.4)
    shape = SurfaceShape(rng.uniform(-0.4, 0.4, geom.n_elements))
    r, rank = _covariance_of_kind(kind, geom, shape, rng)
    write_covariance_csv(tmp_path / "cov.csv", r)
    g = read_covariance_csv(tmp_path / "cov.csv")
    assert g.shape == (geom.n_elements, rank)
    t_axis, p_axis = np.linspace(0.0, np.pi, 23), np.linspace(0.0, np.pi, 19)
    on_g = evaluate_beampattern(factored(g), geom, shape, t_axis, p_axis)
    on_r = evaluate_beampattern(dense(g @ g.conj().T), geom, shape, t_axis, p_axis)
    got, want = 10.0 ** (on_g.power_dbm / 10.0), 10.0 ** (on_r.power_dbm / 10.0)
    np.testing.assert_array_less(np.abs(got - want), 1e-12 * want.max())


def test_factor_must_fit_the_geometry():
    geom = make_geom(n=2)
    shape = SurfaceShape.zero(geom)
    with pytest.raises(ValueError, match="rows"):
        evaluate_beampattern(factored(np.ones((3, 1))), geom, shape, AXIS, AXIS)
    for bad in (np.ones(4), np.ones((4, 0)), np.full((4, 1), np.inf)):
        with pytest.raises(ValueError, match="covariance factor"):
            CovarianceMatrix(bad, power_budget=4.0)


def test_grid_memory_stays_bounded_at_n400():
    # Directions go through the steering matrix in chunks of 512, built in
    # place: one 181^2 grid at N = 400 peaks near 18 MB of traced
    # allocations, factoring included. Chunks of 1,024 with three N x M
    # arrays each (36 MB), or the whole grid at once, fail here.
    rng = np.random.default_rng(3)
    geom = make_geom(n=20, d_max=0.5)
    shape = SurfaceShape(rng.uniform(-0.5, 0.5, geom.n_elements))
    r = random_covariance(geom.n_elements, rng)
    tracemalloc.start()
    try:
        grid = evaluate_beampattern(dense(r), geom, shape, AXIS, AXIS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grid.power_dbm.shape == (181, 181)
    assert peak < 24e6, f"peak traced memory {peak / 1e6:.1f} MB"


def test_takes_only_a_factor():
    # An N x N R read as G would draw R^2, so a bare array, dense R or
    # factor, is refused: R enters as a CovarianceMatrix, which holds G.
    geom = make_geom(n=2)
    shape = SurfaceShape.zero(geom)
    for bare in (np.eye(4, dtype=complex), np.ones((4, 1), dtype=complex)):
        with pytest.raises(TypeError, match="CovarianceMatrix"):
            evaluate_beampattern(bare, geom, shape, AXIS, AXIS)


class TestBeampatternGrid:
    def test_axis_monotonicity_enforced(self):
        with pytest.raises(ValueError):
            BeampatternGrid(theta_axis=np.array([0.5, 0.4]),
                            phi_axis=np.array([0.1, 0.2]),
                            power_dbm=np.zeros((2, 2)))

    def test_axis_domain_enforced(self):
        with pytest.raises(ValueError):
            BeampatternGrid(theta_axis=np.array([0.0, 4.0]),
                            phi_axis=np.array([0.1, 0.2]),
                            power_dbm=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="phi_axis is empty"):
            BeampatternGrid(theta_axis=np.array([0.1, 0.2]),
                            phi_axis=np.array([]),
                            power_dbm=np.zeros((2, 0)))

    def test_nan_axis_rejected(self):
        with pytest.raises(ValueError, match="within"):
            BeampatternGrid(theta_axis=np.array([0.0, np.nan]),
                            phi_axis=np.array([0.1, 0.2]),
                            power_dbm=np.zeros((2, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BeampatternGrid(theta_axis=np.array([0.1, 0.2]),
                            phi_axis=np.array([0.1, 0.2]),
                            power_dbm=np.zeros((2, 3)))

    def test_nonfinite_rejected(self):
        power = np.zeros((2, 2))
        power[0, 0] = np.inf
        with pytest.raises(ValueError):
            BeampatternGrid(theta_axis=np.array([0.1, 0.2]),
                            phi_axis=np.array([0.1, 0.2]),
                            power_dbm=power)
