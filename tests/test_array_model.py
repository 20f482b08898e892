"""Steering model checks against hand-derived phases and a loop oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import loop_steering, steering_vector
from morphbeam.array_model import (
    ArrayGeometry,
    SurfaceShape,
    TargetSet,
    phasor,
    response_matrix,
    steering_matrix,
)

TWO_PI = 2.0 * np.pi


# angles in [0, pi], with the signed zero and the ends drawn often
ANGLES = st.one_of(st.sampled_from([0.0, -0.0, np.pi / 2, np.pi]),
                   st.floats(0.0, np.pi))


def loop_matrix(geom, thetas, phis, displacements):
    "The loop oracle's columns side by side: np.exp of each element's whole phase."
    return np.column_stack([loop_steering(geom, theta, phi, displacements)
                            for theta, phi in zip(thetas, phis)])


def small_geom(n_x=2, n_z=2, dx=0.5, dz=0.5, d_max=0.0):
    return ArrayGeometry(n_x=n_x, n_z=n_z, dx=dx, dz=dz, d_max=d_max)


class TestGeometryValidation:
    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            small_geom(n_x=0)
        with pytest.raises(ValueError):
            small_geom(n_z=-1)

    def test_rejects_bad_spacings(self):
        with pytest.raises(ValueError):
            small_geom(dx=0.0)
        with pytest.raises(ValueError):
            small_geom(dz=-0.5)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            small_geom(d_max=-0.1)

    @pytest.mark.parametrize("lengths", [
        dict(dx=np.nan), dict(dz=np.nan), dict(dx=np.inf), dict(dz=np.inf),
        dict(d_max=np.nan), dict(d_max=np.inf), dict(dx=np.nan, d_max=np.nan),
    ])
    def test_rejects_non_finite_lengths(self, lengths):
        # every comparison with NaN is false, so each check must be one
        # that NaN fails
        with pytest.raises(ValueError):
            small_geom(**lengths)

    def test_derived_quantities(self):
        geom = ArrayGeometry(n_x=3, n_z=4, dx=0.5, dz=0.5)
        assert geom.n_elements == 12


class TestPhasor:
    @given(hnp.arrays(float, hnp.array_shapes(min_dims=0, max_dims=2, max_side=8),
                      elements=st.one_of(st.sampled_from([0.0, -0.0]),
                                         st.floats(-1e300, 1e300))))
    def test_matches_complex_exp(self, x):
        got = phasor(x)
        want = np.exp(-2j * np.pi * x)
        assert got.shape == x.shape and got.dtype == complex
        two_eps = 2 * np.finfo(float).eps
        assert np.all(np.abs(got.real - want.real) <= two_eps)
        assert np.all(np.abs(got.imag - want.imag) <= two_eps)


class TestSteeringVector:
    def test_hand_computed_phases_flat_2x2(self):
        # theta = 30 deg, phi = 60 deg on a half-wavelength 2x2 grid:
        # x phase step 2*pi*0.5*sin(30)*cos(60) = pi/4,
        # z phase step 2*pi*0.5*cos(30) = 0.8660*pi.
        geom = small_geom()
        theta, phi = np.pi / 6, np.pi / 3
        a = steering_vector(geom, theta, phi, SurfaceShape.zero(geom))
        a_x1 = np.exp(-1j * np.pi / 4)
        a_z1 = np.exp(-1j * TWO_PI * 0.5 * np.cos(theta))
        expected = np.array([1.0, a_x1, a_z1, a_z1 * a_x1])
        np.testing.assert_allclose(a, expected, atol=1e-14)

    def test_displacement_phase_term(self):
        geom = small_geom(d_max=0.5)
        theta, phi = np.pi / 6, np.pi / 3
        d = np.array([0.0, 0.1, -0.2, 0.35])
        flat = steering_vector(geom, theta, phi, SurfaceShape.zero(geom))
        moved = steering_vector(geom, theta, phi, SurfaceShape(d))
        extra = np.exp(-1j * TWO_PI * d * np.sin(theta) * np.sin(phi))
        np.testing.assert_allclose(moved, flat * extra, atol=1e-14)

    def test_boresight_is_all_ones_along_x(self):
        # theta = pi/2, phi = pi/2: x and z path terms vanish, only the
        # displacement term survives.
        geom = small_geom(n_x=3, n_z=2, d_max=0.3)
        d = np.linspace(-0.3, 0.3, 6)
        a = steering_vector(geom, np.pi / 2, np.pi / 2, SurfaceShape(d))
        np.testing.assert_allclose(a, np.exp(-1j * TWO_PI * d), atol=1e-14)

    def test_matches_loop_oracle_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            geom = small_geom(
                n_x=int(rng.integers(1, 6)), n_z=int(rng.integers(1, 6)),
                dx=float(rng.uniform(0.3, 0.8)), dz=float(rng.uniform(0.3, 0.8)),
                d_max=0.5,
            )
            theta = float(rng.uniform(0.0, np.pi))
            phi = float(rng.uniform(0.0, np.pi))
            d = rng.uniform(-0.5, 0.5, geom.n_elements)
            got = steering_vector(geom, theta, phi, SurfaceShape(d))
            want = loop_steering(geom, theta, phi, d)
            np.testing.assert_allclose(got, want, atol=1e-13)

    def test_shared_displacement_phases_keep_every_bit(self):
        # Repeated directions, mirrored pairs (equal sin(theta) sin(phi)),
        # the poles where that product is 0, and a -0.0 angle: the matrix
        # equals the one built a column at a time, bit for bit.
        rng = np.random.default_rng(11)
        geom = small_geom(n_x=4, n_z=3, d_max=1.0)
        axis = np.linspace(0.0, np.pi, 7)
        t = rng.choice(axis, 40)
        p = rng.choice(axis, 40)
        thetas = np.concatenate([t, p, [-0.0, 0.0, 0.4]])
        phis = np.concatenate([p, t, [0.7, 0.7, -0.0]])
        d = rng.uniform(-1.0, 1.0, geom.n_elements)
        d[:2] = 0.0, -0.0
        got = steering_matrix(geom, thetas, phis, d)
        want = np.column_stack([steering_matrix(geom, th, ph, d)[:, 0]
                                for th, ph in zip(thetas, phis)])
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("n_x, n_z", [(1, 1), (1, 4), (4, 1), (3, 2)])
    def test_edge_directions_match_the_loop_oracle(self, n_x, n_z):
        # the poles, theta = -0.0, phi = pi and boresight, in every pairing,
        # on a single element and on one-row and one-column arrays
        geom = small_geom(n_x=n_x, n_z=n_z, d_max=1.0)
        special = np.array([0.0, -0.0, np.pi / 2, np.pi, 0.3])
        thetas, phis = (g.ravel() for g in np.meshgrid(special, special))
        d = np.random.default_rng(n_x * 10 + n_z).uniform(-1.0, 1.0, geom.n_elements)
        got = steering_matrix(geom, thetas, phis, d)
        np.testing.assert_array_less(
            np.abs(got - loop_matrix(geom, thetas, phis, d)), 1e-13)
        one_at_a_time = np.column_stack([steering_matrix(geom, th, ph, d)[:, 0]
                                         for th, ph in zip(thetas, phis)])
        np.testing.assert_array_equal(got.view(np.uint64), one_at_a_time.view(np.uint64))

    @settings(max_examples=60, deadline=None)
    @given(n_x=st.integers(1, 4), n_z=st.integers(1, 4),
           directions=st.lists(st.tuples(ANGLES, ANGLES), min_size=1, max_size=12),
           seed=st.integers(0, 2**32 - 1))
    def test_batches_match_the_loop_oracle(self, n_x, n_z, directions, seed):
        geom = small_geom(n_x=n_x, n_z=n_z, d_max=1.0)
        thetas, phis = np.array(directions).T
        d = np.random.default_rng(seed).uniform(-1.0, 1.0, geom.n_elements)
        got = steering_matrix(geom, thetas, phis, d)
        assert got.shape == (geom.n_elements, len(directions))
        np.testing.assert_array_less(
            np.abs(got - loop_matrix(geom, thetas, phis, d)), 1e-13)

    def test_unit_modulus(self):
        rng = np.random.default_rng(3)
        geom = small_geom(n_x=4, n_z=3, d_max=1.0)
        thetas = rng.uniform(0.0, np.pi, 11)
        phis = rng.uniform(0.0, np.pi, 11)
        d = rng.uniform(-1.0, 1.0, geom.n_elements)
        a = steering_matrix(geom, thetas, phis, d)
        np.testing.assert_allclose(np.abs(a), 1.0, atol=1e-14)

    def test_displacement_length_mismatch(self):
        geom = small_geom()
        with pytest.raises(ValueError):
            steering_matrix(geom, np.array([1.0]), np.array([1.0]), np.zeros(3))


class TestResponseMatrix:
    # The package keeps only A; B = A A^H is built here from it.

    def test_b_is_gram_of_columns(self):
        rng = np.random.default_rng(11)
        geom = small_geom(n_x=3, n_z=3, d_max=0.5)
        targets = TargetSet(thetas=rng.uniform(0, np.pi, 4),
                            phis=rng.uniform(0, np.pi, 4))
        shape = SurfaceShape(rng.uniform(-0.5, 0.5, geom.n_elements))
        rm = response_matrix(geom, targets, shape)
        want = sum(np.outer(v, v.conj()) for v in (
            loop_steering(geom, t, p, shape.displacements)
            for t, p in zip(targets.thetas, targets.phis)))
        np.testing.assert_allclose(rm.a @ rm.a.conj().T, want, atol=1e-12)
        assert rm.n_elements == 9
        assert rm.n_targets == 4

    def test_trace_is_targets_times_elements(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            geom = small_geom(n_x=int(rng.integers(2, 5)),
                              n_z=int(rng.integers(2, 5)), d_max=0.25)
            k = int(rng.integers(1, 6))
            targets = TargetSet(thetas=rng.uniform(0, np.pi, k),
                                phis=rng.uniform(0, np.pi, k))
            shape = SurfaceShape(rng.uniform(-0.25, 0.25, geom.n_elements))
            rm = response_matrix(geom, targets, shape)
            trace = float(np.real(np.trace(rm.a @ rm.a.conj().T)))
            assert trace == pytest.approx(k * geom.n_elements, rel=1e-12)

    def test_b_hermitian_psd(self):
        rng = np.random.default_rng(13)
        geom = small_geom(n_x=4, n_z=2)
        targets = TargetSet(thetas=rng.uniform(0, np.pi, 3),
                            phis=rng.uniform(0, np.pi, 3))
        rm = response_matrix(geom, targets, SurfaceShape.zero(geom))
        b = rm.a @ rm.a.conj().T
        np.testing.assert_allclose(b, b.conj().T, atol=1e-14)
        assert np.linalg.eigvalsh(b)[0] >= -1e-10


class TestTargetSet:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            TargetSet(thetas=np.array([0.5, 0.6]), phis=np.array([0.5]))

    def test_angle_domain(self):
        with pytest.raises(ValueError):
            TargetSet(thetas=np.array([-0.1]), phis=np.array([0.5]))
        with pytest.raises(ValueError):
            TargetSet(thetas=np.array([0.5]), phis=np.array([3.5]))

    @pytest.mark.parametrize("thetas, phis", [
        ([np.nan], [0.5]), ([0.5], [np.nan]), ([0.5, np.nan], [0.5, 0.6]),
        ([np.inf], [0.5]),
    ])
    def test_non_finite_angles_rejected(self, thetas, phis):
        with pytest.raises(ValueError, match=r"\[0, pi\]"):
            TargetSet(thetas=np.array(thetas), phis=np.array(phis))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TargetSet(thetas=np.array([]), phis=np.array([]))

    def test_from_degrees(self):
        ts = TargetSet.from_degrees([30.0, 135.0], [60.0, 90.0])
        np.testing.assert_allclose(ts.thetas, [np.pi / 6, 3 * np.pi / 4])
        np.testing.assert_allclose(ts.phis, [np.pi / 3, np.pi / 2])
        assert ts.n_targets == 2


class TestSurfaceShape:
    def test_zero_and_copy(self):
        geom = small_geom()
        shape = SurfaceShape.zero(geom)
        np.testing.assert_array_equal(shape.displacements, np.zeros(4))
        dup = shape.copy()
        dup.displacements[0] = 1.0
        assert shape.displacements[0] == 0.0

    def test_uniform_random_stays_in_box(self):
        geom = small_geom(d_max=0.4)
        rng = np.random.default_rng(5)
        for _ in range(20):
            shape = SurfaceShape.uniform_random(geom, rng)
            assert np.all(np.abs(shape.displacements) <= 0.4)

    def test_validate(self):
        geom = small_geom(d_max=0.2)
        SurfaceShape(np.full(4, 0.2)).validate(geom)
        with pytest.raises(ValueError):
            SurfaceShape(np.full(4, 0.3)).validate(geom)
        with pytest.raises(ValueError):
            SurfaceShape(np.zeros(3)).validate(geom)
        with pytest.raises(ValueError, match="non-finite"):
            SurfaceShape(np.array([0.0, np.nan, 0.0, 0.0])).validate(geom)
