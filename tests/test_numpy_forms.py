"""The hot helpers equal the numpy calls they stand in for, bit for bit.

The covariance solve and the shape ascent evaluate numpy's own formulas (the
ndarray reductions, the norm's sqrt(add.reduce(|x|^2)), arctan2 for
np.angle, the clip method) without numpy's Python wrappers. Each test
compares one helper with the numpy form it replaced through
``.view(np.uint64)``, signed zeros included, so an edit that changes the
rounding fails here rather than in a desk number.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from morphbeam.array_model import ArrayGeometry, TargetSet, steering_matrix
from morphbeam.covariance import _rownorm, column_powers
from morphbeam.objective import factor_power
from morphbeam.shape_opt import (
    _norm,
    free_set,
    planar_steering,
    project_shape,
    shaped_steering,
)

# finite doubles, +/-0.0 and subnormals included
FLOATS = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
# the box edges, signed zeros and the interior
BOX_EDGES = st.sampled_from([0.0, 0.25, 1.0])


def bits(x) -> np.ndarray:
    return np.ascontiguousarray(x).reshape(-1).view(np.uint64)


def complex_arrays(shape):
    "Complex arrays whose real and imaginary parts are drawn separately (signed zeros kept)."
    return hnp.arrays(np.float64, shape + (2,), elements=FLOATS).map(
        lambda x: x.view(np.complex128)[..., 0])


def old_rownorm(x):
    if x.ndim == 1:
        return np.exp(1j * np.angle(x))
    norm = np.linalg.norm(x, axis=1, keepdims=True)
    x = x / np.where(norm > 0.0, norm, 1.0)
    x[norm[:, 0] == 0.0, 0] = 1.0
    return x


def old_pinned(grad, displacements, d_max):
    return (((displacements >= d_max) & (grad > 0.0))
            | ((displacements <= -d_max) & (grad < 0.0)))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), rows=st.integers(1, 12), cols=st.integers(1, 6))
def test_rownorm_matches_linalg_norm(data, rows, cols):
    x = data.draw(complex_arrays((rows, cols)))
    zero = data.draw(hnp.arrays(np.bool_, (rows,)))
    x[zero] = 0.0
    np.testing.assert_array_equal(bits(_rownorm(x)), bits(old_rownorm(x)))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 12))
def test_rownorm_of_a_vector_matches_exp_angle(data, n):
    x = data.draw(complex_arrays((n,)))
    zero = data.draw(hnp.arrays(np.bool_, (n,)))
    x[zero] = 0.0
    np.testing.assert_array_equal(bits(_rownorm(x)), bits(old_rownorm(x)))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), shape=hnp.array_shapes(min_dims=1, max_dims=2, max_side=8))
def test_column_powers_and_factor_power_match_np_sum(data, shape):
    a = data.draw(complex_arrays(shape))
    ra = data.draw(complex_arrays(shape))
    np.testing.assert_array_equal(bits(column_powers(a, ra)),
                                  bits(np.sum(a.conj() * ra, axis=0)))
    want = float(np.sum(np.sum(a.conj() * a, axis=0)).real)
    np.testing.assert_array_equal(bits(factor_power(a)), bits(want))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 16), d_max=BOX_EDGES)
def test_free_set_matches_the_two_comparisons(data, n, d_max):
    # An element with a zero gradient may count as pinned or free: its
    # entry of the free gradient is 0 either way.
    grad = data.draw(hnp.arrays(np.float64, (n,), elements=FLOATS))
    x = data.draw(hnp.arrays(np.float64, (n,), elements=st.one_of(
        st.sampled_from([-d_max, d_max, 0.0, -0.0]), st.floats(-d_max, d_max))))
    free = free_set(grad, x, d_max)
    moving = grad != 0.0
    np.testing.assert_array_equal(free[moving], ~old_pinned(grad, x, d_max)[moving])
    want = float(np.linalg.norm(np.where(old_pinned(grad, x, d_max), 0.0, grad)))
    np.testing.assert_array_equal(bits(_norm(grad * free)), bits(want))
    np.testing.assert_array_equal(bits(_norm(grad)), bits(float(np.linalg.norm(grad))))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 16),
       d_max=st.one_of(BOX_EDGES, st.floats(0.0, 10.0)))
def test_project_shape_matches_np_clip(data, n, d_max):
    # at d_max = 0 np.clip keeps -0.0 for a negative entry, which nesting
    # np.minimum and np.maximum would not
    x = data.draw(hnp.arrays(np.float64, (n,), elements=st.one_of(
        FLOATS, st.sampled_from([-d_max, d_max, 0.0, -0.0]))))
    np.testing.assert_array_equal(bits(project_shape(x, d_max)),
                                  bits(np.clip(x, -d_max, d_max)))


ANGLES = st.one_of(st.sampled_from([0.0, -0.0, np.pi / 2, np.pi]), st.floats(0.0, np.pi))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n_x=st.integers(1, 4), n_z=st.integers(1, 4), k=st.integers(1, 4))
def test_shaped_steering_matches_steering_matrix(data, n_x, n_z, k):
    # targets at the poles and at angles of -0.0 included: c is read as
    # c + 0.0, as steering_matrix reads it
    geom = ArrayGeometry(n_x=n_x, n_z=n_z, dx=0.5, dz=0.7, d_max=1.0)
    targets = TargetSet(thetas=data.draw(st.lists(ANGLES, min_size=k, max_size=k)),
                        phis=data.draw(st.lists(ANGLES, min_size=k, max_size=k)))
    x = data.draw(hnp.arrays(np.float64, (geom.n_elements,), elements=st.one_of(
        st.floats(-1.0, 1.0), st.sampled_from([0.0, -0.0]))))
    got = shaped_steering(planar_steering(geom, targets), x)
    np.testing.assert_array_equal(
        bits(got), bits(steering_matrix(geom, targets.thetas, targets.phis, x)))
