import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatprop import Quaternion, qarray

from support import rand_axis

# components from +-0.0 and subnormals up to 1e150, so no product overflows
SMALLEST = 5e-324
components = st.floats(min_value=-1e150, max_value=1e150) | st.sampled_from(
    [0.0, -0.0, SMALLEST, -SMALLEST, 1e-310, -3e-320, 1e150, -1e150])


def quaternion_array(shape):
    size = int(np.prod(shape, dtype=int)) * 4
    return st.lists(components, min_size=size, max_size=size).map(
        lambda xs: np.array(xs, dtype=float).reshape(*shape, 4))


@st.composite
def broadcast_pairs(draw):
    """(p, q) of the shapes (4,)x(4,), (n,4)x(4,), (4,)x(n,4), (k,1,4)x(m,4)."""
    n, k, m = (draw(st.integers(1, 4)) for _ in range(3))
    p_shape, q_shape = draw(st.sampled_from(
        [((), ()), ((n,), ()), ((), (n,)), ((k, 1), (m,))]))
    return draw(quaternion_array(p_shape)), draw(quaternion_array(q_shape))


@settings(max_examples=200, deadline=None)
@given(broadcast_pairs())
def test_mul_is_scalar_product_bit_for_bit(pair):
    p, q = pair
    p_all, q_all = np.broadcast_arrays(p, q)
    expected = np.empty(p_all.shape)
    for index in np.ndindex(p_all.shape[:-1]):
        prod = (Quaternion(*map(float, p_all[index]))
                * Quaternion(*map(float, q_all[index])))
        expected[index] = (prod.a, prod.b, prod.c, prod.d)
    got = qarray.mul(p, q)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), quaternion_array((3,)))
def test_stacked_involution_is_stack_of_per_axis_calls(seed, q):
    rng = np.random.default_rng(seed)
    mus = np.array([rand_axis(rng).to_vec() for _ in range(3)])
    stacked = qarray.involution(q, mus[:, None, :])
    assert stacked.tobytes() == np.stack(
        [qarray.involution(q, mu) for mu in mus]).tobytes()


# --- mul is hamilton, bit for bit -------------------------------------------

# (p, q) shapes: single quaternions, rows against one quaternion and against
# rows, the stacks of left_matrix/right_matrix, and the face map K's operands
MUL_SHAPES = [((4,), (4,)), ((5, 4), (4,)), ((4,), (5, 4)), ((5, 4), (5, 4)),
              ((3, 1, 4), (4, 4)), ((4, 4), (3, 1, 4)),
              ((4, 1, 4, 1, 4), (1, 4, 1, 4, 4))]
SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


def _normal_with_specials(rng, shape, share):
    """Normal draws with about share of the entries replaced by +-0.0,
    +-inf or nan."""
    x = rng.normal(size=shape)
    mask = rng.random(shape) < share
    x[mask] = rng.choice(SPECIALS, size=int(mask.sum()))
    return x


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(MUL_SHAPES), st.sampled_from([0.0, 0.1, 0.5]),
       st.integers(0, 2**32 - 1))
def test_mul_is_stacked_hamilton_bit_for_bit(shapes, share, seed):
    rng = np.random.default_rng(seed)
    p, q = (_normal_with_specials(rng, shape, share) for shape in shapes)
    with np.errstate(invalid="ignore"):  # inf * 0 and inf - inf give nan
        got = qarray.mul(p, q)
        expected = np.stack(qarray.hamilton(*np.moveaxis(p, -1, 0),
                                            *np.moveaxis(q, -1, 0)), axis=-1)
    assert got.shape == expected.shape and got.flags.c_contiguous
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan], expected[~nan])
    assert np.array_equal(np.signbit(got[~nan]), np.signbit(expected[~nan]))


# --- the array contracts refuse complex values ------------------------------

@pytest.mark.parametrize("values", [np.ones((2, 4)) * (1 + 2j),
                                    np.ones((2, 4), dtype=np.complex64),
                                    [[1j, 0, 0, 0]],
                                    np.array([[1 + 0j, 0, 0, 0]], dtype=object)])
def test_sample_rows_refuses_complex_values(values):
    dtype = np.asarray(values).dtype
    with pytest.raises(ValueError, match=f"^sample array must be real, got dtype {dtype}$"):
        qarray.sample_rows(values)


@pytest.mark.parametrize("values", [np.ones((2, 4)) * (1 + 2j),
                                    np.ones(4, dtype=np.complex64),
                                    [1j, 0, 0, 0],
                                    np.array([1 + 0j, 0, 0, 0], dtype=object)])
def test_components_refuses_complex_values(values):
    dtype = np.asarray(values).dtype
    with pytest.raises(ValueError, match=f"^component vectors must be real, got dtype {dtype}$"):
        qarray.components(values)


def test_object_arrays_of_real_numbers_are_read_as_floats():
    rows = np.array([[1.0, 2, 3, 4]], dtype=object)
    assert np.array_equal(qarray.sample_rows(rows), [[1.0, 2.0, 3.0, 4.0]])
    assert qarray.components(rows).dtype == np.float64
