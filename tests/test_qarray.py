import numpy as np
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
