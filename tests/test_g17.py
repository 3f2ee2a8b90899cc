"""g17.format_g17 against Python's own "%.17g", value by value."""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from quatprop import g17


def assert_matches_format(values):
    values = np.asarray(values, dtype=float)
    out = g17.format_g17(values)
    assert out.shape == (values.size, g17.WIDTH)
    assert not out[:, -1].any()  # the separator byte is left free
    got = out.tobytes().decode("ascii").split("\0")
    got = [text for text in got if text]
    want = [format(v, ".17g") for v in values.ravel().tolist()]
    assert got == want


@settings(max_examples=5, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_bit_patterns(seed):
    # every finite double, both signs, is reachable from random bits
    bits = np.random.default_rng(seed).integers(0, 2**64, size=100_000,
                                                dtype=np.uint64)
    x = bits.view(np.float64)
    assert_matches_format(x[np.isfinite(x)])


def test_powers_of_ten_and_their_neighbours():
    # the log10 exponent and the 1e16/1e17 window are decided next to them
    p = np.array([float(f"1e{k}") for k in range(-320, 309)])
    x = np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])
    assert_matches_format(np.concatenate([x, -x]))


def test_dyadic_ties():
    # m 2**j is exact, so many of them fall halfway between two 17-digit
    # decimals: "%" rounds those half to even
    m = np.arange(1, 3001, dtype=float)
    x = (m[:, None] * 2.0 ** np.arange(-80, 81)).ravel()
    assert_matches_format(np.concatenate([x, -x]))


def test_near_ties():
    # x = M 2**q whose scaled value y = x 10**k has a fraction of 1/2 +- d
    # 2**-s, closer to 1/2 than the kernel's error in t when k > 22 (10**k
    # is not a double there): each must fall back, not round by rint
    near = []
    for k in range(23, 300):
        for s in range(48, 56):
            unit = 1 << s
            inverse = pow(5 ** k % unit, -1, unit)
            for d in (-3, -2, -1, 1, 2, 3):
                m = ((unit >> 1) + d) * inverse % unit  # m 5**k = 2**(s-1) + d mod 2**s
                while m < 1 << 52:  # a 53-bit significand
                    m += unit
                x = math.ldexp(m, -s - k)
                if m < 1 << 53 and 16 - math.floor(math.log10(x)) == k:
                    near.append(x)
    assert len(near) > 20
    assert_matches_format(near)
    assert g17._source(np.array(near))[2].size == len(near)


def test_zeros_subnormals_and_extreme_normals():
    tiny = np.finfo(float).tiny
    assert_matches_format([0.0, -0.0, 5e-324, -5e-324, 1e-310, tiny / 3,
                           np.nextafter(tiny, 0.0), tiny, -tiny,
                           np.finfo(float).max, -np.finfo(float).max,
                           np.nextafter(np.finfo(float).max, 0.0)])


def test_shapes_and_layouts_give_the_values_in_row_major_order():
    x = np.random.default_rng(7).standard_normal((6, 3)) * 1e3
    for view in (x, np.asfortranarray(x), x[::-1, ::-1], x.T):
        assert_matches_format(view.ravel())
        assert g17.format_g17(view).tobytes() == g17.format_g17(view.ravel()).tobytes()
    assert g17.format_g17(np.empty((0, 4))).shape == (0, g17.WIDTH)


def test_power_table_is_within_2_to_the_minus_104():
    pow10 = g17.tables()[0]
    for col, e in enumerate(range(-g17.EXP, g17.EXP + 1)):
        hi, top, low, lo = map(Fraction, pow10[:, col].tolist())
        exact = Fraction(10) ** (16 - e)
        assert abs(hi + lo - exact) <= exact / 2**104, e
        assert top + low == hi  # the split is exact


def test_fallback_is_rare_on_normal_draws():
    # a kernel that silently sent every value to "%" would still be exact
    rng = np.random.default_rng(11)
    for scale in (1e-3, 1e-1, 1.0, 10.0, 1e3):
        x = rng.standard_normal(100_000) * scale
        fallback = g17._source(x)[2]
        assert fallback.size < 1_000, (scale, fallback.size)
