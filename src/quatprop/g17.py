"""Exact "%.17g" text of float64 arrays, formed with numpy.

format_g17 gives each value of an array the text that "%.17g" % v gives it,
byte for byte: the 17 significant digits that read back as the same double,
in "%g" notation. The digits come from a double-double multiplication by a
power of ten and the layout from one gather per value; the few values whose
digits that arithmetic cannot prove are formatted by "%" itself. The tables
are built on first use, so importing the module costs nothing.
"""

from functools import lru_cache

import numpy as np

# The text of one value; format_g17 falls back to it value by value.
VALUE = "%.17g"

# Bytes per value in format_g17's output: the longest "%.17g" text
# ("-1.7976931348623157e+308", 24 bytes), then a zero byte that a writer
# may replace with a separator.
WIDTH = 25

# The tables cover the decimal exponents E = floor(log10|x|) in [-EXP, EXP];
# a value outside them falls back.
EXP = 280

# Byte positions in a value's source row (8 '<u4' words, see _source).
_DIGITS = list(range(3, 20))  # d1..d17
_MINUS, _POINT, _ZERO, _PAD = 20, 21, 22, 23
_EXP_DIGITS = (25, 26, 27)  # hundreds, tens, ones
_E, _EXP_SIGN = 28, 29

# Templates per sign: 23 forms (see tables) times 17 significant lengths.
_SIGN_KEYS = 23 * 17


@lru_cache(maxsize=None)
def tables():
    """The read-only tables of format_g17, built on first use: (pow10,
    by_exp, digits4, zeros4, templates).

    Column E + EXP of pow10 holds hi, hi's upper and lower 26-bit halves
    (Dekker's split) and lo, with hi + lo = 10**(16 - E) within 2**-106
    relative: hi is the double nearest the power and lo the double nearest
    the remainder, both rounded from Python ints. Column E + EXP of by_exp
    holds E's two source words (its digits; "e" and its sign) and the
    template key of a positive value of exponent E with 17 significant
    digits. digits4[g] is the ASCII of g in 4 digits as one '<u4' word, and
    zeros4[g] its count of trailing zeros (4 for 0). Row
    neg * _SIGN_KEYS + form * 17 + L - 1 of templates lists the source
    bytes of the text of a value with L significant digits, padded to
    WIDTH with a zero byte; form is E + 4 in fixed notation
    (-4 <= E <= 16), 21 with a two-digit exponent and 22 with three.
    """
    exps = np.arange(-EXP, EXP + 1)
    pow10 = np.empty((4, exps.size))
    for j, k in enumerate((16 - exps).tolist()):
        if k >= 0:
            hi = float(10 ** k)
            lo = float(10 ** k - int(hi))
        else:
            den = 10 ** -k
            hi = 1 / den  # int true division rounds correctly
            num, scale = hi.as_integer_ratio()
            lo = (scale - num * den) / (scale * den)
        split = 134217729.0 * hi  # 2**27 + 1
        top = split - (split - hi)
        pow10[:, j] = hi, top, hi - top, lo
    g = np.arange(10_000, dtype=np.int16)[:, None]
    places = np.array([1000, 100, 10, 1], dtype=np.int16)
    digits4 = (g // places % 10 + ord("0")).astype(np.uint8).view("<u4")[:, 0]
    zeros4 = (g % (10 * places) == 0).sum(axis=1, dtype=np.int8)
    form = np.where(abs(exps - 6) <= 10, exps + 4, 21 + (abs(exps) >= 100))
    by_exp = np.array([digits4[abs(exps)],
                       np.where(exps < 0, ord("e") | ord("-") << 8,
                                ord("e") | ord("+") << 8),
                       form * 17 + 16])
    templates = np.full((2 * _SIGN_KEYS, WIDTH), _PAD, dtype=np.uint8)
    for neg in (0, 1):
        for f in range(23):
            e = f - 4
            for length in range(1, 18):
                digits = _DIGITS[:length]
                out = [_MINUS] * neg
                if f > 20:  # d1[.d2...]e+XX
                    out += digits[:1] + ([_POINT] + digits[1:]) * (length > 1)
                    out += [_E, _EXP_SIGN, *_EXP_DIGITS[22 - f:]]
                elif e >= 0:  # d1...d(e+1)[.rest], the integer part padded
                    out += _DIGITS[:e + 1]
                    out += ([_POINT] + digits[e + 1:]) * (length > e + 1)
                else:  # 0.[0...]d1...
                    out += [_ZERO, _POINT] + [_ZERO] * (-e - 1) + digits
                key = neg * _SIGN_KEYS + f * 17 + length - 1
                templates[key, :len(out)] = out
    for table in (pow10, by_exp, digits4, zeros4, templates):
        table.flags.writeable = False
    return pow10, by_exp, digits4, zeros4, templates


def format_g17(values) -> np.ndarray:
    """The "%.17g" text of each value of a finite float array, in row-major
    order, as a (values.size, WIDTH) uint8 array of ASCII padded with zero
    bytes: row i equals VALUE % v for the i-th value v, byte for byte."""
    x = np.ascontiguousarray(values, dtype=float).reshape(-1)
    src, index, slow = _source(x)
    out = src.view(np.uint8).reshape(-1).take(
        index + np.arange(0, src.nbytes, 32)[:, None])
    if slow.size:
        text = b"".join((VALUE % v).encode().ljust(WIDTH, b"\0")
                        for v in x[slow].tolist())
        out[slow] = np.frombuffer(text, dtype=np.uint8).reshape(-1, WIDTH)
    return out


def _source(x: np.ndarray):
    """(source rows, byte indices, fallback indices) of a 1-d float array
    x. Row i of the source holds x[i]'s 17 digits, "-", ".", "0" and its
    exponent as 8 '<u4' words (bytes as named at the top of the module),
    and row i of the byte indices, its template, lists the bytes of that
    row that make x[i]'s text. A value at a fallback index has arbitrary
    rows; "%" formats it.

    For |x| = y 10**(E - 16) with E = floor(log10|x|), y is formed as p + t:
    p = |x| hi rounded, an even integer when in [1e16, 1e17), and t = that
    product's exact rounding error (Dekker's two-product) + |x| lo. Then
    |t| < 20, and as hi + lo is within 2**-106 of the power, the error in t
    is below 1e-14 for y < 1e17. So N = p + rint(t) is the correctly rounded
    17-digit decimal of |x| whenever t's fraction is not within 1e-6 of 1/2
    and p is a few units inside (1e16, 1e17), which keeps y and N inside
    too. A value failing either test falls back: zeros, |x| outside about
    1e-280..1e281, a log10 off by one next to a power of ten, and every tie
    or near-tie. Every step is float64 or int64 arithmetic, so the text
    does not depend on the platform.
    """
    pow10, by_exp, digits4, zeros4, templates = tables()
    ax = np.abs(x)
    with np.errstate(all="ignore"):  # zeros and values out of range
        e = np.floor(np.log10(ax))
        np.clip(e, -EXP, EXP, out=e)
        col = e.astype(np.intp) + EXP
        hi, hi_top, hi_low, lo = pow10.take(col, axis=1)
        p = ax * hi
        split = 134217729.0 * ax
        top = split - (split - ax)
        low = ax - top
        t = (((top * hi_top - p) + top * hi_low + low * hi_top) + low * hi_low
             + ax * lo)
        r = np.rint(t)
        slow = ~((p > 1e16 + 32.0) & (p < 1e17 - 64.0)
                 & (np.abs(t - r) < 0.5 - 1e-6))
        n17 = p.astype(np.int64) + r.astype(np.int64)
    n17[slow] = 10 ** 16  # any 17 digits
    # d1, then d2..d17 in 4-digit groups (numpy's floor division by a
    # constant is vectorised, its remainder is not)
    groups = np.empty((5, x.size), dtype=np.int64)
    for j, scale in enumerate((10 ** 16, 10 ** 12, 10 ** 8, 10 ** 4)):
        np.floor_divide(n17, scale, out=groups[j])
        n17 -= groups[j] * scale
    groups[4] = n17
    zeros = zeros4[groups[1]]
    for g in groups[2:]:  # trailing zeros of d2..d17
        zeros = np.where(g == 0, zeros + 4, zeros4[g])
    src = np.empty((x.size, 8), dtype="<u4")
    src[:, :5] = digits4[groups].T  # d1 is the last byte of its word
    src[:, 5] = 0x302E2D  # "-", ".", "0", then a zero byte
    exp = by_exp.take(col, axis=1)
    src[:, 6:] = exp[:2].T
    key = exp[2] + np.signbit(x) * _SIGN_KEYS - zeros
    return src, templates.take(key, axis=0), np.flatnonzero(slow)
