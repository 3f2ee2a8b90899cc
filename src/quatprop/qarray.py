"""Vectorised quaternion operations on (..., 4) component arrays.

Rows follow the (a, b, c, d) component order of :mod:`quatprop.core`. The
two array contracts of the package are checked here, once each:
:func:`components` for (..., 4) component vectors and :func:`sample_rows`
for (n, 4) sample arrays.
"""

from __future__ import annotations

import contextlib

import numpy as np


def _real(values, what: str) -> np.ndarray:
    """values as a float array; values that are not real (complex dtype, or
    objects float() refuses) raise ValueError naming their dtype."""
    x = np.asarray(values)
    if x.dtype.kind != "c":
        with contextlib.suppress(TypeError):
            return x.astype(float, copy=False)
    raise ValueError(f"{what} must be real, got dtype {x.dtype}")


def components(q) -> np.ndarray:
    """q as (..., 4) component vectors: a Quaternion (anything with to_vec)
    gives its 4 components, anything else a float array. Any other last
    axis, and complex values, raise ValueError."""
    x = q.to_vec() if hasattr(q, "to_vec") else _real(q, "component vectors")
    if x.ndim == 0 or x.shape[-1] != 4:
        raise ValueError(f"expected (..., 4) component vectors, got shape {x.shape}")
    return x


def sample_rows(samples, least: int = 1, purpose: str = "") -> np.ndarray:
    """The draws of samples (an array, or anything with .data such as a
    SampleSet) as an (n, 4) float array. Any other shape, n = 0 included,
    fewer than least rows and complex values raise ValueError."""
    if not isinstance(samples, np.ndarray):  # an ndarray's .data is its buffer
        samples = getattr(samples, "data", samples)
    rows = _real(samples, "sample array")
    if rows.ndim != 2 or rows.shape[1] != 4 or rows.shape[0] < 1:
        raise ValueError(f"sample array must be (n >= 1, 4), got {rows.shape}")
    if rows.shape[0] < least:
        raise ValueError(f"need at least {least} samples{purpose}")
    return rows


# Rows per block of the n-row kernels: 256 KiB of float64 component rows, so
# a kernel's temporaries stay a few blocks whatever the number of rows.
ROW_BLOCK = 8192


def row_blocks(n: int, size: int = ROW_BLOCK):
    """Slices that cover range(n) in order, size rows each, except that the
    last block takes a lone final row: no block has one row unless n == 1.
    numpy multiplies a one-row matrix with gemv, whose bits differ from
    gemm's, so a lone row would not match the same row of a one-shot
    product."""
    start = 0
    while start < n:
        stop = start + size
        if stop + 1 >= n:
            stop = n
        yield slice(start, stop)
        start = stop


def hamilton(a1, b1, c1, d1, a2, b2, c2, d2):
    """Components of the Hamilton product (a1, b1, c1, d1)(a2, b2, c2, d2).

    The one written-out form of the product: the arguments may be floats or
    broadcasting arrays alike.
    """
    return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)


# the four standard units e_0..e_3, one per row
UNITS = np.eye(4)
UNITS.flags.writeable = False


def _product_table():
    """Index and sign tables of the product: component k of p*q is
    sum_j p_j * SIGN[k, j] * q[INDEX[k, j]], read off hamilton at the four
    units (e_j * e_m is SIGN[k, j] e_k where m = INDEX[k, j])."""
    # prods[k, j, m]: component k of e_j * e_m
    prods = np.array(hamilton(*UNITS[:, :, None], *UNITS[:, None, :]))
    index = np.abs(prods).argmax(axis=-1)
    return index, np.take_along_axis(prods, index[..., None], -1)[..., 0]


_INDEX, _SIGN = _product_table()


def mul(p, q):
    """Hamilton product, broadcasting over leading axes, into a C-contiguous
    array.

    Component k is ((p0 R[k,0] + p1 R[k,1]) + p2 R[k,2]) + p3 R[k,3], with
    R(q) = SIGN * q[INDEX] the matrix of p -> p*q: the products of hamilton,
    summed in its order, so the bits are hamilton's (signed zeros and inf
    included; a nan lands where hamilton's does, its sign bit may not) from
    a few numpy calls whatever the shapes. Long rows are faster through
    hamilton on their columns (see DoubleRotation.apply_rows).
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    terms = p[..., None, :] * (q[..., _INDEX] * _SIGN)
    return np.add((terms[..., 0] + terms[..., 1]) + terms[..., 2],
                  terms[..., 3], order="C")


def conj(q):
    q = np.asarray(q, dtype=float)
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def involution(q, mu):
    """-mu*q*mu for pure unit axes mu (..., 4), broadcasting q and mu against
    each other: a stack of axes gives the stack of their involutions."""
    mu = np.asarray(mu, dtype=float)
    return -mul(mul(mu, q), mu)
