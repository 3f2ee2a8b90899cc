"""Vectorised quaternion operations on (..., 4) component arrays.

Rows follow the (a, b, c, d) component order of :mod:`quatprop.core`.
"""

from __future__ import annotations

import numpy as np


def hamilton(a1, b1, c1, d1, a2, b2, c2, d2):
    """Components of the Hamilton product (a1, b1, c1, d1)(a2, b2, c2, d2).

    The one written-out form of the product: the arguments may be floats or
    broadcasting arrays alike.
    """
    return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)


def mul(p, q):
    """Hamilton product, broadcasting over leading axes."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return np.stack(hamilton(*np.moveaxis(p, -1, 0), *np.moveaxis(q, -1, 0)), axis=-1)


def conj(q):
    q = np.asarray(q, dtype=float)
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def involution(q, mu):
    """-mu*q*mu for a pure unit axis mu (a 4-vector), broadcasting over q."""
    mu = np.asarray(mu, dtype=float)
    return -mul(mul(mu, q), mu)


def modulus2(q):
    q = np.asarray(q, dtype=float)
    return np.sum(q * q, axis=-1)


def rotate(q, u, v):
    """Double rotation u*q*v applied row-wise."""
    return mul(np.asarray(u, dtype=float), mul(q, np.asarray(v, dtype=float)))
