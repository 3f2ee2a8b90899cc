"""4x4 real matrix representations of quaternion multiplication and the
double rotations q -> u*q*v they generate.

Vectors are component vectors (a, b, c, d); any other ordering silently
transposes sub-blocks of these matrices, so it is fixed here once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import qarray
from .core import ATOL, Quaternion, euler_form


def left_matrix(q) -> np.ndarray:
    """Matrix of p -> q*p acting on component vectors: column j is q*e_j.
    A (..., 4) array q gives the matrices of its rows, (..., 4, 4)."""
    q = qarray.components(q)
    return np.swapaxes(qarray.mul(q[..., None, :], qarray.UNITS), -1, -2)


def right_matrix(q) -> np.ndarray:
    """Matrix of p -> p*q acting on component vectors: column j is e_j*q.
    A (..., 4) array q gives the matrices of its rows, (..., 4, 4)."""
    q = qarray.components(q)
    return np.swapaxes(qarray.mul(qarray.UNITS, q[..., None, :]), -1, -2)


class So4Check(NamedTuple):
    is_rotation: bool
    orthogonality_error: float
    determinant_error: float


def is_so4(matrix: np.ndarray) -> So4Check:
    """Test membership in the 4D rotation group, returning the residuals
    ||M M^T - I||_F and det(M) - 1 alongside the verdict (both within ATOL)."""
    m = np.asarray(matrix, dtype=float)
    orth = float(np.linalg.norm(m @ m.T - np.eye(4)))
    det = float(np.linalg.det(m) - 1.0)
    return So4Check(orth <= ATOL and abs(det) <= ATOL, orth, det)


@dataclass(frozen=True)
class DoubleRotation:
    """The 4D rotation q -> u*q*v for unit quaternions u and v.

    A factor whose modulus differs from 1 by more than ATOL raises
    ValueError; factors are kept as given, not renormalised (double_rotation
    normalises any nonzero pair).
    """

    u: Quaternion
    v: Quaternion

    def __post_init__(self):
        for name in ("u", "v"):
            modulus = getattr(self, name).modulus()
            if not abs(modulus - 1.0) <= ATOL:
                raise ValueError(f"rotation factor {name} must be a unit "
                                 f"quaternion, got modulus {modulus:.17g}")

    @cached_property
    def matrix(self) -> np.ndarray:
        return left_matrix(self.u) @ right_matrix(self.v)

    def apply(self, q: Quaternion) -> Quaternion:
        return self.u * q * self.v

    def apply_rows(self, rows: np.ndarray) -> np.ndarray:
        """Rotate an (..., 4) array of component vectors, a block of rows at
        a time into one output array of the same shape. An array whose last
        axis is not 4 raises ValueError."""
        rows = qarray.components(rows)
        flat = rows.reshape(-1, 4)
        out = np.empty_like(flat)
        u, v = self.u.to_vec(), self.v.to_vec()
        # hamilton on the block's columns: on long rows it is faster than
        # qarray.mul's gathered (n, 4, 4) terms, with the same bits
        for span in qarray.row_blocks(flat.shape[0]):
            qv = qarray.hamilton(*flat[span].T, *v)
            out[span] = np.stack(qarray.hamilton(*u, *qv), axis=-1)
        return out.reshape(rows.shape)


def unit_factor(q: Quaternion) -> Quaternion:
    """q / |q|, the unit factor double_rotation makes of q.

    A factor whose computed |q| is not positive and finite (zero, nan or
    inf, or |q|^2 underflowing to 0 or overflowing) raises ValueError
    naming its modulus.
    """
    n = q.modulus()
    if not 0.0 < n < math.inf:
        raise ValueError("rotation factors must be nonzero, finite, and "
                         "neither underflow nor overflow |q|^2; got modulus "
                         f"{math.hypot(q.a, q.b, q.c, q.d):.3e}")
    return q / n


def double_rotation(u: Quaternion, v: Quaternion) -> DoubleRotation:
    """Build the rotation q -> u*q*v, renormalising the unit factors."""
    return DoubleRotation(unit_factor(u), unit_factor(v))


def isoclinic_angles(u: Quaternion, v: Quaternion):
    """Left and right rotation angles of the double rotation (u, v).

    These are the polar angles of u and v; the rotation matrix has eigenvalue
    arguments +-(alpha+beta) and +-(alpha-beta). A real factor contributes
    angle 0 (or pi when negative).
    """
    angles = []
    for q in (u, v):
        unit = unit_factor(q)  # outside the try: a bad factor is an error
        try:
            _, _, theta = euler_form(unit)
        except ValueError:
            theta = 0.0 if q.a > 0 else np.pi
        angles.append(theta)
    return angles[0], angles[1]
