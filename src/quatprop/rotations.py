"""4x4 real matrix representations of quaternion multiplication and the
double rotations q -> u*q*v they generate.

Vectors are component vectors (a, b, c, d); any other ordering silently
transposes sub-blocks of these matrices, so it is fixed here once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import qarray
from .core import ATOL, Quaternion, euler_form


def left_matrix(q: Quaternion) -> np.ndarray:
    """Matrix of p -> q*p acting on component vectors: column j is q*e_j."""
    return np.array(qarray.hamilton(q.a, q.b, q.c, q.d, *np.eye(4)))


def right_matrix(q: Quaternion) -> np.ndarray:
    """Matrix of p -> p*q acting on component vectors: column j is e_j*q."""
    return np.array(qarray.hamilton(*np.eye(4), q.a, q.b, q.c, q.d))


class So4Check(NamedTuple):
    is_rotation: bool
    orthogonality_error: float
    determinant_error: float


def is_so4(matrix: np.ndarray, tol: float = ATOL) -> So4Check:
    """Test membership in the 4D rotation group, returning the residuals
    ||M M^T - I||_F and det(M) - 1 alongside the verdict."""
    m = np.asarray(matrix, dtype=float)
    orth = float(np.linalg.norm(m @ m.T - np.eye(4)))
    det = float(np.linalg.det(m) - 1.0)
    return So4Check(orth <= tol and abs(det) <= tol, orth, det)


@dataclass(frozen=True)
class DoubleRotation:
    """The 4D rotation q -> u*q*v for unit quaternions u and v."""

    u: Quaternion
    v: Quaternion

    @cached_property
    def matrix(self) -> np.ndarray:
        return left_matrix(self.u) @ right_matrix(self.v)

    def apply(self, q: Quaternion) -> Quaternion:
        return self.u * q * self.v

    def apply_rows(self, rows: np.ndarray) -> np.ndarray:
        """Rotate an (N, 4) array of component vectors."""
        return qarray.rotate(rows, self.u.to_vec(), self.v.to_vec())


def double_rotation(u: Quaternion, v: Quaternion) -> DoubleRotation:
    """Build the rotation q -> u*q*v, renormalising the unit factors."""
    nu, nv = u.modulus(), v.modulus()
    if nu == 0.0 or nv == 0.0:
        raise ValueError("rotation factors must be nonzero quaternions")
    return DoubleRotation(u / nu, v / nv)


def isoclinic_angles(u: Quaternion, v: Quaternion):
    """Left and right rotation angles of the double rotation (u, v).

    These are the polar angles of u and v; the rotation matrix has eigenvalue
    arguments +-(alpha+beta) and +-(alpha-beta). A real factor contributes
    angle 0 (or pi when negative).
    """
    angles = []
    for q in (u, v):
        n = q.modulus()
        if n == 0.0:
            raise ValueError("rotation factors must be nonzero quaternions")
        try:
            _, _, theta = euler_form(q / n)
        except ValueError:
            theta = 0.0 if q.a > 0 else np.pi
        angles.append(theta)
    return angles[0], angles[1]
