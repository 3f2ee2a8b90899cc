"""Exact quaternion arithmetic, involutions and Cayley-Dickson splitting
over an arbitrary orthonormal basis of the quaternion algebra.

Components are always stored in the standard basis {1, i, j, k}. Frames other
than the standard one only enter through :class:`QuaternionBasis`, which every
frame-dependent operation takes explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .qarray import hamilton

# Algebraic identities in double precision hold to this tolerance.
ATOL = 1e-12

# Vectors shorter than this cannot be normalised into a trustworthy axis.
MIN_AXIS_NORM = 1e-9


@dataclass(frozen=True, eq=False, slots=True)
class Quaternion:
    """A quaternion a + b*i + c*j + d*k with real components."""

    a: float
    b: float
    c: float
    d: float

    def __init__(self, a: float, b: float, c: float, d: float):
        # each field of the frozen instance set once, as a float (the
        # generated __init__ plus a __post_init__ would set each twice)
        set_field = object.__setattr__
        set_field(self, "a", float(a))
        set_field(self, "b", float(b))
        set_field(self, "c", float(c))
        set_field(self, "d", float(d))

    @classmethod
    def from_vec(cls, v) -> "Quaternion":
        v = np.asarray(v, dtype=float)
        if v.shape != (4,):
            raise ValueError(f"expected a length-4 component vector, got shape {v.shape}")
        return cls(v[0], v[1], v[2], v[3])

    def to_vec(self) -> np.ndarray:
        """Component vector (a, b, c, d)."""
        return np.array([self.a, self.b, self.c, self.d])

    @property
    def vector_part(self) -> "Quaternion":
        return Quaternion(0.0, self.b, self.c, self.d)

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.a + other.a, self.b + other.b,
                          self.c + other.c, self.d + other.d)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.a - other.a, self.b - other.b,
                          self.c - other.c, self.d - other.d)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(*hamilton(self.a, self.b, self.c, self.d,
                                        other.a, other.b, other.c, other.d))
        if isinstance(other, (int, float)):
            f = float(other)
            return Quaternion(self.a * f, self.b * f, self.c * f, self.d * f)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self.__mul__(other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            f = float(other)
            return Quaternion(self.a / f, self.b / f, self.c / f, self.d / f)
        return NotImplemented

    def conj(self) -> "Quaternion":
        return Quaternion(self.a, -self.b, -self.c, -self.d)

    def modulus2(self) -> float:
        return self.a * self.a + self.b * self.b + self.c * self.c + self.d * self.d

    def modulus(self) -> float:
        return math.sqrt(self.modulus2())

    __abs__ = modulus

    def inverse(self) -> "Quaternion":
        n2 = self.modulus2()
        if n2 == 0.0:
            raise ZeroDivisionError("the zero quaternion has no inverse")
        return self.conj() / n2

    def involution(self, mu: "Quaternion") -> "Quaternion":
        """Self-inverse map q -> -mu*q*mu for a pure unit axis mu.

        Geometrically this rotates the vector part by pi about the axis.
        """
        return -(mu * self * mu)

    def isclose(self, other: "Quaternion", tol: float = ATOL) -> bool:
        return (self - other).modulus() <= tol

    # componentwise equality across subclasses (an axis equals the plain
    # quaternion with the same components)
    def __eq__(self, other):
        if isinstance(other, Quaternion):
            return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self) -> str:
        return f"Quaternion({self.a:g}, {self.b:g}, {self.c:g}, {self.d:g})"


class PureUnit(Quaternion):
    """A quaternion with zero scalar part and unit modulus, used as an axis.

    Construction normalises the given 3-vector and rejects vectors too short
    to define a direction reliably, or whose norm is not finite (a nan or
    inf component, or one so large that the norm overflows).
    """

    __slots__ = ()

    def __init__(self, x: float, y: float, z: float):
        n = math.sqrt(x * x + y * y + z * z)
        if not math.isfinite(n):
            raise ValueError(f"axis vector norm {n:.3e} is not finite; "
                             "no trustworthy direction")
        if n < MIN_AXIS_NORM:
            raise ValueError(f"axis vector norm {n:.3e} is below {MIN_AXIS_NORM:.0e}; "
                             "no trustworthy direction")
        super().__init__(0.0, x / n, y / n, z / n)

    def axis_vec(self) -> np.ndarray:
        """The axis as a 3-vector."""
        return np.array([self.b, self.c, self.d])


ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = PureUnit(1.0, 0.0, 0.0)
J = PureUnit(0.0, 1.0, 0.0)
K = PureUnit(0.0, 0.0, 1.0)


@dataclass(frozen=True)
class QuaternionBasis:
    """An orthonormal basis {1, mu1, mu2, mu3 = mu1*mu2} of the quaternions,
    built only as QuaternionBasis(mu1, mu2), also named validate_basis: each
    axis must be pure and unit and the two orthogonal, all within ATOL, or
    ValueError names the first check failed. The axes are kept normalised."""

    mu1: PureUnit
    mu2: PureUnit
    mu3: PureUnit = field(init=False)

    def __post_init__(self):
        for name, mu in (("mu1", self.mu1), ("mu2", self.mu2)):
            if abs(mu.a) > ATOL:
                raise ValueError(f"{name} is not pure: scalar part {mu.a:.3e}")
            if abs(mu.modulus() - 1.0) > ATOL:
                raise ValueError(f"{name} is not unit: modulus {mu.modulus():.17g}")
        if abs(dot := (self.mu1 * self.mu2).a) > ATOL:
            raise ValueError(f"axes are not orthogonal: Re(mu1*mu2) = {dot:.3e}")

        def keep(name, q):  # field name set to q's vector part, normalised
            object.__setattr__(self, name, PureUnit(q.b, q.c, q.d))
        keep("mu1", self.mu1)
        keep("mu2", self.mu2)
        keep("mu3", self.mu1 * self.mu2)

    @property
    def axes(self):
        return (self.mu1, self.mu2, self.mu3)

    @cached_property
    def frame(self) -> np.ndarray:
        """4x4 orthogonal matrix whose columns are vec(1), vec(mu1..3)."""
        return np.column_stack([ONE.to_vec(), self.mu1.to_vec(),
                                self.mu2.to_vec(), self.mu3.to_vec()])

    def to_coords(self, q: Quaternion) -> np.ndarray:
        """Coordinates of q in this frame (real, mu1, mu2, mu3 parts)."""
        return self.frame.T @ q.to_vec()

    def from_coords(self, coords) -> Quaternion:
        return Quaternion.from_vec(self.frame @ np.asarray(coords, dtype=float))


validate_basis = QuaternionBasis


STANDARD_BASIS = validate_basis(I, J)


def euler_form(q: Quaternion):
    """Polar decomposition q = |q| (cos(theta) + mu sin(theta)).

    Returns (modulus, axis, angle) with angle in [0, pi]. A quaternion with
    (numerically) no vector part has no defined axis and raises ValueError.
    """
    vnorm = math.sqrt(q.b * q.b + q.c * q.c + q.d * q.d)
    if vnorm < MIN_AXIS_NORM:
        raise ValueError("axis undefined: quaternion is (numerically) real")
    axis = PureUnit(q.b, q.c, q.d)
    angle = math.atan2(vnorm, q.a)
    return q.modulus(), axis, angle


@dataclass(frozen=True)
class ComplexPair:
    """The Cayley-Dickson split q = z1 + z2*mu2 with z1, z2 in the complex
    subfield spanned by {1, mu1}."""

    z1: complex
    z2: complex
    basis: QuaternionBasis

    def recompose(self) -> Quaternion:
        return self.basis.from_coords([self.z1.real, self.z1.imag,
                                       self.z2.real, self.z2.imag])


def cayley_dickson(q: Quaternion, basis: QuaternionBasis = STANDARD_BASIS) -> ComplexPair:
    """Split q into its Cayley-Dickson pair relative to `basis`."""
    c = basis.to_coords(q)
    return ComplexPair(complex(c[0], c[1]), complex(c[2], c[3]), basis)
