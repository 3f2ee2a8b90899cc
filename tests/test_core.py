import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quatprop import (ATOL, ONE, I, J, K, CovarianceR, PureUnit, Quaternion,
                      QuaternionBasis, STANDARD_BASIS, cayley_dickson,
                      convert, euler_form, validate_basis)
from quatprop.rotations import left_matrix

from support import rand_basis, rand_quaternion

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)
quats = st.builds(Quaternion, finite, finite, finite, finite)

vec3 = st.tuples(finite, finite, finite).filter(
    lambda t: 0.01 < t[0] ** 2 + t[1] ** 2 + t[2] ** 2 < 500)
axes = vec3.map(lambda t: PureUnit(*t))


@st.composite
def bases(draw):
    v1 = np.array(draw(vec3))
    v2 = np.array(draw(vec3))
    u1 = v1 / np.linalg.norm(v1)
    w = v2 - (v2 @ u1) * u1
    assume(np.linalg.norm(w) > 0.1)
    return validate_basis(PureUnit(*u1), PureUnit(*w))


def test_defining_relations():
    minus_one = Quaternion(-1, 0, 0, 0)
    assert I * I == minus_one
    assert J * J == minus_one
    assert K * K == minus_one
    assert I * J == K
    assert J * K == I
    assert K * I == J
    assert I * J * K == minus_one
    assert J * I == -K


def test_product_expansion():
    p = Quaternion(1, 1, 0, 0)
    q = Quaternion(1, 0, 1, 0)
    assert p * q == Quaternion(1, 1, 1, 1)
    assert q * p == Quaternion(1, 1, 1, -1)  # non-commutative


def test_product_matches_left_matrix_oracle():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        p, q = rand_quaternion(rng), rand_quaternion(rng)
        direct = (p * q).to_vec()
        via_matrix = left_matrix(p) @ q.to_vec()
        assert np.max(np.abs(direct - via_matrix)) <= ATOL


def test_conj_modulus_inverse():
    q = Quaternion(1, 1, 1, 1)
    assert q.conj() == Quaternion(1, -1, -1, -1)
    assert q.modulus() == 2.0
    assert I.inverse() == -I


def test_from_vec_rejects_a_vector_of_the_wrong_length():
    with pytest.raises(ValueError, match=re.escape(
            "expected a length-4 component vector, got shape (3,)")):
        Quaternion.from_vec([1, 2, 3])


def test_scalar_products_and_quotients():
    q = Quaternion(1, -2, 3, 0.5)
    assert 2 * q == q * 2 == Quaternion(2, -4, 6, 1)
    assert q / 2 == Quaternion(0.5, -1, 1.5, 0.25)
    for bad in (lambda: q * "x", lambda: q / "x", lambda: None * q):
        with pytest.raises(TypeError):
            bad()


def test_equality_is_componentwise_across_subclasses():
    assert (Quaternion(1, 0, 0, 0) == 1) is False
    axis, plain = PureUnit(1, 0, 0), Quaternion(0, 1, 0, 0)
    assert axis == plain and hash(axis) == hash(plain)
    assert len({axis, plain}) == 1


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Quaternion(0, 0, 0, 0).inverse()


@given(quats)
def test_inverse_is_right_and_left_inverse(q):
    assume(q.modulus() > 1e-3)
    assert (q * q.inverse()).isclose(ONE)
    assert (q.inverse() * q).isclose(ONE)


@given(quats)
def test_conj_is_involutive(q):
    assert q.conj().conj() == q


def test_involution_about_i_flips_j_and_k():
    q = Quaternion(1.5, -2.0, 3.25, 0.5)
    assert q.involution(I).isclose(Quaternion(1.5, -2.0, -3.25, -0.5))


@given(quats, axes)
def test_involution_twice_is_identity(q, mu):
    assert q.involution(mu).involution(mu).isclose(q, tol=ATOL * max(1.0, q.modulus()))


@given(quats, quats, axes)
def test_involution_distributes_over_products(p, q, mu):
    left = (p * q).involution(mu)
    right = p.involution(mu) * q.involution(mu)
    scale = max(1.0, p.modulus() * q.modulus())
    assert left.isclose(right, tol=ATOL * scale)


@given(quats, bases())
def test_involution_composition_is_product_axis(q, basis):
    two_step = q.involution(basis.mu1).involution(basis.mu2)
    one_step = q.involution(basis.mu1 * basis.mu2)
    assert two_step.isclose(one_step, tol=ATOL * max(1.0, q.modulus()))


@given(quats, axes)
def test_involution_commutes_with_conj(q, mu):
    assert q.involution(mu).conj().isclose(q.conj().involution(mu),
                                           tol=ATOL * max(1.0, q.modulus()))


@given(quats, axes)
def test_involution_preserves_modulus(q, mu):
    assert abs(q.involution(mu).modulus() - q.modulus()) <= ATOL * max(1.0, q.modulus())


# --- polar form -----------------------------------------------------------

def test_euler_form_examples():
    m, axis, angle = euler_form(Quaternion(0, 1, 0, 0))
    assert m == 1.0 and axis == I and abs(angle - math.pi / 2) <= ATOL
    m, axis, angle = euler_form(Quaternion(1, 1, 0, 0))
    assert abs(m - math.sqrt(2)) <= ATOL and axis == I
    assert abs(angle - math.pi / 4) <= ATOL


def test_euler_form_round_trip():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        q = rand_quaternion(rng)
        if q.vector_part.modulus() < 1e-6:
            continue
        m, axis, angle = euler_form(q)
        assert 0.0 <= angle <= math.pi
        back = (ONE * math.cos(angle) + axis * math.sin(angle)) * m
        assert back.isclose(q, tol=1e-12 * max(1.0, q.modulus()))


def test_euler_form_rejects_real_input():
    with pytest.raises(ValueError):
        euler_form(Quaternion(3.0, 0, 0, 0))
    with pytest.raises(ValueError):
        euler_form(Quaternion(-1.0, 1e-12, 0, 0))


# --- Cayley-Dickson -------------------------------------------------------

def test_cayley_dickson_standard_basis():
    q = Quaternion(1, 2, 3, 4)
    pair = cayley_dickson(q)
    assert pair.z1 == complex(1, 2) and pair.z2 == complex(3, 4)
    assert pair.recompose() == q


def test_cayley_dickson_of_one():
    pair = cayley_dickson(ONE, validate_basis(J, K))
    assert pair.z1 == 1 and pair.z2 == 0


def test_cayley_dickson_jk_basis():
    # basis {1, j, k, jk=i}: projections pick (a, c) and (d, b)
    basis = validate_basis(J, K)
    pair = cayley_dickson(Quaternion(1, 2, 3, 4), basis)
    assert pair.z1 == complex(1, 3)
    assert pair.z2 == complex(4, 2)
    assert pair.recompose().isclose(Quaternion(1, 2, 3, 4))


def test_cayley_dickson_round_trip_random_bases():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        basis = rand_basis(rng)
        q = rand_quaternion(rng)
        assert cayley_dickson(q, basis).recompose().isclose(
            q, tol=1e-12 * max(1.0, q.modulus()))


def test_recomposition_matches_z1_plus_z2_mu2():
    rng = np.random.default_rng(14)
    for _ in range(100):
        basis = rand_basis(rng)
        q = rand_quaternion(rng)
        pair = cayley_dickson(q, basis)
        z1 = ONE * pair.z1.real + basis.mu1 * pair.z1.imag
        z2 = ONE * pair.z2.real + basis.mu1 * pair.z2.imag
        assert (z1 + z2 * basis.mu2).isclose(q, tol=1e-12 * max(1.0, q.modulus()))


# --- basis validation -----------------------------------------------------

def test_validate_basis_standard():
    basis = validate_basis(I, J)
    assert basis.mu3 == K


def test_validate_basis_rejects_parallel_axes():
    with pytest.raises(ValueError, match="orthogonal"):
        validate_basis(I, I)


def test_validate_basis_distinct_errors():
    with pytest.raises(ValueError, match="not pure"):
        validate_basis(Quaternion(0.5, 1, 0, 0), J)
    with pytest.raises(ValueError, match="not unit"):
        validate_basis(Quaternion(0, 2, 0, 0), J)


def test_validate_basis_tilted_pair():
    s = 1 / math.sqrt(2)
    basis = validate_basis(PureUnit(s, s, 0), PureUnit(s, -s, 0))
    # ((i+j)/sqrt2)((i-j)/sqrt2) = -k
    assert basis.mu3.isclose(-K)


@settings(max_examples=60, deadline=None)
@given(axes, vec3, st.floats(min_value=1e-6, max_value=1.0),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_a_basis_checks_itself(mu, v, off, seed):
    # every basis built from an axis and the part of v orthogonal to it
    # holds the face maps: S goes real -> complex -> real and
    # real -> quaternion -> real within 1e-12 of its trace
    u = mu.axis_vec()
    w = np.array(v) - (np.array(v) @ u) * u
    assume(np.linalg.norm(w) > 0.1)
    w /= np.linalg.norm(w)
    nu = PureUnit(*w)
    basis = QuaternionBasis(mu, nu)
    a = np.random.default_rng(seed).normal(size=(4, 4))
    s = a @ a.T + 0.1 * np.eye(4)
    for face in ("complex", "quaternion"):
        back = convert(convert(CovarianceR(s, basis), face), "real").matrix
        assert np.abs(back - s).max() <= 1e-12 * np.trace(s), face
    # a parallel, tilted, non-pure or non-unit pair is refused with the
    # message of its first failed check; validate_basis names the same
    # constructor
    assert validate_basis is QuaternionBasis
    tilted = PureUnit(*(w + off * u))
    not_pure = Quaternion(off, *w)
    not_unit = Quaternion(0.0, *(u * (1.0 + off)))
    orthogonal = "axes are not orthogonal: Re(mu1*mu2) = {:.3e}"
    for mu1, mu2, message in [
            (mu, mu, orthogonal.format((mu * mu).a)),
            (mu, -mu, orthogonal.format((mu * -mu).a)),
            (mu, tilted, orthogonal.format((mu * tilted).a)),
            (mu, not_pure, f"mu2 is not pure: scalar part {off:.3e}"),
            (not_pure, mu, f"mu1 is not pure: scalar part {off:.3e}"),
            (not_unit, nu, f"mu1 is not unit: modulus {not_unit.modulus():.17g}"),
            (nu, not_unit, f"mu2 is not unit: modulus {not_unit.modulus():.17g}")]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            QuaternionBasis(mu1, mu2)


def test_pure_unit_normalises_and_rejects_tiny():
    mu = PureUnit(0, 3, 4)
    assert abs(mu.modulus() - 1.0) <= ATOL
    assert mu.a == 0.0
    with pytest.raises(ValueError):
        PureUnit(1e-10, 0, 0)


def test_pure_unit_rejects_non_finite_norm():
    # a nan or inf component, or a finite one whose square overflows
    for x in (math.nan, math.inf, -math.inf, 1e200):
        with pytest.raises(ValueError, match="is not finite"):
            PureUnit(x, 0, 0)
    with pytest.raises(ValueError, match="is not finite"):
        validate_basis(Quaternion(0, math.nan, 0, 0), J)


def test_basis_coords_round_trip():
    rng = np.random.default_rng(15)
    for _ in range(100):
        basis = rand_basis(rng)
        q = rand_quaternion(rng)
        assert basis.from_coords(basis.to_coords(q)).isclose(
            q, tol=1e-12 * max(1.0, q.modulus()))
