import numpy as np
import pytest

from quatprop import (ATOL, ONE, I, J, K, DoubleRotation, Quaternion,
                      double_rotation, euler_form, is_so4, isoclinic_angles,
                      left_matrix, right_matrix)
from quatprop.qarray import ROW_BLOCK, hamilton, row_blocks
from quatprop.rotations import unit_factor

from support import rand_quaternion, rand_unit


def test_left_matrix_of_one_is_identity():
    assert np.array_equal(left_matrix(ONE), np.eye(4))
    assert np.array_equal(right_matrix(ONE), np.eye(4))


def test_left_matrix_of_i_layout():
    expected = np.array([
        [0, -1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, -1],
        [0, 0, 1, 0],
    ])
    assert np.array_equal(left_matrix(I), expected)
    assert np.array_equal(left_matrix(I)[:, 0], [0, 1, 0, 0])


def test_right_matrix_of_j_on_i():
    assert np.array_equal(right_matrix(J) @ I.to_vec(), K.to_vec())


def test_matrices_match_direct_products():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        q, p = rand_quaternion(rng), rand_quaternion(rng)
        assert np.max(np.abs(left_matrix(q) @ p.to_vec() - (q * p).to_vec())) <= ATOL
        assert np.max(np.abs(right_matrix(q) @ p.to_vec() - (p * q).to_vec())) <= ATOL


def test_left_matrix_is_homomorphism_right_reverses():
    rng = np.random.default_rng(22)
    for _ in range(200):
        p, q = rand_quaternion(rng), rand_quaternion(rng)
        assert np.allclose(left_matrix(p * q), left_matrix(p) @ left_matrix(q),
                           atol=1e-12 * max(1.0, p.modulus() * q.modulus()))
        assert np.allclose(right_matrix(p * q), right_matrix(q) @ right_matrix(p),
                           atol=1e-12 * max(1.0, p.modulus() * q.modulus()))


def test_left_right_matrices_commute():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        u, v = rand_quaternion(rng), rand_quaternion(rng)
        lu, rv = left_matrix(u), right_matrix(v)
        scale = max(1.0, u.modulus() * v.modulus())
        assert np.max(np.abs(lu @ rv - rv @ lu)) <= ATOL * scale


def test_double_rotation_identity():
    dr = double_rotation(ONE, ONE)
    assert np.allclose(dr.matrix, np.eye(4), atol=ATOL)


def test_double_rotation_matches_direct_product():
    rng = np.random.default_rng(24)
    dr = double_rotation(I, J)
    for _ in range(200):
        q = rand_quaternion(rng)
        assert np.max(np.abs(dr.matrix @ q.to_vec() - (I * q * J).to_vec())) <= \
            ATOL * max(1.0, q.modulus())


def test_double_rotation_rejects_zero():
    with pytest.raises(ValueError):
        double_rotation(Quaternion(0, 0, 0, 0), ONE)


def test_double_rotation_renormalises():
    dr = double_rotation(Quaternion(2, 0, 0, 0), Quaternion(0, 0, 3, 0))
    assert abs(dr.u.modulus() - 1.0) <= ATOL
    assert abs(dr.v.modulus() - 1.0) <= ATOL


def test_double_rotation_refuses_factors_that_are_not_unit():
    two = Quaternion(2.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="factor u must be a unit quaternion"):
        DoubleRotation(two, ONE)
    with pytest.raises(ValueError, match="factor v must be a unit quaternion"):
        DoubleRotation(ONE, Quaternion(0.0, 1.0 + 1e-11, 0.0, 0.0))
    with pytest.raises(ValueError, match="modulus nan"):
        DoubleRotation(ONE, Quaternion(np.nan, 0.0, 0.0, 0.0))
    # within ATOL of 1, the factor is kept as given
    near = Quaternion(0.0, 0.0, 1.0 + 1e-13, 0.0)
    assert DoubleRotation(near, ONE).u is near


def test_double_rotation_matrix_is_its_normalised_factors_product():
    # the factor check changes no bit of the matrix double_rotation builds
    rng = np.random.default_rng(28)
    for scale in (1e-100, 1e-3, 1.0, 7.5, 1e100):
        for _ in range(50):
            u, v = rand_quaternion(rng, scale), rand_quaternion(rng, scale)
            expected = (left_matrix((u / u.modulus()).to_vec())
                        @ right_matrix((v / v.modulus()).to_vec()))
            assert double_rotation(u, v).matrix.tobytes() == expected.tobytes()


def test_double_rotation_composition_law():
    rng = np.random.default_rng(25)
    for _ in range(200):
        u1, v1 = rand_unit(rng), rand_unit(rng)
        u2, v2 = rand_unit(rng), rand_unit(rng)
        lhs = double_rotation(u2, v2).matrix @ double_rotation(u1, v1).matrix
        rhs = double_rotation(u2 * u1, v1 * v2).matrix
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_double_rotation_preserves_modulus():
    rng = np.random.default_rng(26)
    for _ in range(200):
        dr = double_rotation(rand_unit(rng), rand_unit(rng))
        q = rand_quaternion(rng)
        rotated = dr.apply(q)
        assert abs(rotated.modulus() - q.modulus()) <= ATOL * max(1.0, q.modulus())


def test_is_so4_identity_and_reflection():
    ok, orth, det = is_so4(np.eye(4))
    assert ok and orth == 0.0 and det == 0.0
    ok, _, det = is_so4(np.diag([1.0, 1.0, 1.0, -1.0]))
    assert not ok and abs(det - (-2.0)) <= ATOL


def test_double_rotations_are_rotations():
    rng = np.random.default_rng(27)
    for _ in range(1000):
        dr = double_rotation(rand_unit(rng), rand_unit(rng))
        check = is_so4(dr.matrix)
        assert check.is_rotation, check


def test_isoclinic_angles_trivial_cases():
    assert isoclinic_angles(ONE, ONE) == (0.0, 0.0)
    u = ONE * np.cos(np.pi / 3) + I * np.sin(np.pi / 3)
    alpha, beta = isoclinic_angles(u, ONE)
    assert abs(alpha - np.pi / 3) <= ATOL and beta == 0.0
    alpha, _ = isoclinic_angles(-ONE, ONE)
    assert abs(alpha - np.pi) <= ATOL


def test_isoclinic_angles_reject_a_zero_factor():
    zero = Quaternion(0.0, 0.0, 0.0, 0.0)
    for u, v in ((zero, ONE), (ONE, zero), (zero, zero)):
        with pytest.raises(ValueError, match="nonzero"):
            isoclinic_angles(u, v)


def _match_angle_multisets(got, expected, tol=1e-9):
    """Match two unordered sets of angles on the circle."""
    got = list(got)
    for e in expected:
        dists = [abs(np.exp(1j * g) - np.exp(1j * e)) for g in got]
        idx = int(np.argmin(dists))
        if dists[idx] > tol:
            return False
        got.pop(idx)
    return not got


def test_isoclinic_angles_match_eigenvalue_arguments():
    rng = np.random.default_rng(28)
    for _ in range(200):
        u, v = rand_unit(rng), rand_unit(rng)
        alpha, beta = isoclinic_angles(u, v)
        eig_args = np.angle(np.linalg.eigvals(double_rotation(u, v).matrix))
        expected = [alpha + beta, -(alpha + beta), alpha - beta, -(alpha - beta)]
        assert _match_angle_multisets(eig_args, expected, tol=1e-7)


def test_angles_come_from_euler_forms():
    rng = np.random.default_rng(29)
    for _ in range(100):
        u, v = rand_unit(rng), rand_unit(rng)
        alpha, beta = isoclinic_angles(u, v)
        if u.vector_part.modulus() > 1e-6:
            assert abs(alpha - euler_form(u)[2]) <= ATOL
        if v.vector_part.modulus() > 1e-6:
            assert abs(beta - euler_form(v)[2]) <= ATOL


# --- stacked multiplication and rotation matrices ------------------------------

def test_stacked_matrices_hold_the_products_with_each_unit():
    # column j of L(q) is q*e_j and of R(q) is e_j*q, bit for bit, for
    # every row of a stack, and a one-row stack is left_matrix/right_matrix
    rng = np.random.default_rng(25)
    qs = [rand_quaternion(rng) for _ in range(50)]
    units = [ONE, I, J, K]
    lefts = left_matrix([q.to_vec() for q in qs])
    rights = right_matrix([q.to_vec() for q in qs])
    assert lefts.shape == rights.shape == (50, 4, 4)
    for q, lq, rq in zip(qs, lefts, rights):
        for j, e in enumerate(units):
            assert np.array_equal(lq[:, j], (q * e).to_vec())
            assert np.array_equal(rq[:, j], (e * q).to_vec())
        assert np.array_equal(lq, left_matrix(q))
        assert np.array_equal(rq, right_matrix(q))


def test_rotation_matrices_stack_double_rotation_matrices():
    rng = np.random.default_rng(26)
    us = [rand_quaternion(rng) for _ in range(30)]
    vs = [rand_quaternion(rng) for _ in range(30)]
    m = (left_matrix([unit_factor(u).to_vec() for u in us])
         @ right_matrix([unit_factor(v).to_vec() for v in vs]))
    assert m.shape == (30, 4, 4)
    for mi, u, v in zip(m, us, vs):
        assert np.array_equal(mi, double_rotation(u, v).matrix)


def test_unit_factor_is_double_rotations_normalisation():
    rng = np.random.default_rng(27)
    for _ in range(100):
        u, v = rand_quaternion(rng), rand_quaternion(rng)
        dr = double_rotation(u, v)
        assert np.array_equal(dr.u.to_vec(), unit_factor(u).to_vec())
        assert np.array_equal(dr.v.to_vec(), unit_factor(v).to_vec())
    assert np.array_equal(unit_factor(ONE).to_vec(), ONE.to_vec())
    with pytest.raises(ValueError, match="nonzero"):
        unit_factor(Quaternion(0.0, 0.0, 0.0, 0.0))


def test_rotation_factor_modulus_must_be_positive_and_finite():
    # each of these made a zero or nan unit factor, or angles (0, 0)
    huge = Quaternion(1e200, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="modulus 1.000e\\+200"):
        double_rotation(huge, ONE)
    with pytest.raises(ValueError, match="modulus nan"):
        double_rotation(ONE, Quaternion(np.nan, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="modulus inf"):
        unit_factor(Quaternion(0.0, np.inf, 0.0, 0.0))
    with pytest.raises(ValueError, match="modulus 1.414e\\+200"):
        isoclinic_angles(Quaternion(1e200, 1e200, 0.0, 0.0), ONE)
    # nonzero, but |q|^2 underflows to 0
    with pytest.raises(ValueError, match="modulus 1.000e-200"):
        unit_factor(Quaternion(1e-200, 0.0, 0.0, 0.0))


def _per_element(q, side):
    # column j is q*e_j (left) or e_j*q (right), one Quaternion product each
    units = (ONE, I, J, K)
    return np.column_stack([(q * e if side == "left" else e * q).to_vec()
                            for e in units])


@pytest.mark.parametrize("shape", [(4,), (5, 4), (2, 3, 4)])
def test_matrix_builders_take_quaternions_and_stacks_alike(shape):
    rng = np.random.default_rng(30)
    x = rng.normal(size=shape)
    for build, side in ((left_matrix, "left"), (right_matrix, "right")):
        m = build(x)
        assert m.shape == shape[:-1] + (4, 4)
        for idx in np.ndindex(shape[:-1]):
            q = Quaternion.from_vec(x[idx])
            want = _per_element(q, side).tobytes()
            assert m[idx].tobytes() == build(q).tobytes() == want, (side, idx)


# --- the matrix builders and apply_rows keep the bits of their stacked-hamilton
# forms (one np.stack of hamilton's four components per product)

def _stacked_hamilton(p, q):
    return np.stack(hamilton(*np.moveaxis(p, -1, 0), *np.moveaxis(q, -1, 0)),
                    axis=-1)


def test_matrix_builders_and_apply_rows_keep_stacked_hamilton_bits():
    rng = np.random.default_rng(2023)
    q = rng.normal(size=(15, 4))
    for got, want in ((left_matrix(q), _stacked_hamilton(q[:, None, :], np.eye(4))),
                      (right_matrix(q), _stacked_hamilton(np.eye(4), q[:, None, :]))):
        want = np.swapaxes(want, -1, -2)
        assert got.tobytes() == want.tobytes() and got.strides == want.strides
    rotation = double_rotation(rand_quaternion(rng), rand_quaternion(rng))
    u, v = rotation.u.to_vec(), rotation.v.to_vec()
    left = np.swapaxes(_stacked_hamilton(u[None, :], np.eye(4)), -1, -2)
    right = np.swapaxes(_stacked_hamilton(np.eye(4), v[None, :]), -1, -2)
    assert rotation.matrix.tobytes() == (left @ right).tobytes()
    rows = rng.normal(size=(3 * ROW_BLOCK + 5, 4))
    want = np.concatenate([_stacked_hamilton(u, _stacked_hamilton(rows[span], v))
                           for span in row_blocks(rows.shape[0])])
    assert rotation.apply_rows(rows).tobytes() == want.tobytes()
