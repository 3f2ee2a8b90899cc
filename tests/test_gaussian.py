import cmath
import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quatprop import (ONE, I, J, K, CovarianceC, CovarianceH, CovarianceR,
                      GeneralParams, HProperParams, MuMuParams, MuOneParams,
                      MuSameParams, OneMuParams, Quaternion, STANDARD_BASIS,
                      convert, covariance_from_params, double_rotation,
                      gaussian_pdf, pdf_1mu_proper, read_sample_csv, sample,
                      validate_basis, write_sample_csv)
from quatprop import (PureUnit, complementary_covariances, covariance_faces,
                      gaussian, symmetry_residual)
from quatprop.gaussian import (SampleSet, quaternion_face_from_gammas,
                               quaternion_face_map, write_column_csvs)

from support import (EDGE_DOUBLES as _EDGE_DOUBLES, REFERENCE_CLASS_FLAGS,
                     all_class_params,
                     complex_to_quaternion_reference,
                     convert_reference, cov_r_from_pair_moments,
                     defining_rotations, expected_complex_face, faces_reference,
                     gaussian_pdf_reference, general_params,
                     log_density_reference,
                     quaternion_face_map_reference,
                     quaternion_to_real_unchecked, rand_basis,
                     rand_quaternion, read_sample_csv_reference,
                     real_to_quaternion_reference, write_sample_csv_reference)


# --- construction: printed complex-face patterns ---------------------------

@pytest.mark.parametrize("tag", ["hproper", "mumu", "muone", "onemu", "musame"])
def test_complex_face_matches_expected_pattern(tag):
    params = all_class_params()[tag]
    faces = covariance_from_params(params)
    expected = expected_complex_face(tag, params)
    assert np.max(np.abs(faces.c.matrix - expected)) <= 1e-12


def test_hproper_faces_closed_form():
    c, r, h = covariance_from_params(HProperParams(1.0))
    assert np.max(np.abs(h.matrix[:, :, 0] - np.eye(4))) <= 1e-12
    assert np.max(np.abs(h.matrix[:, :, 1:])) <= 1e-12
    assert np.max(np.abs(r.matrix - np.eye(4) / 4)) <= 1e-12
    assert np.max(np.abs(c.matrix - np.eye(4) / 2)) <= 1e-12


def test_mumu_with_zero_params_reduces_to_identity_complex_face():
    c, _, _ = covariance_from_params(MuMuParams(1.0, 0.0, 0.0))
    assert np.max(np.abs(c.matrix - np.eye(4))) <= 1e-12


def test_mumu_real_alpha_entries():
    c, _, _ = covariance_from_params(MuMuParams(1.0, 0.3, 0.2))
    g = c.matrix
    assert g[0, 1] == 0.3 and g[0, 3] == 0.3
    assert g[0, 2] == 0.2j
    assert g[2, 0] == -0.2j and g[1, 3] == -0.2j
    assert g[2, 3] == -0.3 and g[3, 2] == -0.3


def test_onemu_entries():
    c, _, _ = covariance_from_params(OneMuParams(1.0, 2.0, 0.5))
    g = c.matrix
    assert g[0, 3] == 0.5 and g[0, 1] == 0 and g[0, 2] == 0
    assert g[2, 2] == 2.0 and g[1, 2] == 0.5


def test_indefinite_params_rejected_with_eigenvalue():
    with pytest.raises(ValueError, match="eigenvalue"):
        covariance_from_params(MuMuParams(1.0, 0.9 + 0.4j, 0.3))


@pytest.mark.parametrize("seed", [None, 0, 1], ids=["standard", "rand0", "rand1"])
def test_each_class_builds_its_own_chart(seed):
    # the printed complex pattern, or for general the quaternion template,
    # and covariance_from_params keeps the chart's bits as that face
    basis = STANDARD_BASIS if seed is None else rand_basis(np.random.default_rng(seed))
    for tag, params in all_class_params(basis).items():
        c, _, h = faces_reference(params)
        want = h if tag == "general" else c
        chart = params.chart()
        assert type(chart) is type(want) and chart.basis is basis, tag
        assert np.max(np.abs(chart.matrix - want.matrix)) <= 1e-12, tag
        faces = covariance_from_params(params)
        built = faces.h if tag == "general" else faces.c
        assert built.matrix.tobytes() == chart.matrix.tobytes(), tag


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([MuOneParams, OneMuParams]),
       st.sampled_from([1.0, 1e4, 1e8]), st.integers(0, 2**32 - 1),
       st.floats(0.0, 2 * math.pi))
def test_boundary_params_build_and_sample_at_any_scale(cls, scale, seed, phi):
    # |omega|^2 = sigma2 varsigma2 is the semidefinite boundary; its
    # roundoff grows with the scale and is not indefiniteness. 1e-5 past the
    # boundary, the min eigenvalue is below -1e-6 scale and is refused
    rng = np.random.default_rng(seed)
    basis = rand_basis(rng)
    omega = math.sqrt(2.0) * scale * cmath.exp(1j * phi)
    faces = covariance_from_params(cls(scale, 2 * scale, omega, basis))
    assert np.isfinite(sample(faces.r, 50, seed).data).all()
    over = cls(scale, 2 * scale, omega * (1 + 1e-5), basis)
    c = expected_complex_face(cls.tag.value, over)
    g = convert_reference(CovarianceC(c, basis), "real").matrix
    assert np.linalg.eigvalsh(g).min() < -1e-6 * scale
    with pytest.raises(ValueError, match="^parameters give an indefinite "
                                         "covariance: min eigenvalue -"):
        covariance_from_params(over)
    # a covariance with eigenvalues scale * (-1e-6, 1, 2, 3) in a random frame
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    g = q @ np.diag(scale * np.array([-1e-6, 1.0, 2.0, 3.0])) @ q.T
    with pytest.raises(ValueError, match="^covariance is indefinite: min "
                                         "eigenvalue -"):
        sample(CovarianceR(g), 10, seed)


def test_general_params_reject_structural_violation():
    with pytest.raises(ValueError, match="gamma1"):
        GeneralParams(1.0, Quaternion(0.1, 0.2, 0, 0),
                      Quaternion(0, 0, 0, 0), Quaternion(0, 0, 0, 0))


# --- construction oracle: real face from pair moments ----------------------

@pytest.mark.parametrize("tag", ["hproper", "mumu", "muone", "onemu", "musame"])
def test_real_face_matches_pair_moment_oracle(tag):
    rng = np.random.default_rng(31)
    for _ in range(20):
        basis = rand_basis(rng)
        params = all_class_params(basis)[tag]
        faces = covariance_from_params(params)
        if tag == "mumu":
            moments = (params.sigma2, params.sigma2, 1j * params.delta,
                       params.alpha, -params.alpha, params.alpha)
        elif tag == "muone":
            moments = (params.sigma2, params.varsigma2, params.omega, 0, 0, 0)
        elif tag == "onemu":
            moments = (params.sigma2, params.varsigma2, 0, 0, 0, params.omega)
        elif tag == "musame":
            moments = (params.sigma2, params.varsigma2, 0,
                       params.alpha, params.delta, 0)
        else:
            moments = (params.sigma2 / 2, params.sigma2 / 2, 0, 0, 0, 0)
        oracle = cov_r_from_pair_moments(*moments, basis=basis)
        assert np.max(np.abs(faces.r.matrix - oracle)) <= 1e-12


# --- face conversions -------------------------------------------------------

def _random_cov_r(rng, basis=STANDARD_BASIS):
    m = rng.normal(size=(4, 4))
    return CovarianceR(m @ m.T / 4 + np.eye(4) * 0.1, basis)


def test_round_trip_real_quaternion_complex():
    rng = np.random.default_rng(32)
    for _ in range(50):
        basis = rand_basis(rng)
        cov = _random_cov_r(rng, basis)
        gh = convert(cov, "quaternion")
        gc = convert(gh, "complex")
        back = convert(gc, "real")
        assert np.max(np.abs(back.matrix - cov.matrix)) <= 1e-12
        # and directly real -> complex -> real
        back2 = convert(convert(cov, "complex"), "real")
        assert np.max(np.abs(back2.matrix - cov.matrix)) <= 1e-12


def test_identity_quaternion_face_converts_to_half_identity_complex():
    gh = quaternion_face_from_gammas(1.0, *(Quaternion(0, 0, 0, 0),) * 3,
                                     basis=STANDARD_BASIS)
    gc = convert(gh, "complex")
    assert np.max(np.abs(gc.matrix - np.eye(4) / 2)) <= 1e-12
    gr = convert(gh, "real")
    assert np.max(np.abs(gr.matrix - np.eye(4) / 4)) <= 1e-12


def test_quarter_identity_real_face_converts_to_identity_quaternion():
    gh = convert(CovarianceR(np.eye(4) / 4), "quaternion")
    assert np.max(np.abs(gh.matrix[:, :, 0] - np.eye(4))) <= 1e-12
    assert np.max(np.abs(gh.matrix[:, :, 1:])) <= 1e-12


def test_quaternion_face_template_matches_conversion():
    # the involution identities behind the template hold sample-wise, so the
    # assembled face must equal the converted one exactly
    rng = np.random.default_rng(33)
    for _ in range(20):
        basis = rand_basis(rng)
        cov = _random_cov_r(rng, basis)
        gh = convert(cov, "quaternion")
        g1, g2, g3 = (gh.entry(0, 1), gh.entry(0, 2), gh.entry(0, 3))
        rebuilt = quaternion_face_from_gammas(gh.entry(0, 0).a, g1, g2, g3, basis)
        assert np.max(np.abs(rebuilt.matrix - gh.matrix)) <= 1e-12


def test_convert_refuses_an_unknown_face_and_a_non_face():
    cov = covariance_from_params(HProperParams(1.0)).r
    with pytest.raises(ValueError, match="^unknown face 'bogus'$"):
        convert(cov, "bogus")
    with pytest.raises(TypeError, match="^not a covariance face: ndarray$"):
        convert(np.eye(4), "real")


def test_convert_rejects_invalid_complex_face():
    # (2,2) must duplicate (1,1): both are E[|z1|^2]. Breaking that cannot
    # come from any real variable, and the conversion must notice.
    bad = np.diag([1.0, 2.0, 1.0, 1.0]).astype(complex)
    with pytest.raises(ValueError):
        convert(CovarianceC(bad, STANDARD_BASIS), "real")


FACES = ("real", "complex", "quaternion")


def _reference_faces(rng, basis):
    r = _random_cov_r(rng, basis)
    return {"real": r, "complex": convert_reference(r, "complex"),
            "quaternion": convert_reference(r, "quaternion")}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_convert_matches_quaternion_matrix_reference(seed):
    rng = np.random.default_rng(seed)
    basis = rand_basis(rng)
    faces = _reference_faces(rng, basis)
    tol = 1e-12 * np.trace(faces["real"].matrix)
    for source in FACES:
        for to in FACES:
            if to != source:
                got = convert(faces[source], to)
                want = convert_reference(faces[source], to)
                assert type(got) is type(want)
                assert np.max(np.abs(got.matrix - want.matrix)) <= tol


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_covariance_from_params_matches_quaternion_matrix_reference(seed):
    basis = rand_basis(np.random.default_rng(seed))
    for params in all_class_params(basis).values():
        faces = covariance_from_params(params)
        want_c, want_r, want_h = faces_reference(params)
        tol = 1e-12 * np.trace(want_r.matrix)
        assert np.max(np.abs(faces.c.matrix - want_c.matrix)) <= tol
        assert np.max(np.abs(faces.r.matrix - want_r.matrix)) <= tol
        assert np.max(np.abs(faces.h.matrix - want_h.matrix)) <= tol


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["complex", "quaternion"]))
def test_face_off_its_subspace_is_rejected(seed, face):
    # the part of a random matrix that the reference route does not map to a
    # real matrix, scaled to 1e-6 of the face, must not pass as a covariance
    rng = np.random.default_rng(seed)
    basis = rand_basis(rng)
    valid = _reference_faces(rng, basis)[face]
    if face == "complex":
        noise = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        y = quaternion_to_real_unchecked(
            complex_to_quaternion_reference(noise, basis), basis)
        on = convert_reference(CovarianceR(y[:, :, 0], basis), "complex").matrix
    else:
        noise = rng.normal(size=(4, 4, 4))
        y = quaternion_to_real_unchecked(noise, basis)
        on = real_to_quaternion_reference(y[:, :, 0], basis)
    off = noise - on
    scale = max(np.max(np.abs(convert_reference(valid, "real").matrix)), 1.0)
    bad = type(valid)(valid.matrix + 1e-6 * scale * off / np.max(np.abs(off)), basis)
    with pytest.raises(ValueError):
        convert_reference(bad, "real")
    with pytest.raises(ValueError, match=f"not a valid {face}-face covariance"):
        convert(bad, "real")


def test_invalid_face_raises_whichever_face_it_goes_to():
    # every conversion passes through the real face, so a complex face off
    # its subspace is rejected on the way to the quaternion face too, and a
    # quaternion face is rejected by the same check whatever the target
    bad_c = CovarianceC(np.diag([1.0, 2.0, 1.0, 1.0]).astype(complex), STANDARD_BASIS)
    with pytest.raises(ValueError, match="not a valid complex-face covariance"):
        convert(bad_c, "quaternion")
    bad_h = convert(CovarianceR(np.eye(4) / 4), "quaternion").matrix.copy()
    bad_h[0, 1, 2] += 0.1
    bad_h = CovarianceH(bad_h, STANDARD_BASIS)
    with pytest.raises(ValueError) as to_real:
        convert(bad_h, "real")
    with pytest.raises(ValueError) as to_complex:
        convert(bad_h, "complex")
    assert "not a valid quaternion-face covariance" in str(to_real.value)
    assert str(to_complex.value) == str(to_real.value)



@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("source, to", [(s, t) for s in FACES for t in FACES
                                        if s != t])
def test_convert_rejects_non_finite_face(source, to, bad):
    # NaN fails every comparison, so a residual bound alone lets it through
    valid = _reference_faces(np.random.default_rng(3), STANDARD_BASIS)[source]
    m = valid.matrix.copy()
    m[(0, 1) + (0,) * (m.ndim - 2)] = bad
    with pytest.raises(ValueError, match=f"not a valid {source}-face "
                                         r"covariance \(non-finite entry\)"):
        convert(type(valid)(m, STANDARD_BASIS), to)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("to", ["real", "complex"])
def test_convert_rejects_face_whose_real_face_overflows(to):
    # finite entries whose sum for S is beyond the largest float
    h = convert(CovarianceR(np.eye(4) / 4), "quaternion").matrix * 1.7e308
    with pytest.raises(ValueError, match="its real face overflows"):
        convert(CovarianceH(h, STANDARD_BASIS), to)


def test_quaternion_face_diagonal_is_total_variance():
    faces = covariance_from_params(all_class_params()["muone"])
    s2 = np.trace(faces.r.matrix)
    for idx in range(4):
        assert abs(faces.h.entry(idx, idx).a - s2) <= 1e-12


# --- symmetry structure -----------------------------------------------------

@pytest.mark.parametrize("tag", ["mumu", "muone", "onemu", "musame"])
def test_class_rotation_invariance_exact(tag):
    params = all_class_params()[tag]
    faces = covariance_from_params(params)
    for u, v in defining_rotations(tag, params.basis):
        m = double_rotation(u, v).matrix
        assert np.max(np.abs(m @ faces.r.matrix @ m.T - faces.r.matrix)) <= 1e-12


@pytest.mark.parametrize("seed", [None, 0, 1, 2], ids=["standard", "rand0",
                                                        "rand1", "rand2"])
def test_class_rotations_table_matches_chart(seed):
    basis = STANDARD_BASIS if seed is None else rand_basis(np.random.default_rng(seed))
    counts = {"mumu": 6, "musame": 3, "muone": 3, "onemu": 3,
              "hproper": 0, "general": 0}
    factors = (*basis.axes, ONE)
    for tag, params in all_class_params(basis).items():
        table = type(params).rotations
        assert len(table) == counts[tag] and len(set(table)) == len(table), tag
        assert all(0 <= i <= 3 for uv in table for i in uv), tag
        if not table:
            continue
        # entry 0 is the instance's own rotation, the one its chart fixes
        (want_u, want_v), = defining_rotations(tag, basis)
        u, v = (factors[i] for i in table[0])
        assert (u, v) == (want_u, want_v), tag
        r = covariance_from_params(params).r.matrix
        m = double_rotation(u, v).matrix
        assert np.max(np.abs(m @ r @ m.T - r)) <= 1e-12, tag


def test_hproper_invariant_under_any_rotation():
    faces = covariance_from_params(HProperParams(1.7))
    rng = np.random.default_rng(34)
    for _ in range(20):
        u = Quaternion.from_vec(rng.normal(size=4))
        v = Quaternion.from_vec(rng.normal(size=4))
        m = double_rotation(u, v).matrix
        assert np.max(np.abs(m @ faces.r.matrix @ m.T - faces.r.matrix)) <= 1e-12


def test_sign_flip_of_axis_gives_same_defect():
    faces = covariance_from_params(all_class_params()["mumu"])
    g = faces.r.matrix
    m_pos = double_rotation(I, J).matrix
    m_neg = double_rotation(I, -J).matrix
    assert np.array_equal(m_pos @ g @ m_pos.T - g, m_neg @ g @ m_neg.T - g)
    m_both = double_rotation(-I, -J).matrix
    assert np.array_equal(m_pos @ g @ m_pos.T, m_both @ g @ m_both.T)


def test_invariance_composes():
    # invariance under U1 and U2 implies invariance under U2 U1
    faces = covariance_from_params(HProperParams(1.0))
    g = faces.r.matrix
    u1 = double_rotation(I, J)
    u2 = double_rotation(J, K)
    for m in (u1.matrix, u2.matrix, u2.matrix @ u1.matrix):
        assert np.max(np.abs(m @ g @ m.T - g)) <= 1e-12
    # composing the defining rotation of mumu with itself gives the identity
    # action (a half-turn on both factors), which trivially preserves it
    faces2 = covariance_from_params(all_class_params()["mumu"])
    m = double_rotation(I, J).matrix
    m2 = m @ m
    assert np.max(np.abs(m2 @ faces2.r.matrix @ m2.T - faces2.r.matrix)) <= 1e-12


def test_general_class_structural_zeros():
    params = general_params()
    faces = covariance_from_params(params)
    basis = params.basis
    for idx in (1, 2, 3):
        coords = basis.to_coords(faces.h.entry(0, idx))
        assert abs(coords[idx]) <= 1e-12


def test_general_complex_face_spot_checks():
    # entries of the general complex face in terms of the complementary
    # covariances: diagonal from sigma2 and Re(gamma1); (1,2) from the
    # complex parts of gamma2 and gamma3; (1,3) from their cross parts
    params = general_params()
    faces = covariance_from_params(params)
    b = params.basis
    g1, g2, g3 = (b.to_coords(params.gamma1), b.to_coords(params.gamma2),
                  b.to_coords(params.gamma3))
    s2 = params.sigma2
    gc = faces.c.matrix
    assert abs(gc[0, 0] - (s2 + g1[0]) / 2) <= 1e-12
    assert abs(gc[1, 1] - (s2 + g1[0]) / 2) <= 1e-12
    assert abs(gc[2, 2] - (s2 - g1[0]) / 2) <= 1e-12
    assert abs(gc[3, 3] - (s2 - g1[0]) / 2) <= 1e-12
    assert abs(gc[0, 1] - ((g2[0] + g3[0]) + 1j * (g2[1] + g3[1])) / 2) <= 1e-12
    assert abs(gc[0, 2] - (g3[2] - 1j * g2[3]) / 2) <= 1e-12


# --- sampling ---------------------------------------------------------------

def test_sample_zero_covariance_gives_zero_draws():
    draws = sample(CovarianceR(np.zeros((4, 4))), 5, seed=1)
    assert draws.n == 5
    assert np.array_equal(draws.data, np.zeros((5, 4)))


def test_sample_is_deterministic():
    cov = CovarianceR(np.eye(4) / 4)
    a = sample(cov, 100, seed=7)
    b = sample(cov, 100, seed=7)
    assert np.array_equal(a.data, b.data)
    c = sample(cov, 100, seed=8)
    assert not np.array_equal(a.data, c.data)


def test_sample_component_variances():
    cov = CovarianceR(np.eye(4) / 4)
    draws = sample(cov, 100_000, seed=42)
    var = draws.data.var(axis=0)
    stderr = 0.25 * math.sqrt(2 / 100_000)
    assert np.all(np.abs(var - 0.25) < 3 * stderr)


def test_sample_semidefinite_covariance():
    g = np.diag([1.0, 1.0, 0.0, 0.0])
    draws = sample(CovarianceR(g), 1000, seed=3)
    assert np.max(np.abs(draws.data[:, 2:])) == 0.0
    assert draws.data[:, 0].std() > 0.5


def test_sample_covariance_converges():
    faces = covariance_from_params(all_class_params()["mumu"])
    draws = sample(faces.r, 200_000, seed=9)
    est = draws.data.T @ draws.data / draws.n
    assert np.max(np.abs(est - faces.r.matrix)) < 0.02


def test_sample_needs_at_least_one_draw():
    cov = covariance_from_params(HProperParams(1.0)).r
    with pytest.raises(ValueError, match="^need at least one draw$"):
        sample(cov, 0, seed=0)


def test_sample_rejects_indefinite():
    with pytest.raises(ValueError):
        sample(CovarianceR(np.diag([1.0, 1.0, 1.0, -0.5])), 10, seed=0)


# --- densities ---------------------------------------------------------------

def test_gaussian_pdf_closed_form_at_origin():
    cov = CovarianceR(np.eye(4) / 4)
    assert abs(gaussian_pdf(Quaternion(0, 0, 0, 0), cov) - 4 / np.pi ** 2) <= 1e-12


def test_gaussian_pdf_symmetry():
    rng = np.random.default_rng(35)
    cov = _random_cov_r(rng)
    for _ in range(20):
        q = rand_quaternion(rng)
        assert abs(gaussian_pdf(q, cov) - gaussian_pdf(-q, cov)) <= 1e-15


def test_gaussian_pdf_integrates_to_one():
    cov = CovarianceR(np.diag([0.3, 0.5, 0.4, 0.6]) + 0.05)
    sig = np.sqrt(np.diag(cov.matrix))
    axes = [np.linspace(-5 * s, 5 * s, 41) for s in sig]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    vals = gaussian_pdf(grid.reshape(-1, 4), cov).reshape(grid.shape[:-1])
    total = vals
    for ax in reversed(range(4)):
        total = np.trapezoid(total, axes[ax], axis=ax)
    assert abs(total - 1.0) < 1e-2


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_gaussian_pdf_rows_match_single_quaternion_calls(seed):
    rng = np.random.default_rng(seed)
    cov = _random_cov_r(rng)
    rows = rng.normal(scale=rng.uniform(0.1, 2.0), size=(int(rng.integers(1, 50)), 4))
    batch = gaussian_pdf(rows, cov)
    single = np.array([gaussian_pdf(Quaternion.from_vec(r), cov) for r in rows])
    assert batch.shape == (len(rows),)
    assert np.max(np.abs(batch - single) / single) <= 1e-12


def test_gaussian_pdf_rejects_singular():
    with pytest.raises(ValueError):
        gaussian_pdf(Quaternion(0, 0, 0, 0), CovarianceR(np.diag([1, 1, 1, 0.0])))


def _onemu_cov_r_oracle(sigma2, gamma):
    """Real covariance of the class invariant under right multiplication by
    j, built from pair moments in the basis (j, k, i); independent route."""
    basis = validate_basis(J, K)
    coords = basis.to_coords(gamma)  # (re, j, k, i) parts
    s1 = (sigma2 + coords[0]) / 2
    s2 = (sigma2 - coords[0]) / 2
    omega = complex(coords[2] / 2, coords[3] / 2)  # E[z1 z2] in C_j
    return cov_r_from_pair_moments(s1, s2, 0, 0, 0, omega, basis=basis)


def _admissible_gamma(rng, sigma2):
    while True:
        g = rng.normal(size=4) * 0.3 * sigma2
        g[2] = 0.0  # no component along the properness axis j
        if np.linalg.norm(g) < 0.8 * sigma2:
            return Quaternion.from_vec(g)


def test_pdf_1mu_proper_ratio_to_gaussian_is_constant():
    rng = np.random.default_rng(36)
    for _ in range(3):
        sigma2 = rng.uniform(0.5, 2.0)
        gamma = _admissible_gamma(rng, sigma2)
        cov = CovarianceR(_onemu_cov_r_oracle(sigma2, gamma))
        ratios = []
        for _ in range(100):
            q = rand_quaternion(rng, scale=1.5)
            ratios.append(pdf_1mu_proper(q, sigma2, gamma) / gaussian_pdf(q, cov))
        ratios = np.array(ratios)
        assert np.max(np.abs(ratios - ratios[0])) <= 1e-8 * abs(ratios[0])
        assert abs(ratios[0] - 1.0) <= 1e-8


def test_pdf_1mu_proper_isotropic_when_gamma_vanishes():
    zero = Quaternion(0, 0, 0, 0)
    q1 = Quaternion(1.0, 0.4, -0.3, 0.2)
    m = q1.modulus()
    q2 = Quaternion(0, m, 0, 0)  # same modulus, different direction
    a = pdf_1mu_proper(q1, 1.3, zero)
    b = pdf_1mu_proper(q2, 1.3, zero)
    assert abs(a - b) <= 1e-14


def test_pdf_1mu_proper_depends_only_on_invariants():
    # right multiplication by exp(j*t) preserves |q| and the cross term, so
    # the density must not change along that orbit
    rng = np.random.default_rng(37)
    sigma2 = 1.2
    gamma = _admissible_gamma(rng, sigma2)
    for _ in range(20):
        q = rand_quaternion(rng)
        t = rng.uniform(0, 2 * np.pi)
        rot = ONE * math.cos(t) + J * math.sin(t)
        q2 = q * rot
        assert abs(pdf_1mu_proper(q, sigma2, gamma)
                   - pdf_1mu_proper(q2, sigma2, gamma)) <= 1e-12


def test_own_axis_checks_scale_with_the_gamma():
    # from_coords and to_coords leave a round-off coordinate on the own axis
    # that grows with |gamma|; a component of 1e-6 |gamma| is still refused
    basis = validate_basis(PureUnit(1, 2, 3), PureUnit(3, 0, -1))
    coords = ([3, 0, 2, 1], [1, 2, 0, 1], [1, 1, 2, 0])
    for scale in (1e3, 1e6, 1e9):
        gammas = [basis.from_coords(np.multiply(c, scale)) for c in coords]
        GeneralParams(40 * scale, *gammas, basis=basis)
        with pytest.raises(ValueError, match="^gamma1 must have no component"):
            GeneralParams(40 * scale, gammas[0] + basis.mu1 * (1e-6 * scale),
                          *gammas[1:], basis=basis)
        gamma = basis.from_coords(np.multiply(coords[1], scale))
        assert pdf_1mu_proper(ONE * math.sqrt(scale), 4 * scale, gamma, basis) > 0.0
        with pytest.raises(ValueError, match="properness axis"):
            pdf_1mu_proper(ONE, 4 * scale, gamma + basis.mu2 * (1e-6 * scale),
                           basis)


def test_pdf_1mu_proper_rejects_bad_inputs():
    with pytest.raises(ValueError, match="properness axis"):
        pdf_1mu_proper(Quaternion(1, 0, 0, 0), 1.0, Quaternion(0, 0, 0.5, 0))
    with pytest.raises(ValueError, match="degenerate"):
        pdf_1mu_proper(Quaternion(1, 0, 0, 0), 1.0, Quaternion(1.5, 0, 0, 0))
    with pytest.raises(ValueError, match="degenerate"):
        pdf_1mu_proper(Quaternion(1, 0, 0, 0), -1.0, Quaternion(0, 0, 0, 0))


# --- serialization -----------------------------------------------------------

def test_sample_csv_round_trip(tmp_path):
    cov = CovarianceR(np.eye(4) / 4)
    draws = sample(cov, 50, seed=4)
    path = tmp_path / "draws.csv"
    draws.save(path, tmp_path / "draws.json")
    text = path.read_text()
    assert text.startswith("a,b,c,d\n")
    assert "\r" not in text
    back = read_sample_csv(path)
    assert np.array_equal(back, draws.data)
    meta = json.loads((tmp_path / "draws.json").read_text())
    assert meta["seed"] == 4 and meta["n"] == 50


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 1023, 1024, 1025, 2049]), st.sampled_from([2, 4]),
       st.integers(0, 2**32 - 1),
       st.lists(st.floats(allow_nan=False, allow_infinity=False)
                | st.sampled_from(_EDGE_DOUBLES), min_size=1, max_size=16))
def test_sample_csv_matches_reference_io(tmp_path_factory, n, cols, seed, drawn):
    # every finite double is reachable from random bit patterns; the drawn
    # values and the edge values land at random places among them
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, size=(n, cols), dtype=np.uint64)
    x = bits.view(np.float64).copy()
    x[~np.isfinite(x)] = 1.0
    flat = x.reshape(-1)
    extra = np.array(drawn + _EDGE_DOUBLES)
    flat[rng.integers(0, flat.size, size=extra.size)] = extra
    header = "a,b,c,d" if cols == 4 else "re,im_i"
    out = tmp_path_factory.mktemp("csv")
    if cols == 4:
        write_sample_csv(out / "fast.csv", x)
    else:
        write_column_csvs(x, [(out / "fast.csv", range(cols), header)])
    write_sample_csv_reference(out / "ref.csv", x, header=header)
    assert (out / "fast.csv").read_bytes() == (out / "ref.csv").read_bytes()
    if cols == 4:
        back = read_sample_csv(out / "fast.csv")
        ref = read_sample_csv_reference(out / "fast.csv")
        assert back.dtype == ref.dtype and back.shape == ref.shape == (n, 4)
        assert back.tobytes() == ref.tobytes() == x.tobytes()


@settings(max_examples=40, deadline=None)
@example(n=1025, layout=[[0, 0], [3, 1]], seed=0)
@example(n=1025, layout=[[], [2]], seed=1)
@given(st.sampled_from([1, 1023, 1024, 1025, 2049]),
       st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=4),
                min_size=1, max_size=4),
       st.integers(0, 2**32 - 1))
def test_column_csvs_match_reference_on_any_layout(tmp_path_factory, n, layout,
                                                   seed):
    # 1-4 files of 1-4 columns each (and, as an example, of none), columns
    # repeated, out of order and shared between files; edge values land at
    # random places
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2**64, size=(n, 4), dtype=np.uint64).view(np.float64).copy()
    x[~np.isfinite(x)] = 1.0
    flat = x.reshape(-1)
    flat[rng.integers(0, flat.size, size=len(_EDGE_DOUBLES))] = _EDGE_DOUBLES
    d = tmp_path_factory.mktemp("layout")
    outputs = [(d / f"out{f}.csv", tuple(cols), ",".join(f"c{j}" for j in cols))
               for f, cols in enumerate(layout)]
    write_column_csvs(x, outputs)
    for path, cols, header in outputs:
        write_sample_csv_reference(d / "ref.csv", x[:, cols], header=header)
        assert path.read_bytes() == (d / "ref.csv").read_bytes(), (cols, n)


@pytest.mark.parametrize("n", [gaussian._CSV_BLOCK_ROWS, gaussian._CSV_BLOCK_ROWS + 1])
def test_column_csvs_do_not_depend_on_layout_or_dtype(n, tmp_path):
    # each file equals the reference writer's of the same float64 values,
    # whatever the memory order, strides or dtype of the array given
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, 4)) * 10.0 ** rng.integers(-30, 30, size=(n, 4))
    arrays = {"fortran": np.asfortranarray(x), "reversed": x[::-1, ::-1],
              "float32": x.astype(np.float32),
              "int": rng.integers(-2**62, 2**62, size=(n, 4)),
              "int32": rng.integers(-2**31, 2**31, size=(n, 4), dtype=np.int32)}
    for name, rows in arrays.items():
        outputs = [(tmp_path / f"{name}.csv", range(4), "a,b,c,d"),
                   (tmp_path / f"{name}_31.csv", (3, 1), "im_k,im_i")]
        write_column_csvs(rows, outputs)
        values = np.asarray(rows, dtype=np.float64)
        for path, cols, header in outputs:
            write_sample_csv_reference(tmp_path / "ref.csv", values[:, cols], header)
            assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes(), name


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sample_csv_writer_refuses_non_finite_values(bad, tmp_path):
    # the reader rejects nan and inf, so a file holding one would not read
    # back; the writer refuses it, naming its line, before opening any file
    x = np.ones((5, 4))
    x[3, 2] = bad
    kept = tmp_path / "d.csv"
    kept.write_text("kept")
    message = rf"^line 5: non-finite value in row \[1\.0, 1\.0, {bad}, 1\.0\]$"
    with pytest.raises(ValueError, match=message):
        write_sample_csv(kept, x)
    with pytest.raises(ValueError, match=message):
        write_column_csvs(x, [(tmp_path / "a.csv", (0, 1), "re,im_i"),
                              (tmp_path / "b.csv", (2, 3), "im_j,im_k")])
    with pytest.raises(ValueError, match=message):
        SampleSet(x, seed=0).save(tmp_path / "s.csv", tmp_path / "s.json")
    assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]
    assert kept.read_text() == "kept"


@pytest.mark.parametrize("shape", [(3, 2), (4,), (2, 2, 4), (0, 4)])
def test_sample_csv_writer_refuses_what_the_reader_refuses(shape, tmp_path):
    # a sample CSV holds n >= 1 rows of 4 values; any other array is refused
    # before a file is opened
    message = rf"^sample array must be \(n >= 1, 4\), got {re.escape(str(shape))}$"
    with pytest.raises(ValueError, match=message):
        write_sample_csv(tmp_path / "d.csv", np.ones(shape))
    assert list(tmp_path.iterdir()) == []


def test_read_sample_csv_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c,d\n1,2,3,4\n1,2,3\n")
    with pytest.raises(ValueError, match="line 3"):
        read_sample_csv(path)
    path.write_text("a,b,c,d\n1,2,x,4\n")
    with pytest.raises(ValueError, match="line 2"):
        read_sample_csv(path)
    path.write_text("x,y\n1,2\n")
    with pytest.raises(ValueError, match="line 1"):
        read_sample_csv(path)
    # a bad row far past the first 1024 rows
    good = "0.5,-1,2e-3,4\n"
    path.write_text("a,b,c,d\n" + good * 2998 + "1,2,3\n" + good * 10)
    with pytest.raises(ValueError, match="^line 3000: expected 4 fields"):
        read_sample_csv(path)
    # inputs only float() takes: a whitespace-only line, digits with "_"
    path.write_text("a,b,c,d\n1,2,3,4\n  \t\n5,6,7,8\n")
    assert read_sample_csv(path).tolist() == [[1, 2, 3, 4], [5, 6, 7, 8]]
    path.write_text("a,b,c,d\n1_0,2,3,4\n")
    assert read_sample_csv(path).tolist() == [[10, 2, 3, 4]]
    path.write_text("a,b,c,d\n1,2,3,4,\n")
    with pytest.raises(ValueError, match="^line 2: expected 4 fields, got 5"):
        read_sample_csv(path)
    # "#" starts no comment
    path.write_text("a,b,c,d\n1,2,3,4 # c\n")
    with pytest.raises(ValueError, match="^line 2: non-numeric field"):
        read_sample_csv(path)
    # np.loadtxt reads "1\x1c" as 1; float() rejects it
    path.write_text("a,b,c,d\n1\x1c,2,3,4\n")
    with pytest.raises(ValueError, match="^line 2: non-numeric field"):
        read_sample_csv(path)
    path.write_text("a,b,c,d\n1,2,3,4\n1e999,2,3,4\n")
    with pytest.raises(ValueError, match="^line 3: non-finite field"):
        read_sample_csv(path)
    # a malformed row is reported before an earlier non-finite one
    path.write_text("a,b,c,d\nnan,2,3,4\n1,2,3\n")
    with pytest.raises(ValueError, match="^line 3: expected 4 fields"):
        read_sample_csv(path)
    path.write_text("a,b,c,d\n")
    with pytest.raises(ValueError, match="^no sample rows found$"):
        read_sample_csv(path)
    # undecodable bytes: the reference's error, at the same buffer offset
    path.write_bytes(b"a,b,c,d\n" + b"1,2,3,4\n" * 5000 + b"1,\xff,3,4\n")
    with pytest.raises(UnicodeDecodeError) as got:
        read_sample_csv(path)
    with pytest.raises(UnicodeDecodeError) as ref:
        read_sample_csv_reference(path)
    assert str(got.value) == str(ref.value)


EXPECTED_PARAM_DICTS = {
    "hproper": {"sigma2": 1.0},
    "mumu": {"sigma2": 1.0, "alpha": [0.3, 0.1], "delta": 0.2},
    "muone": {"sigma2": 1.0, "varsigma2": 2.0, "omega": [0.5, 0.3]},
    "onemu": {"sigma2": 1.0, "varsigma2": 2.0, "omega": [0.5, 0.3]},
    "musame": {"sigma2": 1.0, "varsigma2": 1.5, "alpha": [0.2, 0.1],
               "delta": [-0.1, 0.3]},
    "general": {"sigma2": 1.0, "gamma1": [0.10, 0.0, 0.15, 0.05],
                "gamma2": [0.08, 0.12, 0.0, -0.06],
                "gamma3": [-0.05, 0.07, 0.04, 0.0]},
}


@pytest.mark.parametrize("seed", [None, 0, 1, 2], ids=["standard", "rand0",
                                                        "rand1", "rand2"])
def test_param_dict_writes_each_field_in_its_json_form(seed):
    basis = STANDARD_BASIS if seed is None else rand_basis(np.random.default_rng(seed))
    for tag, params in all_class_params(basis).items():
        got, want = params.param_dict(), EXPECTED_PARAM_DICTS[tag]
        assert list(got) == list(want), tag
        for name, value in want.items():
            assert type(got[name]) is type(value), (tag, name)
            assert np.allclose(got[name], value, rtol=0.0, atol=1e-12), (tag, name)
        if seed is None:
            assert got == want


# --- non-finite class parameters ----------------------------------------------

FIELDS = [(tag, name, kind) for tag, flags in sorted(REFERENCE_CLASS_FLAGS.items())
          for name, kind in flags.items()]


def _values_with_one_bad_part(kind, bad):
    if kind == "real":
        return [bad]
    if kind == "complex":
        return [complex(bad, 0.1), complex(0.1, bad)]
    return [Quaternion(*[bad if i == k else 0.0 for i in range(4)]) for k in range(4)]


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("tag, name, kind", FIELDS,
                         ids=[f"{tag}-{name}" for tag, name, _ in FIELDS])
def test_params_reject_non_finite_field(tag, name, kind, bad):
    params = all_class_params()[tag]
    for value in _values_with_one_bad_part(kind, bad):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
            dataclasses.replace(params, **{name: value})


# --- a CSV write that fails -----------------------------------------------------

@pytest.mark.parametrize("second", [(2, 3), (0, 1)], ids=["disjoint", "shared"])
@pytest.mark.parametrize("fault", ["open", "write"])
def test_failed_column_csvs_leave_no_partial_file(tmp_path, second, fault):
    # "open": the second file is a directory; "write": a column index out of
    # range fails after both files are open and hold their headers
    x = np.arange(8.0).reshape(2, 4)
    if fault == "open":
        (tmp_path / "b.csv").mkdir()
    else:
        second = second + (4,)
    with pytest.raises(IsADirectoryError if fault == "open" else IndexError):
        write_column_csvs(x, [(tmp_path / "a.csv", (0, 1), "re,im_i"),
                              (tmp_path / "b.csv", second, "x,y,z")])
    left = sorted(p.name for p in tmp_path.iterdir())
    assert left == (["b.csv"] if fault == "open" else [])


def test_failed_sidecar_leaves_no_csv(tmp_path):
    # the sidecar is opened, then json fails on a value it cannot write
    draws = SampleSet(np.ones((3, 4)), seed=0, params={"bad": object()})
    with pytest.raises(TypeError):
        draws.save(tmp_path / "d.csv", tmp_path / "d.json")
    assert list(tmp_path.iterdir()) == []
    # the sidecar cannot be opened: the directory in its place stays
    (tmp_path / "d.json").mkdir()
    with pytest.raises(IsADirectoryError):
        SampleSet(np.ones((3, 4)), seed=0).save(tmp_path / "d.csv",
                                                tmp_path / "d.json")
    assert [p.name for p in tmp_path.iterdir()] == ["d.json"]


def test_sidecar_with_nan_is_refused_and_leaves_no_file(tmp_path):
    # the sidecar is strict JSON: NaN is not written as the token NaN
    draws = SampleSet(np.ones((3, 4)), seed=0, params={"x": float("nan")})
    with pytest.raises(ValueError, match="JSON"):
        draws.save(tmp_path / "d.csv", tmp_path / "d.json")
    assert list(tmp_path.iterdir()) == []


def test_sidecar_writes_numpy_integer_seed_as_int(tmp_path):
    draws = sample(CovarianceR(np.eye(4) / 4), 5, seed=np.int64(7))
    draws.save(tmp_path / "d.csv", tmp_path / "d.json")
    text = (tmp_path / "d.json").read_text()
    assert '"seed": 7\n' in text
    assert type(json.loads(text)["seed"]) is int


def test_save_onto_directory_leaves_it_and_writes_no_sidecar(tmp_path):
    (tmp_path / "d.csv").mkdir()
    (tmp_path / "d.csv" / "inside").write_text("kept")
    with pytest.raises(IsADirectoryError):
        SampleSet(np.ones((3, 4)), seed=0).save(tmp_path / "d.csv",
                                                tmp_path / "d.json")
    assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]
    assert [p.name for p in (tmp_path / "d.csv").iterdir()] == ["inside"]
    assert (tmp_path / "d.csv" / "inside").read_text() == "kept"


# --- the quaternion-face map, built once per basis ---------------------------

def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_memoised_face_map_equals_fresh_build(seed):
    basis = rand_basis(np.random.default_rng(seed))
    for _ in range(2):  # built, then from the memo
        assert _same_bits(quaternion_face_map(basis),
                          quaternion_face_map_reference(basis))


def test_face_map_tells_signed_zero_axes_apart():
    # equal as numbers, so only the frame bits tell the two bases apart
    plus = validate_basis(PureUnit(0.0, 1.0, 0.0), PureUnit(0.0, 0.0, 1.0))
    minus = validate_basis(PureUnit(-0.0, 1.0, 0.0), PureUnit(0.0, 0.0, 1.0))
    assert np.array_equal(plus.frame, minus.frame)
    fresh = [quaternion_face_map_reference(b) for b in (plus, minus)]
    assert not _same_bits(*fresh)
    for basis, ref in zip((plus, minus, plus, minus), fresh * 2):
        assert _same_bits(quaternion_face_map(basis), ref)


def test_face_map_is_read_only():
    K = quaternion_face_map(STANDARD_BASIS)
    with pytest.raises(ValueError, match="read-only"):
        K[0, 0, 0, 0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        K += 1.0


def test_face_map_memo_stays_bounded():
    rng = np.random.default_rng(20)
    bases = [rand_basis(rng) for _ in range(20)]
    first = quaternion_face_map(bases[0])
    for basis in bases:
        assert quaternion_face_map(basis) is quaternion_face_map(basis)
    info = gaussian._basis_maps.cache_info()
    assert info.maxsize == 8 and info.currsize <= 8
    # the first basis was evicted, so its map is built again
    again = quaternion_face_map(bases[0])
    assert again is not first and _same_bits(again, first)
    # the complex-face maps W and V share K's memo entry, read-only too
    for basis in bases:
        convert(CovarianceR(np.eye(4), basis), "complex")
    info = gaussian._basis_maps.cache_info()
    assert info.maxsize == 8 and info.currsize <= 8
    maps = gaussian._basis_maps(bases[-1].frame.tobytes())
    assert len(maps) == 5
    for m in maps:
        assert not m.flags.writeable


def test_face_map_is_c_contiguous():
    # einsum's bits follow its operands' layout: a K of equal values in
    # another layout would move the faces mapped through it
    for basis in (STANDARD_BASIS, rand_basis(np.random.default_rng(21))):
        assert quaternion_face_map(basis).flags.c_contiguous


# --- the decomposition of a covariance, kept per covariance ------------------

def _same_decomposition(a, b):
    return all(_same_bits(x, y) if isinstance(x, np.ndarray) else x == y
               for x, y in zip(a, b))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_memoised_density_equals_fresh_build(seed):
    rng = np.random.default_rng(seed)
    cov = _random_cov_r(rng)
    q = rand_quaternion(rng)
    rows = rng.normal(size=(7, 4))
    gaussian._decomposition.cache_clear()
    for _ in range(2):  # built, then from the memo
        assert gaussian_pdf(q, cov) == gaussian_pdf_reference(q.to_vec(), cov.matrix)
        assert gaussian_pdf(rows, cov).tobytes() == \
            gaussian_pdf_reference(rows, cov.matrix).tobytes()
    # the decomposition kept is the one a fresh build gives
    key = cov.matrix.tobytes()
    assert _same_decomposition(gaussian._decomposition(key),
                               gaussian._decomposition.__wrapped__(key))


def test_density_memo_stays_bounded():
    rng = np.random.default_rng(22)
    covs = [_random_cov_r(rng) for _ in range(20)]
    first = gaussian._decomposition(covs[0].matrix.tobytes())
    for cov in covs:
        gaussian_pdf(ONE, cov)
    info = gaussian._decomposition.cache_info()
    assert info.maxsize == 8 and info.currsize <= 8
    # the first covariance was evicted, so it is decomposed again
    again = gaussian._decomposition(covs[0].matrix.tobytes())
    assert again[3] is not first[3]
    assert _same_decomposition(again, first)
    for m in again[:4]:  # g, w, v and whiten
        assert not m.flags.writeable


def test_density_honours_in_place_edit_of_the_covariance():
    rng = np.random.default_rng(23)
    m = _random_cov_r(rng).matrix.copy()
    cov, x = CovarianceR(m), rng.normal(size=(5, 4))
    before = gaussian_pdf(x, cov)
    m *= 2.0
    after = gaussian_pdf(x, cov)
    assert after.tobytes() == gaussian_pdf_reference(x, m).tobytes()
    assert not np.array_equal(after, before)


def test_singular_covariance_is_refused_on_every_call():
    cov = CovarianceR(np.diag([1.0, 1.0, 1.0, 0.0]))
    for _ in range(3):
        with pytest.raises(ValueError, match="^covariance is singular: min eigenvalue"):
            gaussian_pdf(ONE, cov)


def test_indefinite_covariance_is_refused_on_every_call():
    g = np.diag([1.0, 1.0, 1.0, -0.5])
    for _ in range(3):
        with pytest.raises(ValueError, match="^covariance is indefinite: min "
                                             "eigenvalue -5.000000e-01$"):
            sample(CovarianceR(g), 10, seed=0)
    # a model's covariance, checked when built, is not decomposed again to
    # be sampled
    faces = covariance_from_params(
        all_class_params(rand_basis(np.random.default_rng(24)))["musame"])
    misses = gaussian._decomposition.cache_info().misses
    sample(faces.r, 10, seed=0)
    assert gaussian._decomposition.cache_info().misses == misses


# --- one rule forms every face: convert ------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_built_faces_are_convert_of_the_chart(seed):
    basis = rand_basis(np.random.default_rng(seed))
    for tag, params in all_class_params(basis).items():
        faces = covariance_from_params(params)
        for built, to in zip(faces, ("complex", "real", "quaternion")):
            want = convert(params.chart(), to).matrix
            # a complex matrix is compared as its (re, im) float pairs
            assert _same_bits(built.matrix.view(float), want.view(float)), (tag, to)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_estimated_complex_face_is_convert_of_s(seed, center):
    basis = rand_basis(np.random.default_rng(seed))
    faces = covariance_from_params(all_class_params(basis)["mumu"])
    data = sample(faces.r, 200, seed).data + 0.25 * center
    _, c, r = covariance_faces(data, basis, center=center)
    x = data - data.mean(axis=0) if center else data
    s = (x.T @ x) / x.shape[0]
    assert _same_bits(r.matrix, s)
    want = convert(CovarianceR(s, basis), "complex").matrix
    assert _same_bits(c.matrix.view(float), want.view(float))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_estimated_quaternion_face_is_convert_of_s(seed, center):
    basis = rand_basis(np.random.default_rng(seed))
    faces = covariance_from_params(all_class_params(basis)["mumu"])
    data = sample(faces.r, 200, seed).data + 0.25 * center
    h, _, _ = covariance_faces(data, basis, center=center)
    x = data - data.mean(axis=0) if center else data
    s = (x.T @ x) / x.shape[0]
    want = convert(CovarianceR(s, basis), "quaternion").matrix
    assert _same_bits(h.matrix, want)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_converted_quaternion_face_diagonal_is_trace_exactly(seed):
    # E|q^mu|^2 = sigma2 for every involution, so each diagonal entry of a
    # quaternion face formed from S is (tr S, 0, 0, 0), whatever the source
    rng = np.random.default_rng(seed)
    basis = rand_basis(rng)
    real = _random_cov_r(rng, basis)
    formed = [(cov, convert(cov, "quaternion"))
              for cov in (real, convert(real, "complex"))]
    for tag, params in all_class_params(basis).items():
        if tag != "general":  # the one class whose chart is a quaternion face
            faces = covariance_from_params(params)
            formed.append((faces.c, faces.h))
    for source, face in formed:
        s = convert(source, "real").matrix
        h = face.matrix
        want = np.array([np.trace(s), 0.0, 0.0, 0.0])
        for i in range(4):
            assert _same_bits(h[i, i], want), (type(source).__name__, i)
        # the estimators' gammas are row 0 of the face of the draws' S
        data = sample(source, 200, seed).data
        x_s = (data.T @ data) / data.shape[0]
        row = convert(CovarianceR(x_s, basis), "quaternion").matrix[0, 1:]
        gammas = complementary_covariances(data, basis).gammas
        assert _same_bits(np.array([g.to_vec() for g in gammas]), row)


# --- the check of a complex or quaternion face, kept per content -------------

_FACE_TYPES = {"complex": CovarianceC, "quaternion": CovarianceH}


def _unmemoised_real_face(cov):
    """The full check of a complex or quaternion face, run afresh."""
    face = "complex" if isinstance(cov, CovarianceC) else "quaternion"
    m = np.asarray(cov.matrix, dtype=complex if face == "complex" else float)
    return gaussian._checked_face.__wrapped__(face, m.tobytes(),
                                              cov.basis.frame.tobytes())


def _edit_off_the_image(m, by=0.25):
    """Move entry (0, 1) of a complex or quaternion face matrix in place, so
    that it no longer mirrors (1, 0): no real face has it."""
    m[(0, 1) + (0,) * (m.ndim - 2)] += by


# Each test of this memo also fails for a memo keyed by the matrix object
# rather than its bytes, or for one that lets a face past the check.

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["complex", "quaternion"]))
def test_memoised_face_check_equals_fresh_check(seed, face):
    rng = np.random.default_rng(seed)
    basis = rand_basis(rng)
    m = convert(_random_cov_r(rng, basis), face).matrix.copy()
    cov = _FACE_TYPES[face](m, basis)
    gaussian._checked_face.cache_clear()
    for _ in range(2):  # checked, then from the memo
        assert _same_bits(gaussian._real_face(cov), _unmemoised_real_face(cov))
    # a face of equal bytes is a hit, whatever object holds it
    hits = gaussian._checked_face.cache_info().hits
    twin = type(cov)(m.copy(), basis)
    assert _same_bits(gaussian._real_face(twin), _unmemoised_real_face(cov))
    assert gaussian._checked_face.cache_info().hits == hits + 1
    # the same object edited in place is read anew: on the real image it
    # gives the new S, off it it is refused
    m *= 2.0
    assert _same_bits(convert(cov, "real").matrix, _unmemoised_real_face(cov))
    _edit_off_the_image(m)
    with pytest.raises(ValueError, match="for this basis"):
        gaussian._real_face(cov)


def test_face_memo_stays_bounded():
    rng = np.random.default_rng(26)
    covs = [convert(_random_cov_r(rng), "quaternion") for _ in range(20)]
    first = gaussian._real_face(covs[0])
    for cov in covs:
        assert gaussian._real_face(cov) is gaussian._real_face(cov)
        assert not gaussian._real_face(cov).flags.writeable
    info = gaussian._checked_face.cache_info()
    assert info.maxsize == 8 and info.currsize <= 8
    # the first face was evicted, so it is checked again
    again = gaussian._real_face(covs[0])
    assert again is not first and _same_bits(again, first)
    with pytest.raises(ValueError, match="read-only"):
        again[0, 0] = 1.0
    # a face edited in place is not answered from the entry of its old bytes
    _edit_off_the_image(covs[-1].matrix)
    with pytest.raises(ValueError, match="for this basis"):
        gaussian._real_face(covs[-1])


@pytest.mark.parametrize("face", ["complex", "quaternion"])
def test_face_edited_off_the_real_image_is_refused_on_the_next_read(face):
    m = convert(_random_cov_r(np.random.default_rng(27)), face).matrix.copy()
    cov = _FACE_TYPES[face](m)
    before = convert(cov, "real").matrix
    _edit_off_the_image(m)
    for to in ("real", "complex", "quaternion"):
        with pytest.raises(ValueError, match=f"not a valid {face}-face "
                                             "covariance for this basis"):
            convert(cov, to)
    _edit_off_the_image(m, -0.25)
    assert _same_bits(convert(cov, "real").matrix, before)


@pytest.mark.parametrize("face, entry", [("complex", 0.5 + 0.5j),
                                         ("complex", complex(np.nan)),
                                         ("quaternion", 0.5)])
def test_bad_face_raises_on_every_call_and_is_not_kept(face, entry):
    # a valid face, read once, then given a bad entry in place
    m = convert(CovarianceR(np.eye(4)), face).matrix.copy()
    cov = _FACE_TYPES[face](m)
    gaussian._checked_face.cache_clear()
    gaussian._real_face(cov)
    m[(0, 1) + (0,) * (m.ndim - 2)] = entry
    for _ in range(2):
        with pytest.raises(ValueError, match=f"not a valid {face}-face"):
            gaussian_pdf(ONE, cov)
    info = gaussian._checked_face.cache_info()
    assert info.currsize == 1 and info.misses == 3


def test_public_real_faces_are_fresh_and_writable():
    params = all_class_params(rand_basis(np.random.default_rng(28)))["musame"]
    faces = covariance_from_params(params)
    c, h = (CovarianceC(faces.c.matrix.copy(), params.basis),
            CovarianceH(faces.h.matrix.copy(), params.basis))
    for read in (lambda: convert(h, "real").matrix,
                 lambda: convert(c, "real").matrix,
                 lambda: covariance_from_params(params).r.matrix):
        first = read()
        want = first.copy()
        assert first.flags.writeable
        first[:] = 0.0
        assert _same_bits(read(), want)
        assert read() is not read()
    # what is handed out follows the face's bytes: doubled, then refused
    for face in (c, h):
        want = convert(face, "real").matrix * 2.0
        face.matrix[...] *= 2.0
        assert _same_bits(convert(face, "real").matrix, want)
        _edit_off_the_image(face.matrix)
        with pytest.raises(ValueError, match="for this basis"):
            convert(face, "real")


def test_object_complex_face_reads_as_its_complex128_copy():
    faces = covariance_from_params(
        all_class_params(rand_basis(np.random.default_rng(29)))["mumu"])
    as_objects = CovarianceC(faces.c.matrix.astype(object), faces.c.basis)
    for to in ("real", "quaternion"):
        assert _same_bits(convert(as_objects, to).matrix,
                          convert(faces.c, to).matrix)
    assert gaussian_pdf(ONE, as_objects) == gaussian_pdf(ONE, faces.c)


# Faces every reader refuses: complex entries (of complex dtype, or Python
# complex numbers in an object array) on a real or quaternion face, entries
# that are not numbers on a complex face, the wrong shape for the face, and
# a real face S that is not symmetric, given as any of the three faces.
_H_QUARTER = gaussian._quaternion_face(np.eye(4) / 4, STANDARD_BASIS).matrix
_ASYMMETRIC = np.diag([1.0, 2.0, 3.0, 4.0])
_ASYMMETRIC[0, 1] = 0.9
_ODD_BASIS = validate_basis(PureUnit(1, 2, 3), PureUnit(3, 0, -1))
BAD_FACES = {
    "complex R": CovarianceR(np.eye(4) * (1 + 0.5j)),
    "complex H": CovarianceH(_H_QUARTER * (1 + 0.5j)),
    "object complex R": CovarianceR(np.array([[1 + 0j] * 4] * 4, dtype=object)),
    "string C": CovarianceC(np.full((4, 4), "x", dtype=object)),
    "R (4,)": CovarianceR(np.ones(4)),
    "R (1,4,4)": CovarianceR(np.eye(4)[None]),
    "R (3,3)": CovarianceR(np.eye(3)),
    "R (5,5)": CovarianceR(np.eye(5)),
    "H (3,3,4)": CovarianceH(_H_QUARTER[:3, :3]),
    "asymmetric R": CovarianceR(_ASYMMETRIC, _ODD_BASIS),
    "asymmetric C": gaussian._complex_face(_ASYMMETRIC, _ODD_BASIS),
    "asymmetric H": gaussian._quaternion_face(_ASYMMETRIC, _ODD_BASIS),
}
FACE_READERS = {
    "convert real": lambda cov: convert(cov, "real"),
    "convert complex": lambda cov: convert(cov, "complex"),
    "convert quaternion": lambda cov: convert(cov, "quaternion"),
    "sample": lambda cov: sample(cov, 10, seed=0),
    "gaussian_pdf": lambda cov: gaussian_pdf(ONE, cov),
    "symmetry_residual": lambda cov: symmetry_residual(cov, I, J),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("reader", FACE_READERS)
@pytest.mark.parametrize("face", BAD_FACES)
def test_bad_face_is_one_line_value_error_for_every_reader(face, reader):
    with pytest.raises(ValueError, match="covariance") as info:
        FACE_READERS[reader](BAD_FACES[face])
    assert "\n" not in str(info.value)


@pytest.mark.filterwarnings("error")
def test_real_face_with_round_off_asymmetry_reads_as_its_symmetric_part():
    q = double_rotation(rand_quaternion(np.random.default_rng(30)), ONE).matrix
    g = q @ np.diag([1.0, 2.0, 3.0, 4.0]) @ q.T
    assert 0.0 < np.abs(g - g.T).max() < 1e-15
    half = g / 2.0
    twin = CovarianceR(half + half.T)
    x = np.random.default_rng(31).normal(size=(5, 4))
    for read in (lambda cov: convert(cov, "real").matrix,
                 lambda cov: convert(cov, "complex").matrix,
                 lambda cov: convert(cov, "quaternion").matrix,
                 lambda cov: sample(cov, 10, seed=0).data,
                 lambda cov: gaussian_pdf(x, cov),
                 lambda cov: np.float64(symmetry_residual(cov, I, J))):
        assert read(CovarianceR(g)).tobytes() == read(twin).tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e100, 1e-100, 1e-154, 1e-160, 1e300, 1e308])
def test_density_and_draws_at_extreme_scale(scale):
    # prod(w) overflows or underflows at each of these scales; the density
    # is then taken in log space, and sampling still has a Cholesky factor
    rng = np.random.default_rng(25)
    g = _random_cov_r(rng).matrix
    g = g / np.abs(g).max() * scale
    x = np.vstack([np.zeros(4), rng.normal(size=(6, 4)) * math.sqrt(scale)])
    got = gaussian_pdf(x, CovarianceR(g))
    want = log_density_reference(x, g)
    assert not np.isnan(got).any()
    fits = (want > math.log(np.finfo(float).tiny)) & (want < math.log(np.finfo(float).max))
    assert np.allclose(got[fits], np.exp(want[fits]), rtol=1e-12, atol=0.0)
    # where the density is beyond the float range it is 0 or inf
    assert (got[~fits & (want > 0)] == np.inf).all()
    assert (got[~fits & (want < 0)] <= np.finfo(float).tiny).all()
    draws = sample(CovarianceR(g), 100, seed=3).data
    want = np.random.default_rng(3).standard_normal((100, 4)) @ np.linalg.cholesky(g).T
    assert draws.tobytes() == want.tobytes()


@pytest.mark.filterwarnings("error")
def test_extreme_scale_densities_of_the_identity():
    assert gaussian_pdf(ONE, CovarianceR(np.eye(4) * 1e100)) == \
        pytest.approx(1.0 / ((2 * math.pi) ** 2 * 1e200), rel=1e-12)
    assert gaussian_pdf(np.zeros(4), CovarianceR(np.eye(4) * 1e-100)) == \
        pytest.approx(1e200 / (2 * math.pi) ** 2, rel=1e-12)
    assert gaussian_pdf(ONE, CovarianceR(np.eye(4) * 1e308)) == 0.0
    # a model built and sampled at the largest scale the CLI reaches
    faces = covariance_from_params(HProperParams(1e300))
    assert np.isfinite(sample(faces.r, 50, seed=1).data).all()


@pytest.mark.filterwarnings("error")
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1.0, 1e-160, 1e300]))
def test_point_density_equals_its_row_bit_for_bit(seed, scale):
    # a Quaternion takes the direct path, its (1, 4) row and its (4,) vector
    # the row blocks; at 1e-160 and 1e300 the normaliser is in log space
    rng = np.random.default_rng(seed)
    cov = CovarianceR(_random_cov_r(rng).matrix * scale)
    q = rand_quaternion(rng, scale=math.sqrt(scale))
    point = gaussian_pdf(q, cov)
    assert type(point) is float
    assert float.hex(point) == float.hex(float(gaussian_pdf(q.to_vec()[None], cov)[0]))
    assert float.hex(point) == float.hex(gaussian_pdf(q.to_vec(), cov))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0), (1, 2)])
@pytest.mark.parametrize("base", ["identity", "mumu"])
def test_gaussian_pdf_rejects_non_finite_covariance(base, where, bad):
    m = (np.eye(4) / 4 if base == "identity" else
         covariance_from_params(MuMuParams(1.0, 0.3 + 0.1j, 0.2)).r.matrix.copy())
    m[where] = bad
    with pytest.raises(ValueError, match=r"real-face covariance \(non-finite entry\)"):
        gaussian_pdf(ONE, CovarianceR(m))
    with pytest.raises(ValueError, match=r"real-face covariance \(non-finite entry\)"):
        sample(CovarianceR(m), 5, seed=1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_gaussian_pdf_rejects_non_finite_point(bad):
    cov = covariance_from_params(MuMuParams(1.0, 0.3 + 0.1j, 0.2)).r
    with pytest.raises(ValueError, match="^non-finite input"):
        gaussian_pdf(Quaternion(0.5, bad, -0.2, 0.3), cov)
    rows = np.random.default_rng(5).normal(size=(50, 4))
    rows[17, 2] = bad
    with pytest.raises(ValueError, match="^non-finite input"):
        gaussian_pdf(rows, cov)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["q", "sigma2", "gamma_1j"])
def test_pdf_1mu_proper_rejects_non_finite_input(name, bad):
    args = {"q": Quaternion(0.5, 0.1, -0.2, 0.3), "sigma2": 1.0,
            "gamma_1j": Quaternion(0.1, 0.2, 0.0, -0.1)}
    if name == "sigma2":
        args[name] = bad
    else:
        args[name] = Quaternion(*[bad if i == 1 else x
                                  for i, x in enumerate(args[name].to_vec())])
    with pytest.raises(ValueError, match="^non-finite input"):
        pdf_1mu_proper(**args)
