import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatprop import (ONE, I, J, K, CovarianceC, CovarianceH, CovarianceR,
                      GeneralParams, HProperParams, MuMuParams, MuOneParams,
                      MuSameParams, OneMuParams, Quaternion, STANDARD_BASIS,
                      convert, covariance_from_params, double_rotation,
                      gaussian_pdf, pdf_1mu_proper, read_sample_csv, sample,
                      validate_basis, write_sample_csv)
from quatprop.gaussian import quaternion_face_from_gammas

from support import (all_class_params, cov_r_from_pair_moments,
                     defining_rotations, expected_complex_face, general_params,
                     rand_basis, rand_quaternion)


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


def test_convert_rejects_invalid_complex_face():
    # (2,2) must duplicate (1,1): both are E[|z1|^2]. Breaking that cannot
    # come from any real variable, and the conversion must notice.
    bad = np.diag([1.0, 2.0, 1.0, 1.0]).astype(complex)
    with pytest.raises(ValueError):
        convert(CovarianceC(bad, STANDARD_BASIS), "real")


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


def test_covariance_faces_serialize(tmp_path):
    faces = covariance_from_params(all_class_params()["musame"])
    blob = json.dumps({"r": faces.r.as_dict(), "c": faces.c.as_dict(),
                       "h": faces.h.as_dict()})
    data = json.loads(blob)
    assert np.allclose(data["r"]["matrix"], faces.r.matrix)
    assert np.array(data["h"]["matrix"]).shape == (4, 4, 4)
    assert data["c"]["face"] == "complex"
