import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatprop import (ONE, I, J, K, Candidate, CovarianceR, HProperParams,
                      MuMuParams, PropernessReport, PropernessTag, Quaternion,
                      STANDARD_BASIS, classify, complementary_covariances,
                      convert, covariance_faces, covariance_from_params,
                      sample, symmetry_residual, validate_basis,
                      via_class_alias)
from quatprop.estimation import (ComplementaryCovariances, axis_name,
                                 estimator_consistency)
from quatprop.gaussian import (SampleSet, quaternion_face_from_gammas,
                               write_sample_csv)

from support import (all_class_params, classify_reference, defining_rotations,
                     general_params, per_sample_moments, rand_basis)


def test_two_real_unit_draws():
    data = np.array([[1.0, 0, 0, 0], [-1.0, 0, 0, 0]])
    cc = complementary_covariances(data, STANDARD_BASIS)
    assert cc.sigma2 == 1.0
    for g in cc.gammas:
        assert g == Quaternion(1, 0, 0, 0)


def test_complementary_covariances_need_two_samples():
    with pytest.raises(ValueError):
        complementary_covariances(np.zeros((1, 4)), STANDARD_BASIS)


@pytest.mark.parametrize("shape", [(3, 2), (4,), (2, 2, 4), (0, 4)])
def test_every_sample_entry_point_refuses_a_bad_shape_alike(shape, tmp_path):
    # one (n >= 1, 4) contract, so one message wherever draws come in
    x = np.ones(shape)
    message = rf"^sample array must be \(n >= 1, 4\), got {re.escape(str(shape))}$"
    for entry in (lambda: SampleSet(x, seed=0),
                  lambda: write_sample_csv(tmp_path / "d.csv", x),
                  lambda: complementary_covariances(x, STANDARD_BASIS),
                  lambda: covariance_faces(x, STANDARD_BASIS),
                  lambda: classify(x, STANDARD_BASIS)):
        with pytest.raises(ValueError, match=message):
            entry()
    assert list(tmp_path.iterdir()) == []


def test_too_few_rows_of_the_right_shape_are_counted():
    with pytest.raises(ValueError, match="^need at least 2 samples$"):
        complementary_covariances(np.ones((1, 4)), STANDARD_BASIS)


def test_hproper_complementary_covariances_vanish():
    faces = covariance_from_params(HProperParams(1.0))
    draws = sample(faces.r, 50_000, seed=0)
    cc = complementary_covariances(draws.data, STANDARD_BASIS)
    for g in cc.gammas:
        assert g.modulus() < 0.02 * cc.sigma2


def test_general_class_estimates_have_structural_zeros():
    # the product q (q^mu)* has no component along mu sample-wise, so the raw
    # estimate already sits in the structural subspace up to roundoff
    params = general_params()
    faces = covariance_from_params(params)
    draws = sample(faces.r, 10_000, seed=1)
    cc = complementary_covariances(draws.data, STANDARD_BASIS)
    for idx, g in ((1, cc.gamma1), (2, cc.gamma2), (3, cc.gamma3)):
        assert abs(STANDARD_BASIS.to_coords(g)[idx]) < 1e-12
    # same claim in a rotated frame, to roundoff of the involution products
    basis = rand_basis(np.random.default_rng(2))
    params2 = general_params(basis)
    faces2 = covariance_from_params(params2)
    draws2 = sample(faces2.r, 10_000, seed=3)
    cc2 = complementary_covariances(draws2.data, basis)
    for idx, g in ((1, cc2.gamma1), (2, cc2.gamma2), (3, cc2.gamma3)):
        assert abs(basis.to_coords(g)[idx]) < 1e-12


def test_centering_flag():
    rng = np.random.default_rng(4)
    data = rng.normal(size=(5000, 4)) + np.array([5.0, 0, 0, 0])
    raw = complementary_covariances(data, STANDARD_BASIS)
    centred = complementary_covariances(data, STANDARD_BASIS, center=True)
    assert raw.sigma2 > 20.0
    assert abs(centred.sigma2 - 4.0) < 0.2


# --- covariance_faces --------------------------------------------------------

def test_faces_of_zero_samples_are_zero():
    data = np.zeros((10, 4))
    gh, gc, gr = covariance_faces(data, STANDARD_BASIS)
    assert np.max(np.abs(gh.matrix)) == 0.0
    assert np.max(np.abs(gc.matrix)) == 0.0
    assert np.max(np.abs(gr.matrix)) == 0.0


def test_faces_need_five_samples():
    with pytest.raises(ValueError):
        covariance_faces(np.zeros((4, 4)), STANDARD_BASIS)


def test_estimated_complex_face_matches_construction():
    params = all_class_params()["mumu"]
    faces = covariance_from_params(params)
    draws = sample(faces.r, 50_000, seed=5)
    _, gc, _ = covariance_faces(draws.data, STANDARD_BASIS)
    sigma2 = np.trace(faces.r.matrix)
    assert np.max(np.abs(gc.matrix - faces.c.matrix)) < 0.02 * sigma2


def test_estimated_quaternion_face_diagonal_is_sigma2_exactly():
    rng = np.random.default_rng(6)
    data = rng.normal(size=(500, 4))
    gh, _, _ = covariance_faces(data, STANDARD_BASIS)
    s2 = complementary_covariances(data, STANDARD_BASIS).sigma2
    for i in range(4):
        assert gh.entry(i, i) == Quaternion(s2, 0, 0, 0)


def test_assembled_face_agrees_with_converted_sample_covariance():
    # the estimated quaternion face and convert of the estimated real face S
    # are formed from the same S by the same map
    rng = np.random.default_rng(7)
    data = rng.normal(size=(2000, 4)) @ np.diag([1.0, 0.5, 1.5, 0.8])
    for basis in (STANDARD_BASIS, rand_basis(rng)):
        gh, _, gr = covariance_faces(data, basis)
        gh2 = convert(gr, "quaternion")
        assert np.max(np.abs(gh.matrix - gh2.matrix)) < 1e-10


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_second_moment_estimates_match_per_sample_definition(seed, center):
    rng = np.random.default_rng(seed)
    basis = rand_basis(rng)
    n = int(rng.integers(5, 400))
    data = rng.normal(size=(n, 4)) @ rng.normal(size=(4, 4)) + rng.normal(size=4)
    sigma2, gammas = per_sample_moments(data, basis, center=center)
    tol = 1e-12 * sigma2

    cc = complementary_covariances(data, basis, center=center)
    assert abs(cc.sigma2 - sigma2) <= tol
    for got, want in zip(cc.gammas, gammas):
        assert np.max(np.abs(got.to_vec() - want.to_vec())) <= tol

    gh, gc, gr = covariance_faces(data, basis, center=center)
    want_h = quaternion_face_from_gammas(sigma2, *gammas, basis)
    xc = data - data.mean(axis=0) if center else data
    want_r = np.einsum("ni,nj->ij", xc, xc) / n
    assert np.max(np.abs(gh.matrix - want_h.matrix)) <= tol
    assert np.max(np.abs(gc.matrix - convert(want_h, "complex").matrix)) <= tol
    assert np.max(np.abs(gr.matrix - want_r)) <= tol


# one field of 1e200 overflows S itself
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("estimator", [complementary_covariances, covariance_faces])
def test_estimators_reject_overflowing_samples(estimator):
    data = sample(covariance_from_params(HProperParams(1.0)).r, 200, seed=3).data
    data[17, 2] = 1e200
    with pytest.raises(ValueError, match="second moments are not finite"):
        estimator(data, STANDARD_BASIS)


# S = X^T X / 2 is finite (8.1e307 per entry), but its trace overflows
@pytest.mark.filterwarnings("error")
def test_complementary_covariances_reject_an_overflowing_trace():
    data = np.full((2, 4), 9e153)
    assert np.isfinite(data.T @ data).all()
    with pytest.raises(ValueError, match="second moments are not finite"):
        complementary_covariances(data, STANDARD_BASIS)


def _row_bits(cc):
    """The bytes of (sigma2, 0, 0, 0), gamma1, gamma2, gamma3 as a (4, 4)
    float array: row 0 of a quaternion face."""
    rows = [(cc.sigma2, 0.0, 0.0, 0.0), *(g.to_vec() for g in cc.gammas)]
    return np.array(rows, dtype=float).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_every_reader_takes_sigma2_and_gammas_off_row_0_of_the_face(seed, center):
    # classify's complementary covariances, complementary_covariances and
    # row 0 of covariance_faces' quaternion face H agree bit for bit, and
    # the hproper residual is max_r |H[0, r]| / H[0, 0, 0]
    rng = np.random.default_rng(seed)
    basis = STANDARD_BASIS if seed % 4 == 0 else rand_basis(rng)
    n = int(rng.integers(100, 1000))
    data = rng.normal(size=(n, 4)) @ rng.normal(size=(4, 4)) + rng.normal(size=4)
    report = classify(data, basis, center=center)
    cc = complementary_covariances(data, basis, center=center)
    row = covariance_faces(data, basis, center=center)[0].matrix[0]
    assert _row_bits(report.complementary) == _row_bits(cc) == row.tobytes()
    assert (report.complementary.n, cc.n) == (n, n)
    hproper = report.candidates[0]
    assert hproper.tag is PropernessTag.H_PROPER
    want = max(Quaternion.from_vec(q).modulus() for q in row[1:]) / row[0, 0]
    assert hproper.residual == want


# --- symmetry residual -------------------------------------------------------

def test_symmetry_residual_identity_rotation_is_zero():
    cov = CovarianceR(np.diag([1.0, 2.0, 3.0, 4.0]))
    assert symmetry_residual(cov, ONE, ONE) == 0.0


def test_symmetry_residual_exact_class():
    faces = covariance_from_params(all_class_params()["mumu"])
    assert symmetry_residual(faces.r, I, J) <= 1e-12
    assert symmetry_residual(faces.r, J, K) > 0.1


def test_symmetry_residual_zero_covariance_raises():
    with pytest.raises(ValueError):
        symmetry_residual(CovarianceR(np.zeros((4, 4))), I, J)


def test_symmetry_residual_spin_double_cover():
    rng = np.random.default_rng(8)
    m = rng.normal(size=(4, 4))
    cov = CovarianceR(m @ m.T)
    u = Quaternion.from_vec(rng.normal(size=4))
    v = Quaternion.from_vec(rng.normal(size=4))
    assert symmetry_residual(cov, u, v) == symmetry_residual(cov, -u, -v)


# --- classification ----------------------------------------------------------

def test_classify_needs_hundred_samples():
    with pytest.raises(ValueError):
        classify(np.zeros((99, 4)), STANDARD_BASIS)


def test_classify_constant_data_is_degenerate():
    with pytest.raises(ValueError, match="degenerate"):
        classify(np.zeros((200, 4)), STANDARD_BASIS)


@pytest.mark.parametrize("c", [0.0, -1.0, float("nan"), float("inf")])
def test_classify_rejects_bad_tolerance_constant(c):
    data = np.random.default_rng(9).normal(size=(200, 4))
    with pytest.raises(ValueError, match="c must be positive and finite"):
        classify(data, STANDARD_BASIS, c=c)


@pytest.mark.parametrize("tag", ["hproper", "mumu", "muone", "onemu",
                                 "musame", "general"])
def test_classify_recovers_class_across_seeds(tag):
    params = all_class_params()[tag]
    faces = covariance_from_params(params)
    for seed in range(20):
        draws = sample(faces.r, 50_000, seed=seed)
        report = classify(draws.data, STANDARD_BASIS)
        assert report.chosen.tag.value == tag, (tag, seed, report.chosen)


def test_classify_reports_expected_axes():
    faces = covariance_from_params(all_class_params()["mumu"])
    report = classify(sample(faces.r, 50_000, seed=0).data, STANDARD_BASIS)
    assert report.chosen.label(STANDARD_BASIS) == "mumu(i,j)"
    faces2 = covariance_from_params(all_class_params()["onemu"])
    report2 = classify(sample(faces2.r, 50_000, seed=0).data, STANDARD_BASIS)
    assert report2.chosen.label(STANDARD_BASIS) == "onemu(i)"


def test_degenerate_mumu_collapses_to_hproper():
    faces = covariance_from_params(MuMuParams(1.0, 0.0, 0.0))
    report = classify(sample(faces.r, 50_000, seed=11).data, STANDARD_BASIS)
    assert report.chosen.tag is PropernessTag.H_PROPER


def test_classify_reports_all_candidates():
    faces = covariance_from_params(HProperParams(1.0))
    report = classify(sample(faces.r, 5_000, seed=12).data, STANDARD_BASIS)
    tags = [cand.tag for cand in report.candidates]
    assert tags.count(PropernessTag.MU_MU) == 6
    assert tags.count(PropernessTag.MU_SAME) == 3
    assert tags.count(PropernessTag.MU_ONE) == 3
    assert tags.count(PropernessTag.ONE_MU) == 3
    assert tags.count(PropernessTag.H_PROPER) == 1
    assert tags.count(PropernessTag.GENERAL) == 1


def test_report_json_schema():
    faces = covariance_from_params(all_class_params()["muone"])
    report = classify(sample(faces.r, 20_000, seed=13).data, STANDARD_BASIS)
    blob = report.to_dict()
    assert set(blob) == {"n", "tolerance", "sigma2", "candidates", "chosen", "alias"}
    for cand in blob["candidates"]:
        assert set(cand) == {"class", "axes", "label", "residual"}
        for axis in cand["axes"]:
            assert len(axis) == 3
    assert blob["chosen"]["class"] == "muone"


# --- prior-taxonomy aliases ---------------------------------------------------

def test_alias_hproper():
    faces = covariance_from_params(HProperParams(1.0))
    report = classify(sample(faces.r, 20_000, seed=14).data, STANDARD_BASIS)
    assert via_class_alias(report) == "H-proper"


def test_alias_onemu_is_complex_properness():
    basis = validate_basis(J, K)
    faces = covariance_from_params(all_class_params(basis)["onemu"])
    report = classify(sample(faces.r, 50_000, seed=15).data, STANDARD_BASIS)
    assert report.chosen.tag is PropernessTag.ONE_MU
    assert via_class_alias(report) == "C^j-proper"


def test_alias_mumu_is_outside_prior_taxonomy():
    faces = covariance_from_params(all_class_params()["mumu"])
    report = classify(sample(faces.r, 50_000, seed=16).data, STANDARD_BASIS)
    assert via_class_alias(report) == "outside prior taxonomy"


def test_alias_onemu_with_vanishing_pseudo_covariance_is_r_proper():
    # mapping contract exercised directly: a chosen right-factor class whose
    # retained complementary covariance has (numerically) no vector part
    cc = ComplementaryCovariances(
        sigma2=1.0,
        gamma1=Quaternion(0.3, 0, 0.001, 0.001),
        gamma2=Quaternion(0, 0, 0, 0),
        gamma3=Quaternion(0, 0, 0, 0),
        basis=STANDARD_BASIS, n=10_000)
    chosen = Candidate(PropernessTag.ONE_MU, (0,), 0.001)
    report = PropernessReport((chosen,), chosen, tolerance=0.05, n=10_000,
                              basis=STANDARD_BASIS, complementary=cc)
    assert via_class_alias(report) == "R-proper"


def test_axis_name_helper():
    assert axis_name(I) == "i"
    assert axis_name(-J) == "-j"
    assert axis_name(K) == "k"
    assert axis_name(Quaternion(0, 0.6, 0.8, 0)).startswith("(")
    # the np.allclose(v, unit, atol=1e-9) rule: 1e-9 + 1e-5 on the unit
    # component, 1e-9 on the zero components
    assert axis_name(Quaternion(0, 1 + 5e-6, 0, 0)) == "i"
    assert axis_name(Quaternion(0, 1, 2e-9, 0)).startswith("(")


# --- estimator consistency ----------------------------------------------------

def test_quaternion_face_estimator_consistency():
    worst, bound = estimator_consistency(general_params(), 10_000, range(50))
    assert len(worst) == 50 and bound == 0.05  # 5 sigma2 / sqrt(n)
    assert sum(w <= bound for w in worst) >= 48  # 95% of 50 runs


def test_classify_in_nonstandard_basis():
    rng = np.random.default_rng(17)
    basis = rand_basis(rng)
    faces = covariance_from_params(all_class_params(basis)["mumu"])
    report = classify(sample(faces.r, 50_000, seed=18).data, basis)
    assert report.chosen.tag is PropernessTag.MU_MU
    assert report.chosen.axis_indices == (0, 1)


# --- all rotation candidates scored in one stack ------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.sampled_from(["hproper", "mumu", "muone", "onemu", "musame",
                        "general", "raw"]),
       st.booleans())
def test_classify_matches_per_candidate_rotation_reference(seed, tag, center):
    # draws of every class, so that each tier gets chosen, and raw normal
    # rows with unequal scales and a mean
    rng = np.random.default_rng(seed)
    basis = STANDARD_BASIS if seed % 5 == 0 else rand_basis(rng)
    n = int(rng.integers(100, 3000))
    if tag == "raw":
        x = rng.normal(size=(n, 4)) * rng.uniform(0.1, 3.0, size=4) + rng.normal(size=4)
    else:
        faces = covariance_from_params(all_class_params(basis)[tag])
        x = sample(faces.r, n, seed=seed).data
    c = float(rng.uniform(0.5, 10.0))
    report = classify(x, basis, c=c, center=center)
    scores, chosen = classify_reference(x, basis, c, center)
    assert [(cand.tag.value, cand.axis_indices) for cand in report.candidates] == [
        key for key, _ in scores]
    for cand, (_, residual) in zip(report.candidates, scores):
        assert abs(cand.residual - residual) <= 1e-14, cand
    assert (report.chosen.tag.value, report.chosen.axis_indices) == chosen


def test_symmetry_residual_rejects_non_finite_covariance():
    for bad in (np.nan, np.inf):
        g = np.eye(4)
        g[1, 2] = g[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite entry"):
            symmetry_residual(CovarianceR(g), ONE, I)
    with pytest.raises(ValueError, match="non-finite entry"):
        symmetry_residual(CovarianceR(np.full((4, 4), np.nan)), ONE, I)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.sampled_from(["mumu", "muone", "musame", "raw"]),
       st.booleans())
def test_symmetry_residual_is_classify_residual(seed, tag, center):
    # one score for a rotation's defect: symmetry_residual of the sample's
    # second moment S equals classify's residual of every rotation candidate
    # bit for bit
    rng = np.random.default_rng(seed)
    basis = STANDARD_BASIS if seed % 3 == 0 else rand_basis(rng)
    n = int(rng.integers(100, 2000))
    if tag == "raw":
        x = rng.normal(size=(n, 4)) * rng.uniform(0.1, 3.0, size=4) + rng.normal(size=4)
    else:
        faces = covariance_from_params(all_class_params(basis)[tag])
        x = sample(faces.r, n, seed=seed).data
    report = classify(x, basis, center=center)
    xc = x - x.mean(axis=0) if center else x
    s = CovarianceR((xc.T @ xc) / n)
    ax = basis.axes
    factors = {"mumu": lambda i, j: (ax[i], ax[j]),
               "musame": lambda i: (ax[i], ax[i]),
               "muone": lambda i: (ax[i], ONE),
               "onemu": lambda i: (ONE, ax[i])}
    rotations = [cand for cand in report.candidates if cand.tag.value in factors]
    assert len(rotations) == 15
    for cand in rotations:
        u, v = factors[cand.tag.value](*cand.axis_indices)
        assert symmetry_residual(s, u, v) == cand.residual, cand


def test_symmetry_residual_needs_positive_finite_trace():
    for diag in ([-1.0, 0.5, 0.25, 0.25], [1e308, 1e308, 1.0, 1.0]):
        with pytest.raises(ValueError, match="trace"):
            symmetry_residual(CovarianceR(np.diag(diag)), I, J)


def test_tied_candidates_are_all_reported_and_the_earliest_chosen():
    # draws with only the real component nonzero: every rotation that moves
    # 1 off its own line scores 1, hproper scores 1, and q -> mu*q*mu sends 1
    # to -1, so musame(i), musame(j) and musame(k) tie at exactly 0 in tier
    # 1; the report lists all three and the earliest is chosen
    x = np.zeros((500, 4))
    x[:, 0] = np.random.default_rng(3).normal(size=500)
    report = classify(x, STANDARD_BASIS)
    scores = {cand.label(STANDARD_BASIS): cand.residual
              for cand in report.candidates}
    assert scores["hproper"] == 1.0
    assert [scores[f"musame({a})"] for a in "ijk"] == [0.0, 0.0, 0.0]
    assert report.chosen.label(STANDARD_BASIS) == "musame(i)"
