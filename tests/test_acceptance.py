"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they execute. Statistical thresholds are taken relative to the
estimated total variance of the data they are applied to.
"""

import json
import math
import time

import numpy as np

from quatprop import (ONE, I, J, K, CovarianceR, HProperParams, MuMuParams,
                      OneMuParams, PropernessTag, Quaternion, STANDARD_BASIS,
                      cayley_dickson, classify, complementary_covariances,
                      covariance_from_params, double_rotation, euler_form,
                      gaussian_pdf, is_so4, left_matrix, pdf_1mu_proper,
                      read_sample_csv, right_matrix, sample, validate_basis)
from quatprop.cli import main as cli_main
from quatprop.rotations import DoubleRotation

from support import (all_class_params, cov_r_from_pair_moments,
                     defining_rotations, expected_complex_face,
                     rand_basis, rand_quaternion, rand_unit)

FIG_SCALE_N = 50_000
SEED = 42


def _report(num, name, ok, detail=""):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_algebraic_suite():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        basis = rand_basis(rng)
        mu, eta = basis.mu1, basis.mu2
        p, q = rand_quaternion(rng), rand_quaternion(rng)
        scale = max(1.0, q.modulus(), p.modulus() * q.modulus())
        errs = [
            (q.involution(mu).involution(mu) - q).modulus(),
            ((p * q).involution(mu) - p.involution(mu) * q.involution(mu)).modulus(),
            (q.involution(mu).involution(eta) - q.involution(mu * eta)).modulus(),
            (q.involution(mu).conj() - q.conj().involution(mu)).modulus(),
            abs(q.involution(mu).modulus() - q.modulus()),
            (cayley_dickson(q, basis).recompose() - q).modulus(),
        ]
        if q.vector_part.modulus() > 1e-6:
            m, axis, angle = euler_form(q)
            back = (ONE * math.cos(angle) + axis * math.sin(angle)) * m
            errs.append((back - q).modulus())
        worst = max(worst, max(errs) / scale)
    elapsed = time.perf_counter() - t0
    _report(1, "algebraic suite (involutions, Cayley-Dickson, polar form)",
            worst <= 1e-12 and elapsed < 1.0,
            f"max error {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_matrix_representation_suite():
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    worst_prod = worst_comm = worst_so4 = 0.0
    for _ in range(1000):
        q, p = rand_quaternion(rng), rand_quaternion(rng)
        scale = max(1.0, q.modulus() * p.modulus())
        worst_prod = max(
            worst_prod,
            np.max(np.abs(left_matrix(q) @ p.to_vec() - (q * p).to_vec())) / scale,
            np.max(np.abs(right_matrix(q) @ p.to_vec() - (p * q).to_vec())) / scale)
        lu, rv = left_matrix(q), right_matrix(p)
        worst_comm = max(worst_comm, np.max(np.abs(lu @ rv - rv @ lu)) / scale)
        check = is_so4(double_rotation(rand_unit(rng), rand_unit(rng)).matrix)
        worst_so4 = max(worst_so4, check.orthogonality_error,
                        abs(check.determinant_error))
    elapsed = time.perf_counter() - t0
    worst = max(worst_prod, worst_comm, worst_so4)
    _report(2, "matrix representations (products, commutation, rotation group)",
            worst <= 1e-12 and elapsed < 1.0,
            f"max error {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_structure_suite():
    t0 = time.perf_counter()
    failures = []
    params_by_tag = all_class_params()
    for tag, params in params_by_tag.items():
        faces = covariance_from_params(params)
        if tag != "general":
            pattern_err = np.max(np.abs(faces.c.matrix
                                        - expected_complex_face(tag, params)))
            if pattern_err > 1e-12:
                failures.append(f"{tag}: pattern error {pattern_err:.2e}")
        rotations = defining_rotations(tag, params.basis)
        if tag == "hproper":
            rng = np.random.default_rng(103)
            rotations = [(rand_unit(rng), rand_unit(rng)) for _ in range(5)]
        for u, v in rotations:
            m = double_rotation(u, v).matrix
            inv_err = np.max(np.abs(m @ faces.r.matrix @ m.T - faces.r.matrix))
            if inv_err > 1e-12:
                failures.append(f"{tag}: invariance error {inv_err:.2e}")
        # structural zeros: each complementary covariance misses the
        # component along its own involution axis
        for idx in (1, 2, 3):
            coord = params.basis.to_coords(faces.h.entry(0, idx))[idx]
            if abs(coord) > 1e-12:
                failures.append(f"{tag}: structural zero violated ({coord:.2e})")
    elapsed = time.perf_counter() - t0
    _report(3, "structured covariance patterns and rotation invariance",
            not failures and elapsed < 1.0,
            "; ".join(failures) if failures else f"6 classes, {elapsed:.2f}s")


def test_criterion_4_monte_carlo_reproduction(tmp_path):
    t0 = time.perf_counter()
    problems = []

    # (i) a variable invariant under q -> i q j: classification must find the
    # pair (i, j) while no complementary covariance vanishes
    faces_ij = covariance_from_params(MuMuParams(1.0, 0.3 + 0.1j, 0.2))
    draws_ij = sample(faces_ij.r, FIG_SCALE_N, SEED)
    report = classify(draws_ij.data, STANDARD_BASIS)
    if report.chosen.label(STANDARD_BASIS) != "mumu(i,j)":
        problems.append(f"(i) chose {report.chosen.label(STANDARD_BASIS)}")
    cc = report.complementary
    floor = 5 * cc.sigma2 / math.sqrt(FIG_SCALE_N)
    mags = [g.modulus() for g in cc.gammas]
    if not all(m > floor for m in mags):
        problems.append(f"(i) expected all covariances nonzero, got {mags}")

    # (ii) a variable invariant under q -> q j: classification must find the
    # right factor j and the other two complementary covariances vanish
    basis_j = validate_basis(J, K)
    faces_1j = covariance_from_params(OneMuParams(1.0, 2.0, 0.5 + 0.3j, basis_j))
    draws_1j = sample(faces_1j.r, FIG_SCALE_N, SEED)
    report_1j = classify(draws_1j.data, STANDARD_BASIS)
    if report_1j.chosen.label(STANDARD_BASIS) != "onemu(j)":
        problems.append(f"(ii) chose {report_1j.chosen.label(STANDARD_BASIS)}")
    cc_j = complementary_covariances(draws_1j.data, basis_j)
    for name, g in (("B", cc_j.gamma2), ("C", cc_j.gamma3)):
        if g.modulus() >= 0.02 * cc_j.sigma2:
            problems.append(f"(ii) {name} residual {g.modulus():.4f}")

    # (iii) the {1,j} and {i,k} projections of (ii) are isotropic clouds;
    # run through the CLI projection so the file pipeline is what is checked
    src = tmp_path / "right_j.csv"
    draws_1j.save(src)
    assert cli_main(["project", str(src), "--out-dir", str(tmp_path),
                     "--pairs", "j"]) == 0
    for fname in ("right_j_1j.csv", "right_j_ik.csv"):
        plane = np.loadtxt(tmp_path / fname, delimiter=",", skiprows=1)
        cov2 = plane.T @ plane / plane.shape[0]
        if abs(cov2[0, 1]) >= 0.02 * cc_j.sigma2:
            problems.append(f"(iii) {fname} off-diagonal {cov2[0, 1]:.4f}")
        if abs(cov2[0, 0] - cov2[1, 1]) >= 0.04 * cc_j.sigma2:
            problems.append(f"(iii) {fname} anisotropic diagonal")

    elapsed = time.perf_counter() - t0
    _report(4, "Monte-Carlo reproduction at N=50000",
            not problems and elapsed < 5.0,
            "; ".join(problems) if problems else f"{elapsed:.2f}s")


def test_criterion_5_estimator_consistency():
    from quatprop.estimation import estimator_consistency
    from support import general_params

    worst, bound = estimator_consistency(general_params(), 10_000, range(50))
    good = sum(w <= bound for w in worst)
    _report(5, "quaternion-face estimator consistency over 50 seeds",
            good >= 48, f"{good}/50 runs within 5*sigma2/sqrt(n)")


def test_criterion_6_density_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(106)
    basis_j = validate_basis(J, K)
    worst = 0.0
    for _ in range(10):
        sigma2 = rng.uniform(0.5, 2.0)
        gvec = rng.normal(size=4) * 0.25 * sigma2
        gvec[2] = 0.0  # no component along the properness axis j
        gamma = Quaternion.from_vec(gvec)
        coords = basis_j.to_coords(gamma)
        s1 = (sigma2 + coords[0]) / 2
        s2 = (sigma2 - coords[0]) / 2
        omega = complex(coords[2] / 2, coords[3] / 2)
        oracle = CovarianceR(cov_r_from_pair_moments(s1, s2, 0, 0, 0, omega,
                                                     basis=basis_j))
        ratios = np.array([
            pdf_1mu_proper(q, sigma2, gamma) / gaussian_pdf(q, oracle)
            for q in (rand_quaternion(rng, scale=1.2) for _ in range(100))])
        worst = max(worst, float(np.max(np.abs(ratios - ratios[0]))
                                 / abs(ratios[0])))
    elapsed = time.perf_counter() - t0
    _report(6, "special-case density agrees with the real-face normal",
            worst <= 1e-8 and elapsed < 1.0,
            f"max ratio spread {worst:.2e}, {elapsed:.2f}s")


def test_criterion_7_rotation_invariance_demos(tmp_path):
    problems = []
    rng = np.random.default_rng(107)

    # class preservation: rotate samples of the (i, j) class by five
    # rotations drawn from its distributional-invariance set (quarter-turn
    # powers of the defining rotation, with factor signs free)
    faces_ij = covariance_from_params(MuMuParams(1.0, 0.3 + 0.1j, 0.2))
    draws = sample(faces_ij.r, FIG_SCALE_N, SEED)
    src = tmp_path / "pair_ij.csv"
    draws.save(src)
    before = classify(draws.data, STANDARD_BASIS)
    powers = {0: "1,0,0,0", 1: "0,1,0,0", 2: "-1,0,0,0", 3: "0,-1,0,0"}
    powers_j = {0: "1,0,0,0", 1: "0,0,1,0", 2: "-1,0,0,0", 3: "0,0,-1,0"}

    def negate(txt):
        return ",".join(format(-float(x), "g") for x in txt.split(","))

    for trial in range(5):
        k = int(rng.integers(0, 4))
        u_txt = powers[k] if rng.random() < 0.5 else negate(powers[k])
        v_txt = powers_j[k] if rng.random() < 0.5 else negate(powers_j[k])
        out = tmp_path / f"rot_{trial}.csv"
        assert cli_main(["rotate", str(src), f"--u={u_txt}", f"--v={v_txt}",
                         "--out", str(out)]) == 0
        after = classify(read_sample_csv(out), STANDARD_BASIS)
        if (after.chosen.tag, after.chosen.axis_indices) != \
                (before.chosen.tag, before.chosen.axis_indices):
            problems.append(f"class changed under power {k}: "
                            f"{after.chosen.label(STANDARD_BASIS)}")
        if not (before.chosen.residual < 2 * before.tolerance
                and after.chosen.residual < 2 * after.tolerance):
            problems.append(f"residuals out of tolerance under power {k}")

    # near-full circularity: rotating fully invariant data by any rotation
    # leaves the sample covariance essentially unchanged
    faces_h = covariance_from_params(HProperParams(1.0))
    draws_h = sample(faces_h.r, FIG_SCALE_N, SEED)
    src_h = tmp_path / "invariant.csv"
    draws_h.save(src_h)
    base_cov = draws_h.data.T @ draws_h.data / draws_h.n
    sigma2 = float(np.trace(base_cov))
    for trial in range(5):
        u, v = rand_unit(rng), rand_unit(rng)
        out = tmp_path / f"hrot_{trial}.csv"
        u_txt = ",".join(format(x, ".17g") for x in u.to_vec())
        v_txt = ",".join(format(x, ".17g") for x in v.to_vec())
        assert cli_main(["rotate", str(src_h), f"--u={u_txt}", f"--v={v_txt}",
                         "--out", str(out)]) == 0
        rot = read_sample_csv(out)
        rot_cov = rot.T @ rot / rot.shape[0]
        change = float(np.linalg.norm(rot_cov - base_cov))
        if change >= 0.02 * sigma2:
            problems.append(f"covariance moved by {change:.4f} under random rotation")

    _report(7, "rotation demonstrations (class preservation, full circularity)",
            not problems, "; ".join(problems) if problems else "5 rotations each")
