"""Shared helpers for the test suite: seeded random objects, class parameter
fixtures, and independent covariance constructions used as oracles."""

import numpy as np

from quatprop import (GeneralParams, HProperParams, MuMuParams, MuOneParams,
                      MuSameParams, OneMuParams, PureUnit, Quaternion,
                      STANDARD_BASIS, qarray, validate_basis)


def rand_quaternion(rng, scale=1.0):
    return Quaternion.from_vec(rng.normal(scale=scale, size=4))


def rand_unit(rng):
    v = rng.normal(size=4)
    return Quaternion.from_vec(v / np.linalg.norm(v))


def rand_axis(rng):
    return PureUnit(*rng.normal(size=3))


def rand_basis(rng):
    mu1 = rand_axis(rng)
    while True:
        w = rng.normal(size=3)
        w = w - (w @ mu1.axis_vec()) * mu1.axis_vec()
        if np.linalg.norm(w) > 0.3:
            break
    return validate_basis(mu1, PureUnit(*w))


def general_params(basis=STANDARD_BASIS, sigma2=1.0):
    return GeneralParams(
        sigma2,
        basis.from_coords([0.10, 0.0, 0.15, 0.05]),
        basis.from_coords([0.08, 0.12, 0.0, -0.06]),
        basis.from_coords([-0.05, 0.07, 0.04, 0.0]),
        basis,
    )


def all_class_params(basis=STANDARD_BASIS):
    """One generic, strictly positive definite instance per symmetry class."""
    return {
        "hproper": HProperParams(1.0, basis),
        "mumu": MuMuParams(1.0, 0.3 + 0.1j, 0.2, basis),
        "muone": MuOneParams(1.0, 2.0, 0.5 + 0.3j, basis),
        "onemu": OneMuParams(1.0, 2.0, 0.5 + 0.3j, basis),
        "musame": MuSameParams(1.0, 1.5, 0.2 + 0.1j, -0.1 + 0.3j, basis),
        "general": general_params(basis),
    }


def defining_rotations(tag, basis):
    """The rotation(s) whose invariance defines each class; empty means
    invariance under every rotation."""
    m1, m2 = basis.mu1, basis.mu2
    one = Quaternion(1.0, 0.0, 0.0, 0.0)
    return {
        "mumu": [(m1, m2)],
        "muone": [(m1, one)],
        "onemu": [(one, m1)],
        "musame": [(m1, m1)],
        "hproper": [],
        "general": [],
    }[tag]


def per_sample_moments(x, basis, center=False):
    """Reference estimator by the per-sample definition: sigma2 = mean |q|^2
    and gamma_r = mean q (q^mu_r)*, one Hamilton product per row.

    The package derives the same quantities from the second-moment matrix;
    this is the definition they must agree with.
    """
    x = np.asarray(x, dtype=float)
    if center:
        x = x - x.mean(axis=0)
    sigma2 = float(np.mean(np.sum(x * x, axis=1)))
    gammas = [Quaternion.from_vec(np.mean(
        qarray.mul(x, qarray.conj(qarray.involution(x, mu.to_vec()))), axis=0))
        for mu in basis.axes]
    return sigma2, gammas


def cov_r_from_pair_moments(c11, c22, c12, p11, p22, p12, basis=STANDARD_BASIS):
    """Real-face covariance built directly from the second moments of the
    Cayley-Dickson pair (z1, z2): variances c11, c22, cross-covariance
    c12 = E[z1 z2*], pseudo-moments p11 = E[z1^2], p22 = E[z2^2],
    p12 = E[z1 z2].

    Deliberately independent of the package's face-conversion machinery so it
    can serve as an oracle for it.
    """
    C = np.array([[c11, c12], [np.conj(c12), c22]])
    P = np.array([[p11, p12], [p12, p22]])
    G = np.zeros((4, 4))
    xs, ys = [0, 2], [1, 3]
    for m in range(2):
        for n in range(2):
            G[xs[m], xs[n]] = 0.5 * np.real(C[m, n] + P[m, n])
            G[ys[m], ys[n]] = 0.5 * np.real(C[m, n] - P[m, n])
            G[xs[m], ys[n]] = 0.5 * (np.imag(P[m, n]) - np.imag(C[m, n]))
            G[ys[m], xs[n]] = 0.5 * (np.imag(P[m, n]) + np.imag(C[m, n]))
    F = basis.frame
    return F @ G @ F.T


# Expected complex-face matrices, hard-coded entry by entry. Two entries of
# the mumu pattern are corrected relative to their commonly printed form: the
# conjugation must sit on (4,3), not (3,4), or the class loses its defining
# rotation invariance (see tests that assert that invariance).

def pattern_mumu(s2, alpha, delta):
    a, ac, w = alpha, np.conj(alpha), 1j * delta
    return np.array([
        [s2, a, w, a],
        [ac, s2, ac, -w],
        [-w, a, s2, -a],
        [ac, w, -ac, s2],
    ])


def pattern_muone(s2, v2, omega):
    w, wc = omega, np.conj(omega)
    return np.array([
        [s2, 0, w, 0],
        [0, s2, 0, wc],
        [wc, 0, v2, 0],
        [0, w, 0, v2],
    ], dtype=complex)


def pattern_onemu(s2, v2, omega):
    w, wc = omega, np.conj(omega)
    return np.array([
        [s2, 0, 0, w],
        [0, s2, wc, 0],
        [0, w, v2, 0],
        [wc, 0, 0, v2],
    ], dtype=complex)


def pattern_musame(s2, v2, alpha, delta):
    a, ac, d, dc = alpha, np.conj(alpha), delta, np.conj(delta)
    return np.array([
        [s2, a, 0, 0],
        [ac, s2, 0, 0],
        [0, 0, v2, d],
        [0, 0, dc, v2],
    ])


def pattern_hproper(s2):
    return (s2 / 2.0) * np.eye(4, dtype=complex)


def expected_complex_face(tag, params):
    if tag == "mumu":
        return pattern_mumu(params.sigma2, params.alpha, params.delta)
    if tag == "muone":
        return pattern_muone(params.sigma2, params.varsigma2, params.omega)
    if tag == "onemu":
        return pattern_onemu(params.sigma2, params.varsigma2, params.omega)
    if tag == "musame":
        return pattern_musame(params.sigma2, params.varsigma2,
                              params.alpha, params.delta)
    if tag == "hproper":
        return pattern_hproper(params.sigma2)
    raise ValueError(tag)
