"""Shared helpers for the test suite: seeded random objects, class parameter
fixtures, and independent covariance constructions used as oracles."""

import math

import numpy as np

from quatprop import (ATOL, CovarianceC, CovarianceH, CovarianceR, GeneralParams,
                      HProperParams, MuMuParams, MuOneParams, MuSameParams,
                      OneMuParams, PureUnit, Quaternion, STANDARD_BASIS,
                      double_rotation, qarray, validate_basis)
from quatprop.gaussian import quaternion_face_from_gammas


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


# --- reference rule for generate's class-parameter flags --------------------
# The flags each class takes and the kind of value each holds, written out by
# hand, the order in which their presence is checked, and the message of the
# first fault. The command line derives the flags and their kinds from the
# *Params dataclass fields; this is the rule it must keep.

PARAM_FLAG_ORDER = ("sigma2", "varsigma2", "alpha", "delta", "omega",
                    "gamma1", "gamma2", "gamma3")

REFERENCE_CLASS_FLAGS = {
    "mumu": {"sigma2": "real", "alpha": "complex", "delta": "real"},
    "muone": {"sigma2": "real", "varsigma2": "real", "omega": "complex"},
    "onemu": {"sigma2": "real", "varsigma2": "real", "omega": "complex"},
    "musame": {"sigma2": "real", "varsigma2": "real", "alpha": "complex",
               "delta": "complex"},
    "hproper": {"sigma2": "real"},
    "general": {"sigma2": "real", "gamma1": "gamma", "gamma2": "gamma",
                "gamma3": "gamma"},
}


def _reference_flag_value(tag, flag, kind, text):
    """(parsed value, None) or (None, usage message) for one flag."""
    what = f"--{flag}"
    parts = text.split(",")
    if kind == "gamma" and len(parts) != 4:
        return None, f"{what} needs 4 comma-separated values, got {text!r}"
    if kind != "gamma" and len(parts) > 2:
        return None, f"{what} must be 're' or 're,im', got {text!r}"
    try:
        values = [float(p) for p in parts]
    except ValueError:
        return None, f"{what} has a non-numeric value in {text!r}"
    if not all(math.isfinite(v) for v in values):
        return None, f"{what} has a non-finite value in {text!r}"
    if kind == "gamma":
        return values, None
    re, im = values if len(values) == 2 else (values[0], 0.0)
    if kind == "complex":
        return [re, im], None
    if im != 0.0:
        return None, f"{what} must be real for class {tag}"
    return re, None


def generate_params_reference(tag, flags, basis=STANDARD_BASIS):
    """What `quatprop generate --class tag` makes of the class-parameter
    flags in `flags` (flag -> text): the usage message of the first fault,
    or else the param_dict of the parameters it builds."""
    kinds = REFERENCE_CLASS_FLAGS[tag]
    for flag in PARAM_FLAG_ORDER:
        if flag in kinds and flag not in flags:
            return f"class {tag} requires --{flag}"
        if flag not in kinds and flag in flags:
            return f"class {tag} does not take --{flag}"
    out = {}
    for flag, kind in kinds.items():
        value, message = _reference_flag_value(tag, flag, kind, flags[flag])
        if message is not None:
            return message
        out[flag] = value
    for idx in (1, 2, 3) if tag == "general" else ():
        gamma = basis.from_coords(out[f"gamma{idx}"])
        coords = basis.to_coords(gamma)
        if abs(coords[idx]) > ATOL * max(1.0, abs(gamma)):
            return (f"gamma{idx} must have no component on its own axis "
                    f"(found {coords[idx]:.3e})")
        out[f"gamma{idx}"] = list(coords)
    return out


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


def classify_reference(x, basis, c, center=False):
    """Reference for classify's scores and choice, one double_rotation
    matrix per candidate: the 16 (label, residual) pairs in report order and
    the chosen label. Residuals are max-abs defects M S M^T - S over sigma2,
    with hproper scored by max |gamma_r| / sigma2 and general by 0."""
    x = np.asarray(x, dtype=float)
    if center:
        x = x - x.mean(axis=0)
    s = x.T @ x / x.shape[0]
    sigma2 = float(np.trace(s))
    _, gammas = per_sample_moments(x, basis)
    one = Quaternion(1.0, 0.0, 0.0, 0.0)
    ax = basis.axes

    def rotation(tag, axes, u, v):
        m = double_rotation(u, v).matrix
        return (tag, axes), float(np.abs(m @ s @ m.T - s).max() / sigma2)

    tiers = [
        [(("hproper", ()), max(g.modulus() for g in gammas) / sigma2)],
        [rotation("mumu", (i, j), ax[i], ax[j])
         for i in range(3) for j in range(3) if i != j]
        + [rotation("musame", (i,), ax[i], ax[i]) for i in range(3)],
        [rotation("muone", (i,), ax[i], one) for i in range(3)]
        + [rotation("onemu", (i,), one, ax[i]) for i in range(3)],
    ]
    tol = c / math.sqrt(x.shape[0])
    chosen = ("general", ())
    for tier in tiers:
        passing = [cand for cand in tier if cand[1] < tol]
        if passing:
            chosen = min(passing, key=lambda cand: cand[1])[0]
            break
    return [cand for tier in tiers for cand in tier] + [(("general", ()), 0.0)], chosen


# --- reference face conversions ---------------------------------------------
# The quaternion-matrix route: products of 4x4 quaternion matrices, one
# qarray.mul per term. The package maps every face through the real face S
# instead; these are the conversions it must agree with.

def _qm_mul(A, B):
    """Product of quaternion matrices stored as (n, m, 4) arrays."""
    out = np.zeros((A.shape[0], B.shape[1], 4))
    for k in range(A.shape[1]):
        out += qarray.mul(A[:, k:k + 1, :], B[k:k + 1, :, :])
    return out


def _qm_dagger(A):
    return qarray.conj(np.swapaxes(A, 0, 1))


def _involution_stack(basis):
    """T with (q, q^mu1, q^mu2, q^mu3) = T q_vec."""
    units = np.eye(4)
    return np.array([units] + [qarray.involution(units, mu.to_vec())
                               for mu in basis.axes])


def _complex_projection(basis):
    """M with (z1, z1*, z2, z2*) = M (q, q^mu1, q^mu2, q^mu3)."""
    one = 0.5 * np.array([1.0, 0.0, 0.0, 0.0])
    m2 = 0.5 * basis.mu2.to_vec()
    zero = np.zeros(4)
    return np.array([
        [one, one, zero, zero],
        [zero, zero, one, one],
        [zero, zero, -m2, m2],
        [-m2, m2, zero, zero],
    ])


def quaternion_face_map_reference(basis):
    """K[r, s, a, b] = e_a^mu_r (e_b^mu_s)*, built afresh by one qarray.mul."""
    T = _involution_stack(basis)
    return qarray.mul(T[:, None, :, None, :], qarray.conj(T[None, :, None, :, :]))


def real_to_quaternion_reference(gr, basis):
    T = _involution_stack(basis)
    gq = np.zeros((4, 4, 4))
    gq[:, :, 0] = gr
    return _qm_mul(_qm_mul(T, gq), _qm_dagger(T))


def quaternion_to_real_unchecked(gh, basis):
    """T^H gh T / 16, a quaternion matrix that is real exactly when gh is a
    quaternion face of a real matrix."""
    T = _involution_stack(basis)
    return _qm_mul(_qm_mul(_qm_dagger(T), gh), T) / 16.0


def _quaternion_to_real(gh, basis):
    out = quaternion_to_real_unchecked(gh, basis)
    imag = np.max(np.abs(out[:, :, 1:]))
    scale = max(np.max(np.abs(out[:, :, 0])), 1.0)
    if imag > 1e-9 * scale:
        raise ValueError(f"not a valid quaternion-face covariance (imaginary residual {imag:.3e})")
    g = out[:, :, 0]
    return (g + g.T) / 2.0


def _quaternion_to_complex(gh, basis):
    M = _complex_projection(basis)
    gq = _qm_mul(_qm_mul(M, gh), _qm_dagger(M))
    coords = np.einsum("ab,ijb->ija", basis.frame.T, gq)
    stray = np.max(np.abs(coords[:, :, 2:]))
    scale = max(np.max(np.abs(coords[:, :, :2])), 1.0)
    if stray > 1e-9 * scale:
        raise ValueError(f"not a valid quaternion-face covariance (subfield residual {stray:.3e})")
    return coords[:, :, 0] + 1j * coords[:, :, 1]


def complex_to_quaternion_reference(gc, basis):
    M = _complex_projection(basis)
    lift = (gc.real[:, :, None] * np.array([1.0, 0.0, 0.0, 0.0])
            + gc.imag[:, :, None] * basis.mu1.to_vec())
    return 4.0 * _qm_mul(_qm_mul(_qm_dagger(M), lift), M)


def convert_reference(cov, to):
    """Reference for quatprop.convert along the quaternion-matrix route."""
    basis = cov.basis
    if isinstance(cov, CovarianceR):
        if to == "real":
            return cov
        gh = real_to_quaternion_reference(cov.matrix, basis)
        if to == "quaternion":
            return CovarianceH(gh, basis)
        return CovarianceC(_quaternion_to_complex(gh, basis), basis)
    if isinstance(cov, CovarianceH):
        if to == "quaternion":
            return cov
        if to == "real":
            return CovarianceR(_quaternion_to_real(cov.matrix, basis), basis)
        return CovarianceC(_quaternion_to_complex(cov.matrix, basis), basis)
    if to == "complex":
        return cov
    gh = complex_to_quaternion_reference(cov.matrix, basis)
    if to == "quaternion":
        return CovarianceH(gh, basis)
    return CovarianceR(_quaternion_to_real(gh, basis), basis)


def faces_reference(params):
    """Reference (complex, real, quaternion) faces of a class: the hard-coded
    complex pattern (or, for general, the quaternion template) carried to the
    other faces by convert_reference."""
    tag = params.tag.value
    if tag == "general":
        h = quaternion_face_from_gammas(params.sigma2, params.gamma1,
                                        params.gamma2, params.gamma3, params.basis)
        c = convert_reference(h, "complex")
    else:
        c = CovarianceC(expected_complex_face(tag, params), params.basis)
        h = convert_reference(c, "quaternion")
    return c, convert_reference(h, "real"), h


# --- one-shot n-row kernels ---------------------------------------------------
# sample, gaussian_pdf and DoubleRotation.apply_rows as whole-array
# expressions; the package runs them over row blocks and must match these
# bit for bit.

def sample_reference(g, n, seed):
    """n draws with real-face covariance g: one standard normal (n, 4) array
    times the Cholesky factor's transpose, or, for a singular g, the
    eigenvalue factor's."""
    g = (g + g.T) / 2.0
    try:
        factor = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(g)
        factor = v @ np.diag(np.sqrt(np.clip(w, 0.0, None)))
    return np.random.default_rng(seed).standard_normal((n, 4)) @ factor.T


def gaussian_pdf_reference(x, g):
    """The centred normal density with covariance g at every component
    vector of an (..., 4) array, in one whitening product."""
    w, v = np.linalg.eigh((g + g.T) / 2.0)
    y = np.asarray(x, dtype=float) @ (v / np.sqrt(w))
    quad = np.einsum("...i,...i->...", y, y)
    norm = 1.0 / ((2.0 * np.pi) ** 2 * np.sqrt(np.prod(w)))
    return norm * np.exp(-0.5 * quad)


def log_density_reference(x, g):
    """The logarithm of the centred normal density with covariance g at
    every row of an (n, 4) array, from a Cholesky factor L of g rather than
    from eigenvalues: -2 log(2 pi) - sum log diag(L) - |L^-1 x|^2 / 2. Only
    logarithms are formed, so it holds at any scale of g."""
    chol = np.linalg.cholesky(g)
    y = np.linalg.solve(chol, np.asarray(x, dtype=float).T)
    return (-2.0 * math.log(2.0 * math.pi) - np.log(np.diag(chol)).sum()
            - 0.5 * np.einsum("ij,ij->j", y, y))


def apply_rows_reference(rotation, rows):
    """u*q*v of every row of an (..., 4) array, in two whole-array
    products."""
    return qarray.mul(rotation.u.to_vec(),
                      qarray.mul(rows, rotation.v.to_vec()))


# Doubles a CSV writer must get right: negative zero, the smallest subnormal
# and the largest finite values.
EDGE_DOUBLES = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]


def write_sample_csv_reference(path, rows, header="a,b,c,d"):
    """Reference sample CSV writer, one format(v, ".17g") per value; the
    package's block writer must match its output byte for byte."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for row in np.asarray(rows, dtype=float):
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")


def read_sample_csv_reference(path):
    """Reference sample CSV reader, one float() per field: the files it
    accepts, the arrays it returns and its messages are the package's."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "a,b,c,d":
            raise ValueError(f"line 1: expected header 'a,b,c,d', got {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: expected 4 fields, got {len(parts)}")
            try:
                rows.append([float(p) for p in parts])
            except ValueError:
                raise ValueError(f"line {lineno}: non-numeric field in {line!r}") from None
    if not rows:
        raise ValueError("no sample rows found")
    data = np.array(rows)
    if not np.isfinite(data).all():
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if lineno > 1 and line and not np.isfinite(
                        [float(p) for p in line.split(",")]).all():
                    raise ValueError(f"line {lineno}: non-finite field in {line!r}")
    return data


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
