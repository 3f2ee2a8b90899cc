"""Structured covariances of quaternion Gaussian symmetry classes, the three
covariance representations and their conversions, sampling, and densities.

A centered quaternion Gaussian variable q = z1 + z2*mu2 (Cayley-Dickson split
along a basis {1, mu1, mu2, mu3}) can be summarised on three equivalent faces:

* real face: the 4x4 covariance of the components (a, b, c, d);
* complex face: the 4x4 Hermitian covariance of (z1, z1*, z2, z2*), with
  entries in the complex subfield spanned by {1, mu1};
* quaternion face: the 4x4 quaternion Hermitian covariance of
  (q, q^mu1, q^mu2, q^mu3), where q^mu is the involution about mu.

Each symmetry class (invariance of the distribution under a fixed double
rotation q -> u*q*v with axes from the basis) pins a sparse pattern on the
complex face; those patterns are constructed here from the class's moment
constraints and converted exactly onto the other faces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import ClassVar, NamedTuple, Optional

import numpy as np

from . import qarray
from .core import ATOL, ONE, Quaternion, QuaternionBasis, STANDARD_BASIS

# Estimated or constructed covariances may dip this far below zero before we
# call them indefinite.
PSD_FLOOR = -1e-10

_TWO_PI_SQ = (2.0 * np.pi) ** 2


class PropernessTag(str, Enum):
    GENERAL = "general"
    MU_MU = "mumu"
    MU_ONE = "muone"
    ONE_MU = "onemu"
    MU_SAME = "musame"
    H_PROPER = "hproper"


# ---------------------------------------------------------------------------
# class parameterisations


@dataclass(frozen=True)
class MuMuParams:
    """Invariance under q -> mu1*q*mu2.

    sigma2 is the common variance of the two Cayley-Dickson halves,
    alpha = E[z1^2] = E[z1 z2] = -E[z2^2], and the cross-covariance is
    purely imaginary: E[z1 z2*] = mu1*delta.
    """

    sigma2: float
    alpha: complex
    delta: float
    basis: QuaternionBasis = STANDARD_BASIS

    tag: ClassVar[PropernessTag] = PropernessTag.MU_MU

    def param_dict(self):
        return {"sigma2": self.sigma2,
                "alpha": [self.alpha.real, self.alpha.imag],
                "delta": self.delta}


@dataclass(frozen=True)
class MuOneParams:
    """Invariance under q -> mu1*q: a correlated pair of proper halves,
    omega = E[z1 z2*]."""

    sigma2: float
    varsigma2: float
    omega: complex
    basis: QuaternionBasis = STANDARD_BASIS

    tag: ClassVar[PropernessTag] = PropernessTag.MU_ONE

    def param_dict(self):
        return {"sigma2": self.sigma2, "varsigma2": self.varsigma2,
                "omega": [self.omega.real, self.omega.imag]}


@dataclass(frozen=True)
class OneMuParams:
    """Invariance under q -> q*mu1: a pseudo-correlated pair of proper
    halves, omega = E[z1 z2]."""

    sigma2: float
    varsigma2: float
    omega: complex
    basis: QuaternionBasis = STANDARD_BASIS

    tag: ClassVar[PropernessTag] = PropernessTag.ONE_MU

    def param_dict(self):
        return {"sigma2": self.sigma2, "varsigma2": self.varsigma2,
                "omega": [self.omega.real, self.omega.imag]}


@dataclass(frozen=True)
class MuSameParams:
    """Invariance under q -> mu1*q*mu1: two uncorrelated improper halves
    with pseudo-variances alpha = E[z1^2] and delta = E[z2^2]."""

    sigma2: float
    varsigma2: float
    alpha: complex
    delta: complex
    basis: QuaternionBasis = STANDARD_BASIS

    tag: ClassVar[PropernessTag] = PropernessTag.MU_SAME

    def param_dict(self):
        return {"sigma2": self.sigma2, "varsigma2": self.varsigma2,
                "alpha": [self.alpha.real, self.alpha.imag],
                "delta": [self.delta.real, self.delta.imag]}


@dataclass(frozen=True)
class HProperParams:
    """Invariance under every 4D rotation; sigma2 is the total variance
    E[|q|^2]."""

    sigma2: float
    basis: QuaternionBasis = STANDARD_BASIS

    tag: ClassVar[PropernessTag] = PropernessTag.H_PROPER

    def param_dict(self):
        return {"sigma2": self.sigma2}


@dataclass(frozen=True)
class GeneralParams:
    """Unconstrained covariance: total variance sigma2 = E[|q|^2] plus the
    three complementary covariances, each a degenerate quaternion missing the
    component along its own involution axis.
    """

    sigma2: float
    gamma1: Quaternion
    gamma2: Quaternion
    gamma3: Quaternion
    basis: QuaternionBasis = STANDARD_BASIS

    tag: ClassVar[PropernessTag] = PropernessTag.GENERAL

    def __post_init__(self):
        for idx, g in ((1, self.gamma1), (2, self.gamma2), (3, self.gamma3)):
            coord = self.basis.to_coords(g)[idx]
            if abs(coord) > ATOL:
                raise ValueError(
                    f"gamma{idx} must have no component on its own axis "
                    f"(found {coord:.3e})")

    def param_dict(self):
        return {"sigma2": self.sigma2,
                "gamma1": list(self.basis.to_coords(self.gamma1)),
                "gamma2": list(self.basis.to_coords(self.gamma2)),
                "gamma3": list(self.basis.to_coords(self.gamma3))}


ClassParams = (MuMuParams, MuOneParams, OneMuParams, MuSameParams,
               HProperParams, GeneralParams)


# ---------------------------------------------------------------------------
# covariance faces


@dataclass(frozen=True)
class CovarianceR:
    """Real-face covariance: 4x4 symmetric matrix over components (a,b,c,d)."""

    matrix: np.ndarray
    basis: QuaternionBasis = STANDARD_BASIS

    def as_dict(self):
        return {"face": "real", "matrix": self.matrix.tolist(),
                "basis": _basis_dict(self.basis)}


@dataclass(frozen=True)
class CovarianceC:
    """Complex-face covariance of (z1, z1*, z2, z2*); an entry x + 1j*y
    stands for x + y*mu1."""

    matrix: np.ndarray
    basis: QuaternionBasis = STANDARD_BASIS

    def as_dict(self):
        return {"face": "complex", "real": self.matrix.real.tolist(),
                "imag": self.matrix.imag.tolist(),
                "basis": _basis_dict(self.basis)}


@dataclass(frozen=True)
class CovarianceH:
    """Quaternion-face covariance of (q, q^mu1, q^mu2, q^mu3); stored as a
    (4, 4, 4) array whose last axis holds quaternion components."""

    matrix: np.ndarray
    basis: QuaternionBasis = STANDARD_BASIS

    def entry(self, i: int, j: int) -> Quaternion:
        return Quaternion.from_vec(self.matrix[i, j])

    def as_dict(self):
        return {"face": "quaternion", "matrix": self.matrix.tolist(),
                "basis": _basis_dict(self.basis)}


def _basis_dict(basis: QuaternionBasis):
    return {"mu1": list(basis.mu1.axis_vec()),
            "mu2": list(basis.mu2.axis_vec()),
            "mu3": list(basis.mu3.axis_vec())}


class CovarianceFaces(NamedTuple):
    c: CovarianceC
    r: CovarianceR
    h: CovarianceH


# ---------------------------------------------------------------------------
# representation maps and quaternion matrix algebra

def _qm_mul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Product of quaternion matrices stored as (n, m, 4) arrays."""
    n, km = A.shape[0], A.shape[1]
    m = B.shape[1]
    out = np.zeros((n, m, 4))
    for k in range(km):
        # outer product of column k of A with row k of B, quaternion-wise
        a = np.repeat(A[:, k : k + 1, :], m, axis=1)
        b = np.repeat(B[k : k + 1, :, :], n, axis=0)
        out += qarray.mul(a, b)
    return out


def _qm_dagger(A: np.ndarray) -> np.ndarray:
    return qarray.conj(np.swapaxes(A, 0, 1))


def involution_stack(basis: QuaternionBasis) -> np.ndarray:
    """The quaternion matrix T with (q, q^mu1, q^mu2, q^mu3) = T q_vec.

    Row r holds the involutions of the four standard unit quaternions about
    the r-th basis axis (row 0 is the identity), so the map is assembled from
    the involution operation itself rather than transcribed constants.
    """
    units = np.eye(4)
    T = np.empty((4, 4, 4))
    T[0] = units
    for r, mu in enumerate(basis.axes, start=1):
        T[r] = qarray.involution(units, mu.to_vec())
    return T


def complex_projection(basis: QuaternionBasis) -> np.ndarray:
    """The quaternion matrix M with (z1, z1*, z2, z2*) = M (q, q^mu1, q^mu2, q^mu3)."""
    one = 0.5 * ONE.to_vec()
    m2 = 0.5 * basis.mu2.to_vec()
    zero = np.zeros(4)
    return np.array([
        [one, one, zero, zero],
        [zero, zero, one, one],
        [zero, zero, -m2, m2],
        [-m2, m2, zero, zero],
    ])


def _real_to_quaternion(gr: np.ndarray, basis: QuaternionBasis) -> np.ndarray:
    T = involution_stack(basis)
    gq = np.zeros((4, 4, 4))
    gq[:, :, 0] = gr
    return _qm_mul(_qm_mul(T, gq), _qm_dagger(T))


def _quaternion_to_real(gh: np.ndarray, basis: QuaternionBasis) -> np.ndarray:
    T = involution_stack(basis)
    out = _qm_mul(_qm_mul(_qm_dagger(T), gh), T) / 16.0
    imag = np.max(np.abs(out[:, :, 1:]))
    scale = max(np.max(np.abs(out[:, :, 0])), 1.0)
    if imag > 1e-9 * scale:
        raise ValueError("matrix is not a valid quaternion-face covariance "
                         f"for this basis (imaginary residual {imag:.3e})")
    g = out[:, :, 0]
    return (g + g.T) / 2.0


def _quaternion_to_complex(gh: np.ndarray, basis: QuaternionBasis) -> np.ndarray:
    M = complex_projection(basis)
    gq = _qm_mul(_qm_mul(M, gh), _qm_dagger(M))
    coords = np.einsum("ab,ijb->ija", basis.frame.T, gq)
    stray = np.max(np.abs(coords[:, :, 2:]))
    scale = max(np.max(np.abs(coords[:, :, :2])), 1.0)
    if stray > 1e-9 * scale:
        raise ValueError("matrix is not a valid quaternion-face covariance "
                         f"for this basis (subfield residual {stray:.3e})")
    return coords[:, :, 0] + 1j * coords[:, :, 1]


def _complex_to_quaternion(gc: np.ndarray, basis: QuaternionBasis) -> np.ndarray:
    M = complex_projection(basis)
    lift = (gc.real[:, :, None] * ONE.to_vec()
            + gc.imag[:, :, None] * basis.mu1.to_vec())
    return 4.0 * _qm_mul(_qm_mul(_qm_dagger(M), lift), M)


def convert(cov, to: str):
    """Change a covariance to another face ("real", "complex", "quaternion")."""
    if to not in ("real", "complex", "quaternion"):
        raise ValueError(f"unknown face {to!r}")
    basis = cov.basis
    if isinstance(cov, CovarianceR):
        if to == "real":
            return cov
        gh = _real_to_quaternion(cov.matrix, basis)
        if to == "quaternion":
            return CovarianceH(gh, basis)
        return CovarianceC(_quaternion_to_complex(gh, basis), basis)
    if isinstance(cov, CovarianceH):
        if to == "quaternion":
            return cov
        if to == "real":
            return CovarianceR(_quaternion_to_real(cov.matrix, basis), basis)
        return CovarianceC(_quaternion_to_complex(cov.matrix, basis), basis)
    if isinstance(cov, CovarianceC):
        if to == "complex":
            return cov
        gh = _complex_to_quaternion(cov.matrix, basis)
        if to == "quaternion":
            return CovarianceH(gh, basis)
        return CovarianceR(_quaternion_to_real(gh, basis), basis)
    raise TypeError(f"not a covariance face: {type(cov).__name__}")


def quaternion_face_from_gammas(sigma2: float, gamma1: Quaternion,
                                gamma2: Quaternion, gamma3: Quaternion,
                                basis: QuaternionBasis) -> CovarianceH:
    """Fill the quaternion face from its first row (sigma2, gamma1..3).

    The remaining entries are fixed by the Hermitian symmetry and the
    involution identities of the face, e.g. entry (2,3) is gamma3 involved
    about mu1. These identities hold sample-wise, so the same template serves
    exact construction and estimation.
    """
    m1, m2 = basis.mu1, basis.mu2
    g2i = gamma2.involution(m1)
    g3i = gamma3.involution(m1)
    g1i = gamma1.involution(m2)
    s = Quaternion(sigma2, 0.0, 0.0, 0.0)
    rows = [
        [s, gamma1, gamma2, gamma3],
        [gamma1.conj(), s, g3i, g2i],
        [gamma2.conj(), g3i.conj(), s, g1i],
        [gamma3.conj(), g2i.conj(), g1i.conj(), s],
    ]
    mat = np.array([[q.to_vec() for q in row] for row in rows])
    return CovarianceH(mat, basis)


# ---------------------------------------------------------------------------
# construction from class parameters

def _complex_face_from_moments(c11, c22, c12, p11, p22, p12) -> np.ndarray:
    """Hermitian covariance of (z1, z1*, z2, z2*) from the pair's second
    moments: variances c11, c22, cross-covariance c12 = E[z1 z2*] and
    pseudo-(co)variances p11 = E[z1^2], p22 = E[z2^2], p12 = E[z1 z2]."""
    c11, c22 = complex(c11), complex(c22)
    c12, p11, p22, p12 = complex(c12), complex(p11), complex(p22), complex(p12)
    cj = np.conj
    return np.array([
        [c11,      p11,     c12,      p12],
        [cj(p11),  c11,     cj(p12),  cj(c12)],
        [cj(c12),  p12,     c22,      p22],
        [cj(p12),  c12,     cj(p22),  c22],
    ])


def _moments_for(params):
    tag = params.tag
    if tag is PropernessTag.MU_MU:
        return (params.sigma2, params.sigma2, 1j * params.delta,
                params.alpha, -params.alpha, params.alpha)
    if tag is PropernessTag.MU_ONE:
        return (params.sigma2, params.varsigma2, params.omega, 0.0, 0.0, 0.0)
    if tag is PropernessTag.ONE_MU:
        return (params.sigma2, params.varsigma2, 0.0, 0.0, 0.0, params.omega)
    if tag is PropernessTag.MU_SAME:
        return (params.sigma2, params.varsigma2, 0.0,
                params.alpha, params.delta, 0.0)
    if tag is PropernessTag.H_PROPER:
        half = params.sigma2 / 2.0
        return (half, half, 0.0, 0.0, 0.0, 0.0)
    raise ValueError(f"no complex-face moments for class {tag}")


def covariance_from_params(params) -> CovarianceFaces:
    """Build all three covariance faces for a symmetry class.

    Parameters whose real-face covariance is indefinite are rejected, with
    the most negative eigenvalue reported.
    """
    basis = params.basis
    if params.tag is PropernessTag.GENERAL:
        h = quaternion_face_from_gammas(params.sigma2, params.gamma1,
                                        params.gamma2, params.gamma3, basis)
        c = CovarianceC(_quaternion_to_complex(h.matrix, basis), basis)
    else:
        c = CovarianceC(_complex_face_from_moments(*_moments_for(params)), basis)
        h = CovarianceH(_complex_to_quaternion(c.matrix, basis), basis)
    gr = _quaternion_to_real(h.matrix, basis)
    lam_min = float(np.linalg.eigvalsh(gr).min())
    if lam_min < PSD_FLOOR:
        raise ValueError("parameters give an indefinite covariance: "
                         f"min eigenvalue {lam_min:.6e}")
    return CovarianceFaces(c, CovarianceR(gr, basis), h)


# ---------------------------------------------------------------------------
# sampling

@dataclass(frozen=True)
class SampleSet:
    """Draws of a quaternion variable, one (a, b, c, d) row per draw, plus
    the metadata of the generator that produced them."""

    data: np.ndarray
    seed: int
    basis: Optional[QuaternionBasis] = None
    class_tag: Optional[str] = None
    params: Optional[dict] = None

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2 or data.shape[1] != 4 or data.shape[0] < 1:
            raise ValueError(f"sample array must be (n >= 1, 4), got {data.shape}")
        object.__setattr__(self, "data", data)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    def metadata_dict(self):
        meta = {"n": self.n, "seed": self.seed,
                "class": self.class_tag, "params": self.params}
        meta["axes"] = _basis_dict(self.basis) if self.basis is not None else None
        return meta

    def save(self, csv_path, meta_path=None):
        write_sample_csv(csv_path, self.data)
        if meta_path is not None:
            with open(meta_path, "w", encoding="utf-8") as fh:
                json.dump(self.metadata_dict(), fh, indent=2, sort_keys=True)
                fh.write("\n")


def write_sample_csv(path, rows: np.ndarray, header: str = "a,b,c,d"):
    """CSV with full double precision and LF line endings."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for row in np.asarray(rows, dtype=float):
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")


def read_sample_csv(path) -> np.ndarray:
    """Read a sample CSV, reporting the 1-based line number of a bad row."""
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
        # the line number is looked up only on this failure path
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if lineno > 1 and line and not np.isfinite(
                        [float(p) for p in line.split(",")]).all():
                    raise ValueError(f"line {lineno}: non-finite field in {line!r}")
    return data


def sample(cov: CovarianceR, n: int, seed: int, basis=None,
           class_tag=None, params=None) -> SampleSet:
    """Draw n centred Gaussian quaternions with the given real-face covariance.

    Identical (seed, n, covariance) give bit-identical output. The factor is
    Cholesky when the matrix is positive definite, otherwise an eigenvalue
    factorisation with negative eigenvalues clipped at zero, so semidefinite
    boundary cases (perfectly correlated planes) sample cleanly.
    """
    if n < 1:
        raise ValueError("need at least one draw")
    g = np.asarray(cov.matrix, dtype=float)
    g = (g + g.T) / 2.0
    lam_min = float(np.linalg.eigvalsh(g).min())
    if lam_min < PSD_FLOOR:
        raise ValueError(f"covariance is indefinite: min eigenvalue {lam_min:.6e}")
    try:
        factor = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(g)
        factor = v @ np.diag(np.sqrt(np.clip(w, 0.0, None)))
    z = np.random.default_rng(seed).standard_normal((n, 4))
    return SampleSet(z @ factor.T, seed=seed, basis=basis or cov.basis,
                     class_tag=class_tag, params=params)


# ---------------------------------------------------------------------------
# densities

def gaussian_pdf(q, cov: CovarianceR):
    """Density of the centred 4-variate normal with the given covariance,
    evaluated at a Quaternion or an (..., 4) array of component vectors.

    One eigendecomposition g = V diag(w) V^T serves every row: the quadratic
    form is |x V diag(w)^-1/2|^2 and the normaliser comes from prod(w).
    """
    g = (cov.matrix + cov.matrix.T) / 2.0
    w, v = np.linalg.eigh(g)
    if w.min() <= 0.0:
        raise ValueError(f"covariance is singular: min eigenvalue {w.min():.6e}")
    x = q.to_vec() if isinstance(q, Quaternion) else np.asarray(q, dtype=float)
    y = x @ (v / np.sqrt(w))
    quad = np.einsum("...i,...i->...", y, y)
    norm = 1.0 / (_TWO_PI_SQ * np.sqrt(np.prod(w)))
    out = norm * np.exp(-0.5 * quad)
    return float(out) if out.ndim == 0 else out


def pdf_1mu_proper(q: Quaternion, sigma2: float, gamma_1j: Quaternion,
                   basis: QuaternionBasis = STANDARD_BASIS) -> float:
    """Density of a variable invariant under right multiplication by the
    basis axis mu2 (for the standard basis: by j).

    sigma2 is the total variance E[|q|^2]; gamma_1j = E[q (q^mu2)*] is the one
    complementary covariance the class retains, and must have no mu2
    component. The quadratic form is evaluated with quaternion products only;
    the real-face covariance has eigenvalues (sigma2 +- |gamma_1j|)/4, each
    twice, so the square root of its determinant is
    (sigma2^2 - |gamma_1j|^2)/16.
    """
    nu = basis.mu2
    if abs(basis.to_coords(gamma_1j)[2]) > 1e-9:
        raise ValueError("gamma_1j must have no component along the properness axis")
    if not sigma2 > 0.0:
        raise ValueError(f"degenerate parameters: sigma2 = {sigma2:.6e}")
    denom = sigma2 * sigma2 - gamma_1j.modulus2()
    if not denom > 0.0:
        raise ValueError(f"degenerate parameters: sigma2^2 - |gamma|^2 = {denom:.6e}")
    cross = (q.conj() * gamma_1j * q.involution(nu)).a
    kernel = -(2.0 * sigma2 * q.modulus2() - 2.0 * cross) / denom
    return float(np.exp(kernel) * 16.0 / (_TWO_PI_SQ * denom))
