"""Estimation of complementary covariances from samples, covariance-face
reconstruction, and classification of the symmetry class via rotation
residuals of the sample covariance.

Every estimate is a fixed linear function of one statistic, the 4x4 second
moment S = X^T X / n of the component rows: sigma2 = tr S and
gamma_r = sum_ab S_ab e_a (e_b^mu_r)*, with e_a the standard units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qarray
from .core import ONE, Quaternion, QuaternionBasis
from .gaussian import (CovarianceR, PropernessTag, convert, involution_stack,
                       quaternion_face_from_gammas)
from .rotations import double_rotation


def _as_rows(samples) -> np.ndarray:
    data = getattr(samples, "data", samples)
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[1] != 4:
        raise ValueError(f"expected an (n, 4) sample array, got {data.shape}")
    return data


@dataclass(frozen=True)
class ComplementaryCovariances:
    """Sample means of |q|^2 and of q (q^mu)* for the three basis axes."""

    sigma2: float
    gamma1: Quaternion
    gamma2: Quaternion
    gamma3: Quaternion
    basis: QuaternionBasis
    n: int

    @property
    def gammas(self):
        return (self.gamma1, self.gamma2, self.gamma3)


def _moments(x: np.ndarray, basis: QuaternionBasis, center: bool):
    """The second moment S = X^T X / n of the (optionally mean-centred) rows,
    and sigma2 = tr S, gamma_r = sum_ab S_ab e_a (e_b^mu_r)* derived from it.

    The component of gamma_r along mu_r has an antisymmetric coefficient
    matrix, so it cancels against the symmetric S up to roundoff.
    """
    n = x.shape[0]
    if center:
        x = x - x.mean(axis=0)
    s = (x.T @ x) / n
    coeffs = qarray.mul(np.eye(4)[None, :, None, :],
                        qarray.conj(involution_stack(basis)[1:, None, :, :]))
    gammas = np.einsum("ab,rabc->rc", s, coeffs)
    cc = ComplementaryCovariances(float(np.trace(s)),
                                  *(Quaternion.from_vec(g) for g in gammas),
                                  basis, n)
    return s, cc


def complementary_covariances(samples, basis: QuaternionBasis,
                              center: bool = False) -> ComplementaryCovariances:
    """Estimate the complementary covariances of a sample from its second
    moment S (see the module docstring).

    Variables are treated as centred by construction; pass center=True to
    subtract the sample mean first (real data).
    """
    x = _as_rows(samples)
    n = x.shape[0]
    if n < 2:
        raise ValueError("need at least 2 samples")
    return _moments(x, basis, center)[1]


def covariance_faces(samples, basis: QuaternionBasis, center: bool = False):
    """Reconstruct (quaternion, complex, real) covariance faces from samples.

    All three come from the second moment S: the real face is S itself, the
    quaternion face is assembled from sigma2 and gamma1..3 of S, and the
    complex face follows from the quaternion face.
    """
    x = _as_rows(samples)
    n = x.shape[0]
    if n < 5:
        raise ValueError("need at least 5 samples")
    s, cc = _moments(x, basis, center)
    gh = quaternion_face_from_gammas(cc.sigma2, *cc.gammas, basis)
    return gh, convert(gh, "complex"), CovarianceR(s, basis)


def symmetry_residual(cov: CovarianceR, u: Quaternion, v: Quaternion) -> float:
    """Relative Frobenius defect of the covariance under the rotation (u, v)."""
    g = np.asarray(cov.matrix, dtype=float)
    scale = float(np.linalg.norm(g))
    if scale == 0.0:
        raise ValueError("zero covariance has no symmetry residual")
    m = double_rotation(u, v).matrix
    return float(np.linalg.norm(m @ g @ m.T - g) / scale)


# ---------------------------------------------------------------------------
# classification

@dataclass(frozen=True)
class Candidate:
    """One symmetry hypothesis: a class tag, the basis-axis indices of its
    rotation, and the residual it leaves on the sample covariance."""

    tag: PropernessTag
    axis_indices: tuple
    residual: float

    def axes(self, basis: QuaternionBasis):
        return tuple(basis.axes[i] for i in self.axis_indices)

    def label(self, basis: QuaternionBasis) -> str:
        names = ",".join(axis_name(a) for a in self.axes(basis))
        return f"{self.tag.value}({names})" if names else self.tag.value


@dataclass(frozen=True)
class PropernessReport:
    """Residual scores for every candidate class plus the chosen one: the
    most specific class whose residual clears the tolerance."""

    candidates: tuple
    chosen: Candidate
    tolerance: float
    n: int
    basis: QuaternionBasis
    complementary: ComplementaryCovariances

    def to_dict(self):
        def cand_dict(cand):
            return {"class": cand.tag.value,
                    "axes": [list(a.axis_vec()) for a in cand.axes(self.basis)],
                    "label": cand.label(self.basis),
                    "residual": cand.residual}

        return {
            "n": self.n,
            "tolerance": self.tolerance,
            "sigma2": self.complementary.sigma2,
            "candidates": [cand_dict(c) for c in self.candidates],
            "chosen": cand_dict(self.chosen),
            "alias": via_class_alias(self),
        }


def axis_name(mu: Quaternion) -> str:
    """Short name of an axis: i, j, k (or their negatives) when it is one of
    the standard axes, otherwise its 3-vector."""
    vec = np.array([mu.b, mu.c, mu.d])
    for name, unit in (("i", [1, 0, 0]), ("j", [0, 1, 0]), ("k", [0, 0, 1])):
        if np.allclose(vec, unit, atol=1e-9):
            return name
        if np.allclose(vec, np.negative(unit), atol=1e-9):
            return "-" + name
    return "(" + ",".join(format(v, ".3g") for v in vec) + ")"


# candidate tiers from most to least specific; ties inside a tier go to the
# smaller residual
_TIER_MU_PAIRS = [(i, j) for i in range(3) for j in range(3) if i != j]


def classify(samples, basis: QuaternionBasis, c: float = 5.0,
             center: bool = False) -> PropernessReport:
    """Classify the symmetry class of a sample at tolerance c/sqrt(n).

    Candidate rotations range over the basis axes: left factors (mu, 1),
    right factors (1, mu), distinct pairs (mu, nu) and equal pairs (mu, mu),
    plus the fully rotation-invariant hypothesis that every complementary
    covariance vanishes. Residuals are per-entry defects relative to the
    estimated total variance, so one c/sqrt(n) threshold covers both the
    rotation tests and the vanishing-covariance test. All residuals come
    from the second moment S.
    """
    if not math.isfinite(c) or c <= 0.0:
        raise ValueError(f"c must be positive and finite, got {c!r}")
    x = _as_rows(samples)
    n = x.shape[0]
    if n < 100:
        raise ValueError("need at least 100 samples to classify")
    s, cc = _moments(x, basis, center)
    if cc.sigma2 <= 0.0:
        raise ValueError("degenerate covariance: zero total variance")
    tol = c / math.sqrt(n)

    h_resid = max(g.modulus() for g in cc.gammas) / cc.sigma2
    one = ONE

    def rot_residual(u, v):
        m = double_rotation(u, v).matrix
        defect = m @ s @ m.T - s
        return float(np.abs(defect).max() / cc.sigma2)

    tier_top = [Candidate(PropernessTag.H_PROPER, (), h_resid)]
    tier_pair = (
        [Candidate(PropernessTag.MU_MU, (i, j),
                   rot_residual(basis.axes[i], basis.axes[j]))
         for i, j in _TIER_MU_PAIRS]
        + [Candidate(PropernessTag.MU_SAME, (i,),
                     rot_residual(basis.axes[i], basis.axes[i]))
           for i in range(3)]
    )
    tier_single = (
        [Candidate(PropernessTag.MU_ONE, (i,), rot_residual(basis.axes[i], one))
         for i in range(3)]
        + [Candidate(PropernessTag.ONE_MU, (i,), rot_residual(one, basis.axes[i]))
           for i in range(3)]
    )
    fallback = Candidate(PropernessTag.GENERAL, (), 0.0)

    chosen = fallback
    for tier in (tier_top, tier_pair, tier_single):
        passing = [cand for cand in tier if cand.residual < tol]
        if passing:
            chosen = min(passing, key=lambda cand: cand.residual)
            break

    candidates = tuple(tier_top + tier_pair + tier_single + [fallback])
    return PropernessReport(candidates, chosen, tol, n, basis, cc)


def via_class_alias(report: PropernessReport) -> str:
    """Map the chosen class onto the earlier vanishing-covariance taxonomy."""
    chosen = report.chosen
    if chosen.tag is PropernessTag.H_PROPER:
        return "H-proper"
    if chosen.tag is PropernessTag.ONE_MU:
        idx = chosen.axis_indices[0]
        gamma = report.complementary.gammas[idx]
        pseudo = gamma.vector_part.modulus() / report.complementary.sigma2
        if pseudo < report.tolerance:
            return "R-proper"
        return f"C^{axis_name(report.basis.axes[idx])}-proper"
    return "outside prior taxonomy"
