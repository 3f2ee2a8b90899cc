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

from .core import ONE, Quaternion, QuaternionBasis
from .gaussian import (CovarianceR, PropernessTag, convert,
                       quaternion_face_from_gammas, quaternion_face_map)
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


@np.errstate(over="ignore", invalid="ignore")
def _moments(x: np.ndarray, basis: QuaternionBasis, center: bool):
    """The second moment S = X^T X / n of the (optionally mean-centred) rows,
    and sigma2 = tr S, gamma_r = sum_ab S_ab e_a (e_b^mu_r)* derived from it.

    The coefficients e_a (e_b^mu_r)* are row 0 of the quaternion-face map.
    The component of gamma_r along mu_r has an antisymmetric coefficient
    matrix, so it cancels against the symmetric S up to roundoff. Huge
    sample values raise ValueError, not numpy warnings, when they make S,
    sigma2 or a gamma infinite.
    """
    n = x.shape[0]
    if center:
        x = x - x.mean(axis=0)
    s = (x.T @ x) / n
    gammas = np.einsum("ab,rabc->rc", s, quaternion_face_map(basis)[0, 1:])
    sigma2 = float(np.trace(s))
    if not (np.isfinite(s).all() and math.isfinite(sigma2)
            and np.isfinite(gammas).all()):
        raise ValueError("second moments are not finite: sample values too large")
    cc = ComplementaryCovariances(sigma2,
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
    complex face is the fixed linear map of S (see convert).
    """
    x = _as_rows(samples)
    n = x.shape[0]
    if n < 5:
        raise ValueError("need at least 5 samples")
    s, cc = _moments(x, basis, center)
    gh = quaternion_face_from_gammas(cc.sigma2, *cc.gammas, basis)
    gr = CovarianceR(s, basis)
    return gh, convert(gr, "complex"), gr


def _rotation_defect(s: np.ndarray, u: Quaternion, v: Quaternion) -> np.ndarray:
    """M S M^T - S for the rotation matrix M of q -> u*q*v: zero exactly
    when the rotation leaves the covariance S fixed."""
    m = double_rotation(u, v).matrix
    return m @ s @ m.T - s


def symmetry_residual(cov: CovarianceR, u: Quaternion, v: Quaternion) -> float:
    """Relative Frobenius defect of the covariance under the rotation (u, v)."""
    g = np.asarray(cov.matrix, dtype=float)
    scale = float(np.linalg.norm(g))
    if scale == 0.0:
        raise ValueError("zero covariance has no symmetry residual")
    return float(np.linalg.norm(_rotation_defect(g, u, v)) / scale)


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
        return self._label([axis_name(a) for a in basis.axes])

    def _label(self, axis_names) -> str:
        names = ",".join(axis_names[i] for i in self.axis_indices)
        return f"{self.tag.value}({names})" if names else self.tag.value


@dataclass(frozen=True)
class PropernessReport:
    """Residual scores for every candidate class plus the chosen one: the
    first class, in the fixed policy order hproper, pair rotations (mumu,
    musame), one-sided rotations (muone, onemu), general, whose residual
    clears the tolerance (the smallest residual inside a tier)."""

    candidates: tuple
    chosen: Candidate
    tolerance: float
    n: int
    basis: QuaternionBasis
    complementary: ComplementaryCovariances

    def to_dict(self):
        axis_names = [axis_name(a) for a in self.basis.axes]

        def cand_dict(cand):
            return {"class": cand.tag.value,
                    "axes": [list(a.axis_vec()) for a in cand.axes(self.basis)],
                    "label": cand._label(axis_names),
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
    the standard axes, otherwise its 3-vector.

    An axis matches a unit vector u when |v - u| <= 1e-9 + 1e-5 |u| for every
    component, the rule of np.allclose(v, u, atol=1e-9).
    """
    vec = (mu.b, mu.c, mu.d)
    for axis, name in enumerate("ijk"):
        for sign, prefix in ((1.0, ""), (-1.0, "-")):
            unit = [sign if a == axis else 0.0 for a in range(3)]
            if all(abs(v - u) <= 1e-9 + 1e-5 * abs(u) for v, u in zip(vec, unit)):
                return prefix + name
    return "(" + ",".join(format(v, ".3g") for v in vec) + ")"


# candidate tiers in a fixed policy order, hproper, pair rotations, one-sided
# rotations, which is not by fixed-space dimension (6 for a pair, 4 for a
# one-sided rotation); ties inside a tier go to the smaller residual
_TIER_MU_PAIRS = [(i, j) for i in range(3) for j in range(3) if i != j]


@np.errstate(over="ignore", invalid="ignore")
def classify(samples, basis: QuaternionBasis, c: float = 5.0,
             center: bool = False) -> PropernessReport:
    """Classify the symmetry class of a sample at tolerance c/sqrt(n).

    Candidate rotations range over the basis axes: left factors (mu, 1),
    right factors (1, mu), distinct pairs (mu, nu) and equal pairs (mu, mu),
    plus the fully rotation-invariant hypothesis that every complementary
    covariance vanishes. Residuals are per-entry defects relative to the
    estimated total variance, so one c/sqrt(n) threshold covers both the
    rotation tests and the vanishing-covariance test. All residuals come
    from the second moment S; a ValueError is raised when S, the total
    variance or a residual is not finite.
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
        return float(np.abs(_rotation_defect(s, u, v)).max() / cc.sigma2)

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
    # S is finite (see _moments), but |gamma|^2 or a defect can overflow
    if not all(math.isfinite(cand.residual) for cand in candidates):
        raise ValueError("second moments are not finite: sample values too large")
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
