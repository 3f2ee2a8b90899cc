"""Estimation of complementary covariances from samples, covariance-face
reconstruction, and classification of the symmetry class via rotation
residuals of the sample covariance.

Every estimate is a fixed linear function of one statistic, the 4x4 second
moment S = X^T X / n of the component rows. Its quaternion face H, formed
once per call by gaussian._quaternion_face, holds the complementary
covariances in row 0: sigma2 = H[0, 0, 0] = tr S and gamma_r = H[0, r].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qarray
from .core import ONE, Quaternion, QuaternionBasis
from .gaussian import (CovarianceR, MuMuParams, MuOneParams, MuSameParams,
                       OneMuParams, PropernessTag, _quaternion_face,
                       convert, covariance_from_params, sample)
from .rotations import double_rotation, left_matrix, right_matrix, unit_factor


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

    @classmethod
    def of_face(cls, h, n: int) -> ComplementaryCovariances:
        """Row 0 of the quaternion face h of an n-sample second moment."""
        return cls(float(h.matrix[0, 0, 0]), h.entry(0, 1), h.entry(0, 2),
                   h.entry(0, 3), h.basis, n)


@np.errstate(over="ignore", invalid="ignore")
def _moments(x: np.ndarray, basis: QuaternionBasis, center: bool):
    """The second moment S = X^T X / n of the (optionally mean-centred) rows
    as a CovarianceR, and its quaternion face, formed from S directly once S
    is finite (S is symmetric by construction). Huge sample values raise
    ValueError, not numpy warnings, when they make S or the face infinite.
    """
    n = x.shape[0]
    if center:
        x = x - x.mean(axis=0)
    s = (x.T @ x) / n
    if not (np.isfinite(s).all()
            and np.isfinite((h := _quaternion_face(s, basis)).matrix).all()):
        raise ValueError("second moments are not finite: sample values too large")
    return CovarianceR(s, basis), h


def complementary_covariances(samples, basis: QuaternionBasis,
                              center: bool = False) -> ComplementaryCovariances:
    """Estimate the complementary covariances of a sample: row 0 of the
    quaternion face of its second moment S (see the module docstring).

    Variables are treated as centred by construction; pass center=True to
    subtract the sample mean first (real data).
    """
    x = qarray.sample_rows(samples, 2)
    return ComplementaryCovariances.of_face(_moments(x, basis, center)[1], len(x))


def covariance_faces(samples, basis: QuaternionBasis, center: bool = False):
    """Reconstruct (quaternion, complex, real) covariance faces from samples.

    All three come from the second moment S: the real face is S, the
    quaternion face the one _moments forms, and the complex face convert of S.
    """
    r, h = _moments(qarray.sample_rows(samples, 5), basis, center)
    return h, convert(r, "complex"), r


def estimator_consistency(params, n: int, seeds):
    """How far covariance_faces lands from a class's exact quaternion face.

    For each seed, n draws with the covariance params fix are estimated
    back; an entry's error is the modulus of its quaternion difference from
    the exact entry. Returns the worst entry error of each seed, in order,
    and the bound 5 sigma2 / sqrt(n) they are held to.
    """
    faces = covariance_from_params(params)
    worst = []
    for seed in seeds:
        gh, _, _ = covariance_faces(sample(faces.r, n, seed), params.basis)
        err = np.sqrt(np.sum((gh.matrix - faces.h.matrix) ** 2, axis=-1))
        worst.append(float(np.max(err)))
    return worst, 5 * params.sigma2 / math.sqrt(n)


def _rotation_residuals(s: np.ndarray, m: np.ndarray, sigma2: float):
    """max |M S M^T - S| / sigma2 for each rotation matrix M of a
    (..., 4, 4) stack: zero exactly when the rotation leaves the
    covariance S fixed."""
    defects = m @ s @ np.swapaxes(m, -1, -2) - s
    return np.abs(defects).max(axis=(-2, -1)) / sigma2


@np.errstate(over="ignore")  # an overflowing trace is reported below
def symmetry_residual(cov: CovarianceR, u: Quaternion, v: Quaternion) -> float:
    """The defect of the covariance S under the rotation (u, v), scored as
    classify scores a candidate: max |M S M^T - S| / tr S.

    A face that _real_face refuses, or whose trace is not positive and
    finite, raises ValueError.
    """
    g = convert(cov, "real").matrix
    sigma2 = float(np.trace(g))
    if not 0.0 < sigma2 < math.inf:
        raise ValueError(f"covariance trace {sigma2:.3e} is not positive and "
                         "finite; no symmetry residual")
    m = double_rotation(u, v).matrix
    return float(_rotation_residuals(g, m, sigma2))


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
    """Residual scores for every candidate class plus the chosen one, by
    the tier policy stated at _TIERS."""

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


# The tier policy, stated once. classify ranks hproper as tier 0, each tier
# of rotation classes below as tiers 1, 2, ..., and general last; it chooses
# the lowest tier holding a residual below the tolerance, the smallest
# residual in it, and the earliest candidate on a tie (general, scored 0,
# always passes). A class's candidates are its rotations (see the *Params
# classes). The order is a policy, not the fixed-space dimension (6 for a
# pair rotation, 4 for a one-sided one).
_TIERS = ((MuMuParams, MuSameParams), (MuOneParams, OneMuParams))

# one row per rotation candidate, in report order: its tier, tag, axis
# indices, and the (u, v) indices of its factors among (mu1, mu2, mu3, 1)
_CANDIDATES = tuple(
    (tier, cls.tag, tuple(dict.fromkeys(i for i in uv if i < 3)), uv)
    for tier, classes in enumerate(_TIERS, 1)
    for cls in classes for uv in cls.rotations)
_ROTATION_U, _ROTATION_V = np.array([row[3] for row in _CANDIDATES]).T


@np.errstate(over="ignore", invalid="ignore")
def classify(samples, basis: QuaternionBasis, c: float = 5.0,
             center: bool = False) -> PropernessReport:
    """Classify the symmetry class of a sample at tolerance c/sqrt(n), by
    the tier policy stated at _TIERS.

    The candidates are every rotation of each class in _TIERS, over the
    basis axes, plus the fully rotation-invariant hypothesis that every
    complementary covariance vanishes. Residuals are per-entry defects
    relative to the estimated total variance, so one c/sqrt(n) threshold
    covers both the rotation tests and the vanishing-covariance test. All
    residuals come from the second moment S; a ValueError is raised when S,
    the total variance or a residual is not finite.
    """
    if not math.isfinite(c) or c <= 0.0:
        raise ValueError(f"c must be positive and finite, got {c!r}")
    x = qarray.sample_rows(samples, 100, " to classify")
    n = x.shape[0]
    r, h = _moments(x, basis, center)
    s, cc = r.matrix, ComplementaryCovariances.of_face(h, n)
    if cc.sigma2 <= 0.0:
        raise ValueError("degenerate covariance: zero total variance")
    tol = c / math.sqrt(n)

    h_resid = max(g.modulus() for g in cc.gammas) / cc.sigma2
    # L(u) and R(v) of the four factors, made unit as double_rotation makes
    # them; each candidate's M = L(u) R(v) is picked out through the table
    units = np.array([unit_factor(q).to_vec() for q in (*basis.axes, ONE)])
    m = left_matrix(units)[_ROTATION_U] @ right_matrix(units)[_ROTATION_V]
    residuals = _rotation_residuals(s, m, cc.sigma2).tolist()
    ranked = [(0, Candidate(PropernessTag.H_PROPER, (), h_resid))]
    ranked += [(tier, Candidate(tag, axes, resid))
               for (tier, tag, axes, _), resid in zip(_CANDIDATES, residuals)]
    ranked.append((len(_TIERS) + 1, Candidate(PropernessTag.GENERAL, (), 0.0)))
    # S is finite (see _moments), but |gamma|^2 or a defect can overflow
    if not all(math.isfinite(cand.residual) for _, cand in ranked):
        raise ValueError("second moments are not finite: sample values too large")
    # min keeps the earliest of equal keys
    _, chosen = min((row for row in ranked if row[1].residual < tol),
                    key=lambda row: (row[0], row[1].residual))
    return PropernessReport(tuple(cand for _, cand in ranked), chosen, tol,
                            n, basis, cc)


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
