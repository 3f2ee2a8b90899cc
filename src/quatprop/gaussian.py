"""Structured covariances of quaternion Gaussian symmetry classes, the three
covariance representations and their conversions, sampling, and densities.

A centered quaternion Gaussian variable q = z1 + z2*mu2 (Cayley-Dickson split
along a basis {1, mu1, mu2, mu3}) can be summarised on three equivalent faces:

* real face: the 4x4 covariance of the components (a, b, c, d);
* complex face: the 4x4 Hermitian covariance of (z1, z1*, z2, z2*), with
  entries in the complex subfield spanned by {1, mu1};
* quaternion face: the 4x4 quaternion Hermitian covariance of
  (q, q^mu1, q^mu2, q^mu3), where q^mu is the involution about mu.

For a fixed basis the complex and quaternion faces are fixed linear maps of
the real face S: C = W S W^H, with W taking frame coordinates to
(z1, z1*, z2, z2*), and H = K S, with K[r, s, a, b] = e_a^mu_r (e_b^mu_s)*.
Both maps are invertible on real 4x4 matrices, so every conversion is S from
the source face, then the target face from S; a face off the image of the
real matrices is rejected.

Each symmetry class (invariance of the distribution under a fixed double
rotation q -> u*q*v with axes from the basis) pins a sparse pattern on the
complex face; each *Params class builds it from its moment constraints,
and it is mapped exactly onto the other faces through S.
"""

import cmath
import json
import math
import operator
import os
import stat
import warnings
from contextlib import ExitStack, contextmanager, suppress
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property, lru_cache
from typing import ClassVar, NamedTuple, Optional

import numpy as np

from . import g17, qarray
from .core import ATOL, Quaternion, QuaternionBasis, STANDARD_BASIS

# A covariance is indefinite when an eigenvalue is below PSD_FLOOR times
# max(1, its largest |eigenvalue|): roundoff grows with the scale.
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


class _ParamsBase:
    """A class's parameters are its dataclass fields other than basis; each
    field's type (float, complex or Quaternion) says how it is written out
    and how the command line parses it. This module does not postpone
    annotations, so a field's type is the class itself, not a string.
    rotations lists the q -> u*q*v that define the class as (u, v) basis-axis
    indices (3 stands for the factor 1), the instance's own over (mu1, mu2)
    first, then the same rotation over the other axes."""

    rotations: ClassVar[tuple] = ()

    def __post_init__(self):
        for name, kind in self.param_fields():
            value = getattr(self, name)
            parts = ((value.a, value.b, value.c, value.d) if kind is Quaternion
                     else (value,))
            if not all(map(cmath.isfinite, parts)):
                raise ValueError(f"{name} must be finite, got {value!r}")

    def chart(self):
        """The face the parameters fix: the complex face of moments(), the
        pair's second moments c11, c22, c12 = E[z1 z2*], p11 = E[z1^2],
        p22 = E[z2^2] and p12 = E[z1 z2]."""
        c11, c22, c12, p11, p22, p12 = map(complex, self.moments())
        cj = np.conj
        return CovarianceC(np.array([
            [c11,      p11,     c12,      p12],
            [cj(p11),  c11,     cj(p12),  cj(c12)],
            [cj(c12),  p12,     c22,      p22],
            [cj(p12),  c12,     cj(p22),  c22],
        ]), self.basis)

    @classmethod
    def param_fields(cls):
        """(name, type) of each parameter, in declaration order."""
        return [(f.name, f.type) for f in fields(cls) if f.name != "basis"]

    def param_dict(self):
        """The parameters as JSON values: complex as [re, im], Quaternion as
        its basis coordinates, float as is."""
        out = {}
        for name, kind in self.param_fields():
            value = getattr(self, name)
            if kind is complex:
                value = [value.real, value.imag]
            elif kind is Quaternion:
                value = list(self.basis.to_coords(value))
            out[name] = value
        return out


@dataclass(frozen=True)
class MuMuParams(_ParamsBase):
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
    rotations: ClassVar[tuple] = tuple((r, s) for r in range(3)
                                       for s in range(3) if r != s)

    def moments(self):
        return (self.sigma2, self.sigma2, 1j * self.delta,
                self.alpha, -self.alpha, self.alpha)


@dataclass(frozen=True)
class MuOneParams(_ParamsBase):
    """Invariance under q -> mu1*q: a correlated pair of proper halves,
    omega = E[z1 z2*]."""

    sigma2: float
    varsigma2: float
    omega: complex
    basis: QuaternionBasis = STANDARD_BASIS

    tag: ClassVar[PropernessTag] = PropernessTag.MU_ONE
    rotations: ClassVar[tuple] = tuple((r, 3) for r in range(3))

    def moments(self):
        return (self.sigma2, self.varsigma2, self.omega, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class OneMuParams(_ParamsBase):
    """Invariance under q -> q*mu1: a pseudo-correlated pair of proper
    halves, omega = E[z1 z2]."""

    sigma2: float
    varsigma2: float
    omega: complex
    basis: QuaternionBasis = STANDARD_BASIS

    tag: ClassVar[PropernessTag] = PropernessTag.ONE_MU
    rotations: ClassVar[tuple] = tuple((3, r) for r in range(3))

    def moments(self):
        return (self.sigma2, self.varsigma2, 0.0, 0.0, 0.0, self.omega)


@dataclass(frozen=True)
class MuSameParams(_ParamsBase):
    """Invariance under q -> mu1*q*mu1: two uncorrelated improper halves
    with pseudo-variances alpha = E[z1^2] and delta = E[z2^2]."""

    sigma2: float
    varsigma2: float
    alpha: complex
    delta: complex
    basis: QuaternionBasis = STANDARD_BASIS

    tag: ClassVar[PropernessTag] = PropernessTag.MU_SAME
    rotations: ClassVar[tuple] = tuple((r, r) for r in range(3))

    def moments(self):
        return (self.sigma2, self.varsigma2, 0.0, self.alpha, self.delta, 0.0)


@dataclass(frozen=True)
class HProperParams(_ParamsBase):
    """Invariance under every 4D rotation; sigma2 is the total variance
    E[|q|^2]."""

    sigma2: float
    basis: QuaternionBasis = STANDARD_BASIS

    tag: ClassVar[PropernessTag] = PropernessTag.H_PROPER

    def moments(self):
        return (self.sigma2 / 2.0, self.sigma2 / 2.0, 0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class GeneralParams(_ParamsBase):
    """Unconstrained covariance: total variance sigma2 = E[|q|^2] plus the
    three complementary covariances, each a degenerate quaternion missing the
    component along its own involution axis (to ATOL * max(1, |gamma|)).
    """

    sigma2: float
    gamma1: Quaternion
    gamma2: Quaternion
    gamma3: Quaternion
    basis: QuaternionBasis = STANDARD_BASIS

    tag: ClassVar[PropernessTag] = PropernessTag.GENERAL

    def __post_init__(self):
        super().__post_init__()
        for idx, g in ((1, self.gamma1), (2, self.gamma2), (3, self.gamma3)):
            coord = self.basis.to_coords(g)[idx]
            if abs(coord) > ATOL * max(1.0, abs(g)):
                raise ValueError(
                    f"gamma{idx} must have no component on its own axis "
                    f"(found {coord:.3e})")

    def chart(self):
        return quaternion_face_from_gammas(self.sigma2, self.gamma1,
                                           self.gamma2, self.gamma3, self.basis)


# in this order the union of the classes' fields is generate's flag order
ClassParams = (MuSameParams, MuMuParams, MuOneParams, OneMuParams,
               HProperParams, GeneralParams)


# ---------------------------------------------------------------------------
# covariance faces


def _read_only(a: np.ndarray) -> np.ndarray:
    """a itself when it is read-only and owns its memory, otherwise (a
    writeable array, or any view) a read-only copy, leaving a as it was:
    how SampleSet rows and face matrices are kept, so what is derived from
    them holds for good."""
    if a.flags.writeable or a.base is not None:
        a = a.copy()
        a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class _Face:
    """A face is a read-only value: its matrix is kept by _read_only, and
    its checked S and S's eigen-factors are formed on first need and kept.
    A read that raises keeps nothing, so a bad face raises on every read."""

    matrix: np.ndarray
    basis: QuaternionBasis = STANDARD_BASIS

    def __post_init__(self):
        object.__setattr__(self, "matrix", _read_only(np.asarray(self.matrix)))

    @cached_property
    def _s(self) -> np.ndarray:
        """The symmetric, read-only real face S: the one check of a face. A
        wrong shape, a real or quaternion face of complex dtype, a complex
        face of non-numbers, a non-finite entry, an S that overflows, and a
        face off the real 4x4 matrices or an S off the symmetric ones by
        more than 1e-9 of its scale raise ValueError."""
        face, shape = _FACES[type(self)]
        what = f"{face}-face covariance entries"
        if face == "complex":
            try:
                m = self.matrix.astype(complex, copy=False)
            except (TypeError, ValueError):
                raise ValueError(f"{what} must be complex numbers, got dtype "
                                 f"{self.matrix.dtype}") from None
        else:
            m = qarray._real(self.matrix, what)
        if m.shape != shape:
            raise ValueError(f"matrix is not a valid {face}-face covariance "
                             f"(shape {m.shape}, expected {shape})")
        m = np.ascontiguousarray(m)  # the maps' bits follow m's layout
        if not np.isfinite(m).all():
            raise ValueError(f"matrix is not a valid {face}-face covariance "
                             "(non-finite entry)")
        # the maps may overflow on huge finite entries; that is reported below
        with np.errstate(over="ignore", invalid="ignore"):
            if face == "real":  # needs no maps, so none are built for its basis
                s, residual = m, 0.0
            elif face == "complex":
                v, vh = _basis_maps(self.basis.frame.tobytes())[3:]
                s = v @ m @ vh
                s, residual = s.real, np.abs(s.imag).max()
            else:
                K = quaternion_face_map(self.basis)
                s = np.einsum("rsc,rsabc->ab", m, K) / 16.0
                residual = np.abs(m - np.einsum("ab,rsabc->rsc", s, K)).max()
            asymmetry = np.abs(s - s.T).max()
        # max |s| is nan or inf exactly when an entry is
        largest = float(np.abs(s).max())
        if not (math.isfinite(largest) and math.isfinite(residual)):
            raise ValueError(f"matrix is not a valid {face}-face covariance "
                             "(its real face overflows)")
        tolerance = 1e-9 * max(largest, 1.0)
        if residual > tolerance:
            raise ValueError(f"matrix is not a valid {face}-face covariance "
                             f"for this basis (residual {residual:.3e})")
        if asymmetry > tolerance:
            raise ValueError(f"matrix is not a valid {face}-face covariance "
                             f"(its real face is not symmetric: {asymmetry:.3e})")
        # S/2 + S^T/2 is (S + S^T)/2 where halving is exact, and cannot overflow
        half = s / 2.0
        s = half + half.T
        s.flags.writeable = False
        return s

    @cached_property
    def _factors(self):
        """(g, w, v, whiten, norm, log_norm), read-only: g = S = V diag(w)
        V^T (w ascending) and, when every w is positive, gaussian_pdf's
        whiten = V diag(w)^-1/2 and normaliser 1 / ((2 pi)^2 sqrt(prod(w))),
        as norm while prod(w) is a finite normal number and otherwise as its
        logarithm log_norm; the other is None (gaussian_pdf refuses it)."""
        w, v = np.linalg.eigh(self._s)
        whiten = norm = log_norm = None
        if w[0] > 0.0:
            whiten = v / np.sqrt(w)
            whiten.flags.writeable = False
            det = math.prod(w.tolist())  # a float product overflows without a warning
            if np.finfo(float).tiny <= det < math.inf:
                norm = 1.0 / (_TWO_PI_SQ * math.sqrt(det))
            else:
                log_norm = -math.log(_TWO_PI_SQ) - 0.5 * sum(map(math.log, w.tolist()))
        w.flags.writeable = v.flags.writeable = False
        return self._s, w, v, whiten, norm, log_norm


@dataclass(frozen=True, eq=False)
class CovarianceR(_Face):
    """Real-face covariance: 4x4 symmetric matrix over components (a,b,c,d)."""


@dataclass(frozen=True, eq=False)
class CovarianceC(_Face):
    """Complex-face covariance of (z1, z1*, z2, z2*); an entry x + 1j*y
    stands for x + y*mu1."""


@dataclass(frozen=True, eq=False)
class CovarianceH(_Face):
    """Quaternion-face covariance of (q, q^mu1, q^mu2, q^mu3); stored as a
    (4, 4, 4) array whose last axis holds quaternion components."""

    def entry(self, i: int, j: int) -> Quaternion:
        return Quaternion.from_vec(self.matrix[i, j])


_FACES = {CovarianceR: ("real", (4, 4)), CovarianceC: ("complex", (4, 4)),
          CovarianceH: ("quaternion", (4, 4, 4))}


def _basis_dict(basis: QuaternionBasis):
    return {"mu1": list(basis.mu1.axis_vec()),
            "mu2": list(basis.mu2.axis_vec()),
            "mu3": list(basis.mu3.axis_vec())}


class CovarianceFaces(NamedTuple):
    c: CovarianceC
    r: CovarianceR
    h: CovarianceH


# ---------------------------------------------------------------------------
# representation maps: every face is a fixed linear image of the real face S

# frame coordinates (x0, x1, x2, x3) -> (z1, z1*, z2, z2*), with
# z1 = x0 + x1*mu1 and z2 = x2 + x3*mu1; _PAIR _PAIR^H = 2 I
_PAIR = np.array([[1, 1j, 0, 0], [1, -1j, 0, 0],
                  [0, 0, 1, 1j], [0, 0, 1, -1j]])
# _PAIR^-1 = _PAIR^H / 2, so W^-1 = F _UNPAIR with F = basis.frame
_UNPAIR = _PAIR.conj().T / 2.0


def quaternion_face_map(basis: QuaternionBasis) -> np.ndarray:
    """K with K[r, s, a, b] = e_a^mu_r (e_b^mu_s)*, a (4, 4, 4, 4, 4) array
    whose last axis holds quaternion components.

    The quaternion face of S is sum_ab S_ab K[:, :, a, b]; summed over
    (r, s, components), K^T K = 16 I on real 4x4 matrices, so K^T / 16
    inverts it.

    K is built once per basis (see _basis_maps), so two bases share a K only
    when their frames are bit-identical. K is read-only.
    """
    return _basis_maps(basis.frame.tobytes())[0]


# A process may hold many basis objects, most of them equal, and a K takes
# 8 KiB, so the maps of the few bases used most recently live in this small
# memo, keyed by the exact bytes of the basis frame, rather than on each basis.
@lru_cache(maxsize=8)
def _basis_maps(frame_bytes: bytes):
    """(K, W, W^H, V, V^H) of the frame F with these bytes, read-only: W =
    _PAIR F^T gives the complex face C = W S W^H, and V = W^-1 = F _UNPAIR
    takes it back, S = V C V^H; F is orthonormal by construction."""
    # (q, q^mu1, q^mu2, q^mu3) = T q_vec: row r of T holds the involutions of
    # the four standard units about mu_r, column r of the frame (row 0 is the
    # identity), the three axes involved in one stacked call
    frame = np.frombuffer(frame_bytes).reshape(4, 4)
    units = qarray.UNITS
    T = np.concatenate([units[None],
                        qarray.involution(units, frame[:, 1:].T[:, None, :])])
    K = qarray.mul(T[:, None, :, None, :], qarray.conj(T[None, :, None, :, :]))
    w = _PAIR @ frame.T
    v = frame @ _UNPAIR
    maps = (K, w, w.conj().T, v, v.conj().T)
    for m in maps:
        m.flags.writeable = False
    return maps


def _face(cov):
    """cov, if it is a covariance face; anything else is a TypeError."""
    if not isinstance(cov, _Face):
        raise TypeError(f"not a covariance face: {type(cov).__name__}")
    return cov


def _complex_face(s: np.ndarray, basis: QuaternionBasis) -> CovarianceC:
    _, w, wh, _, _ = _basis_maps(basis.frame.tobytes())
    return CovarianceC(w @ s @ wh, basis)


def _quaternion_face(s: np.ndarray, basis: QuaternionBasis) -> CovarianceH:
    h = np.einsum("ab,rsabc->rsc", s, quaternion_face_map(basis))
    h.reshape(16, 4)[::5] = (np.trace(s), 0.0, 0.0, 0.0)  # see convert
    return CovarianceH(h, basis)


def convert(cov, to: str):
    """Change a covariance to another face ("real", "complex", "quaternion").

    Every face given is checked as _Face._s checks it, whatever the
    target: a bad face raises ValueError. "real" gives a face holding the
    symmetric S, another face asked for its own face is returned as is, and
    a quaternion face formed has each diagonal entry exactly (tr S, 0, 0, 0).
    """
    if to not in ("real", "complex", "quaternion"):
        raise ValueError(f"unknown face {to!r}")
    s, basis = _face(cov)._s, cov.basis
    if to == "real":
        return CovarianceR(s, basis)
    if to == "complex":
        return cov if isinstance(cov, CovarianceC) else _complex_face(s, basis)
    return cov if isinstance(cov, CovarianceH) else _quaternion_face(s, basis)


def quaternion_face_from_gammas(sigma2: float, gamma1: Quaternion,
                                gamma2: Quaternion, gamma3: Quaternion,
                                basis: QuaternionBasis) -> CovarianceH:
    """Fill the quaternion face from its first row (sigma2, gamma1..3): the
    general class's chart; convert forms every other quaternion face from S.

    The rest follows from one rule: entry (r, s) above the diagonal is
    gamma_{r xor s} involved about mu_r (as is, for r = 0), e.g. entry (2,3)
    is gamma1 involved about mu2; the diagonal is sigma2 and each entry below
    it is the conjugate of its mirror.
    """
    row = (Quaternion(sigma2, 0.0, 0.0, 0.0), gamma1, gamma2, gamma3)
    mat = [[row[0]] * 4 for _ in range(4)]
    for r in range(4):
        for s in range(r + 1, 4):
            h = row[r ^ s].involution(basis.axes[r - 1]) if r else row[s]
            mat[r][s], mat[s][r] = h, h.conj()
    return CovarianceH(np.array([[(q.a, q.b, q.c, q.d) for q in line]
                                 for line in mat]), basis)


# ---------------------------------------------------------------------------
# construction from class parameters

def _refuse_indefinite(cov, what: str):
    """The eigen-factors of any face (_Face._factors); raise ValueError
    "<what>: min eigenvalue ..." if its S is indefinite (see PSD_FLOOR)."""
    d = _face(cov)._factors
    lowest, highest = d[1][0], d[1][-1]  # the extreme eigenvalues w
    if lowest < PSD_FLOOR * max(1.0, -lowest, highest):
        raise ValueError(f"{what}: min eigenvalue {lowest:.6e}")
    return d


def covariance_from_params(params) -> CovarianceFaces:
    """Build all three covariance faces for a symmetry class, each as
    convert of its chart, the face its parameters fix.

    Parameters whose real-face covariance is indefinite (see PSD_FLOOR) are
    rejected, with the most negative eigenvalue reported. The real face
    keeps the factors of that check for sampling and densities.
    """
    chart = params.chart()
    r = convert(chart, "real")
    _refuse_indefinite(r, "parameters give an indefinite covariance")
    return CovarianceFaces(convert(chart, "complex"), r,
                           convert(chart, "quaternion"))


# ---------------------------------------------------------------------------
# sampling

@dataclass(frozen=True, eq=False)
class SampleSet:
    """Draws of a quaternion variable, one (a, b, c, d) row per draw, plus
    the metadata of the generator that produced them.

    The rows are read-only, kept by the faces' copy rule (_read_only), so
    read-only rows that own their memory, such as sample's, are not copied.
    So the second moment X^T X, formed on first use, holds for the rows for
    good, and every estimator given this SampleSet shares it. Sample sets
    compare by identity and hash.
    """

    data: np.ndarray
    seed: int
    basis: Optional[QuaternionBasis] = None
    class_tag: Optional[str] = None
    params: Optional[dict] = None

    def __post_init__(self):
        object.__setattr__(self, "data", _read_only(qarray.sample_rows(self.data)))

    @cached_property
    def _gram(self):
        """X^T X of the rows, formed at most once (estimation._moments)."""
        gram = self.data.T @ self.data
        gram.flags.writeable = False
        return gram

    @property
    def n(self) -> int:
        return self.data.shape[0]

    def metadata_dict(self):
        seed = self.seed if self.seed is None else operator.index(self.seed)
        meta = {"n": self.n, "seed": seed,
                "class": self.class_tag, "params": self.params}
        meta["axes"] = _basis_dict(self.basis) if self.basis is not None else None
        return meta

    def save(self, csv_path, meta_path=None):
        """Write the draws as a sample CSV and, given meta_path, the metadata
        as a strict JSON sidecar (a NaN or infinite value is a ValueError).
        If the sidecar cannot be written, the CSV and any partial sidecar
        are removed, so no CSV is left without its metadata."""
        with _removed_on_failure() as created:
            write_sample_csv(csv_path, self.data)
            created.append(csv_path)
            if meta_path is not None:
                with open(meta_path, "w", encoding="utf-8") as fh:
                    created.append(meta_path)
                    json.dump(self.metadata_dict(), fh, indent=2,
                              sort_keys=True, allow_nan=False)
                    fh.write("\n")


# Rows formatted per pass of g17.format_g17 in the writer; a fixed block
# keeps its memory constant in the number of rows.
_CSV_BLOCK_ROWS = 256

# Characters on which np.loadtxt and float() agree field by field (the text
# layer has already turned CR and CRLF into LF). Other text, for instance
# "1\x1c", which loadtxt reads as 1 and float() rejects, goes to the
# line-by-line scan, so the scan alone decides what is accepted.
_CSV_PLAIN_BYTES = b"0123456789+-.eE,\n \t"


def write_sample_csv(path, rows: np.ndarray):
    """CSV with header a,b,c,d, every value as "%.17g" (17 significant
    digits, which read back exactly) and LF line endings; rows must pass
    qarray.sample_rows."""
    write_column_csvs(qarray.sample_rows(rows), [(path, range(4), "a,b,c,d")])


def write_column_csvs(rows: np.ndarray, outputs):
    """Write several CSVs that each hold some of rows' columns. outputs is a
    list of (path, columns, header); each file holds its header line, then
    rows[:, columns] as write_sample_csv writes a sample's values. Each
    block of _CSV_BLOCK_ROWS rows is formatted once, by g17.format_g17,
    whatever files its values go to, so memory does not grow with the
    number of rows; each file takes its columns' texts from the block. A
    row with a nan or inf raises ValueError naming the 1-based line it
    would land on (the header is line 1) before any file is opened; that
    scan too runs a block of rows at a time. Every file is opened, in the
    order given, before any row is written; if anything fails, the regular
    files opened here are removed, so none is left holding only some of its
    rows."""
    rows = np.asarray(rows, dtype=float)
    n, m = rows.shape
    for span in qarray.row_blocks(n):
        bad = np.flatnonzero(~np.isfinite(rows[span]).all(axis=1))
        if bad.size:
            first = span.start + int(bad[0])
            raise ValueError(f"line {first + 2}: non-finite value in row "
                             f"{rows[first].tolist()}")
    with _removed_on_failure() as created, ExitStack() as stack:
        files = []
        for path, columns, header in outputs:
            fh = stack.enter_context(open(path, "wb"))
            created.append(path)
            fh.write(header.encode("utf-8") + b"\n")
            files.append((fh, list(columns)))
        for span in qarray.row_blocks(n, _CSV_BLOCK_ROWS):
            k = span.stop - span.start
            text = g17.format_g17(rows[span]).reshape(k, m, g17.WIDTH)
            for fh, columns in files:
                if not columns:
                    fh.write(b"\n" * k)
                    continue
                # each value's text, then its "," or "\n", less the padding
                line = text.take(columns, axis=1)
                line[:, :, -1] = ord(",")
                line[:, -1, -1] = ord("\n")
                fh.write(line[line != 0].tobytes())


@contextmanager
def _removed_on_failure():
    """Yield a list for the paths a write creates, in creation order. If the
    block raises anything, remove them newest first (files before the
    directories holding them, deeper directories first) and re-raise: a
    regular file is deleted, a directory only when empty, and anything else
    (a device in the way), or a path that cannot be removed, is left alone."""
    created = []
    try:
        yield created
    except BaseException:
        for path in reversed(created):
            with suppress(OSError):
                mode = os.lstat(path).st_mode
                if stat.S_ISREG(mode):
                    os.remove(path)
                elif stat.S_ISDIR(mode):
                    os.rmdir(path)
        raise


def read_sample_csv(path) -> np.ndarray:
    """Read a sample CSV, reporting the 1-based line number of a bad row.

    Plain numeric text is parsed by np.loadtxt; anything else, and any result
    that is not (n >= 1, 4) and finite, is left to the line-by-line scan,
    which defines what is accepted and every error message.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "a,b,c,d":
            raise ValueError(f"line 1: expected header 'a,b,c,d', got {header!r}")
        if _plain_text(fh):
            _rewind_past_header(fh)
            try:
                with warnings.catch_warnings():
                    # a file without rows warns here; the scan reports it
                    warnings.simplefilter("ignore", UserWarning)
                    data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
            except ValueError:
                data = None
            if (data is not None and data.shape[0] >= 1 and data.shape[1] == 4
                    and np.isfinite(data).all()):
                return data
        _rewind_past_header(fh)
        return _scan_sample_rows(fh)


def _plain_text(fh) -> bool:
    """Whether the rest of fh decodes and holds only _CSV_PLAIN_BYTES."""
    try:
        for chunk in iter(lambda: fh.read(1 << 16), ""):
            if not chunk.isascii() or chunk.encode("ascii").translate(None, _CSV_PLAIN_BYTES):
                return False
    except UnicodeDecodeError:  # the scan reports it
        return False
    return True


def _rewind_past_header(fh):
    # from the top, so the scan's decoding errors name the same buffer
    # offsets as one pass through the file
    fh.seek(0)
    fh.readline()


def _scan_sample_rows(lines) -> np.ndarray:
    """Parse sample rows that follow the header (line 1) one line at a time.

    Blank lines are skipped. A wrong field count or a field float() rejects
    is reported at its line; a nan or inf field is reported at the first line
    holding one, once the whole file has parsed.
    """
    rows = []
    non_finite = None
    for lineno, line in enumerate(lines, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ValueError(f"line {lineno}: expected 4 fields, got {len(parts)}")
        try:
            row = [float(p) for p in parts]
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric field in {line!r}") from None
        if non_finite is None and not all(map(math.isfinite, row)):
            non_finite = f"line {lineno}: non-finite field in {line!r}"
        rows.append(row)
    if not rows:
        raise ValueError("no sample rows found")
    if non_finite is not None:
        raise ValueError(non_finite)
    return np.array(rows)


def sample(cov: CovarianceR, n: int, seed: int, class_tag=None,
           params=None) -> SampleSet:
    """Draw n centred Gaussian quaternions with the given real-face covariance.

    Identical (seed, n, covariance) give bit-identical output. The factor is
    Cholesky when the matrix is positive definite, otherwise an eigenvalue
    factorisation with negative eigenvalues clipped at zero, so semidefinite
    boundary cases (perfectly correlated planes) sample cleanly at any
    scale. The standard normal draws are made in one call and multiplied by
    the factor in place, a block of rows at a time; the SampleSet takes that
    array, made read-only, without a copy. A non-finite or indefinite (see
    PSD_FLOOR) covariance raises ValueError.
    """
    if n < 1:
        raise ValueError("need at least one draw")
    g, w, v, *_ = _refuse_indefinite(cov, "covariance is indefinite")
    try:
        factor = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        factor = v @ np.diag(np.sqrt(np.clip(w, 0.0, None)))
    z = np.random.default_rng(seed).standard_normal((n, 4))
    for span in qarray.row_blocks(n):
        z[span] = z[span] @ factor.T
    z.flags.writeable = False
    return SampleSet(z, seed=seed, basis=cov.basis, class_tag=class_tag,
                     params=params)


# ---------------------------------------------------------------------------
# densities

_NON_FINITE_POINT = "non-finite input: a component of q is nan or inf"


def gaussian_pdf(q, cov: CovarianceR):
    """Density of the centred 4-variate normal with the given covariance,
    evaluated at a Quaternion or an (..., 4) array of component vectors.

    One eigendecomposition g = V diag(w) V^T serves every row, and every
    call on the same face (see _Face._factors): the quadratic form is
    |x V diag(w)^-1/2|^2 and the normaliser comes from prod(w), or from the
    sum of log(w) when prod(w) leaves the normal range, so a covariance of
    any scale has a density without overflow (one beyond the float range is
    inf). A Quaternion is evaluated directly as one (1, 4) row, its
    components checked one by one; an array's rows are checked and
    evaluated a block at a time into one output, so the temporaries do not
    grow with the number of rows. Both run the same numpy arithmetic on a
    row, so a point's density is bit-identical to that of its (1, 4) row.
    A covariance with a non-finite entry, or one that is not positive
    definite, a point with a non-finite component and an array whose last
    axis is not 4 raise ValueError.
    """
    _, w, _, whiten, norm, log_norm = _face(cov)._factors
    if whiten is None:
        raise ValueError(f"covariance is singular: min eigenvalue {w[0]:.6e}")
    if isinstance(q, Quaternion):
        if not all(map(math.isfinite, (q.a, q.b, q.c, q.d))):
            raise ValueError(_NON_FINITE_POINT)
        return _densities(q.to_vec()[None], whiten, norm, log_norm).item()
    x = qarray.components(q)
    # numpy multiplies a stack of one-row matrices row by row with gemv, so
    # such a stack keeps its rows apart; anything else becomes (N, 4) rows
    rows = x.reshape((-1, 1, 4) if x.ndim > 2 and x.shape[-2] == 1 else (-1, 4))
    out = np.empty(rows.shape[:-1])
    for span in qarray.row_blocks(rows.shape[0]):
        block = rows[span]
        if not np.isfinite(block).all():
            raise ValueError(_NON_FINITE_POINT)
        out[span] = _densities(block, whiten, norm, log_norm)
    out = out.reshape(x.shape[:-1])
    return float(out) if out.ndim == 0 else out


def _densities(rows, whiten, norm, log_norm):
    """The densities of a block of finite (..., 4) rows from _Face._factors."""
    y = rows @ whiten
    exponent = -0.5 * np.einsum("...i,...i->...", y, y)
    if log_norm is None:
        return norm * np.exp(exponent)
    with np.errstate(over="ignore"):
        return np.exp(log_norm + exponent)


def pdf_1mu_proper(q: Quaternion, sigma2: float, gamma_1j: Quaternion,
                   basis: QuaternionBasis = STANDARD_BASIS) -> float:
    """Density of a variable invariant under right multiplication by the
    basis axis mu2 (for the standard basis: by j).

    sigma2 is the total variance E[|q|^2]; gamma_1j = E[q (q^mu2)*] is the one
    complementary covariance the class retains, and its mu2 coordinate must
    be within 1e-9 * max(1, |gamma_1j|) of 0. The quadratic form is
    evaluated with quaternion products only; the real-face covariance has
    eigenvalues (sigma2 +- |gamma_1j|)/4, each twice, so the square root of
    its determinant is (sigma2^2 - |gamma_1j|^2)/16. A non-finite q, sigma2
    or gamma_1j raises ValueError.
    """
    g = gamma_1j
    if not all(map(math.isfinite, (sigma2, q.a, q.b, q.c, q.d,
                                   g.a, g.b, g.c, g.d))):
        raise ValueError(f"non-finite input: q = {q!r}, sigma2 = {sigma2!r}, "
                         f"gamma_1j = {g!r}")
    nu = basis.mu2
    if abs(basis.to_coords(gamma_1j)[2]) > 1e-9 * max(1.0, abs(gamma_1j)):
        raise ValueError("gamma_1j must have no component along the properness axis")
    if not sigma2 > 0.0:
        raise ValueError(f"degenerate parameters: sigma2 = {sigma2:.6e}")
    denom = sigma2 * sigma2 - gamma_1j.modulus2()
    if not denom > 0.0:
        raise ValueError(f"degenerate parameters: sigma2^2 - |gamma|^2 = {denom:.6e}")
    cross = (q.conj() * gamma_1j * q.involution(nu)).a
    kernel = -(2.0 * sigma2 * q.modulus2() - 2.0 * cross) / denom
    return float(np.exp(kernel) * 16.0 / (_TWO_PI_SQ * denom))
