"""Fixed spaces of the class rotations in Sym(4), and the rank of each
class's chart.

A rotation M = L(u) R(v) fixes the covariance S when M S M^T = S. On the
symmetric 4x4 matrices, Sym(4) (dimension 10), the S that M fixes form a
linear subspace, the kernel of S -> M S M^T - S. Each class's chart maps its
real parameter coordinates (sigma2, then each complex parameter as its real
and imaginary parts) linearly to the real face S = convert(params.chart(),
"real").

Measured facts these tests hold, on the standard basis and on random bases:
  - the fixed space of a pair rotation (mumu, musame) has dimension 6, that
    of a one-sided rotation (muone, onemu) dimension 4;
  - the common fixed space of all 15 candidates classify scores has
    dimension 1, the multiples of the identity (hproper);
  - each chart lies in the fixed space of its class's own rotation, with
    rank 6 for musame, 4 for muone and onemu and 1 for hproper, so each of
    these fills its fixed space;
  - the mumu chart has rank 4, short of its fixed space of 6:
    MuMuParams ties E[z1 z2] to E[z1^2] (both alpha), and no rotation
    q -> a*q*b with a, b among 1, mu1, mu2, mu3 forces that equality: of
    the 15 candidates (every such pair but a = b = 1), only mumu's own
    rotation fixes the whole chart.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from quatprop import (ONE, HProperParams, MuMuParams, MuOneParams,
                      MuSameParams, OneMuParams, STANDARD_BASIS, convert,
                      double_rotation)
from quatprop.estimation import _CANDIDATES

from support import rand_basis


def _sym_unit(a, b):
    e = np.zeros((4, 4))
    e[a, b] = e[b, a] = 1.0
    return e.ravel()


# columns: vec of the 10 symmetric unit matrices, a basis of Sym(4)
_SYM = np.array([_sym_unit(a, b) for a in range(4) for b in range(a, 4)]).T

FIXED_DIMENSION = {MuMuParams: 6, MuSameParams: 6, MuOneParams: 4,
                   OneMuParams: 4}
CHART_RANK = {MuMuParams: 4, MuSameParams: 6, MuOneParams: 4,
              OneMuParams: 4, HProperParams: 1}


def rotation_matrix(basis, uv):
    """The M of a (u, v) basis-axis index pair, 3 standing for the factor 1."""
    u, v = ((*basis.axes, ONE)[i] for i in uv)
    return double_rotation(u, v).matrix


def defect_map(m):
    """The 16x16 matrix of S -> M S M^T - S on vec(S)."""
    return np.kron(m, m) - np.eye(16)


def fixed_dimension(*ms):
    """Dimension of the subspace of Sym(4) that every M of ms fixes."""
    stacked = np.vstack([defect_map(m) @ _SYM for m in ms])
    return 10 - np.linalg.matrix_rank(stacked)


def chart_jacobian(cls, basis):
    """16 x p matrix whose columns are vec(S) of each real parameter
    coordinate's unit vector; the chart is linear, so this is its map."""
    kinds = [kind for _, kind in cls.param_fields()]
    width = sum(2 if kind is complex else 1 for kind in kinds)
    columns = []
    for unit in np.eye(width):
        parts = iter(unit)
        values = [complex(next(parts), next(parts)) if kind is complex
                  else next(parts) for kind in kinds]
        face = convert(cls(*values, basis=basis).chart(), "real")
        columns.append(face.matrix.ravel())
    return np.array(columns).T


def fixes(m, jac):
    """Whether M fixes every S in the image of a chart's matrix."""
    return np.abs(defect_map(m) @ jac).max() <= 1e-12


def check_fixed_spaces(basis):
    for cls, dim in FIXED_DIMENSION.items():
        m = rotation_matrix(basis, cls.rotations[0])
        assert fixed_dimension(m) == dim, cls
    candidates = [rotation_matrix(basis, row[3]) for row in _CANDIDATES]
    assert len(candidates) == 15
    assert fixed_dimension(*candidates) == 1


def check_chart_ranks(basis):
    candidates = [rotation_matrix(basis, row[3]) for row in _CANDIDATES]
    for cls, rank in CHART_RANK.items():
        jac = chart_jacobian(cls, basis)
        assert np.linalg.matrix_rank(jac) == rank, cls
        own = ([rotation_matrix(basis, cls.rotations[0])] if cls.rotations
               else candidates)
        assert all(fixes(m, jac) for m in own), cls
    mumu = chart_jacobian(MuMuParams, basis)
    fixing = [row[1:3] for row, m in zip(_CANDIDATES, candidates)
              if fixes(m, mumu)]
    assert fixing == [(MuMuParams.tag, (0, 1))]


def test_fixed_space_dimensions_standard_basis():
    check_fixed_spaces(STANDARD_BASIS)


def test_chart_ranks_standard_basis():
    check_chart_ranks(STANDARD_BASIS)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_fixed_space_dimensions_random_basis(seed):
    check_fixed_spaces(rand_basis(np.random.default_rng(seed)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_chart_ranks_random_basis(seed):
    check_chart_ranks(rand_basis(np.random.default_rng(seed)))
