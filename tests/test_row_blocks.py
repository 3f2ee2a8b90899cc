"""The n-row kernels (sample, gaussian_pdf, DoubleRotation.apply_rows) run
over row blocks: every output bit matches the one-shot expressions in
support, and the traced peak stays within the output plus a few blocks.

The bit checks also check the BLAS in use: a library whose gemm bits for a
row depend on how many rows share the call fails them."""

import re
import tracemalloc

import numpy as np
import pytest

from quatprop import (CovarianceR, Quaternion, covariance_from_params,
                      double_rotation, gaussian_pdf, sample)
from quatprop.gaussian import write_column_csvs
from quatprop.qarray import ROW_BLOCK, row_blocks
from quatprop.rotations import left_matrix, right_matrix

from support import (all_class_params, apply_rows_reference,
                     gaussian_pdf_reference, rand_quaternion, sample_reference)

# around one and two block boundaries, and a long ragged tail
SIZES = [1, 2, 8191, 8192, 8193, 8194, 16385, 20003]

GENERAL_COV = covariance_from_params(all_class_params()["general"]).r.matrix
# the second pivot is exactly zero, so Cholesky fails and sample falls back
# to the eigenvalue factor
SINGULAR_COV = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0],
                         [0.0, 0.0, 2.0, 0.5], [0.0, 0.0, 0.5, 1.0]])


def test_row_blocks_cover_the_rows_in_order_without_a_lone_row():
    for size in (2, 3, 4, 1024, ROW_BLOCK):
        for n in range(4 * size + 2):
            blocks = list(row_blocks(n, size))
            stops = [b.stop for b in blocks]
            assert [b.start for b in blocks] == [0, *stops][:len(blocks)]
            assert stops[-1:] == ([n] if n else [])
            lengths = [b.stop - b.start for b in blocks]
            assert all(k == size for k in lengths[:-1])
            assert n <= 1 or lengths[-1] > 1
            assert lengths == [] or lengths[-1] <= size + 1


def test_default_block_is_256_kib_of_rows():
    assert ROW_BLOCK * 4 * 8 == 256 * 1024
    assert [(b.start, b.stop) for b in row_blocks(2 * ROW_BLOCK + 1)] == \
        [(0, ROW_BLOCK), (ROW_BLOCK, 2 * ROW_BLOCK + 1)]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("g", [GENERAL_COV, SINGULAR_COV], ids=["cholesky", "eigh"])
def test_sample_matches_the_one_shot_product(n, g):
    if g is SINGULAR_COV:
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(g)
    got = sample(CovarianceR(g), n, seed=n).data
    assert got.tobytes() == sample_reference(g, n, seed=n).tobytes()


@pytest.mark.parametrize("n", SIZES)
def test_gaussian_pdf_matches_the_one_shot_density_on_rows(n):
    x = np.random.default_rng(n).normal(size=(n, 4))
    got = gaussian_pdf(x, CovarianceR(GENERAL_COV))
    assert got.shape == (n,)
    assert got.tobytes() == gaussian_pdf_reference(x, GENERAL_COV).tobytes()


def test_gaussian_pdf_matches_the_one_shot_density_on_other_shapes():
    rng = np.random.default_rng(3)
    cov = CovarianceR(GENERAL_COV)
    q = rand_quaternion(rng)
    got = gaussian_pdf(q, cov)
    assert isinstance(got, float)
    assert np.float64(got).tobytes() == \
        gaussian_pdf_reference(q.to_vec(), GENERAL_COV).tobytes()
    # (3, 1, 4) is a stack of one-row matrices, which numpy multiplies
    # with gemv rather than gemm
    for shape in [(2, 3, 4), (3, 1, 4), (2, 8193, 4), (4,)]:
        x = rng.normal(size=shape)
        got = np.asarray(gaussian_pdf(x, cov))
        ref = gaussian_pdf_reference(x, GENERAL_COV)
        assert got.shape == shape[:-1]
        assert got.tobytes() == ref.tobytes(), shape


def test_gaussian_pdf_refuses_a_non_finite_row_in_a_later_block():
    x = np.ones((ROW_BLOCK + 5, 4))
    x[ROW_BLOCK + 3, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite input"):
        gaussian_pdf(x, CovarianceR(GENERAL_COV))


def test_kernels_refuse_rows_that_are_not_four_components():
    rotation = double_rotation(Quaternion(1, 2, 3, 4), Quaternion(0, 1, 0, 0))
    for bad in (np.ones((6, 2)), np.ones((2, 3)), np.float64(1.0),
                np.arange(5.0), np.ones((2, 6)), np.ones(3)):
        with pytest.raises(ValueError, match="expected \\(\\.\\.\\., 4\\)"):
            gaussian_pdf(bad, CovarianceR(GENERAL_COV))
        with pytest.raises(ValueError, match="expected \\(\\.\\.\\., 4\\)"):
            rotation.apply_rows(bad)
        # the matrix builders too: a longer vector must not give the matrix
        # of its first four components, nor a shorter one an IndexError
        message = (r"^expected \(\.\.\., 4\) component vectors, got shape "
                   + re.escape(str(np.shape(bad))) + "$")
        for build in (left_matrix, right_matrix):
            with pytest.raises(ValueError, match=message):
                build(bad)


@pytest.mark.parametrize("shape", [(n, 4) for n in SIZES] + [(2, 3, 4)])
def test_apply_rows_matches_the_one_shot_products(shape):
    rng = np.random.default_rng(shape[0])
    rotation = double_rotation(rand_quaternion(rng), rand_quaternion(rng))
    x = rng.normal(size=shape)
    got = rotation.apply_rows(x)
    assert got.shape == shape
    assert got.tobytes() == apply_rows_reference(rotation, x).tobytes()


def test_writer_names_the_first_non_finite_row_across_blocks(tmp_path):
    x = np.ones((ROW_BLOCK + 10, 4))
    x[ROW_BLOCK + 3, 0] = np.inf
    x[ROW_BLOCK + 8, 2] = np.nan
    with pytest.raises(ValueError, match=rf"^line {ROW_BLOCK + 5}: non-finite "
                                         r"value in row \[inf, 1\.0, 1\.0, 1\.0\]$"):
        write_column_csvs(x, [(tmp_path / "a.csv", range(4), "a,b,c,d")])
    assert list(tmp_path.iterdir()) == []


def _traced_peak(kernel):
    """The kernel's output and the traced peak above what was allocated
    when it started."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = kernel()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()


def test_kernel_peaks_stay_within_the_output_and_four_blocks():
    n = 200_000
    cov = CovarianceR(GENERAL_COV)
    x = np.random.default_rng(5).normal(size=(n, 4))
    rotation = double_rotation(Quaternion(1, 2, 3, 4), Quaternion(0.5, -1, 0.2, 0.3))
    slack = 4 * ROW_BLOCK * 4 * 8
    for name, kernel in (("sample", lambda: sample(cov, n, seed=6).data),
                         ("gaussian_pdf", lambda: gaussian_pdf(x, cov)),
                         ("apply_rows", lambda: rotation.apply_rows(x))):
        out, peak = _traced_peak(kernel)
        assert peak < out.nbytes + slack, (name, peak, out.nbytes)
