"""Traced peak memory of each layer of the sample pipeline.

Runs each layer once on n draws of a general-class covariance and prints,
as a Markdown table, the tracemalloc peak above what was allocated when the
layer started (its input included) and the size of its output: the array it
returns, or for write_sample_csv the file it writes. classify returns a
small report, so it has no output size.

Usage:
    python scripts/layer_memory.py [--n 1000000]
"""

import argparse
import os
import tempfile
import tracemalloc

import numpy as np

from quatprop import (STANDARD_BASIS, GeneralParams, Quaternion, classify,
                      covariance_from_params, double_rotation, gaussian_pdf,
                      read_sample_csv, sample, write_sample_csv)

MIB = 1024.0 * 1024.0


def traced(layer):
    """The layer's result and its traced peak above the memory allocated
    when it started, in bytes."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    out = layer()
    return out, tracemalloc.get_traced_memory()[1] - before


def measure(n, cov, rotation, basis):
    """(layer, traced peak, output bytes or None) of each layer on n draws."""
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "draws.csv")
        x, peak = traced(lambda: sample(cov, n, seed=1).data)
        rows.append(("sample", peak, x.nbytes))
        out, peak = traced(lambda: gaussian_pdf(x, cov))
        rows.append(("gaussian_pdf", peak, out.nbytes))
        out, peak = traced(lambda: rotation.apply_rows(x))
        rows.append(("apply_rows", peak, out.nbytes))
        del out
        _, peak = traced(lambda: write_sample_csv(path, x))
        rows.append(("write_sample_csv", peak, os.path.getsize(path)))
        out, peak = traced(lambda: read_sample_csv(path))
        rows.append(("read_sample_csv", peak, out.nbytes))
        del out
    _, peak = traced(lambda: classify(x, basis))
    rows.append(("classify", peak, None))
    _, peak = traced(lambda: classify(x, basis, center=True))
    rows.append(("classify --center", peak, None))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=1_000_000)
    args = parser.parse_args()
    if args.n < 100:
        parser.error(f"--n must be at least 100, got {args.n}")

    basis = STANDARD_BASIS
    cov = covariance_from_params(GeneralParams(
        1.0,
        basis.from_coords([0.10, 0.0, 0.15, 0.05]),
        basis.from_coords([0.08, 0.12, 0.0, -0.06]),
        basis.from_coords([-0.05, 0.07, 0.04, 0.0]),
        basis,
    )).r
    rotation = double_rotation(Quaternion(0.6, 0.8, 0.0, 0.0),
                               Quaternion(0.0, 0.0, 1.0, 0.0))

    tracemalloc.start()
    # a first pass on 100 rows (the fewest classify takes), so that modules
    # numpy imports on first use and other one-off allocations fall outside
    # the measured pass
    measure(100, cov, rotation, basis)
    rows = measure(args.n, cov, rotation, basis)
    tracemalloc.stop()

    print(f"n = {args.n}, numpy {np.__version__}\n")
    print("| layer | peak above input (MiB) | output (MiB) |")
    print("|---|---:|---:|")
    for name, peak, size in rows:
        size = "-" if size is None else f"{size / MIB:.1f}"
        print(f"| {name} | {peak / MIB:.1f} | {size} |")


if __name__ == "__main__":
    main()
