"""Estimator consistency sweep.

Samples a generic full-covariance quaternion Gaussian across many seeds and
measures how often every entry of the reconstructed quaternion-face
covariance lands within 5*sigma2/sqrt(n) of the truth.

Usage:
    python scripts/estimator_consistency.py [--seeds 50] [--n 10000]
"""

import argparse
import math

import numpy as np

from quatprop import (STANDARD_BASIS, GeneralParams, covariance_faces,
                      covariance_from_params, sample)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=50)
    parser.add_argument("--n", type=int, default=10_000)
    args = parser.parse_args()

    basis = STANDARD_BASIS
    params = GeneralParams(
        1.0,
        basis.from_coords([0.10, 0.0, 0.15, 0.05]),
        basis.from_coords([0.08, 0.12, 0.0, -0.06]),
        basis.from_coords([-0.05, 0.07, 0.04, 0.0]),
        basis,
    )
    faces = covariance_from_params(params)
    bound = 5 * params.sigma2 / math.sqrt(args.n)

    good = 0
    worst_overall = 0.0
    for seed in range(args.seeds):
        draws = sample(faces.r, args.n, seed=seed)
        gh, _, _ = covariance_faces(draws.data, basis)
        err = np.sqrt(np.sum((gh.matrix - faces.h.matrix) ** 2, axis=-1))
        worst = float(np.max(err))
        worst_overall = max(worst_overall, worst)
        ok = worst <= bound
        good += ok
        print(f"seed {seed:3d}: worst entry error {worst:.5f} "
              f"{'<=' if ok else '>'} {bound:.5f}")

    rate = good / args.seeds
    print(f"\n{good}/{args.seeds} runs within bound ({rate:.1%}); "
          f"worst overall {worst_overall:.5f}")


if __name__ == "__main__":
    main()
