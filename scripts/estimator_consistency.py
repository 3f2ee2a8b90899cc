"""Estimator consistency sweep.

Samples a generic full-covariance quaternion Gaussian across many seeds and
measures how often every entry of the reconstructed quaternion-face
covariance lands within 5*sigma2/sqrt(n) of the truth.

Usage:
    python scripts/estimator_consistency.py [--seeds 50] [--n 10000]
"""

import argparse

from quatprop import STANDARD_BASIS, GeneralParams
from quatprop.estimation import estimator_consistency


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
    worst, bound = estimator_consistency(params, args.n, range(args.seeds))

    for seed, err in enumerate(worst):
        print(f"seed {seed:3d}: worst entry error {err:.5f} "
              f"{'<=' if err <= bound else '>'} {bound:.5f}")
    good = sum(err <= bound for err in worst)
    rate = good / args.seeds
    print(f"\n{good}/{args.seeds} runs within bound ({rate:.1%}); "
          f"worst overall {max(worst, default=0.0):.5f}")


if __name__ == "__main__":
    main()
