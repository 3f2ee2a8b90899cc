"""How often classify picks the class that generated the draws.

For each class and sample size n, draws n samples of one fixed instance of
the class with each seed, classifies them at c = 5 and counts the seeds on
which the chosen class is the generating one (its tag; the axes are not
compared). It does so on the standard basis and, separately, on one random
basis per seed (drawn from numpy's generator seeded by that seed), and
prints a Markdown table of the counts.

The instances are those of ROADMAP item 1: MuMuParams(2, 0.3+0.1i, 0.2),
MuSameParams(1, 1.5, 0.2+0.1i, -0.1+0.3i), MuOneParams and
OneMuParams(0.6, 0.4, 0.1+0.05i) and HProperParams(2).

Usage:
    python scripts/classify_accuracy.py [--seeds 100] [--n 1000 10000]
"""

import argparse

import numpy as np

from quatprop import (STANDARD_BASIS, HProperParams, MuMuParams, MuOneParams,
                      MuSameParams, OneMuParams, PureUnit, QuaternionBasis,
                      classify, covariance_from_params, sample)

INSTANCES = {
    "hproper": lambda basis: HProperParams(2.0, basis),
    "mumu": lambda basis: MuMuParams(2.0, 0.3 + 0.1j, 0.2, basis),
    "musame": lambda basis: MuSameParams(1.0, 1.5, 0.2 + 0.1j, -0.1 + 0.3j,
                                         basis),
    "muone": lambda basis: MuOneParams(0.6, 0.4, 0.1 + 0.05j, basis),
    "onemu": lambda basis: OneMuParams(0.6, 0.4, 0.1 + 0.05j, basis),
}


def random_basis(seed):
    """mu1 a normal 3-vector, mu2 another made orthogonal to it."""
    rng = np.random.default_rng(seed)
    mu1 = rng.normal(size=3)
    mu1 /= np.linalg.norm(mu1)
    while True:
        w = rng.normal(size=3)
        w -= (w @ mu1) * mu1
        if np.linalg.norm(w) > 0.3:
            return QuaternionBasis(PureUnit(*mu1), PureUnit(*w))


def correct(tag, basis, n, seed):
    params = INSTANCES[tag](basis)
    draws = sample(covariance_from_params(params).r, n, seed)
    return classify(draws, basis, c=5.0).chosen.tag is params.tag


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=100)
    parser.add_argument("--n", type=int, nargs="+", default=[1000, 10_000])
    args = parser.parse_args()
    if args.seeds < 1 or min(args.n) < 100:
        parser.error("--seeds must be at least 1 and every --n at least 100")

    seeds = range(args.seeds)
    columns = [(n, name) for n in args.n for name in ("standard", "random")]
    print(f"Correct choices of classify (c = 5) out of {args.seeds} seeds\n")
    print("| truth | " + " | ".join(f"n = {n}, {name} basis"
                                    for n, name in columns) + " |")
    print("|---" * (len(columns) + 1) + "|")
    for tag in INSTANCES:
        counts = [sum(correct(tag, STANDARD_BASIS if name == "standard"
                              else random_basis(seed), n, seed)
                      for seed in seeds)
                  for n, name in columns]
        print(f"| `{tag}` | " + " | ".join(map(str, counts)) + " |")


if __name__ == "__main__":
    main()
