"""End-to-end demonstration pipeline.

Draws two Gaussian quaternion datasets, one invariant under the double
rotation q -> i*q*j (all four components correlated, no complementary
covariance vanishes) and one invariant under q -> q*j (a pair of proper
complex clouds), projects both onto the three pairs of orthogonal 2D planes
for plotting, and classifies each from its samples.

Usage:
    python scripts/projection_demo.py --out-dir results [--n 50000] [--seed 42]

Feed any plotting tool with the *_1i/_jk/_1j/_ik/_1k/_ij.csv files to view
the clouds.
"""

import argparse
import json
from pathlib import Path

from quatprop import (MuMuParams, OneMuParams, STANDARD_BASIS, classify,
                      covariance_from_params, sample, validate_basis,
                      via_class_alias, J, K)
from quatprop.cli import main as cli_main


def run_dataset(name, params, out_dir, n, seed):
    faces = covariance_from_params(params)
    draws = sample(faces.r, n, seed, basis=params.basis,
                   class_tag=params.tag.value, params=params.param_dict())
    csv_path = out_dir / f"{name}.csv"
    draws.save(csv_path, out_dir / f"{name}.json")

    rc = cli_main(["project", str(csv_path), "--out-dir", str(out_dir)])
    if rc != 0:
        raise SystemExit(rc)

    report = classify(draws.data, STANDARD_BASIS)
    report_path = out_dir / f"{name}_report.json"
    report_path.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True))

    chosen = report.chosen
    print(f"{name}: n={n} seed={seed}")
    print(f"  chosen class: {chosen.label(STANDARD_BASIS)}"
          f" (residual {chosen.residual:.2e}, tolerance {report.tolerance:.2e})")
    print(f"  prior-taxonomy alias: {via_class_alias(report)}")
    print(f"  report: {report_path}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", type=Path, default=Path("results"))
    parser.add_argument("--n", type=int, default=50_000)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    args.out_dir.mkdir(parents=True, exist_ok=True)

    run_dataset("pair_rotation_proper",
                MuMuParams(1.0, 0.3 + 0.1j, 0.2, STANDARD_BASIS),
                args.out_dir, args.n, args.seed)
    run_dataset("right_axis_proper",
                OneMuParams(1.0, 2.0, 0.5 + 0.3j, validate_basis(J, K)),
                args.out_dir, args.n, args.seed)


if __name__ == "__main__":
    main()
