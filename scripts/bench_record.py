"""Record the benchmark's end-to-end metrics in a BENCH_<n>.json file.

Runs the command of BENCHMARK.json (perfbench/run.py) with --trace 0 the
given number of times for each workload, one run after another, and writes
each end-to-end metric's median, quartiles and per-run values, with the
Python and numpy versions, the CPU count and the seed of every run. Run i of
every workload uses seed --seed + i. A run that exits non-zero, reports
"correct": false or fails an operation stops the script with exit code 1
and no file written.

Usage:
    python scripts/bench_record.py --out BENCH_<n>.json [--runs 5]
        [--seconds 30] [--seed 1]
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds):
    """The JSON result of one untraced run; exits on a failed run."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or not result["correct"] or result["failed"]:
        sys.stderr.write(proc.stderr)
        sys.exit(f"bench_record: {workload} seed {seed} failed "
                 f"(exit {proc.returncode}): {lines[-1] if lines else 'no output'}")
    return result


def summary(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75]).tolist()
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.runs < 1:
        parser.error(f"--runs must be at least 1, got {args.runs}")

    seeds = [args.seed + i for i in range(args.runs)]
    results = {w["name"]: [] for w in bench["workloads"]}
    for seed in seeds:
        for workload in results:
            results[workload].append(run_once(bench["command"], workload, seed,
                                              args.seconds))
            print(f"{workload} seed {seed}: done", file=sys.stderr)

    record = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "command": bench["command"],
        "seconds": args.seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for workload, runs in results.items():
        metrics = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            metrics[name] = {"unit": metric["unit"], "better": metric["better"],
                             **summary([r["metrics"][name]["value"] for r in runs])}
        record["workloads"][workload] = {
            "attempted": [r["attempted"] for r in runs], "metrics": metrics}
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
