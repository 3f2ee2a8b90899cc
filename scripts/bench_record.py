"""Record the benchmark's end-to-end metrics in a BENCH_<n>.json file.

Runs the command of BENCHMARK.json (perfbench/run.py) with --trace 0 the
given number of times for each workload, one run after another, and writes
each end-to-end metric's median, quartiles and per-run values, with the
Python and numpy versions, the CPU count and the seed of every run. Run i of
every workload uses seed --seed + i. A run that exits non-zero, reports
"correct": false or fails an operation stops the script with exit code 1
and no file written.

With --against REV it records no file: it extracts REV with `git archive`
(local history only) and runs --pairs pairs of runs of every workload, one
run of REV's tree and one of this checkout's in each pair, REV first in even
pairs and this checkout first in odd ones; pair i uses seed --seed + i on
both sides. It then prints, per workload and end-to-end metric, the median
of each side, REV's quartiles and the pairs this checkout won (a better
value by the metric's "better" in BENCHMARK.json), as a Markdown table.

Usage:
    python scripts/bench_record.py --out BENCH_<n>.json [--runs 5]
        [--seconds 30] [--seed 1]
    python scripts/bench_record.py --against REV [--pairs 10]
        [--seconds 30] [--seed 1]
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds, root=ROOT):
    """The JSON result of one untraced run in the tree at root; exits on a
    failed run."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
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


def pairs(bench, rev, count, seconds, seed):
    """Run count alternating pairs of REV's tree and this checkout on every
    workload and print the table of each end-to-end metric."""
    workloads = [w["name"] for w in bench["workloads"]]
    values = {(w, side): [] for w in workloads for side in ("rev", "ours")}
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        git = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev],
                               stdout=subprocess.PIPE)
        untar = subprocess.run(["tar", "-x", "-C", str(tree)], stdin=git.stdout)
        git.stdout.close()
        if git.wait() or untar.returncode:
            sys.exit(f"bench_record: cannot extract {rev} with git archive")
        for i in range(count):
            order = [("rev", tree), ("ours", ROOT)]
            for workload in workloads:
                for side, root in order if i % 2 == 0 else order[::-1]:
                    result = run_once(bench["command"], workload, seed + i,
                                      seconds, root)
                    values[workload, side].append(result["metrics"])
                print(f"{workload} pair {i + 1} of {count}: done",
                      file=sys.stderr)
    print(f"| workload | metric | {rev} median | {rev} q1–q3 | median | wins |")
    print("|---|---|---:|---:|---:|---:|")
    for workload in workloads:
        for metric in bench["end_to_end"]:
            name = metric["name"]
            theirs, ours = ([m[name]["value"] for m in values[workload, side]]
                            for side in ("rev", "ours"))
            sign = 1.0 if metric["better"] == "lower" else -1.0
            wins = sum(sign * b < sign * a for a, b in zip(theirs, ours))
            q1, median, q3 = np.percentile(theirs, [25, 50, 75]).tolist()
            print(f"| {workload} | {name} ({metric['unit']}) | {median:.4g} "
                  f"| {q1:.4g}–{q3:.4g} | {np.median(ours):.4g} "
                  f"| {wins} of {count} |")
    return 0


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    where = parser.add_mutually_exclusive_group(required=True)
    where.add_argument("--out", type=Path)
    where.add_argument("--against", metavar="REV",
                       help="compare paired runs with a git revision")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.runs < 1:
        parser.error(f"--runs must be at least 1, got {args.runs}")
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    if args.against:
        return pairs(bench, args.against, args.pairs, args.seconds, args.seed)

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
