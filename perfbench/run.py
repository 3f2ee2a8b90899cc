"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

A run builds the workload's operations from the seed, runs one untimed
warm-up operation, then a fixed number of operations set by --seconds, one
after another in this process on one thread. Every operation's outputs are
checked outside its timed span, and a speed probe is timed after each, to
scale the operation times to the machine's usual speed. The last line of
stdout is one JSON object:
end-to-end metrics with --trace 0, per-layer metrics from spans around the
package's public functions with --trace 1.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# one BLAS thread, fixed before numpy loads its BLAS library
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".perfbench_run"


def setup_seconds():
    """Seconds since this process started, read from /proc/self/stat; where
    that cannot be read, since this script started."""
    script = time.perf_counter() - T_START
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - start
    except (OSError, ValueError, IndexError, AttributeError):
        return script
    # the start time is in clock ticks; anything far off is not this process
    return age if script <= age < script + 10.0 else script


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def import_program():
    """Import quatprop from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import quatprop
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import quatprop from {src}: {exc}")
    if Path(quatprop.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: quatprop was imported from {quatprop.__file__}")


def op_count(workload, seconds):
    """Whole rounds of operations filling about `seconds` at the nominal rate."""
    rounds = math.ceil(seconds * workload.nominal_rate / workload.round_len)
    return max(1, rounds) * workload.round_len


class Run:
    """Operations attempted, failed (raised) and found wrong by the checks."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = self.failed = self.wrong = 0

    @property
    def correct(self):
        return self.failed == 0 and self.wrong == 0

    def attempt(self, op, call):
        """One operation through call(op) -> (outputs, seconds); returns
        that pair, or None if the operation raised."""
        self.attempted += 1
        try:
            return call(op)
        except Exception as exc:  # a fault of the program, counted as failed
            self.failed += 1
            self.report(f"operation raised {type(exc).__name__}: {exc}")
            return None

    def attempt_checked(self, op, call):
        """attempt(op, call), then the operation's checks; returns its
        seconds, or None if it raised."""
        result = self.attempt(op, call)
        if result is None:
            return None
        self.check(op, result[0])
        return result[1]

    def check(self, op, out):
        try:
            problems = self.workload.check(op, out)
        except Exception as exc:  # output too malformed to check
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        self.wrong += bool(problems)
        for problem in problems:
            self.report(problem)

    def report(self, problem):
        print(f"perfbench: {self.workload.name}: {problem}", file=sys.stderr)


def timed(run_op):
    def call(op):
        t0 = time.perf_counter()
        out = run_op(op)
        return out, time.perf_counter() - t0
    return call


# The probe's median time on the reference machine, in its usual state.
PROBE_REF = 0.9e-3


def probe_seconds():
    """Time fixed pure-Python work: 6000 steps of a linear congruential
    generator. It allocates nothing that outlives a step and touches only
    a few objects, so that it measures the machine's speed rather than the
    state the program leaves behind (see "Noise" in README.md)."""
    t0 = time.perf_counter()
    x = 1
    for _ in range(6000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    return time.perf_counter() - t0


def measure(run, ops, untraced, setup_s):
    """End-to-end metrics. The speed probe is timed after every operation;
    operation times are divided by the run's slowdown, the probe's median
    over PROBE_REF. setup_s is not scaled: its one cold set-up comes before
    the probes, and scaling did not narrow its spread."""
    times, probes = [], []
    for op in ops:
        t = run.attempt_checked(op, untraced)
        if t is not None:
            times.append(t)
            probes.append(probe_seconds())
    if not times:
        return {}, {}
    slow = statistics.median(probes) / PROBE_REF
    print(f"perfbench: raw wall time: median {1e3 * statistics.median(times):.3f} ms, "
          f"{len(times) / sum(times):.4g} ops/s, setup {setup_s:.3f} s; "
          f"slowdown {slow:.3f}", file=sys.stderr)
    times = [t / slow for t in times]
    return {
        "setup_s": setup_s,
        "ops_per_s": len(times) / sum(times),
        "op_median_ms": 1e3 * statistics.median(times),
        "op_p90_ms": 1e3 * statistics.quantiles(times, n=10)[-1],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, {"setup_s": "s", "ops_per_s": "ops/s", "op_median_ms": "ms",
        "op_p90_ms": "ms", "peak_rss_mib": "MiB"}


def measure_traced(run, ops, untraced, tracer):
    """Per-layer metrics from a traced pass over the operations, each
    operation also run untraced to give the tracing overhead."""
    traced = lambda op: tracer.op(run.workload.run, op)  # noqa: E731
    plain, with_trace = [], []
    for i, op in enumerate(ops):
        # alternate which pass goes first, so neither gets the warmer cache
        order = (untraced, traced) if i % 2 == 0 else (traced, untraced)
        t = [run.attempt_checked(op, call) for call in order]
        if None not in t:
            plain.append(t[i % 2])
            with_trace.append(t[1 - i % 2])
    if not plain:
        return {}, {}
    metrics = tracer.summary(len(ops))
    metrics["trace.overhead_pct"] = 100.0 * (sum(with_trace) / sum(plain) - 1)
    return metrics, dict(tracing.metric_names())


def main():
    args = parse_args()
    import_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")

    workdir = RUN_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        ops = workload.ops(op_count(workload, args.seconds))
        run = Run(workload)
        untraced = timed(workload.run)
        warm = run.attempt(ops[0], untraced)
        setup_s = setup_seconds()
        if warm is not None:
            run.check(ops[0], warm[0])
        # what setup and the warm-up left behind is never garbage: keep it
        # out of the collections that fall inside timed operations
        gc.collect()
        gc.freeze()
        if not run.correct:
            metrics, units = {}, {}  # a wrong or raising warm-up: measure nothing
        elif args.trace:
            tracer = tracing.Tracer()
            metrics, units = measure_traced(run, ops, untraced, tracer)
            tracer.dump(RUN_DIR / f"trace-{args.workload}.json")
        else:
            metrics, units = measure(run, ops, untraced, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": run.correct, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
