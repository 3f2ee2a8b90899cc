"""Tests of the benchmark itself: every check passes on the program's real
outputs and rejects a corrupted one, and the tracer patches and restores
every binding.

    python3 -m pytest perfbench/selftest.py -q
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracle as O  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from quatprop import estimation, gaussian  # noqa: E402


def has(problems, text):
    return any(text in p for p in problems)


def op_of(workload, tag, count=6):
    return next(op for op in workload.ops(count) if op["tag"] == tag)


# --- the run length ---------------------------------------------------------

def test_each_run_has_ten_operations_beyond_its_p90():
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    for cls in W.WORKLOADS.values():
        count = bench.op_count(cls, seconds)
        assert count >= 100 and count % cls.round_len == 0


def test_a_raising_operation_makes_the_run_incorrect():
    def raises(op):
        raise ValueError("fault")
    run = bench.Run(W.ModelsSmall(seed=7))
    assert run.attempt_checked({}, raises) is None
    assert (run.attempted, run.failed, run.correct) == (1, 1, False)


# --- cli_csv_roundtrip ---------------------------------------------------------

@pytest.fixture
def cli(tmp_path):
    return W.CliCsvRoundtrip(seed=5, workdir=tmp_path)


def test_cli_every_class_passes(cli):
    for op in cli.ops(6):
        assert cli.check(op, cli.run(op)) == []


def _edit_report(out, step, edit):
    report = json.loads(out["stdout"][step])
    edit(report)
    out["stdout"][step] = json.dumps(report)


@pytest.mark.parametrize("corrupt, message", [
    (lambda out: _edit_report(out, 1, lambda r: r["chosen"].update({"class": "muone"})),
     "rule picks"),
    (lambda out: _edit_report(out, 3, lambda r: r["candidates"][2].update(
        residual=r["candidates"][2]["residual"] * (1 + 1e-8))), "residual of"),
    (lambda out: out["stdout"].__setitem__(
        1, out["stdout"][1].replace('"sigma2": ', '"sigma2": NaN, "x": ', 1)),
     "not strict JSON"),
    (lambda out: out["codes"].__setitem__(2, 2), "exit codes"),
])
def test_cli_rejects_a_corrupted_report(cli, corrupt, message):
    op = op_of(cli, "mumu")
    out = cli.run(op)
    corrupt(out)
    assert has(cli.check(op, out), message)


def _edit_csv(path, row, col, edit):
    lines = path.read_text().splitlines()
    fields = lines[row].split(",")
    fields[col] = edit(fields[col])
    lines[row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def _last_digit(text):
    """The field with its last mantissa digit changed so that it reads as
    another double (17 significant digits can spell one double two ways)."""
    mantissa, e, exp = text.partition("e")
    for step in range(1, 10):
        digit = str((int(mantissa[-1]) + step) % 10)
        changed = mantissa[:-1] + digit + e + exp
        if float(changed) != float(text):
            return changed
    raise AssertionError(f"no last-digit change of {text} alters its value")


@pytest.mark.parametrize("corrupt, message", [
    (lambda out: _edit_csv(out["src"], 7, 2, _last_digit), "in-memory sample"),
    (lambda out: _edit_csv(out["rot"], 9, 1, lambda f: repr(float(f) + 1e-9)),
     "rotated rows"),
    (lambda out: [_edit_csv(out["rot"], 9, col, lambda f: repr(float(f) * (1 + 1e-9)))
                  for col in range(4)], "modulus"),
    (lambda out: _edit_csv(out["proj"] / "rotated_ik.csv", 4, 1, _last_digit),
     "projection rotated_ik.csv"),
    (lambda out: (out["proj"] / "rotated_1j.csv").write_text(
        "".join((out["proj"] / "rotated_1j.csv").read_text().splitlines(True)[:-1])),
     "projection rotated_1j.csv"),
])
def test_cli_rejects_a_corrupted_file(cli, corrupt, message):
    op = op_of(cli, "onemu")
    out = cli.run(op)
    corrupt(out)
    assert has(cli.check(op, out), message)


def test_cli_rejects_a_rotation_that_breaks_the_class(cli):
    op = dict(op_of(cli, "musame"))
    op["u"], op["v"] = W.GENERIC_ROTATION
    problems = cli.check(op, cli.run(op))
    assert has(problems, "data were drawn from")


# --- estimate_large -------------------------------------------------------------

@pytest.fixture(scope="module")
def estimate():
    workload = W.EstimateLarge(seed=6)
    op = op_of(workload, "muone")
    op["basis"] = 1  # a random basis
    return workload, op, workload.run(op)


def test_estimate_passes(estimate):
    workload, op, out = estimate
    assert workload.check(op, out) == []


def _corrupt_estimate(out, kind):
    out = dict(out)
    report = out["report"]
    if kind == "label":
        other = next(c for c in report.candidates if c.tag.value == "onemu")
        out["report"] = dataclasses.replace(report, chosen=other)
    elif kind == "gamma":
        cc = report.complementary
        g = cc.gamma2.to_vec()
        g[1] *= 1 + 1e-8
        out["report"] = dataclasses.replace(report, complementary=dataclasses.replace(
            cc, gamma2=type(cc.gamma2).from_vec(g)))
    elif kind == "face":
        gh, gc, gr = out["faces"]
        h = gh.matrix.copy()
        h[1, 2, 3] += 1e-9
        out["faces"] = (dataclasses.replace(gh, matrix=h), gc, gr)
    elif kind == "truth":
        out["g"] = out["g"] * 1.1
    elif kind == "pdf":
        out["pdf"] = out["pdf"] * (1 + 1e-8)
    elif kind == "entropy":
        # draws of another covariance, with densities consistent with g
        out["x"] = out["x"] * 1.05
        out["pdf"] = gaussian.gaussian_pdf(out["x"], gaussian.CovarianceR(out["g"]))
    return out


@pytest.mark.parametrize("kind, message", [
    ("label", "rule picks"),
    ("gamma", "sigma2 or gamma1..3"),
    ("face", "Gram-matrix faces"),
    ("truth", "beyond 5 sigma2/sqrt(n)"),
    ("pdf", "gaussian_pdf differs"),
    ("entropy", "from the entropy"),
])
def test_estimate_rejects(estimate, kind, message):
    workload, op, out = estimate
    assert has(workload.check(op, _corrupt_estimate(out, kind)), message)


def test_estimate_rejects_a_class_other_than_the_generating_one(estimate):
    workload, op, out = estimate
    op = dict(op, tag="onemu")
    assert has(workload.check(op, out), "data were drawn from")


# --- models_small ---------------------------------------------------------------

@pytest.fixture(scope="module")
def models():
    workload = W.ModelsSmall(seed=7)
    ops = workload.ops(6)
    return workload, {op["tag"]: (op, workload.run(op)) for op in ops}


def test_models_every_class_passes(models):
    workload, runs = models
    for op, out in runs.values():
        assert workload.check(op, out) == []


def _faces(faces, **matrices):
    parts = {k: dataclasses.replace(getattr(faces, k), matrix=v)
             for k, v in matrices.items()}
    return faces._replace(**parts)


def _corrupt_models(out, kind, runs):
    out = dict(out)
    faces = out["faces"]
    if kind == "convert":
        conv = dict(out["converted"])
        conv["c>r"] = dataclasses.replace(conv["c>r"], matrix=conv["c>r"].matrix + 1e-9)
        out["converted"] = conv
    elif kind == "complex":
        c = faces.c.matrix.copy()
        c[0, 3] += 1e-9j
        out["faces"] = _faces(faces, c=c)
    elif kind == "invariance":
        out["faces"] = runs["general"][1]["faces"]
    elif kind == "psd":
        g = faces.r.matrix - 0.5 * np.eye(4)
        out["faces"] = _faces(faces, r=g)
    elif kind == "pdf":
        out["pdf"] = [p * (1 + 1e-8) for p in out["pdf"]]
    elif kind == "pdf_1mu":
        out["pdf_1mu"] = [p * (1 + 1e-7) for p in out["pdf_1mu"]]
    elif kind == "apply":
        q = out["moved"][0]
        out["moved"] = [type(q)(q.a, q.b, q.c + 1e-9, q.d)] + out["moved"][1:]
    elif kind == "residual":
        report = out["report"]
        cands = list(report.candidates)
        cands[4] = dataclasses.replace(cands[4], residual=cands[4].residual + 1e-8)
        out["report"] = dataclasses.replace(report, candidates=tuple(cands))
    elif kind == "label":
        report = out["report"]
        other = next(c for c in report.candidates if c is not report.chosen
                     and c.tag.value != "general")
        out["report"] = dataclasses.replace(report, chosen=other)
    return out


@pytest.mark.parametrize("kind, message", [
    ("convert", "convert c>r"),
    ("complex", "Cayley-Dickson"),
    ("invariance", "not invariant under the onemu rotation"),
    ("psd", "positive semidefinite"),
    ("pdf", "gaussian_pdf differs"),
    ("pdf_1mu", "pdf_1mu_proper differs"),
    ("apply", "DoubleRotation.apply"),
    ("residual", "residual of"),
    ("label", "rule picks"),
])
def test_models_rejects(models, kind, message):
    workload, runs = models
    op, out = runs["onemu"]
    assert has(workload.check(op, _corrupt_models(out, kind, runs)), message)


def test_models_rejects_parameters_the_face_does_not_carry(models):
    workload, runs = models
    op, out = runs["muone"]
    assert has(workload.check(dict(op, tag="onemu"), out), "does not carry")


def test_oracle_density_matches_scipy():
    from scipy.stats import multivariate_normal
    rng = np.random.default_rng(1)
    for _ in range(20):
        g = np.cov(rng.normal(size=(4, 12)))
        x = rng.normal(scale=0.8, size=(50, 4))
        ref = multivariate_normal(mean=np.zeros(4), cov=g).pdf(x)
        assert np.allclose(np.exp(-O.neg_log_density(x, g)), ref, rtol=1e-10, atol=0)


def test_oracle_entropy_matches_sampled_mean():
    rng = np.random.default_rng(0)
    g = np.cov(rng.normal(size=(4, 50)))
    x = rng.multivariate_normal(np.zeros(4), g, size=200_000)
    gap = O.neg_log_density(x, g).mean() - O.entropy(g)
    assert abs(gap) < 6 * math.sqrt(2 / len(x))


# --- tracing --------------------------------------------------------------------

def test_tracer_patches_every_binding_and_restores_it(models):
    import quatprop
    from quatprop import cli, qarray, rotations
    from quatprop.core import Quaternion
    workload, runs = models
    op, _ = runs["onemu"]
    before = (cli.sample, quatprop.sample, estimation.double_rotation,
              qarray.mul, Quaternion.__mul__)
    tracer = tracing.Tracer()
    out, seconds = tracer.op(workload.run, op)
    assert workload.check(op, out) == [] and seconds > 0
    after = (cli.sample, quatprop.sample, estimation.double_rotation,
             qarray.mul, Quaternion.__mul__)
    assert after == before
    patched = {(getattr(owner, "__name__", ""), attr) for owner, attr, *_ in tracer._patches}
    assert {("quatprop.cli", "sample"), ("quatprop", "sample"),
            ("quatprop.estimation", "double_rotation"),
            ("quatprop.qarray", "mul")} <= patched
    summary = tracer.summary(1)
    assert summary["qarray.mul.calls"] > 0 and summary["qarray.mul.products"] > 0
    assert summary["core.Quaternion.__mul__.calls"] > 0
    assert summary["rotations.double_rotation.calls"] > 0
    assert summary["gaussian.pdf_1mu_proper.calls"] == 4
    assert set(summary) | {"trace.overhead_pct"} == \
        {k for k, _ in tracing.metric_names()}
    total = sum(v for k, v in summary.items() if k.endswith(".self_s"))
    assert 0 < total <= seconds
    assert rotations.double_rotation is estimation.double_rotation
