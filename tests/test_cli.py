import argparse
import itertools
import json
import subprocess
import sys
import warnings
from argparse import Namespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatprop import (STANDARD_BASIS, PureUnit, cli, gaussian,
                      read_sample_csv, validate_basis)
from quatprop.cli import main

from support import (EDGE_DOUBLES, PARAM_FLAG_ORDER, REFERENCE_CLASS_FLAGS,
                     generate_params_reference, rand_basis,
                     write_sample_csv_reference)


def run_cli(*argv):
    return main(list(argv))


def gen_args(out, **overrides):
    base = {"class": "mumu", "sigma2": "1", "alpha": "0.3,0.1", "delta": "0.2",
            "n": "2000", "seed": "42"}
    base.update(overrides)
    argv = ["generate", "--out", str(out)]
    for key, val in base.items():
        if val is not None:
            argv += [f"--{key}", val]
    return argv


def test_generate_writes_csv_and_metadata(tmp_path, capsys):
    out = tmp_path / "draws.csv"
    assert run_cli(*gen_args(out)) == 0
    data = read_sample_csv(out)
    assert data.shape == (2000, 4)
    meta = json.loads((tmp_path / "draws.json").read_text())
    assert meta["class"] == "mumu" and meta["seed"] == 42 and meta["n"] == 2000
    assert meta["axes"]["mu1"] == [1.0, 0.0, 0.0]
    assert meta["params"]["alpha"] == [0.3, 0.1]
    captured = capsys.readouterr()
    assert captured.out == ""  # diagnostics go to stderr only
    assert "2000" in captured.err


def test_generate_is_byte_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(*gen_args(out1))
    run_cli(*gen_args(out2))
    assert out1.read_bytes() == out2.read_bytes()
    out3 = tmp_path / "c.csv"
    run_cli(*gen_args(out3, seed="43"))
    assert out1.read_bytes() != out3.read_bytes()


def test_generate_hproper_small(tmp_path):
    out = tmp_path / "h.csv"
    assert run_cli("generate", "--class", "hproper", "--sigma2", "1",
                   "--n", "10", "--seed", "1", "--out", str(out)) == 0
    assert read_sample_csv(out).shape == (10, 4)


def test_generate_general_class(tmp_path):
    out = tmp_path / "g.csv"
    rc = run_cli("generate", "--class", "general", "--sigma2", "1",
                 "--gamma1", "0.1,0,0.15,0.05", "--gamma2", "0.08,0.12,0,-0.06",
                 "--gamma3=-0.05,0.07,0.04,0", "--n", "500", "--seed", "2",
                 "--out", str(out))
    assert rc == 0


def test_generate_missing_param_is_usage_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    rc = run_cli(*gen_args(out, alpha=None))
    assert rc == 1
    assert "requires --alpha" in capsys.readouterr().err


def test_generate_extraneous_param_is_usage_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    rc = run_cli("generate", "--class", "hproper", "--sigma2", "1",
                 "--omega", "0.5", "--out", str(out))
    assert rc == 1
    assert "does not take --omega" in capsys.readouterr().err


def test_generate_indefinite_params_is_usage_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    rc = run_cli(*gen_args(out, alpha="0.9,0.4", delta="0.3"))
    assert rc == 1
    assert "eigenvalue" in capsys.readouterr().err


def test_generate_structural_zero_violation(tmp_path, capsys):
    out = tmp_path / "x.csv"
    rc = run_cli("generate", "--class", "general", "--sigma2", "1",
                 "--gamma1", "0.1,0.2,0,0", "--gamma2", "0,0,0,0",
                 "--gamma3", "0,0,0,0", "--out", str(out))
    assert rc == 1
    assert "gamma1" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("n", "0"), ("seed", "-1"),
                                         ("sigma2", "nan")])
def test_generate_bad_value_is_one_line_usage_error(flag, value, tmp_path, capsys):
    out = tmp_path / "x.csv"
    rc = run_cli(*gen_args(out, **{flag: None}), f"--{flag}={value}")
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert f"--{flag}" in err
    assert not out.exists()


def test_unknown_flag_is_usage_error(capsys):
    assert run_cli("generate", "--class", "mumu", "--frobnicate", "1") == 1


def test_classify_round_trip(tmp_path, capsys):
    out = tmp_path / "draws.csv"
    run_cli(*gen_args(out, n="50000"))
    capsys.readouterr()
    assert run_cli("classify", str(out)) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["chosen"]["label"] == "mumu(i,j)"
    assert report["alias"] == "outside prior taxonomy"


def test_classify_zero_csv_is_data_error(tmp_path, capsys):
    path = tmp_path / "zeros.csv"
    rows = "\n".join(["0,0,0,0"] * 200)
    path.write_text("a,b,c,d\n" + rows + "\n")
    assert run_cli("classify", str(path)) == 2
    assert "degenerate covariance" in capsys.readouterr().err


def test_classify_too_few_rows_is_not_called_degenerate(tmp_path, capsys):
    path = tmp_path / "h.csv"
    run_cli("generate", "--class", "hproper", "--sigma2", "1", "--n", "50",
            "--out", str(path))
    capsys.readouterr()
    assert run_cli("classify", str(path)) == 2
    err = capsys.readouterr().err
    assert "need at least 100 samples" in err
    assert "degenerate" not in err


# one field of 1e200 overflows S; every field times 1e153 leaves S finite but
# overflows |gamma|^2
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale_all", [False, True], ids=["one_1e200", "all_1e153"])
def test_classify_overflowing_samples_is_data_error(scale_all, tmp_path, capsys):
    path = tmp_path / "h.csv"
    run_cli("generate", "--class", "hproper", "--sigma2", "1", "--n", "200",
            "--out", str(path))
    lines = path.read_text().splitlines()
    if scale_all:
        lines[1:] = [",".join(repr(float(v) * 1e153) for v in line.split(","))
                     for line in lines[1:]]
    else:
        fields = lines[50].split(",")
        fields[1] = "1e200"
        lines[50] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli("classify", str(path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


def test_classify_malformed_csv_names_line(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c,d\n1,2,3,4\noops\n")
    assert run_cli("classify", str(path)) == 2
    assert "line 3" in capsys.readouterr().err


def test_classify_non_finite_field_is_data_error(tmp_path, capsys):
    path = tmp_path / "draws.csv"
    run_cli(*gen_args(path, n="500"))
    lines = path.read_text().splitlines()
    fields = lines[321].split(",")
    fields[2] = "nan"
    lines[321] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli("classify", str(path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 322: non-finite field" in captured.err


@pytest.mark.parametrize("c", ["0", "-1"])
def test_classify_bad_c_is_usage_error(c, tmp_path, capsys):
    path = tmp_path / "draws.csv"
    run_cli(*gen_args(path, n="500"))
    capsys.readouterr()
    assert run_cli("classify", str(path), f"--c={c}") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: --c")


def test_classify_missing_file_is_data_error(tmp_path, capsys):
    assert run_cli("classify", str(tmp_path / "nope.csv")) == 2


def test_project_single_row(tmp_path):
    src = tmp_path / "one.csv"
    src.write_text("a,b,c,d\n1,2,3,4\n")
    out = tmp_path / "proj"
    assert run_cli("project", str(src), "--out-dir", str(out)) == 0
    expected = {
        "one_1i.csv": ("re,im_i", "1,2"),
        "one_jk.csv": ("im_j,im_k", "3,4"),
        "one_1j.csv": ("re,im_j", "1,3"),
        "one_ik.csv": ("im_i,im_k", "2,4"),
        "one_1k.csv": ("re,im_k", "1,4"),
        "one_ij.csv": ("im_i,im_j", "2,3"),
    }
    for name, (header, row) in expected.items():
        lines = (out / name).read_text().splitlines()
        assert lines[0] == header
        assert [float(v) for v in lines[1].split(",")] == \
            [float(v) for v in row.split(",")]


def test_project_preserves_row_count_and_selects_pairs(tmp_path):
    src = tmp_path / "draws.csv"
    run_cli(*gen_args(src, n="123"))
    out = tmp_path / "proj"
    assert run_cli("project", str(src), "--out-dir", str(out),
                   "--pairs", "j") == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == ["draws_1j.csv", "draws_ik.csv"]
    for name in files:
        assert len((out / name).read_text().splitlines()) == 124


def test_rotate_identity_is_byte_identical(tmp_path):
    src = tmp_path / "draws.csv"
    run_cli(*gen_args(src, n="100"))
    out = tmp_path / "rot.csv"
    assert run_cli("rotate", str(src), "--u", "1,0,0,0", "--v", "1,0,0,0",
                   "--out", str(out)) == 0
    assert out.read_bytes() == src.read_bytes()


def test_rotate_preserves_modulus(tmp_path):
    src = tmp_path / "draws.csv"
    run_cli(*gen_args(src, n="200"))
    out = tmp_path / "rot.csv"
    run_cli("rotate", str(src), "--u", "0,1,0,0", "--v", "0,0,1,0",
            "--out", str(out))
    a = read_sample_csv(src)
    b = read_sample_csv(out)
    assert np.allclose(np.sum(a * a, axis=1), np.sum(b * b, axis=1))
    assert not np.allclose(a, b)


def test_rotate_rejects_non_unit(tmp_path, capsys):
    src = tmp_path / "draws.csv"
    run_cli(*gen_args(src, n="10"))
    rc = run_cli("rotate", str(src), "--u", "2,0,0,0", "--v", "1,0,0,0",
                 "--out", str(tmp_path / "r.csv"))
    assert rc == 1
    assert "unit quaternion" in capsys.readouterr().err


def run_overflowing_rotate(tmp_path, out):
    # u*q overflows on the first row of big.csv
    src = tmp_path / "big.csv"
    src.write_text("a,b,c,d\n1.7e308,1.7e308,0,0\n1,2,3,4\n")
    return run_cli("rotate", str(src),
                   "--u", "0.70710678118654757,0.70710678118654757,0,0",
                   "--v", "1,0,0,0", "--out", str(out))


def test_rotate_overflow_is_one_line_data_error(tmp_path, capsys):
    # the writer refuses the inf before the output is created, and no numpy
    # warning is printed
    out = tmp_path / "r.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_overflowing_rotate(tmp_path, out)
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"data error: cannot write {out}: line 2: "
                            "non-finite value in row [0.0, inf, 0.0, 0.0]\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.csv"]


def test_refused_write_removes_the_directories_it_made(tmp_path, capsys):
    assert run_overflowing_rotate(tmp_path, tmp_path / "ofo" / "sub" / "r.csv") == 2
    assert capsys.readouterr().err.startswith("data error: cannot write ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.csv"]


def test_refused_write_keeps_the_directories_that_existed(tmp_path, capsys):
    old = tmp_path / "old"
    old.mkdir()
    assert run_overflowing_rotate(tmp_path, old / "new" / "r.csv") == 2
    assert run_overflowing_rotate(tmp_path, old / "r.csv") == 2
    assert capsys.readouterr().err.count("data error: cannot write ") == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.csv", "old"]
    assert list(old.iterdir()) == []


CLASS_FLAGS = {
    "hproper": {"sigma2": "1"},
    "mumu": {"sigma2": "1", "alpha": "0.3,0.1", "delta": "0.2"},
    "muone": {"sigma2": "1", "varsigma2": "2", "omega": "0.5,0.3"},
    "onemu": {"sigma2": "1", "varsigma2": "2", "omega": "0.5,0.3"},
    "musame": {"sigma2": "1", "varsigma2": "1.5", "alpha": "0.2,0.1",
               "delta": "-0.1,0.3"},
    "general": {"sigma2": "1", "gamma1": "0.1,0,0.15,0.05",
                "gamma2": "0.08,0.12,0,-0.06", "gamma3": "-0.05,0.07,0.04,0"},
}


@pytest.mark.parametrize("tag", sorted(CLASS_FLAGS))
def test_generate_classify_round_trip_recovers_class(tag, tmp_path, capsys):
    for seed in range(10):
        out = tmp_path / f"{tag}_{seed}.csv"
        argv = ["generate", "--class", tag, "--n", "50000",
                "--seed", str(seed), "--out", str(out)]
        for flag, val in CLASS_FLAGS[tag].items():
            argv.append(f"--{flag}={val}")
        assert run_cli(*argv) == 0
        capsys.readouterr()
        assert run_cli("classify", str(out)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["chosen"]["class"] == tag, (tag, seed, report["chosen"])


@pytest.mark.parametrize("axes", [[], ["--mu1", "1,2,3", "--mu2", "3,0,-1"]],
                         ids=["standard", "mu1_123"])
@pytest.mark.parametrize("tag", sorted(CLASS_FLAGS))
def test_generate_sidecar_params_rerun_to_the_same_draws(tag, axes, tmp_path):
    # the sidecar's params, given back as flags, are the run's own flags:
    # the re-run writes the same CSV byte for byte and the same sidecar
    def generate(out, flags):
        argv = ["generate", "--class", tag, "--n", "200", "--seed", "3",
                "--out", str(out), *axes]
        return run_cli(*argv, *(f"--{flag}={val}" for flag, val in flags.items()))

    assert generate(tmp_path / "a.csv", CLASS_FLAGS[tag]) == 0
    params = json.loads((tmp_path / "a.json").read_text())["params"]
    flags = {flag: ",".join(map(repr, value)) if isinstance(value, list)
             else repr(value) for flag, value in params.items()}
    assert generate(tmp_path / "b.csv", flags) == 0
    assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()
    assert json.loads((tmp_path / "b.json").read_text())["params"] == params


def test_console_entry_point(tmp_path):
    out = tmp_path / "draws.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "quatprop.cli", "generate", "--class", "hproper",
         "--sigma2", "1", "--n", "5", "--seed", "0", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    assert proc.stdout == ""


def test_console_entry_point_exits_with_the_usage_error_code():
    proc = subprocess.run([sys.executable, "-m", "quatprop.cli", "classify"],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage error: ")
    assert proc.stderr.count("\n") == 1


# --- class-parameter flags against the hand-written reference rule ---------

GOOD_VALUES = {"sigma2": "1", "varsigma2": "2", "alpha": "0.3,0.1",
               "delta": "0.2", "omega": "0.5,0.3",
               "gamma1": "0.1,0,0.15,0.05", "gamma2": "0.08,0.12,0,-0.06",
               "gamma3": "-0.05,0.07,0.04,0"}

# imaginary parts on real flags, own-axis gammas, malformed and non-finite
# values, and values every kind accepts
ODD_VALUES = ["1,0.5", "2,-1", "-0.2,0", "0.3", "0.3,0.1,4", "x", "1,y",
              "inf", "nan,1", "", "0.1,0.2,0,0", "0,0,0.1,0", "0,0,0,0.2",
              "0,0,inf,0", "1,2,3", "0,0,0,0", "3e6,0,2e6,1e6"]


def _bases():
    return [STANDARD_BASIS,
            validate_basis(PureUnit(1, 2, 3), PureUnit(3, 0, -1)),
            rand_basis(np.random.default_rng(7))]


def _params_outcome(tag, flags, basis):
    """_params_from_args on these flags: the param_dict, or the message."""
    args = Namespace(class_tag=tag,
                     **{flag: flags.get(flag) for flag in PARAM_FLAG_ORDER})
    try:
        return cli._params_from_args(args, basis)[0].param_dict()
    except cli.UsageError as exc:
        return str(exc)


@pytest.mark.parametrize("tag", sorted(REFERENCE_CLASS_FLAGS))
def test_params_from_args_matches_reference_on_every_flag_subset(tag):
    # the first missing or extra flag, in the reference order
    for basis in _bases():
        for mask in range(1 << len(PARAM_FLAG_ORDER)):
            flags = {flag: GOOD_VALUES[flag]
                     for bit, flag in enumerate(PARAM_FLAG_ORDER) if mask >> bit & 1}
            assert _params_outcome(tag, flags, basis) == \
                generate_params_reference(tag, flags, basis), (tag, flags)


@pytest.mark.parametrize("tag", sorted(REFERENCE_CLASS_FLAGS))
def test_params_from_args_matches_reference_on_odd_values(tag):
    own = list(REFERENCE_CLASS_FLAGS[tag])
    extra = [f for f in PARAM_FLAG_ORDER if f not in own]
    cases = []
    for flag, value in itertools.product(own, ODD_VALUES):
        cases.append({**{f: GOOD_VALUES[f] for f in own}, flag: value})
    # two faults at once: the first in field order is reported
    for (f1, f2), (v1, v2) in itertools.product(
            itertools.combinations(own, 2), itertools.product(ODD_VALUES[:8], repeat=2)):
        cases.append({**{f: GOOD_VALUES[f] for f in own}, f1: v1, f2: v2})
    # a missing or extra flag is reported before any odd value
    for value in ODD_VALUES:
        cases.append({f: value for f in own[1:]})
        cases += [{**{f: value for f in own}, e: GOOD_VALUES[e]} for e in extra]
    for basis in _bases():
        for flags in cases:
            assert _params_outcome(tag, flags, basis) == \
                generate_params_reference(tag, flags, basis), (tag, flags)


@pytest.mark.parametrize("tag, flags, message", [
    ("mumu", {"sigma2": "1", "delta": "0.2"}, "class mumu requires --alpha"),
    ("hproper", {"sigma2": "1", "omega": "0.5"},
     "class hproper does not take --omega"),
    ("muone", {"sigma2": "1", "varsigma2": "2,1", "omega": "0.5"},
     "--varsigma2 must be real for class muone"),
    ("mumu", {"sigma2": "1", "alpha": "0.3", "delta": "0.2,0.1"},
     "--delta must be real for class mumu"),
    ("musame", {"sigma2": "1", "varsigma2": "1.5", "alpha": "0.2,0.1,0",
                "delta": "x"}, "--alpha must be 're' or 're,im', got '0.2,0.1,0'"),
    ("general", {"sigma2": "1", "gamma1": "0,0,0,0", "gamma2": "0,0,0.2,0",
                 "gamma3": "0,0,0,0.3"},
     "gamma2 must have no component on its own axis (found 2.000e-01)"),
    ("general", {"varsigma2": "2", "gamma1": "1"}, "class general requires --sigma2"),
    ("onemu", {"sigma2": "1", "varsigma2": "nan", "omega": "1,2,3", "gamma3": "0"},
     "class onemu does not take --gamma3"),
])
def test_params_from_args_messages(tag, flags, message):
    assert generate_params_reference(tag, flags) == message
    assert _params_outcome(tag, flags, STANDARD_BASIS) == message


# --- project: one formatting pass, per-pair files ---------------------------

# --pairs -> (file suffix, columns, header) of each file, in the order written
PROJECTIONS = {
    "i": [("1i", (0, 1), "re,im_i"), ("jk", (2, 3), "im_j,im_k")],
    "j": [("1j", (0, 2), "re,im_j"), ("ik", (1, 3), "im_i,im_k")],
    "k": [("1k", (0, 3), "re,im_k"), ("ij", (1, 2), "im_i,im_j")],
}
PROJECTIONS["all"] = PROJECTIONS["i"] + PROJECTIONS["j"] + PROJECTIONS["k"]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([1, 1023, 1024, 1025, 2049]),
       st.sampled_from(sorted(PROJECTIONS)), st.integers(0, 2**32 - 1))
def test_project_files_match_reference_writer(tmp_path_factory, n, pairs, seed):
    # every finite double is reachable from random bit patterns; the edge
    # values land at random places among them
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2**64, size=(n, 4), dtype=np.uint64).view(np.float64).copy()
    x[~np.isfinite(x)] = 1.0
    flat = x.reshape(-1)
    flat[rng.integers(0, flat.size, size=len(EDGE_DOUBLES))] = EDGE_DOUBLES
    d = tmp_path_factory.mktemp("project")
    write_sample_csv_reference(d / "src.csv", x)
    assert main(["project", str(d / "src.csv"), "--pairs", pairs,
                 "--out-dir", str(d / "out")]) == 0
    names = []
    for suffix, cols, header in PROJECTIONS[pairs]:
        write_sample_csv_reference(d / "ref.csv", x[:, cols], header=header)
        got = (d / "out" / f"src_{suffix}.csv").read_bytes()
        assert got == (d / "ref.csv").read_bytes(), (suffix, n)
        names.append(f"src_{suffix}.csv")
    assert sorted(p.name for p in (d / "out").iterdir()) == sorted(names)


@pytest.mark.parametrize("pairs", sorted(PROJECTIONS))
def test_project_reports_each_file_written_in_order(pairs, tmp_path, capsys):
    src = tmp_path / "draws.csv"
    run_cli(*gen_args(src, n="20"))
    capsys.readouterr()
    out = tmp_path / "planes"
    assert run_cli("project", str(src), "--pairs", pairs, "--out-dir", str(out)) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"wrote {out / f'draws_{suffix}.csv'}" for suffix, _, _ in PROJECTIONS[pairs]]


# --- outputs that cannot be written -----------------------------------------

@pytest.mark.parametrize("case", ["generate_under_file", "project_into_file",
                                  "project_file_is_dir", "rotate_onto_dir"])
def test_unwritable_output_is_one_line_data_error(case, tmp_path, capsys):
    src = tmp_path / "draws.csv"
    run_cli(*gen_args(src, n="10"))
    regular = tmp_path / "regular"
    regular.write_text("")
    planes = tmp_path / "planes"
    (planes / "draws_1j.csv").mkdir(parents=True)
    argv, named = {
        "generate_under_file": (gen_args(regular / "x.csv", n="10"), regular),
        "project_into_file": (["project", str(src), "--out-dir", str(regular)],
                              regular),
        "project_file_is_dir": (["project", str(src), "--out-dir", str(planes)],
                                planes / "draws_1j.csv"),
        "rotate_onto_dir": (["rotate", str(src), "--u", "1,0,0,0",
                             "--v", "1,0,0,0", "--out", str(planes)], planes),
    }[case]
    capsys.readouterr()
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"data error: cannot write {named}: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    if case == "project_file_is_dir":
        # draws_1i.csv and draws_jk.csv, opened before draws_1j.csv failed,
        # are removed rather than left holding only their headers
        assert [p.name for p in planes.iterdir()] == ["draws_1j.csv"]


def test_generate_sidecar_failure_leaves_no_csv(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "d.json").mkdir(parents=True)
    capsys.readouterr()
    assert run_cli(*gen_args(out / "d.csv", n="10")) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"data error: cannot write {out / 'd.json'}: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert [p.name for p in out.iterdir()] == ["d.json"]


# --- usage errors come before any file is read or written --------------------

@pytest.mark.parametrize("name", ["d.json", "new/d.json", "old.json"])
def test_generate_out_that_is_its_own_sidecar_is_usage_error(name, tmp_path,
                                                            capsys):
    old = tmp_path / "old.json"
    old.write_text("kept\n")
    assert run_cli(*gen_args(tmp_path / name, n="5")) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: --out")
    assert "sidecar" in captured.err
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    # nothing was created, and an existing file was not truncated
    assert [p.name for p in tmp_path.iterdir()] == ["old.json"]
    assert old.read_text() == "kept\n"


def test_generate_out_without_a_file_name_is_usage_error(capsys):
    assert run_cli(*gen_args("/", n="5")) == 1
    captured = capsys.readouterr()
    assert captured.err == "usage error: --out must name a file, got '/'\n"


@pytest.mark.parametrize("link", ["same", "relative", "symlink", "hardlink"])
def test_rotate_out_that_is_its_input_is_usage_error(link, tmp_path,
                                                     monkeypatch, capsys):
    # refused before the input is read, so the writer never opens it: an
    # interrupted write onto the input would otherwise remove it
    src = tmp_path / "draws.csv"
    assert run_cli(*gen_args(src, n="5")) == 0
    before = src.read_bytes()
    monkeypatch.chdir(tmp_path)
    out = {"same": str(src), "relative": "draws.csv",
           "symlink": str(tmp_path / "alias.csv"),
           "hardlink": str(tmp_path / "twin.csv")}[link]
    if link == "symlink":
        (tmp_path / "alias.csv").symlink_to(src)
    if link == "hardlink":
        (tmp_path / "twin.csv").hardlink_to(src)
    listing = sorted(tmp_path.iterdir())
    monkeypatch.setattr(cli, "read_sample_csv",
                        lambda path: pytest.fail(f"read {path}"))
    capsys.readouterr()
    assert run_cli("rotate", str(src), "--u", "0,1,0,0", "--v", "1,0,0,0",
                   "--out", out) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"usage error: --out {out!r} is the input file; "
                            "give it another path\n")
    assert sorted(tmp_path.iterdir()) == listing
    assert src.read_bytes() == before


def test_rotate_onto_a_missing_input_is_a_read_error(tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    assert run_cli("rotate", missing, "--u", "1,0,0,0", "--v", "1,0,0,0",
                   "--out", missing) == 2
    assert capsys.readouterr().err.startswith(f"data error: cannot read {missing}: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["generate", "rotate"])
def test_out_ending_in_a_separator_is_usage_error(command, tmp_path, capsys):
    # pathlib drops the final "/", so "results/" must be refused as given,
    # not written as a file named results
    src = tmp_path / "draws.csv"
    assert run_cli(*gen_args(src, n="5")) == 0
    before = sorted(tmp_path.iterdir())
    out = f"{tmp_path / 'results'}/"
    argv = {"generate": gen_args(out, n="5"),
            "rotate": ["rotate", str(src), "--u", "1,0,0,0", "--v", "1,0,0,0",
                       "--out", out]}[command]
    capsys.readouterr()
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: --out must name a file, got {out!r}\n"
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("argv, message", [
    (["classify", "--mu1", "1,0"], "usage error: --mu1 needs 3"),
    (["classify", "--mu1", "1,0,0", "--mu2", "1,0,0"],
     "usage error: axes are not orthogonal"),
    (["rotate", "--u", "2,0,0,0", "--v", "1,0,0,0", "--out", "r.csv"],
     "usage error: --u must be a unit quaternion"),
    (["rotate", "--u", "1,0,0,0", "--v", "1,0", "--out", "r.csv"],
     "usage error: --v needs 4"),
    (["classify", "--mu1", "0,0,0"],
     "usage error: --mu1: axis vector norm 0.000e+00 is below"),
    (["classify", "--mu2", "1e200,1e200,0"],
     "usage error: --mu2: axis vector norm inf is not finite"),
])
def test_bad_flag_is_reported_before_the_input_is_read(argv, message, tmp_path,
                                                       monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv[0], str(tmp_path / "missing.csv"), *argv[1:]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message)
    assert captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


# --- running out of memory ---------------------------------------------------

def _allocation_fails(*args, **kwargs):
    raise MemoryError("Unable to allocate 29.8 GiB for an array with shape "
                      "(1000000000, 4) and data type float64")


@pytest.mark.parametrize("command, target", [
    ("generate", (cli, "sample")),
    ("generate", (gaussian, "write_sample_csv")),
    ("classify", (cli, "read_sample_csv")),
    ("rotate", (cli, "read_sample_csv")),
    ("rotate", (cli, "write_sample_csv")),
    ("project", (cli, "write_column_csvs")),
])
def test_out_of_memory_is_one_line_data_error(command, target, tmp_path,
                                              monkeypatch, capsys):
    src = tmp_path / "draws.csv"
    assert run_cli(*gen_args(src, n="10")) == 0
    before = {p: p.read_bytes() for p in tmp_path.iterdir()}
    fresh = tmp_path / "fresh" / "sub"
    argv = {
        "generate": gen_args(fresh / "x.csv", n="10"),
        "classify": ["classify", str(src)],
        "rotate": ["rotate", str(src), "--u", "1,0,0,0", "--v", "1,0,0,0",
                   "--out", str(fresh / "r.csv")],
        "project": ["project", str(src), "--out-dir", str(fresh)],
    }[command]
    monkeypatch.setattr(*target, _allocation_fails)
    capsys.readouterr()
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("data error: out of memory: Unable to allocate "
                            "29.8 GiB for an array with shape (1000000000, 4) "
                            "and data type float64\n")
    # no output file, and no directory the command made, is left behind
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_out_of_memory_without_a_reason_is_one_line_data_error(tmp_path,
                                                              monkeypatch,
                                                              capsys):
    src = tmp_path / "draws.csv"
    assert run_cli(*gen_args(src, n="10")) == 0

    def bare(path):
        raise MemoryError

    monkeypatch.setattr(cli, "read_sample_csv", bare)
    capsys.readouterr()
    assert run_cli("classify", str(src)) == 2
    assert capsys.readouterr().err == "data error: out of memory\n"


def _interrupted(*args, **kwargs):
    raise KeyboardInterrupt


# the json.dump case interrupts generate after its CSV is written, while the
# sidecar is open
@pytest.mark.parametrize("command, target", [
    ("generate", (gaussian, "write_sample_csv")),
    ("generate", (gaussian.json, "dump")),
    ("rotate", (cli, "write_sample_csv")),
    ("project", (cli, "write_column_csvs")),
])
def test_interrupted_write_leaves_the_tree_as_it_was(command, target, tmp_path,
                                                     monkeypatch):
    src = tmp_path / "draws.csv"
    assert run_cli(*gen_args(src, n="10")) == 0
    before = {p: p.read_bytes() for p in tmp_path.iterdir()}
    fresh = tmp_path / "fresh" / "sub"
    argv = {
        "generate": gen_args(fresh / "x.csv", n="10"),
        "rotate": ["rotate", str(src), "--u", "1,0,0,0", "--v", "1,0,0,0",
                   "--out", str(fresh / "r.csv")],
        "project": ["project", str(src), "--out-dir", str(fresh)],
    }[command]
    monkeypatch.setattr(*target, _interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_cli(*argv)
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before


# --- one parser per process --------------------------------------------------

def _parser_reuse_steps(root):
    src, rot = root / "mumu.csv", root / "rot.csv"
    return [
        gen_args(src, n="200"),
        # hproper takes none of mumu's --alpha and --delta
        ["generate", "--class", "hproper", "--sigma2", "1", "--n", "200",
         "--out", str(root / "hproper.csv")],
        ["classify", str(src), "--center"],
        ["classify", str(src)],
        ["generate", "--class", "hproper", "--sigma2", "1", "--bogus", "1",
         "--out", str(root / "bad.csv")],
        ["classify"],
        ["rotate", str(src), "--u", "0.6,0.8,0,0", "--v", "0,0,1,0",
         "--out", str(rot)],
        ["project", str(rot), "--pairs", "j", "--out-dir", str(root / "planes")],
    ]


def _run_steps(root, capsys, fresh_parser_each_call):
    root.mkdir()
    results = []
    for argv in _parser_reuse_steps(root):
        if fresh_parser_each_call:
            cli._parser.cache_clear()
        code = main(argv)
        captured = capsys.readouterr()
        results.append((code, captured.out.replace(str(root), "<root>"),
                        captured.err.replace(str(root), "<root>")))
    files = {p.relative_to(root).as_posix(): p.read_bytes()
             for p in sorted(root.rglob("*")) if p.is_file()}
    return results, files


def test_reused_parser_gives_what_a_fresh_parser_gives(tmp_path, monkeypatch,
                                                      capsys):
    built = []
    build_parser = cli.build_parser

    def counted():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    reused = _run_steps(tmp_path / "reused", capsys, False)
    assert len(built) == 1
    fresh = _run_steps(tmp_path / "fresh", capsys, True)
    assert len(built) == 1 + len(_parser_reuse_steps(tmp_path))
    assert [code for code, _, _ in reused[0]] == [0, 0, 0, 0, 1, 1, 0, 0]
    assert reused == fresh
    # the plain classify is not the centred one, and the usage errors name
    # their own flags
    assert reused[0][2][1] != reused[0][3][1]
    assert reused[0][4][2] == "usage error: unrecognized arguments: --bogus 1\n"


def test_command_patched_after_the_parser_was_built_runs(tmp_path, monkeypatch,
                                                        capsys):
    src = tmp_path / "draws.csv"
    assert run_cli(*gen_args(src, n="200")) == 0
    assert run_cli("classify", str(src)) == 0
    seen = []

    def patched(args):
        seen.append(args.input)
        return 7

    monkeypatch.setattr(cli, "cmd_classify", patched)
    assert run_cli("classify", str(src)) == 7
    assert seen == [str(src)]


def _subcommands(parser):
    action, = (a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return action.choices


@pytest.mark.parametrize("command",
                         [None, "generate", "classify", "project", "rotate"])
def test_help_after_other_commands_matches_a_fresh_parser(command, tmp_path,
                                                         capsys):
    src = tmp_path / "draws.csv"
    run_cli(*gen_args(src, n="5"))
    run_cli("classify", str(src), "--center")
    run_cli("generate", "--class", "hproper", "--bogus", "1")
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["--help"] if command is None else [command, "--help"])
    assert exc.value.code == 0
    fresh = cli.build_parser()
    if command is not None:
        fresh = _subcommands(fresh)[command]
    captured = capsys.readouterr()
    assert captured.out == fresh.format_help()
    assert captured.err == ""
