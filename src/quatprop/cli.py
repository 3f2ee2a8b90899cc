"""Command-line pipeline: generate samples of a chosen symmetry class,
classify samples, project them onto the three pairs of orthogonal 2D planes,
and apply double rotations to sample files.

Machine-readable results go to stdout or files; diagnostics go to stderr.
Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import estimation
from .core import PureUnit, Quaternion, validate_basis
from .gaussian import (ClassParams, PropernessTag, _removed_on_failure,
                       covariance_from_params, read_sample_csv, sample,
                       write_column_csvs, write_sample_csv)
from .rotations import double_rotation

DEFAULT_N = 50_000
DEFAULT_SEED = 42


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the pipeline reserves 2 for
    # data errors, so route usage problems through UsageError instead
    def error(self, message):
        raise UsageError(message)


def _parse_floats(text, count, what):
    parts = text.split(",")
    if len(parts) != count:
        raise UsageError(f"{what} needs {count} comma-separated values, got {text!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise UsageError(f"{what} has a non-numeric value in {text!r}") from None
    if not all(math.isfinite(v) for v in values):
        raise UsageError(f"{what} has a non-finite value in {text!r}")
    return values


def _parse_axis(text, what):
    x, y, z = _parse_floats(text, 3, what)
    try:
        return PureUnit(x, y, z)
    except ValueError as exc:
        raise UsageError(f"{what}: {exc}") from None


def _parse_complex(text, what):
    commas = text.count(",")
    if commas > 1:
        raise UsageError(f"{what} must be 're' or 're,im', got {text!r}")
    return complex(*_parse_floats(text, commas + 1, what))


def _parse_unit_quaternion(text, what):
    a, b, c, d = _parse_floats(text, 4, what)
    q = Quaternion(a, b, c, d)
    if abs(q.modulus() - 1.0) > 1e-6:
        raise UsageError(f"{what} must be a unit quaternion, modulus is {q.modulus():.6g}")
    return q  # double_rotation makes the unit factor


def _basis_from_args(args):
    mu1 = _parse_axis(args.mu1, "--mu1")
    mu2 = _parse_axis(args.mu2, "--mu2")
    try:
        return validate_basis(mu1, mu2)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _param_flag_help():
    """generate's class-parameter flags, the union of the classes' fields in
    ClassParams order (the order their presence is checked), each with its
    help: the form of its value in each class, "musame: re[,im]; mumu: re"."""
    forms = {float: "re", complex: "re[,im]",
             Quaternion: "r,x,y,z (basis coordinates)"}
    tags = {}
    for cls in ClassParams:
        for name, kind in cls.param_fields():
            tags.setdefault(name, {}).setdefault(kind, []).append(cls.tag.value)
    return {name: "; ".join(f"{', '.join(t)}: {forms[kind]}"
                            for kind, t in by_kind.items())
            for name, by_kind in tags.items()}


_PARAM_FLAG_HELP = _param_flag_help()


def _params_from_args(args, basis):
    """The class's *Params and the flag values it was built from, one flag
    per field, each parsed once by _flag_value: a float as is, a complex from
    [re, im], a Quaternion from its basis coordinates. generate's sidecar
    records the values, so generate re-run with them writes the same draws."""
    tag = PropernessTag(args.class_tag)
    cls = next(c for c in ClassParams if c.tag is tag)
    kinds = dict(cls.param_fields())
    for flag in _PARAM_FLAG_HELP:
        value = getattr(args, flag)
        if flag in kinds and value is None:
            raise UsageError(f"class {tag.value} requires --{flag}")
        if flag not in kinds and value is not None:
            raise UsageError(f"class {tag.value} does not take --{flag}")
    parsed = {flag: _flag_value(args, flag, kind, tag)
              for flag, kind in kinds.items()}
    build = {float: float, complex: lambda v: complex(*v),
             Quaternion: basis.from_coords}
    try:
        return cls(**{flag: build[kinds[flag]](value)
                      for flag, value in parsed.items()}, basis=basis), parsed
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _flag_value(args, flag, kind, tag):
    """A class flag's value, parsed once for _params_from_args, in
    param_dict's JSON form: a float, [re, im], or the 4 basis coordinates."""
    text, what = getattr(args, flag), f"--{flag}"
    if kind is Quaternion:
        return _parse_floats(text, 4, what)
    z = _parse_complex(text, what)
    if kind is complex:
        return [z.real, z.imag]
    if z.imag != 0.0:
        raise UsageError(f"{what} must be real for class {tag.value}")
    return z.real


def _read_csv(path):
    try:
        return read_sample_csv(path)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def _out_file(text):
    """--out as a path that names a file ("out/" does not), or a usage error."""
    if os.path.basename(text) in ("", ".", ".."):
        raise UsageError(f"--out must name a file, got {text!r}")
    return Path(text)


@contextmanager
def _writing(path, directory):
    """Make directory and its missing parents, then write path in the block.

    The directories made here are recorded with the writer's clean-up rule
    (gaussian._removed_on_failure), so whatever the block raises, they are
    removed again, deepest first, where they are empty. An OSError or a
    value the writer refuses (ValueError) is then reported as a data error
    naming the file the system refused (path when the error names none).
    """
    try:
        with _removed_on_failure() as made:
            missing = []
            while not directory.is_dir():
                missing.append(directory)
                directory = directory.parent
            for new in reversed(missing):
                new.mkdir()
                made.append(new)
            yield
    except (OSError, ValueError) as exc:
        filename = getattr(exc, "filename", None)
        raise DataError(f"cannot write {filename or path}: {exc}") from None


# ---------------------------------------------------------------------------
# subcommands

def cmd_generate(args) -> int:
    if args.n < 1:
        raise UsageError(f"--n must be at least 1, got {args.n}")
    if args.seed < 0:
        raise UsageError(f"--seed must be non-negative, got {args.seed}")
    out = _out_file(args.out)
    sidecar = out.with_suffix(".json")
    if sidecar == out:
        raise UsageError(f"--out {args.out!r} is also the path of its .json "
                         "metadata sidecar; give it another suffix")
    basis = _basis_from_args(args)
    params, recorded = _params_from_args(args, basis)
    try:
        faces = covariance_from_params(params)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    draws = sample(faces.r, args.n, args.seed, class_tag=params.tag.value,
                   params=recorded)
    with _writing(out, out.parent):
        draws.save(out, sidecar)
    print(f"wrote {draws.n} draws to {out}", file=sys.stderr)
    return 0


def cmd_classify(args) -> int:
    if not math.isfinite(args.c) or args.c <= 0.0:
        raise UsageError(f"--c must be positive and finite, got {args.c!r}")
    basis = _basis_from_args(args)
    data = _read_csv(args.input)
    try:
        report = estimation.classify(data, basis, c=args.c, center=args.center)
    except ValueError as exc:
        raise DataError(str(exc)) from None
    json.dump(report.to_dict(), sys.stdout, indent=2, sort_keys=True,
              allow_nan=False)
    sys.stdout.write("\n")
    return 0


# plane pairing -> (file suffix, columns, header) of each of its two planes
_PAIRINGS = {
    "i": (("1i", (0, 1), "re,im_i"), ("jk", (2, 3), "im_j,im_k")),
    "j": (("1j", (0, 2), "re,im_j"), ("ik", (1, 3), "im_i,im_k")),
    "k": (("1k", (0, 3), "re,im_k"), ("ij", (1, 2), "im_i,im_j")),
}


def cmd_project(args) -> int:
    data = _read_csv(args.input)
    pairs = tuple(_PAIRINGS) if args.pairs == "all" else (args.pairs,)
    out_dir = Path(args.out_dir)
    stem = Path(args.input).stem
    outputs = [(out_dir / f"{stem}_{suffix}.csv", cols, header)
               for pair in pairs for suffix, cols, header in _PAIRINGS[pair]]
    with _writing(out_dir, out_dir):
        write_column_csvs(data, outputs)
    for path, _, _ in outputs:
        print(f"wrote {path}", file=sys.stderr)
    return 0


def cmd_rotate(args) -> int:
    u = _parse_unit_quaternion(args.u, "--u")
    v = _parse_unit_quaternion(args.v, "--v")
    out = _out_file(args.out)
    paths = (args.input, out)
    if all(map(os.path.exists, paths)) and os.path.samefile(*paths):
        raise UsageError(f"--out {args.out!r} is the input file; "
                         "give it another path")
    data = _read_csv(args.input)
    with np.errstate(over="ignore", invalid="ignore"):  # the writer refuses inf/nan
        rotated = double_rotation(u, v).apply_rows(data)
    with _writing(out, out.parent):
        write_sample_csv(out, rotated)
    print(f"wrote {rotated.shape[0]} rotated draws to {out}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="quatprop",
                     description="Gaussian quaternion sample pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_basis_flags(p):
        p.add_argument("--mu1", default="1,0,0",
                       help="first basis axis as x,y,z (default 1,0,0 = i)")
        p.add_argument("--mu2", default="0,1,0",
                       help="second basis axis as x,y,z (default 0,1,0 = j)")

    gen = sub.add_parser("generate", help="draw samples of a symmetry class")
    gen.add_argument("--class", dest="class_tag", required=True,
                     choices=[t.value for t in PropernessTag])
    add_basis_flags(gen)
    for flag, text in _PARAM_FLAG_HELP.items():
        gen.add_argument(f"--{flag}", help=text)
    gen.add_argument("--n", type=int, default=DEFAULT_N)
    gen.add_argument("--seed", type=int, default=DEFAULT_SEED)
    gen.add_argument("--out", required=True, help="output CSV path")

    cls = sub.add_parser("classify", help="classify a sample CSV")
    cls.add_argument("input", help="CSV with header a,b,c,d")
    add_basis_flags(cls)
    cls.add_argument("--c", type=float, default=estimation.DEFAULT_C,
                     help="tolerance constant; threshold is c/sqrt(n)")
    cls.add_argument("--center", action="store_true",
                     help="subtract the sample mean first")

    proj = sub.add_parser("project",
                          help="project onto pairs of orthogonal 2D planes")
    proj.add_argument("input", help="CSV with header a,b,c,d")
    proj.add_argument("--pairs", choices=["all", *_PAIRINGS], default="all")
    proj.add_argument("--out-dir", required=True)

    rot = sub.add_parser("rotate", help="apply the double rotation q -> u*q*v")
    rot.add_argument("input", help="CSV with header a,b,c,d")
    rot.add_argument("--u", required=True, help="left unit quaternion a,b,c,d")
    rot.add_argument("--v", required=True, help="right unit quaternion a,b,c,d")
    rot.add_argument("--out", required=True, help="output CSV path")

    return parser


@functools.cache
def _parser():
    return build_parser()


def main(argv=None) -> int:
    """Run one command (argv, or sys.argv[1:] when None) and return its exit
    code. The parser is built on the first call and reused by later calls in
    the process; build_parser() returns a new one."""
    try:
        args = _parser().parse_args(argv)
        # looked up now, not bound when the parser was built, so a patched
        # cmd_* (a test's stub, a tracer's wrapper) is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy names the allocation; the interpreter's own MemoryError is bare
        reason = f": {exc}" if str(exc) else ""
        print(f"data error: out of memory{reason}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
