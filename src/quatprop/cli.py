"""Command-line pipeline: generate samples of a chosen symmetry class,
classify samples, project them onto the three pairs of orthogonal 2D planes,
and apply double rotations to sample files.

Machine-readable results go to stdout or files; diagnostics go to stderr.
Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import estimation
from .core import PureUnit, Quaternion, validate_basis
from .gaussian import (ClassParams, PropernessTag, covariance_from_params,
                       read_sample_csv, sample, write_sample_csv)
from .rotations import double_rotation

DEFAULT_N = 50_000
DEFAULT_SEED = 42
DEFAULT_C = 5.0


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
    return q / q.modulus()


def _basis_from_args(args):
    mu1 = _parse_axis(args.mu1, "--mu1")
    mu2 = _parse_axis(args.mu2, "--mu2")
    try:
        return validate_basis(mu1, mu2)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


# generate's class-parameter flags, in the order their presence is checked
_PARAM_FLAGS = ("sigma2", "varsigma2", "alpha", "delta", "omega",
                "gamma1", "gamma2", "gamma3")


def _params_from_args(args, basis):
    """The class's *Params from its flags: one flag per field, parsed by the
    field's type (float: re[,0]; complex: re[,im]; Quaternion: 4 basis
    coordinates)."""
    tag = PropernessTag(args.class_tag)
    cls = next(c for c in ClassParams if c.tag is tag)
    kinds = dict(cls.param_fields())
    for flag in _PARAM_FLAGS:
        value = getattr(args, flag)
        if flag in kinds and value is None:
            raise UsageError(f"class {tag.value} requires --{flag}")
        if flag not in kinds and value is not None:
            raise UsageError(f"class {tag.value} does not take --{flag}")

    def parse(flag, kind):
        text, what = getattr(args, flag), f"--{flag}"
        if kind is Quaternion:
            return basis.from_coords(_parse_floats(text, 4, what))
        z = _parse_complex(text, what)
        if kind is complex:
            return z
        if z.imag != 0.0:
            raise UsageError(f"{what} must be real for class {tag.value}")
        return z.real

    values = {flag: parse(flag, kind) for flag, kind in kinds.items()}
    try:
        return cls(**values, basis=basis)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _read_csv(path):
    try:
        return read_sample_csv(path)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# subcommands

def cmd_generate(args) -> int:
    if args.n < 1:
        raise UsageError(f"--n must be at least 1, got {args.n}")
    if args.seed < 0:
        raise UsageError(f"--seed must be non-negative, got {args.seed}")
    basis = _basis_from_args(args)
    params = _params_from_args(args, basis)
    try:
        faces = covariance_from_params(params)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    draws = sample(faces.r, args.n, args.seed, basis=basis,
                   class_tag=params.tag.value, params=params.param_dict())
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    draws.save(out, out.with_suffix(".json"))
    print(f"wrote {draws.n} draws to {out}", file=sys.stderr)
    return 0


def cmd_classify(args) -> int:
    if not math.isfinite(args.c) or args.c <= 0.0:
        raise UsageError(f"--c must be positive and finite, got {args.c!r}")
    data = _read_csv(args.input)
    basis = _basis_from_args(args)
    try:
        report = estimation.classify(data, basis, c=args.c, center=args.center)
    except ValueError as exc:
        raise DataError(str(exc)) from None
    json.dump(report.to_dict(), sys.stdout, indent=2, sort_keys=True,
              allow_nan=False)
    sys.stdout.write("\n")
    return 0


_PAIRINGS = {
    # plane pairing -> ((columns, header), (columns, header))
    "i": (((0, 1), "re,im_i"), ((2, 3), "im_j,im_k")),
    "j": (((0, 2), "re,im_j"), ((1, 3), "im_i,im_k")),
    "k": (((0, 3), "re,im_k"), ((1, 2), "im_i,im_j")),
}
_PAIR_NAMES = {"i": ("1i", "jk"), "j": ("1j", "ik"), "k": ("1k", "ij")}


def cmd_project(args) -> int:
    data = _read_csv(args.input)
    pairs = ("i", "j", "k") if args.pairs == "all" else (args.pairs,)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.input).stem
    for pair in pairs:
        for (cols, header), name in zip(_PAIRINGS[pair], _PAIR_NAMES[pair]):
            path = out_dir / f"{stem}_{name}.csv"
            write_sample_csv(path, data[:, list(cols)], header=header)
            print(f"wrote {path}", file=sys.stderr)
    return 0


def cmd_rotate(args) -> int:
    data = _read_csv(args.input)
    u = _parse_unit_quaternion(args.u, "--u")
    v = _parse_unit_quaternion(args.v, "--v")
    rotated = double_rotation(u, v).apply_rows(data)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
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
    gen.add_argument("--sigma2", help="variance parameter")
    gen.add_argument("--varsigma2", help="second variance parameter")
    gen.add_argument("--alpha", help="complex parameter as re[,im]")
    gen.add_argument("--delta", help="real (mumu) or complex (musame) parameter")
    gen.add_argument("--omega", help="complex parameter as re[,im]")
    gen.add_argument("--gamma1", help="general class: 4 basis coords r,x,y,z")
    gen.add_argument("--gamma2", help="general class: 4 basis coords r,x,y,z")
    gen.add_argument("--gamma3", help="general class: 4 basis coords r,x,y,z")
    gen.add_argument("--n", type=int, default=DEFAULT_N)
    gen.add_argument("--seed", type=int, default=DEFAULT_SEED)
    gen.add_argument("--out", required=True, help="output CSV path")
    gen.set_defaults(func=cmd_generate)

    cls = sub.add_parser("classify", help="classify a sample CSV")
    cls.add_argument("input", help="CSV with header a,b,c,d")
    add_basis_flags(cls)
    cls.add_argument("--c", type=float, default=DEFAULT_C,
                     help="tolerance constant; threshold is c/sqrt(n)")
    cls.add_argument("--center", action="store_true",
                     help="subtract the sample mean first")
    cls.set_defaults(func=cmd_classify)

    proj = sub.add_parser("project",
                          help="project onto pairs of orthogonal 2D planes")
    proj.add_argument("input", help="CSV with header a,b,c,d")
    proj.add_argument("--pairs", choices=["all", "i", "j", "k"], default="all")
    proj.add_argument("--out-dir", required=True)
    proj.set_defaults(func=cmd_project)

    rot = sub.add_parser("rotate", help="apply the double rotation q -> u*q*v")
    rot.add_argument("input", help="CSV with header a,b,c,d")
    rot.add_argument("--u", required=True, help="left unit quaternion a,b,c,d")
    rot.add_argument("--v", required=True, help="right unit quaternion a,b,c,d")
    rot.add_argument("--out", required=True, help="output CSV path")
    rot.set_defaults(func=cmd_rotate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
