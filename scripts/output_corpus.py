"""Write a fixed corpus of quatprop's outputs, or compare it with a revision's.

The corpus, for each of the six classes, on the standard basis and on
--mu1 1,2,3 --mu2 3,0,-1, at each sample size (3000 and 8193):
  - generate's CSV, sidecar and log;
  - classify's log plain, with --center and with --c 2.5;
  - rotate's CSV and log, and the log of classify on the rotated file;
  - project's CSVs and log, all pairs and pair j.
A log holds the exit code, stdout and stderr of one command, run through
quatprop.cli.main with paths relative to the corpus directory, so no output
depends on where the corpus is written. Besides:
  - every --help text (at 80 columns), one usage error and one data error;
  - classify.txt: classify's choice and every candidate's residual as
    float.hex, on draws of each class over 200 random bases;
  - faces.txt: the r, c and h faces of every class as float.hex over 20
    random bases;
  - convert.txt: the six convert directions (c>r, c>h, r>c, r>h, h>r, h>c)
    of each of those faces as float.hex, a complex target's real parts
    then its imaginary parts;
  - densities.txt: gaussian_pdf of each of those real faces at three fixed
    points, each as a Quaternion and as a (1, 4) row, then of the general
    class's standard-basis face scaled by 1e-160, 1e-100, 1e100 and 1e300
    (normalised in log space) at the same points scaled by the square
    root, all as float.hex;
  - MANIFEST.sha256: the sha256sum of every other file.

Usage:
    PYTHONPATH=src python scripts/output_corpus.py --out DIR [--n N]
    python scripts/output_corpus.py --against REV [--n N]

--n N replaces the sample sizes 3000 and 8193. --against REV writes the
corpus twice in a temporary directory, once with this checkout's src on
PYTHONPATH and once with the src of `git archive REV` (local history
only), and lists each file that differs with its first differing line; it
exits 1 when a file differs.
"""

import argparse
import contextlib
import hashlib
import io
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIZES = (3000, 8193)
BASES = {"std": [], "rand": ["--mu1", "1,2,3", "--mu2", "3,0,-1"]}
# generate's flags for each class: one value is a float, two a complex
# number (re,im), four a quaternion's basis coordinates
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
MANIFEST = "MANIFEST.sha256"
# the fixed points of densities.txt, as (a, b, c, d)
POINTS = ((0.0, 0.0, 0.0, 0.0), (0.5, -0.25, 1.0, 0.75), (-1.5, 2.0, 0.3, -0.7))


def run_cli(argv, log):
    """Run quatprop.cli.main(argv) and write its exit code, stdout and
    stderr to the file log."""
    from quatprop import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
    Path(log).parent.mkdir(parents=True, exist_ok=True)
    Path(log).write_text(f"exit {code}\n--- stdout\n{out.getvalue()}"
                         f"--- stderr\n{err.getvalue()}", encoding="utf-8")


def cli_corpus(sizes):
    for tag, values in CLASS_FLAGS.items():
        params = [f"--{name}={v}" for name, v in values.items()]
        for basis_name, basis_flags in BASES.items():
            for n in sizes:
                d = f"cli/{tag}_{basis_name}_{n}"
                draws, rotated = f"{d}/draws.csv", f"{d}/rotated.csv"
                run_cli(["generate", "--class", tag, *basis_flags, *params,
                         "--n", str(n), "--seed", "7", "--out", draws],
                        f"{d}/generate.log")
                for name, extra in (("", []), ("_center", ["--center"]),
                                    ("_c2.5", ["--c", "2.5"])):
                    run_cli(["classify", draws, *basis_flags, *extra],
                            f"{d}/classify{name}.log")
                run_cli(["rotate", draws, "--u", "0.6,0.8,0,0",
                         "--v", "0,0,1,0", "--out", rotated], f"{d}/rotate.log")
                run_cli(["classify", rotated, *basis_flags],
                        f"{d}/classify_rotated.log")
                run_cli(["project", draws, "--out-dir", f"{d}/planes"],
                        f"{d}/project.log")
                run_cli(["project", draws, "--pairs", "j",
                         "--out-dir", f"{d}/planes_j"], f"{d}/project_j.log")
    for command in ("", "generate", "classify", "project", "rotate"):
        run_cli([command, "--help"] if command else ["--help"],
                f"help/{command or 'quatprop'}.log")
    run_cli(["generate", "--class", "mumu", "--sigma2", "1",
             "--out", "errors/x.csv"], "errors/usage.log")
    Path("errors/bad.csv").write_text("a,b,c,d\n1,2,3,4\n1,2,3\n")
    run_cli(["classify", "errors/bad.csv"], "errors/data.log")


def random_basis(rng):
    from quatprop import PureUnit, validate_basis

    mu1 = PureUnit(*rng.normal(size=3))
    while True:
        w = rng.normal(size=3)
        w = w - (w @ mu1.axis_vec()) * mu1.axis_vec()
        if np.linalg.norm(w) > 0.3:
            return validate_basis(mu1, PureUnit(*w))


def class_params(tag, basis):
    """The *Params of CLASS_FLAGS[tag] on basis."""
    from quatprop.gaussian import ClassParams

    cls = next(c for c in ClassParams if c.tag.value == tag)
    values = {}
    for name, text in CLASS_FLAGS[tag].items():
        parts = [float(p) for p in text.split(",")]
        values[name] = (parts[0] if len(parts) == 1 else complex(*parts)
                        if len(parts) == 2 else basis.from_coords(parts))
    return cls(**values, basis=basis)


def hexes(values):
    return " ".join(float.hex(float(v)) for v in np.ravel(values))


def api_corpus():
    from quatprop import (STANDARD_BASIS, CovarianceR, classify, convert,
                          covariance_from_params, sample)

    rng = np.random.default_rng(2015)
    tags = list(CLASS_FLAGS)
    lines = []
    for i in range(200):
        basis, tag = random_basis(rng), tags[i % len(tags)]
        faces = covariance_from_params(class_params(tag, basis))
        report = classify(sample(faces.r, 1000, seed=i), basis).to_dict()
        lines.append(f"{i} {tag} chosen {report['chosen']['label']} "
                     + " ".join(f"{c['label']}={float.hex(c['residual'])}"
                                for c in report["candidates"]))
    Path("classify.txt").write_text("\n".join(lines) + "\n")
    lines, converted, densities = [], [], []
    for i in range(20):
        basis = random_basis(rng)
        for tag in tags:
            faces = covariance_from_params(class_params(tag, basis))
            c, r, h = faces
            lines += [f"{i} {tag} r {hexes(r.matrix)}",
                      f"{i} {tag} c.real {hexes(c.matrix.real)}",
                      f"{i} {tag} c.imag {hexes(c.matrix.imag)}",
                      f"{i} {tag} h {hexes(h.matrix)}"]
            for source, face in zip("crh", faces):
                for to in ("real", "complex", "quaternion"):
                    if to[0] != source:
                        m = convert(face, to).matrix
                        parts = (m.real, m.imag) if to == "complex" else (m,)
                        converted.append(f"{i} {tag} {source}>{to[0]} "
                                         + " ".join(map(hexes, parts)))
            densities += [f"{i} {tag} point{k} {point_densities(p, r)}"
                          for k, p in enumerate(POINTS)]
    general = covariance_from_params(class_params("general", STANDARD_BASIS)).r
    for scale in (1e-160, 1e-100, 1e100, 1e300):
        r = CovarianceR(general.matrix * scale)
        densities += [f"scale {scale!r} point{k} "
                      f"{point_densities(np.multiply(p, math.sqrt(scale)), r)}"
                      for k, p in enumerate(POINTS)]
    Path("faces.txt").write_text("\n".join(lines) + "\n")
    Path("convert.txt").write_text("\n".join(converted) + "\n")
    Path("densities.txt").write_text("\n".join(densities) + "\n")


def point_densities(components, cov):
    """gaussian_pdf at a point given as a Quaternion, then as a (1, 4) row,
    as float.hex."""
    from quatprop import Quaternion, gaussian_pdf

    row = np.array([components], dtype=float)
    return (f"{float.hex(gaussian_pdf(Quaternion(*row[0]), cov))} "
            f"{hexes(gaussian_pdf(row, cov))}")


def corpus_files(root):
    """Every file under root but the manifest, as sorted POSIX paths."""
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*")
                  if p.is_file() and p.name != MANIFEST)


def write_corpus(out, sizes):
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        sys.exit(f"output_corpus: {out} is not empty")
    os.environ["COLUMNS"] = "80"  # argparse wraps help text to the terminal
    here = Path.cwd()
    os.chdir(out)
    try:
        cli_corpus(sizes)
        api_corpus()
    finally:
        os.chdir(here)
    with open(out / MANIFEST, "w", encoding="utf-8") as fh:
        for rel in corpus_files(out):
            digest = hashlib.sha256((out / rel).read_bytes()).hexdigest()
            fh.write(f"{digest}  {rel}\n")


def corpus_with(src, out, n):
    """Write the corpus to out in a new process importing quatprop from src."""
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, __file__, "--out", str(out)]
    argv += ["--n", str(n)] if n else []
    if subprocess.run(argv, env=dict(os.environ, PYTHONPATH=path)).returncode:
        sys.exit(f"output_corpus: writing the corpus with {src} failed")


def first_difference(a, b):
    """(1-based line number, line of a, line of b) where two texts first
    differ; a missing line is ''."""
    la, lb = a.splitlines(), b.splitlines()
    k = next((i for i, (x, y) in enumerate(zip(la, lb)) if x != y),
             min(len(la), len(lb)))
    return k + 1, (la[k:k + 1] or [""])[0], (lb[k:k + 1] or [""])[0]


def against(rev, n):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "tree").mkdir()
        git = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev],
                               stdout=subprocess.PIPE)
        untar = subprocess.run(["tar", "-x", "-C", str(tmp / "tree")],
                               stdin=git.stdout)
        git.stdout.close()
        if git.wait() or untar.returncode:
            sys.exit(f"output_corpus: cannot extract {rev} with git archive")
        theirs, ours = tmp / "theirs", tmp / "ours"
        corpus_with(tmp / "tree" / "src", theirs, n)
        corpus_with(ROOT / "src", ours, n)
        names = sorted(set(corpus_files(theirs)) | set(corpus_files(ours)))
        differing = 0
        for rel in names:
            a, b = theirs / rel, ours / rel
            if a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes():
                continue
            differing += 1
            if not b.is_file():
                print(f"{rel}: only at {rev}")
            elif not a.is_file():
                print(f"{rel}: only in the working tree")
            else:
                k, x, y = first_difference(a.read_text(), b.read_text())
                print(f"{rel}: line {k}\n  {rev}: {x[:200]}\n"
                      f"  working tree: {y[:200]}")
    print(f"{differing} of {len(names)} files differ from {rev}")
    return 1 if differing else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    where = parser.add_mutually_exclusive_group(required=True)
    where.add_argument("--out", type=Path, help="directory to write")
    where.add_argument("--against", metavar="REV",
                       help="compare with the corpus of a git revision")
    parser.add_argument("--n", type=int, help="the one sample size")
    args = parser.parse_args()
    if args.n is not None and args.n < 100:
        parser.error("--n must be at least 100, the least classify takes")
    if args.against:
        return against(args.against, args.n)
    write_corpus(args.out.resolve(), (args.n,) if args.n else SIZES)
    return 0


if __name__ == "__main__":
    sys.exit(main())
