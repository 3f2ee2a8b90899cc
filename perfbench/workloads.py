"""The three benchmark workloads.

Each workload makes its operations from a seed, runs one operation through
the program (the timed part) and checks that operation's outputs against
:mod:`oracle` (the untimed part). The program is reached only through module
attributes (``gaussian.sample``, not a name imported from it), so the tracer
can patch those attributes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

import oracle as O
from quatprop import cli, core, estimation, gaussian, rotations

CLASSES = ("hproper", "mumu", "muone", "onemu", "musame", "general")

# One parameter set per class. They are strongly structured, so that at the
# sample sizes below every candidate of a wrong class leaves a residual of
# at least twice the c/sqrt(n) tolerance; the generating class is then
# recovered on every seed. gamma coordinates are in the class's own basis.
PARAMS = {
    "hproper": {"sigma2": 1.0},
    "mumu": {"sigma2": 1.0, "alpha": -0.45 + 0.37j, "delta": -0.05},
    "muone": {"sigma2": 1.0, "varsigma2": 2.9, "omega": -0.95 - 0.95j},
    "onemu": {"sigma2": 1.0, "varsigma2": 2.85, "omega": 0.92 + 0.94j},
    "musame": {"sigma2": 1.0, "varsigma2": 2.85, "alpha": 0.44 + 0.39j,
               "delta": 1.82 - 1.58j},
    "general": {"sigma2": 1.0, "gamma1": (0.48, 0.0, 0.22, 0.45),
                "gamma2": (0.49, 0.55, 0.0, 0.09),
                "gamma3": (0.30, 0.27, 0.47, 0.0)},
}

# the candidate each class is drawn from: (tag, basis-axis indices)
GENERATING = {"hproper": ("hproper", ()), "mumu": ("mumu", (0, 1)),
              "muone": ("muone", (0,)), "onemu": ("onemu", (0,)),
              "musame": ("musame", (0,)), "general": ("general", ())}

# rotation used for the classes without a single defining rotation
GENERIC_ROTATION = (O.unit([0.8, 0.3, -0.4, 0.33]), O.unit([0.6, -0.2, 0.5, 0.6]))

C = 5.0  # classify's default tolerance constant


def program_params(tag, basis):
    p = PARAMS[tag]
    cls = {"hproper": gaussian.HProperParams, "mumu": gaussian.MuMuParams,
           "muone": gaussian.MuOneParams, "onemu": gaussian.OneMuParams,
           "musame": gaussian.MuSameParams, "general": gaussian.GeneralParams}[tag]
    if tag == "general":
        gammas = [basis.from_coords(p[k]) for k in ("gamma1", "gamma2", "gamma3")]
        return cls(p["sigma2"], *gammas, basis)
    return cls(**p, basis=basis)


def program_basis(mu1, mu2):
    return core.validate_basis(core.PureUnit(*mu1[1:]), core.PureUnit(*mu2[1:]))


def oracle_axes(mu1, mu2):
    f = O.frame(mu1, mu2)
    return [f[:, 1], f[:, 2], f[:, 3]]


def report_dict(report):
    """The fields of a PropernessReport that oracle.check_report reads, in
    the layout of its JSON form. Built here because the report's own
    to_dict formats every candidate's label, which takes milliseconds."""
    def cand(c):
        return {"class": c.tag.value, "residual": c.residual,
                "axes": [report.basis.axes[i].to_vec()[1:] for i in c.axis_indices]}
    return {"n": report.n, "tolerance": report.tolerance,
            "sigma2": report.complementary.sigma2,
            "candidates": [cand(c) for c in report.candidates],
            "chosen": cand(report.chosen)}


def _close(a, b, tol):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) <= tol


def check_covariance(tag, axes, g, c, h):
    """The program's real face g, complex face c and quaternion face h
    against the class definition."""
    problems = []
    scale = float(np.trace(g))
    if np.linalg.eigvalsh(g).min() < -1e-12 * scale:
        problems.append("real face is not positive semidefinite")
    if not _close(c, O.complex_face(g, axes), 1e-12 * scale):
        problems.append("complex face differs from the Cayley-Dickson construction")
    if not _close(h, O.quaternion_face(g, axes), 1e-12 * scale):
        problems.append("quaternion face differs from E[v v^H] of the real face")
    pattern = O.class_pattern(tag, PARAMS[tag])
    if pattern is not None and not _close(c, pattern, 1e-12 * scale):
        problems.append(f"complex face does not carry the {tag} parameters")
    if tag == "general":
        f = O.frame(axes[0], axes[1])
        row = [scale * O.ONE] + [f @ np.asarray(PARAMS[tag][k])
                                 for k in ("gamma1", "gamma2", "gamma3")]
        if abs(scale - PARAMS[tag]["sigma2"]) > 1e-12 or \
                not _close(O.quaternion_face(g, axes)[0], row, 1e-12):
            problems.append("quaternion face does not carry the general parameters")
    rot = O.defining_rotation(tag, axes)
    if rot is not None:
        m = O.rotation(*rot)
        if not _close(m @ g @ m.T, g, 1e-12 * scale):
            problems.append(f"real face is not invariant under the {tag} rotation")
    return problems


# --------------------------------------------------------------------------


class CliCsvRoundtrip:
    """generate -> classify -> rotate -> classify -> project through
    ``quatprop.cli.main``, in process, on CSV files on the standard basis."""

    name = "cli_csv_roundtrip"
    n = 3000
    round_len = len(CLASSES)
    # operations per second of a run, so that a run on the reference
    # machine, checks included, lasts about --seconds
    nominal_rate = 4.4

    def __init__(self, seed, workdir):
        self.rng = np.random.default_rng([seed, 1])
        self.dir = Path(workdir)
        i, j = np.array([0.0, 1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0, 0.0])
        self.axes = oracle_axes(i, j)
        self.basis = program_basis(i, j)

    def ops(self, count):
        out = []
        for i in range(count):
            tag = CLASSES[i % len(CLASSES)]
            rot = O.defining_rotation(tag, self.axes) or GENERIC_ROTATION
            out.append({"tag": tag, "seed": int(self.rng.integers(2**31)),
                        "u": rot[0], "v": rot[1]})
        return out

    @staticmethod
    def _flags(tag):
        flags = []
        for key, value in PARAMS[tag].items():
            if isinstance(value, complex):
                text = f"{value.real!r},{value.imag!r}"
            elif isinstance(value, tuple):
                text = ",".join(repr(v) for v in value)
            else:
                text = repr(value)
            flags.append(f"--{key}={text}")
        return flags

    def run(self, op):
        d = self.dir
        src, rot, proj = d / "draws.csv", d / "rotated.csv", d / "planes"
        u, v = (",".join(repr(float(x)) for x in op[k]) for k in ("u", "v"))
        steps = [
            ["generate", "--class", op["tag"], *self._flags(op["tag"]),
             "--n", str(self.n), "--seed", str(op["seed"]), "--out", str(src)],
            ["classify", str(src)],
            ["rotate", str(src), f"--u={u}", f"--v={v}", "--out", str(rot)],
            ["classify", str(rot)],
            ["project", str(rot), "--out-dir", str(proj)],
        ]
        codes, stdout = [], []
        for argv in steps:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(io.StringIO()):
                codes.append(cli.main(argv))
            stdout.append(buf.getvalue())
        return {"codes": codes, "stdout": stdout, "src": src, "rot": rot,
                "proj": proj}

    def check(self, op, out):
        try:
            return self._check(op, out)
        finally:
            for path in self.dir.iterdir():
                if path.is_dir():
                    shutil.rmtree(path)
                else:
                    path.unlink()

    def _check(self, op, out):
        problems = []
        if out["codes"] != [0] * 5:
            return [f"exit codes {out['codes']}"]
        tag, n = op["tag"], self.n
        header, rows = read_csv(out["src"])
        if header != "a,b,c,d" or rows.shape != (n, 4):
            return [f"draws file has header {header!r} and shape {rows.shape}"]
        faces = gaussian.covariance_from_params(program_params(tag, self.basis))
        expected = gaussian.sample(faces.r, n, op["seed"]).data
        if not np.array_equal(rows, expected):
            problems.append("draws read back differ from an in-memory sample "
                            "with the same covariance and seed")
        meta = json.loads(out["src"].with_suffix(".json").read_text())
        if (meta["n"], meta["seed"], meta["class"]) != (n, op["seed"], tag):
            problems.append(f"metadata {meta['n'], meta['seed'], meta['class']} "
                            f"!= {n, op['seed'], tag}")
        header, rotated = read_csv(out["rot"])
        m = O.rotation(O.unit(op["u"]), O.unit(op["v"]))
        if header != "a,b,c,d" or rotated.shape != (n, 4):
            return problems + [f"rotated file has header {header!r} and shape "
                               f"{rotated.shape}"]
        if not _close(rotated, rows @ m.T, 1e-12):
            problems.append("rotated rows differ from u*q*v")
        if not _close(np.linalg.norm(rotated, axis=1), np.linalg.norm(rows, axis=1),
                      1e-12):
            problems.append("rotation changed a row's modulus")
        # the defining rotation (any rotation for hproper) keeps the class;
        # a generic rotation of general data is checked against the rule only
        keeps = tag != "general"
        for text, data, expect in ((out["stdout"][1], rows, GENERATING[tag]),
                                   (out["stdout"][3], rotated,
                                    GENERATING[tag] if keeps else None)):
            try:
                report = strict_json(text)
            except ValueError as exc:
                problems.append(f"report is not strict JSON: {exc}")
                continue
            problems += O.check_report(report, data, self.axes, C, expect)
        for name, cols, head in (("1i", (0, 1), "re,im_i"), ("jk", (2, 3), "im_j,im_k"),
                                 ("1j", (0, 2), "re,im_j"), ("ik", (1, 3), "im_i,im_k"),
                                 ("1k", (0, 3), "re,im_k"), ("ij", (1, 2), "im_i,im_j")):
            path = out["proj"] / f"{out['rot'].stem}_{name}.csv"
            if not path.exists():
                problems.append(f"projection {path.name} missing")
                continue
            header, plane = read_csv(path)
            if header != head or not np.array_equal(plane, rotated[:, cols]):
                problems.append(f"projection {path.name} differs from columns "
                                f"{cols} of its source")
        return problems


def read_csv(path):
    """Header and float rows of a CSV; parsed by numpy, not by the program."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, rows


def strict_json(text):
    def reject(token):
        raise ValueError(f"non-finite number {token}")
    return json.loads(text, parse_constant=reject)


# --------------------------------------------------------------------------


class EstimateLarge:
    """covariance_from_params -> sample -> classify -> covariance_faces ->
    gaussian_pdf, in memory, at large n."""

    name = "estimate_large"
    n = 100_000
    n_bases = 3  # the standard basis and two random ones
    chunk = 10_000  # rows per step of the density check
    round_len = len(CLASSES) * n_bases
    nominal_rate = 4.1

    def __init__(self, seed, workdir=None):
        self.rng = np.random.default_rng([seed, 2])
        pairs = [(np.array([0.0, 1, 0, 0]), np.array([0.0, 0, 1, 0]))]
        pairs += [O.random_axes(self.rng) for _ in range(self.n_bases - 1)]
        self.bases = [(program_basis(*p), oracle_axes(*p)) for p in pairs]

    def ops(self, count):
        return [{"tag": CLASSES[i % len(CLASSES)],
                 "basis": (i // len(CLASSES)) % self.n_bases,
                 "seed": int(self.rng.integers(2**31))} for i in range(count)]

    def run(self, op):
        basis = self.bases[op["basis"]][0]
        faces = gaussian.covariance_from_params(program_params(op["tag"], basis))
        draws = gaussian.sample(faces.r, self.n, op["seed"])
        report = estimation.classify(draws, basis)
        estimate = estimation.covariance_faces(draws, basis)
        pdf = gaussian.gaussian_pdf(draws.data, faces.r)
        return {"g": faces.r.matrix, "x": draws.data, "report": report,
                "faces": estimate, "pdf": pdf}

    def check(self, op, out):
        axes = self.bases[op["basis"]][1]
        x, g, n = out["x"], out["g"], self.n
        problems = O.check_report(report_dict(out["report"]), x, axes, C,
                                  GENERATING[op["tag"]])
        s = O.gram(x)
        face_s = O.quaternion_face(s, axes)
        s2 = float(np.trace(s))
        cc = out["report"].complementary
        got = np.array([[cc.sigma2, 0, 0, 0]] + [q.to_vec() for q in cc.gammas])
        if not _close(got, face_s[0], 1e-10 * s2):
            problems.append("sigma2 or gamma1..3 differ from the Gram-matrix values")
        gh, gc, gr = (f.matrix for f in out["faces"])
        if not (_close(gh, face_s, 1e-10 * s2) and _close(gr, s, 1e-10 * s2)
                and _close(gc, O.complex_face(s, axes), 1e-10 * s2)):
            problems.append("estimated faces differ from the Gram-matrix faces")
        sigma2 = float(np.trace(g))
        if not _close(gh, O.quaternion_face(g, axes), 5 * sigma2 / math.sqrt(n)):
            problems.append("a quaternion-face estimate is beyond 5 sigma2/sqrt(n)")
        pdf = np.asarray(out["pdf"])
        if pdf.shape != (n,):
            return problems + [f"gaussian_pdf gave shape {pdf.shape}"]
        # in row chunks, so that the check's temporaries stay far below the
        # operation's and peak_rss_mib measures the program
        sum_log = 0.0
        for lo in range(0, n, self.chunk):
            nll = O.neg_log_density(x[lo:lo + self.chunk], g)
            if not _close(pdf[lo:lo + self.chunk] * np.exp(nll), 1.0, 1e-9):
                problems.append("gaussian_pdf differs from the normal density")
                return problems
            sum_log += float(np.sum(np.log(pdf[lo:lo + self.chunk])))
        # -log p = entropy + (chi2_4 - 4)/2, whose standard deviation is sqrt(2)
        gap = -sum_log / n - O.entropy(g)
        if abs(gap) > 6 * math.sqrt(2.0 / n):
            problems.append(f"mean -log density is {gap:.3g} from the entropy")
        return problems


# --------------------------------------------------------------------------


class ModelsSmall:
    """Per-call work on one small model: construction, face conversions,
    densities at single quaternions, double rotations of Quaternion objects,
    and a small sample classified."""

    name = "models_small"
    n = 1000
    points = 4
    round_len = len(CLASSES)
    nominal_rate = 85.0

    def __init__(self, seed, workdir=None):
        self.rng = np.random.default_rng([seed, 3])

    def ops(self, count):
        out = []
        for i in range(count):
            mu1, mu2 = O.random_axes(self.rng)
            out.append({"tag": CLASSES[i % len(CLASSES)],
                        "basis": program_basis(mu1, mu2),
                        "axes": oracle_axes(mu1, mu2),
                        "points": [core.Quaternion(*p) for p in
                                   self.rng.normal(scale=0.6, size=(self.points, 4))],
                        "u": core.Quaternion(*self.rng.normal(size=4)),
                        "v": core.Quaternion(*self.rng.normal(size=4)),
                        "seed": int(self.rng.integers(2**31))})
        return out

    def run(self, op):
        tag, basis = op["tag"], op["basis"]
        faces = gaussian.covariance_from_params(program_params(tag, basis))
        conv = gaussian.convert
        hq = conv(faces.r, "quaternion")
        hc = conv(faces.r, "complex")
        converted = {"r>h": hq, "r>c": hc, "h>r": conv(hq, "real"),
                     "c>r": conv(hc, "real"), "h>c": conv(hq, "complex"),
                     "c>h": conv(hc, "quaternion")}
        pdf = [gaussian.gaussian_pdf(q, faces.r) for q in op["points"]]
        pdf_1mu = None
        if tag in ("onemu", "hproper"):
            # right-invariance about mu1: the density's own basis has mu1 second
            b = core.validate_basis(basis.mu3, basis.mu1)
            sigma2 = faces.h.matrix[0, 0, 0]
            gamma = faces.h.entry(0, 1)
            pdf_1mu = [gaussian.pdf_1mu_proper(q, sigma2, gamma, b)
                       for q in op["points"]]
        rot = rotations.double_rotation(op["u"], op["v"])
        moved = [rot.apply(q) for q in op["points"]]
        draws = gaussian.sample(faces.r, self.n, op["seed"])
        report = estimation.classify(draws, basis)
        return {"faces": faces, "converted": converted, "pdf": pdf,
                "pdf_1mu": pdf_1mu, "moved": moved, "x": draws.data,
                "report": report}

    def check(self, op, out):
        tag, axes = op["tag"], op["axes"]
        faces = out["faces"]
        g = faces.r.matrix
        scale = max(1.0, float(np.trace(g)))
        problems = check_covariance(tag, axes, g, faces.c.matrix, faces.h.matrix)
        conv = {k: v.matrix for k, v in out["converted"].items()}
        want = {"r>h": O.quaternion_face(g, axes), "r>c": O.complex_face(g, axes),
                "h>r": g, "c>r": g, "c>h": O.quaternion_face(g, axes),
                "h>c": O.complex_face(g, axes)}
        for k, w in want.items():
            if not _close(conv[k], w, 1e-12 * scale):
                problems.append(f"convert {k} is off by "
                                f"{np.max(np.abs(conv[k] - w)):.3g}")
        # the oracle's density, not scipy's: loading scipy here would set
        # peak_rss_mib far above the program's own peak (selftest.py holds
        # the oracle to scipy.stats.multivariate_normal)
        pts = np.array([q.to_vec() for q in op["points"]])
        try:
            ref = np.exp(-O.neg_log_density(pts, g))
        except np.linalg.LinAlgError:  # g is not a covariance; reported above
            ref = np.full(len(pts), np.nan)
            problems.append("the real face has no Cholesky factor")
        if not np.allclose(out["pdf"], ref, rtol=1e-10, atol=0):
            problems.append("gaussian_pdf differs from the normal density")
        if out["pdf_1mu"] is not None and \
                not np.allclose(out["pdf_1mu"], out["pdf"], rtol=1e-9, atol=0):
            problems.append("pdf_1mu_proper differs from gaussian_pdf")
        m = O.rotation(O.unit(op["u"].to_vec()), O.unit(op["v"].to_vec()))
        moved = np.array([q.to_vec() for q in out["moved"]])
        if not _close(moved, pts @ m.T, 1e-12) or not _close(
                np.linalg.norm(moved, axis=1), np.linalg.norm(pts, axis=1), 1e-12):
            problems.append("DoubleRotation.apply differs from u*q*v")
        problems += O.check_report(report_dict(out["report"]), out["x"], axes, C)
        return problems


WORKLOADS = {w.name: w for w in (CliCsvRoundtrip, EstimateLarge, ModelsSmall)}
