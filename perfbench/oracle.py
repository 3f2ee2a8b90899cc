"""Reference computations the benchmark checks the program against.

Everything here is built from the Hamilton multiplication table and plain
numpy linear algebra. Nothing is imported from ``quatprop``: the checks must
not share code with what they check.

Component vectors follow the (a, b, c, d) order of a + b*i + c*j + d*k.
"""

from __future__ import annotations

import math

import numpy as np

# --------------------------------------------------------------------------
# quaternion algebra from structure constants


def _hamilton_table() -> np.ndarray:
    """T[a, b] is the component vector of e_a * e_b for e = (1, i, j, k)."""
    t = np.zeros((4, 4, 4))
    for a in range(4):
        t[0, a, a] = 1.0
        t[a, 0, a] = 1.0
    for a in range(1, 4):
        t[a, a, 0] = -1.0
    for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        t[a, b, c] = 1.0
        t[b, a, c] = -1.0
    return t


HAMILTON = _hamilton_table()
CONJ = np.diag([1.0, -1.0, -1.0, -1.0])


def qmul(p, q) -> np.ndarray:
    return np.einsum("a,b,abc->c", np.asarray(p, float), np.asarray(q, float),
                     HAMILTON)


def left(u) -> np.ndarray:
    """Matrix of q -> u*q."""
    return np.einsum("a,abc->cb", np.asarray(u, float), HAMILTON)


def right(v) -> np.ndarray:
    """Matrix of q -> q*v."""
    return np.einsum("b,abc->ca", np.asarray(v, float), HAMILTON)


def rotation(u, v) -> np.ndarray:
    """Matrix of q -> u*q*v for unit u, v."""
    return left(u) @ right(v)


def involution(mu) -> np.ndarray:
    """Matrix of q -> -mu*q*mu for a pure unit mu (a 4-vector)."""
    return -left(mu) @ right(mu)


def unit(v) -> np.ndarray:
    v = np.asarray(v, float)
    return v / np.linalg.norm(v)


# --------------------------------------------------------------------------
# bases and the symmetry classes


def frame(mu1, mu2) -> np.ndarray:
    """4x4 orthogonal matrix with columns 1, mu1, mu2, mu3 = mu1*mu2."""
    one = np.array([1.0, 0.0, 0.0, 0.0])
    mu1, mu2 = np.asarray(mu1, float), np.asarray(mu2, float)
    return np.column_stack([one, mu1, mu2, qmul(mu1, mu2)])


def random_axes(rng):
    """A random orthonormal pair of pure unit quaternions (4-vectors)."""
    a = unit(rng.normal(size=3))
    while True:
        w = rng.normal(size=3)
        w = w - (w @ a) * a
        if np.linalg.norm(w) > 0.3:
            break
    b = unit(w)
    return np.concatenate([[0.0], a]), np.concatenate([[0.0], b])


ONE = np.array([1.0, 0.0, 0.0, 0.0])


def defining_rotation(tag, axes):
    """The (u, v) pair whose invariance defines a class, or None for the
    classes with no single defining rotation (hproper, general)."""
    mu1, mu2 = axes[0], axes[1]
    return {"mumu": (mu1, mu2), "muone": (mu1, ONE), "onemu": (ONE, mu1),
            "musame": (mu1, mu1)}.get(tag)


# candidates of the c/sqrt(n) rule, most specific tier first
TIERS = (
    (("hproper", ()),),
    tuple(("mumu", (i, j)) for i in range(3) for j in range(3) if i != j)
    + tuple(("musame", (i,)) for i in range(3)),
    tuple(("muone", (i,)) for i in range(3))
    + tuple(("onemu", (i,)) for i in range(3)),
)


def _candidate_rotation(tag, idx, axes):
    if tag == "mumu":
        return axes[idx[0]], axes[idx[1]]
    if tag == "musame":
        return axes[idx[0]], axes[idx[0]]
    if tag == "muone":
        return axes[idx[0]], ONE
    return ONE, axes[idx[0]]


# --------------------------------------------------------------------------
# second-moment statistics


def gram(rows) -> np.ndarray:
    x = np.asarray(rows, float)
    return x.T @ x / x.shape[0]


def quaternion_face(g, axes) -> np.ndarray:
    """E[v v^H] for v = (q, q^mu1, q^mu2, q^mu3) from the real second-moment
    matrix g; entry (r, s) is a component 4-vector."""
    maps = np.array([np.eye(4)] + [involution(mu) for mu in axes])
    # moments[r, s, a, b] = E[(maps[r] q)_a (CONJ maps[s] q)_b]
    moments = np.einsum("rai,ij,sbj->rsab", maps, g, CONJ @ maps)
    return np.einsum("rsab,abc->rsc", moments, HAMILTON)


def complex_face(g, axes) -> np.ndarray:
    """E[w w^H] for the Cayley-Dickson pair w = (z1, z1*, z2, z2*) with
    q = z1 + z2*mu2, an entry x + 1j*y standing for x + y*mu1."""
    f = frame(axes[0], axes[1])
    split = np.array([[1, 1j, 0, 0], [1, -1j, 0, 0],
                      [0, 0, 1, 1j], [0, 0, 1, -1j]])
    return split @ (f.T @ g @ f) @ split.conj().T


def complex_pattern(c11, c22, c12, p11, p22, p12) -> np.ndarray:
    """Complex face from the pair's variances c11, c22, cross-covariance
    c12 = E[z1 z2*] and pseudo-moments p11, p22, p12 = E[z1 z2]."""
    cj = np.conj
    return np.array([[c11, p11, c12, p12],
                     [cj(p11), c11, cj(p12), cj(c12)],
                     [cj(c12), p12, c22, p22],
                     [cj(p12), c12, cj(p22), c22]], dtype=complex)


def class_pattern(tag, p):
    """Complex face a class's parameters pin down, from the moment
    definitions of each class; None for general, which is set by its
    quaternion face."""
    if tag == "mumu":
        return complex_pattern(p["sigma2"], p["sigma2"], 1j * p["delta"],
                               p["alpha"], -p["alpha"], p["alpha"])
    if tag == "muone":
        return complex_pattern(p["sigma2"], p["varsigma2"], p["omega"], 0, 0, 0)
    if tag == "onemu":
        return complex_pattern(p["sigma2"], p["varsigma2"], 0, 0, 0, p["omega"])
    if tag == "musame":
        return complex_pattern(p["sigma2"], p["varsigma2"], 0,
                               p["alpha"], p["delta"], 0)
    if tag == "hproper":
        half = p["sigma2"] / 2
        return complex_pattern(half, half, 0, 0, 0, 0)
    return None


def neg_log_density(rows, g) -> np.ndarray:
    """-log of the centred normal density with covariance g, row-wise."""
    chol = np.linalg.cholesky(g)
    z = np.linalg.solve(chol, np.asarray(rows, float).T)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    return 0.5 * (4 * math.log(2 * math.pi) + logdet + np.sum(z * z, axis=0))


def entropy(g) -> float:
    return 0.5 * math.log((2 * math.pi * math.e) ** 4 * np.linalg.det(g))


# --------------------------------------------------------------------------
# the classification rule


def residuals(g, axes) -> dict:
    """Residual of every candidate on the second-moment matrix g: the
    largest |gamma| for hproper, else the largest entry of M g M^T - g;
    both relative to the total variance."""
    s2 = float(np.trace(g))
    face = quaternion_face(g, axes)
    out = {("hproper", ()): max(np.linalg.norm(face[0, r]) for r in (1, 2, 3)) / s2}
    for tier in TIERS[1:]:
        for tag, idx in tier:
            m = rotation(*_candidate_rotation(tag, idx, axes))
            out[(tag, idx)] = float(np.abs(m @ g @ m.T - g).max() / s2)
    return out


# how far a reported residual or variance may lie from the one computed here
TOL = 1e-10


def check_report(report, rows, axes, c, expect=None):
    """Problems with a classify report (as its JSON dict) on sample rows.

    Every residual must equal the one computed here from the sample's
    second-moment matrix, and the chosen candidate must be the one the
    c/sqrt(n) rule picks from them. With ``expect`` = (tag, axis indices)
    the chosen candidate must also be that one.
    """
    problems = []
    n = len(rows)
    axes_vec = [np.asarray(a, float)[1:] for a in axes]

    def key(cand):
        found = []
        for vec in cand["axes"]:
            hits = [i for i, a in enumerate(axes_vec)
                    if np.max(np.abs(np.asarray(vec, float) - a)) <= 1e-12]
            if len(hits) != 1:
                return None
            found.append(hits[0])
        return cand["class"], tuple(found)

    if report.get("n") != n:
        problems.append(f"report n {report.get('n')} != {n}")
    threshold = c / math.sqrt(n)
    if not math.isclose(report["tolerance"], threshold, rel_tol=1e-14):
        problems.append(f"tolerance {report['tolerance']} != c/sqrt(n) {threshold}")
    g = gram(rows)
    mine = residuals(g, axes)
    if abs(report["sigma2"] - np.trace(g)) > TOL * np.trace(g):
        problems.append(f"sigma2 {report['sigma2']} != trace of the Gram matrix "
                        f"{np.trace(g)}")
    got = {}
    for cand in report["candidates"]:
        k = key(cand)
        if k is None:
            problems.append(f"candidate axes {cand['axes']} are not basis axes")
            continue
        got[k] = cand["residual"]
    expected_keys = set(mine) | {("general", ())}
    if set(got) != expected_keys:
        problems.append(f"candidate set differs: {sorted(set(got) ^ expected_keys)}")
        return problems
    for k, r in mine.items():
        if not abs(got[k] - r) <= TOL:
            problems.append(f"residual of {k} is {got[k]!r}, expected {r!r}")
    chosen = key(report["chosen"])
    rule = ("general", ())
    for tier in TIERS:
        passing = [k for k in tier if got[k] < report["tolerance"]]
        if passing:
            rule = min(passing, key=lambda k: got[k])
            if chosen in passing and got[chosen] <= got[rule]:
                rule = chosen  # an exact tie may go either way
            break
    if chosen != rule:
        problems.append(f"chosen {chosen} but the rule picks {rule}")
    if expect is not None and chosen != expect:
        problems.append(f"chosen {chosen} but the data were drawn from {expect}")
    return problems
