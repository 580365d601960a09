"""Reference computations kept apart from the program under test.

Nothing here imports ``momentmoduli``.  Points arrive as plain numpy arrays
(complex vectors, complex matrices, reals) and every quantity is recomputed
by a route other than the program's:

* distances -- a row loop with max-scaled l_q sums, ``np.linalg.svd`` for
  Schatten classes, and the largest singular value of the real 2 x 2n matrix
  ``[Re c; Im c]`` for the parallelogram trace-norm distance;
* barycenter minima -- the weighted median, the mixture mean, golden-section
  search per coordinate, Weiszfeld iteration, and the sup-norm closed form;
* ratio values -- the paper's closed forms for the extremal constructions and
  the proven bounds a searched ratio may not exceed.
"""

from __future__ import annotations

import math

import numpy as np

INF = math.inf
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# --------------------------------------------------------------------------
# Distances
# --------------------------------------------------------------------------

def lq_rows(a: np.ndarray, b: np.ndarray, w: np.ndarray, q: float) -> np.ndarray:
    """Weighted l_q distances between the rows of ``a`` and ``b``, one row of
    ``a`` at a time, with every sum scaled by its largest term."""
    out = np.empty((len(a), len(b)))
    live = w > 0
    for i, row in enumerate(a):
        diff = np.abs(b - row)
        if q == INF:
            out[i] = diff[:, live].max(axis=1)
            continue
        top = (diff * np.where(live, 1.0, 0.0)).max(axis=1)
        safe = np.where(top > 0, top, 1.0)
        out[i] = top * ((diff / safe[:, None]) ** q @ w) ** (1.0 / q)
    return out


def schatten_rows(a: np.ndarray, b: np.ndarray, q: float) -> np.ndarray:
    """Schatten-q distances between stacks of square matrices, via SVD."""
    out = np.empty((len(a), len(b)))
    for i, mat in enumerate(a):
        sigma = np.linalg.svd(b - mat, compute_uv=False)
        out[i] = (sigma ** q).sum(axis=1) ** (1.0 / q)
    return out


def s1par_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Parallelogram trace-norm distances: the largest singular value of the
    real 2 x 2n matrix whose rows are Re c and Im c, c = b - a."""
    out = np.empty((len(a), len(b)))
    for i, row in enumerate(a):
        c = b - row
        real = np.stack([c.real, c.imag], axis=1)
        out[i] = np.linalg.svd(real, compute_uv=False)[:, 0]
    return out


def real_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs(np.subtract.outer(np.asarray(a, float), np.asarray(b, float)))


class Metric:
    """Distance matrices for one space, described by a plain dict:
    ``{"kind": "lq", "q": q, "w": weights}``, ``{"kind": "schatten", "q": q}``,
    ``{"kind": "s1par"}``, ``{"kind": "real"}``, each
    optionally wrapped as ``{"kind": "snowflake", "base": ..., "alpha": a}``."""

    def __init__(self, desc: dict):
        self.desc = desc

    def rows(self, a, b) -> np.ndarray:
        return _rows(self.desc, a, b)

    def moment(self, a, pa, b, pb, p: float) -> float:
        return float(pa @ self.rows(a, b) ** p @ pb)


def _rows(desc: dict, a, b) -> np.ndarray:
    kind = desc["kind"]
    if kind == "lq":
        return lq_rows(a, b, desc["w"], desc["q"])
    if kind == "schatten":
        return schatten_rows(a, b, desc["q"])
    if kind == "s1par":
        return s1par_rows(a, b)
    if kind == "real":
        return real_rows(a, b)
    if kind == "snowflake":
        return _rows(desc["base"], a, b) ** desc["alpha"]
    raise ValueError(f"unknown metric kind {kind!r}")


# --------------------------------------------------------------------------
# Ratios on finite laws
# --------------------------------------------------------------------------

def roundness(m: Metric, xa, xp, ya, yp, p: float) -> float:
    num = m.moment(xa, xp, xa, xp, p) + m.moment(ya, yp, ya, yp, p)
    return num / m.moment(xa, xp, ya, yp, p)


def objective(m: Metric, xa, xp, ya, yp, p: float, z) -> float:
    """E d(X, z)^p + E d(Y, z)^p."""
    zs = np.asarray([z])
    return float(xp @ m.rows(xa, zs)[:, 0] ** p + yp @ m.rows(ya, zs)[:, 0] ** p)


def mixture(m: Metric, xa, xp, ya, yp, p: float) -> float:
    z = 0.5 * (np.tensordot(xp, xa, axes=1) + np.tensordot(yp, ya, axes=1))
    return objective(m, xa, xp, ya, yp, p, z) / m.moment(xa, xp, ya, yp, p)


def jensen(m: Metric, xa, xp, p: float) -> float:
    centre = np.tensordot(xp, xa, axes=1)
    den = float(xp @ m.rows(xa, np.asarray([centre]))[:, 0] ** p)
    return m.moment(xa, xp, xa, xp, p) / den


def metric_barycenter(m: Metric, xa, xp, ya, yp, p: float, candidates) -> float:
    """Minimum over the candidate centres of the objective, over E d(X,Y)^p."""
    best = min(float(xp @ col ** p + yp @ col2 ** p)
               for col, col2 in zip(m.rows(xa, candidates).T,
                                    m.rows(ya, candidates).T))
    return best / m.moment(xa, xp, ya, yp, p)


def log_moment(m: Metric, xa, xp, ya, yp) -> float:
    """E log d(X, Y); -inf when a coinciding pair carries mass."""
    d = m.rows(xa, ya)
    joint = np.outer(xp, yp)
    live = joint > 0
    if np.any(live & (d == 0.0)):
        return -INF
    return float((joint[live] * np.log(d[live])).sum())


def log_roundness(m: Metric, xa, xp, ya, yp) -> float:
    lhs = log_moment(m, xa, xp, xa, xp) + log_moment(m, ya, yp, ya, yp)
    if lhs == -INF:
        return -INF
    return lhs - 2.0 * log_moment(m, xa, xp, ya, yp)


# --------------------------------------------------------------------------
# Barycenter minima
# --------------------------------------------------------------------------

def weighted_median(values: np.ndarray, weights: np.ndarray) -> float:
    """A minimizer of sum_i weights_i |t - values_i| over real t."""
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(weights[order])
    k = int(np.searchsorted(cum, 0.5 * cum[-1]))
    return float(values[order][min(k, len(values) - 1)])


def golden_min(f, lo: float, hi: float, iters: int = 200) -> float:
    """Minimum value of a convex function on [lo, hi] by golden-section
    search; the returned value is attained, so it never undershoots."""
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    best = min(f(lo), f(hi), fc, fd)
    for _ in range(iters):
        if b - a <= 1e-15 * max(1.0, abs(a), abs(b)):
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
            best = min(best, fc)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
            best = min(best, fd)
    return best


def separable_min(atoms: np.ndarray, coeffs: np.ndarray, w: np.ndarray,
                  p: float) -> float:
    """min_z sum_i coeffs_i sum_k w_k |z_k - atoms_ik|^p for real atoms
    (p >= 1): one convex problem per coordinate."""
    atoms = np.asarray(atoms, dtype=float)
    total = 0.0
    for k in range(atoms.shape[1]):
        col = atoms[:, k]
        if p == 1.0:
            t = weighted_median(col, coeffs)
            best = float(coeffs @ np.abs(t - col))
        else:
            best = golden_min(lambda t: float(coeffs @ np.abs(t - col) ** p),
                              float(col.min()), float(col.max()))
        total += w[k] * best
    return total


def mean_min(atoms: np.ndarray, coeffs: np.ndarray, w: np.ndarray) -> float:
    """min_z sum_i coeffs_i ||z - atoms_i||_{2,w}^2, attained at the
    coefficient-weighted mean."""
    z = np.tensordot(coeffs, atoms, axes=1) / coeffs.sum()
    return float(coeffs @ (np.abs(atoms - z) ** 2 @ w))


def weiszfeld_min(atoms: np.ndarray, coeffs: np.ndarray, w: np.ndarray,
                  iters: int = 100_000) -> float:
    """min_z sum_i coeffs_i ||z - atoms_i||_{2,w} by Weiszfeld iteration on
    the real coordinates; the best value visited is returned, and every atom
    is a candidate, so the result never undershoots the minimum."""
    scale = np.sqrt(w)
    pts = np.concatenate([atoms.real * scale, atoms.imag * scale], axis=1)

    def value(z):
        return float(coeffs @ np.sqrt(((pts - z) ** 2).sum(axis=1)))

    best = min(value(pt) for pt in pts)
    z = coeffs @ pts / coeffs.sum()
    for _ in range(iters):
        r = np.sqrt(((pts - z) ** 2).sum(axis=1))
        if np.any(r == 0.0):
            break
        inv = coeffs / r
        z_new = inv @ pts / inv.sum()
        best = min(best, value(z_new))
        if np.abs(z_new - z).max() <= 1e-16 * max(1.0, np.abs(z).max()):
            break
        z = z_new
    return min(best, value(z))


def fn_inf_min(n: int, p: float, cross: float) -> float:
    """Barycenter minimum of the zero-sum sup-norm family: the ratio
    2 ((3n - 2) / 2n)^p times the cross moment."""
    return 2.0 * ((3.0 * n - 2.0) / (2.0 * n)) ** p * cross


# --------------------------------------------------------------------------
# Closed forms of the extremal constructions and proven bounds
# --------------------------------------------------------------------------

def bipartite_ratio(n: int, p: float) -> float:
    return (n - 1.0) / n * 2.0 ** p + 1.0


def disjoint_bernoulli_ratio(n: int, q: float, p: float) -> float:
    return (1.0 - 1.0 / n) * 2.0 ** (1.0 + p * (q - 2.0) / q)


def two_point_ratio(p: float) -> float:
    return 2.0 ** (2.0 - p)


def schatten_parallelogram_ratio(n: int, p: float) -> float:
    return (1.0 - 1.0 / n) * 2.0 ** (p / 2.0 + 1.0)


def jensen_rademacher_ratio(n: int, q: float, p: float) -> float:
    return (n - 1.0) / n * 2.0 ** (p * (q - 1.0) / q) + 2.0 ** p / (2.0 * n)


def jensen_basis_ratio(n: int, q: float, p: float) -> float:
    return (n - 1.0) / n * 2.0 ** (p / q) + 2.0 ** p / (2.0 * n)


def eps_atom_ratio(eps: float, p: float) -> float:
    r = 1.0 / (p - 1.0)
    return 2.0 * (eps ** r + (1.0 - eps) ** r) ** (p - 1.0)


def roundness_exponent(p: float, q: float) -> float:
    """Proven roundness exponent on L_q (p >= 1, 1 <= q < inf): the minimum
    over the ranges of the paper's table that contain (p, q)."""
    pc = INF if p == 1.0 else p / (p - 1.0)
    qc = INF if q == 1.0 else q / (q - 1.0)
    cands = []
    if pc <= q <= p:
        cands.append(p - 1.0)
    if qc <= p <= q:
        cands.append(p * (q - 2.0) / q + 1.0)
    if q >= 2.0 and p <= qc:
        cands.append(2.0 - p / q)
    if q <= 2.0 and q <= p <= qc:
        cands.append(p / q)
    if p <= q <= 2.0:
        cands.append(1.0)
    return min(cands)


def roundness_bound(kind: str, p: float, q: float = 2.0) -> float:
    """Largest roundness ratio the paper allows: 2^C on L_q, and the
    triangle-inequality value 2^(p+1) on any metric space."""
    trivial = 2.0 ** (max(p, 1.0) + 1.0)
    if kind == "lq":
        return min(2.0 ** roundness_exponent(p, q), trivial)
    return trivial


def mixture_bound(p: float, q: float) -> float:
    """Mixture/barycenter bound on L_q: the universal 3^p / 2^(p-1) and the
    L_q-specific improvement, whichever is smaller."""
    general = 3.0 ** p / 2.0 ** (p - 1.0)
    c = min(1.0, p - 1.0, p / q, p * (q - 1.0) / q)
    first = general * (math.sqrt(2.0) / 3.0) ** (2.0 * c)
    second = (2.0 ** roundness_exponent(p, q) + 2.0) / 2.0 ** (c + 1.0)
    return min(general, first, second)
