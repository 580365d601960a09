"""Generators for the extremal configurations, each packaged with the ratio
value it is predicted to attain.

Every generator returns a :class:`NamedConstruction` whose ``predicted``
field is either the exact ratio the matching modulus computation must
reproduce (``prediction_kind == "exact"``) or a proven lower bound on it
(``"lower_bound"``).  :func:`computed_ratio` runs the matching computation
and :func:`verify_construction` compares the two at the documented
tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .distributions import Config, FiniteDist, cross_moment
from .moduli import (
    barycenter_ratio,
    jensen_ratio,
    metric_barycenter_ratio,
    minimize_barycenter,
    roundness_ratio,
)
from .spaces import INF, AtomStack, BipartiteGraph, ParallelogramS1, RealLine, WeightedLq

__all__ = [
    "NamedConstruction",
    "VerifyOutcome",
    "make_fn",
    "make_bipartite",
    "make_disjoint_bernoulli",
    "make_jensen",
    "make_schatten_parallelogram",
    "make_eps_atom",
    "make_two_point",
    "computed_ratio",
    "verify_construction",
]

EXACT = "exact"
LOWER_BOUND = "lower_bound"

# ids whose check runs the barycenter solver (looser verification tolerance)
_SOLVER_IDS = frozenset({"fn_inf", "fn_q", "two_point", "eps_atom"})

# verification tolerances: relative for exact predictions (looser through the
# solver), absolute below a lower-bound prediction
_RTOL_EXACT = 1e-6
_RTOL_SOLVER = 1e-4
_LOWER_SLACK = 1e-7


@dataclass(frozen=True)
class NamedConstruction:
    id: str
    params: Dict[str, float]
    config: Config
    predicted: float
    prediction_kind: str


@dataclass(frozen=True)
class VerifyOutcome:
    construction: NamedConstruction
    computed: float
    ok: bool
    tolerance: float


# --------------------------------------------------------------------------
# Zero-sum sup-norm configuration
# --------------------------------------------------------------------------

def make_fn(n: int, q: float, p: float) -> NamedConstruction:
    """Two n-point families in the zero-sum hyperplane of C^{2n}.

    Atom coordinates are built in integer arithmetic -- one slot at 3n-2,
    the rest of that half at -(n+2) (first family) or n-2 (second family) --
    and each atom's coordinates sum to zero exactly.  Under the sup norm the
    barycenter ratio is exactly 2 ((3n-2) / (2n))^p; for finite q the same
    symmetrization argument yields only a lower bound on the ratio.
    """
    if n < 2:
        raise ValueError("make_fn requires n >= 2")
    if not (q >= 1.0):
        raise ValueError("make_fn requires q >= 1")
    if p < 1.0:
        raise ValueError("make_fn requires p >= 1")
    j = np.arange(n)
    half = np.repeat([-(n + 2), n - 2], n)
    a = np.tile(half, (n, 1))
    a[j, j] = 3 * n - 2
    b = np.tile(half[::-1], (n, 1))
    b[j, n + j] = 3 * n - 2
    assert not a.sum(axis=1).any() and not b.sum(axis=1).any()
    space = WeightedLq(q)
    xs = AtomStack(space, a)
    config = Config(
        space,
        FiniteDist.uniform(space, xs),
        FiniteDist.uniform(space, xs.with_array(b)),
        p,
        zero_sum=True,
    )
    if q == INF:
        predicted = 2.0 * ((3.0 * n - 2.0) / (2.0 * n)) ** p
        kind = EXACT
        cid = "fn_inf"
    else:
        top = (3.0 * n - 2.0) ** q + (n - 1.0) * (n + 2.0) ** q + n * (n - 2.0) ** q
        predicted = 2.0 * top ** (p / q) / (2.0 * n) ** (p * (q + 1.0) / q)
        kind = LOWER_BOUND
        cid = "fn_q"
    return NamedConstruction(cid, {"n": n, "q": q, "p": p}, config, predicted, kind)


# --------------------------------------------------------------------------
# Complete bipartite graph
# --------------------------------------------------------------------------

def make_bipartite(n: int, p: float) -> NamedConstruction:
    """Uniform laws on the two sides of K_{n,n}; the vertex-restricted
    barycenter ratio equals (n-1)/n 2^p + 1 exactly."""
    if n < 1:
        raise ValueError("make_bipartite requires n >= 1")
    if p < 1.0:
        raise ValueError("make_bipartite requires p >= 1")
    space = BipartiteGraph(n)
    i = np.arange(n)
    x = FiniteDist.uniform(space, AtomStack(space, np.column_stack([np.ones_like(i), i])))
    y = FiniteDist.uniform(space, AtomStack(space, np.column_stack([np.zeros_like(i), i])))
    predicted = (n - 1.0) / n * 2.0 ** p + 1.0
    return NamedConstruction("bipartite", {"n": n, "p": p},
                             Config(space, x, y, p), predicted, EXACT)


# --------------------------------------------------------------------------
# Disjointly supported symmetric Bernoulli systems
# --------------------------------------------------------------------------

def _disjoint_bernoulli_stacks(space: WeightedLq, n: int) -> tuple:
    """The two families of n symmetric Bernoulli coordinate functions with
    disjoint supports, as two stacks that share one weight vector."""
    half = 2 ** n
    weights = np.full(2 * half, 2.0 ** (-n))
    signs = 1.0 - 2.0 * ((np.arange(half) >> np.arange(n)[:, None]) & 1)
    zeros = np.zeros((n, half))
    xs = AtomStack(space, np.concatenate([signs, zeros], axis=1), weights)
    return xs, xs.with_array(np.concatenate([zeros, signs], axis=1))


def make_disjoint_bernoulli(n: int, q: float, p: float) -> NamedConstruction:
    """Uniform laws on two families of n symmetric Bernoulli coordinate
    functions with disjoint supports, realized explicitly on the product
    space {-1,1}^n (two copies glued side by side, each coordinate carrying
    mass 2^-n).  Atom dimension is 2^(n+1), hence the n <= 14 cap.

    Roundness ratio: (1 - 1/n) 2^(1 + p(q-2)/q), exactly.
    """
    if not (1 <= n <= 14):
        raise ValueError("make_disjoint_bernoulli requires 1 <= n <= 14")
    if not (1.0 <= q < INF):
        raise ValueError("make_disjoint_bernoulli requires finite q >= 1")
    if p < 1.0:
        raise ValueError("make_disjoint_bernoulli requires p >= 1")
    space = WeightedLq(q)
    xs, ys = _disjoint_bernoulli_stacks(space, n)
    config = Config(space, FiniteDist.uniform(space, xs), FiniteDist.uniform(space, ys), p)
    predicted = (1.0 - 1.0 / n) * 2.0 ** (1.0 + p * (q - 2.0) / q)
    return NamedConstruction("disjoint_bernoulli", {"n": n, "q": q, "p": p},
                             config, predicted, EXACT)


# --------------------------------------------------------------------------
# Jensen-ratio families
# --------------------------------------------------------------------------

def _rademacher_vectors(n: int) -> tuple:
    """n pairwise-independent symmetric Bernoulli vectors in weighted L_q, as
    the rows of one array, with their weights.

    Realized as the nonconstant characters omega -> prod_{i in S} omega_i on
    {-1,1}^k with k = ceil(log2(n+1)): distinct characters are pairwise
    independent, which pins every pairwise distance (and the zero mean) to
    the values of the i.i.d. realization while keeping the dimension at
    2^k <= 2(n+1) instead of 2^n.
    """
    k = 1
    while 2 ** k - 1 < n:
        k += 1
    dim = 2 ** k
    weights = np.full(dim, 2.0 ** (-k))
    v = np.arange(dim) & np.arange(1, n + 1)[:, None]     # one row per mask
    v = v ^ (v >> 16)
    v = v ^ (v >> 8)
    v = v ^ (v >> 4)
    v = v ^ (v >> 2)
    v = v ^ (v >> 1)
    return (1.0 - 2.0 * (v & 1)).astype(complex), weights


def make_jensen(kind: str, *, p: float, eps: Optional[float] = None,
                n: Optional[int] = None, q: Optional[float] = None) -> NamedConstruction:
    """Single-distribution families whose Jensen ratios realize the four
    branches of the sharp L_q exponent.

    kind "two_point":  uniform on {-1, 1};             ratio 2^(p-1).
    kind "eps":        mass eps at 1, rest at 0;       ratio
                       2 eps (1-eps) / ((1-eps) eps^p + eps (1-eps)^p).
    kind "basis":      uniform on the 2n signed basis vectors of l_q^n;
                       ratio (n-1)/n 2^(p/q) + 2^p / (2n).
    kind "rademacher": uniform on n signed Bernoulli functions and their
                       negatives; ratio (n-1)/n 2^(p(q-1)/q) + 2^p / (2n).
    """
    if p < 1.0:
        raise ValueError("make_jensen requires p >= 1")
    if kind == "two_point":
        space = RealLine()
        dist = FiniteDist.uniform(space, AtomStack(space, [-1.0, 1.0]))
        predicted = 2.0 ** (p - 1.0)
        params: Dict[str, float] = {"p": p}
        cid = "jensen_two_point"
    elif kind == "eps":
        if eps is None or not (0.0 < eps < 1.0):
            raise ValueError("eps must lie in (0, 1)")
        space = RealLine()
        dist = FiniteDist(space, AtomStack(space, [1.0, 0.0]), np.array([eps, 1.0 - eps]))
        predicted = (2.0 * eps * (1.0 - eps)
                     / ((1.0 - eps) * eps ** p + eps * (1.0 - eps) ** p))
        params = {"p": p, "eps": eps}
        cid = "jensen_eps"
    elif kind == "basis":
        if n is None or n < 1 or q is None or not (1.0 <= q < INF):
            raise ValueError("basis kind needs n >= 1 and finite q >= 1")
        space = WeightedLq(q)
        rows = np.zeros((2 * n, n), dtype=complex)     # e_1, -e_1, e_2, -e_2, ...
        i = np.arange(n)
        rows[2 * i, i] = 1.0
        rows[2 * i + 1, i] = -1.0
        dist = FiniteDist.uniform(space, AtomStack(space, rows))
        predicted = (n - 1.0) / n * 2.0 ** (p / q) + 2.0 ** p / (2.0 * n)
        params = {"p": p, "n": n, "q": q}
        cid = "jensen_basis"
    elif kind == "rademacher":
        if n is None or n < 1 or q is None or not (1.0 <= q < INF):
            raise ValueError("rademacher kind needs n >= 1 and finite q >= 1")
        space = WeightedLq(q)
        vecs, weights = _rademacher_vectors(n)
        rows = np.stack([vecs, -vecs], axis=1).reshape(2 * n, -1)   # v_1, -v_1, ...
        dist = FiniteDist.uniform(space, AtomStack(space, rows, weights))
        predicted = (n - 1.0) / n * 2.0 ** (p * (q - 1.0) / q) + 2.0 ** p / (2.0 * n)
        params = {"p": p, "n": n, "q": q}
        cid = "jensen_rademacher"
    else:
        raise ValueError(f"unknown jensen kind {kind!r}")
    config = Config(dist.space, dist, dist, p)
    return NamedConstruction(cid, params, config, predicted, EXACT)


# --------------------------------------------------------------------------
# Trace-class parallelogram configuration
# --------------------------------------------------------------------------

def _parallelogram_rows(n: int, m: int) -> tuple:
    """The basis vectors e_1..e_m and i e_{n+1}..i e_{n+m} of C^{2n}, as the
    rows of two arrays."""
    return np.eye(m, 2 * n, dtype=complex), 1j * np.eye(m, 2 * n, k=n)


def make_schatten_parallelogram(n: int, p: float) -> NamedConstruction:
    """Basis vectors e_1..e_n against i e_{n+1}..i e_{2n} under the
    parallelogram trace-norm distance: within-family distances sqrt(2),
    cross distances 1, so the roundness ratio is (1 - 1/n) 2^(p/2 + 1).

    The distance formula is the isometric image of the trace-norm
    construction; the 2^n x 2^n matrices themselves are never materialized.
    """
    if n < 1:
        raise ValueError("make_schatten_parallelogram requires n >= 1")
    if p < 1.0:
        raise ValueError("make_schatten_parallelogram requires p >= 1")
    space = ParallelogramS1(n)
    xs, ys = _parallelogram_rows(n, n)
    x = FiniteDist.uniform(space, AtomStack(space, xs))
    y = FiniteDist.uniform(space, AtomStack(space, ys))
    predicted = (1.0 - 1.0 / n) * 2.0 ** (p / 2.0 + 1.0)
    return NamedConstruction("schatten_parallelogram", {"n": n, "p": p},
                             Config(space, x, y, p), predicted, EXACT)


# --------------------------------------------------------------------------
# Two-point and near-degenerate barycenter configurations
# --------------------------------------------------------------------------

def make_two_point(p: float) -> NamedConstruction:
    """X and Y i.i.d. uniform on {0, 1}: barycenter ratio exactly 2^(2-p)."""
    if p < 1.0:
        raise ValueError("make_two_point requires p >= 1")
    space = RealLine()
    dist = FiniteDist.uniform(space, AtomStack(space, [0.0, 1.0]))
    config = Config(space, dist, dist, p)
    return NamedConstruction("two_point", {"p": p}, config, 2.0 ** (2.0 - p), EXACT)


def make_eps_atom(eps: float, p: float) -> NamedConstruction:
    """X = Y with mass eps at a unit vector and 1 - eps at the origin.

    The predicted value is the cross moment over the single-law barycenter
    infimum, 2 (eps^(1/(p-1)) + (1-eps)^(1/(p-1)))^(p-1); with the two-term
    objective this equals 2 E d(X,Y)^p / inf_z objective, which is what
    :func:`computed_ratio` evaluates.  Approaches 2 as eps -> 0.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    if p <= 1.0:
        raise ValueError("make_eps_atom requires p > 1")
    space = RealLine()
    dist = FiniteDist(space, AtomStack(space, [1.0, 0.0]), np.array([eps, 1.0 - eps]))
    config = Config(space, dist, dist, p)
    r = 1.0 / (p - 1.0)
    predicted = 2.0 * (eps ** r + (1.0 - eps) ** r) ** (p - 1.0)
    return NamedConstruction("eps_atom", {"eps": eps, "p": p}, config,
                             predicted, EXACT)


# --------------------------------------------------------------------------
# Verification
# --------------------------------------------------------------------------

def computed_ratio(nc: NamedConstruction) -> float:
    """Run the modulus computation the construction's prediction refers to."""
    cid = nc.id
    if cid in ("fn_inf", "fn_q", "two_point"):
        return barycenter_ratio(nc.config).value
    if cid == "bipartite":
        return metric_barycenter_ratio(nc.config).value
    if cid in ("disjoint_bernoulli", "schatten_parallelogram"):
        return roundness_ratio(nc.config).value
    if cid.startswith("jensen_"):
        return jensen_ratio(nc.config.X, nc.config.p).value
    if cid == "eps_atom":
        cert = minimize_barycenter(nc.config)
        return 2.0 * cross_moment(nc.config.X, nc.config.Y, nc.config.p) / cert.value
    raise ValueError(f"unknown construction id {cid!r}")


def verify_construction(nc: NamedConstruction) -> VerifyOutcome:
    """Compare predicted and computed ratios.

    Exact predictions must agree to a relative tolerance, 1e-6 (1e-4 when the
    barycenter solver is involved); lower-bound predictions require
    computed >= predicted - 1e-7.
    """
    computed = computed_ratio(nc)
    if nc.prediction_kind == LOWER_BOUND:
        ok = computed >= nc.predicted - _LOWER_SLACK
        tol = _LOWER_SLACK
    else:
        tol = _RTOL_SOLVER if nc.id in _SOLVER_IDS else _RTOL_EXACT
        ok = abs(computed - nc.predicted) <= tol * max(1.0, abs(nc.predicted))
    return VerifyOutcome(nc, computed, ok, tol)
