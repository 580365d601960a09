"""Scalar and Hilbert-case inequality verification.

Covers the q >= 3 sub-additivity machinery for centered real variables, the
log-moment identities behind the multiplicative (L_0) inequalities, and the
Parseval inequalities that drive the interpolation bounds.  Real-valued laws
are :class:`FiniteDist` values on :class:`RealLine`.  Expectations over such
laws are exact sums; the two genuinely continuous objects (the Laplace-
transform identity for E log W and the circular log-moment) go through panel
quadrature with explicit singularity and tail control.

Each seeded inequality (sub-additivity, Gaussian smoothing and the three
Hilbert variants) is one array kernel over a leading batch axis; the
per-law functions run it on a batch of one.  The suite runners draw their
seeds in blocks of ``_BLOCK``, check each block at once with the checks a
law object makes, and run the kernel once per group of seeds with equal
atom counts, so that every sum adds the same elements in the same order as
on one law.  The per-law ``random_*`` helpers draw a block of one through
the same code.

In a block each seed only draws: ``integers`` for an atom count, then
``standard_normal`` and ``standard_exponential`` straight into the block's
buffers through ``out=``, the stream of ``normal`` and ``dirichlet``.  The
rest runs once per block on the buffer rows, each row in its per-law
order: ``+ 0.0``, which turns a standard normal z into the ``0.0 + 1.0 * z``
of ``normal`` (they differ only in the sign of an exact zero); the flat
Dirichlet law, i.i.d. standard exponentials times the reciprocal of their
sum in order, as numpy's ``dirichlet`` makes it (Devroye 1986, ch. XI);
the centering; a kernel's ``re + 1j * im``.  The alpha grid runs in blocks
of rows of at most ``spaces._BLOCK_ENTRIES`` entries: O(grid) memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .distributions import FiniteDist, check_prob_rows, check_probs, mean_row
from .quadrature import gl_panels, integrate_segment
from .spaces import _BLOCK_ENTRIES, AtomStack, RealLine

__all__ = [
    "KernelMatrix",
    "phi_power",
    "alpha_fn",
    "beta_ratio",
    "check_subadditivity",
    "laplace_log_identity",
    "gaussian_smoothing_check",
    "cosine_log_moment",
    "log_abs_cos_moment",
    "verify_scalar_hilbert",
    "random_centered_pair",
    "random_positive_dist",
    "random_kernel",
    "run_alpha_grid",
    "run_beta_scan",
    "run_subadditivity_suite",
    "run_smoothing_suite",
    "run_hilbert_suite",
    "run_cosine_suite",
    "run_laplace_suite",
]

_RL = RealLine()

# relative allowances for rounding in the exact-sum checks, and the most atoms
# of a random law
_SUBADDITIVITY_TOL = 1e-10
_EXACT_TOL = 1e-12
_MAX_ATOMS = 4

# the alpha grid's half-width, the base seed of each random suite, and the
# variants and kernel size of the Hilbert suite
_ALPHA_SPAN = 10.0
_SUBADDITIVITY_SEED, _SMOOTHING_SEED, _HILBERT_SEED, _LAPLACE_SEED = 7001, 7002, 7003, 7004
_HILBERT_VARIANTS = ("roundness", "mixture", "antisym")
_HILBERT_SIZE = 5

# seeds drawn and checked per block by the suite runners
_BLOCK = 256


def _real_law(atoms: np.ndarray, probs: np.ndarray) -> FiniteDist:
    return FiniteDist(_RL, AtomStack(_RL, atoms), probs)


def _real_arrays(law: FiniteDist) -> Tuple[np.ndarray, np.ndarray]:
    """A real-line law's atoms and probabilities; any other law is refused."""
    if not isinstance(law.space, RealLine):
        raise ValueError("the scalar checks take laws on RealLine; "
                         f"got one on {type(law.space).__name__}")
    return law.stack.array, law.probs


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """f(x, y) sampled on a product of finite probability spaces."""

    mu: np.ndarray
    nu: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        mu = np.array(self.mu, dtype=float)
        nu = np.array(self.nu, dtype=float)
        v = np.array(self.values, dtype=complex)
        if mu.ndim != 1 or nu.ndim != 1:
            raise ValueError("mu and nu must be probability vectors")
        check_probs(mu, mu.size)
        check_probs(nu, nu.size)
        if v.shape != (mu.size, nu.size):
            raise ValueError("values must be an (len(mu), len(nu)) matrix")
        v.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "values", v)


# --------------------------------------------------------------------------
# Sub-additivity of |.|^q for centered independent variables (q >= 3)
# --------------------------------------------------------------------------

def phi_power(s: float, x):
    """Signed power sign(x) |x|^s, vectorized."""
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.abs(x) ** s


def alpha_fn(x, y, q: float):
    """|x+y|^q - |x|^q - |y|^q - q phi_{q-1}(x) y - q x phi_{q-1}(y).

    Claimed nonnegative on all of R^2 for q >= 3; its expectation over an
    independent centered pair is exactly the sub-additivity gap.  Vectorized.
    """
    if q < 3:
        raise ValueError("alpha_fn is meaningful for q >= 3")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return (
        np.abs(x + y) ** q
        - np.abs(x) ** q
        - np.abs(y) ** q
        - q * phi_power(q - 1.0, x) * y
        - q * x * phi_power(q - 1.0, y)
    )


def beta_ratio(beta: float, q: float) -> float:
    """Moment ratio of the two-point counterexample family: X, Y i.i.d. with
    mass beta at 1-beta and mass 1-beta at -beta.  Values below 1 witness
    failure of sub-additivity for the given q."""
    if not (0.0 < beta <= 0.5):
        raise ValueError("beta must lie in (0, 1/2]")
    if not (q > 0):
        raise ValueError("q must be positive")
    num = (
        beta ** 2 * 2.0 ** q * (1.0 - beta) ** q
        + (1.0 - beta) ** 2 * 2.0 ** q * beta ** q
        + 2.0 * beta * (1.0 - beta) * (1.0 - 2.0 * beta) ** q
    )
    den = 2.0 * beta * (1.0 - beta) ** q + 2.0 * (1.0 - beta) * beta ** q
    return num / den


def check_subadditivity(x: FiniteDist, y: FiniteDist, q: float) -> Tuple[float, float, bool]:
    """E|X+Y|^q vs E|X|^q + E|Y|^q for independent mean-zero real X, Y.

    Returns (lhs, rhs, holds); inputs that are not centered to 1e-12 are
    rejected rather than silently recentered.
    """
    xa, xp = _real_arrays(x)
    ya, yp = _real_arrays(y)
    if abs(mean_row(x)) > 1e-12 or abs(mean_row(y)) > 1e-12:
        raise ValueError("check_subadditivity requires mean-zero inputs")
    return _one(_subadditivity_sides(xa[None], xp[None], ya[None], yp[None], q))


def _subadditivity_sides(xa, xp, ya, yp, q: float):
    """(lhs, rhs, holds) arrays of the sub-additivity check for a batch of
    laws: atoms and probabilities ``xa``, ``xp`` of shape (B, m) and ``ya``,
    ``yp`` of shape (B, k)."""
    s = xa[:, :, None] + ya[:, None, :]
    joint = xp[:, :, None] * yp[:, None, :]
    lhs = (joint * np.abs(s) ** q).reshape(len(s), -1).sum(axis=1)
    rhs = (xp * np.abs(xa) ** q).sum(axis=1) + (yp * np.abs(ya) ** q).sum(axis=1)
    return lhs, rhs, _holds(lhs, rhs, _SUBADDITIVITY_TOL)


def _holds(lhs: np.ndarray, rhs: np.ndarray, tol: float) -> np.ndarray:
    """lhs >= rhs up to ``tol`` relative to max(1, |lhs|, |rhs|)."""
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    return lhs >= rhs - tol * scale


def _one(sides) -> Tuple[float, float, bool]:
    """The (lhs, rhs, holds) of a batch of one as Python scalars."""
    lhs, rhs, holds = sides
    return float(lhs[0]), float(rhs[0]), bool(holds[0])


def _quad(u: np.ndarray, m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u @ m @ v for each member of a batch: (B, m), (B, m, k), (B, k)."""
    return (u[:, None, :] @ m @ v[:, :, None])[:, 0, 0]


# --------------------------------------------------------------------------
# Log-moment identities
# --------------------------------------------------------------------------

def laplace_log_identity(w: FiniteDist) -> Tuple[float, float]:
    """E log W versus the Laplace-transform integral
    int_0^inf (e^-s - E e^-sW) / s ds for strictly positive real W.

    lhs is the exact atom sum.  rhs truncates at S chosen so the analytic
    tail bound e^-S/S + e^-(w_min S)/(w_min S) drops below 1e-9, integrates
    [1e-12, S] on geometrically shrinking Gauss-Legendre panels, and extends
    the integrand by its limit E[W] - 1 on [0, 1e-12].
    """
    atoms, probs = _real_arrays(w)
    if np.any(atoms <= 0):
        raise ValueError("laplace_log_identity requires strictly positive atoms")
    lhs = float(probs @ np.log(atoms))
    wmin = float(atoms.min())

    s_hi = max(1.0, 50.0 / min(1.0, wmin))
    while math.exp(-s_hi) / s_hi + math.exp(-wmin * s_hi) / (wmin * s_hi) > 1e-9:
        s_hi *= 2.0

    def integrand(s: np.ndarray) -> np.ndarray:
        lap = np.exp(-np.outer(s, atoms)) @ probs
        return (np.exp(-s) - lap) / s

    cutoff = 1e-12
    his = [s_hi]
    while his[-1] * 0.5 > cutoff:
        his.append(his[-1] * 0.5)
    los = his[1:] + [cutoff]
    total = (float(mean_row(w)) - 1.0) * cutoff
    for val in gl_panels(integrand, los, his, nodes=32):
        total += val
    return lhs, total


def gaussian_smoothing_check(x: FiniteDist, y: FiniteDist,
                             s: float) -> Tuple[float, float, bool]:
    """E e^{-s (Z - Z')^2} >= E e^{-s (X - Y)^2} with Z the mixture of the
    laws of X and Y on the real line; both sides are exact finite sums."""
    xa, xp = _real_arrays(x)
    ya, yp = _real_arrays(y)
    return _one(_smoothing_sides(xa[None], xp[None], ya[None], yp[None], s))


def _smoothing_sides(xa, xp, ya, yp, s: float):
    """(lhs, rhs, holds) arrays of the smoothing check for a batch of laws
    shaped as in :func:`_subadditivity_sides`.

    Z's atoms are X's followed by Y's, each with half its mass: the law of
    ``distributions.mixture(x, y)``, whose merge of coinciding atoms the
    double sums do not need.
    """
    if s < 0:
        raise ValueError("s must be nonnegative")
    za = np.concatenate([xa, ya], axis=1)
    zp = 0.5 * np.concatenate([xp, yp], axis=1)
    dz = za[:, :, None] - za[:, None, :]
    lhs = _quad(zp, np.exp(-s * dz ** 2), zp)
    dxy = xa[:, :, None] - ya[:, None, :]
    rhs = _quad(xp, np.exp(-s * dxy ** 2), yp)
    return lhs, rhs, _holds(lhs, rhs, _EXACT_TOL)


def log_abs_cos_moment(t: float) -> float:
    """(1/2pi) int_0^{2pi} log|cos(theta) - t| dtheta.

    For |t| <= 1 the integrand has log singularities where cos(theta) = t;
    the range is split there and each segment is integrated with dyadic
    Gauss-Legendre refinement toward its endpoints.  Equals -log 2 for every
    |t| <= 1 and exceeds it for |t| > 1.
    """
    breaks = [0.0, 2.0 * math.pi]
    if abs(t) <= 1.0:
        theta0 = math.acos(max(-1.0, min(1.0, t)))
        breaks.extend([theta0, 2.0 * math.pi - theta0])
    pts = sorted(set(breaks))

    def f(theta: np.ndarray) -> np.ndarray:
        return np.log(np.abs(np.cos(theta) - t))

    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        if b - a > 1e-14:
            total += integrate_segment(f, a, b)
    return total / (2.0 * math.pi)


def cosine_log_moment(alpha: float) -> float:
    """E log|cos(Theta) - cos(alpha)| for Theta uniform on [0, 2pi]."""
    return log_abs_cos_moment(math.cos(alpha))


# --------------------------------------------------------------------------
# Quadratic (Hilbert-case) Parseval inequalities
# --------------------------------------------------------------------------

def verify_scalar_hilbert(f: KernelMatrix, variant: str, alpha: complex = 0.5,
                          beta: complex = 0.5) -> Tuple[float, float, bool]:
    """lhs >= rhs instances of the quadratic kernel inequalities.

    variant "roundness": 2 ||f||^2 against the two marginal-difference terms.
    variant "mixture":   max{|1-alpha|^2 + |1-beta|^2, 1} ||f||^2 against the
                         alpha/beta-centered marginal terms.
    variant "antisym":   2 ||g||^2 against the antisymmetrized marginal term
                         (requires mu == nu).
    All integrals are exact weighted sums.
    """
    return _one(_hilbert_sides(f.mu[None], f.nu[None], f.values[None], variant,
                               alpha, beta))


def _hilbert_sides(mu, nu, v, variant: str, alpha=0.5, beta=0.5):
    """(lhs, rhs, holds) arrays of :func:`verify_scalar_hilbert` for a batch
    of kernels: masses ``mu`` (B, m) and ``nu`` (B, k), values ``v``
    (B, m, k), and ``alpha``, ``beta`` scalars or (B,) arrays."""
    norm2 = _quad(mu, np.abs(v) ** 2, nu)
    row = (v @ nu[:, :, None])[:, :, 0]      # int f(x, .) dnu
    col = (mu[:, None, :] @ v)[:, 0, :]      # int f(., y) dmu

    if variant == "roundness":
        # sum_{x,x'} mu(x) mu(x') |row(x) - row(x')|^2 = 2(E|row|^2 - |E row|^2)
        term1 = 2.0 * (_dot(mu, np.abs(row) ** 2) - np.abs(_dot(mu, row)) ** 2)
        term2 = 2.0 * (_dot(nu, np.abs(col) ** 2) - np.abs(_dot(nu, col)) ** 2)
        lhs = 2.0 * norm2
        rhs = term1 + term2
    elif variant == "mixture":
        alpha = np.reshape(alpha, (-1, 1))
        beta = np.reshape(beta, (-1, 1))
        total = _dot(col, nu)[:, None]
        lhs = np.maximum(np.abs(1.0 - alpha[:, 0]) ** 2 + np.abs(1.0 - beta[:, 0]) ** 2,
                         1.0) * norm2
        rhs = _dot(mu, np.abs(row - alpha * total) ** 2) \
            + _dot(nu, np.abs(col - beta * total) ** 2)
    elif variant == "antisym":
        if mu.shape != nu.shape or not np.array_equal(mu, nu):
            raise ValueError("antisym variant requires mu == nu")
        anti = col - (v @ mu[:, :, None])[:, :, 0]   # int (g(x, .) - g(., x)) dmu(x)
        lhs = 2.0 * norm2
        rhs = _dot(mu, np.abs(anti) ** 2)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return lhs, rhs, _holds(lhs, rhs, _EXACT_TOL)


def _dot(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """u @ w for each member of a batch: (B, n), (B, n)."""
    return (u[:, None, :] @ w[:, :, None])[:, 0, 0]


# --------------------------------------------------------------------------
# Seeded suite runners (CLI `check` subcommand and the acceptance tests)
#
# Each runner returns a list of violation rows (dicts); an empty list means
# the property held everywhere it was probed.
# --------------------------------------------------------------------------

def _flat_dirichlet_rows(e: np.ndarray) -> np.ndarray:
    """``rng.dirichlet(np.ones(m))`` of each row's (B, m) exponentials ``e``,
    for m <= 7, where numpy sums in order as ``dirichlet`` does."""
    return e * (1.0 / np.add.reduce(e, axis=1))[:, None]


class _Laws:
    """The real laws drawn for one block of seeds, checked at once with the
    checks :class:`FiniteDist` makes on each: finite atoms, probabilities
    nonnegative and summing to 1 within 1e-12, zero-probability atoms
    dropped; with ``centered``, also each mean zero within 1e-12.  ``atoms``
    and ``probs`` hold all laws end to end, ``sizes`` their atom counts."""

    def __init__(self, atoms: np.ndarray, probs: np.ndarray, sizes: np.ndarray,
                 centered: bool = False) -> None:
        atoms = AtomStack(_RL, atoms).array
        # before the drop, which would also drop NaN and negative masses
        if not (probs >= 0).all():
            raise ValueError("probabilities must be nonnegative numbers")
        if not probs.all():
            kept = probs > 0
            owner = np.repeat(np.arange(len(sizes)), sizes)
            atoms, probs = atoms[kept], probs[kept]
            sizes = np.bincount(owner[kept], minlength=len(sizes))
        self.atoms, self.probs, self.sizes = atoms, probs, sizes
        self.starts = np.cumsum(sizes) - sizes
        # a sum of at most _MAX_ATOMS masses is the same without the zeros
        for m in np.unique(sizes):
            a, p = self.rows(np.flatnonzero(sizes == m), m)
            check_prob_rows(p)
            if centered and (np.abs(_dot(p, a)) > 1e-12).any():
                raise ValueError("check_subadditivity requires mean-zero inputs")

    def rows(self, idx: np.ndarray, m: int) -> Tuple[np.ndarray, np.ndarray]:
        """The (len(idx), m) atoms and probabilities of the laws ``idx``,
        which have m atoms each."""
        at = self.starts[idx, None] + np.arange(m)
        return self.atoms[at], self.probs[at]

    def law(self, i: int, exp: bool = False) -> FiniteDist:
        """Law i; with ``exp``, the law of e^X for X law i."""
        at = slice(self.starts[i], self.starts[i] + self.sizes[i])
        return _real_law(np.exp(self.atoms[at]) if exp else self.atoms[at], self.probs[at])


def _draw_laws(rng: np.random.Generator, n: int, sides: int, fewest: int,
               centered: bool = False) -> List[_Laws]:
    """The laws of n seeds, ``sides`` laws per seed (X before Y), each the
    draws of ``m = rng.integers(fewest, _MAX_ATOMS + 1)``, ``rng.normal(size=m)``
    and ``rng.dirichlet(np.ones(m))``; with ``centered``, shifted to mean 0."""
    # per side: atoms, exponentials and the end of each law's atoms in them
    buffers = [(np.empty(n * _MAX_ATOMS), np.empty(n * _MAX_ATOMS), [0])
               for _ in range(sides)]
    for _ in range(n):
        for atoms, exps, ends in buffers:
            lo = ends[-1]
            hi = lo + int(rng.integers(fewest, _MAX_ATOMS + 1))
            rng.standard_normal(out=atoms[lo:hi])
            rng.standard_exponential(out=exps[lo:hi])
            ends.append(hi)
    laws = []
    for atoms, exps, ends in buffers:
        starts, sizes = np.array(ends[:-1]), np.diff(ends)
        a, p = atoms[:ends[-1]], exps[:ends[-1]]
        a += 0.0    # normal(size=m) is 0.0 + 1.0 * z: the sign of an exact zero is lost
        for m in np.unique(sizes):
            at = starts[sizes == m, None] + np.arange(m)
            p[at] = _flat_dirichlet_rows(p[at])
            if centered:
                a[at] -= _dot(p[at], a[at])[:, None]
        laws.append(_Laws(a, p, sizes, centered))
    return laws


def _draw_kernels(rng: np.random.Generator, n: int, m: int, k: int,
                  symmetric_measures: bool, mixture: bool = False):
    """mu (n, m), nu (n, k), values (n, m, k) and alpha, beta (2, n) of n
    kernels: the draws of ``rng.dirichlet`` for mu, for nu unless it is mu,
    ``rng.normal(size=(2, m, k))`` and, if ``mixture``, ``normal(size=4)``."""
    if symmetric_measures:
        k = m
    mu = np.empty((n, m))
    nu = mu if symmetric_measures else np.empty((n, k))
    re_im = np.empty((n, 2, m, k))
    ab = np.empty((n, 4 if mixture else 0))
    for i in range(n):
        rng.standard_exponential(out=mu[i])
        if not symmetric_measures:
            rng.standard_exponential(out=nu[i])
        rng.standard_normal(out=re_im[i])
        if mixture:
            rng.standard_normal(out=ab[i])
    re_im += 0.0        # as in _draw_laws
    ab += 0.0
    mu = _flat_dirichlet_rows(mu)
    nu = mu if symmetric_measures else _flat_dirichlet_rows(nu)
    # re + 1j * im to the bit, as no part is -0.0, with no complex temporary
    v = np.empty((n, m, k), dtype=complex)
    v.real, v.imag = re_im[:, 0], re_im[:, 1]
    return mu, nu, v, ab.view(complex).T


def random_centered_pair(rng: np.random.Generator) -> Tuple[FiniteDist, FiniteDist]:
    """Two independent mean-zero real laws with 2..4 atoms."""
    x, y = _draw_laws(rng, 1, 2, 2, centered=True)
    return x.law(0), y.law(0)


def random_positive_dist(rng: np.random.Generator) -> FiniteDist:
    return _draw_laws(rng, 1, 1, 1)[0].law(0, exp=True)


def random_kernel(rng: np.random.Generator, m: int = 5, k: int = 5,
                  symmetric_measures: bool = False) -> KernelMatrix:
    mu, nu, v, _ = _draw_kernels(rng, 1, m, k, symmetric_measures)
    return KernelMatrix(mu[0], nu[0], v[0])


def _pair_groups(x: _Laws, y: _Laws):
    """(seed indices, X atoms, X probabilities, Y atoms, Y probabilities) for
    each group of the block's seeds with equal atom counts (m, k)."""
    keys = x.sizes * (_MAX_ATOMS + 1) + y.sizes
    for key in np.unique(keys):
        idx = np.flatnonzero(keys == key)
        m, k = divmod(int(key), _MAX_ATOMS + 1)
        yield (idx, *x.rows(idx, m), *y.rows(idx, k))


def run_alpha_grid(qs=(3.0, 3.5, 4.0, 6.0), grid: int = 400,
                   tol: float = 1e-10) -> list:
    """Nonnegativity of alpha_fn on a grid; the allowance scales with the
    magnitude (1 + |x| + |y|)^q since the terms themselves do.

    The grid of points (x, y) = (xs[j], xs[i]) runs in blocks of rows of at
    most ``_BLOCK_ENTRIES`` entries, each evaluated on its broadcast axes.
    A q's row is the first, in row-major order, of the least ``alpha -
    floor`` over the points below the floor."""
    xs = np.linspace(-_ALPHA_SPAN, _ALPHA_SPAN, grid)
    x = xs[None, :]
    width = max(1, grid)
    step = max(1, _BLOCK_ENTRIES // width)
    violations = []
    for q in qs:
        worst = None
        for lo in range(0, width, step):        # an empty grid still checks q
            y = xs[lo:lo + step, None]
            vals = alpha_fn(x, y, q)
            floor = -tol * (1.0 + np.abs(x) + np.abs(y)) ** q
            bad = vals < floor
            if bad.any():
                short = (vals - floor)[bad]
                i = int(np.argmin(short))
                if worst is None or short[i] < worst[0]:
                    r, c = divmod(int(np.flatnonzero(bad)[i]), grid)
                    worst = short[i], {"check": "alpha", "q": q, "x": float(xs[c]),
                                       "y": float(xs[lo + r]), "value": float(vals[r, c])}
        if worst is not None:
            violations.append(worst[1])
    return violations


def run_beta_scan(qs_fail=(1.5, 2.5), qs_hold=(3.0, 4.0),
                  grid: int = 200) -> list:
    """For each q in qs_fail some beta in the grid must give ratio < 1 (the
    counterexample family); for each q in qs_hold the ratio must be >= 1 on
    the whole grid."""
    betas = np.linspace(1e-3, 0.5, grid)
    violations = []
    for q in qs_fail:
        ratios = [beta_ratio(float(b), q) for b in betas]
        if min(ratios) >= 1.0:
            violations.append({"check": "beta_counterexample", "q": q,
                               "min_ratio": min(ratios)})
    for q in qs_hold:
        for b in betas:
            r = beta_ratio(float(b), q)
            if r < 1.0 - 1e-12:
                violations.append({"check": "beta_holds", "q": q,
                                   "beta": float(b), "ratio": r})
    return violations


def run_subadditivity_suite(qs=(3.0, 4.0, 5.5), seeds: int = 1000) -> list:
    violations = []
    for q in qs:
        rng = np.random.default_rng([_SUBADDITIVITY_SEED, int(q * 10)])
        for lo in range(0, seeds, _BLOCK):
            n = min(_BLOCK, seeds - lo)
            x, y = _draw_laws(rng, n, 2, 2, centered=True)
            lhs, rhs, holds = np.empty(n), np.empty(n), np.empty(n, dtype=bool)
            for idx, xa, xp, ya, yp in _pair_groups(x, y):
                lhs[idx], rhs[idx], holds[idx] = _subadditivity_sides(xa, xp, ya, yp, q)
            for i in np.flatnonzero(~holds):
                violations.append({"check": "subadditivity", "q": q,
                                   "seed_index": lo + int(i),
                                   "lhs": float(lhs[i]), "rhs": float(rhs[i])})
    return violations


def run_smoothing_suite(svals=(0.1, 1.0, 10.0), seeds: int = 1000) -> list:
    violations = []
    rng = np.random.default_rng(_SMOOTHING_SEED)
    for lo in range(0, seeds, _BLOCK):
        n = min(_BLOCK, seeds - lo)
        x, y = _draw_laws(rng, n, 2, 1)
        shape = (n, len(svals))
        lhs, rhs, holds = np.empty(shape), np.empty(shape), np.empty(shape, dtype=bool)
        for idx, xa, xp, ya, yp in _pair_groups(x, y):
            for j, s in enumerate(svals):
                lhs[idx, j], rhs[idx, j], holds[idx, j] = _smoothing_sides(xa, xp, ya, yp, s)
        for i, j in np.argwhere(~holds):
            violations.append({"check": "smoothing", "s": svals[j],
                               "seed_index": lo + int(i),
                               "lhs": float(lhs[i, j]), "rhs": float(rhs[i, j])})
    return violations


def run_hilbert_suite(seeds: int = 1000) -> list:
    violations = []
    for variant in _HILBERT_VARIANTS:
        stream = sum(ord(ch) for ch in variant)  # stable across runs
        rng = np.random.default_rng([_HILBERT_SEED, stream])
        symmetric = variant == "antisym"
        for lo in range(0, seeds, _BLOCK):
            n = min(_BLOCK, seeds - lo)
            mu, nu, v, ab = _draw_kernels(rng, n, _HILBERT_SIZE, _HILBERT_SIZE, symmetric,
                                          mixture=variant == "mixture")
            check_prob_rows(mu)
            check_prob_rows(nu)
            lhs, rhs, holds = _hilbert_sides(mu, nu, v, variant, *ab)
            del mu, nu, v, ab           # freed before the next block is drawn
            for i in np.flatnonzero(~holds):
                violations.append({"check": f"hilbert_{variant}",
                                   "seed_index": lo + int(i),
                                   "lhs": float(lhs[i]), "rhs": float(rhs[i])})
    return violations


def run_cosine_suite(n_alphas: int = 50, tol: float = 1e-6) -> list:
    violations = []
    target = -math.log(2.0)
    for i in range(n_alphas):
        alpha = 2.0 * math.pi * i / n_alphas
        val = cosine_log_moment(alpha)
        if abs(val - target) > tol:
            violations.append({"check": "cosine", "alpha": alpha,
                               "value": val, "target": target})
    return violations


def run_laplace_suite(n_dists: int = 20, tol: float = 1e-6) -> list:
    violations = []
    rng = np.random.default_rng(_LAPLACE_SEED)
    for lo in range(0, n_dists, _BLOCK):
        (laws,) = _draw_laws(rng, min(_BLOCK, n_dists - lo), 1, 1)
        for i in range(len(laws.sizes)):
            lhs, rhs = laplace_log_identity(laws.law(i, exp=True))
            if abs(lhs - rhs) > tol:
                violations.append({"check": "laplace", "seed_index": lo + i,
                                   "lhs": lhs, "rhs": rhs})
    return violations
