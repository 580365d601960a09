"""Scalar and Hilbert-case inequality verification.

Covers the q >= 3 sub-additivity machinery for centered real variables, the
log-moment identities behind the multiplicative (L_0) inequalities, and the
Parseval inequalities that drive the interpolation bounds.  Real-valued laws
are :class:`FiniteDist` values on :class:`RealLine`.  Expectations over such
laws are exact sums; the two genuinely continuous objects (the Laplace-
transform identity for E log W and the circular log-moment) go through panel
quadrature with explicit singularity and tail control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .distributions import FiniteDist, check_probs, mean_row, mixture
from .quadrature import gl_panel, integrate_segment
from .spaces import AtomStack, RealLine

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
    s = xa[:, None] + ya[None, :]
    joint = np.outer(xp, yp)
    lhs = float((joint * np.abs(s) ** q).sum())
    rhs = float((xp * np.abs(xa) ** q).sum() + (yp * np.abs(ya) ** q).sum())
    scale = max(1.0, abs(lhs), abs(rhs))
    return lhs, rhs, lhs >= rhs - _SUBADDITIVITY_TOL * scale


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
    total = (float(mean_row(w)) - 1.0) * cutoff
    hi = s_hi
    while hi > cutoff:
        lo = max(hi * 0.5, cutoff)
        total += gl_panel(integrand, lo, hi, nodes=32)
        hi = lo
    return lhs, total


def gaussian_smoothing_check(x: FiniteDist, y: FiniteDist,
                             s: float) -> Tuple[float, float, bool]:
    """E e^{-s (Z - Z')^2} >= E e^{-s (X - Y)^2} with Z the mixture of the
    laws of X and Y on the real line; both sides are exact finite sums."""
    return _smoothing_sides(x, y, mixture(x, y), s)


def _smoothing_sides(x: FiniteDist, y: FiniteDist, z: FiniteDist,
                     s: float) -> Tuple[float, float, bool]:
    """The smoothing check with the mixture ``z`` of ``x`` and ``y`` given."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    xa, xp = _real_arrays(x)
    ya, yp = _real_arrays(y)
    za, zp = _real_arrays(z)
    dz = za[:, None] - za[None, :]
    lhs = float(zp @ np.exp(-s * dz ** 2) @ zp)
    dxy = xa[:, None] - ya[None, :]
    rhs = float(xp @ np.exp(-s * dxy ** 2) @ yp)
    return lhs, rhs, lhs >= rhs - _EXACT_TOL * max(1.0, abs(lhs), abs(rhs))


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
    mu, nu, v = f.mu, f.nu, f.values
    norm2 = float(mu @ (np.abs(v) ** 2) @ nu)
    row = v @ nu          # int f(x, .) dnu
    col = mu @ v          # int f(., y) dmu
    total = complex(mu @ v @ nu)

    if variant == "roundness":
        # sum_{x,x'} mu(x) mu(x') |row(x) - row(x')|^2 = 2(E|row|^2 - |E row|^2)
        term1 = 2.0 * (float(mu @ np.abs(row) ** 2) - abs(complex(mu @ row)) ** 2)
        term2 = 2.0 * (float(nu @ np.abs(col) ** 2) - abs(complex(nu @ col)) ** 2)
        lhs = 2.0 * norm2
        rhs = term1 + term2
    elif variant == "mixture":
        lhs = max(abs(1.0 - alpha) ** 2 + abs(1.0 - beta) ** 2, 1.0) * norm2
        rhs = float(mu @ np.abs(row - alpha * total) ** 2) \
            + float(nu @ np.abs(col - beta * total) ** 2)
    elif variant == "antisym":
        if mu.size != nu.size or not np.array_equal(mu, nu):
            raise ValueError("antisym variant requires mu == nu")
        anti = (mu @ v) - (v @ mu)      # int (g(x, .) - g(., x)) dmu(x)
        lhs = 2.0 * norm2
        rhs = float(mu @ np.abs(anti) ** 2)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return lhs, rhs, lhs >= rhs - _EXACT_TOL * max(1.0, abs(lhs), abs(rhs))


# --------------------------------------------------------------------------
# Seeded suite runners (CLI `check` subcommand and the acceptance tests)
#
# Each runner returns a list of violation rows (dicts); an empty list means
# the property held everywhere it was probed.
# --------------------------------------------------------------------------

def random_centered_pair(rng: np.random.Generator) -> Tuple[FiniteDist, FiniteDist]:
    """Two independent mean-zero real laws with 2..4 atoms."""

    def one() -> FiniteDist:
        m = int(rng.integers(2, _MAX_ATOMS + 1))
        atoms = rng.normal(size=m)
        probs = rng.dirichlet(np.ones(m))
        return _real_law(atoms - probs @ atoms, probs)

    return one(), one()


def random_positive_dist(rng: np.random.Generator) -> FiniteDist:
    m = int(rng.integers(1, _MAX_ATOMS + 1))
    return _real_law(np.exp(rng.normal(size=m)), rng.dirichlet(np.ones(m)))


def random_kernel(rng: np.random.Generator, m: int = 5, k: int = 5,
                  symmetric_measures: bool = False) -> KernelMatrix:
    mu = rng.dirichlet(np.ones(m))
    nu = mu if symmetric_measures else rng.dirichlet(np.ones(k))
    vals = rng.normal(size=(m, nu.size)) + 1j * rng.normal(size=(m, nu.size))
    return KernelMatrix(mu, nu, vals)


def run_alpha_grid(qs=(3.0, 3.5, 4.0, 6.0), grid: int = 400,
                   tol: float = 1e-10) -> list:
    """Nonnegativity of alpha_fn on a grid; the allowance scales with the
    magnitude (1 + |x| + |y|)^q since the terms themselves do."""
    xs = np.linspace(-_ALPHA_SPAN, _ALPHA_SPAN, grid)
    x, y = np.meshgrid(xs, xs)
    violations = []
    for q in qs:
        vals = alpha_fn(x, y, q)
        floor = -tol * (1.0 + np.abs(x) + np.abs(y)) ** q
        bad = vals < floor
        if bad.any():
            i = int(np.argmin((vals - floor)[bad]))
            violations.append({
                "check": "alpha", "q": q,
                "x": float(x[bad][i]), "y": float(y[bad][i]),
                "value": float(vals[bad][i]),
            })
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
        for i in range(seeds):
            x, y = random_centered_pair(rng)
            lhs, rhs, holds = check_subadditivity(x, y, q)
            if not holds:
                violations.append({"check": "subadditivity", "q": q,
                                   "seed_index": i, "lhs": lhs, "rhs": rhs})
    return violations


def run_smoothing_suite(svals=(0.1, 1.0, 10.0), seeds: int = 1000) -> list:
    violations = []
    rng = np.random.default_rng(_SMOOTHING_SEED)
    for i in range(seeds):
        m = int(rng.integers(1, 5))
        x = _real_law(rng.normal(size=m), rng.dirichlet(np.ones(m)))
        k = int(rng.integers(1, 5))
        y = _real_law(rng.normal(size=k), rng.dirichlet(np.ones(k)))
        z = mixture(x, y)
        for s in svals:
            lhs, rhs, holds = _smoothing_sides(x, y, z, s)
            if not holds:
                violations.append({"check": "smoothing", "s": s,
                                   "seed_index": i, "lhs": lhs, "rhs": rhs})
    return violations


def run_hilbert_suite(seeds: int = 1000) -> list:
    violations = []
    for variant in _HILBERT_VARIANTS:
        stream = sum(ord(ch) for ch in variant)  # stable across runs
        rng = np.random.default_rng([_HILBERT_SEED, stream])
        for i in range(seeds):
            f = random_kernel(rng, _HILBERT_SIZE, _HILBERT_SIZE,
                              symmetric_measures=(variant == "antisym"))
            if variant == "mixture":
                a = complex(rng.normal(), rng.normal())
                b = complex(rng.normal(), rng.normal())
                lhs, rhs, holds = verify_scalar_hilbert(f, variant, a, b)
            else:
                lhs, rhs, holds = verify_scalar_hilbert(f, variant)
            if not holds:
                violations.append({"check": f"hilbert_{variant}",
                                   "seed_index": i, "lhs": lhs, "rhs": rhs})
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
    for i in range(n_dists):
        w = random_positive_dist(rng)
        lhs, rhs = laplace_log_identity(w)
        if abs(lhs - rhs) > tol:
            violations.append({"check": "laplace", "seed_index": i,
                               "lhs": lhs, "rhs": rhs})
    return violations
