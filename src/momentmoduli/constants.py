"""Closed-form exponents and constants, with min/max formulas cross-checked
against their piecewise expansions.

Conventions: ``c_exponent`` is the sharp Jensen-improvement exponent on L_q,
``C_exponent`` the proven roundness exponent, ``C_opt_exponent`` the
conjectured-sharp roundness exponent, and ``general_bound`` the universal
barycenter constant 3^p / 2^(p-1).  All values are plain binary floats; the
piecewise agreement checks run at 1e-12.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, List, Tuple

__all__ = [
    "c_exponent",
    "C_exponent",
    "C_opt_exponent",
    "theta_max",
    "snowflake_exponent",
    "general_bound",
    "metric_bound",
    "bm_bound",
    "interpolation_bounds",
    "constants_grid",
    "GRID_HEADER",
]

_TOL = 1e-12


def _as_pq(p, q) -> Tuple[float, float]:
    p, q = float(p), float(q)
    if not (p >= 1.0):
        raise ValueError("p must be >= 1")
    if not (1.0 <= q < math.inf):
        raise ValueError("q must be in [1, inf)")
    return p, q


def _agree(a: float, b: float) -> bool:
    return abs(a - b) <= _TOL * max(1.0, abs(a), abs(b))


def _conj(q: float) -> float:
    """Holder conjugate q / (q - 1), inf at q = 1."""
    return math.inf if q == 1.0 else q / (q - 1.0)


# --------------------------------------------------------------------------
# Exponent tables
# --------------------------------------------------------------------------

def _c_piecewise(p: float, q: float) -> List[float]:
    qc = _conj(q)
    vals = []
    if (1.0 <= p <= q <= 2.0) or (1.0 <= p <= qc <= 2.0):
        vals.append(p - 1.0)
    if q <= p <= qc:
        vals.append(p * (q - 1.0) / q)
    if qc <= p <= q:
        vals.append(p / q)
    if (p >= qc >= 2.0) or (p >= q >= 2.0):
        vals.append(1.0)
    return vals


def c_exponent(p, q) -> float:
    """min{1, p-1, p/q, p(q-1)/q}; the four-range piecewise expansion is
    evaluated alongside and must agree to 1e-12."""
    p, q = _as_pq(p, q)
    value = min(1.0, p - 1.0, p / q, p * (q - 1.0) / q)
    pieces = _c_piecewise(p, q)
    if not pieces:
        raise RuntimeError(f"piecewise ranges for c do not cover (p={p}, q={q})")
    for v in pieces:
        if not _agree(v, value):
            raise RuntimeError(f"piecewise/min disagreement for c at (p={p}, q={q})")
    return value


def _C_piecewise(p: float, q: float) -> List[float]:
    pc = _conj(p)
    qc = _conj(q)
    vals = []
    if pc <= q <= p:
        vals.append(p - 1.0)
    if qc <= p <= q:
        vals.append(p * (q - 2.0) / q + 1.0)
    if q >= 2.0 and 1.0 <= p <= qc:
        vals.append(2.0 - p / q)
    if q <= 2.0 and q <= p <= qc:
        vals.append(p / q)
    if 1.0 <= p <= q <= 2.0:
        vals.append(1.0)
    return vals


def C_exponent(p, q) -> float:
    """Proven roundness exponent: the five-range piecewise table.

    Each matched range's formula is a proven bound on its closed range, so
    overlap points take the minimum.  Away from the segment q = 2, p < 2 the
    overlaps agree outright; on that segment the 2 - p/q route is strictly
    dominated by the sharp Hilbert value 1, and the min keeps the table
    consistent with the constant 2^(2-p) for p <= q <= 2.
    """
    p, q = _as_pq(p, q)
    pieces = _C_piecewise(p, q)
    if not pieces:
        raise RuntimeError(f"piecewise ranges for C do not cover (p={p}, q={q})")
    return min(pieces)


def _C_opt_piecewise(p: float, q: float) -> List[float]:
    vals = []
    if p >= 2.0 and 1.0 <= q <= p:
        vals.append(p - 1.0)
    if q >= 2.0 and 1.0 <= p <= q:
        vals.append(p * (q - 2.0) / q + 1.0)
    if 1.0 <= p <= 2.0 and 1.0 <= q <= 2.0:
        vals.append(1.0)
    return vals


def C_opt_exponent(p, q) -> float:
    """Conjectured-sharp roundness exponent max{1, p-1, p(q-2)/q + 1}."""
    p, q = _as_pq(p, q)
    value = max(1.0, p - 1.0, p * (q - 2.0) / q + 1.0)
    pieces = _C_opt_piecewise(p, q)
    if not pieces:
        raise RuntimeError(f"piecewise ranges for C_opt do not cover (p={p}, q={q})")
    for v in pieces:
        if not _agree(v, value):
            raise RuntimeError(f"piecewise/max disagreement for C_opt at (p={p}, q={q})")
    return value


def theta_max(p, q) -> float:
    """2 min{1/p, 1 - 1/p, 1/q, 1 - 1/q}; satisfies c = p * theta_max / 2."""
    p, q = _as_pq(p, q)
    value = 2.0 * min(1.0 / p, 1.0 - 1.0 / p, 1.0 / q, 1.0 - 1.0 / q)
    c_direct = min(1.0, p - 1.0, p / q, p * (q - 1.0) / q)
    if not _agree(p * value / 2.0, c_direct):
        raise RuntimeError(f"c = p * theta_max / 2 identity failed at (p={p}, q={q})")
    return value


def snowflake_exponent(p, q) -> Tuple[float, float]:
    """Best roundness exponent reachable by re-embedding l_q into l_Q with the
    distance-power transform, minimized over Q >= q.

    In t = p Q / q the four competing linear exponents are t - 1, 3 - t,
    t + (1 - 2p/q) and (1 + 2p/q) - t; the max of the rising pair meets the
    max of the falling pair at t* = 1 + p/q, which is admissible (t* >= p)
    exactly when 1/p + 1/q >= 1.  No iterative solver is needed.

    Returns ``(exponent, Q_star)``.
    """
    p, q = _as_pq(p, q)
    if 1.0 / p + 1.0 / q >= 1.0:
        value = max(p / q, 2.0 - p / q)
        q_star = 1.0 + q / p
    else:
        value = max(p - 1.0, 3.0 - p,
                    1.0 + p * (q - 2.0) / q, 1.0 + p * (2.0 - q) / q)
        q_star = q
    return value, q_star


# --------------------------------------------------------------------------
# Constants
# --------------------------------------------------------------------------

def general_bound(p: float) -> float:
    """Universal barycenter constant 3^p / 2^(p-1) (equals 3 at p = 1)."""
    if not (p >= 1.0):
        raise ValueError("general_bound requires p >= 1")
    try:
        return 3.0 ** p / 2.0 ** (p - 1.0)
    except OverflowError:       # 3^p overflows from p = 646.1, 2 * 1.5^p from 1748.8
        return math.ldexp(1.5 ** p, 1)


def metric_bound(p: float) -> float:
    """Metric-space barycenter constant 2^p + 1."""
    if not (p >= 1.0):
        raise ValueError("metric_bound requires p >= 1")
    return 2.0 ** p + 1.0


def bm_bound(p, q) -> float:
    """Upper bound for the barycentric and mixture moduli on L_q:
    min of the rescaled universal constant and the roundness/Jensen route."""
    p, q = _as_pq(p, q)
    c = c_exponent(p, q)
    C = C_exponent(p, q)
    first = general_bound(p) * (math.sqrt(2.0) / 3.0) ** (2.0 * c)
    try:
        second = (2.0 ** C + 2.0) / 2.0 ** (c + 1.0)
    except OverflowError:       # 2^C overflows from about p = 1024; for p > 5 first is the smaller
        second = math.inf
    return min(first, second)


def interpolation_bounds(theta: float, p: float) -> Tuple[float, float, float]:
    """Roundness, Jensen, and mixture/barycenter bounds on the complex
    interpolation scale between a Banach space and a Hilbert space.

    Requires 2/(2-theta) <= p <= 2/theta.  Returns
    ``(2^(1+(1-theta)p), 2^(theta p / 2), mb)`` where ``mb`` is the min of the
    rescaled universal constant and the roundness/Jensen route; the piecewise
    selector (split at p = 1/(1-theta)) is asserted consistent with the min.
    """
    if not (0.0 <= theta <= 1.0):
        raise ValueError("theta must lie in [0, 1]")
    lo = 2.0 / (2.0 - theta)
    hi = math.inf if theta == 0.0 else 2.0 / theta
    if not (lo <= p <= hi):
        raise ValueError("require 2/(2-theta) <= p <= 2/theta")
    r = 2.0 ** (1.0 + (1.0 - theta) * p)
    j = 2.0 ** (theta * p / 2.0)
    first = general_bound(p) * (math.sqrt(2.0) / 3.0) ** (p * theta)
    second = (1.0 + 2.0 ** ((1.0 - theta) * p)) / 2.0 ** (theta * p / 2.0)
    mb = min(first, second)
    split = math.inf if theta == 1.0 else 1.0 / (1.0 - theta)
    if p >= split and not _agree(mb, first):
        raise RuntimeError("mixture-bound selector disagrees with min (upper range)")
    if p <= split and not _agree(mb, second):
        raise RuntimeError("mixture-bound selector disagrees with min (lower range)")
    return r, j, mb


# --------------------------------------------------------------------------
# Grid emission
# --------------------------------------------------------------------------

GRID_HEADER = (
    "p", "q", "c", "C", "C_opt", "theta_max",
    "snowflake", "Q_star", "bm_bound", "general_bound",
)


def constants_grid(p_values: Iterable[float],
                   q_values: Iterable[float]) -> Iterator[tuple]:
    """Rows of every constant over the (p, q) grid, in GRID_HEADER order."""
    qs = list(q_values)
    for p in p_values:
        for q in qs:
            snow, q_star = snowflake_exponent(p, q)
            yield (
                p, q,
                c_exponent(p, q),
                C_exponent(p, q),
                C_opt_exponent(p, q),
                theta_max(p, q),
                snow, q_star,
                bm_bound(p, q),
                general_bound(p),
            )
