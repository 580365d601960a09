"""Gauss-Legendre panel quadrature with dyadic refinement toward
logarithmic endpoint singularities."""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, List

import numpy as np

__all__ = ["gl_panels", "integrate_log_endpoint", "integrate_segment"]


# dyadic refinement levels toward a singular endpoint, and nodes per panel
_LEVELS = 48
_NODES = 16


@lru_cache(maxsize=None)
def _rule(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def gl_panels(f: Callable[[np.ndarray], np.ndarray], lo, hi,
              nodes: int = _NODES) -> List[float]:
    """The n-point Gauss-Legendre sum on each panel [lo[k], hi[k]], from one
    call of f, which must accept a vector of points, on the nodes of all
    panels.  Each panel is its own dot product over its nodes: numpy runs a
    stacked (panels, 1, n) @ (n, 1) matmul as one dot per panel, while a
    matrix-vector product over all panels at once rounds some sums
    differently."""
    x, w = _rule(nodes)
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    vals = f((mid[:, None] + half[:, None] * x).ravel()).reshape(len(mid), nodes)
    return (half * (vals[:, None, :] @ w[:, None])[:, 0, 0]).tolist()


def integrate_log_endpoint(f, a: float, b: float) -> float:
    """Integrate f over [a, b] when f may have a log singularity at ``a``.

    Dyadic panels [a + h 2^{-k-1}, a + h 2^{-k}] shrink toward ``a``.  f is
    evaluated once, on the nodes of all panels, and each panel's
    Gauss-Legendre sum is added in order from the widest down; the sum stops
    before the first panel that is not finite (a multiple root can drive the
    integrand argument to exact float zero before the panels bottom out).
    The remaining sliver [a, a + eps] is handled by fitting the local model
    f(a + u) ~ m log u + log A to the two nearest finite samples and
    integrating it analytically.  Regular endpoints degrade gracefully: the
    fitted m is ~ 0 and the sliver reduces to a rectangle rule on a
    width-eps strip.
    """
    h = b - a
    if h <= 0:
        return 0.0
    hi = a + h * np.ldexp(1.0, -np.arange(_LEVELS))
    lo = a + h * np.ldexp(1.0, -np.arange(1, _LEVELS + 1))
    total = 0.0
    k = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        for val in gl_panels(f, lo, hi):
            if not math.isfinite(val):
                break
            total += val
            k += 1
        # fit samples sit at 1.5 eps and 3 eps, inside already-integrated
        # panels, so they stay finite even when refinement stopped early
        eps = h * 0.5 ** k
        u1, u2 = 1.5 * eps, 3.0 * eps
        f1 = float(f(np.array([a + u1]))[0])
        f2 = float(f(np.array([a + u2]))[0])
    if math.isfinite(f1) and math.isfinite(f2):
        m_hat = (f2 - f1) / math.log(u2 / u1)
        log_amp = f1 - m_hat * math.log(u1)
        total += m_hat * (eps * math.log(eps) - eps) + eps * log_amp
    return total


def integrate_segment(f, a: float, b: float) -> float:
    """Integrate over [a, b] allowing log singularities at either endpoint:
    split at the midpoint and refine dyadically toward both ends."""
    mid = 0.5 * (a + b)
    left = integrate_log_endpoint(f, a, mid)

    def flipped(u: np.ndarray) -> np.ndarray:
        return f(b - (u - mid))

    right = integrate_log_endpoint(flipped, mid, b)
    return left + right
