"""Gauss-Legendre panel quadrature with dyadic refinement toward
logarithmic endpoint singularities."""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = ["gl_panel", "integrate_log_endpoint", "integrate_segment"]


# dyadic refinement levels toward a singular endpoint, and nodes per panel
_LEVELS = 48
_NODES = 16


@lru_cache(maxsize=None)
def _rule(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def gl_panel(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
             nodes: int = 16) -> float:
    """n-point Gauss-Legendre on [a, b]; f must accept a vector of points."""
    x, w = _rule(nodes)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * float(np.dot(w, f(mid + half * x)))


def integrate_log_endpoint(f, a: float, b: float) -> float:
    """Integrate f over [a, b] when f may have a log singularity at ``a``.

    Dyadic panels [a + h 2^{-k-1}, a + h 2^{-k}] shrink toward ``a``.
    Refinement stops early if a panel stops being finite (a multiple root
    can drive the integrand argument to exact float zero before the panels
    bottom out).  The remaining sliver [a, a + eps] is handled by fitting
    the local model f(a + u) ~ m log u + log A to the two nearest finite
    samples and integrating it analytically.  Regular endpoints degrade
    gracefully: the fitted m is ~ 0 and the sliver reduces to a rectangle
    rule on a width-eps strip.
    """
    h = b - a
    if h <= 0:
        return 0.0
    total = 0.0
    k = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while k < _LEVELS:
            lo = a + h * 0.5 ** (k + 1)
            hi = a + h * 0.5 ** k
            val = gl_panel(f, lo, hi, _NODES)
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
