"""Convex barycenter minimization by multi-start projected subgradient descent.

The objective  f(z) = E d(X, z)^p + E d(Y, z)^p  is convex for p >= 1 on the
linear space kinds, so the subgradient method with a diminishing step
schedule converges to the global minimum.  Starts are all support atoms, the
mixture mean, and the origin; every start is evaluated before any iteration,
so the reported value never exceeds the objective at any start.

Every linear kind takes analytic subgradients on the flattened complex
entries of its points: l_q and the real line coordinatewise, Schatten-q and
ParallelogramS1 from one batched SVD of the differences to the atoms.

The step schedule is s_k = s0 / sqrt(k) with s0 the diameter of the support,
applied to the normalized subgradient direction.  The schedule is run in
three warm-restarted sub-schedules with geometrically shrinking s0 (1, 1/30,
1/900 of the diameter) inside the per-start iteration budget; late-stage
oscillation of the plain schedule otherwise stalls around 1e-4 relative,
short of the 1e-6 solver target.  Runs are deterministic and the multi-start
reduction is an index-tie-broken min, independent of execution order.

Two cases separate across coordinates into problems with a known minimizer
and skip the loop (``iterations`` 0, no diameter computed):

* p = q = 2 (``WeightedLq(2)`` with any weights, ``RealLine`` at p = 2): the
  mixture-mean start is the minimizer; with ``zero_sum`` only when all
  weights are equal, where the projected mean is the constrained minimizer;
* p = 1 with real atoms and no ``zero_sum`` (``RealLine``, or
  ``WeightedLq(1)``): the coordinatewise lower weighted median, added as one
  more start labelled ``"median"``.

Every start is still evaluated and the same tie-broken min is taken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .distributions import Config, cross_moment, mean_row, mixture, self_moment
from .spaces import (
    INF,
    AtomStack,
    Point,
    RealLine,
    Space,
    WeightedLq,
    is_linear,
    pairwise_powered,
    stack_points,
    stack_to_json,
)

__all__ = ["BarycenterCert", "barycenter_objective", "minimize_barycenter",
           "mixture_draw_bound"]

_STAGES = ((0.4, 1.0), (0.3, 1.0 / 30.0), (0.3, 1.0 / 900.0))
_STALL_WINDOW = 400


@dataclass(frozen=True)
class BarycenterCert:
    """Certificate for one barycenter minimization."""

    z_star: Point
    value: float
    iterations: int
    starts: int
    best_start: str

    def to_json(self, space: Optional[Space] = None) -> dict:
        out = {
            "value": self.value,
            "iterations": self.iterations,
            "starts": self.starts,
            "best_start": self.best_start,
        }
        if space is not None:
            out["z_star"] = stack_to_json(stack_points(space, [self.z_star]))[0]
        return out


def barycenter_objective(config: Config, z) -> float:
    """E d(X, z)^p + E d(Y, z)^p as an exact finite sum; ``z`` is a point or
    a one-row AtomStack."""
    zs = stack_points(config.space, z if isinstance(z, AtomStack) else [z])
    cx = pairwise_powered(config.space, config.X.stack, zs, config.p)[:, 0]
    cy = pairwise_powered(config.space, config.Y.stack, zs, config.p)[:, 0]
    return float(config.X.probs @ cx + config.Y.probs @ cy)


def mixture_draw_bound(config: Config) -> float:
    """Value of the barycenter objective in expectation over z drawn from the
    mixture of the two laws:  (E d(X,X')^p + E d(Y,Y')^p) / 2 + E d(X,Y)^p.

    This is the admissible-z bound used in the non-convex range p < 1, where
    subgradient optimization has no convergence guarantee.
    """
    return 0.5 * (self_moment(config.X, config.p) + self_moment(config.Y, config.p)) \
        + cross_moment(config.X, config.Y, config.p)


# --------------------------------------------------------------------------
# Problem adapters: batched objective / subgradient over starts
# --------------------------------------------------------------------------

class _Problem:
    """Set-up shared by the problem kinds.  Iterates (S, k) are the flattened
    complex entries of stack rows; ``zero_sum`` projects them onto the
    hyperplane of zero entry sum.  Atoms whose largest part leaves
    [2^-200, 2^200] are solved times ``scale``, the power of two that brings
    it into [1/2, 1), so that no power of a difference over- or underflows.
    """

    def __init__(self, config: Config):
        both = config.X.stack.concat(config.Y.stack).array
        self._real_line = isinstance(config.space, RealLine)
        self.shape = both.shape[1:]
        top = max(float(np.abs(both.real).max()), float(np.abs(both.imag).max()))
        self.scale = 1.0
        if top > 0.0 and not 2.0 ** -200 <= top <= 2.0 ** 200:
            # the exponent is clamped so that the factor is a normal float
            self.scale = 2.0 ** -min(max(math.frexp(top)[1], -1000), 1000)
        self.atoms = self.flat(both)                           # (A, k)
        self.coeffs = np.concatenate([config.X.probs, config.Y.probs])
        self.p = config.p
        self.q = getattr(config.space, "q", None)    # None where the space has no q
        self.zero_sum = config.zero_sum

    def flat(self, rows: np.ndarray) -> np.ndarray:
        """Iterates from stack rows."""
        z = rows.reshape(len(rows), -1).astype(complex, copy=False)
        return z if self.scale == 1.0 else z * self.scale

    def rows(self, z: np.ndarray) -> np.ndarray:
        """Stack rows from iterates."""
        rows = z.reshape((len(z),) + self.shape)
        if self.scale != 1.0:
            rows = rows / self.scale
        return rows.real if self._real_line else rows

    def project(self, z: np.ndarray) -> np.ndarray:
        if self.zero_sum:
            return z - z.mean(axis=-1, keepdims=True)
        return z


class _LqProblem(_Problem):
    """Weighted l_q objective with analytic subgradients, batched over starts.

    Subgradient selections at nonsmooth points: tied coordinates contribute a
    zero component (q = 1 and coinciding coordinates, q < 2 at zeros); for
    q = inf the first maximizing coordinate wins, ties broken by index.
    """

    def __init__(self, config: Config):
        super().__init__(config)
        if self._real_line:
            self.weights = np.ones(1)
            self.q = 2.0
        else:
            self.weights = config.X.stack.weights
        self.unit = bool(np.all(self.weights == 1.0))

    def closed_form(self) -> Optional[str]:
        """``"mean"`` or ``"median"``, the start that minimizes the
        objective in the two closed-form cases of the module docstring, or
        None."""
        if self.p == 2.0 and self.q == 2.0:
            if not self.zero_sum or np.all(self.weights == self.weights[0]):
                return "mean"
        if (self.p == 1.0 and not self.zero_sum
                and (self._real_line or self.q == 1.0)
                and not np.any(self.atoms.imag)):
            return "median"
        return None

    def value_and_subgrad(self, z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Objective and subgradient at each start; called with divide and
        invalid floating-point warnings off (see ``minimize_barycenter``)."""
        q, p, w = self.q, self.p, self.weights
        u = z[:, None, :] - self.atoms[None, :, :]         # (S, A, d)
        absu = np.abs(u)
        if q == INF:
            mask = w > 0
            masked = np.where(mask, absu, -1.0)
            d = masked.max(axis=-1)                        # (S, A)
            f = (d ** p) @ self.coeffs
            k = masked.argmax(axis=-1)                     # first max index
            u_at = np.take_along_axis(u, k[:, :, None], axis=-1)[:, :, 0]
            au = np.abs(u_at)
            phase = np.where(au > 0, u_at / np.where(au > 0, au, 1.0), 0.0)
            coef = np.where(d > 0, p * d ** (p - 1.0), 0.0) * self.coeffs
            g = np.zeros_like(z)
            s_idx = np.repeat(np.arange(z.shape[0]), k.shape[1])
            np.add.at(g, (s_idx, k.ravel()), (coef * phase).ravel())
            return f, g
        sq = (absu ** q if self.unit else absu ** q * w).sum(axis=-1)    # (S, A)
        f = (sq ** (p / q)) @ self.coeffs
        d = sq ** (1.0 / q)
        coef = np.where(d > 0, p * d ** (p - q), 0.0) * self.coeffs
        if q == 1.0:
            core = np.where(absu > 0, u / np.where(absu > 0, absu, 1.0), 0.0)
        elif q == 2.0:
            core = u
        else:
            core = np.where(absu > 0, absu ** (q - 2.0), 0.0) * u
        if not self.unit:
            core = core * w
        g = (coef[:, :, None] * core).sum(axis=1)
        return f, g


class _SvdProblem(_Problem):
    """Schatten-q and ParallelogramS1 objectives with analytic subgradients
    from one batched SVD of the differences A to the atoms.

    The subgradient of d^p is p d^(p-1) U D V*.  Schatten-q: d is the l_q
    norm of the singular values s_j and D = diag(s_j / d)^(q-1), with zero
    singular values left out and the ratios s_j / s_1 formed first so that no
    power over- or underflows.  ParallelogramS1: A is the real 2 x k matrix
    [Re c; Im c], d = s_1 and U D V* = u_1 v_1^T, read back as
    (u_1[0] + i u_1[1]) v_1; a repeated s_1 still gives a valid subgradient.
    """

    def value_and_subgrad(self, z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Objective and subgradient at each start; called with divide and
        invalid floating-point warnings off (see ``minimize_barycenter``)."""
        q, p = self.q, self.p
        u = z[:, None, :] - self.atoms[None, :, :]         # (S, A, k)
        if q is None:
            left, sv, right = np.linalg.svd(np.stack([u.real, u.imag], axis=-2),
                                            full_matrices=False)
            d = sv[..., 0]                                 # (S, A)
            core = (left[..., 0, 0] + 1j * left[..., 1, 0])[..., None] * right[..., 0, :]
        else:
            left, sv, right = np.linalg.svd(u.reshape(u.shape[:2] + self.shape),
                                            full_matrices=False)
            top = sv[..., :1]
            r = sv / np.where(top > 0, top, 1.0)           # s_j / s_1
            t = (r ** q).sum(axis=-1) ** (1.0 / q)         # d / s_1
            d = sv[..., 0] * t
            diag = np.where(r > 0, (r / t[..., None]) ** (q - 1.0), 0.0)
            core = ((left * diag[..., None, :]) @ right).reshape(u.shape)
        f = (d ** p) @ self.coeffs
        coef = np.where(d > 0, p * d ** (p - 1.0), 0.0) * self.coeffs
        g = (coef[:, :, None] * core).sum(axis=1)
        return f, g


def _lower_weighted_median(rows: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Per coordinate of the real ``rows``, the first value in sorted order
    whose cumulative coefficient reaches half the total."""
    order = np.argsort(rows, axis=0, kind="stable")
    ranked = np.take_along_axis(rows, order, axis=0)
    cum = np.cumsum(coeffs[order], axis=0)
    k = np.argmax(cum >= 0.5 * cum[-1], axis=0)
    return np.take_along_axis(ranked, k[None], axis=0)[0]


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def _support_diameter(config: Config) -> float:
    pts = config.X.stack.concat(config.Y.stack)
    d = pairwise_powered(config.space, pts, pts, 1.0)
    return float(d.max())


# zero distances divide by zero in the subgradients; those entries are masked
@np.errstate(divide="ignore", invalid="ignore")
def minimize_barycenter(config: Config,
                        max_iters_per_start: int = 50_000) -> BarycenterCert:
    """Minimize E d(X, z)^p + E d(Y, z)^p over z (p >= 1, linear spaces).

    Multi-start projected subgradient descent; starts are all atoms of X and
    Y, the mixture mean, and the origin.  The reported value is the exact
    objective at the best point visited, hence never above the objective at
    any start, and by convexity the iteration converges to the global
    minimum.  ``config.zero_sum`` restricts iterates to the hyperplane of
    zero entry sum (Euclidean projection).

    When the minimizer has a closed form (p = q = 2: the mixture mean; p = 1
    with real atoms on the real line or l_1 without ``zero_sum``: the
    coordinatewise weighted median, one more start) no step is taken:
    ``iterations`` is 0, ``starts`` counts the evaluated starts (the median
    included) and ``best_start`` labels the start of least objective, which
    is the minimizer up to rounding.
    """
    if config.p < 1.0:
        raise ValueError("minimize_barycenter requires p >= 1; use "
                         "mixture_draw_bound for the non-convex range")
    if not is_linear(config.space):
        raise TypeError("minimize_barycenter needs a linear space kind")

    if isinstance(config.space, (WeightedLq, RealLine)):
        problem = _LqProblem(config)
        closed = problem.closed_form()
    else:
        problem = _SvdProblem(config)
        closed = None

    both = config.X.stack.concat(config.Y.stack).array
    starts = [both, mean_row(mixture(config.X, config.Y))[None], np.zeros_like(both[:1])]
    labels = [f"atom:{i}" for i in range(len(both))] + ["mixture_mean", "zero"]
    if closed == "median":
        starts.append(_lower_weighted_median(both.real, problem.coeffs)[None])
        labels.append("median")
    z = problem.project(problem.flat(np.concatenate(starts)))
    n_starts = z.shape[0]

    f0, _ = problem.value_and_subgrad(z)
    f_best = f0.copy()
    z_best = z.copy()

    diam = 0.0 if closed else _support_diameter(config) * problem.scale
    iterations = 0
    if diam > 0.0:
        g_best = float(f_best.min())
        z_cur = z.copy()
        for frac, fac in _STAGES:
            k_max = max(1, int(frac * max_iters_per_start))
            s0 = diam * fac
            last_progress = 0
            for k in range(1, k_max + 1):
                f, g = problem.value_and_subgrad(z_cur)
                improved = f < f_best
                if improved.any():
                    f_best = np.where(improved, f, f_best)
                    z_best[improved] = z_cur[improved]
                new_best = float(f_best.min())
                if new_best < g_best - max(1e-15, 1e-12 * abs(g_best)):
                    g_best = new_best
                    last_progress = k
                elif new_best < g_best:
                    g_best = new_best
                iterations += 1
                if k - last_progress > _STALL_WINDOW:
                    break
                gn = np.sqrt((np.abs(g) ** 2).sum(axis=-1))
                step = s0 / math.sqrt(k)
                safe = np.where(gn > 0, gn, 1.0)
                z_cur = problem.project(z_cur - step * (g / safe[:, None]))
            z_cur = z_best.copy()

    best_idx = int(np.argmin(f_best))
    z_star = config.X.stack.with_array(problem.rows(z_best[best_idx:best_idx + 1]))
    return BarycenterCert(
        z_star=z_star.points()[0],
        value=barycenter_objective(config, z_star),
        iterations=iterations,
        starts=n_starts,
        best_start=labels[best_idx],
    )
