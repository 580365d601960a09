"""Convex barycenter minimization, stopped on a certified duality gap: a
closed form where there is one, else majorize-minimize steps on the
Euclidean kinds, then limited-memory quasi-Newton steps on every kind, and
multi-start projected subgradient descent as the fallback.

The objective  f(z) = E d(X, z)^p + E d(Y, z)^p  is convex for p >= 1 on the
linear space kinds, so the subgradient method with a diminishing step
schedule converges to the global minimum.  Starts are all support atoms, the
mixture mean, and the origin; every start is evaluated before any iteration,
so the reported value never exceeds the objective at any start.

Every linear kind takes analytic subgradients on the flattened complex
entries of its points: l_q and the real line coordinatewise, Schatten-q and
ParallelogramS1 from one batched SVD of the differences to the atoms.

Lower bound.  Write the objective as sum_i c_i h(z - a_i) with h = ||.||^p.
Any duals y_i with sum_i c_i y_i = 0 give

    inf_z sum_i c_i h(z - a_i)  >=  sum_i c_i (<y_i, z - a_i> - h*(y_i))

at every z (Fenchel duality for the generalized Fermat-Weber problem: Kuhn,
"A note on Fermat's problem", Math. Prog. 1973; Xue & Ye, SIAM J. Optim.
1997).  The y_i are the per-atom gradients of h at z - a_i, the same ones
the subgradient sums, all shifted by one vector so that sum_i c_i y_i = 0
(with ``zero_sum``, only its part in the hyperplane).  For p > 1,
h*(y) = (p - 1) (||y||_* / p)^(p/(p-1)).  At p = 1, h* is 0 on the dual unit
ball and inf off it: atoms at distance 0 take up the residual instead of the
shift, and all y_i are then scaled into the ball.  The dual norms are the
weighted l_q' norm for l_q (l_1 over the coordinates of positive weight for
l_inf), Schatten-q' for Schatten-q, and for ParallelogramS1 the trace norm
of the real 2 x k matrix [Re y; Im y].  A floating-point rounding allowance
is subtracted, which includes the rounding left in sum_i c_i y_i times a
bound on the distance from z to a minimizer, so that the bound holds for the
exact infimum.

Stages.  Each iterative method is a generator of (objective, iterate)
pairs, one per step, and one loop runs every stage: it keeps the least value
of each row the stage iterates and its point, takes the bound on the
stage's cadence and ends the stage on the gap, on a stall (no 1e-12 relative
progress of the rows' least value in a stage's window of steps) or at its
step limit.  The bound is taken at every start first, and it moves no
iterate.  The solve stops (``stop`` "gap") as soon as the least value of all
rows is within a relative ``_GAP_TARGET`` of the best bound.

Majorize-minimize.  On weighted l_2 or the real line (with ``zero_sum``
only when all weights are equal, the rule of the mixture-mean closed form)
at 1 <= p < 2, d^p = (d^2)^(p/2) is concave in d^2, so
sum_i c_i d_i^(p-2) ||z - a_i||^2 majorizes f up to a constant and a factor
around the current point.  Its minimizer, the generalized Weiszfeld step

    z+ = sum_i c_i d_i^(p-2) a_i / sum_i c_i d_i^(p-2)

(projected under ``zero_sum``), lowers f at every step and converges
linearly off the atoms (Weiszfeld, Tohoku Math. J. 1937).  It is iterated
from the start of least objective off every atom, as one more row labelled
like that start.  The bound is taken every ``_BOUND_EVERY`` steps at the
iterate itself, not at the point of least float value: f - f* is second
order in the distance to the minimizer and the bound only first order, so f
reaches its float floor while the bound at the best point stays loose.  The
step is not defined on an atom: the stage ends after an iterate on one,
after more than ``_STALL_WINDOW`` steps without progress or after
``max_iters_per_start`` steps.  That happens near p = 1, where a minimizer
close to an atom takes the rate of the step towards 1.

Quasi-Newton.  Where the gap is still open, limited-memory BFGS (Liu &
Nocedal, Math. Prog. 1989) runs from the row of least value, as one more
row labelled like that row.  Its iterate is the real vector of the real and
imaginary parts of the flattened entries; the direction comes from the
two-loop recursion over the last ``_QN_MEMORY`` pairs of positive curvature,
the first one from the Polyak step to the best bound, and the step length
from Armijo backtracking by halving.  Every trial point and subgradient is
projected under ``zero_sum``, so that rounding cannot carry the iterate off
the hyperplane, where its value could fall below the constrained bound.  The
steps never raise the value, so the bound is taken at the iterate every
``_QN_BOUND_EVERY`` steps, and once more at the row's best point where the
stage ends off that cadence.  The stage ends on the gap, when a trial step
falls below the unit roundoff of the iterate's norm, after ``_QN_STALL``
steps without progress, or after ``max_iters_per_start`` steps.  The method
is made for smooth objectives and still makes progress at kinks (Lewis &
Overton, Math. Prog. 2013), but where the minimizer sits on a kink of the
norm its bound stays open.

Subgradient fallback.  It iterates only the rows that existed before the
quasi-Newton stage (every start and the majorize-minimize row), measures its
progress on them alone and takes the bound every ``_BOUND_EVERY`` steps at
their best point, the steps counted from the first majorize-minimize step
and leaving out the quasi-Newton ones; so a fallback that never reaches the
gap takes exactly the steps it would take without that stage and the bound,
and the value of record is the least over all rows, never above its own.
It runs the step schedule s_k = s0 / sqrt(k), with s0 the diameter of the
support, applied to the normalized subgradient direction, in three
warm-restarted stages from the rows' best points with geometrically
shrinking s0 (1, 1/30, 1/900 of the diameter) inside the per-start
iteration budget; late-stage oscillation of the plain schedule otherwise
stalls around 1e-4 relative.  A stage ends after more than
``_STALL_WINDOW`` steps without progress or at its share of the budget, and
``stop`` is "stall" or "cap" after the last stage.  Runs are deterministic
and the multi-start reduction is an index-tie-broken min, independent of
execution order.

Two cases separate across coordinates into problems with a known minimizer
and take no step (``iterations`` 0, ``stop`` "closed_form", no diameter
computed):

* p = q = 2 (``WeightedLq(2)`` with any weights, ``RealLine`` at p = 2): the
  mixture-mean start is the minimizer; with ``zero_sum`` only when all
  weights are equal, where the projected mean is the constrained minimizer;
* p = 1 with real atoms and no ``zero_sum`` (``RealLine``, or
  ``WeightedLq(1)``): the coordinatewise lower weighted median, added as one
  more start labelled ``"median"``.

Every start is still evaluated and the same tie-broken min is taken.

Units.  Atoms whose largest part leaves [2^-200, 2^200] are solved times
``scale``, a power of two.  Every lower end, iterative or closed-form, is
found in the solver's units and taken back on one path, rounded down: times
scale^(floor(p) - p), a normal float, and the exact power scale^-floor(p).

Every certificate carries ``value``, the exact objective at ``z_star`` and
the value of record; ``lower``, a certified lower bound on the infimum, at
most ``value`` (for a closed form, the value less its rounding allowance);
``gap`` = value - lower; and ``stop``.  A ``value`` that leaves the float
range in the original units raises an ``OverflowError``, as a ratio's
moments do: no certificate is reported for it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .distributions import Config, _moment, cross_moment, self_moment, stack_mean
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
# iterations between two lower bounds, and the relative gap that ends a solve
_BOUND_EVERY = 50
_GAP_TARGET = 1e-12
# the quasi-Newton stage: pairs kept, steps between two lower bounds, steps
# without progress that end it, and the Armijo constant
_QN_MEMORY = 10
_QN_BOUND_EVERY = 5
_QN_STALL = 10
_ARMIJO = 1e-4

_UNIT_ROUNDOFF = 2.0 ** -53


def _gamma(n: float) -> float:
    """n u / (1 - n u), u the unit roundoff: a bound on the relative error
    of n rounded operations."""
    return n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)


def _conjugate(q: float) -> float:
    """The exponent q' with 1/q + 1/q' = 1."""
    return 1.0 if q == INF else INF if q == 1.0 else q / (q - 1.0)


def _lq_norm(t: np.ndarray, r: float) -> np.ndarray:
    """The l_r norm (r = inf allowed) over the last axis of the nonnegative
    ``t``, formed on t over its largest entry so that no power over- or
    underflows."""
    m = t.max(axis=-1, keepdims=True)
    if r == INF:
        return m[..., 0]
    safe = np.where((m > 0.0) & (m < INF), m, 1.0)       # 0 and inf stay as they are
    return safe[..., 0] * ((t / safe) ** r).sum(axis=-1) ** (1.0 / r)


@dataclass(frozen=True)
class BarycenterCert:
    """Certificate for one barycenter minimization: ``value`` is the
    objective at ``z_star``, ``lower`` a certified lower bound on the
    infimum, at most ``value``, ``gap`` is value - lower and ``stop`` names
    what ended the solve: "closed_form", "gap", "stall" or "cap"."""

    z_star: Point
    value: float
    iterations: int
    starts: int
    best_start: str
    lower: float
    gap: float
    stop: str

    def to_json(self, space: Optional[Space] = None) -> dict:
        out = {
            "value": self.value,
            "lower": self.lower,
            "gap": self.gap,
            "stop": self.stop,
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
    return _moment(config.X.probs, cx) + _moment(config.Y.probs, cy)


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

    A kind supplies ``_terms``: per start and atom, u = z - a_i, the
    distance d, d^p and the gradient of d^p at u as scal * core, dense over
    the coordinates, which the subgradient sums and the lower bound takes as
    its duals; and the dual norm of its norm.
    """

    def __init__(self, config: Config):
        self.joint = config.X.stack.concat(config.Y.stack)    # X's atoms, then Y's
        both = self.joint.array
        self._real_line = isinstance(config.space, RealLine)
        self.shape = both.shape[1:]
        top = max(float(np.abs(both.real).max()), float(np.abs(both.imag).max()))
        self.shift = 0              # scale = 2^-shift
        if top > 0.0 and not 2.0 ** -200 <= top <= 2.0 ** 200:
            # the exponent is clamped so that the factor is a normal float
            self.shift = min(max(math.frexp(top)[1], -1000), 1000)
        self.scale = 2.0 ** -self.shift
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

    def unscale(self, lower: float) -> float:
        """A lower bound in the solver's units, in the original ones and
        rounded down: times scale^-p as scale^(floor(p) - p), a normal float,
        times the exact power 2^(shift floor(p)), so that it leaves the float
        range only where the bound does."""
        if self.shift == 0:
            return lower
        whole = math.floor(self.p)
        with np.errstate(over="ignore", under="ignore"):
            lower = float(np.ldexp(lower * self.scale ** (whole - self.p), self.shift * whole))
        return lower - 4.0 * _UNIT_ROUNDOFF * abs(lower) if math.isfinite(lower) else lower

    def project(self, z: np.ndarray) -> np.ndarray:
        if self.zero_sum:
            return z - z.mean(axis=-1, keepdims=True)
        return z

    def value_and_subgrad(self, z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Objective and subgradient at each start; called with divide and
        invalid floating-point warnings off (see ``minimize_barycenter``)."""
        _, _, dp, scal, core = self._terms(z)
        return dp @ self.coeffs, ((scal * self.coeffs)[:, :, None] * core).sum(axis=1)

    @np.errstate(all="ignore")    # inf and nan bounds read -inf
    def lower_bound(self, z: np.ndarray, upper: float) -> np.ndarray:
        """A lower bound on the infimum from each start row of ``z``, given
        an upper bound ``upper`` on it (see the module docstring)."""
        u, d, _, scal, core = self._terms(z)
        y = scal[:, :, None] * core                            # (S, A, k)
        c = self.coeffs
        n_atoms, k = u.shape[1:]
        s = c @ y                                              # (S, k)
        if self.zero_sum:
            s = s - s.mean(axis=-1, keepdims=True)
        if self.p > 1.0:
            y = y - (s / c.sum())[:, None, :]
            pc = self.p / (self.p - 1.0)
            h = ((self.p - 1.0) * (self._dual_norm(y) / self.p) ** pc) @ c
            h_err = _gamma(pc * (self.norm_err + 1) + n_atoms + 8)
        else:
            # atoms at distance 0 take up the residual; without one, all shift
            zero = d == 0.0
            c0 = zero @ c
            taken = c0 > 0.0
            y = y - np.where(taken[:, None], 0.0, s / c.sum())[:, None, :]
            absorb = -s / np.where(taken, c0, 1.0)[:, None]
            y = np.where(zero[:, :, None] & taken[:, None, None], absorb[:, None, :], y)
            # scaled into the dual unit ball, with room for the norm's rounding
            top = self._dual_norm(y).max(axis=-1) * (1.0 + _gamma(self.norm_err + 2))
            y = y / np.maximum(top, 1.0)[:, None, None]
            h, h_err = 0.0, 0.0
        abs_y = np.abs(y)
        lower = (y.conj() * u).real.sum(axis=-1) @ c - h       # sum_i c_i <y_i, z - a_i>
        slack = _gamma(2 * k + n_atoms + 8) * ((abs_y * np.abs(u)).sum(axis=-1) @ c) \
            + h_err * h + _gamma(4) * np.abs(lower)
        # sum_i c_i y_i is 0 (zero_sum: a multiple of the ones vector) only up
        # to rounding; its pairing with z* - z costs at most its dual norm
        # times a bound on ||z* - z||: c_i ||z* - a_i||^p <= upper
        r = c @ y
        err = _gamma(n_atoms + 2) * (c @ abs_y)                # r's rounding
        if self.zero_sum:
            lam = r.mean(axis=-1)
            r = r - lam[:, None]
            err = err + _gamma(k + 2) * (np.abs(r) + np.abs(lam)[:, None])
            # <lam 1, z* - z> = -<lam 1, z>, as z* has entry sum 0
            slack = slack + (np.abs(lam) + err.max(axis=-1)) \
                * (np.abs(z.sum(axis=-1)) + _gamma(k + 2) * np.abs(z).sum(axis=-1))
        # ||z* - a_i|| + d_i for one atom, or averaged over all with the
        # weights c_i / C, C = sum_i c_i, the average of the first at most
        # (upper / C)^(1/p) by the power mean inequality; the margin is far
        # above the rounding of upper, c_i and d
        total = c.sum()
        radius = np.minimum(((upper / c) ** (1.0 / self.p) + d).min(axis=-1),
                            (upper / total) ** (1.0 / self.p) + d @ (c / total)) \
            * (1.0 + 1e-8)
        slack = slack + self._dual_abs(np.abs(r) + err) * radius
        out = lower - slack
        return np.where(np.isnan(out), -INF, out)


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
            self.weights = self.joint.weights
        self.unit = bool(np.all(self.weights == 1.0))
        # the dual norm: w_j^(-1/q) |y_j| over the coordinates of positive
        # weight, in the l_q' norm, and the rounded operations it takes
        live = self.weights > 0
        self._dead = None if live.all() else ~live
        self._dual_w = np.where(live, self.weights, 1.0) ** (-1.0 / self.q)
        self._dual_q = _conjugate(self.q)
        self.norm_err = self.atoms.shape[1] + 10

    def euclidean(self) -> bool:
        """Whether the objective is a weighted sum of powers of one Euclidean
        norm on the feasible set: weighted l_2 or the real line, with
        ``zero_sum`` only when all weights are equal, so that the projection
        is the one of that norm."""
        return self.q == 2.0 and (not self.zero_sum
                                  or bool(np.all(self.weights == self.weights[0])))

    def closed_form(self) -> Optional[str]:
        """``"mean"`` or ``"median"``, the start that minimizes the
        objective in the two closed-form cases of the module docstring, or
        None."""
        if self.p == 2.0 and self.euclidean():
            return "mean"
        if (self.p == 1.0 and not self.zero_sum
                and (self._real_line or self.q == 1.0)
                and not np.any(self.atoms.imag)):
            return "median"
        return None

    def closed_form_lower(self, closed: str, value: float) -> float:
        """``value``, in the original units, less the rounding allowance of a
        closed-form solve, in the solver's units (p is 1 or 2, so the value
        scales exactly): four times the rounding bound of one objective
        evaluation, which also covers a tie-broken pick of another start, and
        for the mixture mean the excess C ||z - z*||_w^2 of the quadratic
        objective at the rounded mean (C the total mass).  The median is an
        exact minimizer."""
        value = math.ldexp(value, -self.shift * int(self.p))
        n_atoms, k = self.atoms.shape
        out = value - _gamma(4 * (self.p * (k + 4) + n_atoms + 4)) * value
        if closed == "mean":
            total = self.coeffs.sum()
            m = (self.coeffs / total) @ np.abs(self.atoms)    # entries' size
            if self.zero_sum:
                m = m + m.max()
            off = _gamma(n_atoms + k + 8) * m
            out -= total * float(self.weights @ off ** 2)
        return float(out)

    def _terms(self, z: np.ndarray):
        """Per start and atom: u = z - a_i, the distance d, d^p and the
        gradient of d^p at u as scal * core, dense over the coordinates; for
        q = inf, core is the phase of u at the first maximizing coordinate
        and 0 elsewhere."""
        q, p, w = self.q, self.p, self.weights
        u = z[:, None, :] - self.atoms[None, :, :]         # (S, A, d)
        absu = np.abs(u)
        if q == INF:
            masked = np.where(w > 0, absu, -1.0)
            d = masked.max(axis=-1)                        # (S, A)
            k = masked.argmax(axis=-1)                     # first max index
            phase = np.where(absu > 0, u / np.where(absu > 0, absu, 1.0), 0.0)
            core = np.where(np.arange(len(w)) == k[:, :, None], phase, 0.0)
            return u, d, d ** p, np.where(d > 0, p * d ** (p - 1.0), 0.0), core
        sq = (absu ** q if self.unit else absu ** q * w).sum(axis=-1)    # (S, A)
        d = sq ** (1.0 / q)
        scal = np.where(d > 0, p * d ** (p - q), 0.0)
        if q == 1.0:
            core = np.where(absu > 0, u / np.where(absu > 0, absu, 1.0), 0.0)
        elif q == 2.0:
            core = u
        else:
            core = np.where(absu > 0, absu ** (q - 2.0), 0.0) * u
        if not self.unit:
            core = core * w
        return u, d, sq ** (p / q), scal, core

    def majorize(self, z: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """For a Euclidean problem at 1 <= p < 2: the objective at each row
        of ``z``, the majorize-minimize step from it and whether it lies on
        an atom.  The step minimizes the quadratic majorant
        sum_i c_i d_i^(p-2) ||z' - a_i||^2 of the objective (up to a
        constant and a factor): the mean of the atoms weighted by
        c_i d_i^(p-2), projected under ``zero_sum``; from a row on an atom it
        is not defined."""
        _, d, dp, scal, _ = self._terms(z)
        beta = scal * self.coeffs                          # p c_i d_i^(p-2)
        step = self.project(beta @ self.atoms / beta.sum(axis=-1, keepdims=True))
        return dp @ self.coeffs, step, ~(d > 0.0).all(axis=-1)

    def _dual_norm(self, y: np.ndarray) -> np.ndarray:
        """The dual of the weighted l_q norm over the last axis,
        (sum_j w_j^(1-q') |y_j|^q')^(1/q') on the coordinates of positive
        weight (for q = inf, the l_1 norm there); an entry on a coordinate of
        weight 0 makes it inf."""
        t = np.abs(y) if self.unit else np.abs(y) * self._dual_w
        if self._dead is not None:
            t = np.where(self._dead, np.where(t > 0, INF, 0.0), t)
        return _lq_norm(t, self._dual_q)

    # the dual norm depends on the entries' sizes only
    _dual_abs = _dual_norm


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

    def __init__(self, config: Config):
        super().__init__(config)
        self._matrix = self.shape if self.q is not None else (2,) + self.shape
        # rounded operations in one dual norm: each singular value is off by
        # at most m n u times the largest
        self.norm_err = min(self._matrix) * math.prod(self._matrix) + 10

    def _terms(self, z: np.ndarray):
        """Per start and atom: u = z - a_i, the distance d, d^p and the
        gradient of d^p at u as scal * core."""
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
        return u, d, d ** p, np.where(d > 0, p * d ** (p - 1.0), 0.0), core

    def _dual_norm(self, y: np.ndarray) -> np.ndarray:
        """Schatten-q' of the matrices over the last axis (ParallelogramS1:
        the trace norm of [Re y; Im y]); inf where an entry is not finite."""
        ok = np.isfinite(y).all(axis=-1)
        y = np.where(ok[..., None], y, 0.0)
        if self.q is None:
            sv = np.linalg.svd(np.stack([y.real, y.imag], axis=-2), compute_uv=False)
        else:
            sv = np.linalg.svd(y.reshape(y.shape[:-1] + self.shape), compute_uv=False)
        n = _lq_norm(sv, 1.0 if self.q is None else _conjugate(self.q))
        return np.where(ok, n, INF)

    def _dual_abs(self, e: np.ndarray) -> np.ndarray:
        """A bound on the dual norm of any y with |y| <= e entrywise: every
        Schatten norm of a rank-r matrix is at most sqrt(r) times its
        Frobenius norm, which grows with the entries' sizes."""
        return math.sqrt(min(self._matrix)) * np.sqrt((e * e).sum(axis=-1))


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

def _support_diameter(space: Space, joint: AtomStack) -> float:
    return float(pairwise_powered(space, joint, joint, 1.0).max())


def _majorize_steps(problem: _LqProblem, z: np.ndarray):
    """Majorize-minimize steps from the one-row iterate ``z``, yielding the
    objective at each iterate and the iterate; it ends after an iterate on
    an atom, where the step is not defined."""
    while True:
        f, step, on_atom = problem.majorize(z)
        yield f, z
        if on_atom[0]:
            return
        z = step


def _quasi_newton_steps(problem: _Problem, z: np.ndarray, lower: float):
    """Limited-memory BFGS steps from the one-row iterate ``z``, yielding the
    objective and the iterate after each step.

    The iterate is the real vector of the real and imaginary parts of the
    flattened entries, the direction comes from the two-loop recursion over
    the last ``_QN_MEMORY`` pairs with positive curvature (Liu & Nocedal,
    Math. Prog. 1989) and the step length from Armijo backtracking by
    halving.  Every trial point and subgradient is projected.  The first
    direction is the Polyak step to ``lower`` (or to 0, a lower bound on any
    objective); a direction that is not one of descent drops the pairs.  It
    returns when a trial step falls below the unit roundoff of ||x||, or at
    once on a non-finite start."""
    k = z.shape[1]

    def split(w: np.ndarray) -> np.ndarray:
        return np.concatenate([w.real, w.imag], axis=-1)[0]

    f, g = problem.value_and_subgrad(z)
    g = split(problem.project(g))
    x = split(z)
    if not (np.isfinite(f).all() and np.isfinite(g).all()):
        return
    gg = g @ g
    gamma = (f[0] - max(lower, 0.0)) / gg if gg > 0.0 else 1.0
    pairs = []
    while True:
        d = -g
        alphas = []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * (s @ d))
            d = d - alphas[-1] * y
        d = gamma * d
        for (s, y, rho), a in zip(pairs, reversed(alphas)):
            d = d + (a - rho * (y @ d)) * s
        slope = g @ d
        if not slope < 0.0:
            pairs.clear()
            d = -gamma * g
            slope = g @ d
        floor = _UNIT_ROUNDOFF * math.sqrt(x @ x)
        dn = math.sqrt(d @ d)
        t = 1.0
        while True:
            if t * dn <= floor:
                return
            trial = x + t * d
            z_t = problem.project((trial[:k] + 1j * trial[k:])[None])
            f_t, g_t = problem.value_and_subgrad(z_t)
            if f_t[0] <= f[0] + _ARMIJO * t * slope:
                break
            t *= 0.5
        x_t, g_t = split(z_t), split(problem.project(g_t))
        s, y = x_t - x, g_t - g
        sy = s @ y
        if sy > 0.0:
            pairs = pairs[1 - _QN_MEMORY:] + [(s, y, 1.0 / sy)]
            gamma = sy / (y @ y)
        x, f, g = x_t, f_t, g_t
        yield f, z_t


def _subgradient_steps(problem: _Problem, z: np.ndarray, s0: float):
    """Projected subgradient steps from the rows of ``z``, step k of length
    s0 / sqrt(k) along each row's normalized subgradient, yielding the
    objective at each row and the rows before each step."""
    for k in itertools.count(1):
        f, g = problem.value_and_subgrad(z)
        yield f, z
        gn = np.sqrt((np.abs(g) ** 2).sum(axis=-1))
        safe = np.where(gn > 0, gn, 1.0)
        z = problem.project(z - s0 / math.sqrt(k) * (g / safe[:, None]))


# zero distances divide by zero in the subgradients; those entries are masked
@np.errstate(divide="ignore", invalid="ignore")
def minimize_barycenter(config: Config,
                        max_iters_per_start: int = 50_000) -> BarycenterCert:
    """Minimize E d(X, z)^p + E d(Y, z)^p over z (p >= 1, linear spaces).

    Starts are all atoms of X and Y, the mixture mean, and the origin, and
    every start is evaluated.  The reported value is the exact objective at
    the best point visited, hence never above the objective at any start,
    and by convexity the iteration converges to the global minimum.
    ``config.zero_sum`` restricts iterates to the hyperplane of zero entry
    sum (Euclidean projection).

    The stages of the module docstring follow, each new row labelled like
    the row it starts from: a dual lower bound at every start,
    majorize-minimize steps on Euclidean problems at 1 <= p < 2,
    limited-memory BFGS, and projected subgradient descent with the support
    diameter, computed only then.  ``max_iters_per_start`` bounds the steps
    of each of the first two and of the three subgradient stages together;
    ``iterations`` counts them all.  The solve stops on a certified relative
    gap of ``_GAP_TARGET`` (``stop`` "gap"), else ``stop`` is "stall" or
    "cap" after the last subgradient stage.

    When the minimizer has a closed form (p = q = 2: the mixture mean; p = 1
    with real atoms on the real line or l_1 without ``zero_sum``: the
    coordinatewise weighted median, one more start) no step is taken:
    ``iterations`` is 0, ``starts`` counts the evaluated starts (the median
    included), ``best_start`` labels the start of least objective, which
    is the minimizer up to rounding, ``stop`` is "closed_form" and
    ``lower`` is the value less its rounding allowance.

    A ``value`` that is not finite in the original units raises an
    ``OverflowError``.
    """
    if config.p < 1.0:
        raise ValueError("minimize_barycenter requires p >= 1; use "
                         "mixture_draw_bound for the non-convex range")
    if not is_linear(config.space):
        raise TypeError("minimize_barycenter needs a linear space kind")

    if isinstance(config.space, (WeightedLq, RealLine)):
        problem = _LqProblem(config)
        closed = problem.closed_form()
        euclidean = closed is None and config.p < 2.0 and problem.euclidean()
    else:
        problem = _SvdProblem(config)
        closed = None
        euclidean = False

    joint = problem.joint
    both = joint.array
    starts = [both, stack_mean(joint, 0.5 * problem.coeffs)[None], np.zeros_like(both[:1])]
    labels = [f"atom:{i}" for i in range(len(both))] + ["mixture_mean", "zero"]
    if closed == "median":
        starts.append(_lower_weighted_median(both.real, problem.coeffs)[None])
        labels.append("median")
    z = problem.project(problem.flat(np.concatenate(starts)))
    n_starts = z.shape[0]

    f0, _ = problem.value_and_subgrad(z)
    f_best, z_best = f0.copy(), z.copy()      # each row's least value and its point
    lower = -math.inf

    def fork(row: int) -> np.ndarray:
        """A copy of row ``row``, appended as one more row labelled like it."""
        nonlocal f_best, z_best
        labels.append(labels[row])
        f_best = np.append(f_best, f_best[row])
        z_best = np.concatenate([z_best, z_best[row:row + 1]])
        return z_best[-1:].copy()

    def descend(steps, rows: slice, limit: int, every: int, patience: int,
                taken: int = 0, at_best: bool = False) -> Tuple[str, int]:
        """Run at most ``limit`` of the (objective, iterate) pairs of ``steps``
        on the rows ``rows``, keeping each row's least value and its point.
        The bound is taken where ``taken`` plus the steps run is a multiple
        of ``every``, at the iterate or (``at_best``) at the best of the
        rows.  Returns "gap", "stall" (more than ``patience`` steps without
        1e-12 relative progress of the rows' least value) or "cap", and the
        steps run."""
        nonlocal lower
        f_rows, z_rows = f_best[rows], z_best[rows]
        before, last, k = float(f_rows.min()), 0, 0
        for k, (f, z_cur) in enumerate(itertools.islice(steps, limit), 1):
            improved = f < f_rows
            f_rows[improved] = f[improved]
            z_rows[improved] = z_cur[improved]
            after = float(f_rows.min())
            if after < before - 1e-12 * abs(before):
                last = k
            before = after
            if (taken + k) % every == 0:
                upper = float(f_best.min())
                at = z_rows[[np.argmin(f_rows)]] if at_best else z_cur
                lower = max(lower, float(problem.lower_bound(at, upper).max()))
                if upper - lower <= _GAP_TARGET * upper:
                    return "gap", k
            if k - last > patience:
                return "stall", k
        return "cap", k

    iterations = qn_steps = 0
    stop = "closed_form"
    if not closed:
        # the bound at every start, as a stage of one step
        stop, _ = descend([(f0, z)], slice(None), 1, 1, 0)
        if stop != "gap" and euclidean:
            _, _, on_atom = problem.majorize(z)
            if not on_atom.all():
                start = fork(int(np.argmin(np.where(on_atom, INF, f0))))
                stop, iterations = descend(_majorize_steps(problem, start), slice(-1, None),
                                           max_iters_per_start, _BOUND_EVERY, _STALL_WINDOW)
        n_rows = len(f_best)        # the rows that the subgradient fallback iterates
        if stop != "gap":
            start = fork(int(np.argmin(f_best)))
            stop, qn_steps = descend(_quasi_newton_steps(problem, start, lower),
                                     slice(-1, None), max_iters_per_start, _QN_BOUND_EVERY,
                                     _QN_STALL - 1)
            if stop != "gap" and qn_steps % _QN_BOUND_EVERY:
                # where the stage ends off its cadence, at the row's best point
                stop, _ = descend([(f_best[-1:], z_best[-1:])], slice(-1, None), 1, 1, 0)
        if stop != "gap":
            diam = _support_diameter(config.space, joint) * problem.scale
            stop = "stall"          # a one-point support takes no step
            for frac, fac in _STAGES if diam > 0.0 else ():
                # warm-restarted from the rows' best points; the bound's cadence
                # counts the majorize-minimize steps and the earlier stages
                steps = _subgradient_steps(problem, z_best[:n_rows].copy(), diam * fac)
                stop, k = descend(steps, slice(n_rows), max(1, int(frac * max_iters_per_start)),
                                  _BOUND_EVERY, _STALL_WINDOW, taken=iterations, at_best=True)
                iterations += k
                if stop == "gap":
                    break

    best_idx = int(np.argmin(f_best))
    z_star = config.X.stack.with_array(problem.rows(z_best[best_idx:best_idx + 1]))
    value = barycenter_objective(config, z_star)
    if not math.isfinite(value):
        raise OverflowError(f"Barycenter objective is not finite (value={value})")
    if closed:
        lower = problem.closed_form_lower(closed, value)
    lower = min(problem.unscale(lower), value)
    return BarycenterCert(
        z_star=z_star.points()[0],
        value=value,
        iterations=iterations + qn_steps,
        starts=n_starts,
        best_start=labels[best_idx],
        lower=lower,
        gap=value - lower,
        stop=stop,
    )
