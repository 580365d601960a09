"""Seeded stochastic maximization of moduli ratios over configuration space.

Plain hill climbing with restarts: proposals perturb one atom coordinate
(Gaussian, adaptive scale), reweight atoms through a Dirichlet neighborhood,
or add/remove an atom within bounds, and a proposal is accepted only when
the ratio strictly increases.  Accepted configurations are rescaled to unit
cross moment (ratios are scale-invariant, so this only prevents numeric
drift).

A configuration is the two laws' atom stacks and probabilities, with no
law objects, from each restart's start (a warm start or a random draw) to
its last proposal.  One value-only evaluator prices them all and recomputes
each ratio from scratch -- there is no incremental state to drift.  A
roundness or mixture value is one kernel call on the joint stack of both
laws whose blocks are reduced exactly as the moment functionals reduce them,
so it equals the moduli module's value bit for bit; a barycenter value
builds the configuration and goes through the moduli module, whose solve
dominates.  Only the winning configuration goes through ``certify_ratio``,
and its value is the one reported.

Results are empirical lower bounds on the suprema being probed, never
proofs, and are labeled as such in serialized output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .constructions import _disjoint_bernoulli_stacks, _parallelogram_rows
from .distributions import Config, FiniteDist, check_probs, cross_moment, stack_mean
from .moduli import (
    DegenerateRatioError,
    barycenter_ratio,
    mixture_ratio,
    roundness_ratio,
)
from .spaces import (
    INF,
    AtomStack,
    ParallelogramS1,
    RealLine,
    Space,
    WeightedLq,
    pairwise_powered,
)

__all__ = ["SearchSpec", "SearchResult", "run_search", "certify_ratio"]

OBJECTIVES = ("roundness", "barycenter", "mixture")

_SCALE_GROW = 1.5
_SCALE_SHRINK = 0.9
_SCALE_MIN = 1e-6
_SCALE_MAX = 10.0


@dataclass(frozen=True)
class SearchSpec:
    space: Space
    objective: str
    p: float
    max_atoms_x: int = 4
    max_atoms_y: int = 4
    budget: int = 10_000
    restarts: int = 1
    seed: int = 0
    dim: Optional[int] = None

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}")
        if self.budget < 1 or self.restarts < 1:
            raise ValueError("budget and restarts must be >= 1")
        if self.max_atoms_x < 1 or self.max_atoms_y < 1:
            raise ValueError("atom bounds must be >= 1")
        if not (0 < self.p < INF):
            raise ValueError("p must be positive and finite")
        if self.dim is not None and self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not isinstance(self.space, (RealLine, WeightedLq, ParallelogramS1)):
            raise TypeError("search supports RealLine, WeightedLq and "
                            "ParallelogramS1 spaces")


@dataclass(frozen=True)
class SearchResult:
    best_config: Config
    best_ratio: float
    trace: Tuple[Tuple[int, float], ...]
    seed: int

    def to_json(self) -> dict:
        return {
            "best_ratio": self.best_ratio,
            "seed": self.seed,
            "trace": [[i, r] for i, r in self.trace],
            "best_config": self.best_config.to_json(),
            "note": "empirical lower bound from stochastic search; not a proof",
        }


def certify_ratio(config: Config, objective: str) -> float:
    """Value of record: a from-scratch ratio computation through the moduli
    module, with no search state.  The search calls it on its result; its
    starts and proposals are priced by a value-only evaluator that gives the
    same bits."""
    if objective == "roundness":
        return roundness_ratio(config).value
    if objective == "mixture":
        return mixture_ratio(config).value
    if objective == "barycenter":
        return barycenter_ratio(config).value
    raise ValueError(f"objective must be one of {OBJECTIVES}")


# --------------------------------------------------------------------------
# Search state: initial configurations and their value
# --------------------------------------------------------------------------

# (X stack, X probs, Y stack, Y probs): the laws of a configuration, with no
# law objects around them
State = Tuple[AtomStack, np.ndarray, AtomStack, np.ndarray]


def _uniform(stack: AtomStack) -> Tuple[AtomStack, np.ndarray]:
    n = len(stack)
    return stack, check_probs(np.full(n, 1.0 / n), n)


def _random_law(space: Space, rng: np.random.Generator, n_atoms: int,
                dim: int) -> Tuple[AtomStack, np.ndarray]:
    if isinstance(space, RealLine):
        rows = rng.normal(size=n_atoms)
    else:
        rows = np.stack([rng.normal(size=dim) + 1j * rng.normal(size=dim)
                         for _ in range(n_atoms)])
    return _uniform(AtomStack(space, rows))


def _warm_start(spec: SearchSpec) -> Optional[State]:
    """The roundness extremizers of the l_q and parallelogram constructions
    (at any p), cut to the atom bounds; None elsewhere."""
    space, n = spec.space, min(spec.max_atoms_x, spec.max_atoms_y)
    if spec.objective != "roundness" or n < 2:
        return None
    if isinstance(space, WeightedLq) and space.q < INF:
        xs, ys = _disjoint_bernoulli_stacks(space, min(n, 8))
    elif isinstance(space, ParallelogramS1) and space.n >= 2:
        m = min(n, space.n)
        xs, ys = (AtomStack(space, rows) for rows in _parallelogram_rows(space.n, m))
    else:
        return None
    return (*_uniform(xs), *_uniform(ys))


def _initial_state(spec: SearchSpec, restart: int,
                   rng: np.random.Generator) -> State:
    if restart == 0:
        warm = _warm_start(spec)
        if warm is not None:
            return warm
    if isinstance(spec.space, ParallelogramS1):
        dim = 2 * spec.space.n
    else:
        dim = 2 * max(spec.max_atoms_x, spec.max_atoms_y) if spec.dim is None else spec.dim
    nx = int(rng.integers(1, spec.max_atoms_x + 1))
    ny = int(rng.integers(1, spec.max_atoms_y + 1))
    return (*_random_law(spec.space, rng, nx, dim),
            *_random_law(spec.space, rng, ny, dim))


def _config(spec: SearchSpec, state: State) -> Config:
    xs, xp, ys, yp = state
    return Config(spec.space, FiniteDist(spec.space, xs, xp),
                  FiniteDist(spec.space, ys, yp), spec.p)


def _moment(a: np.ndarray, block: np.ndarray, b: np.ndarray) -> float:
    """a . block . b over a contiguous copy of ``block``, which makes it the
    same sum as ``cross_moment`` computes on that block alone."""
    return float(a @ np.ascontiguousarray(block) @ b)


def _evaluate(spec: SearchSpec, state: State) -> Tuple[Optional[float], float]:
    """The ratio of ``state`` and its denominator E d(X, Y)^p, both bit for
    bit as ``certify_ratio`` and ``cross_moment`` compute them.  The ratio is
    None where ``certify_ratio`` finds it degenerate or out of the float
    range, or where it is not finite; any other error is a fault and
    propagates.

    A roundness or mixture value is one kernel call on the joint stack,
    [X; Y] x [X; Y] or [X; Y] x [Y; z] with z the midpoint of the means,
    whose blocks are reduced as the moment functionals reduce them.  A
    barycenter value is a solve, which builds the configuration.
    """
    if spec.objective == "barycenter":
        config = _config(spec, state)
        den = cross_moment(config.X, config.Y, spec.p)
        try:
            v = barycenter_ratio(config).value
        except (DegenerateRatioError, OverflowError):
            return None, den
        return (v if math.isfinite(v) else None), den
    xs, xp, ys, yp = state
    nx = len(xs)
    joint = xs.concat(ys)
    if spec.objective == "roundness":
        m = pairwise_powered(spec.space, joint, joint, spec.p)
        den = _moment(xp, m[:nx, nx:], yp)
        num = _moment(xp, m[:nx, :nx], xp) + _moment(yp, m[nx:, nx:], yp)
    else:
        z = 0.5 * (stack_mean(xs, xp) + stack_mean(ys, yp))
        m = pairwise_powered(spec.space, joint, ys.concat(ys.with_array(z[None])), spec.p)
        den = _moment(xp, m[:nx, :-1], yp)
        num = float(xp @ np.ascontiguousarray(m[:nx, -1])
                    + yp @ np.ascontiguousarray(m[nx:, -1]))
    if not 0.0 < den < math.inf:
        return None, den
    v = num / den
    return (v if math.isfinite(v) else None), den


def _normalized(state: State, den: float, p: float) -> Optional[State]:
    """All atoms rescaled so that the cross moment ``den`` in (0, inf), as
    ``_evaluate`` accepted it, becomes 1 (ratios are invariant), or None."""
    lam = den ** (-1.0 / p)
    if not math.isfinite(lam) or lam == 0:
        return None
    xs, xp, ys, yp = state
    return xs.with_array(lam * xs.array), xp, ys.with_array(lam * ys.array), yp


# --------------------------------------------------------------------------
# Proposal moves
# --------------------------------------------------------------------------

def _perturbed_row(stack: AtomStack, idx: int, rng: np.random.Generator,
                   scale: float) -> np.ndarray:
    """Row ``idx`` with one coordinate moved by a Gaussian step."""
    row = stack.array[idx].copy()
    if isinstance(stack.space, RealLine):
        return row + scale * rng.normal()
    ci = int(rng.integers(row.size))
    row[ci] = row[ci] + scale * (rng.normal() + 1j * rng.normal())
    return row


def _propose(state: State, spec: SearchSpec, rng: np.random.Generator,
             scale: float) -> Optional[State]:
    xs, xp, ys, yp = state
    side_x = bool(rng.integers(2))
    stack, probs = (xs, xp) if side_x else (ys, yp)
    max_atoms = spec.max_atoms_x if side_x else spec.max_atoms_y
    n = len(stack)
    u = rng.random()
    if u < 0.70:
        idx = int(rng.integers(n))
        rows = stack.array.copy()
        rows[idx] = _perturbed_row(stack, idx, rng, scale)
        new = stack.with_array(rows), probs
    elif u < 0.90:
        kappa = min(max(50.0 / scale, 1.0), 1e6)
        conc = probs * kappa + 0.5
        drawn = rng.dirichlet(conc)
        if drawn.sum() <= 0:
            return None
        new = stack, check_probs(drawn / drawn.sum(), n)
    elif u < 0.95:
        if n >= max_atoms:
            return None
        idx = int(rng.integers(n))
        row = _perturbed_row(stack, idx, rng, max(scale, 0.1))
        rows = np.concatenate([stack.array, row[np.newaxis]])
        grown = np.append(probs * (n / (n + 1.0)), 1.0 / (n + 1.0))
        new = stack.with_array(rows), check_probs(grown, n + 1)
    else:
        if n <= 1:
            return None
        idx = int(rng.integers(n))
        kept = np.delete(probs, idx)
        total = kept.sum()
        if total <= 0:
            return None
        rows = np.delete(stack.array, idx, axis=0)
        new = stack.with_array(rows), check_probs(kept / total, n - 1)
    return (*new, ys, yp) if side_x else (xs, xp, *new)


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def run_search(spec: SearchSpec) -> SearchResult:
    """Hill-climb the requested ratio; deterministic for a fixed spec.

    Each restart derives its own RNG stream from (seed, restart index) and
    runs independently; the final reduction is a max with index tie-break,
    so the result does not depend on execution order.
    """
    best_state: Optional[State] = None
    best_ratio = -math.inf
    best_trace: Tuple[Tuple[int, float], ...] = ()

    for restart in range(spec.restarts):
        rng = np.random.default_rng([spec.seed, restart])
        for _ in range(51):                 # a start and up to 50 redraws
            state = _initial_state(spec, restart, rng)
            ratio, den = _evaluate(spec, state)
            if ratio is not None:
                break
        else:
            continue
        norm = _normalized(state, den, spec.p)
        if norm is not None:
            r_norm, _ = _evaluate(spec, norm)
            if r_norm is not None and r_norm >= ratio:
                state, ratio = norm, r_norm
        trace: List[Tuple[int, float]] = [(0, ratio)]
        scale = 1.0
        for step in range(1, spec.budget + 1):
            proposal = _propose(state, spec, rng, scale)
            if proposal is None:
                scale = max(scale * _SCALE_SHRINK, _SCALE_MIN)
                continue
            r_new, den = _evaluate(spec, proposal)
            if r_new is not None and r_new > ratio:
                norm = _normalized(proposal, den, spec.p)
                r_norm = None if norm is None else _evaluate(spec, norm)[0]
                if r_norm is not None and r_norm > ratio:
                    state, ratio = norm, r_norm
                else:
                    state, ratio = proposal, r_new
                trace.append((step, ratio))
                scale = min(scale * _SCALE_GROW, _SCALE_MAX)
            else:
                scale = max(scale * _SCALE_SHRINK, _SCALE_MIN)
        if ratio > best_ratio:
            best_ratio = ratio
            best_state = state
            best_trace = tuple(trace)

    if best_state is None:
        # random starts are nondegenerate almost surely, so their moments
        # overflowed or vanished
        raise OverflowError("no start of the search has a finite, nondegenerate ratio")

    best_config = _config(spec, best_state)
    certified = certify_ratio(best_config, spec.objective)
    if abs(certified - best_ratio) > 1e-10 * max(1.0, abs(certified)):
        raise RuntimeError("search ratio drifted from the certified value")
    return SearchResult(best_config, certified, best_trace, spec.seed)
