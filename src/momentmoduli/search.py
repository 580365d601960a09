"""Seeded stochastic maximization of moduli ratios over configuration space.

Plain hill climbing with restarts: proposals perturb one atom coordinate
(Gaussian, adaptive scale), reweight atoms through a Dirichlet neighborhood,
or add/remove an atom within bounds, and a proposal is accepted only when
the ratio strictly increases.  Accepted configurations are rescaled to unit
cross moment (ratios are scale-invariant, so this only prevents numeric
drift).  Every evaluation recomputes the ratio from scratch through the
moduli module -- there is no incremental state to drift -- and the final
best ratio is recomputed once more on the winning configuration.

Results are empirical lower bounds on the suprema being probed, never
proofs, and are labeled as such in serialized output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .distributions import Config, FiniteDist, cross_moment
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
    """Value of record: a from-scratch ratio computation with no search state."""
    if objective == "roundness":
        return roundness_ratio(config).value
    if objective == "mixture":
        return mixture_ratio(config).value
    if objective == "barycenter":
        return barycenter_ratio(config).value
    raise ValueError(f"objective must be one of {OBJECTIVES}")


def _try_ratio(config: Config, objective: str) -> Optional[float]:
    """The ratio, or None for a degenerate or non-finite one; any other
    error is a fault and propagates."""
    try:
        v = certify_ratio(config, objective)
    except DegenerateRatioError:
        return None
    if not math.isfinite(v):
        return None
    return v


# --------------------------------------------------------------------------
# Initial configurations
# --------------------------------------------------------------------------

def _random_dist(space: Space, rng: np.random.Generator, n_atoms: int,
                 dim: int) -> FiniteDist:
    if isinstance(space, RealLine):
        rows = rng.normal(size=n_atoms)
    else:
        rows = np.stack([rng.normal(size=dim) + 1j * rng.normal(size=dim)
                         for _ in range(n_atoms)])
    return FiniteDist.uniform(space, AtomStack(space, rows))


def _warm_start(spec: SearchSpec) -> Optional[Config]:
    if spec.objective != "roundness":
        return None
    if isinstance(spec.space, WeightedLq) and spec.space.q < INF:
        n = min(spec.max_atoms_x, spec.max_atoms_y, 8)
        if n < 2:
            return None
        from .constructions import make_disjoint_bernoulli
        nc = make_disjoint_bernoulli(n, spec.space.q, max(spec.p, 1.0))
        if nc.config.p != spec.p:
            return Config(nc.config.space, nc.config.X, nc.config.Y, spec.p)
        return nc.config
    if isinstance(spec.space, ParallelogramS1):
        m = min(spec.space.n, spec.max_atoms_x, spec.max_atoms_y)
        if m < 2:
            return None
        from .constructions import _parallelogram_rows
        xs, ys = _parallelogram_rows(spec.space.n, m)
        return Config(spec.space,
                      FiniteDist.uniform(spec.space, AtomStack(spec.space, xs)),
                      FiniteDist.uniform(spec.space, AtomStack(spec.space, ys)), spec.p)
    return None


def _initial_config(spec: SearchSpec, restart: int,
                    rng: np.random.Generator) -> Config:
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
    return Config(spec.space,
                  _random_dist(spec.space, rng, nx, dim),
                  _random_dist(spec.space, rng, ny, dim), spec.p)


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


def _propose(config: Config, spec: SearchSpec, rng: np.random.Generator,
             scale: float) -> Optional[Config]:
    side_x = bool(rng.integers(2))
    dist = config.X if side_x else config.Y
    max_atoms = spec.max_atoms_x if side_x else spec.max_atoms_y
    stack = dist.stack
    n = len(stack)
    u = rng.random()
    if u < 0.70:
        idx = int(rng.integers(n))
        rows = stack.array.copy()
        rows[idx] = _perturbed_row(stack, idx, rng, scale)
        new = FiniteDist(dist.space, stack.with_array(rows), dist.probs)
    elif u < 0.90:
        kappa = min(max(50.0 / scale, 1.0), 1e6)
        conc = dist.probs * kappa + 0.5
        probs = rng.dirichlet(conc)
        if probs.sum() <= 0:
            return None
        new = FiniteDist(dist.space, stack, probs / probs.sum())
    elif u < 0.95:
        if n >= max_atoms:
            return None
        idx = int(rng.integers(n))
        row = _perturbed_row(stack, idx, rng, max(scale, 0.1))
        rows = np.concatenate([stack.array, row[np.newaxis]])
        probs = np.append(dist.probs * (n / (n + 1.0)), 1.0 / (n + 1.0))
        new = FiniteDist(dist.space, stack.with_array(rows), probs)
    else:
        if n <= 1:
            return None
        idx = int(rng.integers(n))
        probs = np.delete(dist.probs, idx)
        total = probs.sum()
        if total <= 0:
            return None
        rows = np.delete(stack.array, idx, axis=0)
        new = FiniteDist(dist.space, stack.with_array(rows), probs / total)
    if side_x:
        return Config(config.space, new, config.Y, config.p, config.zero_sum)
    return Config(config.space, config.X, new, config.p, config.zero_sum)


def _normalize(config: Config) -> Config:
    """Rescale all atoms so the cross moment is 1 (ratios are invariant)."""
    cm = cross_moment(config.X, config.Y, config.p)
    if cm <= 0 or not math.isfinite(cm):
        return config
    lam = cm ** (-1.0 / config.p)
    if not math.isfinite(lam) or lam == 0:
        return config

    def rescale(dist: FiniteDist) -> FiniteDist:
        return FiniteDist(dist.space, dist.stack.with_array(lam * dist.stack.array),
                          dist.probs)

    return Config(config.space, rescale(config.X), rescale(config.Y),
                  config.p, config.zero_sum)


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def run_search(spec: SearchSpec) -> SearchResult:
    """Hill-climb the requested ratio; deterministic for a fixed spec.

    Each restart derives its own RNG stream from (seed, restart index) and
    runs independently; the final reduction is a max with index tie-break,
    so the result does not depend on execution order.
    """
    best_config: Optional[Config] = None
    best_ratio = -math.inf
    best_trace: Tuple[Tuple[int, float], ...] = ()

    for restart in range(spec.restarts):
        rng = np.random.default_rng([spec.seed, restart])
        config = _initial_config(spec, restart, rng)
        ratio = _try_ratio(config, spec.objective)
        attempts = 0
        while ratio is None and attempts < 50:
            config = _initial_config(spec, restart, rng)
            ratio = _try_ratio(config, spec.objective)
            attempts += 1
        if ratio is None:
            continue
        norm = _normalize(config)
        r_norm = _try_ratio(norm, spec.objective)
        if r_norm is not None and r_norm >= ratio:
            config, ratio = norm, r_norm
        trace: List[Tuple[int, float]] = [(0, ratio)]
        scale = 1.0
        for step in range(1, spec.budget + 1):
            proposal = _propose(config, spec, rng, scale)
            if proposal is None:
                scale = max(scale * _SCALE_SHRINK, _SCALE_MIN)
                continue
            r_new = _try_ratio(proposal, spec.objective)
            if r_new is not None and r_new > ratio:
                norm = _normalize(proposal)
                r_norm = _try_ratio(norm, spec.objective)
                if r_norm is not None and r_norm > ratio:
                    config, ratio = norm, r_norm
                else:
                    config, ratio = proposal, r_new
                trace.append((step, ratio))
                scale = min(scale * _SCALE_GROW, _SCALE_MAX)
            else:
                scale = max(scale * _SCALE_SHRINK, _SCALE_MIN)
        if ratio > best_ratio:
            best_ratio = ratio
            best_config = config
            best_trace = tuple(trace)

    if best_config is None:
        raise RuntimeError("search failed to produce any valid configuration")

    certified = certify_ratio(best_config, spec.objective)
    if abs(certified - best_ratio) > 1e-10 * max(1.0, abs(certified)):
        raise RuntimeError("incremental ratio drifted from the certified value")
    return SearchResult(best_config, certified, best_trace, spec.seed)
