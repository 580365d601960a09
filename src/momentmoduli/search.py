"""Seeded stochastic maximization of moduli ratios over configuration space.

Plain hill climbing with restarts: proposals perturb one atom coordinate
(Gaussian, adaptive scale), reweight atoms through a Dirichlet neighborhood,
or add/remove an atom within bounds, and a proposal is accepted only when
the ratio strictly increases.  Accepted configurations are rescaled to unit
cross moment (ratios are scale-invariant, so this only prevents numeric
drift).

A configuration is the two laws' atom stacks and probabilities, with no
law objects, from each restart's start (a warm start or a random draw) to
its last proposal.  A start, and an accepted configuration rescaled, is
priced whole: for roundness and mixture, one kernel call gives its joint
matrix M = d(x, y)^p over [X; Y] x [X; Y], which the restart keeps.  A
proposal is a move from the current configuration (a row perturbed, added
or removed, or the masses of one side redrawn) and is priced against M: a
new row takes one kernel call for its row and column of M, a removal
deletes a row and column, and a reweight keeps M.  Each entry of M depends
on its pair alone, every matrix is reduced by the moment functionals' one
reduction, and a mixture center (E X + E Y) / 2 is formed by their one
function, so each ratio equals the moduli module's value bit for bit.  A
barycenter proposal builds its configuration and goes through the moduli
module over the one cross moment the evaluator computes, and its solve
dominates.  Only the winning configuration goes through ``certify_ratio``,
and its value is the one reported.

Results are empirical lower bounds on the suprema being probed, never
proofs, and are labeled as such in serialized output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .constructions import _disjoint_bernoulli_stacks, _parallelogram_rows
from .distributions import (Config, FiniteDist, _mixture_center, _moment, check_probs,
                            cross_moment)
from .moduli import (
    DegenerateRatioError,
    barycenter_ratio,
    barycenter_ratio_over,
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
    _check_rows,
    _pairwise,
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


def _ratio(m: np.ndarray, zcol: Optional[np.ndarray], nx: int, xp: np.ndarray,
           yp: np.ndarray) -> Tuple[Optional[float], float]:
    """The ratio and denominator of a state whose first ``nx`` joint rows are
    X's, from its joint matrix ``m`` and, for the mixture, the joint rows'
    distances ``zcol`` to the mixture center, each block through ``_moment``."""
    den = _moment(xp, m[:nx, nx:], yp)
    if zcol is None:
        num = _moment(xp, m[:nx, :nx], xp) + _moment(yp, m[nx:, nx:], yp)
    else:
        num = _moment(xp, zcol[:nx]) + _moment(yp, zcol[nx:])
    if not 0.0 < den < math.inf:
        return None, den
    v = num / den
    return (v if math.isfinite(v) else None), den


def _evaluate(spec: SearchSpec, state: State
              ) -> Tuple[Optional[float], float, Optional[np.ndarray]]:
    """The ratio of ``state``, its denominator E d(X, Y)^p and its joint
    matrix, the ratio and denominator bit for bit as ``certify_ratio`` and
    ``cross_moment`` compute them.  The ratio is None where ``certify_ratio``
    finds it degenerate or out of the float range, or where it is not
    finite; any other error is a fault and propagates.

    A roundness or mixture state takes one kernel call for its joint matrix
    d(x, y)^p over [X; Y] x [X; Y], with the mixture center z as one
    more column.  A barycenter value is a solve, which builds the
    configuration, over the cross moment computed here; it has no joint
    matrix.
    """
    if spec.objective == "barycenter":
        config = _config(spec, state)
        den = cross_moment(config.X, config.Y, spec.p)
        try:
            v = barycenter_ratio_over(config, den).value
        except (DegenerateRatioError, OverflowError):
            return None, den, None
        return (v if math.isfinite(v) else None), den, None
    xs, xp, ys, yp = state
    joint = xs.concat(ys)
    if spec.objective == "roundness":
        m, zcol = pairwise_powered(spec.space, joint, joint, spec.p), None
    else:
        z = _mixture_center(*state)
        both = pairwise_powered(spec.space, joint, joint.concat(z), spec.p)
        m, zcol = both[:, :-1], both[:, -1]
    return (*_ratio(m, zcol, len(xs), xp, yp), m)


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

class Move(NamedTuple):
    """A proposal as a change to one side of the current state.  With a
    ``row``, that row replaces the one at ``idx`` (perturb) or, at
    ``idx == len(stack)``, is appended (add); with none, the row at ``idx``
    is deleted when ``probs`` is one shorter (remove) and otherwise only the
    masses change (reweight).  ``probs`` are the side's new probabilities."""

    side_x: bool
    idx: int
    row: Optional[np.ndarray]
    probs: np.ndarray


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
             scale: float) -> Optional[Move]:
    xs, xp, ys, yp = state
    side_x = bool(rng.integers(2))
    stack, probs = (xs, xp) if side_x else (ys, yp)
    max_atoms = spec.max_atoms_x if side_x else spec.max_atoms_y
    n = len(stack)
    u = rng.random()
    if u < 0.70:
        idx = int(rng.integers(n))
        row = _perturbed_row(stack, idx, rng, scale)
        _check_rows(stack.space, row[None])     # a new row gets a stack row's checks
        return Move(side_x, idx, row, probs)
    if u < 0.90:
        kappa = min(max(50.0 / scale, 1.0), 1e6)
        conc = probs * kappa + 0.5
        drawn = rng.dirichlet(conc)
        if drawn.sum() <= 0:
            return None
        return Move(side_x, 0, None, check_probs(drawn / drawn.sum(), n))
    if u < 0.95:
        if n >= max_atoms:
            return None
        idx = int(rng.integers(n))
        row = _perturbed_row(stack, idx, rng, max(scale, 0.1))
        _check_rows(stack.space, row[None])
        grown = np.append(probs * (n / (n + 1.0)), 1.0 / (n + 1.0))
        return Move(side_x, n, row, check_probs(grown, n + 1))
    if n <= 1:
        return None
    idx = int(rng.integers(n))
    kept = np.delete(probs, idx)
    total = kept.sum()
    if total <= 0:
        return None
    return Move(side_x, idx, None, check_probs(kept / total, n - 1))


def _moved_rows(stack: AtomStack, move: Move) -> np.ndarray:
    """The rows of ``stack``, the moved side, after ``move``."""
    a = stack.array
    if move.row is None:
        return a if len(move.probs) == len(a) else np.delete(a, move.idx, axis=0)
    if move.idx == len(a):
        return np.concatenate([a, move.row[np.newaxis]])
    rows = a.copy()
    rows[move.idx] = move.row
    return rows


def _applied(state: State, move: Move) -> State:
    """The state that ``move`` makes of ``state``; its rows were checked
    when the move was drawn."""
    xs, xp, ys, yp = state
    stack = xs if move.side_x else ys
    rows = _moved_rows(stack, move)
    if rows is not stack.array:
        stack = stack._sharing(rows)
    return (stack, move.probs, ys, yp) if move.side_x else (xs, xp, stack, move.probs)


def _price(spec: SearchSpec, state: State, m: Optional[np.ndarray],
           move: Move) -> Tuple[Optional[float], float, Optional[np.ndarray]]:
    """``_evaluate`` of the state that ``move`` makes of ``state``, bit for
    bit, from ``state``'s joint matrix ``m`` and the move.

    A perturbed or added row takes one kernel call against the new joint
    rows, which gives its row and column of the new matrix (its own entry is
    d(x, x)^p = 0); a removed row's row and column are deleted, and a
    reweight keeps ``m`` as it is.  Every entry of a joint matrix depends on
    its pair alone and is even in x - y, so the entries kept from ``m`` and
    the new ones are those that a whole evaluation computes.  The mixture's
    distances to the moved mixture center are one more column of the same call;
    roundness reweights and removals make none.  A barycenter proposal is
    evaluated whole.
    """
    if m is None:
        return _evaluate(spec, _applied(state, move))
    xs, xp, ys, yp = state
    rows = _moved_rows(xs if move.side_x else ys, move)
    if move.side_x:
        xa, xp, ya = rows, move.probs, ys.array
    else:
        xa, ya, yp = xs.array, rows, move.probs
    nx, n = len(xa), len(xa) + len(ya)
    i = move.idx if move.side_x else nx + move.idx     # its joint position
    if n > len(m):
        keep = np.arange(n) != i
        m_new = np.empty((n, n))
        m_new[np.ix_(keep, keep)] = m
    elif n < len(m):
        keep = np.arange(len(m)) != i
        m_new = m[np.ix_(keep, keep)]
    else:
        m_new = m if move.row is None else m.copy()
    zcol = None
    if spec.objective == "mixture":
        cols = [_mixture_center(*_applied(state, move)).array]
        if move.row is not None:
            cols.insert(0, move.row[np.newaxis])
        both = _pairwise(spec.space, np.concatenate([xa, ya]), np.concatenate(cols),
                         xs.weights, spec.p)
        new, zcol = both[:, 0], both[:, -1]
    elif move.row is not None:
        new = _pairwise(spec.space, move.row[np.newaxis], np.concatenate([xa, ya]),
                        xs.weights, spec.p)[0]
    if move.row is not None:
        m_new[i] = new
        m_new[:, i] = new
    return (*_ratio(m_new, zcol, nx, xp, yp), m_new)


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
            ratio, den, m = _evaluate(spec, state)
            if ratio is not None:
                break
        else:
            continue
        norm = _normalized(state, den, spec.p)
        if norm is not None:
            r_norm, _, m_norm = _evaluate(spec, norm)
            if r_norm is not None and r_norm >= ratio:
                state, ratio, m = norm, r_norm, m_norm
        trace: List[Tuple[int, float]] = [(0, ratio)]
        scale = 1.0
        for step in range(1, spec.budget + 1):
            move = _propose(state, spec, rng, scale)
            if move is None:
                scale = max(scale * _SCALE_SHRINK, _SCALE_MIN)
                continue
            r_new, den, m_new = _price(spec, state, m, move)
            if r_new is not None and r_new > ratio:
                proposal = _applied(state, move)
                norm = _normalized(proposal, den, spec.p)
                r_norm, _, m_norm = (None, None, None) if norm is None else _evaluate(spec, norm)
                if r_norm is not None and r_norm > ratio:
                    state, ratio, m = norm, r_norm, m_norm
                else:
                    state, ratio, m = proposal, r_new, m_new
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
