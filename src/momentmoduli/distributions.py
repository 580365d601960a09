"""Finitely supported probability distributions and exact moment functionals.

Every expectation in the package reduces to a finite (double) sum over atom
pairs, so all moments below are exact up to floating-point rounding -- no
sampling, no quadrature.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .spaces import (
    INF,
    AtomStack,
    Space,
    Point,
    RealLine,
    _check_rows,
    is_linear,
    json_number,
    pairwise_powered,
    reject_json_bools,
    space_from_json,
    space_to_json,
    stack_from_json,
    stack_points,
    stack_to_json,
)

__all__ = [
    "FiniteDist",
    "Config",
    "mixture",
    "cross_moment",
    "self_moment",
    "mean",
    "mean_row",
    "stack_mean",
    "check_probs",
    "check_prob_rows",
    "centered_moment",
    "log_cross_moment",
]

_PROB_SUM_TOL = 1e-12


def _parse_probs(raw) -> np.ndarray:
    if isinstance(raw, np.ndarray) and raw.dtype == float:
        return raw.copy()
    vals = []
    for v in raw:
        try:
            vals.append(float(decimal.Decimal(v)) if isinstance(v, str) else float(v))
        except (TypeError, OverflowError, decimal.InvalidOperation):
            raise ValueError("probabilities are numbers or decimal strings; "
                             f"got {v!r}") from None
    return np.asarray(vals, dtype=float)


def check_probs(probs: np.ndarray, n: int) -> np.ndarray:
    """The rule for the probabilities of ``n`` atoms: a float array of shape
    (n,), nonnegative, summing to 1 within 1e-12.  Returns ``probs``, made
    read-only."""
    if probs.shape != (n,):
        raise ValueError("probs must match atoms in length")
    check_prob_rows(probs)
    probs.setflags(write=False)
    return probs


def check_prob_rows(probs: np.ndarray) -> None:
    """The rule of :func:`check_probs` but the shape, on the last axis of
    ``probs``: one law's probabilities, or one row for each of a stack of
    laws."""
    if not (probs >= 0).all():
        raise ValueError("probabilities must be nonnegative numbers")
    if not (abs(probs.sum(axis=-1) - 1.0) <= _PROB_SUM_TOL).all():
        raise ValueError("probabilities must sum to 1 within 1e-12")


@dataclass(frozen=True, eq=False)
class FiniteDist:
    """Probability distribution with finitely many atoms in one space.

    ``atoms`` is a sequence of points or an :class:`AtomStack`.  The law
    stores its atoms only as the AtomStack ``stack``, checked once here, on
    which the moments and the search work; read back, ``atoms`` are point
    objects made from the stack on first use.  Atoms of probability 0 are
    checked, then dropped: the stored atoms are the law's support.
    """

    space: Space
    atoms: tuple
    probs: np.ndarray

    def __post_init__(self) -> None:
        atoms = self.atoms
        if not isinstance(atoms, AtomStack):
            atoms = tuple(atoms)
        probs = _parse_probs(self.probs)
        if len(atoms) == 0:
            raise ValueError("a distribution needs at least one atom")
        check_probs(probs, len(atoms))
        stack = stack_points(self.space, atoms)
        if not probs.all():
            stack = stack.with_array(stack.array[probs > 0])
            probs = probs[probs > 0]
            probs.setflags(write=False)
        object.__delattr__(self, "atoms")
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "probs", probs)

    def __getattr__(self, name: str):
        # only reached for ``atoms``, which are made from the stack on first use
        if name != "atoms" or "stack" not in self.__dict__:
            raise AttributeError(name)
        atoms = self.stack.points()
        object.__setattr__(self, "atoms", atoms)
        return atoms

    @classmethod
    def uniform(cls, space: Space, atoms) -> "FiniteDist":
        n = len(atoms)
        return cls(space, atoms, np.full(n, 1.0 / n))

    @classmethod
    def delta(cls, space: Space, atom: Point) -> "FiniteDist":
        return cls(space, (atom,), np.array([1.0]))

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        out = {
            "space": space_to_json(self.space),
            "atoms": stack_to_json(self.stack),
            "probs": [float(p) for p in self.probs],
        }
        w = self.stack.weights
        if w is not None and not np.all(w == 1.0):
            out["weights"] = [float(x) for x in w]
        return out

    @classmethod
    def from_json(cls, obj: dict, space: Optional[Space] = None) -> "FiniteDist":
        if not isinstance(obj, dict):
            raise ValueError("a distribution is a JSON object")
        if space is None:
            if "space" not in obj:
                raise ValueError("distribution object needs a 'space' field")
            space = space_from_json(obj["space"])
        try:
            raw_atoms = obj["atoms"]
            raw_probs = obj["probs"]
        except KeyError as e:
            raise ValueError(f"distribution object needs field {e.args[0]!r}") from None
        if not isinstance(raw_atoms, list) or not isinstance(raw_probs, list):
            raise ValueError("a distribution's 'atoms' and 'probs' are lists")
        stack = stack_from_json(space, raw_atoms, obj.get("weights"))
        return cls(space, stack, _parse_probs(reject_json_bools(raw_probs, "probs")))


@dataclass(frozen=True)
class Config:
    """A pair of independent distributions on a shared space plus exponent p.

    ``zero_sum`` restricts barycenter minimization to the hyperplane of
    points whose entries sum to zero (the subspace in which the sup-norm
    sharpness configuration lives); it has no effect on distances or moments.
    """

    space: Space
    X: FiniteDist
    Y: FiniteDist
    p: float
    zero_sum: bool = False

    def __post_init__(self) -> None:
        if self.X.space != self.space or self.Y.space != self.space:
            raise ValueError("X and Y must live on the configured space")
        if not (0 < self.p < INF):
            raise ValueError(f"exponent p must be positive and finite; got {self.p!r}")

    def to_json(self) -> dict:
        out = {
            "space": space_to_json(self.space),
            "X": self.X.to_json(),
            "Y": self.Y.to_json(),
            "p": self.p,
        }
        if self.zero_sum:
            out["zero_sum"] = True
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "Config":
        if not isinstance(obj, dict):
            raise ValueError("a configuration is a JSON object")
        for key in ("space", "X", "Y", "p"):
            if key not in obj:
                raise ValueError(f"config object needs field {key!r}")
        space = space_from_json(obj["space"])
        x = FiniteDist.from_json(obj["X"], space=space)
        y = FiniteDist.from_json(obj["Y"], space=space)
        zero_sum = obj.get("zero_sum", False)
        if not isinstance(zero_sum, bool):
            raise ValueError(f"field 'zero_sum' must be true or false; got {zero_sum!r}")
        return cls(space, x, y, json_number(obj, "p"), zero_sum)


# --------------------------------------------------------------------------
# Moment functionals
# --------------------------------------------------------------------------

def mixture(x: FiniteDist, y: FiniteDist) -> FiniteDist:
    """Half-and-half mixture of two laws; coinciding atoms are merged by
    exact equality only.

    The atoms are X's rows, then each Y row not equal to an earlier row; a Y
    row equal to an earlier one adds its mass to that row's, in Y order.
    """
    if x.space != y.space:
        raise ValueError("mixture requires a shared space")
    rows = x.stack.concat(y.stack).array
    nx, n = len(x.stack), len(rows)
    equal = (rows[nx:, None] == rows[None]).reshape(n - nx, n, -1).all(axis=-1)
    first = equal.argmax(axis=1)             # every row equals itself
    new = first == np.arange(nx, n)
    slot = np.arange(n)                      # each row's index in the mixture
    y_slot = slot[nx:]
    y_slot[new] = nx + np.arange(np.count_nonzero(new))
    y_slot[~new] = slot[first[~new]]         # an X row or an earlier new Y row
    probs = 0.5 * np.concatenate([x.probs, y.probs[new]])
    np.add.at(probs, y_slot[~new], 0.5 * y.probs[~new])
    kept = np.concatenate([np.arange(nx), nx + np.flatnonzero(new)])
    return FiniteDist(x.space, x.stack.with_array(rows[kept]), probs)


def _moment(a: np.ndarray, block: np.ndarray, b: Optional[np.ndarray] = None) -> float:
    """The one reduction of a block of d(x, y)^p values to a moment, a @ block
    @ b or, for one column, a @ block: numpy's matmul on a contiguous copy, so
    that a view into a larger matrix sums as its own kernel call's block."""
    block = np.ascontiguousarray(block)
    return float(a @ block if b is None else a @ block @ b)


def cross_moment(x: FiniteDist, y: FiniteDist, p: float) -> float:
    """E d(X, Y)^p for independent X, Y as an exact double sum."""
    if x.space != y.space:
        raise ValueError("cross_moment requires a shared space")
    return _moment(x.probs, pairwise_powered(x.space, x.stack, y.stack, p), y.probs)


def self_moment(x: FiniteDist, p: float) -> float:
    """E d(X, X')^p over an independent copy X'."""
    return cross_moment(x, x, p)


def mean_row(x: FiniteDist) -> np.ndarray:
    """Entrywise expectation probs . stack.array, as one stack row; rejects
    nonlinear space kinds."""
    if not is_linear(x.space):
        raise TypeError(f"mean undefined on {type(x.space).__name__}")
    return stack_mean(x.stack, x.probs)


def stack_mean(stack: AtomStack, probs: np.ndarray) -> np.ndarray:
    """Entrywise expectation probs . stack.array of rows on a linear space
    kind, as one stack row."""
    a = stack.array
    if isinstance(stack.space, RealLine):
        return np.dot(probs, a)
    # the one dot product of np.tensordot(probs, a, axes=1), without its
    # axis bookkeeping
    return np.dot(probs.reshape(1, -1), a.reshape(len(a), -1)).reshape(a.shape[1:])


def _mixture_center(xs: AtomStack, xp: np.ndarray, ys: AtomStack,
                    yp: np.ndarray) -> AtomStack:
    """The mixture's center (E[X] + E[Y]) / 2 of two laws on a linear kind,
    given by their stacks and probabilities, as a checked one-row stack."""
    z = (0.5 * (stack_mean(xs, xp) + stack_mean(ys, yp)))[None]
    _check_rows(xs.space, z)
    return xs._sharing(z)


def mean(x: FiniteDist) -> Point:
    """Entrywise expectation as a point; rejects nonlinear space kinds."""
    return x.stack.with_array(mean_row(x)[None]).points()[0]


def centered_moment(x: FiniteDist, p: float) -> float:
    """E d(X, E[X])^p."""
    m = x.stack.with_array(mean_row(x)[None])
    return _moment(x.probs, pairwise_powered(x.space, x.stack, m, p)[:, 0])


def log_cross_moment(x: FiniteDist, y: FiniteDist) -> float:
    """E log d(X, Y); -inf when a coinciding atom pair carries positive mass."""
    if x.space != y.space:
        raise ValueError("log_cross_moment requires a shared space")
    d = pairwise_powered(x.space, x.stack, y.stack, 1.0)
    joint = np.outer(x.probs, y.probs)
    live = joint > 0
    if np.any(live & (d == 0.0)):
        return float("-inf")
    logs = np.where(live, np.log(np.where(live, d, 1.0)), 0.0)
    return float((joint * logs).sum())
