"""Normed and metric spaces over concrete finite-dimensional point types.

Every distance used anywhere in this package is computed here.  Supported
space kinds:

* ``WeightedLq(q)``   -- complex vectors with nonnegative coordinate weights
  under the weighted l_q norm (``q = inf`` means the weighted sup norm, i.e.
  the max over coordinates of positive weight).  Weights are the atom masses
  of an underlying finite measure space, so this realizes L_q of any finite
  measure space exactly.
* ``Schatten(q)``     -- square complex matrices under the Schatten-q norm
  (l_q norm of the singular values).
* ``ParallelogramS1(n)`` -- points of C^{2n} under the closed-form trace-norm
  distance ``(sqrt(|c|^2 + 2*Lambda(c)) + sqrt(|c|^2 - 2*Lambda(c))) / 2``
  where ``Lambda(c)`` is the area of the parallelogram spanned by the real
  and imaginary parts of ``c``.
* ``Snowflake(base, alpha)`` -- the metric transform d -> d**alpha.
* ``BipartiteGraph(n)``  -- the complete bipartite graph K_{n,n} with its
  shortest-path metric (0 / 1 / 2).
* ``RealLine``        -- scalars under the absolute value.

The atoms of one distribution live in an :class:`AtomStack`, one array whose
row values are checked there and nowhere else.  JSON atoms go straight into a
stack and back (``stack_from_json``, ``stack_to_json``); ``stack_points``
stacks point objects, checking only their type.  ``pairwise_powered`` runs
one batched kernel per space kind on two stacks, through ``_pairwise`` on
their checked arrays, and ``distance`` is its one-pair form.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

__all__ = [
    "SpaceMismatchError",
    "AtomStack",
    "stack_points",
    "CVector",
    "CMatrix",
    "GraphVertex",
    "WeightedLq",
    "Schatten",
    "ParallelogramS1",
    "Snowflake",
    "BipartiteGraph",
    "RealLine",
    "Space",
    "distance",
    "pairwise_powered",
    "is_linear",
    "space_to_json",
    "space_from_json",
    "json_number",
    "reject_json_bools",
    "stack_to_json",
    "stack_from_json",
]

INF = float("inf")


class SpaceMismatchError(TypeError):
    """A point does not belong to the space it was used with."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# --------------------------------------------------------------------------
# Point types
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CVector:
    """Complex vector with nonnegative per-coordinate weights.

    Equality and hashing are exact (bit-level on the underlying arrays):
    atom deduplication elsewhere must not be fuzzy.
    """

    entries: np.ndarray
    weights: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        # the checks of a one-row stack, on a private copy: freezing a
        # caller-owned array in place would leak the read-only flag back
        row = AtomStack(WeightedLq(1.0), [self.entries], self.weights)
        object.__setattr__(self, "entries", row.array[0])
        object.__setattr__(self, "weights", row.weights)

    @property
    def dim(self) -> int:
        return self.entries.size

    @classmethod
    def basis(cls, k: int, dim: int, scale: complex = 1.0,
              weights: Optional[np.ndarray] = None) -> "CVector":
        e = np.zeros(dim, dtype=complex)
        e[k] = scale
        return cls(e, weights)

    @classmethod
    def zeros(cls, dim: int, weights: Optional[np.ndarray] = None) -> "CVector":
        return cls(np.zeros(dim, dtype=complex), weights)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CVector)
            and np.array_equal(self.entries, other.entries)
            and np.array_equal(self.weights, other.weights)
        )

    def __hash__(self) -> int:
        return hash((self.entries.tobytes(), self.weights.tobytes()))


@dataclass(frozen=True, eq=False)
class CMatrix:
    """Square complex matrix (a Schatten-class element at desk scale)."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        # the checks of a one-matrix stack, on a private copy
        object.__setattr__(self, "entries", AtomStack(Schatten(1.0), [self.entries]).array[0])

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CMatrix) and np.array_equal(self.entries, other.entries)

    def __hash__(self) -> int:
        return hash(self.entries.tobytes())


@dataclass(frozen=True)
class GraphVertex:
    """Vertex of a complete bipartite graph: side 'L' or 'R' plus an index."""

    side: str
    index: int

    def __post_init__(self) -> None:
        if self.side not in ("L", "R"):
            raise ValueError("side must be 'L' or 'R'")
        if self.index < 0:
            raise ValueError("index must be nonnegative")


Point = Union[CVector, CMatrix, GraphVertex, float]


# --------------------------------------------------------------------------
# Space kinds
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightedLq:
    q: float

    def __post_init__(self) -> None:
        if not (self.q >= 1.0):
            raise ValueError("WeightedLq requires q >= 1 (q = inf allowed)")


@dataclass(frozen=True)
class Schatten:
    q: float

    def __post_init__(self) -> None:
        if not (1.0 <= self.q < INF):
            raise ValueError("Schatten requires 1 <= q < inf")


@dataclass(frozen=True)
class ParallelogramS1:
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("ParallelogramS1 requires n >= 1")


@dataclass(frozen=True)
class Snowflake:
    base: "Space"
    alpha: float

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError("Snowflake requires alpha in (0, 1]")


@dataclass(frozen=True)
class BipartiteGraph:
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("BipartiteGraph requires n >= 1")


@dataclass(frozen=True)
class RealLine:
    pass


Space = Union[WeightedLq, Schatten, ParallelogramS1, Snowflake, BipartiteGraph, RealLine]

_LINEAR_KINDS = (WeightedLq, Schatten, ParallelogramS1, RealLine)


def is_linear(space: Space) -> bool:
    """True for kinds supporting vector operations (means, barycenters)."""
    return isinstance(space, _LINEAR_KINDS)


# --------------------------------------------------------------------------
# Stacks: the checked form of a distribution's atoms
# --------------------------------------------------------------------------

def _base(space: Space) -> Space:
    while isinstance(space, Snowflake):
        space = space.base
    return space


def _check_rows(space: Space, a: np.ndarray) -> None:
    """The one check of row values: shape, finiteness, the 2n length of
    ParallelogramS1 rows and the side and range of graph vertices."""
    if a.ndim == 0 or a.shape[0] == 0:
        raise ValueError("a stack needs at least one atom")
    if isinstance(space, BipartiteGraph):
        if a.ndim != 2 or a.shape[1] != 2:
            raise ValueError("BipartiteGraph atoms stack as (n, 2) rows (is_L, index)")
        if not np.isin(a[:, 0], (0, 1)).all():
            raise ValueError("side must be 'L' or 'R'")
        if a[:, 1].min() < 0:
            raise ValueError("index must be nonnegative")
        if a[:, 1].max() >= space.n:
            raise SpaceMismatchError("vertex index out of range")
        return
    if isinstance(space, RealLine):
        if a.ndim != 1:
            raise ValueError("RealLine atoms stack as an (n,) array")
        if not np.isfinite(a).all():
            raise SpaceMismatchError("RealLine points must be finite")
        return
    if isinstance(space, Schatten):
        if a.ndim != 3 or a.shape[1] != a.shape[2] or a.shape[1] == 0:
            raise ValueError("CMatrix must be square and nonempty")
        if not np.isfinite(a).all():
            raise ValueError("CMatrix entries must be finite")
        return
    if a.ndim != 2 or a.shape[1] == 0:
        raise ValueError("vector atoms stack as an (n, d) array with d >= 1")
    if not np.isfinite(a).all():
        raise ValueError("CVector entries must be finite")
    if isinstance(space, ParallelogramS1) and a.shape[1] != 2 * space.n:
        raise SpaceMismatchError("ParallelogramS1 points have length 2n")


_STACK_DTYPES = {RealLine: float, BipartiteGraph: np.int64}


@functools.lru_cache(maxsize=None)
def _unit_weights(d: int) -> np.ndarray:
    # one shared object per dimension, so that laws with unit weights pass the
    # shared-weights check of the kernel by identity
    return _readonly(np.ones(d))


def _check_compatible(xs: "AtomStack", ys: "AtomStack") -> None:
    if xs.array.shape[1:] != ys.array.shape[1:]:
        raise ValueError("X and Y atoms differ in dimension: "
                         f"{xs.array.shape[1:]} vs {ys.array.shape[1:]}")
    if xs.weights is not ys.weights and not np.array_equal(xs.weights, ys.weights):
        raise ValueError("X and Y atoms must share weights")


@dataclass(frozen=True, eq=False)
class AtomStack:
    """The atoms of one distribution as one array, checked once when built.

    ``array`` holds one row per atom: ``(n, d)`` complex for WeightedLq and
    ParallelogramS1, with the shared weight vector ``weights`` (default all
    ones); ``(n, m, m)`` complex for Schatten; ``(n,)`` float for RealLine;
    ``(n, 2)`` integer rows ``(side is "L", index)`` for BipartiteGraph.
    ``space`` is the kind the rows were checked against (a Snowflake's base
    space).  Both arrays are private read-only copies.
    """

    space: Space
    array: np.ndarray
    weights: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        space = _base(self.space)
        if not isinstance(space, (WeightedLq, ParallelogramS1, Schatten, RealLine,
                                  BipartiteGraph)):
            raise SpaceMismatchError(f"unknown space kind {space!r}")
        a = np.array(self.array, dtype=_STACK_DTYPES.get(type(space), complex))
        _check_rows(space, a)
        w = None
        if isinstance(space, (WeightedLq, ParallelogramS1)):
            d = a.shape[1]
            w = _unit_weights(d)
            if self.weights is not None:
                given = np.array(self.weights, dtype=float)
                if given.shape != (d,):
                    raise ValueError("weights must match entries in length")
                if not np.all(np.isfinite(given)) or np.any(given < 0):
                    raise ValueError("weights must be finite and nonnegative")
                if not np.all(given == 1.0):
                    if isinstance(space, ParallelogramS1):
                        raise SpaceMismatchError("ParallelogramS1 points carry unit weights")
                    w = _readonly(given)
        elif self.weights is not None:
            raise ValueError(f"{type(space).__name__} atoms carry no weights")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "array", _readonly(a))
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return self.array.shape[0]

    def with_array(self, array: np.ndarray) -> "AtomStack":
        """A stack of new rows on this stack's space and weights.

        The rows get the same checks as on construction; the weights, already
        checked, are shared rather than checked again.
        """
        a = np.array(array, dtype=self.array.dtype)
        if a.shape[1:] != self.array.shape[1:]:
            raise ValueError("new rows must keep the atoms' dimension")
        _check_rows(self.space, a)
        return self._sharing(a)

    def _sharing(self, a: np.ndarray) -> "AtomStack":
        # a stack of the checked rows ``a`` (a private array) on this
        # stack's space and weights
        out = object.__new__(AtomStack)
        object.__setattr__(out, "space", self.space)
        object.__setattr__(out, "array", _readonly(a))
        object.__setattr__(out, "weights", self.weights)
        return out

    def concat(self, other: "AtomStack") -> "AtomStack":
        """The rows of this stack followed by those of ``other``; both were
        checked, so their rows are not checked again."""
        if other.space != self.space:
            raise SpaceMismatchError("stacks were checked on different spaces")
        _check_compatible(self, other)
        return self._sharing(np.concatenate([self.array, other.array]))

    def points(self) -> tuple:
        """The atoms as point objects."""
        a = self.array
        if isinstance(self.space, RealLine):
            return tuple(a.tolist())
        if isinstance(self.space, BipartiteGraph):
            return tuple(GraphVertex("L" if is_l else "R", index)
                         for is_l, index in a.tolist())
        if isinstance(self.space, Schatten):
            return tuple(CMatrix(m) for m in a)
        return tuple(CVector(row, self.weights) for row in a)


# the point type of each space kind, with the message for a point of another type
_POINT_TYPES = {
    WeightedLq: (CVector, "WeightedLq points are CVectors"),
    ParallelogramS1: (CVector, "ParallelogramS1 points are CVectors"),
    Schatten: (CMatrix, "Schatten points are CMatrix values"),
    BipartiteGraph: (GraphVertex, "BipartiteGraph points are GraphVertex values"),
    RealLine: ((int, float), "RealLine points are real scalars"),
}

_SIDES = {"L": 1, "R": 0}


def _vertex_rows(space: BipartiteGraph, pairs) -> np.ndarray:
    """``(is_L, index)`` rows from ``(side, index)`` pairs; a bad side becomes
    -1 and an index is clipped to [-1, n], which the row checks reject."""
    return np.array([(_SIDES.get(str(side), -1), min(max(index, -1), space.n))
                     for side, index in pairs], dtype=np.int64)


def _stack_rows(rows: list) -> np.ndarray:
    """One array from the per-atom arrays of one distribution."""
    shape = rows[0].shape
    if any(r.shape != shape for r in rows):
        raise ValueError("all atoms of one distribution must share one dimension; "
                         f"got shapes {sorted({r.shape for r in rows})}")
    return np.stack(rows)


def stack_points(space: Space, pts) -> AtomStack:
    """Stack point objects of the space's point type, sharing one shape and,
    for vector kinds, one weight vector, into one AtomStack on ``space``.  An
    AtomStack already checked on ``space`` is returned as it is.
    """
    base = _base(space)
    if isinstance(pts, AtomStack):
        if pts.space is not base and pts.space != base:
            raise SpaceMismatchError(
                f"atoms were checked on {pts.space!r}, not on {base!r}")
        return pts
    if type(base) not in _POINT_TYPES:
        raise SpaceMismatchError(f"unknown space kind {base!r}")
    if len(pts) == 0:
        raise ValueError("a stack needs at least one atom")
    kind, message = _POINT_TYPES[type(base)]
    for x in pts:
        if isinstance(x, bool) or not isinstance(x, kind):
            raise SpaceMismatchError(message)
    if isinstance(base, RealLine):
        return AtomStack(base, np.array(pts, dtype=float))
    if isinstance(base, BipartiteGraph):
        return AtomStack(base, _vertex_rows(base, [(v.side, v.index) for v in pts]))
    array = _stack_rows([x.entries for x in pts])
    if isinstance(base, Schatten):
        return AtomStack(base, array)
    w = pts[0].weights
    if not (np.stack([x.weights for x in pts]) == w).all():
        raise ValueError("all atoms of one distribution must share weights")
    return AtomStack(base, array, w)


def _lq_powered(absd: np.ndarray, w: np.ndarray, q: float, p: float) -> np.ndarray:
    """(sum_k w_k absd_k^q)^(p/q) over the last axis of nonnegative ``absd``.

    The rows whose sum s leaves [2^-64, 2^64] (it may overflow, or underflow
    to zero while a weighted entry is nonzero) are recomputed scaled by their
    largest weighted entry: s^(p/q) multiplies the rounding of p/q by |ln s|.
    """
    terms = absd ** q
    if w is not _unit_weights(w.size):      # x * 1.0 == x exactly
        terms *= w
    s = terms.sum(axis=-1)
    out = s ** (p / q)
    # cheap gate: every nonzero row sum is in the band (nan is not) and no
    # term underflowed to zero
    if (not s.max() <= 2.0 ** 64 or np.count_nonzero(s) != np.count_nonzero(s >= 2.0 ** -64)
            or np.count_nonzero(terms) != np.count_nonzero(absd)):
        live = np.where(w > 0, absd, 0.0)
        bad = ~(s <= 2.0 ** 64) | ((s < 2.0 ** -64) & live.any(axis=-1))
        live = live[bad]
        m = live.max(axis=-1)
        t = ((live / np.where(m > 0, m, 1.0)[:, None]) ** q * w).sum(axis=-1)
        out[bad] = m ** p * t ** (p / q)
    return out


def _parallelogram(c: np.ndarray):
    """(sqrt(|c|^2 + 2 L) + sqrt(|c|^2 - 2 L)) / 2 over the last axis of ``c``,
    with L the area of the parallelogram spanned by Re(c) and Im(c); also
    returns |c|^2.  The second radicand, >= 0 in exact arithmetic, is clamped
    at zero."""
    r = np.real(c)
    im = np.imag(c)
    rr = (r * r).sum(axis=-1)
    ii = (im * im).sum(axis=-1)
    s = rr + ii
    lam = np.sqrt(np.clip(rr * ii - (r * im).sum(axis=-1) ** 2, 0.0, None))
    return 0.5 * (np.sqrt(s + 2.0 * lam) + np.sqrt(np.clip(s - 2.0 * lam, 0.0, None))), s


# the most entries of the (rows, m, d) temporaries of one row block of
# pairwise_powered: 2^16 complex entries are 1 MiB, which stays in cache, so
# a kernel call's memory is its (n, m) result plus a few such blocks
_BLOCK_ENTRIES = 2 ** 16


def pairwise_powered(space: Space, xs, ys, p: float) -> np.ndarray:
    """Matrix of d(x, y)^p over xs x ys.

    ``xs`` and ``ys`` are :class:`AtomStack` values or plain sequences of
    points, which are checked and stacked first; the matrix itself comes from
    :func:`_pairwise` on the checked arrays.  The exponent is fused into a
    single power call per pair, so a Snowflake of exponent alpha delegates
    to the base space with exponent alpha * p.
    """
    if not (p > 0):
        raise ValueError("exponent p must be positive")
    if isinstance(space, Snowflake):
        return pairwise_powered(space.base, xs, ys, space.alpha * p)
    same = xs is ys
    xs = stack_points(space, xs)
    ys = xs if same else stack_points(space, ys)
    _check_compatible(xs, ys)
    return _pairwise(space, xs.array, ys.array, xs.weights, p)


@np.errstate(over="ignore", under="ignore", invalid="ignore")
def _pairwise(space: Space, e: np.ndarray, f: np.ndarray, w: Optional[np.ndarray],
              p: float) -> np.ndarray:
    """The matrix d(x, y)^p over the rows ``e`` x ``f`` of checked stacks on
    the base kind ``space``, with the vector kinds' shared weights ``w``; the
    one kernel path, which callers holding checked rows enter directly.

    A Schatten-q norm is the l_q norm of the singular values, so both kinds
    share one reduction: the pairs whose sum of q-th powers overflows, or
    underflows to zero while the points differ, are recomputed scaled by the
    pair's largest entry.  ParallelogramS1 pairs whose squared length leaves
    [1e-100, 1e100] are likewise recomputed scaled by their largest |c_k|.
    Numpy's float warnings are off: a power that truly overflows is inf,
    which the ratios report once.

    The kernel runs over row blocks of ``e`` whose temporaries hold at most
    ``_BLOCK_ENTRIES`` entries; a product that fits in one block is one
    call.  Every entry is computed per pair and reduced along its own last
    axis, so the blocks do not change a bit of it, nor does the rest of the
    call: an entry is the same in any call that holds its pair.  When
    ``e is f`` only the blocks on and above the diagonal are computed and the
    lower triangle is the upper one transposed: x - y = -(y - x) exactly, and
    abs, the parallelogram form and the graph metric are even in that sign.
    Schatten self pairs compute both triangles, since LAPACK does not promise
    that svd(-A) is svd(A) bit for bit.
    """
    n, m = len(e), len(f)
    width = m * f[0].size           # block entries per row of e
    if n * width <= _BLOCK_ENTRIES:
        return _powered(space, e, f, w, p)
    rows = max(1, _BLOCK_ENTRIES // width)
    upper = e is f and not isinstance(space, Schatten)
    out = np.empty((n, m))
    for a in range(0, n, rows):
        b = min(a + rows, n)
        lo = a if upper else 0
        out[a:b, lo:] = _powered(space, e[a:b], f[lo:], w, p)
        if upper:
            out[b:, a:b] = out[a:b, b:].T
    return out


def _powered(space: Space, e: np.ndarray, f: np.ndarray, w: Optional[np.ndarray],
             p: float) -> np.ndarray:
    """The matrix d(x, y)^p over the rows ``e`` x ``f`` of checked stacks on
    the base kind ``space``, with the vector kinds' shared weights ``w``."""
    if isinstance(space, RealLine):
        return np.abs(e[:, None] - f[None, :]) ** p

    if isinstance(space, WeightedLq):
        absd = np.abs(e[:, None, :] - f[None, :, :])
        if space.q == INF:
            mask = w > 0
            if not mask.any():
                raise ValueError("sup norm needs at least one positive weight")
            return absd[:, :, mask].max(axis=-1) ** p
        return _lq_powered(absd, w, space.q, p)

    if isinstance(space, Schatten):
        sv = np.linalg.svd(e[:, None] - f[None, :], compute_uv=False)
        return _lq_powered(sv, _unit_weights(sv.shape[-1]), space.q, p)

    if isinstance(space, ParallelogramS1):
        c = e[:, None, :] - f[None, :, :]
        # rr * ii overflows above the band and underflows below it; those
        # pairs are recomputed
        d, s = _parallelogram(c)
        bad = ~(s <= 1e100)
        tiny = s < 1e-100
        bad[tiny] = c[tiny].any(axis=-1)
        if bad.any():
            c = c[bad]
            m = np.abs(c).max(axis=-1)
            d[bad] = m * _parallelogram(c / m[:, None])[0]
        return d ** p

    # BipartiteGraph: rows are (side is "L", index)
    same_side = e[:, None, 0] == f[None, :, 0]
    same_vertex = same_side & (e[:, None, 1] == f[None, :, 1])
    d = np.where(same_vertex, 0.0, np.where(same_side, 2.0, 1.0))
    return d ** p


def distance(space: Space, x: Point, y: Point) -> float:
    """Distance between two points of ``space``."""
    return float(pairwise_powered(space, [x], [y], 1.0)[0, 0])


# --------------------------------------------------------------------------
# JSON forms
# --------------------------------------------------------------------------

def _q_to_json(q: float):
    return "inf" if q == INF else q


def json_number(obj: dict, key: str) -> float:
    """The numeric field ``key`` of a JSON object (``"inf"`` allowed);
    anything else (a list, object, null, boolean or non-numeric string)
    raises a ValueError that names the field."""
    v = obj[key]
    if not isinstance(v, bool):
        try:
            return float(v)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError(f"field {key!r} must be a number; got {v!r}")


def _reject_json(obj, field: str, kinds, what: str):
    todo = [obj]
    while todo:                 # no recursion: nesting depth is the input's
        v = todo.pop()
        if isinstance(v, kinds):
            raise ValueError(f"field {field!r} takes numbers, not {what}; got {v!r}")
        if isinstance(v, list):
            todo.extend(v)
    return obj


def reject_json_bools(obj, field: str):
    """``obj``, JSON read as numbers, unless it holds a boolean (in nested
    lists), which ``float`` and numpy read as 0 or 1: that raises a
    ValueError naming ``field``."""
    return _reject_json(obj, field, bool, "booleans")


def _reject_json_strings(obj, field: str):
    """``obj`` unless it holds a string (in nested lists), which ``float``
    and numpy read as the number it spells: that raises a ValueError naming
    ``field``."""
    return _reject_json(obj, field, str, "strings")


def _json_int(obj: dict, key: str) -> int:
    x = json_number(obj, key)
    if not x.is_integer():
        raise ValueError(f"field {key!r} must be an integer; got {obj[key]!r}")
    return int(x)


def space_to_json(space: Space) -> dict:
    if isinstance(space, WeightedLq):
        return {"kind": "weighted_lq", "q": _q_to_json(space.q)}
    if isinstance(space, Schatten):
        return {"kind": "schatten", "q": space.q}
    if isinstance(space, ParallelogramS1):
        return {"kind": "parallelogram_s1", "n": space.n}
    if isinstance(space, Snowflake):
        return {"kind": "snowflake", "base": space_to_json(space.base), "alpha": space.alpha}
    if isinstance(space, BipartiteGraph):
        return {"kind": "bipartite_graph", "n": space.n}
    if isinstance(space, RealLine):
        return {"kind": "real_line"}
    raise SpaceMismatchError(f"unknown space kind {space!r}")


def space_from_json(obj: dict) -> Space:
    try:
        kind = obj["kind"]
    except (TypeError, KeyError):
        raise ValueError("space object needs a 'kind' field") from None
    if kind == "weighted_lq":
        return WeightedLq(json_number(obj, "q"))
    if kind == "schatten":
        return Schatten(json_number(obj, "q"))
    if kind == "parallelogram_s1":
        return ParallelogramS1(_json_int(obj, "n"))
    if kind == "snowflake":
        return Snowflake(space_from_json(obj["base"]), json_number(obj, "alpha"))
    if kind == "bipartite_graph":
        return BipartiteGraph(_json_int(obj, "n"))
    if kind == "real_line":
        return RealLine()
    raise ValueError(f"unknown space kind {kind!r}")


def stack_to_json(stack: AtomStack) -> list:
    """The atoms of ``stack`` as the JSON list that ``stack_from_json`` reads."""
    a = stack.array
    if isinstance(stack.space, RealLine):
        return a.tolist()
    if isinstance(stack.space, BipartiteGraph):
        return [["L" if is_l else "R", index] for is_l, index in a.tolist()]
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _complex_from_pairs(obj, ndim: int) -> np.ndarray:
    """Complex array from nested ``[re, im]`` pairs, ``ndim`` levels deep."""
    try:
        a = np.asarray(obj, dtype=float)
    except (TypeError, ValueError):
        a = None
    if a is None or a.ndim != ndim + 1 or a.shape[-1] != 2:
        what = "schatten" if ndim == 2 else "vector"
        raise ValueError(f"{what} atoms are {'rows of ' * (ndim - 1)}lists of "
                         f"[re, im] pairs; got {repr(obj)[:60]}")
    # reinterpreting the (re, im) pairs keeps every bit, signed zeros included
    return np.ascontiguousarray(a).view(complex)[..., 0]


def _real_from_json(obj) -> float:
    try:
        return float(obj)
    except (TypeError, OverflowError):
        raise ValueError(f"real_line atoms are numbers; got {obj!r}") from None


def _vertex_from_json(obj) -> tuple:
    if isinstance(obj, list) and len(obj) == 2:
        side, index = obj
        if isinstance(index, int) or (isinstance(index, float) and index.is_integer()):
            return side, int(index)
    raise ValueError("graph 'atoms' are [side, index] pairs with an integer "
                     f"index; got {obj!r}")


def _weights_from_json(obj) -> np.ndarray:
    _reject_json_strings(reject_json_bools(obj, "weights"), "weights")
    try:
        return np.asarray(obj, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValueError("a distribution's 'weights' is a list of numbers; "
                         f"got {repr(obj)[:60]}") from None


def stack_from_json(space: Space, atoms: list, weights=None) -> AtomStack:
    """The AtomStack of one distribution's JSON atoms on ``space``: numbers on
    the real line, ``[side, index]`` pairs on a bipartite graph, ``[re, im]``
    pairs per coordinate (in rows, for Schatten) otherwise.  ``weights``, a
    JSON list of numbers or None, is the vector kinds' shared weight vector;
    the other kinds reject one.
    """
    base = _base(space)
    if weights is not None:
        weights = _weights_from_json(weights)
        if not isinstance(base, (WeightedLq, ParallelogramS1)):
            raise ValueError(f"{type(base).__name__} atoms carry no 'weights'")
    reject_json_bools(atoms, "atoms")
    if len(atoms) == 0:
        raise ValueError("a distribution needs at least one atom")
    if isinstance(base, BipartiteGraph):
        return AtomStack(base, _vertex_rows(base, [_vertex_from_json(a) for a in atoms]))
    _reject_json_strings(atoms, "atoms")
    if isinstance(base, RealLine):
        return AtomStack(base, [_real_from_json(a) for a in atoms])
    matrix = isinstance(base, Schatten)
    rows = _stack_rows([_complex_from_pairs(a, 2 if matrix else 1) for a in atoms])
    return AtomStack(base, rows, weights)
