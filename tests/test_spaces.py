import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_point
from momentmoduli import spaces
from momentmoduli.constructions import make_jensen
from momentmoduli.distributions import FiniteDist, cross_moment
from momentmoduli.moduli import jensen_ratio
from momentmoduli.spaces import (
    INF,
    AtomStack,
    BipartiteGraph,
    CMatrix,
    CVector,
    GraphVertex,
    ParallelogramS1,
    RealLine,
    Schatten,
    Snowflake,
    SpaceMismatchError,
    WeightedLq,
    distance,
    pairwise_powered,
    space_from_json,
    space_to_json,
    stack_points,
)

ALL_SPACES = [
    WeightedLq(1.0),
    WeightedLq(2.5),
    WeightedLq(INF),
    Schatten(1.0),
    Schatten(3.0),
    ParallelogramS1(2),
    Snowflake(WeightedLq(2.0), 0.5),
    BipartiteGraph(3),
    RealLine(),
]


# norms as distances from zero, through the batched kernel

def lq_norm(x, q):
    return distance(WeightedLq(q), x, CVector.zeros(x.dim, x.weights))


def schatten_norm(a, q):
    return distance(Schatten(q), a, CMatrix(np.zeros_like(a.entries)))


# ---------------------------------------------------------------- lq norm

def test_lq_sup_norm_of_alternating_vector():
    n = 3
    x = CVector(np.array([2 * n, -2 * n] * n, dtype=complex))
    assert lq_norm(x, INF) == 2 * n


def test_lq_norm_zero_vector():
    for q in (1.0, 2.0, 7.5, INF):
        assert lq_norm(CVector.zeros(5), q) == 0.0


def test_lq_norm_fn_pair_difference():
    # difference of the two extremal families' atoms at n = 2 under l_3
    x = CVector(np.array([4, -4, -4, 4], dtype=complex))
    assert lq_norm(x, 3.0) == pytest.approx(4 * 4 ** (1 / 3), rel=1e-14)


def test_lq_norm_rejects_bad_q_and_dead_weights():
    x = CVector(np.ones(3))
    with pytest.raises(ValueError):
        lq_norm(x, 0.5)
    dead = CVector(np.ones(3), np.zeros(3))
    with pytest.raises(ValueError):
        lq_norm(dead, INF)


@settings(max_examples=60, deadline=None)
@given(st.floats(-30, 30), st.floats(-30, 30),
       st.sampled_from([1.0, 1.7, 2.0, 4.0, INF]))
def test_lq_norm_homogeneous(re, im, q):
    lam = complex(re, im)
    x = CVector(np.array([1.0 + 2.0j, -0.5, 3.0j]), np.array([0.2, 1.0, 2.0]))
    lx = CVector(lam * x.entries, x.weights)
    assert lq_norm(lx, q) == pytest.approx(abs(lam) * lq_norm(x, q),
                                           rel=1e-12, abs=1e-12)


def test_weighted_lq_reduces_to_plain_lq():
    rng = np.random.default_rng(0)
    v = rng.normal(size=6) + 1j * rng.normal(size=6)
    x = CVector(v)
    for q in (1.0, 2.0, 3.5):
        assert lq_norm(x, q) == pytest.approx(
            float((np.abs(v) ** q).sum() ** (1 / q)), rel=1e-14)


# ---------------------------------------------------------------- schatten

def test_schatten_identity_and_diagonal():
    assert schatten_norm(CMatrix(np.eye(3)), 1.0) == pytest.approx(3.0, abs=1e-12)
    assert schatten_norm(CMatrix(np.diag([3.0, 4.0])), 2.0) == pytest.approx(5.0, abs=1e-12)


def test_schatten_planted_singular_values():
    # oracle: plant sigma = (1, 2, 0, 0) through explicit unitaries
    rng = np.random.default_rng(11)
    u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    v, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    a = CMatrix(u @ np.diag([1.0, 2.0, 0.0, 0.0]) @ v.conj().T)
    # the SVD takes no square root of the Gram spectrum, so zero singular
    # values cost no digits
    assert schatten_norm(a, 1.0) == pytest.approx(3.0, abs=1e-12)


def test_schatten_trace_norm_keeps_small_singular_values():
    rng = np.random.default_rng(12)
    u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    v, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    sigma = np.array([1.0, 1e-6, 1e-10, 1e-12])
    a = CMatrix(u @ np.diag(sigma) @ v.conj().T)
    assert schatten_norm(a, 1.0) == pytest.approx(sigma.sum(), rel=1e-14)


def test_schatten_frobenius_matches():
    rng = np.random.default_rng(3)
    for m in (1, 2, 5, 9):
        x = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        ref = float(np.linalg.norm(x))
        assert schatten_norm(CMatrix(x), 2.0) == pytest.approx(ref, rel=1e-10)


def test_schatten_rejects_nonfinite():
    with pytest.raises(ValueError):
        CMatrix(np.array([[np.nan, 0], [0, 1]]))


# ---------------------------------------------------------------- parallelogram

def test_parallelogram_basis_anchors():
    n = 3
    dim = 2 * n
    e0 = CVector.basis(0, dim)
    e1 = CVector.basis(1, dim)
    ie = CVector.basis(n, dim, scale=1j)
    sp = ParallelogramS1(n)
    assert distance(sp, e0, e1) == pytest.approx(math.sqrt(2), rel=1e-14)
    assert distance(sp, e0, ie) == pytest.approx(1.0, rel=1e-14)
    assert distance(sp, e0, e0) == 0.0


def test_parallelogram_sandwich_and_phase_invariance(rng):
    n = 2
    for _ in range(300):
        a = random_point(ParallelogramS1(n), rng)
        b = random_point(ParallelogramS1(n), rng)
        d = distance(ParallelogramS1(n), a, b)
        l2 = float(np.linalg.norm(a.entries - b.entries))
        assert l2 / math.sqrt(2) - 1e-12 <= d <= l2 + 1e-12
        ia = CVector(1j * (a.entries - b.entries))
        zero = CVector.zeros(2 * n)
        assert distance(ParallelogramS1(n), ia, zero) == pytest.approx(d, rel=1e-12)


def test_parallelogram_rejects_mismatched_lengths():
    with pytest.raises(SpaceMismatchError, match="length 2n"):
        distance(ParallelogramS1(2), CVector.zeros(4), CVector.zeros(6))


# ---------------------------------------------------------------- dispatch

def test_bipartite_distances():
    g = BipartiteGraph(3)
    assert distance(g, GraphVertex("L", 0), GraphVertex("R", 1)) == 1.0
    assert distance(g, GraphVertex("L", 0), GraphVertex("L", 2)) == 2.0
    assert distance(g, GraphVertex("R", 1), GraphVertex("R", 1)) == 0.0


def test_snowflake_examples():
    assert distance(Snowflake(RealLine(), 0.5), 0.0, 4.0) == 2.0
    sp = Snowflake(WeightedLq(1.0), 0.5)
    a = CVector(np.array([1.0 + 0j]))
    b = CVector(np.array([0.0 + 0j]))
    assert distance(sp, a, b) == 1.0


def test_snowflake_single_power_call():
    # distances through a snowflake are bitwise the base distance to alpha*p
    rng = np.random.default_rng(9)
    base = WeightedLq(2.0)
    snow = Snowflake(base, 0.37)
    xs = [random_point(base, rng) for _ in range(4)]
    ys = [random_point(base, rng) for _ in range(3)]
    p = 1.9
    assert np.array_equal(pairwise_powered(snow, xs, ys, p),
                          pairwise_powered(base, xs, ys, 0.37 * p))


def test_point_space_mismatch_rejected():
    with pytest.raises(SpaceMismatchError):
        distance(WeightedLq(2.0), 1.0, 2.0)
    with pytest.raises(SpaceMismatchError):
        distance(RealLine(), CVector.zeros(2), CVector.zeros(2))
    with pytest.raises(SpaceMismatchError):
        stack_points(BipartiteGraph(2), [GraphVertex("L", 5)])


@pytest.mark.parametrize("space", ALL_SPACES, ids=str)
def test_triangle_inequality_seeded(space):
    rng = np.random.default_rng(abs(hash(str(space))) % 2 ** 31)
    for _ in range(1000):
        x = random_point(space, rng)
        y = random_point(space, rng)
        z = random_point(space, rng)
        dxy = distance(space, x, y)
        dyz = distance(space, y, z)
        dxz = distance(space, x, z)
        scale = max(1.0, dxy + dyz)
        assert dxz <= dxy + dyz + 1e-9 * scale


def test_space_json_roundtrip():
    for space in ALL_SPACES:
        assert space_from_json(space_to_json(space)) == space
    assert space_from_json({"kind": "weighted_lq", "q": "inf"}) == WeightedLq(INF)
    with pytest.raises(ValueError):
        space_from_json({"kind": "nope"})


def test_sup_norm_ignores_dead_coordinates():
    x = CVector(np.array([100.0, 2.0, 3.0], dtype=complex),
                np.array([0.0, 1.0, 1.0]))
    assert lq_norm(x, INF) == 3.0


def test_construction_does_not_freeze_caller_arrays():
    buf = np.zeros(3, dtype=complex)
    CVector(buf)
    buf[0] = 1.0  # caller's array stays writable
    m = np.zeros((2, 2), dtype=complex)
    CMatrix(m)
    m[0, 0] = 1.0


# ---------------------------------------------------------------- stacks

@settings(max_examples=80, deadline=None)
@given(st.sampled_from(ALL_SPACES), st.integers(0, 2 ** 31 - 1),
       st.integers(1, 4), st.integers(1, 4), st.floats(0.1, 4.0))
def test_stacked_kernel_is_bitwise_the_point_list_kernel(space, seed, nx, ny, p):
    rng = np.random.default_rng(seed)
    dim = 2 if isinstance(space, Schatten) else 4
    xs = [random_point(space, rng, dim) for _ in range(nx)]
    ys = [random_point(space, rng, dim) for _ in range(ny)]
    plain = pairwise_powered(space, xs, ys, p)
    stacked = pairwise_powered(space, stack_points(space, xs), stack_points(space, ys), p)
    assert np.array_equal(stacked, plain)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            assert pairwise_powered(space, [x], [y], p)[0, 0] == plain[i, j]
    # a law rebuilt from its own stack has the same atoms and moments
    probs = rng.dirichlet(np.ones(nx))
    law = FiniteDist(space, tuple(xs), probs)
    again = FiniteDist(space, law.stack, probs)
    assert again.atoms == law.atoms
    assert cross_moment(again, law, p) == cross_moment(law, law, p)


def test_stack_checks_rows_on_construction_and_on_new_rows():
    with pytest.raises(ValueError, match="finite"):
        AtomStack(WeightedLq(2.0), np.array([[1.0, np.inf]]))
    with pytest.raises(SpaceMismatchError):
        AtomStack(RealLine(), np.array([0.0, np.nan]))
    with pytest.raises(SpaceMismatchError, match="length 2n"):
        AtomStack(ParallelogramS1(2), np.zeros((1, 3)))
    with pytest.raises(SpaceMismatchError, match="unit weights"):
        AtomStack(ParallelogramS1(1), np.zeros((1, 2)), np.array([1.0, 2.0]))
    with pytest.raises(SpaceMismatchError, match="out of range"):
        AtomStack(BipartiteGraph(2), np.array([[1, 2]]))
    s = AtomStack(WeightedLq(2.0), np.zeros((2, 3)), np.array([1.0, 2.0, 0.5]))
    with pytest.raises(ValueError, match="finite"):
        s.with_array(np.array([[0.0, np.nan, 0.0]]))
    with pytest.raises(ValueError, match="dimension"):
        s.with_array(np.zeros((2, 4)))
    t = s.with_array(np.ones((3, 3)))
    assert t.weights is s.weights and len(t) == 3
    assert not t.array.flags.writeable


def test_mismatched_dimensions_within_one_law_fail_on_construction():
    with pytest.raises(ValueError, match="share one dimension"):
        FiniteDist.uniform(WeightedLq(2.0), [CVector([1, 2]), CVector([1, 2, 3])])
    with pytest.raises(ValueError, match="share one dimension"):
        FiniteDist.uniform(Schatten(1.0), [CMatrix(np.eye(2)), CMatrix(np.eye(3))])


def test_mismatched_weights_within_one_law_fail_on_construction():
    with pytest.raises(ValueError, match="share weights"):
        FiniteDist.uniform(WeightedLq(2.0), [CVector([1, 2], [1.0, 1.0]),
                                             CVector([1, 2], [1.0, 2.0])])


def test_kernel_names_x_y_mismatch():
    with pytest.raises(ValueError, match="differ in dimension"):
        pairwise_powered(WeightedLq(2.0), [CVector([1, 2])], [CVector([1, 2, 3])], 1.0)
    with pytest.raises(ValueError, match="X and Y atoms must share weights"):
        pairwise_powered(WeightedLq(2.0), [CVector([1, 2], [1.0, 2.0])],
                         [CVector([1, 2])], 1.0)


# ------------------------------------------------ l_q over- and underflow

def test_lq_large_q_does_not_overflow():
    d = distance(WeightedLq(2000.0), CVector([3, 0]), CVector([0, 0]))
    assert d == 3.0
    # a weightless coordinate neither overflows nor counts
    x = CVector([1e300, 3.0], [0.0, 1.0])
    assert distance(WeightedLq(2.0), x, CVector([0, 0], [0.0, 1.0])) == 3.0


@pytest.mark.parametrize("q", [2.0, 3.0])
def test_lq_tiny_difference_does_not_underflow(q):
    assert distance(WeightedLq(q), CVector([1e-200]), CVector([0])) == 1e-200
    d = distance(WeightedLq(q), CVector([3e-200, 4e-200]), CVector([0, 0]))
    ref = 1e-200 * distance(WeightedLq(q), CVector([3, 4]), CVector([0, 0]))
    assert d == pytest.approx(ref, rel=1e-15)


@pytest.mark.parametrize("space", [WeightedLq(1.5), Schatten(1.5)], ids=["lq", "schatten"])
@pytest.mark.parametrize("k", [498, -498])
def test_lq_powers_far_from_unit_size_keep_their_precision(space, k):
    # s^(p/q) on the plain sum s of q-th powers, here about 2^(+-747),
    # multiplies the rounding of p/q by |ln s|: about 175 ulps off
    rng = np.random.default_rng(3)
    shape = (3,) if isinstance(space, WeightedLq) else (2, 2)
    e = rng.normal(size=(4,) + shape) + 1j * rng.normal(size=(4,) + shape)
    f = rng.normal(size=(3,) + shape) + 1j * rng.normal(size=(3,) + shape)
    unit = pairwise_powered(space, AtomStack(space, e), AtomStack(space, f), 2.0)
    far = pairwise_powered(space, AtomStack(space, e * 2.0 ** k),
                           AtomStack(space, f * 2.0 ** k), 2.0)
    assert np.all(np.abs(far / np.ldexp(unit, 2 * k) - 1.0) <= 16 * 2.0 ** -52)


def test_lq_ordinary_values_take_the_unscaled_path():
    # the rescaled path is only for sums outside [2^-64, 2^64]: on ordinary
    # inputs the kernel is the plain weighted sum of q-th powers
    rng = np.random.default_rng(3)
    e = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
    w = np.array([0.5, 1.0, 2.0, 0.0])
    xs = [CVector(row, w) for row in e]
    for q, p in ((1.0, 1.0), (2.0, 1.5), (7.0, 3.0)):
        ref = ((np.abs(e[:, None, :] - e[None, :, :]) ** q * w).sum(axis=-1)) ** (p / q)
        assert np.array_equal(pairwise_powered(WeightedLq(q), xs, xs, p), ref)


# ------------------------------ Schatten and parallelogram over- and underflow

def test_schatten_extreme_magnitudes_neither_overflow_nor_vanish():
    sp = Schatten(2.0)
    assert distance(sp, CMatrix([[1e-200]]), CMatrix([[0]])) == 1e-200
    assert distance(sp, CMatrix(np.diag([1e200, 0.0])), CMatrix(np.zeros((2, 2)))) == 1e200


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_parallelogram_extreme_magnitudes_neither_overflow_nor_vanish(scale):
    sp = ParallelogramS1(1)
    zero = CVector([0, 0])
    assert distance(sp, CVector([scale, 0]), zero) == scale
    d = distance(sp, CVector([3 * scale, 4j * scale]), zero)
    assert d == pytest.approx(scale * distance(sp, CVector([3, 4j]), zero), rel=1e-15)


def test_parallelogram_ordinary_values_take_the_unscaled_path():
    # the rescaled path is only for squared lengths outside [1e-100, 1e100]:
    # on ordinary inputs the kernel is the plain closed form
    rng = np.random.default_rng(5)
    e = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
    c = e[:, None, :] - e[None, :, :]
    rr = (c.real ** 2).sum(axis=-1)
    ii = (c.imag ** 2).sum(axis=-1)
    lam = np.sqrt(np.clip(rr * ii - (c.real * c.imag).sum(axis=-1) ** 2, 0.0, None))
    ref = 0.5 * (np.sqrt(rr + ii + 2.0 * lam) + np.sqrt(np.clip(rr + ii - 2.0 * lam, 0.0, None)))
    xs = [CVector(row) for row in e]
    assert np.array_equal(pairwise_powered(ParallelogramS1(2), xs, xs, 1.5), ref ** 1.5)


# ------------------------------------------------------------ row blocks

@pytest.fixture(params=[7, 10, 64])
def small_blocks(request, monkeypatch):
    # blocks of a few entries, so that stacks of a few atoms cross several
    # row blocks; at 10 and 64 the last block of some kinds is a short one
    monkeypatch.setattr(spaces, "_BLOCK_ENTRIES", request.param)


def _one_pair_matrix(space, xs, ys, p):
    return np.array([[pairwise_powered(space, [x], [y], p)[0, 0] for y in ys.points()]
                     for x in xs.points()])


@pytest.mark.parametrize("space", [RealLine(), WeightedLq(1.0), WeightedLq(3.0),
                                   WeightedLq(INF), Schatten(2.0), ParallelogramS1(1),
                                   Snowflake(WeightedLq(2.0), 0.5), BipartiteGraph(3)],
                         ids=str)
def test_row_blocks_are_bitwise_the_one_pair_kernel(space, small_blocks):
    rng = np.random.default_rng(17)
    weights = np.array([1.0, 0.0, 2.0]) if isinstance(space, (WeightedLq, Snowflake)) else None
    dim = 2 if isinstance(space, Schatten) else 3
    xs, ys = (stack_points(space, [random_point(space, rng, dim, weights) for _ in range(n)])
              for n in (7, 4))
    for a, b in ((xs, xs), (xs, ys)):
        assert np.array_equal(pairwise_powered(space, a, b, 1.5), _one_pair_matrix(space, a, b, 1.5))
    m = pairwise_powered(space, xs, xs, 1.5)
    assert not np.diagonal(m).any()
    if not isinstance(space, Schatten):     # Schatten computes both triangles
        assert np.array_equal(m, m.T)


def test_rescued_rows_in_later_blocks_keep_their_values(small_blocks):
    # the extreme-magnitude inputs above, after three ordinary rows
    rng = np.random.default_rng(23)
    lq_rows = [[1e300, 3.0, 0.0], [0.0, 1e-200, 0.0], [0.0, 1e200, 0.0], [0.0, 3e-200, 4e-200]]
    cases = [
        (WeightedLq(2.0), np.array([0.0, 1.0, 1.0]), (3,), lq_rows, [3.0, 1e-200, 1e200]),
        (Schatten(2.0), None, (2, 2),
         [np.diag([1e-200, 0.0]), np.diag([1e200, 0.0])], [1e-200, 1e200]),
        (ParallelogramS1(1), None, (2,),
         [[1e-200, 0.0], [1e200, 0.0], [3e-200, 4e-200j]], [1e-200, 1e200]),
    ]
    for space, w, shape, extreme, exact in cases:
        ordinary = rng.normal(size=(3,) + shape) + 1j * rng.normal(size=(3,) + shape)
        xs = AtomStack(space, np.concatenate([ordinary, np.array(extreme)]), w)
        ys = xs.with_array(np.concatenate([np.zeros((1,) + shape), ordinary[:1]]))
        m = pairwise_powered(space, xs, ys, 1.0)
        assert np.array_equal(m, _one_pair_matrix(space, xs, ys, 1.0))
        assert m[3:3 + len(exact), 0].tolist() == exact
        assert np.array_equal(pairwise_powered(space, xs, xs, 1.0),
                              _one_pair_matrix(space, xs, xs, 1.0))


def test_blocked_sup_norm_with_no_positive_weight_raises(small_blocks):
    xs = AtomStack(WeightedLq(INF), np.ones((6, 3)), np.zeros(3))
    with pytest.raises(ValueError, match="positive weight"):
        pairwise_powered(WeightedLq(INF), xs, xs, 1.0)


def test_large_self_moments_take_little_memory():
    # the whole (200, 200, 128) difference array and its temporaries took a
    # peak of 123 MB; row blocks keep it near 2 MB
    nc = make_jensen("rademacher", p=2.0, n=100, q=3.0)
    tracemalloc.start()
    try:
        value = jensen_ratio(nc.config.X, nc.config.p).value
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == 2.514643678791849
    assert peak < 16e6
