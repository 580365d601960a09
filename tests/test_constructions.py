import math

import numpy as np
import pytest

from momentmoduli.cli import _CONSTRUCTIONS
from momentmoduli.constructions import (
    computed_ratio,
    make_bipartite,
    make_disjoint_bernoulli,
    make_eps_atom,
    make_fn,
    make_jensen,
    make_schatten_parallelogram,
    make_two_point,
    verify_construction,
)
from momentmoduli.distributions import FiniteDist, cross_moment, self_moment
from momentmoduli.spaces import INF, CVector, GraphVertex, distance

# ---------------------------------------------------------------- fn family


def test_fn_atoms_are_zero_sum_exactly():
    for n in (2, 3, 7):
        nc = make_fn(n, INF, 1.0)
        for dist in (nc.config.X, nc.config.Y):
            for atom in dist.atoms:
                assert atom.entries.real.sum() == 0.0
                assert atom.entries.imag.sum() == 0.0


def test_fn_predictions_sup_norm():
    assert make_fn(2, INF, 1.0).predicted == pytest.approx(2.0)
    assert make_fn(5, INF, 2.0).predicted == pytest.approx(3.38)


def test_fn_finite_q_prediction_value():
    nc = make_fn(3, 3.0, 3.0)
    assert nc.predicted == pytest.approx(2 * 596 / 1296, rel=1e-14)
    assert nc.prediction_kind == "lower_bound"


def test_fn_finite_q_brute_force_u_grid():
    # oracle: the symmetrized objective as a function of the scalar u is
    # minimized at u = 0 (convexity); scan a grid to confirm before trusting
    # the closed form
    n, q, p = 3, 3.0, 3.0

    def g(u):
        a = (abs(3 * n - 2 - u) ** q + (n - 1) * abs(n + 2 + u) ** q
             + n * abs(n - 2 + u) ** q) ** (p / q)
        b = (abs(3 * n - 2 + u) ** q + (n - 1) * abs(n + 2 - u) ** q
             + n * abs(n - 2 - u) ** q) ** (p / q)
        return a + b

    grid = np.linspace(-10, 10, 4001)
    values = [g(u) for u in grid]
    assert min(values) >= g(0.0) - 1e-9
    predicted = g(0.0) / (2 * n) ** (p * (q + 1) / q)
    assert make_fn(n, q, p).predicted == pytest.approx(predicted, rel=1e-12)


def test_fn_lower_bound_verified_by_solver():
    out = verify_construction(make_fn(3, 3.0, 2.0))
    assert out.ok
    assert out.computed >= out.construction.predicted - 1e-7


def test_fn_permutation_invariance():
    # permuting each half's coordinates by any pair of permutations leaves
    # every moment unchanged
    rng = np.random.default_rng(5)
    nc = make_fn(4, INF, 2.0)
    n = 4

    def permute(dist, sigma, rho):
        atoms = []
        for a in dist.atoms:
            e = a.entries
            ne = np.concatenate([e[:n][sigma], e[n:][rho]])
            atoms.append(CVector(ne, a.weights))
        return FiniteDist(dist.space, tuple(atoms), dist.probs.copy())

    for _ in range(5):
        sigma = rng.permutation(n)
        rho = rng.permutation(n)
        px = permute(nc.config.X, sigma, rho)
        py = permute(nc.config.Y, sigma, rho)
        for p in (1.0, 2.0):
            assert cross_moment(px, py, p) == pytest.approx(
                cross_moment(nc.config.X, nc.config.Y, p), rel=1e-12)
            assert self_moment(px, p) == pytest.approx(
                self_moment(nc.config.X, p), rel=1e-12)


def test_fn_rejects_small_n():
    with pytest.raises(ValueError):
        make_fn(1, INF, 1.0)


# ---------------------------------------------------------------- bipartite

def test_bipartite_predictions():
    assert make_bipartite(1, 1.0).predicted == 1.0
    assert make_bipartite(4, 2.0).predicted == 4.0
    assert make_bipartite(100, 1.0).predicted == pytest.approx(2.98)


@pytest.mark.parametrize("n,p", [(1, 1.0), (2, 2.0), (4, 2.0), (100, 3.0)])
def test_bipartite_verifies(n, p):
    assert verify_construction(make_bipartite(n, p)).ok


# ---------------------------------------------------------------- bernoulli

def test_disjoint_bernoulli_pairwise_distances_exact():
    nc = make_disjoint_bernoulli(5, 3.0, 2.0)
    space = nc.config.space
    xs = nc.config.X.atoms
    ys = nc.config.Y.atoms
    within = 2.0 ** ((3.0 - 1.0) / 3.0)
    across = 2.0 ** (1.0 / 3.0)
    for i in range(5):
        for j in range(5):
            if i != j:
                assert distance(space, xs[i], xs[j]) == pytest.approx(within, rel=1e-15)
            assert distance(space, xs[i], ys[j]) == pytest.approx(across, rel=1e-15)


@pytest.mark.parametrize("n,q,p", [(8, 2.0, 2.0), (1, 2.0, 2.0), (8, 4.0, 4.0),
                                   (3, 1.0, 1.0)])
def test_disjoint_bernoulli_verifies(n, q, p):
    assert verify_construction(make_disjoint_bernoulli(n, q, p)).ok


def test_disjoint_bernoulli_bounds_n():
    with pytest.raises(ValueError):
        make_disjoint_bernoulli(15, 2.0, 1.0)


# ---------------------------------------------------------------- jensen

def test_jensen_two_point_prediction():
    assert make_jensen("two_point", p=3.0).predicted == 4.0


def test_jensen_eps_prediction_is_exactly_two_at_p_two():
    # the eps family's ratio is identically 2 at p = 2 (variance identity)
    nc = make_jensen("eps", p=2.0, eps=0.01)
    assert nc.predicted == pytest.approx(2.0, rel=1e-14)
    assert verify_construction(nc).ok


def test_jensen_eps_rejects_bad_eps():
    with pytest.raises(ValueError):
        make_jensen("eps", p=2.0, eps=1.5)


@pytest.mark.parametrize("kind,kw", [
    ("two_point", dict(p=1.0)),
    ("two_point", dict(p=3.0)),
    ("eps", dict(p=2.0, eps=0.01)),
    ("eps", dict(p=3.0, eps=0.2)),
    ("basis", dict(p=2.0, n=10, q=2.0)),
    ("basis", dict(p=1.5, n=7, q=3.0)),
    ("rademacher", dict(p=3.0, n=10, q=3.0)),
    ("rademacher", dict(p=2.0, n=200, q=1.5)),
])
def test_jensen_families_verify(kind, kw):
    out = verify_construction(make_jensen(kind, **kw))
    assert out.ok, (kind, kw, out.computed, out.construction.predicted)


def test_rademacher_realization_distances():
    # pairwise-independent characters reproduce the i.i.d. pairwise geometry
    nc = make_jensen("rademacher", p=2.0, n=6, q=2.5)
    atoms = nc.config.X.atoms
    space = nc.config.space
    q = 2.5
    for i in range(0, 12, 2):
        assert distance(space, atoms[i], atoms[i + 1]) == pytest.approx(2.0, rel=1e-14)
    assert distance(space, atoms[0], atoms[2]) == pytest.approx(
        2.0 ** ((q - 1.0) / q), rel=1e-14)


# ---------------------------------------------------------------- schatten

@pytest.mark.parametrize("n,p", [(1, 2.0), (4, 2.0), (16, 1.0), (64, 1.0)])
def test_schatten_parallelogram_verifies(n, p):
    assert verify_construction(make_schatten_parallelogram(n, p)).ok


def test_schatten_parallelogram_enumeration_oracle():
    # oracle: direct moment enumeration for n = 4, p = 2
    nc = make_schatten_parallelogram(4, 2.0)
    num = (self_moment(nc.config.X, 2.0) + self_moment(nc.config.Y, 2.0))
    den = cross_moment(nc.config.X, nc.config.Y, 2.0)
    assert num / den == pytest.approx(3.0, rel=1e-12)
    assert nc.predicted == pytest.approx(3.0)


# ---------------------------------------------------------------- eps atom

def test_eps_atom_prediction_matches_1d_minimization_oracle():
    # oracle: golden-section-free dense scan of (1-e) r^p + e (1-r)^p
    for eps, p in ((0.5, 2.0), (0.1, 3.0), (0.25, 1.5)):
        grid = np.linspace(0.0, 1.0, 200001)
        single = np.min((1 - eps) * grid ** p + eps * (1 - grid) ** p)
        predicted_from_oracle = 2 * (2 * eps * (1 - eps)) / (2 * single)
        nc = make_eps_atom(eps, p)
        assert nc.predicted == pytest.approx(predicted_from_oracle, rel=1e-8)


def test_eps_atom_values():
    assert make_eps_atom(0.5, 2.0).predicted == pytest.approx(2.0, rel=1e-14)
    # (sqrt(.1) + sqrt(.9))^2 = 1 + 2 sqrt(0.09) = 1.6 exactly
    assert make_eps_atom(0.1, 3.0).predicted == pytest.approx(3.2, rel=1e-14)
    small = make_eps_atom(1e-6, 2.0)
    assert small.predicted == pytest.approx(2.0, abs=1e-5)


def test_eps_atom_verifies_through_solver():
    for eps, p in ((0.5, 2.0), (0.1, 3.0)):
        assert verify_construction(make_eps_atom(eps, p)).ok


def test_eps_atom_rejects_p_at_most_one():
    with pytest.raises(ValueError):
        make_eps_atom(0.1, 1.0)


# ---------------------------------------------------------------- generic

def test_exact_constructions_reproduce_predictions():
    cases = [
        make_fn(2, INF, 1.0),
        make_fn(4, INF, 3.0),
        make_bipartite(3, 2.0),
        make_disjoint_bernoulli(6, 2.5, 2.0),
        make_jensen("two_point", p=2.0),
        make_jensen("basis", p=2.0, n=5, q=2.0),
        make_jensen("rademacher", p=2.0, n=5, q=2.0),
        make_schatten_parallelogram(8, 2.0),
        make_two_point(1.5),
        make_eps_atom(0.3, 2.0),
    ]
    for nc in cases:
        out = verify_construction(nc)
        assert out.ok, (nc.id, nc.params, out.computed, nc.predicted)


def test_construction_ids_all_buildable():
    builders = {
        "fn_inf": lambda: make_fn(2, INF, 1.0),
        "fn_q": lambda: make_fn(2, 2.0, 1.0),
        "bipartite": lambda: make_bipartite(2, 1.0),
        "disjoint_bernoulli": lambda: make_disjoint_bernoulli(2, 2.0, 1.0),
        "jensen_two_point": lambda: make_jensen("two_point", p=1.0),
        "jensen_eps": lambda: make_jensen("eps", p=2.0, eps=0.5),
        "jensen_basis": lambda: make_jensen("basis", p=1.0, n=2, q=2.0),
        "jensen_rademacher": lambda: make_jensen("rademacher", p=1.0, n=2, q=2.0),
        "schatten_parallelogram": lambda: make_schatten_parallelogram(2, 1.0),
        "two_point": lambda: make_two_point(1.0),
        "eps_atom": lambda: make_eps_atom(0.5, 2.0),
    }
    # every id is reachable through a CLI construction name (fn_inf through
    # fn at q = inf)
    flags = {"n": 2, "q": 2.0, "eps": 0.5}
    via_cli = {build(p=2.0, **{f: flags[f] for f in needs}).id
               for build, needs in _CONSTRUCTIONS.values()}
    assert set(builders) == via_cli | {"fn_inf"}
    for cid, build in builders.items():
        nc = build()
        assert nc.id == cid
        assert math.isfinite(nc.predicted)
        assert math.isfinite(computed_ratio(nc))


# ------------------------------------------- stacks against per-atom points

def _fn_points(n):
    a, b = [], []
    for j in range(n):
        row = [-(n + 2)] * n + [n - 2] * n
        row[j] = 3 * n - 2
        a.append(CVector(np.array(row, dtype=complex)))
        row = [n - 2] * n + [-(n + 2)] * n
        row[n + j] = 3 * n - 2
        b.append(CVector(np.array(row, dtype=complex)))
    return a, b


def _disjoint_bernoulli_points(n):
    half, t = 2 ** n, np.arange(2 ** n)
    w = np.full(2 * half, 2.0 ** (-n))
    signs = [1.0 - 2.0 * ((t >> i) & 1) for i in range(n)]
    return ([CVector(np.concatenate([s, np.zeros(half)]), w) for s in signs],
            [CVector(np.concatenate([np.zeros(half), s]), w) for s in signs])


def _rademacher_points(n):
    k = max(1, math.ceil(math.log2(n + 1)))
    t = np.arange(2 ** k)
    w = np.full(2 ** k, 2.0 ** (-k))
    out = []
    for mask in range(1, n + 1):
        v = np.array([bin(int(x) & mask).count("1") % 2 for x in t])
        s = (1.0 - 2.0 * v).astype(complex)
        out += [CVector(s, w), CVector(-s, w)]
    return out


def _same_bits(dist, points):
    ref = FiniteDist.uniform(dist.space, points).stack
    return (dist.stack.array.tobytes() == ref.array.tobytes()
            and dist.stack.array.dtype == ref.array.dtype
            and np.array_equal(dist.stack.weights, ref.weights))


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_construction_stacks_are_the_per_atom_points_bit_for_bit(n):
    if n >= 2:
        nc = make_fn(n, INF, 1.0)
        a, b = _fn_points(n)
        assert _same_bits(nc.config.X, a) and _same_bits(nc.config.Y, b)
    nc = make_disjoint_bernoulli(n, 3.0, 2.0)
    a, b = _disjoint_bernoulli_points(n)
    assert _same_bits(nc.config.X, a) and _same_bits(nc.config.Y, b)
    basis = [CVector.basis(i, n, s) for i in range(n) for s in (1.0, -1.0)]
    assert _same_bits(make_jensen("basis", p=2.0, n=n, q=3.0).config.X, basis)
    assert _same_bits(make_jensen("rademacher", p=2.0, n=n, q=3.0).config.X,
                      _rademacher_points(n))
    nc = make_schatten_parallelogram(n, 1.0)
    assert _same_bits(nc.config.X, [CVector.basis(k, 2 * n) for k in range(n)])
    assert _same_bits(nc.config.Y, [CVector.basis(n + k, 2 * n, 1j) for k in range(n)])
    nc = make_bipartite(n, 2.0)
    assert _same_bits(nc.config.X, [GraphVertex("L", i) for i in range(n)])
    assert _same_bits(nc.config.Y, [GraphVertex("R", i) for i in range(n)])
