import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_dist
from momentmoduli.distributions import (
    Config,
    FiniteDist,
    centered_moment,
    cross_moment,
    log_cross_moment,
    mean,
    mixture,
    self_moment,
)
from momentmoduli.constructions import make_bipartite, make_fn
from momentmoduli.spaces import (
    INF,
    BipartiteGraph,
    CMatrix,
    CVector,
    GraphVertex,
    RealLine,
    Schatten,
    Snowflake,
    WeightedLq,
)

RL = RealLine()


# ---------------------------------------------------------------- validation

def test_probs_must_sum_to_one():
    with pytest.raises(ValueError):
        FiniteDist(RL, (0.0, 1.0), np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        FiniteDist(RL, (0.0,), np.array([-1.0]))
    FiniteDist(RL, (0.0, 1.0), np.array([0.5, 0.5 + 5e-13]))  # inside tolerance


def test_atoms_validated_against_space():
    with pytest.raises(Exception):
        FiniteDist(WeightedLq(2.0), (1.0,), np.array([1.0]))


def test_config_requires_shared_space():
    x = FiniteDist.delta(RL, 0.0)
    y = FiniteDist.delta(WeightedLq(2.0), CVector.zeros(2))
    with pytest.raises(ValueError):
        Config(RL, x, y, 1.0)
    with pytest.raises(ValueError):
        Config(RL, x, x, 0.0)


@pytest.mark.parametrize("p", [INF, float("nan")])
def test_config_rejects_a_non_finite_exponent(p):
    x = FiniteDist.delta(RL, 0.0)
    with pytest.raises(ValueError, match="finite"):
        Config(RL, x, x, p)


# ---------------------------------------------------------------- mixture

def test_mixture_of_two_deltas():
    z = mixture(FiniteDist.delta(RL, 0.0), FiniteDist.delta(RL, 1.0))
    assert z.atoms == (0.0, 1.0)
    assert np.allclose(z.probs, [0.5, 0.5])


def test_mixture_idempotent():
    x = FiniteDist.uniform(RL, [0.0, 2.0])
    z = mixture(x, x)
    assert z.atoms == x.atoms
    assert np.allclose(z.probs, x.probs)


def test_mixture_merges_on_exact_equality_only():
    x = FiniteDist.uniform(RL, [0.0, 1.0])
    z = mixture(x, FiniteDist.delta(RL, 0.0))
    assert z.atoms == (0.0, 1.0)
    assert np.allclose(z.probs, [0.75, 0.25])
    near = FiniteDist.delta(RL, 1e-15)
    assert len(mixture(x, near).atoms) == 3


def _mixture_golden_laws(space):
    # X = (a0, a1, a2); Y = (b0, a1, b0, b1, a1): a shared atom, a repeated
    # Y atom, and a Y atom that repeats the shared one
    rng = np.random.default_rng(606)
    if isinstance(space, BipartiteGraph):
        a = [GraphVertex("L", 0), GraphVertex("R", 1), GraphVertex("L", 2)]
        b = [GraphVertex("R", 0), GraphVertex("R", 2)]
    elif isinstance(space, RealLine):
        a, b = list(rng.normal(size=3)), list(rng.normal(size=2))
    elif isinstance(space, Schatten):
        a = [CMatrix(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
             for _ in range(3)]
        b = [CMatrix(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
             for _ in range(2)]
    else:
        w = np.array([0.5, 1.0, 2.0])
        a = [CVector(rng.normal(size=3) + 1j * rng.normal(size=3), w) for _ in range(3)]
        b = [CVector(rng.normal(size=3) + 1j * rng.normal(size=3), w) for _ in range(2)]
    x = FiniteDist(space, tuple(a), rng.dirichlet(np.ones(3)))
    y = FiniteDist(space, (b[0], a[1], b[0], b[1], a[1]), rng.dirichlet(np.ones(5)))
    return x, y


# atom count and sha256 of the merged law's atom bytes followed by its
# probability bytes, recorded when mixture merged atoms by point equality
MIXTURE_GOLDEN = {
    "realline": (5, "0c4779fa60911b602aec5b26a8f68c163b0050527d76dd8cf18264693030e58c"),
    "l2-weighted": (5, "e65de80341eee83cda7a0dec59d38e279b80faa546d53a3a87ca7bf2dede9dd6"),
    "schatten": (5, "99a6a7248110b2a72eda1b5fc1c1564f19b9113c9aecb0ec287b18477fa5de96"),
    "bipartite": (5, "210e6fcbcc9fd8cee2556c5822ff7c74d0187118688af33c239677f695245621"),
}


@pytest.mark.parametrize("name,space", [
    ("realline", RL), ("l2-weighted", WeightedLq(2.0)), ("schatten", Schatten(1.0)),
    ("bipartite", BipartiteGraph(3)),
])
def test_mixture_golden_atoms_and_probabilities(name, space):
    z = mixture(*_mixture_golden_laws(space))
    digest = hashlib.sha256(z.stack.array.tobytes() + z.probs.tobytes()).hexdigest()
    assert (len(z.stack), digest) == MIXTURE_GOLDEN[name]


def test_mixture_space_mismatch():
    with pytest.raises(ValueError):
        mixture(FiniteDist.delta(RL, 0.0),
                FiniteDist.delta(WeightedLq(1.0), CVector.zeros(1)))


# ---------------------------------------------------------------- moments

def test_cross_moment_fn_configuration():
    nc = make_fn(2, INF, 1.0)
    assert cross_moment(nc.config.X, nc.config.Y, 1.0) == pytest.approx(4.0, abs=1e-12)


def test_cross_moment_coinciding_deltas():
    d = FiniteDist.delta(RL, 3.0)
    assert cross_moment(d, d, 2.0) == 0.0


def test_cross_moment_bipartite_pointwise_one():
    nc = make_bipartite(2, 3.0)
    assert cross_moment(nc.config.X, nc.config.Y, 3.0) == 1.0


def test_self_moment_two_point():
    u = FiniteDist.uniform(RL, [-1.0, 1.0])
    assert self_moment(u, 2.0) == pytest.approx(2.0, abs=1e-14)
    assert self_moment(FiniteDist.delta(RL, 5.0), 1.0) == 0.0


def test_self_moment_signed_basis_enumeration():
    # oracle: enumerate all 16 ordered pairs of uniform{+-e_1, +-e_2} in l_1
    sp = WeightedLq(1.0)
    atoms = [CVector.basis(0, 2), CVector.basis(0, 2, -1.0),
             CVector.basis(1, 2), CVector.basis(1, 2, -1.0)]
    manual = sum(
        float(np.abs(a.entries - b.entries).sum())
        for a in atoms for b in atoms) / 16.0
    assert manual == 1.5  # = (n-1)/n 2^{p/q} + 2^p/(2n) at n=2, p=q=1
    d = FiniteDist.uniform(sp, atoms)
    assert self_moment(d, 1.0) == pytest.approx(manual, abs=1e-14)


def test_mean_and_centered_moment():
    u = FiniteDist.uniform(RL, [-1.0, 1.0])
    assert mean(u) == 0.0
    assert centered_moment(u, 5.0) == pytest.approx(1.0, abs=1e-14)
    assert centered_moment(FiniteDist.delta(RL, 2.0), 2.0) == 0.0

    sp = WeightedLq(2.0)
    basis = [CVector.basis(i, 3, s) for i in range(3) for s in (1.0, -1.0)]
    d = FiniteDist.uniform(sp, basis)
    assert np.allclose(mean(d).entries, 0.0)

    eps = 0.125
    v = FiniteDist(RL, (1.0, 0.0), np.array([eps, 1 - eps]))
    assert mean(v) == pytest.approx(eps, abs=1e-15)


def test_rademacher_family_centered_moment_is_one():
    from momentmoduli.constructions import make_jensen
    nc = make_jensen("rademacher", p=2.5, n=6, q=3.0)
    assert centered_moment(nc.config.X, 2.5) == pytest.approx(1.0, rel=1e-12)


def test_mean_rejected_on_nonlinear_kinds():
    g = BipartiteGraph(2)
    d = FiniteDist.uniform(g, [GraphVertex("L", 0), GraphVertex("R", 1)])
    with pytest.raises(TypeError):
        mean(d)
    snow = Snowflake(RealLine(), 0.5)
    d2 = FiniteDist.uniform(snow, [0.0, 1.0])
    with pytest.raises(TypeError):
        mean(d2)


# ---------------------------------------------------------------- log moments

def test_log_cross_moment_values():
    assert log_cross_moment(FiniteDist.delta(RL, 0.0),
                            FiniteDist.delta(RL, 1.0)) == 0.0
    d = FiniteDist.delta(RL, 2.0)
    assert log_cross_moment(d, d) == -math.inf
    a = FiniteDist.uniform(RL, [0.0, 2.0])
    b = FiniteDist.uniform(RL, [1.0, 3.0])
    assert log_cross_moment(a, b) == pytest.approx(math.log(3.0) / 4.0, rel=1e-14)


# ---------------------------------------------------------------- invariants

@pytest.mark.parametrize("space,dim", [
    (RealLine(), 1), (WeightedLq(1.0), 3), (WeightedLq(2.7), 2), (WeightedLq(INF), 3),
])
def test_mixture_second_moment_identity(space, dim, rng):
    for _ in range(40):
        x = random_dist(space, rng, int(rng.integers(1, 4)), dim)
        y = random_dist(space, rng, int(rng.integers(1, 4)), dim)
        p = float(rng.uniform(0.4, 4.0))
        z = mixture(x, y)
        lhs = cross_moment(z, z, p)
        rhs = (0.5 * cross_moment(x, y, p)
               + 0.25 * self_moment(x, p) + 0.25 * self_moment(y, p))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_jensen_baseline_centered_below_self(rng):
    for _ in range(200):
        x = random_dist(RL, rng, int(rng.integers(1, 5)))
        p = float(rng.uniform(1.0, 4.0))
        assert centered_moment(x, p) <= self_moment(x, p) + 1e-12


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=1, max_size=4),
       st.floats(1.0, 4.0))
def test_cross_moment_symmetric(atoms, p):
    x = FiniteDist.uniform(RL, atoms)
    y = FiniteDist.uniform(RL, [0.0, 1.0])
    assert cross_moment(x, y, p) == pytest.approx(cross_moment(y, x, p), rel=1e-12)


# ---------------------------------------------------------------- JSON

def test_dist_json_roundtrip_with_weights():
    sp = WeightedLq(3.0)
    w = np.array([0.5, 2.0])
    d = FiniteDist.uniform(sp, [CVector(np.array([1 + 2j, 0j]), w),
                                CVector(np.array([0j, 1j]), w)])
    d2 = FiniteDist.from_json(json.loads(json.dumps(d.to_json())))
    assert cross_moment(d, d2, 2.0) >= 0
    assert self_moment(d, 2.0) == pytest.approx(self_moment(d2, 2.0), rel=1e-15)


def test_config_json_roundtrip_and_decimal_probs():
    nc = make_fn(2, INF, 2.0)
    blob = json.dumps(nc.config.to_json())
    cfg = Config.from_json(json.loads(blob))
    assert cfg.zero_sum
    assert cross_moment(cfg.X, cfg.Y, cfg.p) == pytest.approx(
        cross_moment(nc.config.X, nc.config.Y, nc.config.p), rel=1e-15)

    d = FiniteDist.from_json({"space": {"kind": "real_line"},
                              "atoms": [0.0, 1.0],
                              "probs": ["0.3", "0.7"]})
    assert np.allclose(d.probs, [0.3, 0.7])


def test_config_json_missing_field_named():
    with pytest.raises(ValueError, match="space"):
        Config.from_json({"X": {}, "Y": {}, "p": 1.0})
    with pytest.raises(ValueError, match="probs"):
        FiniteDist.from_json({"space": {"kind": "real_line"}, "atoms": [0.0]})


# one configuration per space kind, with entries that keep their sign bit
# (-0.0), weights, decimal-string probabilities and integer-valued numbers
_JSON_CONFIGS = {
    "lq_weights": {
        "space": {"kind": "weighted_lq", "q": 3.0},
        "X": {"atoms": [[[1.5, -0.0], [0.25, 2.0]], [[-1.0, 0.5], [0.0, 0.0]]],
              "probs": ["0.25", "0.75"], "weights": [0.5, 2.0]},
        "Y": {"atoms": [[[0.0, 1.0], [-3.0, 0.125]]], "probs": [1.0],
              "weights": [0.5, 2.0]},
        "p": 1.5},
    "lq_inf": {
        "space": {"kind": "weighted_lq", "q": "inf"},
        "X": {"atoms": [[[1, 0], [0, 0], [-2, 0]], [[0, 0], [1, 0], [0, 1]]],
              "probs": [0.5, 0.5]},
        "Y": {"atoms": [[[0, 1], [0, 0], [1, 1]]], "probs": [1.0]},
        "p": 2.0, "zero_sum": True},
    "schatten": {
        "space": {"kind": "schatten", "q": 1.5},
        "X": {"atoms": [[[[1, 0], [0, 1]], [[0.5, 0], [-1, 0]]],
                        [[[0, 0], [2, 0]], [[0, -1], [0, 0]]]],
              "probs": [0.4, 0.6]},
        "Y": {"atoms": [[[[0, 1], [0, 0]], [[0, 0], [1, 0]]]], "probs": [1.0]},
        "p": 1.0},
    "s1par": {
        "space": {"kind": "parallelogram_s1", "n": 1},
        "X": {"atoms": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], "probs": [0.5, 0.5]},
        "Y": {"atoms": [[[0.5, 0.5], [0.5, -0.5]]], "probs": [1.0]},
        "p": 2.0},
    "snowflake": {
        "space": {"kind": "snowflake", "alpha": 0.5,
                  "base": {"kind": "weighted_lq", "q": 2.0}},
        "X": {"atoms": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "probs": [0.5, 0.5]},
        "Y": {"atoms": [[[0, 0], [0, 0]], [[1, 0], [1, 0]]], "probs": [0.3, 0.7]},
        "p": 2.0},
    "graph": {
        "space": {"kind": "bipartite_graph", "n": 3},
        "X": {"atoms": [["L", 0], ["L", 1], ["R", 2]], "probs": [0.25, 0.25, 0.5]},
        "Y": {"atoms": [["R", 0], ["R", 1.0]], "probs": [0.5, 0.5]},
        "p": 1.0},
    "real": {
        "space": {"kind": "real_line"},
        "X": {"atoms": [1, -0.0, 2.5], "probs": ["0.2", "0.3", "0.5"]},
        "Y": {"atoms": [0.75, -3], "probs": [0.5, 0.5]},
        "p": 1.5},
}


# sha256 of json.dumps(Config.from_json(obj).to_json()) and of the bytes of
# both laws' stacks (array, then weights where the kind has them)
_JSON_GOLDEN = {
    "graph": ("8f1edc5539401926d984ee08a8802d02fd497aafd8cf38287fcdd9d5f0c175e5",
             "e8844b943e96e692ea60ccf698aee77f23c90e9b5fc62db1ad7476599b27aee3"),
    "lq_inf": ("a5b56a301a724c6dcd34ab479f735cb324f1b7391ea28c135cbb2b2a1a35bb6a",
              "a5d167721c85d7e8ab5dd28474031e36f135e5cd9039caed3264eb181ccabb4c"),
    "lq_weights": ("50a829a59295f3a94fa56210c3a64084fa203340d668cf999bc317ff42338eac",
                  "43891d34460b81da3ad0e5ad46b56d91d65a28f3a26e75c2539b8d1992f84eb1"),
    "real": ("14098c300671b50cc20658d9047b40e8b85e57c2c3bba52fd68d51d2bf5353ec",
            "40b7dfc1ecb77cc51b3c6fea4854cd69cfe1f35fe8a28547c5705191dec34684"),
    "s1par": ("d2fe4bec230b79f957a2bb79e71319541e8b21a99e59bb04def692b5a3320b99",
             "671db3cf0e7ec16f77eb037c28a84ec482bd0b4e4f8ce748dfa9811c33e100ab"),
    "schatten": ("bc0ad7c9145599eea1af66cd00d47773c792e4d7356854bd5b58871a233cf1cb",
                "f26578a27087c41b1d949827d87a6beb804371b2b63bf75e45832ae39a3b51dc"),
    "snowflake": ("22adb4dd9bfc002bcd211631108cc178f78074b6f9cb66c3156ca7f0b537eff4",
                 "39eff7a207f09d1b47cdc8d13df7b55d246636c4f6310328d6f8e02acb0afe9e"),
}


@pytest.mark.parametrize("name", sorted(_JSON_CONFIGS))
def test_config_json_and_stacks_are_golden(name):
    cfg = Config.from_json(json.loads(json.dumps(_JSON_CONFIGS[name])))
    stacks = hashlib.sha256()
    for law in (cfg.X, cfg.Y):
        stacks.update(law.stack.array.tobytes())
        if law.stack.weights is not None:
            stacks.update(law.stack.weights.tobytes())
    out = json.dumps(cfg.to_json())
    assert (hashlib.sha256(out.encode()).hexdigest(), stacks.hexdigest()) \
        == _JSON_GOLDEN[name]
    assert Config.from_json(json.loads(out)).to_json() == cfg.to_json()


def test_config_from_json_builds_no_point_objects(monkeypatch):
    def refuse(self):
        raise AssertionError(f"{type(self).__name__} built")

    for kind in (CVector, CMatrix, GraphVertex):
        monkeypatch.setattr(kind, "__post_init__", refuse)
    for obj in _JSON_CONFIGS.values():
        Config.from_json(obj).to_json()


def test_cross_moment_zero_iff_all_live_pairs_coincide():
    a = FiniteDist.uniform(RL, [1.0])
    b = FiniteDist.delta(RL, 1.0)
    assert cross_moment(a, b, 2.0) == 0.0
    c = FiniteDist.uniform(RL, [1.0, 2.0])
    assert cross_moment(c, b, 2.0) > 0.0
