import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentmoduli import barycenter, distributions, search
from momentmoduli.constants import C_exponent
from momentmoduli.distributions import Config, FiniteDist, cross_moment
from momentmoduli.moduli import DegenerateRatioError
from momentmoduli.search import SearchSpec, certify_ratio, run_search
from momentmoduli.spaces import (
    INF,
    AtomStack,
    ParallelogramS1,
    RealLine,
    SpaceMismatchError,
    WeightedLq,
)


def test_search_is_bitwise_reproducible():
    spec = SearchSpec(space=RealLine(), objective="roundness", p=1.0,
                      budget=1500, restarts=2, seed=123)
    a = run_search(spec)
    b = run_search(spec)
    assert json.dumps(a.to_json(), sort_keys=True) == \
        json.dumps(b.to_json(), sort_keys=True)


def test_search_trace_monotone_and_certified():
    spec = SearchSpec(space=RealLine(), objective="roundness", p=1.0,
                      budget=2000, restarts=1, seed=9)
    r = run_search(spec)
    ratios = [v for _, v in r.trace]
    assert ratios == sorted(ratios)
    assert r.best_ratio == pytest.approx(
        certify_ratio(r.best_config, "roundness"), abs=1e-10)
    assert r.best_ratio == pytest.approx(r.trace[-1][1], abs=1e-10)


def test_search_real_line_respects_proven_bound():
    spec = SearchSpec(space=RealLine(), objective="roundness", p=1.0,
                      budget=4000, restarts=2, seed=77)
    r = run_search(spec)
    assert r.best_ratio <= 2.0 + 1e-9
    assert all(v <= 2.0 + 1e-9 for _, v in r.trace)


def test_search_warm_start_never_degraded():
    spec = SearchSpec(space=WeightedLq(2.0), objective="roundness", p=2.0,
                      max_atoms_x=8, max_atoms_y=8, budget=50, restarts=1,
                      seed=5)
    warm = (1 - 1 / 8) * 2.0  # disjoint-Bernoulli ratio at n = 8, p = q = 2
    r = run_search(spec)
    assert r.best_ratio >= warm - 1e-12
    assert r.best_ratio <= 2.0 ** C_exponent(2.0, 2.0) + 1e-7


def test_search_parallelogram_warm_start_and_trivial_bound():
    spec = SearchSpec(space=ParallelogramS1(8), objective="roundness", p=1.0,
                      max_atoms_x=8, max_atoms_y=8, budget=40, restarts=1,
                      seed=2)
    r = run_search(spec)
    assert r.best_ratio >= (1 - 1 / 8) * 2 ** 1.5 - 1e-12
    assert r.best_ratio <= 4.0 + 1e-9


def test_search_mixture_objective_smoke():
    spec = SearchSpec(space=RealLine(), objective="mixture", p=2.0,
                      budget=300, restarts=1, seed=11)
    r = run_search(spec)
    assert r.best_ratio <= 4.5 + 1e-7  # universal mixture bound at p = 2


def test_search_barycenter_objective_smoke():
    spec = SearchSpec(space=RealLine(), objective="barycenter", p=1.0,
                      budget=15, restarts=1, seed=4, max_atoms_x=2,
                      max_atoms_y=2)
    r = run_search(spec)
    assert r.best_ratio <= 3.0 + 1e-7  # universal constant at p = 1


def test_search_result_json_labels_empirical():
    spec = SearchSpec(space=RealLine(), objective="roundness", p=1.0,
                      budget=100, restarts=1, seed=0)
    payload = run_search(spec).to_json()
    assert "empirical lower bound" in payload["note"]
    assert payload["best_config"]["space"] == {"kind": "real_line"}


def test_search_spec_validation():
    with pytest.raises(ValueError):
        SearchSpec(space=RealLine(), objective="nope", p=1.0)
    with pytest.raises(ValueError):
        SearchSpec(space=RealLine(), objective="roundness", p=1.0, budget=0)
    with pytest.raises(TypeError):
        SearchSpec(space=None, objective="roundness", p=1.0)
    with pytest.raises(ValueError):
        SearchSpec(space=RealLine(), objective="roundness", p=1.0,
                   max_atoms_x=0)


def test_search_seed_changes_stream():
    base = dict(space=RealLine(), objective="roundness", p=1.0,
                budget=800, restarts=1)
    r1 = run_search(SearchSpec(seed=1, **base))
    r2 = run_search(SearchSpec(seed=2, **base))
    assert r1.trace != r2.trace


def test_search_exercises_add_and_remove_moves():
    # a long scalar run must move through configurations of different sizes
    spec = SearchSpec(space=RealLine(), objective="roundness", p=1.0,
                      max_atoms_x=6, max_atoms_y=6, budget=5000, restarts=1,
                      seed=31)
    r = run_search(spec)
    sizes = {len(r.best_config.X.atoms), len(r.best_config.Y.atoms)}
    assert r.best_ratio <= 2.0 + 1e-9
    assert all(1 <= s <= 6 for s in sizes)


def test_search_sup_norm_space_smoke():
    spec = SearchSpec(space=WeightedLq(float("inf")), objective="roundness",
                      p=1.0, budget=400, restarts=1, seed=6)
    r = run_search(spec)
    # triangle-inequality bound in any normed space at p = 1
    assert r.best_ratio <= 4.0 + 1e-9


def test_search_result_config_reverifies_from_json():
    spec = SearchSpec(space=RealLine(), objective="roundness", p=1.0,
                      budget=500, restarts=1, seed=88)
    r = run_search(spec)
    cfg = Config.from_json(r.to_json()["best_config"])
    assert certify_ratio(cfg, "roundness") == pytest.approx(
        r.best_ratio, rel=1e-12)


# the ratio of record and the kernel, entered by the evaluator and by the
# moves: a fault in any is not a degenerate ratio and must not be skipped as one
@pytest.mark.parametrize("name", ["roundness_ratio", "pairwise_powered", "_pairwise"])
def test_search_propagates_faults_other_than_degenerate_ratios(monkeypatch, name):
    def faulty(*args):
        raise ValueError("kernel fault")

    monkeypatch.setattr(search, name, faulty)
    spec = SearchSpec(space=RealLine(), objective="roundness", p=1.0,
                      budget=10, restarts=1, seed=0)
    with pytest.raises(ValueError, match="kernel fault"):
        run_search(spec)


def _atom_bytes(dist):
    return dist.stack.array.tobytes() + np.asarray(dist.probs).tobytes()


# best ratio, number of trace entries, sha256 of repr(trace) and of the best
# configuration's atom and probability bytes (X then Y).  The first two were
# computed before the atoms were stacked, the next three while each proposal
# still built its laws and configuration, the last two while each restart's
# start still went through ``certify_ratio``; the search must reproduce them
# bit for bit
GOLDEN = [
    (SearchSpec(space=WeightedLq(3.0), objective="roundness", p=1.5,
                budget=150, restarts=2, seed=2024),
     2.199850965306602, 29,
     "d1247794e4b14968278f7e1662ee68bd39845d2198dfb66a78f1981b2c11f11a",
     "66911aff66c37cb5800d0c6c8df81acf6026a82b5615e26e727816a9fc890d1b"),
    (SearchSpec(space=ParallelogramS1(2), objective="mixture", p=1.0,
                budget=150, restarts=1, seed=7),
     1.5888989145676828, 30,
     "2abbcd3a1c5ba33ab09ae4f5b82c316bf2460af09659428a761f570fedae0100",
     "04c26b49986e50181762bc7e939dfd47ee84c2f49e7c3853b811c8b98d1f4910"),
    (SearchSpec(space=RealLine(), objective="roundness", p=1.5,
                budget=300, restarts=2, seed=31),
     1.9997634871291514, 53,
     "eb2462edfb25ad123cf348c6ac7755513118747a203dc5b0eef5ba80122d7d6e",
     "14bab35d06d303c79c00222ae6664f83fcff5c9aa1bd7d67393d243a7840ad4b"),
    (SearchSpec(space=WeightedLq(INF), objective="roundness", p=1.0,
                budget=300, restarts=2, seed=17),
     2.068124868229292, 53,
     "f3abced79d782edecaba794191835e20bad31f45a269d95b7ce7a1bc55455e48",
     "2f41c8cdcd054743ba4f1386c864c04cde4e1f9b513bc58110cbedc5633c933a"),
    (SearchSpec(space=RealLine(), objective="barycenter", p=1.0,
                budget=30, restarts=1, seed=4, max_atoms_x=2, max_atoms_y=2),
     1.8280955316521785, 6,
     "759bed98b5df319dd0e0a7d68ef1c6acda0a9fee399b9f3c79f5b30f0c1f20d6",
     "af74662a05356133ea5c40ec48d5dc49183fd45d5bdc1bddc0e1de0c6f7d8c1a"),
    # one restart, so the result climbs from the warm start; at p = 0.5 the
    # l_q warm start is the disjoint-Bernoulli construction built at p = 1
    (SearchSpec(space=ParallelogramS1(3), objective="roundness", p=1.0,
                budget=150, restarts=1, seed=3),
     2.0244278992889213, 27,
     "ce1b8959512493f15ec31f307d615336a508cbe4322094c9ee7a8418ff16a962",
     "f5dc56c7b833dde08b91dc452ffe66633fb556070698b7fda1fda0e34a7017e3"),
    (SearchSpec(space=WeightedLq(2.0), objective="roundness", p=0.5,
                budget=150, restarts=1, seed=5),
     1.5853873637311373, 32,
     "012571b9d1e5c4cab48909a87de5f83eef54971c800c32168765b17c4b0c0bbd",
     "f58a7e1c93cddd5f849d7bc44aa715a3498daa4fab57c48014d1e056cbf4eae8"),
]


@pytest.mark.parametrize("spec,ratio,n_trace,trace_sha,atoms_sha", GOLDEN,
                         ids=["lq3-roundness", "s1par2-mixture", "realline-roundness",
                              "lqinf-roundness", "realline-barycenter",
                              "s1par3-warm-roundness", "lq2-warm-roundness-p05"])
def test_search_golden_values(spec, ratio, n_trace, trace_sha, atoms_sha):
    r = run_search(spec)
    assert r.best_ratio == ratio
    assert len(r.trace) == n_trace
    assert hashlib.sha256(repr(r.trace).encode()).hexdigest() == trace_sha
    cfg = r.best_config
    both = _atom_bytes(cfg.X) + _atom_bytes(cfg.Y)
    assert hashlib.sha256(both).hexdigest() == atoms_sha


@pytest.mark.parametrize("kwargs,message", [
    ({"p": float("inf")}, "finite"),
    ({"p": float("nan")}, "finite"),
    ({"p": 2.0, "dim": 0}, "dim"),
], ids=["p-inf", "p-nan", "dim-0"])
def test_search_spec_rejects_infinite_exponent_and_empty_dimension(kwargs, message):
    with pytest.raises(ValueError, match=message):
        SearchSpec(space=WeightedLq(2.0), objective="roundness", **kwargs)


def test_search_uses_the_given_dimension():
    spec = SearchSpec(space=WeightedLq(2.0), objective="mixture", p=2.0,
                      budget=3, seed=5, dim=1)
    assert run_search(spec).best_config.X.stack.array.shape[1] == 1


_EVAL_SPACES = [RealLine(), WeightedLq(1.0), WeightedLq(2.0), WeightedLq(3.0),
                WeightedLq(INF), ParallelogramS1(1), ParallelogramS1(2)]


@st.composite
def _priced_configs(draw):
    space = draw(st.sampled_from(_EVAL_SPACES))
    objective = draw(st.sampled_from(["roundness", "mixture"]))
    p = draw(st.sampled_from([0.5, 1.0, 1.5, 2.0]))
    # 1e+-150 sends the l_q and parallelogram kernels down their rescaled path
    scale = draw(st.sampled_from([1e-150, 1.0, 1e150]))
    integer = draw(st.booleans())           # ties, shared atoms, zero moments
    if isinstance(space, ParallelogramS1):
        dim = 2 * space.n
    else:
        dim = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def rows(n):
        if isinstance(space, RealLine):
            shape = (n,)
        else:
            shape = (n, dim)
        if integer:
            a = rng.integers(-1, 2, size=shape).astype(float)
        else:
            a = rng.normal(size=shape)
        if not isinstance(space, RealLine):
            a = a + 1j * (rng.integers(-1, 2, size=shape) if integer
                          else rng.normal(size=shape))
        return a * scale

    def law():
        n = draw(st.integers(1, 4))
        return FiniteDist(space, AtomStack(space, rows(n)), rng.dirichlet(np.ones(n)))

    x, y = law(), law()
    # a move of each kind on either side, as ``search._propose`` draws them
    side_x = draw(st.booleans())
    n = len((x if side_x else y).atoms)
    kind = draw(st.sampled_from(["perturb", "reweight", "add", "remove"][:4 if n > 1 else 3]))
    if kind == "perturb":
        move = search.Move(side_x, draw(st.integers(0, n - 1)), rows(1)[0],
                           (x if side_x else y).probs)
    elif kind == "add":
        move = search.Move(side_x, n, rows(1)[0], rng.dirichlet(np.ones(n + 1)))
    elif kind == "remove":
        move = search.Move(side_x, draw(st.integers(0, n - 1)), None,
                           rng.dirichlet(np.ones(n - 1)))
    else:
        move = search.Move(side_x, 0, None, rng.dirichlet(np.ones(n)))
    return SearchSpec(space=space, objective=objective, p=p), x, y, move


@settings(max_examples=400, deadline=None)
@given(_priced_configs())
def test_search_evaluator_matches_certify_ratio_bit_for_bit(case):
    spec, x, y, _ = case
    value, den, _ = search._evaluate(spec, (x.stack, x.probs, y.stack, y.probs))
    config = Config(spec.space, x, y, spec.p)
    try:
        ref = certify_ratio(config, spec.objective)
    except DegenerateRatioError:
        ref = None
    if ref is not None and not math.isfinite(ref):
        ref = None
    assert repr(value) == repr(ref)
    assert repr(den) == repr(cross_moment(x, y, spec.p))


@settings(max_examples=400, deadline=None)
@given(_priced_configs())
def test_a_move_is_priced_bit_for_bit_as_its_applied_state(case):
    spec, x, y, move = case
    state = (x.stack, x.probs, y.stack, y.probs)
    value, den, m = search._price(spec, state, search._evaluate(spec, state)[2], move)
    ref_value, ref_den, ref_m = search._evaluate(spec, search._applied(state, move))
    assert repr(value) == repr(ref_value)
    assert repr(den) == repr(ref_den)
    assert m.tobytes() == np.ascontiguousarray(ref_m).tobytes()


def test_roundness_reweights_and_removals_make_no_kernel_call(monkeypatch):
    rng = np.random.default_rng(8)
    space = WeightedLq(3.0)
    xs, ys = (AtomStack(space, rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4)))
              for _ in range(2))
    state = (xs, np.full(3, 1 / 3), ys, np.array([0.2, 0.3, 0.5]))
    spec = SearchSpec(space=space, objective="roundness", p=1.5)
    m = search._evaluate(spec, state)[2]
    moves = [search.Move(True, 0, None, np.array([0.5, 0.25, 0.25])),
             search.Move(False, 1, None, np.array([0.4, 0.6]))]
    expected = [search._evaluate(spec, search._applied(state, move))[:2] for move in moves]

    def kernel(*args):
        raise AssertionError("kernel called")

    monkeypatch.setattr(search, "_pairwise", kernel)
    monkeypatch.setattr(search, "pairwise_powered", kernel)
    for move, ref in zip(moves, expected):
        assert search._price(spec, state, m, move)[:2] == ref


@pytest.mark.parametrize("space,error,message", [
    (RealLine(), SpaceMismatchError, "RealLine points must be finite"),
    (WeightedLq(2.0), ValueError, "CVector entries must be finite"),
], ids=["realline", "lq2"])
def test_a_non_finite_perturbed_row_raises_as_a_stack_row(monkeypatch, space, error, message):
    def overflowed(stack, idx, rng, scale):
        return np.full_like(stack.array[idx], np.inf)

    monkeypatch.setattr(search, "_perturbed_row", overflowed)
    spec = SearchSpec(space=space, objective="roundness", p=1.0, budget=10, seed=0)
    with pytest.raises(error, match=message):
        run_search(spec)


# a distance of 1e300 to the power 1.5 overflows
@pytest.mark.parametrize("objective", search.OBJECTIVES)
def test_search_evaluator_rejects_moments_out_of_the_float_range(objective):
    space = RealLine()
    x = FiniteDist(space, AtomStack(space, np.array([0.0, 1.0])), np.array([0.5, 0.5]))
    y = FiniteDist(space, AtomStack(space, np.array([1e300])), np.array([1.0]))
    spec = SearchSpec(space=space, objective=objective, p=1.5)
    assert search._evaluate(spec, (x.stack, x.probs, y.stack, y.probs))[:2] == (None, math.inf)
    with pytest.raises(OverflowError, match="not finite"):
        certify_ratio(Config(space, x, y, spec.p), objective)


def test_a_barycenter_proposal_computes_its_cross_moment_once(monkeypatch):
    # the evaluator's cross moment is the ratio's denominator: one kernel
    # call on [X] x [Y] besides those of the solve
    rng = np.random.default_rng(5)
    space = WeightedLq(3.0)
    x, y = (FiniteDist(space, AtomStack(space, rng.normal(size=(2, 3))), np.array([0.3, 0.7]))
            for _ in range(2))
    calls = []
    kernel = distributions.pairwise_powered

    def counted(space, xs, ys, p):
        calls.append((xs is x.stack, ys is y.stack))
        return kernel(space, xs, ys, p)

    monkeypatch.setattr(distributions, "pairwise_powered", counted)
    monkeypatch.setattr(barycenter, "pairwise_powered", counted)
    barycenter.minimize_barycenter(Config(space, x, y, 1.5))
    solve = len(calls)
    calls.clear()
    spec = SearchSpec(space=space, objective="barycenter", p=1.5)
    search._evaluate(spec, (x.stack, x.probs, y.stack, y.probs))
    assert len(calls) == solve + 1
    assert calls.count((True, True)) == 1
