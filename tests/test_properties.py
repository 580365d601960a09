"""Invariances the paper relies on, and the CLI's exit-code contract under
arbitrary configuration JSON."""

import contextlib
import functools
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import random_dist
from momentmoduli import cli, moduli
from momentmoduli.distributions import (
    Config,
    FiniteDist,
    _mixture_center,
    _moment,
    cross_moment,
    self_moment,
)
from momentmoduli.moduli import (
    DegenerateRatioError,
    barycenter_objective,
    barycenter_ratio,
    jensen_ratio,
    log_roundness_report,
    metric_barycenter_ratio,
    mixture_ratio,
    roundness_ratio,
)
from momentmoduli.spaces import (
    INF,
    AtomStack,
    BipartiteGraph,
    GraphVertex,
    ParallelogramS1,
    RealLine,
    Schatten,
    Snowflake,
    WeightedLq,
    is_linear,
    pairwise_powered,
)

SPACES = [RealLine(), WeightedLq(1.0), WeightedLq(2.0), WeightedLq(3.0), WeightedLq(INF),
          Schatten(1.0), Schatten(3.0), ParallelogramS1(2),
          Snowflake(WeightedLq(2.0), 0.5), BipartiteGraph(3)]


def _value(fn, *args):
    try:
        return fn(*args).value
    except DegenerateRatioError:
        return "degenerate"


def _close(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str) or math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= 1e-12 * max(abs(a), abs(b))


def _permuted(dist: FiniteDist, perm: np.ndarray) -> FiniteDist:
    return FiniteDist(dist.space, dist.stack.with_array(dist.stack.array[perm]),
                      dist.probs[perm])


def _config(space, seed, nx, ny, p) -> Config:
    rng = np.random.default_rng(seed)
    dim = 2 if isinstance(space, Schatten) else 3
    return Config(space, random_dist(space, rng, nx, dim), random_dist(space, rng, ny, dim), p)


_CASES = (st.sampled_from(SPACES), st.integers(0, 2 ** 31 - 1), st.integers(1, 5),
          st.integers(1, 5), st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]))


@settings(max_examples=60, deadline=None)
@given(*_CASES)
def test_ratios_are_invariant_under_atom_permutation(space, seed, nx, ny, p):
    cfg = _config(space, seed, nx, ny, p)
    rng = np.random.default_rng(seed + 1)
    perm = Config(space, _permuted(cfg.X, rng.permutation(nx)),
                  _permuted(cfg.Y, rng.permutation(ny)), p)
    fns = [roundness_ratio, metric_barycenter_ratio, log_roundness_report]
    if is_linear(space):
        fns.append(mixture_ratio)
        if p >= 1.0:
            fns.append(lambda c: jensen_ratio(c.X, c.p))
    for fn in fns:
        assert _close(_value(fn, cfg), _value(fn, perm))


@settings(max_examples=60, deadline=None)
@given(*_CASES)
def test_ratios_are_symmetric_in_x_and_y(space, seed, nx, ny, p):
    cfg = _config(space, seed, nx, ny, p)
    swapped = Config(space, cfg.Y, cfg.X, p)
    fns = [roundness_ratio, metric_barycenter_ratio]
    if is_linear(space):
        fns.append(mixture_ratio)
    for fn in fns:
        assert _close(_value(fn, cfg), _value(fn, swapped))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([s for s in SPACES if is_linear(s)]), st.integers(0, 2 ** 31 - 1),
       st.integers(1, 5), st.integers(1, 5), st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_barycenter_ratio_is_symmetric_in_x_and_y_within_its_certified_interval(
        space, seed, nx, ny, p):
    # both orders minimize one objective over one cross moment, so each
    # certified lower end is at most the other order's value; a capped solve
    # keeps its certificate
    cfg = _config(space, seed, nx, ny, p)
    capped = functools.partial(moduli.minimize_barycenter, max_iters_per_start=400)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moduli, "minimize_barycenter", capped)
        reports = [barycenter_ratio(c) for c in (cfg, Config(space, cfg.Y, cfg.X, p))]
    a, b = (r.solver_info for r in reports)
    assert a.lower <= b.value and b.lower <= a.value
    assert _close(cross_moment(cfg.X, cfg.Y, p), cross_moment(cfg.Y, cfg.X, p))


def _translated(dist: FiniteDist, shift) -> FiniteDist:
    return FiniteDist(dist.space, dist.stack.with_array(dist.stack.array + shift), dist.probs)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([s for s in SPACES if is_linear(s)]), st.integers(0, 2 ** 31 - 1),
       st.integers(1, 4), st.integers(1, 4), st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_ratios_are_invariant_under_translation(space, seed, nx, ny, p):
    # both laws shifted by one vector of size about 3: distances move only by
    # the rounding of the shift, so the certified intervals of the two
    # barycenter solves overlap up to it
    cfg = _config(space, seed, nx, ny, p)
    rng = np.random.default_rng(seed + 2)
    shape = cfg.X.stack.array.shape[1:]
    shift = 3.0 * rng.normal(size=shape)
    if shape and not isinstance(space, RealLine):
        shift = shift + 3j * rng.normal(size=shape)
    moved = Config(space, _translated(cfg.X, shift), _translated(cfg.Y, shift), p)
    for fn in (roundness_ratio, mixture_ratio):
        assert _close(_value(fn, cfg), _value(fn, moved))
    a, b = (moduli.minimize_barycenter(c, max_iters_per_start=400) for c in (cfg, moved))
    assert a.lower <= b.value * (1.0 + 1e-12) and b.lower <= a.value * (1.0 + 1e-12)


@pytest.mark.parametrize("seed", [5, 6, 7])
@pytest.mark.parametrize("space", [WeightedLq(3.0), WeightedLq(INF)], ids=str)
def test_barycenter_certificate_of_laws_far_from_the_origin_keeps_its_gap(space, seed):
    # laws of spread 1e99 about 1e110, at p = 3: the solver's scale to
    # 2^-366 or so made the factor back to the original units, 2^(366 p),
    # overflow, and a solve that stalled reported lower == value
    rng = np.random.default_rng(seed)
    xs, ys = (1e110 + 1e99 * rng.normal(size=(n, 2)) for n in (3, 2))
    cfg = Config(space, FiniteDist(space, AtomStack(space, xs), np.full(3, 1.0 / 3.0)),
                 FiniteDist(space, AtomStack(space, ys), np.full(2, 0.5)), 3.0)
    cert = moduli.minimize_barycenter(cfg)
    assert math.isfinite(cert.lower) and cert.lower <= cert.value
    if cert.stop in ("stall", "cap"):
        assert cert.lower < cert.value


@settings(max_examples=60, deadline=None)
@given(*_CASES)
def test_metric_barycenter_is_the_per_candidate_minimum(space, seed, nx, ny, p):
    # the candidates one at a time, the way the minimum was first computed
    cfg = _config(space, seed, nx, ny, p)
    if isinstance(space, BipartiteGraph):
        candidates = [GraphVertex(side, i) for side in "LR" for i in range(space.n)]
    else:
        candidates = list(cfg.X.atoms) + list(cfg.Y.atoms)
    best = min(barycenter_objective(cfg, z) for z in candidates)
    den = cross_moment(cfg.X, cfg.Y, p)
    if den > 0:
        expected = best / den
    else:
        expected = 0.0 if best == 0.0 else "degenerate"
    assert _value(metric_barycenter_ratio, cfg) == expected


@settings(max_examples=60, deadline=None)
@given(*_CASES)
def test_joint_matrix_blocks_reduce_as_their_own_kernel_calls(space, seed, nx, ny, p):
    # one kernel call over the joint stack, its blocks reduced by the moment
    # functionals' reduction, gives the moments of separate calls bit for bit
    cfg = _config(space, seed, nx, ny, p)
    x, y = cfg.X, cfg.Y
    joint = x.stack.concat(y.stack)
    m = pairwise_powered(space, joint, joint, p)
    n = len(x.stack)
    blocks = [_moment(x.probs, m[:n, :n], x.probs), _moment(y.probs, m[n:, n:], y.probs),
              _moment(x.probs, m[:n, n:], y.probs)]
    moments = [self_moment(x, p), self_moment(y, p), cross_moment(x, y, p)]
    assert [v.hex() for v in blocks] == [v.hex() for v in moments]
    if is_linear(space):
        z = _mixture_center(x.stack, x.probs, y.stack, y.probs)
        col = pairwise_powered(space, joint, joint.concat(z), p)[:, -1]
        num = _moment(x.probs, col[:n]) + _moment(y.probs, col[n:])
        assert num.hex() == barycenter_objective(cfg, z).hex()


# ------------------------------------------------------------- CLI fuzz

_NUMBER = st.one_of(st.integers(), st.floats(), st.sampled_from(["0.5", "inf", "1e400", "x"]))
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), _NUMBER, st.text(max_size=3)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=5), inner, max_size=3)),
    max_leaves=6)


def _mostly(good, bad, odds=9):
    """``good`` about ``odds`` times as often as ``bad``."""
    return st.integers(0, odds).flatmap(lambda i: bad if i == 0 else good)


_COORD = _mostly(st.one_of(st.floats(-10, 10), st.sampled_from([0.0, 1e300, 1e-300, -1e200])),
                 _JSON, odds=40)


def _vector(dim):
    return st.lists(st.lists(_COORD, min_size=2, max_size=2), min_size=dim, max_size=dim)


def _atom(kind, dim):
    if kind == "real_line":
        return _COORD
    if kind == "bipartite_graph":
        return _mostly(st.tuples(st.sampled_from(["L", "R"]), st.integers(0, 3)).map(list),
                       st.lists(_JSON, max_size=3), odds=40)
    if kind == "schatten":
        return st.lists(_vector(dim), min_size=dim, max_size=dim)
    return _vector(dim)


@st.composite
def _space(draw, depth=0):
    kind = draw(st.sampled_from(["weighted_lq", "schatten", "parallelogram_s1",
                                 "bipartite_graph", "real_line"]
                                + (["snowflake"] if depth == 0 else [])))
    q = draw(_mostly(st.sampled_from([1, 1.5, 2, 3, "inf"]), _JSON))
    n = draw(_mostly(st.integers(1, 3), st.one_of(st.integers(), _JSON)))
    space = {"kind": kind, "q": q, "n": n}
    if kind == "snowflake":
        space["base"] = draw(_space(depth=1))
        space["alpha"] = draw(_mostly(st.sampled_from([0.25, 0.5, 1]), _JSON))
    return space


def _base_kind(space):
    while space["kind"] == "snowflake":
        space = space["base"]
    return space["kind"]


@st.composite
def _law(draw, kind, dim):
    k = draw(st.integers(1, 3))
    atoms = draw(_mostly(st.lists(_atom(kind, dim), min_size=k, max_size=k), _JSON))
    probs = draw(_mostly(st.sampled_from([[1.0 / k] * k, ["1"] + ["0"] * (k - 1)]),
                         st.one_of(st.lists(_NUMBER, min_size=k, max_size=k), _JSON)))
    law = {"atoms": atoms, "probs": probs}
    if draw(st.booleans()):
        law["weights"] = draw(_mostly(st.lists(st.floats(0, 2), min_size=dim, max_size=dim),
                                      _JSON))
    return law


@st.composite
def _config_json(draw):
    space = draw(_space())
    kind = _base_kind(space)
    dim = draw(st.integers(1, 2))
    if kind == "parallelogram_s1" and isinstance(space.get("n"), int) and 0 < space["n"] <= 2:
        dim = 2 * space["n"]
    obj = {"space": space, "X": draw(_law(kind, dim)), "Y": draw(_law(kind, dim)),
           "p": draw(_mostly(st.sampled_from([0.5, 1, 1.5, 2]), st.one_of(_NUMBER, _JSON)))}
    if draw(st.booleans()):
        obj["zero_sum"] = draw(_mostly(st.booleans(), _JSON))
    if draw(st.integers(0, 9)) == 0:
        del obj[draw(st.sampled_from(sorted(obj)))]
    return draw(_mostly(st.just(obj), _JSON))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(_config_json())
def test_ratio_cli_keeps_its_exit_codes_on_any_config(obj):
    # the fuzz is about the exit-code contract, not about solver accuracy: the
    # barycenter solver keeps its path but stops after a few iterations
    capped = functools.partial(moduli.minimize_barycenter, max_iters_per_start=20)
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(obj, fh)
        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            mp.setattr(moduli, "minimize_barycenter", capped)
            code = cli.main(["ratio", "--config", path])
    finally:
        os.unlink(path)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error:")
