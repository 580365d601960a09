import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_dist
from momentmoduli import barycenter, distributions, moduli
from momentmoduli.constructions import (
    make_bipartite,
    make_disjoint_bernoulli,
    make_eps_atom,
    make_fn,
    make_jensen,
    make_schatten_parallelogram,
    make_two_point,
)
from momentmoduli.barycenter import _SvdProblem
from momentmoduli.distributions import (
    Config,
    FiniteDist,
    cross_moment,
    mean,
    mean_row,
    mixture,
)
from momentmoduli.moduli import (
    DegenerateRatioError,
    all_reports,
    barycenter_objective,
    barycenter_ratio,
    jensen_ratio,
    log_roundness_report,
    metric_barycenter_ratio,
    minimize_barycenter,
    mixture_ratio,
    roundness_ratio,
)
from momentmoduli.spaces import (
    INF,
    AtomStack,
    BipartiteGraph,
    CVector,
    GraphVertex,
    ParallelogramS1,
    RealLine,
    Schatten,
    CMatrix,
    WeightedLq,
)

RL = RealLine()


# ---------------------------------------------------------------- roundness

def test_roundness_disjoint_bernoulli_example():
    nc = make_disjoint_bernoulli(8, 3.0, 3.0)
    rep = roundness_ratio(nc.config)
    assert rep.value == pytest.approx(3.5, rel=1e-12)
    assert rep.bound == pytest.approx(4.0)  # 2^C(3,3)


def test_roundness_identical_laws_is_two():
    x = random_dist(RL, np.random.default_rng(0), 3)
    rep = roundness_ratio(Config(RL, x, x, 2.0))
    assert rep.value == pytest.approx(2.0, rel=1e-12)


def test_roundness_schatten_parallelogram_example():
    nc = make_schatten_parallelogram(16, 1.0)
    assert roundness_ratio(nc.config).value == pytest.approx(
        (15 / 16) * 2 ** 1.5, rel=1e-12)


def test_roundness_degenerate_denominator_carries_moments():
    d = FiniteDist.delta(RL, 1.0)
    with pytest.raises(DegenerateRatioError) as e:
        roundness_ratio(Config(RL, d, d, 1.0))
    assert e.value.denominator == 0.0


def test_roundness_of_tiny_laws_equals_that_of_the_laws_scaled_up():
    # in l_2 the squares of differences near 1e-200 underflow to 0; the kernel
    # rescales those pairs instead of reporting a vanishing denominator
    sp = WeightedLq(2.0)

    def config(scale):
        x = FiniteDist.uniform(sp, [CVector([1e-200 * scale]),
                                    CVector([-1e-200 * scale])])
        y = FiniteDist.delta(sp, CVector([3e-200 * scale]))
        return Config(sp, x, y, 1.0)

    tiny = roundness_ratio(config(1.0)).value
    assert tiny == pytest.approx(roundness_ratio(config(1e200)).value, rel=1e-15)
    assert tiny == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_roundness_trivial_bound(rng):
    for _ in range(100):
        x = random_dist(RL, rng, int(rng.integers(1, 4)))
        y = random_dist(RL, rng, int(rng.integers(1, 4)))
        p = float(rng.uniform(1.0, 4.0))
        try:
            rep = roundness_ratio(Config(RL, x, y, p))
        except DegenerateRatioError:
            continue
        assert rep.value <= 2.0 ** (p + 1.0) + 1e-9


def test_roundness_scalar_nonconvex_range(rng):
    # on the real line with p in (0, 2] the ratio never exceeds 2
    for _ in range(200):
        x = random_dist(RL, rng, int(rng.integers(1, 4)))
        y = random_dist(RL, rng, int(rng.integers(1, 4)))
        p = float(rng.uniform(0.1, 2.0))
        try:
            rep = roundness_ratio(Config(RL, x, y, p))
        except DegenerateRatioError:
            continue
        assert rep.value <= 2.0 + 1e-9


def test_roundness_bounded_in_all_five_exponent_ranges():
    # the proven exponent bounds the ratio in every range, including the two
    # ranges the acceptance sweep skips
    from momentmoduli.constants import C_exponent

    def sample(rng, which):
        if which == 1:
            p = float(rng.uniform(2.0, 5.0))
            return p, float(rng.uniform(p / (p - 1.0), p))
        if which == 2:
            q = float(rng.uniform(2.0, 5.0))
            return float(rng.uniform(q / (q - 1.0), q)), q
        if which == 3:
            q = float(rng.uniform(2.0, 5.0))
            return float(rng.uniform(1.0, q / (q - 1.0))), q
        if which == 4:
            q = float(rng.uniform(1.05, 2.0))
            return float(rng.uniform(q, min(q / (q - 1.0), 6.0))), q
        p = float(rng.uniform(1.0, 2.0))
        return p, float(rng.uniform(p, 2.0))

    for which in (1, 2, 3, 4, 5):
        rng = np.random.default_rng([99, which])
        for _ in range(200):
            p, q = sample(rng, which)
            sp = WeightedLq(q)
            x = random_dist(sp, rng, int(rng.integers(2, 5)), dim=3)
            y = random_dist(sp, rng, int(rng.integers(2, 5)), dim=3)
            try:
                value = roundness_ratio(Config(sp, x, y, p)).value
            except DegenerateRatioError:
                continue
            assert value <= 2.0 ** C_exponent(p, q) + 1e-7, (which, p, q, value)


def test_snowflake_transfer_identity(rng):
    from momentmoduli.spaces import Snowflake
    base = WeightedLq(3.0)
    alpha = 0.6
    snow = Snowflake(base, alpha)
    x = random_dist(base, rng, 3, dim=3)
    y = random_dist(base, rng, 2, dim=3)
    xs = FiniteDist(snow, x.atoms, x.probs)
    ys = FiniteDist(snow, y.atoms, y.probs)
    p = 2.2
    v1 = roundness_ratio(Config(snow, xs, ys, p)).value
    v2 = roundness_ratio(Config(base, x, y, alpha * p)).value
    assert v1 == v2  # bitwise: the exponent is fused into one power call


# ---------------------------------------------------------------- jensen

def test_jensen_two_point_powers():
    u = FiniteDist.uniform(RL, [-1.0, 1.0])
    for p in (1.0, 2.0, 3.0):
        assert jensen_ratio(u, p).value == pytest.approx(2.0 ** (p - 1.0), rel=1e-12)


def test_jensen_basis_and_rademacher_examples():
    basis = make_jensen("basis", p=2.0, n=10, q=2.0)
    assert jensen_ratio(basis.config.X, 2.0).value == pytest.approx(2.0, rel=1e-12)
    rad = make_jensen("rademacher", p=3.0, n=10, q=3.0)
    assert jensen_ratio(rad.config.X, 3.0).value == pytest.approx(4.0, rel=1e-12)


def test_jensen_rejects_constant_and_small_p():
    with pytest.raises(DegenerateRatioError):
        jensen_ratio(FiniteDist.delta(RL, 1.0), 2.0)
    with pytest.raises(ValueError):
        jensen_ratio(FiniteDist.uniform(RL, [0.0, 1.0]), 0.5)


def test_jensen_lower_bound_on_lq(rng):
    # every distribution's ratio sits above the sharp Jensen constant
    for q in (1.0, 1.5, 2.0, 3.0):
        sp = WeightedLq(q)
        for _ in range(50):
            x = random_dist(sp, rng, int(rng.integers(2, 5)), dim=3)
            p = float(rng.uniform(1.0, 4.0))
            try:
                rep = jensen_ratio(x, p)
            except DegenerateRatioError:
                continue
            assert rep.value >= rep.bound - 1e-7 * max(1.0, rep.value)


# ---------------------------------------------------------------- mixture

def test_mixture_iid_uniform_pair():
    u = FiniteDist.uniform(RL, [0.0, 1.0])
    assert mixture_ratio(Config(RL, u, u, 1.0)).value == pytest.approx(2.0, rel=1e-14)


def test_mixture_two_point_value():
    for p in (1.0, 2.0, 3.0):
        nc = make_two_point(p)
        assert mixture_ratio(nc.config).value == pytest.approx(
            2.0 ** (2.0 - p), rel=1e-12)


def test_mixture_universal_bound_random(rng):
    for _ in range(150):
        x = random_dist(RL, rng, int(rng.integers(1, 4)))
        y = random_dist(RL, rng, int(rng.integers(1, 4)))
        p = float(rng.uniform(1.0, 4.0))
        try:
            rep = mixture_ratio(Config(RL, x, y, p))
        except DegenerateRatioError:
            continue
        assert rep.value <= 3.0 ** p / 2.0 ** (p - 1.0) + 1e-9


def test_mixture_equals_centered_mixture_identity(rng):
    from momentmoduli.distributions import centered_moment, mixture as mix
    sp = WeightedLq(2.5)
    for _ in range(50):
        x = random_dist(sp, rng, 3, dim=3)
        y = random_dist(sp, rng, 2, dim=3)
        p = float(rng.uniform(1.0, 4.0))
        cfg = Config(sp, x, y, p)
        v = mixture_ratio(cfg).value
        ref = 2.0 * centered_moment(mix(x, y), p) / cross_moment(x, y, p)
        assert v == pytest.approx(ref, rel=1e-10)


# ---------------------------------------------------------------- barycenter

def test_barycenter_objective_fn_at_origin():
    nc = make_fn(3, INF, 1.0)
    z = CVector.zeros(6)
    assert barycenter_objective(nc.config, z) == pytest.approx(14.0, abs=1e-12)


def test_barycenter_objective_coercive_and_midpoint():
    u = FiniteDist.uniform(RL, [0.0, 1.0])
    cfg = Config(RL, u, u, 2.0)
    assert barycenter_objective(cfg, 1e6) > 1e11
    two = Config(RL, FiniteDist.delta(RL, 0.0), FiniteDist.delta(RL, 1.0), 2.0)
    assert barycenter_objective(two, 0.5) == pytest.approx(2 * 0.25, abs=1e-15)


def test_minimize_barycenter_fn_example():
    nc = make_fn(2, INF, 2.0)
    cert = minimize_barycenter(nc.config)
    assert cert.value == pytest.approx(32.0, rel=1e-12)
    assert np.max(np.abs(cert.z_star.entries)) < 2.0  # near the hyperplane center
    assert cert.value <= barycenter_objective(nc.config, CVector.zeros(4)) + 1e-12


def test_minimize_barycenter_symmetric_two_point():
    x = FiniteDist.uniform(RL, [-2.0, 2.0])
    cert = minimize_barycenter(Config(RL, x, x, 2.0))
    assert abs(cert.z_star) < 1e-4
    assert cert.value == pytest.approx(8.0, rel=1e-6)


def test_minimize_barycenter_eps_atom_interior_optimum():
    # closed-form infimum of (1-eps) r^p + eps (1-r)^p, doubled for X = Y;
    # the optimizer sits strictly between the atoms
    eps, p = 0.1, 2.0
    nc = make_eps_atom(eps, p)
    cert = minimize_barycenter(nc.config)
    r = 1.0 / (p - 1.0)
    single = eps * (1 - eps) / (eps ** r + (1 - eps) ** r) ** (p - 1.0)
    assert cert.value == pytest.approx(2.0 * single, rel=1e-6)
    assert cert.z_star == pytest.approx(0.1, abs=1e-4)


def test_minimize_barycenter_rejects_small_p():
    u = FiniteDist.uniform(RL, [0.0, 1.0])
    with pytest.raises(ValueError):
        minimize_barycenter(Config(RL, u, u, 0.7))


def test_minimize_barycenter_never_beats_start_invariant(rng):
    from momentmoduli.distributions import mean, mixture as mix
    for _ in range(20):
        x = random_dist(RL, rng, int(rng.integers(1, 4)))
        y = random_dist(RL, rng, int(rng.integers(1, 4)))
        p = float(rng.uniform(1.0, 3.5))
        cfg = Config(RL, x, y, p)
        cert = minimize_barycenter(cfg)
        zm = mean(mix(x, y))
        assert cert.value <= barycenter_objective(cfg, zm) + 1e-12
        assert cert.value == pytest.approx(
            barycenter_objective(cfg, cert.z_star), abs=1e-12)


def test_minimize_barycenter_schatten_symmetric_pair():
    sp = Schatten(2.0)
    a = CMatrix(np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex))
    b = CMatrix(-a.entries)
    x = FiniteDist.uniform(sp, [a, b])
    cert = minimize_barycenter(Config(sp, x, x, 2.0))
    # symmetric pair: optimum at the zero matrix, value 2 * E||X||^2 = 4
    assert cert.value == pytest.approx(4.0, rel=1e-12)


# ------------------------------------------------ SVD subgradients

def _complex_config(space, p, seed, nx, ny, zero_sum=False):
    """Laws of ``nx`` and ``ny`` complex atoms drawn from
    ``default_rng(seed)``: 2 x 2 matrices, 3 coordinates for l_q."""
    rng = np.random.default_rng(seed)
    shape = ((2, 2) if isinstance(space, Schatten) else (3,) if isinstance(space, WeightedLq)
             else (2 * space.n,))

    def law(n):
        a = rng.normal(size=(n,) + shape) + 1j * rng.normal(size=(n,) + shape)
        return FiniteDist(space, AtomStack(space, a), rng.dirichlet(np.ones(n)))

    return Config(space, law(nx), law(ny), p, zero_sum)


def _objective_at_rows(cfg, rows):
    return np.array([barycenter_objective(cfg, cfg.X.stack.with_array(r[None]))
                     for r in rows])


def _central_difference(cfg, problem, z, h=1e-6):
    # the derivative of the kernel objective along the real and the
    # imaginary part of each entry, read as one complex component
    g = np.zeros_like(z)
    for k in range(z.shape[1]):
        for unit in (1.0, 1j):
            step = np.zeros_like(z)
            step[:, k] = h * unit
            up = _objective_at_rows(cfg, problem.rows(z + step))
            down = _objective_at_rows(cfg, problem.rows(z - step))
            g[:, k] += unit * (up - down) / (2.0 * h)
    return g


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("space", [Schatten(1.0), Schatten(1.5), Schatten(3.0),
                                   ParallelogramS1(1), ParallelogramS1(2)], ids=str)
def test_svd_subgradients_match_central_differences(space, p):
    cfg = _complex_config(space, p, 21, 3, 2)
    problem = _SvdProblem(cfg)
    rng = np.random.default_rng(22)
    shape = (4,) + cfg.X.stack.array.shape[1:]
    z = problem.flat(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    f, g = problem.value_and_subgrad(z)
    assert f == pytest.approx(_objective_at_rows(cfg, problem.rows(z)), rel=1e-12)
    reference = _central_difference(cfg, problem, z)
    assert np.abs(g - reference).max() <= 1e-6 * np.abs(reference).max()


@pytest.mark.parametrize("zero_sum", [False, True])
@pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
def test_schatten2_solves_equal_l2_solves_on_the_flattened_entries(p, zero_sum):
    # the Schatten-2 norm is the l_2 norm of the entries
    cfg = _complex_config(Schatten(2.0), p, 11, 2, 2, zero_sum)
    l2 = WeightedLq(2.0)

    def flat(law):
        return FiniteDist(l2, AtomStack(l2, law.stack.array.reshape(len(law.stack), -1)),
                          law.probs)

    cert = minimize_barycenter(cfg)
    expected = minimize_barycenter(Config(l2, flat(cfg.X), flat(cfg.Y), p, zero_sum))
    assert cert.value == pytest.approx(expected.value, rel=1e-9)
    if zero_sum:
        assert abs(cert.z_star.entries.sum()) < 1e-9


@pytest.mark.parametrize("space,p", [(Schatten(1.0), 1.5), (Schatten(3.0), 1.5),
                                     (ParallelogramS1(1), 1.0), (ParallelogramS1(1), 2.0)],
                         ids=str)
def test_uncapped_svd_solves_have_the_minimizer_properties(space, p):
    cfg = _complex_config(space, p, 0, 2, 1)
    cert = minimize_barycenter(cfg)
    assert cert.value == barycenter_objective(cfg, cert.z_star)
    both = np.concatenate([cfg.X.stack.array, cfg.Y.stack.array])
    starts = np.concatenate([both, mean_row(mixture(cfg.X, cfg.Y))[None],
                             np.zeros_like(both[:1])])
    # the solver ranks starts by its SVD values, the kernel may round apart
    assert np.all(cert.value <= _objective_at_rows(cfg, starts) * (1.0 + 1e-12))
    assert cert.value >= 2.0 ** (1.0 - p) * cross_moment(cfg.X, cfg.Y, p)


def test_barycenter_ratio_examples():
    nc = make_fn(5, INF, 1.0)
    assert barycenter_ratio(nc.config).value == pytest.approx(2.6, abs=1e-6)
    for p in (1.0, 2.0):
        assert barycenter_ratio(make_two_point(p).config).value == pytest.approx(
            2.0 ** (2.0 - p), rel=1e-6)


def test_barycenter_ratio_iid_at_most_two(rng):
    for _ in range(25):
        x = random_dist(RL, rng, int(rng.integers(2, 5)))
        p = float(rng.uniform(1.0, 3.0))
        try:
            rep = barycenter_ratio(Config(RL, x, x, p))
        except DegenerateRatioError:
            continue
        assert rep.value <= 2.0 + 1e-6


def test_barycenter_chain_below_mixture(rng):
    sp = WeightedLq(2.0)
    for _ in range(25):
        x = random_dist(sp, rng, int(rng.integers(1, 4)), dim=2)
        y = random_dist(sp, rng, int(rng.integers(1, 4)), dim=2)
        p = float(rng.uniform(1.0, 3.0))
        cfg = Config(sp, x, y, p)
        try:
            vb = barycenter_ratio(cfg).value
            vm = mixture_ratio(cfg).value
        except DegenerateRatioError:
            continue
        assert vb <= vm + 1e-9
        assert vb <= 3.0 ** p / 2.0 ** (p - 1.0) + 1e-7


def test_barycenter_ratio_nonconvex_range_uses_mixture_draw():
    u = FiniteDist.uniform(RL, [0.0, 1.0])
    rep = barycenter_ratio(Config(RL, u, u, 0.5))
    assert rep.value == pytest.approx(2.0, rel=1e-12)  # the sharp constant
    assert rep.bound == 2.0
    assert rep.solver_info is None


# ------------------------------------------------ certified lower bounds

_BOUND_SPACES = [RL, WeightedLq(1.0), WeightedLq(1.5), WeightedLq(2.0), WeightedLq(3.0),
                 WeightedLq(INF), Schatten(1.0), Schatten(2.0), Schatten(3.0),
                 ParallelogramS1(1), ParallelogramS1(2)]


@st.composite
def _bound_configs(draw):
    """A configuration of laws of unit size, and a power of two k: the laws
    times 2^k (2^498 is about 8e149) send the solver down its rescaled path."""
    space = draw(st.sampled_from(_BOUND_SPACES))
    p = draw(st.sampled_from([1.0, 1.2, 1.5, 1.9, 2.0, 3.0]))
    real = draw(st.booleans())
    weights = None
    if isinstance(space, RealLine):
        shape = ()
    elif isinstance(space, WeightedLq):
        dim = draw(st.integers(1, 3))
        shape = (dim,)
        if draw(st.booleans()):
            # one positive weight at least, which the sup norm needs
            first = draw(st.sampled_from([0.25, 1.0, 3.0]))
            rest = draw(st.lists(st.sampled_from([0.0, 0.25, 1.0, 3.0]),
                                 min_size=dim - 1, max_size=dim - 1))
            weights = np.array([first] + rest)
    elif isinstance(space, Schatten):
        shape = (2, 2)
    else:
        shape = (2 * space.n,)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def law():
        n = draw(st.integers(1, 3))
        rows = rng.normal(size=(n,) + shape)
        if not (real or isinstance(space, RealLine)):
            rows = rows + 1j * rng.normal(size=(n,) + shape)
        return FiniteDist(space, AtomStack(space, rows, weights), rng.dirichlet(np.ones(n)))

    cfg = Config(space, law(), law(), p, draw(st.booleans()))
    # 2^(k p) is a power of two, the minimum's exact factor, only where k p
    # is an integer
    return cfg, draw(st.sampled_from([-498, 0, 498])) if (498 * p).is_integer() else 0


def _times_power_of_two(cfg, k):
    def law(d):
        return FiniteDist(d.space, d.stack.with_array(d.stack.array * 2.0 ** k), d.probs)

    return Config(cfg.space, law(cfg.X), law(cfg.Y), cfg.p, cfg.zero_sum)


def _seeded_config(space, p, seed, weights=None, zero_sum=False, complex_atoms=True):
    """Laws of 3 and 2 atoms on 3 coordinates (or the real line), drawn from
    ``default_rng(seed)``: X's atoms and probabilities, then Y's."""
    rng = np.random.default_rng(seed)
    shape = () if isinstance(space, RealLine) else (3,)

    def law(n):
        rows = rng.normal(size=(n,) + shape)
        if complex_atoms and shape:
            rows = rows + 1j * rng.normal(size=(n,) + shape)
        return FiniteDist(space, AtomStack(space, rows, weights), rng.dirichlet(np.ones(n)))

    return Config(space, law(3), law(2), p, zero_sum)


# the majorize-minimize path: weighted l_2 with a weight 0, zero_sum with
# equal weights, the real line, at unit size and at 2^498 and 2^-498 times
# it, and unequal weights under zero_sum, which the quasi-Newton stage solves
@example((_seeded_config(WeightedLq(2.0), 1.0, 1, np.array([0.5, 0.0, 2.0])), 0))
@example((_seeded_config(WeightedLq(2.0), 1.2, 2, np.full(3, 0.25), zero_sum=True), 0))
@example((_seeded_config(WeightedLq(2.0), 1.5, 3, zero_sum=True), 498))
@example((_seeded_config(WeightedLq(2.0), 1.9, 4, np.array([1.0, 0.0, 3.0]),
                         complex_atoms=False), 0))
@example((_seeded_config(WeightedLq(2.0), 1.0, 8, complex_atoms=False), -498))
@example((_seeded_config(RL, 1.2, 5), 0))
@example((_seeded_config(RL, 1.9, 6, zero_sum=True), 0))
@example((_seeded_config(WeightedLq(2.0), 1.5, 7, np.array([1.0, 0.0, 3.0]),
                         zero_sum=True), 0))
# the real line at p = 3 times 2^498, whose objective leaves the float range
@example((_seeded_config(RL, 3.0, 9), 498))
@settings(max_examples=25, deadline=None)
@given(_bound_configs())
def test_barycenter_lower_bound_never_exceeds_the_minimum(case):
    unit, k = case
    cfg = _times_power_of_two(unit, k)
    # the minimum: the unit-size solve with the gap stop off and five times
    # the budget, scaled by 2^(k p) exactly; at unit size the objective's
    # float value is closest to the exact one
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(barycenter, "_GAP_TARGET", -1.0)
        long = minimize_barycenter(unit, max_iters_per_start=2500)
    try:
        minimum = math.ldexp(long.value, int(k * cfg.p))
    except OverflowError:       # the minimum leaves the float range: no certificate
        with pytest.raises(OverflowError, match="^Barycenter objective is not finite"):
            minimize_barycenter(cfg, max_iters_per_start=500)
        return
    cert = minimize_barycenter(cfg, max_iters_per_start=500)
    assert cert.lower <= cert.value
    assert cert.gap == cert.value - cert.lower
    if cert.stop == "gap":
        assert cert.gap <= 1e-12 * cert.value
    assert cert.lower <= minimum


@pytest.mark.parametrize("space,p", [(RL, 2.0), (RL, 3.0), (WeightedLq(3.0), 2.0)],
                         ids=["real-p2-closed-form", "real-p3", "l3-p2"])
def test_barycenter_objective_beyond_the_float_range_raises(space, p):
    # atoms near 2^830: the solve is finite in the solver's scaled units but
    # the value is not, and a certificate with an inf or NaN end certifies
    # nothing
    big = math.ldexp(1.0, 830)
    if isinstance(space, RealLine):
        x = FiniteDist.uniform(RL, [-big, big])
        y = FiniteDist.uniform(RL, [0.0, 3.0 * big])
    else:
        x = FiniteDist.uniform(space, [CVector([big, 0.0]), CVector([-big, big])])
        y = FiniteDist.delta(space, CVector([0.0, 2.0 * big]))
    with pytest.raises(OverflowError, match=r"^Barycenter objective is not finite \(value=inf\)$"):
        minimize_barycenter(Config(space, x, y, p))


def test_fn_inf_solve_stops_on_the_gap_at_its_starts():
    cert = minimize_barycenter(make_fn(3, INF, 2.0).config)
    assert (cert.stop, cert.iterations) == ("gap", 0)
    # the infimum, at the origin, is 2 * 7^2
    assert cert.lower <= 98.0
    assert cert.value == 98.0
    assert cert.gap <= 1e-12 * cert.value


def test_each_stop_reason_and_the_solver_json():
    golden = _golden_configs()
    cases = [(golden["l2-p2"], {}, "closed_form"), (_sup_norm_stall_config(), {}, "stall"),
             (make_fn(2, INF, 1.0).config, {}, "gap"),
             (_complex_config(ParallelogramS1(1), 2.0, 1, 2, 2), {"max_iters_per_start": 30},
              "cap")]
    for cfg, kwargs, stop in cases:
        cert = minimize_barycenter(cfg, **kwargs)
        assert cert.stop == stop
        assert cert.lower <= cert.value
        out = cert.to_json()
        assert (out["lower"], out["gap"], out["stop"]) == (cert.lower, cert.gap, stop)


def _sup_norm_stall_config():
    """A real l_inf input whose gap neither the quasi-Newton stage nor the
    subgradient loop closes: it stays near 1e-4 relative."""
    return _seeded_config(WeightedLq(INF), 1.5, 408, complex_atoms=False)


def test_sup_norm_stall_stays_at_most_the_subgradient_loop_value():
    # the subgradient loop alone ended this solve on a stall at
    # 3.514225098035734; it now iterates the same rows with the same steps
    cert = minimize_barycenter(_sup_norm_stall_config())
    assert cert.stop == "stall"
    assert cert.lower <= cert.value <= 3.514225098035734


@pytest.mark.parametrize("s", [0, 1])
@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("space", [WeightedLq(1.5), WeightedLq(3.0), Schatten(1.5),
                                   Schatten(3.0)], ids=str)
def test_smooth_solves_close_the_gap_in_the_quasi_newton_stage(space, p, s):
    cfg = _complex_config(space, p, [s, 99], 3, 3)
    cert = minimize_barycenter(cfg)
    assert cert.stop == "gap"
    assert cert.iterations <= 50
    both = np.concatenate([cfg.X.stack.array, cfg.Y.stack.array])
    starts = np.concatenate([both, mean_row(mixture(cfg.X, cfg.Y))[None],
                             np.zeros_like(both[:1])])
    assert np.all(cert.value <= _objective_at_rows(cfg, starts))


def test_zero_sum_quasi_newton_iterates_stay_on_the_hyperplane():
    # an iterate off the hyperplane by rounding drift has a value below the
    # constrained problem's certified lower bound
    cfg = _complex_config(WeightedLq(3.0), 1.5, [0, 99], 3, 3, zero_sum=True)
    cert = minimize_barycenter(cfg)
    assert cert.stop == "gap"
    entries = np.asarray(cert.z_star.entries)
    assert abs(entries.sum()) <= 4 * 2.0 ** -52 * np.abs(entries).sum()


def test_solver_stops_alike_on_scaled_laws():
    # the stall rule is relative: an absolute floor of 1e-15 on the progress
    # ended the tiny solves on "stall" after 2,049 and 1,213 iterations
    rng = np.random.default_rng([0, 99])
    xa, ya = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(2))
    xp, yp = rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3))
    l3 = WeightedLq(3.0)
    stops = []
    for k in (0, -20, -60):
        cfg = Config(l3, FiniteDist(l3, AtomStack(l3, xa * 2.0 ** k), xp),
                     FiniteDist(l3, AtomStack(l3, ya * 2.0 ** k), yp), 1.0)
        cert = minimize_barycenter(cfg)
        assert cert.gap <= 1e-12 * cert.value
        stops.append((cert.stop, cert.iterations))
    assert stops == [("gap", 20)] * 3


def _l2_atom_minimum_config():
    """The fixed l_2, p = 1 input of the benchmark's ``l2-atom-minimum``
    operation, drawn with the same generator calls: its minimizer lies 0.44
    from the nearest atom, where the subgradient loop needed 18,045
    iterations and ended on a stall."""
    rng = np.random.default_rng([4, 77])
    xa = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    ya = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
    xp, yp = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(5))
    l2 = WeightedLq(2.0)
    return Config(l2, FiniteDist(l2, AtomStack(l2, xa), xp),
                  FiniteDist(l2, AtomStack(l2, ya), yp), 1.0)


def test_l2_p1_solve_near_an_atom_stops_on_the_gap():
    cert = minimize_barycenter(_l2_atom_minimum_config())
    assert cert.stop == "gap"
    assert cert.iterations <= 500
    assert cert.gap <= 1e-12 * cert.value


def test_l2_solve_over_two_hundred_atoms_stops_on_the_gap():
    # every atom is a start, but only the best start off the atoms iterates
    rng = np.random.default_rng(22)
    l2 = WeightedLq(2.0)
    x, y = (FiniteDist(l2, AtomStack(l2, rng.normal(size=(100, 8))), np.full(100, 0.01))
            for _ in range(2))
    cert = minimize_barycenter(Config(l2, x, y, 1.5))
    assert (cert.stop, cert.starts, cert.best_start) == ("gap", 202, "mixture_mean")
    assert cert.iterations <= 100


def _real_line_config(xs, xp, ys, yp, p):
    return Config(RL, FiniteDist(RL, AtomStack(RL, xs), np.array(xp)),
                  FiniteDist(RL, AtomStack(RL, ys), np.array(yp)), p)


def _real_line_on_atom_config():
    """p = 1.01 with a minimizer that hugs an atom: the majorize-minimize
    iterate lands on the atom, then the quasi-Newton stage and the
    subgradient fallback run."""
    return _real_line_config([0.0, 1.0, 2.0], [0.45, 0.3, 0.25], [0.0, -1.5], [0.45, 0.55],
                             1.01)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("cfg", [
    # the "zero" start lies on an atom
    make_eps_atom(0.1, 1.5).config,
    # p = 1.01, minimizers that hug an atom: the majorize-minimize iterate
    # lands on the atom in the first and stalls in the second, so the
    # subgradient loop runs after it
    _real_line_on_atom_config(),
    _real_line_config([0.0, 1.0], [0.55, 0.45], [0.3, -0.7], [0.5, 0.5], 1.01),
], ids=["eps-atom", "real-line-on-atom", "real-line-near-atom"])
def test_euclidean_solves_at_and_near_atoms_stay_finite_and_below_every_start(cfg):
    cert = minimize_barycenter(cfg)
    starts = list(cfg.X.atoms) + list(cfg.Y.atoms) + [mean(mixture(cfg.X, cfg.Y)), 0.0]
    assert math.isfinite(cert.value) and math.isfinite(cert.lower)
    assert cert.lower <= cert.value
    assert all(cert.value <= barycenter_objective(cfg, z) for z in starts)


def test_solve_through_all_three_stages_is_pinned_bit_for_bit():
    # the one deterministic input that runs majorize-minimize, quasi-Newton
    # and the fallback, whose bound cadence counts the majorize-minimize
    # steps but not the quasi-Newton ones
    cert = minimize_barycenter(_real_line_on_atom_config())
    assert (cert.value, cert.lower, cert.stop, cert.iterations, cert.best_start, cert.z_star) \
        == (1.6318296529257963, 1.631824633365955, "stall", 1283, "atom:0", 0.0)


# ---------------------------------------------------------------- metric barycenter

def test_metric_barycenter_bipartite_examples():
    assert metric_barycenter_ratio(make_bipartite(4, 2.0).config).value \
        == pytest.approx(4.0, abs=1e-12)
    assert metric_barycenter_ratio(make_bipartite(1, 1.0).config).value \
        == pytest.approx(1.0, abs=1e-15)
    assert metric_barycenter_ratio(make_bipartite(100, 1.0).config).value \
        == pytest.approx(2.98, abs=1e-12)


def test_metric_barycenter_never_exceeds_bound(rng):
    for n in (1, 2, 4, 100):
        for p in (1.0, 2.0, 3.0):
            rep = metric_barycenter_ratio(make_bipartite(n, p).config)
            assert rep.value <= 2.0 ** p + 1.0 + 1e-12


def test_metric_barycenter_single_atom_trivial_zero():
    d = FiniteDist.delta(RL, 3.0)
    rep = metric_barycenter_ratio(Config(RL, d, d, 2.0))
    assert rep.value == 0.0


def test_metric_barycenter_atom_candidates_on_real_line():
    x = FiniteDist.uniform(RL, [0.0, 1.0])
    y = FiniteDist.delta(RL, 2.0)
    rep = metric_barycenter_ratio(Config(RL, x, y, 1.0))
    # the candidates are the union of supports: try z in {0, 1, 2}
    best = min(barycenter_objective(Config(RL, x, y, 1.0), z) for z in (0.0, 1.0, 2.0))
    assert rep.value == pytest.approx(best / cross_moment(x, y, 1.0), rel=1e-14)


def test_barycenter_over_an_infinite_denominator_raises_without_a_solve(monkeypatch):
    # E d(X, Y)^1.5 overflows at a distance of 1e300: the ratio is rejected
    # before the solver runs
    def no_solve(*args, **kwargs):
        raise AssertionError("minimize_barycenter ran")

    monkeypatch.setattr(moduli, "minimize_barycenter", no_solve)
    x = FiniteDist.uniform(RL, [0.0, 1.0])
    y = FiniteDist.delta(RL, 1e300)
    with pytest.raises(OverflowError, match="Barycenter moments are not finite"):
        barycenter_ratio(Config(RL, x, y, 1.5))


# ---------------------------------------------------------------- log roundness

def test_log_roundness_atomic_cases(monkeypatch):
    # atomic self-pairs force -inf, so the report computes no distance
    def no_kernel(*args):
        raise AssertionError("pairwise_powered ran")

    monkeypatch.setattr(distributions, "pairwise_powered", no_kernel)
    monkeypatch.setattr(moduli, "pairwise_powered", no_kernel)
    a = FiniteDist.uniform(RL, [0.0, 2.0])
    b = FiniteDist.uniform(RL, [1.0, 3.0])
    rep = log_roundness_report(Config(RL, a, b, 1.0))
    assert (rep.value, rep.bound, rep.slack) == (-math.inf, 0.0, math.inf)
    d0, d1 = FiniteDist.delta(RL, 0.0), FiniteDist.delta(RL, 1.0)
    assert log_roundness_report(Config(RL, d0, d1, 1.0)).value == -math.inf


# ---------------------------------------------------------------- reports

def test_all_reports_cover_linear_space():
    nc = make_two_point(2.0)
    names = [r.name for r in all_reports(nc.config)]
    assert names.count("Jensen") == 2
    for expected in ("Roundness", "MetricBarycenter", "Mixture",
                     "Barycenter", "LogRoundness"):
        assert expected in names


def test_report_slack_consistency():
    rep = roundness_ratio(make_disjoint_bernoulli(4, 2.0, 2.0).config)
    assert rep.slack == pytest.approx(rep.bound - rep.value, abs=1e-15)
    js = rep.to_json()
    assert js["name"] == "Roundness"
    row = rep.csv_row(2.0, WeightedLq(2.0))
    assert row[0] == "Roundness" and row[2] == 2.0


# ------------------------------------------------- solver vs grid oracles

def _real_line_grid_oracle(cfg, points=40001, pad=1.0):
    # independent implementation: raw numpy scan over a dense 1-d grid
    atoms = np.array(list(cfg.X.atoms) + list(cfg.Y.atoms))
    lo, hi = atoms.min() - pad, atoms.max() + pad
    grid = np.linspace(lo, hi, points)
    vals = np.zeros_like(grid)
    for a, w in zip(cfg.X.atoms, cfg.X.probs):
        vals += w * np.abs(a - grid) ** cfg.p
    for a, w in zip(cfg.Y.atoms, cfg.Y.probs):
        vals += w * np.abs(a - grid) ** cfg.p
    return float(vals.min()), (hi - lo) / (points - 1)


def test_minimize_barycenter_matches_grid_oracle_real_line(rng):
    for _ in range(12):
        x = random_dist(RL, rng, int(rng.integers(1, 5)))
        y = random_dist(RL, rng, int(rng.integers(1, 5)))
        p = float(rng.uniform(1.0, 3.5))
        cfg = Config(RL, x, y, p)
        cert = minimize_barycenter(cfg)
        oracle, h = _real_line_grid_oracle(cfg)
        spread = max(abs(a) for a in list(x.atoms) + list(y.atoms)) + 2.0
        slack = 4.0 * p * spread ** max(p - 1.0, 0.0) * h
        assert cert.value <= oracle + 1e-9
        assert cert.value >= oracle - slack


@pytest.mark.parametrize("q", [1.0, 2.0, 3.0, INF])
def test_minimize_barycenter_matches_grid_oracle_plane(q):
    # real 2-d configurations scanned over a 401 x 401 grid, one q per norm
    # regime (including the nonsmooth q = 1 and q = inf subgradients)
    rng = np.random.default_rng(int(10 * q if q != INF else 999))
    sp = WeightedLq(q)
    for _ in range(3):
        xa = [CVector(rng.normal(size=2).astype(complex)) for _ in range(3)]
        ya = [CVector(rng.normal(size=2).astype(complex)) for _ in range(2)]
        x = FiniteDist(sp, tuple(xa), rng.dirichlet(np.ones(3)))
        y = FiniteDist(sp, tuple(ya), rng.dirichlet(np.ones(2)))
        p = float(rng.uniform(1.0, 3.0))
        cfg = Config(sp, x, y, p)
        cert = minimize_barycenter(cfg)

        pts = np.array([a.entries.real for a in xa + ya])
        lo = pts.min() - 0.5
        hi = pts.max() + 0.5
        axis = np.linspace(lo, hi, 401)
        g0, g1 = np.meshgrid(axis, axis)
        vals = np.zeros_like(g0)
        for a, w in list(zip(xa, x.probs)) + list(zip(ya, y.probs)):
            d0 = np.abs(a.entries[0].real - g0)
            d1 = np.abs(a.entries[1].real - g1)
            if q == INF:
                dist = np.maximum(d0, d1)
            else:
                dist = (d0 ** q + d1 ** q) ** (1.0 / q)
            vals += w * dist ** p
        oracle = float(vals.min())
        h = (hi - lo) / 400.0
        spread = float(np.abs(pts).max()) + 1.0
        slack = 6.0 * p * (2 * spread) ** max(p - 1.0, 0.0) * h
        assert cert.value <= oracle + 1e-9, (q, p, cert.value, oracle)
        assert cert.value >= oracle - slack, (q, p, cert.value, oracle)


def test_minimize_barycenter_zero_sum_grid_oracle():
    # constrained problem on the zero-sum line of R^2: z = (t, -t)
    rng = np.random.default_rng(77)
    sp = WeightedLq(2.0)
    atoms = []
    for _ in range(4):
        t = rng.normal()
        atoms.append(CVector(np.array([t, -t], dtype=complex)))
    x = FiniteDist.uniform(sp, atoms[:2])
    y = FiniteDist.uniform(sp, atoms[2:])
    cfg = Config(sp, x, y, 2.0, zero_sum=True)
    cert = minimize_barycenter(cfg)
    ts = np.linspace(-5, 5, 200001)
    vals = np.zeros_like(ts)
    for a, w in list(zip(x.atoms, x.probs)) + list(zip(y.atoms, y.probs)):
        t0 = a.entries[0].real
        vals += w * (2.0 * (t0 - ts) ** 2) ** 1.0  # ||(t0,-t0)-(t,-t)||_2^2
    oracle = float(vals.min())
    assert cert.value == pytest.approx(oracle, rel=1e-6)
    # iterate stayed on the constraint line
    assert abs(cert.z_star.entries.sum()) < 1e-9


# ------------------------------------------------ invariance under scaling

@pytest.mark.parametrize("scale", [1e-150, 1e-100, 1e100, 1e150])
@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("space", [WeightedLq(3.0), ParallelogramS1(2), Schatten(1.0),
                                   Schatten(4.0), RL], ids=str)
def test_ratios_are_unchanged_when_both_laws_are_scaled(space, p, scale):
    # the ratios are homogeneous of degree 0: a kernel that over- or
    # underflows at extreme magnitudes changes them
    rng = np.random.default_rng(31)
    x = random_dist(space, rng, 3, dim=2)
    y = random_dist(space, rng, 2, dim=2)

    def scaled(law):
        return FiniteDist(space, law.stack.with_array(law.stack.array * scale), law.probs)

    cfg = Config(space, x, y, p)
    big = Config(space, scaled(x), scaled(y), p)
    for ratio in (roundness_ratio, mixture_ratio):
        assert ratio(big).value == pytest.approx(ratio(cfg).value, rel=1e-12)


@pytest.mark.parametrize("scale", [1e-150, 1e150])
@pytest.mark.parametrize("space,p", [(WeightedLq(3.0), 1.0), (WeightedLq(3.0), 2.0),
                                     (Schatten(3.0), 1.5), (ParallelogramS1(1), 1.0)],
                         ids=str)
def test_barycenter_solves_are_unchanged_when_both_laws_are_scaled(space, p, scale):
    # the solver ranks starts by its own objective values; where the q-th
    # powers of the differences leave the float range they must not all read
    # 0 or inf
    rng = np.random.default_rng(7)
    cfg = Config(space, random_dist(space, rng, 2, dim=2),
                 random_dist(space, rng, 1, dim=2), p)

    def scaled(law):
        return FiniteDist(space, law.stack.with_array(law.stack.array * scale), law.probs)

    ref = minimize_barycenter(cfg, max_iters_per_start=200)
    big = minimize_barycenter(Config(space, scaled(cfg.X), scaled(cfg.Y), p),
                              max_iters_per_start=200)
    assert big.best_start == ref.best_start
    assert big.value == pytest.approx(ref.value * scale ** p, rel=1e-12)


# ------------------------------------------------ closed-form barycenters

def _real_lq_config(q, p, rng, dirichlet, dim=6, nx=4, ny=5, zero_sum=False):
    sp = WeightedLq(q)
    xs = [CVector(rng.normal(size=dim).astype(complex)) for _ in range(nx)]
    ys = [CVector(rng.normal(size=dim).astype(complex)) for _ in range(ny)]
    if dirichlet:
        xp, yp = rng.dirichlet(np.ones(nx)), rng.dirichlet(np.ones(ny))
    else:
        xp, yp = np.full(nx, 1.0 / nx), np.full(ny, 1.0 / ny)
    return Config(sp, FiniteDist(sp, tuple(xs), xp), FiniteDist(sp, tuple(ys), yp),
                  p, zero_sum)


def _l1_minimum(cfg):
    # min over z of sum_i c_i sum_k |z_k - a_ik|: per coordinate a convex
    # piecewise-linear function whose minimum is attained at an atom coordinate
    atoms = np.concatenate([cfg.X.stack.array, cfg.Y.stack.array]).real
    coeffs = np.concatenate([cfg.X.probs, cfg.Y.probs])
    return sum(min(float(coeffs @ np.abs(t - col)) for t in col) for col in atoms.T)


@pytest.mark.parametrize("dirichlet", [False, True], ids=["uniform", "dirichlet"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_minimize_barycenter_real_l1_is_the_weighted_median(seed, dirichlet):
    cfg = _real_lq_config(1.0, 1.0, np.random.default_rng([seed, 77]), dirichlet)
    cert = minimize_barycenter(cfg)
    assert cert.value == pytest.approx(_l1_minimum(cfg), rel=1e-12)
    assert cert.value == barycenter_objective(cfg, cert.z_star)
    assert cert.iterations == 0


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_minimize_barycenter_real_line_closed_forms(p, rng):
    for _ in range(5):
        x = random_dist(RL, rng, int(rng.integers(1, 5)))
        y = random_dist(RL, rng, int(rng.integers(1, 5)))
        cfg = Config(RL, x, y, p)
        cert = minimize_barycenter(cfg)
        assert cert.iterations == 0
        if p == 2.0:
            assert cert.best_start == "mixture_mean"
            assert cert.z_star == mean(mixture(x, y))
        else:
            best = min(barycenter_objective(cfg, a) for a in x.atoms + y.atoms)
            assert cert.value == pytest.approx(best, rel=1e-12)


def test_minimize_barycenter_l2_p2_returns_the_mixture_mean():
    cfg = _golden_configs()["l2-p2"]
    cert = minimize_barycenter(cfg)
    assert cert.iterations == 0
    assert cert.best_start == "mixture_mean"
    assert cert.z_star == mean(mixture(cfg.X, cfg.Y))


def test_minimize_barycenter_iterates_without_a_closed_form():
    rng = np.random.default_rng(88)
    weighted = _golden_configs()["l2-p2"]
    cases = [
        _real_lq_config(1.0, 1.0, rng, True, dim=3, zero_sum=True),
        Config(WeightedLq(1.0), random_dist(WeightedLq(1.0), rng, 3, dim=3),
               random_dist(WeightedLq(1.0), rng, 2, dim=3), 1.0),
        Config(RL, random_dist(RL, rng, 3), random_dist(RL, rng, 2), 1.5),
        Config(weighted.space, weighted.X, weighted.Y, 2.0, zero_sum=True),
    ]
    for cfg in cases:
        assert minimize_barycenter(cfg).iterations > 0


# ------------------------------------------------ golden array arithmetic

def _golden_configs():
    rng = np.random.default_rng(404)
    w = np.array([0.5, 1.0, 2.0])
    l2 = WeightedLq(2.0)
    xa = [CVector(rng.normal(size=3) + 1j * rng.normal(size=3), w) for _ in range(3)]
    ya = [CVector(rng.normal(size=3) + 1j * rng.normal(size=3), w) for _ in range(2)]
    x = FiniteDist(l2, tuple(xa), rng.dirichlet(np.ones(3)))
    y = FiniteDist(l2, tuple(ya), rng.dirichlet(np.ones(2)))
    real = Config(RL, FiniteDist(RL, (-1.3, 0.2, 2.5), rng.dirichlet(np.ones(3))),
                  FiniteDist(RL, (0.7, 3.1), rng.dirichlet(np.ones(2))), 1.5)
    # unit-weight solves, which take the loop's unit-weight fast path
    rng = np.random.default_rng(405)
    cx = [CVector(rng.normal(size=3) + 1j * rng.normal(size=3)) for _ in range(3)]
    cy = [CVector(rng.normal(size=3) + 1j * rng.normal(size=3)) for _ in range(2)]
    l2_unit = Config(l2, FiniteDist(l2, tuple(cx), rng.dirichlet(np.ones(3))),
                     FiniteDist(l2, tuple(cy), rng.dirichlet(np.ones(2))), 1.0)
    l3 = WeightedLq(3.0)
    rx = [CVector(rng.normal(size=3).astype(complex)) for _ in range(3)]
    ry = [CVector(rng.normal(size=3).astype(complex)) for _ in range(2)]
    l3_real = Config(l3, FiniteDist(l3, tuple(rx), rng.dirichlet(np.ones(3))),
                     FiniteDist(l3, tuple(ry), rng.dirichlet(np.ones(2))), 3.0)
    # a sup-norm solve that iterates: the dense q = inf gradient
    rng = np.random.default_rng(413)
    linf = WeightedLq(INF)
    sx = [CVector(rng.normal(size=3).astype(complex)) for _ in range(3)]
    sy = [CVector(rng.normal(size=3).astype(complex)) for _ in range(2)]
    linf_real = Config(linf, FiniteDist(linf, tuple(sx), rng.dirichlet(np.ones(3))),
                       FiniteDist(linf, tuple(sy), rng.dirichlet(np.ones(2))), 3.0)
    # at p = 2 on l_2 the minimizer is the mixture mean, the best start
    return {"l2": Config(l2, x, y, 1.5), "l2-p2": Config(l2, x, y, 2.0),
            "linf-fn3": make_fn(3, INF, 1.0).config, "realline": real,
            "l2-unit-p1": l2_unit, "l3-real-p3": l3_real, "linf-real-p3": linf_real}


def _point_bytes(z) -> bytes:
    return np.asarray(getattr(z, "entries", z), dtype=complex).tobytes()


def _golden(cfg):
    cert = minimize_barycenter(cfg)
    means = _point_bytes(mean(cfg.X)) + _point_bytes(mean(cfg.Y))
    return (hashlib.sha256(means).hexdigest(), mixture_ratio(cfg).value, cert.value,
            hashlib.sha256(_point_bytes(cert.z_star)).hexdigest(), cert.best_start)


# sha256 of both means' bytes, the mixture ratio, the barycenter value, sha256
# of the minimizer's bytes and its best start, recorded before the means,
# mixture midpoint and solver starts became array arithmetic on the stacks
GOLDEN = {
    # the barycenter value recorded again when this solve first ended on the
    # gap: the stall value before, 5.5700112710381795, was 1.2e-10 above it,
    # and the new value lies in that solve's certified interval
    # [5.570011270258839, 5.5700112710381795]
    "l2": ("dd332717e30361adc29e2b3fa11f53d46f9d9b75d90bc8becc4e0039198bb034",
           1.0574473108869793, 5.570011270347837,
           "88c41ce1d95c9f01d2f3f7ddb622b7ec6ecae621d18292362e450812851a92ec", "atom:1"),
    "l2-p2": ("dd332717e30361adc29e2b3fa11f53d46f9d9b75d90bc8becc4e0039198bb034",
              0.9082637823613684, 8.798134695973356,
              "7876e28984ed4c04f6ccd9b8bdb13e32130ca8eccecd76a535eadf1ef045abaf",
              "mixture_mean"),
    "linf-fn3": ("97b4b0a7821bd0fe8073fea3f5b39d803cff00b3a0fbc8bc2285256704d26232",
                 2.333333333333333, 14.0,
                 "d20e9e26fce142d048fc3eb0ba7b46558e0320ad5264ce1b02841af1ee4d79df", "atom:1"),
    "realline": ("610d5b6aa76815cc29c6438addc9c370d98f2ef203f0e4bf34030eb9a720fcdb",
                 1.2666003667394592, 2.1928131673455495,
                 "f05437f8d4fddb734c833181ced72367d1e425f3a37341ca83dbcf9777f67881", "atom:1"),
    # recorded before the solver step skipped unit weights and the q = 2 mask
    "l2-unit-p1": ("2146370dfc209b1d884a13f2cd426b84e4465ea7ee04d83ff4119fc3843eba26",
                   1.2273755297842783, 3.5863471522827006,
                   "397799c8f4af67e58e303b4e83509f9ab71efe9ac4ab7eaef28a830af2399c08",
                   "atom:4"),
    # the barycenter value recorded again when this solve first ended on the
    # gap, from the quasi-Newton stage: the stall value before,
    # 9.116564485482515, was 1.35e-12 above it, and the new value lies in
    # that solve's certified interval [9.116564485466816, 9.116564485482515]
    "l3-real-p3": ("e69dd8ec9ffa824c4013218a023e4356eacb388fcbc2afc7456123f3f8e792b7",
                   0.5641778513583867, 9.116564485470231,
                   "260adff51fbd44a1c023ad26db680044dc05b0d80406c9fd24b5f452639c3fe5",
                   "atom:2"),
    # recorded when the quasi-Newton stage closed this solve's gap in 5 steps;
    # the subgradient loop before ended on the gap after 750 steps at
    # 4.925037948972305, in the certified interval
    # [4.925037948968497, 4.925037948972305], which holds the new value
    "linf-real-p3": ("b8e0380738266e42f57d8b834ddf4a56e65137b7073c67c74fbda431b31d55c9",
                     0.5891673384723651, 4.925037948970301,
                     "c6994a07673c1fd6448b7419450036da7d63f2705a93dbd792f62a915d3533da",
                     "zero"),
}

# entries pinned to the steps and the stop of their solve as well
GOLDEN_STEPS = {"linf-real-p3": (5, "gap")}


# entries whose solve now ends on the certified gap, with their best start:
# the means and mixture ratio keep their bits, the recorded barycenter value
# is at least the certified lower end and within the gap target of the new
# value.  linf-fn3 ends at its starts, where the mixture mean has the least
# float value (one ulp under the exact infimum 14); its recorded minimizer
# came from iterating from atom 1.  l2 and realline are Euclidean at
# 1 <= p < 2 and end on the majorize-minimize iterates from the mixture mean;
# l3-real-p3 ends on the quasi-Newton iterate from the mixture mean
GAP_STOPPED = {"l2": "mixture_mean", "linf-fn3": "mixture_mean",
               "realline": "mixture_mean", "l3-real-p3": "mixture_mean"}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_mean_mixture_and_barycenter_golden_values(name):
    cfg = _golden_configs()[name]
    got = _golden(cfg)
    if name in GOLDEN_STEPS:
        cert = minimize_barycenter(cfg)
        assert (cert.iterations, cert.stop) == GOLDEN_STEPS[name]
    if name not in GAP_STOPPED:
        assert got == GOLDEN[name]
        return
    means, mix, recorded, _, _ = GOLDEN[name]
    cert = minimize_barycenter(cfg)
    assert got[:2] == (means, mix)
    assert (cert.stop, got[2], got[4]) == ("gap", cert.value, GAP_STOPPED[name])
    assert cert.lower <= recorded
    assert abs(cert.value - recorded) <= 1e-12 * recorded


# metric barycenter values, recorded while the minimum was taken one
# candidate centre at a time
METRIC_BARYCENTER_GOLDEN = {
    ("bipartite100", 1.0): 2.9799999999999995,
    ("bipartite100", 2.0): 4.959999999999999,
    ("bipartite100", 3.0): 8.919999999999998,
    ("bipartite500", 1.0): 2.9959999999999996,
    ("bipartite500", 2.0): 4.991999999999999,
    ("bipartite500", 3.0): 8.983999999999998,
    ("l2", 1.0): 1.5586192603412787,
    ("l2", 1.5): 1.3930932158479188,
}


def _metric_barycenter_config(name, p):
    if name.startswith("bipartite"):
        return make_bipartite(int(name[len("bipartite"):]), p).config
    rng = np.random.default_rng(606)
    l2 = WeightedLq(2.0)
    x = FiniteDist(l2, tuple(CVector(rng.normal(size=4) + 1j * rng.normal(size=4))
                             for _ in range(30)), rng.dirichlet(np.ones(30)))
    y = FiniteDist(l2, tuple(CVector(rng.normal(size=4) + 1j * rng.normal(size=4))
                             for _ in range(25)), rng.dirichlet(np.ones(25)))
    return Config(l2, x, y, p)


@pytest.mark.parametrize("name,p", sorted(METRIC_BARYCENTER_GOLDEN))
def test_metric_barycenter_golden_values(name, p):
    value = metric_barycenter_ratio(_metric_barycenter_config(name, p)).value
    assert value == METRIC_BARYCENTER_GOLDEN[name, p]


def test_metric_barycenter_on_a_huge_graph_costs_only_the_supports(monkeypatch):
    # a vertex outside both supports is as far from every atom as any other
    # one on its side, so only the first of them is a candidate, and one
    # kernel call on the supports x the candidates prices them all
    def config(n):
        g = BipartiteGraph(n)
        x = FiniteDist(g, (GraphVertex("L", 0), GraphVertex("R", 2)), np.array([0.3, 0.7]))
        y = FiniteDist(g, (GraphVertex("L", 1), GraphVertex("R", 0)), np.array([0.6, 0.4]))
        return Config(g, x, y, 2.0)

    small = config(4)
    everywhere = [GraphVertex(side, i) for side in ("L", "R") for i in range(4)]
    expected = (min(barycenter_objective(small, z) for z in everywhere)
                / cross_moment(small.X, small.Y, small.p))
    assert metric_barycenter_ratio(small).value == expected
    calls = []
    kernel = moduli.pairwise_powered

    def counted(space, xs, ys, p):
        calls.append((len(xs), len(ys)))
        return kernel(space, xs, ys, p)

    monkeypatch.setattr(moduli, "pairwise_powered", counted)
    monkeypatch.setattr(distributions, "pairwise_powered", counted)
    assert metric_barycenter_ratio(config(10 ** 15)).value == expected
    assert calls == [(4, 6)]
