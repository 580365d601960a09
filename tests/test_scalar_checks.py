import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from momentmoduli import quadrature, scalar_checks as sc
from momentmoduli.distributions import FiniteDist, mixture
from momentmoduli.scalar_checks import (
    alpha_fn,
    beta_ratio,
    cosine_log_moment,
    log_abs_cos_moment,
    phi_power,
    run_alpha_grid,
    run_beta_scan,
    run_cosine_suite,
    run_hilbert_suite,
    run_laplace_suite,
    run_smoothing_suite,
    run_subadditivity_suite,
)
from momentmoduli.spaces import AtomStack, RealLine

LOG2 = math.log(2.0)
RL = RealLine()
HALVES = [0.5, 0.5]


def _real_law(atoms, probs):
    return FiniteDist(RL, AtomStack(RL, atoms), probs)


def _one(sides):
    # the (lhs, rhs, holds) of a batch of one as Python scalars
    lhs, rhs, holds = sides
    return float(lhs[0]), float(rhs[0]), bool(holds[0])


def _pair(kernel, x, y, *args):
    # a real-law pair kernel on the batch of one of the laws x and y, each
    # given as (atoms, probs)
    (xa, xp), (ya, yp) = x, y
    return _one(kernel(*(np.array([a], dtype=float) for a in (xa, xp, ya, yp)), *args))


def _subadditivity(x, y, q):
    return _pair(sc._subadditivity_sides, x, y, q)


def _smoothing(x, y, s):
    return _pair(sc._smoothing_sides, x, y, s)


def _hilbert(mu, nu, v, variant, *ab):
    # the Hilbert kernel on the batch of one of the kernel (mu, nu, v)
    return _one(sc._hilbert_sides(np.array([mu], dtype=float), np.array([nu], dtype=float),
                                  np.array([v], dtype=complex), variant, *ab))


def _laplace(atoms, probs):
    return sc._laplace_sides(np.array(atoms, dtype=float), np.array(probs, dtype=float))


# ---------------------------------------------------------------- alpha

def test_alpha_vanishes_on_the_axis():
    ys = np.linspace(-7, 7, 31)
    assert np.allclose(alpha_fn(0.0, ys, 3.5), 0.0, atol=1e-12)


def test_alpha_boundary_case_q3():
    assert alpha_fn(1.0, 1.0, 3.0) == pytest.approx(0.0, abs=1e-12)


def test_alpha_explicit_value_q4():
    # |x+y|^4 - |x|^4 - |y|^4 - 4 phi_3(x) y - 4 x phi_3(y) at (1, -2)
    assert alpha_fn(1.0, -2.0, 4.0) == pytest.approx(24.0, abs=1e-12)


def test_alpha_rejects_q_below_three():
    with pytest.raises(ValueError):
        alpha_fn(1.0, 1.0, 2.5)


def test_phi_power_signs():
    assert phi_power(2.0, -3.0) == -9.0
    assert phi_power(0.5, 4.0) == 2.0


# ---------------------------------------------------------------- beta

def test_beta_ratio_half_is_power_of_two():
    for q in (0.5, 1.5, 2.5):
        assert beta_ratio(0.5, q) == pytest.approx(2.0 ** (q - 2.0), rel=1e-12)


def test_beta_ratio_small_beta_below_one_between_two_and_three():
    assert beta_ratio(0.01, 2.5) < 1.0


def test_beta_ratio_above_one_at_q4():
    assert beta_ratio(0.3, 4.0) > 1.0


def test_beta_scan_suite():
    assert run_beta_scan() == []


# ---------------------------------------------------------------- subadditivity

def test_subadditivity_two_point_q3():
    x = ([-1.0, 1.0], HALVES)
    lhs, rhs, holds = _subadditivity(x, x, 3.0)
    assert lhs == pytest.approx(4.0, abs=1e-14)
    assert rhs == pytest.approx(2.0, abs=1e-14)
    assert holds


def test_subadditivity_degenerate_equality():
    x = ([0.0], [1.0])
    y = ([-2.0, 2.0], HALVES)
    lhs, rhs, holds = _subadditivity(x, y, 4.0)
    assert lhs == pytest.approx(rhs, rel=1e-14)
    assert holds


def test_subadditivity_fails_below_three():
    # the beta counterexample family violates the inequality for q in (2, 3)
    beta = 0.05
    d = ([1 - beta, -beta], [beta, 1 - beta])
    lhs, rhs, holds = _subadditivity(d, d, 2.5)
    assert not holds
    assert lhs < rhs


def test_subadditivity_rejects_uncentered():
    with pytest.raises(ValueError):
        _block([(np.array([1.0]), np.array([1.0])), (np.array([0.0]), np.array([1.0]))],
               centered=True)


# ---------------------------------------------------------------- laplace

def test_laplace_identity_point_masses():
    lhs, rhs = _laplace([1.0], [1.0])
    assert lhs == 0.0
    assert abs(rhs) < 1e-9
    lhs, rhs = _laplace([2.0], [1.0])
    assert lhs == pytest.approx(LOG2, abs=1e-15)
    assert rhs == pytest.approx(LOG2, abs=1e-6)


def test_laplace_identity_two_atoms():
    lhs, rhs = _laplace([1.0, math.e ** 2], HALVES)
    assert lhs == pytest.approx(1.0, rel=1e-12)
    assert rhs == pytest.approx(1.0, abs=1e-6)


def test_laplace_rejects_nonpositive_atoms():
    with pytest.raises(ValueError, match="requires strictly positive atoms"):
        _laplace([1.0, 0.0], HALVES)


# ---------------------------------------------------------------- smoothing

def test_smoothing_identical_laws_equality():
    x = ([0.0, 1.0, 3.0], np.full(3, 1.0 / 3))
    lhs, rhs, holds = _smoothing(x, x, 1.0)
    assert lhs == pytest.approx(rhs, rel=1e-14)
    assert holds


def test_smoothing_s_zero_both_one():
    x = ([0.0, 1.0], HALVES)
    y = ([5.0], [1.0])
    lhs, rhs, holds = _smoothing(x, y, 0.0)
    assert lhs == pytest.approx(1.0, abs=1e-15)
    assert rhs == pytest.approx(1.0, abs=1e-15)
    assert holds


def test_smoothing_strict_for_separated_laws():
    x = ([0.0, 1.0], HALVES)
    y = ([5.0], [1.0])
    lhs, rhs, holds = _smoothing(x, y, 1.0)
    assert holds
    assert lhs > rhs + 0.1


# ---------------------------------------------------------------- cosine

def test_cosine_log_moment_at_pi_over_two_and_zero():
    assert cosine_log_moment(math.pi / 2) == pytest.approx(-LOG2, abs=1e-6)
    assert cosine_log_moment(0.0) == pytest.approx(-LOG2, abs=1e-6)


def test_cosine_constant_above_one_exceeds_minus_log_two():
    assert log_abs_cos_moment(1.5) > -LOG2 + 0.5


# ---------------------------------------------------------------- hilbert

def test_hilbert_constant_kernel_roundness():
    mu = np.array([0.3, 0.7])
    nu = np.array([0.5, 0.5])
    lhs, rhs, holds = _hilbert(mu, nu, np.full((2, 2), 2.0 - 1.0j), "roundness")
    assert rhs == pytest.approx(0.0, abs=1e-14)
    assert lhs == pytest.approx(2 * 5.0, rel=1e-14)
    assert holds


def test_hilbert_rank_one_equality_case():
    # f(x, y) = phi(x) with mean-zero phi: the first marginal term saturates
    mu = np.array([0.5, 0.5])
    phi = np.array([1.0, -1.0], dtype=complex)
    lhs, rhs, holds = _hilbert(mu, [1.0], phi[:, None], "roundness")
    assert lhs == pytest.approx(rhs, abs=1e-12)
    assert holds


def test_hilbert_mixture_tightness():
    mu = np.array([0.5, 0.5])
    phi = np.array([1.0, -1.0], dtype=complex)
    lhs, rhs, _ = _hilbert(mu, [1.0], phi[:, None], "mixture", 1.0, 1.0)
    assert rhs / lhs == pytest.approx(1.0, abs=1e-12)  # mean-zero extremizer
    lhs, rhs, _ = _hilbert(mu, [1.0], np.full((2, 1), 3.0 + 0j), "mixture", 0.0, 0.0)
    assert rhs / lhs == pytest.approx(1.0, abs=1e-12)  # constant extremizer


def test_hilbert_mixture_random_alpha_beta(rng):
    for _ in range(100):
        f = _numpy_kernel(rng, False)
        a = complex(rng.normal(), rng.normal())
        b = complex(rng.normal(), rng.normal())
        lhs, rhs, holds = _hilbert(*f, "mixture", a, b)
        assert holds


def test_hilbert_antisym_requires_symmetric_measures(rng):
    f = _numpy_kernel(rng, False, 3, 4)
    with pytest.raises(ValueError):
        _hilbert(*f, "antisym")


def test_hilbert_unknown_variant():
    f = _numpy_kernel(np.random.default_rng(0), False, 2, 2)
    with pytest.raises(ValueError):
        _hilbert(*f, "nope")


# ---------------------------------------------------------------- suites

def test_suites_clean_small():
    assert run_alpha_grid(qs=(3.0, 4.0), grid=80) == []
    assert run_subadditivity_suite(qs=(3.0,), seeds=50) == []
    assert run_smoothing_suite(svals=(1.0,), seeds=50) == []
    assert run_hilbert_suite(seeds=50) == []
    assert run_cosine_suite(n_alphas=8) == []
    assert run_laplace_suite(n_dists=4) == []


def test_beta_ratio_matches_direct_moment_computation(rng):
    # dual route: the closed form against moments of the explicit two-point
    # family through the sub-additivity kernel
    for _ in range(50):
        beta = float(rng.uniform(0.01, 0.5))
        q = float(rng.uniform(0.5, 6.0))
        d = ([1 - beta, -beta], [beta, 1 - beta])
        lhs, rhs, _ = _subadditivity(d, d, q)
        assert beta_ratio(beta, q) == pytest.approx(lhs / rhs, rel=1e-12)


def test_laplace_identity_with_small_atom_tail():
    # a tiny atom pushes the truncation point out by 1/w_min; the tail logic
    # must still deliver 1e-6
    lhs, rhs = _laplace([0.001, 5.0], HALVES)
    assert lhs == pytest.approx(rhs, abs=1e-6)


# ---------------------------------------------------------------- golden pins

def _sha(vals) -> str:
    return hashlib.sha256(np.asarray(vals, dtype=float).tobytes()).hexdigest()


# sha256 of the (lhs, rhs) bytes over each suite's own seeded draws, recorded
# while the suites still ran on a separate scalar distribution type
SUITE_GOLDEN = {
    "subadditivity": "beb79b5a097e7cf6a19e06602b85738542533c19dbb6776c3db54313208394e1",
    "gaussian": "2c49ab83153a5c96fb907e5f00be89fe92933a443305565f1df62dcb6760b7a1",
    "laplace": "f78c8fac3acaeb56757dc62b0e931082d9f173e1045d7243f43fe5a772b66723",
    "hilbert": "b239f44eb5db20e4f96d554942df4928cf0785e143f2ed83600489d55c38879d",
}


def _numpy_law(rng, fewest, centered=False):
    # a suite's random real law drawn with numpy's own calls
    m = int(rng.integers(fewest, 5))
    atoms, probs = rng.normal(size=m), rng.dirichlet(np.ones(m))
    return (atoms - probs @ atoms if centered else atoms), probs


def _numpy_kernel(rng, symmetric, m=5, k=5):
    # mu, nu and the values of a random m x k kernel drawn with numpy's own
    # calls, the Hilbert suite's at m = k = 5
    mu = rng.dirichlet(np.ones(m))
    nu = mu if symmetric else rng.dirichlet(np.ones(k))
    return mu, nu, rng.normal(size=(m, k)) + 1j * rng.normal(size=(m, k))


def _suite_sides(name):
    out = []
    if name == "subadditivity":
        for q in (3.0, 4.0, 5.5):
            rng = np.random.default_rng([7001, int(q * 10)])
            for _ in range(1000):
                x, y = _numpy_law(rng, 2, True), _numpy_law(rng, 2, True)
                out += _subadditivity(x, y, q)[:2]
    elif name == "gaussian":
        rng = np.random.default_rng(7002)
        for _ in range(1000):
            x, y = _numpy_law(rng, 1), _numpy_law(rng, 1)
            for s in (0.1, 1.0, 10.0):
                out += _smoothing(x, y, s)[:2]
    elif name == "hilbert":
        for variant in ("roundness", "mixture", "antisym"):
            rng = np.random.default_rng([7003, sum(ord(ch) for ch in variant)])
            for _ in range(1000):
                f = _numpy_kernel(rng, variant == "antisym")
                ab = ((complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal()))
                      if variant == "mixture" else ())
                out += _hilbert(*f, variant, *ab)[:2]
    else:
        rng = np.random.default_rng(7004)
        for _ in range(20):
            atoms, probs = _numpy_law(rng, 1)
            out += sc._laplace_sides(np.exp(atoms), probs)
    return out


@pytest.mark.parametrize("name", sorted(SUITE_GOLDEN))
def test_suite_sides_golden(name):
    assert _sha(_suite_sides(name)) == SUITE_GOLDEN[name]


# ---------------------------------------------------------------- batched suites

def _json_sha(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def test_subadditivity_runner_below_q_two_pin():
    # below q = 2 the inequality fails for random centered pairs; sha256 of the
    # violation rows (keys, order, seed indices and both sides) as recorded
    # while the suite still built two laws per seed
    rows = run_subadditivity_suite(qs=(1.5,), seeds=200)
    assert len(rows) == 199
    assert _json_sha(rows) == \
        "2ce80085bc38219f765c008dac11caec10d5b8c99b9a65cd36bc1739c1371bdc"


@pytest.mark.parametrize("grid,tol,digest", [
    (400, -1e-6, "4071286953d202432cf2d5e8792b71ee268948eabad376cc155178f429e9837c"),
    (400, -1.0, "1e1db516107dfa8d8b184eb1a316f58d883dfed2b7cf9f16ba5967f2e8385c0c"),
    (1001, 1e-17, "9345292aafe9978955f112cf0859e80a559055f80c3a35a6c27eee9a14023d15"),
    (1001, -1e-16, "ea96b5384558384b3bfaa4386f14d0e2db427bb7c7311b1e7440556477ffbd2f"),
    (1001, -1.0, "1e1db516107dfa8d8b184eb1a316f58d883dfed2b7cf9f16ba5967f2e8385c0c"),
])
def test_alpha_grid_rows_at_forced_tolerances_pin(grid, tol, digest):
    # a negative (or tiny) allowance forces violation rows; sha256 of the rows
    # as recorded while the grid was one full meshgrid.  At grid 400 and
    # -1e-6 the q = 5.5 and 6 rows lie in the middle of the grid; at -1.0
    # a corner of the first row ties with one of the last, and the first is
    # kept
    rows = run_alpha_grid(qs=(3.0, 3.5, 4.0, 5.5, 6.0), grid=grid, tol=tol)
    assert _json_sha(rows) == digest


def test_alpha_grid_runs_in_bounded_memory():
    # row blocks of at most spaces._BLOCK_ENTRIES entries: a full 2000 x 2000
    # meshgrid and its temporaries traced about 280 MiB
    tracemalloc.start()
    try:
        rows = run_alpha_grid(grid=2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows == []
    assert peak <= 8 * 2 ** 20


def _same_draws(ours, ref, got, want):
    assert got.tobytes() == np.asarray(want).tobytes()
    assert ours.bit_generator.state == ref.bit_generator.state


def test_flat_dirichlet_is_numpys_flat_dirichlet():
    # numpy draws Dirichlet(1, ..., 1) as standard exponentials times the
    # reciprocal of their sequential sum; should a release change that, this
    # test names the cause of the failing goldens.  Each row of a (B, m)
    # block is normalized as one law is
    for m in range(1, 6):
        block, want = np.empty((1000, m)), np.empty((1000, m))
        for seed in range(1000):
            ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            ours.standard_exponential(out=block[seed])
            want[seed] = ref.dirichlet(np.ones(m))
            assert ours.bit_generator.state == ref.bit_generator.state
        assert sc._flat_dirichlet_rows(block).tobytes() == want.tobytes()
        one = sc._flat_dirichlet_rows(block[:1])
        assert one.tobytes() == want[:1].tobytes()


def test_out_draws_are_the_sized_draws():
    # the block draws write standard normals and exponentials into buffer
    # slices; normal() is 0.0 + 1.0 * z, which only an exact zero draw tells
    # apart from z + 0.0, the block code's form
    for seed in range(1000):
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        buf = np.empty(15 + 50 + 4)
        lo = 0
        for m in range(1, 6):
            got = buf[lo:lo + m]
            ours.standard_normal(out=got)
            _same_draws(ours, ref, got + 0.0, ref.normal(size=m))
            ours.standard_exponential(out=got)
            _same_draws(ours, ref, got, ref.standard_exponential(m))
            lo += m
        kernel = buf[lo:lo + 50].reshape(2, 5, 5)
        ours.standard_normal(out=kernel)
        _same_draws(ours, ref, kernel + 0.0, ref.normal(size=(2, 5, 5)))
        four = buf[lo + 50:]
        ours.standard_normal(out=four)
        _same_draws(ours, ref, four + 0.0, ref.normal(size=4))
    for z in (0.0, -0.0, 5e-324, -5e-324, -1.5):
        z = np.float64(z)
        assert (z + 0.0).tobytes() == (0.0 + 1.0 * z).tobytes()


def test_batched_dot_is_each_rows_dot():
    # the block draws center each row by _dot, a law by its probs @ atoms
    for m in range(1, 6):
        p, a = np.empty((1000, m)), np.empty((1000, m))
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            p[seed], a[seed] = rng.dirichlet(np.ones(m)), rng.normal(size=m)
        want = np.array([p[i] @ a[i] for i in range(1000)])
        assert sc._dot(p, a).tobytes() == want.tobytes()


@pytest.mark.parametrize("nodes", [16, 32])
def test_stacked_panel_dot_is_each_panels_dot(nodes):
    # numpy runs a stacked (panels, 1, n) @ (n, 1) matmul as one dot per
    # panel; vals @ w over all panels at once rounds some sums differently
    x, w = quadrature._rule(nodes)
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        lo = rng.uniform(-3.0, 3.0, size=5)
        hi = lo + rng.uniform(0.0, 2.0, size=5)
        t = rng.uniform(-1.5, 1.5)

        def f(x):
            return np.log(np.abs(np.cos(x) - t))

        half = 0.5 * (hi - lo)
        vals = f((0.5 * (lo + hi))[:, None] + half[:, None] * x)
        want = [float(h) * float(np.dot(w, v)) for h, v in zip(half, vals)]
        assert quadrature.gl_panels(f, lo, hi, nodes=nodes) == want


def test_joined_normal_draws_are_the_separate_draws():
    # the suites' joined calls: alpha and beta of the Hilbert "mixture"
    # variant as (re, im) pairs of one size-4 draw, and a kernel's real and
    # imaginary parts as one (2, m, k) draw
    for seed in range(1000):
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        four = ours.normal(size=4)
        _same_draws(ours, ref, four, [ref.normal() for _ in range(4)])
        assert four.view(complex).tolist() == [complex(*four[:2]), complex(*four[2:])]
        re, im = ours.normal(size=(2, 3, 4))
        _same_draws(ours, ref, re + 1j * im,
                    ref.normal(size=(3, 4)) + 1j * ref.normal(size=(3, 4)))


def test_cosine_log_moment_pin():
    # sha256 of the default 50-point grid, as recorded while every dyadic
    # panel was its own call of the integrand
    vals = [cosine_log_moment(2.0 * math.pi * i / 50) for i in range(50)]
    assert _sha(vals) == \
        "f3ba4def010155342255d8fa75ad19e6da592a194155cb8ace71fb440cbc5d1d"


def test_subadditivity_runner_across_a_block_boundary():
    seeds = sc._BLOCK + 1
    expected = []
    for q in (1.5, 3.0):
        rng = np.random.default_rng([7001, int(q * 10)])
        for i in range(seeds):
            x, y = _numpy_law(rng, 2, True), _numpy_law(rng, 2, True)
            lhs, rhs, holds = _subadditivity(x, y, q)
            if not holds:
                expected.append({"check": "subadditivity", "q": q,
                                 "seed_index": i, "lhs": lhs, "rhs": rhs})
    rows = run_subadditivity_suite(qs=(1.5, 3.0), seeds=seeds)
    assert [r["seed_index"] for r in rows][-2:] == [seeds - 2, seeds - 1]
    assert _json_sha(rows) == _json_sha(expected)


def test_smoothing_kernel_on_one_block_matches_the_per_law_check():
    x, y = sc._draw_laws(np.random.default_rng(7002), sc._BLOCK, 2, 1)
    rng = np.random.default_rng(7002)
    drawn = [(_numpy_law(rng, 1), _numpy_law(rng, 1)) for _ in range(sc._BLOCK)]
    seen = 0
    for idx, xa, xp, ya, yp in sc._pair_groups(x, y):
        for s in (0.0, 0.1, 1.0, 10.0):
            lhs, rhs, holds = sc._smoothing_sides(xa, xp, ya, yp, s)
            for j, i in enumerate(idx):
                assert _smoothing(*drawn[i], s) == (lhs[j], rhs[j], holds[j])
                # Z without the merge is mixture()'s law to the bit here
                z = mixture(_real_law(*drawn[i][0]), _real_law(*drawn[i][1]))
                dz = z.stack.array[:, None] - z.stack.array[None, :]
                assert lhs[j] == float(z.probs @ np.exp(-s * dz ** 2) @ z.probs)
        seen += len(idx)
    assert seen == sc._BLOCK


def _parent_hilbert(mu, nu, v, variant, alpha=0.5, beta=0.5):
    # the per-kernel formulas, one kernel at a time
    norm2 = float(mu @ (np.abs(v) ** 2) @ nu)
    row = v @ nu
    col = mu @ v
    total = complex(mu @ v @ nu)
    if variant == "roundness":
        term1 = 2.0 * (float(mu @ np.abs(row) ** 2) - abs(complex(mu @ row)) ** 2)
        term2 = 2.0 * (float(nu @ np.abs(col) ** 2) - abs(complex(nu @ col)) ** 2)
        lhs, rhs = 2.0 * norm2, term1 + term2
    elif variant == "mixture":
        lhs = max(abs(1.0 - alpha) ** 2 + abs(1.0 - beta) ** 2, 1.0) * norm2
        rhs = float(mu @ np.abs(row - alpha * total) ** 2) \
            + float(nu @ np.abs(col - beta * total) ** 2)
    else:
        lhs = 2.0 * norm2
        rhs = float(mu @ np.abs((mu @ v) - (v @ mu)) ** 2)
    return lhs, rhs, lhs >= rhs - 1e-12 * max(1.0, abs(lhs), abs(rhs))


def test_hilbert_batched_sides_match_the_per_kernel_formulas():
    for variant in ("roundness", "mixture", "antisym"):
        rng = np.random.default_rng([7003, sum(ord(ch) for ch in variant)])
        kernels, alphas, betas = [], [], []
        for _ in range(1000):
            kernels.append(_numpy_kernel(rng, variant == "antisym"))
            if variant == "mixture":
                alphas.append(complex(rng.normal(), rng.normal()))
                betas.append(complex(rng.normal(), rng.normal()))
        for lo in range(0, 1000, sc._BLOCK):
            block = kernels[lo:lo + sc._BLOCK]
            extra = (np.array(alphas[lo:lo + sc._BLOCK]),
                     np.array(betas[lo:lo + sc._BLOCK])) if alphas else ()
            lhs, rhs, holds = sc._hilbert_sides(*map(np.stack, zip(*block)), variant, *extra)
            for j, f in enumerate(block):
                ab = (alphas[lo + j], betas[lo + j]) if alphas else ()
                want = _parent_hilbert(*f, variant, *ab)
                assert lhs[j] == pytest.approx(want[0], rel=1e-14, abs=0)
                assert rhs[j] == pytest.approx(want[1], rel=1e-14, abs=0)
                assert holds[j] == want[2]


def test_smoothing_and_hilbert_rows_keep_their_order(monkeypatch):
    # a negative allowance makes every instance a violation, so the rows show
    # their order and values across a block boundary
    monkeypatch.setattr(sc, "_EXACT_TOL", -1.0)
    seeds = sc._BLOCK + 1
    svals = (0.1, 1.0)
    expected = []
    rng = np.random.default_rng(7002)
    for i in range(seeds):
        x, y = _numpy_law(rng, 1), _numpy_law(rng, 1)
        for s in svals:
            lhs, rhs, holds = _smoothing(x, y, s)
            assert not holds
            expected.append({"check": "smoothing", "s": s, "seed_index": i,
                             "lhs": lhs, "rhs": rhs})
    assert _json_sha(run_smoothing_suite(svals=svals, seeds=seeds)) == _json_sha(expected)

    expected = []
    for variant in ("roundness", "mixture", "antisym"):
        rng = np.random.default_rng([7003, sum(ord(ch) for ch in variant)])
        for i in range(seeds):
            f = _numpy_kernel(rng, variant == "antisym")
            ab = ((complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal()))
                  if variant == "mixture" else ())
            lhs, rhs, _ = _hilbert(*f, variant, *ab)
            expected.append({"check": f"hilbert_{variant}", "seed_index": i,
                             "lhs": lhs, "rhs": rhs})
    assert _json_sha(run_hilbert_suite(seeds=seeds)) == _json_sha(expected)


def _same_bytes(got, want):
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _law(laws, i):
    # the atoms and probabilities of law i of a block
    at = slice(laws.starts[i], laws.starts[i] + laws.sizes[i])
    return laws.atoms[at], laws.probs[at]


def test_block_draws_are_numpys_own_draws_across_a_block_boundary():
    # each suite's draws over _BLOCK + 1 seeds, in the runner's blocks,
    # against numpy's own calls seed by seed
    blocks = (sc._BLOCK, 1)
    for seed, fewest, centered in (([7001, 30], 2, True), (7002, 1, False)):
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for n in blocks:
            x, y = sc._draw_laws(ours, n, 2, fewest, centered)
            for i in range(n):
                for laws in (x, y):
                    atoms, probs = _numpy_law(ref, fewest, centered)
                    assert laws.sizes[i] == probs.size
                    _same_bytes(_law(laws, i), (atoms, probs))
        assert ours.bit_generator.state == ref.bit_generator.state
    for variant in sc._HILBERT_VARIANTS:
        seed = [7003, sum(ord(ch) for ch in variant)]
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        symmetric, mixed = variant == "antisym", variant == "mixture"
        for n in blocks:
            mu, nu, v, ab = sc._draw_kernels(ours, n, 5, 5, symmetric, mixed)
            assert ab.shape == ((2, n) if mixed else (0, n))
            for i in range(n):
                want_mu, want_nu, want_v = _numpy_kernel(ref, symmetric)
                _same_bytes(mu[i], want_mu)
                _same_bytes(nu[i], want_nu)
                _same_bytes(v[i], want_v)
                if mixed:
                    _same_bytes(ab[:, i], [complex(ref.normal(), ref.normal()) for _ in "ab"])
        assert ours.bit_generator.state == ref.bit_generator.state
    ours, ref = np.random.default_rng(7004), np.random.default_rng(7004)
    for n in blocks:
        (laws,) = sc._draw_laws(ours, n, 1, 1)
        for i in range(n):
            _same_bytes(_law(laws, i), _numpy_law(ref, 1))
    assert ours.bit_generator.state == ref.bit_generator.state


def test_suites_at_zero_seeds_and_a_negative_s():
    assert run_subadditivity_suite(seeds=0) == []
    assert run_smoothing_suite(seeds=0) == []
    assert run_hilbert_suite(seeds=0) == []
    assert run_smoothing_suite(svals=(-1.0,), seeds=0) == []
    with pytest.raises(ValueError, match="^s must be nonnegative$"):
        run_smoothing_suite(svals=(-1.0,), seeds=3)


def _block(drawn, centered=False):
    # the block of the laws ``drawn``, (atoms, probs) each, held end to end
    return sc._Laws(np.concatenate([a for a, _ in drawn]),
                    np.concatenate([p for _, p in drawn]),
                    np.array([len(p) for _, p in drawn]), centered)


@pytest.mark.parametrize("atoms,probs", [
    ([0.0, float("nan")], [0.5, 0.5]),
    ([0.0, 1.0], [1.5, -0.5]),
    ([0.0, 1.0], [float("nan"), 1.0]),
    ([0.0, 1.0], [0.5, 0.6]),
    ([0.0, 1.0], [0.0, 0.0]),
], ids=["nan-atom", "negative", "nan-prob", "sum", "all-zero"])
def test_block_checks_match_the_law_checks(atoms, probs):
    atoms, probs = np.array(atoms), np.array(probs)
    with pytest.raises(Exception) as law_error:
        _real_law(atoms, probs)
    good = (np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
    with pytest.raises(type(law_error.value), match=f"^{law_error.value}$"):
        _block([good, (atoms, probs), good])


def test_block_drops_zero_probability_atoms_and_checks_means():
    drawn = [(np.array([-1.0, 5.0, 1.0]), np.array([0.5, 0.0, 0.5])),
             (np.array([2.0, -2.0]), np.array([0.5, 0.5]))]
    laws = _block(drawn, centered=True)
    assert laws.sizes.tolist() == [2, 2]
    a, p = laws.rows(np.array([0, 1]), 2)
    assert a.tolist() == [[-1.0, 1.0], [2.0, -2.0]]
    assert p.tolist() == [[0.5, 0.5], [0.5, 0.5]]
    with pytest.raises(ValueError, match="requires mean-zero inputs"):
        _block([(np.array([1.0, 2.0]), np.array([0.5, 0.5]))], centered=True)


def test_per_law_messages():
    f = _numpy_kernel(np.random.default_rng(0), False, 3, 4)
    with pytest.raises(ValueError, match="^antisym variant requires mu == nu$"):
        _hilbert(*f, "antisym")
    with pytest.raises(ValueError, match="^unknown variant 'nope'$"):
        _hilbert(*f, "nope")
    with pytest.raises(ValueError, match="^s must be nonnegative$"):
        _smoothing(([0.0], [1.0]), ([0.0], [1.0]), -1.0)
    with pytest.raises(ValueError, match="^check_subadditivity requires mean-zero inputs$"):
        _block([(np.array([1.0]), np.array([1.0])), (np.array([0.0]), np.array([1.0]))],
               centered=True)


def test_suites_build_no_law_objects(monkeypatch):
    # every runner works on arrays: none builds a FiniteDist
    def refuse(self):
        raise AssertionError("a suite built a law object")

    monkeypatch.setattr(FiniteDist, "__post_init__", refuse)
    with pytest.raises(AssertionError, match="law object"):
        FiniteDist.delta(RL, 0.0)
    assert run_alpha_grid(qs=(3.0,), grid=20) == []
    assert run_beta_scan(grid=20) == []
    assert run_subadditivity_suite(qs=(3.0,), seeds=20) == []
    assert run_smoothing_suite(svals=(1.0,), seeds=20) == []
    assert run_hilbert_suite(seeds=20) == []
    assert run_cosine_suite(n_alphas=4) == []
    assert run_laplace_suite(n_dists=4) == []
