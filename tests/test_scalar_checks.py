import hashlib
import math

import numpy as np
import pytest

from momentmoduli.distributions import FiniteDist
from momentmoduli.scalar_checks import (
    KernelMatrix,
    alpha_fn,
    beta_ratio,
    check_subadditivity,
    cosine_log_moment,
    gaussian_smoothing_check,
    laplace_log_identity,
    log_abs_cos_moment,
    phi_power,
    random_centered_pair,
    random_positive_dist,
    random_kernel,
    run_alpha_grid,
    run_beta_scan,
    run_cosine_suite,
    run_hilbert_suite,
    run_laplace_suite,
    run_smoothing_suite,
    run_subadditivity_suite,
    verify_scalar_hilbert,
)
from momentmoduli.spaces import AtomStack, CVector, RealLine, WeightedLq

LOG2 = math.log(2.0)
RL = RealLine()


def _real_law(atoms, probs):
    return FiniteDist(RL, AtomStack(RL, atoms), probs)


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
    x = FiniteDist.uniform(RL, [-1.0, 1.0])
    lhs, rhs, holds = check_subadditivity(x, x, 3.0)
    assert lhs == pytest.approx(4.0, abs=1e-14)
    assert rhs == pytest.approx(2.0, abs=1e-14)
    assert holds


def test_subadditivity_degenerate_equality():
    x = FiniteDist.delta(RL, 0.0)
    y = FiniteDist.uniform(RL, [-2.0, 2.0])
    lhs, rhs, holds = check_subadditivity(x, y, 4.0)
    assert lhs == pytest.approx(rhs, rel=1e-14)
    assert holds


def test_subadditivity_fails_below_three():
    # the beta counterexample family violates the inequality for q in (2, 3)
    beta = 0.05
    d = _real_law(np.array([1 - beta, -beta]), np.array([beta, 1 - beta]))
    lhs, rhs, holds = check_subadditivity(d, d, 2.5)
    assert not holds
    assert lhs < rhs


def test_subadditivity_rejects_uncentered():
    with pytest.raises(ValueError):
        check_subadditivity(FiniteDist.delta(RL, 1.0), FiniteDist.delta(RL, 0.0), 3.0)


# ---------------------------------------------------------------- laplace

def test_laplace_identity_point_masses():
    lhs, rhs = laplace_log_identity(FiniteDist.delta(RL, 1.0))
    assert lhs == 0.0
    assert abs(rhs) < 1e-9
    lhs, rhs = laplace_log_identity(FiniteDist.delta(RL, 2.0))
    assert lhs == pytest.approx(LOG2, abs=1e-15)
    assert rhs == pytest.approx(LOG2, abs=1e-6)


def test_laplace_identity_two_atoms():
    w = FiniteDist.uniform(RL, [1.0, math.e ** 2])
    lhs, rhs = laplace_log_identity(w)
    assert lhs == pytest.approx(1.0, rel=1e-12)
    assert rhs == pytest.approx(1.0, abs=1e-6)


def test_laplace_rejects_nonpositive_atoms():
    with pytest.raises(ValueError):
        laplace_log_identity(FiniteDist.uniform(RL, [1.0, 0.0]))


# ---------------------------------------------------------------- smoothing

def test_smoothing_identical_laws_equality():
    x = FiniteDist.uniform(RL, [0.0, 1.0, 3.0])
    lhs, rhs, holds = gaussian_smoothing_check(x, x, 1.0)
    assert lhs == pytest.approx(rhs, rel=1e-14)
    assert holds


def test_smoothing_s_zero_both_one():
    x = FiniteDist.uniform(RL, [0.0, 1.0])
    y = FiniteDist.delta(RL, 5.0)
    lhs, rhs, holds = gaussian_smoothing_check(x, y, 0.0)
    assert lhs == pytest.approx(1.0, abs=1e-15)
    assert rhs == pytest.approx(1.0, abs=1e-15)
    assert holds


def test_smoothing_strict_for_separated_laws():
    x = FiniteDist.uniform(RL, [0.0, 1.0])
    y = FiniteDist.delta(RL, 5.0)
    lhs, rhs, holds = gaussian_smoothing_check(x, y, 1.0)
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
    f = KernelMatrix(mu, nu, np.full((2, 2), 2.0 - 1.0j))
    lhs, rhs, holds = verify_scalar_hilbert(f, "roundness")
    assert rhs == pytest.approx(0.0, abs=1e-14)
    assert lhs == pytest.approx(2 * 5.0, rel=1e-14)
    assert holds


def test_hilbert_rank_one_equality_case():
    # f(x, y) = phi(x) with mean-zero phi: the first marginal term saturates
    mu = np.array([0.5, 0.5])
    phi = np.array([1.0, -1.0], dtype=complex)
    f = KernelMatrix(mu, np.array([1.0]), phi[:, None])
    lhs, rhs, holds = verify_scalar_hilbert(f, "roundness")
    assert lhs == pytest.approx(rhs, abs=1e-12)
    assert holds


def test_hilbert_mixture_tightness():
    mu = np.array([0.5, 0.5])
    phi = np.array([1.0, -1.0], dtype=complex)
    f = KernelMatrix(mu, np.array([1.0]), phi[:, None])
    lhs, rhs, _ = verify_scalar_hilbert(f, "mixture", 1.0, 1.0)
    assert rhs / lhs == pytest.approx(1.0, abs=1e-12)  # mean-zero extremizer
    const = KernelMatrix(mu, np.array([1.0]), np.full((2, 1), 3.0 + 0j))
    lhs, rhs, _ = verify_scalar_hilbert(const, "mixture", 0.0, 0.0)
    assert rhs / lhs == pytest.approx(1.0, abs=1e-12)  # constant extremizer


def test_hilbert_mixture_random_alpha_beta(rng):
    for _ in range(100):
        f = random_kernel(rng, 5, 5)
        a = complex(rng.normal(), rng.normal())
        b = complex(rng.normal(), rng.normal())
        lhs, rhs, holds = verify_scalar_hilbert(f, "mixture", a, b)
        assert holds


def test_hilbert_antisym_requires_symmetric_measures(rng):
    f = random_kernel(rng, 3, 4)
    with pytest.raises(ValueError):
        verify_scalar_hilbert(f, "antisym")


@pytest.mark.parametrize("mu,nu,message", [
    ([float("nan"), 1.0], [1.0], "nonnegative"),
    ([1.0], [float("nan")], "nonnegative"),
    ([float("inf"), 0.0], [1.0], "sum to 1"),
    ([1.5, -0.5], [1.0], "nonnegative"),
    ([1.0], [0.5, -0.5, 1.0], "nonnegative"),
], ids=["mu-nan", "nu-nan", "mu-inf", "mu-negative", "nu-negative"])
def test_kernel_matrix_masses_follow_the_probability_rule(mu, nu, message):
    with pytest.raises(ValueError, match=message):
        KernelMatrix(mu, nu, np.ones((len(mu), len(nu))))


def test_hilbert_unknown_variant():
    f = random_kernel(np.random.default_rng(0), 2, 2)
    with pytest.raises(ValueError):
        verify_scalar_hilbert(f, "nope")


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
    # family through check_subadditivity
    for _ in range(50):
        beta = float(rng.uniform(0.01, 0.5))
        q = float(rng.uniform(0.5, 6.0))
        d = _real_law(np.array([1 - beta, -beta]), np.array([beta, 1 - beta]))
        a = d.stack.array
        s = a[:, None] + a[None, :]
        joint = np.outer(d.probs, d.probs)
        lhs = float((joint * np.abs(s) ** q).sum())
        rhs = 2 * float((d.probs * np.abs(a) ** q).sum())
        assert beta_ratio(beta, q) == pytest.approx(lhs / rhs, rel=1e-12)


def test_laplace_identity_with_small_atom_tail():
    # a tiny atom pushes the truncation point out by 1/w_min; the tail logic
    # must still deliver 1e-6
    w = _real_law(np.array([0.001, 5.0]), np.array([0.5, 0.5]))
    lhs, rhs = laplace_log_identity(w)
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
}


def _suite_sides(name):
    out = []
    if name == "subadditivity":
        for q in (3.0, 4.0, 5.5):
            rng = np.random.default_rng([7001, int(q * 10)])
            for _ in range(1000):
                x, y = random_centered_pair(rng)
                out += check_subadditivity(x, y, q)[:2]
    elif name == "gaussian":
        rng = np.random.default_rng(7002)
        for _ in range(1000):
            m = int(rng.integers(1, 5))
            x = _real_law(rng.normal(size=m), rng.dirichlet(np.ones(m)))
            k = int(rng.integers(1, 5))
            y = _real_law(rng.normal(size=k), rng.dirichlet(np.ones(k)))
            for s in (0.1, 1.0, 10.0):
                out += gaussian_smoothing_check(x, y, s)[:2]
    else:
        rng = np.random.default_rng(7004)
        for _ in range(20):
            out += laplace_log_identity(random_positive_dist(rng))
    return out


@pytest.mark.parametrize("name", sorted(SUITE_GOLDEN))
def test_suite_sides_golden(name):
    assert _sha(_suite_sides(name)) == SUITE_GOLDEN[name]


def test_scalar_checks_reject_laws_off_the_real_line():
    off = FiniteDist.uniform(WeightedLq(2.0), [CVector([1.0]), CVector([-1.0])])
    real = FiniteDist.uniform(RL, [-1.0, 1.0])
    with pytest.raises(ValueError, match="RealLine"):
        check_subadditivity(off, real, 3.0)
    with pytest.raises(ValueError, match="RealLine"):
        laplace_log_identity(off)
    with pytest.raises(ValueError, match="RealLine"):
        gaussian_smoothing_check(off, off, 1.0)
