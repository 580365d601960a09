import math

import numpy as np
import pytest

from momentmoduli.constants import (
    C_exponent,
    C_opt_exponent,
    bm_bound,
    c_exponent,
    constants_grid,
    general_bound,
    interpolation_bounds,
    metric_bound,
    snowflake_exponent,
    theta_max,
)

GRID = np.linspace(1.0, 8.0, 200)


def test_c_exponent_examples():
    assert c_exponent(2, 2) == 1.0
    assert c_exponent(1, 1) == 0.0
    assert c_exponent(3, 2) == 1.0


def test_C_exponent_examples():
    assert C_exponent(2, 2) == 1.0
    assert C_exponent(4, 2) == 3.0
    assert C_exponent(1, 4) == pytest.approx(1.75, abs=1e-15)


def test_C_opt_examples():
    assert C_opt_exponent(1, 1) == 1.0
    assert C_opt_exponent(3, 2) == 2.0
    assert C_opt_exponent(2, 4) == 2.0


def test_theta_max_examples():
    assert theta_max(2, 2) == 1.0
    assert theta_max(1, 1) == 0.0
    assert theta_max(3, 2) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_snowflake_examples():
    assert snowflake_exponent(1, 1) == (1.0, 2.0)
    assert snowflake_exponent(4, 2) == (3.0, 2.0)
    val, qs = snowflake_exponent(1, 2)
    assert val == pytest.approx(1.5, abs=1e-15)
    assert qs == pytest.approx(3.0, abs=1e-15)


def test_snowflake_against_grid_minimization_oracle():
    # oracle: dense minimization of the four-term exponent over Q >= q,
    # with a zoom pass around the coarse argmin
    def four_term(p, q, qs):
        t = p * qs / q
        return np.maximum.reduce([
            t - 1.0, 3.0 - t, 1.0 + p * (qs - 2.0) / q, 1.0 + p * (2.0 - qs) / q])

    rng = np.random.default_rng(2)
    for _ in range(60):
        p = float(rng.uniform(1, 6))
        q = float(rng.uniform(1, 6))
        val, q_star = snowflake_exponent(p, q)
        coarse = np.linspace(q, q + 40.0, 40001)
        vals = four_term(p, q, coarse)
        k = int(np.argmin(vals))
        lo = coarse[max(0, k - 1)]
        hi = coarse[min(coarse.size - 1, k + 1)]
        fine = np.linspace(lo, hi, 20001)
        brute = float(np.min(four_term(p, q, fine)))
        assert val <= brute + 1e-9
        assert val >= brute - 1e-7
        assert q_star >= q - 1e-12


def test_bounds_values():
    assert general_bound(1) == 3.0
    assert general_bound(2) == 4.5
    assert general_bound(3) == 6.75
    assert metric_bound(1) == 3.0
    assert metric_bound(2) == 5.0
    with pytest.raises(ValueError):
        general_bound(0.5)
    with pytest.raises(ValueError):
        metric_bound(0.0)


def test_general_bound_beyond_the_overflow_of_3_to_the_p():
    # 3^p overflows from p = 646.1; 2 * 1.5^p, the same value, from p = 1748.8
    assert general_bound(646.0) == 3.0 ** 646.0 / 2.0 ** 645.0
    for p in (647.0, 700.0, 1748.0):
        assert general_bound(p) == 2.0 * 1.5 ** p < math.inf
    for p in (1748.9, 1750.0, 1e6):
        with pytest.raises(OverflowError):
            general_bound(p)


def test_bm_bound_examples():
    assert bm_bound(1.5, 2.0) == pytest.approx(2.0 ** 0.5, rel=1e-14)
    assert bm_bound(1.0, 1.0) == pytest.approx(2.0, abs=1e-14)
    # at p = q = 3 the two candidate expressions cross
    first = general_bound(3.0) * (math.sqrt(2) / 3) ** (2 * c_exponent(3, 3))
    second = (2 ** C_exponent(3, 3) + 2) / 2 ** (c_exponent(3, 3) + 1)
    assert first == pytest.approx(second, rel=1e-14)


def test_bm_bound_beyond_the_overflow_of_2_to_the_C():
    # 2^C overflows from about p = 1024; the first term is the min there
    assert bm_bound(1024.0, 2.0) == min(
        general_bound(1024.0) * (math.sqrt(2.0) / 3.0) ** 2.0, (2.0 ** 1023.0 + 2.0) / 4.0)
    assert bm_bound(1100.0, 2.0) == general_bound(1100.0) * (math.sqrt(2.0) / 3.0) ** 2.0
    assert bm_bound(1100.0, 2.0) < math.inf


def test_interpolation_endpoints():
    assert interpolation_bounds(1.0, 2.0) == (2.0, 2.0, 1.0)
    r, j, mb = interpolation_bounds(0.0, 1.0)
    assert (r, j, mb) == (4.0, 1.0, 3.0)


def test_interpolation_crossing_on_p_equals_inverse_one_minus_theta():
    # the two mixture-bound expressions agree exactly when p (1 - theta) = 1
    for theta in (0.2, 1.0 / 3.0, 0.5):
        p = 1.0 / (1.0 - theta)
        first = general_bound(p) * (math.sqrt(2) / 3) ** (p * theta)
        second = (1 + 2 ** ((1 - theta) * p)) / 2 ** (theta * p / 2)
        assert first == pytest.approx(second, abs=1e-12)
        interpolation_bounds(theta, p)  # selector consistency asserted inside


def test_interpolation_range_violation():
    with pytest.raises(ValueError):
        interpolation_bounds(0.5, 10.0)
    with pytest.raises(ValueError):
        interpolation_bounds(0.5, 1.0)


def test_grid_invariants():
    # min/max vs piecewise agreement is asserted inside c/C_opt/theta_max on
    # every call; here the whole grid also checks the cross relations
    for p in GRID:
        for q in GRID:
            c = c_exponent(float(p), float(q))
            co = C_opt_exponent(float(p), float(q))
            ce = C_exponent(float(p), float(q))
            theta_max(float(p), float(q))
            assert ce >= co - 1e-12
            assert bm_bound(float(p), float(q)) <= general_bound(float(p)) + 1e-12
            snow, q_star = snowflake_exponent(float(p), float(q))
            four_at_q = max(p - 1.0, 3.0 - p,
                            1.0 + p * (q - 2.0) / q, 1.0 + p * (2.0 - q) / q)
            assert snow <= four_at_q + 1e-12


def test_C_equals_C_opt_on_sharp_ranges():
    rng = np.random.default_rng(8)
    for _ in range(300):
        # range 1: conjugate(p) <= q <= p
        p = float(rng.uniform(2.0, 6.0))
        q = float(rng.uniform(p / (p - 1.0), p))
        assert C_exponent(p, q) == pytest.approx(C_opt_exponent(p, q), abs=1e-12)
        # range 2: conjugate(q) <= p <= q
        q2 = float(rng.uniform(2.0, 6.0))
        p2 = float(rng.uniform(q2 / (q2 - 1.0), q2))
        assert C_exponent(p2, q2) == pytest.approx(C_opt_exponent(p2, q2), abs=1e-12)
        # range 5: 1 <= p <= q <= 2
        q5 = float(rng.uniform(1.0, 2.0))
        p5 = float(rng.uniform(1.0, q5))
        assert C_exponent(p5, q5) == 1.0
        assert C_opt_exponent(p5, q5) == 1.0


def test_grid_rows_shape():
    rows = list(constants_grid([1.0, 2.0], [1.0, 3.0]))
    assert len(rows) == 4
    assert all(len(r) == 10 for r in rows)
