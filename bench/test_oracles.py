"""Quick tests of the benchmark's oracles against closed forms.

    python3 -m pytest -q bench/test_oracles.py
"""

import math

import numpy as np
import pytest

import oracles as orc


def test_lq_rows_closed_forms_and_extreme_magnitudes():
    a = np.array([[3.0 + 0j, 4.0]])
    b = np.zeros((1, 2), dtype=complex)
    w = np.ones(2)
    assert orc.lq_rows(a, b, w, 2.0)[0, 0] == 5.0
    assert orc.lq_rows(a, b, w, 1.0)[0, 0] == 7.0
    assert orc.lq_rows(a, b, w, math.inf)[0, 0] == 4.0
    assert orc.lq_rows(a, b, np.array([4.0, 0.0]), 2.0)[0, 0] == 6.0
    # the max-scaled sum neither overflows nor underflows
    assert orc.lq_rows(a * 1e200, b, w, 2.0)[0, 0] == pytest.approx(5e200, rel=1e-15)
    assert orc.lq_rows(a * 1e-200, b, w, 2.0)[0, 0] == pytest.approx(5e-200, rel=1e-15)
    assert orc.lq_rows(a, b, w, 2000.0)[0, 0] == pytest.approx(4.0, rel=1e-12)


def test_schatten_rows_are_unitarily_invariant():
    rng = np.random.default_rng(0)
    u, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    v, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    m = u @ np.diag([3.0, 4.0, 0.0]) @ v
    zero = np.zeros((1, 3, 3), dtype=complex)
    assert orc.schatten_rows(m[None], zero, 1.0)[0, 0] == pytest.approx(7.0, rel=1e-14)
    assert orc.schatten_rows(m[None], zero, 2.0)[0, 0] == pytest.approx(5.0, rel=1e-14)


def test_s1par_rows_equal_the_parallelogram_closed_form():
    rng = np.random.default_rng(1)
    c = rng.normal(size=6) + 1j * rng.normal(size=6)
    r, i = c.real, c.imag
    s = r @ r + i @ i
    lam = math.sqrt(max((r @ r) * (i @ i) - (r @ i) ** 2, 0.0))
    closed = 0.5 * (math.sqrt(s + 2 * lam) + math.sqrt(max(s - 2 * lam, 0.0)))
    got = orc.s1par_rows(c[None], np.zeros((1, 6), dtype=complex))[0, 0]
    assert got == pytest.approx(closed, rel=1e-14)


def test_construction_ratios_from_explicit_atoms():
    # schatten-parallelogram: basis vectors against i * basis vectors
    n, p = 5, 1.5
    x = np.eye(2 * n, dtype=complex)[:n]
    y = 1j * np.eye(2 * n, dtype=complex)[n:]
    probs = np.full(n, 1.0 / n)
    m = orc.Metric({"kind": "s1par"})
    assert orc.roundness(m, x, probs, y, probs, p) == pytest.approx(
        orc.schatten_parallelogram_ratio(n, p), rel=1e-13)
    # bipartite K_{n,n}: path distances 0 / 2 within a side, 1 across; the
    # best vertex centre gives (n-1)/n 2^p + 1 over E d(X,Y)^p = 1
    n, p = 4, 2.0
    side = np.repeat([0, 1], n)
    d = np.where(side[:, None] == side[None, :], 2.0, 1.0)
    np.fill_diagonal(d, 0.0)
    objective = (d[:n] ** p).mean(axis=0) + (d[n:] ** p).mean(axis=0)
    assert objective.min() == pytest.approx(orc.bipartite_ratio(n, p), rel=1e-15)
    # two-point: X, Y uniform on {0, 1}; the barycenter minimum sits at 1/2
    real = orc.Metric({"kind": "real"})
    atoms, half = np.array([0.0, 1.0]), np.array([0.5, 0.5])
    for p in (1.0, 2.0, 3.0):
        best = orc.separable_min(np.concatenate([atoms, atoms])[:, None],
                                 np.concatenate([half, half]), np.ones(1), p)
        assert best / real.moment(atoms, half, atoms, half, p) == pytest.approx(
            orc.two_point_ratio(p), rel=1e-12)


def test_jensen_rademacher_from_independent_signs():
    # the characters t -> (-1)^popcount(t & mask) of {-1, 1}^k are n pairwise
    # independent signs
    n, q, p, k = 3, 3.0, 2.0, 2
    signs = np.array([[(-1.0) ** bin(t & mask).count("1") for t in range(2 ** k)]
                      for mask in (1, 2, 3)])
    atoms = np.concatenate([signs, -signs]).astype(complex)
    probs = np.full(2 * n, 1.0 / (2 * n))
    m = orc.Metric({"kind": "lq", "q": q, "w": np.full(2 ** k, 2.0 ** -k)})
    assert orc.jensen(m, atoms, probs, p) == pytest.approx(
        orc.jensen_rademacher_ratio(n, q, p), rel=1e-13)


def test_weighted_median_and_golden_section():
    assert orc.weighted_median(np.array([3.0, 1.0, 2.0]), np.array([1.0, 1.0, 5.0])) == 2.0
    assert orc.golden_min(lambda t: (t - 1.0) ** 2 + 3.0, -5.0, 5.0) == pytest.approx(3.0, abs=1e-15)
    # sum |t - a_i|^3 over a = -1, 1 is smallest at 0
    assert orc.separable_min(np.array([[-1.0], [1.0]]), np.ones(2), np.ones(1), 3.0) == \
        pytest.approx(2.0, rel=1e-15)


def test_mean_and_weiszfeld_minima():
    pts = np.array([[1.0 + 0j], [-1.0 + 0j]])
    assert orc.mean_min(pts, np.ones(2), np.ones(1)) == 2.0
    # Fermat point of a unit equilateral triangle: the centroid, value sqrt(3)
    tri = np.array([[0.0 + 0j, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    assert orc.weiszfeld_min(tri, np.ones(3), np.ones(2)) == pytest.approx(math.sqrt(3), rel=1e-12)
    # an atom that outweighs the rest is the geometric median
    assert orc.weiszfeld_min(tri, np.array([3.0, 1.0, 1.0]), np.ones(2)) == pytest.approx(2.0, rel=1e-15)


def test_fn_inf_minimum_is_attained_at_the_origin_for_n2():
    # make_fn(2, inf, 1): a_j = +-(4, -4, 0, 0), b_j = +-(0, 0, 4, -4)
    a = np.array([[4, -4, 0, 0], [-4, 4, 0, 0]], dtype=complex)
    b = np.array([[0, 0, 4, -4], [0, 0, -4, 4]], dtype=complex)
    probs = np.full(2, 0.5)
    m = orc.Metric({"kind": "lq", "q": math.inf, "w": np.ones(4)})
    at_zero = orc.objective(m, a, probs, b, probs, 1.0, np.zeros(4))
    assert orc.fn_inf_min(2, 1.0, m.moment(a, probs, b, probs, 1.0)) == at_zero == 8.0


def test_bounds_match_the_paper_table():
    assert orc.roundness_bound("lq", 2.0, 2.0) == 2.0       # Hilbert space
    assert orc.roundness_bound("lq", 1.0, 1.0) == 2.0
    assert orc.roundness_bound("lq", 3.0, 3.0) == 4.0       # 2^(p-1) for p = q = 3
    assert orc.roundness_bound("s1par", 1.0) == 4.0         # triangle inequality
    # p = 1, q = 3: c = 0 and C = 2 - p/q, so the L_q route beats 3^p / 2^(p-1)
    assert orc.mixture_bound(1.0, 3.0) == pytest.approx((2.0 ** (5.0 / 3.0) + 2.0) / 2.0,
                                                        rel=1e-15)
