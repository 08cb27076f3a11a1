
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from wgkit.singint import (
    _quadrature,
    _u2_integral,
    boxes,
    expected_growth_exponent,
    singular_integral,
)


def test_expected_exponents():
    assert expected_growth_exponent(3) == pytest.approx(17 / 18 + 5 / 18)
    assert expected_growth_exponent(14) == pytest.approx(17 / 18 + 5 / 84)
    with pytest.raises(ValueError):
        expected_growth_exponent(2)


def test_box_sizes():
    x2, x3, x3s, xks = boxes(10**9, 3)
    assert x2 == pytest.approx(0.5 * (2e9 / 3) ** 0.5, rel=1e-12)
    assert x2 == pytest.approx(1.29e4, rel=0.01)
    assert x3 == pytest.approx(0.5 * (2e9 / 3) ** (1 / 3), rel=1e-12)
    assert x3s == xks == pytest.approx(0.5 * (2e9 / 3) ** (5 / 18), rel=1e-12)
    assert boxes(10**9, 14)[3] == pytest.approx(0.5 * (2e9 / 3) ** (5 / 84), rel=1e-12)
    assert all(a < b for a, b in zip(boxes(10**8, 3), boxes(10**10, 3)))


@given(st.integers(1, 5 * 10**17), st.integers(3, 14))
@example(1, 3)
@example(1, 14)
@example(5 * 10**17, 3)
def test_box_identities(half_n, k):
    # X2^2 = n/6 and X3^3 = n/12, so the boxes' least sum 2 X2^2 + 2 X3^3 +
    # X3*^3 + Xk*^k = n/2 + X3*^3 + Xk*^k stays below n: every target is reachable,
    # and R^2 = n - u3^3 - ... < n - 2 X3^3 = 5 X2^2 inside the box
    n = 2 * half_n
    x2, x3, x3s, xks = boxes(n, k)
    assert x2**2 == pytest.approx(n / 6, rel=1e-12)
    assert x3**3 == pytest.approx(n / 12, rel=1e-12)
    assert 2 * x2**2 + 2 * x3**3 + x3s**3 + xks**k < n


@pytest.mark.parametrize("ratio", [1.5, 2.5, 4.5, 5.0, 6.5, 7.9, 9.0])
def test_u2_closed_form_matches_brute_force(ratio):
    # R^2 = ratio * X2^2 covers every branch: 0 below 2, (2, 5), (5, 8), 0 above 8
    x2 = 3.0
    r2 = ratio * x2 * x2
    # midpoint rule with the constraint as an indicator: O(h) at the cut points
    m = 2_000_000
    u2 = x2 + (np.arange(m) + 0.5) * (x2 / m)
    t = r2 - u2**2
    inside = (t > x2 * x2) & (t <= 4 * x2 * x2)
    brute = float(np.where(inside, 0.5 / np.sqrt(np.abs(t)), 0.0).sum() * (x2 / m))
    closed = float(_u2_integral(np.array([r2]), x2)[0])
    assert closed == pytest.approx(brute, rel=1e-5, abs=1e-12)
    assert (closed > 0) == (2 < ratio < 8)


def test_singular_integral_positive_and_deterministic():
    a = singular_integral(10**8, 3)
    assert a.value > 0
    # the rule has no randomness: samples and seed leave it bitwise unchanged
    for kwargs in ({}, {"seed": 7}, {"samples": 2048, "seed": 8}, {"samples": 10**9}):
        b = singular_integral(10**8, 3, **kwargs)
        assert (b.value, b.est_abs_error, b.samples) == (a.value, a.est_abs_error, a.samples)


def test_singular_integral_error_estimate_is_honest():
    # the reported error covers the gap to a much finer rule, and is small
    for n in (10**8, 10**11):
        for k in (3, 14):
            ev = singular_integral(n, k)
            finer, _ = _quadrature(n, k, 64, 24)
            assert abs(ev.value - finer) <= ev.est_abs_error <= 1e-4 * ev.value, (n, k)


@pytest.mark.parametrize("k", [3, 14])
def test_singular_integral_matches_monte_carlo_oracle(k):
    # plain Monte Carlo over the 5-dimensional box, independent of the closed form
    n = 10**8
    x2, x3, x3s, xks = boxes(n, k)
    lows = np.array([x2, x3, x3, x3s, xks])
    pts = lows * (1.0 + np.random.default_rng(0).random((2**19, 5)))
    t = n - (pts ** np.array([2, 3, 3, 3, k])).sum(axis=1)
    inside = (t > lows[0] ** 2) & (t <= 4 * lows[0] ** 2)
    f = np.where(inside, 0.5 / np.sqrt(np.abs(t)), 0.0) * float(np.prod(lows))
    ev = singular_integral(n, k)
    assert abs(ev.value - f.mean()) <= 5 * f.std() / np.sqrt(f.size)


def test_singular_integral_rough_magnitude():
    # crude analytic cross-check: J(n) = volume * E[1/(2 sqrt t)] with t of order n,
    # so J(n) ~ c * n^(17/18 + 5/18) with c below ~1
    n = 10**8
    ev = singular_integral(n, 3, samples=200_000)
    scale = float(n) ** expected_growth_exponent(3)
    assert 1e-3 * scale < ev.value < scale


def test_singular_integral_rejects():
    with pytest.raises(ValueError):
        singular_integral(10**8 + 1, 3)
    with pytest.raises(ValueError):
        singular_integral(10**8, 2)
    with pytest.raises(ValueError):
        singular_integral(10**8, 3, samples=10)
    # below the least even target: n = 0 and negative n
    for n in (0, -4):
        with pytest.raises(ValueError, match=f"n must be >= 2, got {n}"):
            singular_integral(n, 3)
