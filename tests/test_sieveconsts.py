import math

import pytest

from oracles import params
from wgkit import sieveconsts
from wgkit.sieveconsts import (
    EXP_GAMMA,
    F_upper,
    f_lower,
    main_term_margin,
    sieve_product,
    sieve_window_value,
)
from wgkit.singular import omega


def test_params_d_exponent_limits():
    # eps -> 0: exponent is 5/(8k) - 1/24, positive for every k <= 14
    tiny = 1e-9
    p3 = params(10**9, 3, eps=tiny)
    assert math.log(p3.D) / math.log(10**9) == pytest.approx(1 / 6, abs=1e-6)
    for k in range(3, 15):
        assert 5 / (8 * k) - 1 / 24 > 0
    # at the default eps the k = 14 level collapses and is rejected
    with pytest.raises(ValueError):
        params(10**12, 14, eps=1e-4)


def test_params_rejections():
    with pytest.raises(ValueError):
        params(10**9 + 1, 3)  # odd
    with pytest.raises(ValueError):
        params(1000, 3)  # too small
    with pytest.raises(ValueError):
        params(10**9, 15)
    with pytest.raises(ValueError):
        params(10**9, 3, eps=0.5)
    # z <= 2: sieve range empty (k = 6 at desk scale)
    with pytest.raises(ValueError):
        params(10**8, 6)


def test_params_monotone_in_n():
    assert params(10**10, 3).D > params(10**8, 3).D


def test_sieve_functions():
    assert f_lower(2.0) == 0.0
    assert f_lower(3.0) == pytest.approx(2 * EXP_GAMMA * math.log(2) / 3, rel=1e-12)
    assert f_lower(3.0) == pytest.approx(0.8229, abs=2e-4)
    assert F_upper(3.0) == pytest.approx(2 * EXP_GAMMA / 3, rel=1e-12)
    assert F_upper(3.0) == pytest.approx(1.1874, abs=2e-4)
    assert f_lower(3.0) < F_upper(3.0)
    with pytest.raises(ValueError):
        f_lower(1.5)
    with pytest.raises(ValueError):
        F_upper(3.5)


def test_sieve_product_single_factor():
    w = sieve_product(40, 3, 5.0)
    assert w == pytest.approx(1.0 - omega(3, 40, 3) / 3.0, rel=1e-12)
    with pytest.raises(ValueError):
        sieve_product(40, 3, 3.0)
    with pytest.raises(ValueError):
        sieve_product(41, 3, 5.0)
    with pytest.raises(ValueError):
        sieve_product(40, 15, 5.0)


def test_sieve_product_mertens_stability():
    n = 10**6 + 4
    for z in (100.0, 1000.0, 10000.0):
        w = sieve_product(n, 3, z)
        assert 0.2 <= w * math.log(z) <= 5.0


def test_main_term_margin_examples():
    assert main_term_margin(6, 0.657181) == pytest.approx(0.0427, abs=2e-4)
    assert main_term_margin(6, math.log(2.0)) == pytest.approx(0.0, abs=1e-15)
    assert main_term_margin(3, 0.513241) == pytest.approx(0.2136, abs=2e-4)


def test_sieve_window_value():
    sieve_product.cache_clear()
    lower = sieve_window_value(40, 3, z=5.0, D=125.0, side="lower")
    upper = sieve_window_value(40, 3, z=5.0, D=125.0, side="upper")
    w = sieve_product(40, 3, 5.0)
    assert sieve_product.cache_info().misses == 1  # one W(z) for the target
    assert lower == pytest.approx(w * f_lower(3.0), rel=1e-12)
    assert upper == pytest.approx(w * F_upper(3.0), rel=1e-12)
    assert lower < upper
    with pytest.raises(ValueError):
        sieve_window_value(40, 3, z=5.0, D=125.0, side="sideways")


def test_sieve_window_value_refuses_before_the_product(monkeypatch):
    # a bad side, or an s = log D / log z outside the side's window, is refused before W(z)
    def refuse(*args):
        raise AssertionError("computed W(z) before the refusal")

    monkeypatch.setattr(sieveconsts, "sieve_product", refuse)
    with pytest.raises(ValueError, match="side must be 'lower' or 'upper', got 'sideways'"):
        sieve_window_value(40, 3, z=2500.0, D=2500.0**3, side="sideways")
    with pytest.raises(ValueError, match=r"f\(s\) closed form is valid on \[2.0, 4.0\] only"):
        sieve_window_value(40, 3, z=2500.0, D=2500.0**5, side="lower")
    with pytest.raises(ValueError, match=r"F\(s\) closed form is valid on \[1.0, 3.0\] only"):
        sieve_window_value(40, 3, z=2500.0, D=2500.0**3.5, side="upper")
