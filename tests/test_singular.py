
import numpy as np
import pytest

from wgkit.arith import factorize, primes_up_to
from wgkit.localdensity import local_densities_all
from wgkit.singular import (
    TAIL_PRIME_CONSTANT,
    correlation_sum,
    euler_factor,
    euler_factor_via_sums,
    omega,
    singular_series,
    tail_envelope,
)


def test_correlation_sum_base_cases():
    assert correlation_sum(1, 1, 40, 3) == 1.0
    # the unit square sum vanishes mod 9, killing the whole term
    assert correlation_sum(9, 1, 40, 3) == pytest.approx(0.0, abs=1e-9)
    # p = 2: S_2(2, a) = 0, so B(2, n) = 0 and the Euler factor is L(2,n)/1 = 1
    assert correlation_sum(2, 1, 40, 3) == pytest.approx(0.0, abs=1e-12)
    assert euler_factor(2, 1, 40, 3).value == pytest.approx(1.0)


def test_euler_factor_identities():
    # p not dividing d: 1 + A = L / (p-1)^5; p | d: 1 + A = p K / (p-1)^5
    for p in (3, 5, 7, 11):
        for n in (40, 96):
            K, L, _ = local_densities_all(p, 3)
            f1 = euler_factor(p, 1, n, 3)
            assert f1.value == pytest.approx(L[n % p] / (p - 1) ** 5)
            fp = euler_factor(p, p, n, 3)
            assert fp.value == pytest.approx(p * K[n % p] / (p - 1) ** 5)


def test_euler_factor_p2_with_even_d():
    # K(2, even) = 0, so the factor collapses to zero when 2 | d
    f = euler_factor(2, 2, 40, 3)
    assert f.value == 0.0


def test_two_path_agreement():
    for p in primes_up_to(199):
        for d in (1, p):
            a = euler_factor(p, d, 40, 3)
            b = euler_factor_via_sums(p, d, 40, 3)
            assert b.value == pytest.approx(a.value, rel=1e-6, abs=1e-9)


def test_truncation_vanishing_on_prime_powers():
    # A_d(p^l, n) = 0 for l >= 2: unit square sum dies for odd p, cube sum for p = 2
    for p in (2, 3, 5, 7, 11, 13, 29):
        for ell in (2, 3):
            q = p**ell
            if q > 3000:
                continue
            b = correlation_sum(q, 1, 40, 3)
            phi5 = (p ** (ell - 1) * (p - 1)) ** 5
            assert abs(b) / (q * phi5) < 1e-8


def test_singular_series_positive_and_truncation_consistent():
    ev29 = singular_series(40, 1, 3, p_max=29)
    ev_big = singular_series(40, 1, 3, p_max=10**4)
    assert ev29.value > 0 and ev_big.value > 0
    assert abs(ev_big.value - ev29.value) / ev29.value <= ev29.tail_bound
    assert ev_big.tail_bound < ev29.tail_bound


def test_singular_series_rejects_bad_input():
    with pytest.raises(ValueError):
        singular_series(41, 1, 3)  # odd target
    with pytest.raises(ValueError):
        singular_series(40, 4, 3)  # non-squarefree shift
    with pytest.raises(ValueError):
        singular_series(40, 1, 3, p_max=20)  # tail bound needs p_max >= 29
    with pytest.raises(ValueError):
        singular_series(40, 1, 15)
    with pytest.raises(ValueError, match="prime factor 45823 above p_max = 10000"):
        singular_series(40, 45823, 14, p_max=10**4)  # p | d past p_max: outside the tail bound


def test_tail_envelope_magnitude():
    assert tail_envelope(10**4) < 0.003
    # near the validity edge the 200/p^2 bound is weak; envelope is large but finite
    assert 0.0 < tail_envelope(29) < 20.0
    assert tail_envelope(100) > tail_envelope(1000) > tail_envelope(10**4)


def test_amplitude_bound_200_over_p2():
    for k in (3, 14):
        for p in primes_up_to(499):
            if p < 29:
                continue
            _, L, _ = local_densities_all(p, k)
            for n in range(p):
                a_val = L[n] / (p - 1) ** 5 - 1.0
                assert abs(a_val) <= 200.0 / p**2


def test_tail_constant_covers_its_closed_form():
    # for p not dividing d, |A(p, n)| <= B(p): p - 1 unit terms |S2| |S2*| |S3*|^3 |Sk*|
    # over p (p - 1)^5, with |S2| = sqrt p, |S2*| <= sqrt p + 1, |S3*| <= 2 sqrt p + 1 and
    # |Sk*| <= 13 sqrt p + 1, the prime-modulus bounds of the exponential-sum sweep
    p = np.arange(29, 10**6 + 1, dtype=float)
    r = np.sqrt(p)
    scaled = p**2 * (p - 1) * r * (r + 1) * (2 * r + 1) ** 3 * (13 * r + 1) / (p * (p - 1) ** 5)
    assert scaled[0] == pytest.approx(187.85, abs=0.01)  # the worst prime is the first
    assert (np.diff(scaled) < 0).all() and scaled[-1] > 104  # falling to the limit 104
    assert (scaled <= TAIL_PRIME_CONSTANT).all()


def test_omega_examples():
    assert omega(1, 40, 3) == 1.0
    assert omega(2, 40, 3) == 0.0  # K(2, even) = 0
    w3 = omega(3, 40, 3)
    w5 = omega(5, 40, 3)
    assert omega(15, 40, 3) == pytest.approx(w3 * w5, rel=1e-12)
    with pytest.raises(ValueError):
        omega(12, 40, 3)  # not squarefree


def test_omega_range_and_decay():
    for k in (3, 14):
        for p in primes_up_to(499):
            if p == 2:
                continue
            w = omega(p, 40, k)
            assert 0.0 <= w < p
            if p >= 29:
                assert abs(w - 1.0) <= 500.0 / p


def test_singular_series_ratio_recovers_omega():
    # S_d(n) / S(n) telescopes to the product of per-prime omega values
    n, k, p_max = 40, 3, 400
    base = singular_series(n, 1, k, p_max).value
    for d in (3, 5, 15):
        ratio = singular_series(n, d, k, p_max).value / base
        assert ratio == pytest.approx(omega(factorize(d), n, k), rel=1e-9)
