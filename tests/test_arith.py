import bisect
import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import primitive_root
from wgkit import arith, localdensity
from wgkit.arith import (
    FactoredInt,
    _generator_powers,
    _least_generators,
    _miller_rabin,
    euler_phi,
    factorize,
    is_prime,
    primes_up_to,
)


def test_factorize_examples():
    assert factorize(1).factors == ()
    assert factorize(12).factors == ((2, 2), (3, 1))
    f = factorize(30030)
    assert f.factors == ((2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1))
    assert all(e == 1 for _, e in f.factors)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(1, 10**9))
def test_factorize_roundtrip_property(n):
    f = factorize(n)
    primes = [p for p, _ in f.factors]
    assert primes == sorted(set(primes)) and all(is_prime(p) for p in primes)
    assert math.prod(p**e for p, e in f.factors) == n


def test_factorize_leftovers_past_the_trial_table():
    # a leftover up to 10**12 with no factor below 10**6 is prime without a test;
    # a larger one is tested, and a composite one refused
    big = 10**12 - 11  # prime
    assert factorize(2 * big).factors == ((2, 1), (big, 1))
    huge = 10**12 + 39  # prime
    assert factorize(huge).factors == ((huge, 1),)
    with pytest.raises(ValueError):
        factorize(1000003 * 1000033)


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_roundtrip_against_trial_division():
    for n in list(range(1, 2000)) + [10**6 + 3, 999999937, 10**12 - 11]:
        f = factorize(n)
        prod = 1
        for p, e in f.factors:
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_factored_int_invariants_enforced():
    with pytest.raises(ValueError):
        FactoredInt(12, ((3, 1), (2, 2)))  # not increasing
    with pytest.raises(ValueError):
        FactoredInt(12, ((2, 1), (3, 1)))  # wrong product
    with pytest.raises(ValueError):
        FactoredInt(4, ((2, 0),))


def test_euler_phi_examples():
    assert euler_phi(factorize(1)) == 1
    for p in (2, 3, 5, 97):
        assert euler_phi(factorize(p)) == p - 1
    assert euler_phi(factorize(12)) == 4


def _phi_table(limit):
    phi = list(range(limit + 1))
    for p in primes_up_to(limit):
        for m in range(p, limit + 1, p):
            phi[m] -= phi[m] // p
    return phi


def test_divisor_sum_identities_up_to_1e5():
    # sum_{d|n} phi(d) = n, exhaustively
    limit = 10**5
    phi = _phi_table(limit)
    phi_sum = [0] * (limit + 1)
    for d in range(1, limit + 1):
        for m in range(d, limit + 1, d):
            phi_sum[m] += phi[d]
    for n in range(1, limit + 1):
        assert phi_sum[n] == n
    # the sieve table agrees with the factorization path on a sample
    for n in range(1, 500):
        assert euler_phi(factorize(n)) == phi[n]


def test_phi_multiplicative_on_coprime_pairs():
    for a in range(1, 120):
        for b in range(1, 120):
            if math.gcd(a, b) == 1:
                assert euler_phi(factorize(a * b)) == euler_phi(factorize(a)) * euler_phi(
                    factorize(b)
                )


def test_primes_up_to_examples():
    assert primes_up_to(1) == []
    assert primes_up_to(10) == [2, 3, 5, 7]
    assert len(primes_up_to(10**6)) == 78498


def test_primes_up_to_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    members = set(primes_up_to(10**4))
    for n in range(1, 10**4 + 1):
        assert (n in members) == trial(n)


def test_is_prime_table_matches_miller_rabin():
    # is_prime reads the prime table where it reaches and runs Miller-Rabin
    # past its end; the two agree around 10**6 and on Carmichael numbers
    ns = [*range(-5, 10**4), *range(10**6 - 50, 10**6 + 51), 561, 41041, 825265]
    assert [is_prime(n) for n in ns] == [_miller_rabin(n) for n in ns]
    assert not any(is_prime(n) for n in (561, 41041, 825265))
    assert [n for n in range(10**6 - 50, 10**6 + 51) if is_prime(n)] == [
        999953, 999959, 999961, 999979, 999983, 1000003, 1000033, 1000037, 1000039
    ]


def test_primitive_root_examples():
    assert primitive_root(3) == 2
    assert primitive_root(7) in (3, 5)
    g = primitive_root(23)
    seen = set()
    acc = 1
    for _ in range(22):
        acc = acc * g % 23
        seen.add(acc)
    assert len(seen) == 22  # order exactly p - 1


def test_least_generators_match_the_definition():
    # one call over every prime below 40000 (least roots up to 37, at
    # p = 36721) against a search on the definition; p = 2 maps to 1
    def least_root(p: int) -> int:
        qs = factorize(p - 1).primes
        return next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in qs))

    primes = primes_up_to(40000)
    assert _least_generators(primes).tolist() == [1] + [least_root(p) for p in primes[1:]]
    # primes far above the class-count engine's budget: p - 1 is factored by trial division
    for p, g in ((10**9 + 7, 5), (2**31 - 1, 7), (10**12 + 39, 3)):
        assert primitive_root(p) == g == least_root(p)


def test_generator_powers_walk_the_unit_group():
    assert _generator_powers(2).tolist() == [1]
    # 65521 < 2^16: the largest walk in uint32; 65537 and 131071 walk in int64
    for p in [*primes_up_to(3000)[1:], 65521, 65537, 131071]:
        pw = _generator_powers(p)
        g = primitive_root(p)
        assert pw[1] == g
        assert (pw[1:] == pw[:-1] * g % p).all()
        assert sorted(pw.tolist()) == list(range(1, p))


def test_primitive_root_rejections():
    with pytest.raises(ValueError):
        primitive_root(2)
    with pytest.raises(ValueError):
        primitive_root(15)


@functools.cache
def _oracle_primes() -> list[int]:
    """The primes up to 10**6 + 100 by a plain sieve of Eratosthenes over a bytearray."""
    limit = 10**6 + 100
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return [n for n, f in enumerate(flags) if f]


def _oracle_factors(n: int) -> tuple[tuple[int, int], ...]:
    factors = []
    for p in _oracle_primes():
        if p * p > n:
            break
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            factors.append((p, e))
    return tuple(factors + [(n, 1)] * (n > 1))


@pytest.mark.parametrize("order", ["ascending", "descending"])
def test_prime_table_grows_to_what_is_asked(monkeypatch, order):
    # from an empty table, each limit asked in turn: every answer is the
    # oracle's, whatever the table held before, and a table that grows at
    # least doubles; the limits reach 10**6 +- 50, across the switch to Miller-Rabin
    oracle = _oracle_primes()
    members = set(oracle)
    monkeypatch.setattr(arith, "_TABLE", (b"", []))
    limits = [1, 2, 3, 4, 10, 97, 100, 1000, 4095, 4096, 4097, 65537, 10**6 - 50, 10**6, 10**6 + 50]
    sizes = [0]
    for limit in sorted(limits, reverse=order == "descending"):
        assert primes_up_to(limit) == oracle[: bisect.bisect_right(oracle, limit)], limit
        for n in (limit - 1, limit, limit + 1):
            assert is_prime(n) == (n in members), n
            if n >= 1:
                assert factorize(n).factors == _oracle_factors(n), n
        sizes.append(len(arith._TABLE[0]))
        assert sizes[-1] == sizes[-2] or sizes[-1] >= 2 * sizes[-2]
    for n in range(10**6 - 50, 10**6 + 51):
        assert is_prime(n) == (n in members), n
        assert factorize(n).factors == _oracle_factors(n), n
        i = bisect.bisect_right(oracle, n)
        assert primes_up_to(n)[-3:] == oracle[i - 3 : i], n
    # a caller's list is its own copy: changing it leaves the table as it was
    primes_up_to(100).append(4)
    assert primes_up_to(101)[-1] == 101


def test_a_semiprime_past_the_trial_range_is_refused_whatever_the_table(monkeypatch):
    # trial division stops at 10**6 however far the table reaches, so a
    # product of two primes above 10**6 is refused, not factored
    n = 1000003 * 1000033
    monkeypatch.setattr(arith, "_TABLE", (b"", []))
    with pytest.raises(ValueError, match="outside the supported factoring range"):
        factorize(n)
    assert len(primes_up_to(2 * 10**6)) == 148933  # pi(2 * 10**6): both factors are in the table
    with pytest.raises(ValueError, match="outside the supported factoring range"):
        factorize(n)
    assert factorize(1000003 * 999983).factors == ((999983, 1), (1000003, 1))


def test_a_sieve_session_builds_a_small_table(monkeypatch):
    # W(z) at z = 2500 from a fresh table and an empty engine reads the primes
    # below z and factors p - 1 at each prime whose root it searches: the table
    # never nears 10**6.  Of its 366 odd primes, the 188 of coset count
    # G = gcd(6, p - 1) = 2 mark their squares, and only the 178 at p = 1 mod 6
    # search a root and walk it
    from wgkit.sieveconsts import sieve_product

    walked, squared = [], []
    walks, squares = localdensity._generator_walks, localdensity._squares_many

    def walk(ps, gs, width):
        walked.extend(ps.tolist())
        return walks(ps, gs, width)

    def square(primes, f, nu):
        squared.extend(primes)
        return squares(primes, f, nu)

    monkeypatch.setattr(localdensity, "_generator_walks", walk)
    monkeypatch.setattr(localdensity, "_squares_many", square)
    monkeypatch.setattr(arith, "_TABLE", (b"", []))
    monkeypatch.setattr(arith, "_LEAST_ROOTS", {})
    monkeypatch.setattr(localdensity, "_STORE", {})
    monkeypatch.setattr(localdensity, "_CYCLOTOMIC", {})
    sieve_product.cache_clear()
    assert 0.0 < sieve_product(2 * 10**6 + 2, 3, 2500) < 1.0
    assert 2500 <= len(arith._TABLE[0]) < 10**4
    odd = primes_up_to(2499)[1:]
    assert sorted(arith._LEAST_ROOTS) == sorted(walked) == [p for p in odd if p % 6 == 1]
    assert sorted(squared) == [p for p in odd if p % 6 != 1]
    assert (len(walked), len(squared)) == (178, 188)


def test_is_prime_past_the_table_grows_no_table(monkeypatch):
    # past the table's end is_prime runs Miller-Rabin: a test near 10**6 from
    # an empty table builds no table to 10**6
    monkeypatch.setattr(arith, "_TABLE", (b"", []))
    assert is_prime(999983) and not is_prime(999981) and is_prime(2) and not is_prime(1)
    assert arith._TABLE == (b"", [])
