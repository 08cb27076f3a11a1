"""Deterministic integer arithmetic: primes, factorization, multiplicative functions.

All operations are pure and exact.  Inputs are desk scale (values up to about
10**12), so factorization is trial division over the primes of a shared prime
table, backed by a deterministic Miller-Rabin test for the 64-bit range.  The
table starts at the size its first caller asks for: a caller asking past its
end replaces it by a larger one, at least twice as long, so no table is ever
mutated and a table to 10**6 is built only for a number that large.  A
primality test past the table's end runs Miller-Rabin, and grows no table.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

TRIAL_TABLE_LIMIT = 10**6

# Witness set making Miller-Rabin deterministic for n < 3.3 * 10**24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@dataclass(frozen=True)
class FactoredInt:
    """A positive integer with its full prime factorization.

    ``factors`` is an ordered tuple of (prime, exponent) pairs with strictly
    increasing primes and exponents >= 1; the product reproduces ``value``.
    """

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.value < 1:
            raise ValueError(f"value must be positive, got {self.value}")
        prod = 1
        previous = 1
        for p, e in self.factors:
            if e < 1:
                raise ValueError(f"exponent must be >= 1, got {p}^{e}")
            if p <= previous:
                raise ValueError("primes must be strictly increasing")
            previous = p
            prod *= p**e
        if prod != self.value:
            raise ValueError(f"factors multiply to {prod}, not {self.value}")

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)


# the prime table: a flag per integer 0..len - 1 (1 for a prime) and its primes,
# ascending; replaced as one pair by ``_table``, never mutated
_TABLE: tuple[bytes, list[int]] = (b"", [])


def _table(limit: int) -> tuple[bytes, list[int]]:
    """The prime table, covering at least 0..limit: grown first if it ends below."""
    global _TABLE
    table = _TABLE
    if limit >= len(table[0]):
        table = _TABLE = _sieve(max(limit, 2 * len(table[0])))
    return table


def _sieve(limit: int) -> tuple[bytes, list[int]]:
    """The prime flags of 0..limit and the primes among them."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags.tobytes(), np.flatnonzero(flags).tolist()


def primes_up_to(limit: int) -> list[int]:
    """All primes in [2, limit], ascending."""
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    primes = _table(limit)[1]
    return primes[: bisect.bisect_right(primes, limit)]


def is_prime(n: int) -> bool:
    """Deterministic primality test: the prime table where it reaches, Miller-Rabin past its end.

    The table is never grown for it.
    """
    flags = _TABLE[0]
    if 0 <= n < len(flags):
        return flags[n] == 1
    return _miller_rabin(n)


def _miller_rabin(n: int) -> bool:
    """Miller-Rabin with the witnesses of ``_MR_WITNESSES``, deterministic below 3.3 * 10**24."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> FactoredInt:
    """Full prime factorization by trial division; factorize(1) is the empty product."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}; need n >= 1")
    return FactoredInt(n, tuple(_trial_division(n)))


def _trial_division(n: int) -> list[tuple[int, int]]:
    """The (prime, exponent) pairs of n >= 1, ascending.

    The divisors tried are the table's primes up to min(sqrt(n), 10**6), the
    table grown to that bound first.
    """
    remaining = n
    factors = []
    bound = min(math.isqrt(n), TRIAL_TABLE_LIMIT)
    for p in _table(bound)[1]:
        if p > bound:
            break
        if remaining % p == 0:
            e = 0
            while remaining % p == 0:
                remaining //= p
                e += 1
            factors.append((p, e))
            bound = min(bound, math.isqrt(remaining))
    if remaining > 1:
        # With no factor up to min(sqrt(remaining), 10**6) left, a leftover
        # below 10**12 is prime; only a larger one needs the test.
        if remaining > TRIAL_TABLE_LIMIT**2 and not is_prime(remaining):
            raise ValueError(f"{n} is outside the supported factoring range")
        factors.append((remaining, 1))
    return factors


def euler_phi(f: FactoredInt) -> int:
    """Euler's totient from the factorization; phi(1) = 1."""
    out = 1
    for p, e in f.factors:
        out *= (p - 1) * p ** (e - 1)
    return out


_LEAST_ROOTS: dict[int, int] = {}  # prime -> least primitive root, each searched once per process


def _least_generators(ps) -> np.ndarray:
    """The least primitive root of each prime of ``ps`` (1 at p = 2), as an int64 array.

    Each prime not yet in ``_LEAST_ROOTS`` is searched by ``_least_root``.
    """
    ps = [int(p) for p in ps]
    for p in set(ps).difference(_LEAST_ROOTS):
        _LEAST_ROOTS[p] = _least_root(p)
    return np.array([_LEAST_ROOTS[p] for p in ps], dtype=np.int64)


def _least_root(p: int) -> int:
    """The least primitive root of the prime p (1 at p = 2).

    g generates iff g^((p-1)/q) != 1 mod p at every prime q | p - 1; p - 1 is
    factored by ``_trial_division`` over the table's primes up to sqrt(p),
    and g = 2, 3, ... are tried in turn.
    """
    if p == 2:
        return 1
    exponents = [(p - 1) // q for q, _ in _trial_division(p - 1)]
    g = 2
    while True:
        for e in exponents:
            if pow(g, e, p) == 1:
                break
        else:
            return g
        g += 1


def _generator_walks(ps: np.ndarray, gs: np.ndarray, width: int) -> np.ndarray:
    """W[i, s] = gs[i]^s mod ps[i] for s = 0..width-1, one row per prime.

    Doubling: the first L powers of a row times g^L are the next L, so the
    walk is log2(width) stacked multiply-reduce passes, each product below
    p^2: in uint32 for p < 2^16, else in int64 (exact for p < 3e9).  Past
    s = p - 2 a row repeats with period p - 1.
    """
    mod = np.asarray(ps, dtype=np.uint32 if np.max(ps) < 2**16 else np.int64)[:, None]
    step = (np.asarray(gs)[:, None] % mod).astype(mod.dtype)
    W = np.empty((len(mod), width), dtype=mod.dtype)
    W[:, 0] = 1
    done = 1
    while done < width:
        n = min(done, width - done)
        block = W[:, done : done + n]
        np.multiply(W[:, :n], step, out=block)
        np.remainder(block, mod, out=block)
        step = step * step % mod
        done += n
    return W


def _generator_powers(p: int) -> np.ndarray:
    """g^s mod p for s = 0..p-2, g the least primitive root (g = 1 at p = 2)."""
    ps = np.array([p])
    return _generator_walks(ps, _least_generators(ps), p - 1)[0]
