"""Deterministic integer arithmetic: primes, factorization, multiplicative functions.

All operations are pure and exact.  Inputs are desk scale (values up to about
10**12), so factorization is trial division against a shared prime table,
backed by a deterministic Miller-Rabin test for the 64-bit range.  The prime
table is built once and never mutated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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


@lru_cache(maxsize=None)
def _sieve(limit: int) -> np.ndarray:
    """Boolean primality array for 0..limit (read-only)."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    flags.setflags(write=False)
    return flags


def primes_up_to(limit: int) -> list[int]:
    """All primes in [2, limit], ascending."""
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if limit < 2:
        return []
    flags = _sieve(limit if limit > TRIAL_TABLE_LIMIT else TRIAL_TABLE_LIMIT)
    return np.nonzero(flags[: limit + 1])[0].tolist()


def is_prime(n: int) -> bool:
    """Deterministic primality test: the prime table up to 10**6, Miller-Rabin above."""
    if n <= TRIAL_TABLE_LIMIT:
        return n >= 2 and bool(_sieve(TRIAL_TABLE_LIMIT)[n])
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
    remaining = n
    factors = []
    if remaining > 1:
        flags = _sieve(TRIAL_TABLE_LIMIT)
        for p in range(2, TRIAL_TABLE_LIMIT + 1):
            if p * p > remaining:
                break
            if not flags[p]:
                continue
            if remaining % p == 0:
                e = 0
                while remaining % p == 0:
                    remaining //= p
                    e += 1
                factors.append((p, e))
        if remaining > 1:
            # With no factor up to min(sqrt(remaining), 10**6) left, a leftover
            # below 10**12 is prime; only a larger one needs the test.
            if remaining > TRIAL_TABLE_LIMIT**2 and not is_prime(remaining):
                raise ValueError(f"{n} is outside the supported factoring range")
            factors.append((remaining, 1))
    return FactoredInt(n, tuple(factors))


def euler_phi(f: FactoredInt) -> int:
    """Euler's totient from the factorization; phi(1) = 1."""
    out = 1
    for p, e in f.factors:
        out *= (p - 1) * p ** (e - 1)
    return out


def primitive_root(p: int) -> int:
    """Smallest generator of the multiplicative group mod an odd prime p."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"need an odd prime, got {p}")
    return int(_least_generators([p])[0])


_LEAST_ROOTS: dict[int, int] = {}  # prime -> least primitive root, each searched once per process


def _least_generators(ps) -> np.ndarray:
    """The least primitive root of each prime of ``ps`` (1 at p = 2), as an int64 array.

    Primes not yet in ``_LEAST_ROOTS`` are searched in one ``_root_search`` call.
    """
    ps = [int(p) for p in ps]
    new = sorted(set(ps).difference(_LEAST_ROOTS))
    if new:
        _LEAST_ROOTS.update(zip(new, _root_search(new).tolist()))
    return np.array([_LEAST_ROOTS[p] for p in ps], dtype=np.int64)


def _root_search(ps) -> np.ndarray:
    """The least primitive root of each prime of ``ps`` (1 at p = 2), in stacked passes.

    For each prime q <= sqrt(max p) dividing p - 1, the q-part of p - 1 is its
    gcd with a power of q past p; what the q-parts leave is 1 or a prime.  g
    generates iff g^((p-1)/q) != 1 mod p at every prime q | p - 1, and each
    pass tests the candidates [c, 4c) at every (p, q) pair at once, from c = 2.
    """
    top = int(np.max(ps))
    ps = np.asarray(ps, dtype=np.int64 if top < 2**27 else object)
    small = primes_up_to(max(2, math.isqrt(top)))
    high = []  # q^e >= max p
    for q in small:
        high.append(q)
        while high[-1] < top:
            high[-1] *= q
    small, high = np.array(small), np.array(high)
    row, col = np.nonzero((ps[:, None] - 1) % small == 0)
    smooth = np.ones_like(ps)
    np.multiply.at(smooth, row, np.gcd(ps[row] - 1, high[col]))
    rest = (ps - 1) // smooth
    big = np.flatnonzero(rest > 1)
    # the (p, q) pairs: prime index at[t] and exponent (p - 1)/q
    at = np.concatenate((row, big))
    exponent = (ps[at] - 1) // np.concatenate((small[col], rest[big]))
    g = np.ones_like(ps)
    pending = ps > 2
    first = 2
    while pending.any():
        pairs = pending[at]
        cand = np.arange(first, 4 * first)
        power = _pow_mod(cand, exponent[pairs, None], ps[at[pairs], None])
        # a candidate fails at a prime if it has power 1 at any of its pairs
        i, c = np.nonzero(power == 1)
        fails = np.bincount(at[pairs][i] * len(cand) + c, minlength=len(ps) * len(cand))
        ok = (fails.reshape(-1, len(cand)) == 0) & pending[:, None]
        found = ok.any(axis=1)
        g[found] = cand[ok[found].argmax(axis=1)]
        pending &= ~found
        first *= 4
    return g


def _pow_mod(base: np.ndarray, exponent: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """base^exponent mod mod, an (n, C) grid: ``base`` is a row (C,), the others (n, 1) columns.

    Left-to-right square-and-multiply; each step's product is below
    mod^2 * max(base), int64-exact for mod < 2^27 and base < 2^9.
    """
    out = np.ones((len(exponent), len(base)), dtype=exponent.dtype)
    for b in range(int(exponent.max()).bit_length() - 1, -1, -1):
        out *= out
        out *= np.where((exponent >> b) & 1, base, 1)
        out %= mod
    return out


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
