"""Congruence solution counts for the mixed form and their error terms.

For a prime p, a power k and a target residue n the three counts are

    K(p,n)   solutions of x^2 + u1^3 + u2^3 + u3^3 + u4^k = n (mod p),
             all five variables coprime to p,
    L*(p,n)  solutions of x1^2 + x2^2 + u1^3 + u2^3 + u3^3 + u4^k = n (mod p),
             all six variables coprime to p,
    L(p,n)   the same congruence with x1 unrestricted.

All three are cyclic convolutions of four power histograms (units squared,
all squared, units cubed, units to the k-th power).  They share the prefix
T = h3u * h3u * h3u * hku, so K = h2u * T, L* = h2u * K and L = h2 * K.
Counting is exact in int64 while the total mass p (p-1)^5 of L stays below
2^62, i.e. for p <= 1289; larger primes are refused.  L is convolved
independently of L* + K, so the identity L = L* + K (x1 is either a unit or
the single residue 0) is a genuine check.  The spectral path takes real FFTs
of the same four histograms; callers use it where floats suffice.

The error term E_p = p L*(p,n) - (p-1)^6 satisfies the closed form bound
(p-1)(sqrt p + 1)^2 (2 sqrt p + 1)^3 (13 sqrt p + 1), uniform over powers
k <= 14, and is cross-checked against an exponential-sum evaluation in
extended precision.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import is_prime
from .errors import BudgetExceeded, VerificationError
from .expsums import power_hist
from .reference import K_RANGE, check_k

# np.convolve on int64 is exact while every count stays below 2^63; the
# largest count mass is that of L, p (p-1)^5.
_INT64_SAFE = 2**62


@dataclass(frozen=True)
class LocalDensities:
    p: int
    n_mod_p: int
    K: int
    L: int
    Lstar: int
    E_p: float

    def __post_init__(self):
        if self.L != self.Lstar + self.K:
            raise VerificationError(f"L = L* + K violated at p={self.p}, n={self.n_mod_p}")
        if self.p * self.Lstar - (self.p - 1) ** 6 != self.E_p:
            raise VerificationError(f"p L* = (p-1)^6 + E_p violated at p={self.p}")


def _histograms(p: int, k: int) -> Iterator[np.ndarray]:
    """h2u, h2, h3u, hku: the four power histograms behind K, L and L*.

    Built one at a time as they are consumed, so the spectral path keeps one
    histogram alive at a time: holding all four fragmented the heap and
    raised the peak RSS of a 2500-prime sieve product by about 1.5 MB.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    check_k(k)
    return (power_hist(j, p, units) for j, units in ((2, True), (2, False), (3, True), (k, True)))


def _cyclic_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    q = len(a)
    full = np.convolve(a, b)
    out = full[:q].copy()
    out[: q - 1] += full[q:]
    return out


@lru_cache(maxsize=None)
def local_densities_all(p: int, k: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """(K, L, L*) for every residue n mod p, exact; p <= 1289."""
    h2u, h2, h3u, hku = _histograms(p, k)
    if p * (p - 1) ** 5 >= _INT64_SAFE:
        raise BudgetExceeded(
            f"exact counts at p={p} would overflow int64 (p (p-1)^5 >= 2^62); the exact range ends at p = 1289"
        )
    prefix = _cyclic_convolve(_cyclic_convolve(_cyclic_convolve(h3u, h3u), h3u), hku)
    K = _cyclic_convolve(h2u, prefix)
    Lstar = _cyclic_convolve(h2u, K)
    L = _cyclic_convolve(h2, K)
    if (L != Lstar + K).any():
        raise VerificationError(f"L = L* + K fails at p={p}, k={k}")
    return tuple(K.tolist()), tuple(L.tolist()), tuple(Lstar.tolist())


def local_densities(p: int, n: int, k: int) -> LocalDensities:
    """The triple (K, L, L*) plus E_p for one prime and target residue."""
    K, L, Lstar = local_densities_all(p, k)
    r = n % p
    return LocalDensities(p, r, K[r], L[r], Lstar[r], float(p * Lstar[r] - (p - 1) ** 6))


def ep_bound(p: int, k: int = K_RANGE[-1]) -> float:
    """Closed-form bound on |E_p|, uniform over powers k <= 14.

    The six unit sums contribute (gcd(j, p-1) - 1) sqrt(p) + 1 each; the
    k-th-power factor is taken at its worst case gcd - 1 <= 13.
    """
    check_k(k)
    rp = math.sqrt(p)
    return (p - 1) * (rp + 1) ** 2 * (2 * rp + 1) ** 3 * (13 * rp + 1)


@lru_cache(maxsize=64)
def _unit_sum_product_ld(p: int, k: int) -> np.ndarray:
    """S*2(p,a)^2 S*3(p,a)^3 S*k(p,a) for a = 0..p-1 in extended precision."""
    ar = np.arange(p, dtype=np.int64)
    ang = np.longdouble(2 * math.pi) / p
    phase = ang * ((ar[:, None] * ar[None, :]) % p)
    mat = np.cos(phase) + 1j * np.sin(phase)
    prod = np.ones(p, dtype=np.clongdouble)
    for j, power in ((2, 2), (3, 3), (k, 1)):
        h = np.zeros(p, dtype=np.longdouble)
        for x in range(1, p):
            h[pow(x, j, p)] += 1
        prod *= (mat @ h.astype(np.clongdouble)) ** power
    prod.setflags(write=False)
    return prod


def ep_via_sums(p: int, n: int, k: int) -> float:
    """E_p recomputed as sum_{a=1..p-1} S*2^2 S*3^3 S*k e(-an/p), extended precision.

    Independent floating cross-check of the count-based (exact) value; the
    extended-precision accumulation keeps the absolute error below 1e-3 for
    all p <= 499.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if p == 2:
        # single term a=1: S*_j(2,1) = e(1/2) = -1 for every j, so the
        # product is (-1)^6 = 1 and E_2 = e(-n/2) = (-1)^n.
        return 1.0 if n % 2 == 0 else -1.0
    t = _unit_sum_product_ld(p, k)
    ar = np.arange(1, p, dtype=np.int64)
    ang = np.longdouble(2 * math.pi) / p
    phase = ang * ((ar * (n % p)) % p)
    total = (t[1:] * (np.cos(phase) - 1j * np.sin(phase))).sum()
    if abs(float(total.imag)) > 1e-3:
        raise VerificationError(f"E_p spectral path not real at p={p}, n={n}: {total.imag}")
    return float(total.real)


def densities_float_all(p: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(K, L, L*) for every residue as floats via the spectral path.

    O(p log p) per prime: four real forward transforms and three inverse
    ones.  Used where thousands of primes are needed (sieve products) and
    only ratios matter.  Exact counting stays authoritative.
    """
    f2u, f2, f3u, fku = (np.fft.rfft(h.astype(np.float64)) for h in _histograms(p, k))
    k_hat = f2u * (f3u * f3u * f3u * fku)
    return np.fft.irfft(k_hat, p), np.fft.irfft(f2 * k_hat, p), np.fft.irfft(f2u * k_hat, p)
