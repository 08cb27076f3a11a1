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
the single residue 0) is a genuine check.

Where floats suffice the counts come from Gauss periods instead.  With
G = gcd(lcm(2, 3, k), p - 1), every unit sum S*_j(a), j in {2, 3, k}, is
constant on the cosets of the G-th powers H_G, so a count depends on n only
through n = 0 or the coset of -n: at most G + 1 <= lcm(2, 3, k) + 1 values
per (p, k), built in O(p) from the G periods eta_c = sum_{y in g^c H_G}
e(y/p) and cached.

The error term E_p = p L*(p,n) - (p-1)^6 satisfies the closed form bound
(p-1)(sqrt p + 1)^2 (2 sqrt p + 1)^3 (13 sqrt p + 1), uniform over powers
k <= 14, and is cross-checked against an exponential-sum evaluation in
extended precision.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType
from functools import lru_cache

import numpy as np

from .arith import is_prime, primitive_root
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


def _check_pk(p: int, k: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    check_k(k)


def _cyclic_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    q = len(a)
    full = np.convolve(a, b)
    out = full[:q].copy()
    out[: q - 1] += full[q:]
    return out


@lru_cache(maxsize=None)
def local_densities_all(p: int, k: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """(K, L, L*) for every residue n mod p, exact; p <= 1289."""
    _check_pk(p, k)
    if p * (p - 1) ** 5 >= _INT64_SAFE:
        raise BudgetExceeded(
            f"exact counts at p={p} would overflow int64 (p (p-1)^5 >= 2^62); the exact range ends at p = 1289"
        )
    h2u, h2, h3u, hku = (power_hist(j, p, units) for j, units in ((2, True), (2, False), (3, True), (k, True)))
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


def _generator_powers(p: int) -> np.ndarray:
    """g^s mod p for s = 0..p-2, g the least primitive root (g = 1 at p = 2).

    Baby steps g^i and giant steps g^(B t), B ~ sqrt(p), combined by one
    vectorised multiply-reduce (int64-exact for p < 3e9).
    """
    if p == 2:
        return np.ones(1, dtype=np.int64)
    g = primitive_root(p)
    step = math.isqrt(p - 1) + 1
    baby = [1]
    for _ in range(step):
        baby.append(baby[-1] * g % p)
    big = baby.pop()  # g^B
    giant = [1]
    while len(giant) * step < p - 1:
        giant.append(giant[-1] * big % p)
    return (np.multiply.outer(np.array(giant, dtype=np.int64), baby) % p).ravel()[: p - 1]


@dataclass(frozen=True)
class ClassCounts:
    """K, L and L* at one (p, k) as values per class of the target residue.

    Column 0 holds n = 0 mod p and column 1 + b holds the n with -n in the
    coset g^b H_G (g the least primitive root).  ``columns`` maps the G-th
    root of unity (-n)^exponent mod p, and 0 for n = 0, to the column; it has
    G + 1 entries, like each count.
    """

    p: int
    exponent: int  # (p - 1) / G
    columns: Mapping[int, int]
    K: tuple[float, ...]
    L: tuple[float, ...]
    Lstar: tuple[float, ...]

    def at(self, n: int) -> tuple[float, float, float]:
        """(K, L, L*) at the target n."""
        c = self.columns[pow(-n, self.exponent, self.p)]
        return self.K[c], self.L[c], self.Lstar[c]


@lru_cache(maxsize=None)
def class_counts(p: int, k: int) -> ClassCounts:
    """(K, L, L*) per class of n from the Gauss periods of the G-th powers.

    The unit sum on coset c is S*_j(c) = d_j sum_{i = c mod d_j} eta_i with
    d_j = gcd(j, p - 1), and the complete square sum is S_2 = 1 + S*_2.  A
    count with weight T(c) and head (its a = 0 term) is

        (head + sum_c T(c) eta_{c+b}) / p     for -n in coset b,
        (head + (p - 1)/G sum_c T(c)) / p     for n = 0,

    with heads (p-1)^5, p (p-1)^5, (p-1)^6 and weights T_K = S*_2 S*_3^3 S*_k,
    T_L = S_2 T_K, T_L* = S*_2 T_K.  O(p) work, no FFT; the result holds
    3 (G + 1) floats.
    """
    _check_pk(p, k)
    G = math.gcd(math.lcm(2, 3, k), p - 1)
    exponent = (p - 1) // G
    pw = _generator_powers(p)
    # g^s lies in coset s mod G; row m of the reshape holds s = m G .. m G + G - 1
    eta = np.exp((2j * math.pi / p) * pw).reshape(exponent, G).sum(axis=0)

    def unit_sum(j: int) -> np.ndarray:
        d = math.gcd(j, p - 1)
        return d * np.tile(eta.reshape(-1, d).sum(axis=0), G // d)

    s2 = unit_sum(2)
    t_k = s2 * unit_sum(3) ** 3 * unit_sum(k)
    # shifted[b, c] = eta_{(b + c) mod G}
    shifted = eta[np.add.outer(np.arange(G), np.arange(G)) % G]

    def values(head: int, t: np.ndarray) -> tuple[float, ...]:
        col = np.empty(G + 1)
        col[0] = exponent * t.sum().real
        col[1:] = (shifted @ t).real
        return tuple(((float(head) + col) / p).tolist())

    # (-n)^exponent = g^(b exponent) exactly when -n lies in coset b
    columns = MappingProxyType({0: 0} | {int(pw[b * exponent]): 1 + b for b in range(G)})
    return ClassCounts(
        p,
        exponent,
        columns,
        values((p - 1) ** 5, t_k),
        values(p * (p - 1) ** 5, (1 + s2) * t_k),
        values((p - 1) ** 6, s2 * t_k),
    )


def densities_float_all(p: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(K, L, L*) for every residue as floats, expanded from ``class_counts``.

    Used where only ratios matter; exact counting stays authoritative.
    """
    cc = class_counts(p, k)
    G = len(cc.K) - 1
    cols = np.zeros(p, dtype=np.intp)
    cols[p - _generator_powers(p)] = 1 + np.arange(p - 1) % G  # n = -g^s
    return tuple(np.array(v)[cols] for v in (cc.K, cc.L, cc.Lstar))
