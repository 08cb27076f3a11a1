"""Singular series: per-prime Euler factors, truncated products, sieve density.

For a modulus q, shift d, even target n and power k the building block is the
weighted correlation of power sums over reduced residues a mod q,

    B_d(q) = sum_a S2(q, a d^2) S*2(q, a) S*3(q, a)^3 S*k(q, a) e(-a n / q),

which is real by conjugate symmetry.  The normalized term A_d(q) =
B_d(q) / (q phi(q)^5) vanishes on prime powers p^l, l >= 2 (the unit square
sum dies for odd p, the unit cube sum for p = 2), so the series collapses to
the Euler product over first powers,

    S_d(n) = prod_p (1 + A_d(p, n)),

whose factors are exact rationals of local solution counts, read from the
``ClassCounts`` of the exact per-class engine ``localdensity.class_counts_many``,
asked once for the whole prime range of a product:

    p not dividing d:  1 + A_d(p,n) = L(p,n) / (p-1)^5,
    p dividing d:      1 + A_d(p,n) = p K(p,n) / (p-1)^5.

Truncating at p_max >= 29 leaves a tail controlled by |A(p,n)| <= 200 / p^2,
which holds for p not dividing d; a d with a prime factor above p_max is refused.
The sieve density is omega(p) = p K(p,n) / L(p,n), multiplicative in d.
Both read the engine's store directly; nothing here holds a cache of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import FactoredInt, factorize, is_prime, primes_up_to
from .errors import BudgetExceeded, VerificationError
from .expsums import _units, complete_sums_all, unit_sums_all
from .localdensity import P_MAX_BUDGET, ClassCounts, class_counts_many
from .reference import check_k

TAIL_PRIME_CONSTANT = 200.0  # |A(p,n)| <= 200/p^2 for p >= 29
TAIL_VALID_FROM = 29


@dataclass(frozen=True)
class EulerFactor:
    p: int
    d: int
    value: float  # 1 + A_d(p, n)


@dataclass(frozen=True)
class SingularSeriesEval:
    n: int
    d: FactoredInt
    k: int
    p_max: int
    value: float
    tail_bound: float  # rigorous relative envelope for the dropped p > p_max
    factors: tuple[EulerFactor, ...]


def _check_nk(n: int, k: int) -> None:
    if n % 2 != 0:
        raise ValueError(f"target n must be even (the form represents even integers), got {n}")
    check_k(k)


def correlation_sum(q: int, d: int, n: int, k: int) -> float:
    """B_d(q, n): exact summation over reduced residues a mod q.

    The imaginary part must cancel by conjugate symmetry; a residual above
    1e-6 of the term mass is an internal consistency failure.
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if q == 1:
        return 1.0
    a = np.arange(q)
    units = _units(q)
    s2_complete = complete_sums_all(2, q)
    s2u = unit_sums_all(2, q)
    s3u = unit_sums_all(3, q)
    sku = unit_sums_all(k, q)
    twist = np.exp(-2j * np.pi * ((a * (n % q)) % q) / q)
    terms = s2_complete[(a * (d * d % q)) % q] * s2u * s3u**3 * sku * twist
    total = terms[units].sum()
    scale = max(1.0, float(np.abs(terms[units]).sum()))
    if abs(total.imag) > 1e-6 * scale:
        raise VerificationError(
            f"B_d({q}) imaginary residual {total.imag:.3e} exceeds tolerance"
        )
    return float(total.real)


def _euler_factor(cc: ClassCounts, d: int, n: int) -> EulerFactor:
    """1 + A_d(p, n) from the exact local counts at the prime p of ``cc``, for a checked n."""
    p = cc.p
    K, L, _ = cc.at(n)
    num = p * K if d % p == 0 else L
    return EulerFactor(p, d, float(num) / (p - 1) ** 5)


def euler_factor_via_sums(p: int, d: int, n: int, k: int) -> EulerFactor:
    """Same factor through the exponential-sum definition (cross-check path)."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    _check_nk(n, k)
    a_val = correlation_sum(p, d, n, k) / (p * float(p - 1) ** 5)
    return EulerFactor(p, d, 1.0 + a_val)


def tail_envelope(p_max: int) -> float:
    """Rigorous relative bound for the Euler product over p > p_max.

    Sums 200/p^2 explicitly over primes up to 10 * p_max; beyond that the
    primes are distinct odd integers, so the remainder is at most the odd-
    integer tail 100/M + 200/M^2 at M = 10 * p_max.
    """
    if p_max < TAIL_VALID_FROM:
        raise ValueError(f"truncation bound needs p_max >= {TAIL_VALID_FROM}, got {p_max}")
    if p_max > P_MAX_BUDGET:
        raise BudgetExceeded(f"truncation bound p_max = {p_max} is over the {P_MAX_BUDGET} budget")
    horizon = 10 * p_max
    explicit = sum(
        TAIL_PRIME_CONSTANT / (p * p) for p in primes_up_to(horizon) if p > p_max
    )
    remainder = TAIL_PRIME_CONSTANT / (2 * horizon) + TAIL_PRIME_CONSTANT / horizon**2
    # worst factor is 1/(1 - x) per prime; fold into a log-sum envelope
    worst = TAIL_PRIME_CONSTANT / p_max**2
    return float(math.expm1((explicit + remainder) / (1.0 - worst)))


def _as_factored(d) -> FactoredInt:
    return d if isinstance(d, FactoredInt) else factorize(d)


def singular_series(n: int, d, k: int, p_max: int = 10**4) -> SingularSeriesEval:
    """Truncated Euler product for S_d(n) with a rigorous tail envelope."""
    _check_nk(n, k)
    fd = _as_factored(d)
    if not fd.is_squarefree():
        raise ValueError(f"d must be squarefree, got {fd.value}")
    if fd.primes and fd.primes[-1] > p_max:
        # the envelope's 200/p^2 covers L/(p-1)^5 - 1 only, not p K/(p-1)^5 - 1
        raise ValueError(f"d = {fd.value} has the prime factor {fd.primes[-1]} above p_max = {p_max}")
    tail = tail_envelope(p_max)
    factors = []
    log_sum = 0.0
    zero = False
    for cc in class_counts_many(primes_up_to(p_max), k):
        f = _euler_factor(cc, fd.value, n)
        factors.append(f)
        if f.value <= 0.0:
            if f.value < 0.0:
                raise VerificationError(
                    f"Euler factor negative at p={f.p}: {f.value} (impossible for even n)"
                )
            zero = True
        else:
            log_sum += math.log(f.value)
    value = 0.0 if zero else math.exp(log_sum)
    if fd.value == 1 and value <= 0.0:
        raise VerificationError(f"singular series must be positive for even n, got {value}")
    return SingularSeriesEval(n, fd, k, p_max, value, tail, tuple(factors))


def _omega_p(cc: ClassCounts, n: int) -> float:
    """omega(p) = p K(p,n) / L(p,n) at the prime of ``cc``."""
    p = cc.p
    kv, lv, _ = cc.at(n)
    if lv <= 0:
        raise VerificationError(f"L(p,n) vanished at p={p}, n={n % p}")
    return p * float(kv) / float(lv)


def omega(d, n: int, k: int) -> float:
    """Sieve density omega(d) = prod_{p | d} p K(p,n) / L(p,n) for squarefree d."""
    _check_nk(n, k)
    fd = _as_factored(d)
    if not fd.is_squarefree():
        raise ValueError(f"omega is defined on squarefree d, got {fd.value}")
    out = 1.0
    for cc in class_counts_many(fd.primes, k):
        out *= _omega_p(cc, n)
    return out
