"""Complete exponential sums, unit-restricted sums, and Dirichlet character sums.

The basic objects are, for a modulus q, exponent j and numerator a,

    complete sum      sum_{m=1..q} e(a m^j / q)
    unit sum          same, restricted to gcd(m, q) = 1
    character sum     sum_{m=1..q} chi(m) e(a m^j / q)

evaluated by direct summation against an exact table of q-th roots of unity
(angles 2*pi*m'/q with m' reduced mod q), so there is no phase drift.  The
verification grid additionally uses a spectral path (the sum over m grouped by
the residue of m^j is a DFT of a power histogram), which is cross-checked
against the direct path in the tests.

Magnitude assertions use tolerance 1e-6 * q; moduli stay <= 10**4 so
accumulation error is orders of magnitude below that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .arith import _generator_powers, is_prime, primes_up_to
from .errors import VerificationError

J_MIN, J_MAX = 2, 14
MAG_TOL = 1e-6  # relative to q


@dataclass(frozen=True)
class ExpSumValue:
    re: float
    im: float
    modulus: int
    exponent_j: int
    numerator_a: int

    def __post_init__(self):
        if self.magnitude > self.modulus * (1 + 1e-9) + 1e-9:
            raise VerificationError(
                f"|S| = {self.magnitude} exceeds the trivial bound q = {self.modulus}"
            )

    @property
    def value(self) -> complex:
        return complex(self.re, self.im)

    @property
    def magnitude(self) -> float:
        return math.hypot(self.re, self.im)


@lru_cache(maxsize=512)
def _roots(q: int) -> np.ndarray:
    """e(v/q) for v = 0..q-1 (read-only)."""
    table = np.exp(2j * np.pi * np.arange(q) / q)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=2048)
def _power_residues(j: int, q: int) -> np.ndarray:
    """m^j mod q for m = 1..q, computed by repeated multiply-reduce (int64-safe)."""
    m = np.arange(1, q + 1, dtype=np.int64)
    acc = np.ones(q, dtype=np.int64)
    for _ in range(j):
        acc = acc * m % q
    acc.setflags(write=False)
    return acc


@lru_cache(maxsize=2048)
def _unit_mask(q: int) -> np.ndarray:
    """gcd(m, q) == 1 for m = 1..q (read-only)."""
    mask = np.gcd(np.arange(1, q + 1), q) == 1
    mask.setflags(write=False)
    return mask


def _check_jq(j: int, q: int) -> None:
    if not (J_MIN <= j <= J_MAX):
        raise ValueError(f"exponent j must be in [{J_MIN}, {J_MAX}], got {j}")
    if q < 1:
        raise ValueError(f"modulus must be >= 1, got {q}")


def complete_sum(j: int, q: int, a: int) -> ExpSumValue:
    """Direct summation of e(a m^j / q) over m = 1..q, ascending m."""
    _check_jq(j, q)
    idx = (a % q) * _power_residues(j, q) % q
    total = _roots(q)[idx].sum()
    return ExpSumValue(float(total.real), float(total.imag), q, j, a % q)


def unit_sum(j: int, q: int, a: int) -> ExpSumValue:
    """Complete sum restricted to gcd(m, q) = 1."""
    _check_jq(j, q)
    idx = (a % q) * _power_residues(j, q) % q
    total = _roots(q)[idx[_unit_mask(q)]].sum()
    return ExpSumValue(float(total.real), float(total.imag), q, j, a % q)


def power_hist(j: int, q: int, units_only: bool) -> np.ndarray:
    """Histogram h[v] = #{m in 1..q : m^j = v mod q (and gcd(m,q)=1 if units_only)}."""
    res = _power_residues(j, q)
    if units_only:
        res = res[_unit_mask(q)]
    return np.bincount(res, minlength=q).astype(np.int64)


def _spectrum(hist: np.ndarray) -> np.ndarray:
    """S(a) = sum_v hist[v] e(a v / q) for all a at once (conjugate DFT)."""
    return np.conj(np.fft.fft(hist.astype(np.float64)))


@lru_cache(maxsize=4096)
def complete_sums_all(j: int, q: int) -> np.ndarray:
    """Complete sums for every numerator a = 0..q-1 (spectral path)."""
    _check_jq(j, q)
    out = _spectrum(power_hist(j, q, False))
    out.setflags(write=False)
    return out


@lru_cache(maxsize=4096)
def unit_sums_all(j: int, q: int) -> np.ndarray:
    """Unit sums for every numerator a = 0..q-1 (spectral path)."""
    _check_jq(j, q)
    out = _spectrum(power_hist(j, q, True))
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class DirichletCharacter:
    """A Dirichlet character mod a prime, labeled by an index via a fixed primitive root.

    index 0 is the principal character.  ``values[m]`` holds chi(m) for
    m = 0..p-1, with chi(m) = 0 when p | m.
    """

    modulus: int
    index: int
    values: tuple[complex, ...]

    @property
    def is_principal(self) -> bool:
        return self.index == 0

    def __call__(self, m: int) -> complex:
        return self.values[m % self.modulus]


@lru_cache(maxsize=256)
def _dlog_table(p: int) -> np.ndarray:
    """dlog[g^s mod p] = s for the least primitive root g (p an odd prime)."""
    dlog = np.zeros(p, dtype=np.int64)
    dlog[_generator_powers(p)] = np.arange(p - 1)
    dlog.setflags(write=False)
    return dlog


def character(p: int, index: int) -> DirichletCharacter:
    """The character chi_index mod prime p: chi(g^s) = e(index * s / (p-1))."""
    if p == 2:
        if index != 0:
            raise ValueError("only the principal character exists mod 2")
        return DirichletCharacter(2, 0, (0j, 1 + 0j))
    if not is_prime(p):
        raise ValueError(f"characters are supported for prime modulus only, got {p}")
    if not (0 <= index < p - 1):
        raise ValueError(f"index must be in [0, {p - 2}], got {index}")
    dlog = _dlog_table(p)
    vals = np.zeros(p, dtype=complex)
    vals[1:] = np.exp(2j * np.pi * index * dlog[1:] / (p - 1))
    return DirichletCharacter(p, index, tuple(vals))


def all_characters(p: int) -> list[DirichletCharacter]:
    return [character(p, t) for t in range(max(1, p - 1))]


def char_sum(chi: DirichletCharacter, j: int, a: int) -> ExpSumValue:
    """G(chi, j, a) = sum_m chi(m) e(a m^j / q); reduces to the unit sum for chi principal."""
    q = chi.modulus
    _check_jq(j, q)
    idx = (a % q) * _power_residues(j, q) % q
    vals = np.asarray(chi.values)[np.arange(1, q + 1) % q]
    total = (vals * _roots(q)[idx]).sum()
    return ExpSumValue(float(total.real), float(total.imag), q, j, a % q)


def char_sums_all(p: int, j: int) -> np.ndarray:
    """|G| over all characters and numerators: array of shape (p-1, p-1).

    Entry [t, a-1] is G(chi_t, j, a).  Uses an FFT over the discrete log.
    """
    _check_jq(j, p)
    if not is_prime(p) or p == 2:
        raise ValueError(f"need an odd prime, got {p}")
    roots = _roots(p)
    # phase[s] for numerator a: e(a * g^(j s) / p); FFT over s gives all chi_t at once
    pw = _generator_powers(p)[j * np.arange(p - 1) % (p - 1)]
    # row a-1: v[s] = e(a g^(j s) / p); G(chi_t, a) = sum_s e(t s/(p-1)) v[s] = conj(fft(v))[t]
    v = roots[np.multiply.outer(np.arange(1, p, dtype=np.int64), pw) % p]
    return np.conj(np.fft.fft(v, axis=1)).T


def vanishing_exponent(p: int, j: int) -> int:
    """Smallest level gamma such that the unit sum vanishes mod p^l for all l >= gamma."""
    theta = 0
    jj = j
    while jj % p == 0:
        jj //= p
        theta += 1
    if p == 2 and theta > 0:
        return theta + 3
    return theta + 2


def twisted_gap(j: int, q1: int, q2: int) -> float:
    """Max deviation over all a of S(q1 q2, a) - S(q1, a q2^(j-1)) S(q2, a q1^(j-1)).

    The identity holds exactly for coprime q1, q2; the returned gap is pure
    floating-point noise when the implementation is correct.
    """
    if math.gcd(q1, q2) != 1:
        raise ValueError(f"moduli must be coprime, got {q1}, {q2}")
    q = q1 * q2
    big = complete_sums_all(j, q)
    s1 = complete_sums_all(j, q1)
    s2 = complete_sums_all(j, q2)
    a = np.arange(q)
    lhs = big[a]
    rhs = s1[a * pow(q2, j - 1, q1) % q1] * s2[a * pow(q1, j - 1, q2) % q2]
    return float(np.abs(lhs - rhs).max())


@dataclass
class BoundReport:
    """Worst-case ratios and hard-check outcomes for the classical sum bounds."""

    j_max: int
    q_max: int
    pp_max: int
    # per-j worst ratio |S(q,a)| / q^(1-1/j) over all q <= q_max, unit a
    complete_ratio: dict[int, tuple[float, int, int]] = field(default_factory=dict)
    # per-j worst ratio |G(chi,a)| / sqrt(p) over primes p, all chi, unit a
    char_ratio: dict[int, tuple[float, int, int]] = field(default_factory=dict)
    # minimal slack bound - |S| over the prime-modulus hard checks
    prime_slack: float = math.inf
    unit_slack: float = math.inf
    vanishing_max: float = 0.0
    twisted_gap_max: float = 0.0
    violations: list[tuple] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            "j_max": self.j_max,
            "q_max": self.q_max,
            "pp_max": self.pp_max,
            "complete_ratio": {
                j: {"ratio": r, "q": q, "a": a}
                for j, (r, q, a) in sorted(self.complete_ratio.items())
            },
            "char_ratio": {
                j: {"ratio": r, "p": p, "a": a}
                for j, (r, p, a) in sorted(self.char_ratio.items())
            },
            "prime_slack": self.prime_slack,
            "unit_slack": self.unit_slack,
            "vanishing_max": self.vanishing_max,
            "twisted_gap_max": self.twisted_gap_max,
            "violations": [list(v) for v in self.violations],
            "passed": self.passed,
        }


def verify_bounds(
    j_max: int = 14,
    q_max: int = 499,
    pp_max: int | None = None,
    char_p_max: int = 199,
    twisted_q_max: int = 0,
) -> BoundReport:
    """Exhaustive verification of the classical exponential-sum bounds.

    Reported (no hard assert, the implied constants are unspecified):
      * |S(q,a)| / q^(1-1/j) over all moduli and unit numerators,
      * |G(chi,a)| / sqrt(p) over prime moduli.

    Hard checks (any failure is returned in ``violations``):
      * prime modulus:  |S(p,a)|  <= (gcd(j,p-1) - 1) sqrt(p),
      * prime modulus:  |S*(p,a)| <= (gcd(j,p-1) - 1) sqrt(p) + 1,
      * prime powers p^l <= pp_max with l >= gamma(p, j): S*(p^l, a) = 0,
      * optional twisted multiplicativity over coprime pairs <= twisted_q_max.
    """
    if q_max < 2:
        raise ValueError(f"q_max must be >= 2, got {q_max}")
    if not (J_MIN <= j_max <= J_MAX):
        raise ValueError(f"j_max must be in [{J_MIN}, {J_MAX}], got {j_max}")
    if pp_max is None:
        pp_max = q_max
    rep = BoundReport(j_max=j_max, q_max=q_max, pp_max=pp_max)
    primes = set(primes_up_to(q_max))

    for j in range(J_MIN, j_max + 1):
        worst = (0.0, 1, 1)
        for q in range(1, q_max + 1):
            mags = np.abs(complete_sums_all(j, q))
            # unit numerators a = 0..q-1; a = 0 stands for m = q (a unit only for q = 1)
            units = np.nonzero(np.roll(_unit_mask(q), 1))[0]
            ratios = mags[units] / q ** (1 - 1 / j)
            i = int(np.argmax(ratios))
            if ratios[i] > worst[0]:
                worst = (float(ratios[i]), q, int(units[i]))
            if q in primes:
                tol = MAG_TOL * q
                g = math.gcd(j, q - 1)
                bound = (g - 1) * math.sqrt(q)
                umags = np.abs(unit_sums_all(j, q))
                slack_p = bound - mags[units]
                slack_u = bound + 1 - umags[units]
                rep.prime_slack = min(rep.prime_slack, float(slack_p.min()))
                rep.unit_slack = min(rep.unit_slack, float(slack_u.min()))
                if (slack_p < -tol).any():
                    a_bad = int(units[np.argmin(slack_p)])
                    rep.violations.append(("complete_prime_bound", j, q, a_bad))
                if (slack_u < -tol).any():
                    a_bad = int(units[np.argmin(slack_u)])
                    rep.violations.append(("unit_prime_bound", j, q, a_bad))
        rep.complete_ratio[j] = worst

    # vanishing of unit sums at high prime powers
    for j in range(J_MIN, j_max + 1):
        for p in primes_up_to(int(math.isqrt(pp_max)) + 1):
            gamma = vanishing_exponent(p, j)
            ell = gamma
            while p**ell <= pp_max:
                q = p**ell
                mags = np.abs(unit_sums_all(j, q))
                units = np.roll(_unit_mask(q), 1)
                m = float(mags[units].max())
                rep.vanishing_max = max(rep.vanishing_max, m)
                if m > MAG_TOL * q:
                    rep.violations.append(("unit_sum_vanishing", j, q, m))
                ell += 1

    # character-sum ratios and the Weil-type bound |G| <= (j+1) sqrt(p)
    for j in range(J_MIN, j_max + 1):
        worst = (0.0, 3, 1)
        for p in primes_up_to(min(char_p_max, q_max)):
            if p == 2:
                continue
            mags = np.abs(char_sums_all(p, j))
            ratio = float(mags.max() / math.sqrt(p))
            if ratio > worst[0]:
                t, a1 = np.unravel_index(int(np.argmax(mags)), mags.shape)
                worst = (ratio, p, int(a1) + 1)
            if mags.max() > (j + 1) * math.sqrt(p) + MAG_TOL * p:
                rep.violations.append(("weil_char_bound", j, p, float(mags.max())))
        rep.char_ratio[j] = worst

    if twisted_q_max:
        for j in range(J_MIN, j_max + 1):
            for q1 in range(2, twisted_q_max + 1):
                for q2 in range(q1 + 1, twisted_q_max + 1):
                    if math.gcd(q1, q2) != 1:
                        continue
                    gap = twisted_gap(j, q1, q2)
                    rep.twisted_gap_max = max(rep.twisted_gap_max, gap)
                    if gap > MAG_TOL * q1 * q2:
                        rep.violations.append(("twisted_multiplicativity", j, q1, q2, gap))

    return rep
