"""Complete exponential sums, unit-restricted sums, and Dirichlet character sums.

The basic objects are, for a modulus q, exponent j and numerator a,

    complete sum      sum_{m=1..q} e(a m^j / q)
    unit sum          same, restricted to gcd(m, q) = 1
    character sum     sum_{m=1..q} chi(m) e(a m^j / q)

evaluated on a spectral path: the sum over m grouped by the residue of m^j
is a DFT of a power histogram, so one transform gives every numerator a at
once.  The tests check it against direct summation over m (``tests/oracles.py``)
on an exact table of q-th roots of unity, whose angles 2*pi*m'/q take m'
reduced mod q, so there is no phase drift.  One kernel serves a whole tuple of
exponents at a modulus: a cumulative power table (the row of m^j from the
row of m^(j-1), one multiply-reduce each), one offset ``bincount`` for every
row, and one FFT along the last axis.  The per-j functions are its one-row
case.

Character sums mod a prime p need only gcd(j, p - 1) rows, not p - 1: with
m = g^s and a = g^r, G(chi_t, j, a) is the DFT over s of e(g^(r + j s) / p);
replacing r by r + j shifts that sequence by one step in s, which changes
only the phase of its DFT, so |G(chi_t, j, a)| depends on ind a = r only
mod gcd(j, p - 1).  Each class's least unit is read off the one walk of
g^s mod p, with no discrete-log table; the walk and the p-th roots of unity
are built per call, as the sweep reads each prime once.

``verify_bounds`` sweeps the moduli in chunks of consecutive q, at most
``_CHUNK_SLOTS`` table entries each: one power table and one bincount give
every histogram of a chunk.  At a prime q the one non-unit m = 0 adds one
count at v = 0, so the unit histogram is the complete one less that count,
and both go through one FFT.  The character sums of all exponents at one
prime go through one FFT too.

Magnitude assertions use tolerance 1e-6 * q; moduli stay <= 10**4 so
accumulation error is orders of magnitude below that.  ``verify_bounds``
estimates its FFT work before it starts and refuses a sweep over
``SWEEP_POINT_BUDGET``.  The module's two caches hold ``complete_sums_all`` and
``unit_sums_all``, which ``twisted_gap`` and ``singular.correlation_sum``
re-read; the unit set of a modulus is not cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .arith import _generator_powers, is_prime, primes_up_to
from .errors import BudgetExceeded

J_MIN, J_MAX = 2, 14
MAG_TOL = 1e-6  # relative to q
# FFT points (rows times length) one verify_bounds sweep may transform
SWEEP_POINT_BUDGET = 10**8
# the odd primes p <= min(CHAR_P_MAX, q_max) carry verify_bounds' character sums
CHAR_P_MAX = 199
# table entries (exponents times residues) per chunk of consecutive moduli in
# verify_bounds: bounds the chunk's power table and histograms at 128 KB each
_CHUNK_SLOTS = 2**14


def _power_table(js: tuple[int, ...], m: np.ndarray, mod) -> np.ndarray:
    """Rows m^j mod ``mod`` over the entries of ``m``, one per exponent of the ascending ``js``.

    ``mod`` is one modulus, or one per entry.  Each power comes from the
    previous one by one multiply-reduce (int64-safe), so the table costs
    max(js) passes however many rows it holds.
    """
    acc = np.ones(m.size, dtype=np.int64)
    table = np.empty((len(js), m.size), dtype=np.int64)
    e = 0
    for i, j in enumerate(js):
        for _ in range(j - e):
            np.multiply(acc, m, out=acc)
            np.remainder(acc, mod, out=acc)
        e = j
        table[i] = acc
    return table


def _units(q: int) -> np.ndarray:
    """gcd(m, q) == 1 for the residues m = 0..q-1: the unit set mod q, m = 0 a unit at q = 1 only."""
    return np.gcd(np.arange(q), q) == 1


def _check_jq(j: int, q: int) -> None:
    if not (J_MIN <= j <= J_MAX):
        raise ValueError(f"exponent j must be in [{J_MIN}, {J_MAX}], got {j}")
    if q < 1:
        raise ValueError(f"modulus must be >= 1, got {q}")


def _power_hists(js: tuple[int, ...], q: int, units_only: bool) -> np.ndarray:
    """h[i, v] = #{m in 0..q-1 : m^js[i] = v mod q (and gcd(m,q)=1 if units_only)}."""
    return _power_hists_many(js, (q,), units_only)


def _power_hists_many(js: tuple[int, ...], qs, units_only: bool = False) -> np.ndarray:
    """The histograms ``_power_hists`` of every modulus of ``qs``, side by side in one table.

    Modulus q's histograms are the columns [s, s + q) of the (len(js), sum(qs))
    result, s the residues of the moduli before it.  One power table over the
    residues m = 0..q-1 of every modulus (m = 0 stands for m = q: both have
    m^j = 0 mod q), and one bincount.
    """
    qs = np.asarray(qs, dtype=np.int64)
    mod, first = np.repeat(qs, qs), np.repeat(np.cumsum(qs) - qs, qs)  # per column: q and s
    m = np.arange(mod.size, dtype=np.int64) - first
    table = _power_table(js, m, mod)
    # row i of modulus q counts into bins i sum(qs) + s + v
    table += first
    table += m.size * np.arange(len(js))[:, None]
    if units_only:
        table = table[:, np.concatenate([_units(q) for q in qs.tolist()])]
    return np.bincount(table.ravel(), minlength=len(js) * m.size).reshape(len(js), m.size)


def _spectra(hists: np.ndarray) -> np.ndarray:
    """Row i: the conjugate DFT of histogram row i, S(a) = sum_v h[v] e(a v / q)."""
    out = np.fft.fft(hists.astype(np.float64))
    return np.conjugate(out, out=out)


def _power_spectra(js: tuple[int, ...], q: int, units_only: bool) -> np.ndarray:
    """Row i: the complete (or unit) sums of exponent js[i] for every a = 0..q-1."""
    return _spectra(_power_hists(js, q, units_only))


@lru_cache(maxsize=4096)
def complete_sums_all(j: int, q: int) -> np.ndarray:
    """Complete sums for every numerator a = 0..q-1 (spectral path)."""
    _check_jq(j, q)
    out = _power_spectra((j,), q, False)[0]
    out.setflags(write=False)
    return out


@lru_cache(maxsize=4096)
def unit_sums_all(j: int, q: int) -> np.ndarray:
    """Unit sums for every numerator a = 0..q-1 (spectral path)."""
    _check_jq(j, q)
    out = _power_spectra((j,), q, True)[0]
    out.setflags(write=False)
    return out


def _char_rows(p: int, js: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Character sums for one numerator per class of ind a mod gcd(j, p-1), every j of ``js`` in one FFT.

    Exponent j contributes d = gcd(j, p-1) rows, stacked in the order of ``js``:
    a[r] is row r's numerator, the least unit with ind a = c mod d for the
    row's class c, and G[r, s] = G(chi_t, j, a[r]) at t = -s mod p-1.
    |G(chi_t, j, a)| is the same for every a in a class (module docstring), so
    the d rows carry every magnitude of exponent j's (p-1) x (p-1) table.
    """
    pw = _generator_powers(p)  # pw[s] = g^s mod p, g the least primitive root
    ds = [math.gcd(j, p - 1) for j in js]
    # d | p - 1: column c of the walk in rows of d holds g^s for every s = c mod d
    least = {d: pw.reshape(-1, d).min(axis=0) for d in set(ds)}
    reps = np.concatenate([least[d] for d in ds])
    # row r: v[s] = e(a_r g^(j s) / p); G(chi_t, a_r) = sum_s e(t s/(p-1)) v[s] = fft(v)[-t]
    pw = pw[np.multiply.outer(np.repeat(js, ds), np.arange(p - 1)) % (p - 1)]
    roots = np.exp(2j * np.pi * np.arange(p) / p)  # e(v/p), v = 0..p-1
    return reps, np.fft.fft(roots[reps[:, None] * pw % p], axis=1)


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
    floating-point noise when the implementation is correct.  The factor
    moduli's spectra come from the cache; the product's, used once, does not.
    """
    if math.gcd(q1, q2) != 1:
        raise ValueError(f"moduli must be coprime, got {q1}, {q2}")
    q = q1 * q2
    s1 = complete_sums_all(j, q1)
    s2 = complete_sums_all(j, q2)
    lhs = _power_spectra((j,), q, False)[0]
    a = np.arange(q)
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


def _sweep_points(js: tuple[int, ...], q_max: int, pp_max: int, twisted_q_max: int):
    """Rows times length of each FFT batch ``verify_bounds`` runs, in sweep order.

    The vanishing levels are counted with every j, the twisted pairs with
    their product modulus only; the count is lazy, so a caller can stop as
    soon as it passes a budget whatever the arguments.
    """
    n = len(js)
    for q in range(1, q_max + 1):
        yield n * q * (2 if is_prime(q) else 1)
    for p in range(2, math.isqrt(pp_max) + 1):
        if is_prime(p):
            q = p * p
            while q <= pp_max:
                yield n * q
                q *= p
    for p in primes_up_to(min(CHAR_P_MAX, q_max))[1:]:
        yield sum(math.gcd(j, p - 1) for j in js) * (p - 1)
    for q1 in range(2, twisted_q_max + 1):
        for q2 in range(q1 + 1, twisted_q_max + 1):
            if math.gcd(q1, q2) == 1:
                yield n * q1 * q2


def verify_bounds(
    j_max: int = 14,
    q_max: int = 499,
    pp_max: int | None = None,
    twisted_q_max: int = 0,
) -> BoundReport:
    """Exhaustive verification of the classical exponential-sum bounds.

    Reported (no hard assert, the implied constants are unspecified):
      * |S(q,a)| / q^(1-1/j) over all moduli and unit numerators,
      * |G(chi,a)| / sqrt(p) over odd prime moduli p <= min(CHAR_P_MAX, q_max).

    Hard checks (any failure is returned in ``violations``):
      * prime modulus:  |S(p,a)|  <= (gcd(j,p-1) - 1) sqrt(p),
      * prime modulus:  |S*(p,a)| <= (gcd(j,p-1) - 1) sqrt(p) + 1,
      * prime powers p^l <= pp_max with l >= gamma(p, j): S*(p^l, a) = 0,
      * optional twisted multiplicativity over coprime pairs <= twisted_q_max.

    Raises ``BudgetExceeded``, before any work, for a sweep over
    ``SWEEP_POINT_BUDGET`` FFT points.
    """
    if q_max < 2:
        raise ValueError(f"q_max must be >= 2, got {q_max}")
    if not (J_MIN <= j_max <= J_MAX):
        raise ValueError(f"j_max must be in [{J_MIN}, {J_MAX}], got {j_max}")
    if pp_max is None:
        pp_max = q_max
    if pp_max < 2:
        raise ValueError(f"pp_max must be >= 2, got {pp_max}")
    if twisted_q_max < 0 or 1 <= twisted_q_max <= 2:
        # the first coprime pair is (2, 3): 1 and 2 would run no pair at all
        raise ValueError(f"twisted_q_max must be 0 (off) or >= 3, got {twisted_q_max}")
    js = tuple(range(J_MIN, j_max + 1))
    points = 0
    for batch in _sweep_points(js, q_max, pp_max, twisted_q_max):
        points += batch
        if points > SWEEP_POINT_BUDGET:
            raise BudgetExceeded(
                f"the sums sweep would transform over {SWEEP_POINT_BUDGET} FFT points; "
                "lower q_max, pp_max or twisted_q_max"
            )
    rep = BoundReport(j_max=j_max, q_max=q_max, pp_max=pp_max)
    primes = set(primes_up_to(q_max))
    n = len(js)
    worst = np.zeros(n)
    worst_q = np.ones(n, dtype=np.int64)
    worst_a = np.ones(n, dtype=np.int64)
    found = []  # found modulus by modulus, reported j by j
    lo = 1
    while lo <= q_max:
        # the chunk's moduli lo..hi - 1: at most _CHUNK_SLOTS table entries, or one modulus
        hi, size = lo + 1, lo
        while hi <= q_max and n * (size + hi) <= _CHUNK_SLOTS:
            size += hi
            hi += 1
        hists = _power_hists_many(js, range(lo, hi))
        start = 0
        for q in range(lo, hi):
            block = hists[:, start : start + q]
            start += q
            if q in primes:
                # m = 0 is the one non-unit: the unit histogram lacks one count at v = 0
                block = np.concatenate((block, block))
                block[n:, 0] -= 1
            units = np.flatnonzero(_units(q))  # unit numerators a (a = 0 only for q = 1)
            mags = np.abs(_spectra(block)[:, units])
            # Python-scalar powers: numpy's array power can differ in the last ulp
            ratios = mags[:n] / np.array([q ** (1 - 1 / j) for j in js])[:, None]
            best = ratios.max(axis=1)
            better = best > worst
            worst[better] = best[better]
            worst_q[better] = q
            worst_a[better] = units[ratios.argmax(axis=1)[better]]
            if q in primes:
                tol = MAG_TOL * q
                bound = np.array([(math.gcd(j, q - 1) - 1) * math.sqrt(q) for j in js])[:, None]
                slack_p = bound - mags[:n]
                slack_u = bound + 1 - mags[n:]
                rep.prime_slack = min(rep.prime_slack, float(slack_p.min()))
                rep.unit_slack = min(rep.unit_slack, float(slack_u.min()))
                for name, slack in (("complete_prime_bound", slack_p), ("unit_prime_bound", slack_u)):
                    for r in np.nonzero((slack < -tol).any(axis=1))[0]:
                        found.append((name, js[r], q, int(units[np.argmin(slack[r])])))
        lo = hi
    for r, j in enumerate(js):
        rep.complete_ratio[j] = (float(worst[r]), int(worst_q[r]), int(worst_a[r]))
    rep.violations.extend(sorted(found, key=lambda v: v[1]))

    # vanishing of unit sums at high prime powers: each p^l once, for the j with gamma <= l
    found = []
    for p in primes_up_to(int(math.isqrt(pp_max)) + 1):
        gammas = [vanishing_exponent(p, j) for j in js]
        q, ell = p * p, 2
        while q <= pp_max:
            level_js = tuple(j for j, gamma in zip(js, gammas) if gamma <= ell)
            if level_js:
                units = _units(q)
                peaks = np.abs(_power_spectra(level_js, q, True)[:, units]).max(axis=1)
                rep.vanishing_max = max(rep.vanishing_max, float(peaks.max()))
                for j, m in zip(level_js, peaks.tolist()):
                    if m > MAG_TOL * q:
                        found.append(("unit_sum_vanishing", j, q, m))
            q *= p
            ell += 1
    rep.violations.extend(sorted(found, key=lambda v: v[1]))

    # character-sum ratios and the Weil-type bound |G| <= (j+1) sqrt(p), all j of a prime at once
    worst_char = dict.fromkeys(js, (0.0, 3, 1))
    weil = {j: [] for j in js}
    for p in primes_up_to(min(CHAR_P_MAX, q_max))[1:]:
        reps, sums = _char_rows(p, js)
        row_peaks = np.abs(sums).max(axis=1).tolist()
        start = 0
        for j in js:
            rows = row_peaks[start : start + math.gcd(j, p - 1)]
            peak = max(rows)
            ratio = peak / math.sqrt(p)
            if ratio > worst_char[j][0]:
                worst_char[j] = (ratio, p, int(reps[start + rows.index(peak)]))
            if peak > (j + 1) * math.sqrt(p) + MAG_TOL * p:
                weil[j].append(("weil_char_bound", j, p, peak))
            start += len(rows)
    for j in js:
        rep.violations.extend(weil[j])
        rep.char_ratio[j] = worst_char[j]

    if twisted_q_max:
        for j in js:
            for q1 in range(2, twisted_q_max + 1):
                for q2 in range(q1 + 1, twisted_q_max + 1):
                    if math.gcd(q1, q2) != 1:
                        continue
                    gap = twisted_gap(j, q1, q2)
                    rep.twisted_gap_max = max(rep.twisted_gap_max, gap)
                    if gap > MAG_TOL * q1 * q2:
                        rep.violations.append(("twisted_multiplicativity", j, q1, q2, gap))

    return rep
