"""Iterated sieve integrals c_r(k) by a piecewise power-series level recursion.

The nested integral behind c_r(k) collapses to a one-dimensional recursion:

    g_2(u) = int_2^u log(t-1)/t dt
    g_m(u) = int_m^u g_{m-1}(t-1) / t dt          (m >= 3)
    c_r(k) = g_{r-1}(U_k),   U_k = (37k - 15) / (15 - k).

Each level is analytic on every unit interval [a, a + 1], a >= m, and is held
there as a truncated Taylor series in x = t - a - 1/2, |x| <= 1/2 (Marsaglia,
Zaman and Marsaglia, Math. Comp. 53 (1989); Bach and Peralta, Math. Comp. 65
(1996)).  The numerator g_{m-1}(t - 1) on interval a is level m - 1's series
on interval a - 1, in the same x, and level 2's is the series of
log(a - 1/2 + x).  Dividing by t = a + 1/2 + x is a two-term recurrence on the
coefficients, and integrating from x = -1/2 shifts them; the constant on each
interval is g_m(a), the sum of the rises of the intervals below it, from
g_m(m) = 0.  The nearest singularity lies 1.5 from every midpoint, so the
terms fall like 3^-i.  A level whose value at U_k fell below 1e-15 ends k's
column (every later c_r(k) is 0), and g_m(U_k) = 0 exactly once m >= U_k.

The levels do not depend on k; only the point U_k where they are read does.
One cascade to U_14 = 503 serves every k of K_RANGE, and each k reads its
interval ceil(U_k) - 1.

The cascade runs at the two series orders ``ORDERS``, once per process
(``_converged``): the higher gives the values, and the largest change between
the two is their error estimate.  ``constants_table`` reads that one table
whatever k it is asked for, and refuses a k whose change is not below
``ACCURACY``.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import reference
from .errors import VerificationError

ZERO_LEVEL_SUP = 1e-15
ORDERS = (24, 40)  # Taylor coefficients per unit interval: the lower order, and the one that gives the values
ACCURACY = 1e-8  # the largest change between the two orders that is accepted
COMPARE_TOL = 1e-3  # relative slack of an entry against its published bound


def upper_limit(k: int) -> float:
    """Upper integration limit U_k = (37k - 15)/(15 - k); requires k < 15."""
    reference.check_k(k)
    return (37.0 * k - 15.0) / (15.0 - k)


def max_r(k: int) -> int:
    """Largest prime-factor count in the tail sum: floor(36k / (15 - k))."""
    reference.check_k(k)
    return math.floor(36 * k / (15 - k))


def _series_levels(top: int, order: int):
    """Yield (m, level) for m = 2, 3, ...: row a - m of ``level`` is g_m on [a, a + 1], a = m..top - 1.

    A row is ``order`` coefficients of x^i, x = t - a - 1/2.  Level m's
    numerator on interval a is row a - 1 of level m - 1 (level 2's is
    log(a - 1/2 + x)); the quotient h by t = d + x, d = a + 1/2, solves
    d h_i + h_{i-1} = f_i, and the level is g_m(a) + int_{-1/2}^x h, truncated
    to ``order`` terms.  Every step acts on each row alone, and the sums over
    rows run from the lowest interval up, so a row does not depend on ``top``.
    """
    i = np.arange(order)
    left, rise = (-0.5) ** i[1:], 0.5 ** i[1:] - (-0.5) ** i[1:]  # x^i at x = -1/2; its change to x = 1/2
    s = np.arange(2, top) - 0.5
    numerator = np.empty((s.size, order))
    numerator[:, 0] = [math.log(v) for v in s]  # log(s + x) = log s - sum_{i >= 1} (-x/s)^i / i
    numerator[:, 1:] = -np.cumprod(np.tile(-1.0 / s[:, None], order - 1), axis=1) / i[1:]
    for m in range(2, top):
        d = np.arange(m, top) + 0.5
        level = np.empty_like(numerator)
        level[:, 1] = numerator[:, 0] / d
        for j in range(2, order):  # column j holds h_{j-1} until the shift below
            level[:, j] = (numerator[:, j - 1] - level[:, j - 1]) / d
        level[:, 1:] /= i[1:]
        at_left = np.cumsum((level[:, 1:] * rise).sum(axis=1))  # g_m(a + 1)
        level[:, 0] = -(level[:, 1:] * left).sum(axis=1)
        level[1:, 0] += at_left[:-1]
        yield m, level
        numerator = level[:-1]


def _series_values(order: int) -> dict[int, dict[int, float]]:
    """{k: {r: c_r}} for every k of K_RANGE, c_r = g_{r-1}(U_k) for r = 3..max_r(k), from one cascade.

    k reads g_m(U_k) on interval ceil(U_k) - 1, also where U_k is an integer.
    Its c_{m+1} is 0.0 once m >= U_k, and after a level whose value at U_k
    fell below ZERO_LEVEL_SUP; the cascade stops when every k has reached it.
    """
    values = {k: dict.fromkeys(range(3, max_r(k) + 1), 0.0) for k in reference.K_RANGE}
    reads = {}  # k -> (its interval, x^i at U_k on it)
    for k in reference.K_RANGE:
        u = upper_limit(k)
        reads[k] = math.ceil(u) - 1, (u - math.ceil(u) + 0.5) ** np.arange(order)
    live = list(reference.K_RANGE)
    for m, level in _series_levels(max(a for a, _ in reads.values()) + 1, order):
        for k in list(live):
            a, powers = reads[k]
            if a < m:  # g_m(U_k) = 0 once m >= U_k
                live.remove(k)
                continue
            values[k][m + 1] = float((level[a - m] * powers).sum())
            if values[k][m + 1] < ZERO_LEVEL_SUP:
                live.remove(k)
        if not live:
            break
    return values


@functools.cache
def _converged() -> Mapping[int, tuple[Mapping[int, float], float]]:
    """k -> (the higher order's c_r, read-only, and the largest change from the lower one's), for every k.

    One ``_series_values`` cascade per order, once per process.
    """
    low, high = (_series_values(order) for order in ORDERS)
    return MappingProxyType({
        k: (MappingProxyType(high[k]), max(abs(high[k][r] - low[k][r]) for r in high[k])) for k in high
    })


@dataclass(frozen=True)
class CrEntry:
    r: int
    value: float
    bound: float | None  # published reference bound, when listed
    within_bound: bool | None  # value <= bound * (1 + COMPARE_TOL)


@dataclass(frozen=True)
class CrTable:
    k: int
    entries: tuple[CrEntry, ...]
    C_value: float
    quad_error: float  # the two orders' largest change, times the number of entries

    @property
    def all_within_bounds(self) -> bool:
        return all(e.within_bound for e in self.entries if e.within_bound is not None)

    def entry(self, r: int) -> CrEntry:
        for e in self.entries:
            if e.r == r:
                return e
        raise KeyError(f"r={r} not in table for k={self.k}")


def constants_table(k: int) -> CrTable:
    """All c_r(k) over the tail range, their sum C(k), and reference comparison.

    Monotone decay is asserted across the computed range: the entries must
    strictly decrease until they hit zero, and stay zero afterwards.  A change
    of ``ACCURACY`` or more between the two series orders at k is a
    verification failure.
    """
    reference.check_k(k)
    values, err = _converged()[k]
    if not err < ACCURACY:
        raise VerificationError(
            f"c_r changes by {err:.3g} at k={k} between series orders {ORDERS}, not below {ACCURACY:g}"
        )
    bounds = reference.cr_bounds(k)
    entries = []
    c_total = 0.0
    for r in range(reference.ALMOST_PRIME_ORDER[k] + 1, max_r(k) + 1):
        v = values[r]
        c_total += v
        b = bounds.get(r)
        ok = None if b is None else (v <= b * (1.0 + COMPARE_TOL))
        entries.append(CrEntry(r, v, b, ok))
    for prev, nxt in zip(entries, entries[1:]):
        if nxt.value > 0 and not nxt.value < prev.value:
            raise VerificationError(
                f"monotone decay fails at k={k}: c_{nxt.r} = {nxt.value} >= c_{prev.r} = {prev.value}"
            )
        if prev.value == 0.0 and nxt.value != 0.0:
            raise VerificationError(f"zero tail violated at k={k}, r={nxt.r}")
    return CrTable(k, tuple(entries), c_total, err * len(entries))


def paper_chain(table: CrTable) -> float:
    """The published chain for C(k) on computed values: the sum of (hi - lo + 1) c_lo.

    Each published range (lo, hi) of r shares one bound, and C_BOUNDS[k] is the
    sum of (hi - lo + 1) times it.  With the computed c_lo in place of the bound
    the chain bounds the computed C(k) from above, as the entries decrease
    (``constants_table`` checks that).
    """
    return sum((hi - lo + 1) * table.entry(lo).value for (lo, hi), _ in reference.cr_ranges(table.k))


def tables_to_csv(tables: list[CrTable]) -> str:
    """The golden constants artifact: one row per (k, r)."""
    lines = ["k,r,c_r,reference_bound,pass"]
    for t in tables:
        for e in t.entries:
            b = "" if e.bound is None else f"{e.bound:.12g}"
            ok = "" if e.within_bound is None else str(e.within_bound).lower()
            lines.append(f"{t.k},{e.r},{e.value:.12g},{b},{ok}")
    return "\n".join(lines) + "\n"


def tables_to_json(tables: list[CrTable]) -> dict:
    return {
        "tables": [
            {
                "k": t.k,
                "C_value": t.C_value,
                "C_reference_bound": reference.C_BOUNDS[t.k],
                "C_within_bound": t.C_value <= reference.C_BOUNDS[t.k],
                "quad_error": t.quad_error,
                "entries": [
                    {
                        "r": e.r,
                        "c_r": e.value,
                        "reference_bound": e.bound,
                        "pass": e.within_bound,
                        # soft proximity report: how far the computed integral
                        # sits from the reference value (no assertion)
                        "proximity": (
                            None if e.bound is None else abs(e.value - e.bound) / e.bound
                        ),
                    }
                    for e in t.entries
                ],
            }
            for t in tables
        ]
    }
