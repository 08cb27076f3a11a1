"""Iterated sieve integrals c_r(k) by a flattened level recursion.

The nested integral behind c_r(k) collapses to a one-dimensional recursion:

    g_2(u) = int_2^u log(t-1)/t dt
    g_m(u) = int_m^u g_{m-1}(t-1) / t dt          (m >= 3)
    c_r(k) = g_{r-1}(U_k),   U_k = (37k - 15) / (15 - k).

Each level is sampled on a lattice anchored at U_k with step 1/S (S integer),
so the shift t -> t-1 stays on-lattice and no interpolation enters the
recursion.  The cumulative integral per level is composite Simpson by
``_cumsimpson``: the per-cell formula of scipy's ``cumulative_simpson``
(scipy >= 1.12; Cartwright 2016, eqn 10), each cell integrated from its
three-point parabola, but only the half of the cell formulas that scipy keeps
is evaluated, so every level is bit-identical to scipy's.  The integrand is
smooth everywhere (log(t-1) vanishes at t = 2; no singularity), so
refinement converges at fourth order.  Levels whose supremum falls below
1e-15 short-circuit to the zero function; the recursion depth reaches ~500
for k = 14.

Every k is evaluated on the fixed pair of lattices ``STEPS_PER_UNIT``: the
finer one gives the values, and the largest change between the two is their
error estimate, which must stay below ``ACCURACY``.  The values are cached
per process and per k, so ``iterated_integral``, ``tail_sum`` and the margins
reuse the tables ``constants_table`` built.
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
STEPS_PER_UNIT = (128, 256)  # the coarse and the fine lattice
ACCURACY = 1e-8  # the largest change between the two lattices that is accepted
COMPARE_TOL = 1e-3  # relative slack of an entry against its published bound


def upper_limit(k: int) -> float:
    """Upper integration limit U_k = (37k - 15)/(15 - k); requires k < 15."""
    reference.check_k(k)
    return (37.0 * k - 15.0) / (15.0 - k)


def max_r(k: int) -> int:
    """Largest prime-factor count in the tail sum: floor(36k / (15 - k))."""
    reference.check_k(k)
    return math.floor(36 * k / (15 - k))


def _cumsimpson(f: np.ndarray, h: float) -> np.ndarray:
    """Cumulative composite Simpson integral of ``f`` (n >= 3 samples, step h), from 0.

    Cell [x_i, x_{i+1}] is integrated from the parabola through three
    neighbouring samples, h/3 * (5 f_a/4 + 2 f_b - f_c/4) with f_c the sample
    outside the cell and f_b the cell's end next to it: forward
    (a, b, c = i, i+1, i+2) for even i, backward (a, b, c = i+1, i, i-1) for
    odd i and for the last cell.  The cells are then summed left to right.
    """
    n = f.size
    c = h / 3
    even, mid, far = f[0 : n - 2 : 2], f[1 : n - 1 : 2], f[2:n:2]
    cells = np.empty(n - 1)
    cells[0 : n - 2 : 2] = c * (5 * even / 4 + 2 * mid - far / 4)
    cells[1::2] = c * (5 * far / 4 + 2 * mid - even / 4)
    if n % 2 == 0:
        cells[-1] = c * (5 * f[-1] / 4 + 2 * f[-2] - f[-3] / 4)
    out = np.empty(n)
    out[0] = 0.0
    np.cumsum(cells, out=out[1:])
    return out


def _levels(k: int, steps_per_unit: int, top: int):
    """Yield (m, xs, ys): the level g_m sampled on its lattice, m = 2..top.

    Every level samples a suffix of one lattice U_k - j/S, j = n_2..0: level
    m drops the first (m - 2)S points of level 2's, so g_{m-1}(t - 1) at level
    m's samples is the first samples of g_{m-1}, a slice.  A level shorter
    than two lattice cells, or any level after one whose supremum fell below
    ZERO_LEVEL_SUP, is the zero function and comes as (m, None, None).
    """
    U = upper_limit(k)
    h = 1.0 / steps_per_unit
    n_2 = int(math.floor((U - 2) / h + 1e-12))
    lattice = U - h * np.arange(n_2, -1, -1)
    prev_ys = None
    for m in range(2, top + 1):
        n_m = n_2 - (m - 2) * steps_per_unit
        if (m > 2 and prev_ys is None) or U - m <= 0 or n_m < 2:
            prev_ys = None
            yield m, None, None
            continue
        xs = lattice[-(n_m + 1) :]
        if m == 2:
            integrand = np.log(xs - 1.0) / xs
        else:
            integrand = prev_ys[: xs.size] / xs  # g_{m-1}(xs - 1)
        # partial bottom cell [m, xs[0]]; the integrand vanishes at t = m exactly
        w = xs[0] - m
        if w > 1e-13:
            coeffs = np.polyfit(
                np.array([m, xs[0], xs[1]]),
                np.array([0.0, integrand[0], integrand[1]]),
                2,
            )
            anti = np.polyint(coeffs)
            base = float(np.polyval(anti, xs[0]) - np.polyval(anti, m))
        else:
            base = 0.0
        ys = _cumsimpson(integrand, h) + base
        yield m, xs, ys
        prev_ys = None if ys.max() < ZERO_LEVEL_SUP else ys


def _cascade(k: int, steps_per_unit: int) -> dict[int, float]:
    """c_r = g_{r-1}(U_k) for r = 3..max_r(k) at a fixed lattice resolution."""
    levels = _levels(k, steps_per_unit, max_r(k) - 1)
    return {m + 1: 0.0 if ys is None else float(ys[-1]) for m, _, ys in levels}


@functools.lru_cache(maxsize=None)
def _converged_values(k: int) -> tuple[Mapping[int, float], float]:
    """The fine lattice's c_r and the largest change from the coarse one's.

    Cached per process; the values come as a read-only mapping.  A change of
    ``ACCURACY`` or more is a verification failure.
    """
    coarse, fine = (_cascade(k, steps) for steps in STEPS_PER_UNIT)
    err = max(abs(fine[r] - coarse[r]) for r in fine)
    if not err < ACCURACY:
        raise VerificationError(
            f"c_r changes by {err:.3g} at k={k} between {STEPS_PER_UNIT} steps per unit, not below {ACCURACY:g}"
        )
    return MappingProxyType(fine), err


def iterated_integral(r: int, k: int) -> float:
    """c_r(k) = g_{r-1}(U_k) to within ``ACCURACY``; 0 when r - 1 >= U_k."""
    reference.check_k(k)
    if r < 4:
        raise ValueError(f"the nested integral needs r >= 4, got {r}")
    if r - 1 >= upper_limit(k):
        return 0.0
    values, _ = _converged_values(k)
    return values[r]


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
    quad_error: float  # the two lattices' largest change, times the number of entries

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
    strictly decrease until they hit zero, and stay zero afterwards.
    """
    reference.check_k(k)
    values, err = _converged_values(k)
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


def tail_sum(k: int) -> float:
    """C(k) = sum of c_r(k) over r = r(k)+1 .. floor(36k/(15-k))."""
    return constants_table(k).C_value


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
