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
is evaluated, so every level is bit-identical to scipy's.  A level works on
the even- and odd-indexed halves of its samples, each contiguous: one divide
per half forms its integrand, each parity of cells is a few contiguous
passes, and the cells are interleaved once into the level's buffer and
summed there.  The cascade allocates its workspace once, four arrays the
size of the lattice (the lattice halves, the integrand halves, the level
buffer and a spare), and each level overwrites the one before.  The integrand is
smooth everywhere (log(t-1) vanishes at t = 2; no singularity), so
refinement converges at fourth order.  Levels whose supremum falls below
1e-15 short-circuit to the zero function; the recursion depth reaches ~500
for k = 14.

The levels do not depend on k; only the point U_k where they are read does.
Where U_k S is an integer and S a power of two, k's lattice is the dyadic
2 + j/S, the same points for every such k up to its own U_k, so one cascade
on the largest of them serves them all: each k reads its c_r off that
cascade's levels at its own sample counts, bit for bit its own cascade's
values (``_lattice_groups`` gives the conditions).  At 128 and 256 steps per
unit, k = 3, 5, 6, 7 and 9..14 share k = 14's cascade, and k = 4 and 8
(U_4 = 133/11, U_8 = 281/7) run their own.

Every k is evaluated on the fixed pair of lattices ``STEPS_PER_UNIT``: the
finer one gives the values, and the largest change between the two is their
error estimate, which must stay below ``ACCURACY``.  The values are held per
process and per k in ``_CONVERGED``, so the margins reuse the tables
``constants_table`` built, and
``constants_tables`` computes every k it asks for and does not hold in one
batch of cascades.  A single k runs its own lattice alone.
"""

from __future__ import annotations

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


def _cumsimpson(even: np.ndarray, odd: np.ndarray, h: float, out: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """Cumulative composite Simpson integral of samples f (step h), from 0, into ``out``.

    ``even`` = f[0::2] and ``odd`` = f[1::2], n = even.size + odd.size >= 3
    samples, are overwritten; ``out`` takes the n integrals and ``spare``
    holds at least n floats.  Cell [x_i, x_{i+1}] is integrated from the
    parabola through three neighbouring samples,
    h/3 * ((5 f_a/4 + 2 f_b) - f_c/4) with f_c the sample outside the cell and
    f_b the cell's end next to it: forward (a, b, c = i, i+1, i+2) for even i,
    backward (a, b, c = i+1, i, i-1) for odd i and for the last cell.  Each
    parity of cells is one set of contiguous passes over the halves; the
    cells are then interleaved into ``out`` and summed left to right.
    """
    n = even.size + odd.size
    q = (n - 1) // 2  # cells of each parity, besides the last cell of an even n
    c = h / 3
    if n % 2 == 0:
        out[-1] = c * (5 * odd[-1] / 4 + 2 * even[-1] - odd[-2] / 4)
    a, cells = spare[: even.size], spare[even.size : even.size + q]
    # the quarters multiply by 0.25: the same real value as dividing by 4, so
    # the same correctly rounded double, at a fraction of a division's cost
    np.multiply(even, 5, out=a)
    a *= 0.25  # 5 f / 4 at the even samples
    even *= 0.25  # f / 4
    odd *= 2  # 2 f
    np.add(a[:q], odd[:q], out=cells)  # forward cells [x_2t, x_2t+1]
    cells -= even[1 : q + 1]
    np.multiply(cells, c, out=out[1 : 2 * q : 2])
    np.add(a[1 : q + 1], odd[:q], out=cells)  # backward cells [x_2t+1, x_2t+2]
    cells -= even[:q]
    np.multiply(cells, c, out=out[2 : 2 * q + 1 : 2])
    out[0] = 0.0
    np.cumsum(out[1:], out=out[1:])
    return out


def _lattice_top(k: int, steps_per_unit: int) -> int:
    """n_2, the largest j with U_k - j/S >= 2."""
    return int(math.floor((upper_limit(k) - 2) / (1.0 / steps_per_unit) + 1e-12))


def _lattice(k: int, steps_per_unit: int) -> np.ndarray:
    """Level 2's samples U_k - j/S, j = n_2..0 (``_lattice_top``).

    Level m samples the last n_2 - (m - 2)S + 1 of them.
    """
    h = 1.0 / steps_per_unit
    return upper_limit(k) - h * np.arange(_lattice_top(k, steps_per_unit), -1, -1)


def _levels(k: int, steps_per_unit: int, top: int):
    """Yield (m, ys): the level g_m on the last ys.size samples of ``_lattice``, m = 2..top.

    Level m drops the first (m - 2)S lattice points of level 2's, so
    g_{m-1}(t - 1) at level m's samples is the first samples of g_{m-1}.  The
    lattice is held as its even- and odd-indexed halves, each contiguous, and
    each level forms the halves of its integrand by one divide each, into a
    workspace the whole cascade reuses.  Every ys is a view of one level
    buffer that the next level overwrites: a yielded level is valid only
    until the next step.  A level shorter than two lattice cells, or any
    level after one whose supremum fell below ZERO_LEVEL_SUP, is the zero
    function and comes as (m, None).
    """
    S = steps_per_unit
    h = 1.0 / S
    lattice = _lattice(k, S)
    size = lattice.size
    halves = lattice[0::2].copy(), lattice[1::2].copy()
    integrand = np.log(lattice - 1.0) / lattice  # level 2's
    even, odd = integrand[0::2].copy(), integrand[1::2].copy()
    del lattice, integrand
    ys, spare = np.empty(size), np.empty(size)
    live = True
    for m in range(2, top + 1):
        n = size - (m - 2) * S  # samples, fewer than 3 once m >= U_k
        if not live or n < 3:
            live = False
            yield m, None
            continue
        first = (m - 2) * S  # lattice index of the level's first sample
        xe = halves[first % 2][first // 2 :][: (n + 1) // 2]
        xo = halves[1 - first % 2][(first + 1) // 2 :][: n // 2]
        if m > 2:
            np.divide(ys[0:n:2], xe, out=even[: xe.size])  # g_{m-1}(xs - 1) / xs
            np.divide(ys[1:n:2], xo, out=odd[: xo.size])
        # partial bottom cell [m, xs[0]]; the integrand vanishes at t = m exactly
        w = xe[0] - m
        if w > 1e-13:
            coeffs = np.polyfit(np.array([m, xe[0], xo[0]]), np.array([0.0, even[0], odd[0]]), 2)
            anti = np.polyint(coeffs)
            base = float(np.polyval(anti, xe[0]) - np.polyval(anti, m))
        else:
            base = 0.0
        level = _cumsimpson(even[: xe.size], odd[: xo.size], h, ys[:n], spare)
        level += base
        yield m, level
        live = not level.max() < ZERO_LEVEL_SUP


def _lattice_groups(ks, steps_per_unit: int) -> list[list[int]]:
    """The distinct k of ``ks`` in the groups that share one run of ``_levels``.

    At S a power of two and U_k S an integer, k's lattice is exactly the dyadic
    points 2 + j/S, j = 0..n_2: the lattices of any two such k agree sample for
    sample up to the smaller n_2, and so do their integrands and every cell that
    ``_cumsimpson`` integrates forward, or backward from inside the level.  Its
    running sums are sequential, so each level of the smaller k is the first
    samples of the larger one's, except the last cell of a level with an even
    sample count, which is backward from that level's end.  A level of k has
    n_2 + 1 - (m - 2)S samples, odd at every m when S and n_2 are both even.  So
    the largest k on the dyadic lattice leads a group that every other k on it
    with an even n_2 joins; any other k is a group of one.  The lead is last in
    its group, and the groups come in the order of their least k.
    """
    S = steps_per_unit
    dyadic, alone = [], []
    for k in sorted(set(ks)):
        on_dyadic = S > 1 and S & (S - 1) == 0 and (37 * k - 15) * S % (15 - k) == 0
        (dyadic if on_dyadic else alone).append(k)
    shared = [k for k in dyadic[:-1] if _lattice_top(k, S) % 2 == 0] + dyadic[-1:]
    groups = [[k] for k in alone + dyadic if k not in shared]
    return sorted(groups + [shared] if shared else groups, key=min)


def _cascade(ks, steps_per_unit: int) -> dict[int, dict[int, float]]:
    """{k: {r: c_r}}, c_r = g_{r-1}(U_k) for r = 3..max_r(k), at one lattice resolution.

    One run of ``_levels`` per ``_lattice_groups`` group, on its lead's lattice.
    Member k reads g_m(U_k) at index n - 1 of level m, where n = n_2 + 1 - (m - 2)S
    is the sample count of its own level m; its level is the zero function once
    n < 3, and after a level whose first n samples stayed below ZERO_LEVEL_SUP.
    """
    S = steps_per_unit
    out = {}
    for group in _lattice_groups(ks, S):
        values = {k: dict.fromkeys(range(3, max_r(k) + 1), 0.0) for k in group}
        samples = {k: _lattice_top(k, S) + 1 for k in group}
        active = list(group)
        for m, level in _levels(group[-1], S, max_r(group[-1]) - 1):
            if level is None:
                break  # every later level of the lead, and so of each member, is zero
            for k in list(active):
                n = samples[k] - (m - 2) * S
                if n < 3 or m >= max_r(k):
                    active.remove(k)
                    continue
                values[k][m + 1] = float(level[n - 1])
                if level[:n].max() < ZERO_LEVEL_SUP:
                    active.remove(k)
        out.update(values)
    return out


# k -> (the fine lattice's c_r, read-only, and the largest change from the coarse one's)
_CONVERGED: dict[int, tuple[Mapping[int, float], float]] = {}


def _converged_many(ks) -> list[tuple[Mapping[int, float], float]]:
    """``_converged_values`` at each k of ``ks``, in its order.

    The values are held per k, and a call computes the k not yet held in one
    ``_cascade`` per lattice.  The change is checked in ascending k; a change of
    ``ACCURACY`` or more is a verification failure.
    """
    todo = sorted({k for k in ks if k not in _CONVERGED})
    if todo:
        coarse, fine = (_cascade(todo, steps) for steps in STEPS_PER_UNIT)
        for k in todo:
            err = max(abs(fine[k][r] - coarse[k][r]) for r in fine[k])
            if not err < ACCURACY:
                raise VerificationError(
                    f"c_r changes by {err:.3g} at k={k} between {STEPS_PER_UNIT} steps per unit, not below {ACCURACY:g}"
                )
            _CONVERGED[k] = MappingProxyType(fine[k]), err
    return [_CONVERGED[k] for k in ks]


def _converged_values(k: int) -> tuple[Mapping[int, float], float]:
    """The fine lattice's c_r and the largest change from the coarse one's (``_converged_many``)."""
    return _converged_many((k,))[0]


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


def constants_tables(ks) -> list[CrTable]:
    """``constants_table`` at each k of ``ks``, in its order, from one batch of cascades."""
    for k in ks:
        reference.check_k(k)
    _converged_many(ks)
    return [constants_table(k) for k in ks]


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
