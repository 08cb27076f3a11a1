"""Exact Diophantine counting with meet-in-the-middle joins.

The counts here stand in for mean-value estimates: the number of solutions of

    y1^k + y2^k = y3^k + y4^k                     (fourth-moment count)
    x1^3 + y1^k + y2^k = x2^3 + y3^k + y4^k       (mixed count, Q = P^(5/2k))
    x1^3 + z1^3 + y1^k = x2^3 + z2^3 + y2^k       (triple count)

over dyadic boxes (X, 2X], plus representation counts for the target form
n = x^2 + p1^2 + p2^3 + p3^3 + p4^3 + p5^k with x almost-prime.  Every count
is a sort-and-run-length join: solutions of A = B number the sum over values v
of count_A(v) * count_B(v), and sorting a value multiset puts each count(v) in
one run of equal entries (``_runs``).  At small sizes an exhaustive twin
compares every entry with every entry, and the two must agree exactly.

No count holds its whole value multiset.  Each value is an outer value plus
an entry of a small sorted array W (triple: x^3 + (z^3 + y^k), mixed:
(y1^k + y2^k) + x^3, fourth moment: y_i^k + y_j^k), and ``_bands`` cuts the
value axis into bands of about ``_BAND_ENTRIES`` entries, gathered from each
outer value's slice of W (``_slices``) as keys ((value - a) << bits) | tag and
sorted.  Equal values never straddle a band, so memory stays bounded by the
band size.  The triple count folds W into distinct values and the fourth
moment takes the pairs i <= j, each tagged with its weight less one, so every
distinct sum is gathered once (``_square_sum``); the mixed count tags each key
with its x index.  The representation count bins x^2 + p1^2 in bands of
``_BAND_ENTRIES`` values, read at the targets n - p5^k - w in each band.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .arith import primes_up_to
from .errors import BudgetExceeded, VerificationError
from .singint import boxes

PAIR_BUDGET = 10**8

# entries per band of a streamed join: bounds the memory of one band's values,
# their outer indices and their sort (a few MB), whatever the count's size
_BAND_ENTRIES = 2**17


@dataclass(frozen=True)
class CountReport:
    description: str
    parameters: dict
    count: int
    wall_time: float
    method: str


@dataclass(frozen=True)
class ScalingFit:
    points: tuple[tuple[float, float], ...]  # (log size, log count)
    slope: float
    intercept: float
    max_residual: float


def dyadic_size(X: float) -> int:
    """How many integers the half-open box (X, 2X] holds: ``dyadic_range(X).size``, unbuilt."""
    return max(0, math.floor(2 * X) - math.floor(X))


def dyadic_range(X: float) -> np.ndarray:
    """Integers in the half-open box (X, 2X]; check its size with ``dyadic_size`` first."""
    return np.arange(math.floor(X) + 1, math.floor(2 * X) + 1, dtype=np.int64)


def _powers(values: np.ndarray, k: int) -> np.ndarray:
    """values**k, exact: int64 when safe, Python ints (object dtype) otherwise."""
    if values.size and int(values.max()) ** k >= 2**62:
        return np.array([int(v) ** k for v in values.tolist()], dtype=object)
    return values.astype(np.int64) ** k


def _runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of each run of equal entries of sorted ``values``.

    The lengths sum to the entry count, at most PAIR_BUDGET = 10^8, so their
    int64 square sum is exact.
    """
    new = np.ones(values.size + 1, dtype=bool)  # new[i]: entry i starts a run; new[n] closes the last
    new[1:-1] = values[1:] != values[:-1]
    bounds = np.flatnonzero(new)
    return bounds[:-1], np.diff(bounds)


def _band_edges(outer: np.ndarray, inner: np.ndarray, pairs: bool = False) -> list[int]:
    """Value edges e_0 < e_1 < ... < e_m, about ``_BAND_ENTRIES`` sums per [e_t, e_t+1).

    The sums are outer[i] + inner[j] over sorted arrays (with ``pairs``, i <= j
    only); e_0 is the least sum and e_m the largest plus one.  Each inner edge
    is bisected on a float image of the count of ordered sums below a value
    (sum_i searchsorted(inner, v - outer[i])), until its bracket holds an eighth
    of a band.  The edges only size the bands: rounding moves how many sums a
    band holds, never which band a sum is in.
    """
    first = int(outer[0]) + int(inner[0])
    last = int(outer[-1]) + int(inner[-1]) + 1
    total = outer.size * inner.size
    band = _BAND_ENTRIES << pairs  # ordered sums per band: a pair i < j is two of them
    targets = np.arange(band, total, band)  # ordered sums below each inner edge
    # the count is symmetric in the two sides: take the shorter one as needles
    needles, haystack = sorted((outer.astype(float), inner.astype(float)), key=len)
    edges = [first]
    rows = max(1, band // needles.size)  # edges bisected at once: a band of needles
    for s in range(0, targets.size, rows):
        t = targets[s : s + rows]
        lo, hi = np.full(t.size, float(first)), np.full(t.size, float(last))
        n_lo, n_hi = np.zeros(t.size, np.int64), np.full(t.size, total)
        for _ in range(64):
            if (n_hi - n_lo <= band // 8).all():
                break
            mid = 0.5 * (lo + hi)
            n = np.searchsorted(haystack, mid[:, None] - needles).sum(axis=1)
            up = n <= t
            lo, n_lo = np.where(up, mid, lo), np.where(up, n, n_lo)
            hi, n_hi = np.where(up, hi, mid), np.where(up, n_hi, n)
        for e in map(math.ceil, hi.tolist()):
            if edges[-1] < e < last:
                edges.append(e)
    return edges + [last]


def _slices(lo: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The indices of the slices [lo[i], lo[i] + n[i]) end to end, and where each slice starts."""
    start = np.cumsum(n) - n
    j = np.repeat(lo - start, n)
    j += np.arange(j.size)
    return j, start


def _narrow(span: int) -> np.dtype:
    """The narrowest exact dtype for the integers 0 <= v < span: uint32, uint64, else object."""
    if span <= 2**32:
        return np.dtype(np.uint32)
    if span <= 2**64:
        return np.dtype(np.uint64)
    return np.dtype(object)


def _wrap(values: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """values modulo 2^bits of an unsigned ``dtype`` (the identity for object).

    An int64 cast to uint32/uint64 truncates modulo 2^bits; Python ints
    (object dtype) are reduced with ``%`` first.
    """
    if dtype == object:
        return values.astype(object)
    if values.dtype == object:
        values = values % 2 ** (8 * dtype.itemsize)
    return values.astype(dtype)


def _bands(
    outer: np.ndarray, inner: np.ndarray, tags: np.ndarray | int = 0, bits: int = 0, pairs: bool = False
):
    """Yield (a, b, keys) for each band [a, b) of the sums outer[i] + inner[j].

    keys holds ((sum - a) << bits) | tags[j] (tags below 2^bits, or one int for
    all j) in ``_narrow((b - a) << bits)``, i by i, unsorted; outer and inner are
    sorted.  With ``pairs`` (outer is inner) only j >= i is taken, tagged 1 for
    j > i.  Two searchsorted calls give every i its slice of inner, and
    ``_slices`` gathers the slices with no loop over i.  A key is
    ((inner[j] - inner[0]) << bits | tags[j]) + ((outer[i] + inner[0] - a) << bits),
    both terms wrapped modulo 2^width: the true key lies below (b - a) << bits,
    so the wrapped sum is exact.  Every sum lies in exactly one band, and equal
    sums in the same one.  The edges are Python ints: if either side holds
    Python ints (object dtype), both are made to.
    """
    if object in (outer.dtype, inner.dtype):
        outer, inner = outer.astype(object), inner.astype(object)
    if pairs:
        tags, bits = 1, 1
    edges = _band_edges(outer, inner, pairs)
    rel, base, diag = {}, inner - inner[0], np.arange(outer.size)  # rel: tagged base, once per dtype
    for a, b in zip(edges[:-1], edges[1:]):
        dtype = _narrow((b - a) << bits)
        if dtype not in rel:
            rel[dtype] = _wrap(base, dtype) << bits | _wrap(np.asarray(tags), dtype)
        lo = np.searchsorted(inner, a - outer)
        hi = np.searchsorted(inner, b - outer)
        if pairs:
            lo, hi = np.maximum(lo, diag), np.maximum(hi, diag)
        n = hi - lo
        j, start = _slices(lo, n)
        keys = rel[dtype][j]
        del j  # dead: not held across the yield while the caller sorts the keys
        keys += np.repeat(_wrap(outer + (inner[0] - a), dtype) << bits, n)
        if pairs:
            keys[start[(lo == diag) & (n > 0)]] -= 1  # j = i opens its slice: weight 1
        yield a, b, keys


def _square_sum(alone: int, bits: int, bands) -> int:
    """Sum over values v of c(v)^2, c(v) the total weight of v's entries.

    Each band yields keys ((v - a) << bits) | (w - 1), and ``alone``, the sum
    of w^2 over every entry, is in closed form.  The rest, c(v)^2 less its
    entries' w^2, comes from runs of two or more keys with equal value bits
    only, and only those are read beyond one comparison per entry.
    """
    total, low = alone, (1 << bits) - 1
    for _, _, keys in bands:
        keys.sort()
        same = np.flatnonzero((keys[1:] ^ keys[:-1]) <= low)  # entry i + 1 has entry i's value
        if same.size:
            at = np.sort(np.concatenate((same, same + 1)))  # each entry at most twice
            run = keys[at[_runs(at)[0]]]
            w = (run & low).astype(np.int64) + 1
            c = np.add.reduceat(w, _runs(run >> bits)[0])
            total += int(c @ c) - int(w @ w)
    return total


def _literal_square_sum(values: np.ndarray) -> int:
    """Solutions of a = b over the multiset, by comparing every entry with every entry."""
    return sum(int((values == s).sum()) for s in values.tolist())


def count_hua4(k: int, Q: float, method: str = "meet_in_middle") -> CountReport:
    """Solutions of y1^k + y2^k = y3^k + y4^k with all y in (Q, 2Q]."""
    if not 1 <= Q < math.inf:
        raise ValueError(f"Q must be finite and >= 1, got {Q}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    n = dyadic_size(Q)
    if method == "meet_in_middle":
        if n**2 > PAIR_BUDGET:
            raise BudgetExceeded(f"pair table would hold {n**2} entries, over the {PAIR_BUDGET} budget")
    elif method == "exhaustive":
        if n**4 > 4 * 10**8:
            raise BudgetExceeded(f"exhaustive scan of {n**4} tuples refused, over the 4*10^8 budget")
    else:
        raise ValueError(f"unknown method {method!r}")
    t0 = time.perf_counter()
    ys = dyadic_range(Q)
    pk = _powers(ys, k)
    if method == "meet_in_middle":
        # the pairs i <= j: n of weight 1 (i = j) and C(n, 2) of weight 2
        count = _square_sum(n + 4 * math.comb(n, 2), 1, _bands(pk, pk, pairs=True))
    else:
        count = _literal_square_sum((pk[:, None] + pk[None, :]).ravel())
    return CountReport(
        "fourth-moment pair count",
        {"k": k, "Q": Q, "range": (int(math.floor(Q)) + 1, int(math.floor(2 * Q)))},
        count,
        time.perf_counter() - t0,
        method,
    )


@dataclass(frozen=True)
class MixedCount:
    S: CountReport
    S1: CountReport
    S2: CountReport
    Q: float
    max_h: int  # largest |x2 - x1| over found off-diagonal solutions
    h_limit: float  # 2^k sqrt(P)


def count_mixed_S(k: int, P: float) -> MixedCount:
    """Solutions of x1^3 + y1^k + y2^k = x2^3 + y3^k + y4^k on dyadic boxes.

    x in (P, 2P], y in (Q, 2Q] with Q = P^(5/2k).  The diagonal part S1
    (x1 = x2) is computed two ways, from the per-(value, x) multiplicities and
    as P' * hua4, which must agree exactly; S2 = S - S1.  Every off-diagonal
    solution must satisfy |x2 - x1| < 2^k sqrt(P).
    """
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    if not 2 <= P < math.inf:
        raise ValueError(f"P must be finite and >= 2, got {P}")
    Q = P ** (5.0 / (2 * k))
    n_x, n_y = dyadic_size(P), dyadic_size(Q)
    n_pairs = n_x * n_y**2
    if n_pairs > PAIR_BUDGET:
        raise BudgetExceeded(
            f"{n_x} x-values times {n_y}^2 y-pairs = {n_pairs} entries exceeds the {PAIR_BUDGET} budget"
        )
    t0 = time.perf_counter()
    xs, ys = dyadic_range(P), dyadic_range(Q)
    hua = count_hua4(k, Q)

    pk = _powers(ys, k)
    pair_sums = np.sort((pk[:, None] + pk[None, :]).ravel())
    bx = (xs.size - 1).bit_length()  # the x index fills a key's low bits
    S_total = S1_direct = max_h = 0
    for _, _, keys in _bands(pair_sums, _powers(xs, 3), np.arange(xs.size), bx):
        keys.sort()  # by value, then by x
        starts, c = _runs(keys >> bx)
        S_total += int(c @ c)
        # the xs are consecutive: a value run's key spread is its largest shift
        max_h = max(max_h, int(np.max(keys[starts + c - 1] - keys[starts], initial=0)))
        # S1 directly: per (value, x) multiplicities c, S1 = sum c^2
        _, c1 = _runs(keys)
        S1_direct += int(c1 @ c1)

    h_limit = 2.0**k * math.sqrt(P)
    if max_h >= h_limit:
        raise VerificationError(f"off-diagonal shift {max_h} >= 2^k sqrt(P) = {h_limit}")

    wall = time.perf_counter() - t0
    P_count = int(xs.size)
    S1_val = P_count * hua.count
    if S1_direct != S1_val:
        raise VerificationError(
            f"diagonal identity failed: direct {S1_direct} != P' * hua4 {S1_val}"
        )
    common = {"k": k, "P": P, "Q": Q, "P_count": P_count, "Q_count": int(ys.size)}
    return MixedCount(
        S=CountReport("mixed cube/k-power count S", common, S_total, wall, "meet_in_middle"),
        S1=CountReport("diagonal part S1 = P' * hua4", common, S1_val, wall, "meet_in_middle"),
        S2=CountReport("off-diagonal part S2", common, S_total - S1_val, wall, "meet_in_middle"),
        Q=Q,
        max_h=max_h,
        h_limit=h_limit,
    )


def count_mixed_S_exhaustive(k: int, P: float) -> int:
    """Literal comparison count of the mixed equation (oracle for small P)."""
    Q = P ** (5.0 / (2 * k))
    if dyadic_size(P) * dyadic_size(Q) ** 2 > 10**4:
        raise BudgetExceeded("exhaustive mixed count refused, over the 10^4-entry budget")
    xs, ys = dyadic_range(P), dyadic_range(Q)
    pk = _powers(ys, k)
    x3 = _powers(xs, 3)
    return _literal_square_sum((x3[:, None, None] + pk[None, :, None] + pk[None, None, :]).ravel())


def count_admissible_triple(k: int, N: float, method: str = "meet_in_middle") -> CountReport:
    """Solutions of x1^3 + z1^3 + y1^k = x2^3 + z2^3 + y2^k on the triple boxes.

    x in (N^(1/3), 2N^(1/3)], z in (N^(5/18), 2N^(5/18)], y in (N^(5/6k), 2N^(5/6k)].
    """
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    if not 2 <= N < math.inf:
        raise ValueError(f"N must be finite and >= 2, got {N}")
    X, Z, Y = N ** (1.0 / 3), N ** (5.0 / 18), N ** (5.0 / (6 * k))
    side = dyadic_size(X) * dyadic_size(Z) * dyadic_size(Y)
    if side > PAIR_BUDGET:
        raise BudgetExceeded(f"side multiset of {side} entries exceeds the {PAIR_BUDGET} budget")
    t0 = time.perf_counter()
    xs, zs, ys = dyadic_range(X), dyadic_range(Z), dyadic_range(Y)
    x3 = _powers(xs, 3)
    zy = np.sort((_powers(zs, 3)[:, None] + _powers(ys, k)[None, :]).ravel())
    if method == "meet_in_middle":
        # each distinct z^3 + y^k once, its multiplicity m as the weight
        starts, m = _runs(zy)
        bits = int(m.max() - 1).bit_length()
        count = _square_sum(x3.size * int(m @ m), bits, _bands(x3, zy[starts], m - 1, bits))
    elif method == "exhaustive":
        if side**2 > 4 * 10**8:
            raise BudgetExceeded(f"exhaustive triple scan of {side**2} pairs refused, over the 4*10^8 budget")
        count = _literal_square_sum((x3[:, None] + zy[None, :]).ravel())
    else:
        raise ValueError(f"unknown method {method!r}")
    return CountReport(
        "admissible-triple count",
        {"k": k, "N": N, "x_count": int(xs.size), "z_count": int(zs.size), "y_count": int(ys.size)},
        count,
        time.perf_counter() - t0,
        method,
    )


def fit_scaling(counts: list[CountReport], size_key: str) -> ScalingFit:
    """Least-squares slope of log(count) against log(parameters[size_key])."""
    if len(counts) < 4:
        raise ValueError(f"need >= 4 points for a scaling fit, got {len(counts)}")
    pts = []
    for rep in counts:
        size = rep.parameters[size_key]
        if size <= 0 or rep.count <= 0:
            raise ValueError("scaling fit needs positive sizes and counts")
        pts.append((math.log(float(size)), math.log(float(rep.count))))
    xs, ys = np.array(pts).T
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = np.abs(ys - (slope * xs + intercept)).max()
    return ScalingFit(tuple(pts), float(slope), float(intercept), float(resid))


def _iroot(n: int, j: int) -> int:
    """The largest integer whose j-th power is <= n, for n >= 0."""
    root = round(n ** (1.0 / j))
    while root**j > n:
        root -= 1
    while (root + 1) ** j <= n:
        root += 1
    return root


def _omega_table(limit: int) -> np.ndarray:
    """Omega(x) (prime factors with multiplicity) for 0..limit by sieve."""
    om = np.zeros(limit + 1, dtype=np.int64)
    for p in primes_up_to(max(2, limit)):
        step = p
        while step <= limit:
            om[step::step] += 1
            step *= p
    return om


def count_representations(n: int, k: int, r: int, dyadic: bool = False) -> CountReport:
    """Representations n = x^2 + p1^2 + p2^3 + p3^3 + p4^3 + p5^k, Omega(x) <= r.

    The p_i are primes; x >= 1 is an almost-prime with at most r prime
    factors counted with multiplicity (x = 1 qualifies, having none).  By
    default every variable takes every size; with ``dyadic``, each is confined
    to its dyadic box (X, 2X] from ``singint.boxes(n, k)``: X2 for x and p1,
    X3 for p2 and p3, X3* for p4 and Xk* for p5.  The join runs over bands of
    ``_BAND_ENTRIES`` target values, so its memory does not grow with n.
    """
    if n % 2 != 0:
        raise ValueError(f"the representation target must be even, got n={n}")
    if n < 6:
        raise ValueError(f"n too small, got {n}")
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    if n > 10**8:
        raise BudgetExceeded(f"representation counting capped at n = 10**8, got {n}")
    t0 = time.perf_counter()
    # the box (lo, hi] of x and p1, of p2 and p3, of p4 and of p5
    box_set = [(X, 2 * X) for X in boxes(n, k)] if dyadic else [(0, n)] * 4
    root = math.isqrt(n)
    primes = np.array(primes_up_to(root), dtype=np.int64)  # n >= 6, so root >= 2

    def candidates(box: tuple[float, float], j: int, values: np.ndarray = primes) -> np.ndarray:
        """The ``values`` in the box (lo, hi] whose j-th power is <= n."""
        top = min(math.floor(box[1]), _iroot(n, j))
        return values[(values > box[0]) & (values <= top)]

    xs = candidates(box_set[0], 2, np.flatnonzero(_omega_table(root) <= r))
    p1s, cube_a, cube_b, k_ps = (candidates(b, j) for b, j in zip(box_set, (2, 3, 3, k)))
    count = 0
    if min(xs.size, p1s.size, cube_a.size, cube_b.size, k_ps.size) > 0:
        outer, inner = sorted((xs * xs, p1s * p1s), key=len)  # the left sums, shorter side outer
        a3 = cube_a**3
        i, j = np.triu_indices(a3.size)  # p2 <= p3: (p3, p2) repeats the sum of (p2, p3)
        # each sum w = p2^3 + p3^3 + p4^3 as the key 2w + 1 where p2 < p3 (weight 2), else 2w (weight 1)
        trip = np.add.outer(2 * (a3[i] + a3[j]) + (i < j), 2 * cube_b**3).ravel()
        trip.sort()
        starts, mult = _runs(trip)  # one run per key
        trip = trip[starts]
        mult <<= trip & 1
        trip >>= 1
        starts, _ = _runs(trip)  # a sum w's two keys fold into one weight
        mult = np.add.reduceat(mult, starts)
        trip, rests = trip[starts], n - k_ps**k  # distinct cube sums w; the targets are rest - w
        first = int(outer[0] + inner[0])  # the least left sum: every slice of inner starts at 0
        left, right = np.zeros_like(outer), np.searchsorted(trip, rests - first, "right")
        for lo in range(first, int(rests[0] - trip[0]) + 1, _BAND_ENTRIES):  # to the largest target
            left_end = np.searchsorted(inner, lo + _BAND_ENTRIES - outer)
            right_end = np.searchsorted(trip, rests - lo - _BAND_ENTRIES, "right")
            j, _ = _slices(left, left_end - left)
            c = np.bincount(inner[j] + np.repeat(outer - lo, left_end - left), minlength=_BAND_ENTRIES)
            m, _ = _slices(right_end, right - right_end)
            count += int(c[np.repeat(rests - lo, right - right_end) - trip[m]] @ mult[m])
            left, right = left_end, right_end  # a slice ends where it starts in the next band
    return CountReport(
        "representation count for the mixed form",
        {"n": n, "k": k, "r": r, "mode": "dyadic" if dyadic else "free"},
        count,
        time.perf_counter() - t0,
        "meet_in_middle",
    )
