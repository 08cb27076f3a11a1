"""Independent brute-force oracles used to validate the fast paths.

Nothing here shares code with the package's counting kernels: congruence
counts come from explicit tuple enumeration or from cyclic convolution of
residue histograms, quadrature values from Gauss-Legendre panels, Diophantine
counts from literal comparisons or from one sort of every unfolded entry.
The direct sums, characters and E_p by sums at the end are the exceptions:
they read the package's power table and its tables of roots of unity and
primitive roots, which its fast paths share.  The last section holds the package's former entry
points that only the tests call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from wgkit import arith, expsums, reference
from wgkit.arith import is_prime
from wgkit.buchstab import _converged, constants_table, upper_limit
from wgkit.errors import VerificationError
from wgkit.expsums import _char_rows, _check_jq, _power_table
from wgkit.localdensity import class_counts_many
from wgkit.reference import check_k
from wgkit.singular import EulerFactor, _check_nk, _euler_factor


def brute_density_loops(p: int, k: int) -> tuple[list[int], list[int], list[int]]:
    """(K, L, L*) for all residues by literal 6-deep loops; p <= 7 only."""
    assert p <= 7
    units = [x for x in range(1, p + 1) if math.gcd(x, p) == 1]
    allx = list(range(1, p + 1))
    K = [0] * p
    L = [0] * p
    Ls = [0] * p
    for u1 in units:
        for u2 in units:
            for u3 in units:
                for u4 in units:
                    s = (u1**3 + u2**3 + u3**3 + u4**k) % p
                    for x in units:
                        K[(s + x * x) % p] += 1
                    for x2 in units:
                        base = (s + x2 * x2) % p
                        for x1 in units:
                            Ls[(base + x1 * x1) % p] += 1
                        for x1 in allx:
                            L[(base + x1 * x1) % p] += 1
    return K, L, Ls


def brute_density_vectorized(p: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(K, L, L*) by exhaustive enumeration of all u-tuples (the (u1,u2,u3)
    cube sums materialized as a (p-1)^3 array, one u4 at a time) combined
    with explicit loops over the square variables.

    No convolution is used; feasible through p = 43.
    """
    units = np.array([x for x in range(1, p + 1) if math.gcd(x, p) == 1], dtype=np.int64)
    allx = np.arange(1, p + 1, dtype=np.int64)
    c3 = np.array([pow(int(x), 3, p) for x in units], dtype=np.int64)
    ck = [pow(int(x), k, p) for x in units]
    cubes = (c3[:, None, None] + c3[None, :, None] + c3[None, None, :]).ravel()
    hist_u = np.zeros(p, dtype=np.int64)  # exhaustive over (u1,u2,u3,u4)
    for v in ck:
        hist_u += np.bincount((cubes + v) % p, minlength=p)
    K = np.zeros(p, dtype=np.int64)
    L = np.zeros(p, dtype=np.int64)
    Ls = np.zeros(p, dtype=np.int64)
    for x in units.tolist():
        shift = x * x % p
        K += np.roll(hist_u, shift)
    for x2 in units.tolist():
        s2 = x2 * x2 % p
        for x1 in units.tolist():
            Ls += np.roll(hist_u, (s2 + x1 * x1) % p)
        for x1 in allx.tolist():
            L += np.roll(hist_u, (s2 + x1 * x1) % p)
    return K, L, Ls


def convolution_counts(p: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(K, L, L*) for all residues by cyclic convolution of the power
    histograms: T = h3u * h3u * h3u * hku, K = h2u * T, L* = h2u * K, L = h2 * K.

    O(p^2) and exact for every p: the counts are Python integers, convolved in
    float64 one limb of ``52 - p.bit_length()`` bits at a time, so every
    partial sum is an integer below (mass of a histogram, at most p) * 2^bits
    <= 2^52 and is held exactly.
    """
    bits = 52 - p.bit_length()

    def hist(j: int, units: bool) -> np.ndarray:
        xs = range(1, p) if units else range(p)
        return np.bincount([pow(x, j, p) for x in xs], minlength=p).astype(np.int64)

    def cyclic(a: np.ndarray, b: np.ndarray) -> np.ndarray:  # a histogram, b counts
        out, b, shift = np.zeros(p, dtype=object), b.astype(object), 0
        while b.any():
            full = np.convolve(a, (b & (2**bits - 1)).astype(np.float64))
            limb = full[:p].copy()
            limb[: p - 1] += full[p:]
            out += limb.astype(np.int64).astype(object) << shift
            b, shift = b >> bits, shift + bits
        return out

    h2u, h3u = hist(2, True), hist(3, True)
    K = cyclic(h2u, cyclic(hist(k, True), cyclic(h3u, cyclic(h3u, h3u))))
    return K, cyclic(hist(2, False), K), cyclic(h2u, K)


def cyclotomic_per_prime(p: int, G: int) -> tuple[int, int, np.ndarray, np.ndarray]:
    """f = (p - 1)/G, the class nu of -1, the cyclotomic numbers A and the class map at p.

    The engine's former per-prime step, with its own search for the least
    primitive root g and a walk of g^s mod p by literal multiplication:
    x = g^s lies in C_(s mod G), column 1 + (s mod G), and
    A[a][b] = #{x in C_a : 1 + x in C_b} is one bincount over the columns.
    """
    from wgkit.arith import factorize

    qs = factorize(p - 1).primes
    g = next(c for c in itertools.count(1 if p == 2 else 2) if all(pow(c, (p - 1) // q, p) != 1 for q in qs))
    pw = np.array(list(itertools.accumulate(range(p - 2), lambda x, _: x * g % p, initial=1)), dtype=np.int64)
    cls = np.arange(p - 1) % G
    classes = np.zeros(p + 1, dtype=np.uint8)  # index p stands for 0 mod p: column 0
    classes[pw] = 1 + cls
    # 1 + x = 0 falls in column 0, which is dropped
    A = np.bincount(cls * (G + 1) + classes[pw + 1], minlength=G * (G + 1)).reshape(G, G + 1)[:, 1:]
    nu = (p - 1) // 2 % G  # -1 = g^((p-1)/2)
    return (p - 1) // G, nu, A, classes[:p]


def gauss_legendre(f, a: float, b: float, order: int = 60) -> float:
    """High-order Gauss-Legendre quadrature on one panel."""
    x, w = leggauss(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return float(half * (w * f(mid + half * x)).sum())


def nested_c4(U: float, panels: int = 40, order: int = 24) -> float:
    """c_4 as a literal two-fold nested integral, no level recursion.

    int_3^U dt/t int_2^{t-1} log(s-1)/s ds with per-panel Gauss-Legendre,
    vectorized over the outer nodes t.
    """
    x, w = leggauss(order)

    def panel_rule(lo, hi):
        # nodes and weights of `panels` equal panels on [lo, hi], broadcast over lo, hi
        frac = np.arange(panels + 1) / panels
        edges = lo[..., None] + (hi - lo)[..., None] * frac
        mid = 0.5 * (edges[..., 1:] + edges[..., :-1])
        half = 0.5 * (edges[..., 1:] - edges[..., :-1])
        nodes = mid[..., None] + half[..., None] * x
        weights = half[..., None] * w
        return nodes.reshape(*lo.shape, -1), weights.reshape(*lo.shape, -1)

    t, wt = panel_rule(np.array(3.0), np.array(float(U)))
    s, ws = panel_rule(np.full_like(t, 2.0), t - 1.0)
    inner = (ws * np.log(s - 1.0) / s).sum(axis=-1)
    return float((wt * inner / t).sum())


def independent_level_cascade(k: int, r_top: int, M: int = 3000) -> dict[int, float]:
    """c_r values by a scheme sharing nothing with the package implementation.

    Each level lives on its own uniform (non-aligned) grid of M points, the
    cumulative integral uses 8-point Gauss-Legendre per segment, and the level
    carry goes through a cubic spline.  Used to confirm the converged values
    at the deep-tail entries where the reference table disagrees.
    """
    from scipy.interpolate import CubicSpline

    U = (37.0 * k - 15.0) / (15.0 - k)
    glx, glw = leggauss(8)
    out: dict[int, float] = {}
    prev_spline = None
    for m in range(2, r_top):
        if U - m <= 0:
            out[m + 1] = 0.0
            continue
        us = np.linspace(m, U, M)
        if m == 2:
            phi = lambda t: np.log(t - 1.0) / t
        else:
            sp = prev_spline
            phi = lambda t: sp(t - 1.0) / t
        a, b = us[:-1], us[1:]
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        seg = np.zeros(M - 1)
        for x, w in zip(glx, glw):
            seg += w * phi(mid + half * x)
        seg *= half
        g = np.concatenate([[0.0], np.cumsum(seg)])
        out[m + 1] = float(g[-1])
        prev_spline = CubicSpline(us, g, bc_type="natural")
    return out


def char_sums_matrix(p: int, j: int) -> np.ndarray:
    """Every character sum mod an odd prime p, one FFT row per numerator.

    Entry [t, a-1] is G(chi_t, j, -a) = sum_s e(t s/(p-1)) e(-a g^(j s)/p),
    g the least primitive root: the full (p-1) x (p-1) table whose
    magnitudes the index-class rows must reproduce (a -> -a only permutes
    its columns).
    """
    g = primitive_root(p)
    roots = np.exp(2j * np.pi * np.arange(p) / p)
    pw = np.array([pow(g, j * s, p) for s in range(p - 1)], dtype=np.int64)
    v = roots[np.multiply.outer(np.arange(1, p, dtype=np.int64), pw) % p]
    return np.conj(np.fft.fft(v, axis=1)).T


def _spectra_per_modulus(js: tuple[int, ...], q: int, units_only: bool) -> np.ndarray:
    """Row i: the conjugate DFT of the histogram of m^js[i] mod q over m = 1..q
    (units only if asked), from a power table and a bincount of its own."""
    m = np.arange(1, q + 1, dtype=np.int64)
    acc = np.ones(q, dtype=np.int64)
    table = np.empty((len(js), q), dtype=np.int64)
    e = 0
    for i, j in enumerate(js):
        for _ in range(j - e):
            acc = acc * m % q
        e = j
        table[i] = acc
    if units_only:
        table = table[:, np.gcd(m, q) == 1]
    table += q * np.arange(len(js), dtype=np.int64)[:, None]
    hists = np.bincount(table.ravel(), minlength=len(js) * q).reshape(len(js), q)
    return np.conjugate(np.fft.fft(hists.astype(np.float64)))


@lru_cache(maxsize=512)
def _roots(q: int) -> np.ndarray:
    """e(v/q) for v = 0..q-1 (read-only)."""
    table = np.exp(2j * np.pi * np.arange(q) / q)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=256)
def dlog(p: int) -> np.ndarray:
    """dlog[g^s mod p] = s for s = 0..p-2, g the least primitive root; dlog[0] = 0 (read-only)."""
    table = np.zeros(p, dtype=np.int64)
    table[arith._generator_powers(p)] = np.arange(p - 1)
    table.setflags(write=False)
    return table


def _char_class_sums_one_exponent(p: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """(a, G): one least unit a per class of ind a mod gcd(j, p-1), found by an
    argmax over the discrete logs, and one FFT per class row of the character
    sums G(chi_t, j, a), t = 0..p-2."""
    d = math.gcd(j, p - 1)
    reps = 1 + np.argmax(dlog(p)[1:] % d == np.arange(d)[:, None], axis=1)
    pw = arith._generator_powers(p)[j * np.arange(p - 1) % (p - 1)]
    v = _roots(p)[np.multiply.outer(reps, pw) % p]
    return reps, np.fft.fft(v, axis=1)[:, -np.arange(p - 1) % (p - 1)]


def verify_bounds_per_modulus(j_max: int, q_max: int, pp_max: int, twisted_q_max: int = 0):
    """The classical exponential-sum sweep, one modulus and one exponent at a time.

    The sweep's former loop: per modulus q its own power table, histogram
    and FFT for every exponent, and at a prime q a second table, histogram
    and FFT for the unit sums; per (p, j) one character-sum FFT; and the
    twisted pairs from spectra of their own.  Returns the same ``BoundReport``.
    """
    from wgkit.arith import primes_up_to
    from wgkit.expsums import CHAR_P_MAX, MAG_TOL, BoundReport, vanishing_exponent

    js = tuple(range(2, j_max + 1))
    rep = BoundReport(j_max=j_max, q_max=q_max, pp_max=pp_max)
    primes = set(primes_up_to(q_max))
    worst = np.zeros(len(js))
    worst_q = np.ones(len(js), dtype=np.int64)
    worst_a = np.ones(len(js), dtype=np.int64)
    found = []
    for q in range(1, q_max + 1):
        units = np.nonzero(np.gcd(np.arange(q), q) == 1)[0]
        mags = np.abs(_spectra_per_modulus(js, q, False)[:, units])
        ratios = mags / np.array([q ** (1 - 1 / j) for j in js])[:, None]
        i = ratios.argmax(axis=1)
        best = ratios.max(axis=1)
        better = best > worst
        worst[better] = best[better]
        worst_q[better] = q
        worst_a[better] = units[i[better]]
        if q in primes:
            tol = MAG_TOL * q
            bound = np.array([(math.gcd(j, q - 1) - 1) * math.sqrt(q) for j in js])[:, None]
            slack_p = bound - mags
            slack_u = bound + 1 - np.abs(_spectra_per_modulus(js, q, True)[:, units])
            rep.prime_slack = min(rep.prime_slack, float(slack_p.min()))
            rep.unit_slack = min(rep.unit_slack, float(slack_u.min()))
            for name, slack in (("complete_prime_bound", slack_p), ("unit_prime_bound", slack_u)):
                for r in np.nonzero((slack < -tol).any(axis=1))[0]:
                    found.append((name, js[r], q, int(units[np.argmin(slack[r])])))
    for r, j in enumerate(js):
        rep.complete_ratio[j] = (float(worst[r]), int(worst_q[r]), int(worst_a[r]))
    rep.violations.extend(sorted(found, key=lambda v: v[1]))

    found = []
    for p in primes_up_to(int(math.isqrt(pp_max)) + 1):
        gammas = [vanishing_exponent(p, j) for j in js]
        q, ell = p * p, 2
        while q <= pp_max:
            level_js = tuple(j for j, gamma in zip(js, gammas) if gamma <= ell)
            if level_js:
                units = np.gcd(np.arange(q), q) == 1
                peaks = np.abs(_spectra_per_modulus(level_js, q, True)[:, units]).max(axis=1)
                rep.vanishing_max = max(rep.vanishing_max, float(peaks.max()))
                for j, m in zip(level_js, peaks.tolist()):
                    if m > MAG_TOL * q:
                        found.append(("unit_sum_vanishing", j, q, m))
            q *= p
            ell += 1
    rep.violations.extend(sorted(found, key=lambda v: v[1]))

    char_primes = primes_up_to(min(CHAR_P_MAX, q_max))[1:]
    for j in js:
        worst_char = (0.0, 3, 1)
        for p in char_primes:
            reps, sums = _char_class_sums_one_exponent(p, j)
            mags = np.abs(sums)
            peak = mags.max()
            ratio = float(peak / math.sqrt(p))
            if ratio > worst_char[0]:
                worst_char = (ratio, p, int(reps[np.argmax(mags) // (p - 1)]))
            if peak > (j + 1) * math.sqrt(p) + MAG_TOL * p:
                rep.violations.append(("weil_char_bound", j, p, float(peak)))
        rep.char_ratio[j] = worst_char

    for j in js if twisted_q_max else ():
        for q1 in range(2, twisted_q_max + 1):
            for q2 in range(q1 + 1, twisted_q_max + 1):
                if math.gcd(q1, q2) != 1:
                    continue
                q = q1 * q2
                s1, s2, lhs = (_spectra_per_modulus((j,), m, False)[0] for m in (q1, q2, q))
                a = np.arange(q)
                rhs = s1[a * pow(q2, j - 1, q1) % q1] * s2[a * pow(q1, j - 1, q2) % q2]
                gap = float(np.abs(lhs - rhs).max())
                rep.twisted_gap_max = max(rep.twisted_gap_max, gap)
                if gap > MAG_TOL * q:
                    rep.violations.append(("twisted_multiplicativity", j, q1, q2, gap))
    return rep


def hua4_literal(k: int, Q: float) -> int:
    """Literal 4-loop count of y1^k + y2^k = y3^k + y4^k on (Q, 2Q]."""
    ys = [y for y in range(1, 10**7) if Q < y <= 2 * Q]
    assert len(ys) <= 25
    count = 0
    for a in ys:
        for b in ys:
            for c in ys:
                for d in ys:
                    if a**k + b**k == c**k + d**k:
                        count += 1
    return count


def mixed_literal(k: int, P: float) -> tuple[int, int]:
    """Literal count S of x1^3 + y1^k + y2^k = x2^3 + y3^k + y4^k on the mixed
    boxes, and the largest |x2 - x1| over its solutions, comparing every
    (x, y1, y2) with every other; the values must fit int64."""
    Q = P ** (5.0 / (2 * k))
    xs = range(math.floor(P) + 1, math.floor(2 * P) + 1)
    ys = range(math.floor(Q) + 1, math.floor(2 * Q) + 1)
    rows = [(x**3 + a**k + b**k, x) for x in xs for a in ys for b in ys]
    vals = np.array([v for v, _ in rows], dtype=np.int64)
    x_of = np.array([x for _, x in rows], dtype=np.int64)
    S, max_h = 0, 0
    for v, x in rows:
        same = vals == v
        S += int(same.sum())
        max_h = max(max_h, int(np.abs(x_of[same] - x).max()))
    return S, max_h


def _box(X: float) -> range:
    return range(math.floor(X) + 1, math.floor(2 * X) + 1)


def _exact_powers(values, j: int) -> np.ndarray:
    """v**j for each v: int64 when every entry is below 2^61, so sums of two
    or three stay exact, else Python ints (object dtype)."""
    out = [int(v) ** j for v in values]
    return np.array(out, dtype=np.int64 if max(out, default=0) < 2**61 else object)


def _run_lengths(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of each run of equal rows of lexicographically ordered keys."""
    new = np.ones(keys[0].size + 1, dtype=bool)
    new[1:-1] = np.any([key[1:] != key[:-1] for key in keys], axis=0)
    bounds = np.flatnonzero(new)
    return bounds[:-1], np.diff(bounds)


def square_sum_unfolded(values: np.ndarray) -> int:
    """Solutions of a = b over a value multiset: one sort of every entry, unbanded
    and with every repeat kept, then the sum of squared run lengths."""
    _, c = _run_lengths(np.sort(values))
    return int(c @ c)


def hua4_unfolded(k: int, Q: float) -> int:
    """The fourth-moment count over every ordered pair sum y1^k + y2^k on (Q, 2Q]."""
    pk = _exact_powers(_box(Q), k)
    return square_sum_unfolded((pk[:, None] + pk[None, :]).ravel())


def triple_unfolded(k: int, N: float) -> int:
    """The triple count over every sum x^3 + z^3 + y^k on the triple boxes, with
    z^3 + y^k kept per (z, y) even where z and y share a box (k = 3)."""
    x3 = _exact_powers(_box(N ** (1.0 / 3)), 3)
    z3 = _exact_powers(_box(N ** (5.0 / 18)), 3)
    yk = _exact_powers(_box(N ** (5.0 / (6 * k))), k)
    return square_sum_unfolded((x3[:, None, None] + z3[None, :, None] + yk[None, None, :]).ravel())


def mixed_lexsort(k: int, P: float) -> tuple[int, int, int]:
    """(S, S1, max_h) of the mixed count from one lexsort of every (value, x) entry.

    The values x^3 + y1^k + y2^k over the mixed boxes, each with its x, are
    ordered by value and then by x.  S sums the squared value-run lengths, S1
    the squared (value, x)-run lengths, and max_h is the largest x spread of a
    value run.
    """
    Q = P ** (5.0 / (2 * k))
    xs, ys = _box(P), _box(Q)
    x3, pk = _exact_powers(xs, 3), _exact_powers(ys, k)
    values = (x3[:, None] + (pk[:, None] + pk[None, :]).ravel()[None, :]).ravel()
    x_of = np.repeat(np.array(xs, dtype=np.int64), len(ys) ** 2)
    order = np.lexsort((x_of, values))
    values, x_of = values[order], x_of[order]
    starts, c = _run_lengths(values)
    _, c1 = _run_lengths(values, x_of)
    max_h = int(np.max(x_of[starts + c - 1] - x_of[starts], initial=0))
    return int(c @ c), int(c1 @ c1), max_h


def dyadic_boxes(n: int, k: int) -> tuple[float, float, float, float]:
    """The box sizes of x and p1, of p2 and p3, of p4 and of p5, written out:
    (1/2)(2n/3)^(1/j) for j = 2, 3 and (1/2)(2n/3)^(5/6j) for j = 3, k."""
    base = 2 * n / 3
    return 0.5 * base ** (1 / 2), 0.5 * base ** (1 / 3), 0.5 * base ** (5 / 18), 0.5 * base ** (5 / (6 * k))


def representations_unfolded(n: int, k: int, r: int, boxes=None) -> int:
    """Representations n = x^2 + p1^2 + p2^3 + p3^3 + p4^3 + p5^k, Omega(x) <= r,
    with every ordered cube triple kept.

    The left multiset x^2 + p1^2 is a dense bincount over 0..n; for each p5
    the table is read at n - p5^k - t for every triple sum t = p2^3 + p3^3 + p4^3
    below n - p5^k.  ``boxes`` gives X for x and p1, for p2 and p3, for p4 and
    for p5, each variable confined to (X, 2X]; without it every variable takes
    every size.
    """
    root = math.isqrt(n)
    primes = [q for q in range(2, root + 1) if _is_prime(q)]

    def within(values, i: int, j: int) -> np.ndarray:
        lo, hi = (0, n) if boxes is None else (boxes[i], 2 * boxes[i])
        return np.array([v for v in values if lo < v <= hi and v**j <= n], dtype=np.int64)

    xs = within([x for x in range(1, root + 1) if _omega_count(x) <= r], 0, 2)
    p1s, cube_a, cube_b, k_ps = (within(primes, i, j) for i, j in enumerate((2, 3, 3, k)))
    left = ((xs * xs)[:, None] + (p1s * p1s)[None, :]).ravel()
    table = np.bincount(left[left <= n], minlength=n + 1)
    a3 = cube_a**3
    trip = np.sort((a3[:, None, None] + a3[None, :, None] + (cube_b**3)[None, None, :]).ravel())
    count = 0
    for p5 in k_ps.tolist():
        rest = n - p5**k
        count += int(table[rest - trip[trip < rest]].sum())
    return count


def _omega_count(m: int) -> int:
    """Omega(m), prime factors with multiplicity, by trial division (0 for m = 1)."""
    c, d, t = 0, 2, m
    while d * d <= t:
        while t % d == 0:
            t //= d
            c += 1
        d += 1
    return c + (1 if t > 1 else 0)


def _is_prime(m: int) -> bool:
    return m >= 2 and all(m % d for d in range(2, math.isqrt(m) + 1))


def representations_literal(n: int, k: int, r_max_omega) -> int:
    """Literal loop count of n = x^2 + p1^2 + p2^3 + p3^3 + p4^3 + p5^k.

    ``r_max_omega(x)`` decides admissibility of the almost-prime variable.
    """
    primes = [q for q in range(2, n) if _is_prime(q)]
    count = 0
    for x in range(1, math.isqrt(n) + 1):
        if not r_max_omega(_omega_count(x)):
            continue
        for p1 in primes:
            a = x * x + p1 * p1
            if a >= n:
                break
            for p2 in primes:
                if a + p2**3 >= n:
                    break
                for p3 in primes:
                    if a + p2**3 + p3**3 >= n:
                        break
                    for p4 in primes:
                        b = a + p2**3 + p3**3 + p4**3
                        if b >= n:
                            break
                        for p5 in primes:
                            s = b + p5**k
                            if s == n:
                                count += 1
                            if s >= n:
                                break
    return count


def representations_in_boxes_literal(n: int, k: int, r: int, boxes) -> int:
    """Literal count of the same form with each variable in its dyadic box (X, 2X].

    ``boxes`` gives X for x and p1, for p2 and p3, for p4 and for p5.  Every
    tuple (p2, p3, p4, p5) of primes in its box is tried in turn against every
    p1, and the rest must be x^2 with x in its box and Omega(x) <= r.
    """

    def box(X):
        return range(math.floor(X) + 1, math.floor(2 * X) + 1)

    X2, X3, X3s, Xks = boxes
    squares = np.zeros(n + 1, dtype=bool)  # squares[m]: m = x^2 with x admissible
    squares[[x * x for x in box(X2) if _omega_count(x) <= r and x * x <= n]] = True
    p1_squares = np.array([p * p for p in box(X2) if _is_prime(p)], dtype=np.int64)
    cubes = [p**3 for p in box(X3) if _is_prime(p)]
    count = 0
    for a, b, c, d in itertools.product(
        cubes, cubes, [p**3 for p in box(X3s) if _is_prime(p)], [p**k for p in box(Xks) if _is_prime(p)]
    ):
        rest = n - a - b - c - d - p1_squares
        count += int(squares[rest[rest >= 0]].sum())
    return count


def local_table_per_row(fmt: str, pmax: int, k: int) -> tuple[int, str]:
    """(exit code, stdout) of ``wgkit --format fmt local``, one row dict per residue.

    Every residue n mod p (only n = 0 at p = 2) takes its own K, L, L* from
    the counts spread over all residues, its own row check and its own dict;
    the table is then written in one piece: ``json.dumps(..., indent=2)`` with floats rounded to
    12 significant digits, or a CSV header and one ``.12g`` line per row.
    """
    import json

    from wgkit.arith import primes_up_to
    from wgkit.localdensity import ep_bound, local_densities_all

    rows, failed = [], False
    for p in primes_up_to(pmax):
        K, L, Lstar = local_densities_all(p, k)
        bound = ep_bound(p, k)
        for n in [0] if p == 2 else range(p):
            ep = p * Lstar[n] - (p - 1) ** 6
            ok = abs(ep) <= bound and L[n] > K[n] and Lstar[n] > 0 and (p < 19 or abs(ep) < (p - 1) ** 6)
            failed = failed or not ok
            rows.append({"p": p, "n_class": n, "K": K[n], "L": L[n], "Lstar": Lstar[n],
                         "E_p": float(ep), "bound": float(bound), "pass": ok})
    if fmt == "csv":
        cells = (",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in r.values()) for r in rows)
        text = "".join(line + "\n" for line in [",".join(rows[0]), *cells])
    else:
        rounded = [{key: float(f"{v:.12g}") if isinstance(v, float) else v for key, v in r.items()} for r in rows]
        payload = {"schema_version": 1, "command": "local", "k": k, "pmax": pmax, "rows": rounded}
        text = json.dumps(payload, indent=2) + "\n"
    return (1 if failed else 0), text


def round12(obj):
    """Every float of a nested payload rounded to 12 significant digits, as the JSON reports print it.

    The former whole-payload pass of the CLI's writer, which now rounds each
    flat dict or list as it lays it out.
    """
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round12(v) for v in obj]
    return obj


# The package's former reference paths, read only by the tests: direct sums
# over m, Dirichlet characters, the primitive root, and E_p by unit sums.


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


@lru_cache(maxsize=2048)
def _power_residues(j: int, q: int) -> np.ndarray:
    """m^j mod q for m = 1..q (read-only)."""
    res = _power_table((j,), np.arange(1, q + 1, dtype=np.int64), q)[0]
    res.setflags(write=False)
    return res


def complete_sum(j: int, q: int, a: int) -> ExpSumValue:
    """Direct summation of e(a m^j / q) over m = 1..q, ascending m."""
    expsums._check_jq(j, q)
    idx = (a % q) * _power_residues(j, q) % q
    total = _roots(q)[idx].sum()
    return ExpSumValue(float(total.real), float(total.imag), q, j, a % q)


def unit_sum(j: int, q: int, a: int) -> ExpSumValue:
    """Complete sum restricted to gcd(m, q) = 1."""
    expsums._check_jq(j, q)
    idx = (a % q) * _power_residues(j, q) % q
    total = _roots(q)[idx[np.gcd(np.arange(1, q + 1), q) == 1]].sum()
    return ExpSumValue(float(total.real), float(total.imag), q, j, a % q)


@dataclass(frozen=True)
class DirichletCharacter:
    """A Dirichlet character mod a prime, labeled by an index via a fixed primitive root.

    index 0 is the principal character.  ``values[m]`` holds chi(m) for
    m = 0..p-1, with chi(m) = 0 when p | m, as a read-only array.  The modulus
    and the index determine the values, so they alone make equality and hash.
    """

    modulus: int
    index: int
    values: np.ndarray = field(compare=False, repr=False)

    @property
    def is_principal(self) -> bool:
        return self.index == 0

    def __call__(self, m: int) -> complex:
        return complex(self.values[m % self.modulus])


def character(p: int, index: int) -> DirichletCharacter:
    """The character chi_index mod prime p: chi(g^s) = e(index * s / (p-1))."""
    if p == 2:
        if index != 0:
            raise ValueError("only the principal character exists mod 2")
        vals = np.array([0j, 1 + 0j])
    else:
        if not arith.is_prime(p):
            raise ValueError(f"characters are supported for prime modulus only, got {p}")
        if not (0 <= index < p - 1):
            raise ValueError(f"index must be in [0, {p - 2}], got {index}")
        vals = np.zeros(p, dtype=complex)
        vals[1:] = np.exp(2j * np.pi * index * dlog(p)[1:] / (p - 1))
    vals.setflags(write=False)
    return DirichletCharacter(p, index, vals)


def all_characters(p: int) -> list[DirichletCharacter]:
    return [character(p, t) for t in range(max(1, p - 1))]


def char_sum(chi: DirichletCharacter, j: int, a: int) -> ExpSumValue:
    """G(chi, j, a) = sum_m chi(m) e(a m^j / q); reduces to the unit sum for chi principal."""
    q = chi.modulus
    expsums._check_jq(j, q)
    # m = 1..q-1; the term m = q vanishes, as chi(q) = 0
    idx = (a % q) * _power_residues(j, q)[:-1] % q
    total = (chi.values[1:] * _roots(q)[idx]).sum()
    return ExpSumValue(float(total.real), float(total.imag), q, j, a % q)


def primitive_root(p: int) -> int:
    """Smallest generator of the multiplicative group mod an odd prime p."""
    if p == 2 or not arith.is_prime(p):
        raise ValueError(f"need an odd prime, got {p}")
    return int(arith._least_generators([p])[0])


@lru_cache(maxsize=64)
def _unit_sum_product_ld(p: int, k: int) -> np.ndarray:
    """S*2(p,a)^2 S*3(p,a)^3 S*k(p,a) for a = 0..p-1 in extended precision.

    Each unit sum is the conjugate DFT of its histogram, a long-double FFT.
    """
    spectra = np.fft.fft(expsums._power_hists_many((2, 3, k), (p,), True).astype(np.longdouble))
    s2, s3, sk = np.conjugate(spectra, out=spectra)
    prod = s2**2 * s3**3 * sk
    prod.setflags(write=False)
    return prod


def ep_via_sums(p: int, n: int, k: int) -> float:
    """E_p recomputed as sum_{a=1..p-1} S*2^2 S*3^3 S*k e(-an/p), extended precision.

    Independent floating cross-check of the count-based (exact) value; the
    extended-precision accumulation keeps the absolute error below 1e-4 on
    the tested p <= 499 (worst 1.9e-5, against 2.44e-4 at (p, n, k) =
    (499, 0, 12) with float64 FFTs).
    """
    if not arith.is_prime(p):
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


# The package's former entry points that only the tests call: one-value
# wrappers of the kernels that the package runs on whole batches (c_r, C(k),
# character sums, Euler factors), and the sieve level D.


def iterated_integral(r: int, k: int) -> float:
    """c_r(k) = g_{r-1}(U_k) to within ``ACCURACY``; 0 when r - 1 >= U_k."""
    reference.check_k(k)
    if r < 4:
        raise ValueError(f"the nested integral needs r >= 4, got {r}")
    if r - 1 >= upper_limit(k):
        return 0.0
    constants_table(k)  # refuses a k whose two series orders differ by ACCURACY or more
    values, _ = _converged()[k]
    return values[r]


def tail_sum(k: int) -> float:
    """C(k) = sum of c_r(k) over r = r(k)+1 .. floor(36k/(15-k))."""
    return constants_table(k).C_value


def char_class_sums(p: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Character sums for one numerator per class of ind a mod d = gcd(j, p-1).

    Returns ``(a, G)``: a[c] is the least unit with ind a = c mod d, and
    G[c, t] = G(chi_t, j, a[c]) for t = 0..p-2.  |G(chi_t, j, a)| is the same
    for every a in a class (module docstring), so the d rows carry every
    magnitude of the (p-1) x (p-1) table.  The one-exponent case of ``_char_rows``.
    """
    _check_jq(j, p)
    if not is_prime(p) or p == 2:
        raise ValueError(f"need an odd prime, got {p}")
    reps, sums = _char_rows(p, (j,))
    return reps, sums[:, -np.arange(p - 1) % (p - 1)]


def euler_factor(p: int, d: int, n: int, k: int) -> EulerFactor:
    """1 + A_d(p, n) from the exact local counts."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    _check_nk(n, k)
    return _euler_factor(class_counts_many((p,), k)[0], d, n)


@dataclass(frozen=True)
class Parameters:
    """The sieve level D for an even target n and power k."""

    n: int
    k: int
    D: float


def params(n: int, k: int, eps: float = 1e-4) -> Parameters:
    """The sieve level D = n^(5/8k - 1/24 - 51 eps), with range and sanity checks."""
    if n % 2 != 0:
        raise ValueError(f"n must be even, got {n}")
    if n < 10**6:
        raise ValueError(f"n must be >= 10**6, got {n}")
    check_k(k)
    if not (0 < eps <= 1e-3):
        raise ValueError(f"eps must lie in (0, 1e-3], got {eps}")
    d_exponent = 5.0 / (8 * k) - 1.0 / 24 - 51 * eps
    if d_exponent <= 0:
        raise ValueError(f"sieve level collapses: D-exponent {d_exponent} <= 0")
    D = float(n) ** d_exponent
    z = D ** (1.0 / 3.0)
    if z <= 2.0:
        raise ValueError(f"empty sieve range: z = {z} <= 2")
    return Parameters(n, k, D)
