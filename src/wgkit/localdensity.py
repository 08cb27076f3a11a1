"""Congruence solution counts for the mixed form and their error terms.

For a prime p, a power k and a target residue n the three counts are

    K(p,n)   solutions of x^2 + u1^3 + u2^3 + u3^3 + u4^k = n (mod p),
             all five variables coprime to p,
    L*(p,n)  solutions of x1^2 + x2^2 + u1^3 + u2^3 + u3^3 + u4^k = n (mod p),
             all six variables coprime to p,
    L(p,n)   the same congruence with x1 unrestricted.

All three are convolutions of four power histograms (units squared, all
squared, units cubed, units to the k-th power), and each depends on n only
through its class: n = 0, or the coset C_i = g^i H_G of n, where g is the
least primitive root, H_G the G-th powers and G = gcd(lcm(2, 3, k), p - 1).
So the counts are computed exactly in the (G + 1)-dimensional algebra of
class functions.  The histogram of unit j-th powers is d_j [i = 0 mod d_j] on
C_i, with d_j = gcd(j, p - 1), and class functions convolve through the
cyclotomic numbers A[a][b] = #{x in C_a : 1 + x in C_b} (Berndt, Evans and
Williams, Gauss and Jacobi Sums, ch. 2-3).  The chain shares the prefix
T = a3 * a3 * a3 * ak, so K = a2 * T, L* = a2 * K and L = h2 * K.  L is
convolved independently of L* + K, so the identity L = L* + K (x1 is either a
unit or the single residue 0) is a genuine check.

Every term is a non-negative count, and L(p,n) <= 2 p (p-1)^4 (the other five
variables fix x2 up to sign), so int64 arithmetic is exact for p <= 5399;
larger primes count in Python integers.

The counts depend on k only through d = gcd(k, p - 1): the unit k-th powers
mod p are the d-th powers, each hit d times, and G = lcm(gcd(6, p - 1), d).
``class_counts_many`` computes many primes at once and holds one
``ClassCounts`` per (p, d), which every k of that d at p reads: the three
counts and E_p per class, and the class of every residue mod p (p bytes), the
one residue -> class map that every caller reads.  The primes that share G and
an integer width go through two stacked stages.  The O(p) stage depends on p
and G alone, so it runs once per (p, G) and its results, the cyclotomic
numbers and the class map, are held for every d of that G.  It runs in chunks
of at most ``_CHUNK_SLOTS`` residue slots.  At G = 2 (at k = 3, p = 3 and
every p = 2 mod 3) the cosets are the squares and the non-squares: the
cyclotomic numbers are Gauss's closed forms, and per chunk one scatter of
y^2 mod p marks the squares of its class maps, with no primitive root.  At any
other G, per chunk, one walk of g^s mod p for all its primes, one scatter into
their class maps and one bincount of the cyclotomic numbers.  The class
algebra then runs once for the whole group, as stacked (G + 1)-square integer
products indexed by each prime's f and nu.

The error term E_p = p L*(p,n) - (p-1)^6 satisfies the closed form bound
(p-1)(sqrt p + 1)^2 (2 sqrt p + 1)^3 (13 sqrt p + 1), uniform over powers
k <= 14, and is cross-checked against an exponential-sum evaluation in
extended precision.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .arith import _generator_walks, _least_generators, is_prime
from .errors import BudgetExceeded, VerificationError
from .reference import K_RANGE, check_k


@dataclass(frozen=True)
class ClassCounts:
    """K, L and L* at one (p, k) as exact values per class of the target residue.

    Column 0 holds n = 0 mod p and column 1 + i holds the n in the coset
    C_i = g^i H_G (g the least primitive root), so each count has G + 1
    entries.  ``classes`` is the column of every residue n = 0..p-1, a
    read-only uint8 array (G + 1 <= 79).
    """

    p: int
    classes: np.ndarray = field(compare=False, repr=False)
    K: tuple[int, ...]
    L: tuple[int, ...]
    Lstar: tuple[int, ...]

    def at(self, n: int) -> tuple[int, int, int]:
        """(K, L, L*) at the target n."""
        c = self.classes[n % self.p]
        return self.K[c], self.L[c], self.Lstar[c]

    @property
    def E_p(self) -> tuple[int, ...]:
        """The error term E_p = p L* - (p-1)^6 per class, exact."""
        return tuple(self.p * Lstar - (self.p - 1) ** 6 for Lstar in self.Lstar)


# residue slots per chunk of ``_cyclotomic_many``: bounds its temporaries (the
# walk or the squares, their slot indices and the slot pairs, 4 or 8 bytes a
# slot) at 128 KB each, whatever the number of primes
_CHUNK_SLOTS = 2**14

# the largest prime the engine counts at, and so singular's largest truncation
# bound (its tail envelope sieves to 10 p_max)
P_MAX_BUDGET = 10**5

# class_counts_many's two stores, whose entries are never evicted: the counts,
# p -> {gcd(k, p - 1) -> ClassCounts}, and the O(p) stage's results that they
# are computed from, (p, G) -> (A, class map)
_STORE: dict[int, dict[int, ClassCounts]] = {}
_CYCLOTOMIC: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def class_counts(p: int, k: int) -> ClassCounts:
    """(K, L, L*) per class of n, exact, for any prime p <= ``P_MAX_BUDGET``."""
    return class_counts_many((p,), k)[0]


def class_counts_many(primes: Sequence[int], k: int) -> list[ClassCounts]:
    """``class_counts`` at each prime of the sequence ``primes``, in its order.

    The results are held per (p, d), d = gcd(k, p - 1), and a call computes
    only the pairs not yet held.  A prime above ``P_MAX_BUDGET`` is refused
    with ``BudgetExceeded`` before any work.  The primes of one coset count G,
    and of one integer width, share a single pass of stacked (G + 1)-square
    products, ``_class_algebra``, over what ``_cyclotomic_held`` holds for
    them: the chunked O(p) kernel ``_cyclotomic_many`` runs once per (p, G),
    whatever the d.
    """
    check_k(k)
    gcd = math.gcd
    try:
        return [_STORE[p][gcd(k, p - 1)] for p in primes]
    except KeyError:
        pass  # some pair is not held yet
    groups: dict[tuple[int, bool], list[int]] = {}
    for p in sorted({p for p in primes if gcd(k, p - 1) not in _STORE.get(p, ())}):
        if p > P_MAX_BUDGET:
            raise BudgetExceeded(f"p = {p} is over the {P_MAX_BUDGET} budget of the class-count engine")
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        G = gcd(math.lcm(2, 3, k), p - 1)
        groups.setdefault((G, 2 * p * (p - 1) ** 4 < 2**63), []).append(p)
    for (G, narrow), ps in groups.items():
        f, nu, A, classes = _cyclotomic_held(ps, G)
        dtype = np.int64 if narrow else object
        K, L, Lstar = _class_algebra(k, G, dtype, f, nu, A)
        bad = (L != Lstar + K).any(axis=1)
        if bad.any():
            raise VerificationError(f"L = L* + K fails at p={ps[bad.argmax()]}, k={k}")
        for p, cls, *v in zip(ps, classes, K.tolist(), L.tolist(), Lstar.tolist()):
            _STORE.setdefault(p, {})[gcd(k, p - 1)] = ClassCounts(p, cls, *map(tuple, v))
    return [_STORE[p][gcd(k, p - 1)] for p in primes]


def _cyclotomic_held(primes: list[int], G: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """``_cyclotomic_many(primes, G)``, its O(p) stage run only at the primes not held for G.

    Every d of one G at a prime reads the same held class map.
    """
    new = [p for p in primes if (p, G) not in _CYCLOTOMIC]
    if new:
        _, _, A, classes = _cyclotomic_many(new, G)
        _CYCLOTOMIC.update(((p, G), held) for p, held in zip(new, zip(A, classes)))
    A, classes = zip(*(_CYCLOTOMIC[p, G] for p in primes))
    ps = np.array(primes, dtype=np.int64)
    return (ps - 1) // G, (ps - 1) // 2 % G, np.stack(A), list(classes)


def _cyclotomic_many(primes: Sequence[int], G: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """f = (p - 1)/G, the class nu of -1, the cyclotomic numbers A and the class map at each prime.

    All the primes have coset count G.  At G = 2 the cosets are the squares
    and the non-squares, and A has Gauss's closed form (``_squares_many``),
    so no primitive root is searched.  At any other G the least primitive
    roots come from ``_least_generators``, and each chunk of ``_chunks``
    walks x = g^s mod p for all its rows at once; x lies in C_(s mod G),
    column 1 + (s mod G), which the row's uint8 class map records in slot x.
    Slot 0 (n = 0) and slot p (1 + x = 0 mod p) keep column 0.
    A[a][b] = #{x in C_a : 1 + x in C_b} counts the pairs of neighbouring
    slots, by one bincount per chunk offset by row; the pairs that start or
    end in column 0 are dropped.
    """
    ps = np.array(primes, dtype=np.int64)
    f, nu = (ps - 1) // G, (ps - 1) // 2 % G
    if G == 2:
        return f, nu, *_squares_many(primes, f, nu)
    gs = _least_generators(ps)
    columns = (1 + np.arange(ps.max()) % G).astype(np.uint8)
    As, classes = [], []
    for start, stop, top in _chunks(primes):
        m = stop - start
        # a shorter row's walk runs past p - 2 and repeats its cosets
        walk = _generator_walks(ps[start:stop], gs[start:stop], top - 1)
        slots = np.zeros((m, top + 1), dtype=np.uint8)
        slots.reshape(-1)[walk + np.arange(0, m * (top + 1), top + 1)[:, None]] = columns[: top - 1]
        pair = slots[:, :-1] * np.uint32(G + 1)
        pair += slots[:, 1:]
        pair += np.arange(0, m * (G + 1) ** 2, (G + 1) ** 2, dtype=np.uint32)[:, None]
        As.append(np.bincount(pair.reshape(-1), minlength=m * (G + 1) ** 2).reshape(m, G + 1, G + 1)[:, 1:, 1:])
        slots.setflags(write=False)
        classes += [row[:p] for row, p in zip(slots, primes[start:stop])]
    return f, nu, np.concatenate(As), classes


def _squares_many(primes: Sequence[int], f: np.ndarray, nu: np.ndarray) -> tuple[np.ndarray, list]:
    """The cyclotomic numbers of order 2 and the class map at each prime, with f and nu at G = 2.

    C_0 holds the squares and C_1 the non-squares.  With f even (nu = 0),
    A[0][0] = (p - 5)/4 and the other three entries are (p - 1)/4; with f odd
    (nu = 1), A[0][1] = (p + 1)/4 and the other three are (p - 3)/4 (Berndt,
    Evans and Williams, ch. 2).  Each chunk of ``_chunks`` marks column 1 at
    y^2 mod p for y = 1..(top - 1)/2, in uint32 (y < 2^16 for p <= 10^5), on
    rows filled with column 2; a shorter row's extra y marks a square again,
    or slot 0, which is reset to column 0.
    """
    A = np.repeat(f // 2, 4).reshape(-1, 2, 2)  # (p - 1)/4 at f even, (p - 3)/4 at f odd
    A[:, 0, 0] -= 1 - nu
    A[:, 0, 1] += nu
    classes = []
    for start, stop, top in _chunks(primes):
        m = stop - start
        y = np.arange(1, (top + 1) // 2, dtype=np.uint32)
        squares = y * y % np.array(primes[start:stop], dtype=np.uint32)[:, None]
        squares += np.arange(0, m * (top + 1), top + 1, dtype=np.uint32)[:, None]
        slots = np.full((m, top + 1), 2, dtype=np.uint8)
        slots.reshape(-1)[squares] = 1
        slots[:, 0] = 0
        slots.setflags(write=False)
        classes += [row[:p] for row, p in zip(slots, primes[start:stop])]
    return A, classes


def _chunks(primes: Sequence[int]):
    """(start, stop, top) per chunk: consecutive primes, m = stop - start rows of top + 1 slots.

    top is the largest prime of the chunk, and a chunk holds at most
    ``_CHUNK_SLOTS`` slots in all, or one prime, so sorted primes waste few
    slots.
    """
    start = 0
    while start < len(primes):
        stop, top = start + 1, primes[start]
        while stop < len(primes) and (stop - start + 1) * (max(top, primes[stop]) + 1) <= _CHUNK_SLOTS:
            top = max(top, primes[stop])
            stop += 1
        yield start, stop, top
        start = stop


def _class_algebra(k: int, G: int, dtype, f: np.ndarray, nu: np.ndarray, A: np.ndarray):
    """(K, L, L*), each of shape (m, G + 1), for m primes of coset count G.

    ``f``, ``nu`` and ``A`` (m x G x G) are the primes' ``_cyclotomic_many``
    values.  A class function v holds v[0] at n = 0 and v[1 + i] on C_i.
    Convolution with h, v -> sum_x v(x) h(n - x), is the matrix with rows n
    and columns x

        n in C_l, x in C_i:   h(0) [i = l] + sum_j h_j A[i - l + nu][j - l],
        n in C_l, x = 0:      h_l,
        n = 0,    x in C_i:   f h_{i + nu},
        n = 0,    x = 0:      h(0),

    whose entries are at most 14 p, so every matrix is built in int64 and
    the products run in ``dtype``.
    """
    m, r = len(f), np.arange(G)
    twist = (r - r[:, None] + nu[:, None, None]) % G  # [., l, i] = i - l + nu

    def conv_matrix(h: np.ndarray) -> np.ndarray:
        M = np.empty((m, G + 1, G + 1), dtype=np.int64)
        M[:, 0, 0] = h[0]
        M[:, 0, 1:] = f[:, None] * h[1 + (r + nu[:, None]) % G]
        M[:, 1:, 0] = h[1:]
        shifted = h[1:][(r[:, None] + r) % G] @ A.transpose(0, 2, 1)  # [., l, a] = sum_j h_{j+l} A[a][j]
        M[:, 1:, 1:] = np.take_along_axis(shifted, twist, axis=2) + h[0] * np.eye(G, dtype=np.int64)
        return M.astype(dtype)

    def unit_powers(j: int) -> np.ndarray:
        d = math.gcd(j, G)  # = gcd(j, p - 1), as j divides lcm(2, 3, k)
        return np.concatenate(([0], np.where(r % d == 0, d, 0)))

    def apply(M: np.ndarray, v: np.ndarray) -> np.ndarray:
        return (M @ v[..., None])[..., 0]

    h2 = unit_powers(2)
    h2[0] = 1  # x1 = 0
    a2, a3 = conv_matrix(unit_powers(2)), conv_matrix(unit_powers(3))
    T = apply(a3, apply(a3, apply(a3, unit_powers(k).astype(dtype))))
    K = apply(a2, T)
    return K, apply(conv_matrix(h2), K), apply(a2, K)


def local_densities_all(p: int, k: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """(K, L, L*) for every residue n mod p, exact."""
    cc = class_counts(p, k)
    cols = cc.classes.tolist()
    return tuple(tuple(v[c] for c in cols) for v in (cc.K, cc.L, cc.Lstar))


def densities_float_all(p: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(K, L, L*) for every residue as floats, each the exact count correctly rounded."""
    cc = class_counts(p, k)
    return tuple(np.array(v, dtype=float)[cc.classes] for v in (cc.K, cc.L, cc.Lstar))


def ep_bound(p: int, k: int = K_RANGE[-1]) -> float:
    """Closed-form bound on |E_p|, uniform over powers k <= 14.

    The six unit sums contribute (gcd(j, p-1) - 1) sqrt(p) + 1 each; the
    k-th-power factor is taken at its worst case gcd - 1 <= 13.
    """
    check_k(k)
    rp = math.sqrt(p)
    return (p - 1) * (rp + 1) ** 2 * (2 * rp + 1) ** 3 * (13 * rp + 1)


