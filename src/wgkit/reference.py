"""Embedded reference constants: published bounds for the c_r(k) table.

The grouped form mirrors the published list (single entries plus lumped
ranges sharing one bound); ``cr_bounds`` expands it to one bound per r.
These are comparison targets only; nothing here feeds a computation.  The
supported powers K_RANGE and their check live here too.
"""

from __future__ import annotations

# k -> ((r_lo, r_hi), bound), half of them lumped ranges.
_GROUPED_CR_BOUNDS: dict[int, tuple[tuple[tuple[int, int], float], ...]] = {
    3: (((4, 4), 0.4443636), ((5, 5), 0.0578256), ((6, 9), 0.0027627)),
    4: (((5, 5), 0.3029445), ((6, 6), 0.0459743), ((7, 13), 0.00388094)),
    5: (((6, 6), 0.1892887), ((7, 18), 0.0307123)),
    6: (
        ((6, 6), 0.4867818),
        ((7, 7), 0.1133016),
        ((8, 8), 0.01913692),
        ((9, 24), 0.00237244),
    ),
    7: (((7, 7), 0.2978111), ((8, 8), 0.0672273), ((9, 31), 0.0117295)),
    8: (((8, 8), 0.1830229), ((9, 9), 0.0407894), ((10, 41), 0.0073521)),
    9: (
        ((8, 8), 0.4323101),
        ((9, 9), 0.1169923),
        ((10, 10), 0.02614497),
        ((11, 11), 0.0048887),
        ((12, 54), 0.000772739),
    ),
    10: (
        ((9, 9), 0.3023038),
        ((10, 10), 0.0809431),
        ((11, 11), 0.0184125),
        ((12, 72), 0.003597861),
    ),
    11: (
        ((10, 10), 0.2360241),
        ((11, 11), 0.0639155),
        ((12, 12), 0.01504156),
        ((13, 99), 0.003105002),
    ),
    12: (
        ((11, 11), 0.2231261),
        ((12, 12), 0.06262236),
        ((13, 13), 0.01555779),
        ((14, 14), 0.00344782),
        ((15, 144), 0.0006868855),
    ),
    13: (
        ((12, 12), 0.2976851),
        ((13, 13), 0.0895433),
        ((14, 14), 0.0242215),
        ((15, 15), 0.005929363),
        ((16, 16), 0.0013212887),
        ((17, 234), 0.0002694412),
    ),
    14: (
        ((14, 14), 0.2926583),
        ((15, 15), 0.09172191),
        ((16, 16), 0.026363835),
        ((17, 17), 0.006978431),
        ((18, 18), 0.001783123),
        ((19, 504), 0.0002510648),
    ),
}

# Published bounds on the tail sums C(k).
C_BOUNDS: dict[int, float] = {
    3: 0.513241,
    4: 0.376086,
    5: 0.557837,
    6: 0.657181,
    7: 0.634817,
    8: 0.459081,
    9: 0.613564,
    10: 0.621131,
    11: 0.585117,
    12: 0.394051,
    13: 0.477439,
    14: 0.541523,
}

# Almost-prime order r(k): the representation uses a P_{r(k)} variable.
ALMOST_PRIME_ORDER: dict[int, int] = {
    3: 3,
    4: 4,
    5: 5,
    6: 5,
    7: 6,
    8: 7,
    9: 7,
    10: 8,
    11: 9,
    12: 10,
    13: 11,
    14: 13,
}

K_RANGE = tuple(range(3, 15))


def check_k(k: int) -> None:
    """Raise ValueError unless k is a supported power, 3 <= k <= 14."""
    if not (K_RANGE[0] <= k <= K_RANGE[-1]):
        raise ValueError(f"k must be in [{K_RANGE[0]}, {K_RANGE[-1]}], got {k}")


def cr_ranges(k: int) -> tuple[tuple[tuple[int, int], float], ...]:
    """The published ((lo, hi), bound) entries of k, each bound shared by r = lo..hi."""
    return _GROUPED_CR_BOUNDS[k]


def cr_bounds(k: int) -> dict[int, float]:
    """Published bound for each r, with lumped ranges expanded."""
    out: dict[int, float] = {}
    for (lo, hi), bound in cr_ranges(k):
        for r in range(lo, hi + 1):
            out[r] = bound
    return out
