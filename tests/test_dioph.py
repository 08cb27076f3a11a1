import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    dyadic_boxes,
    hua4_literal,
    hua4_unfolded,
    mixed_lexsort,
    mixed_literal,
    representations_in_boxes_literal,
    representations_literal,
    representations_unfolded,
    triple_unfolded,
)
from wgkit import dioph
from wgkit.dioph import (
    CountReport,
    count_admissible_triple,
    count_hua4,
    count_mixed_S,
    count_mixed_S_exhaustive,
    count_representations,
    dyadic_range,
    dyadic_size,
    fit_scaling,
)
from wgkit.errors import BudgetExceeded


def test_dyadic_range_half_open():
    assert dyadic_range(10).tolist() == list(range(11, 21))
    assert dyadic_range(1.5).tolist() == [2, 3]
    assert dyadic_range(0.4).size == 0


@given(st.floats(0, 10**5, allow_nan=False))
def test_dyadic_size_is_the_range_size(X):
    # the budget checks size a box without building it
    assert dyadic_size(X) == dyadic_range(X).size


def test_hua4_examples():
    assert count_hua4(3, 10).count == 190
    assert count_hua4(3, 10, method="exhaustive").count == 190
    assert count_hua4(2, 2).count == 6
    assert count_hua4(2, 2, method="exhaustive").count == 6
    for k in (2, 3, 7):
        assert count_hua4(k, 1).count == 1  # single value y = 2


def test_hua4_against_literal_oracle():
    for k, Q in ((3, 6), (4, 5), (2, 7)):
        assert count_hua4(k, Q).count == hua4_literal(k, Q)


def test_hua4_budget_guard():
    with pytest.raises(BudgetExceeded):
        count_hua4(3, 10**6)
    # the exhaustive oracle is refused from its box size too, before it builds the box
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            count_hua4(3, 1e12, method="exhaustive")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_mixed_count_structure():
    mc = count_mixed_S(4, 32)
    assert mc.S.count == mc.S1.count + mc.S2.count
    assert mc.S2.count >= 0
    assert mc.max_h < mc.h_limit
    assert mc.S1.count == mc.S.parameters["P_count"] * count_hua4(4, mc.Q).count


def test_mixed_count_matches_exhaustive():
    for P in (8, 16, 32):
        mc = count_mixed_S(4, P)
        assert mc.S.count == count_mixed_S_exhaustive(4, P)


def test_mixed_count_p256_shape():
    # at P = 256 the diagonal dominates: S / (P' Q'^2) sits near 2
    mc = count_mixed_S(4, 256)
    assert mc.S2.count >= 0
    ratio = mc.S.count / (mc.S.parameters["P_count"] * mc.S.parameters["Q_count"] ** 2)
    assert 1.0 <= ratio <= 4.0


def test_mixed_budget_guard():
    with pytest.raises(BudgetExceeded):
        count_mixed_S(3, 10**5)


def test_triple_count_examples():
    # every box a single element: only the forced diagonal solution
    rep = count_admissible_triple(3, 2.0)
    assert rep.count == 1
    # meet-in-middle equals exhaustive comparison at small N
    for N in (100.0, 1000.0, 5000.0):
        mim = count_admissible_triple(4, N).count
        exh = count_admissible_triple(4, N, method="exhaustive").count
        assert mim == exh


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(2, 14), st.floats(1, 25))
@example(14, 20.0)  # (2Q)^14 > 2^62: the values are Python ints
def test_hua4_join_equals_literal_count(k, Q):
    assert count_hua4(k, Q).count == count_hua4(k, Q, method="exhaustive").count


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(3, 14), st.floats(2, 24))
@example(3, 24.0)  # off-diagonal solutions with shifts up to 7
@example(6, 20.0)
def test_mixed_join_equals_literal_count(k, P):
    mc = count_mixed_S(k, P)
    S, max_h = mixed_literal(k, P)
    assert mc.S.count == count_mixed_S_exhaustive(k, P) == S
    assert mc.S1.count == mc.S.parameters["P_count"] * count_hua4(k, mc.Q, "exhaustive").count
    assert mc.max_h == max_h


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(3, 14), st.floats(2, 2e4))
def test_triple_join_equals_literal_count(k, N):
    assert count_admissible_triple(k, N).count == count_admissible_triple(k, N, "exhaustive").count


# the weighted joins against the unfolded ones, at sizes beyond the literal oracles


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(2, 14), st.floats(1, 300))
@example(14, 20.0)  # (2Q)^14 > 2^62: the values are Python ints
@example(2, 300.0)  # k = 2: many sums y_i^2 + y_j^2 collide
@example(3, 300.0)
def test_hua4_pair_join_equals_unfolded_join(k, Q):
    assert count_hua4(k, Q).count == hua4_unfolded(k, Q)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(3, 14), st.floats(2, 2e6))
@example(3, 2e6)  # z and y share a box: z^3 + y^3 folds with multiplicities up to 4
@example(4, 2e6)  # no repeats: the weight field is 0 bits wide
def test_triple_folded_join_equals_unfolded_join(k, N):
    assert count_admissible_triple(k, N).count == triple_unfolded(k, N)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(3, 14), st.floats(2, 300))
@example(3, 300.0)
@example(4, 300.0)
def test_mixed_packed_key_equals_lexsort_join(k, P):
    mc = count_mixed_S(k, P)
    assert (mc.S.count, mc.S1.count, mc.max_h) == mixed_lexsort(k, P)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(5 * 10**5, 10**6), st.integers(3, 5), st.integers(0, 3), st.booleans())
@example(5 * 10**5, 3, 3, False)
@example(5 * 10**5, 3, 3, True)
@example(5 * 10**5, 5, 3, True)
def test_representations_folded_join_equals_unfolded_join(half_n, k, r, dyadic):
    n = 2 * half_n
    rep = count_representations(n, k, r, dyadic)
    assert rep.count == representations_unfolded(n, k, r, dyadic_boxes(n, k) if dyadic else None)


def test_counts_at_the_verify_sizes():
    # the sizes the benchmark's verify workload runs; triple and reps are pinned below
    assert count_hua4(3, 1500).count == 4500476
    mc = count_mixed_S(4, 512)
    assert (mc.S.count, mc.S1.count, mc.max_h) == (2435612, 2433536, 105)


def _in_bands(entries, count, *args):
    """count(*args) with bands of about ``entries`` sums, and the size of every band."""
    sizes = []
    bands = dioph._bands

    def recorded(*args, **kwargs):
        for a, b, keys in bands(*args, **kwargs):
            sizes.append(keys.size)
            yield a, b, keys

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dioph, "_BAND_ENTRIES", entries)
        mp.setattr(dioph, "_bands", recorded)
        return count(*args), sizes


ONE_BAND = 2**62


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(2, 14), st.floats(1, 25))
@example(14, 20.0)  # Python-int sums: the edges are Python ints too
@example(3, 25.0)
def test_hua4_count_is_band_invariant(k, Q):
    banded, sizes = _in_bands(7, count_hua4, k, Q)
    whole, one = _in_bands(ONE_BAND, count_hua4, k, Q)
    assert banded.count == whole.count == count_hua4(k, Q, "exhaustive").count
    n = dyadic_range(Q).size
    assert sum(sizes) == sum(one) == n * (n + 1) // 2 and len(one) == 1  # the pairs i <= j
    if sum(sizes) >= 100:
        assert sum(sizes) // 14 <= len(sizes) <= sum(sizes) // 5  # about 7 pairs a band, not 7 ordered sums


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(3, 14), st.floats(2, 24))
@example(3, 24.0)  # off-diagonal solutions with shifts up to 7
def test_mixed_count_is_band_invariant(k, P):
    banded, sizes = _in_bands(7, count_mixed_S, k, P)
    whole, one = _in_bands(ONE_BAND, count_mixed_S, k, P)
    S, max_h = mixed_literal(k, P)
    assert banded.S.count == whole.S.count == S
    assert banded.S1.count == whole.S1.count == (
        banded.S.parameters["P_count"] * count_hua4(k, banded.Q, "exhaustive").count
    )
    assert banded.max_h == whole.max_h == max_h
    assert sum(sizes) == sum(one) and len(one) == 2  # one band for hua4, one for S
    if sum(sizes) >= 100:
        assert len(sizes) >= sum(sizes) // 14


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(3, 14), st.floats(2, 2e4))
@example(3, 2e4)
def test_triple_count_is_band_invariant(k, N):
    banded, sizes = _in_bands(7, count_admissible_triple, k, N)
    whole, one = _in_bands(ONE_BAND, count_admissible_triple, k, N)
    assert banded.count == whole.count == count_admissible_triple(k, N, "exhaustive").count
    assert sum(sizes) == sum(one) and len(one) == 1
    if sum(sizes) >= 100:
        assert len(sizes) >= sum(sizes) // 14


def test_band_edges_split_the_sums_evenly():
    # every sum of two sorted sides lands in one band; bands hold about the budget
    outer = np.arange(1, 300, dtype=np.int64) ** 3
    inner = np.sort((np.arange(5, 40)[:, None] ** 3 + np.arange(2, 30)[None, :] ** 4).ravel())
    sums = np.sort((outer[:, None] + inner[None, :]).ravel())
    edges = dioph._band_edges(outer, inner)
    assert edges[0] == sums[0] and edges[-1] == sums[-1] + 1
    assert all(a < b for a, b in zip(edges, edges[1:]))
    sizes = np.diff(np.searchsorted(sums, edges))
    assert sizes.sum() == sums.size and sizes.max() <= 2 * dioph._BAND_ENTRIES
    bands = list(dioph._bands(outer, inner))
    assert [a for a, _, _ in bands] == edges[:-1] and [b for _, b, _ in bands] == edges[1:]
    assert [v.size for _, _, v in bands] == sizes.tolist()
    # a band's keys (no tags: its offsets) plus its start are its sums
    assert np.array_equal(np.sort(np.concatenate([v + a for a, _, v in bands])), sums)


def _sorted_side(base, deltas, exact):
    values = sorted(base + d for d in deltas)
    return np.array(values, dtype=object if exact else np.int64)


# offsets from a band start: small, or within a few units of the uint32/uint64 limits
_DELTA = st.one_of(
    st.integers(0, 50),
    st.integers(2**32 - 4, 2**32 + 4),
    st.integers(2**63 - 4, 2**63 + 4),
    st.integers(2**64 - 4, 2**64 + 4),
    st.integers(0, 2**66),
)


def _narrowest(span):
    return np.dtype(np.uint32 if span <= 2**32 else np.uint64 if span <= 2**64 else object)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.booleans(),
    st.integers(0, 2**70),
    st.lists(_DELTA, min_size=1, max_size=6),
    st.lists(_DELTA, min_size=1, max_size=6),
    st.sampled_from([2, 5, 2**17]),
    st.sampled_from([0, 1, 2, 9]),
)
@example(False, 7, [0, 2**31, 2**32 - 1], [0, 1], 2**17, 0)  # span 2^32 + 1: uint64
@example(False, 7, [0, 2**31, 2**32 - 2], [0, 1], 2**17, 0)  # span 2^32: uint32
@example(False, 7, [0, 2**30, 2**31 - 2], [0, 1], 2**17, 1)  # keys span 2^32: uint32
@example(False, 7, [0, 2**30, 2**31 - 1], [0, 1], 2**17, 1)  # keys span 2^32 + 2: uint64
@example(True, 3**40, [0, 2**63], [0, 2**63 - 1], 2**17, 0)  # span 2^64: uint64
@example(True, 3**40, [0, 2**63], [0, 2**63], 2**17, 0)  # span 2^64 + 1: object
@example(True, 3**40, [0, 2**62], [0, 2**62 - 1], 2**17, 1)  # keys span 2^64: uint64
@example(True, 3**40, [0, 2**62], [0, 2**62], 2**17, 1)  # keys span 2^64 + 2: object
def test_band_offsets_are_exact_in_the_narrowest_dtype(exact, base, outer_d, inner_d, entries, bits):
    # int64 sides keep every sum below 2^63; Python-int sides may hold anything
    if not exact:
        base, outer_d, inner_d = base % 2**40, [d % 2**61 for d in outer_d], [d % 2**61 for d in inner_d]
    outer = _sorted_side(base, outer_d, exact)
    inner = _sorted_side(base // 3, inner_d, exact)
    tags = np.array([(2**bits - 1 - j) % 2**bits for j in range(inner.size)], dtype=np.int64)
    sums = [(o + x, t) for o in outer.tolist() for x, t in zip(inner.tolist(), tags.tolist())]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dioph, "_BAND_ENTRIES", entries)
        bands = list(dioph._bands(outer, inner, tags, bits))
    edges = [a for a, _, _ in bands] + [bands[-1][1]]
    assert edges[0] == min(s for s, _ in sums) and edges[-1] == max(s for s, _ in sums) + 1
    assert all(a < b for a, b in zip(edges, edges[1:]))
    assert [b for _, b, _ in bands] == edges[1:]
    for a, b, keys in bands:
        assert keys.dtype == _narrowest((b - a) << bits)
        # the sums in [a, b) and their tags, outer index by outer index, in inner order
        assert [int(v) for v in keys.tolist()] == [(s - a) << bits | t for s, t in sums if a <= s < b]


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.booleans(), st.integers(0, 2**70), st.lists(_DELTA, min_size=1, max_size=8), st.sampled_from([2, 5, 2**17]))
@example(False, 7, [0, 0, 1], 2)  # equal entries: i < j keeps weight 2 where y_i = y_j
def test_pair_bands_hold_each_unordered_pair_once(exact, base, deltas, entries):
    if not exact:
        base, deltas = base % 2**40, [d % 2**61 for d in deltas]
    side = _sorted_side(base, deltas, exact)
    ys = side.tolist()
    pairs = [(i, j) for i in range(len(ys)) for j in range(i, len(ys))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dioph, "_BAND_ENTRIES", entries)
        bands = list(dioph._bands(side, side, pairs=True))
    assert sum(keys.size for _, _, keys in bands) == len(pairs)
    for a, b, keys in bands:
        assert keys.dtype == _narrowest((b - a) << 1)
        # j = i is tagged 0 (weight 1), j > i is tagged 1 (weight 2), i by i
        want = [(ys[i] + ys[j] - a) << 1 | (i < j) for i, j in pairs if a <= ys[i] + ys[j] < b]
        assert [int(v) for v in keys.tolist()] == want


def test_triple_count_memory_is_bounded_by_the_band():
    # the value multiset has 12.8M entries (~100 MB); a band holds 2^17
    tracemalloc.start()
    try:
        rep = count_admissible_triple(3, 1e8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.count == 26585100
    assert peak <= 32 * 8 * dioph._BAND_ENTRIES  # 32 int64 arrays of one band: 32 MB


def _representations_peak(n):
    """count_representations(n, 3, 3).count and the tracemalloc peak of the call."""
    tracemalloc.start()
    try:
        rep = count_representations(n, 3, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return rep.count, peak


def test_representations_memory_is_bounded():
    # one band's bincount of x^2 + p1^2 holds 2^17 int64 (1 MB), whatever n
    count, peak = _representations_peak(10**7)
    assert count == 354188
    assert peak <= 8 * 2**20


def test_representations_memory_does_not_grow_with_n():
    # ten times the n of the test above; the largest array is the 90 * 91 / 2 * 90
    # int64 keys of the cube sums p2^3 + p3^3 + p4^3 with p2 <= p3 (2.9 MB) before
    # they are folded, half the unfolded 90^3
    count, peak = _representations_peak(10**8)
    assert count == 2736492
    assert peak <= 8 * 2**20


def test_fit_scaling_synthetic():
    reports = [
        CountReport("synthetic", {"size": s}, s * s, 0.0, "exhaustive") for s in (2, 4, 8, 16)
    ]
    fit = fit_scaling(reports, "size")
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.max_residual < 1e-12
    with pytest.raises(ValueError):
        fit_scaling(reports[:3], "size")


def test_representations_n40():
    rep = count_representations(40, 3, 3)
    assert rep.count >= 1
    # the explicit witness 40 = 2^2 + 2^2 + 2^3 + 2^3 + 2^3 + 2^3
    assert 40 == 4 + 4 + 8 + 8 + 8 + 8


def test_representations_match_literal_oracle():
    for n in (40, 60, 100):
        for r in (0, 1, 3):
            got = count_representations(n, 3, r).count
            want = representations_literal(n, 3, lambda om, r=r: om <= r)
            assert got == want, (n, r)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(3, 1000), st.integers(3, 5), st.integers(0, 3))
@example(100, 3, 3)  # n = 200: several cube triples per target
def test_representations_join_equals_literal_count(half_n, k, r):
    n = 2 * half_n
    want = representations_literal(n, k, lambda om: om <= r)
    assert count_representations(n, k, r).count == want


def _representations_in_bands(entries, n, k, r, dyadic=False):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dioph, "_BAND_ENTRIES", entries)
        return count_representations(n, k, r, dyadic).count


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(5 * 10**4, 5 * 10**5), st.integers(3, 5), st.integers(0, 3), st.booleans())
@example(5 * 10**5, 3, 3, False)
@example(5 * 10**5, 3, 3, True)
@example(5 * 10**4, 5, 0, False)
@example(5 * 10**4, 5, 3, True)
def test_representations_in_many_bands_equal_unfolded_join(half_n, k, r, dyadic):
    # bands of 2^10 values: n in 10^5..10^6 spans about 100 to 1000 of them
    n = 2 * half_n
    got = _representations_in_bands(2**10, n, k, r, dyadic)
    assert got == representations_unfolded(n, k, r, dyadic_boxes(n, k) if dyadic else None)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(3, 300), st.integers(3, 5), st.integers(0, 3), st.sampled_from([1, 2, 3, 2**17]))
@example(28, 3, 0, 1)  # 56 = 1 + 2^2 + 3 * 2^3 + 3^3: a target at the least left sum
@example(28, 3, 0, 2)
@example(300, 3, 3, 2**17)  # n below one band
def test_representations_at_band_edges_equal_literal_count(half_n, k, r, entries):
    # bands of one value put every target on a band edge
    n = 2 * half_n
    want = representations_literal(n, k, lambda om: om <= r)
    assert _representations_in_bands(entries, n, k, r) == want


def test_representations_rejections():
    with pytest.raises(ValueError):
        count_representations(37, 3, 3)
    with pytest.raises(ValueError):
        count_representations(40, 3, -1)
    with pytest.raises(BudgetExceeded):
        count_representations(2 * 10**8, 3, 3)


def test_representations_dyadic_mode():
    # dyadic confines every variable to its box from singint.boxes: the join
    # against a literal loop over the boxes as the oracle writes them
    for n, k, want in ((10**6, 3, 14), (10**7, 3, 370), (10**6, 5, 5), (10**7, 14, 12)):
        rep = count_representations(n, k, 3, dyadic=True)
        assert rep.count == representations_in_boxes_literal(n, k, 3, dyadic_boxes(n, k)) == want
        assert rep.parameters["mode"] == "dyadic"
    assert count_representations(10**8, 3, 3, dyadic=True).count == 1430
    assert count_representations(10**6, 3, 3).parameters["mode"] == "free"
