import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_density_loops,
    brute_density_vectorized,
    convolution_counts,
    cyclotomic_per_prime,
    ep_via_sums,
    primitive_root,
)
from wgkit.arith import primes_up_to
from wgkit.cli import main
from wgkit.errors import BudgetExceeded, VerificationError
from wgkit import arith, localdensity
from wgkit.expsums import _power_hists_many
from wgkit.localdensity import (
    class_counts,
    class_counts_many,
    densities_float_all,
    ep_bound,
    local_densities_all,
)


def _ep_at(p: int, n: int, k: int) -> int:
    """E_p at the target n, read from its class."""
    cc = class_counts(p, k)
    return cc.E_p[cc.classes[n % p]]


def test_power_histogram_examples():
    h = _power_hists_many((3,), (7,), True)[0]
    assert h[1] == 3 and h[6] == 3
    assert h.sum() == 6 and h[0] == 0
    assert _power_hists_many((2,), (2,), True)[0].tolist() == [0, 1]
    assert _power_hists_many((2,), (5,), False)[0].tolist() == [1, 2, 0, 0, 2]
    # composite modulus: the squares of 1..12 mod 12 are 1, 4, 9, 4, 1, 0, ...
    assert _power_hists_many((2,), (12,), False)[0].tolist() == [2, 4, 0, 0, 4, 0, 0, 0, 0, 2, 0, 0]
    assert _power_hists_many((2,), (12,), True)[0].tolist() == [0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]


def test_histogram_mass():
    from wgkit.arith import euler_phi, factorize

    # one row per exponent, each counted into its own bins of one bincount
    for q in (2, 5, 12, 36):
        assert _power_hists_many((2, 3, 14), (q,), False).sum(axis=1).tolist() == [q] * 3
        assert _power_hists_many((2, 3, 14), (q,), True).sum(axis=1).tolist() == [euler_phi(factorize(q))] * 3


def test_count_congruence_mod2_examples():
    # mod 2 every unit is 1: K counts 5 ones, L* 6 ones, L adds x1 in {0, 1}
    for k in (3, 4, 14):
        K, L, Lstar = local_densities_all(2, k)
        assert K == (0, 1)
        assert Lstar == (1, 0)
        assert L == (1, 1)


def test_local_densities_p2():
    cc = class_counts(2, 3)
    assert cc.at(40) == (0, 1, 1) and _ep_at(2, 40, 3) == 1
    assert cc.at(41) == (1, 1, 0) and _ep_at(2, 41, 3) == -1


def test_local_densities_identity_enforced(monkeypatch):
    # L is convolved on its own, so the engine's L = L* + K check can fail; it
    # names the failing prime of a batch (k = 3: 7, 13 and 19 share G = 6)
    algebra = localdensity._class_algebra

    def off_by_one(*args):
        K, L, Lstar = algebra(*args)
        L = L.copy()
        L[-1, 0] += 1
        return K, L, Lstar

    monkeypatch.setattr(localdensity, "_class_algebra", off_by_one)
    _empty_engine(monkeypatch)
    with pytest.raises(VerificationError, match=r"L = L\* \+ K fails at p=19, k=3"):
        class_counts_many([7, 13, 19], 3)
    assert localdensity._STORE == {}  # nothing of the failed batch is held


def test_local_densities_exact_past_a_double():
    # from p = 8839 (k = 3), E_p = p L* - (p-1)^6 needs more than a double's 53 bits
    ep = _ep_at(8839, 0, 3)
    assert isinstance(ep, int) and abs(ep) > 2**53
    assert ep == 8839 * class_counts(8839, 3).at(0)[2] - 8838**6


def test_p19_error_term_bound():
    for n in range(19):
        assert abs(_ep_at(19, n, 3)) < 18**6


def test_convolution_matches_literal_loops():
    for p in (2, 3, 5, 7):
        for k in (3, 5):
            K, L, Ls = brute_density_loops(p, k)
            gK, gL, gLs = local_densities_all(p, k)
            assert list(gK) == K and list(gL) == L and list(gLs) == Ls


def test_convolution_matches_vectorized_bruteforce():
    for p in (11, 13):
        for k in (3, 14):
            K, L, Ls = brute_density_vectorized(p, k)
            gK, gL, gLs = local_densities_all(p, k)
            assert list(gK) == K.tolist()
            assert list(gL) == L.tolist()
            assert list(gLs) == Ls.tolist()


def test_vectorized_bruteforce_matches_loops():
    for p in (3, 5, 7):
        K, L, Ls = brute_density_loops(p, 3)
        vK, vL, vLs = brute_density_vectorized(p, 3)
        assert K == vK.tolist() and L == vL.tolist() and Ls == vLs.tolist()


def test_ep_bound_examples():
    b19 = ep_bound(19, 3)
    assert b19 == pytest.approx(2.736e7, rel=0.01)
    assert b19 < 18**6
    assert ep_bound(17, 3) > 16**6  # the closed form alone cannot settle p = 17
    # asymptotic shape: bound / p^4 -> 8 * 13 = 104
    assert ep_bound(10007) / 10007**4 == pytest.approx(104, rel=0.05)


def test_ep_two_paths_agree():
    for p in (2, 3, 7, 19, 97, 199):
        for n in range(p):
            assert ep_via_sums(p, n, 3) == pytest.approx(_ep_at(p, n, 3), abs=1e-4)
    # spot checks across the top of the range, where roundoff is tightest
    for p, k in ((211, 3), (307, 14), (401, 7), (499, 5), (499, 12)):
        for n in (0, 1, p // 2, p - 1):
            assert ep_via_sums(p, n, k) == pytest.approx(_ep_at(p, n, k), abs=1e-4)


def test_density_normalization():
    # |L/p^5 - 1| and |K/p^4 - 1| within 10/sqrt(p) for 29 <= p <= 499
    for k in (3, 14):
        for p in primes_up_to(499):
            if p < 29:
                continue
            K, L, _ = local_densities_all(p, k)
            tol = 10.0 / math.sqrt(p)
            for n in range(p):
                assert abs(L[n] / p**5 - 1.0) <= tol
                assert abs(K[n] / p**4 - 1.0) <= tol


def test_densities_float_path():
    for p in (7, 97, 499, 601):
        for k in (3, 14):
            K, L, Ls = local_densities_all(p, k)
            fK, fL, fLs = densities_float_all(p, k)
            assert np.allclose(fK, np.array(K, dtype=float), rtol=1e-9)
            assert np.allclose(fL, np.array(L, dtype=float), rtol=1e-9)
            assert np.allclose(fLs, np.array(Ls, dtype=float), rtol=1e-9)


def test_wide_counts_beyond_int64(capsys, monkeypatch):
    # p = 1289 is the largest prime whose L mass p (p-1)^5 stays below 2^62, the
    # limit of an int64 convolution; the class-function counts stay exact past it
    for p in (1289, 1291):
        K, L, Ls = local_densities_all(p, 3)
        assert all(isinstance(c, int) for c in K + L + Ls)
        assert sum(K) == (p - 1) ** 5
        assert sum(Ls) == (p - 1) ** 6
        assert sum(L) == p * (p - 1) ** 5
        fK, fL, fLs = densities_float_all(p, 3)
        assert np.allclose(fK, np.array(K, dtype=float), rtol=1e-9)
        assert np.allclose(fL, np.array(L, dtype=float), rtol=1e-9)
        assert np.allclose(fLs, np.array(Ls, dtype=float), rtol=1e-9)
    # a table over the CLI's row budget is refused before any prime is computed
    computed = _record_kernel(monkeypatch)
    _empty_engine(monkeypatch)
    assert main(["local", "--pmax", "5000", "--k", "3"]) == 2
    assert capsys.readouterr().out == ""
    assert computed == []


def _empty_engine(monkeypatch) -> None:
    """Both stores of the class-count engine empty, whatever ran before."""
    monkeypatch.setattr(localdensity, "_STORE", {})
    monkeypatch.setattr(localdensity, "_CYCLOTOMIC", {})


def _record_kernel(monkeypatch) -> list[int]:
    """Every prime that the class-count kernel computes, appended in call order."""
    computed = []
    kernel = localdensity._cyclotomic_many

    def record(primes, G):
        computed.extend(primes)
        return kernel(primes, G)

    monkeypatch.setattr(localdensity, "_cyclotomic_many", record)
    return computed


def test_bad_inputs():
    with pytest.raises(ValueError):
        class_counts(10, 3)
    with pytest.raises(ValueError):
        class_counts(7, 2)
    with pytest.raises(ValueError):
        local_densities_all(7, 15)
    with pytest.raises(ValueError):
        densities_float_all(10, 3)


_EXACT_PRIMES = [p for p in primes_up_to(1289) if p >= 3]


def _coset_count(p: int, k: int) -> int:
    return math.gcd(math.lcm(2, 3, k), p - 1)


def _assert_matches_exact(p: int, k: int) -> None:
    exact = convolution_counts(p, k)
    assert local_densities_all(p, k) == tuple(tuple(v.tolist()) for v in exact)
    for values, counts in zip(densities_float_all(p, k), exact):
        np.testing.assert_array_equal(values, counts.astype(float))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(p=st.sampled_from(_EXACT_PRIMES), k=st.integers(3, 14))
def test_class_counts_match_exact(p, k):
    _assert_matches_exact(p, k)


def test_class_counts_match_exact_above_600():
    # every prime above 600 that the int64 convolution oracle can count
    for p in (q for q in _EXACT_PRIMES if q > 600):
        for k in (3, 4, 14):
            _assert_matches_exact(p, k)


@pytest.mark.parametrize(
    "p, k", [(2, 3), (2, 14), (3, 3), (3, 4), (5, 4), (5, 14), (7, 3), (7, 7), (43, 3), (43, 7), (43, 14)]
)
def test_class_counts_match_brute_force(p, k):
    # p = 43 with k = 7 or 14 has G = 42 = p - 1: every nonzero n is its own class
    brute = brute_density_loops(p, k) if p <= 7 else brute_density_vectorized(p, k)
    for counts, values in zip(brute, densities_float_all(p, k)):
        np.testing.assert_allclose(values, np.array(counts, dtype=float), rtol=1e-12, atol=1e-9)
    cc = class_counts(p, k)
    assert len(cc.K) == _coset_count(p, k) + 1
    # the per-target lookup, for targets of either sign and beyond p
    at = np.array([cc.at(n) for n in range(-p, 2 * p)])
    expected = np.array(brute, dtype=float).T[np.arange(-p, 2 * p) % p]
    np.testing.assert_allclose(at, expected, rtol=1e-12, atol=1e-9)


@pytest.mark.parametrize("k", range(3, 15))
def test_class_count_masses_beyond_exact_range(k):
    # 5399 is the last prime counted in int64, 5407 the first in Python integers
    for p in (5399, 5407, 9973):
        K, L, Ls = local_densities_all(p, k)
        assert sum(K) == (p - 1) ** 5
        assert sum(Ls) == (p - 1) ** 6
        assert sum(L) == p * (p - 1) ** 5
        assert all(l == ls + c for l, ls, c in zip(L, Ls, K))


def test_class_counts_cached_per_prime_and_power(monkeypatch):
    from wgkit.sieveconsts import sieve_product
    from wgkit.singular import omega

    z, k = 1000, 3
    odd = [p for p in primes_up_to(z - 1) if p > 2]
    computed = _record_kernel(monkeypatch)
    _empty_engine(monkeypatch)
    sieve_product.cache_clear()  # and no W(z) held from an earlier call
    sieve_product(2 * 10**6 + 2, k, z)
    assert sorted(computed) == odd  # each prime once
    sieve_product(2 * 10**6 + 4, k, z)  # a new target: new residues, same (p, k)
    omega(3 * 5 * 997, 2 * 10**6 + 6, k)
    assert sorted(computed) == odd  # no prime computed again
    held = localdensity._STORE
    assert sorted((p, d) for p, ds in held.items() for d in ds) == [(p, math.gcd(k, p - 1)) for p in odd]
    for p in odd:
        cc = held[p][math.gcd(k, p - 1)]
        size = _coset_count(p, k) + 1
        assert len(cc.K) == len(cc.L) == len(cc.Lstar) == len(cc.E_p) == size
        assert len(cc.classes) == p and set(cc.classes.tolist()) == set(range(size))


def test_each_prime_root_is_searched_once(monkeypatch):
    # the least primitive root depends on p alone, and the engine reads it only
    # to walk a coset count G != 2 (G = 2 has a closed form): a second batch,
    # another k and the character primes' walks search only the primes whose root no
    # earlier call read, and no prime twice
    searched = []
    search = arith._least_root

    def record(p):
        searched.append(p)
        return search(p)

    monkeypatch.setattr(arith, "_least_root", record)
    monkeypatch.setattr(arith, "_LEAST_ROOTS", {})
    _empty_engine(monkeypatch)
    primes = primes_up_to(2000)
    class_counts_many(primes, 3)
    walked = {p for p in primes if _coset_count(p, 3) != 2}  # p = 2 and p = 1 mod 6
    assert sorted(searched) == sorted(walked)
    class_counts_many(primes, 14)  # every (p, d) is new, and every (p, G) at 7 | p - 1
    walked |= {p for p in primes if _coset_count(p, 14) != 2}  # adds p = 2 mod 3 with 7 | p - 1
    assert sorted(searched) == sorted(walked)
    for p in primes_up_to(199)[1:]:
        arith._generator_powers(p)
    assert sorted(searched) == sorted(walked | set(primes_up_to(199)))
    assert arith._LEAST_ROOTS == {p: search(p) for p in searched}


def test_one_entry_per_prime_and_gcd(monkeypatch):
    # the counts depend on k only through d = gcd(k, p - 1): every k of one d at
    # p reads the same entry, k of different d different ones, and each entry
    # is the oracle's counts at every k that reads it; the class map depends on
    # G alone, so the entries of one G at p share one class-map object
    _empty_engine(monkeypatch)
    primes = [*primes_up_to(700), 5399, 5407]
    ks = range(3, 15)
    counts = {k: class_counts_many(primes, k) for k in ks}
    for i, p in enumerate(primes):
        for k in ks:
            assert [counts[k][i] is counts[j][i] for j in ks] == [
                math.gcd(k, p - 1) == math.gcd(j, p - 1) for j in ks
            ], (p, k)
            assert [counts[k][i].classes is counts[j][i].classes for j in ks] == [
                _coset_count(p, k) == _coset_count(p, j) for j in ks
            ], (p, k)
            cc = counts[k][i]
            exact = [v.tolist() for v in convolution_counts(p, k)]
            assert [[v[c] for c in cc.classes.tolist()] for v in (cc.K, cc.L, cc.Lstar)] == exact, (p, k)
    assert sum(map(len, localdensity._STORE.values())) == sum(len({math.gcd(k, p - 1) for k in ks}) for p in primes)
    assert len(localdensity._CYCLOTOMIC) == sum(len({_coset_count(p, k) for k in ks}) for p in primes)


def test_engine_computes_each_prime_and_gcd_once(monkeypatch):
    # every k = 3..14 at 19 <= p <= 499 (criterion 3's range): 1,056 (p, k)
    # pairs and 442 (p, gcd(k, p - 1)) entries, but the engine's O(p) stage
    # runs once per (p, G), G = gcd(lcm(2, 3, k), p - 1)
    computed = _record_kernel(monkeypatch)
    _empty_engine(monkeypatch)
    primes = [p for p in primes_up_to(499) if p >= 19]
    for k in range(3, 15):
        class_counts_many(primes, k)
    assert len(computed) == 213
    for p in primes:
        assert computed.count(p) == len({_coset_count(p, k) for k in range(3, 15)}), p


def test_a_prime_above_the_budget_is_refused_at_once(monkeypatch):
    # the engine's O(p) stage would allocate gigabytes at p = 10^9 + 7, and
    # sieve_product would sieve to 10^12: each is refused before any work
    from wgkit.sieveconsts import sieve_product
    from oracles import euler_factor
    from wgkit.singular import omega

    computed = _record_kernel(monkeypatch)
    big = 10**9 + 7
    for call in (
        lambda: class_counts(big, 3),
        lambda: class_counts_many([5, big], 3),
        lambda: euler_factor(big, 1, 40, 3),
        lambda: omega(2 * big, 40, 3),
        lambda: sieve_product(2 * 10**6, 3, 10**12),
    ):
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="budget"):
            call()
        assert time.perf_counter() - start < 0.5
    assert computed == []
    assert sum(local_densities_all(99991, 3)[0]) == 99990**5  # the largest prime within the budget


@pytest.mark.parametrize("k", [3, 4, 14])
def test_one_batch_matches_the_oracle_at_every_prime(monkeypatch, k):
    # one call, unsorted and with a repeat (3), over p = 2, 3, every prime to
    # 700 and both sides of the int64/object edge: its G-groups hold primes of
    # different f and nu, each of which must reach its own prime's algebra
    primes = [5407, *primes_up_to(700)[::-1], 5399, 3]
    _empty_engine(monkeypatch)
    counts = class_counts_many(primes, k)
    assert [cc.p for cc in counts] == primes
    assert counts[-1] is counts[primes.index(3)]
    for cc in counts:
        exact = list(zip(*(v.tolist() for v in convolution_counts(cc.p, k))))
        assert [cc.at(n) for n in range(cc.p)] == exact, cc.p
    with pytest.raises(ValueError, match="p must be prime, got 9"):
        class_counts_many([5, 9], k)


@pytest.mark.parametrize("p, k", [(2, 3), (3, 3), (43, 7), (43, 14), (5399, 14), (5407, 3)])
def test_classes_are_the_cosets(p, k):
    # from the definition, not the engine: n = 0 is in column 0, and n != 0 in
    # column 1 + i iff n^f = g^(i f) mod p, with f = (p - 1)/G and g the least
    # primitive root (g = 1 at p = 2); at p = 43, k = 7 or 14, G = 42 = p - 1
    G = _coset_count(p, k)
    f = (p - 1) // G
    g = 1 if p == 2 else primitive_root(p)
    column = {pow(g, i * f, p): 1 + i for i in range(G)}
    assert len(column) == G
    classes = class_counts(p, k).classes
    assert classes.tolist() == [0] + [column[pow(n, f, p)] for n in range(1, p)]
    assert classes.dtype == np.uint8 and classes.shape == (p,)
    with pytest.raises(ValueError, match="read-only"):
        classes[0] = 1


def test_local_walks_the_generator_once_per_prime(monkeypatch, capsys):
    # the class of every residue comes from the engine's one pass per prime: a
    # walk of g^s mod p at a coset count G != 2, the squares at G = 2
    walked, squared = [], []
    walks, squares = localdensity._generator_walks, localdensity._squares_many

    def walk(ps, gs, width):
        walked.extend(ps.tolist())
        return walks(ps, gs, width)

    def square(primes, f, nu):
        squared.extend(primes)
        return squares(primes, f, nu)

    monkeypatch.setattr(localdensity, "_generator_walks", walk)
    monkeypatch.setattr(localdensity, "_squares_many", square)
    _empty_engine(monkeypatch)
    assert main(["local", "--pmax", "200", "--k", "7"]) == 0
    assert capsys.readouterr().out.count('"n_class"') == 1 + sum(primes_up_to(200)[1:])  # n = 0 only at p = 2
    primes = primes_up_to(200)
    assert sorted(walked) == [p for p in primes if _coset_count(p, 7) != 2]
    assert sorted(squared) == [p for p in primes if _coset_count(p, 7) == 2]


def _assert_kernel_matches_oracle(primes: list[int], G: int) -> None:
    f, nu, A, classes = localdensity._cyclotomic_many(primes, G)
    assert len(f) == len(nu) == len(A) == len(classes) == len(primes)
    for i, p in enumerate(primes):
        of, onu, oA, oclasses = cyclotomic_per_prime(p, G)
        assert (f[i], nu[i]) == (of, onu), p
        np.testing.assert_array_equal(A[i], oA, err_msg=str(p))
        np.testing.assert_array_equal(classes[i], oclasses, err_msg=str(p))
        assert classes[i].dtype == np.uint8 and classes[i].shape == (p,)
        assert not classes[i].flags.writeable


@pytest.mark.parametrize("k", [3, 4, 7, 14])
def test_chunked_kernel_matches_the_per_prime_oracle(k):
    # every prime to 3000 (p = 2, 3 and, at k = 7, p = 43 with G = p - 1
    # among them), both sides of the int64/object edge, and 16411, a prime
    # whose walk alone exceeds a chunk; one sorted call per coset count
    groups: dict[int, list[int]] = {}
    for p in [*primes_up_to(3000), 5399, 5407, 16411]:
        groups.setdefault(_coset_count(p, k), []).append(p)
    for G, primes in groups.items():
        _assert_kernel_matches_oracle(primes, G)
    if k == 7:
        assert 43 in groups[42]


def test_chunked_kernel_across_chunk_boundaries(monkeypatch):
    # an unsorted batch of one coset count (G = 6 at k = 3) that spans
    # several chunks, with 16411 (over a whole chunk) in the middle
    primes = [p for p in primes_up_to(3000) if p % 6 == 1]
    batch = primes[1::2][::-1] + [16411] + primes[::2]
    assert sum(batch) > 4 * localdensity._CHUNK_SLOTS
    _assert_kernel_matches_oracle(batch, 6)
    # the same at G = 2 (k = 3, p = 2 mod 3), whose squares are marked in
    # chunks: 16421 is over a whole chunk, and at 99989, the largest such prime
    # within the engine's budget, y^2 comes closest to the end of uint32
    squares = [p for p in primes_up_to(3000)[1:] if p % 3 == 2]
    batch = squares[1::2][::-1] + [16421] + squares[::2] + [99989, 3]
    _assert_kernel_matches_oracle(batch, 2)
    # chunks of a few slots: many boundaries, each between small primes
    monkeypatch.setattr(localdensity, "_CHUNK_SLOTS", 64)
    _assert_kernel_matches_oracle(primes[:40][::-1] + primes[40:60], 6)
    _assert_kernel_matches_oracle(squares[:40][::-1] + squares[40:60], 2)


@pytest.mark.parametrize("k", [3, 4, 7, 14])
def test_cyclotomic_numbers_satisfy_their_identities(k):
    # the identities of the cyclotomic numbers of order G (Berndt, Evans and
    # Williams, ch. 2), with indices mod G and nu the class of -1: row a sums
    # to f - [a = nu], column b to f - [b = 0], A[a][b] = A[-a][b - a] and
    # A[a][b] = A[b + nu][a + nu]; at every prime to 3000, one kernel call per
    # coset count, the closed form of G = 2 among them
    groups: dict[int, list[int]] = {}
    for p in primes_up_to(3000):
        groups.setdefault(_coset_count(p, k), []).append(p)
    assert 2 in groups
    for G, primes in groups.items():
        f, nu, A, _ = localdensity._cyclotomic_many(primes, G)
        r = np.arange(G)
        a, b = r[:, None], r[None, :]
        for p, f_p, nu_p, A_p in zip(primes, f, nu, A):
            assert A_p.sum(axis=1).tolist() == (f_p - (r == nu_p)).tolist(), (p, G)
            assert A_p.sum(axis=0).tolist() == (f_p - (r == 0)).tolist(), (p, G)
            assert (A_p == A_p[-a % G, (b - a) % G]).all(), (p, G)
            assert (A_p == A_p[(b + nu_p) % G, (a + nu_p) % G]).all(), (p, G)
