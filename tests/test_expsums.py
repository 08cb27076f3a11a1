import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    all_characters,
    char_sum,
    char_sums_matrix,
    char_class_sums,
    character,
    complete_sum,
    unit_sum,
    verify_bounds_per_modulus,
)
from wgkit import expsums
from wgkit.arith import primes_up_to
from wgkit.cli import main
from wgkit.expsums import (
    MAG_TOL,
    SWEEP_POINT_BUDGET,
    BoundReport,
    _char_rows,
    _generator_tables,
    _power_hists,
    _power_hists_many,
    _power_spectra,
    _sweep_points,
    complete_sums_all,
    twisted_gap,
    unit_sums_all,
    vanishing_exponent,
    verify_bounds,
)


def _direct_sum(j, q, a, units=False):
    # reference implementation straight off the definition
    total = 0j
    for m in range(1, q + 1):
        if units and math.gcd(m, q) != 1:
            continue
        total += cmath.exp(2j * math.pi * a * pow(m, j, q) / q)
    return total


def test_complete_sum_examples():
    for j in range(2, 15):
        assert complete_sum(j, 1, 1).value == pytest.approx(1.0)
    s = complete_sum(2, 5, 1)
    assert s.re == pytest.approx(math.sqrt(5), abs=1e-12)
    assert s.im == pytest.approx(0.0, abs=1e-12)
    s4 = complete_sum(2, 4, 1)
    assert abs(s4.value) ** 2 == pytest.approx(8.0, abs=1e-9)
    assert s4.value == pytest.approx(2 + 2j, abs=1e-12)


def test_unit_sum_examples():
    assert unit_sum(2, 5, 1).value == pytest.approx(math.sqrt(5) - 1, abs=1e-12)
    for j in range(2, 15):
        assert unit_sum(j, 1, 1).value == pytest.approx(1.0)
    assert abs(unit_sum(2, 9, 1).value) < 1e-12


def test_sums_match_reference_definition():
    for q in list(range(1, 40)) + [60, 97]:
        for j in (2, 3, 5, 14):
            for a in range(q):
                assert complete_sum(j, q, a).value == pytest.approx(
                    _direct_sum(j, q, a), abs=1e-9
                )
                assert unit_sum(j, q, a).value == pytest.approx(
                    _direct_sum(j, q, a, units=True), abs=1e-9
                )


def test_spectral_path_agrees_with_direct():
    for q in range(1, 60):
        for j in (2, 3, 7):
            call = complete_sums_all(j, q)
            uall = unit_sums_all(j, q)
            for a in range(q):
                assert call[a] == pytest.approx(complete_sum(j, q, a).value, abs=1e-9)
                assert uall[a] == pytest.approx(unit_sum(j, q, a).value, abs=1e-9)


def test_multi_exponent_kernel_rows_are_the_single_row_path():
    # one power table, bincount and FFT for all j: every row bit-identical to the per-j call;
    # and for consecutive moduli side by side, each column block is its modulus's histogram
    js = tuple(range(2, 15))
    for q in range(1, 121):
        for units_only, single in ((False, complete_sums_all), (True, unit_sums_all)):
            hists = _power_hists(js, q, units_only)
            spectra = _power_spectra(js, q, units_only)
            for i, j in enumerate(js):
                literal = [pow(m, j, q) for m in range(1, q + 1) if not units_only or math.gcd(m, q) == 1]
                assert np.array_equal(hists[i], np.bincount(literal, minlength=q)), (q, j, units_only)
                assert np.array_equal(spectra[i], single(j, q)), (q, j, units_only)
    for qs, units_only in ((range(1, 121), False), (range(97, 131), False), (range(250, 252), False), (range(2, 60), True)):
        side = _power_hists_many(js, qs, units_only)
        assert side.shape == (len(js), sum(qs))
        starts = np.cumsum([0, *qs])
        for q, s in zip(qs, starts.tolist()):
            assert np.array_equal(side[:, s : s + q], _power_hists(js, q, units_only)), (q, units_only)


def test_char_rows_stack_the_one_exponent_rows():
    # every exponent of one prime in one FFT: the rows of char_class_sums, bit for bit, in js order
    js = tuple(range(2, 15))
    for p in primes_up_to(199)[1:]:
        reps, sums = _char_rows(p, js)
        one = [char_class_sums(p, j) for j in js]
        assert np.array_equal(reps, np.concatenate([r for r, _ in one]))
        assert np.array_equal(sums[:, -np.arange(p - 1) % (p - 1)], np.concatenate([g for _, g in one])), p


@pytest.mark.parametrize("args", [(14, 250, 2500, 0), (14, 499, 10**4, 0), (5, 60, 256, 12), (3, 40, 64, 0)])
def test_sweep_is_the_per_modulus_sweep(args):
    # chunked tables, one FFT per modulus and one per character prime: the former loop's report
    ours, oracle = verify_bounds(*args).as_dict(), verify_bounds_per_modulus(*args).as_dict()
    assert ours == oracle and repr(ours) == repr(oracle)


def test_sweep_transforms_once_per_modulus_and_prime(monkeypatch):
    # a prime modulus's complete and unit sums share one FFT, and so do a prime's exponents
    calls = []
    fft = np.fft.fft
    monkeypatch.setattr(np.fft, "fft", lambda a, *args, **kw: calls.append(np.shape(a)) or fft(a, *args, **kw))
    j_max, q_max, pp_max = 14, 60, 256
    verify_bounds(j_max, q_max, pp_max)
    js = range(2, j_max + 1)
    levels = [
        (p, ell)
        for p in primes_up_to(math.isqrt(pp_max))
        for ell in range(2, int(math.log(pp_max, p)) + 2)
        if p**ell <= pp_max and any(vanishing_exponent(p, j) <= ell for j in js)
    ]
    char_primes = primes_up_to(q_max)[1:]
    assert len(calls) == q_max + len(levels) + len(char_primes)
    assert calls[:q_max] == [(26 if q in primes_up_to(q_max) else 13, q) for q in range(1, q_max + 1)]
    assert calls[q_max + len(levels) :] == [(sum(math.gcd(j, p - 1) for j in js), p - 1) for p in char_primes]


def test_char_class_sums_cover_every_character_sum():
    # |G(chi_t, j, a)| depends on ind a only mod gcd(j, p - 1): one row per class
    for p in primes_up_to(61)[1:]:
        chars = all_characters(p)
        dlog = _generator_tables(p)[1]
        for j in range(2, 15):
            d = math.gcd(j, p - 1)
            reps, sums = char_class_sums(p, j)
            assert sums.shape == (d, p - 1)
            assert reps.tolist() == [min(a for a in range(1, p) if dlog[a] % d == c) for c in range(d)]
            for a in range(1, p):
                c = dlog[a] % d
                for t, chi in enumerate(chars):
                    direct = char_sum(chi, j, a).value
                    assert abs(abs(sums[c, t]) - abs(direct)) <= 1e-9, (p, j, t, a)
                    assert a != reps[c] or abs(sums[c, t] - direct) <= 1e-9, (p, j, t, a)
            full = np.abs(char_sums_matrix(p, j)).max()
            assert np.abs(sums).max() == pytest.approx(full, abs=1e-9), (p, j)


def test_char_class_sums_walk_the_generator_once_per_prime(monkeypatch):
    # the sweep's thirteen exponents share one walk of g^s mod p per prime
    from wgkit import expsums

    calls = []
    walk = expsums._generator_powers
    monkeypatch.setattr(expsums, "_generator_powers", lambda p: calls.append(p) or walk(p))
    expsums._generator_tables.cache_clear()
    for p in (3, 61, 199):
        for j in range(2, 15):
            char_class_sums(p, j)
        character(p, 1)
    assert calls == [3, 61, 199]


def test_reported_witnesses_attain_their_ratios():
    rep = verify_bounds(j_max=14, q_max=250, pp_max=2500)
    for j, (ratio, q, a) in rep.complete_ratio.items():
        assert math.gcd(a, q) == 1 or q == 1
        assert abs(complete_sum(j, q, a).value) / q ** (1 - 1 / j) == pytest.approx(ratio, abs=1e-9)
    for j, (ratio, p, a) in rep.char_ratio.items():
        assert 0 < a < p
        attained = max(abs(char_sum(chi, j, a).value) for chi in all_characters(p)) / math.sqrt(p)
        assert attained == pytest.approx(ratio, abs=1e-9), (j, p, a)


def test_exponent_range_rejected():
    with pytest.raises(ValueError):
        complete_sum(1, 5, 1)
    with pytest.raises(ValueError):
        complete_sum(15, 5, 1)


def test_character_table_properties():
    for p in (3, 5, 7, 11, 13):
        chars = all_characters(p)
        assert len(chars) == p - 1
        assert chars[0].is_principal
        for chi in chars:
            for m in range(p):
                for n in range(p):
                    lhs = chi(m * n)
                    rhs = chi(m) * chi(n)
                    assert lhs == pytest.approx(rhs, abs=1e-12)
            for m in range(p):
                assert (abs(chi(m)) < 1e-15) == (math.gcd(m, p) > 1)


def test_character_orthogonality():
    # sum over all chi mod p of chi(m) = phi(p) [m = 1 mod p]
    from wgkit.arith import primes_up_to

    for p in primes_up_to(101):
        if p == 2:
            continue
        chars = all_characters(p)
        for m in range(p):
            total = sum(chi(m) for chi in chars)
            expected = p - 1 if m % p == 1 else 0
            assert total == pytest.approx(expected, abs=1e-9)


def test_char_sum_examples():
    chi0 = character(5, 0)
    assert char_sum(chi0, 2, 1).value == pytest.approx(unit_sum(2, 5, 1).value, abs=1e-12)
    # p | a makes the character sum collapse to orthogonality
    for t in range(1, 6):
        chi = character(7, t)
        assert abs(char_sum(chi, 3, 7).value) < 1e-9
    for chi in all_characters(7):
        assert abs(char_sum(chi, 3, 1).value) <= 4 * math.sqrt(7) + 1e-9


def test_character_values_are_one_read_only_array():
    chi = character(11, 3)
    assert chi.values.shape == (11,) and not chi.values.flags.writeable
    assert chi(0) == 0 and chi(1) == 1 and isinstance(chi(2), complex)
    # modulus and index fix the values: equal characters hash alike, others differ
    assert chi == character(11, 3) and hash(chi) == hash(character(11, 3))
    assert chi != character(11, 4) and chi != character(13, 3)
    assert len({*all_characters(11), *all_characters(11)}) == 10
    assert character(2, 0).values.tolist() == [0, 1]


def test_vanishing_exponent_table():
    assert vanishing_exponent(2, 2) == 4  # 2^1 || 2
    assert vanishing_exponent(3, 2) == 2
    assert vanishing_exponent(2, 3) == 2  # odd j at p = 2
    assert vanishing_exponent(2, 12) == 5  # 2^2 || 12
    assert vanishing_exponent(3, 9) == 4  # 3^2 || 9


def test_unit_sum_vanishing_examples():
    for a in (1, 3, 5, 7):
        assert abs(unit_sum(2, 16, a).value) < 1e-9
    for a in range(1, 9):
        if math.gcd(a, 9) == 1:
            assert abs(unit_sum(2, 9, a).value) < 1e-9


def test_twisted_multiplicativity_spot():
    for j in (2, 3, 5, 14):
        for q1, q2 in ((3, 4), (5, 7), (8, 9), (16, 27), (49, 60)):
            assert twisted_gap(j, q1, q2) < 1e-6 * q1 * q2
    with pytest.raises(ValueError):
        twisted_gap(2, 6, 9)


def test_twisted_gap_caches_only_the_factor_spectra():
    # the product modulus's spectrum is used once: it is not kept
    complete_sums_all.cache_clear()
    twisted_gap(3, 5, 7)
    assert complete_sums_all.cache_info().currsize == 2


@st.composite
def _coprime_pair(draw):
    q1 = draw(st.integers(2, 60))
    q2 = draw(st.integers(2, 60).filter(lambda q: math.gcd(q, q1) == 1))
    return q1, q2


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pair=_coprime_pair(), j=st.integers(2, 14))
def test_twisted_multiplicativity_property(pair, j):
    # S(q1 q2, a) = S(q1, a q2^(j-1)) S(q2, a q1^(j-1)) for every a, coprime q1, q2
    q1, q2 = pair
    assert twisted_gap(j, q1, q2) <= MAG_TOL * q1 * q2


def test_prime_modulus_bound_examples():
    # |S_2(7,1)| = sqrt(7): the bound (gcd(2,6) - 1) sqrt(7) is met with equality
    assert abs(complete_sum(2, 7, 1).value) == pytest.approx(math.sqrt(7), abs=1e-9)
    # j = 3, p = 7: bound (gcd(3,6) - 1) sqrt(7) = 2 sqrt(7) for every unit a
    for a in range(1, 7):
        assert abs(complete_sum(3, 7, a).value) <= 2 * math.sqrt(7) + 1e-9
        assert abs(unit_sum(3, 7, a).value) <= 2 * math.sqrt(7) + 1 + 1e-9


def test_verify_bounds_small_grid():
    rep = verify_bounds(j_max=5, q_max=60, pp_max=256, twisted_q_max=12)
    assert isinstance(rep, BoundReport)
    assert rep.passed, rep.violations
    assert rep.prime_slack > -1e-6 * 60
    assert rep.vanishing_max < 1e-6 * 256
    for j, (ratio, q, a) in rep.complete_ratio.items():
        assert ratio >= 1.0 - 1e-12  # q = 1 already achieves ratio 1
    d = rep.as_dict()
    assert d["passed"] is True


# one broken input per kind of hard check: (module global, how it is broken,
# the violations it must raise, twisted_q_max)
_BROKEN_CHECKS = {
    "prime_bounds": (
        "_spectra", lambda f: lambda *a, **kw: 1.5 * f(*a, **kw),
        {"complete_prime_bound", "unit_prime_bound"}, 0,
    ),
    "vanishing": ("vanishing_exponent", lambda f: lambda p, j: f(p, j) - 1, {"unit_sum_vanishing"}, 0),
    "weil": (
        "_char_rows", lambda f: lambda p, js: (f(p, js)[0], 10 * f(p, js)[1]), {"weil_char_bound"}, 0,
    ),
    "twisted": (
        "twisted_gap", lambda f: lambda j, q1, q2: f(j, q1, q2) + q1 * q2, {"twisted_multiplicativity"}, 6,
    ),
}


@pytest.mark.parametrize("case", list(_BROKEN_CHECKS))
def test_each_hard_check_can_fail(case, monkeypatch, capsys):
    name, breaks, want, twisted_q_max = _BROKEN_CHECKS[case]
    monkeypatch.setattr(expsums, name, breaks(getattr(expsums, name)))
    rep = verify_bounds(j_max=3, q_max=40, pp_max=64, twisted_q_max=twisted_q_max)
    assert {v[0] for v in rep.violations} == want
    argv = ["sums", "--jmax", "3", "--qmax", "40", "--ppmax", "64", "--twisted-qmax", str(twisted_q_max)]
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().out)["report"]["passed"] is False


def test_verify_bounds_rejects_bad_args():
    with pytest.raises(ValueError):
        verify_bounds(j_max=2, q_max=0)
    with pytest.raises(ValueError):
        verify_bounds(j_max=1, q_max=10)
    for pp_max in (-5, 0, 1):
        with pytest.raises(ValueError, match="pp_max must be >= 2"):
            verify_bounds(j_max=2, q_max=10, pp_max=pp_max)


def test_trivial_bound_guard():
    s = complete_sum(2, 9, 3)
    assert abs(s.value) <= 9 + 1e-6


def test_sweep_budget_admits_the_documented_sweeps():
    # README command, the benchmark's sums, acceptance criterion 5 (with its twisted pairs)
    js = tuple(range(2, 15))
    for q_max, pp_max, twisted_q_max in ((499, 10**4, 0), (250, 2500, 0), (499, 10**4, 60)):
        assert sum(_sweep_points(js, q_max, pp_max, twisted_q_max)) <= SWEEP_POINT_BUDGET
