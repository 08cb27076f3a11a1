import itertools
import math

import numpy as np
import pytest

from oracles import (
    gauss_legendre,
    independent_level_cascade,
    iterated_integral,
    nested_c4,
    tail_sum,
)
from wgkit import buchstab, cli, reference
from wgkit.buchstab import (
    _converged,
    _series_levels,
    _series_values,
    constants_table,
    max_r,
    tables_to_csv,
    tables_to_json,
    upper_limit,
)

ORDER = buchstab.ORDERS[-1]


def test_upper_limit_values():
    assert upper_limit(3) == pytest.approx(8.0)
    assert upper_limit(5) == pytest.approx(17.0)
    assert upper_limit(14) == pytest.approx(503.0)
    with pytest.raises(ValueError):
        upper_limit(15)
    with pytest.raises(ValueError):
        upper_limit(2)


def test_max_r_values():
    assert max_r(3) == 9
    assert max_r(4) == 13
    assert max_r(14) == 504


def _levels(top: int, last: int):
    """{m: level g_m's rows on [a, a + 1], a = m..top - 1} for m = 2..last (``_series_levels``)."""
    return dict(itertools.islice(_series_levels(top, ORDER), last - 1))


def _at(rows, x):
    """The rows' series at x = t - a - 1/2, each row summed as ``_series_values`` sums it."""
    return (np.atleast_2d(rows) * x ** np.arange(ORDER)).sum(axis=-1)


def _scale(rows, x=0.5):
    """The absolute sum of the rows' terms at |x|: the size of what each evaluation sums."""
    return (np.abs(rows) * abs(x) ** np.arange(rows.shape[-1])).sum(axis=1)


def test_base_level_against_quadrature_oracle():
    g2 = _levels(9, 2)[2]
    oracle = gauss_legendre(lambda t: np.log(t - 1.0) / t, 2.0, 3.0)
    # frozen from the oracle; hand check: log2 log3 - int_1^2 log(1+u)/u du = 0.14722
    assert oracle == pytest.approx(0.1472207, abs=1e-6)
    assert _at(g2[0], 0.5)[0] == pytest.approx(oracle, rel=1e-15)  # g_2(3), the right end of [2, 3]
    assert abs(_at(g2[0], -0.5)[0]) < 1e-17  # g_2(2) = 0
    # nondecreasing on [2, 9]
    samples = np.array([_at(g2, x) for x in np.linspace(-0.5, 0.5, 65)]).T.ravel()
    assert (np.diff(samples) >= -1e-15).all()


def test_shallow_entries_match_mpmath():
    # mpmath 1.3.0 at 30 digits: g_2 in closed form, log(u - 1) log u + Li_2(1 - u) + pi^2/12,
    # and g_3, g_4 by mp.quad split at the integers
    values, _ = _converged()[3]
    assert values[4] == pytest.approx(0.4443634967794344099, rel=1e-15, abs=0)
    assert values[5] == pytest.approx(0.05782554977919576723, rel=1e-15, abs=0)


def test_c4_against_independent_nested_quadrature():
    ours = iterated_integral(4, 3)
    oracle = nested_c4(upper_limit(3))
    assert ours == pytest.approx(oracle, abs=1e-7)


def test_cr_published_examples():
    assert iterated_integral(4, 3) <= 0.4443636 * (1 + 1e-3)
    assert iterated_integral(5, 4) <= 0.3029445 * (1 + 1e-3)
    assert iterated_integral(4, 3) == pytest.approx(0.4443636, rel=2e-4)


def test_published_C_is_the_chain_of_its_entries():
    # the published C(k) is derived from the published c_r bounds: each bound
    # of a lumped range, such as ((19, 504), 2.510648e-4) at k = 14, bounds
    # every c_r of it, and C(k) is their sum to within the six-decimal rounding
    # (the worst gap, 2.08e-6, at k = 10); a lumped range off by one moves the
    # sum by at least 2.5e-4
    for k in reference.K_RANGE:
        chain = sum((hi - lo + 1) * bound for (lo, hi), bound in reference._GROUPED_CR_BOUNDS[k])
        assert abs(chain - reference.C_BOUNDS[k]) <= 5e-6, k


def test_cr_degenerate_cases():
    with pytest.raises(ValueError):
        iterated_integral(3, 3)
    assert iterated_integral(9, 3) == 0.0  # r - 1 = 8 = U(3)
    assert iterated_integral(200, 5) == 0.0


def test_entries_vanish_exactly_from_U_k(monkeypatch):
    # c_r = g_{r-1}(U_k) is 0.0 exactly when r - 1 >= U_k; with the zero rule off, every
    # level below U_k is positive there, down to g_30(30.5) at k = 7
    monkeypatch.setattr(buchstab, "ZERO_LEVEL_SUP", 0.0)
    table = _series_values(ORDER)
    for k in range(3, 8):
        values = table[k]
        assert {r for r, v in values.items() if v == 0.0} == {r for r in values if r - 1 >= upper_limit(k)}, k
        assert min(values.values()) >= 0.0


def test_level_top_matches_cr():
    # g_3 at U_3 = 8, the right end of its last interval [7, 8], is c_4(3) bit for bit
    assert _at(_levels(8, 3)[3][-1], 0.5)[0] == iterated_integral(4, 3)


def test_cascade_reads_the_level_tops():
    # c_{m+1}(k) is level g_m's series at U_k on interval ceil(U_k) - 1, bit for bit, up to the
    # level whose value fell below ZERO_LEVEL_SUP; every later entry is 0.0
    table = _series_values(ORDER)
    for k in (3, 4, 8, 14):
        u = upper_limit(k)
        a = math.ceil(u) - 1
        values = table[k]
        last = next(m for m in range(2, max_r(k)) if m > a or values[m + 1] < buchstab.ZERO_LEVEL_SUP)
        levels = _levels(a + 1, min(last, a))
        for m in range(2, max_r(k)):
            read = _at(levels[m][a - m], u - a - 0.5)[0] if m <= min(last, a) else 0.0
            assert values[m + 1] == read, (k, m)


def test_levels_are_continuous_at_every_join():
    # the series of [a, a + 1] at x = 1/2 is that of [a + 1, a + 2] at x = -1/2, on every level
    # k = 14's cascade computes: to 1e-15 of the terms summed, and relative at levels 2..8 (near a
    # level's start g_m rises like (t - m)^(m - 1), far below its terms at the first join)
    for m, level in _levels(503, 33).items():
        right, left = _at(level[:-1], 0.5), _at(level[1:], -0.5)
        scale = np.maximum(_scale(level[:-1]), _scale(level[1:]))
        assert (np.abs(left - right) <= 1e-15 * scale).all(), m
        if m <= 8:
            assert (np.abs(left - right) <= 1e-15 * np.abs(right)).all(), m


def test_levels_solve_the_delay_equation():
    # g_m'(t) = g_{m-1}(t - 1) / t (log(t - 1) / t at m = 2), from the series' derivative, to
    # 1e-15 of the derivative's terms
    levels = _levels(503, 33)
    i = np.arange(ORDER)
    for m, level in levels.items():
        t0 = np.arange(m, 503) + 0.5
        derivative = level[:, 1:] * i[1:]
        for x in (-0.5, -0.3, 0.0, 0.2, 0.5):
            slope = (derivative * x ** i[:-1]).sum(axis=1)
            want = np.log(t0 + x - 1.0) if m == 2 else _at(levels[m - 1][:-1], x)
            assert (np.abs(slope - want / (t0 + x)) <= 1e-15 * _scale(derivative, x)).all(), (m, x)


@pytest.mark.parametrize("order", [2, 24, 40, 64, 96, 128, 255, 256, 257, 1024])
def test_grouped_cascade_is_each_k_alone(order):
    # the one cascade to U_14 = 503 holds every k of K_RANGE, keyed r = 3..max_r(k), and each k
    # reads the same bits as a cascade to its own ceil(U_k) would give it: a row of a level is made
    # from the rows below it alone, at any series order
    table = _series_values(order)
    assert list(table) == list(reference.K_RANGE)
    for k, values in table.items():
        assert list(values) == list(range(3, max_r(k) + 1)), k
    for k in reference.K_RANGE:
        u = upper_limit(k)
        a = math.ceil(u) - 1
        for m, level in itertools.islice(_series_levels(a + 1, order), 3):
            assert table[k][m + 1] == float((level[a - m] * (u - a - 0.5) ** np.arange(order)).sum()), (k, m)


def test_cascade_runs_once_per_k_and_tol(monkeypatch, capsys):
    # a cold process runs one cascade to U_14 = 503 per series order, whatever it is first asked
    # for, and every later caller of any k reads that one table
    calls = []
    levels = buchstab._series_levels
    monkeypatch.setattr(
        buchstab, "_series_levels", lambda top, order: calls.append((top, order)) or levels(top, order)
    )
    for first in (["constants", "--k", "3"], ["constants", "--k", "all"], ["margin"], None):
        _converged.cache_clear()
        del calls[:]
        if first is None:
            constants_table(14)
        else:
            cli.main(first)
        assert calls == [(503, 24), (503, 40)], first
        assert cli.main(["constants", "--k", "all"]) == 1
        assert cli.main(["margin"]) == 0
        assert cli.main(["constants", "--k", "3"]) == 0
        for k in reference.K_RANGE:
            assert tail_sum(k) == constants_table(k).C_value
        assert iterated_integral(16, 13) == constants_table(13).entry(16).value
        assert calls == [(503, 24), (503, 40)], first
    capsys.readouterr()
    values, _ = _converged()[3]
    with pytest.raises(TypeError):
        values[4] = 0.0
    with pytest.raises(TypeError):
        _converged()[3] = (values, 0.0)


def test_table_k3():
    t = constants_table(3)
    assert [e.r for e in t.entries] == list(range(4, 10))
    assert t.all_within_bounds
    assert t.C_value <= reference.C_BOUNDS[3]
    assert t.C_value == pytest.approx(0.50498, abs=2e-4)
    # strict decay until the zero tail
    vals = [e.value for e in t.entries]
    assert all(b < a for a, b in zip(vals, vals[1:]) if b > 0)
    assert vals[-1] == 0.0


def test_two_order_error_is_honest():
    # the order-40 values lie within the reported change of an order-56 run, and every k's
    # change is below 1e-12
    reference_values = _series_values(56)
    for k in reference.K_RANGE:
        values, err = _converged()[k]
        assert 0 < err < 1e-12, k
        assert max(abs(values[r] - reference_values[k][r]) for r in values) <= err, k


def test_tail_sum_positivity_margin_inputs():
    assert tail_sum(6) < math.log(2.0)


def test_deep_entries_confirmed_by_independent_scheme():
    """The k = 13, 14 deep-tail values where the reference table disagrees.

    A second scheme (non-aligned grids, Gauss-Legendre segments, spline level
    carry) must reproduce the package values; this pins down that the computed
    integrals, not the quadrature, drive the reference-table mismatches.
    """
    indep13 = independent_level_cascade(13, r_top=17, M=4000)
    indep14 = independent_level_cascade(14, r_top=19, M=16000)  # U = 503 needs finer grids
    for k, r, indep in ((13, 16, indep13), (13, 17, indep13), (14, 16, indep14),
                        (14, 17, indep14), (14, 19, indep14)):
        ours = iterated_integral(r, k)
        assert ours == pytest.approx(indep[r], rel=5e-5), (k, r)
    # frozen converged values (both schemes agree on these to ~7 digits)
    assert iterated_integral(16, 13) == pytest.approx(0.00132345, rel=1e-5)
    assert iterated_integral(19, 14) == pytest.approx(0.000392172, rel=1e-5)


def test_csv_and_json_emission():
    t = constants_table(3)
    csv_text = tables_to_csv([t])
    lines = csv_text.strip().split("\n")
    assert lines[0] == "k,r,c_r,reference_bound,pass"
    assert len(lines) == 1 + len(t.entries)
    payload = tables_to_json([t])
    assert payload["tables"][0]["k"] == 3
    assert payload["tables"][0]["C_within_bound"] is True
