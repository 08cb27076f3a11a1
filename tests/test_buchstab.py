import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import gauss_legendre, independent_level_cascade, nested_c4
from wgkit import buchstab, cli, reference
from wgkit.buchstab import (
    _cascade,
    _converged_values,
    _cumsimpson,
    _levels,
    constants_table,
    iterated_integral,
    max_r,
    tables_to_csv,
    tables_to_json,
    tail_sum,
    upper_limit,
)


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


def _level(m: int, k: int, steps: int = 256):
    """(xs, ys) of the sampled level g_m, or (None, None) for the zero function."""
    *_, (_, xs, ys) = _levels(k, steps, m)
    return xs, ys


def test_base_level_against_quadrature_oracle():
    xs, g2 = _level(2, 3)
    oracle = gauss_legendre(lambda t: np.log(t - 1.0) / t, 2.0, 3.0)
    # frozen from the oracle; hand check: log2 log3 - int_1^2 log(1+u)/u du = 0.14722
    assert oracle == pytest.approx(0.1472207, abs=1e-6)
    assert xs[256] == 3.0  # the lattice 8 - j/256 holds every integer of [2, 8]
    assert g2[256] == pytest.approx(oracle, abs=1e-9)
    assert (xs[0], g2[0]) == (2.0, 0.0)
    # nondecreasing on the lattice
    assert (np.diff(g2) >= -1e-15).all()


def test_c4_against_independent_nested_quadrature():
    ours = iterated_integral(4, 3)
    oracle = nested_c4(upper_limit(3))
    assert ours == pytest.approx(oracle, abs=1e-7)


def test_cr_published_examples():
    assert iterated_integral(4, 3) <= 0.4443636 * (1 + 1e-3)
    assert iterated_integral(5, 4) <= 0.3029445 * (1 + 1e-3)
    assert iterated_integral(4, 3) == pytest.approx(0.4443636, rel=2e-4)


def test_cr_degenerate_cases():
    with pytest.raises(ValueError):
        iterated_integral(3, 3)
    assert iterated_integral(9, 3) == 0.0  # r - 1 = 8 = U(3)
    assert iterated_integral(200, 5) == 0.0


def test_level_top_matches_cr():
    assert _level(3, 3)[1][-1] == pytest.approx(iterated_integral(4, 3), abs=1e-7)


def test_cascade_reads_the_level_tops():
    # the cascade's c_{m+1} is the top sample of level g_m, bit for bit
    for k, steps in ((3, 256), (8, 128), (14, 128)):
        values = _cascade(k, steps)
        for m in {2, 3, 5, max_r(k) - 1}:
            ys = _level(m, k, steps)[1]
            assert (0.0 if ys is None else ys[-1]) == values[m + 1]
    # past U_k the level is the zero function
    assert _level(9, 3) == (None, None)  # U(3) = 8


def test_level_lattice_holds_at_any_step():
    # at S = 221, (U_11 - 6) S rounds one way and (U_11 - 5) S the other: each level's
    # lattice must still be the one below it, shifted by S, or g_6 reads g_5 at its top
    xs, g6 = _level(6, 11, 221)
    assert xs[0] >= 6.0 and np.abs(g6[:3]).max() < 1e-12  # g_6 vanishes to high order at 6
    assert g6[-1] == pytest.approx(_level(6, 11, 256)[1][-1], rel=1e-8)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    n=st.one_of(st.integers(3, 300), st.sampled_from([128001, 128002])),
    pool=hnp.arrays(np.float64, 300, elements=st.floats(-1e100, 1e100)),
    h=st.floats(1e-6, 1e3),
)
@example(n=3, pool=np.arange(300.0), h=0.5)
@example(n=4, pool=np.arange(300.0), h=0.5)
@example(n=128001, pool=np.sin(np.arange(300.0)), h=1 / 256)
@example(n=128002, pool=np.sin(np.arange(300.0)), h=1 / 256)
def test_cumsimpson_is_scipys_cumulative_simpson(n, pool, h):
    # the kept half-interval formulas of scipy's kernel, bit for bit, for either parity
    from scipy.integrate import cumulative_simpson

    f = np.resize(pool, n)
    assert np.array_equal(_cumsimpson(f, h), cumulative_simpson(f, dx=h, initial=0.0))


def test_cascade_runs_once_per_k_and_tol(all_tables, monkeypatch, capsys):
    # tail_sum, the margins and iterated_integral reuse the values constants_table built
    calls = []
    cascade = buchstab._cascade
    monkeypatch.setattr(buchstab, "_cascade", lambda *args: calls.append(args) or cascade(*args))
    for k in reference.K_RANGE:
        assert tail_sum(k) == all_tables[k].C_value
    assert cli.main(["margin"]) == 0
    capsys.readouterr()
    # a single c_r reads the same table
    assert iterated_integral(16, 13) == all_tables[13].entry(16).value
    assert calls == []
    # each k runs the coarse lattice, then the fine one, once
    _converged_values.cache_clear()
    for k in (3, 14, 3, 14):
        values, _ = _converged_values(k)
    assert calls == [(3, 128), (3, 256), (14, 128), (14, 256)]
    with pytest.raises(TypeError):
        values[4] = 0.0


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


def test_two_lattice_error_is_honest():
    # the fine lattice's values lie within the reported change of a lattice 4x finer still
    for k in (3, 8, 14):
        values, err = _converged_values(k)
        assert 0 < err < buchstab.ACCURACY
        reference_values = _cascade(k, 1024)
        assert max(abs(values[r] - reference_values[r]) for r in values) <= err, k


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
