import argparse
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wgkit
from oracles import local_table_per_row, round12
from wgkit import buchstab, cli, singint
from wgkit.cli import _chunks, _flat_encoder, _write_json, main
from wgkit.reference import K_RANGE

GOLDEN = os.path.join(os.path.dirname(__file__), "..", "golden", "constants_table.csv")


def _json(text: str):
    """``text`` parsed as strict JSON: NaN, Infinity and -Infinity are not JSON."""

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_sums_command_json(capsys):
    code, out = run_cli(capsys, ["sums", "--jmax", "3", "--qmax", "40", "--ppmax", "64"])
    assert code == 0
    payload = _json(out)
    assert payload["schema_version"] == 1
    assert payload["report"]["passed"] is True


def test_sums_usage_error(capsys):
    # the sweep's own argument checks name the argument and exit 2, with no usage line
    for argv, message in ((["sums", "--qmax", "0"], "q_max must be >= 2, got 0"),
                          (["sums", "--qmax", "1"], "q_max must be >= 2, got 1"),
                          (["sums", "--qmax", "10", "--ppmax", "0"], "pp_max must be >= 2, got 0")):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_sums_refuses_sweeps_over_budget(capsys):
    # both would run for hours; the estimate refuses them before any FFT
    for argv in (["sums", "--qmax", "100000"], ["sums", "--twisted-qmax", "500"]):
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "FFT points" in captured.err
        assert elapsed < 1.0


def test_local_command(capsys):
    code, out = run_cli(capsys, ["local", "--pmax", "50", "--k", "3"])
    assert code == 0
    payload = _json(out)
    rows = payload["rows"]
    assert all(row["pass"] for row in rows)
    p2 = [row for row in rows if row["p"] == 2]
    assert p2 and p2[0]["K"] == 0  # K(2, even) = 0


def _row_text(row: dict) -> str:
    """One flat, rounded row as ``cmd_local`` lays it out: its members in braces."""
    return "\n    {\n      " + _flat_encoder(3)(row)[1:-1] + "\n    }" if row else "\n    {}"


def test_streamed_json_is_the_one_shot_dump():
    # rows are spliced in as text, a chunk of rows joined by commas at a time;
    # the text is json.dumps of the whole payload
    def written(head, rows):
        fh = io.StringIO()
        _write_json(head, fh, (",".join(map(_row_text, round12(c))) for c in _chunks(rows)))
        return fh.getvalue()

    for n in (0, 1, 255, 256, 257, 700):
        rows = [{"p": i, "E_p": i / 7, "pass": i % 3 == 0, "name": f"r,\n{i}"} for i in range(n)]
        head = {"schema_version": 1, "command": "t", "x": [1.5, {"y": None}]}
        assert written(head, rows) == json.dumps(round12({**head, "rows": rows}), indent=2) + "\n"
        # without row text the payload is dumped whole, rows and all, 8 KB a write
        fh = io.StringIO()
        _write_json({**head, "rows": rows}, fh)
        assert fh.getvalue() == json.dumps(round12({**head, "rows": rows}), indent=2) + "\n"
    # every scalar a flat row may hold, and an empty row
    rows = [
        {"n": -3, "x": 1e-300, "nan": math.nan, "inf": -math.inf, "ok": False, "none": None},
        {},
        {"s": 'é ü \u2211 "q" \\ \t \x00 \U0001f600', "big": 2**70, "y": 0.1 + 0.2},
        {},
    ]
    head = {"schema_version": 1, "command": "t"}
    assert written(head, rows) == json.dumps(round12({**head, "rows": rows}), indent=2) + "\n"


_JSON_KEYS = st.one_of(st.text(max_size=6), st.integers(-(10**20), 10**20), st.booleans(), st.none(), st.floats())
_JSON_TREES = st.recursive(
    st.one_of(
        st.floats(),  # NaN and both infinities included
        st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf, 1e-300, 0.1 + 0.2]),
        st.integers(-(2**70), 2**70),
        st.booleans(),
        st.none(),
        st.text(max_size=8),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_JSON_KEYS, inner, max_size=4),
    ),
    max_leaves=40,
)


@settings(max_examples=400)
@given(payload=st.dictionaries(_JSON_KEYS, _JSON_TREES, max_size=5))
def test_json_writer_is_the_indented_dump(payload):
    # the nesting is walked in Python and each flat dict or list is laid out by
    # json's C encoder; the bytes are those of json.dumps(..., indent=2)
    fh = io.StringIO()
    _write_json(payload, fh)
    assert fh.getvalue() == json.dumps(round12(payload), indent=2) + "\n"


def test_local_table_is_streamed(tmp_path):
    # the table is written as it is computed: it is never held whole, as rows or as text
    target = tmp_path / "local.json"
    tracemalloc.start()
    try:
        code = main(["--output", str(target), "local", "--pmax", "499", "--k", "4"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    text = target.read_text()
    assert peak < len(text)
    assert text == json.dumps(_json(text), indent=2) + "\n"
    assert len(_json(text)["rows"]) == 1 + sum(
        p for p in range(3, 500) if all(p % d for d in range(2, p))
    )


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    fmt=st.sampled_from(("json", "csv")),
    pmax=st.integers(2, 300),
    k=st.integers(3, 14),
)
@example(fmt="json", pmax=2, k=3)
@example(fmt="csv", pmax=2, k=3)
@example(fmt="json", pmax=100, k=14)
def test_local_class_bodies_equal_the_per_row_writer(fmt, pmax, k):
    # one body per class, "p" and "n_class" spliced in per residue: the bytes
    # and the exit code of a table written one row dict at a time
    argv = _argv("--format", fmt, "local", "--pmax", pmax, "--k", k)
    assert _run_in_process(argv) == local_table_per_row(fmt, pmax, k)


def test_local_k_range_usage_error(capsys):
    # the range in the message comes from K_RANGE, for --k and for a k list
    message = f"k must be in [{K_RANGE[0]}, {K_RANGE[-1]}], got 15"
    for argv in (["local", "--pmax", "50", "--k", "15"], ["singular", "--n", "40", "--k", "15"],
                 ["singint", "--k", "15"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
    # a k list is parsed by argparse, which prints its usage line and exits 2
    with pytest.raises(SystemExit) as exc:
        main(["constants", "--k", "15"])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_range_errors_come_from_the_command(capsys, tmp_path):
    # each value is checked once, by the code that uses it: exit 2, the message
    # and no usage line, before any output or --output file
    out = tmp_path / "report"
    for argv, message in (
        (["local", "--pmax", "1", "--k", "3"], "--pmax must be >= 2, got 1"),
        (["local", "--pmax", "0", "--k", "3"], "--pmax must be >= 2, got 0"),
        (["singular", "--n", "40", "--k", "3", "--pmax", "1"], "truncation bound needs p_max >= 29, got 1"),
        (["singular", "--n", "40", "--k", "14", "--d", "45823", "--pmax", "10000"],
         "d = 45823 has the prime factor 45823 above p_max = 10000"),
        (["singint", "--k", "3", "--samples", "10"], "--samples must be >= 1024, got 10"),
        (["count", "--what", "hua4", "--k", "1", "--Q", "10"], "k must be >= 2, got 1"),
        (["count", "--what", "reps", "--k", "2", "--n", "40"], "k must be >= 3, got 2"),
    ):
        assert main(["--output", str(out), *argv]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
        assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["count", "--what", "hua4", "--k", "3", "--Q", "inf"], "Q must be finite and >= 1, got inf"),
        (["count", "--what", "mixed", "--k", "4", "--P", "inf"], "P must be finite and >= 2, got inf"),
        (["count", "--what", "triple", "--k", "3", "--N", "inf"], "N must be finite and >= 2, got inf"),
        (["singint", "--k", "3", "--n-grid", "1e8,inf"], "grid points must be finite, got 1e8,inf"),
    ],
    ids=["hua4", "mixed", "triple", "singint"],
)
def test_non_finite_sizes_are_refused(argv, message, capfd):
    # an infinite box or grid point is a usage error, not an OverflowError traceback
    assert main(argv) == 2
    assert capfd.readouterr() == ("", f"error: {message}\n")


def test_singint_refuses_a_value_past_float64(capfd):
    # J(n) at k = 3 overflows float64 between n = 1e250 (1.42e303) and 1e260:
    # no Infinity or NaN is printed, and no overflow warning either
    assert main(["singint", "--k", "3", "--n-grid", "1e250,1e260"]) == 2
    assert capfd.readouterr() == ("", "error: J(n) at n = 1e+260 is not finite in float64\n")


@pytest.mark.parametrize("twisted", ["-5", "1", "2"])
def test_sums_refuses_a_twisted_bound_that_runs_no_pair(twisted, capsys):
    # the first coprime pair is (2, 3): below 3 only 0, "off", is a setting
    assert main(["sums", "--qmax", "250", "--twisted-qmax", twisted]) == 2
    assert capsys.readouterr() == ("", f"error: twisted_q_max must be 0 (off) or >= 3, got {twisted}\n")


def test_local_csv_format(capsys):
    code, out = run_cli(capsys, ["--format", "csv", "local", "--pmax", "20", "--k", "3"])
    assert code == 0
    head = out.splitlines()[0]
    assert head == "p,n_class,K,L,Lstar,E_p,bound,pass"


def test_singular_command(capsys):
    code, out = run_cli(capsys, ["singular", "--n", "40", "--k", "3", "--pmax", "200"])
    assert code == 0
    payload = _json(out)
    assert payload["value"] > 0
    assert payload["tail_bound"] > 0


def test_singular_rejects_odd_n(capsys):
    code = main(["singular", "--n", "41", "--k", "3"])
    assert code == 2


def test_constants_k3_passes(capsys):
    code, out = run_cli(capsys, ["constants", "--k", "3"])
    assert code == 0
    payload = _json(out)
    table = payload["tables"][0]
    assert table["C_within_bound"] is True
    assert all(e["pass"] for e in table["entries"])


def test_constants_fail_when_the_two_orders_disagree(monkeypatch, capsys):
    # an accuracy below k = 14's change between the series orders is a verification failure that names it
    _, change = buchstab._converged()[14]
    monkeypatch.setattr(buchstab, "ACCURACY", change / 2)
    assert main(["constants", "--k", "14"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"verification failure: c_r changes by {change:.3g} at k=14 between series orders ")


def test_the_accuracy_check_reads_only_the_asked_k(monkeypatch, capsys):
    # the one table holds every k, and constants_table checks the change of the k it is asked for:
    # an accuracy between k = 3's change and k = 14's fails k = 14, the margins and `--k all` only
    low, high = buchstab._converged()[3][1], buchstab._converged()[14][1]
    assert low < high / 2
    monkeypatch.setattr(buchstab, "ACCURACY", high / 2)
    assert main(["constants", "--k", "3"]) == 0
    assert capsys.readouterr().err == ""
    for argv in (["constants", "--k", "14"], ["constants", "--k", "3,14"], ["margin"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("verification failure: c_r changes by "), argv


def test_constants_and_margin_build_only_the_asked_form(monkeypatch, capsys):
    # a JSON run never formats the CSV text, and a CSV run never the JSON payload
    def refuse(*args):
        raise AssertionError("built a form the run does not print")

    monkeypatch.setattr(buchstab, "tables_to_csv", refuse)
    monkeypatch.setattr(cli, "_csv_cells", refuse)
    assert main(["constants", "--k", "3"]) == 0
    assert main(["margin"]) == 0
    monkeypatch.undo()
    monkeypatch.setattr(buchstab, "tables_to_json", refuse)
    assert main(["--format", "csv", "constants", "--k", "3"]) == 0
    capsys.readouterr()


def test_constants_deterministic_output(capsys):
    _, out1 = run_cli(capsys, ["constants", "--k", "3,4"])
    _, out2 = run_cli(capsys, ["constants", "--k", "3,4"])
    assert out1 == out2
    _, csv1 = run_cli(capsys, ["--format", "csv", "constants", "--k", "3,4"])
    _, csv2 = run_cli(capsys, ["--format", "csv", "constants", "--k", "3,4"])
    assert csv1 == csv2


def test_margin_command(capsys):
    code, out = run_cli(capsys, ["margin"])
    payload = _json(out)
    assert len(payload["rows"]) == 12
    assert all(row["margin"] > 0 for row in payload["rows"])
    assert all(row["pass"] for row in payload["rows"])
    assert code == 0
    # the published chain for C(k), on the computed c_r: above C(k), and still below log 2
    for row in payload["rows"]:
        assert row["paper_chain_C"] >= row["C_k"], row["k"]
        assert row["paper_chain_slack"] > 0, row["k"]
        assert row["paper_chain_slack"] == pytest.approx(math.log(2) - row["paper_chain_C"], abs=1e-12)
    slack = {row["k"]: row["paper_chain_slack"] for row in payload["rows"]}
    assert min(slack, key=slack.get) == 6 and slack[6] == pytest.approx(0.036, abs=5e-4)
    assert slack[14] == pytest.approx(0.083, abs=5e-4)  # 0.152 on the published entries


def test_count_commands(capsys):
    code, out = run_cli(capsys, ["count", "--what", "hua4", "--k", "3", "--Q", "10"])
    assert code == 0
    assert _json(out)["report"]["count"] == 190

    code, out = run_cli(capsys, ["count", "--what", "mixed", "--k", "4", "--P", "16"])
    assert code == 0
    payload = _json(out)
    assert payload["S"]["count"] == payload["S1"]["count"] + payload["S2"]["count"]

    code, out = run_cli(capsys, ["count", "--what", "reps", "--k", "3", "--n", "40"])
    assert code == 0
    assert _json(out)["report"]["count"] >= 1

    # each --what names its own size flag
    for what, flag in (("hua4", "Q"), ("mixed", "P"), ("triple", "N"), ("reps", "n")):
        assert main(["count", "--what", what, "--k", "3"]) == 2
        assert capsys.readouterr() == ("", f"error: --{flag} required for {what}\n")


def test_count_refuses_a_size_its_what_does_not_read(monkeypatch, capsys):
    # each --what reads one size flag, and reps also --r; another one given is refused before
    # any count, not dropped
    def refuse(*args):
        raise AssertionError("counted before the refusal")

    for name in ("count_hua4", "count_mixed_S", "count_admissible_triple", "count_representations"):
        monkeypatch.setattr(cli.dioph, name, refuse)
    for argv, message in (
        (["--what", "hua4", "--k", "3", "--Q", "10", "--P", "5"], "--P is not read by --what hua4, which reads --Q"),
        (["--what", "mixed", "--k", "4", "--P", "16", "--n", "40"], "--n is not read by --what mixed, which reads --P"),
        (["--what", "triple", "--k", "3", "--Q", "10"], "--Q is not read by --what triple, which reads --N"),
        (["--what", "reps", "--k", "3", "--n", "40", "--N", "1e5"], "--N is not read by --what reps, which reads --n"),
        (["--what", "hua4", "--k", "3", "--Q", "10", "--r", "7"], "--r is not read by --what hua4, which reads --Q"),
        (["--what", "mixed", "--k", "4", "--P", "16", "--r", "3"], "--r is not read by --what mixed, which reads --P"),
        (["--what", "triple", "--k", "3", "--N", "1e5", "--r", "3"], "--r is not read by --what triple, which reads --N"),
    ):
        assert main(["count", *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_count_reps_reads_no_r_as_3(capsys):
    argv = ["count", "--what", "reps", "--k", "3", "--n", "10000"]
    assert run_cli(capsys, argv) == run_cli(capsys, [*argv, "--r", "3"])
    assert run_cli(capsys, argv) != run_cli(capsys, [*argv, "--r", "1"])


def test_margin_csv_is_its_json_rows(capsys):
    # a header of the row keys, then one line per row whose cells are that row's values
    rows = _json(run_cli(capsys, ["margin"])[1])["rows"]
    code, out = run_cli(capsys, ["--format", "csv", "margin"])
    assert code == 0
    header, *lines = out.splitlines()
    assert header == ",".join(rows[0]) == "k,C_k,margin,reference_C_bound,pass,paper_chain_C,paper_chain_slack"
    assert len(lines) == len(rows) == 12
    for line, row in zip(lines, rows):
        cells = line.split(",")
        assert len(cells) == len(row)
        for cell, v in zip(cells, row.values()):
            assert cell == str(v) if isinstance(v, bool) else type(v)(cell) == v


@pytest.mark.parametrize(
    "argv",
    [
        ["sums", "--jmax", "3", "--qmax", "20", "--ppmax", "32"],
        ["singular", "--n", "40", "--k", "3", "--pmax", "50"],
        ["count", "--what", "reps", "--k", "3", "--n", "100000000", "--r", "3"],
        ["singint", "--k", "3", "--n-grid", "1e8,1e9"],
    ],
    ids=lambda argv: argv[0],
)
def test_csv_is_refused_before_a_command_without_it_runs(argv, tmp_path, monkeypatch, capsys):
    # only local, constants and margin have a CSV form; any other command never starts
    ran = []
    monkeypatch.setattr(cli, f"cmd_{argv[0]}", lambda args: ran.append(args) or 0)
    assert main(["--format", "csv", *argv]) == 2
    assert capsys.readouterr() == ("", "error: this command has no CSV form\n")
    target = tmp_path / "out.csv"
    assert main(["--output", str(target), "--format", "csv", *argv]) == 2
    assert capsys.readouterr() == ("", "error: this command has no CSV form\n")
    assert not target.exists()
    assert ran == []


def test_count_refuses_oversize_boxes_before_building_them(capsys):
    # each box holds 10^12 integers or more; the budget is checked on its size alone
    for argv in (
        ["count", "--what", "hua4", "--k", "3", "--Q", "1e12"],
        ["count", "--what", "mixed", "--k", "4", "--P", "1e12"],
        ["count", "--what", "triple", "--k", "3", "--N", "1e30"],
    ):
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "budget" in captured.err
        assert peak < 2**20, (argv, peak)


def test_local_row_budget(capsys, tmp_path):
    # --pmax 10^12 is refused on its size alone, before any prime table is built
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code = main(["local", "--pmax", str(10**12), "--k", "3"])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "budget" in captured.err
    assert elapsed < 1.0 and peak < 2**20, (elapsed, peak)
    # 301,611 rows are one too many; 299,524 rows are a table
    assert main(["local", "--pmax", "2087", "--k", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "301611 rows" in captured.err
    out = tmp_path / "local.csv"
    assert main(["--format", "csv", "--output", str(out), "local", "--pmax", "2086", "--k", "3"]) == 0
    with open(out) as fh:
        assert sum(1 for _ in fh) == 1 + 299_524


def test_singular_pmax_budget(capsys):
    # the tail envelope would sieve to 10 p_max: the budget refuses it first
    start = time.perf_counter()
    code = main(["singular", "--n", "40", "--k", "3", "--pmax", "100001"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "budget" in captured.err
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "argv",
    [
        ["constants", "--k", "all"],  # 186 KB of JSON with no rows, 8 KB a write; its own status is 1
        ["local", "--pmax", "300", "--k", "4"],  # a 1.6 MB table, 256 rows a write
    ],
    ids=["constants", "local"],
)
def test_closed_stdout_ends_quietly_with_sigpipe_status(argv):
    # the reader takes one line and leaves: no traceback, and the shell's status for SIGPIPE.
    # Both outputs outlast the pipe's buffer, so writes start after the reader left
    src = os.path.dirname(os.path.dirname(wgkit.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "wgkit.cli", *argv],
        env={**os.environ, "PYTHONPATH": path},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (141, b"")


def test_singint_refuses_a_degenerate_grid(capfd):
    # a point below 2, or one point repeated, is refused before the fit; a zero mantissa or a
    # tiny value under a huge exponent on its float, before the exact parse computes 10**exponent
    for grid in ("0,1e8", "-5,1e8", "1e8,1e8", "0e999999999,1e9", "1e-999999999,1e9", "1e8,1.5e-3"):
        start = time.perf_counter()
        code = main(["singint", "--k", "3", f"--n-grid={grid}"])
        assert time.perf_counter() - start < 0.5, grid
        captured = capfd.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "grid points" in captured.err
        assert "DLASCL" not in captured.err


def test_singint_refuses_an_odd_grid_point(capfd, monkeypatch):
    # the grid point is not moved to n + 1, and the fit refuses it before the quadrature of any point
    def refuse(*args):
        raise AssertionError("integrated a grid point before the refusal")

    monkeypatch.setattr(singint, "_quadrature", refuse)
    for grid in ("1e8,100000001", "1e8,1e9,100000001"):
        assert main(["singint", "--k", "3", "--n-grid", grid]) == 2
        assert capfd.readouterr() == ("", "error: n must be even, got 100000001\n")
    # each point is read exactly: an odd point past 2^53 is not rounded to an even float
    assert main(["singint", "--k", "3", "--n-grid", "10000000000000001,1e9"]) == 2
    assert capfd.readouterr() == ("", "error: n must be even, got 10000000000000001\n")


def test_singint_refuses_a_grid_point_that_is_not_an_integer(capfd, monkeypatch):
    # a fractional point is refused before any quadrature, not truncated to the integer below it
    def refuse(*args):
        raise AssertionError("integrated a grid point before the refusal")

    monkeypatch.setattr(singint, "_quadrature", refuse)
    for grid in ("100000000.7,1e9", "1e8,1.0000005e2", "1e8,2.5"):
        assert main(["singint", "--k", "3", "--n-grid", grid]) == 2
        assert capfd.readouterr() == ("", f"error: grid points must be integers, got {grid}\n")


def test_singint_command_deterministic(capsys):
    argv = [
        "singint",
        "--k",
        "3",
        "--n-grid",
        "1e6,1e7,1e8",
        "--samples",
        "65536",
        "--seed",
        "11",
        "--slope-tol",
        "0.2",
    ]
    code1, out1 = run_cli(capsys, argv)
    code2, out2 = run_cli(capsys, argv)
    assert out1 == out2
    assert code1 == code2 == 0
    payload = _json(out1)
    assert abs(payload["slope"] - payload["expected_exponent"]) < 0.2


def test_golden_constants_table(capsys):
    """The committed golden CSV must be byte-identical to a fresh run."""
    _, out = run_cli(capsys, ["--format", "csv", "constants", "--k", "all"])
    with open(GOLDEN, "r", newline="") as fh:
        golden = fh.read()
    assert out == golden


def test_output_file_writing(tmp_path, capsys):
    target = tmp_path / "out.json"
    code = main(["--output", str(target), "constants", "--k", "3"])
    assert code == 0
    payload = _json(target.read_text())
    assert payload["tables"][0]["k"] == 3


def test_output_path_that_cannot_be_opened(tmp_path):
    # a usage error: exit 2 and the reason, no traceback, no file
    target = tmp_path / "missing" / "out.json"
    src = os.path.dirname(os.path.dirname(wgkit.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "wgkit.cli", "--output", str(target), "margin"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and str(target) in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not target.parent.exists()


def test_output_directory_is_checked_before_the_work(tmp_path, monkeypatch, capsys):
    # a missing directory is refused before the command runs, with the error open would give
    def refuse(*args):
        raise AssertionError("ran the command before refusing its output")

    monkeypatch.setattr(buchstab, "constants_table", refuse)
    target = tmp_path / "missing" / "x.json"
    assert main(["--output", str(target), "constants", "--k", "all"]) == 2
    assert capsys.readouterr() == ("", f"error: [Errno 2] No such file or directory: {str(target)!r}\n")
    assert not target.parent.exists()
    # a path the open refuses for another reason, here a directory, is refused when the report is written
    monkeypatch.undo()
    assert main(["--output", str(tmp_path), "constants", "--k", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: [Errno 21] Is a directory: ")
    assert list(tmp_path.iterdir()) == []


_SCIPY_PROBE = """
import contextlib, io, sys
import wgkit.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

print(scipy_modules())
with contextlib.redirect_stdout(io.StringIO()):
    for argv in %r:
        wgkit.cli.main(argv)
print(scipy_modules())
"""


def test_no_command_loads_scipy():
    # scipy is a test dependency only: neither importing the CLI nor running a command loads it
    commands = [
        ["constants", "--k", "3"],
        ["margin"],
        ["local", "--pmax", "20", "--k", "4"],
        ["sums", "--jmax", "3", "--qmax", "20", "--ppmax", "32"],
        ["singular", "--n", "40", "--k", "3", "--pmax", "50"],
        ["count", "--what", "hua4", "--k", "3", "--Q", "50"],
        ["singint", "--n-grid", "1e8,1e9", "--k", "3"],
    ]
    src = os.path.dirname(os.path.dirname(wgkit.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE % (commands,)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"]


def _argv(*tokens):
    return [str(t) for t in tokens]


# every settable value of each subcommand ("" for the global ones) and its
# default, "required" for one that has none: defaults shape stdout, so adding
# an option, dropping one or changing a default is done here on purpose
_SETTABLE = {
    "": {"--format": "json", "--output": None},
    "sums": {"--jmax": 14, "--qmax": 499, "--ppmax": 10**4, "--twisted-qmax": 0},
    "local": {"--pmax": 499, "--k": "required"},
    "singular": {"--n": "required", "--k": "required", "--d": 1, "--pmax": 10**4},
    "constants": {"--k": "all"},
    "margin": {},
    "count": {"--what": "required", "--k": "required", "--Q": None, "--P": None, "--N": None, "--n": None, "--r": None},
    "singint": {"--n-grid": "1e8,1e9,1e10,1e11", "--k": "required", "--samples": 10**7, "--seed": 0,
                "--slope-tol": 0.03},
}


def test_settable_values_and_defaults_are_pinned():
    def settable(parser):
        return {a.option_strings[-1]: "required" if a.required else a.default
                for a in parser._actions if a.option_strings and a.dest != "help"}

    ap = cli.build_parser()
    (commands,) = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
    found = {"": settable(ap), **{name: settable(p) for name, p in commands.choices.items()}}
    assert found == _SETTABLE
    assert sum(map(len, found.values())) == 25


_SMALL_ARGS = {
    "sums": st.builds(
        lambda j, q, pp, t: _argv("sums", "--jmax", j, "--qmax", q, "--ppmax", pp, "--twisted-qmax", t),
        st.integers(2, 5), st.integers(2, 40), st.integers(2, 200), st.sampled_from([0, *range(3, 9)]),
    ),
    "local": st.builds(
        lambda pmax, k: _argv("local", "--pmax", pmax, "--k", k),
        st.integers(2, 40), st.integers(3, 14),
    ),
    "singular": st.builds(
        lambda n, k, pmax: _argv("singular", "--n", 2 * n, "--k", k, "--pmax", pmax),
        st.integers(2, 10**6), st.integers(3, 14), st.integers(2, 300),
    ),
    "count": st.one_of(
        st.builds(lambda k, Q: _argv("count", "--what", "hua4", "--k", k, "--Q", Q),
                  st.integers(2, 6), st.integers(2, 40)),
        st.builds(lambda k, P: _argv("count", "--what", "mixed", "--k", k, "--P", P),
                  st.integers(3, 6), st.integers(4, 24)),
        st.builds(lambda N: _argv("count", "--what", "triple", "--k", 3, "--N", N),
                  st.integers(100, 10**5)),
        st.builds(lambda n: _argv("count", "--what", "reps", "--k", 3, "--n", n, "--r", 3),
                  st.integers(10, 2000)),
    ),
}


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("command", sorted(_SMALL_ARGS))
@settings(max_examples=3, deadline=None, derandomize=True)
@given(data=st.data())
def test_cli_stdout_is_byte_deterministic(command, data):
    # two runs in this process (warm caches) and one fresh interpreter print the same bytes
    argv = data.draw(_SMALL_ARGS[command])
    code1, out1 = _run_in_process(argv)
    code2, out2 = _run_in_process(argv)
    src = os.path.dirname(os.path.dirname(wgkit.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "wgkit.cli", *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
    )
    assert out1 == out2
    assert proc.stdout == out1.encode()
    assert code1 == code2 == proc.returncode
    if out1:
        _json(out1)


# (exit code, sha256 of stdout): any change to these outputs is a change of the
# program's reports, to be named in CHANGES.md with the new digest
_STDOUT_DIGESTS = {
    "margin": (0, "15e0559a1a3e534fa6530e67db795cb9664df0c506d71ed72ebe697c9df7aed8"),
    "--format csv margin": (0, "94762b055e124d4b7c352464af72d294b0c0ba7051f445f444766ef8190d9dcc"),
    "constants --k 3,4": (0, "d1cf2497d999cfe5f355358ee0430b755f3c04f575e8f2eddb86d8be3071a683"),
    "--format csv constants --k 3,4": (0, "cb22c3666f99c828698777d363361333e6a3be111527e9de510bd68d72160539"),
    # the verify workload's sizes; every k exits 1 on criterion 1's five entries
    "constants --k all": (1, "fb38a648689144af401f03861c0ae921b76cec2ca527ab7dce404a3015a1aa81"),
    "--format csv constants --k all": (1, "360f4f716cdefe8503019924056c8475eaa8ee5fe9a7cdb64d623183e8736feb"),
    "sums --qmax 250 --ppmax 2500": (0, "2ef043fe0a3991fc4be20b332dc5aab2445b164f648289e16ec70aa9e5496068"),
    "local --pmax 60 --k 4": (0, "1c73a465535fc1f35aa4229064f15374fa378ebeb8638399e4c1a38977ff6964"),
    # k = 7 has G = 42 at p = 43, 127, 211, 337, 379, 421 and 463: the widest class maps
    "local --pmax 500 --k 7": (0, "1092491da9586af90cfb38ee1ba701074d2d6760449c2b83e4c22c0c576bb079"),
    # its primes span both integer widths of the class-count engine (int64 to 5399)
    "singular --n 2328004 --k 14 --pmax 6000": (
        0, "ac4ea07116d14c87267be4a21a1477a1f4815af11b7a1aad174d58f12c6d6308"
    ),
    "--format csv local --pmax 50 --k 3": (
        0, "3acf6e1b9acf85dc8247886992eca005420c2030cd28ee9e595dce14fcf69b12"
    ),
    "count --what hua4 --k 3 --Q 200": (0, "9144375a133d0a80e111e2b644529fdf4907fb6194c603ad6a6525194aa31cd2"),
    "count --what mixed --k 4 --P 64": (0, "5cf99110129a79c3c0142a2f13398b50d751ba1aac7ff71bc82085d943e357d3"),
    "count --what triple --k 3 --N 1e5": (0, "2b6ccc055b4085f0226c09b286b385f4ab70840d17956680b354947eba5864d1"),
    "count --what reps --k 3 --n 10000 --r 3": (
        0, "b5411b3b640fc65ae9fe0c78ac2841b4a9c162a2013d256996c0bc76a9753b5f"
    ),
    "singint --k 3 --n-grid 1e8,1e11": (0, "8e8545a8157fce6fe13175a50bb4a55425b5b563b608729f44b570288ec41c52"),
}


@pytest.mark.parametrize("command", list(_STDOUT_DIGESTS))
def test_stdout_digests_are_pinned(command):
    code, out = _run_in_process(command.split())
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == _STDOUT_DIGESTS[command]
    if not command.startswith("--format csv"):
        _json(out)
