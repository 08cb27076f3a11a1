"""The benchmark's own tests.

    PYTHONPATH=src python3 -m pytest bench/tests -q

Runs from the repository root.  The smoke runs use toy sizes (``--tiny``).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "bench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    per_session = len(workloads.build(workload, 0, tiny=True))
    assert result["attempted"] % per_session == 0
    assert result["attempted"] >= per_session * (1 + trace)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_count_is_counted_as_failed(monkeypatch):
    original = worker.parse

    def off_by_one(op, raw):
        result = original(op, raw)
        if "hua4" in op.key:
            result["payload"]["report"]["count"] += 1
        return result

    monkeypatch.setattr(worker, "parse", off_by_one)
    session = worker.run_session(workloads.build("verify", 0, tiny=True))
    failed = [op["key"] for op in session["ops"] if op["problems"]]
    assert len(failed) == 1 and "hua4" in failed[0]


def test_constants_exit_code_and_failing_rows_are_checked():
    op = workloads.Op("cli", "constants", ("constants", "--k", "13,14"))
    result = worker.run_op(op)
    assert result["rc"] == 1
    assert checks.check(op, result, {}) == []
    assert checks.check(op, {**result, "rc": 0}, {})
    entry = result["payload"]["tables"][0]["entries"][0]
    entry["pass"] = False
    assert checks.check(op, result, {})


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.iterdir():
        if path.is_file():
            (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = run_bench("sieve", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
