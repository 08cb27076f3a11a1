"""wgkit benchmark: closed-loop verification sessions, measured end to end.

    python3 bench/run.py --workload verify --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  Workloads are defined in ``workloads.py``:
``verify`` and ``sieve``.  The launcher starts one fresh,
single-threaded worker process per session (``worker.py``), so every lru
cache starts cold the way it does for a CLI call, and keeps starting sessions
for about ``--seconds``.  Every operation's result is checked; an
operation that raises or returns a wrong result counts in ``failed``.

With ``--trace 0`` the end-to-end metrics are reported:

  setup_s       process start to the first operation being ready
                (interpreter, numpy, scipy and wgkit imports); median over
                the run's sessions
  wall_s        first operation to the last result of a session; mean over
                the run's sessions
  peak_rss_mb   peak resident memory of a session's worker; median over the
                run's sessions

On a shared host the same session on the same inputs takes from 2.6 s to
5.0 s depending on the moment, in phases lasting tens of seconds (2-core VM).
A run spans about a minute, and ``wall_s`` is the mean so that every second
of it weighs the same: a run has only 5 to 12 sessions, and their median
follows whichever phase held most of them.  Over six sets of ten 55 s runs
(three per workload) the quartile spread of the run means averaged 12% of
their median, that of the run medians 14%.

With ``--trace 1`` sessions alternate untraced and traced on the same inputs,
and the per-layer metrics of ``tracer.py`` are reported: counts from the
traced sessions (they must repeat exactly), self-time shares and rates as
medians, and the tracing overhead as traced minus untraced ``wall_s``.

Before the result, the launcher prints the environment (nproc, Python, numpy
and scipy versions, git sha, load average) and the per-command times
``op.<command>_s`` as JSON lines.  The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKER = HERE / "worker.py"
# every run must end within this many seconds, whatever --seconds asks for
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    # compile wgkit afresh in every worker, so set-up time does not depend on
    # bytecode left behind by an earlier run
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_session(workload: str, seed: int, trace: bool, tiny: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace))]
    if tiny:
        cmd.append("--tiny")
    spawned = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode} and no result")
    session = json.loads(proc.stdout.strip().splitlines()[-1])
    session["setup_s"] = session["ready"] - spawned
    return session


def run_sessions(args) -> list[dict]:
    """Sessions for --seconds; in trace mode, untraced/traced pairs.

    A new round starts only if half of one as long as the last still fits
    in --seconds, so a run ends within half a round of --seconds.
    """
    sessions = []
    start = time.monotonic()
    pattern = (False, True) if args.trace else (False,)
    last_round = 0.0
    while not sessions or time.monotonic() - start + last_round / 2 <= args.seconds:
        round_start = time.monotonic()
        for trace in pattern:
            left = RUN_LIMIT_S - (time.monotonic() - start)
            sessions.append(run_session(args.workload, args.seed, trace, args.tiny, left))
        last_round = time.monotonic() - round_start
    return sessions


def op_times(sessions) -> dict:
    """Per command, the median over sessions of the session's time in it."""
    by_name: dict[str, list[float]] = {}
    for s in sessions:
        totals: dict[str, float] = {}
        for op in s["ops"]:
            totals[op["name"]] = totals.get(op["name"], 0.0) + op["seconds"]
        for name, seconds in totals.items():
            by_name.setdefault(name, []).append(seconds)
    return {
        f"op.{name}_s": {"value": statistics.median(v), "unit": "s", "samples": len(v)}
        for name, v in sorted(by_name.items())
    }


def layer_metrics(untraced, traced) -> tuple[dict, list[str]]:
    """Per-layer metrics; counts must repeat exactly across traced sessions."""
    problems = []
    out = {}
    for name, first in traced[0]["layers"].items():
        values = [s["layers"][name]["value"] for s in traced]
        if first["unit"] == "count":
            if any(v != first["value"] for v in values):
                problems.append(f"{name} differs between traced sessions: {values}")
            value = first["value"]
        else:
            value = statistics.median(values)
        out[name] = {"value": value, "unit": first["unit"]}
    overhead = statistics.mean(s["wall_s"] for s in traced) - statistics.mean(
        s["wall_s"] for s in untraced
    )
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return out, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="wgkit benchmark launcher")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="toy sizes, for the smoke test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "wgkit" / "__init__.py").is_file():
        print(f"error: no wgkit source under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    try:
        sessions = run_sessions(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    untraced = [s for s in sessions if s["layers"] is None]
    traced = [s for s in sessions if s["layers"] is not None]
    ops = [op for s in sessions for op in s["ops"]]
    failures = [op for op in ops if op["problems"]]
    for op in failures:
        print(f"FAILED {op['key']}: {'; '.join(op['problems'][:5])}", file=sys.stderr)

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "sessions": len(sessions),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **sessions[0]["versions"],
        "git_sha": git_sha(),
        "loadavg": os.getloadavg(),
    }
    print(json.dumps({"env": env}))
    print(json.dumps({"ops": op_times(untraced)}))
    print(json.dumps({"sessions": [
        {k: s[k] for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")} | {"traced": s["layers"] is not None}
        for s in sessions
    ]}))

    if args.trace:
        metrics, problems = layer_metrics(untraced, traced)
        for p in problems:
            print(f"NOT REPEATABLE {p}", file=sys.stderr)
    else:
        problems = []
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in untraced),
            "wall_s": statistics.mean(s["wall_s"] for s in untraced),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in untraced),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
