"""One verification session in a fresh process.

    python3 bench/worker.py --workload verify --seed 0 --trace 0 [--tiny]

Runs the session's operations in order, each only after the previous one has
returned.  CLI operations go through ``wgkit.cli.main(argv)`` in-process with
stdout captured; sieve targets call ``sieveconsts`` directly, as no CLI
command covers them.  After the last operation the outputs are parsed and
checked (untimed, untraced) and one JSON line is printed.  The ``ready`` timestamp
(``time.time()`` once every import is done) lets the launcher measure set-up
time from process start.

The launcher sets ``PYTHONPATH`` to the checkout's ``src`` and the BLAS/OpenMP
thread caps before this process starts, so they apply before numpy loads.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np
import scipy
import wgkit
import wgkit.cli
from wgkit import sieveconsts

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def execute(op) -> dict:
    """Run one operation; CLI operations return their exit code and stdout."""
    if op.kind == "sieve":
        n, k, z = op.args
        D = float(z) ** 3  # s = log D / log z = 3
        return {
            "W": sieveconsts.sieve_product(n, k, z),
            "lower": sieveconsts.sieve_window_value(n, k, z, D, "lower"),
            "upper": sieveconsts.sieve_window_value(n, k, z, D, "upper"),
        }
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            rc = wgkit.cli.main(list(op.args))
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
    return {"rc": rc, "stdout": out.getvalue()}


def parse(op, raw: dict) -> dict:
    """The result the checks read: CLI stdout parsed into ``payload``."""
    if op.kind == "sieve":
        return raw
    return {"rc": raw["rc"], "payload": json.loads(raw["stdout"]) if raw["rc"] in (0, 1) else None}


def run_op(op) -> dict:
    """Run one operation and parse its result."""
    return parse(op, execute(op))


def run_session(ops, tracer: Tracer | None = None) -> dict:
    """Run ``ops`` as one closed-loop session, then check every result."""
    results, times = [], []
    if tracer is not None:
        tracer.install()
    try:
        t0, c0 = time.perf_counter(), time.process_time()
        for op in ops:
            start = time.perf_counter()
            try:
                results.append(execute(op))
            except Exception as exc:  # a failed operation is counted, not fatal
                results.append(exc)
            times.append(time.perf_counter() - start)
        wall_s = time.perf_counter() - t0
        cpu_s = time.process_time() - c0
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # before the checks, which call into wgkit themselves
    layers = tracer.metrics(wall_s) if tracer is not None else None
    reference = checks.load_reference()
    records = []
    for op, result, seconds in zip(ops, results, times):
        if isinstance(result, Exception):
            problems = [f"raised {type(result).__name__}: {result}"]
        else:
            try:
                problems = checks.check(op, parse(op, result), reference)
            except ValueError as exc:  # output that is not JSON
                problems = [f"unreadable output: {exc}"]
        records.append({"name": op.name, "key": op.key, "seconds": seconds, "problems": problems})
    return {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "ops": records,
        "layers": layers,
    }


def _check_source() -> None:
    """Refuse to measure a wgkit that is not the checkout's own source."""
    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(wgkit.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"wgkit imported from {wgkit.__file__}, not from {src}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    _check_source()
    ready = time.time()
    ops = workloads.build(args.workload, args.seed, tiny=args.tiny)
    session = run_session(ops, Tracer() if args.trace else None)
    session["ready"] = ready
    session["versions"] = {"numpy": np.__version__, "scipy": scipy.__version__}
    print(json.dumps(session))
    return 0


if __name__ == "__main__":
    sys.exit(main())
