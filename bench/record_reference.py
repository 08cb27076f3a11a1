"""Record the reference values the checks compare against.

    PYTHONPATH=src python3 bench/record_reference.py

Runs every operation of every workload at the default seed, at full and tiny
size, checks it against the invariants and the independent paths, and writes
the values that ``checks.summarize`` extracts to ``reference.json``.  Run it
only when a change to the program's results is intended and explained;
the benchmark then pins the new values.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import workloads  # noqa: E402
from worker import run_op  # noqa: E402

DEFAULT_SEED = 0


def main() -> int:
    reference = {}
    for name in workloads.WORKLOADS:
        for tiny in (False, True):
            for op in workloads.build(name, DEFAULT_SEED, tiny=tiny):
                result = run_op(op)
                problems = checks.check(op, result, {})
                if problems:
                    print(f"{op.key}: {problems}", file=sys.stderr)
                    return 1
                reference[op.key] = checks.summarize(op, result)
                print(f"recorded {op.key}", file=sys.stderr)
    with open(checks.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
