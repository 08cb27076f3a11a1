"""Command-line surface: machine-readable reports over every verification layer.

Every command is deterministic given its arguments and seed; JSON numbers are
rounded to 12 significant digits and CSV uses '.' decimals, so repeated runs
are byte-identical.  Exit codes: 0 all checks pass, 1 a mathematical check
failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import functools
import itertools
import json
import math
import os
import sys

from . import buchstab, dioph, expsums, localdensity, reference, sieveconsts, singint, singular
from .arith import primes_up_to
from .errors import BudgetExceeded, VerificationError

SCHEMA_VERSION = 1

# the commands with a CSV form; `--format csv` on any other is refused before it runs
CSV_COMMANDS = ("local", "constants", "margin")

# rows of one `local` table, one per prime p and residue n: `local --pmax 2000` has 277,049
LOCAL_ROW_BUDGET = 3 * 10**5

# the primes whose Euler factors `singular` lists in its "factors_head"
FACTORS_HEAD_P_MAX = 100


def _round12(obj):
    """A scalar, or the members of a flat dict or list, each float rounded to 12 significant digits."""
    if isinstance(obj, dict):
        return {k: float(f"{v:.12g}") if isinstance(v, float) else v for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [float(f"{v:.12g}") if isinstance(v, float) else v for v in obj]
    return float(f"{obj:.12g}") if isinstance(obj, float) else obj


def _emit(report, fmt: str, output: str | None, rows=None) -> None:
    """Write a report: for JSON its payload dict, for CSV its text as an iterable of pieces.

    A command builds only the form ``fmt`` asks for.  ``rows``, given only by
    a command that formats its own table, is the JSON text of the payload's
    rows a chunk at a time (``_write_json`` says how it is laid out).  Only
    the commands in ``CSV_COMMANDS`` are run with CSV.  An ``output`` that
    cannot be opened is a usage error, a ValueError; ``main`` refuses one
    whose directory does not exist before the command runs.
    """
    try:
        target = open(output, "w") if output else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        raise ValueError(str(exc)) from None
    with target as fh:
        if fmt == "csv":
            fh.writelines(report)
        else:
            _write_json({"schema_version": SCHEMA_VERSION, **report}, fh, rows)


def _check_output_dir(output: str) -> None:
    """Refuse an ``output`` whose directory does not exist with the error ``open`` would raise."""
    parent = os.path.dirname(output) or os.curdir
    if not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
        raise ValueError(str(OSError(code, os.strerror(code), output)))


def _pieces(text: str):
    """``text`` in pieces of 8 KB, as tables are written a chunk at a time.

    A write into a pipe whose reader left raises BrokenPipeError only if it
    starts after the reader left; one large write may end short, silently.
    """
    return (text[i : i + 8192] for i in range(0, len(text), 8192))


def _chunks(rows):
    """Lists of up to 256 consecutive rows: a table is formatted a chunk at a time."""
    rows = iter(rows)
    while chunk := list(itertools.islice(rows, 256)):
        yield chunk


_CONTAINERS = (dict, list, tuple)


@functools.cache
def _flat_encoder(depth: int):
    """json's C encoder, its members one per line at ``depth`` levels of indent 2.

    On a flat dict or list, or a scalar, it gives the text of
    ``json.dumps(..., indent=2)`` at that depth without the line breaks after
    the opening and before the closing bracket.  The C encoder ignores indent,
    so the item separator carries it.
    """
    encode = json.encoder.c_make_encoder(
        None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
        None, ": ", ",\n" + "  " * depth, False, False, True,
    )
    return lambda obj: "".join(encode(obj, 0))


def _dumps_indented(obj, depth: int = 0) -> str:
    """``json.dumps(obj, indent=2)`` for obj ``depth`` levels deep, every float rounded by ``_round12``.

    The nesting is walked here, once, and each flat dict or list is rounded
    and goes to json's C encoder whole.
    """
    if not isinstance(obj, _CONTAINERS) or not obj:
        return _flat_encoder(depth)(_round12(obj))
    is_dict = isinstance(obj, dict)
    pad = "\n" + "  " * (depth + 1)
    if any(isinstance(v, _CONTAINERS) for v in (obj.values() if is_dict else obj)):
        if is_dict:
            members = [f"{_member_key(key)}: {_dumps_indented(v, depth + 1)}" for key, v in obj.items()]
        else:
            members = [_dumps_indented(v, depth + 1) for v in obj]
        inner = ("," + pad).join(members)
    else:
        inner = _flat_encoder(depth + 1)(_round12(obj))[1:-1]
    opening, closing = "{}" if is_dict else "[]"
    return opening + pad + inner + "\n" + "  " * depth + closing


def _member_key(key) -> str:
    """A dict key as ``json.dumps`` writes it: a non-string key of a scalar type as its value's text."""
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
        key = json.dumps(key)
    return json.encoder.encode_basestring_ascii(key)


def _write_json(payload: dict, fh, rows=None) -> None:
    """The text of ``json.dumps(payload, indent=2)`` and a newline, in pieces, floats rounded by ``_round12``.

    ``rows``, when given, is the payload's "rows", a last key absent from
    ``payload``, as text a chunk at a time: each flat, rounded row laid out as
    ``json.dumps(..., indent=2)`` lays it out inside the rows, and the rows of
    a chunk joined by commas.
    """
    text = _dumps_indented(payload)
    if rows is None:
        fh.writelines(_pieces(text + "\n"))
        return
    fh.write(text[:-2] + ',\n  "rows": [')
    sep = ""
    for chunk in rows:
        fh.write(sep + chunk)
        sep = ","
    fh.write("\n  ]\n}\n" if sep else "]\n}\n")


def _csv_cells(values) -> str:
    """One CSV line's cells: floats to 12 significant digits, anything else as ``str``."""
    return ",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in values)


def _parse_k_list(raw: str) -> list[int]:
    if raw == "all":
        return list(reference.K_RANGE)
    try:
        ks = [int(tok) for tok in raw.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad k list: {raw!r}")
    for k in ks:
        try:
            reference.check_k(k)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    return ks


def cmd_sums(args) -> int:
    rep = expsums.verify_bounds(
        j_max=args.jmax, q_max=args.qmax, pp_max=args.ppmax, twisted_q_max=args.twisted_qmax
    )
    _emit({"command": "sums", "report": rep.as_dict()}, args.format, args.output)
    return 0 if rep.passed else 1


def _local_classes(cc: localdensity.ClassCounts, k: int, fmt: str) -> tuple[list[str], list[bool]]:
    """The row body after "p" and "n_class", and the row check, per class of n at cc.p.

    Column c of ``cc`` is class c: the body holds K, L, L*, E_p, its bound and
    the check, as JSON members or CSV cells, formatted once for all the
    residues of the class.
    """
    p = cc.p
    bound = localdensity.ep_bound(p, k)
    bodies, passes = [], []
    for K, L, Lstar, ep in zip(cc.K, cc.L, cc.Lstar, cc.E_p):
        ok = abs(ep) <= bound and L > K and Lstar > 0 and (abs(ep) < (p - 1) ** 6 if p >= 19 else True)
        body = {"K": K, "L": L, "Lstar": Lstar, "E_p": float(ep), "bound": float(bound), "pass": ok}
        bodies.append(_csv_cells(body.values()) if fmt == "csv" else _flat_encoder(3)(_round12(body))[1:-1])
        passes.append(ok)
    return bodies, passes


def cmd_local(args) -> int:
    if args.pmax < 2:
        raise ValueError(f"--pmax must be >= 2, got {args.pmax}")
    if args.pmax > 2 * LOCAL_ROW_BUDGET:
        # a prime in (pmax/2, pmax] (Bertrand) alone has over pmax/2 rows: refused before any sieve
        raise BudgetExceeded(
            f"local table would hold over {args.pmax // 2} rows, over the {LOCAL_ROW_BUDGET}-row budget"
        )
    primes = primes_up_to(args.pmax)
    # one row per residue n mod p, and only the even n = 0 at p = 2 (the form represents even n)
    n_rows = sum(primes) - 1
    if n_rows > LOCAL_ROW_BUDGET:
        raise BudgetExceeded(f"local table would hold {n_rows} rows, over the {LOCAL_ROW_BUDGET}-row budget")
    csv = args.format == "csv"
    failed = False
    # every class body before the first row is written: made while the text
    # grows, the engine's cache entries kept the freed text's pages resident
    counts = localdensity.class_counts_many(primes, args.k)
    classes = [_local_classes(cc, args.k, args.format) for cc in counts]

    def rows():
        # each residue's row is "p", "n_class" spliced in front of its class's body
        nonlocal failed
        for p, cc, (bodies, passes) in zip(primes, counts, classes):
            cols = cc.classes[: 1 if p == 2 else p].tolist()
            failed = failed or not all(passes[c] for c in set(cols))
            if csv:
                yield from (f"{p},{n},{bodies[c]}\n" for n, c in enumerate(cols))
            else:
                yield from (f'\n    {{\n      "p": {p},\n      "n_class": {n},\n      {bodies[c]}\n    }}'
                            for n, c in enumerate(cols))

    chunks = ("".join(c) if csv else ",".join(c) for c in _chunks(rows()))
    if csv:
        _emit(itertools.chain(["p,n_class,K,L,Lstar,E_p,bound,pass\n"], chunks), args.format, args.output)
    else:
        _emit({"command": "local", "k": args.k, "pmax": args.pmax}, args.format, args.output, rows=chunks)
    return 1 if failed else 0


def cmd_singular(args) -> int:
    ev = singular.singular_series(args.n, args.d, args.k, p_max=args.pmax)
    payload = {
        "command": "singular",
        "n": ev.n,
        "d": ev.d.value,
        "k": ev.k,
        "p_max": ev.p_max,
        "value": ev.value,
        "tail_bound": ev.tail_bound,
        "factors_head": [
            {"p": f.p, "value": f.value} for f in ev.factors if f.p <= FACTORS_HEAD_P_MAX
        ],
    }
    _emit(payload, args.format, args.output)
    return 0


def cmd_constants(args) -> int:
    tables = [buchstab.constants_table(k) for k in args.k]
    if args.format == "csv":
        report = _pieces(buchstab.tables_to_csv(tables))
    else:
        report = {"command": "constants", **buchstab.tables_to_json(tables)}
    _emit(report, args.format, args.output)
    ok = all(t.all_within_bounds and t.C_value <= reference.C_BOUNDS[t.k] for t in tables)
    return 0 if ok else 1


def cmd_margin(args) -> int:
    rows = []
    for k in reference.K_RANGE:
        t = buchstab.constants_table(k)
        c_k = t.C_value
        margin = sieveconsts.main_term_margin(k, c_k)
        chain = buchstab.paper_chain(t)
        rows.append(
            {
                "k": k,
                "C_k": float(c_k),
                "margin": float(margin),
                "reference_C_bound": reference.C_BOUNDS[k],
                "pass": margin > 0 and c_k <= reference.C_BOUNDS[k],
                # the published table's chain for C(k) on the computed c_r, and its room below log 2
                "paper_chain_C": float(chain),
                "paper_chain_slack": math.log(2.0) - chain,
            }
        )
    if args.format == "csv":
        report = [",".join(rows[0]) + "\n", *(_csv_cells(row.values()) + "\n" for row in rows)]
    else:
        report = {"command": "margin", "rows": rows}
    _emit(report, args.format, args.output)
    return 0 if all(r["pass"] for r in rows) else 1


def _report_dict(rep) -> dict:
    # wall_time stays in the Python API but is stripped from emitted output,
    # which must be byte-identical across reruns
    d = dataclasses.asdict(rep)
    d.pop("wall_time", None)
    return d


def cmd_count(args) -> int:
    flags = {"hua4": "Q", "mixed": "P", "triple": "N", "reps": "n"}
    flag = flags[args.what]
    for other in flags.values():
        if other != flag and getattr(args, other) is not None:
            raise ValueError(f"--{other} is not read by --what {args.what}, which reads --{flag}")
    size = getattr(args, flag)
    if size is None:
        raise ValueError(f"--{flag} required for {args.what}")
    if args.what == "mixed":
        mc = dioph.count_mixed_S(args.k, size)
        body = {
            "S": _report_dict(mc.S),
            "S1": _report_dict(mc.S1),
            "S2": _report_dict(mc.S2),
            "max_h": mc.max_h,
            "h_limit": mc.h_limit,
        }
    else:
        if args.what == "hua4":
            rep = dioph.count_hua4(args.k, size)
        elif args.what == "triple":
            rep = dioph.count_admissible_triple(args.k, size)
        else:
            rep = dioph.count_representations(size, args.k, args.r)
        body = {"report": _report_dict(rep)}
    _emit({"command": "count", "what": args.what, **body}, args.format, args.output)
    return 0


def cmd_singint(args) -> int:
    if args.samples < 1024:
        raise ValueError(f"--samples must be >= 1024, got {args.samples}")
    tokens = args.n_grid.split(",")
    if not all(math.isfinite(float(tok)) for tok in tokens):
        raise ValueError(f"grid points must be finite, got {args.n_grid}")
    # imported here, not at the top: only this command reads exact numbers, and loading
    # fractions (and decimal with it) would lengthen every other command's start
    from fractions import Fraction

    n_grid = [Fraction(tok) for tok in tokens]  # exact: 1e9 is 10**9, and no point is rounded
    if any(n.denominator != 1 for n in n_grid):
        raise ValueError(f"grid points must be integers, got {args.n_grid}")
    evals, slope, intercept, resid = singint.growth_fit([int(n) for n in n_grid], args.k)
    expected = singint.expected_growth_exponent(args.k)
    payload = {
        "command": "singint",
        "k": args.k,
        "points": [
            {"n": e.n, "value": e.value, "est_abs_error": e.est_abs_error} for e in evals
        ],
        "slope": slope,
        "expected_exponent": expected,
        "slope_gap": slope - expected,
        "max_log_residual": resid,
    }
    _emit(payload, args.format, args.output)
    return 0 if abs(slope - expected) <= args.slope_tol else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wgkit",
        description="Verification toolkit for the mixed squares/cubes/k-th power form",
    )
    ap.add_argument("--format", choices=("json", "csv"), default="json")
    ap.add_argument("--output", default=None, help="write to a file instead of stdout")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sums", help="exponential-sum bound verification")
    p.add_argument("--jmax", type=int, default=14)
    p.add_argument("--qmax", type=int, default=499)
    p.add_argument("--ppmax", type=int, default=10**4)
    p.add_argument("--twisted-qmax", dest="twisted_qmax", type=int, default=0)
    p.set_defaults(func=cmd_sums)

    p = sub.add_parser("local", help="congruence count table with E_p bounds")
    p.add_argument("--pmax", type=int, default=499)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_local)

    p = sub.add_parser("singular", help="truncated singular series")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--pmax", type=int, default=10**4)
    p.set_defaults(func=cmd_singular)

    p = sub.add_parser("constants", help="iterated-integral constants table (golden artifact)")
    p.add_argument("--k", type=_parse_k_list, default="all")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("margin", help="main-term positivity margins for k = 3..14")
    p.set_defaults(func=cmd_margin)

    p = sub.add_parser("count", help="Diophantine counting reports")
    p.add_argument("--what", choices=("hua4", "mixed", "triple", "reps"), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--Q", type=float, default=None)
    p.add_argument("--P", type=float, default=None)
    p.add_argument("--N", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--r", type=int, default=3)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("singint", help="singular-integral growth fit")
    p.add_argument("--n-grid", dest="n_grid", default="1e8,1e9,1e10,1e11")
    p.add_argument("--k", type=int, required=True)
    no_effect = "accepted for compatibility; J(n) is deterministic and does not depend on it"
    p.add_argument("--samples", type=int, default=10**7, help=no_effect + " (must be >= 1024)")
    p.add_argument("--seed", type=int, default=0, help=no_effect)
    p.add_argument("--slope-tol", dest="slope_tol", type=float, default=0.03)
    p.set_defaults(func=cmd_singint)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.format == "csv" and args.command not in CSV_COMMANDS:
            raise ValueError("this command has no CSV form")
        if args.output:
            _check_output_dir(args.output)
        code = args.func(args)
        sys.stdout.flush()  # a reader that left shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # stdout's reader closed it early: write nothing more, and exit with the
        # status of a writer that SIGPIPE stopped
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # BudgetExceeded included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
