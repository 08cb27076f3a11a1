"""Correctness checks for every benchmark operation.

Each operation's result is checked three ways:

* invariants that hold for any input (exit code, identities such as
  L = L* + K or S = S1 + S2, the known pass=false rows of the c_r(k) table);
* a cross-check against an independent path of the toolkit, for any seed:
  Euler factors and sieve densities recomputed from exponential sums
  (``euler_factor_via_sums``), and exact counts against the spectral floats
  for sampled primes 600 < p < 1290;
* the reference recorded by ``record_reference.py`` at the default seed, when
  one exists for the operation: exact objects (congruence tables,
  Diophantine counts) must match exactly, floating-point values within the
  tolerances below.

Checks read values out of the parsed output, never bytes, so formatting
changes and added output fields are not failures.  ``check`` returns the
list of problems; an empty list means the operation passed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# the deep-tail rows whose published c_r(k) lies below the computed integral
KNOWN_FAILING_ROWS = frozenset({(13, 16), (13, 17), (14, 16), (14, 17), (14, 19)})

EULER_GAMMA = 0.57721566490153286
F_LOWER_3 = 2.0 * math.exp(EULER_GAMMA) * math.log(2.0) / 3.0  # f(3)
F_UPPER_3 = 2.0 * math.exp(EULER_GAMMA) / 3.0  # F(3)

# tolerances, as (relative, absolute): |x - ref| <= abs + rel * |ref|
TOL_PRODUCT = (1e-9, 0.0)  # Euler products and sieve products
TOL_FACTOR = (0.0, 1e-9)  # single Euler factors near 1
TOL_SUMS = (1e-9, 1e-9)  # exponential-sum ratios and slacks
TOL_CR = (0.0, 1e-7)  # c_r(k): ten times the lattice-refinement tolerance
TOL_MARGIN = (0.0, 1e-6)  # C(k) and the margins
SINGINT_SIGMAS = 5.0  # J(n) within 5 reported standard errors of the reference
SINGINT_SLOPE_ABS = 2e-3


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _close(x, ref, tol) -> bool:
    rel, abs_ = tol
    return isinstance(x, (int, float)) and abs(x - ref) <= abs_ + rel * abs(ref)


def _compare(path: str, got, ref, tol, problems: list) -> None:
    """Walk two summaries; floats within ``tol``, everything else exact."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if sorted(got) != sorted(ref):
            problems.append(f"{path}: keys {sorted(got)} != reference {sorted(ref)}")
            return
        for key in ref:
            _compare(f"{path}.{key}", got[key], ref[key], tol, problems)
    elif isinstance(ref, list) and isinstance(got, list):
        if len(got) != len(ref):
            problems.append(f"{path}: length {len(got)} != reference {len(ref)}")
            return
        for i, (g, r) in enumerate(zip(got, ref)):
            _compare(f"{path}[{i}]", g, r, tol, problems)
    elif isinstance(ref, float):
        if not _close(got, ref, tol):
            problems.append(f"{path}: {got!r} != reference {ref!r} within {tol}")
    elif got != ref or type(got) is not type(ref):
        problems.append(f"{path}: {got!r} != reference {ref!r}")


def _flag(args: tuple, name: str) -> str:
    """The value following ``name`` in a CLI argv."""
    return args[args.index(name) + 1]


# -- summaries: the values of a result that the reference pins -------------


def _local_digest(rows) -> str:
    canon = [[r["p"], r["n_class"], r["K"], r["L"], r["Lstar"], r["pass"]] for r in rows]
    return hashlib.sha256(json.dumps(canon).encode()).hexdigest()


def summarize(op, result) -> dict:
    """The values of ``result`` that are compared with the reference."""
    if op.kind == "sieve":
        return {k: result[k] for k in ("W", "lower", "upper")}
    payload = result["payload"]
    if op.name == "singular":
        return {
            "value": payload["value"],
            "tail_bound": payload["tail_bound"],
            "factors_head": [[f["p"], f["value"]] for f in payload["factors_head"]],
        }
    if op.name == "local":
        return {"rows": len(payload["rows"]), "digest": _local_digest(payload["rows"])}
    if op.name == "sums":
        rep = payload["report"]
        return {
            "complete_ratio": {j: v["ratio"] for j, v in rep["complete_ratio"].items()},
            "char_ratio": {j: v["ratio"] for j, v in rep["char_ratio"].items()},
            **{f: rep[f] for f in ("prime_slack", "unit_slack", "vanishing_max", "twisted_gap_max")},
        }
    if op.name == "constants":
        return {
            "c_r": {f"{t['k']},{e['r']}": e["c_r"] for t in payload["tables"] for e in t["entries"]},
            "C": {str(t["k"]): t["C_value"] for t in payload["tables"]},
        }
    if op.name == "margin":
        return {
            "C_k": {str(r["k"]): r["C_k"] for r in payload["rows"]},
            "margin": {str(r["k"]): r["margin"] for r in payload["rows"]},
        }
    if op.name == "singint":
        return {
            "points": [[p["n"], p["value"], p["est_abs_error"]] for p in payload["points"]],
            "slope": payload["slope"],
        }
    if op.name == "count":
        if payload["what"] == "mixed":
            return {
                "S": payload["S"]["count"],
                "S1": payload["S1"]["count"],
                "S2": payload["S2"]["count"],
                "max_h": payload["max_h"],
            }
        return {"count": payload["report"]["count"]}
    raise ValueError(f"no summary for operation {op.key}")


# per command, the tolerance of each summary field; fields not listed are exact
FIELD_TOLERANCES = {
    "singular": {"value": TOL_PRODUCT, "tail_bound": TOL_PRODUCT, "factors_head": TOL_FACTOR},
    "sieve": {"W": TOL_PRODUCT, "lower": TOL_PRODUCT, "upper": TOL_PRODUCT},
    "constants": {"c_r": TOL_CR, "C": TOL_MARGIN},
    "margin": {"C_k": TOL_MARGIN, "margin": TOL_MARGIN},
    "sums": {
        field: TOL_SUMS
        for field in ("complete_ratio", "char_ratio", "prime_slack", "unit_slack",
                      "vanishing_max", "twisted_gap_max")
    },
}


def _compare_singint(summary: dict, ref: dict) -> list[str]:
    """J(n) is a Monte Carlo estimate: compare within its reported error."""
    got_pts, ref_pts = summary["points"], ref["points"]
    if [p[0] for p in got_pts] != [p[0] for p in ref_pts]:
        return [f"singint grid {[p[0] for p in got_pts]} != reference"]
    problems = []
    for (n, v, _), (_, rv, rerr) in zip(got_pts, ref_pts):
        if not abs(v - rv) <= SINGINT_SIGMAS * rerr:
            problems.append(f"J({n}) = {v} is not within {SINGINT_SIGMAS} sigma of {rv}")
    if not abs(summary["slope"] - ref["slope"]) <= SINGINT_SLOPE_ABS:
        problems.append(f"singint slope {summary['slope']} != reference {ref['slope']}")
    return problems


def _compare_reference(op, summary: dict, ref: dict) -> list[str]:
    if op.name == "singint":
        return _compare_singint(summary, ref)
    if sorted(summary) != sorted(ref):
        return [f"fields {sorted(summary)} != reference {sorted(ref)}"]
    tolerances = FIELD_TOLERANCES.get(op.name, {})
    problems: list[str] = []
    for field in ref:
        _compare(field, summary[field], ref[field], tolerances.get(field, (0.0, 0.0)), problems)
    return problems


# -- invariants and independent cross-checks --------------------------------


def _sample_primes(lo: int, hi: int, count: int, salt) -> list[int]:
    from wgkit.arith import primes_up_to

    pool = [p for p in primes_up_to(hi) if p > lo]
    return sorted(random.Random(str(salt)).sample(pool, min(count, len(pool))))


def _exact_vs_spectral(n: int, k: int, p_hi: int, salt) -> list[str]:
    """Exact K, L against the spectral floats for sampled 600 < p < 1290."""
    from wgkit.localdensity import densities_float_all, local_densities_all

    problems = []
    for p in _sample_primes(600, min(p_hi, 1289), 2, salt):
        K, L, _ = local_densities_all(p, k)
        Kf, Lf, _ = densities_float_all(p, k)
        r = n % p
        for name, exact, spectral in (("K", K[r], Kf[r]), ("L", L[r], Lf[r])):
            if not _close(float(spectral), float(exact), TOL_PRODUCT):
                problems.append(f"{name}({p}, {n}) spectral {spectral} != exact {exact}")
    return problems


def _euler_product_via_sums(n: int, k: int, p_max: int) -> float:
    from wgkit.arith import primes_up_to
    from wgkit.singular import euler_factor_via_sums

    return math.exp(sum(math.log(euler_factor_via_sums(p, 1, n, k).value) for p in primes_up_to(p_max)))


def _sieve_product_via_sums(n: int, k: int, z: float) -> float:
    from wgkit.arith import primes_up_to
    from wgkit.singular import euler_factor_via_sums

    log_sum = 0.0
    for p in primes_up_to(math.ceil(z) - 1):
        if p == 2 or p >= z:
            continue
        # omega(p) = p K / L = (p K / (p-1)^5) / (L / (p-1)^5)
        omega = euler_factor_via_sums(p, p, n, k).value / euler_factor_via_sums(p, 1, n, k).value
        log_sum += math.log1p(-omega / p)
    return math.exp(log_sum)


def _check_singular(op, payload) -> list[str]:
    n, k, p_max = int(_flag(op.args, "--n")), int(_flag(op.args, "--k")), int(_flag(op.args, "--pmax"))
    from wgkit.singular import euler_factor_via_sums

    problems = []
    if (payload["n"], payload["k"], payload["p_max"]) != (n, k, p_max):
        problems.append("singular echoes the wrong inputs")
    for f in payload["factors_head"]:
        alt = euler_factor_via_sums(f["p"], 1, n, k).value
        if not _close(f["value"], alt, TOL_FACTOR):
            problems.append(f"factor at p={f['p']}: {f['value']} != {alt} via sums")
    alt = _euler_product_via_sums(n, k, p_max)
    if not _close(payload["value"], alt, TOL_PRODUCT):
        problems.append(f"singular series {payload['value']} != {alt} via sums")
    return problems + _exact_vs_spectral(n, k, p_max, op.key)


def _ep_bound(p: int) -> float:
    rp = math.sqrt(p)
    return (p - 1) * (rp + 1) ** 2 * (2 * rp + 1) ** 3 * (13 * rp + 1)


def _check_local(op, payload) -> list[str]:
    from wgkit.singular import euler_factor_via_sums

    k = int(_flag(op.args, "--k"))
    problems = []
    rows = payload["rows"]
    for r in rows:
        p = r["p"]
        if r["L"] != r["Lstar"] + r["K"]:
            problems.append(f"L != L* + K at p={p}, n={r['n_class']}")
        if not _close(r["E_p"], float(p * r["Lstar"] - (p - 1) ** 6), (1e-11, 1.0)):
            problems.append(f"E_p inconsistent at p={p}, n={r['n_class']}")
        if not _close(r["bound"], _ep_bound(p), (1e-11, 0.0)):
            problems.append(f"E_p bound wrong at p={p}")
        if not r["pass"]:
            problems.append(f"row p={p}, n={r['n_class']} fails")
    # L(p, n) = (p-1)^5 (1 + A(p, n)) through exponential sums, sampled primes
    by_p = {}
    for r in rows:
        by_p.setdefault(r["p"], []).append(r)
    for p in _sample_primes(2, min(200, max(by_p)), 3, op.key):
        for r in by_p[p]:
            alt = (p - 1) ** 5 * euler_factor_via_sums(p, 1, r["n_class"] + p * (r["n_class"] % 2), k).value
            if not _close(float(r["L"]), alt, TOL_PRODUCT):
                problems.append(f"L({p}, {r['n_class']}) = {r['L']} != {alt} via sums")
    return problems


def _check_cli(op, result) -> list[str]:
    rc, payload = result["rc"], result["payload"]
    if op.name == "constants":
        failing = {
            (t["k"], e["r"]) for t in payload["tables"] for e in t["entries"] if e["pass"] is False
        }
        ks = {t["k"] for t in payload["tables"]}
        expected = {row for row in KNOWN_FAILING_ROWS if row[0] in ks}
        problems = []
        if failing != expected:
            problems.append(f"pass=false rows {sorted(failing)} != known {sorted(expected)}")
        if rc != (1 if expected else 0):
            problems.append(f"exit code {rc}")
        if not all(t["C_within_bound"] for t in payload["tables"]):
            problems.append("a C(k) exceeds its reference bound")
        return problems
    if rc != 0:
        return [f"exit code {rc}"]
    if op.name == "singular":
        return _check_singular(op, payload)
    if op.name == "local":
        return _check_local(op, payload)
    if op.name == "sums":
        rep = payload["report"]
        return [] if rep["passed"] and not rep["violations"] else [f"violations {rep['violations']}"]
    if op.name == "margin":
        bad = [r["k"] for r in payload["rows"] if not (r["pass"] and r["margin"] > 0)]
        return [f"margin fails for k={bad}"] if bad else []
    if op.name == "singint":
        problems = [f"J({p['n']}) = {p['value']}" for p in payload["points"] if not p["value"] > 0]
        if not abs(payload["slope_gap"]) <= 0.03:
            problems.append(f"slope gap {payload['slope_gap']}")
        return problems
    if op.name == "count" and payload["what"] == "mixed":
        problems = []
        if payload["S"]["count"] != payload["S1"]["count"] + payload["S2"]["count"]:
            problems.append("S != S1 + S2")
        if not payload["max_h"] < payload["h_limit"]:
            problems.append("off-diagonal shift beyond 2^k sqrt(P)")
        return problems
    return []


def _check_sieve(op, result) -> list[str]:
    n, k, z = op.args
    W = result["W"]
    problems = []
    if not 0.0 < W < 1.0:
        problems.append(f"W = {W} outside (0, 1)")
    for side, factor in (("lower", F_LOWER_3), ("upper", F_UPPER_3)):
        if not _close(result[side], W * factor, (1e-12, 0.0)):
            problems.append(f"{side} window {result[side]} != W * {factor}")
    alt = _sieve_product_via_sums(n, k, z)
    if not _close(W, alt, TOL_PRODUCT):
        problems.append(f"W = {W} != {alt} via sums")
    return problems + _exact_vs_spectral(n, k, z, op.key)


def check(op, result, reference: dict) -> list[str]:
    """Problems with ``result`` of ``op``; empty when it is correct."""
    try:
        problems = _check_sieve(op, result) if op.kind == "sieve" else _check_cli(op, result)
        ref = reference.get(op.key)
        if ref is not None:
            problems += _compare_reference(op, summarize(op, result), ref)
    except Exception as exc:  # a check that cannot complete fails the operation
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    return problems
