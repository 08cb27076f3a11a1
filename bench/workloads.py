"""Workload definitions: the operations of one verification session.

A session is a closed loop of one client: it issues the next operation only
after the previous one has returned.  Every input comes from the workload seed
(``random.Random`` keyed by workload name and seed), so one seed always gives
the same session.  ``tiny=True`` gives the same shape at toy sizes, for the
benchmark's own smoke test.

Workloads and the layers they stress:

verify   one even n; singular series at k = 3 and k = 14, a congruence table
         at k = 4 and an exponential-sum sweep, then the c_r(k) table, the
         positivity margins, the J(n) growth fit and four exact Diophantine
         counts.  Every (p, k) local factor is used once, so a per-(p, k)
         cache has nothing to reuse here.
sieve    several even targets n in [1e6, 1e7], each a sieve product W(z) and
         the two sieve window values at k = 3.  The targets share every (p, k)
         local factor, so most of the work recomputes the same spectra.

Each optimisation has one workload that exercises it and one that bypasses
it: ``sieve`` exercises local-factor reuse and ``verify`` bypasses it, while
``verify`` alone runs ``expsums``, ``buchstab``, ``singint`` and ``dioph``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("verify", "sieve")

# z of the sieve products; the sieve is applied at s = log D / log z = 3.
SIEVE_Z = 2500
SIEVE_K = 3


@dataclass(frozen=True)
class Op:
    """One operation: a CLI invocation (``kind == "cli"``) or a sieve target.

    ``name`` groups operations for the per-command times (``op.<name>_s``).
    For ``cli`` operations ``args`` is the argv of ``wgkit.cli.main``; for
    ``sieve`` it is ``(n, k, z)``.
    """

    kind: str
    name: str
    args: tuple

    @property
    def key(self) -> str:
        """Stable identifier, used to look up recorded reference values."""
        return f"{self.kind}:" + " ".join(str(a) for a in self.args)


def _even_target(rng: random.Random, lo: int, hi: int) -> int:
    return 2 * rng.randrange(lo // 2, hi // 2)


def _cli(*argv) -> Op:
    argv = tuple(str(a) for a in argv)
    return Op("cli", argv[0], argv)


def _spectra(rng: random.Random, tiny: bool) -> list[Op]:
    n = _even_target(rng, 10**6, 10**7)
    # p_max above 600 so both the exact and the spectral local-factor paths run
    pmax = 700 if tiny else 2000
    local_pmax, sums = (60, ("--jmax", 5, "--qmax", 30, "--ppmax", 100)) if tiny else (
        499,
        ("--qmax", 250, "--ppmax", 2500),
    )
    return [
        _cli("singular", "--n", n, "--k", 3, "--pmax", pmax),
        _cli("singular", "--n", n, "--k", 14, "--pmax", pmax),
        # k = 4 keeps the table's (p, k) factors disjoint from the singular series'
        _cli("local", "--pmax", local_pmax, "--k", 4),
        _cli("sums", *sums),
    ]


def _sieve(rng: random.Random, tiny: bool) -> list[Op]:
    count, z = (2, 700) if tiny else (4, SIEVE_Z)
    targets = set()
    while len(targets) < count:
        targets.add(_even_target(rng, 10**6, 10**7))
    return [Op("sieve", "sieve", (n, SIEVE_K, z)) for n in sorted(targets)]


def _certify(tiny: bool) -> list[Op]:
    if tiny:
        return [
            _cli("constants", "--k", 3),
            _cli("margin"),
            _cli("singint", "--k", 3, "--n-grid", "1e8,1e11", "--samples", 100000),
            _cli("count", "--what", "hua4", "--k", 3, "--Q", 40),
            _cli("count", "--what", "mixed", "--k", 4, "--P", 64),
            _cli("count", "--what", "triple", "--k", 3, "--N", "1e5"),
            _cli("count", "--what", "reps", "--k", 3, "--n", 10000, "--r", 3),
        ]
    return [
        _cli("constants", "--k", "all"),
        _cli("margin"),
        _cli("singint", "--k", 3, "--n-grid", "1e8,1e11"),
        _cli("count", "--what", "hua4", "--k", 3, "--Q", 1500),
        _cli("count", "--what", "mixed", "--k", 4, "--P", 512),
        _cli("count", "--what", "triple", "--k", 3, "--N", "1e8"),
        _cli("count", "--what", "reps", "--k", 3, "--n", 10**7, "--r", 3),
    ]


def build(workload: str, seed: int, tiny: bool = False) -> list[Op]:
    """The operations of one session of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify":
        # the certification half has fixed inputs: every count and table in it
        # has an exact recorded reference
        return _spectra(rng, tiny) + _certify(tiny)
    if workload == "sieve":
        return _sieve(rng, tiny)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
