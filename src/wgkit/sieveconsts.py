"""Linear-sieve constants, sieve products, and the main-term margin.

The classical linear-sieve pair is F(s) = 2 e^gamma / s on 1 <= s <= 3 and
f(s) = 2 e^gamma log(s-1) / s on 2 <= s <= 4; outside those windows the
closed forms are not valid and the functions reject the input.  The sieve is
applied at s = log D / log z = 3, where the positivity of the main term
reduces to f(3) - F(3) C(k) = (2 e^gamma / 3)(log 2 - C(k)) > 0.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .arith import primes_up_to
from .errors import BudgetExceeded
from .localdensity import P_MAX_BUDGET, class_counts_many
from .reference import check_k
from .singular import _omega_p

EULER_GAMMA = 0.57721566490153286
EXP_GAMMA = math.exp(EULER_GAMMA)


_WINDOW_SLACK = 1e-9  # tolerate roundoff when s is computed as log D / log z


def _clamp_window(s: float, lo: float, hi: float, name: str) -> float:
    if not (lo - _WINDOW_SLACK <= s <= hi + _WINDOW_SLACK):
        raise ValueError(f"{name} closed form is valid on [{lo}, {hi}] only, got s={s}")
    return min(max(s, lo), hi)


def f_lower(s: float) -> float:
    """Lower linear-sieve function 2 e^gamma log(s-1)/s, valid on 2 <= s <= 4."""
    s = _clamp_window(s, 2.0, 4.0, "f(s)")
    return 2.0 * EXP_GAMMA * math.log(s - 1.0) / s


def F_upper(s: float) -> float:
    """Upper linear-sieve function 2 e^gamma / s, valid on 1 <= s <= 3."""
    s = _clamp_window(s, 1.0, 3.0, "F(s)")
    return 2.0 * EXP_GAMMA / s


def _check_z(z: float) -> None:
    if z <= 3.0:
        raise ValueError(f"need z > 3 for a nonempty product, got {z}")


@lru_cache(maxsize=64)
def sieve_product(n: int, k: int, z: float) -> float:
    """W(z) = prod over odd primes p < z of (1 - omega(p)/p), once per (n, k, z).

    A target's W(z) and both of its sieve window values share one product.
    """
    if n % 2 != 0:
        raise ValueError(f"n must be even, got {n}")
    check_k(k)
    _check_z(z)
    if z > P_MAX_BUDGET:
        raise BudgetExceeded(f"z = {z} is over the {P_MAX_BUDGET} budget of the class-count engine")
    log_sum = 0.0
    for cc in class_counts_many(primes_up_to(math.ceil(z) - 1)[1:], k):  # odd primes strictly below z
        frac = _omega_p(cc, n) / cc.p
        if frac >= 1.0:
            return 0.0
        log_sum += math.log1p(-frac)
    return math.exp(log_sum)


def main_term_margin(k: int, c_k: float) -> float:
    """f(3) - F(3) C(k) = (2 e^gamma / 3)(log 2 - C(k)); positive iff the sieve wins."""
    check_k(k)
    return (2.0 * EXP_GAMMA / 3.0) * (math.log(2.0) - c_k)


def sieve_window_value(n: int, k: int, z: float, D: float, side: str) -> float:
    """The comparison value W(z) f(log D / log z) (lower) or W(z) F(...) (upper)."""
    _check_z(z)  # before log z: z = 1 would divide by zero, and z < 1 would flip the sign of s
    s = math.log(D) / math.log(z)
    if side not in ("lower", "upper"):
        raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")
    window = f_lower(s) if side == "lower" else F_upper(s)  # refuses an s outside its window before W(z)
    return sieve_product(n, k, z) * window
