"""wgkit: numerical verification toolkit for a mixed Waring-Goldbach form.

The form under study represents an even integer n as

    n = x^2 + p1^2 + p2^3 + p3^3 + p4^3 + p5^k,     3 <= k <= 14,

with the p_i prime and x an almost-prime.  The package computes and
cross-checks every finite object in the supporting argument: complete
exponential sums and their classical bounds, local congruence densities, the
singular series and sieve density, the iterated sieve integrals c_r(k) with
their published reference table, the singular integral and its growth order,
and exact Diophantine counts behind the mean-value estimates.
"""

from .arith import FactoredInt, euler_phi, factorize, primes_up_to
from .errors import BudgetExceeded, VerificationError

__all__ = [
    "FactoredInt",
    "factorize",
    "euler_phi",
    "primes_up_to",
    "VerificationError",
    "BudgetExceeded",
]

__version__ = "0.1.0"
