"""The archimedean density factor J(n).

J(n) is evaluated in its real-density form: solving the constraint
u1^2 + u2^2 + u3^3 + u4^3 + u5^3 + u6^k = n for u1 = sqrt(t) gives

    J(n) = int over the box of  (2 sqrt(t))^(-1)  du2..du6,
    t = n - u2^2 - u3^3 - u4^3 - u5^3 - u6^k  constrained to (X2^2, 4 X2^2],

with u2 in (X2, 2X2], u3, u4 in (X3, 2X3], u5 in (X3*, 2X3*], u6 in (Xk*, 2Xk*].
The box sizes are X_j = (1/2)(2n/3)^(1/j) and X_j* = (1/2)(2n/3)^(5/6j).  The
integral grows like n^(17/18 + 5/6k).

Evaluation is deterministic.  With R^2 = n - u3^3 - u4^3 - u5^3 - u6^k the u2
integral is an arcsin difference in closed form, continuous in R^2 with kinks
at R^2 = 2, 5 and 8 X2^2.  Since X2^2 = n/6 and X3^3 = n/12, R^2 < n - 2 X3^3 =
5 X2^2 on the box, so only the kink at 2 X2^2 lies in it.  The remaining
4-dimensional integral is tensor Gauss-Legendre over (u4, u5, u6), and
Gauss-Legendre in u3 from X3 up to the u3 of that kink.  Two orders are
evaluated; the higher is the value and their difference the error estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .reference import check_k


def expected_growth_exponent(k: int) -> float:
    """Exponent of the growth order of J(n): 17/18 + 5/(6k)."""
    check_k(k)
    return 17.0 / 18.0 + 5.0 / (6.0 * k)


@dataclass(frozen=True)
class SingularIntegralEval:
    n: int
    k: int
    value: float
    est_abs_error: float
    samples: int  # integrand evaluations used, over both quadrature orders


def boxes(n: int, k: int) -> tuple[float, float, float, float]:
    """The dyadic box sizes (X2, X3, X3*, Xk*) for target n and power k.

    X_j = (1/2)(2n/3)^(1/j) and X_j* = (1/2)(2n/3)^(5/6j).  They bound x and p1
    (u1, u2 in J(n)), p2 and p3 (u3, u4), p4 (u5) and p5 (u6), each to (X, 2X].
    """
    exponents = (1.0 / 2, 1.0 / 3, 5.0 / (6.0 * 3), 5.0 / (6.0 * k))
    return tuple(0.5 * (2.0 * n / 3.0) ** e for e in exponents)


def _u2_integral(r2, x2: float):
    """int du2 / (2 sqrt(r2 - u2^2)) over u2 in (X2, 2X2] with X2^2 < r2 - u2^2 <= 4 X2^2.

    The antiderivative is arcsin(u2 / R)/2 with R^2 = r2, taken between
    lo = max(X2, sqrt(R^2 - 4 X2^2)) and hi = min(2 X2, sqrt(R^2 - X2^2)).  The
    integral vanishes unless 2 X2^2 < R^2 < 8 X2^2, and the branches of lo and
    hi switch at R^2 = 5 X2^2: these three values are its only kinks.
    """
    s2 = x2 * x2
    r2 = np.clip(r2, 2.0 * s2, 8.0 * s2)
    r = np.sqrt(r2)
    lo = np.maximum(x2, np.sqrt(np.maximum(r2 - 4.0 * s2, 0.0)))
    hi = np.minimum(2.0 * x2, np.sqrt(r2 - s2))
    return 0.5 * (np.arcsin(hi / r) - np.arcsin(np.minimum(lo, hi) / r))


def _gauss(lo: float, hi: float, order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def _quadrature(n: int, k: int, outer: int, inner: int) -> tuple[float, int]:
    """J(n) by tensor Gauss-Legendre over (u4, u5, u6), Gauss-Legendre in u3.

    For each outer node the u3 interval runs from X3 to b2, where R^2 =
    n - rest - u3^3 falls to 2 X2^2, so the u2 integral is smooth on it and
    vanishes beyond it.  One u4 node is evaluated at a time, so the arrays hold
    outer^2 * inner elements.  Returns the value and the number of integrand
    evaluations.
    """
    x2, x3, x3s, xks = boxes(n, k)
    u4, w4 = _gauss(x3, 2 * x3, outer)
    u5, w5 = _gauss(x3s, 2 * x3s, outer)
    u6, w6 = _gauss(xks, 2 * xks, outer)
    t, wt = np.polynomial.legendre.leggauss(inner)
    rest56 = ((u5**3)[:, None] + (u6**k)[None, :]).ravel()
    w56 = (w5[:, None] * w6[None, :]).ravel()
    s2 = x2 * x2
    total, evaluations = 0.0, 0
    for u, wu in zip(u4, w4):
        m = n - u**3 - rest56  # R^2 + u3^3
        b2 = np.clip(np.cbrt(m - 2.0 * s2), x3, 2 * x3)
        half = 0.5 * (b2 - x3)
        if not half.any():  # R^2 <= 2 X2^2 for every u3
            continue
        u3 = (x3 + half)[:, None] + half[:, None] * t
        total += float(wu * (w56 @ (half * (_u2_integral(m[:, None] - u3**3, x2) @ wt))))
        evaluations += u3.size
    return total, evaluations


# (outer nodes per axis, inner nodes per u3 piece): the value is the higher
# order, the error estimate the difference between the two
ORDERS = ((24, 12), (32, 16))


def singular_integral(
    n: int,
    k: int,
    samples: int = 10**7,
    seed: int = 0,
) -> SingularIntegralEval:
    """J(n) as a real density integral, by the deterministic rule of this module.

    ``samples`` and ``seed`` are accepted for callers of the earlier Monte Carlo
    rule and do not affect the result; fewer than 1024 samples is still refused.
    An n whose J(n) or error estimate is not finite in float64 is refused.
    """
    if n % 2 != 0:
        raise ValueError(f"n must be even, got {n}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    check_k(k)
    if samples < 1024:
        raise ValueError(f"need at least 1024 samples, got {samples}")
    with np.errstate(over="ignore", invalid="ignore"):  # a J(n) past float64 is refused below
        (low, low_evals), (value, evals) = (_quadrature(n, k, *order) for order in ORDERS)
    if not (math.isfinite(value) and math.isfinite(value - low)):
        raise ValueError(f"J(n) at n = {n:.6g} is not finite in float64")
    return SingularIntegralEval(
        n=n,
        k=k,
        value=value,
        est_abs_error=abs(value - low),
        samples=low_evals + evals,
    )


def growth_fit(n_grid: list[int], k: int):
    """Fitted slope of log J(n) against log n over a grid of even n."""
    if len(set(n_grid)) < 2:
        raise ValueError("need at least two distinct grid points")
    if min(n_grid) < 2:
        raise ValueError(f"grid points must be >= 2, got {min(n_grid)}")
    for n in n_grid:  # refused here, before the quadrature of any point, as singular_integral refuses it
        if n % 2 != 0:
            raise ValueError(f"n must be even, got {n}")
    evals = [singular_integral(n, k) for n in n_grid]
    xs = np.log(np.array([e.n for e in evals], dtype=float))
    ys = np.log(np.array([e.value for e in evals]))
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = float(np.abs(ys - (slope * xs + intercept)).max())
    return evals, float(slope), float(intercept), resid
