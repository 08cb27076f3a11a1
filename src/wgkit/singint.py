"""The archimedean density factor J(n) and the oscillatory box integrals.

J(n) is defined through oscillatory integrals w_j(lam) = int_X^2X e(lam u^j) du,
but is evaluated here in its exactly equivalent real-density form: solving the
constraint u1^2 + u2^2 + u3^3 + u4^3 + u5^3 + u6^k = n for u1 = sqrt(t) turns
the Fourier integral into

    J(n) = int over the box of  (2 sqrt(t))^(-1)  du2..du6,
    t = n - u2^2 - u3^3 - u4^3 - u5^3 - u6^k  constrained to (X2^2, 4 X2^2],

with u2 in (X2, 2X2], u3, u4 in (X3, 2X3], u5 in (X3*, 2X3*], u6 in (Xk*, 2Xk*].
The box sizes are X_j = (1/2)(2n/3)^(1/j) and X_j* = (1/2)(2n/3)^(5/6j).  The
integral grows like n^(17/18 + 5/6k).

Evaluation is stratified Monte Carlo with a fixed seed: the 5-dimensional unit
cube is split into 4^5 = 1024 strata, each sampled by its own deterministic
substream, so the result is independent of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .reference import check_k

N_STRATA_PER_DIM = 4
DIM = 5


def expected_growth_exponent(k: int) -> float:
    """Exponent of the growth order of J(n): 17/18 + 5/(6k)."""
    check_k(k)
    return 17.0 / 18.0 + 5.0 / (6.0 * k)


def oscillatory_box_integral(j: int, X: float, lam: float, tol: float = 1e-9) -> complex:
    """w_j(lam) = int_X^{2X} e(lam u^j) du by refined composite Simpson.

    The modulus never exceeds X (triangle inequality), which is asserted.
    """
    if X <= 0:
        raise ValueError(f"X must be positive, got {X}")
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    cycles = abs(lam) * ((2 * X) ** j - X**j)
    panels = max(64, int(16 * cycles))

    def simpson(npanels: int) -> complex:
        u = np.linspace(X, 2 * X, 2 * npanels + 1)
        f = np.exp(2j * np.pi * lam * u**j)
        w = np.ones(u.size)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return complex((f * w).sum() * (X / (2 * npanels)) / 3.0)

    est = simpson(panels)
    for _ in range(24):
        panels *= 2
        nxt = simpson(panels)
        if abs(nxt - est) <= tol * max(X, 1.0):
            est = nxt
            break
        est = nxt
    if abs(est) > X * (1 + 1e-9):
        raise AssertionError(f"|w| = {abs(est)} exceeds the box length {X}")
    return est


@dataclass(frozen=True)
class SingularIntegralEval:
    n: int
    k: int
    value: float
    est_abs_error: float
    method: str
    samples: int
    seed: int
    empty: bool


def _box_edges(n: int, k: int) -> list[tuple[float, float]]:
    base = 2.0 * n / 3.0
    x2 = 0.5 * base ** (1.0 / 2)
    x3 = 0.5 * base ** (1.0 / 3)
    x3s = 0.5 * base ** (5.0 / 18)
    xks = 0.5 * base ** (5.0 / (6.0 * k))
    return [(x2, 2 * x2), (x3, 2 * x3), (x3, 2 * x3), (x3s, 2 * x3s), (xks, 2 * xks)]


def singular_integral(
    n: int,
    k: int,
    tol: float = 5e-3,
    samples: int = 10**7,
    seed: int = 0,
) -> SingularIntegralEval:
    """J(n) as a real density integral, by seeded stratified Monte Carlo."""
    if n % 2 != 0:
        raise ValueError(f"n must be even, got {n}")
    check_k(k)
    if samples < 1024:
        raise ValueError(f"need at least 1024 samples, got {samples}")
    edges = _box_edges(n, k)
    x2 = edges[0][0]
    t_lo, t_hi = x2 * x2, 4.0 * x2 * x2
    widths = np.array([hi - lo for lo, hi in edges])
    lows = np.array([lo for lo, _ in edges])
    volume = float(np.prod(widths))
    # quick emptiness test: the largest achievable t must clear t_lo
    t_max = n - sum(lo**e for (lo, _), e in zip(edges, (2, 3, 3, 3, k)))
    if t_max <= t_lo:
        return SingularIntegralEval(n, k, 0.0, 0.0, "density_slice", 0, seed, True)

    n_strata = N_STRATA_PER_DIM**DIM
    per_stratum = max(1, samples // n_strata)
    grid = np.stack(
        np.meshgrid(*([np.arange(N_STRATA_PER_DIM)] * DIM), indexing="ij"), axis=-1
    ).reshape(-1, DIM)
    means = np.empty(n_strata)
    variances = np.empty(n_strata)
    exps = np.array([2, 3, 3, 3, k], dtype=np.float64)
    for idx in range(n_strata):
        rng = np.random.default_rng((seed, idx))
        u = (grid[idx] + rng.random((per_stratum, DIM))) / N_STRATA_PER_DIM
        pts = lows + u * widths
        t = n - (pts ** exps).sum(axis=1)
        inside = (t > t_lo) & (t <= t_hi)
        f = np.where(inside, 0.5 / np.sqrt(np.where(inside, t, 1.0)), 0.0)
        means[idx] = f.mean()
        variances[idx] = f.var(ddof=1) if per_stratum > 1 else 0.0
    value = volume * float(means.mean())
    stderr = volume * math.sqrt(float(variances.sum() / per_stratum)) / n_strata
    return SingularIntegralEval(
        n=n,
        k=k,
        value=value,
        est_abs_error=stderr,
        method="density_slice",
        samples=per_stratum * n_strata,
        seed=seed,
        empty=value == 0.0,
    )


def growth_fit(n_grid: list[int], k: int, samples: int = 10**7, seed: int = 0):
    """Fitted slope of log J(n) against log n over a grid of even n."""
    if len(n_grid) < 2:
        raise ValueError("need at least two grid points")
    evals = [singular_integral(n, k, samples=samples, seed=seed) for n in n_grid]
    xs = np.log(np.array([e.n for e in evals], dtype=float))
    ys = np.log(np.array([e.value for e in evals]))
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = float(np.abs(ys - (slope * xs + intercept)).max())
    return evals, float(slope), float(intercept), resid
