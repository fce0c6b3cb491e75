"""Order statistics on raw samples.

Percentiles are computed from the raw samples, never read from bucketed
reservoirs.  :func:`percentile` is the Harrell-Davis estimate: a weighted
mean of the order statistics around the nearest rank.  A run's samples
are few distinct operations repeated (the same question in every audit
session, the same fan-out every cycle), so their sorted values form
steps, and a nearest-rank value jumps from one step to the next when the
rank sits at a step's edge; the weighted mean moves smoothly instead.  A
percentile is refused unless at least :data:`MIN_TAIL` samples lie
strictly beyond its nearest rank, so a tail figure always rests on a
tail, not on one or two outliers.
"""

from __future__ import annotations

import math

MIN_TAIL = 10


class InsufficientSamples(ValueError):
    """Too few samples beyond the requested percentile's rank."""


def percentile_rank(n: int, q: float) -> int:
    """1-based nearest rank of the ``q``-th percentile among ``n`` samples."""
    if n < 1:
        raise InsufficientSamples("no samples")
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    return max(1, math.ceil(q / 100.0 * n))


def min_samples_for(q: float, tail: int = MIN_TAIL) -> int:
    """Smallest sample count whose ``q``-th percentile has ``tail`` beyond it."""
    n = 1
    while n - percentile_rank(n, q) < tail:
        n += 1
    return n


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 100_000):
        for aa in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def beta_cdf(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function ``I_x(a, b)``."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def percentile(samples, q: float, *, tail: int = MIN_TAIL) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile; refuses a thin tail.

    The ``i``-th smallest of ``n`` samples weighs the chance that a
    ``Beta(p (n + 1), (1 - p) (n + 1))`` variable falls in ``((i - 1) / n,
    i / n]``.  Raises :class:`InsufficientSamples` when fewer than
    ``tail`` samples lie beyond the nearest rank.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = percentile_rank(n, q)
    beyond = n - rank
    if beyond < tail:
        raise InsufficientSamples(
            f"p{q:g} of {n} samples has {beyond} beyond it; "
            f"need {tail} (at least {min_samples_for(q, tail)} samples)"
        )
    p = q / 100.0
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i] - cdf[i - 1]) * ordered[i - 1] for i in range(1, n + 1))
