"""Reference distributions and closed-form moments of transformed order statistics.

The comparison machinery never sees an arbitrary parent distribution.  It
works with six fixed reference laws G (uniform, exponential, logistic,
standard log-logistic, and the negative reflections of the exponential and
log-logistic) and with the distribution of G^{-1}(B) where B is a beta
order-statistic variable.  This module holds the G catalogue and the exact
expressions for E[G^{-1}(B_{i:n})].
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

from .specfun import harmonic_sum

__all__ = [
    "ReferenceDistribution",
    "OrderStatSpec",
    "SupportClampWarning",
    "cdf",
    "expected_transformed_orderstat",
]


class SupportClampWarning(UserWarning):
    """Raised (as a warning) when a cdf argument falls outside the support."""


class ReferenceDistribution(enum.Enum):
    UNIFORM = "uniform"
    EXPONENTIAL = "exponential"
    LOGISTIC = "logistic"
    LOG_LOGISTIC_1 = "log-logistic-1"
    NEG_EXPONENTIAL = "neg-exponential"
    NEG_LOG_LOGISTIC_1 = "neg-log-logistic-1"

    @property
    def support(self) -> tuple[float, float]:
        return _SUPPORT[self]


_SUPPORT = {
    ReferenceDistribution.UNIFORM: (0.0, 1.0),
    ReferenceDistribution.EXPONENTIAL: (0.0, math.inf),
    ReferenceDistribution.LOGISTIC: (-math.inf, math.inf),
    ReferenceDistribution.LOG_LOGISTIC_1: (0.0, math.inf),
    ReferenceDistribution.NEG_EXPONENTIAL: (-math.inf, 0.0),
    ReferenceDistribution.NEG_LOG_LOGISTIC_1: (-math.inf, 0.0),
}


@dataclass(frozen=True, slots=True)
class OrderStatSpec:
    """Rank/sample-size pair (i, n) addressing the i-th smallest of n."""

    i: int
    n: int

    def __post_init__(self) -> None:
        if not (isinstance(self.i, int) and isinstance(self.n, int)):
            raise ValueError("OrderStatSpec needs integer rank and sample size")
        if not 1 <= self.i <= self.n:
            raise ValueError(f"need 1 <= i <= n, got i={self.i} n={self.n}")

    @property
    def alpha(self) -> int:
        """First beta parameter of B_{i:n}."""
        return self.i

    @property
    def beta(self) -> int:
        """Second beta parameter of B_{i:n}."""
        return self.n - self.i + 1


def cdf(dist: ReferenceDistribution, x: float) -> float:
    """G(x) for the reference distribution.

    Arguments outside the support are clamped to 0 or 1, with a
    SupportClampWarning so the clamp is never silent.
    """
    lo, hi = dist.support
    if x < lo:
        warnings.warn(
            f"cdf argument {x} below support of {dist.value}; clamped to 0",
            SupportClampWarning,
            stacklevel=2,
        )
        return 0.0
    if x > hi:
        warnings.warn(
            f"cdf argument {x} above support of {dist.value}; clamped to 1",
            SupportClampWarning,
            stacklevel=2,
        )
        return 1.0
    if dist is ReferenceDistribution.UNIFORM:
        return x
    if dist is ReferenceDistribution.EXPONENTIAL:
        return -math.expm1(-x)
    if dist is ReferenceDistribution.LOGISTIC:
        # 1/(1+e^-x), written to avoid overflow on both tails
        if x >= 0.0:
            return 1.0 / (1.0 + math.exp(-x))
        e = math.exp(x)
        return e / (1.0 + e)
    if dist is ReferenceDistribution.LOG_LOGISTIC_1:
        return x / (1.0 + x) if math.isfinite(x) else 1.0
    if dist is ReferenceDistribution.NEG_EXPONENTIAL:
        return math.exp(x)
    if dist is ReferenceDistribution.NEG_LOG_LOGISTIC_1:
        return 1.0 / (1.0 - x) if math.isfinite(x) else 0.0
    raise AssertionError(dist)


def expected_transformed_orderstat(dist: ReferenceDistribution, s: OrderStatSpec) -> float:
    """E[G^{-1}(B_{i:n})] in closed form.

    With B ~ beta(i, n-i+1) and H_k = sum_{k'=1}^{k} 1/k':

      uniform             i/(n+1)
      exponential         sum_{k=n-i+1}^{n} 1/k
      neg-exponential     -sum_{k=i}^{n} 1/k
      logistic            H_{i-1} - H_{n-i}      (= psi(i) - psi(n-i+1))
      log-logistic-1      i/(n-i)                (+inf at i=n)
      neg-log-logistic-1  -(n-i+1)/(i-1)         (-inf at i=1)

    logit(u) = -log(1-u) + log(u), so the logistic mean is the exponential
    mean plus the neg-exponential one, and is computed as exactly that sum.
    The last one follows from E[(1-B)/B] = (n-i+1)/(i-1); the divergent
    endpoints are returned as signed infinities rather than raised, because
    the comparison layer can still reason about them.
    """
    return _transformed_mean(dist, s.i, s.n, lambda lo: harmonic_sum(lo, s.n))


def _transformed_mean(dist: ReferenceDistribution, i: int, n: int, tail) -> float:
    # The table above; tail(lo) is sum_{k=lo}^{n} 1/k, a harmonic_sum here
    # and a lookup in an O(n) table of tails for bounds.bound_table.
    if dist is ReferenceDistribution.UNIFORM:
        return i / (n + 1.0)
    if dist is ReferenceDistribution.EXPONENTIAL:
        return tail(n - i + 1)
    if dist is ReferenceDistribution.NEG_EXPONENTIAL:
        return -tail(i)
    if dist is ReferenceDistribution.LOGISTIC:
        return tail(n - i + 1) - tail(i)
    if dist is ReferenceDistribution.LOG_LOGISTIC_1:
        return math.inf if i == n else i / (n - i)
    if dist is ReferenceDistribution.NEG_LOG_LOGISTIC_1:
        return -math.inf if i == 1 else -(n - i + 1) / (i - 1.0)
    raise AssertionError(dist)
