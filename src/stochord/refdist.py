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
from dataclasses import dataclass

from .specfun import harmonic_sum

__all__ = [
    "ReferenceDistribution",
    "OrderStatSpec",
    "expected_transformed_orderstat",
]


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
