"""Transformed beta order statistics.

A TransformedOrderStat is the law of W = G^{-1}(B_{i:n}) for a reference
distribution G; the oracle and the `probe` command take their arguments in
that form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .refdist import OrderStatSpec, ReferenceDistribution

# Not called here: bound only because perfbench's tracer wraps
# orderstat.quad and perfbench/test_perfbench.py checks that it wraps
# orderstat.reg_inc_beta.  Drop them together with those hooks (ROADMAP,
# benchmark follow-through).
from scipy.integrate import quad  # noqa: F401
from .specfun import reg_inc_beta  # noqa: F401

__all__ = ["TransformedOrderStat"]


@dataclass(frozen=True, slots=True)
class TransformedOrderStat:
    """Law of G^{-1}(B_{i:n})."""

    dist: ReferenceDistribution
    spec: OrderStatSpec
