"""Distributions of transformed beta order statistics.

A TransformedOrderStat is the law of W = G^{-1}(B_{i:n}) for a reference
distribution G.  Its upper partial mean is computed by adaptive quadrature
in the W variable, which keeps integrable endpoint singularities away from
the integrator.  The quadrature route is deliberately independent of the
closed-form expressions elsewhere in the package: it is what they are
tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import quad

from .refdist import OrderStatSpec, ReferenceDistribution
from .specfun import log_beta

# Not called here: bound only because perfbench/test_perfbench.py checks
# that its tracer wraps orderstat.reg_inc_beta.  Drop it together with that
# check (ROADMAP, benchmark follow-through).
from .specfun import reg_inc_beta  # noqa: F401

__all__ = ["TransformedOrderStat", "upper_partial_mean"]

_QUAD_EPSABS = 1e-12
_QUAD_EPSREL = 1e-12
_QUAD_LIMIT = 200


@dataclass(frozen=True, slots=True)
class TransformedOrderStat:
    """Law of G^{-1}(B_{i:n})."""

    dist: ReferenceDistribution
    spec: OrderStatSpec


def upper_partial_mean(t: TransformedOrderStat, x: float) -> float:
    """E[W 1{W > x}] for W = G^{-1}(B_{i:n}), nonnegative-support G only.

    Integrates w * f_W(w) over (x, sup) by adaptive quadrature after a
    change of variables into the W domain:

      uniform         f_W(w) = f_B(w)                     on (0, 1)
      exponential     f_W(w) = f_B(1-e^-w) e^-w           on (0, inf)
      log-logistic-1  f_W(w) = f_B(w/(1+w)) / (1+w)^2     on (0, inf)

    For the log-logistic frame with i = n the integral diverges and +inf is
    returned.
    """
    if not x >= 0.0:
        raise ValueError(f"upper_partial_mean needs x >= 0, got {x}")
    dist, s = t.dist, t.spec
    if not dist.nonnegative:
        raise ValueError(
            f"upper_partial_mean supports nonnegative-support references only, got {dist.value}"
        )
    if dist is ReferenceDistribution.UNIFORM:
        if x >= 1.0:
            return 0.0
        a, b = s.alpha, s.beta
        lb = log_beta(a, b)

        def integrand(w: float) -> float:
            # w * beta_pdf(w), the density in log space first
            if not 0.0 < w < 1.0:
                return 0.0
            return w * math.exp((a - 1) * math.log(w) + (b - 1) * math.log1p(-w) - lb)

        value, _ = quad(integrand, x, 1.0, epsabs=_QUAD_EPSABS, epsrel=_QUAD_EPSREL, limit=_QUAD_LIMIT)
        return value
    if dist is ReferenceDistribution.EXPONENTIAL:
        a, b = s.alpha, s.beta
        lb = log_beta(a, b)

        def integrand(w: float) -> float:
            # w * beta_pdf(1-e^-w) * e^-w, all in log space first
            if w <= 0.0:
                return 0.0
            log_u = math.log(-math.expm1(-w))  # log(1 - e^-w)
            return w * math.exp((a - 1) * log_u - b * w - lb)

        value, _ = quad(integrand, x, math.inf, epsabs=_QUAD_EPSABS, epsrel=_QUAD_EPSREL, limit=_QUAD_LIMIT)
        return value
    if dist is ReferenceDistribution.LOG_LOGISTIC_1:
        if s.i == s.n:
            return math.inf
        a, b = s.alpha, s.beta
        lb = log_beta(a, b)

        def integrand(w: float) -> float:
            if w <= 0.0:
                return 0.0
            # f_W(w) = w^(a-1) / (1+w)^(a+b) / B(a,b)
            return w * math.exp((a - 1) * math.log(w) - (a + b) * math.log1p(w) - lb)

        value, _ = quad(integrand, x, math.inf, epsabs=_QUAD_EPSABS, epsrel=_QUAD_EPSREL, limit=_QUAD_LIMIT)
        return value
    raise AssertionError(dist)
