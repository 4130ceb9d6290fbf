"""Transformed beta order statistics and the exponential-frame partial mean.

A TransformedOrderStat is the law of W = G^{-1}(B_{i:n}) for a reference
distribution G; the oracle and the `probe` command take their arguments in
that form.  upper_partial_mean is E[W 1{W > x}] in the exponential frame,
W = -log(1 - B_{i:n}), by adaptive quadrature in the W variable, which
keeps the integrable endpoint singularity away from the integrator.  It
evaluates the DHRA criterion in ssverify.
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


def upper_partial_mean(s: OrderStatSpec, x: float) -> float:
    """E[W 1{W > x}] for W = -log(1 - B_{i:n}), the exponential frame.

    Integrates w f_W(w) over (x, inf) by adaptive quadrature, with the
    density f_W(w) = f_B(1 - e^-w) e^-w.
    """
    if not x >= 0.0:
        raise ValueError(f"upper_partial_mean needs x >= 0, got {x}")
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
