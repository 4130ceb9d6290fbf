"""Independent numerical probes for the stochastic-order claims.

Everything in this module rechecks an ordering from its defining integral
characterisation, using numpy, scipy and the standard library only (betainc
and betaincinv from scipy.special for the beta layer, adaptive quadrature
from scipy.integrate for partial means).  scipy.stats is not loaded: the one
density it supplied, Beta(i, n-i+1) at u = 0 and u = 1, is exact in closed
form for integer parameters (see _integrand).  None of the closed forms,
continued fractions, or series from the rest of the package are imported,
so an agreement between a checker verdict and a probe is evidence, not
circularity.

The partial means integrate G^{-1}(u) times the Beta(i, n-i+1) density over
u.  That integrand runs once per quadrature node, so it is built once per
(reference, spec) as a closure over plain ``math``: a scalar quantile for the
reference, times the density in log space,
exp((a-1) log u + (b-1) log1p(-u) - betaln(a, b)), with betaln from
scipy.special computed once.  This is the only quadrature in the package:
the verdicts it referees, DHRA's exponential frame included, are closed
forms, and the referee must not share code with what it referees.

Characterisations probed, for W_a = G^{-1}(B_{i:n}) and W_b = G^{-1}(B_{j:m})
with a common reference G:

    st:   F_a(t) <= F_b(t)                     for all t
    ss:   E[W_a 1{W_a > t}] >= E[W_b 1{W_b > t}]   for all t >= 0
    icv:  E[min(W_a, t)] >= E[min(W_b, t)]      for all t
    icx:  E[(W_a - t)+] <= E[(W_b - t)+]        for all t

Margins are oriented so that nonnegative means "consistent with the claim";
a margin below -_PROBE_TOL is a refutation at quadrature accuracy, and a nan
margin (the referee could not evaluate it) fails the probe as well.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from .orderstat import TransformedOrderStat
from .refdist import OrderStatSpec, ReferenceDistribution

__all__ = ["OrderProbe", "probe_st", "probe_ss", "probe_icv", "probe_icx"]

_PROBE_TOL = 1e-9
_QUAD_KW = dict(epsabs=1e-11, epsrel=1e-11, limit=300)


def __getattr__(name: str):
    # `oracle.stats` is scipy.stats, imported only when asked for: the
    # benchmark's tracer (perfbench/tracing.py) still wraps it, while the
    # oracle itself no longer calls it.  Delete this once the benchmark
    # retires its `oracle.stats` hook (ROADMAP, benchmark follow-through).
    if name == "stats":
        from scipy import stats

        return stats
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# -- reference forms, duplicated here on purpose (see module docstring) -----

def _ref_cdf(dist: ReferenceDistribution, t: float) -> float:
    if dist is ReferenceDistribution.UNIFORM:
        return min(1.0, max(0.0, t))
    if dist is ReferenceDistribution.EXPONENTIAL:
        return 0.0 if t <= 0.0 else -math.expm1(-t)
    if dist is ReferenceDistribution.LOGISTIC:
        return float(special.expit(t))
    if dist is ReferenceDistribution.LOG_LOGISTIC_1:
        return 0.0 if t <= 0.0 else t / (1.0 + t)
    if dist is ReferenceDistribution.NEG_EXPONENTIAL:
        return 1.0 if t >= 0.0 else math.exp(t)
    if dist is ReferenceDistribution.NEG_LOG_LOGISTIC_1:
        return 1.0 if t >= 0.0 else 1.0 / (1.0 - t)
    raise ValueError(f"unknown reference {dist!r}")


def _ref_quantile(dist: ReferenceDistribution, p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if dist is ReferenceDistribution.UNIFORM:
        return p
    if dist is ReferenceDistribution.EXPONENTIAL:
        return -np.log1p(-p)
    if dist is ReferenceDistribution.LOGISTIC:
        return np.asarray(special.logit(p))
    if dist is ReferenceDistribution.LOG_LOGISTIC_1:
        with np.errstate(divide="ignore"):
            return p / (1.0 - p)
    if dist is ReferenceDistribution.NEG_EXPONENTIAL:
        return np.log(p)
    if dist is ReferenceDistribution.NEG_LOG_LOGISTIC_1:
        with np.errstate(divide="ignore"):
            return -(1.0 - p) / p
    raise ValueError(f"unknown reference {dist!r}")


def _logit(u: float) -> float:
    # scipy.special.logit's two branches: log1p keeps precision near u = 1/2
    if 0.3 <= u <= 0.65:
        s = 2.0 * (u - 0.5)
        return math.log1p(s) - math.log1p(-s)
    return math.log(u / (1.0 - u))


# scalar G^{-1}(u) for 0 < u < 1, the per-node form of _ref_quantile
_SCALAR_QUANTILE = {
    ReferenceDistribution.UNIFORM: lambda u: u,
    ReferenceDistribution.EXPONENTIAL: lambda u: -math.log1p(-u),
    ReferenceDistribution.LOGISTIC: _logit,
    ReferenceDistribution.LOG_LOGISTIC_1: lambda u: u / (1.0 - u),
    ReferenceDistribution.NEG_EXPONENTIAL: math.log,
    ReferenceDistribution.NEG_LOG_LOGISTIC_1: lambda u: -(1.0 - u) / u,
}


@functools.lru_cache(maxsize=256)
def _integrand(dist: ReferenceDistribution, s: OrderStatSpec):
    """u -> G^{-1}(u) * beta_pdf(u; i, n-i+1), the partial-mean integrand.

    Inside (0, 1) it is plain ``math``.  At u = 0 and u = 1, where log, log1p
    or a division would raise, it multiplies ``_ref_quantile(dist, u)`` by
    the exact Beta(a, b) density.  With integers a = i >= 1 and
    b = n-i+1 >= 1 the density u^(a-1) (1-u)^(b-1) / B(a, b) is b at u = 0
    when a = 1 (B(1, b) = 1/b) and 0 otherwise, a at u = 1 when b = 1 and 0
    otherwise, and 0 outside [0, 1]; these are the values scipy.stats.beta.pdf
    returns there, bit for bit.  The product comes out finite where both
    factors are finite, +-inf where the quantile diverges against a nonzero
    density, and nan for inf * 0.  A nan then reaches the probe's margin and
    fails the probe instead of being hidden.
    """
    a, b = float(s.i), float(s.n - s.i + 1)
    log_norm = float(special.betaln(a, b))
    quantile = _SCALAR_QUANTILE[dist]

    def f(u: float) -> float:
        if 0.0 < u < 1.0:
            log_pdf = (a - 1.0) * math.log(u) + (b - 1.0) * math.log1p(-u) - log_norm
            return quantile(u) * math.exp(log_pdf)
        if u == 0.0:
            pdf = b if a == 1.0 else 0.0
        elif u == 1.0:
            pdf = a if b == 1.0 else 0.0
        else:
            pdf = 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(_ref_quantile(dist, u) * pdf)

    return f


def _upper_tail_is_infinite(dist: ReferenceDistribution, s: OrderStatSpec) -> bool:
    # E[W 1{W > t}] diverges only for the x/(1+x) reference at the sample max
    return dist is ReferenceDistribution.LOG_LOGISTIC_1 and s.i == s.n


def _lower_tail_is_infinite(dist: ReferenceDistribution, s: OrderStatSpec) -> bool:
    # E[W 1{W <= t}] diverges only for the -(1-p)/p reference at the minimum
    return dist is ReferenceDistribution.NEG_LOG_LOGISTIC_1 and s.i == 1


def _upper_partial(dist: ReferenceDistribution, s: OrderStatSpec, t: float) -> float:
    """E[W 1{W > t}] by quadrature in the beta variable."""
    if _upper_tail_is_infinite(dist, s):
        return math.inf
    p_t = _ref_cdf(dist, t)
    if p_t >= 1.0:
        return 0.0
    val, _ = integrate.quad(_integrand(dist, s), p_t, 1.0, **_QUAD_KW)
    return val


def _lower_partial(dist: ReferenceDistribution, s: OrderStatSpec, t: float) -> float:
    """E[W 1{W <= t}] by quadrature in the beta variable."""
    if _lower_tail_is_infinite(dist, s):
        return -math.inf
    p_t = _ref_cdf(dist, t)
    if p_t <= 0.0:
        return 0.0
    val, _ = integrate.quad(_integrand(dist, s), 0.0, p_t, **_QUAD_KW)
    return val


def _cdf_w(dist: ReferenceDistribution, s: OrderStatSpec, t: float) -> float:
    return float(special.betainc(s.i, s.n - s.i + 1, _ref_cdf(dist, t)))


def _margin(lhs: float, rhs: float) -> float:
    """lhs - rhs with the convention that two like infinities cancel."""
    if math.isinf(lhs) and math.isinf(rhs) and lhs == rhs:
        return 0.0
    return lhs - rhs


@dataclass(frozen=True, slots=True)
class OrderProbe:
    """Result of one grid probe: the worst margin tells the story."""

    order: str
    passed: bool
    worst_margin: float
    worst_point: float
    grid_size: int
    tol: float


def _probe_grid(
    w_a: TransformedOrderStat, w_b: TransformedOrderStat, grid_size: int
) -> np.ndarray:
    if w_a.dist is not w_b.dist:
        raise ValueError("probes compare order statistics under one common reference")
    ps = np.linspace(1e-4, 0.9999, grid_size)
    ts = []
    for w in (w_a, w_b):
        us = special.betaincinv(w.spec.i, w.spec.n - w.spec.i + 1, ps)
        ts.append(np.asarray(_ref_quantile(w.dist, us), dtype=float))
    pooled = np.unique(np.concatenate(ts))
    return pooled[np.isfinite(pooled)]


def _run_probe(order, w_a, w_b, grid_size, margin_at) -> OrderProbe:
    ts = _probe_grid(w_a, w_b, grid_size)
    worst_margin = math.inf
    worst_point = math.nan
    for t in ts:
        m = margin_at(float(t))
        if math.isnan(m) or m < worst_margin:
            worst_margin, worst_point = m, float(t)
            if math.isnan(m):
                break  # no margin is worse: the referee could not decide here
    return OrderProbe(
        order=order,
        passed=worst_margin >= -_PROBE_TOL,
        worst_margin=worst_margin,
        worst_point=worst_point,
        grid_size=grid_size,
        tol=_PROBE_TOL,
    )


def probe_st(
    w_a: TransformedOrderStat,
    w_b: TransformedOrderStat,
    *,
    grid_size: int = 61,
) -> OrderProbe:
    """Does W_a >= W_b in the usual stochastic order, on a quantile grid?"""
    return _run_probe(
        "st", w_a, w_b, grid_size,
        lambda t: _cdf_w(w_b.dist, w_b.spec, t) - _cdf_w(w_a.dist, w_a.spec, t),
    )


def probe_ss(
    w_a: TransformedOrderStat,
    w_b: TransformedOrderStat,
    *,
    grid_size: int = 61,
) -> OrderProbe:
    """Upper-partial-mean comparison on [0, inf); needs nonnegative support."""
    for w in (w_a, w_b):
        if w.dist.support[0] < 0.0:
            raise ValueError(
                "the upper-partial-mean characterisation needs nonnegative support, "
                f"got reference {w.dist.value!r}"
            )
    return _run_probe(
        "ss", w_a, w_b, grid_size,
        lambda t: _margin(
            _upper_partial(w_a.dist, w_a.spec, t),
            _upper_partial(w_b.dist, w_b.spec, t),
        ),
    )


def probe_icv(
    w_a: TransformedOrderStat,
    w_b: TransformedOrderStat,
    *,
    grid_size: int = 61,
) -> OrderProbe:
    """E[min(W, t)] comparison: W_a should dominate W_b."""

    def emin(w: TransformedOrderStat, t: float) -> float:
        lp = _lower_partial(w.dist, w.spec, t)
        if math.isinf(lp):
            return lp
        return lp + t * (1.0 - _cdf_w(w.dist, w.spec, t))

    return _run_probe(
        "icv", w_a, w_b, grid_size,
        lambda t: _margin(emin(w_a, t), emin(w_b, t)),
    )


def probe_icx(
    w_a: TransformedOrderStat,
    w_b: TransformedOrderStat,
    *,
    grid_size: int = 61,
) -> OrderProbe:
    """E[(W - t)+] comparison: W_b should dominate W_a."""

    def ewedge(w: TransformedOrderStat, t: float) -> float:
        up = _upper_partial(w.dist, w.spec, t)
        if math.isinf(up):
            return up
        return up - t * (1.0 - _cdf_w(w.dist, w.spec, t))

    return _run_probe(
        "icx", w_a, w_b, grid_size,
        lambda t: _margin(ewedge(w_b, t), ewedge(w_a, t)),
    )
