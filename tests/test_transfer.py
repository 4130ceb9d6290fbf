"""Holds verdicts transfer to parents other than the class's reference.

Every other referee in the suite works with W = G^{-1}(B_{i:n}), the
reference itself.  The paper's claim is wider: a Holds verdict holds for
every parent X = phi(W) with phi convex, concave or star-shaped as the class
requires.  Here each class gets one closed-form member other than G, given
by its quantile u -> phi(G^{-1}(u)), and each Holds verdict is re-checked on
it from the defining integrals, integrated in u with scipy.integrate.quad
as the oracle does:

    icx:  E[(X_a - t)+]         >= E[(X_b - t)+]
    icv:  E[min(X_a, t)]        >= E[min(X_b, t)]
    ss:   E[X_a 1{X_a > t}]     >= E[X_b 1{X_b > t}]   (t >= 0)

for X_a = X_{i:n} and X_b = X_{j:m}.  Only band pairs are drawn: a pair in
the usual stochastic order holds for every parent, so it could not show a
catalogue or orientation error.  A parent outside the class breaks some of
the same verdicts, which the negative controls pin.
"""

import math
import random

import pytest
from scipy import integrate, special

from stochord.conditions import ShapeClass, TransformKind, check_icv, check_icx
from stochord.refdist import OrderStatSpec
from stochord.ssverify import check_ss_dda, check_ss_dhra

C, S = ShapeClass, OrderStatSpec
_TOL = 1e-9
_QUAD_KW = dict(epsabs=1e-11, epsrel=1e-11, limit=200)
_GRID = [1e-4 + k * (0.9998 / 14) for k in range(15)]  # the oracle's levels, 15 a side


def _sigma(x: float) -> float:
    return 0.5 * (1.0 + math.tanh(0.5 * x))


def _exp_quantile(u: float) -> float:
    return -math.log1p(-u)


# One member per class, as a quantile function on (0, 1).
_MEMBERS = {
    C.DD: lambda u: u ** 3,
    C.ID: lambda u: u ** 0.4,
    C.DHR: lambda u: _exp_quantile(u) ** 1.8,  # Weibull of shape 1/1.8
    C.IHR: lambda u: _exp_quantile(u) ** 0.6,  # Weibull of shape 1/0.6
    # star-shaped and not convex: phi(x)/x rises, phi'' changes sign
    C.DDA: lambda u: u * (1.0 + 8.0 * _sigma(40.0 * (u - 0.5))),
    C.DHRA: lambda u: _exp_quantile(u) * (1.0 + 5.0 * _sigma(30.0 * (_exp_quantile(u) - 1.0))),
}


def _order(shape: ShapeClass) -> str:
    return {TransformKind.CONVEX: "icx", TransformKind.CONCAVE: "icv"}.get(shape.transform, "ss")


def _verdict(shape: ShapeClass, a: OrderStatSpec, b: OrderStatSpec):
    order = _order(shape)
    if order == "icx":
        return check_icx(shape, a, b)
    if order == "icv":
        return check_icv(shape, a, b)
    return (check_ss_dda if shape is C.DDA else check_ss_dhra)(a, b)


def _in_band(order: str, a: OrderStatSpec, b: OrderStatSpec) -> bool:
    """The order's rank rule holds, and a is not >=_st b (i >= j, n-i <= m-j)."""
    i, n, j, m = a.i, a.n, b.i, b.n
    if i >= j and n - i <= m - j:
        return False
    if order == "icv":
        return i >= j
    if order == "icx":
        return i <= j
    return i <= j and n - i <= m - j


def _log_density(s: OrderStatSpec):
    a, b = s.i, s.n - s.i + 1
    log_norm = float(special.betaln(a, b))
    return lambda u: (a - 1) * math.log(u) + (b - 1) * math.log1p(-u) - log_norm


def _worst_margin(order: str, quantile, a: OrderStatSpec, b: OrderStatSpec) -> float:
    """The smallest margin of the claim X_a >= X_b over the pooled grid."""
    log_fa, log_fb = _log_density(a), _log_density(b)

    def gap(u: float) -> float:  # Q(u) (f_a(u) - f_b(u))
        return quantile(u) * (math.exp(log_fa(u)) - math.exp(log_fb(u)))

    def survival_gap(u: float) -> float:  # P(B_a > u) - P(B_b > u)
        return (special.betainc(b.i, b.n - b.i + 1, u)
                - special.betainc(a.i, a.n - a.i + 1, u))

    levels = sorted({float(special.betaincinv(s.i, s.n - s.i + 1, p))
                     for s in (a, b) for p in _GRID})
    worst = math.inf
    for u_t in levels:
        t = quantile(u_t)
        if order == "icv":
            lower, _ = integrate.quad(gap, 0.0, u_t, **_QUAD_KW)
            margin = lower + t * survival_gap(u_t)
        else:
            upper, _ = integrate.quad(gap, u_t, 1.0, **_QUAD_KW)
            margin = upper - t * survival_gap(u_t) if order == "icx" else upper
        worst = min(worst, margin)
    return worst


def _band_holds(shape: ShapeClass, count: int) -> list[tuple[OrderStatSpec, OrderStatSpec]]:
    """The first `count` distinct band pairs with n, m <= 14 that read Holds,
    drawn from a generator seeded with the class's name."""
    rng = random.Random(shape.value)
    order = _order(shape)
    pairs: list[tuple[OrderStatSpec, OrderStatSpec]] = []
    while len(pairs) < count:
        n, m = rng.randint(2, 14), rng.randint(2, 14)
        a, b = S(rng.randint(1, n), n), S(rng.randint(1, m), m)
        if a == b or (a, b) in pairs or not _in_band(order, a, b):
            continue
        if _verdict(shape, a, b).holds:
            pairs.append((a, b))
    return pairs


@pytest.mark.parametrize("shape", list(_MEMBERS), ids=lambda c: c.value)
def test_holds_verdicts_transfer_to_a_non_reference_member(shape):
    quantile = _MEMBERS[shape]
    failures = [
        (a, b, margin)
        for a, b in _band_holds(shape, 4)
        if (margin := _worst_margin(_order(shape), quantile, a, b)) < -_TOL
    ]
    assert failures == []


@pytest.mark.parametrize("shape, parent, a, b, margin", [
    # u^0.4 is concave: an ID parent, not DD
    (C.DD, lambda u: u ** 0.4, S(1, 2), S(3, 8), -3.2e-2),
    # sqrt(u)/u falls: not star-shaped, so not DDA
    (C.DDA, math.sqrt, S(2, 3), S(6, 12), -2.4e-2),
], ids=["DD-icx-on-ID-parent", "DDA-ss-on-sqrt"])
def test_a_parent_outside_the_class_breaks_a_band_holds(shape, parent, a, b, margin):
    assert _in_band(_order(shape), a, b)
    assert _verdict(shape, a, b).holds
    assert _worst_margin(_order(shape), parent, a, b) == pytest.approx(margin, rel=0.02)
