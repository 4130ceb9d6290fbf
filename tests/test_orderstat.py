"""Transformed order statistics: upper partial means by quadrature."""

import math

import numpy as np
import pytest
from scipy import integrate, special

from stochord.orderstat import TransformedOrderStat, upper_partial_mean
from stochord.refdist import (
    OrderStatSpec,
    ReferenceDistribution,
    expected_transformed_orderstat,
)

R = ReferenceDistribution


@pytest.mark.parametrize("dist", [R.UNIFORM, R.EXPONENTIAL, R.LOG_LOGISTIC_1])
@pytest.mark.parametrize("i,n", [(1, 1), (1, 4), (3, 4), (5, 9)])
def test_upper_partial_mean_at_zero_is_the_moment(dist, i, n):
    s = OrderStatSpec(i, n)
    w = TransformedOrderStat(dist, s)
    assert upper_partial_mean(w, 0.0) == pytest.approx(
        expected_transformed_orderstat(dist, s), abs=1e-8
    )


@pytest.mark.parametrize("dist", [R.UNIFORM, R.EXPONENTIAL, R.LOG_LOGISTIC_1])
def test_upper_partial_mean_nonincreasing_to_zero(dist):
    w = TransformedOrderStat(dist, OrderStatSpec(3, 6))
    xs = [0.0, 0.2, 0.5, 0.9] if dist is R.UNIFORM else [0.0, 0.5, 1.5, 4.0, 9.0]
    values = [upper_partial_mean(w, x) for x in xs]
    for first, second in zip(values, values[1:]):
        assert second <= first + 1e-12
    assert values[-1] >= 0.0
    if dist is R.UNIFORM:
        assert upper_partial_mean(w, 1.0) == 0.0
    elif dist is R.EXPONENTIAL:
        assert upper_partial_mean(w, 40.0) == pytest.approx(0.0, abs=1e-10)
    else:
        # the x/(1+x) tail vanishes only polynomially, roughly x^{-(n-i)}
        assert upper_partial_mean(w, 1000.0) < 1e-7


def test_upper_partial_mean_uniform_closed_form():
    """Dual route: quadrature vs (i/(n+1)) (1 - I_x(i+1, n-i+1)) via scipy."""
    for i, n in [(1, 3), (2, 3), (4, 7)]:
        w = TransformedOrderStat(R.UNIFORM, OrderStatSpec(i, n))
        for x in (0.1, 0.4, 0.85):
            closed = i / (n + 1.0) * (1.0 - float(special.betainc(i + 1, n - i + 1, x)))
            assert upper_partial_mean(w, x) == pytest.approx(closed, abs=1e-10)


def test_upper_partial_mean_divergent_tail():
    w = TransformedOrderStat(R.LOG_LOGISTIC_1, OrderStatSpec(4, 4))
    assert upper_partial_mean(w, 2.0) == math.inf


def test_upper_partial_mean_rejects_bad_input():
    w = TransformedOrderStat(R.UNIFORM, OrderStatSpec(1, 2))
    with pytest.raises(ValueError):
        upper_partial_mean(w, -0.5)
    with pytest.raises(ValueError):
        upper_partial_mean(TransformedOrderStat(R.EXPONENTIAL, OrderStatSpec(2, 3)), math.nan)
    with pytest.raises(ValueError):
        upper_partial_mean(TransformedOrderStat(R.LOGISTIC, OrderStatSpec(1, 2)), 0.1)


def test_exponential_upper_partial_against_direct_quadrature():
    # W-space integral done independently with scipy, pdf via the beta density
    s = OrderStatSpec(3, 7)
    w = TransformedOrderStat(R.EXPONENTIAL, s)

    def integrand(t):
        # log(1 - u) = -t exactly for u = 1 - e^{-t}; avoids log1p(-1) at huge t
        u = -np.expm1(-t)
        logpdf = (
            (s.i - 1) * np.log(u)
            - (s.n - s.i) * t
            - float(special.betaln(s.i, s.n - s.i + 1))
            - t
        )
        return t * np.exp(logpdf)

    for x in (0.0, 0.4, 1.1):
        direct, _ = integrate.quad(integrand, x, np.inf, epsabs=1e-12, limit=300)
        assert upper_partial_mean(w, x) == pytest.approx(direct, abs=1e-9)
