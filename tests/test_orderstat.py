"""The exponential-frame upper partial mean, by quadrature."""

import math

import numpy as np
import pytest
from scipy import integrate, special

from stochord.orderstat import upper_partial_mean
from stochord.refdist import (
    OrderStatSpec,
    ReferenceDistribution,
    expected_transformed_orderstat,
)

R = ReferenceDistribution


@pytest.mark.parametrize("i,n", [(1, 1), (1, 4), (3, 4), (5, 9)])
def test_upper_partial_mean_at_zero_is_the_moment(i, n):
    s = OrderStatSpec(i, n)
    assert upper_partial_mean(s, 0.0) == pytest.approx(
        expected_transformed_orderstat(R.EXPONENTIAL, s), abs=1e-8
    )


def test_upper_partial_mean_nonincreasing_to_zero():
    s = OrderStatSpec(3, 6)
    values = [upper_partial_mean(s, x) for x in [0.0, 0.5, 1.5, 4.0, 9.0]]
    for first, second in zip(values, values[1:]):
        assert second <= first + 1e-12
    assert values[-1] >= 0.0
    assert upper_partial_mean(s, 40.0) == pytest.approx(0.0, abs=1e-10)


def test_upper_partial_mean_rejects_bad_input():
    with pytest.raises(ValueError):
        upper_partial_mean(OrderStatSpec(1, 2), -0.5)
    with pytest.raises(ValueError):
        upper_partial_mean(OrderStatSpec(2, 3), math.nan)


def test_exponential_upper_partial_against_direct_quadrature():
    # W-space integral done independently with scipy, pdf via the beta density
    s = OrderStatSpec(3, 7)

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
        assert upper_partial_mean(s, x) == pytest.approx(direct, abs=1e-9)
