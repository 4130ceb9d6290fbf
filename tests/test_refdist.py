"""Reference distributions: supports, specs and order-statistic moments."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from stochord.oracle import _ref_cdf
from stochord.refdist import (
    OrderStatSpec,
    ReferenceDistribution,
    expected_transformed_orderstat,
)

ALL_DISTS = list(ReferenceDistribution)


def test_enum_values_are_the_cli_names():
    assert {d.value for d in ALL_DISTS} == {
        "uniform",
        "exponential",
        "logistic",
        "log-logistic-1",
        "neg-exponential",
        "neg-log-logistic-1",
    }


def test_supports():
    R = ReferenceDistribution
    assert R.UNIFORM.support == (0.0, 1.0)
    assert R.EXPONENTIAL.support == (0.0, math.inf)
    assert R.LOGISTIC.support == (-math.inf, math.inf)
    assert R.LOG_LOGISTIC_1.support == (0.0, math.inf)
    assert R.NEG_EXPONENTIAL.support == (-math.inf, 0.0)
    assert R.NEG_LOG_LOGISTIC_1.support == (-math.inf, 0.0)


@pytest.mark.parametrize("i,n", [(0, 3), (4, 3), (-1, 5), (1, 0)])
def test_spec_rejects_bad_ranks(i, n):
    with pytest.raises(ValueError):
        OrderStatSpec(i, n)


def test_spec_rejects_non_integer_ranks():
    with pytest.raises(ValueError):
        OrderStatSpec(1.5, 3)


@pytest.mark.parametrize("dist", ALL_DISTS)
@given(p=st.floats(min_value=1e-9, max_value=1.0 - 1e-9))
def test_quantile_cdf_roundtrip(dist, p):
    """The oracle's G inverts this file's G^{-1}, which the moment quadrature
    below uses."""
    assert _ref_cdf(dist, float(_quantile_arr(dist, p))) == pytest.approx(p, abs=1e-12)


def test_moment_closed_forms():
    R, S = ReferenceDistribution, OrderStatSpec
    assert expected_transformed_orderstat(R.UNIFORM, S(3, 7)) == pytest.approx(0.375)
    assert expected_transformed_orderstat(R.EXPONENTIAL, S(2, 4)) == pytest.approx(
        1.0 / 3.0 + 1.0 / 4.0
    )
    assert expected_transformed_orderstat(R.LOG_LOGISTIC_1, S(3, 5)) == pytest.approx(1.5)
    assert expected_transformed_orderstat(R.NEG_EXPONENTIAL, S(2, 4)) == pytest.approx(
        -(1.0 / 2.0 + 1.0 / 3.0 + 1.0 / 4.0)
    )
    assert expected_transformed_orderstat(R.LOGISTIC, S(2, 5)) == pytest.approx(
        float(special.psi(2) - special.psi(4)), abs=1e-12
    )


def test_moment_negative_log_logistic_closed_form():
    """E[-(1-B)/B] for B ~ beta(i, n-i+1) is -(n-i+1)/(i-1), not -(n-i)/(i-1)."""
    R, S = ReferenceDistribution, OrderStatSpec
    assert expected_transformed_orderstat(R.NEG_LOG_LOGISTIC_1, S(2, 5)) == pytest.approx(-4.0)
    assert expected_transformed_orderstat(R.NEG_LOG_LOGISTIC_1, S(3, 5)) == pytest.approx(-1.5)
    assert expected_transformed_orderstat(R.NEG_LOG_LOGISTIC_1, S(5, 5)) == pytest.approx(-0.25)
    assert expected_transformed_orderstat(R.NEG_LOG_LOGISTIC_1, S(2, 10)) == pytest.approx(-9.0)


def test_moment_divergent_cases_are_tagged_infinities():
    R, S = ReferenceDistribution, OrderStatSpec
    assert expected_transformed_orderstat(R.LOG_LOGISTIC_1, S(5, 5)) == math.inf
    assert expected_transformed_orderstat(R.NEG_LOG_LOGISTIC_1, S(1, 9)) == -math.inf


def _quantile_arr(dist, u):
    return {
        ReferenceDistribution.UNIFORM: lambda p: p,
        ReferenceDistribution.EXPONENTIAL: lambda p: -np.log1p(-p),
        ReferenceDistribution.LOGISTIC: lambda p: np.log(p) - np.log1p(-p),
        ReferenceDistribution.LOG_LOGISTIC_1: lambda p: p / (1.0 - p),
        ReferenceDistribution.NEG_EXPONENTIAL: np.log,
        ReferenceDistribution.NEG_LOG_LOGISTIC_1: lambda p: -(1.0 - p) / p,
    }[dist](u)


def _moment_quad(dist, s):
    def integrand(u):
        return _quantile_arr(dist, u) * np.exp(
            (s.i - 1) * np.log(u)
            + (s.n - s.i) * np.log1p(-u)
            - special.betaln(s.i, s.n - s.i + 1)
        )

    val, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-11, epsrel=1e-11, limit=300)
    return val


@pytest.mark.parametrize("dist", ALL_DISTS)
def test_moments_agree_with_quadrature(dist):
    """Closed forms vs direct integration of G^{-1} against the beta density."""
    for i, n in [(1, 1), (1, 3), (2, 3), (3, 5), (5, 8), (4, 13), (13, 21), (17, 30)]:
        s = OrderStatSpec(i, n)
        closed = expected_transformed_orderstat(dist, s)
        if math.isinf(closed):
            continue
        assert closed == pytest.approx(_moment_quad(dist, s), abs=1e-8), (dist, i, n)


@pytest.mark.parametrize("dist", ALL_DISTS)
def test_moments_nondecreasing_in_rank(dist):
    for n in (1, 2, 5, 11, 25):
        values = [
            expected_transformed_orderstat(dist, OrderStatSpec(i, n))
            for i in range(1, n + 1)
        ]
        for lo, hi in zip(values, values[1:]):
            assert lo <= hi + 1e-12
