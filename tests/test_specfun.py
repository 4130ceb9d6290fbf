"""Special-function layer, cross-checked against scipy.special throughout.

The package deliberately hand-rolls harmonic sums, log-beta and the
regularised incomplete beta so that the oracle module can use scipy as an
independent second route; these tests are where the two routes meet.  The
digamma differences psi(i) - psi(n-i+1) of the logistic moments are
harmonic sums at integer ranks, so they are checked here as the refdist
table entry against scipy's psi.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from stochord.refdist import OrderStatSpec, expected_transformed_orderstat
from stochord.refdist import ReferenceDistribution as R
from stochord.specfun import harmonic_sum, log_beta, reg_inc_beta


def test_harmonic_sum_small_values():
    assert harmonic_sum(1, 1) == 1.0
    assert harmonic_sum(1, 2) == 1.5
    assert harmonic_sum(3, 3) == pytest.approx(1.0 / 3.0, abs=0)
    assert harmonic_sum(1, 10) == pytest.approx(2.9289682539682538, abs=1e-15)


@pytest.mark.parametrize("lo,hi", [(0, 1), (-2, 3), (3, 2), (2, 1)])
def test_harmonic_sum_rejects_bad_ranges(lo, hi):
    with pytest.raises(ValueError):
        harmonic_sum(lo, hi)


def test_harmonic_sum_rejects_non_integers():
    with pytest.raises(ValueError):
        harmonic_sum(1.5, 3)


@given(
    lo=st.integers(min_value=1, max_value=200),
    span1=st.integers(min_value=0, max_value=150),
    span2=st.integers(min_value=1, max_value=150),
)
def test_harmonic_sum_additivity(lo, span1, span2):
    """Adjacent ranges concatenate exactly: H(lo,h) + H(h+1,h2) = H(lo,h2)."""
    hi = lo + span1
    hi2 = hi + span2
    left = harmonic_sum(lo, hi) + harmonic_sum(hi + 1, hi2)
    assert left == pytest.approx(harmonic_sum(lo, hi2), abs=1e-14)


def test_digamma_matches_scipy():
    """The logistic table entry is psi(i) - psi(n-i+1), to 1e-14 absolute."""
    for n in range(1, 301):
        i = np.arange(1, n + 1)
        want = special.psi(i) - special.psi(n - i + 1)
        for k in range(1, n + 1):
            got = expected_transformed_orderstat(R.LOGISTIC, OrderStatSpec(k, n))
            assert abs(got - want[k - 1]) <= 1e-14, (k, n)


def test_digamma_partial_sum_identity():
    """logit(u) = -log(1-u) + log(u): logistic = exponential + neg-exponential.

    psi(i) - psi(n-i+1) = sum_{k=n-i+1}^{n} 1/k - sum_{k=i}^{n} 1/k, bit for bit.
    """
    for n in range(1, 51):
        for i in range(1, n + 1):
            s = OrderStatSpec(i, n)
            logistic = expected_transformed_orderstat(R.LOGISTIC, s)
            parts = (
                expected_transformed_orderstat(R.EXPONENTIAL, s)
                + expected_transformed_orderstat(R.NEG_EXPONENTIAL, s)
            )
            assert struct.pack("<d", logistic) == struct.pack("<d", parts), (i, n)


@given(
    a=st.floats(min_value=0.05, max_value=60.0),
    b=st.floats(min_value=0.05, max_value=60.0),
)
def test_log_beta_matches_scipy(a, b):
    assert log_beta(a, b) == pytest.approx(float(special.betaln(a, b)), rel=1e-13, abs=1e-13)


def test_reg_inc_beta_endpoints():
    assert reg_inc_beta(0.0, 2.5, 3.0) == 0.0
    assert reg_inc_beta(1.0, 2.5, 3.0) == 1.0


@pytest.mark.parametrize("x,a,b", [(-0.1, 1, 1), (1.1, 1, 1), (0.5, 0.0, 1), (0.5, 1, -2)])
def test_reg_inc_beta_domain_errors(x, a, b):
    with pytest.raises(ValueError):
        reg_inc_beta(x, a, b)


@given(
    x=st.floats(min_value=1e-5, max_value=1.0 - 1e-5),
    a=st.floats(min_value=0.5, max_value=40.0),
    b=st.floats(min_value=0.5, max_value=40.0),
)
def test_reg_inc_beta_symmetry(x, a, b):
    # the 1-x complement itself rounds, so keep the density moderate: tiny
    # shape parameters at extreme x amplify that rounding beyond 1e-12
    assert reg_inc_beta(x, a, b) + reg_inc_beta(1.0 - x, b, a) == pytest.approx(1.0, abs=1e-12)


@given(
    x=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    a=st.floats(min_value=0.1, max_value=40.0),
    b=st.floats(min_value=0.1, max_value=40.0),
)
def test_reg_inc_beta_matches_scipy(x, a, b):
    assert reg_inc_beta(x, a, b) == pytest.approx(
        float(special.betainc(a, b, x)), rel=5e-13, abs=5e-14
    )


def test_reg_inc_beta_binomial_identity():
    # I_x(i, n-i+1) = P(Bin(n, x) >= i) for integer parameters
    for n, i, x in [(3, 2, 0.5), (5, 1, 0.2), (7, 7, 0.9), (10, 4, 0.35)]:
        tail = sum(
            math.comb(n, k) * x**k * (1.0 - x) ** (n - k) for k in range(i, n + 1)
        )
        assert reg_inc_beta(x, i, n - i + 1) == pytest.approx(tail, abs=1e-13)


@given(x=st.floats(min_value=0.0, max_value=1.0))
def test_higher_ranks_dominate(x):
    # P(B_{i:n} <= x) = I_x(i, n-i+1) is nonincreasing in i: larger ranks
    # sit to the right
    n = 9
    values = [reg_inc_beta(x, float(i), float(n - i + 1)) for i in range(1, n + 1)]
    for first, second in zip(values, values[1:]):
        assert second <= first + 1e-13


@settings(max_examples=60)
@given(
    x=st.floats(min_value=0.05, max_value=0.95),
    a=st.floats(min_value=0.5, max_value=20.0),
    b=st.floats(min_value=0.5, max_value=20.0),
)
def test_reg_inc_beta_derivative_is_beta_density(x, a, b):
    """Central difference of I_x(a,b) recovers the beta pdf to 1e-6 relative."""
    h = 1e-6
    fd = (reg_inc_beta(x + h, a, b) - reg_inc_beta(x - h, a, b)) / (2.0 * h)
    pdf = float(stats.beta.pdf(x, a, b))
    assert fd == pytest.approx(pdf, rel=1e-5, abs=1e-9)
