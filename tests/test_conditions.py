"""Closed-form icv/icx checkers: catalog wiring, verdicts, preconditions."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stochord.conditions import (
    BoundaryCaseError,
    ShapeClass,
    TransformKind,
    UnsupportedClassError,
    VerdictStatus,
    check_icv,
    check_icx,
    check_mean_dominated_by_orderstat,
    check_mean_dominates_orderstat,
)
from stochord.refdist import OrderStatSpec, ReferenceDistribution

C, R, S = ShapeClass, ReferenceDistribution, OrderStatSpec

CONCAVE_SIDE = [C.ID, C.IHR, C.IOR, C.ILOR]
CONVEX_SIDE = [C.DD, C.DHR, C.DOR, C.DLOR, C.DRHR, C.DROR]


def test_catalog_pairs():
    expected = {
        C.DD: (TransformKind.CONVEX, R.UNIFORM),
        C.ID: (TransformKind.CONCAVE, R.UNIFORM),
        C.DDA: (TransformKind.STAR_SHAPED, R.UNIFORM),
        C.IHR: (TransformKind.CONCAVE, R.EXPONENTIAL),
        C.DHR: (TransformKind.CONVEX, R.EXPONENTIAL),
        C.DHRA: (TransformKind.STAR_SHAPED, R.EXPONENTIAL),
        C.DRHR: (TransformKind.CONVEX, R.NEG_EXPONENTIAL),
        C.IOR: (TransformKind.CONCAVE, R.LOG_LOGISTIC_1),
        C.DOR: (TransformKind.CONVEX, R.LOG_LOGISTIC_1),
        C.ILOR: (TransformKind.CONCAVE, R.LOGISTIC),
        C.DLOR: (TransformKind.CONVEX, R.LOGISTIC),
        C.DROR: (TransformKind.CONVEX, R.NEG_LOG_LOGISTIC_1),
    }
    for shape, (kind, dist) in expected.items():
        assert shape.transform is kind
        assert shape.reference is dist


def test_icv_holds_cases():
    assert check_icv(C.ID, S(3, 5), S(2, 4)).holds
    assert check_icv(C.IHR, S(3, 5), S(2, 4)).holds
    assert check_icv(C.IOR, S(3, 5), S(2, 4)).holds
    assert check_icv(C.ILOR, S(3, 5), S(2, 4)).holds


def test_icv_undetermined_when_condition_fails():
    # ranks fine (2 >= 2) but 2/6 < 2/5
    verdict = check_icv(C.ID, S(2, 5), S(2, 4))
    assert verdict.status is VerdictStatus.UNDETERMINED
    assert verdict.lhs_witness == pytest.approx(2.0 / 6.0)
    assert verdict.rhs_witness == pytest.approx(2.0 / 5.0)


def test_icv_rank_precondition():
    verdict = check_icv(C.ID, S(1, 5), S(2, 4))
    assert not verdict.holds
    assert "rank precondition" in verdict.condition_name


def test_icx_holds_cases():
    assert check_icx(C.DD, S(3, 5), S(3, 8)).holds
    assert check_icx(C.DHR, S(2, 3), S(2, 5)).holds
    assert check_icx(C.DOR, S(3, 5), S(3, 8)).holds
    assert check_icx(C.DRHR, S(2, 3), S(2, 5)).holds


def test_icx_rank_precondition():
    verdict = check_icx(C.DD, S(3, 5), S(2, 8))
    assert not verdict.holds
    assert "rank precondition" in verdict.condition_name


def test_drhr_inequality_is_flipped():
    # the neg-exponential transformed means are negated harmonic sums, so
    # dominance asks for the SMALLER tabulated sum on the left
    holds = check_icx(C.DRHR, S(2, 3), S(2, 5))
    assert holds.holds
    assert holds.lhs_witness < holds.rhs_witness
    assert not check_icx(C.DRHR, S(2, 5), S(2, 3)).holds


def test_dror_regression_against_printed_form():
    """The n/(n-i) <= m/(m-j) reading admits pairs that violate icx.

    For a = (2,10), b = (3,4) it evaluates 1.25 <= 4 (true), yet the
    transformed order statistics are not icx-ordered; the corrected
    comparison (n-i+1)/(i-1) <= (m-j+1)/(j-1) reads 9 <= 1 and stays
    undetermined.  Same story for (2,3) vs (4,6): 3 <= 3 but 2 > 1.
    """
    assert 10 / (10 - 2) <= 4 / (4 - 3)  # printed form would accept
    v = check_icx(C.DROR, S(2, 10), S(3, 4))
    assert v.status is VerdictStatus.UNDETERMINED
    assert v.lhs_witness == pytest.approx(9.0)
    assert v.rhs_witness == pytest.approx(1.0)

    assert 3 / (3 - 2) <= 6 / (6 - 4)
    assert not check_icx(C.DROR, S(2, 3), S(4, 6)).holds


def test_dror_holds_case():
    # (3,4) vs (4,5): 2/2 = 1 <= 2/3? no. pick (4,5) vs (4,4): 2/3 <= 1/3? no.
    # (3,3) vs (3,3) ties hold; a genuinely strict case: (4,4) vs (4,6):
    # lhs 1/3, rhs 3/3 = 1 -> holds
    assert check_icx(C.DROR, S(4, 4), S(4, 6)).holds


def test_dror_boundary_ranks_raise():
    with pytest.raises(BoundaryCaseError):
        check_icx(C.DROR, S(1, 5), S(2, 6))
    with pytest.raises(BoundaryCaseError):
        check_icx(C.DROR, S(2, 5), S(1, 6))


def test_wrong_side_classes_are_rejected():
    with pytest.raises(UnsupportedClassError):
        check_icv(C.DD, S(2, 3), S(1, 2))
    with pytest.raises(UnsupportedClassError):
        check_icx(C.ID, S(1, 2), S(2, 3))
    with pytest.raises(UnsupportedClassError):
        check_icv(C.DDA, S(2, 3), S(1, 2))
    with pytest.raises(UnsupportedClassError):
        check_icx(C.DHRA, S(1, 2), S(2, 3))


def test_ties_count_as_holds():
    assert check_icv(C.ID, S(2, 5), S(2, 5)).holds
    assert check_icx(C.DD, S(2, 5), S(2, 5)).holds


@pytest.mark.parametrize("shape", list(ShapeClass))
def test_reflexivity(shape):
    """Comparing an order statistic with itself holds in the matching order."""
    from stochord.ssverify import check_ss_dda, check_ss_dhra

    for i, n in [(2, 4), (3, 3), (4, 7)]:
        s = S(i, n)
        if shape.transform is TransformKind.CONCAVE:
            assert check_icv(shape, s, s).holds
        elif shape.transform is TransformKind.CONVEX:
            if shape is C.DROR and i == 1:
                continue  # divergent condition at rank 1
            assert check_icx(shape, s, s).holds
        elif shape.reference is R.UNIFORM:
            assert check_ss_dda(s, s).holds
        else:
            assert check_ss_dhra(s, s).holds


def test_ihr_dhr_share_the_same_inequality():
    a, b = S(2, 5), S(2, 7)
    icv = check_icv(C.IHR, a, b)
    icx = check_icx(C.DHR, a, b)
    assert icv.lhs_witness == icx.lhs_witness
    assert icv.rhs_witness == icx.rhs_witness


@given(
    i=st.integers(min_value=1, max_value=12),
    n=st.integers(min_value=1, max_value=12),
    j=st.integers(min_value=1, max_value=12),
    m=st.integers(min_value=1, max_value=12),
)
def test_id_verdict_matches_the_inequality(i, n, j, m):
    if i > n or j > m:
        return
    verdict = check_icv(C.ID, S(i, n), S(j, m))
    expected = i >= j and i / (n + 1) >= j / (m + 1)
    assert verdict.holds == expected


@given(
    i=st.integers(min_value=1, max_value=12),
    n=st.integers(min_value=1, max_value=12),
)
def test_mean_checks_specialise_the_pairwise_checks(i, n):
    if i > n:
        return
    s = S(i, n)
    one = S(1, 1)
    for shape in (C.ID, C.ILOR, C.IHR):
        assert (
            check_mean_dominated_by_orderstat(shape, s).holds
            == check_icv(shape, s, one).holds
        )
    for shape in (C.DD, C.DLOR, C.DHR, C.DRHR):
        assert (
            check_mean_dominates_orderstat(shape, s).holds
            == check_icx(shape, one, s).holds
        )


def test_mean_checks_reject_other_classes():
    with pytest.raises(UnsupportedClassError):
        check_mean_dominated_by_orderstat(C.DD, S(2, 3))
    with pytest.raises(UnsupportedClassError):
        check_mean_dominates_orderstat(C.DROR, S(2, 3))


def test_mean_comparison_examples():
    # the sample maximum dominates the mean under increasing density
    assert check_mean_dominated_by_orderstat(C.ID, S(5, 5)).holds
    # and under decreasing density the mean dominates the minimum
    assert check_mean_dominates_orderstat(C.DD, S(1, 5)).holds
    # middle ranks of small samples stay undetermined for ID
    assert not check_mean_dominated_by_orderstat(C.ID, S(1, 3)).holds


def _h(lo, hi):
    """sum_{k=lo}^{hi} 1/k as a Fraction, 0 for an empty range."""
    return sum((Fraction(1, k) for k in range(lo, hi + 1)), Fraction(0))


def _exact_mean(dist, i, n):
    """E[G^{-1}(B_{i:n})] in rational arithmetic, signed inf where it diverges."""
    if dist is R.UNIFORM:
        return Fraction(i, n + 1)
    if dist is R.EXPONENTIAL:
        return _h(n - i + 1, n)
    if dist is R.NEG_EXPONENTIAL:
        return -_h(i, n)
    if dist is R.LOGISTIC:
        return _h(1, i - 1) - _h(1, n - i)
    if dist is R.LOG_LOGISTIC_1:
        return Fraction(i, n - i) if i < n else math.inf
    return -Fraction(n - i + 1, i - 1) if i > 1 else -math.inf


def _exact_witness(dist, i, n, mean):
    if dist is R.LOG_LOGISTIC_1:
        return Fraction(i, n)
    if dist in (R.NEG_EXPONENTIAL, R.NEG_LOG_LOGISTIC_1):
        return -mean
    return mean


def _ulp_scale(dist, i, n, want):
    """Magnitude whose ulp measures the witness error.

    The logistic mean is the difference of two correctly rounded harmonic
    tails, so its error is that of the larger tail, not of the difference:
    at (5, 10) the exact -1/5 comes out 2.4 ulp(1/5) off.
    """
    if dist is R.LOGISTIC:
        return _h(min(i, n - i + 1), n)
    return want


@pytest.mark.parametrize("shape", CONCAVE_SIDE + CONVEX_SIDE)
def test_every_small_verdict_matches_exact_rational_referee(shape):
    """All 6,084 pairs with n, m <= 12, decided in fractions.Fraction.

    Status and rank precondition must match the exact decision, and each
    witness must lie within 2 ulp of its exact value (for logistic, 2 ulp of
    the larger harmonic tail it subtracts); DROR at rank 1 raises.
    """
    check = check_icv if shape.transform is TransformKind.CONCAVE else check_icx
    specs = [(i, n) for n in range(1, 13) for i in range(1, n + 1)]
    means = {spec: _exact_mean(shape.reference, *spec) for spec in specs}
    witnesses = {}  # spec -> its witness, checked against Fraction once
    for i, n in specs:
        for j, m in specs:
            if shape is C.DROR and 1 in (i, j):
                with pytest.raises(BoundaryCaseError):
                    check(shape, S(i, n), S(j, m))
                continue
            verdict = check(shape, S(i, n), S(j, m))
            rank_ok = i >= j if check is check_icv else i <= j
            assert verdict.condition_name.startswith("rank precondition") == (not rank_ok)
            assert verdict.holds == (rank_ok and means[i, n] >= means[j, m]), (i, n, j, m)
            for got, (k, p) in ((verdict.lhs_witness, (i, n)), (verdict.rhs_witness, (j, m))):
                if (k, p) in witnesses:
                    assert got == witnesses[k, p], (k, p)
                    continue
                witnesses[k, p] = got
                want = _exact_witness(shape.reference, k, p, means[k, p])
                if math.isinf(want):
                    assert got == want
                else:
                    scale = float(_ulp_scale(shape.reference, k, p, want))
                    assert abs(Fraction(got) - want) <= 2 * math.ulp(scale), (k, p)
