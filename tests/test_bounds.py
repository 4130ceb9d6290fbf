"""Exceedance-probability bounds, the bound table, and the ECDF plug-in."""

import math
from array import array

import pytest

from stochord.bounds import (
    _empirical_rank,
    BoundInterval,
    bound_table,
    bound_table_csv,
    ecdf_plugin_interval,
    exceedance_bound,
    exceedance_interval,
    ll1_characterization_check,
    p_value,
)
from stochord.conditions import ShapeClass, UnsupportedClassError
from stochord.refdist import (
    OrderStatSpec,
    ReferenceDistribution,
    cdf,
    expected_transformed_orderstat,
)

S, R, C = OrderStatSpec, ReferenceDistribution, ShapeClass


def test_p_value_worked_examples():
    assert p_value(R.LOG_LOGISTIC_1, S(3, 10)) == pytest.approx(0.300, abs=5e-4)
    assert p_value(R.NEG_EXPONENTIAL, S(1, 10)) == pytest.approx(0.053, abs=5e-4)
    assert p_value(R.UNIFORM, S(5, 10)) == pytest.approx(0.455, abs=5e-4)


def test_p_value_is_cdf_of_transformed_mean():
    """p = G(E[G^{-1}(B_{i:n})]) whenever the mean is finite."""
    for dist in R:
        for n in range(1, 21):
            for i in range(1, n + 1):
                s = S(i, n)
                mu = expected_transformed_orderstat(dist, s)
                if not math.isfinite(mu):
                    continue
                assert p_value(dist, s) == pytest.approx(
                    cdf(dist, mu), abs=1e-12
                ), (dist, s)


def test_p_value_divergent_tails_are_exact():
    # mean +inf for the x/(1+x) parent at i = n: bound degenerates to 1
    assert p_value(R.LOG_LOGISTIC_1, S(7, 7)) == 1.0
    # mean -inf for the mirrored parent at i = 1: bound degenerates to 0
    assert p_value(R.NEG_LOG_LOGISTIC_1, S(1, 7)) == 0.0


def test_bound_table_n1():
    rows = dict(bound_table(1))
    assert rows["U"] == (0.5,)
    assert rows["LL"] == (1.0,)
    assert rows["E"][0] == pytest.approx(1.0 - math.exp(-1.0))
    assert rows["E-"][0] == pytest.approx(math.exp(-1.0))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 17, 30])
def test_bound_table_rows_are_entrywise_ordered(n):
    rows = [values for _, values in bound_table(n)]
    labels = [label for label, _ in bound_table(n)]
    assert labels == ["LL", "E", "U", "E-"]
    for upper_row, lower_row in zip(rows[:-1], rows[1:]):
        for hi, lo in zip(upper_row, lower_row):
            assert hi >= lo - 1e-15


def test_bound_table_custom_references():
    rows = bound_table(4, (R.LOGISTIC, R.NEG_LOG_LOGISTIC_1))
    assert [label for label, _ in rows] == ["L", "LL-"]
    assert rows[1][1] == (0.0, 0.25, 0.5, 0.75)


@pytest.mark.parametrize("n", [1, 2, 10, 997, 3000])
def test_bound_table_equals_p_value_bitwise(n):
    """The table's O(n) harmonic tails give exactly the per-entry p_value."""
    refs = tuple(R)
    for dist, (_, row) in zip(refs, bound_table(n, refs)):
        want = [p_value(dist, S(i, n)) for i in range(1, n + 1)]
        assert array("d", row).tobytes() == array("d", want).tobytes(), dist


def test_bound_table_csv_matches_golden(golden_dir):
    expected = (golden_dir / "table1_n10.csv").read_text()
    assert bound_table_csv(10) == expected


def test_bound_table_rejects_bad_n():
    with pytest.raises(ValueError):
        bound_table(0)
    with pytest.raises(ValueError):
        bound_table(2.0)  # type: ignore[arg-type]


def test_exceedance_bound_sides():
    up = exceedance_bound(C.IHR, S(3, 10))
    assert up.side == "upper"
    assert up.reference is R.EXPONENTIAL
    lo = exceedance_bound(C.DD, S(3, 10))
    assert lo.side == "lower"
    assert lo.p == pytest.approx(3.0 / 11.0)


def test_exceedance_bound_rejects_star_classes():
    for shape in (C.DDA, C.DHRA):
        with pytest.raises(UnsupportedClassError):
            exceedance_bound(shape, S(2, 5))


def test_exceedance_interval_worked_cases():
    iv = exceedance_interval(C.DD, C.IHR, S(3, 10))
    assert iv.feasible
    assert f"{iv.p_lo:.3f}" == "0.273"
    assert f"{iv.p_hi:.3f}" == "0.285"

    iv2 = exceedance_interval(C.DRHR, C.IOR, S(3, 10))
    assert iv2.feasible
    assert f"{iv2.p_lo:.3f}" == "0.240"
    assert f"{iv2.p_hi:.3f}" == "0.300"


def test_exceedance_interval_side_validation():
    with pytest.raises(UnsupportedClassError):
        exceedance_interval(C.IHR, C.DD, S(3, 10))  # sides swapped
    with pytest.raises(UnsupportedClassError):
        exceedance_interval(C.DDA, C.IHR, S(3, 10))


def test_infeasible_interval_is_reported_not_raised():
    iv = exceedance_interval(C.DOR, C.ID, S(9, 10))
    assert isinstance(iv, BoundInterval)
    assert not iv.feasible
    assert iv.p_lo > iv.p_hi
    assert "DOR" in iv.note and "ID" in iv.note
    assert "infeasible" in iv.note


def test_ll1_characterization_values():
    assert ll1_characterization_check(S(2, 10)) == pytest.approx(0.25)
    assert ll1_characterization_check(S(9, 10)) == pytest.approx(9.0)
    assert ll1_characterization_check(S(10, 10)) == math.inf


def test_ecdf_plugin_constant_data():
    iv = ecdf_plugin_interval([4.2] * 25, C.DD, C.IHR, S(3, 10))
    assert iv.x_lo == iv.x_hi == 4.2


def test_ecdf_plugin_small_sample():
    data = list(range(1, 11))  # 1..10
    iv = ecdf_plugin_interval(data, C.DD, C.IHR, S(5, 10))
    # p_lo = 5/11 -> rank 5, p_hi = 1 - exp(-H(6..10)) ~ 0.4757 -> rank 5
    assert (iv.rank_lo, iv.rank_hi) == (5, 5)
    assert (iv.x_lo, iv.x_hi) == (5.0, 5.0)


def test_ecdf_plugin_carbon_fibers(data_dir):
    lines = (data_dir / "carbon_fibers.csv").read_text().strip().splitlines()
    values = [float(v) for v in lines[1:]]
    assert len(values) == 100
    iv = ecdf_plugin_interval(values, C.DRHR, C.IOR, S(20, 100))
    assert iv.bound.p_lo == pytest.approx(0.1940503, abs=5e-7)
    assert iv.bound.p_hi == pytest.approx(0.200, abs=1e-12)
    assert (iv.rank_lo, iv.rank_hi) == (20, 20)
    assert (iv.x_lo, iv.x_hi) == (1.69, 1.69)


@pytest.mark.parametrize("n_data", [1, 2, 7, 18, 30, 100, 1000, 4097])
def test_empirical_rank_is_exact_on_rational_bounds(n_data):
    """The LL, U and LL- bounds are the rationals i/n, i/(n+1), (i-1)/n; the
    rank is the smallest k with k/N >= p, i.e. ceil(N * num / den) in
    integers (at least 1).

    ceil(N * p) of the float p overshoots where the product rounds up:
    100 * 0.07 > 7.
    """
    exact = {
        R.LOG_LOGISTIC_1: lambda i, n: (i, n),
        R.UNIFORM: lambda i, n: (i, n + 1),
        R.NEG_LOG_LOGISTIC_1: lambda i, n: (i - 1, n),
    }
    for dist, ratio in exact.items():
        for n in range(1, 201):
            for i in range(1, n + 1):
                num, den = ratio(i, n)
                want = max(1, -(-n_data * num // den))
                assert _empirical_rank(n_data, p_value(dist, S(i, n))) == want, (dist, i, n)


def test_ecdf_plugin_input_validation():
    with pytest.raises(ValueError):
        ecdf_plugin_interval([], C.DD, C.IHR, S(3, 10))
    with pytest.raises(ValueError):
        ecdf_plugin_interval([1.0, math.nan], C.DD, C.IHR, S(3, 10))
