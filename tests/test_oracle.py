"""Quadrature probes: the independent referee for every closed-form verdict."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from stochord.orderstat import TransformedOrderStat
from stochord.oracle import (
    _QUAD_KW,
    _integrand,
    _lower_partial,
    _ref_cdf,
    _ref_quantile,
    _run_probe,
    _upper_partial,
    probe_icv,
    probe_icx,
    probe_ss,
    probe_st,
)
from stochord.refdist import OrderStatSpec, ReferenceDistribution

S, R = OrderStatSpec, ReferenceDistribution


def _w(dist, i, n):
    return TransformedOrderStat(dist, S(i, n))


def test_probe_st_passes_on_rank_dominance():
    p = probe_st(_w(R.UNIFORM, 3, 5), _w(R.UNIFORM, 2, 5))
    assert p.passed
    assert p.worst_margin >= -p.tol


def test_probe_st_passes_on_sample_size_dominance():
    # same rank, one extra observation pushes the order statistic down
    assert probe_st(_w(R.EXPONENTIAL, 2, 5), _w(R.EXPONENTIAL, 2, 6)).passed


def test_probe_st_fails_reversed():
    p = probe_st(_w(R.UNIFORM, 2, 5), _w(R.UNIFORM, 3, 5))
    assert not p.passed
    assert p.worst_margin < 0.0


def test_probes_require_common_reference():
    with pytest.raises(ValueError):
        probe_st(_w(R.UNIFORM, 2, 5), _w(R.EXPONENTIAL, 2, 5))


def test_probe_ss_rejects_signed_support():
    with pytest.raises(ValueError):
        probe_ss(_w(R.LOGISTIC, 2, 5), _w(R.LOGISTIC, 2, 5))
    with pytest.raises(ValueError):
        probe_ss(_w(R.NEG_EXPONENTIAL, 2, 5), _w(R.NEG_EXPONENTIAL, 2, 5))


def test_probe_ss_agrees_with_closed_form_checkers():
    """(2,3) vs (3,5): refuted in the uniform frame, holds in the
    exponential frame.  The quadrature route must reproduce both verdicts."""
    assert not probe_ss(_w(R.UNIFORM, 2, 3), _w(R.UNIFORM, 3, 5)).passed
    assert probe_ss(_w(R.EXPONENTIAL, 2, 3), _w(R.EXPONENTIAL, 3, 5)).passed


def test_probe_icv():
    assert probe_icv(_w(R.UNIFORM, 3, 5), _w(R.UNIFORM, 2, 4)).passed
    assert not probe_icv(_w(R.UNIFORM, 2, 4), _w(R.UNIFORM, 3, 5)).passed


def test_probe_icx():
    # (2,3) dominates (2,5) in the exponential frame, so as the *left*
    # argument of the <=icx probe it must fail, and as the right one pass
    assert probe_icx(_w(R.EXPONENTIAL, 2, 5), _w(R.EXPONENTIAL, 2, 3)).passed
    assert not probe_icx(_w(R.EXPONENTIAL, 2, 3), _w(R.EXPONENTIAL, 2, 5)).passed


def test_probe_icx_with_divergent_tails():
    # both upper tails infinite (i = n for the x/(1+x) parent): the like
    # infinities cancel and the probe treats the comparison as consistent
    p = probe_icx(_w(R.LOG_LOGISTIC_1, 3, 3), _w(R.LOG_LOGISTIC_1, 4, 4))
    assert p.passed
    # only the right side diverges: margin +inf everywhere, trivially passed
    p2 = probe_icx(_w(R.LOG_LOGISTIC_1, 2, 3), _w(R.LOG_LOGISTIC_1, 4, 4))
    assert p2.passed
    assert p2.worst_margin == math.inf


def test_probe_pass_flag_matches_margin():
    for probe in (
        probe_st(_w(R.UNIFORM, 2, 5), _w(R.UNIFORM, 3, 5)),
        probe_ss(_w(R.UNIFORM, 2, 3), _w(R.UNIFORM, 3, 5)),
        probe_icv(_w(R.UNIFORM, 3, 5), _w(R.UNIFORM, 2, 4)),
    ):
        assert probe.passed == (probe.worst_margin >= -probe.tol)


# G^{-1} written with numpy and scipy.stats, as the oracle's integrand once was
_NUMPY_QUANTILE = {
    R.UNIFORM: lambda p: p,
    R.EXPONENTIAL: lambda p: -np.log1p(-p),
    R.LOGISTIC: stats.logistic.ppf,
    R.LOG_LOGISTIC_1: lambda p: p / (1.0 - p),
    R.NEG_EXPONENTIAL: np.log,
    R.NEG_LOG_LOGISTIC_1: lambda p: -(1.0 - p) / p,
}


def _scipy_integrand(dist, s):
    def f(u):
        with np.errstate(divide="ignore", invalid="ignore"):
            u = np.float64(u)
            return float(_NUMPY_QUANTILE[dist](u) * stats.beta.pdf(u, s.i, s.n - s.i + 1))
    return f


@pytest.mark.parametrize("dist", list(R))
@pytest.mark.parametrize("i", [1, 3, 5])
def test_partial_means_match_scipy_stats_integrand(dist, i):
    s = S(i, 5)
    for p in (0.05, 0.3, 0.5, 0.7, 0.95):
        t = float(_NUMPY_QUANTILE[dist](p))
        upper = _upper_partial(dist, s, t)
        lower = _lower_partial(dist, s, t)
        if dist is R.LOG_LOGISTIC_1 and i == 5:
            assert upper == math.inf
        else:
            ref, _ = integrate.quad(_scipy_integrand(dist, s), p, 1.0, **_QUAD_KW)
            assert upper == pytest.approx(ref, rel=1e-13, abs=1e-13)
        if dist is R.NEG_LOG_LOGISTIC_1 and i == 1:
            assert lower == -math.inf
        else:
            ref, _ = integrate.quad(_scipy_integrand(dist, s), 0.0, p, **_QUAD_KW)
            assert lower == pytest.approx(ref, rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("dist", list(R))
@pytest.mark.parametrize("i, n", [
    # the n = 5 cases keep their original ids, which name the rank alone
    pytest.param(i, n, id=str(i) if n == 5 else f"{i}-{n}")
    for n in (1, 2, 3, 5, 9) for i in range(1, n + 1)
])
def test_integrand_at_domain_edges_matches_scipy_form(dist, i, n):
    # every rank of these n: a = 1, b = 1, both (n = 1) and neither
    s = S(i, n)
    f, ref = _integrand(dist, s), _scipy_integrand(dist, s)
    for u in (0.0, 1.0, -0.25, 1.25):
        got, want = f(u), ref(u)
        assert got.hex() == want.hex() or (math.isnan(got) and math.isnan(want)), (u, got, want)
    for u in (1e-9, 0.25, 0.5, 0.6, 1.0 - 1e-9):
        assert f(u) == pytest.approx(ref(u), rel=1e-13, abs=0.0)


def test_logistic_cdf_and_quantile_match_scipy_stats_bitwise():
    rng = np.random.default_rng(20)
    ts = np.concatenate([rng.normal(0.0, 30.0, 2000),
                         [0.0, -0.0, 1e-300, -745.0, 710.0, -800.0, 800.0]])
    got = np.array([_ref_cdf(R.LOGISTIC, float(t)) for t in ts])
    assert got.tobytes() == stats.logistic.cdf(ts).tobytes()
    ps = np.concatenate([rng.random(20000),
                         [0.0, 1.0, 1e-300, 0.3, 0.5, 0.65, 1.0 - 2.0**-53]])
    assert _ref_quantile(R.LOGISTIC, ps).tobytes() == stats.logistic.ppf(ps).tobytes()


def test_nan_margin_fails_the_probe():
    w_a, w_b = _w(R.UNIFORM, 3, 5), _w(R.UNIFORM, 2, 4)
    p = _run_probe("icv", w_a, w_b, 5, lambda t: math.nan)
    assert not p.passed
    assert math.isnan(p.worst_margin)
    assert not math.isnan(p.worst_point)  # the first grid point, not the default


def test_nan_margin_is_reported_at_its_point():
    w_a, w_b = _w(R.UNIFORM, 3, 5), _w(R.UNIFORM, 2, 4)
    ts = []

    def margin(t):
        # a refutation seen before the nan must not mask it
        ts.append(t)
        return math.nan if len(ts) == 3 else (-1.0 if len(ts) == 1 else 1.0)

    p = _run_probe("icv", w_a, w_b, 5, margin)
    assert not p.passed
    assert math.isnan(p.worst_margin)
    assert p.worst_point == ts[2]
