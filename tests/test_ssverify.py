"""Root finding for the beta kernel, SS margin verification, region maps."""

import functools
import json
import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from stochord import ssverify
from stochord.conditions import OrderVerdict, VerdictStatus
from stochord.refdist import OrderStatSpec, ReferenceDistribution, cdf, expected_transformed_orderstat
from stochord.ssverify import (
    CellClass,
    _critical_candidates,
    _exp_partial_mean,
    _kernel_log_odds,
    check_ss_dda,
    check_ss_dhra,
    region_map_dda,
    region_map_dhra,
    ss_margin_dda,
    ss_margin_dhra,
)

S = OrderStatSpec


# ---------------------------------------------------------------------------
# _kernel_log_odds, read in x = 1/(1 + e^-s)
# ---------------------------------------------------------------------------


def _kernel_roots(a: float, b: float, log_c: float) -> tuple[float, ...]:
    # increasing, so the roots stay ascending; e^-s is finite for |s| <= 700
    return tuple(1.0 / (1.0 + math.exp(-s)) for s in _kernel_log_odds(a, b, log_c))


def test_roots_symmetric_two_root_case():
    roots = _kernel_roots(1.0, 1.0, math.log(0.1875))
    assert len(roots) == 2
    assert roots[0] == pytest.approx(0.25, abs=1e-12)
    assert roots[1] == pytest.approx(0.75, abs=1e-12)


def test_roots_tangency_collapses_to_one():
    # the two crossings collapse into one double root on the stationary
    # point a/(a+b); the densities touch there without crossing, so it is
    # no sign change and no candidate
    assert _kernel_log_odds(1.0, 1.0, math.log(0.25)) == ()


def test_roots_no_crossing():
    assert _kernel_roots(1.0, 1.0, math.log(0.3)) == ()


def test_roots_monotone_regime():
    # T(x) = x (1-x)^{-1} is increasing from 0 to inf: one root always
    roots = _kernel_roots(1.0, -1.0, math.log(3.0))
    assert len(roots) == 1
    x = roots[0]
    assert x / (1.0 - x) == pytest.approx(3.0, rel=1e-12)


def test_roots_single_power():
    roots = _kernel_roots(2.0, 0.0, math.log(0.5625))
    assert len(roots) == 1
    assert roots[0] == pytest.approx(0.75, abs=1e-12)


def test_roots_both_negative():
    # T(x) = 1/(x(1-x)) is U-shaped with minimum 4 at 1/2
    roots = _kernel_roots(-1.0, -1.0, math.log(5.0))
    assert len(roots) == 2
    lo, hi = roots
    assert lo == pytest.approx(0.5 - math.sqrt(0.05), abs=1e-12)
    assert hi == pytest.approx(0.5 + math.sqrt(0.05), abs=1e-12)


@given(
    a=st.one_of(
        st.floats(min_value=0.25, max_value=4.0),
        st.floats(min_value=-4.0, max_value=-0.25),
    ),
    b=st.one_of(
        st.floats(min_value=0.25, max_value=4.0),
        st.floats(min_value=-4.0, max_value=-0.25),
    ),
    x0=st.floats(min_value=0.05, max_value=0.95),
)
@settings(max_examples=200)
def test_roots_roundtrip(a, b, x0):
    """Construct c so that x0 is a root, then recover it."""
    c = x0**a * (1.0 - x0) ** b
    if a * b > 0:
        # skip points too close to the stationary point, where the
        # crossing degenerates into a tangency and recovery is ill posed
        x_star = a / (a + b) if a > 0 else None
        if x_star is None:
            # both negative: stationary point of x^a(1-x)^b is still a/(a+b)
            x_star = a / (a + b)
        if abs(x0 - x_star) < 0.02:
            return
    roots = _kernel_roots(a, b, math.log(c))
    assert roots, f"no roots returned for a={a} b={b} c={c}"
    assert min(abs(r - x0) for r in roots) < 1e-9
    for r in roots:
        if r == 1.0:
            continue  # a root within half an ulp of 1 has no residual in x
        # r is rounded to a double, which alone moves the log residual by up
        # to ulp(r) (|a|/r + |b|/(1-r)): large for roots pinned against 1
        slack = 4.0 * math.ulp(r) * (abs(a) / r + abs(b) / (1.0 - r))
        assert abs(a * math.log(r) + b * math.log1p(-r) - math.log(c)) <= 1e-10 + slack
    limit = 2 if a * b > 0 else 1
    assert len(roots) <= limit


def test_sign_constant_between_roots():
    """T(x) - c keeps one sign strictly between consecutive crossings."""
    cases = [
        (1.0, 1.0, 0.1875),
        (2.0, -1.0, 0.4),
        (-1.5, -2.5, 40.0),
        (3.0, 2.0, 0.01),
    ]
    for a, b, c in cases:
        knots = [0.0, *_kernel_roots(a, b, math.log(c)), 1.0]
        for lo, hi in zip(knots[:-1], knots[1:]):
            xs = np.linspace(lo, hi, 1002)[1:-1]
            vals = a * np.log(xs) + b * np.log1p(-xs) - math.log(c)
            signs = set(np.sign(vals[np.abs(vals) > 1e-9]))
            assert len(signs) <= 1, (a, b, c, lo, hi)


# ---------------------------------------------------------------------------
# ss_margin_dda / check_ss_dda
# ---------------------------------------------------------------------------


def _z_scipy(a: S, b: S, x: float) -> float:
    def tail(s: S, t: float) -> float:
        return (s.i / (s.n + 1)) * (1.0 - special.betainc(s.i + 1, s.n - s.i + 1, t))

    return tail(a, x) - tail(b, x)


def test_ss_margin_dda_endpoints():
    a, b = S(2, 3), S(3, 5)
    assert ss_margin_dda(a, b, 0.0) == pytest.approx(2 / 4 - 3 / 6, abs=1e-15)
    assert ss_margin_dda(a, b, 1.0) == 0.0


def test_ss_margin_dda_matches_scipy_grid():
    pairs = [(S(2, 3), S(3, 5)), (S(1, 4), S(2, 6)), (S(5, 8), S(6, 11))]
    xs = np.linspace(0.0, 1.0, 211)
    for a, b in pairs:
        for x in xs:
            assert ss_margin_dda(a, b, float(x)) == pytest.approx(
                _z_scipy(a, b, float(x)), abs=1e-12
            )


def test_check_ss_dda_identical_specs_hold():
    v = check_ss_dda(S(3, 7), S(3, 7))
    assert v.holds
    assert v.lhs_witness == 0.0


def test_check_ss_dda_frozen_refutation():
    v = check_ss_dda(S(2, 3), S(3, 5))
    assert not v.holds
    assert -1e-2 < v.lhs_witness < -1e-3
    assert "inf Z" in v.condition_name


def test_check_ss_dda_holds_case():
    assert check_ss_dda(S(1, 3), S(1, 4)).holds


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6: the absolute _HOLDS_TOL "
                   "reads inf Z = -1.458e-13 as Holds")
def test_check_ss_dda_tiny_negative_minimum_is_not_holds():
    assert check_ss_dda(S(5, 12), S(2, 8)).status is VerdictStatus.UNDETERMINED


def test_candidate_min_matches_dense_grid():
    """Z at the endpoints and the kernel roots is the infimum: no point of a
    dense grid of Z, measured with scipy, lies lower, and the verdict agrees
    with the grid's sign wherever that sign is clear."""
    rng = np.random.default_rng(7)
    pairs = []
    while len(pairs) < 300:
        n, m = (int(k) for k in rng.integers(1, 41, size=2))
        a, b = S(int(rng.integers(1, n + 1)), n), S(int(rng.integers(1, m + 1)), m)
        if a != b:
            pairs.append((a, b))
    for _ in range(8):
        # band cells near the mean line, where Z can dip below zero inside
        n, m = (int(k) for k in rng.integers(500, 1001, size=2))
        i = int(rng.integers(1, n + 1))
        j = min(m, max(1, round(i * (m + 1) / (n + 1)) + int(rng.integers(-2, 3))))
        pairs.append((S(i, n), S(j, m)))
    xs = np.linspace(0.0, 1.0, 10_001)
    for a, b in pairs:
        verdict = check_ss_dda(a, b)
        grid_min = float(_z_scipy(a, b, xs).min())
        assert verdict.lhs_witness <= grid_min + 1e-12, (a, b)
        if abs(grid_min) > 1e-9:
            assert verdict.holds == (grid_min > 0.0), (a, b)


@pytest.mark.parametrize("a, b", [
    (S(1, 2), S(600, 1200)),
    (S(1, 1), S(1000, 2000)),
    (S(1000, 2000), S(1, 1)),
])
def test_check_ss_dda_large_n_matches_scipy_grid(a, b):
    """Kernel constants B(i,n-i+1)/B(j,m-j+1) outside the double range
    (|ln c| > 709) still give the infimum of Z."""
    xs = np.linspace(0.0, 1.0, 200_001)
    z = (a.i / (a.n + 1)) * special.betaincc(a.i + 1, a.n - a.i + 1, xs) - (
        b.i / (b.n + 1)) * special.betaincc(b.i + 1, b.n - b.i + 1, xs)
    verdict = check_ss_dda(a, b)
    assert not verdict.holds
    assert verdict.lhs_witness == pytest.approx(float(z.min()), abs=1e-9)


@pytest.mark.parametrize("a, b, inf_z", [
    (S(3, 12), S(1, 9), -2.02985330777e-18),
    (S(6, 12), S(1, 6), -2.36005518083e-19),
    (S(3, 9), S(1, 6), -3.32865740084e-11),
    (S(7, 11), S(1, 4), -1.85999091287e-12),
])
def test_check_ss_dda_witness_keeps_relative_accuracy_near_one(a, b, inf_z):
    """Dips close to x = 1, where both partial means are tiny tails; inf_z is
    the minimum of Z from mpmath's betainc at 40 digits."""
    assert check_ss_dda(a, b).lhs_witness == pytest.approx(inf_z, rel=1e-10, abs=0.0)


def test_z_derivative_sign_pattern_on_band_cell():
    """On a cell where the check fails, Z dips then recovers: Z' goes - + -."""
    a, b = S(3, 8), S(4, 11)
    v = check_ss_dda(a, b)
    assert not v.holds
    xs = np.linspace(1e-4, 1 - 1e-4, 4001)
    zs = np.array([ss_margin_dda(a, b, float(x)) for x in xs])
    dz = np.diff(zs)
    signs = np.sign(dz[np.abs(dz) > 1e-14])
    # compress consecutive duplicates
    runs = [signs[0]]
    for s_ in signs[1:]:
        if s_ != runs[-1]:
            runs.append(s_)
    assert runs == [-1.0, 1.0, -1.0]


# ---------------------------------------------------------------------------
# _exp_partial_mean / ss_margin_dhra / check_ss_dhra
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("i,n", [(1, 1), (1, 4), (3, 4), (5, 9)])
def test_exp_partial_mean_at_zero_is_the_moment(i, n):
    s = S(i, n)
    assert _exp_partial_mean(s, 0.0) == pytest.approx(
        expected_transformed_orderstat(ReferenceDistribution.EXPONENTIAL, s), rel=1e-15
    )


def test_exp_partial_mean_nonincreasing_to_zero():
    s = S(3, 6)
    values = [_exp_partial_mean(s, x) for x in [0.0, 0.5, 1.5, 4.0, 9.0, 40.0, 800.0]]
    for first, second in zip(values, values[1:]):
        assert second <= first
    assert values[-2] == pytest.approx(0.0, abs=1e-10)
    assert values[-1] == 0.0
    assert _exp_partial_mean(s, math.inf) == 0.0


def test_exp_partial_mean_rejects_bad_input():
    with pytest.raises(ValueError):
        _exp_partial_mean(S(1, 2), -0.5)
    with pytest.raises(ValueError):
        _exp_partial_mean(S(2, 3), math.nan)


def test_exp_partial_mean_against_direct_quadrature():
    # W-space integral done independently with scipy, pdf via the beta density
    s = S(3, 7)

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
        assert _exp_partial_mean(s, x) == pytest.approx(direct, abs=1e-9)


def _exp_partial_mean_mp(s: S, x: float) -> mpmath.mpf:
    """E[W 1{W > x}] at 40 digits from the binomial sum x F_{i-1} +
    sum_{k<i} F_k / (n-k), summed directly rather than in log space."""
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        r = -mpmath.expm1(-x)
        cdf = total = mpmath.mpf(0)
        for k in range(s.i):
            cdf += mpmath.binomial(s.n, k) * r**k * mpmath.exp(-(s.n - k) * x)
            total += cdf / (s.n - k)
        return x * cdf + total


@pytest.mark.parametrize("i,n,x", [(1, 1, 0.3), (3, 7, 1.1), (11, 12, 4.0), (5, 9, 0.0)])
def test_exp_partial_mean_sum_is_the_defining_integral(i, n, x):
    # the binomial identity behind the closed form, at 40 digits: the sum
    # equals int_x^inf w f_W(w) dw with f_W(w) = f_B(1 - e^-w) e^-w
    with mpmath.workdps(40):
        def density_times_w(w):
            u = -mpmath.expm1(-w)
            return w * u ** (i - 1) * mpmath.exp(-(n - i + 1) * w) / mpmath.beta(i, n - i + 1)

        direct = mpmath.quad(density_times_w, [x, x + 1, x + 10, mpmath.inf])
        assert abs(direct - _exp_partial_mean_mp(S(i, n), x)) < mpmath.mpf(10) ** -35


@pytest.mark.parametrize("i,n,x", [
    (1, 1, 0.3), (3, 7, 1.1), (11, 12, 4.0), (5, 9, 30.0),
    (300, 700, 1.0), (300, 700, 1.788313788), (500, 1000, 1.788313788),
    (500, 1000, 0.1), (999, 1000, 10.0), (1000, 1000, 2.5), (1, 1000, 0.25),
])
def test_exp_partial_mean_against_mpmath(i, n, x):
    # values from O(1) down to about 1e-130 keep their relative accuracy
    want = _exp_partial_mean_mp(S(i, n), x)
    assert want > 1e-131
    assert _exp_partial_mean(S(i, n), x) == pytest.approx(float(want), rel=1e-12)


@given(st.integers(1, 1000).flatmap(lambda n: st.tuples(st.integers(1, n), st.just(n))),
       st.floats(min_value=0.0, max_value=120.0))
@settings(deadline=None)
def test_exp_partial_mean_walk_matches_mpmath(spec, x):
    """The binomial walk from the bulk keeps relative accuracy over the whole
    range of i, n <= 1000 and x, down to values of 1e-300."""
    want = _exp_partial_mean_mp(S(*spec), x)
    got = _exp_partial_mean(S(*spec), x)
    if want > 1e-300:
        assert got == pytest.approx(float(want), rel=1e-12)
    else:
        assert 0.0 <= got <= 1e-299


@pytest.mark.parametrize("i,n,x,k_star", [
    (4, 9, 0.0, 0),           # r = 0: the anchor alone, p_0 = 1
    (5, 9, 0.05, 0),          # (n+1) r < 1: the walk goes up only
    (300, 700, 0.4, 231),     # a mode below i-1: the walk goes both ways
    (3, 7, 9.0, 2),           # the mode is past i-1: the walk goes down only
    (2, 2, 710.0, 1),         # e^x - 1 overflows; r rounds to 1
    (495, 500, 72.6, 494),    # anchored at k = 0, -n x would carry the exponent
])
def test_exp_partial_mean_walk_edges(i, n, x, k_star):
    assert min(i - 1, math.floor((n + 1) * -math.expm1(-x))) == k_star
    want = _exp_partial_mean_mp(S(i, n), x)
    assert _exp_partial_mean(S(i, n), x) == pytest.approx(float(want), rel=1e-12)


def _z_dhra_quad(a: S, b: S, x: float) -> float:
    def tail(s: S, t: float) -> float:
        c = math.exp(special.betaln(s.i, s.n - s.i + 1))

        def f(w: float) -> float:
            u = -math.expm1(-w)
            # (1-u)^(n-i) from the beta density times e^-w from du/dw
            return w * u ** (s.i - 1) * (1.0 - u) ** (s.n - s.i + 1) / c

        val, _ = integrate.quad(f, t, 60.0, limit=300)
        return val

    return tail(a, x) - tail(b, x)


def test_dhra_margin_agrees_with_scipy_quad():
    for a, b, xs in [
        (S(3, 7), S(4, 9), (0.1, 0.7, 2.0)),
        (S(2, 3), S(3, 5), (0.0, 0.3, 1.0, 2.5)),
        (S(1, 2), S(2, 4), (0.0, 0.3, 1.0, 2.5)),
    ]:
        for x in xs:
            assert ss_margin_dhra(a, b, x) == pytest.approx(_z_dhra_quad(a, b, x), abs=1e-10), (a, b, x)


def test_dhra_margin_rejects_nan_and_vanishes_at_infinity():
    with pytest.raises(ValueError):
        ss_margin_dhra(S(2, 3), S(1, 2), math.nan)
    with pytest.raises(ValueError):
        ss_margin_dhra(S(2, 3), S(1, 2), -0.5)
    assert ss_margin_dhra(S(2, 3), S(1, 2), math.inf) == 0.0


def test_check_ss_dhra_holds_where_dda_fails():
    """(2,3) vs (3,5) fails in the uniform frame but holds in the
    exponential one; the frames genuinely order different families."""
    assert not check_ss_dda(S(2, 3), S(3, 5)).holds
    assert check_ss_dhra(S(2, 3), S(3, 5)).holds


def test_check_ss_dhra_identical_specs_hold():
    assert check_ss_dhra(S(4, 6), S(4, 6)).holds


def test_check_ss_dhra_refutation():
    # reversed pair: higher mean on the right at x=0
    v = check_ss_dhra(S(3, 5), S(2, 3))
    assert not v.holds
    assert v.lhs_witness < -1e-6


@pytest.mark.parametrize("a, b, inf_z", [
    (S(2, 138), S(197, 338), -0.872222657908),
    (S(10, 92), S(310, 393), -1.55022872917),
])
def test_check_ss_dhra_root_that_rounds_to_one(a, b, inf_z):
    """A kernel root within half an ulp of 1 is r = 1.0 as a double, but its
    log-odds give the finite x = log(1 + e^s)."""
    assert cdf(ReferenceDistribution.LOGISTIC, _critical_candidates(a, b)[-1]) == 1.0
    v = check_ss_dhra(a, b)
    assert v.status is VerdictStatus.UNDETERMINED
    assert v.lhs_witness == pytest.approx(inf_z, abs=1e-12)


_R_GRID = np.linspace(0.0, 1.0, 20_001)


def _exp_partial_mean_scipy(s: S) -> np.ndarray:
    """E[W 1{W > x}] at x = -log(1 - r) for every r < 1 of _R_GRID, from
    scipy: x P(W > x) plus the integral of P(W > t) dt = P(W > t) dr/(1 - r)
    from r to 1 by the trapezoid rule, with P(W > t) = P(B_{i:n} > r)."""
    tail = special.betaincc(s.i, s.n - s.i + 1, _R_GRID)
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = tail / (1.0 - _R_GRID)
    integrand[-1] = s.n if s.i == s.n else 0.0  # the limit at r = 1
    cum = integrate.cumulative_trapezoid(integrand, _R_GRID, initial=0.0)
    return -np.log1p(-_R_GRID[:-1]) * tail[:-1] + (cum[-1] - cum[:-1])


def test_dhra_candidates_alone_reach_the_infimum(monkeypatch):
    """Z at x = 0, the kernel roots and infinity is the infimum: with the
    sign grid taken out of the verdict, no point of a dense grid of Z,
    measured with scipy, lies lower, and the verdict agrees with the grid's
    sign wherever that sign is clear.  The referee's partial means agree
    with _exp_partial_mean to 2e-8 on these specs."""
    monkeypatch.setattr(ssverify, "_dhra_grid_minimum", lambda a, b: (math.inf, 0.0))
    rng = np.random.default_rng(5)
    pool: list[S] = []
    while len(pool) < 48:
        n = int(rng.integers(1, 41))
        s = S(int(rng.integers(1, n + 1)), n)
        if s not in pool:
            pool.append(s)
    partial = {s: _exp_partial_mean_scipy(s) for s in pool}
    for _ in range(300):
        a, b = (pool[k] for k in rng.choice(len(pool), size=2, replace=False))
        verdict = check_ss_dhra(a, b)
        grid_min = float((partial[a] - partial[b]).min())
        assert verdict.lhs_witness <= grid_min + 1e-7, (a, b)
        if abs(grid_min) > 1e-6:
            assert verdict.holds == (grid_min > 0.0), (a, b)


def test_dhra_grid_never_beats_the_candidates(monkeypatch):
    """The sign grid is only a cross-check: its minimum lies below the
    smallest Z of the candidates, the verdict's inf Z with the grid taken
    out, by at most rounding, so dropping it decides no verdict.  The fixed
    pairs sit on both sides of n = 20, where the grid goes from 10,000
    points to 401.  The worst measured case is
    (91,651) vs (169,302), where a grid point beats the kernel-root
    candidate by 1.42e-14 (1.74e-14 relative), the closed form's rounding
    at n = 651; at n, m <= 12 the worst is 7.3e-16 relative, (4,6) vs (4,5)."""
    grid_minimum = ssverify._dhra_grid_minimum
    monkeypatch.setattr(ssverify, "_dhra_grid_minimum", lambda a, b: (math.inf, 0.0))
    rng = np.random.default_rng(14)
    pairs = [(S(500, 1000), S(300, 700)), (S(91, 651), S(169, 302)), (S(2, 138), S(197, 338)),
             (S(20, 20), S(19, 20)), (S(4, 385), S(7, 12)), (S(2, 33), S(5, 39))]
    while len(pairs) < 206:
        n, m = (int(v) for v in rng.integers(1, 13, size=2))
        a, b = S(int(rng.integers(1, n + 1)), n), S(int(rng.integers(1, m + 1)), m)
        if a != b:
            pairs.append((a, b))
    for a, b in pairs:
        cand_min = check_ss_dhra(a, b).lhs_witness
        grid_min = grid_minimum(a, b)[1]
        assert grid_min >= cand_min - 1e-13 * abs(cand_min), (a, b, grid_min, cand_min)


@pytest.mark.parametrize("a, b", [
    (S(2, 3), S(3, 5)), (S(3, 5), S(2, 3)), (S(4, 385), S(7, 12)), (S(91, 651), S(169, 302)),
])
def test_dhra_grid_streams_the_candidates_closed_form(a, b):
    """The grid's streamed Z and ss_margin_dhra, which the candidates read,
    are one closed form: at the grid's witness they agree bit for bit."""
    x, z = ssverify._dhra_grid_minimum(a, b)
    assert ss_margin_dhra(a, b, x) == z


def test_check_ss_dhra_large_n_returns_a_verdict():
    # the binomial walk anchors at the largest mass, whose log stays finite
    # at n = 1000, and past n = 20 the sign grid has 401 points
    start = time.perf_counter()
    verdict = check_ss_dhra(S(500, 1000), S(300, 700))
    assert time.perf_counter() - start < 2.0
    assert verdict.status in VerdictStatus
    assert math.isfinite(verdict.lhs_witness)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6: the absolute _HOLDS_TOL "
                   "reads inf Z = -1.8e-130 as Holds")
def test_check_ss_dhra_tiny_negative_minimum_is_not_holds():
    # 60-digit mpmath gives Z(1.788313788) = -1.823e-130 and Z(2.5) = -7.8e-241
    assert check_ss_dhra(S(500, 1000), S(300, 700)).status is VerdictStatus.UNDETERMINED


# ---------------------------------------------------------------------------
# region maps
# ---------------------------------------------------------------------------


def test_region_map_requires_n_le_m():
    with pytest.raises(ValueError):
        region_map_dda(5, 4)


def test_region_map_dda_small_edge_cells():
    rm = region_map_dda(3, 5)
    # the line j = i + (m - n) sits in the no-comparability wedge
    for i in (1, 2, 3):
        assert rm.cells[(i, i + 2)] is CellClass.NO_COMPARABILITY


def test_region_map_dda_square_is_trivial():
    rm = region_map_dda(4, 4)
    for (i, j), cls in rm.cells.items():
        if i > j:
            assert cls is CellClass.HOLDS_SS_IJ
        elif i < j:
            assert cls is CellClass.HOLDS_SS_JI
        else:
            assert cls is CellClass.NEEDS_CHECK_PASS


def test_region_map_dda_first_order_rules():
    rm = region_map_dda(5, 8)
    for (i, j), cls in rm.cells.items():
        if i > j:
            assert cls is CellClass.HOLDS_SS_IJ
        if (5 - i) > (8 - j):
            assert cls is CellClass.HOLDS_SS_JI


def test_no_nocomparability_cell_actually_holds():
    rm = region_map_dda(5, 8)
    for (i, j), cls in rm.cells.items():
        if cls is CellClass.NO_COMPARABILITY:
            assert not check_ss_dda(S(i, 5), S(j, 8)).holds


def test_region_map_dhra_spot_cells():
    rm = region_map_dhra(3, 5)
    # harmonic-mean gap H(3,3) - H(4,5) = 1/3 - (1/4 + 1/5) < 0
    assert rm.cells[(1, 2)] is CellClass.NO_COMPARABILITY
    assert rm.cells[(2, 1)] is CellClass.HOLDS_SS_IJ
    assert rm.cells[(1, 4)] is CellClass.HOLDS_SS_JI


def test_region_map_serialisations():
    rm = region_map_dda(3, 4)
    csv_text = rm.to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "i,j,class"
    assert len(lines) == 1 + 3 * 4
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "1"

    obj = rm.to_json_obj()
    json.dumps(obj)  # must be serialisable as-is
    assert obj["n"] == 3 and obj["m"] == 4
    assert obj["frame"] == "DDA"
    assert len(obj["cells"]) == 12

    boundaries = obj["boundaries"]
    assert boundaries["first_order_line"]
    assert boundaries["zero_mean_line"]


def _band(rm, i: int) -> list[int]:
    return list(range(i, rm.m - rm.n + i + 1))


def _assert_mean_line_splits_the_band(rm):
    lines = {p["i"]: p["j"] for p in rm.to_json_obj()["boundaries"]["zero_mean_line"]}
    for i in range(1, rm.n + 1):
        for j in _band(rm, i):
            above = j > lines[i]
            assert above == (rm.cells[(i, j)] is CellClass.NO_COMPARABILITY), (rm.n, rm.m, i, j)


def _assert_integer_mean_rule(rm):
    # the DDA mean gap i/(n+1) - j/(m+1) is a float difference; its sign is
    # the exact one of i(m+1) - j(n+1)
    for i in range(1, rm.n + 1):
        for j in _band(rm, i):
            below = i * (rm.m + 1) < j * (rm.n + 1)
            assert below == (rm.cells[(i, j)] is CellClass.NO_COMPARABILITY), (rm.n, rm.m, i, j)


_dhra_map = functools.cache(region_map_dhra)


def test_zero_mean_line_splits_the_band(monkeypatch):
    """A band cell lies above the --json mean line exactly when the map calls
    it NoComparability: on 13 x 121 the line meets j = 61 at i = 7, and on
    DHRA 1 x 6 the harmonic mean gap stays >= 0 up to j = 4.  In the DDA
    frame that is also the integer rule i(m+1) < j(n+1)."""
    for n, m in ((13, 121), (3, 4), (1, 6)):
        _assert_mean_line_splits_the_band(region_map_dda(n, m))
    for n, m in ((1, 6), (3, 4), (4, 5), (4, 6)):
        _assert_mean_line_splits_the_band(_dhra_map(n, m))
    # the mean gap decides NoComparability before any check runs, so a
    # stand-in check keeps the sweep fast without changing those cells
    holds = OrderVerdict("ss", VerdictStatus.HOLDS, 0.0, 0.0, "stand-in")
    monkeypatch.setattr(ssverify, "check_ss_dda", lambda a, b: holds)
    monkeypatch.setattr(ssverify, "check_ss_dhra", lambda a, b: holds)
    for n in range(1, 31):
        for m in range(n, 2 * n + 2):
            rm = ssverify.region_map_dda(n, m)
            _assert_mean_line_splits_the_band(rm)
            _assert_integer_mean_rule(rm)
    for n, m in ((100, 301), (200, 320)):
        rm = ssverify.region_map_dda(n, m)
        _assert_mean_line_splits_the_band(rm)
        _assert_integer_mean_rule(rm)
    for n in range(1, 4):
        for m in range(n, n + 9):
            _assert_mean_line_splits_the_band(ssverify.region_map_dhra(n, m))
    _assert_mean_line_splits_the_band(ssverify.region_map_dhra(10, 30))


def _assert_staircase(rm):
    last_prev = 0
    for i in range(1, rm.n + 1):
        band = _band(rm, i)
        passes = [j for j in band if rm.cells[(i, j)] is CellClass.NEEDS_CHECK_PASS]
        assert passes == band[:len(passes)], (rm.n, rm.m, i)
        last = passes[-1] if passes else i - 1
        assert last >= last_prev, (rm.n, rm.m, i)
        last_prev = last


def test_full_region_maps_are_staircases(golden_dir):
    """In each row the band's Pass cells form a prefix in j, and the last
    Pass column is nondecreasing in i (ROADMAP item 4's staircase)."""
    for n in range(1, 17):
        for m in range(n, n + 17):
            _assert_staircase(region_map_dda(n, m))
    golden = (golden_dir / "region_dda_20_30.csv").read_text().splitlines()[1:]
    cells = {}
    for line in golden:
        i, j, cls = line.split(",")
        cells[(int(i), int(j))] = CellClass(cls)
    _assert_staircase(ssverify.RegionMap(20, 30, "DDA", cells))
    for n, m in ((3, 4), (4, 5), (4, 6)):
        _assert_staircase(_dhra_map(n, m))
