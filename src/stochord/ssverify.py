"""Star-shaped-order verification for beta order statistics.

For a parent whose distribution function is anti-star-shaped (DDA) or whose
hazard is anti-star-shaped (DHRA), X_{i:n} dominates X_{j:m} in the
star-shaped order whenever the criterion function

    Z(x) = E[W_a 1{W_a > x}] - E[W_b 1{W_b > x}]

is nonnegative everywhere, with W the beta order statistic itself (DDA) or
its exponential-quantile transform (DHRA); this is the partial-mean form of
the ss order (Shaked & Shanthikumar, Stochastic Orders, 2007, ch. 4.B).

Because d/dx E[W 1{W > x}] = -x f_W(x), Z'(x) = -x (f_a(x) - f_b(x)): Z has
interior extrema only where the two densities cross.  For B_{i:n} against
B_{j:m} those are the roots in (0, 1) of the kernel equation

    x^(i-j) (1-x)^((n-i)-(m-j)) = B(i, n-i+1) / B(j, m-j+1),

taken at r = 1 - e^-x in the exponential frame.  The private solver takes
the constant as its logarithm, a difference of log-betas, which stays finite
where the ratio itself overflows or underflows, and returns the sign changes
as log-odds s, read as x = 1/(1 + e^-s) or x = log(1 + e^s), finite as r
rounds to 1; a tangency is none, as Z' keeps its sign through it.

So both frames take the minimum of Z over one candidate list, in one
checker that reads the frame's reference from the class catalogue: x = 0,
where Z is a difference of two entries of refdist's table of means, the
kernel roots, and the right end of the support, where Z = 0.  The sign of
Z(0) is exact in the uniform frame: i/(n+1) and j/(m+1) are each correctly
rounded, two different ones lie at least 1/((n+1)(m+1)) > 2^-52 apart while
(n+1)(m+1) < 2^52, so rounding keeps their order and their equality, and a
float subtraction keeps the sign.  At the roots the uniform frame reads the
incomplete beta function and the exponential frame a finite sum of positive
binomial terms, as P(W > t) = P(Bin(n, 1 - e^-t) <= i-1); no quadrature
runs.  That sum is formed from its largest binomial mass, the one term taken
in log space, by a walk of ratios outward from it (the start-at-the-bulk
scheme of Loader, "Fast and accurate computation of binomial
probabilities", 2000), with the constants of each spec built once per
sequence of x.  The exponential frame appends the minimum of that closed
form over a sign grid, streamed point by point, as a cross-check.
The module needs only the standard library.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .conditions import OrderVerdict, ShapeClass, VerdictStatus
from .refdist import OrderStatSpec, ReferenceDistribution, cdf, expected_transformed_orderstat
from .specfun import log_beta, reg_inc_beta

__all__ = [
    "CellClass",
    "RegionMap",
    "ss_margin_dda",
    "ss_margin_dhra",
    "check_ss_dda",
    "check_ss_dhra",
    "region_map_dda",
    "region_map_dhra",
]

_S_BOUND = 700.0          # log-odds search range; covers x down to ~1e-304
_HOLDS_TOL = 1e-12        # Z minimum above -this counts as nonnegative
_GRID_POINTS = 10_000


def _log_sigmoid(s: float) -> float:
    if s >= 0.0:
        return -math.log1p(math.exp(-s))
    return s - math.log1p(math.exp(s))


def _kernel_log_odds(a: float, b: float, log_c: float) -> tuple[float, ...]:
    """The sign changes of x^a (1-x)^b - c on (0, 1), ascending, given
    log_c = ln c, as log-odds s = ln(x/(1-x)).

    Log-odds keep relative accuracy for roots close to either endpoint.
    Bisection alone suffices: 64 halvings of the +-700 bracket leave it
    1400/2^64 ~ 7.6e-17 (or one ulp of s) wide, a relative change in
    x = 1/(1 + e^-s) or log(1 + e^s) below half a double's spacing, so
    Newton steps could only move last bits.  The kernel is monotone when
    ab <= 0 (at most one root) and single-peaked or single-dipped when
    ab > 0 (at most two).  A tangency at its stationary point a/(a+b) is
    no root: the densities touch without crossing, so Z' keeps its sign and
    Z has no extremum there.  Equal specs never get here, so (a, b) !=
    (0, 0), and log_c is a finite difference of log-betas.
    """
    def g(s: float) -> float:
        return a * _log_sigmoid(s) + b * _log_sigmoid(-s) - log_c

    def refine(lo: float, hi: float) -> float:
        glo = g(lo)
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            gm = g(mid)
            if gm == 0.0:
                return mid
            if (gm < 0.0) == (glo < 0.0):
                lo, glo = mid, gm
            else:
                hi = mid
        return 0.5 * (lo + hi)

    s_roots: list[float] = []
    if a * b > 0.0:
        s_star = math.log(a / b)  # x* = a/(a+b)
        # g is monotone on each side of its extremum at s_star, so a
        # sign change on a half brackets that half's only root
        for lo, hi in ((-_S_BOUND, s_star), (s_star, _S_BOUND)):
            if g(lo) * g(hi) < 0.0:
                s_roots.append(refine(lo, hi))
    elif g(-_S_BOUND) * g(_S_BOUND) < 0.0:
        s_roots.append(refine(-_S_BOUND, _S_BOUND))
    return tuple(s_roots)  # the lower half-bracket comes first


# ---------------------------------------------------------------------------
# uniform frame (DDA)
# ---------------------------------------------------------------------------

def _upper_tail(x: float, p: float, q: float) -> float:
    # 1 - I_x(p, q); past the mean, I_{1-x}(q, p) keeps the small tail's
    # relative accuracy where 1 - I_x would round it against 1
    if x > p / (p + q):
        return reg_inc_beta(1.0 - x, q, p)
    return 1.0 - reg_inc_beta(x, p, q)


def ss_margin_dda(a: OrderStatSpec, b: OrderStatSpec, x: float) -> float:
    """Z(x) = upper partial mean of B_{i:n} minus that of B_{j:m} at x.

    Closed form: (i/(n+1)) (1 - I_x(i+1, n-i+1)) - (j/(m+1)) (1 - I_x(j+1, m-j+1)).
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"ss_margin_dda needs x in [0, 1], got {x}")
    ta = a.i / (a.n + 1.0) * _upper_tail(x, a.i + 1.0, a.n - a.i + 1.0)
    tb = b.i / (b.n + 1.0) * _upper_tail(x, b.i + 1.0, b.n - b.i + 1.0)
    return ta - tb


def _critical_candidates(a: OrderStatSpec, b: OrderStatSpec) -> tuple[float, ...]:
    """Crossings of the beta densities of a and b, ascending, as the log-odds
    of the kernel's roots."""
    exp_a = a.i - b.i
    exp_b = (a.n - a.i) - (b.n - b.i)
    log_c = log_beta(a.i, a.n - a.i + 1) - log_beta(b.i, b.n - b.i + 1)
    return _kernel_log_odds(float(exp_a), float(exp_b), log_c)


def _mean_gap(ref: ReferenceDistribution, a: OrderStatSpec, b: OrderStatSpec) -> float:
    """Z(0) = E W_a - E W_b, two entries of the table of transformed means."""
    return expected_transformed_orderstat(ref, a) - expected_transformed_orderstat(ref, b)


def _ss_verdict(shape: ShapeClass, a: OrderStatSpec, b: OrderStatSpec, margin,
                cross_check=None) -> OrderVerdict:
    """The ss verdict of a star-shaped class on the smallest Z among the
    (x, Z(x)) at x = 0, at each kernel root, read by margin, at the right
    end of the class reference's support, and then cross_check(a, b) if
    given; the first of equal values is the witness."""
    if a == b:
        return OrderVerdict("ss", VerdictStatus.HOLDS, 0.0, 0.0,
                            f"{shape.value}: identical specs, Z == 0")
    ref = shape.reference
    to_x, refuted, _ = _FRAMES[ref]
    points = [
        (0.0, _mean_gap(ref, a, b)),
        *((x, margin(a, b, x)) for x in map(to_x, _critical_candidates(a, b))),
        (ref.support[1], 0.0),
        *([cross_check(a, b)] if cross_check else []),
    ]
    z_arg, z_min = min(points, key=operator.itemgetter(1))
    status = VerdictStatus.HOLDS if z_min >= -_HOLDS_TOL else VerdictStatus.UNDETERMINED
    return OrderVerdict(
        "ss", status, z_min, 0.0,
        f"{shape.value}: inf Z = {z_min:.6e} at x = {z_arg:.9f}"
        + ("" if status is VerdictStatus.HOLDS else f" (negative witness: no ss-dominance {refuted})"),
    )


def check_ss_dda(a: OrderStatSpec, b: OrderStatSpec) -> OrderVerdict:
    """Decide Z >= 0 on [0, 1] for the uniform frame.

    Z(0) = i/(n+1) - j/(m+1) from the table of means, Z(1) = 0 and Z at
    every kernel root hold the minimum of Z.  A negative minimum is a
    genuine refutation of B_{i:n} >=_ss B_{j:m} (the criterion is two-sided
    for the beta variables themselves), but the verdict stays in
    Holds/Undetermined vocabulary because for a general DDA parent only the
    positive direction transfers.
    """
    return _ss_verdict(ShapeClass.DDA, a, b, ss_margin_dda)


# ---------------------------------------------------------------------------
# exponential frame (DHRA)
# ---------------------------------------------------------------------------

def _exp_partial_means(s: OrderStatSpec, xs: Iterable[float]) -> Iterator[float]:
    """E[W 1{W > x}] for W = -log(1 - B_{i:n}) at each x of xs, in closed form.

    P(W > t) = P(Bin(n, 1 - e^-t) <= i-1), so with r = 1 - e^-x and
    p_l = P(Bin(n, r) = l) the partial mean x F_{i-1} + sum_{k<i} F_k / (n-k),
    F_k = p_0 + ... + p_k, regroups into the positive-term sum
    sum_{l<i} p_l (x + h_l) with the suffix weights h_l = sum_{k=l}^{i-1}
    1/(n-k).  The weights, the ratios (n-k+1)/k and log C(n, k) for k < i,
    from exact integers, depend on s alone and are built once.

    At each x only the largest mass among l < i, at k* = min(i-1,
    floor((n+1) r)), is formed, in log space as log C(n, k*) + k* log r -
    (n-k*) x; the others follow by walking outward from it with the ratio
    p_k / p_{k-1} = (n-k+1)/k (e^x - 1), so no term exceeds 1 and one exp
    of log p_{k*} + log(sum) finishes.  Anchoring at the bulk keeps the
    exponent of the anchor, not -n x, as the only large number.  Past
    x ~ 709.78, e^x - 1 overflows; there r rounds to 1, k* = i-1 and only
    the downward walk runs, its terms divided by an infinite e^x - 1 to 0.
    """
    n, i = s.n, s.i
    last = i - 1
    log_binom = [0.0]
    binom = 1
    for k in range(1, i):
        binom = binom * (n - k + 1) // k
        log_binom.append(math.log(binom))
    weight = [*itertools.accumulate(1.0 / (n - k) for k in range(last, -1, -1))][::-1]
    # the walk's steps as (ratio without its factor (e^x - 1)^(+-1), weight
    # of the term reached): from k*, up[k*:] reaches k*+1..i-1 and
    # down[i-1-k*:] reaches k*-1..0
    up = [((n - k + 1) / k, weight[k]) for k in range(1, i)]
    down = [(k / (n - k + 1), weight[k - 1]) for k in range(last, 0, -1)]
    for x in xs:
        if not x >= 0.0:
            raise ValueError(f"the exponential-frame partial mean needs x >= 0, got {x}")
        if n * x == math.inf:  # no mass left above x
            yield 0.0
            continue
        r = -math.expm1(-x)
        try:
            odds = math.expm1(x)  # r / (1 - r)
        except OverflowError:  # r rounds to 1, so k* = i-1
            odds = math.inf
        top = min(last, math.floor((n + 1) * r))
        total = x + weight[top]
        if top:
            log_top = log_binom[top] + top * math.log(r) - (n - top) * x
            term = 1.0
            for q, w in down[last - top:]:
                term *= q / odds
                total += term * (x + w)
        else:
            log_top = -n * x  # log p_0, also at x = 0, where log r = -inf
        if top < last:
            term = 1.0
            for q, w in up[top:]:
                term *= q * odds
                total += term * (x + w)
        yield math.exp(log_top + math.log(total))


def _exp_partial_mean(s: OrderStatSpec, x: float) -> float:
    """E[W 1{W > x}] for W = -log(1 - B_{i:n}): _exp_partial_means at one x."""
    (value,) = _exp_partial_means(s, (x,))
    return value


def ss_margin_dhra(a: OrderStatSpec, b: OrderStatSpec, x: float) -> float:
    """Z(x) for the exponential frame: the difference of the two closed-form
    partial means; Z(inf) = 0."""
    return _exp_partial_mean(a, x) - _exp_partial_mean(b, x)


def check_ss_dhra(a: OrderStatSpec, b: OrderStatSpec) -> OrderVerdict:
    """Decide Z >= 0 on [0, inf) for the exponential frame.

    Critical points satisfy the same kernel equation as the uniform frame,
    in the variable r = 1 - e^-x, so the candidates are those of
    check_ss_dda, with Z(0) a difference of harmonic sums.  Z comes from
    _exp_partial_means, whose binomial walk from the largest mass serves the
    roots one x at a time and _dhra_grid_minimum's sign grid as one stream;
    the grid's minimum comes last, as a cross-check that wins no tie.
    """
    return _ss_verdict(ShapeClass.DHRA, a, b, ss_margin_dhra, _dhra_grid_minimum)


def _dhra_grid_minimum(a: OrderStatSpec, b: OrderStatSpec) -> tuple[float, float]:
    """(x, Z(x)) at the sign grid's smallest Z, the first of equal values: a
    cross-check, as the candidates already hold every critical point of Z.

    The grid is uniform in r = 1 - e^-x on [0, 1 - 1e-9]: _GRID_POINTS
    points while both sample sizes are at most 20, 401 beyond, where each
    point walks O(n) binomial terms.  Z streams from _exp_partial_means over
    the lazily generated grid, so each spec's constants are built once and
    no grid is held in memory.
    """
    points = _GRID_POINTS if max(a.n, b.n) <= 20 else 401
    r_max = 1.0 - 1e-9
    step = r_max / (points - 1)
    grid = (-math.log1p(-(k * step if k < points - 1 else r_max)) for k in range(points))
    xs, xs_a, xs_b = itertools.tee(grid, 3)
    zs = map(operator.sub, _exp_partial_means(a, xs_a), _exp_partial_means(b, xs_b))
    return min(zip(xs, zs), key=operator.itemgetter(1))


# ---------------------------------------------------------------------------
# region maps
# ---------------------------------------------------------------------------

def _harmonic_mean_line(n: int, m: int, i: int) -> float:
    """The exponential frame's mean line: the gap is >= 0 at j = i since
    n <= m, and falls by 1/(m-j) from j to j + 1, so interpolate between the
    last j with gap >= 0 and the next."""
    ref, a = ReferenceDistribution.EXPONENTIAL, OrderStatSpec(i, n)
    j = i
    while j < m and _mean_gap(ref, a, OrderStatSpec(j + 1, m)) >= 0.0:
        j += 1
    return j + (m - j) * _mean_gap(ref, a, OrderStatSpec(j, m))


# One row per star-shaped reference: x at a kernel root's log-odds s, what a
# negative minimum refutes, and the j at which row i of an n-by-m map
# crosses its mean line, where Z(0) changes sign.
_R = ReferenceDistribution
_FRAMES = {
    # the line's one rounding is exact where it meets an integer j
    _R.UNIFORM: (lambda s: cdf(_R.LOGISTIC, s), "of the beta variables",
                 lambda n, m, i: i * (m + 1) / (n + 1)),
    # x = -log(1 - r) = log(1 + e^s), finite also where r rounds to 1
    _R.EXPONENTIAL: (lambda s: math.log1p(math.exp(s)), "in the exponential frame",
                     _harmonic_mean_line),
}


class CellClass(enum.Enum):
    HOLDS_SS_IJ = "HoldsSS_ij"
    HOLDS_SS_JI = "HoldsSS_ji"
    NO_COMPARABILITY = "NoComparability"
    NEEDS_CHECK_PASS = "NeedsCheck_Pass"
    NEEDS_CHECK_FAIL = "NeedsCheck_Fail"


@dataclass(frozen=True, slots=True)
class RegionMap:
    """Classification of every (i, j) cell for fixed sample sizes n <= m."""

    n: int
    m: int
    frame: str  # "DDA" or "DHRA"
    cells: dict[tuple[int, int], CellClass]

    def to_csv(self) -> str:
        lines = ["i,j,class"]
        for i in range(1, self.n + 1):
            for j in range(1, self.m + 1):
                lines.append(f"{i},{j},{self.cells[(i, j)].value}")
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        rows = range(1, self.n + 1)
        mean_line = _FRAMES[ShapeClass(self.frame).reference][2]
        return {
            "frame": self.frame,
            "n": self.n,
            "m": self.m,
            "cells": [
                {"i": i, "j": j, "class": self.cells[(i, j)].value}
                for i in rows
                for j in range(1, self.m + 1)
            ],
            # plot data for the two reference lines of the map
            "boundaries": {
                "first_order_line": [{"i": i, "j": float(i + self.m - self.n)} for i in rows],
                "zero_mean_line": [
                    {"i": i, "j": mean_line(self.n, self.m, i)} for i in rows
                ],
            },
        }


def _classify_cells(shape: ShapeClass, n: int, m: int, band_check) -> RegionMap:
    if not 1 <= n <= m:
        raise ValueError(f"region map needs 1 <= n <= m, got n={n} m={m}")
    # each spec with its entry of the table of means, once per n and per m
    rows, cols = (
        [(s, expected_transformed_orderstat(shape.reference, s))
         for s in map(OrderStatSpec, range(1, size + 1), itertools.repeat(size))]
        for size in (n, m)
    )
    cells: dict[tuple[int, int], CellClass] = {}
    for a, mean_a in rows:
        for b, mean_b in cols:
            if a.i > b.i:
                cells[(a.i, b.i)] = CellClass.HOLDS_SS_IJ
            elif n - a.i > m - b.i:
                cells[(a.i, b.i)] = CellClass.HOLDS_SS_JI
            elif mean_a < mean_b:
                # Z(0) = E W_a - E W_b < 0 refutes the i-side direction at x = 0
                cells[(a.i, b.i)] = CellClass.NO_COMPARABILITY
            else:
                cells[(a.i, b.i)] = (
                    CellClass.NEEDS_CHECK_PASS if band_check(a, b).holds
                    else CellClass.NEEDS_CHECK_FAIL
                )
    return RegionMap(n=n, m=m, frame=shape.value, cells=cells)


def region_map_dda(n: int, m: int) -> RegionMap:
    """Comparability map for the uniform frame.

    First-order regions win outright (i > j, or n-i > m-j for the reverse
    direction); above the straight line j = (m+1)/(n+1) i the criterion
    fails already at x = 0; the remaining band is settled by check_ss_dda.
    The mean line is tested on Z(0) = i/(n+1) - j/(m+1), whose sign the
    rounding keeps (see the module docstring).
    """
    return _classify_cells(ShapeClass.DDA, n, m, check_ss_dda)


def region_map_dhra(n: int, m: int) -> RegionMap:
    """Comparability map for the exponential frame.

    Same first-order geometry; the straight mean line is replaced by the
    harmonic-sum difference curve (the x = 0 value of the exponential-frame
    criterion), and the band is settled by check_ss_dhra.
    """
    return _classify_cells(ShapeClass.DHRA, n, m, check_ss_dhra)
