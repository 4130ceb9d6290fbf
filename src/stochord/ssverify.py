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

taken at r = 1 - e^-x in the exponential frame.  The solver takes the
constant as its logarithm, a difference of log-betas, which stays finite
where the ratio itself overflows or underflows, and returns log-odds s,
read as x = 1/(1 + e^-s) or x = log(1 + e^s), finite as r rounds to 1.

So both frames take the minimum of Z over one candidate list: x = 0, where
Z is a difference of two entries of refdist's table of means, the kernel
roots, and the right end of the support, where Z = 0.  At the roots the
uniform frame reads the incomplete beta function and the exponential frame
a finite sum of positive binomial terms, as P(W > t) = P(Bin(n, 1 - e^-t)
<= i-1); no quadrature runs.  The exponential frame appends the minimum of
that closed form over a sign grid as a cross-check.  The module needs only
the standard library.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .conditions import OrderVerdict, VerdictStatus
from .refdist import OrderStatSpec, ReferenceDistribution, cdf, expected_transformed_orderstat
from .specfun import log_beta, reg_inc_beta

__all__ = [
    "CellClass",
    "RegionMap",
    "beta_kernel_roots",
    "ss_margin_dda",
    "ss_margin_dhra",
    "check_ss_dda",
    "check_ss_dhra",
    "region_map_dda",
    "region_map_dhra",
]

_S_BOUND = 700.0          # log-odds search range; covers x down to ~1e-304
_TANGENCY_TOL = 1e-12     # log-domain tolerance for a double root
_HOLDS_TOL = 1e-12        # Z minimum above -this counts as nonnegative
_GRID_POINTS = 10_000


def _log_sigmoid(s: float) -> float:
    if s >= 0.0:
        return -math.log1p(math.exp(-s))
    return s - math.log1p(math.exp(s))


def beta_kernel_roots(a: float, b: float, log_c: float) -> tuple[float, ...]:
    """All roots of x^a (1-x)^b = c on (0, 1), ascending, given log_c = ln c.

    Solved in log-odds coordinates s = ln(x/(1-x)) so roots close to either
    endpoint keep relative accuracy.  Bisection alone suffices: 64 halvings
    of the +-700 bracket leave it 1400/2^64 ~ 7.6e-17 (or one ulp of s)
    wide, a relative change in x = 1/(1 + e^-s) or log(1 + e^s) below half
    a double's spacing, so Newton steps could only move last bits.  The
    kernel is monotone when ab <= 0 (at most one root) and single-peaked/
    single-dipped when ab > 0 (at most two, with a tangency collapsing them
    onto the stationary point a/(a+b)).
    """
    # the logistic cdf is increasing: x-order matches s-order
    return tuple(cdf(ReferenceDistribution.LOGISTIC, s) for s in _kernel_log_odds(a, b, log_c))


def _kernel_log_odds(a: float, b: float, log_c: float) -> tuple[float, ...]:
    """The roots of beta_kernel_roots as log-odds s, ascending."""
    if a == 0.0 and b == 0.0:
        raise ValueError("beta_kernel_roots needs (a, b) != (0, 0)")
    if not math.isfinite(log_c):
        raise ValueError(f"beta_kernel_roots needs a finite ln c, got {log_c}")

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
        if abs(g(s_star)) <= _TANGENCY_TOL:
            s_roots.append(s_star)
        else:
            # g is monotone on each side of its extremum at s_star, so a
            # sign change on a half brackets that half's only root
            for lo, hi in ((-_S_BOUND, s_star), (s_star, _S_BOUND)):
                if g(lo) * g(hi) < 0.0:
                    s_roots.append(refine(lo, hi))
    elif g(-_S_BOUND) * g(_S_BOUND) < 0.0:
        s_roots.append(refine(-_S_BOUND, _S_BOUND))
    return tuple(sorted(s_roots))


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
    log_c = log_beta(a.alpha, a.beta) - log_beta(b.alpha, b.beta)
    return _kernel_log_odds(float(exp_a), float(exp_b), log_c)


def _candidate_points(ref: ReferenceDistribution, a: OrderStatSpec, b: OrderStatSpec,
                      to_x, margin) -> list[tuple[float, float]]:
    """(x, Z(x)) at x = 0, at each kernel root and at the right end of ref's
    support, in that order.  Z(0) is a difference of two entries of the table
    of transformed means and Z vanishes at the right end, so only the roots,
    mapped from log-odds by to_x, need the frame's margin."""
    z0 = expected_transformed_orderstat(ref, a) - expected_transformed_orderstat(ref, b)
    return [
        (0.0, z0),
        *((x, margin(a, b, x)) for x in map(to_x, _critical_candidates(a, b))),
        (ref.support[1], 0.0),
    ]


def _ss_verdict(
    frame: str, a: OrderStatSpec, b: OrderStatSpec, z_points, refuted: str
) -> OrderVerdict:
    """The ss verdict on the smallest Z among the (x, Z(x)) pairs that
    z_points() lists; the first of equal values is the witness."""
    if a == b:
        return OrderVerdict("ss", VerdictStatus.HOLDS, 0.0, 0.0,
                            f"{frame}: identical specs, Z == 0")
    z_arg, z_min = min(z_points(), key=lambda p: p[1])
    status = VerdictStatus.HOLDS if z_min >= -_HOLDS_TOL else VerdictStatus.UNDETERMINED
    return OrderVerdict(
        "ss", status, z_min, 0.0,
        f"{frame}: inf Z = {z_min:.6e} at x = {z_arg:.9f}"
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
    return _ss_verdict("DDA", a, b, lambda: _candidate_points(
        ReferenceDistribution.UNIFORM, a, b,
        lambda s: cdf(ReferenceDistribution.LOGISTIC, s), ss_margin_dda,
    ), "of the beta variables")


# ---------------------------------------------------------------------------
# exponential frame (DHRA)
# ---------------------------------------------------------------------------

def _exp_partial_mean(s: OrderStatSpec, x: float) -> float:
    """E[W 1{W > x}] for W = -log(1 - B_{i:n}), in closed form.

    P(W > t) = P(Bin(n, 1 - e^-t) <= i-1), so with r = 1 - e^-x and
    F_k = P(Bin(n, r) <= k) the partial mean is the positive-term sum
    x F_{i-1} + sum_{k<i} F_k / (n-k).  The binomial masses start from
    log P(Bin = 0) = -n x and stay in log space as
    log C(n, k) + k log r - (n-k) x, with C(n, k) an exact integer and
    log r = log(-expm1(-x)), so no term overflows at large n or x.
    """
    if not x >= 0.0:
        raise ValueError(f"the exponential-frame partial mean needs x >= 0, got {x}")
    n = s.n
    if n * x == math.inf:  # no mass left above x
        return 0.0
    log_pmf = [-n * x]
    log_r = math.log(-math.expm1(-x)) if x > 0.0 else -math.inf
    binom = 1
    for k in range(1, s.i):
        binom = binom * (n - k + 1) // k
        log_pmf.append(math.log(binom) + k * log_r - (n - k) * x)
    top = max(log_pmf)
    cdf = total = 0.0
    for k, lp in enumerate(log_pmf):
        cdf += math.exp(lp - top)
        total += cdf / (n - k)
    return math.exp(top + math.log(x * cdf + total))


def ss_margin_dhra(a: OrderStatSpec, b: OrderStatSpec, x: float) -> float:
    """Z(x) for the exponential frame: the difference of the two closed-form
    partial means; Z(inf) = 0."""
    return _exp_partial_mean(a, x) - _exp_partial_mean(b, x)


def check_ss_dhra(a: OrderStatSpec, b: OrderStatSpec) -> OrderVerdict:
    """Decide Z >= 0 on [0, inf) for the exponential frame.

    Critical points satisfy the same kernel equation as the uniform frame,
    in the variable r = 1 - e^-x, so the candidates are those of
    check_ss_dda with Z(0) a difference of harmonic sums, and Z comes from
    the positive-term closed form of _exp_partial_mean at the roots and on
    _dhra_grid_minimum's sign grid alike.  The grid's minimum comes last, as
    a cross-check that wins no tie with the candidates.
    """
    return _ss_verdict("DHRA", a, b, lambda: [
        # x = -log(1 - r) = log(1 + e^s), finite also where r rounds to 1
        *_candidate_points(ReferenceDistribution.EXPONENTIAL, a, b,
                           lambda s: math.log1p(math.exp(s)), ss_margin_dhra),
        _dhra_grid_minimum(a, b),  # last, so the candidates win ties
    ], "in the exponential frame")


def _dhra_grid_minimum(a: OrderStatSpec, b: OrderStatSpec) -> tuple[float, float]:
    """(x, Z(x)) at the sign grid's smallest Z, the first of equal values: a
    cross-check, as the candidates already hold every critical point of Z.

    The grid is uniform in r = 1 - e^-x on [0, 1 - 1e-9], with Z from the
    closed form at every point: _GRID_POINTS points while both sample sizes
    are at most 20, 401 beyond, where each point costs O(n).
    """
    points = _GRID_POINTS if max(a.n, b.n) <= 20 else 401
    r_max = 1.0 - 1e-9
    step = r_max / (points - 1)
    xs = [-math.log1p(-r) for r in [k * step for k in range(points - 1)] + [r_max]]
    zs = [ss_margin_dhra(a, b, x) for x in xs]
    k = min(range(points), key=zs.__getitem__)
    return xs[k], zs[k]


# ---------------------------------------------------------------------------
# region maps
# ---------------------------------------------------------------------------

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
                    {"i": i, "j": _mean_line(self.frame, self.n, self.m, i)} for i in rows
                ],
            },
        }


def _mean_gap(frame: str, n: int, m: int, i: int, j: int) -> float:
    """Z(0) for (i, n) against (j, m), up to a positive factor; DDA's is
    (n+1)(m+1) Z(0), in exact integer arithmetic."""
    if frame == "DDA":
        return float(i * (m + 1) - j * (n + 1))
    ref = ReferenceDistribution.EXPONENTIAL
    return (expected_transformed_orderstat(ref, OrderStatSpec(i, n))
            - expected_transformed_orderstat(ref, OrderStatSpec(j, m)))


def _mean_line(frame: str, n: int, m: int, i: int) -> float:
    """The j at which the mean gap of row i changes sign: a band cell lies
    above it exactly when its mean gap is negative."""
    if frame == "DDA":
        return i * (m + 1) / (n + 1)  # one rounding: exact where the line meets an integer j
    # the gap is >= 0 at j = i since n <= m, and falls by 1/(m-j) from j to
    # j + 1: interpolate between the last j with gap >= 0 and the next
    j = i
    while j < m and _mean_gap(frame, n, m, i, j + 1) >= 0.0:
        j += 1
    return j + (m - j) * _mean_gap(frame, n, m, i, j)


def _classify_cells(n: int, m: int, frame: str, band_check) -> RegionMap:
    if not 1 <= n <= m:
        raise ValueError(f"region map needs 1 <= n <= m, got n={n} m={m}")
    cells: dict[tuple[int, int], CellClass] = {}
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if i > j:
                cells[(i, j)] = CellClass.HOLDS_SS_IJ
            elif n - i > m - j:
                cells[(i, j)] = CellClass.HOLDS_SS_JI
            elif _mean_gap(frame, n, m, i, j) < 0.0:
                # E W_a < E W_b already refutes the i-side direction at x = 0
                cells[(i, j)] = CellClass.NO_COMPARABILITY
            else:
                verdict = band_check(OrderStatSpec(i, n), OrderStatSpec(j, m))
                cells[(i, j)] = (
                    CellClass.NEEDS_CHECK_PASS if verdict.holds else CellClass.NEEDS_CHECK_FAIL
                )
    return RegionMap(n=n, m=m, frame=frame, cells=cells)


def region_map_dda(n: int, m: int) -> RegionMap:
    """Comparability map for the uniform frame.

    First-order regions win outright (i > j, or n-i > m-j for the reverse
    direction); above the straight line j = (m+1)/(n+1) i the criterion
    fails already at x = 0; the remaining band is settled by check_ss_dda.
    The mean line is tested in exact integer arithmetic.
    """
    return _classify_cells(n, m, "DDA", check_ss_dda)


def region_map_dhra(n: int, m: int) -> RegionMap:
    """Comparability map for the exponential frame.

    Same first-order geometry; the straight mean line is replaced by the
    harmonic-sum difference curve (the x = 0 value of the exponential-frame
    criterion), and the band is settled by check_ss_dhra.
    """
    return _classify_cells(n, m, "DHRA", check_ss_dhra)
