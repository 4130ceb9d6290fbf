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

taken at r = 1 - e^-x in the exponential frame, where x = log(1 + e^s)
comes from the root's log-odds s and stays finite as r rounds to 1.  The
minimum of Z is therefore attained at an endpoint or at a kernel root, and
the uniform frame decides its verdict from those few points alone.  The
solver takes the constant as its logarithm, a difference of log-betas,
which stays finite where the ratio itself overflows or underflows.

The exponential frame still pairs its roots with a sign grid.  Z at the
candidates, and at the grid points that decide its minimum, comes from a
closed form: with P(W > t) = P(Bin(n, 1 - e^-t) <= i-1), each partial mean
is a finite sum of positive binomial terms, and no quadrature runs.  The
grid itself runs on an alternating binomial series when a conditioning
probe trusts it, and on a coarser grid of the closed form otherwise; it is
the cross-check on the candidates until the closed form replaces it.
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
_SERIES_COND_LIMIT = 1e8  # alternating-sum condition number gate


def _log_sigmoid(s: float) -> float:
    if s >= 0.0:
        return -math.log1p(math.exp(-s))
    return s - math.log1p(math.exp(s))


def beta_kernel_roots(a: float, b: float, log_c: float) -> tuple[float, ...]:
    """All roots of x^a (1-x)^b = c on (0, 1), ascending, given log_c = ln c.

    Solved in log-odds coordinates s = ln(x/(1-x)) so roots close to either
    endpoint keep relative accuracy; bisection brackets each root and a few
    Newton steps polish it.  The kernel is monotone when ab <= 0 (at most
    one root) and single-peaked/single-dipped when ab > 0 (at most two,
    with a tangency collapsing them onto the stationary point a/(a+b)).
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

    def g_prime(s: float) -> float:
        x = cdf(ReferenceDistribution.LOGISTIC, s)
        return a * (1.0 - x) - b * x

    def refine(lo: float, hi: float) -> float:
        glo = g(lo)
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            gm = g(mid)
            if gm == 0.0:
                lo = hi = mid
                break
            if (gm < 0.0) == (glo < 0.0):
                lo, glo = mid, gm
            else:
                hi = mid
        s = 0.5 * (lo + hi)
        for _ in range(3):
            gp = g_prime(s)
            if gp == 0.0:
                break
            step = g(s) / gp
            s_new = s - step
            if not lo <= s_new <= hi:
                break
            s = s_new
        return s

    s_roots: list[float] = []
    if a * b > 0.0:
        s_star = math.log(a / b)  # x* = a/(a+b)
        g_star = g(s_star)
        if abs(g_star) <= _TANGENCY_TOL:
            s_roots.append(s_star)
        else:
            # a,b > 0: interior max, roots need g_star > 0;
            # a,b < 0: interior min, roots need g_star < 0.
            crosses = g_star > 0.0 if a > 0.0 else g_star < 0.0
            if crosses:
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


def _critical_candidates(a: OrderStatSpec, b: OrderStatSpec, solve) -> tuple[float, ...]:
    """Crossings of the beta densities of a and b, ascending, as solve
    (beta_kernel_roots or _kernel_log_odds) returns the kernel's roots."""
    exp_a = a.i - b.i
    exp_b = (a.n - a.i) - (b.n - b.i)
    if exp_a == 0 and exp_b == 0:
        return ()
    log_c = log_beta(a.alpha, a.beta) - log_beta(b.alpha, b.beta)
    return solve(float(exp_a), float(exp_b), log_c)


def _ss_verdict(
    frame: str, a: OrderStatSpec, b: OrderStatSpec, z_points, refuted: str
) -> OrderVerdict:
    """The ss verdict on the smallest Z among the (x, Z(x)) pairs that
    z_points(a, b) lists; the first of equal values is the witness."""
    if a == b:
        return OrderVerdict("ss", VerdictStatus.HOLDS, 0.0, 0.0,
                            f"{frame}: identical specs, Z == 0")
    z_arg, z_min = min(z_points(a, b), key=lambda p: p[1])
    status = VerdictStatus.HOLDS if z_min >= -_HOLDS_TOL else VerdictStatus.UNDETERMINED
    return OrderVerdict(
        "ss", status, z_min, 0.0,
        f"{frame}: inf Z = {z_min:.6e} at x = {z_arg:.9f}"
        + ("" if status is VerdictStatus.HOLDS else f" (negative witness: no ss-dominance {refuted})"),
    )


def check_ss_dda(a: OrderStatSpec, b: OrderStatSpec) -> OrderVerdict:
    """Decide Z >= 0 on [0, 1] for the uniform frame.

    Evaluates Z at the endpoints and at every kernel root, which together
    hold the minimum of Z.  A negative minimum is a genuine refutation of
    B_{i:n} >=_ss B_{j:m} (the criterion is two-sided for the beta
    variables themselves), but the verdict stays in Holds/Undetermined
    vocabulary because for a general DDA parent only the positive direction
    transfers.
    """
    return _ss_verdict("DDA", a, b, _dda_points, "of the beta variables")


def _dda_points(a: OrderStatSpec, b: OrderStatSpec) -> list[tuple[float, float]]:
    xs = (0.0, 1.0, *_critical_candidates(a, b, beta_kernel_roots))
    return [(x, ss_margin_dda(a, b, x)) for x in xs]


# ---------------------------------------------------------------------------
# exponential frame (DHRA)
# ---------------------------------------------------------------------------

def _exp_mean(s: OrderStatSpec) -> float:
    # E[-log(1 - B_{i:n})]; Z(0) in this frame is the difference of two of these
    return expected_transformed_orderstat(ReferenceDistribution.EXPONENTIAL, s)


def _exp_tail_series(s: OrderStatSpec, x: float) -> tuple[float, float]:
    """Alternating binomial closed form of the exponential-frame tail integral
    int_x^inf t (1-e^-t)^(i-1) e^-(n-i+1)t dt / B(i, n-i+1).

    Returns (value, condition number max|term|/|sum|); the caller decides
    whether the cancellation is acceptable.
    """
    i, n = s.i, s.n
    log_pref = -log_beta(s.alpha, s.beta)
    terms = []
    for k in range(i):
        d = n - k
        log_mag = (
            log_pref
            + math.lgamma(i) - math.lgamma(k + 1) - math.lgamma(i - k)
            - d * x
            - 2.0 * math.log(d)
        )
        sign = -1.0 if (i - 1 - k) % 2 else 1.0
        terms.append(sign * math.exp(log_mag) * (d * x + 1.0))
    total = math.fsum(terms)
    worst = max(abs(t) for t in terms)
    cond = worst / max(abs(total), 1e-300)
    return total, cond


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
    in the variable r = 1 - e^-x.  Candidate points are evaluated by the
    positive-term closed form of _exp_partial_mean; the sign grid runs on
    the alternating series where well conditioned, with the most negative
    grid points re-evaluated by the closed form before they can decide a
    verdict.
    """
    return _ss_verdict("DHRA", a, b, _dhra_points, "in the exponential frame")


def _dhra_points(a: OrderStatSpec, b: OrderStatSpec) -> list[tuple[float, float]]:
    # x = -log(1 - r) = log(1 + e^s), finite also where r rounds to 1
    cand_x = [math.log1p(math.exp(s)) for s in _critical_candidates(a, b, _kernel_log_odds)]
    return [
        (0.0, _exp_mean(a) - _exp_mean(b)),
        *((x, ss_margin_dhra(a, b, x)) for x in cand_x),
        # Z -> 0 at infinity; the infimum candidate 0.0 never flips a verdict
        # but keeps the reported minimum honest when Z > 0 on the whole
        # interior.  The grid minimum comes last, so candidates win ties.
        (math.inf, 0.0),
        _dhra_grid_minimum(a, b),
    ]


def _dhra_grid_minimum(a: OrderStatSpec, b: OrderStatSpec) -> tuple[float, float]:
    """(x, Z(x)) at the sign grid's smallest Z."""
    import numpy as np  # here, not at the top: the uniform frame needs no numpy

    # Probe the series conditioning first; badly conditioned pairs, and
    # those whose series terms overflow (n >= about 646), get a coarser
    # closed-form grid instead.
    try:
        probe_cond = max(
            _exp_tail_series(s, x)[1]
            for s in (a, b)
            for x in (0.0, 0.5, 1.0, 2.0)
        )
    except OverflowError:
        probe_cond = math.inf
    if probe_cond < _SERIES_COND_LIMIT / 10.0:
        rs = np.linspace(0.0, 1.0 - 1e-9, _GRID_POINTS)
        xs_all = -np.log1p(-rs)
        zs = np.array([_series_pair(a, b, x) for x in xs_all])
        signs = np.sign(zs)
        flip_idx = np.nonzero(signs[1:] * signs[:-1] < 0)[0]
        if flip_idx.size:
            extra = np.concatenate(
                [np.linspace(xs_all[k], xs_all[k + 1], 12)[1:-1] for k in flip_idx]
            )
            xs_all = np.concatenate([xs_all, extra])
            zs = np.concatenate([zs, [_series_pair(a, b, x) for x in extra]])
        # re-evaluate the most suspicious points by the closed form so
        # series cancellation noise cannot manufacture a negative minimum
        order = np.argsort(zs)
        for k in order[:16]:
            zs[k] = ss_margin_dhra(a, b, float(xs_all[k]))
        k = int(np.argmin(zs))
        return float(xs_all[k]), float(zs[k])
    rs = np.linspace(0.0, 1.0 - 1e-9, 401)
    xs_all = -np.log1p(-rs)
    zs = np.array([ss_margin_dhra(a, b, float(x)) for x in xs_all])
    k = int(np.argmin(zs))
    return float(xs_all[k]), float(zs[k])


def _series_pair(a: OrderStatSpec, b: OrderStatSpec, x: float) -> float:
    return _exp_tail_series(a, x)[0] - _exp_tail_series(b, x)[0]


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
            # plot data for the two straight reference lines of the map
            "boundaries": {
                "first_order_line": [{"i": i, "j": float(i + self.m - self.n)} for i in rows],
                "zero_mean_line": [
                    {"i": i, "j": (self.m + 1.0) / (self.n + 1.0) * i} for i in rows
                ],
            },
        }


def _classify_cells(n: int, m: int, frame: str, band_mean_gap, band_check) -> RegionMap:
    if not 1 <= n <= m:
        raise ValueError(f"region map needs 1 <= n <= m, got n={n} m={m}")
    cells: dict[tuple[int, int], CellClass] = {}
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if i > j:
                cells[(i, j)] = CellClass.HOLDS_SS_IJ
            elif n - i > m - j:
                cells[(i, j)] = CellClass.HOLDS_SS_JI
            elif band_mean_gap(i, j) < 0.0:
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
    return _classify_cells(
        n, m, "DDA",
        lambda i, j: float(i * (m + 1) - j * (n + 1)),
        check_ss_dda,
    )


def region_map_dhra(n: int, m: int) -> RegionMap:
    """Comparability map for the exponential frame.

    Same first-order geometry; the straight mean line is replaced by the
    harmonic-sum difference curve (the x = 0 value of the exponential-frame
    criterion), and the band is settled by check_ss_dhra.
    """
    return _classify_cells(
        n, m, "DHRA",
        lambda i, j: _exp_mean(OrderStatSpec(i, n)) - _exp_mean(OrderStatSpec(j, m)),
        check_ss_dhra,
    )
