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

taken at r = 1 - e^-x in the exponential frame.  The minimum of Z is
therefore attained at an endpoint or at a kernel root, and the uniform
frame decides its verdict from those few points alone.  The solver takes
the constant as its logarithm, a difference of log-betas, which stays
finite where the ratio itself overflows or underflows.

The exponential frame still pairs its roots with a sign grid.  There Z
comes from an alternating binomial series, trusted only below an estimated
condition number, with adaptive quadrature as its fallback; the grid is the
cross-check on those evaluations until a closed form with positive terms
only replaces the series.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .conditions import OrderVerdict, VerdictStatus
from .refdist import OrderStatSpec, ReferenceDistribution, cdf, expected_transformed_orderstat
from .specfun import log_beta, reg_inc_beta

__all__ = [
    "RootSet",
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


@dataclass(frozen=True, slots=True)
class RootSet:
    """Solutions of x^a (1-x)^b = e^log_c in (0, 1), with solver diagnostics."""

    a: float
    b: float
    log_c: float
    regime: str                      # "monotone" (ab <= 0) or "unimodal" (ab > 0)
    roots: tuple[float, ...]         # ascending
    stationary_point: float | None   # a/(a+b) when ab > 0
    log_residuals: tuple[float, ...] # a ln r + b ln(1-r) - log_c at each root


def beta_kernel_roots(a: float, b: float, log_c: float) -> RootSet:
    """All roots of x^a (1-x)^b = c on (0, 1), given log_c = ln c.

    Solved in log-odds coordinates s = ln(x/(1-x)) so roots close to either
    endpoint keep relative accuracy; bisection brackets each root and a few
    Newton steps polish it.  The kernel is monotone when ab <= 0 (at most
    one root) and single-peaked/single-dipped when ab > 0 (at most two,
    with a tangency collapsing them onto the stationary point a/(a+b)).
    """
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
    stationary: float | None = None
    if a * b > 0.0:
        regime = "unimodal"
        s_star = math.log(a / b)  # x* = a/(a+b)
        stationary = a / (a + b)
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
    else:
        regime = "monotone"
        if g(-_S_BOUND) * g(_S_BOUND) < 0.0:
            s_roots.append(refine(-_S_BOUND, _S_BOUND))

    s_roots.sort()  # the logistic cdf is increasing: x-order matches s-order
    roots = tuple(cdf(ReferenceDistribution.LOGISTIC, s) for s in s_roots)
    # residuals evaluated in log-odds coordinates: log1p(-x) at an x rounded
    # to double loses ~|b| * eps / (1-x), which swamps the true residual for
    # roots pinned against an endpoint
    residuals = tuple(g(s) for s in s_roots)
    return RootSet(a=a, b=b, log_c=log_c, regime=regime, roots=roots,
                   stationary_point=stationary, log_residuals=residuals)


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
    """Crossings of the beta densities of a and b in (0, 1), ascending."""
    exp_a = a.i - b.i
    exp_b = (a.n - a.i) - (b.n - b.i)
    if exp_a == 0 and exp_b == 0:
        return ()
    log_c = log_beta(a.alpha, a.beta) - log_beta(b.alpha, b.beta)
    return beta_kernel_roots(float(exp_a), float(exp_b), log_c).roots


def check_ss_dda(a: OrderStatSpec, b: OrderStatSpec) -> OrderVerdict:
    """Decide Z >= 0 on [0, 1] for the uniform frame.

    Evaluates Z at the endpoints and at every kernel root, which together
    hold the minimum of Z.  A negative minimum is a genuine refutation of
    B_{i:n} >=_ss B_{j:m} (the criterion is two-sided for the beta
    variables themselves), but the verdict stays in Holds/Undetermined
    vocabulary because for a general DDA parent only the positive direction
    transfers.
    """
    if a == b:
        return OrderVerdict("ss", VerdictStatus.HOLDS, 0.0, 0.0,
                            "DDA: identical specs, Z == 0")
    candidates = [0.0, 1.0, *_critical_candidates(a, b)]
    vals = [ss_margin_dda(a, b, x) for x in candidates]
    z_min = min(vals)
    z_arg = candidates[vals.index(z_min)]
    status = VerdictStatus.HOLDS if z_min >= -_HOLDS_TOL else VerdictStatus.UNDETERMINED
    return OrderVerdict(
        "ss", status, z_min, 0.0,
        f"DDA: inf Z = {z_min:.6e} at x = {z_arg:.9f}"
        + ("" if status is VerdictStatus.HOLDS else " (negative witness: no ss-dominance of the beta variables)"),
    )


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


def _exp_tail_quad(s: OrderStatSpec, x: float) -> float:
    # imported here, not at the top: orderstat loads scipy's quadrature,
    # which only this fallback needs
    from .orderstat import TransformedOrderStat, upper_partial_mean

    return upper_partial_mean(
        TransformedOrderStat(ReferenceDistribution.EXPONENTIAL, s), x
    )


def ss_margin_dhra(
    a: OrderStatSpec, b: OrderStatSpec, x: float, *, method: str = "auto"
) -> float:
    """Z(x) for the exponential frame: difference of the two tail integrals.

    method="auto" uses the closed form when its condition number stays below
    1e8 and falls back to adaptive quadrature otherwise; "series" and "quad"
    force one path (used by the agreement tests).
    """
    if x < 0.0:
        raise ValueError(f"ss_margin_dhra needs x >= 0, got {x}")
    if method not in ("auto", "series", "quad"):
        raise ValueError(f"unknown method {method!r}")
    if method == "quad":
        return _exp_tail_quad(a, x) - _exp_tail_quad(b, x)
    va, ca = _exp_tail_series(a, x)
    vb, cb = _exp_tail_series(b, x)
    if method == "series":
        return va - vb
    if max(ca, cb) >= _SERIES_COND_LIMIT:
        return _exp_tail_quad(a, x) - _exp_tail_quad(b, x)
    return va - vb


def check_ss_dhra(a: OrderStatSpec, b: OrderStatSpec) -> OrderVerdict:
    """Decide Z >= 0 on [0, inf) for the exponential frame.

    Critical points satisfy the same kernel equation as the uniform frame,
    in the variable r = 1 - e^-x.  Candidate points are evaluated by
    quadrature (authoritative at the 1e-12 verdict tolerance); the sign grid
    runs on the closed form where well conditioned, with the most negative
    grid points re-verified by quadrature before they can decide a verdict.
    """
    if a == b:
        return OrderVerdict("ss", VerdictStatus.HOLDS, 0.0, 0.0,
                            "DHRA: identical specs, Z == 0")
    z0 = _exp_mean(a) - _exp_mean(b)
    cand_x = [-math.log1p(-r) for r in _critical_candidates(a, b)]
    cand_vals = [z0] + [ss_margin_dhra(a, b, x, method="quad") for x in cand_x]
    cand_pts = [0.0] + cand_x
    # Z -> 0 at infinity; the infimum candidate 0.0 never flips a verdict but
    # keeps the reported minimum honest when Z > 0 on the whole interior.
    cand_vals.append(0.0)
    cand_pts.append(math.inf)
    cand_min = min(cand_vals)
    cand_arg = cand_pts[cand_vals.index(cand_min)]

    grid_min, grid_arg = _dhra_grid_minimum(a, b)
    z_min, z_arg = (cand_min, cand_arg) if cand_min <= grid_min else (grid_min, grid_arg)
    status = VerdictStatus.HOLDS if z_min >= -_HOLDS_TOL else VerdictStatus.UNDETERMINED
    return OrderVerdict(
        "ss", status, z_min, 0.0,
        f"DHRA: inf Z = {z_min:.6e} at x = {z_arg:.9f}"
        + ("" if status is VerdictStatus.HOLDS else " (negative witness: no ss-dominance in the exponential frame)"),
    )


def _dhra_grid_minimum(a: OrderStatSpec, b: OrderStatSpec) -> tuple[float, float]:
    import numpy as np  # here, not at the top: the uniform frame needs no numpy

    # Probe the series conditioning first; badly conditioned pairs get a
    # coarser all-quadrature grid instead.
    probe_cond = max(
        _exp_tail_series(s, x)[1]
        for s in (a, b)
        for x in (0.0, 0.5, 1.0, 2.0)
    )
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
        # re-verify the most suspicious points by quadrature so series
        # cancellation noise cannot manufacture a negative minimum
        order = np.argsort(zs)
        for k in order[:16]:
            zs[k] = ss_margin_dhra(a, b, float(xs_all[k]), method="quad")
        k = int(np.argmin(zs))
        return float(zs[k]), float(xs_all[k])
    rs = np.linspace(0.0, 1.0 - 1e-9, 401)
    xs_all = -np.log1p(-rs)
    zs = np.array([ss_margin_dhra(a, b, float(x), method="quad") for x in xs_all])
    k = int(np.argmin(zs))
    return float(zs[k]), float(xs_all[k])


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

    def boundary_series(self) -> dict[str, list[tuple[int, float]]]:
        """Plot data for the two straight reference lines of the map."""
        return {
            "first_order_line": [(i, float(i + self.m - self.n)) for i in range(1, self.n + 1)],
            "zero_mean_line": [
                (i, (self.m + 1.0) / (self.n + 1.0) * i) for i in range(1, self.n + 1)
            ],
        }

    def to_json_obj(self) -> dict:
        return {
            "frame": self.frame,
            "n": self.n,
            "m": self.m,
            "cells": [
                {"i": i, "j": j, "class": self.cells[(i, j)].value}
                for i in range(1, self.n + 1)
                for j in range(1, self.m + 1)
            ],
            "boundaries": {
                name: [{"i": i, "j": j} for (i, j) in pts]
                for name, pts in self.boundary_series().items()
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
