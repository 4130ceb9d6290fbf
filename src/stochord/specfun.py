"""Self-contained special functions for order-statistic calculations.

Everything downstream (moment formulas, comparison conditions, the
star-shaped-order criterion) reduces to three primitives: partial harmonic
sums (the exponential-family means of refdist's table), the log beta
function, and the regularized incomplete beta function.  They are
implemented here without reaching for scipy so the test suite can check
them against an independent library.  A private logistic sigmoid maps the
uniform frame's kernel roots from log-odds and gives the logistic row of
the bound table.
"""

from __future__ import annotations

import math

__all__ = ["harmonic_sum", "log_beta", "reg_inc_beta"]

_LENTZ_TOL = 1e-14
_LENTZ_MAX_ITER = 300
_LENTZ_TINY = 1e-300


def harmonic_sum(lo: int, hi: int) -> float:
    """Sum of 1/k for k = lo..hi inclusive.

    Accumulated from the larger denominator downward with exact (fsum)
    summation, so results are correctly rounded even for hi ~ 1e6.
    """
    if not (isinstance(lo, int) and isinstance(hi, int)):
        raise ValueError("harmonic_sum expects integer bounds")
    if lo < 1 or hi < lo:
        raise ValueError(f"harmonic_sum needs 1 <= lo <= hi, got lo={lo} hi={hi}")
    return math.fsum(1.0 / k for k in range(hi, lo - 1, -1))


def _sigmoid(x: float) -> float:
    # 1/(1+e^-x), written to avoid overflow on both tails
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def log_beta(a: float, b: float) -> float:
    """ln B(a, b) via log-gamma."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"log_beta needs positive arguments, got a={a} b={b}")
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b).

    Continued-fraction (modified Lentz) evaluation with a symmetry switch at
    x > a/(a+b); converges to 1e-14 well inside the 300-iteration cap for
    the parameter ranges used here (a, b up to a few hundred).
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"reg_inc_beta needs positive shape parameters, got a={a} b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"reg_inc_beta needs x in [0, 1], got x={x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    if x > a / (a + b):
        return 1.0 - reg_inc_beta(1.0 - x, b, a)
    log_prefactor = a * math.log(x) + b * math.log1p(-x) - log_beta(a, b)
    return math.exp(log_prefactor) * _beta_contfrac(x, a, b) / a


def _beta_contfrac(x: float, a: float, b: float) -> float:
    # Modified Lentz evaluation of the standard continued fraction for
    # I_x(a,b); caller guarantees x is on the fast-converging side.
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _LENTZ_TINY:
        d = _LENTZ_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _LENTZ_MAX_ITER + 1):
        m2 = 2 * m
        # even step
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _LENTZ_TINY:
            d = _LENTZ_TINY
        c = 1.0 + aa / c
        if abs(c) < _LENTZ_TINY:
            c = _LENTZ_TINY
        d = 1.0 / d
        h *= d * c
        # odd step
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _LENTZ_TINY:
            d = _LENTZ_TINY
        c = 1.0 + aa / c
        if abs(c) < _LENTZ_TINY:
            c = _LENTZ_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _LENTZ_TOL:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction did not converge for x={x} a={a} b={b}"
    )
