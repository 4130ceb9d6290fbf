"""Distribution-free bounds for P(X <= E X_{i:n}) under shape assumptions.

Each non-star shape class pins the parent between itself and its reference
distribution G in a transform order, and the mean comparison that drives the
icv/icx checks turns into a bound on where the order-statistic mean sits in
the parent distribution:

    concave-side classes:  P(X <= E X_{i:n}) <= G(E[G^{-1}(B_{i:n})])
    convex-side classes:   P(X <= E X_{i:n}) >= G(E[G^{-1}(B_{i:n})])

The side is the class's transform kind in the `conditions` catalogue, and
star-shaped classes give no bound.  The right-hand side depends on (i, n)
and the reference only, never on the parent, so a convex/concave pair of
assumptions traps the exceedance probability in an interval; pushing the
interval through an empirical quantile function localises the mean of
X_{i:n} between two data points.  The table of these bounds has the four
rows LL, E, U and E-.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from .conditions import ShapeClass, TransformKind, UnsupportedClassError
from .refdist import (
    OrderStatSpec,
    ReferenceDistribution,
    _transformed_mean,
    expected_transformed_orderstat,
)
from .specfun import _sigmoid

__all__ = [
    "ExceedanceBound",
    "BoundInterval",
    "PlugInInterval",
    "p_value",
    "exceedance_bound",
    "exceedance_interval",
    "bound_table",
    "bound_table_csv",
    "ecdf_plugin_interval",
]

# Which side of P(X <= E X_{i:n}) a class bounds, by its transform kind.
_SIDES = {TransformKind.CONCAVE: "upper", TransformKind.CONVEX: "lower"}


def p_value(dist: ReferenceDistribution, s: OrderStatSpec) -> float:
    """G(E[G^{-1}(B_{i:n})]) for a reference distribution G.

    The two log-logistic references return their exact rationals, which
    stay exact even where the transformed mean diverges (the bound
    degenerates to 1 or 0 there); the other four apply G to the mean:

        uniform             i/(n+1)
        exponential         1 - exp(-sum_{k=n-i+1}^n 1/k)
        log-logistic        i/n
        logistic            sigmoid(H_{i-1} - H_{n-i})
        neg. exponential    exp(-sum_{k=i}^n 1/k)
        neg. log-logistic   (i-1)/n

    The x/(1+x) reference is the one whose transformed mean sits exactly
    on its own i/n quantile: E[G^{-1}(B_{i:n})] = i/(n-i) = G^{-1}(i/n),
    which is what makes the i/n bound tight.
    """
    return _p_value(dist, s.i, s.n, expected_transformed_orderstat(dist, s))


def _p_value(dist: ReferenceDistribution, i: int, n: int, mean: float) -> float:
    # The rows above; mean = E[G^{-1}(B_{i:n})], computed once by the caller
    # and reused.  G(i/(n-i)) in floats misses i/n in the last bit, so the
    # two log-logistic rows read the ranks.
    if dist is ReferenceDistribution.UNIFORM:
        return mean
    if dist is ReferenceDistribution.EXPONENTIAL:
        return -math.expm1(-mean)
    if dist is ReferenceDistribution.LOGISTIC:
        return _sigmoid(mean)
    if dist is ReferenceDistribution.LOG_LOGISTIC_1:
        return i / float(n)
    if dist is ReferenceDistribution.NEG_EXPONENTIAL:
        return math.exp(mean)
    if dist is ReferenceDistribution.NEG_LOG_LOGISTIC_1:
        return (i - 1) / float(n)
    raise AssertionError(dist)


@dataclass(frozen=True, slots=True)
class ExceedanceBound:
    """One-sided distribution-free bound on P(X <= E X_{i:n})."""

    shape: ShapeClass
    spec: OrderStatSpec
    side: str  # "upper" or "lower"
    p: float
    reference: ReferenceDistribution
    transformed_mean: float  # E[G^{-1}(B_{i:n})], may be +-inf


def exceedance_bound(shape: ShapeClass, s: OrderStatSpec) -> ExceedanceBound:
    """Bound P(X <= E X_{i:n}) from one shape assumption.

    Concave-side classes bound from above, convex-side classes from below;
    star-shaped classes are rejected.
    """
    side = _SIDES.get(shape.transform)
    if side is None:
        raise UnsupportedClassError(
            f"{shape.value}: star-shaped classes give no mean-based exceedance bound"
        )
    ref = shape.reference
    mean = expected_transformed_orderstat(ref, s)
    return ExceedanceBound(
        shape=shape,
        spec=s,
        side=side,
        p=_p_value(ref, s.i, s.n, mean),
        reference=ref,
        transformed_mean=mean,
    )


@dataclass(frozen=True, slots=True)
class BoundInterval:
    """Two-sided trap [p_lo, p_hi] for P(X <= E X_{i:n})."""

    lower: ExceedanceBound
    upper: ExceedanceBound
    feasible: bool
    note: str

    @property
    def p_lo(self) -> float:
        return self.lower.p

    @property
    def p_hi(self) -> float:
        return self.upper.p


def exceedance_interval(
    lower_shape: ShapeClass, upper_shape: ShapeClass, s: OrderStatSpec
) -> BoundInterval:
    """Combine a convex-side and a concave-side assumption into an interval.

    An empty interval (p_lo > p_hi) is reported, not raised: it certifies
    that no distribution satisfies both shape assumptions at once in a way
    compatible with this order statistic.
    """
    for shape, kind in ((lower_shape, TransformKind.CONVEX),
                        (upper_shape, TransformKind.CONCAVE)):
        if shape.transform is not kind:
            valid = ", ".join(c.value for c in ShapeClass if c.transform is kind)
            raise UnsupportedClassError(
                f"{shape.value}: {_SIDES[kind]} bound needs a {kind.value}-side class ({valid})"
            )
    lo = exceedance_bound(lower_shape, s)
    hi = exceedance_bound(upper_shape, s)
    feasible = lo.p <= hi.p
    note = ""
    if not feasible:
        note = (
            f"infeasible: lower bound {lo.p:.6g} ({lower_shape.value}) exceeds "
            f"upper bound {hi.p:.6g} ({upper_shape.value}); no parent satisfies "
            "both assumptions for this order statistic"
        )
    return BoundInterval(lower=lo, upper=hi, feasible=feasible, note=note)


# (label, reference) per table row.  The order mirrors the pointwise
# ordering of the bounds: for every i and n, LL >= E >= U >= E- entry by
# entry (each row dominates the next).
_TABLE_ROWS: tuple[tuple[str, ReferenceDistribution], ...] = (
    ("LL", ReferenceDistribution.LOG_LOGISTIC_1),
    ("E", ReferenceDistribution.EXPONENTIAL),
    ("U", ReferenceDistribution.UNIFORM),
    ("E-", ReferenceDistribution.NEG_EXPONENTIAL),
)


def bound_table(n: int) -> list[tuple[str, tuple[float, ...]]]:
    """p_value rows LL, E, U, E- for i = 1..n, labelled for the CSV surface."""
    if not (isinstance(n, int) and n >= 1):
        raise ValueError(f"bound_table needs integer n >= 1, got {n!r}")
    tail = _harmonic_tails(n).__getitem__
    return [
        (
            label,
            tuple(
                _p_value(dist, i, n, _transformed_mean(dist, i, n, tail))
                for i in range(1, n + 1)
            ),
        )
        for label, dist in _TABLE_ROWS
    ]


def _harmonic_tails(n: int) -> list[float]:
    """T with T[lo] = harmonic_sum(lo, n) for lo = 1..n, in O(n) (T[0] unused).

    Every float 1/k with k <= n is an integer multiple of 2^-shift, so one
    downward pass keeps the running tail exactly, as an integer count of
    that unit.  int / int rounds correctly, and harmonic_sum(lo, n) is the
    correctly rounded sum of the same float terms, so each T[lo] equals it
    bit for bit.
    """
    shift = 52 + n.bit_length()
    tails = [0.0] * (n + 1)
    acc = 0
    for k in range(n, 0, -1):
        acc += int(math.ldexp(1.0 / k, shift))
        tails[k] = acc / (1 << shift)
    return tails


def bound_table_csv(n: int) -> str:
    """bound_table(n) as CSV, each value to 3 decimals."""
    header = "G," + ",".join(str(i) for i in range(1, n + 1))
    lines = [header]
    for label, values in bound_table(n):
        lines.append(label + "," + ",".join(f"{v:.3f}" for v in values))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True, slots=True)
class PlugInInterval:
    """Data interval for E X_{i:n} from the empirical quantile function."""

    bound: BoundInterval
    n_data: int
    rank_lo: int
    rank_hi: int
    x_lo: float
    x_hi: float


def _empirical_rank(n_data: int, p: float) -> int:
    # Smallest k with k/N >= p, by the float division that computes a rational
    # p = i/n, so equal ratios compare equal; ceil(N * p) overshoots 100 * 0.07.
    return 1 + bisect.bisect_left(range(1, n_data), p, key=lambda k: k / n_data)


def ecdf_plugin_interval(
    data, lower_shape: ShapeClass, upper_shape: ShapeClass, s: OrderStatSpec
) -> PlugInInterval:
    """Localise E X_{i:n} between two order statistics of a sample.

    Monotonicity of quantile functions turns p_lo <= P(X <= E X_{i:n}) <= p_hi
    into F_n^{-1}(p_lo) <= E X_{i:n} <= F_n^{-1}(p_hi) up to empirical error,
    with F_n^{-1}(p) = x_(k), k the smallest rank with k/N >= p, on a
    sample of size N.
    """
    xs = sorted(float(v) for v in data)
    if not xs:
        raise ValueError("ecdf_plugin_interval needs a nonempty sample")
    if not all(math.isfinite(v) for v in xs):
        raise ValueError("ecdf_plugin_interval needs finite sample values")
    bound = exceedance_interval(lower_shape, upper_shape, s)
    n_data = len(xs)
    rank_lo = _empirical_rank(n_data, bound.p_lo)
    rank_hi = _empirical_rank(n_data, bound.p_hi)
    return PlugInInterval(
        bound=bound,
        n_data=n_data,
        rank_lo=rank_lo,
        rank_hi=rank_hi,
        x_lo=xs[rank_lo - 1],
        x_hi=xs[rank_hi - 1],
    )
