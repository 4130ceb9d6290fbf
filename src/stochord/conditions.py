"""Closed-form sufficient conditions for ordering two order statistics.

Each nonparametric shape class (decreasing density, increasing hazard rate,
and so on) is generated by one reference distribution through a convex,
concave, or star-shaped transform.  When the parent distribution lies in
such a class, ordering X_{i:n} against X_{j:m} in the increasing concave
(icv) or increasing convex (icx) sense reduces to comparing two explicit
numbers: the means of the reference-transformed beta order statistics.

The checkers return Holds or Undetermined, never a refutation: these are
one-sided sufficient conditions.  Witness values (both sides of the
decisive inequality) ride along in the verdict for reporting.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass

from .refdist import OrderStatSpec, ReferenceDistribution, expected_transformed_orderstat

__all__ = [
    "ShapeClass",
    "TransformKind",
    "VerdictStatus",
    "OrderVerdict",
    "UnsupportedClassError",
    "BoundaryCaseError",
    "check_icv",
    "check_icx",
]


class UnsupportedClassError(ValueError):
    """A checker was asked about a shape class outside its catalogue."""


class BoundaryCaseError(ValueError):
    """The closed-form condition is undefined at these ranks."""


class TransformKind(enum.Enum):
    CONVEX = "convex"
    CONCAVE = "concave"
    STAR_SHAPED = "star-shaped"


class ShapeClass(enum.Enum):
    """Nonparametric shape classes, each tied to (transform kind, reference G)."""

    DD = "DD"        # decreasing density
    ID = "ID"        # increasing density
    DDA = "DDA"      # decreasing density on average (F(x)/x decreasing)
    IHR = "IHR"      # increasing hazard rate
    DHR = "DHR"      # decreasing hazard rate
    DHRA = "DHRA"    # decreasing hazard rate on average
    DRHR = "DRHR"    # decreasing reversed hazard rate
    IOR = "IOR"      # increasing odds rate
    DOR = "DOR"      # decreasing odds rate
    ILOR = "ILOR"    # increasing log-odds rate
    DLOR = "DLOR"    # decreasing log-odds rate
    DROR = "DROR"    # decreasing reversed odds rate

    @property
    def transform(self) -> TransformKind:
        return _CATALOG[self][0]

    @property
    def reference(self) -> ReferenceDistribution:
        return _CATALOG[self][1]


_R = ReferenceDistribution
_CATALOG: dict[ShapeClass, tuple[TransformKind, ReferenceDistribution]] = {
    ShapeClass.DD: (TransformKind.CONVEX, _R.UNIFORM),
    ShapeClass.ID: (TransformKind.CONCAVE, _R.UNIFORM),
    ShapeClass.DDA: (TransformKind.STAR_SHAPED, _R.UNIFORM),
    ShapeClass.IHR: (TransformKind.CONCAVE, _R.EXPONENTIAL),
    ShapeClass.DHR: (TransformKind.CONVEX, _R.EXPONENTIAL),
    ShapeClass.DHRA: (TransformKind.STAR_SHAPED, _R.EXPONENTIAL),
    ShapeClass.DRHR: (TransformKind.CONVEX, _R.NEG_EXPONENTIAL),
    ShapeClass.IOR: (TransformKind.CONCAVE, _R.LOG_LOGISTIC_1),
    ShapeClass.DOR: (TransformKind.CONVEX, _R.LOG_LOGISTIC_1),
    ShapeClass.ILOR: (TransformKind.CONCAVE, _R.LOGISTIC),
    ShapeClass.DLOR: (TransformKind.CONVEX, _R.LOGISTIC),
    ShapeClass.DROR: (TransformKind.CONVEX, _R.NEG_LOG_LOGISTIC_1),
}


class VerdictStatus(enum.Enum):
    HOLDS = "holds"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True, slots=True)
class OrderVerdict:
    order: str
    status: VerdictStatus
    lhs_witness: float
    rhs_witness: float
    condition_name: str

    @property
    def holds(self) -> bool:
        return self.status is VerdictStatus.HOLDS


# Per reference, the witness a verdict prints for a spec (from its mean) and
# the condition it names: the negative references print the positive sum or
# ratio, log-logistic the exact i/n, which orders specs as i/(n-i) does.
_PRINTED = {
    _R.UNIFORM: (lambda mean, s: mean, "i/(n+1) vs j/(m+1)"),
    _R.EXPONENTIAL: (lambda mean, s: mean, "sum 1/k over n-i+1..n vs m-j+1..m"),
    _R.LOGISTIC: (lambda mean, s: mean, "psi(i)-psi(n-i+1) vs psi(j)-psi(m-j+1)"),
    _R.NEG_EXPONENTIAL: (lambda mean, s: -mean, "sum 1/k over i..n vs j..m"),
    _R.NEG_LOG_LOGISTIC_1: (lambda mean, s: -mean, "(n-i+1)/(i-1) vs (m-j+1)/(j-1)"),
    _R.LOG_LOGISTIC_1: (lambda mean, s: s.i / s.n, "i/n vs j/m"),
}


# Transform kind of the classes each order accepts, and its rank precondition.
_SIDES = {
    "icv": (TransformKind.CONCAVE, "i >= j", operator.ge),
    "icx": (TransformKind.CONVEX, "i <= j", operator.le),
}


def _check(order: str, shape: ShapeClass, a: OrderStatSpec, b: OrderStatSpec) -> OrderVerdict:
    kind, rank_rule, rank_ok = _SIDES[order]
    if shape.transform is not kind:
        raise UnsupportedClassError(
            f"{shape.value} is not an {order}-side ({kind.value}-transform) class"
        )
    mean_a = expected_transformed_orderstat(shape.reference, a)
    mean_b = expected_transformed_orderstat(shape.reference, b)
    if -math.inf in (mean_a, mean_b):
        # Only DROR at rank 1; check_icx says why this is not compared.
        raise BoundaryCaseError(
            "DROR condition compares (n-i+1)/(i-1) against (m-j+1)/(j-1), "
            "which diverges at rank 1; use the quadrature probe instead"
        )
    witness, name = _PRINTED[shape.reference]
    lhs, rhs = witness(mean_a, a), witness(mean_b, b)
    if not rank_ok(a.i, b.i):
        return OrderVerdict(order, VerdictStatus.UNDETERMINED, lhs, rhs, f"rank precondition {rank_rule} failed; {name}")
    status = VerdictStatus.HOLDS if mean_a >= mean_b else VerdictStatus.UNDETERMINED
    return OrderVerdict(order, status, lhs, rhs, f"{shape.value}: {name}")


def check_icv(shape: ShapeClass, a: OrderStatSpec, b: OrderStatSpec) -> OrderVerdict:
    """Sufficient condition for X_{i:n} >=_icv X_{j:m} under a concave-class parent.

    Needs rank dominance i >= j plus E[G^{-1}(B_{i:n})] >= E[G^{-1}(B_{j:m})]
    for the class's reference G; either failing yields Undetermined (the
    condition is one-sided, not a disproof).
    """
    return _check("icv", shape, a, b)


def check_icx(shape: ShapeClass, a: OrderStatSpec, b: OrderStatSpec) -> OrderVerdict:
    """Sufficient condition for X_{i:n} >=_icx X_{j:m} under a convex-class parent.

    Needs i <= j plus E[G^{-1}(B_{i:n})] >= E[G^{-1}(B_{j:m})], in every
    class.  DRHR and DROR print the positive sums or ratios -mean, so there
    a Holds has lhs <= rhs.  DROR at rank 1 raises BoundaryCaseError: its
    mean is -inf, and for i = j = 1, n > m, -inf >= -inf would read Holds
    although X_{1:n} <=_st X_{1:m}.
    """
    return _check("icx", shape, a, b)
