"""Stochastic orderings of order statistics under shape assumptions.

The package decides increasing concave (icv), increasing convex (icx), and
star-shaped (ss) comparisons between order statistics X_{i:n} and X_{j:m}
whose common parent is known only through a nonparametric shape class, and
turns the same machinery into distribution-free bounds for where an
order-statistic mean sits inside the parent distribution.

Layering, bottom up:

    specfun     harmonic sums, log-beta, regularised incomplete beta
    refdist     the six reference distributions, the beta spec (i, n) and
                the one table of transformed means E[G^{-1}(B_{i:n})]
    orderstat   the law G^{-1}(B_{i:n}) that the oracle probes take
    conditions  icv/icx checks: rank precondition, then two table means
    ssverify    the star-shaped criterion, private kernel solver, region maps
    bounds      exceedance bounds and the empirical plug-in interval
    oracle      scipy-only quadrature probes, deliberately independent
    cli         the `stochord` command

Importing the package loads none of these.  Each public name below is
resolved on first use from the submodule that defines it (PEP 562), so a
caller pays only for the layers it touches: specfun, refdist, conditions,
bounds and ssverify need nothing but the standard library, and only
orderstat and oracle load numpy or scipy.  The table lists each submodule's
``__all__`` exactly, no more and no less.
"""

import importlib

__version__ = "0.1.0"

# Defining submodule -> the public names it contributes to the package.
_EXPORTS = {
    "refdist": (
        "ReferenceDistribution",
        "OrderStatSpec",
        "expected_transformed_orderstat",
    ),
    "orderstat": ("TransformedOrderStat",),
    "conditions": (
        "ShapeClass",
        "TransformKind",
        "VerdictStatus",
        "OrderVerdict",
        "UnsupportedClassError",
        "BoundaryCaseError",
        "check_icv",
        "check_icx",
    ),
    "ssverify": (
        "CellClass",
        "RegionMap",
        "ss_margin_dda",
        "ss_margin_dhra",
        "check_ss_dda",
        "check_ss_dhra",
        "region_map_dda",
        "region_map_dhra",
    ),
    "bounds": (
        "ExceedanceBound",
        "BoundInterval",
        "PlugInInterval",
        "p_value",
        "exceedance_bound",
        "exceedance_interval",
        "bound_table",
        "bound_table_csv",
        "ecdf_plugin_interval",
    ),
    "oracle": ("OrderProbe", "probe_st", "probe_ss", "probe_icv", "probe_icx"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({"specfun", *_EXPORTS, "cli"})

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    # Not cached in the package namespace: each lookup reads the submodule's
    # current binding, so a function replaced there is seen here too.
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
