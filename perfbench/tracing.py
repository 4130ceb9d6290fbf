"""Span tracer for the traced (per-layer) run.

The wrappers live here, in the benchmark, not in the package: `install`
replaces every public function of each stochord layer module, in every
stochord module that binds it, with a wrapper that records one span
(name, start, end, parent). Spans stay in flat arrays in memory and are
written out once, at the end of the run. `uninstall` puts the original
functions back, so an untraced run never calls a wrapper.

Besides the package's own functions, three foreign calls are wrapped where
a layer makes them, because that is where the time goes:

    oracle.quad          scipy.integrate.quad as seen from stochord.oracle
    oracle.scipy_stats   scipy.stats beta.pdf / logistic.ppf / logistic.cdf
                         as seen from stochord.oracle
    orderstat.quad       scipy.integrate.quad as bound in stochord.orderstat
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

# The package's layers, bottom up, as named in stochord/__init__.py.
LAYERS = ("specfun", "refdist", "orderstat", "conditions", "ssverify",
          "bounds", "oracle", "cli")


def _holds(result) -> dict:
    return {"holds": 1.0 if result.holds else 0.0}


def _passed(result) -> dict:
    return {"passed": 1.0 if result.passed else 0.0}


def _band_cells(result) -> dict:
    band = sum(1 for c in result.cells.values() if c.value.startswith("NeedsCheck"))
    return {"band_cells": float(band), "cells": float(len(result.cells))}


def _harmonic_terms(args, kwargs) -> dict:
    lo, hi = args if len(args) == 2 else (kwargs["lo"], kwargs["hi"])
    return {"terms": float(hi - lo + 1)}


# Work counts recorded at the layer boundary: from the arguments before the
# call, or from the result after it.
ARG_COUNTS = {"specfun.harmonic_sum": _harmonic_terms}
RESULT_COUNTS = {
    "conditions.check_icv": _holds,
    "conditions.check_icx": _holds,
    "ssverify.check_ss_dda": _holds,
    "ssverify.check_ss_dhra": _holds,
    "ssverify.region_map_dda": _band_cells,
    "ssverify.region_map_dhra": _band_cells,
    "oracle.probe_icv": _passed,
    "oracle.probe_icx": _passed,
    "oracle.probe_ss": _passed,
    "oracle.probe_st": _passed,
}


class Tracer:
    """Records spans in memory; one instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.error = array("b")
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """Return fn wrapped so that each call records one span."""
        nid = self._intern(name)
        arg_count = ARG_COUNTS.get(name)
        result_count = RESULT_COUNTS.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.error.append(0)
            self.end.append(0.0)
            stack.append(idx)
            if arg_count is not None:
                for key, v in arg_count(args, kwargs).items():
                    self.counts[f"{name}.{key}"] += v
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.error[idx] = 1
                raise
            finally:
                self.end[idx] = clock()
                stack.pop()
            if result_count is not None:
                for key, v in result_count(result).items():
                    self.counts[f"{name}.{key}"] += v
            return result

        traced.__perfbench_original__ = fn
        return traced

    def add_spans(self, rows) -> None:
        """Append spans recorded elsewhere (name, start, end, parent, error),
        with parents indexed within `rows`."""
        base = len(self.start)
        for name, start, end, parent, error in rows:
            self.name_id.append(self._intern(name))
            self.start.append(start)
            self.end.append(end)
            self.parent.append(parent + base if parent >= 0 else -1)
            self.error.append(error)

    def rows(self):
        for k in range(len(self.start)):
            yield (self.names[self.name_id[k]], self.start[k], self.end[k],
                   self.parent[k], self.error[k])

    def dump(self, path) -> None:
        """Write every span as CSV (gzip): index,name,start,end,parent,error."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent,error\n")
            for k, (name, start, end, parent, error) in enumerate(self.rows()):
                fh.write(f"{k},{name},{start!r},{end!r},{parent},{error}\n")


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(start, end, parent) -> list[float]:
    """Span duration minus the part of it that its direct children cover.

    Grandchildren are covered by their own parent (a child), so they are not
    subtracted twice; children clipped to the parent's interval.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for k, p in enumerate(parent):
        if p >= 0:
            children[p].append((max(start[k], start[p]), min(end[k], end[p])))
    out = []
    for k in range(len(start)):
        covered = union_length([iv for iv in children.get(k, ()) if iv[1] > iv[0]])
        out.append(end[k] - start[k] - covered)
    return out


def layer_table(tracer: Tracer) -> dict[str, dict[str, float]]:
    """calls, self_s and errors per span name, plus the boundary counts."""
    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0.0, "self_s": 0.0, "errors": 0.0})
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    for k, s in enumerate(selfs):
        row = table[tracer.names[tracer.name_id[k]]]
        row["calls"] += 1
        row["self_s"] += s
        row["errors"] += tracer.error[k]
    for key, v in tracer.counts.items():
        name, _, counter = key.rpartition(".")
        table[name][counter] = table[name].get(counter, 0.0) + v
    return dict(table)


# ---------------------------------------------------------------------------
# installing and removing the wrappers
# ---------------------------------------------------------------------------

class _Proxy:
    """Stands in for a foreign module or object inside one stochord module:
    the listed attributes are replaced, everything else passes through."""

    def __init__(self, target, **replaced) -> None:
        self._target = target
        self.__dict__.update(replaced)

    def __getattr__(self, attr):
        return getattr(self._target, attr)


def _public_functions(mod):
    for attr in mod.__all__:
        fn = getattr(mod, attr)
        if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
            yield attr, fn


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every public function of each layer wherever stochord binds it.

    Returns the undo log that `uninstall` takes.
    """
    modules = {name: importlib.import_module(f"stochord.{name}") for name in LAYERS}
    modules_all = list(modules.values()) + [importlib.import_module("stochord")]
    wrapped: dict[int, object] = {}
    for layer, mod in modules.items():
        for attr, fn in _public_functions(mod):
            wrapped[id(fn)] = tracer.wrap(f"{layer}.{attr}", fn)
    undo: list[tuple[object, str, object]] = []

    def replace(owner, attr, new) -> None:
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for mod in modules_all:
        for attr, value in list(vars(mod).items()):
            if id(value) in wrapped:
                replace(mod, attr, wrapped[id(value)])
            elif isinstance(value, dict):  # dispatch tables such as cli._PROBES
                for key, fn in list(value.items()):
                    if id(fn) in wrapped:
                        undo.append((value, key, fn))
                        value[key] = wrapped[id(fn)]

    oracle = modules["oracle"]
    stats = oracle.stats
    replace(oracle, "integrate", _Proxy(
        oracle.integrate, quad=tracer.wrap("oracle.quad", oracle.integrate.quad)))
    replace(oracle, "stats", _Proxy(
        stats,
        beta=_Proxy(stats.beta, pdf=tracer.wrap("oracle.scipy_stats", stats.beta.pdf)),
        logistic=_Proxy(
            stats.logistic,
            ppf=tracer.wrap("oracle.scipy_stats", stats.logistic.ppf),
            cdf=tracer.wrap("oracle.scipy_stats", stats.logistic.cdf),
        ),
    ))
    orderstat = modules["orderstat"]
    replace(orderstat, "quad", tracer.wrap("orderstat.quad", orderstat.quad))
    return undo


def uninstall(undo) -> None:
    for owner, attr, original in reversed(undo):
        if isinstance(owner, dict):
            owner[attr] = original
        else:
            setattr(owner, attr, original)


def installed_wrappers() -> list[str]:
    """Names of stochord bindings that are currently wrappers (for checks)."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if modname != "stochord" and not modname.startswith("stochord."):
            continue
        for attr, value in vars(mod).items():
            values = value.values() if isinstance(value, dict) else (value,)
            if any(hasattr(v, "__perfbench_original__") or isinstance(v, _Proxy)
                   for v in values):
                found.append(f"{modname}.{attr}")
    return found
