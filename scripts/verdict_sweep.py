#!/usr/bin/env python3
"""Record the star-shaped verdicts of fixed pair sets, for parity checks.

For every pair it records, in both frames, the verdict's status, its detail
string (inf Z and the witness x) and inf Z as a float hex, so that two
checkouts can be compared byte for byte.  The pairs are

- "small": 330 distinct pairs with n, m <= 12, drawn from random.Random(15);
- "large": 60 distinct pairs whose larger sample size lies in 21..1000,
  drawn from random.Random(1515);
- "fixed": six pairs that earlier changes singled out.

It writes OUT_DIR/verdicts.json, the DHRA region maps 3x4, 3x5, 4x5, 4x6,
5x6 and 6x7 as OUT_DIR/dhra_<n>x<m>.csv and the DDA region maps 20x30, 26x39
and 50x80 as OUT_DIR/dda_<n>x<m>.csv, each map also as the JSON object of
`region --json` (cells and both boundary lines) in OUT_DIR/<frame>_<n>x<m>.json,
so that the mean lines are compared too.  It also writes the "exhaustive"
set, OUT_DIR/exhaustive.json: all 6,006 ordered pairs of different (i, n)
and (j, m) with n, m <= 12, each with its DDA verdict as above and the
kernel roots that both frames take as candidates, as log-odds in float hex.
That set runs no DHRA sign grid, so it takes seconds.

OUT_DIR/bounds.json covers the bounds layer: the rows of bound_table(n) for
n in BOUND_TABLE_SIZES, p_value for all six references at every (i, n) with
n <= 60, and the fields of ecdf_plugin_interval on the carbon-fibers sample
for every spec in PLUG_IN_SPECS and every convex-side/concave-side class
pair, each float as a float hex.  The script needs only the standard library
and the stochord package of the checkout under test:

    PYTHONPATH=src python3 scripts/verdict_sweep.py OUT_DIR
    diff -r OUT_DIR OTHER_OUT_DIR
"""

import argparse
import json
import pathlib
import random

from stochord.bounds import bound_table, ecdf_plugin_interval, p_value
from stochord.conditions import ShapeClass, TransformKind
from stochord.refdist import OrderStatSpec, ReferenceDistribution
from stochord.ssverify import (
    _critical_candidates,
    check_ss_dda,
    check_ss_dhra,
    region_map_dda,
    region_map_dhra,
)

FIXED = [((500, 1000), (300, 700)), ((91, 651), (169, 302)), ((2, 138), (197, 338)),
         ((4, 385), (7, 12)), ((2, 33), (5, 39)), ((2, 585), (1, 7))]
REGION_MAPS = {
    "dhra": (region_map_dhra, [(3, 4), (3, 5), (4, 5), (4, 6), (5, 6), (6, 7)]),
    "dda": (region_map_dda, [(20, 30), (26, 39), (50, 80)]),
}

BOUND_TABLE_SIZES = (1, 2, 10, 399, 997, 3000)
PLUG_IN_SPECS = [(1, 1), (1, 10), (3, 7), (5, 10), (9, 10), (10, 10), (7, 100), (20, 100),
                 (100, 100)]
CARBON = pathlib.Path(__file__).resolve().parent.parent / "tests" / "data" / "carbon_fibers.csv"


def _draw_pairs(seed: int, count: int, sizes) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """count distinct pairs of different (i, n), with (n, m) from sizes(rng)."""
    rng = random.Random(seed)
    pairs: list[tuple[tuple[int, int], tuple[int, int]]] = []
    while len(pairs) < count:
        n, m = sizes(rng)
        pair = ((rng.randint(1, n), n), (rng.randint(1, m), m))
        if pair[0] != pair[1] and pair not in pairs:
            pairs.append(pair)
    return pairs


def _small_sizes(rng: random.Random) -> tuple[int, int]:
    return rng.randint(1, 12), rng.randint(1, 12)


def _large_sizes(rng: random.Random) -> tuple[int, int]:
    top = rng.randint(21, 1000)
    other = rng.randint(1, top)
    return (top, other) if rng.random() < 0.5 else (other, top)


def _verdict(check, a: tuple[int, int], b: tuple[int, int]) -> dict:
    verdict = check(OrderStatSpec(*a), OrderStatSpec(*b))
    return {"status": verdict.status.value, "detail": verdict.condition_name,
            "inf_z": verdict.lhs_witness.hex()}


def _record(a: tuple[int, int], b: tuple[int, int]) -> dict:
    return {"a": list(a), "b": list(b),
            "DDA": _verdict(check_ss_dda, a, b), "DHRA": _verdict(check_ss_dhra, a, b)}


def _exhaustive() -> list[dict]:
    specs = [(i, n) for n in range(1, 13) for i in range(1, n + 1)]
    return [
        {"a": list(a), "b": list(b), "DDA": _verdict(check_ss_dda, a, b),
         "candidates": [s.hex() for s in _critical_candidates(OrderStatSpec(*a),
                                                               OrderStatSpec(*b))]}
        for a in specs for b in specs if a != b
    ]


def _plug_in(data: list[float], spec: tuple[int, int], lower: ShapeClass,
             upper: ShapeClass) -> dict:
    r = ecdf_plugin_interval(data, lower, upper, OrderStatSpec(*spec))
    b = r.bound
    return {"spec": list(spec), "lower": lower.value, "upper": upper.value,
            "p_lo": b.p_lo.hex(), "p_hi": b.p_hi.hex(),
            "mean_lo": b.lower.transformed_mean.hex(), "mean_hi": b.upper.transformed_mean.hex(),
            "rank_lo": r.rank_lo, "rank_hi": r.rank_hi, "x_lo": r.x_lo.hex(), "x_hi": r.x_hi.hex(),
            "n_data": r.n_data, "feasible": b.feasible, "note": b.note}


def _bounds() -> dict:
    lines = CARBON.read_text(encoding="utf-8").split()
    data = [float(v) for v in lines[1:]]  # below a one-line header
    lowers, uppers = ([c for c in ShapeClass if c.transform is kind]
                      for kind in (TransformKind.CONVEX, TransformKind.CONCAVE))
    return {
        "bound_table": {str(n): {label: [v.hex() for v in row] for label, row in bound_table(n)}
                        for n in BOUND_TABLE_SIZES},
        "p_value": {dist.value: [[p_value(dist, OrderStatSpec(i, n)).hex()
                                  for i in range(1, n + 1)] for n in range(1, 61)]
                    for dist in ReferenceDistribution},
        "plug_in": [_plug_in(data, spec, lo, hi)
                    for spec in PLUG_IN_SPECS for lo in lowers for hi in uppers],
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out_dir", type=pathlib.Path)
    out = ap.parse_args().out_dir
    out.mkdir(parents=True, exist_ok=True)
    sets = {
        "small": _draw_pairs(15, 330, _small_sizes),
        "large": _draw_pairs(1515, 60, _large_sizes),
        "fixed": FIXED,
    }
    verdicts = {name: [_record(a, b) for a, b in pairs] for name, pairs in sets.items()}
    (out / "verdicts.json").write_text(json.dumps(verdicts, indent=1) + "\n", encoding="utf-8")
    (out / "bounds.json").write_text(json.dumps(_bounds(), indent=1) + "\n", encoding="utf-8")
    (out / "exhaustive.json").write_text(json.dumps(_exhaustive(), indent=1) + "\n",
                                         encoding="utf-8")
    for frame, (build, sizes) in REGION_MAPS.items():
        for n, m in sizes:
            rmap = build(n, m)
            (out / f"{frame}_{n}x{m}.csv").write_text(rmap.to_csv(), encoding="utf-8")
            (out / f"{frame}_{n}x{m}.json").write_text(
                json.dumps(rmap.to_json_obj(), indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
