"""End-to-end acceptance checks.

Run with `pytest tests/test_acceptance.py -s` to see one ACCEPT-n PASS/FAIL
line per criterion.  Every check compares package output against either an
embedded expected value or an independent scipy quadrature route; nothing
here reuses the package's own integration helpers as its referee.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate, special, stats

from stochord.bounds import bound_table_csv, exceedance_interval, p_value
from stochord.cli import main as cli_main
from stochord.conditions import (
    BoundaryCaseError,
    ShapeClass,
    TransformKind,
    check_icv,
    check_icx,
)
from stochord.orderstat import TransformedOrderStat
from stochord.oracle import probe_icv, probe_icx, probe_ss
from stochord.refdist import (
    OrderStatSpec,
    ReferenceDistribution,
    expected_transformed_orderstat,
)
from stochord.specfun import harmonic_sum, reg_inc_beta
from stochord.ssverify import (
    CellClass,
    beta_kernel_roots,
    check_ss_dda,
    check_ss_dhra,
    region_map_dda,
)

S, R, C = OrderStatSpec, ReferenceDistribution, ShapeClass


def _report(num: int, ok: bool, detail: str = "") -> None:
    line = f"ACCEPT-{num} {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# -- 1: the n = 10 bound table, every entry at three decimals ---------------

_TABLE_N10 = {
    "LL": "0.100,0.200,0.300,0.400,0.500,0.600,0.700,0.800,0.900,1.000",
    "E": "0.095,0.190,0.285,0.381,0.476,0.571,0.666,0.760,0.855,0.947",
    "U": "0.091,0.182,0.273,0.364,0.455,0.545,0.636,0.727,0.818,0.909",
    "E-": "0.053,0.145,0.240,0.334,0.429,0.524,0.619,0.715,0.810,0.905",
}


def test_accept_1_bound_table():
    t0 = time.perf_counter()
    text = bound_table_csv(10)
    elapsed = time.perf_counter() - t0
    rows = {}
    lines = text.strip().splitlines()
    for line in lines[1:]:
        label, _, rest = line.partition(",")
        rows[label] = rest
    mismatches = [
        label for label, want in _TABLE_N10.items() if rows.get(label) != want
    ]
    ok = not mismatches and len(rows) == 4 and elapsed < 1.0
    _report(1, ok, f"40 entries, {elapsed * 1e3:.0f} ms"
            + (f", mismatched rows: {mismatches}" if mismatches else ""))


# -- 2: worked two-sided intervals at (3, 10) --------------------------------


def test_accept_2_worked_intervals():
    iv1 = exceedance_interval(C.DD, C.IHR, S(3, 10))
    iv2 = exceedance_interval(C.DRHR, C.IOR, S(3, 10))
    got = (
        f"{iv1.p_lo:.3f}", f"{iv1.p_hi:.3f}",
        f"{iv2.p_lo:.3f}", f"{iv2.p_hi:.3f}",
    )
    want = ("0.273", "0.285", "0.240", "0.300")
    _report(2, got == want and iv1.feasible and iv2.feasible,
            f"DD+IHR [{got[0]}, {got[1]}], DRHR+IOR [{got[2]}, {got[3]}]")


# -- 3: closed moment of the x/(1+x) reference vs quadrature ----------------


def test_accept_3_ll1_moments_match_quadrature():
    worst = 0.0
    for n in range(2, 31):
        for i in range(1, n):
            # E[u/(1-u)] under beta(i, n-i+1) reduces to a polynomial integrand
            val, _ = integrate.quad(
                lambda u, i=i, n=n: u**i * (1.0 - u) ** (n - i - 1), 0.0, 1.0
            )
            mean = val / special.beta(i, n - i + 1)
            closed = expected_transformed_orderstat(R.LOG_LOGISTIC_1, S(i, n))
            worst = max(worst, abs(mean - closed))
    _report(3, worst <= 1e-8, f"max |quad - closed| = {worst:.3e} over n <= 30")


# -- 4: every random Holds verdict survives an independent probe ------------


def _probe_for(shape: ShapeClass, a: S, b: S):
    w = lambda s: TransformedOrderStat(shape.reference, s)
    if shape.transform is TransformKind.CONCAVE:
        return probe_icv(w(a), w(b), grid_size=21)
    if shape.transform is TransformKind.CONVEX:
        # the probe's <=icx convention puts the dominated spec first
        return probe_icx(w(b), w(a), grid_size=21)
    return probe_ss(w(a), w(b), grid_size=21)


def test_accept_4_random_verdicts_vs_quadrature():
    rng = np.random.default_rng(20260819)
    shapes = list(ShapeClass)
    t0 = time.perf_counter()
    verified = 0
    attempts = 0
    contradictions = []
    while verified < 200 and attempts < 20_000:
        attempts += 1
        shape = shapes[int(rng.integers(len(shapes)))]
        n = int(rng.integers(1, 13))
        m = int(rng.integers(1, 13))
        a = S(int(rng.integers(1, n + 1)), n)
        b = S(int(rng.integers(1, m + 1)), m)
        try:
            if shape.transform is TransformKind.CONCAVE:
                verdict = check_icv(shape, a, b)
            elif shape.transform is TransformKind.CONVEX:
                verdict = check_icx(shape, a, b)
            elif shape is C.DDA:
                verdict = check_ss_dda(a, b)
            else:
                verdict = check_ss_dhra(a, b)
        except BoundaryCaseError:
            continue
        if not verdict.holds:
            continue
        probe = _probe_for(shape, a, b)
        if not probe.passed or probe.worst_margin < -1e-9:
            contradictions.append((shape.value, a, b, probe.worst_margin))
        verified += 1
    elapsed = time.perf_counter() - t0
    ok = verified >= 200 and not contradictions and elapsed < 120.0
    _report(4, ok,
            f"{verified} Holds verdicts probed in {elapsed:.1f} s, "
            f"{len(contradictions)} contradictions"
            + (f": {contradictions[:3]}" if contradictions else ""))


# -- 5: geometry of the 20 x 30 comparability map ----------------------------


def test_accept_5_region_map_geometry(golden_dir):
    rmap = region_map_dda(20, 30)
    golden = (golden_dir / "region_dda_20_30.csv").read_text()
    byte_match = rmap.to_csv() == golden

    geometry_ok = True
    for (i, j), cls in rmap.cells.items():
        if i > j and cls is not CellClass.HOLDS_SS_IJ:
            geometry_ok = False
        if 20 - i > 30 - j and cls is not CellClass.HOLDS_SS_JI:
            geometry_ok = False
        above_line = i * 31 - j * 21 < 0
        if cls is CellClass.NO_COMPARABILITY and not above_line:
            geometry_ok = False
        if above_line and i <= j and 20 - i <= 30 - j:
            if cls is not CellClass.NO_COMPARABILITY:
                geometry_ok = False

    fails = [(i, j) for (i, j), c in rmap.cells.items()
             if c is CellClass.NEEDS_CHECK_FAIL]
    band_ok = all(
        j < 30 and rmap.cells[(i, j + 1)] is CellClass.NO_COMPARABILITY
        for i, j in fails
    )
    _report(5, byte_match and geometry_ok and band_ok,
            f"golden {'matched' if byte_match else 'DIFFERS'}, "
            f"{len(fails)} NeedsCheck_Fail cells all adjacent to the "
            f"no-comparability wedge: {band_ok}")


# -- 6: exceedance trap on three concrete parents ----------------------------


def _orderstat_mean(qf, i: int, n: int) -> float:
    val, _ = integrate.quad(
        lambda u: qf(u) * stats.beta.pdf(u, i, n - i + 1), 0.0, 1.0, limit=200
    )
    return val


def test_accept_6_exceedance_trap_on_parents():
    n = 10
    parents = {
        "weibull3": (lambda u: (-math.log1p(-u)) ** (1.0 / 3.0),
                     lambda x: -math.expm1(-(x**3))),
        "cube": (lambda u: u ** (1.0 / 3.0), lambda x: x**3),
    }
    inside = True
    worst = 0.0
    for name, (qf, cdf_parent) in parents.items():
        for i in range(1, n):
            mu = _orderstat_mean(qf, i, n)
            p = cdf_parent(mu)
            p_lo = p_value(R.NEG_EXPONENTIAL, S(i, n))
            p_hi = p_value(R.EXPONENTIAL, S(i, n))
            if not (p_lo - 1e-6 <= p <= p_hi + 1e-6):
                inside = False
            worst = max(worst, p_lo - p, p - p_hi)

    # 1 - sqrt(1-x) has increasing density but its reversed hazard is not
    # monotone the right way: the lower bound must break for some rank
    qf_dash = lambda u: 1.0 - (1.0 - u) ** 2
    cdf_dash = lambda x: 1.0 - math.sqrt(1.0 - x)
    violations = []
    for i in range(1, n):
        p = cdf_dash(_orderstat_mean(qf_dash, i, n))
        p_lo = p_value(R.NEG_EXPONENTIAL, S(i, n))
        if p - p_lo < -1e-6:
            violations.append(i)
    _report(6, inside and violations,
            f"both conforming parents inside (worst excess {worst:.2e}); "
            f"lower bound broken at ranks {violations} for the 1-sqrt(1-x) parent")


# -- 7: special-function identities ------------------------------------------


def test_accept_7_identities():
    worst = 0.0
    for x in (0.05, 0.2, 0.5, 0.8, 0.95):
        for a, b in ((1.0, 1.0), (2.0, 5.0), (0.5, 3.0), (7.0, 2.0), (10.0, 10.0)):
            worst = max(
                worst, abs(reg_inc_beta(x, a, b) + reg_inc_beta(1.0 - x, b, a) - 1.0)
            )
    for a, b, c in ((1, 3, 7), (2, 2, 9), (5, 11, 30), (1, 1, 2)):
        worst = max(
            worst,
            abs(harmonic_sum(a, b) + harmonic_sum(b + 1, c) - harmonic_sum(a, c)),
        )
    for n in (1, 2, 5, 12, 30, 101):
        for i in range(1, n + 1):
            logistic = expected_transformed_orderstat(R.LOGISTIC, S(i, n))
            worst = max(
                worst, abs(logistic - (special.psi(i) - special.psi(n - i + 1)))
            )
    _report(7, worst <= 1e-12, f"max identity error = {worst:.3e}")


# -- 8: root counts vs a blind sign-change scan -------------------------------


def test_accept_8_root_counts():
    rng = np.random.default_rng(7_2026)
    xs = np.linspace(0.0005, 0.9995, 1000)
    checked = 0
    failures = []
    while checked < 500:
        sign_a = 1.0 if rng.random() < 0.5 else -1.0
        sign_b = 1.0 if rng.random() < 0.5 else -1.0
        a = sign_a * rng.uniform(0.25, 4.0)
        b = sign_b * rng.uniform(0.25, 4.0)
        x0 = rng.uniform(0.05, 0.95)
        if a * b > 0 and abs(x0 - a / (a + b)) < 0.05:
            continue  # too close to a tangency, ill posed for any method
        c = x0**a * (1.0 - x0) ** b
        roots = beta_kernel_roots(a, b, math.log(c))
        if any(r < 0.002 or r > 0.998 for r in roots):
            continue  # outside what the fixed scan can resolve
        if len(roots) == 2 and roots[1] - roots[0] < 0.004:
            continue  # closer than the scan spacing
        limit = 2 if a * b > 0 else 1
        vals = a * np.log(xs) + b * np.log1p(-xs) - math.log(c)
        scan_count = int(np.count_nonzero(np.diff(np.sign(vals)) != 0))
        if len(roots) > limit or scan_count != len(roots):
            failures.append((a, b, c, len(roots), scan_count))
        checked += 1
    _report(8, not failures,
            f"500 cases, scan agreed on every root count"
            if not failures else f"failures: {failures[:3]}")


# -- 9: the data-interval workflow end to end ---------------------------------


def test_accept_9_data_interval_cli(data_dir, capsys):
    csv_path = data_dir / "carbon_fibers.csv"
    if csv_path.exists():
        rc = cli_main([
            "data-interval", "--data", str(csv_path), "--spec", "20,100",
            "--lower-class", "DRHR", "--upper-class", "IOR",
        ])
        out = capsys.readouterr().out
        ok = rc == 0 and "x_lo=1.69 x_hi=1.69" in out and "feasible=true" in out
        with capsys.disabled():
            _report(9, ok, f"exit {rc}, interval [1.69, 1.69] on 100 strengths")
    else:
        data_file = data_dir / "_synthetic.csv"
        data_file.write_text("\n".join(str(v) for v in range(1, 11)) + "\n")
        rc = cli_main([
            "data-interval", "--data", str(data_file), "--spec", "5,10",
            "--lower-class", "DD", "--upper-class", "IHR",
        ])
        out = capsys.readouterr().out
        ok = rc == 0 and "x_lo=5 x_hi=5" in out
        with capsys.disabled():
            _report(9, ok, f"exit {rc}, synthetic fallback interval [5, 5]")
