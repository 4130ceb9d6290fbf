"""Self-tests for the benchmark's own code.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_ops(name):
    make = workloads.WORKLOADS[name]
    assert make().ops(7) == make().ops(7)
    assert make().ops(7) != make().ops(8)


def test_audit_rounds_hold_one_class_of_each_pair():
    ops = workloads.Audit().ops(3, rounds=5)
    assert sorted(c for pair in workloads.AUDIT_PAIRS for c in pair) == sorted(workloads.CLASSES)
    for r in range(10):
        got = [op.args[0] for op in ops[6 * r:6 * (r + 1)]]
        assert all(sum(c in pair for c in got) == 1 for pair in workloads.AUDIT_PAIRS)
    for r in range(5):
        assert sorted(op.args[0] for op in ops[12 * r:12 * (r + 1)]) == sorted(workloads.CLASSES)


def test_cli_mix_stays_clear_of_known_defects():
    for op in workloads.Cli().ops(5):
        opts = dict(zip(op.args[1::2], op.args[2::2]))
        if op.args[0] == "verify-ss" and opts["--frame"] == "DHRA":
            assert all(int(opts[k].split(",")[1]) <= workloads.CLI_MAX_N_DHRA
                       for k in ("--a", "--b"))
        if op.args[0] == "compare" and opts["--class"] == "DROR":
            assert all(int(opts[k].split(",")[0]) >= 2 for k in ("--a", "--b"))


@pytest.mark.parametrize("n, want", [
    (0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0),
    (99, 75.0), (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0), (10_000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, want):
    tail = workloads.tail_latency([float(k) for k in range(n)])
    if want is None:
        assert tail is None
        return
    p, value, count = tail
    assert (p, count) == (want, n)
    assert sum(1 for k in range(n) if k > value) >= 10


def test_self_time_nested_children():
    # parent [0, 10] > child [1, 5] > grandchild [2, 3]
    start, end, parent = [0.0, 1.0, 2.0], [10.0, 5.0, 3.0], [-1, 0, 1]
    assert tracing.self_times(start, end, parent) == [6.0, 3.0, 1.0]


def test_self_time_adjacent_and_overlapping_children():
    # adjacent children [1, 3] and [3, 6] cover 5; an overlap is counted once
    assert tracing.self_times([0.0, 1.0, 3.0], [10.0, 3.0, 6.0], [-1, 0, 0])[0] == 5.0
    assert tracing.self_times([0.0, 1.0, 2.0], [10.0, 4.0, 6.0], [-1, 0, 0])[0] == 5.0


def test_tracer_records_parents_errors_and_counts():
    tracer = tracing.Tracer()

    def leaf(x):
        if x < 0:
            raise ValueError(x)
        return x

    leaf_t = tracer.wrap("m.leaf", leaf)
    outer = tracer.wrap("m.outer", lambda: [leaf_t(1), leaf_t(2)])
    outer()
    with pytest.raises(ValueError):
        leaf_t(-1)
    rows = list(tracer.rows())
    assert [(r[0], r[3], r[4]) for r in rows] == [
        ("m.outer", -1, 0), ("m.leaf", 0, 0), ("m.leaf", 0, 0), ("m.leaf", -1, 1)]
    table = tracing.layer_table(tracer)
    assert table["m.leaf"]["calls"] == 3 and table["m.leaf"]["errors"] == 1


def test_install_wraps_every_binding_and_uninstall_restores_them():
    import stochord.cli
    import stochord.orderstat
    import stochord.specfun
    import stochord.ssverify

    before = {id(v) for m in (stochord.ssverify, stochord.orderstat, stochord.cli)
              for v in vars(m).values()}
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        # reg_inc_beta is imported by name into ssverify and orderstat
        for mod in (stochord.specfun, stochord.ssverify, stochord.orderstat):
            assert hasattr(mod.reg_inc_beta, "__perfbench_original__")
        assert hasattr(stochord.cli._PROBES["icv"], "__perfbench_original__")
        stochord.ssverify.ss_margin_dda(
            stochord.refdist.OrderStatSpec(2, 3), stochord.refdist.OrderStatSpec(3, 5), 0.3)
    finally:
        tracing.uninstall(undo)
    assert tracing.installed_wrappers() == []
    after = {id(v) for m in (stochord.ssverify, stochord.orderstat, stochord.cli)
             for v in vars(m).values()}
    assert after == before
    rows = list(tracer.rows())
    assert rows[0][0] == "ssverify.ss_margin_dda"
    assert [r[3] for r in rows if r[0] == "specfun.reg_inc_beta"] == [0, 0]


def test_untraced_run_installs_no_wrapper(capsys):
    assert run.main(["--workload", "region", "--seed", "1", "--seconds", "0.01",
                     "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert tracing.installed_wrappers() == []


def test_benchmark_json_lists_the_metrics_the_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_parse_importtime_sums_subtrees():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy.stats._a",
        "import time:        50 |         50 |       numpy.x",
        "import time:       200 |        250 |     scipy.stats._b",
        "import time:        10 |        360 |   stochord.oracle",
        "import time:         5 |        365 | stochord",
    ])
    table = run.parse_importtime(text)
    assert table["scipy.stats"]["cum_s"] == pytest.approx(350e-6)
    assert table["stochord.oracle"]["self_s"] == pytest.approx(10e-6)
    assert table["stochord"]["self_s"] == pytest.approx(5e-6)


def test_compare_referee_agrees_with_the_closed_forms():
    from stochord.conditions import BoundaryCaseError, ShapeClass, check_icv, check_icx
    from stochord.refdist import OrderStatSpec as S

    for cls in workloads.NON_STAR:
        shape = ShapeClass(cls)
        check = check_icv if cls in workloads.CONCAVE else check_icx
        for n in range(1, 7):
            for m in range(1, 7):
                for i in range(1, n + 1):
                    for j in range(1, m + 1):
                        try:
                            v = check(shape, S(i, n), S(j, m))
                        except BoundaryCaseError:
                            continue
                        lhs, rhs, holds = workloads.reference_compare(cls, i, n, j, m)
                        assert v.lhs_witness == pytest.approx(lhs, rel=1e-10, abs=1e-12)
                        assert v.rhs_witness == pytest.approx(rhs, rel=1e-10, abs=1e-12)
                        assert v.holds == holds, (cls, i, n, j, m)


def test_table_referee_accepts_golden_and_rejects_a_changed_entry():
    lines = workloads.GOLDEN_TABLE.read_text().splitlines()
    assert workloads.check_cli_output(("bounds-table", "-n", "10"), 0, "\n".join(lines), []) == ""
    lines[2] = lines[2].replace("0.285", "0.287")
    assert "E[3]" in workloads.check_cli_output(("bounds-table", "-n", "10"), 0,
                                                "\n".join(lines), [])
