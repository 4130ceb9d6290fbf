"""stochord benchmark: one command, three workloads, end-to-end or per-layer.

    python3 perfbench/run.py --workload {audit,region,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from `src/`.
`--trace 0` measures the end-to-end metrics with no wrapper installed.
`--trace 1` runs the same ops twice, first untraced and then with every
layer function wrapped, and reports the per-layer metrics and the tracing
overhead. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Any wrong output makes the
run exit 1; a checkout without `src/stochord` exits 2.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 3     # fresh interpreters per run; setup_s is their median
INTERP_REPEATS = 5    # bare `python -c pass` starts for cli.interp_start_s

# Wall-clock figures on a shared host swing with the host's own speed (on
# a shared 2-vCPU virtual machine one fixed loop took anywhere from 0.12 to
# 0.21 s), so ops are timed against a reference loop run between them:
# an op's latency in "loops" is its wall time over the reference loop's
# time measured around it. The raw seconds are printed and recorded too.
END_TO_END_UNITS = {
    "throughput_ops_per_loop": "1/loop",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
REF_LOOP_ITERS = 150_000
REF_WINDOW = 4        # reference timings on each side of an op, for its median

_FN3 = ("calls", "self_s", "errors")
PER_LAYER = (
    # oracle: moves audit throughput and latency; region bypasses it
    *(f"oracle.probe_{o}.{k}" for o in ("icv", "icx", "ss") for k in _FN3),
    "oracle.quad.calls", "oracle.quad.self_s",
    "oracle.scipy_stats.calls", "oracle.scipy_stats.self_s",
    "oracle.probe_pass_ratio",
    # ssverify: moves region throughput
    *(f"ssverify.{f}.{k}" for f in ("check_ss_dda", "check_ss_dhra", "beta_kernel_roots")
      for k in _FN3),
    "ssverify.ss_margin_dda.calls_per_verdict", "ssverify.ss_margin_dhra.calls_per_verdict",
    "ssverify.region_map_dda.self_s", "ssverify.region_map_dhra.self_s",
    "ssverify.band_cell_ratio",
    # orderstat and specfun under the ss verdicts
    *(f"orderstat.upper_partial_mean.{k}" for k in _FN3),
    "orderstat.quad.calls", "orderstat.quad.self_s",
    *(f"specfun.reg_inc_beta.{k}" for k in _FN3),
    # harmonic sums and the bound table: cli tail latency
    "specfun.harmonic_sum.calls", "specfun.harmonic_sum.self_s", "specfun.harmonic_sum.terms",
    *(f"bounds.{f}.{k}" for f in ("bound_table", "p_value", "ecdf_plugin_interval")
      for k in _FN3),
    # imports and interpreter start: cli latency and setup_s everywhere
    "import.stochord.self_s",
    *(f"import.stochord.{m}.self_s" for m in (
        "specfun", "refdist", "orderstat", "conditions", "ssverify", "bounds", "oracle", "cli")),
    "import.scipy.integrate.cum_s", "import.scipy.stats.cum_s",
    "cli.main.self_s", "cli.interp_start_s",
    # controls: no change predicted
    *(f"conditions.{f}.{k}" for f in ("check_icv", "check_icx") for k in _FN3),
    "conditions.holds_ratio",
    *(f"refdist.expected_transformed_orderstat.{k}" for k in _FN3),
    # the trace itself, and the defects kept visible
    "trace.throughput_untraced_per_loop", "trace.throughput_traced_per_loop",
    "trace.overhead_per_loop",
    "defects.known_failures",
    # the host's speed during the run: the reference loop's median time
    "machine.ref_loop_s",
)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("audit", "region", "cli"))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only import the workload's modules and build its inputs")
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

def pin_to_one_cpu() -> None:
    """Keep this process, the reference loop and every child on one CPU, so
    that the reference sees the CPU the ops run on."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError:
        pass


def ref_loop_s() -> float:
    """Wall time of a fixed pure-Python loop: the host's speed right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP_ITERS):
        acc += i * i
    return time.perf_counter() - t0


@dataclass
class LoopResult:
    latencies: list[float]   # seconds per op
    loops: list[float]       # the same ops in reference loops
    refs: list[float]        # every reference-loop timing, in order
    outcomes: list
    busy: float              # seconds of op time

    def units(self) -> int:
        return sum(o.units for o in self.outcomes if o.status != "failed")

    def throughput_ops_s(self) -> float:
        return self.units() / self.busy

    def throughput_per_loop(self) -> float:
        return self.units() / sum(self.loops)


def timed_loop(workload, ops, seconds=None, count=None) -> LoopResult:
    """Run ops one at a time. Stops after `count` ops, or once `seconds` of
    op time have passed and the workload's round is complete. Only execute()
    is timed; checking the output is not. The reference loop runs before
    the first op and after each one."""
    from workloads import Outcome

    latencies, outcomes, refs, busy, k = [], [], [ref_loop_s()], 0.0, 0
    while (k < count) if count is not None else (busy < seconds or k % workload.round_len):
        op = ops[k % len(ops)]
        t0 = time.perf_counter()
        try:
            raw = workload.execute(op)
        except Exception as exc:  # one failed op must not end the run
            dt = time.perf_counter() - t0
            outcome = Outcome("failed", 0, f"{op.args}: {type(exc).__name__}: {exc}")
        else:
            dt = time.perf_counter() - t0
            outcome = workload.check(op, raw)
        refs.append(ref_loop_s())
        busy += dt
        latencies.append(dt)
        outcomes.append(outcome)
        k += 1
    loops = [dt / statistics.median(refs[max(0, k + 1 - REF_WINDOW):k + 1 + REF_WINDOW])
             for k, dt in enumerate(latencies)]
    return LoopResult(latencies, loops, refs, outcomes, busy)


def run_python(args: list[str], stderr=subprocess.DEVNULL) -> tuple[float, subprocess.CompletedProcess]:
    from workloads import subprocess_env

    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=subprocess_env(),
                          stdout=subprocess.DEVNULL, stderr=stderr, text=True)
    return time.perf_counter() - t0, proc


def setup_times(args) -> list[float]:
    """Fresh-interpreter set-up: import the workload's modules, build its ops."""
    probe = [str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
             "--setup-probe"]
    out = []
    for _ in range(SETUP_REPEATS):
        dt, proc = run_python(probe)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        out.append(dt)
    return out


def import_times(args) -> dict[str, dict[str, float]]:
    """`-X importtime` of one set-up probe: self and cumulative seconds per module."""
    probe = ["-X", "importtime", str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"]
    _, proc = run_python(probe, stderr=subprocess.PIPE)
    return parse_importtime(proc.stderr)


def parse_importtime(text: str) -> dict[str, dict[str, float]]:
    """Self and cumulative seconds per module from `-X importtime` output.

    A package imported through importlib (scipy's lazy `from scipy import
    stats`) gets no line of its own, so each module's `cum_s` is taken over
    its whole subtree: the lines named after it or its submodules that no
    such line encloses. The output lists a module after its imports, each
    nested two spaces deeper than its importer.
    """
    pending = []    # (depth, node) not yet claimed by an importer
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cum_us, raw = line[len("import time:"):].split("|")
        if not self_us.strip().isdigit():
            continue
        depth = (len(raw) - len(raw.lstrip())) // 2
        children = []
        while pending and pending[-1][0] > depth:
            children.append(pending.pop()[1])
        node = (raw.strip(), int(self_us) * 1e-6, int(cum_us) * 1e-6, children)
        pending.append((depth, node))

    table: dict[str, dict[str, float]] = {}

    def visit(node, claimed: frozenset) -> None:
        name, self_s, cum_s, children = node
        parts = name.split(".")
        prefixes = {".".join(parts[:k]) for k in range(1, len(parts) + 1)}
        row = table.setdefault(name, {"self_s": 0.0, "cum_s": 0.0})
        row["self_s"] += self_s
        for prefix in prefixes - claimed:
            table.setdefault(prefix, {"self_s": 0.0, "cum_s": 0.0})["cum_s"] += cum_s
        for child in children:
            visit(child, claimed | prefixes)

    for _, node in pending:
        visit(node, frozenset())
    return table


def provenance(args) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": git_commit(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_lines": src_lines,
    }


def git_commit(root: Path) -> str:
    """HEAD's commit read from .git, or "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb(workload) -> float:
    if workload.name == "cli":
        return workload.max_child_rss_kb / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer_metrics(table, imports, interp_start, extra) -> dict[str, float]:
    def get(name, key):
        return table.get(name, {}).get(key, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for name, row in table.items():
        for key, v in row.items():
            m[f"{name}.{key}"] = v
    probes = [f"oracle.probe_{o}" for o in ("icv", "icx", "ss", "st")]
    m["oracle.probe_pass_ratio"] = ratio(sum(get(p, "passed") for p in probes),
                                         sum(get(p, "calls") for p in probes))
    for frame in ("dda", "dhra"):
        m[f"ssverify.ss_margin_{frame}.calls_per_verdict"] = ratio(
            get(f"ssverify.ss_margin_{frame}", "calls"), get(f"ssverify.check_ss_{frame}", "calls"))
    maps = ("ssverify.region_map_dda", "ssverify.region_map_dhra")
    m["ssverify.band_cell_ratio"] = ratio(sum(get(r, "band_cells") for r in maps),
                                          sum(get(r, "cells") for r in maps))
    checks = ("conditions.check_icv", "conditions.check_icx")
    m["conditions.holds_ratio"] = ratio(sum(get(c, "holds") for c in checks),
                                        sum(get(c, "calls") for c in checks))
    for module, row in imports.items():
        if module == "stochord" or module.startswith("stochord."):
            m[f"import.{module}.self_s"] = row["self_s"]
        if module in ("scipy.integrate", "scipy.stats"):
            m[f"import.{module}.cum_s"] = row["cum_s"]
    m["cli.interp_start_s"] = interp_start
    m.update(extra)
    return m


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "stochord" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'stochord'} not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    for mod in workload.imports:
        __import__(mod)  # not importlib: -X importtime only sees import statements
    if args.setup_probe:
        workload.prepare()
        workload.ops(args.seed)
        return 0

    OUT.mkdir(exist_ok=True)
    prov = provenance(args)
    pin_to_one_cpu()
    setups = setup_times(args)
    workload.prepare()
    ops = workload.ops(args.seed)
    problems = workload.gate()

    if args.trace == 0:
        loop = timed_loop(workload, ops, seconds=args.seconds)
        metrics = {
            "throughput_ops_per_loop": loop.throughput_per_loop(),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb(workload),
        }
        units = dict(END_TO_END_UNITS)
        layer_table = None
        outcomes = loop.outcomes
    else:
        loop = timed_loop(workload, ops, seconds=args.seconds / 2)
        tracer = tracing.Tracer()
        if workload.name == "cli":
            workload.trace_into(tracer, [sys.executable, str(HERE / "cli_launcher.py")],
                                OUT / "cli-spans.json")
            traced = timed_loop(workload, ops, count=len(loop.outcomes))
        else:
            undo = tracing.install(tracer)
            try:
                traced = timed_loop(workload, ops, count=len(loop.outcomes))
            finally:
                tracing.uninstall(undo)
        left = tracing.installed_wrappers()
        if left:
            problems.append(f"wrappers still installed after the traced pass: {left}")
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz")
        layer_table = tracing.layer_table(tracer)
        interp = statistics.median([run_python(["-c", "pass"])[0] for _ in range(INTERP_REPEATS)])
        untraced_tp, traced_tp = loop.throughput_per_loop(), traced.throughput_per_loop()
        metrics = per_layer_metrics(layer_table, import_times(args), interp, {
            "trace.throughput_untraced_per_loop": untraced_tp,
            "trace.throughput_traced_per_loop": traced_tp,
            "trace.overhead_per_loop": untraced_tp - traced_tp,
            "machine.ref_loop_s": statistics.median(loop.refs),
        })
        outcomes = loop.outcomes + traced.outcomes
        units = {}

    defects = workloads.run_known_defects()
    if args.trace:
        metrics["defects.known_failures"] = float(sum(d["failed"] for d in defects))
        metrics = {name: metrics.get(name, 0.0) for name in PER_LAYER}
        units = {name: layer_unit(name) for name in PER_LAYER}

    wrong = [o for o in outcomes if o.status == "wrong"]
    failed = [o for o in outcomes if o.status != "ok"]
    correct = not wrong and not problems
    tail = workloads.tail_latency(loop.latencies)
    raw = {"throughput_ops_s": loop.throughput_ops_s(),
           "latency_p50_s": statistics.median(loop.latencies),
           "latency_p50_loops": statistics.median(loop.loops),
           "ref_loop_s": statistics.median(loop.refs)}
    record = {
        "provenance": prov,
        "correct": correct,
        "attempted": len(outcomes),
        "failed": len(failed),
        "error_rate": len(failed) / len(outcomes),
        "op_unit": workload.unit,
        "latency_tail": (
            {"percentile": tail[0], "value_s": tail[1], "samples": tail[2]} if tail
            else {"percentile": None, "samples": len(loop.latencies),
                  "note": "fewer than 20 ops: no percentile has ten samples beyond it"}),
        "setup_runs_s": setups,
        "wall_clock": raw,
        "ref_loop_runs_s": loop.refs,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "gate_problems": problems,
        "failures": [o.detail for o in failed],
        "known_defects": defects,
        "layers": layer_table,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True))

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for k, v in metrics.items():
        print(f"  {k} = {v:.6g} {units[k]}")
    print(f"  latency_p50: {raw['latency_p50_loops']:.6g} loops")
    print(f"  wall clock: {raw['throughput_ops_s']:.6g} {workload.unit}s/s, "
          f"p50 {raw['latency_p50_s']:.6g} s, reference loop {raw['ref_loop_s']:.6g} s")
    if tail:
        print(f"  latency_tail: p{tail[0]:g} = {tail[1]:.6g} s over {tail[2]} ops")
    else:
        print(f"  latency_tail: not reported, {len(loop.latencies)} ops (needs >= 20)")
    print(f"  error_rate = {record['error_rate']:.6g} ({len(failed)} of {len(outcomes)} ops)")
    for d in defects:
        print(f"  known defect: exit {d['exit']} `{d['argv']}`: {d['message']}")
    for p in problems:
        print(f"  WRONG (gate): {p}")
    for o in failed:
        print(f"  {o.status.upper()}: {o.detail}")
    print(f"  record: {OUT.name}/{name}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


def layer_unit(name: str) -> str:
    if name.endswith("_per_loop"):
        return "1/loop"
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("calls_per_verdict"):
        return "calls/verdict"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
