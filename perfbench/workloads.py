"""The three benchmark workloads: seeded inputs, one op, and its check.

Every workload is closed-loop and single-process: the next op starts when
the previous one has finished. Inputs come from `random.Random(seed)` only,
so one seed always gives the same op list. `execute` is the timed part of
an op; `check` runs afterwards, untimed, and says whether the output was
right.

    audit   one op = one audited Holds verdict (decide, then oracle probe)
    region  one op = one comparability map; work is counted in cells
    cli     one op = one fresh `python -m stochord.cli ...` process
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN_REGION = ROOT / "tests" / "golden" / "region_dda_20_30.csv"
GOLDEN_TABLE = ROOT / "tests" / "golden" / "table1_n10.csv"
CARBON = "tests/data/carbon_fibers.csv"

CLASSES = ("DD", "ID", "DDA", "IHR", "DHR", "DHRA", "DRHR", "IOR", "DOR",
           "ILOR", "DLOR", "DROR")
CONCAVE = ("ID", "IHR", "IOR", "ILOR")
CONVEX = ("DD", "DHR", "DRHR", "DOR", "DLOR", "DROR")
NON_STAR = CONCAVE + CONVEX

AUDIT_MAX_N = 12          # ACCEPT-4 draws n, m <= 12
# ACCEPT-4 probes on a 21-point grid. Here 11: an op costs about half as
# much, so a run holds twice as many verdicts, and its throughput no longer
# hangs on the four or five logistic probes a 30 s run could afford. The
# probe runs the same code per grid point, so it exercises the same layers.
AUDIT_GRID = 11
AUDIT_MAX_DRAWS = 10_000  # an op that finds no Holds verdict in this many draws fails
PROBE_MARGIN = -1e-9      # worst oracle margin a Holds verdict may show

# DHRA verdicts overflow (`math range error`) once n * ln 3 nears 709, i.e.
# from n ~ 646 on; the timed cli mix stays below that and the failure is
# tracked by KNOWN_DEFECTS instead, so that no timed op is expected to fail.
CLI_MAX_N = 1000
CLI_MAX_N_DHRA = 600

# Inputs that fail today. They run after the timed loop, untimed, through
# stochord.cli.main; each result (exit code and message) is printed with the
# run, and the number still failing is the `defects.known_failures` metric.
KNOWN_DEFECTS = (
    ("verify-ss", "--frame", "DHRA", "--a", "500,1000", "--b", "300,700"),
    ("compare", "--class", "DHRA", "--a", "500,1000", "--b", "300,700"),
    ("compare", "--class", "DROR", "--a", "1,5", "--b", "2,4"),
)


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple


@dataclass
class Outcome:
    """What `check` concluded about one op."""

    status: str          # "ok", "failed" (error exit or exception) or "wrong"
    units: int = 1       # work done, in the workload's throughput unit
    detail: str = ""


def _log_uniform(rng: random.Random, lo: int, hi: int) -> int:
    return min(hi, max(lo, int(round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))))


def subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

# Classes paired by the cost of one audited verdict at the parent commit
# (logistic probes ~2.3 s, DHR/DHRA ~1.2 s, the rest 0.07 to 0.25 s).
AUDIT_PAIRS = (("ILOR", "DLOR"), ("DHR", "DHRA"), ("IOR", "DRHR"),
               ("IHR", "DROR"), ("DD", "ID"), ("DDA", "DOR"))


class Audit:
    """ACCEPT-4 as a workload: draw (class, (i,n), (j,m)), decide, and run
    the oracle probe (on an AUDIT_GRID-point grid) on the first Holds verdict.

    Draws are balanced: every round of 6 ops holds one class of each pair in
    AUDIT_PAIRS and the next round the other, in a seeded order, and the
    timed loop ends on a round boundary. Logistic probes cost ten times the
    others, so an unbalanced mix would swing the throughput from seed to seed.
    """

    name = "audit"
    unit = "verdict"
    round_len = len(AUDIT_PAIRS)
    imports = ("stochord.conditions", "stochord.ssverify", "stochord.oracle",
               "stochord.orderstat", "stochord.refdist")

    def ops(self, seed: int, rounds: int = 100) -> list[Op]:
        rng = random.Random(seed)
        out = []
        for _ in range(rounds):
            picks = [rng.sample(pair, 2) for pair in AUDIT_PAIRS]
            for half in (0, 1):
                batch = [pick[half] for pick in picks]
                rng.shuffle(batch)
                out.extend(Op("audit", (c, rng.getrandbits(32))) for c in batch)
        return out

    def prepare(self) -> None:
        from stochord.conditions import BoundaryCaseError, ShapeClass, TransformKind
        from stochord.refdist import OrderStatSpec

        self._S, self._C, self._T = OrderStatSpec, ShapeClass, TransformKind
        self._boundary = BoundaryCaseError

    def execute(self, op: Op):
        # functions are looked up on their modules at call time, so that the
        # traced pass goes through the wrappers
        import stochord.conditions as conditions
        import stochord.oracle as oracle
        import stochord.ssverify as ssverify
        from stochord.orderstat import TransformedOrderStat

        shape = self._C(op.args[0])
        rng = random.Random(op.args[1])
        S, T = self._S, self._T
        for draws in range(1, AUDIT_MAX_DRAWS + 1):
            n, m = rng.randint(1, AUDIT_MAX_N), rng.randint(1, AUDIT_MAX_N)
            a, b = S(rng.randint(1, n), n), S(rng.randint(1, m), m)
            try:
                if shape.transform is T.CONCAVE:
                    verdict = conditions.check_icv(shape, a, b)
                elif shape.transform is T.CONVEX:
                    verdict = conditions.check_icx(shape, a, b)
                elif shape is self._C.DDA:
                    verdict = ssverify.check_ss_dda(a, b)
                else:
                    verdict = ssverify.check_ss_dhra(a, b)
            except self._boundary:
                continue
            if verdict.holds:
                break
        else:
            raise RuntimeError(f"{shape.value}: no Holds verdict in {AUDIT_MAX_DRAWS} draws")
        w = lambda s: TransformedOrderStat(shape.reference, s)
        if shape.transform is T.CONCAVE:
            probe = oracle.probe_icv(w(a), w(b), grid_size=AUDIT_GRID)
        elif shape.transform is T.CONVEX:
            # the probe's <=icx convention puts the dominated spec first
            probe = oracle.probe_icx(w(b), w(a), grid_size=AUDIT_GRID)
        else:
            probe = oracle.probe_ss(w(a), w(b), grid_size=AUDIT_GRID)
        return shape.value, a, b, draws, probe

    def check(self, op: Op, raw) -> Outcome:
        shape, a, b, draws, probe = raw
        if not probe.passed or probe.worst_margin < PROBE_MARGIN:
            return Outcome("wrong", detail=(
                f"{shape} ({a.i},{a.n}) vs ({b.i},{b.n}): Holds verdict refuted by "
                f"the oracle, worst margin {probe.worst_margin:.3e}"))
        return Outcome("ok", detail=f"draws={draws}")

    def gate(self) -> list[str]:
        return []


# ---------------------------------------------------------------------------
# region
# ---------------------------------------------------------------------------

# Map sizes: n from a range per frame, m = n + d. A DDA map and a DHRA map
# take about the same time at the parent commit (0.3 to 0.9 s each on a
# 2-vCPU machine), so the frames share the run evenly and the mixture of op
# times has no gap for the median to jump across. Maps are kept small, so a
# run holds dozens and its figures do not hang on a few large ones.
# m > n always: a square map has no band cells left to check.
REGION_SIZES = {"DDA": ((26, 30), (9, 13)), "DHRA": ((3, 5), (1, 1))}


def region_geometry_errors(rmap, mean_gap) -> list[str]:
    """ACCEPT-5's geometry invariants, for any n <= m and either frame.

    `mean_gap(i, j) < 0` marks the cells above the frame's mean line.
    """
    from stochord.ssverify import CellClass

    n, m, errs = rmap.n, rmap.m, []
    if len(rmap.cells) != n * m:
        errs.append(f"{len(rmap.cells)} cells, expected {n * m}")
    for (i, j), cls in rmap.cells.items():
        band = i <= j and n - i <= m - j
        if i > j and cls is not CellClass.HOLDS_SS_IJ:
            errs.append(f"({i},{j}) {cls.value}, first-order region needs HoldsSS_ij")
        elif i <= j and n - i > m - j and cls is not CellClass.HOLDS_SS_JI:
            errs.append(f"({i},{j}) {cls.value}, first-order region needs HoldsSS_ji")
        elif band and (mean_gap(i, j) < 0) != (cls is CellClass.NO_COMPARABILITY):
            errs.append(f"({i},{j}) {cls.value} on the wrong side of the mean line")
    return errs


class Region:
    """Comparability maps in both frames, with n < m."""

    name = "region"
    unit = "cell"
    round_len = 4
    imports = ("stochord.ssverify",)

    def ops(self, seed: int, rounds: int = 1000) -> list[Op]:
        rng = random.Random(seed)
        out = []
        for _ in range(rounds):
            batch = []
            for frame, ((n_lo, n_hi), (d_lo, d_hi)) in REGION_SIZES.items():
                for _ in range(2):
                    n = rng.randint(n_lo, n_hi)
                    batch.append(Op("region", (frame, n, n + rng.randint(d_lo, d_hi))))
            rng.shuffle(batch)
            out.extend(batch)
        return out

    def prepare(self) -> None:
        import stochord.ssverify  # noqa: F401

    def execute(self, op: Op):
        import stochord.ssverify as ssverify

        frame, n, m = op.args
        build = ssverify.region_map_dda if frame == "DDA" else ssverify.region_map_dhra
        return build(n, m)

    def check(self, op: Op, rmap) -> Outcome:
        frame, n, m = op.args
        if frame == "DDA":
            gap = lambda i, j: i * (m + 1) - j * (n + 1)
        else:
            gap = lambda i, j: reference_harmonic(n - i + 1, n) - reference_harmonic(m - j + 1, m)
        errs = region_geometry_errors(rmap, gap)
        if (rmap.n, rmap.m, rmap.frame) != (n, m, frame):
            errs.append(f"map is {rmap.frame} {rmap.n}x{rmap.m}")
        if errs:
            return Outcome("wrong", n * m, f"{frame} {n}x{m}: " + "; ".join(errs[:3]))
        return Outcome("ok", n * m)

    def gate(self) -> list[str]:
        from stochord.ssverify import CellClass, region_map_dda

        rmap = region_map_dda(20, 30)
        errs = []
        if rmap.to_csv() != GOLDEN_REGION.read_text(encoding="utf-8"):
            errs.append("region_map_dda(20, 30) differs from tests/golden/region_dda_20_30.csv")
        errs += region_geometry_errors(rmap, lambda i, j: i * 31 - j * 21)
        for (i, j), cls in rmap.cells.items():
            if cls is CellClass.NEEDS_CHECK_FAIL and not (
                    j < 30 and rmap.cells[(i, j + 1)] is CellClass.NO_COMPARABILITY):
                errs.append(f"golden map: NeedsCheck_Fail ({i},{j}) not next to the wedge")
        return errs


def reference_harmonic(lo: int, hi: int) -> float:
    return math.fsum(1.0 / k for k in range(lo, hi + 1))


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

def _spec(rng: random.Random, n: int, low_rank: int = 1) -> str:
    return f"{rng.randint(low_rank, n)},{n}"


class Cli:
    """Fresh `python -m stochord.cli` processes, interpreter start included.

    Each round of 8 holds 3 compare, 2 bounds-table, 1 data-interval,
    1 verify-ss and 1 probe, in a seeded order.
    """

    name = "cli"
    unit = "command"
    round_len = 1   # ops cost about the same; stop as soon as time is up
    imports = ("stochord.cli",)

    def __init__(self) -> None:
        self.launcher: list[str] | None = None   # set for the traced pass
        self.spans_path: Path | None = None
        self.tracer = None
        self.max_child_rss_kb = 0

    def trace_into(self, tracer, launcher: list[str], spans_path: Path) -> None:
        """Run later ops through `launcher`, merging their spans into tracer."""
        self.tracer, self.launcher, self.spans_path = tracer, launcher, spans_path

    def ops(self, seed: int, rounds: int = 100) -> list[Op]:
        rng = random.Random(seed)
        out = []
        for r in range(rounds):
            batch = []
            for _ in range(3):
                cls = rng.choice(NON_STAR)
                low = 2 if cls == "DROR" else 1   # DROR rank 1 is a KNOWN_DEFECT
                n = _log_uniform(rng, low, CLI_MAX_N)
                m = _log_uniform(rng, low, CLI_MAX_N)
                batch.append(("compare", "--class", cls, "--a", _spec(rng, n, low),
                              "--b", _spec(rng, m, low)))
            for _ in range(2):
                batch.append(("bounds-table", "-n", str(_log_uniform(rng, 10, 3000))))
            n = _log_uniform(rng, 1, 200)
            batch.append(("data-interval", "--data", CARBON, "--spec", _spec(rng, n),
                          "--lower-class", rng.choice(CONVEX),
                          "--upper-class", rng.choice(CONCAVE)))
            frame = "DDA" if r % 2 == 0 else "DHRA"
            top = CLI_MAX_N if frame == "DDA" else CLI_MAX_N_DHRA
            n, m = _log_uniform(rng, 2, top), _log_uniform(rng, 2, top)
            batch.append(("verify-ss", "--frame", frame, "--a", _spec(rng, n),
                          "--b", _spec(rng, m)))
            order = rng.choice(("st", "ss", "icv", "icx"))
            refs = ("uniform", "exponential", "log-logistic-1") if order == "ss" else (
                "uniform", "exponential", "logistic", "log-logistic-1",
                "neg-exponential", "neg-log-logistic-1")
            n, m = rng.randint(1, 6), rng.randint(1, 6)
            batch.append(("probe", "--order", order, "--reference", rng.choice(refs),
                          "--a", _spec(rng, n), "--b", _spec(rng, m), "--grid-size", "11"))
            rng.shuffle(batch)
            out.extend(Op("cli", argv) for argv in batch)
        return out

    def prepare(self) -> None:
        self._data = sorted(_read_values(ROOT / CARBON))

    def execute(self, op: Op):
        raw = run_child(self.command(op.args), self)
        if self.tracer is not None:
            dumped = json.loads(self.spans_path.read_text(encoding="utf-8"))
            self.spans_path.unlink()
            self.tracer.add_spans(dumped["spans"])
            for key, v in dumped["counts"].items():
                self.tracer.counts[key] += v
        return raw

    def command(self, argv) -> list[str]:
        if self.launcher is not None:
            return [*self.launcher, str(self.spans_path), *argv]
        return [sys.executable, "-m", "stochord.cli", *argv]

    def check(self, op: Op, raw) -> Outcome:
        code, out, err = raw
        if code not in (0, 2):
            return Outcome("failed", detail=f"exit {code}: {err.strip()[-200:]}")
        problem = check_cli_output(op.args, code, out, self._data)
        if problem:
            return Outcome("wrong", detail=f"{' '.join(op.args)}: {problem}")
        return Outcome("ok")

    def gate(self) -> list[str]:
        errs = []
        code, out, _ = cli_in_process(("bounds-table", "-n", "10"))
        if code != 0 or out != GOLDEN_TABLE.read_text(encoding="utf-8"):
            errs.append(f"bounds-table -n 10 (exit {code}) differs from tests/golden/table1_n10.csv")
        want = _readme_line("p_lo=")
        code, out, _ = cli_in_process(("data-interval", "--data", CARBON, "--spec", "20,100",
                                       "--lower-class", "DRHR", "--upper-class", "IOR"))
        if code != 0 or out.strip() != want:
            errs.append(f"carbon-fibers data-interval (exit {code}) printed {out.strip()!r}, "
                        f"README says {want!r}")
        return errs


def _readme_line(prefix: str) -> str:
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith(prefix):
            return line.strip()
    return "<no such line in README.md>"


def _read_values(path: Path) -> list[float]:
    out = []
    for line in path.read_text(encoding="utf-8").splitlines():
        with contextlib.suppress(ValueError):
            out.append(float(line))
    return out


def run_child(cmd: list[str], owner) -> tuple[int, str, str]:
    """Run one process to completion; record its peak RSS on `owner`."""
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / "child.out", "w+b") as fo, open(out_dir / "child.err", "w+b") as fe:
        proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, cwd=ROOT, env=subprocess_env())
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if owner is not None:
            owner.max_child_rss_kb = max(owner.max_child_rss_kb, usage.ru_maxrss)
        fo.seek(0)
        fe.seek(0)
        return proc.returncode, fo.read().decode(), fe.read().decode()


# -- independent referees for the CLI's printed numbers ---------------------

def _harmonic_prefix(n: int) -> list[float]:
    out, acc = [0.0], 0.0
    for k in range(1, n + 1):
        acc += 1.0 / k
        out.append(acc)
    return out


def reference_compare(cls: str, i: int, n: int, j: int, m: int) -> tuple[float, float, bool]:
    """Witnesses and verdict of the closed-form icv/icx conditions, from the
    class definitions (harmonic numbers in place of digamma)."""
    h = lambda lo, hi: reference_harmonic(lo, hi) if hi >= lo else 0.0
    if cls in ("ID", "DD"):
        lhs, rhs = i / (n + 1.0), j / (m + 1.0)
    elif cls in ("IHR", "DHR"):
        lhs, rhs = h(n - i + 1, n), h(m - j + 1, m)
    elif cls in ("IOR", "DOR"):
        lhs, rhs = i / n, j / m
    elif cls in ("ILOR", "DLOR"):
        # psi(i) - psi(n-i+1) = H_{i-1} - H_{n-i}
        lhs, rhs = h(1, i - 1) - h(1, n - i), h(1, j - 1) - h(1, m - j)
    elif cls == "DRHR":
        lhs, rhs = h(i, n), h(j, m)
    else:  # DROR
        lhs, rhs = (n - i + 1) / (i - 1.0), (m - j + 1) / (j - 1.0)
    rank_ok = i >= j if cls in CONCAVE else i <= j
    geq = cls not in ("DRHR", "DROR")
    return lhs, rhs, rank_ok and (lhs >= rhs if geq else lhs <= rhs)


_FIELDS = re.compile(r'(\w+)=("[^"]*"|\S+)')


def _fields(line: str) -> dict[str, str]:
    return {k: v.strip('"') for k, v in _FIELDS.findall(line)}


def _close(printed: str, want: float, rel: float = 1e-9) -> bool:
    got = float(printed)
    return abs(got - want) <= rel * max(1.0, abs(want))


def _spec_pair(text: str) -> tuple[int, int]:
    i, n = text.split(",")
    return int(i), int(n)


def check_cli_output(argv, code: int, out: str, data: list[float]) -> str:
    """Return "" when the printed result is right, else what is wrong."""
    cmd = argv[0]
    opts = dict(zip(argv[1::2], argv[2::2]))
    lines = out.splitlines()
    if cmd == "bounds-table":
        return _check_table(int(opts["-n"]), lines)
    f = _fields(lines[0]) if len(lines) == 1 else {}
    if not f:
        return f"expected one result line, got {len(lines)}"
    if cmd == "compare":
        (i, n), (j, m) = _spec_pair(opts["--a"]), _spec_pair(opts["--b"])
        lhs, rhs, holds = reference_compare(opts["--class"], i, n, j, m)
        if not (_close(f["lhs"], lhs) and _close(f["rhs"], rhs)):
            return f"witnesses {f['lhs']}, {f['rhs']} vs reference {lhs!r}, {rhs!r}"
        tie = abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
        if not tie and (f["status"] == "holds") != holds:
            return f"status {f['status']} but the condition says holds={holds}"
        return _exit_matches(code, f["status"] == "holds")
    if cmd == "verify-ss":
        holds = f["status"] == "holds"
        if holds != (float(f["inf_z"]) >= -1e-12):
            return f"status {f['status']} with inf_z={f['inf_z']}"
        return _exit_matches(code, holds)
    if cmd == "probe":
        passed = f["passed"] == "true"
        if passed != (float(f["worst_margin"]) >= -1e-9) or f["grid_size"] != opts["--grid-size"]:
            return f"passed={f['passed']} with worst_margin={f['worst_margin']}"
        return _exit_matches(code, passed)
    if cmd == "data-interval":
        feasible = f["feasible"] == "true"
        p_lo, p_hi = float(f["p_lo"]), float(f["p_hi"])
        r_lo, r_hi = int(f["rank_lo"]), int(f["rank_hi"])
        if int(f["n_data"]) != len(data) or feasible != (p_lo <= p_hi):
            return f"n_data={f['n_data']} feasible={f['feasible']} for [{p_lo}, {p_hi}]"
        for r, p, x in ((r_lo, p_lo, f["x_lo"]), (r_hi, p_hi, f["x_hi"])):
            if abs(r - max(1, math.ceil(len(data) * p))) > 1 or not _close(x, data[r - 1]):
                return f"rank {r} / value {x} do not match p={p} on the sorted sample"
        return _exit_matches(code, feasible)
    return f"unknown subcommand {cmd}"


def _exit_matches(code: int, ok: bool) -> str:
    want = 0 if ok else 2
    return "" if code == want else f"exit {code}, expected {want}"


def _check_table(n: int, lines: list[str]) -> str:
    """Every entry of the default table against its closed form:
    LL i/n, E 1-exp(-H(n-i+1..n)), U i/(n+1), E- exp(-H(i..n))."""
    if len(lines) != 5 or lines[0] != "G," + ",".join(str(i) for i in range(1, n + 1)):
        return "table shape"
    hp = _harmonic_prefix(n)
    refs = {
        "LL": lambda i: i / n,
        "E": lambda i: -math.expm1(-(hp[n] - hp[n - i])),
        "U": lambda i: i / (n + 1.0),
        "E-": lambda i: math.exp(-(hp[n] - hp[i - 1])),
    }
    for line, label in zip(lines[1:], refs):
        cells = line.split(",")
        if cells[0] != label or len(cells) != n + 1:
            return f"row {cells[0]!r}"
        for i, text in enumerate(cells[1:], start=1):
            if abs(float(text) - refs[label](i)) > 0.5e-3 + 1e-9:
                return f"{label}[{i}] = {text}, expected {refs[label](i):.6f}"
    return ""


def cli_in_process(argv) -> tuple[int, str, str]:
    """stochord.cli.main(argv) in this process: exit code, stdout, stderr.

    Used for the untimed checks around the loop; the timed ops always start
    a fresh interpreter. Paths in argv are relative to the checkout root.
    """
    from stochord.cli import main

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def run_known_defects() -> list[dict]:
    """Run KNOWN_DEFECTS in-process; record each exit code and message."""
    results = []
    for argv in KNOWN_DEFECTS:
        try:
            code, out, err = cli_in_process(argv)
            msg = (err or out).strip()
        except Exception as exc:  # a crash is a result worth recording
            code, msg = -1, f"{type(exc).__name__}: {exc}"
        results.append({"argv": " ".join(argv), "exit": code,
                        "failed": code not in (0, 2), "message": msg[-300:]})
    return results


WORKLOADS = {w.name: w for w in (Audit, Region, Cli)}


def percentile_index(n: int, p: float) -> int:
    """Nearest-rank index of the p-th percentile among n sorted samples."""
    return max(0, math.ceil(p * n / 100.0 - 1e-9) - 1)  # 1e-9: 99.9% of 10**4 is 9990


TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def tail_latency(samples: list[float]):
    """(percentile, value, count): the highest ladder percentile with at
    least ten samples beyond it, or None when even the median has fewer."""
    xs = sorted(samples)
    best = None
    for p in TAIL_LADDER:
        k = percentile_index(len(xs), p)
        if len(xs) - (k + 1) >= 10:
            best = (p, xs[k], len(xs))
    return best
