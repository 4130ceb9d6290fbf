"""Command line front end.

Exit codes follow a sysexits-flavoured convention:

    0   the requested ordering/probe holds (or the command just produced output)
    2   the check ran fine but the property is undetermined, violated, or the
        requested interval is infeasible
    1   a runtime failure: a bad data file, an unwritable output path, or an
        incomplete beta that does not converge
    64  malformed usage: unknown class, unparsable rank spec, bad flag

All file outputs are written atomically (temp file + rename) with LF line
endings, and payloads are deterministic: the same resolved options yield
byte-identical bytes, so outputs can be committed as goldens.  JSON payloads
are strict JSON: a non-finite float is written as the string "inf", "-inf"
or "nan", never as a bare Infinity or NaN.

Only `probe` loads numpy or scipy.  `compare` on a non-star class,
`bounds-table` and `data-interval` are closed forms over the standard
library (conditions, bounds, refdist, specfun), and the ss verdicts
(`compare`, `region` and `verify-ss` in the DDA and DHRA frames) evaluate
ssverify's criterion with the same special functions, so none of them
imports numpy or scipy.  `probe` imports the oracle, which is built on
scipy by design (numpy, scipy.special and scipy.integrate; no subcommand
loads scipy.stats).  Those modules are imported inside the commands, and
their functions are looked up on the module at call time (`_ss` for the
DDA/DHRA functions, `_probes` for the oracle's), so a function replaced on
its module (as a tracing harness does) is the one that runs.
"""

from __future__ import annotations

import contextlib
import json
import math
import os

import click

from . import __version__
from .bounds import bound_table_csv, ecdf_plugin_interval
from .conditions import (
    ShapeClass,
    TransformKind,
    check_icv,
    check_icx,
)
from .refdist import OrderStatSpec, ReferenceDistribution

__all__ = ["main", "cli", "CliUsageError"]

# the star-shaped classes, which are also the frames of `region` and `verify-ss`
_SS_FRAMES = [c.value for c in ShapeClass if c.transform is TransformKind.STAR_SHAPED]


class CliUsageError(click.UsageError):
    """Usage-level mistake; maps to exit code 64."""

    exit_code = 64


def _parse_spec(text: str, flag: str) -> OrderStatSpec:
    parts = text.split(",")
    if len(parts) != 2:
        raise CliUsageError(f"{flag} expects 'i,n', got {text!r}")
    try:
        i, n = int(parts[0]), int(parts[1])
    except ValueError:
        raise CliUsageError(f"{flag} expects two integers 'i,n', got {text!r}") from None
    try:
        return OrderStatSpec(i, n)
    except ValueError as exc:
        raise CliUsageError(f"{flag}: {exc}") from None


def _parse_class(name: str) -> ShapeClass:
    try:
        return ShapeClass(name.upper())
    except ValueError:
        valid = ", ".join(c.value for c in ShapeClass)
        raise CliUsageError(f"unknown shape class {name!r}; valid: {valid}") from None


def _parse_reference(name: str) -> ReferenceDistribution:
    try:
        return ReferenceDistribution(name.lower())
    except ValueError:
        valid = ", ".join(d.value for d in ReferenceDistribution)
        raise CliUsageError(f"unknown reference {name!r}; valid: {valid}") from None


def _write_atomic(*outputs: tuple[str, str]) -> None:
    """Write each (path, text) through a temporary file beside its path, all
    before the first rename, so a failed write replaces no path; a failure is
    reported against its path and leaves no temporary file behind."""
    tmps = [f"{path}.tmp.{os.getpid()}.{k}" for k, (path, _) in enumerate(outputs)]
    try:
        for tmp, (path, text) in zip(tmps, outputs):
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        for tmp, (path, _) in zip(tmps, outputs):
            os.replace(tmp, path)
    except OSError as exc:
        for tmp in tmps:
            with contextlib.suppress(OSError):  # not created, or renamed already
                os.remove(tmp)
        raise OSError(exc.errno, exc.strerror, path) from exc


def _jsonable(v):
    if isinstance(v, float) and not math.isfinite(v):
        if math.isnan(v):
            return "nan"
        return "inf" if v > 0 else "-inf"
    return v


def _dump_json(command: str, config: dict, body: dict) -> str:
    """The payload of one invocation: its resolved options under "config",
    then the body, with every top-level non-finite float spelled out."""
    payload = {
        "command": command,
        "config": {k: _jsonable(v) for k, v in config.items()},
        **{k: _jsonable(v) for k, v in body.items()},
    }
    return json.dumps(payload, indent=2, sort_keys=True, default=str,
                      allow_nan=False) + "\n"


def _spec_obj(s: OrderStatSpec) -> dict:
    return {"i": s.i, "n": s.n}


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _ss(kind: str, frame: str):
    """ssverify's `kind` function ("check_ss" or "region_map") for a
    star-shaped frame ("DDA" or "DHRA"), read off the module at call time."""
    from . import ssverify

    return getattr(ssverify, f"{kind}_{frame.lower()}")


@click.group()
@click.version_option(__version__, prog_name="stochord")
def cli() -> None:
    """Decide stochastic orderings between order statistics under shape
    assumptions on the parent distribution, and derive distribution-free
    bounds for order-statistic means."""


@cli.command()
@click.option("--class", "class_name", required=True, metavar="CLASS",
              help=f"Shape class of the parent ({', '.join(c.value for c in ShapeClass)}).")
@click.option("--a", "a_text", required=True, metavar="I,N",
              help="Left order statistic, rank and sample size.")
@click.option("--b", "b_text", required=True, metavar="J,M",
              help="Right order statistic.")
@click.option("--json", "json_path", default=None, type=click.Path(dir_okay=False),
              help="Also write the verdict as JSON to this path.")
def compare(class_name: str, a_text: str, b_text: str, json_path) -> int:
    """Test X_a >= X_b in the order the shape class supports: icv for the
    concave-transform classes, icx for the convex ones, ss for DDA and DHRA.

    Exit 0 when the sufficient condition holds, 2 when undetermined."""
    shape = _parse_class(class_name)
    a = _parse_spec(a_text, "--a")
    b = _parse_spec(b_text, "--b")
    if shape.transform is TransformKind.CONCAVE:
        verdict = check_icv(shape, a, b)
    elif shape.transform is TransformKind.CONVEX:
        verdict = check_icx(shape, a, b)
    else:
        verdict = _ss("check_ss", shape.value)(a, b)
    if json_path:
        config = {"class": shape.value, "a": a_text, "b": b_text,
                  "order": verdict.order}
        _write_atomic((json_path, _dump_json("compare", config, {
            "a": _spec_obj(a),
            "b": _spec_obj(b),
            "class": shape.value,
            "order": verdict.order,
            "status": verdict.status.value,
            "lhs_witness": verdict.lhs_witness,
            "rhs_witness": verdict.rhs_witness,
            "condition": verdict.condition_name,
        })))
    click.echo(
        f"order={verdict.order} status={verdict.status.value} "
        f"lhs={_fmt(verdict.lhs_witness)} rhs={_fmt(verdict.rhs_witness)} "
        f'condition="{verdict.condition_name}"'
    )
    return 0 if verdict.holds else 2


@cli.command()
@click.option("--class", "class_name", required=True,
              type=click.Choice(_SS_FRAMES, case_sensitive=False),
              help="Star-shaped frame for the map.")
@click.option("-n", "n", required=True, type=click.IntRange(min=1))
@click.option("-m", "m", required=True, type=click.IntRange(min=1))
@click.option("--csv", "csv_path", default=None, type=click.Path(dir_okay=False))
@click.option("--json", "json_path", default=None, type=click.Path(dir_okay=False))
def region(class_name: str, n: int, m: int, csv_path, json_path) -> int:
    """Classify every (i, j) cell of the n-by-m comparability map.

    Cells read HoldsSS_ij, HoldsSS_ji, NoComparability, NeedsCheck_Pass, or
    NeedsCheck_Fail.  CSV goes to stdout unless --csv/--json redirect it."""
    if n > m:
        raise CliUsageError(f"region map needs n <= m, got n={n} m={m}")
    rmap = _ss("region_map", class_name)(n, m)
    csv_text = rmap.to_csv()
    outputs = [(csv_path, csv_text)] if csv_path else []
    if json_path:
        config = {"class": class_name.upper(), "n": n, "m": m}
        outputs.append((json_path, _dump_json("region", config, rmap.to_json_obj())))
    if outputs:
        _write_atomic(*outputs)
    else:
        click.echo(csv_text, nl=False)
    return 0


@cli.command("bounds-table")
@click.option("-n", "n", required=True, type=click.IntRange(min=1),
              help="Sample size; columns run i = 1..n.")
@click.option("--csv", "csv_path", default=None, type=click.Path(dir_okay=False))
def bounds_table_cmd(n: int, csv_path) -> int:
    """Exceedance-bound table: rows LL, E, U, E- by reference, columns by rank."""
    text = bound_table_csv(n)
    if csv_path:
        _write_atomic((csv_path, text))
    else:
        click.echo(text, nl=False)
    return 0


@cli.command("verify-ss")
@click.option("--frame", required=True,
              type=click.Choice(_SS_FRAMES, case_sensitive=False))
@click.option("--a", "a_text", required=True, metavar="I,N")
@click.option("--b", "b_text", required=True, metavar="J,M")
@click.option("--json", "json_path", default=None, type=click.Path(dir_okay=False))
def verify_ss(frame: str, a_text: str, b_text: str, json_path) -> int:
    """Run the star-shaped criterion and report the worst margin found.

    Exit 0 when the criterion function stays nonnegative, 2 otherwise."""
    a = _parse_spec(a_text, "--a")
    b = _parse_spec(b_text, "--b")
    verdict = _ss("check_ss", frame)(a, b)
    if json_path:
        config = {"frame": frame.upper(), "a": a_text, "b": b_text}
        _write_atomic((json_path, _dump_json("verify-ss", config, {
            "a": _spec_obj(a),
            "b": _spec_obj(b),
            "frame": frame.upper(),
            "status": verdict.status.value,
            "inf_z": verdict.lhs_witness,
            "detail": verdict.condition_name,
        })))
    click.echo(
        f"frame={frame.upper()} status={verdict.status.value} "
        f"inf_z={_fmt(verdict.lhs_witness)} "
        f'detail="{verdict.condition_name}"'
    )
    return 0 if verdict.holds else 2


@cli.command("data-interval")
@click.option("--data", "data_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Text file with one numeric value per line (header allowed).")
@click.option("--spec", "spec_text", required=True, metavar="I,N",
              help="Order statistic whose mean is localised.")
@click.option("--lower-class", required=True, metavar="CLASS",
              help="Convex-side class for the lower bound.")
@click.option("--upper-class", required=True, metavar="CLASS",
              help="Concave-side class for the upper bound.")
@click.option("--json", "json_path", default=None, type=click.Path(dir_okay=False))
def data_interval(data_path: str, spec_text: str, lower_class: str,
                  upper_class: str, json_path) -> int:
    """Trap E X_{i:n} between two sample order statistics.

    Exit 0 on a feasible interval, 2 when the bounds cross."""
    s = _parse_spec(spec_text, "--spec")
    lo_shape = _parse_class(lower_class)
    hi_shape = _parse_class(upper_class)
    data = _read_data_file(data_path)
    result = ecdf_plugin_interval(data, lo_shape, hi_shape, s)
    b = result.bound
    if json_path:
        config = {"data": os.path.basename(data_path), "spec": spec_text,
                  "lower_class": lo_shape.value, "upper_class": hi_shape.value}
        _write_atomic((json_path, _dump_json("data-interval", config, {
            "spec": _spec_obj(s),
            "lower_class": lo_shape.value,
            "upper_class": hi_shape.value,
            "p_lo": b.p_lo,
            "p_hi": b.p_hi,
            "transformed_mean_lo": b.lower.transformed_mean,
            "transformed_mean_hi": b.upper.transformed_mean,
            "rank_lo": result.rank_lo,
            "rank_hi": result.rank_hi,
            "x_lo": result.x_lo,
            "x_hi": result.x_hi,
            "n_data": result.n_data,
            "feasible": b.feasible,
            "note": b.note,
        })))
    click.echo(
        f"p_lo={_fmt(b.p_lo)} p_hi={_fmt(b.p_hi)} "
        f"rank_lo={result.rank_lo} rank_hi={result.rank_hi} "
        f"x_lo={_fmt(result.x_lo)} x_hi={_fmt(result.x_hi)} "
        f"n_data={result.n_data} feasible={'true' if b.feasible else 'false'}"
    )
    if b.note:
        click.echo(b.note, err=True)
    return 0 if b.feasible else 2


def _read_data_file(path: str) -> list[float]:
    values: list[float] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                values.append(float(line))
            except ValueError:
                if lineno == 1:
                    continue  # header
                raise ValueError(f"{path}:{lineno}: not a number: {line!r}") from None
    if not values:
        raise ValueError(f"{path}: no numeric values found")
    return values


_PROBE_ORDERS = ("icv", "icx", "ss", "st")


def _probes() -> dict:
    """Order name -> oracle probe function, as the oracle binds it now."""
    from . import oracle

    return {order: getattr(oracle, f"probe_{order}") for order in _PROBE_ORDERS}


def __getattr__(name: str):
    # `_PROBES`, the probe dispatch table, is built on lookup: importing the
    # CLI must not import the oracle, and with it scipy.
    if name == "_PROBES":
        return _probes()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@cli.command()
@click.option("--order", required=True, type=click.Choice(_PROBE_ORDERS),
              help="Which integral characterisation to test.")
@click.option("--reference", required=True, metavar="REF",
              help="Common reference distribution "
                   f"({', '.join(d.value for d in ReferenceDistribution)}).")
@click.option("--a", "a_text", required=True, metavar="I,N")
@click.option("--b", "b_text", required=True, metavar="J,M")
@click.option("--grid-size", default=61, type=click.IntRange(min=3), show_default=True)
@click.option("--json", "json_path", default=None, type=click.Path(dir_okay=False))
def probe(order: str, reference: str, a_text: str, b_text: str,
          grid_size: int, json_path) -> int:
    """Quadrature cross-check of an ordering on a quantile grid.

    This bypasses every closed form in the package; exit 0 when no grid
    point violates the defining inequality, 2 otherwise."""
    dist = _parse_reference(reference)
    a = _parse_spec(a_text, "--a")
    b = _parse_spec(b_text, "--b")
    from .orderstat import TransformedOrderStat

    try:
        result = _probes()[order](
            TransformedOrderStat(dist, a), TransformedOrderStat(dist, b),
            grid_size=grid_size,
        )
    except ValueError as exc:
        raise CliUsageError(str(exc)) from None
    if json_path:
        config = {"order": order, "reference": dist.value, "a": a_text,
                  "b": b_text, "grid_size": grid_size, "tol": result.tol}
        _write_atomic((json_path, _dump_json("probe", config, {
            "a": _spec_obj(a),
            "b": _spec_obj(b),
            "order": result.order,
            "reference": dist.value,
            "passed": result.passed,
            "worst_margin": result.worst_margin,
            "worst_point": result.worst_point,
            "grid_size": result.grid_size,
            "tol": result.tol,
        })))
    click.echo(
        f"order={result.order} passed={'true' if result.passed else 'false'} "
        f"worst_margin={_fmt(result.worst_margin)} "
        f"worst_point={_fmt(result.worst_point)} grid_size={result.grid_size}"
    )
    return 0 if result.passed else 2


def main(argv=None) -> int:
    try:
        rv = cli.main(args=argv, standalone_mode=False, prog_name="stochord")
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 1
    except click.UsageError as exc:  # CliUsageError too
        exc.show()
        return 64
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    except (ValueError, ArithmeticError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    return rv if isinstance(rv, int) else 0


if __name__ == "__main__":
    raise SystemExit(main())
