"""CLI exit codes, stdout contracts, and JSON output determinism."""

import importlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import stochord
from stochord.cli import main

_SRC = str(Path(stochord.__file__).resolve().parent.parent)
_ROOT = Path(__file__).resolve().parent.parent
_HEAVY = "sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy'))"


def _python(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports stochord from this tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)


def test_compare_holds_exits_zero(capsys):
    rc = main(["compare", "--class", "IHR", "--a", "3,5", "--b", "2,4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "order=icv" in out
    assert "status=holds" in out


def test_compare_undetermined_exits_two(capsys):
    rc = main(["compare", "--class", "DDA", "--a", "2,3", "--b", "3,5"])
    out = capsys.readouterr().out
    assert rc == 2
    assert "status=undetermined" in out
    assert "inf Z" in out


def test_compare_auto_picks_ss_for_star_classes(capsys):
    rc = main(["compare", "--class", "DHRA", "--a", "2,3", "--b", "3,5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "order=ss" in out


def test_compare_rejects_unknown_class(capsys):
    rc = main(["compare", "--class", "XYZ", "--a", "2,3", "--b", "3,5"])
    err = capsys.readouterr().err
    assert rc == 64
    assert "XYZ" in err
    assert "DD" in err  # lists the valid names


def test_compare_rejects_malformed_spec(capsys):
    assert main(["compare", "--class", "ID", "--a", "3", "--b", "2,4"]) == 64
    capsys.readouterr()
    assert main(["compare", "--class", "ID", "--a", "5,3", "--b", "2,4"]) == 64
    capsys.readouterr()


def test_unknown_option_is_usage_error(capsys):
    assert main(["compare", "--klass", "ID", "--a", "2,3", "--b", "2,3"]) == 64
    capsys.readouterr()


def test_compare_json_is_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["compare", "--class", "ID", "--a", "3,5", "--b", "2,4"]
    assert main(args + ["--json", str(out1)]) == 0
    assert main(args + ["--json", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    assert not list(tmp_path.glob("*.tmp.*")), "atomic write left temp files"

    payload = json.loads(out1.read_text())
    assert payload["command"] == "compare"
    assert payload["class"] == "ID"
    assert payload["status"] == "holds"
    assert payload["a"] == {"i": 3, "n": 5}
    assert set(payload) >= {"config", "order", "lhs_witness", "rhs_witness",
                            "condition"}


def test_region_stdout(capsys):
    rc = main(["region", "--class", "DDA", "-n", "3", "-m", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "i,j,class"
    assert len(lines) == 13
    assert lines[1].startswith("1,1,")


def test_region_csv_file(tmp_path, capsys):
    path = tmp_path / "map.csv"
    rc = main(["region", "--class", "DHRA", "-n", "3", "-m", "5",
               "--csv", str(path)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == ""  # redirected
    text = path.read_text()
    assert text.startswith("i,j,class\n")
    assert "NoComparability" in text


def test_region_rejects_n_greater_than_m(capsys):
    assert main(["region", "--class", "DDA", "-n", "5", "-m", "4"]) == 64
    capsys.readouterr()


def test_bounds_table_matches_golden(golden_dir, capsys):
    rc = main(["bounds-table", "-n", "10"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == (golden_dir / "table1_n10.csv").read_text()


def test_verify_ss_exit_codes(capsys):
    assert main(["verify-ss", "--frame", "DHRA", "--a", "2,3", "--b", "3,5"]) == 0
    out = capsys.readouterr().out
    assert "frame=DHRA" in out and "status=holds" in out

    assert main(["verify-ss", "--frame", "DDA", "--a", "2,3", "--b", "3,5"]) == 2
    out = capsys.readouterr().out
    assert "status=undetermined" in out
    assert "inf_z=" in out


@pytest.mark.parametrize("argv", [
    ["verify-ss", "--frame", "DDA", "--a", "1,2", "--b", "600,1200"],
    ["verify-ss", "--frame", "DDA", "--a", "1,1", "--b", "1000,2000"],
    ["verify-ss", "--frame", "DDA", "--a", "1000,2000", "--b", "1,1"],
    ["compare", "--class", "DDA", "--a", "1,2", "--b", "600,1200"],
    ["region", "--class", "DDA", "-n", "1", "-m", "2000"],
])
def test_dda_answers_where_the_kernel_constant_leaves_double_range(argv, capsys):
    # |ln B(i,n-i+1) - ln B(j,m-j+1)| > 709, where exp over- or underflows,
    # for each pair here and for the middle band cells of the map
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc in (0, 2), captured.err
    assert captured.err == ""
    if argv[0] == "region":
        assert len(captured.out.splitlines()) == 1 + 2000


def test_data_interval_carbon(data_dir, tmp_path, capsys):
    csv = str(data_dir / "carbon_fibers.csv")
    rc = main(["data-interval", "--data", csv, "--spec", "20,100",
               "--lower-class", "DRHR", "--upper-class", "IOR"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "rank_lo=20 rank_hi=20" in out
    assert "x_lo=1.69 x_hi=1.69" in out
    assert "n_data=100 feasible=true" in out

    json_path = tmp_path / "interval.json"
    rc = main(["data-interval", "--data", csv, "--spec", "20,100",
               "--lower-class", "DRHR", "--upper-class", "IOR",
               "--json", str(json_path)])
    capsys.readouterr()
    assert rc == 0
    payload = json.loads(json_path.read_text())
    assert payload["rank_lo"] == 20 and payload["rank_hi"] == 20
    assert payload["x_lo"] == 1.69 and payload["x_hi"] == 1.69
    assert payload["feasible"] is True


def test_data_interval_rank_of_a_rational_bound_is_exact(data_dir, capsys):
    # p_hi = 7/100 is x_(7), although 100 * 0.07 rounds to 7.000000000000001
    rc = main(["data-interval", "--data", str(data_dir / "carbon_fibers.csv"),
               "--spec", "7,100", "--lower-class", "DRHR", "--upper-class", "IOR"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "rank_lo=7 rank_hi=7 x_lo=1.17 x_hi=1.17" in out


def test_data_interval_infeasible_exit_two(data_dir, capsys):
    csv = str(data_dir / "carbon_fibers.csv")
    rc = main(["data-interval", "--data", csv, "--spec", "9,10",
               "--lower-class", "DOR", "--upper-class", "ID"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "feasible=false" in captured.out
    assert "infeasible" in captured.err


def test_data_interval_missing_file(tmp_path, capsys):
    rc = main(["data-interval", "--data", str(tmp_path / "nope.csv"),
               "--spec", "3,10", "--lower-class", "DD", "--upper-class", "IHR"])
    capsys.readouterr()
    assert rc == 64


def test_data_interval_malformed_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("value\n1.5\ntwo\n3.0\n")
    rc = main(["data-interval", "--data", str(bad), "--spec", "3,10",
               "--lower-class", "DD", "--upper-class", "IHR"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:")
    assert ":3:" in err  # names the offending line


@pytest.mark.parametrize("argv", [
    ["verify-ss", "--frame", "DDA", "--a", "2,3", "--b", "3,5", "--json"],
    ["bounds-table", "-n", "3", "--csv"],
], ids=["verify-ss", "bounds-table"])
def test_unwritable_output_path_is_a_runtime_error(argv, tmp_path):
    argv = [*argv, str(tmp_path / "no_such_dir" / "out")]
    proc = _python(f"from stochord.cli import main; raise SystemExit(main({argv!r}))")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


_VERIFY_SS_JSON = ["verify-ss", "--frame", "DDA", "--a", "2,3", "--b", "3,5", "--json"]


def test_failed_write_names_the_path_given(data_dir, tmp_path, capsys):
    # the file is written before anything is printed, so a failed write
    # leaves stdout empty and stderr with the error alone; the data-interval
    # run is infeasible, so it would also print a note
    path = str(tmp_path / "no_such_dir" / "x.json")
    for argv in (
        ["compare", "--class", "DDA", "--a", "2,3", "--b", "3,5", "--json"],
        _VERIFY_SS_JSON,
        ["data-interval", "--data", str(data_dir / "carbon_fibers.csv"), "--spec", "9,10",
         "--lower-class", "DOR", "--upper-class", "ID", "--json"],
        ["probe", "--order", "st", "--reference", "uniform", "--a", "3,5", "--b", "2,5",
         "--json"],
    ):
        assert main([*argv, path]) == 1, argv[0]
        out, err = capsys.readouterr()
        assert out == "", argv[0]
        assert err.startswith("error:") and err.count("\n") == 1, argv[0]
        assert repr(path) in err
        assert ".tmp." not in err
    # region writes both outputs or neither: the CSV that could be written
    # is not left behind by the JSON that could not
    csv_path = tmp_path / "r.csv"
    assert main(["region", "--class", "DDA", "-n", "2", "-m", "3",
                 "--csv", str(csv_path), "--json", path]) == 1
    out, err = capsys.readouterr()
    assert out == "" and repr(path) in err
    assert list(tmp_path.iterdir()) == []


def test_failed_replace_leaves_no_temp_file(tmp_path, capsys, monkeypatch):
    def refuse(src, dst):  # the message os.replace gives names both files
        raise PermissionError(13, "Permission denied", src, None, dst)

    monkeypatch.setattr(os, "replace", refuse)
    path = str(tmp_path / "x.json")
    assert main([*_VERIFY_SS_JSON, path]) == 1
    err = capsys.readouterr().err
    assert repr(path) in err and ".tmp." not in err
    assert list(tmp_path.iterdir()) == []


def test_probe_exit_codes(capsys):
    assert main(["probe", "--order", "st", "--reference", "uniform",
                 "--a", "3,5", "--b", "2,5"]) == 0
    out = capsys.readouterr().out
    assert "passed=true" in out

    assert main(["probe", "--order", "st", "--reference", "uniform",
                 "--a", "2,5", "--b", "3,5"]) == 2
    capsys.readouterr()


def test_probe_ss_on_signed_support_is_usage_error(capsys):
    rc = main(["probe", "--order", "ss", "--reference", "logistic",
               "--a", "2,5", "--b", "2,5"])
    err = capsys.readouterr().err
    assert rc == 64
    assert "nonnegative support" in err


def _reject_constant(name: str):
    raise ValueError(f"non-strict JSON constant {name}")


@pytest.mark.parametrize("argv, expected", [
    (["compare", "--class", "DROR", "--a", "2,5", "--b", "3,4"], {"order": "icx"}),
    (["compare", "--class", "DDA", "--a", "2,3", "--b", "3,5"], {"order": "ss"}),
    (["region", "--class", "DHRA", "-n", "3", "-m", "4"], {"frame": "DHRA"}),
    (["verify-ss", "--frame", "DDA", "--a", "2,3", "--b", "3,5"], {"frame": "DDA"}),
    # the IOR mean diverges at i = n
    (["data-interval", "--data", "CARBON", "--spec", "100,100",
      "--lower-class", "DROR", "--upper-class", "IOR"],
     {"transformed_mean_hi": "inf"}),
    # the x/(1+x) sample maximum has an infinite upper partial mean
    (["probe", "--order", "icx", "--reference", "log-logistic-1",
      "--a", "3,3", "--b", "2,3", "--grid-size", "5"], {"worst_margin": "-inf"}),
], ids=["compare-icx", "compare-ss", "region", "verify-ss", "data-interval", "probe"])
def test_json_payloads_are_strict_json(argv, expected, data_dir, tmp_path, capsys):
    argv = [str(data_dir / "carbon_fibers.csv") if a == "CARBON" else a for a in argv]
    path = tmp_path / "out.json"
    rc = main([*argv, "--json", str(path)])
    capsys.readouterr()
    assert rc in (0, 2)
    payload = json.loads(path.read_text(), parse_constant=_reject_constant)
    assert payload["command"] == argv[0]
    assert payload.items() >= expected.items()


def test_version_via_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "stochord.cli", "--version"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "stochord, version 0.1.0"


def test_importing_the_cli_loads_no_numpy_or_scipy():
    proc = _python(f"import sys, stochord.cli; print({_HEAVY})")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ["compare", "--class", "IHR", "--a", "3,5", "--b", "2,4"],
    ["compare", "--class", "DROR", "--a", "2,5", "--b", "3,4"],
    ["bounds-table", "-n", "200"],
    ["data-interval", "--data", "CARBON", "--spec", "20,100",
     "--lower-class", "DRHR", "--upper-class", "IOR"],
    ["verify-ss", "--frame", "DDA", "--a", "2,3", "--b", "3,5"],
    ["compare", "--class", "DDA", "--a", "2,3", "--b", "3,5"],
    ["region", "--class", "DDA", "-n", "5", "-m", "8"],
    ["verify-ss", "--frame", "DHRA", "--a", "2,3", "--b", "3,5"],
    ["compare", "--class", "DHRA", "--a", "2,3", "--b", "3,5"],
    ["region", "--class", "DHRA", "-n", "3", "-m", "4"],
])
def test_closed_form_commands_load_no_numpy_or_scipy(argv, data_dir):
    argv = [str(data_dir / "carbon_fibers.csv") if a == "CARBON" else a for a in argv]
    proc = _python("import sys; from stochord.cli import main; "
                   f"rc = main({argv!r}); print(rc, {_HEAVY})")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] in ("0 []", "2 []")


def test_scipy_commands_load_no_scipy_stats():
    argvs = [["probe", "--order", order, "--reference", "exponential",
              "--a", "3,5", "--b", "2,4", "--grid-size", "5"]
             for order in ("st", "ss", "icv", "icx")]
    argvs.append(["verify-ss", "--frame", "DHRA", "--a", "2,3", "--b", "3,5"])
    proc = _python("import sys; from stochord.cli import main\n"
                   f"for argv in {argvs!r}:\n"
                   "    rc = main(argv); print(rc, 'scipy.stats' in sys.modules)\n"
                   "import scipy.stats, stochord.oracle\n"
                   "print(stochord.oracle.stats is scipy.stats)")
    assert proc.returncode == 0, proc.stderr
    flags = [line for line in proc.stdout.splitlines() if line.endswith(("True", "False"))]
    assert len(flags) == len(argvs) + 1, proc.stdout
    for argv, line in zip(argvs, flags):
        assert line in ("0 False", "2 False"), (argv, line)
    # the oracle still hands out scipy.stats on request, for tracing harnesses
    assert flags[-1] == "True"


def test_package_exports_resolve_to_their_defining_modules():
    assert len(set(stochord.__all__)) == len(stochord.__all__)
    assert set(stochord.__all__) <= set(dir(stochord))
    for name in stochord.__all__:
        value = getattr(stochord, name)
        if name == "__version__":
            assert value == "0.1.0"
            continue
        home = importlib.import_module(value.__module__)
        assert home.__name__.startswith("stochord.")
        assert name in home.__all__, name
        assert value is getattr(home, name), name
    with pytest.raises(AttributeError):
        stochord.no_such_name  # noqa: B018


def test_exports_list_each_submodule_all_exactly():
    for module_name, names in stochord._EXPORTS.items():
        module = importlib.import_module(f"stochord.{module_name}")
        assert set(module.__all__) == set(names), module_name


def _readme_examples() -> list[tuple[list[str], str]]:
    """(argv, stdout) of every `$ stochord ...` example in README.md that
    shows its output; a trailing backslash continues the command."""
    lines = (_ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    examples = []
    k = 0
    while k < len(lines):
        command, k = lines[k], k + 1
        if not command.startswith("$ stochord "):
            continue
        while command.endswith("\\"):
            command, k = command[:-1] + " " + lines[k], k + 1
        output = []
        while k < len(lines) and lines[k] and not lines[k].startswith(("$ ", "```")):
            output.append(lines[k] + "\n")
            k += 1
        if output:
            examples.append((shlex.split(command)[2:], "".join(output)))
    return examples


_README_EXAMPLES = _readme_examples()


def _readme_example_id(k: int) -> str:
    """The example's subcommand; a repeated subcommand adds its first option's
    value, as in verify-ss-DHRA."""
    argv = _README_EXAMPLES[k][0]
    repeated = argv[0] in (earlier[0] for earlier, _ in _README_EXAMPLES[:k])
    return f"{argv[0]}-{argv[2]}" if repeated else argv[0]


def test_readme_examples_are_all_collected():
    assert [argv[0] for argv, _ in _README_EXAMPLES] == [
        "compare", "verify-ss", "verify-ss", "data-interval", "probe"]


@pytest.mark.parametrize("argv, stdout", _README_EXAMPLES,
                         ids=[_readme_example_id(k) for k in range(len(_README_EXAMPLES))])
def test_readme_example_output_is_byte_exact(argv, stdout, capsys, monkeypatch):
    monkeypatch.chdir(_ROOT)
    rc = main(argv)
    assert capsys.readouterr().out == stdout
    assert rc in (0, 2)
