"""The golden generator rebuilds tests/golden byte for byte.

scripts/gen_goldens.py derives both goldens from scipy alone, independently
of the package; running it here keeps that referee from drifting away from
the files the package is compared against.
"""

import importlib.util
import pathlib

_SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "gen_goldens.py"


def test_gen_goldens_reproduces_the_golden_files(golden_dir, tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("gen_goldens", _SCRIPT)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    gen.GOLDEN = tmp_path
    gen.write_table(10)
    gen.write_region(20, 30)
    capsys.readouterr()
    for name in ("table1_n10.csv", "region_dda_20_30.csv"):
        assert (tmp_path / name).read_bytes() == (golden_dir / name).read_bytes(), name
