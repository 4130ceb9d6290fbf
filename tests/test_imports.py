"""Every name a stochord module imports is used there."""

import ast
import pathlib

import pytest

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "stochord"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read, except on lines marked
    ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            # `import a.b` binds `a`
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_detector():
    source = (
        "from __future__ import annotations\n"
        "import os, json\n"
        "import numpy as np\n"
        "from .a import used, unused\n"
        "from .b import hook  # noqa: F401\n"
        "def f():\n"
        "    return used(np.pi, os.sep)\n"
    )
    assert unused_imports(source) == ["json (line 2)", "unused (line 4)"]
