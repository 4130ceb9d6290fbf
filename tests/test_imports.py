"""Every name a stochord module imports is used there, every third-party
module it imports is a declared dependency, and each module imports only the
third-party modules allowed to it."""

import ast
import pathlib
import re
import sys

import pytest

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_SRC = _ROOT / "src" / "stochord"


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


def third_party_imports(source: str) -> set[str]:
    """Top-level modules that source imports, other than the standard
    library's, stochord itself and relative imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"stochord"}


def test_third_party_imports_are_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    project = tomllib.loads((_ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower() for dep in project["dependencies"]}
    imported = set().union(*(third_party_imports(p.read_text()) for p in _SRC.glob("*.py")))
    assert imported == declared


# Third-party modules each stochord module may import; the others import none.
_ALLOWED_THIRD_PARTY = {
    "oracle": {"numpy", "scipy"},  # the independent scipy referee
    "cli": {"click"},
    "orderstat": {"scipy"},  # the quad binding perfbench's tracer replaces
}


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")), ids=lambda p: p.name)
def test_third_party_imports_stay_in_their_modules(path):
    # the AST walk also sees imports inside functions
    allowed = _ALLOWED_THIRD_PARTY.get(path.stem, set())
    assert third_party_imports(path.read_text()) <= allowed
