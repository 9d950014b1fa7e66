"""Every module of the library, of scripts/ and of tests/ uses each name it imports.

iprox/__init__.py is left out: it imports names to re-export them.
tests/test_acceptance.py is left out too: it stays as it is, with its one
unread import (gen_grouped_regression).
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    path
    for path in [
        *(ROOT / "src" / "iprox").glob("*.py"), *(ROOT / "scripts").glob("*.py"), *(ROOT / "tests").glob("*.py"),
    ]
    if path.name not in ("__init__.py", "test_acceptance.py")
)


def unused_imports(source):
    """The names a module's import statements bind and no other line reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # import a.b binds a
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_modules_are_found():
    names = {path.name for path in MODULES}
    assert {"solvers.py", "prox.py", "trace_keys.py", "test_prox.py", "conftest.py"} <= names
    assert "test_acceptance.py" not in names


def test_an_unread_import_is_reported():
    assert unused_imports("import math\nimport numpy as np\nfrom os import path, sep\nnp.zeros(path)\n") == [
        "math (line 1)",
        "sep (line 3)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=[f"{path.parent.name}/{path.name}" for path in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
