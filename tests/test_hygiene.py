"""Source hygiene checks that need only the standard library."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "tubereach"
MODULES = sorted(PACKAGE.glob("*.py"))
TEST_MODULES = sorted(TESTS.glob("*.py"))


def unused_imports(source: str):
    """Names a module imports and never reads.  Names listed in __all__
    count as read (re-exports); __future__ imports are directives."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(name for name in imported if name not in used)


def test_modules_found():
    assert {"chance.py", "reachalgo.py", "cli.py"} <= {m.name for m in MODULES}
    assert {"conftest.py", "oracles.py"} <= {m.name for m in TEST_MODULES}


@pytest.mark.parametrize(
    "path", MODULES + TEST_MODULES,
    ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_flags_unused_and_spares_reexports():
    source = ("from __future__ import annotations\n"
              "import os, json as js\n"
              "from typing import List, Optional\n"
              "from .x import Kept\n"
              "__all__ = ['Kept']\n"
              "def f(a: Optional[int]) -> None:\n"
              "    return os.path.join('a')\n")
    assert unused_imports(source) == ["List", "js"]
