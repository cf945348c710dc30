"""Every name a library module or a test module imports is used in that
module.

No linter runs on the package, so this parses each module under
``src/quintic_flow`` (the package ``__init__``, which imports to re-export,
aside) and under ``tests``, and fails on an imported name that no later
expression reads.  An import kept for its side effect says so as flake8
would, ``# noqa: F401`` on its line."""
import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "quintic_flow"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(p.name for p in TESTS.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if (getattr(node, "module", None) == "__future__"
                or "# noqa: F401" in lines[node.lineno - 1]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_modules_are_found():
    assert "group.py" in MODULES and "verify.py" in MODULES
    assert "_reference.py" in TEST_MODULES and "test_imports.py" in TEST_MODULES


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


@pytest.mark.parametrize("module", TEST_MODULES)
def test_no_unused_imports_in_tests(module):
    assert unused_imports((TESTS / module).read_text()) == []


def test_an_unused_import_is_caught():
    source = ("from __future__ import annotations\n"
              "import numpy as np\nfrom typing import Callable, Optional\n"
              "import os.path\nimport numpy.random  # noqa: F401\n"
              "x: Optional[int] = np.zeros(1)\n")
    assert unused_imports(source) == ["Callable (line 3)", "os (line 4)"]
