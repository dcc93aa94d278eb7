"""Every name a `tuttekit` module imports is used in that module.

Read with `ast` from the source files alone; `__init__.py`, which imports
names to export them, is exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tuttekit"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def unused_imports(source):
    """The names bound by the imports of a module's source that nothing in
    it reads, in the order imported."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = ("from .linalg import extend_basis, hold_row\n"
              "import numpy as np\n"
              "def f(basis, row):\n"
              "    return hold_row(basis, row), np.zeros(1)\n")
    assert unused_imports(source) == ["extend_basis"]
