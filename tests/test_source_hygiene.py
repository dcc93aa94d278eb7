"""Every name a `tuttekit` module imports is used in that module, and no
module imports another module's private (`_`-prefixed) name.

Read with `ast` from the source files alone; `__init__.py`, which imports
names to export them, is exempt from the first check.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tuttekit"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")
EVERY_MODULE = sorted(SRC.glob("*.py"))


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


def private_imports(source):
    """The `_`-prefixed names that a module's source imports from another
    module, in the order imported."""
    return [alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.name.startswith("_")]


@pytest.mark.parametrize("path", EVERY_MODULE, ids=lambda path: path.name)
def test_no_private_name_is_imported(path):
    assert private_imports(path.read_text()) == []


def test_a_private_import_is_found():
    source = ("from .tutte import _expand, expand_rank_table\n"
              "from . import families\n"
              "import numpy as np\n")
    assert private_imports(source) == ["_expand"]
