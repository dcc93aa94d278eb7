"""Every name a `tuttekit` module imports is used in that module, no
module imports another module's private (`_`-prefixed) name, and every
public module-level function or class is used by some module, exported by
`__init__` or wrapped by the benchmark's tracer.

Read with `ast` from the source files alone (and `bench/tracing.py`, read
only); `__init__.py`, which imports names to export them, is exempt from
the first check.
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


TRACING = SRC.parents[1] / "bench" / "tracing.py"


def defined_names(source):
    """The public functions and classes a module's source defines at module
    level, in order."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def referenced_names(source):
    """Every name a module's source reads, bare or as an attribute, or
    imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    return names


def traced_names():
    """The module-level names that bench/tracing.py's TARGETS wraps: the
    first part of each qualified name."""
    tree = ast.parse(TRACING.read_text())
    targets = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                   and [target.id for target in node.targets] == ["TARGETS"])
    return {qualname.split(".")[0] for _, qualname, _ in ast.literal_eval(targets)}


def orphan_names(sources, traced):
    """The public module-level functions and classes of the sources that no
    source reads or imports (`__init__` imports what it exports) and that
    are not traced, sorted.  An attribute of the same name counts as a read,
    so the check errs towards keeping a name."""
    used = set(traced).union(*(referenced_names(source) for source in sources))
    return sorted(name for source in sources for name in defined_names(source)
                  if name not in used)


def test_every_public_name_is_used_exported_or_traced():
    sources = [path.read_text() for path in EVERY_MODULE]
    assert orphan_names(sources, traced_names()) == []


def test_an_orphan_name_is_found():
    module = ("def kept(x):\n    return helper(x)\n"
              "def helper(x):\n    return x\n"
              "def oracle(n):\n    return n\n"
              "def wrapped():\n    pass\n"
              "class Value:\n    pass\n")
    init = "from .module import kept\n"
    assert orphan_names([module, init], {"wrapped"}) == ["Value", "oracle"]
