"""Every demo script runs to completion without writing to stderr and prints
the text pinned in `demo_transcript/<name>.txt`, byte for byte, and README's
library quickstart returns the values its comments name.

A change that means to alter a demo's output rewrites the pins with
`PYTHONPATH=src python tests/test_demos.py --write` and shows the
difference in its diff.
"""

import ast
import glob
import os
import subprocess
import sys
from functools import lru_cache

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))
PINS = os.path.join(ROOT, "tests", "demo_transcript")


def test_there_are_five_demos():
    assert len(DEMOS) == 5


@lru_cache(maxsize=None)
def _run(path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, path], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def _pin(path):
    return os.path.join(PINS, os.path.basename(path)[:-3] + ".txt")


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path):
    proc = _run(path)
    assert proc.returncode == 0 and proc.stderr == ""


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_output_is_unchanged(path):
    with open(_pin(path)) as f:
        assert _run(path).stdout == f.read()


def _quickstart():
    """The code of README's "Library quickstart" section, as one string."""
    with open(os.path.join(ROOT, "README.md")) as f:
        section = f.read().split("\n## Library quickstart\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quickstart_returns_what_its_comments_say():
    # each statement that ends in `# value` is an expression whose str is value
    code = _quickstart()
    lines = code.splitlines()
    scope = {}
    checked = 0
    for stmt in ast.parse(code).body:
        source = ast.get_source_segment(code, stmt)
        comment = lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip()
        if not comment:
            exec(source, scope)
            continue
        assert comment.startswith("#") and isinstance(stmt, ast.Expr), source
        assert str(eval(source, scope)) == comment[1:].strip(), source
        checked += 1
    assert checked >= 5


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    os.makedirs(PINS, exist_ok=True)
    for path in DEMOS:
        with open(_pin(path), "w") as f:
            f.write(_run(path).stdout)
