"""Every demo script runs to completion without writing to stderr, and
README's library quickstart returns the values its comments name."""

import ast
import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_there_are_five_demos():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, path], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0 and proc.stderr == ""


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
