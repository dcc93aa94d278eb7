"""Exact CLI output, pinned by a committed transcript.

`cli_transcript/transcript.txt` holds command lines with their exit code,
stdout and stderr, byte for byte: every verb in text, structured and latex
form on small inputs, `poset` and `tutte` on every catalog family, one
over-budget run per budget charge site and the family parameter errors.  A
record is a `$ <argv>` line, an `exit <code>` line, then one `| <line>` per
stdout line and one `! <line>` per stderr line; `{dir}` in an argument
stands for the `cli_transcript` directory.

A change that means to alter the output rewrites the transcript with
`PYTHONPATH=src python tests/test_cli_transcript.py --write` and shows the
difference in its diff.
"""

import contextlib
import io
import os
import sys

import pytest

from tuttekit.cli import main

DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_transcript")
TRANSCRIPT = os.path.join(DIR, "transcript.txt")

COMMANDS = [
    base + fmt
    for base in (
        "family braid --n 3 tutte",
        "family bc --n 3 char",
        "family shi --n 3 coboundary",
        "family braid --n 4 invariants",
        "family generic --n 6 --d 3 poset",
        "family graphical --n 5 --graph {dir}/graph.txt multivariate",
        "family bc --n 3 check",
        "arith tutte --input {dir}/b3.txt",
        "arith zonotope --input {dir}/b3.txt",
        "arith char --input {dir}/b3.txt",
        "toric --input {dir}/b3.txt --q 4",
        "arith toric --input {dir}/b3.txt --q 12",
    )
    for fmt in ("", " --format structured", " --format latex")
] + [
    "family braid --n 4 tutte --method delcon",
    "family graphical --n 5 --graph {dir}/graph.txt tutte --method activity",
    "family shi --n 3 tutte --method finite-field --format structured",
    "family generic --n 6 --d 3 coboundary --method finite-field",
    "tutte --input {dir}/affine.json",
    "invariants --input {dir}/affine.json --format structured",
    "family bc --n 3 multivariate --format latex",
    "family braid --n 5 poset",
    "family braid --n 5 poset --format structured",
    "family shi --n 3 poset",
] + [
    "family %s %s" % (family, verb)
    for family in ("coordinate --n 3", "dn --n 3", "threshold --n 3", "catalan --n 3",
                   "all_linear --p 2 --n 3", "bipartite --m 2 --n 2")
    for verb in ("poset", "tutte")
] + [
    # one over-budget run per site that charges a running total, then the
    # up-front checks and the family parameter errors
    "family braid --n 5 tutte --method subset --budget 20",
    "family braid --n 4 tutte --method activity --budget 20",
    "family braid --n 4 tutte --method delcon --budget 20",
    "family braid --n 4 poset --budget 5",
    "family braid --n 4 poset --budget 11",
    "family braid --n 4 poset --budget 17",
    "family shi --n 3 multivariate --budget 40",
    "family braid --n 4 multivariate --budget 100",
    "family generic --n 6 --d 3 tutte --budget 5",
    "family all_linear --p 2 --n 3 tutte --budget 6",
    "family braid --n 3 --k 2 tutte --budget 5",
    "arith tutte --input {dir}/b3.txt --budget 511",
    "toric --input {dir}/b3.txt --q 4 --budget 63",
    "family nosuch --n 3 tutte",
    "family braid tutte",
    "family braid --n 0 tutte",
]


def _run(command):
    argv = [a.replace("{dir}", DIR) for a in command.split()]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _record(command, code, out, err):
    lines = ["$ " + command, "exit %d" % code]
    lines += ["| " + line for line in out.splitlines()]
    lines += ["! " + line for line in err.splitlines()]
    return "\n".join(lines) + "\n"


def _read():
    """{command: its record}, in transcript order."""
    with open(TRANSCRIPT) as f:
        records = ("\n" + f.read()).split("\n$ ")[1:]
    return {r.partition("\n")[0]: "$ " + r.rstrip("\n") + "\n" for r in records}


def test_the_transcript_covers_the_commands():
    assert list(_read()) == COMMANDS


@pytest.mark.parametrize("command", COMMANDS)
def test_output_matches_the_transcript(command):
    code, out, err = _run(command)
    # the record keeps lines, so each stream must end with a newline
    assert all(not text or text.endswith("\n") for text in (out, err))
    assert _record(command, code, out, err) == _read()[command]


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    with open(TRANSCRIPT, "w") as f:
        f.writelines(_record(c, *_run(c)) for c in COMMANDS)
