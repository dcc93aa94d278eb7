import argparse
import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import bench_oracle
from gf_oracles import oracle_coboundary
from tuttekit import cli, families, finite_field, linalg
from tuttekit import poset as poset_module
from tuttekit.arithmetic import VectorConfig, arithmetic_tutte
from tuttekit.arrangement import Arrangement
from tuttekit.cli import main
from tuttekit.finite_field import DEFAULT_BUDGET
from tuttekit.errors import BadPrimeError, BudgetExceededError
from tuttekit.families import braid, catalan, dn, shi
from tuttekit.poset import intersection_poset
from tuttekit.tutte import tutte_from_coboundary, tutte_subset


@pytest.fixture
def bench_file(tmp_path, bench):
    path = tmp_path / "bench.json"
    path.write_text(bench.to_json())
    return str(path)


@pytest.fixture
def vec_file(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("dim 2\n1 1\n1 -1\n")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_family_char(capsys):
    code, out, _ = run(capsys, ["family", "braid", "--n", "3", "char"])
    assert code == 0 and out.strip() == "q^3 - 3*q^2 + 2*q"


def test_tutte_methods_identical(capsys, bench_file):
    outputs = set()
    for method in ("subset", "delcon", "activity", "finite-field", "auto"):
        code, out, _ = run(capsys, ["tutte", "--input", bench_file,
                                    "--method", method])
        assert code == 0
        outputs.add(out)
    assert outputs == {"x^3 + x^2 + x*y\n"}


def test_empty_arrangement(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(Arrangement(2, []).to_json())
    code, out, _ = run(capsys, ["tutte", "--input", str(path)])
    assert code == 0 and out.strip() == "1"


def test_char_and_latex(capsys, bench_file):
    code, out, _ = run(capsys, ["char", "--input", bench_file])
    assert code == 0 and out.strip() == "q^3 - 4*q^2 + 5*q - 2"
    code, out, _ = run(capsys, ["char", "--input", bench_file,
                                "--format", "latex"])
    assert out.strip() == "q^{3} - 4 q^{2} + 5 q - 2"


def test_structured_output(capsys, bench_file):
    code, out, _ = run(capsys, ["tutte", "--input", bench_file,
                                "--format", "structured"])
    record = json.loads(out)
    assert record["text"] == "x^3 + x^2 + x*y"
    assert record["rank"] == 3 and record["n"] == 4
    assert record["polynomial"][0] == ["1", {"x": 3}]


def test_coboundary_and_invariants(capsys, bench_file):
    code, out, _ = run(capsys, ["coboundary", "--input", bench_file])
    assert code == 0 and out.startswith("Y^4")
    code, out2, _ = run(capsys, ["coboundary", "--input", bench_file,
                                 "--method", "finite-field"])
    assert out2 == out
    code, out, _ = run(capsys, ["invariants", "--input", bench_file])
    assert "regions = 12" in out


def test_poset_verb(capsys, bench_file):
    code, out, _ = run(capsys, ["poset", "--input", bench_file])
    assert code == 0
    assert out.splitlines()[0] == "rank=0 dim=3 mu=1 hyperplanes=[]"


def test_multivariate_verb(capsys, bench_file):
    code, out, _ = run(capsys, ["multivariate", "--input", bench_file])
    assert code == 0 and "w_1" in out


def test_check_verb(capsys, bench_file):
    code, out, _ = run(capsys, ["check", "--input", bench_file])
    assert code == 0
    assert "FAIL" not in out and "ok   engine-agreement subset/delcon" in out
    assert "ok   engine-agreement subset/lattice" in out


def test_arith_verbs(capsys, vec_file):
    code, out, _ = run(capsys, ["arith", "tutte", "--input", vec_file])
    assert code == 0 and out.strip() == "x^2 + 1"
    code, out, _ = run(capsys, ["arith", "zonotope", "--input", vec_file])
    assert "lattice_points = 5" in out
    code, out, _ = run(capsys, ["toric", "--input", vec_file, "--q", "4"])
    assert code == 0 and out.strip() == "2*t^2 + 4*t + 10"


def test_family_graph(capsys, tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("1 2\n2 3\n1 3\n")
    code, out, _ = run(capsys, ["family", "graphical", "--n", "3",
                                "--graph", str(path), "char"])
    assert code == 0 and out.strip() == "q^3 - 3*q^2 + 2*q"


def test_family_thicken(capsys):
    code, out, _ = run(capsys, ["family", "braid", "--n", "3", "--k", "2",
                                "tutte"])
    assert code == 0
    code, out2, _ = run(capsys, ["family", "braid", "--n", "3", "tutte",
                                 "--k", "2"])
    assert out2 == out  # flag order does not matter


@pytest.mark.parametrize("argv", [
    ["braid", "--n", "3", "char"],
    ["braid", "char", "--n", "3"],
    ["--n", "3", "braid", "char"],
    ["--n", "3", "braid"],          # char is the default action
])
def test_family_words_and_flags_mix(capsys, argv):
    code, out, err = run(capsys, ["family"] + argv)
    assert (code, out, err) == (0, "q^3 - 3*q^2 + 2*q\n", "")


def test_family_flags_before_the_action(capsys):
    want = run(capsys, ["family", "braid", "--n", "3", "tutte",
                        "--format", "structured"])
    assert json.loads(want[1])["text"] == "x^2 + x + y"
    assert run(capsys, ["family", "--n", "3", "braid", "tutte",
                        "--format", "structured"]) == want
    assert run(capsys, ["family", "--format=structured", "braid", "--n", "3",
                        "tutte"]) == want


def test_family_help_and_unknown_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["family", "--help"])
    out = capsys.readouterr()
    assert exc.value.code == 0 and out.err == ""
    assert out.out.startswith("usage: tuttekit family ")
    with pytest.raises(SystemExit) as exc:
        main(["family", "braid", "--n", "3", "--bogus", "char"])
    out = capsys.readouterr()
    assert exc.value.code == 1 and out.out == ""
    assert out.err == "error: parse: unrecognized arguments: --bogus char\n"


@pytest.mark.parametrize("argv", [["tutte", "--input", "arr.json"],
                                  ["family", "braid", "--n", "3", "tutte"]])
def test_reduction_is_not_a_flag(capsys, argv):
    # every prime is certified by the one rule of reduce_mod_p
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--reduction", "bound"])
    out = capsys.readouterr()
    assert exc.value.code == 1 and out.out == ""
    assert out.err == "error: parse: unrecognized arguments: --reduction bound\n"


def test_readme_names_every_flag_the_parser_takes():
    # no flag is added or removed without README's "Command line" following
    top, _ = cli.build_parser()
    verbs = next(a for a in top._actions
                 if isinstance(a, argparse._SubParsersAction)).choices
    taken = {opt for parser in verbs.values() for action in parser._actions
             if not isinstance(action, argparse._HelpAction)
             for opt in action.option_strings}
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as f:
        section = f.read().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    assert taken and taken - named == set()
    assert named - taken == set()


def test_parse_error_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _, err = run(capsys, ["tutte", "--input", str(bad)])
    assert code == 1 and err.startswith("error: input-format:")
    code, _, err = run(capsys, ["tutte", "--input", str(tmp_path / "no.json")])
    assert code == 1


def test_computation_error_exit_2(capsys, bench_file, monkeypatch):
    monkeypatch.setenv("TUTTEKIT_BUDGET", "10")
    code, _, err = run(capsys, ["tutte", "--input", bench_file,
                                "--method", "finite-field"])
    assert code == 2 and err.startswith("error: budget-exceeded:")


def test_budget_flag_overrides_env(capsys, bench_file, monkeypatch):
    monkeypatch.setenv("TUTTEKIT_BUDGET", "10")
    code, out, _ = run(capsys, ["tutte", "--input", bench_file,
                                "--method", "finite-field",
                                "--budget", "1000000"])
    assert code == 0 and out.strip() == "x^3 + x^2 + x*y"


# braid 5's subset walk: the empty set and every candidate row of its 291
# central independent subsets (forests of K_5)
BRAID5_WALK = 515


def test_budget_flag_is_read_first_and_zero_counts(capsys, monkeypatch):
    # braid 5's subset walk is charged BRAID5_WALK
    monkeypatch.setenv("TUTTEKIT_BUDGET", "abc")
    argv = ["family", "braid", "--n", "5", "tutte"]
    for budget in ("0", "1", "514"):
        code, out, err = run(capsys, argv + ["--budget", budget])
        assert code == 2 and out == "" and _one_error_line(err, "budget-exceeded")
    code, out, err = run(capsys, argv + ["--budget", "515"])
    assert code == 0 and err == ""


def test_budget_variable_when_no_flag(capsys, monkeypatch):
    argv = ["family", "braid", "--n", "5", "tutte"]
    for env in ("0", "514"):
        monkeypatch.setenv("TUTTEKIT_BUDGET", env)
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "" and _one_error_line(err, "budget-exceeded")
    monkeypatch.setenv("TUTTEKIT_BUDGET", "515")
    assert run(capsys, argv)[0] == 0
    for env in ("abc", "1e6", "10.5"):
        monkeypatch.setenv("TUTTEKIT_BUDGET", env)
        code, out, err = run(capsys, argv)
        assert code == 1 and out == "" and _one_error_line(err, "input-format")
        assert repr(env) in err


def test_negative_budget_is_an_input_format_error(capsys, monkeypatch):
    argv = ["family", "braid", "--n", "3", "tutte"]
    monkeypatch.delenv("TUTTEKIT_BUDGET", raising=False)
    code, out, err = run(capsys, argv + ["--budget", "-5"])
    assert (code, out, err) == (1, "", "error: input-format: --budget must be "
                                ">= 0, got -5\n")
    monkeypatch.setenv("TUTTEKIT_BUDGET", "-1")
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (1, "", "error: input-format: TUTTEKIT_BUDGET "
                                "must be >= 0, got -1\n")
    # --budget 0 is still a budget of 0, which the walk exceeds
    code, out, err = run(capsys, argv + ["--budget", "0"])
    assert code == 2 and out == "" and _one_error_line(err, "budget-exceeded")


@pytest.mark.parametrize("env", [None, ""])
def test_default_budget_when_neither_is_set(capsys, monkeypatch, env):
    if env is None:
        monkeypatch.delenv("TUTTEKIT_BUDGET", raising=False)
    else:
        monkeypatch.setenv("TUTTEKIT_BUDGET", env)
    argv = ["family", "braid", "--n", "5", "tutte"]
    monkeypatch.setattr(cli, "DEFAULT_BUDGET", 514)
    code, out, err = run(capsys, argv)
    assert code == 2 and out == "" and _one_error_line(err, "budget-exceeded")
    monkeypatch.setattr(cli, "DEFAULT_BUDGET", 515)
    assert run(capsys, argv)[0] == 0


def test_explicit_primes_and_bad_prime(capsys, tmp_path):
    arr = Arrangement(2, [([1, -1], 0), ([1, 1], 0)])
    path = tmp_path / "pair.json"
    path.write_text(arr.to_json())
    code, out, _ = run(capsys, ["coboundary", "--input", str(path),
                                "--method", "finite-field",
                                "--primes", "3,5,7,11"])
    assert code == 0
    code, _, err = run(capsys, ["coboundary", "--input", str(path),
                                "--method", "finite-field",
                                "--primes", "2,5,7,11"])
    assert code == 2 and err.startswith("error: bad-prime:")


@pytest.mark.parametrize("method", ["delcon", "activity"])
def test_coboundary_runs_the_engine_it_names(capsys, monkeypatch, bench_file,
                                             method):
    want = run(capsys, ["coboundary", "--input", bench_file])

    def no_subsets(*args, **kwargs):
        raise AssertionError("ran the subset expansion")

    monkeypatch.setattr(cli, "tutte_subset", no_subsets)
    assert run(capsys, ["coboundary", "--input", bench_file,
                        "--method", method]) == want
    assert want == (0, "Y^4 + Y^3*X - Y^3 + 3*Y^2*X + 4*Y*X^2 + X^3 - 3*Y^2 "
                    "- 9*Y*X - 4*X^2 + 5*Y + 5*X - 2\n", "")


def test_byte_identical_runs(capsys, bench_file):
    outs = set()
    for _ in range(3):
        _, out, _ = run(capsys, ["coboundary", "--input", bench_file])
        outs.add(out)
    assert len(outs) == 1


def _one_error_line(err, code):
    lines = err.splitlines()
    return len(lines) == 1 and lines[0].startswith("error: %s: " % code)


@pytest.mark.parametrize("argv, code", [
    (["family", "all_linear", "--p", "2", "--n", "3", "tutte",
      "--method", "finite-field"], "bad-method"),
    (["family", "braid", "char"], "family-error"),
    (["family", "braid", "--n", "-1", "char"], "family-error"),
    (["family", "braid", "--n", "4", "poset", "--budget", "50"],
     "budget-exceeded"),
    (["family", "braid", "--n", "3", "--k", "0", "tutte"], "family-error"),
    (["family", "graphical", "--n", "-1", "--graph", "EDGES", "char"],
     "family-error"),
])
def test_bad_requests_exit_2_with_one_line(capsys, tmp_path, argv, code):
    edges = tmp_path / "edges.txt"
    edges.write_text("1 2\n")
    argv = [str(edges) if a == "EDGES" else a for a in argv]
    exit_code, out, err = run(capsys, argv)
    assert exit_code == 2 and out == "" and _one_error_line(err, code)


@pytest.mark.parametrize("argv", [
    ["family", "generic", "--n", "30", "--d", "8", "char", "--budget", "10"],
    ["family", "all_linear", "--p", "101", "--n", "3", "char", "--budget", "1000"],
    ["family", "braid", "--n", "4", "--k", "1000", "char", "--budget", "5999"],
])
def test_family_builders_exit_2_at_once_over_budget(capsys, monkeypatch, argv):
    # 30 rows, 10303 normals and 6000 copies are charged first: no
    # arrangement of the normals or copies is built
    def unreached(*args):
        raise AssertionError("built before the budget was charged")

    def small_only(dim, hyperplanes, **kwargs):
        if len(hyperplanes) > 30:
            unreached()
        return Arrangement(dim, hyperplanes, **kwargs)

    monkeypatch.setattr(families, "Arrangement", small_only)
    monkeypatch.setattr(Arrangement, "restrict", unreached)     # thicken's copies
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 10   # loose; the patches are the check
    assert code == 2 and out == "" and _one_error_line(err, "budget-exceeded")
    assert "needs at least" in err


def test_too_few_primes_exit_2_with_one_line(capsys, bench_file):
    # braid(5) is central of rank 4: with the top two coefficients known the
    # rest has degree 2, and beside cobchi(1, t) = t^n it needs 2 primes
    code, _, err = run(capsys, ["family", "braid", "--n", "5", "coboundary",
                                "--method", "finite-field", "--primes", "101"])
    assert code == 2 and _one_error_line(err, "bad-method")
    code, _, err = run(capsys, ["coboundary", "--input", bench_file,
                                "--method", "finite-field", "--primes", "7,x"])
    assert code == 1 and _one_error_line(err, "input-format")


def test_an_empty_prime_list_is_an_input_format_error(capsys, bench_file):
    argv = ["coboundary", "--input", bench_file, "--method", "finite-field"]
    for primes in ("", "5,,7"):
        code, out, err = run(capsys, argv + ["--primes", primes])
        assert code == 1 and out == "" and _one_error_line(err, "input-format")
    # "auto" searches for primes, as no --primes does
    want = run(capsys, argv)
    assert want[0] == 0 and run(capsys, argv + ["--primes", "auto"]) == want


@pytest.mark.parametrize("verb", ["tutte", "coboundary"])
@pytest.mark.parametrize("primes, repeated", [("5,5,5", 5), ("7,5,7,11", 7),
                                              ("3,5,7,11,13,11", 11)])
def test_a_repeated_prime_is_an_input_format_error(capsys, verb, primes, repeated):
    argv = ["family", "braid", "--n", "3", verb, "--method", "finite-field"]
    code, out, err = run(capsys, argv + ["--primes", primes])
    assert code == 1 and out == "" and _one_error_line(err, "input-format")
    assert "--primes lists %d more than once" % repeated in err
    # the same primes once each are accepted
    distinct = ",".join(dict.fromkeys(primes.split(",")))
    assert run(capsys, argv + ["--primes", distinct])[0] == 0


def _structured_terms(out):
    return sorted((c, sorted(m.items())) for c, m in json.loads(out)["polynomial"])


@pytest.mark.parametrize("n, method", [(11, "subset"), (12, "lattice")])
def test_auto_takes_the_lattice_past_a_walk_bound_of_2_to_the_10(capsys, tmp_path,
                                                                n, method):
    # d = 4, entries in [-2, 2], rank 4: the finite field method finds no
    # verified primes within the default budget for the first 11 rows.  The
    # subset walk's bound sum_{k <= 5} C(n, k) is exactly 2^10 = 1024 at
    # n = 11, as for the fixed input of the benchmark's `auto` workload,
    # and 1586 at n = 12
    rng = random.Random(3)
    hs = []
    while len(hs) < n:
        normal = [rng.randint(-2, 2) for _ in range(4)]
        if any(normal):
            hs.append((normal, rng.randint(-2, 2)))
    path = tmp_path / "affine.json"
    path.write_text(Arrangement(4, hs).to_json())
    for verb in ("tutte", "coboundary"):
        code, out, _ = run(capsys, [verb, "--input", str(path)])
        assert code == 0
        assert run(capsys, [verb, "--input", str(path),
                            "--method", "subset"])[1] == out
    code, out, _ = run(capsys, ["tutte", "--input", str(path),
                                "--format", "structured"])
    assert json.loads(out)["method"] == method


def test_auto_lattice_over_prime_field(capsys):
    argv = ["family", "all_linear", "--p", "3", "--n", "3", "tutte"]   # n = 13
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert run(capsys, argv + ["--method", "subset"])[1] == out


def test_braid6_coboundary_matches_generating_function(capsys):
    code, out, _ = run(capsys, ["family", "braid", "--n", "6", "coboundary",
                                "--format", "structured"])
    assert code == 0
    want = oracle_coboundary("braid", 6).term_list()
    assert _structured_terms(out) == sorted((c, sorted(m.items())) for c, m in want)


def test_finite_field_skips_prime_search_above_budget(capsys, monkeypatch):
    # generic(8,5) has a Hadamard floor near 1.9e17: no certified prime can
    # fit the budget, so small verified primes are used without a search
    search = finite_field._primes_from

    def bounded_search(start):
        assert start ** 5 <= DEFAULT_BUDGET, "searched above the budget"
        return search(start)

    monkeypatch.setattr(finite_field, "_primes_from", bounded_search)
    argv = ["family", "generic", "--n", "8", "--d", "5", "tutte"]
    code, out, _ = run(capsys, argv + ["--method", "finite-field"])
    assert code == 0
    assert run(capsys, argv + ["--method", "subset"])[1] == out


@pytest.mark.parametrize("argv", [
    ["family", "braid", "--n", "6", "coboundary"],    # d = 6, r = 5
    ["family", "shi", "--n", "5", "tutte"],           # d = 5, r = 4
])
def test_finite_field_budget_counts_the_quotient(capsys, argv):
    # p^d exceeds the default budget for every certified prime of shi 5
    # (braid 6, whose rows certify the primes 2..17, fits either way), p^r
    # does not: the points are counted in the quotient by the lineality space
    code, out, _ = run(capsys, argv + ["--method", "finite-field"])
    assert code == 0
    assert run(capsys, argv)[1] == out      # the flat-lattice route


def test_small_budget_takes_bound_primes_by_their_charge(capsys, monkeypatch):
    # braid 5 is central of rank 4, and takes r - 1 = 3 primes: the bound
    # primes 2, 3, 5 visit at most (5^4 - 1)/4 = 156 points, within 5000,
    # though 7^5 > 5000
    primes = []
    reduce = finite_field.reduce_mod_p

    def spy(arr, p, *args):
        primes.append(p)
        return reduce(arr, p, *args)

    monkeypatch.setattr(finite_field, "reduce_mod_p", spy)
    argv = ["family", "braid", "--n", "5", "tutte"]
    code, out, _ = run(capsys, argv + ["--method", "finite-field", "--budget", "5000"])
    assert code == 0 and out == run(capsys, argv)[1]
    assert primes == [2, 3, 5]


CHECK_LINES = "".join("ok   %s\n" % name for name in (
    "engine-agreement subset/delcon", "engine-agreement subset/activity",
    "engine-agreement subset/lattice", "mobius-recursion", "whitney-theorem",
    "chi-sign-and-logconcavity", "coboundary-roundtrip", "profile-sums-to-p^d",
    "profile-t0-slice"))


def _affine(seed, n, d, values):
    rng = random.Random(seed)
    hs = []
    while len(hs) < n:
        normal = [rng.choice(values) for _ in range(d)]
        if any(normal):
            hs.append((normal, rng.choice(values)))
    return Arrangement(d, hs)


@pytest.mark.parametrize("n", [7, 10])
def test_check_counts_d4_sign_inputs_below_the_bound_primes(capsys, monkeypatch,
                                                            tmp_path, n):
    # +-1 entries in Q^4: the Hadamard floor is 56, and 59^4 points exceed
    # one scatter block, so the count takes the smallest verified prime; 2
    # divides a basis multiplicity and is passed over without a walk
    arr = _affine(n, n, 4, (-1, 1))
    assert arr.prime_floor == 56
    assert not finite_field._keeps_bases(arr, 2) and finite_field._keeps_bases(arr, 3)
    path = tmp_path / "affine.json"
    path.write_text(arr.to_json())
    primes, walks = [], []
    reduce, walk = finite_field.reduce_mod_p, Arrangement.semimatroid

    def spy(arr, p, *args):
        primes.append(p)
        return reduce(arr, p, *args)

    def walked(self):
        walks.append(self.prime)
        return walk(self)

    monkeypatch.setattr(finite_field, "reduce_mod_p", spy)
    monkeypatch.setattr(Arrangement, "semimatroid", walked)
    assert run(capsys, ["check", "--input", str(path)]) == (0, CHECK_LINES, "")
    assert primes == [3] and not walks


def test_one_block_inputs_keep_their_bound_primes():
    # shi(4): 17^4 points fit one block; d = 3 with entries in {-1, 0, 1}:
    # p^3 fits for every floor
    arr = shi(4)
    assert [m.prime for m in finite_field.select_primes(arr, 5)] == [17, 19, 23, 29, 31]
    affine = _affine(3, 12, 3, (-1, 0, 1))
    p = next(finite_field._primes_from(affine.prime_floor + 1))
    assert [m.prime for m in finite_field.select_primes(affine, 1)] == [p]
    assert "basis_multiplicities" not in vars(arr)
    assert "basis_multiplicities" not in vars(affine)


def test_finite_field_counts_a_line_above_the_block(capsys, tmp_path):
    # 15 parallel lines are too many to take primes below the floor; those
    # above it (about 3.4e5) exceed the block, and the quotient is a line
    path = tmp_path / "lines.json"
    offsets = list(range(12)) + [60, 70, 80]
    path.write_text(Arrangement(2, [([1, 0], c) for c in offsets]).to_json())
    argv = ["tutte", "--input", str(path)]
    code, out, _ = run(capsys, argv + ["--method", "finite-field"])
    assert code == 0 and out == "x + 14\n"
    code, out, _ = run(capsys, ["check", "--input", str(path)])
    assert code == 0 and "FAIL" not in out


def test_inconsistent_profile_exits_2_with_one_line(capsys, bench_file,
                                                    monkeypatch):
    count = finite_field.point_profile

    def corrupted(modarr, *args, **kwargs):
        counts = list(count(modarr, *args, **kwargs).counts)
        counts[0] += 1
        return finite_field.PointProfile(modarr.prime, counts)

    monkeypatch.setattr(finite_field, "point_profile", corrupted)
    code, out, err = run(capsys, ["coboundary", "--input", bench_file,
                                  "--method", "finite-field"])
    assert code == 2 and out == "" and _one_error_line(err, "inconsistent-samples")


def test_closed_stdout_exits_1_without_traceback():
    # about 110 kB of output outgrows the pipe buffer, so a write meets the
    # closed pipe whatever the buffering of stdout
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "tuttekit.cli", "family", "dn", "--n", "4",
         "multivariate"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == b""


def test_check_on_a_loop_reports_only_ok(capsys, tmp_path):
    # x = 0 and the loop 0 = 0 in Q^2: chi = 0 on every route
    path = tmp_path / "loop.json"
    path.write_text(Arrangement(2, [([1, 0], 0), ([0, 0], 0)]).to_json())
    code, out, err = run(capsys, ["check", "--input", str(path)])
    lines = out.splitlines()
    assert code == 0 and err == ""
    assert lines and all(line.startswith("ok   ") for line in lines)
    assert "ok   whitney-theorem" in lines and "ok   profile-t0-slice" in lines


@pytest.fixture
def toric_file(tmp_path):
    # (1,0), (1,2), (2,-1): the pairs have multiplicities 2, 1 and 5
    path = tmp_path / "toric.txt"
    path.write_text("dim 2\n1 0\n1 2\n2 -1\n")
    return str(path)


@pytest.mark.parametrize("q, counts", [
    # brute force over (F*_{q+1})^2; 5 divides only q = 10
    (4, [7, 7, 1, 1]), (6, [21, 13, 1, 1]), (10, [77, 17, 5, 1]),
    (12, [111, 31, 1, 1])])
def test_toric_counts_when_a_multiplicity_does_not_divide_q(capsys, toric_file,
                                                            q, counts):
    argv = ["toric", "--input", toric_file, "--q", str(q)]
    code, out, err = run(capsys, argv + ["--format", "structured"])
    assert code == 0 and err == ""
    assert json.loads(out)["counts"] == counts


@pytest.mark.parametrize("verb", [["toric"], ["arith", "toric"]])
def test_toric_over_budget_is_one_line(capsys, toric_file, verb):
    argv = verb + ["--input", toric_file, "--q", "12"]
    code, out, err = run(capsys, argv + ["--budget", "143"])
    assert code == 2 and out == "" and _one_error_line(err, "budget-exceeded")
    assert "q^d = 12^2 exceeds the enumeration budget 143" in err
    code, out, _ = run(capsys, argv + ["--budget", "144"])
    assert code == 0 and out == "t^3 + t^2 + 31*t + 111\n"


def _root_file(tmp_path, name, d, short):
    """The positive roots e_i - e_j and e_i + e_j of B_d or D_d, with the
    short roots e_i of B_d when short is set."""
    rows = []
    for i in range(d):
        for j in range(i + 1, d):
            for s in (-1, 1):
                rows.append(["1" if k == i else str(s) if k == j else "0" for k in range(d)])
        if short:
            rows.append(["1" if k == i else "0" for k in range(d)])
    path = tmp_path / name
    path.write_text("dim %d\n" % d + "".join(" ".join(r) + "\n" for r in rows))
    return str(path)


ARITH_WALK_VERBS = [["arith", "tutte"], ["arith", "zonotope"], ["arith", "char"],
                    ["toric", "--q", "2"], ["arith", "toric", "--q", "2"]]


@pytest.mark.parametrize("verb", ARITH_WALK_VERBS)
def test_arithmetic_walk_over_budget_is_one_line(capsys, tmp_path, verb):
    # the 20 roots of D_5: 2^20 subsets, over a budget of 1000 (2^5 points
    # of the torus at q = 2 fit it)
    path = _root_file(tmp_path, "d5.txt", 5, short=False)
    code, out, err = run(capsys, verb + ["--input", path, "--budget", "1000"])
    assert code == 2 and out == "" and _one_error_line(err, "budget-exceeded")
    assert "2^20 subsets of the lattice walk exceed the enumeration budget 1000" in err
    with pytest.raises(BudgetExceededError) as exc:
        arithmetic_tutte(VectorConfig.from_text(open(path).read()), budget=1000)
    assert exc.value.required == 1048576


@pytest.mark.parametrize("verb", ARITH_WALK_VERBS)
def test_arithmetic_walk_fits_at_two_to_the_n(capsys, tmp_path, verb):
    # the 9 roots of B_3 take 512 subsets
    argv = verb + ["--input", _root_file(tmp_path, "b3.txt", 3, short=True)]
    code, out, err = run(capsys, argv + ["--budget", "511"])
    assert code == 2 and out == "" and _one_error_line(err, "budget-exceeded")
    code, out, err = run(capsys, argv + ["--budget", "512"])
    assert (code, err) == (0, "") and out == run(capsys, argv)[1]


def test_counts_above_64_bits_stay_exact(capsys):
    # p^r > 2^63: the counts of the quotient are exact Python ints
    primes = "10000000000000000051,10000000000000000087,10000000000000000091"
    code, out, err = run(capsys, [
        "family", "coordinate", "--n", "1", "tutte", "--method",
        "finite-field", "--primes", primes, "--budget", str(10 ** 30)])
    assert (code, out, err) == (0, "x\n", "")


def test_a_huge_dim_costs_no_power_of_it(capsys, tmp_path):
    # p^d for d = 10^8 would take seconds to form and gigabytes to hold
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"dim": 10 ** 8, "hyperplanes": []}))
    code, out, err = run(capsys, ["tutte", "--input", str(path),
                                  "--method", "finite-field"])
    assert (code, out, err) == (0, "1\n", "")


@pytest.mark.parametrize("verb", [["toric"], ["arith", "toric"]],
                         ids=["toric", "arith-toric"])
def test_toric_q_plus_one_not_prime_is_a_bad_prime(capsys, toric_file, verb):
    for q in (100000, 0):
        code, out, err = run(capsys, verb + ["--input", toric_file,
                                             "--q", str(q)])
        assert code == 2 and out == ""
        assert err == "error: bad-prime: q + 1 = %d must be prime\n" % (q + 1)
    if verb == ["arith", "toric"]:
        code, out, err = run(capsys, verb + ["--input", toric_file])
        assert code == 1 and out == ""
        assert err == "error: input-format: toric point count needs --q\n"


# braid(6): 203 flats; at its peak, the top of rank 4, 1260 reductions up to
# rank 3, 2066 comparable pairs up to rank 4 and the 2835 pairs gathered for
# rank 4's below sets, against 203^2 = 41209 flat pairs
BRAID6_WORK = 6161


@pytest.mark.parametrize("verb", ["poset", "tutte"])
def test_braid6_fits_a_budget_of_its_charged_work(capsys, verb):
    argv = ["family", "braid", "--n", "6", verb]
    code, out, _ = run(capsys, argv + ["--budget", str(BRAID6_WORK)])
    assert code == 0 and out == run(capsys, argv)[1]
    code, out, err = run(capsys, argv + ["--budget", str(BRAID6_WORK - 1)])
    assert code == 2 and out == "" and _one_error_line(err, "budget-exceeded")


def test_budget_below_the_charged_work_reports_required():
    with pytest.raises(BudgetExceededError) as err:
        intersection_poset(braid(6), budget=BRAID6_WORK - 1)
    assert err.value.required > BRAID6_WORK - 1
    assert len(intersection_poset(braid(6), budget=BRAID6_WORK).flats) == 203


@pytest.mark.parametrize("tag, n", [("braid", 6), ("shi", 5)])
def test_lattice_verbs_build_no_flat_objects(capsys, monkeypatch, tag, n):
    # the subset walk's bound is past 2^10 (9,949 and 21,700), so every verb
    # reads the flat lattice; the poset verb prints from the masks too
    argvs = [["family", tag, "--n", str(n), verb]
             for verb in ("char", "coboundary", "tutte", "invariants", "poset")]
    want = [run(capsys, argv) for argv in argvs]
    assert all(code == 0 and err == "" for code, _, err in want)
    for argv, expected in zip(argvs[1:4], want[1:4]):
        assert run(capsys, argv + ["--method", "subset"]) == expected

    def no_flat(*args):
        raise AssertionError("a Flat was built")

    monkeypatch.setattr(poset_module.Flat, "__init__", no_flat)
    assert [run(capsys, argv) for argv in argvs] == want


def test_invariants_honours_the_budget(capsys):
    code, out, err = run(capsys, ["family", "braid", "--n", "6", "invariants",
                                  "--budget", "100"])
    assert code == 2 and out == "" and _one_error_line(err, "budget-exceeded")


def test_invariants_on_the_lattice_route(capsys, monkeypatch):
    import tuttekit.tutte as tutte_module

    def no_subsets(arr):
        raise AssertionError("walked the subsets past a bound of 2^10")

    monkeypatch.setattr(tutte_module, "tutte_subset", no_subsets)
    code, out, _ = run(capsys, ["family", "braid", "--n", "6", "invariants"])
    assert code == 0
    assert "regions = 720\n" in out and "general_position_bounded = 120\n" in out


@pytest.mark.parametrize("method", ["subset", "delcon", "activity", "finite-field"])
def test_invariants_build_no_lattice_for_another_engine(capsys, monkeypatch, method):
    import tuttekit.tutte as tutte_module

    def no_lattice(*args, **kwargs):
        raise AssertionError("built the flat lattice")

    monkeypatch.setattr(cli, "intersection_poset", no_lattice)
    monkeypatch.setattr(tutte_module, "intersection_poset", no_lattice)
    code, out, _ = run(capsys, ["family", "braid", "--n", "5", "invariants",
                                "--method", method])
    assert code == 0
    assert "regions = 120\n" in out and "complement_size = %s\n" % (
        bench_oracle("chi_closed", "braid", 5)) in out


def test_invariants_are_charged_only_the_engine_they_run(capsys):
    # braid(4): the subset walk costs 54, the flat lattice 103
    argv = ["family", "braid", "--n", "4", "invariants"]
    code, out, err = run(capsys, argv + ["--budget", "100"])
    assert code == 0 and err == "" and out == run(capsys, argv)[1]
    assert "regions = 24\n" in out
    assert run(capsys, argv + ["--budget", "54"])[1] == out
    code, out, err = run(capsys, argv + ["--budget", "53"])
    assert code == 2 and out == "" and _one_error_line(err, "budget-exceeded")
    assert "the central-subset walk needs at least 54 candidate subsets" in err


INVARIANT_METHODS = ["auto", "subset", "delcon", "activity", "finite-field"]


@pytest.mark.parametrize("source, methods, regions, chi", [
    (["family", "braid", "--n", "4"], INVARIANT_METHODS, 24,
     bench_oracle("chi_closed", "braid", 4)),
    (["family", "bc", "--n", "3"], INVARIANT_METHODS, 48,
     bench_oracle("chi_closed", "bc", 3)),
    (["family", "shi", "--n", "3"], INVARIANT_METHODS, 16,
     bench_oracle("chi_closed", "shi", 3)),
    # a loop (0 = 0) leaves no complement
    ("loop", INVARIANT_METHODS, 0, 0),
    # 20 hyperplanes of rank 4, a subset walk bound of sum_{k <= 5} C(20, k)
    # = 21,700: auto takes T from the flat lattice's coboundary
    (["family", "shi", "--n", "5"], ["auto", "subset"], 1296,
     bench_oracle("chi_closed", "shi", 5)),
], ids=["braid4", "bc3", "shi3", "loop", "shi5"])
@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_invariants_are_the_same_under_every_method(capsys, tmp_path, source, methods,
                                                    regions, chi, fmt):
    if source == "loop":
        path = tmp_path / "loop.json"
        path.write_text(Arrangement(2, [([1, 0], 0), ([1, 1], 0), ([0, 0], 0)]).to_json())
        argv = ["invariants", "--input", str(path)]
    else:
        argv = source + ["invariants"]
    outs = set()
    for method in methods:
        code, out, err = run(capsys, argv + ["--method", method, "--format", fmt])
        assert code == 0 and err == ""
        outs.add(out)
    assert len(outs) == 1
    out = outs.pop()
    if fmt == "structured":
        record = json.loads(out)
        assert record["regions"] == str(regions)
        assert record["complement_size"] == str(chi)
    else:
        assert "regions = %d\n" % regions in out
        assert "complement_size = %s\n" % chi in out


def test_catalan6_tutte_at_the_default_budget(capsys):
    # Cat_5: 45 hyperplanes in Q^6, 2-3 s on the lattice route
    arr = catalan(6)
    code, out, _ = run(capsys, ["family", "catalan", "--n", "6", "tutte"])
    want = tutte_from_coboundary(oracle_coboundary("catalan", 6), arr.rank)
    assert code == 0 and out.strip() == want.format()


def _stdout(argv):
    """stdout of a successful in-process run (no capsys under hypothesis)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def _connected_graph(rng, vertices, edges):
    pairs = {(rng.randrange(1, k), k) for k in range(2, vertices + 1)}
    rest = [(i, j) for i in range(1, vertices + 1)
            for j in range(i + 1, vertices + 1) if (i, j) not in pairs]
    return sorted(pairs) + rng.sample(rest, edges - len(pairs))


@settings(max_examples=3, deadline=None, derandomize=True)
@given(st.integers(6, 8), st.integers(11, 13), st.randoms(use_true_random=False))
def test_graphical_tutte_matches_networkx(tmp_path_factory, vertices, edges, rng):
    # 11-13 edges of rank 5-7 take the lattice route (a subset walk bound
    # of at least sum_{k <= 6} C(11, k) = 1486); networkx is an outside oracle
    import networkx
    import sympy
    graph = _connected_graph(rng, vertices, edges)
    path = tmp_path_factory.mktemp("g") / "edges.txt"
    path.write_text("".join("%d %d\n" % e for e in graph))
    g = networkx.MultiGraph()
    g.add_edges_from(graph)
    x, y = sympy.symbols("x y")
    want = sympy.Poly(networkx.tutte_polynomial(g), x, y)
    argv = ["family", "graphical", "--n", str(vertices), "--graph", str(path)]
    record = json.loads(_stdout(argv + ["tutte", "--format", "structured"]))
    assert record["method"] == "lattice"
    got = {(m.get("x", 0), m.get("y", 0)): int(c) for c, m in record["polynomial"]}
    assert got == {k: int(c) for k, c in want.as_dict().items()}
    inv = _stdout(argv + ["invariants"])
    assert "regions = %d\n" % want.eval({x: 2, y: 0}) in inv
    assert "general_position_bounded = %d\n" % want.eval({x: 1, y: 0}) in inv


@pytest.mark.parametrize("argv", [
    ["tutte", "--input", "A3", "--method", "finite-field",
     "--primes", "9,15,21,25"],
    ["family", "braid", "--n", "3", "tutte", "--method", "finite-field",
     "--primes", "4,9,15,21"],
])
def test_composite_primes_are_one_bad_prime_line(capsys, tmp_path, argv):
    # a composite modulus used to end in a traceback (9 on x + 3y = 0) or
    # to count over Z/4 and exit 0
    path = tmp_path / "a3.json"
    path.write_text(Arrangement(2, [([1, 0], 0), ([0, 1], 0),
                                    ([1, 3], 0)]).to_json())
    argv = [str(path) if a == "A3" else a for a in argv]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert _one_error_line(err, "bad-prime") and "is not prime" in err


def _run_quietly(argv):
    """(exit code, stdout, stderr) of an in-process run; an exception that
    escapes main propagates, so a traceback fails the caller."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_clean(argv):
    code, _, err = _run_quietly(argv)
    if code == 0:
        assert err == ""
    else:
        assert code in (1, 2)
        assert re.fullmatch(r"error: [a-z-]+: [^\n]*\n", err), err


_NUMBER = st.integers(-3, 3)
_JUNK = st.one_of(
    st.sampled_from(["1/2", "-2/3", "1/0", "x", "", " 7 ", "1e400", "nan",
                     "inf", "0x10"]),
    st.floats(-10, 10), st.sampled_from([float("inf"), float("nan")]),
    st.none(), st.booleans(), st.lists(_NUMBER, max_size=2),
    st.dictionaries(st.sampled_from(["normal", "a"]), _NUMBER, max_size=1))


def _mostly(good, bad, one_in=8):
    """good, except one draw in `one_in` on average, which is bad."""
    return st.integers(1, one_in).flatmap(lambda k: bad if k == 1 else good)


_ENTRY = _mostly(_NUMBER, _JUNK)
_HYPERPLANE = st.one_of(
    st.fixed_dictionaries({"normal": st.lists(_ENTRY, max_size=3)},
                          optional={"offset": _ENTRY}),
    _JUNK)
_OPTIONAL = {"prime": _mostly(st.sampled_from([2, 3, 5, 7]),
                             st.one_of(st.integers(-1, 12), _JUNK), 3),
             "label": _JUNK}
# records whose normals have the length of dim, with entries that are mostly
# numbers, and now and then a record of any shape or any text
_ARRANGEMENT_TEXT = _mostly(
    st.integers(0, 3).flatmap(lambda d: st.fixed_dictionaries(
        {"dim": st.just(d), "hyperplanes": st.lists(st.fixed_dictionaries(
            {"normal": st.lists(_ENTRY, min_size=d, max_size=d)},
            optional={"offset": _ENTRY}), max_size=5)},
        optional=_OPTIONAL)).map(json.dumps),
    st.one_of(
        st.fixed_dictionaries(
            {"dim": st.one_of(st.integers(-1, 3), _JUNK),
             "hyperplanes": st.lists(_HYPERPLANE, max_size=5)},
            optional=_OPTIONAL).map(json.dumps),
        _JUNK.map(json.dumps), st.text(max_size=20)), 4)
_TOKEN = _mostly(_NUMBER.map(str), st.sampled_from(
    ["dim", "dim:", "a", "1.5", "", "#", "-", "1/2", "99999999999999999999"]))
_LINES = st.lists(st.lists(_TOKEN, max_size=4).map(" ".join), max_size=5)
_VECTOR_TEXT = _mostly(
    st.integers(1, 3).flatmap(lambda d: st.lists(
        st.lists(_TOKEN, min_size=d, max_size=d).map(" ".join), max_size=5)
        .map(lambda rows: "\n".join(["dim %d" % d] + rows) + "\n")),
    st.one_of(
        st.tuples(st.sampled_from(["dim 2", "dim -1", "dim", "dim: 2", ":",
                                   "dimension 2", "dim x"]), _LINES)
        .map(lambda t: "\n".join([t[0]] + t[1]) + "\n"),
        st.text(max_size=20)), 4)
_EDGE_LINE = _mostly(
    st.tuples(st.integers(1, 4), st.integers(1, 4)).map("%d %d".__mod__),
    st.lists(_TOKEN, max_size=4).map(" ".join))
_EDGE_TEXT = _mostly(st.lists(_EDGE_LINE, max_size=6).map("\n".join),
                     st.text(max_size=20), 4)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_ARRANGEMENT_TEXT, st.sampled_from([[], ["--method", "finite-field"]]))
@example('{"dim": 2, "hyperplanes": [{"normal": ["1/0", 1]}]}', [])
@example('{"dim": 2, "hyperplanes": [{"normal": [1e400, 1]}]}', [])
@example('{"dim": 2, "prime": 4, "hyperplanes": [{"normal": [2, 1]}]}', [])
@example('{"dim": 2, "prime": "x", "hyperplanes": [{"normal": [2, 1]}]}', [])
def test_fuzzed_arrangement_json_is_output_or_one_error_line(
        tmp_path_factory, text, method):
    path = tmp_path_factory.mktemp("arr") / "a.json"
    path.write_text(text)
    _assert_clean(["tutte", "--input", str(path)] + method)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_VECTOR_TEXT, st.sampled_from(["tutte", "zonotope"]))
@example(":\n", "tutte")
def test_fuzzed_vector_text_is_output_or_one_error_line(
        tmp_path_factory, text, action):
    path = tmp_path_factory.mktemp("vec") / "v.txt"
    path.write_text(text)
    _assert_clean(["arith", action, "--input", str(path)])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_EDGE_TEXT)
@example("1 a\n")
def test_fuzzed_edge_file_is_output_or_one_error_line(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("edges") / "e.txt"
    path.write_text(text)
    _assert_clean(["family", "graphical", "--n", "4", "--graph", str(path),
                   "tutte"])


@pytest.mark.parametrize("argv", [
    ["tutte", "--input", "FILE"],
    ["arith", "tutte", "--input", "FILE"],
    ["family", "graphical", "--n", "3", "--graph", "FILE", "tutte"],
])
def test_undecodable_input_is_one_input_format_line(capsys, tmp_path, argv):
    path = tmp_path / "binary"
    path.write_bytes(b"\xff\xfe\x00dim 2\n")
    code, out, err = run(capsys, [str(path) if a == "FILE" else a for a in argv])
    assert code == 1 and out == "" and _one_error_line(err, "input-format")


def test_check_on_a_huge_dim_reads_chi_once(capsys, tmp_path):
    # chi = q^(10^6): the shape report and the profile sums take no pass
    # over the powers of q beyond one list of magnitudes
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"dim": 10 ** 6, "hyperplanes": []}))
    code, out, err = run(capsys, ["check", "--input", str(path)])
    lines = out.splitlines()
    assert code == 0 and err == ""
    assert len(lines) == 9 and all(line.startswith("ok   ") for line in lines)


@pytest.mark.parametrize("method, unit", [("delcon", "recursion nodes"),
                                          ("activity", "row steps")])
def test_engine_over_budget_is_one_line(capsys, method, unit):
    argv = ["family", "braid", "--n", "6", "tutte", "--method", method]
    code, out, err = run(capsys, argv + ["--budget", "100"])
    assert code == 2 and out == "" and _one_error_line(err, "budget-exceeded")
    assert unit in err and "over the budget 100" in err


def test_check_reports_an_engine_over_budget_and_goes_on(capsys):
    # braid(4): delcon visits 33 nodes and the flat lattice fits in 127,
    # but the activity walk charges 6 rows for each of its 31 subsets
    code, out, err = run(capsys, ["family", "braid", "--n", "4", "check",
                                  "--budget", "127"])
    lines = out.splitlines()
    assert code == 2 and err == ""
    assert lines[:3] == ["ok   engine-agreement subset/delcon",
                         "FAIL engine-agreement subset/activity (budget-exceeded)",
                         "ok   engine-agreement subset/lattice"]
    assert all(line.startswith("ok   ") for line in lines[3:])


def test_check_reports_the_lattice_over_budget_and_goes_on(capsys):
    # braid(4)'s flat lattice needs 127: at 100 it is one FAIL line, the
    # two checks that read it are skipped, and chi comes from Whitney
    code, out, err = run(capsys, ["family", "braid", "--n", "4", "check",
                                  "--budget", "100"])
    lines = out.splitlines()
    assert code == 2 and err == ""
    assert lines[:3] == ["ok   engine-agreement subset/delcon",
                         "FAIL engine-agreement subset/activity (budget-exceeded)",
                         "FAIL engine-agreement subset/lattice (budget-exceeded)"]
    assert lines[3:] == ["ok   chi-sign-and-logconcavity",
                         "ok   coboundary-roundtrip",
                         "ok   profile-sums-to-p^d",
                         "ok   profile-t0-slice"]


@pytest.mark.parametrize("verb", [["tutte", "--method", "subset"], ["multivariate"]])
def test_subset_walks_fit_a_budget_of_2_to_the_n(capsys, verb):
    # braid(5) is central with 10 hyperplanes: the multivariate polynomial
    # holds 2^10 terms of 11 exponents each, while the subset expansion walks
    # only the independent subsets, at 515 candidates (at most
    # sum_{k <= 5} C(10, k) = 638)
    fit, unit = (BRAID5_WALK, "candidate subsets") if verb[0] == "tutte" else \
        (1024 * 11, "2^10 terms of 11 exponents")
    argv = ["family", "braid", "--n", "5"] + verb
    code, out, _ = run(capsys, argv + ["--budget", str(fit)])
    assert code == 0 and out == run(capsys, argv)[1]
    code, out, err = run(capsys, argv + ["--budget", str(fit - 1)])
    assert code == 2 and out == "" and _one_error_line(err, "budget-exceeded")
    assert unit in err and "over the budget %d" % (fit - 1) in err


def test_check_over_the_subset_budget_is_one_line(capsys):
    # the reference walk of braid(4) costs 54, basis activity 186
    argv = ["family", "braid", "--n", "4", "check"]
    code, out, err = run(capsys, argv + ["--budget", "53"])
    assert code == 2 and out == "" and _one_error_line(err, "budget-exceeded")
    code, out, err = run(capsys, argv + ["--budget", "54"])
    assert code == 2 and "FAIL engine-agreement subset/activity (budget-exceeded)" in out


def test_braid7_finite_field_on_small_certified_primes(capsys):
    # braid rows are graphic, so every prime is certified: the r + 2 = 8
    # primes are 2..19, and 19^6 fits the default budget (19^7 does not)
    code, out, err = run(capsys, ["family", "braid", "--n", "7", "tutte",
                                  "--method", "finite-field"])
    assert code == 0 and err == ""
    want = tutte_from_coboundary(oracle_coboundary("braid", 7), 6)
    assert out == want.format() + "\n"


@pytest.mark.parametrize("tag", ["threshold", "bc", "dn"])
def test_central_sixes_fit_the_central_charge(capsys, tag):
    # the primes 3..23 above the floor 2 put 23^6 past the default budget,
    # but a central count visits only (23^6 - 1)/22 = 6,728,904 points
    argv = ["family", tag, "--n", "6", "tutte"]
    code, out, err = run(capsys, argv + ["--method", "finite-field"])
    assert code == 0 and err == ""
    assert run(capsys, argv)[1] == out      # the flat-lattice route


def test_dn5_finite_field_needs_the_central_charge_of_its_largest_prime(capsys):
    # seven primes are 3..19, and the count at 19 visits (19^5 - 1)/18 =
    # 137,561 points, where 19^5 = 2,476,099; the method takes r - 1 = 4
    # primes, 3..11, and the count at 11 visits (11^5 - 1)/10 = 16,105
    argv = ["family", "dn", "--n", "5", "tutte"]
    with pytest.raises(BudgetExceededError) as err:
        finite_field.select_primes(dn(5), 7, budget=137560)
    assert err.value.required == (19 ** 5 - 1) // 18 == 137561
    code, out, err = run(capsys, argv + ["--method", "finite-field",
                                         "--budget", "16104"])
    assert code == 2 and out == "" and _one_error_line(err, "budget-exceeded")
    code, out, err = run(capsys, argv + ["--method", "finite-field",
                                         "--budget", "16105"])
    assert code == 0 and err == ""
    assert run(capsys, argv)[1] == out      # the flat-lattice route


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 9.22 GiB for an array with shape "
                  "(12248775, 101) and data type int64"),
     "Unable to allocate 9.22 GiB for an array with shape (12248775, 101) "
     "and data type int64"),
    (MemoryError(), "the computation ran out of memory")], ids=["numpy", "bare"])
def test_running_out_of_memory_is_one_error_line(capsys, monkeypatch, exc, message):
    # `family braid --n 100 char` fits the default budget in the flat
    # lattice and asks numpy for more memory than a small host has
    def exhausted(arr, budget):
        raise exc

    monkeypatch.setattr(cli, "char_poly", exhausted)
    code, out, err = run(capsys, ["family", "braid", "--n", "100", "char"])
    assert (code, out, err) == (2, "", "error: out-of-memory: %s\n" % message)


def test_corrupted_incidences_exit_2_with_one_consistency_line(
        capsys, tmp_path, monkeypatch):
    # x = 0, x = 1, y = 0, x + y = 0: the first row solved for y (y = 0) is
    # given the value p at x = 0, so two of its points coincide at (1, 0)
    path = tmp_path / "corrupt.json"
    path.write_text(Arrangement(2, [([1, 0], 0), ([1, 0], 1), ([0, 1], 0),
                                    ([1, 1], 0)]).to_json())
    solutions = finite_field._solutions

    def repeated(rows, p):
        for j, x in solutions(rows, p):
            if j == 1:
                x[0, 0] = p + x[0, 1]
            yield j, x

    argv = ["coboundary", "--input", str(path), "--method", "finite-field"]
    assert run(capsys, argv)[0] == 0
    monkeypatch.setattr(finite_field, "_solutions", repeated)
    code, out, err = run(capsys, argv)
    assert code == 2 and out == "" and _one_error_line(err, "consistency")
    assert "a row's points coincide over F_3^2" in err


def test_check_on_dim_1e7_is_as_long_as_chi(capsys, tmp_path):
    # chi = q^(10^7) has one term, so the shape report has one magnitude
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"dim": 10 ** 7, "hyperplanes": []}))
    code, out, err = run(capsys, ["check", "--input", str(path)])
    lines = out.splitlines()
    assert code == 0 and err == ""
    assert len(lines) == 9 and all(line.startswith("ok   ") for line in lines)


def test_braid8_finite_field_fits_the_default_budget(capsys):
    # r = 7: six bound primes 2..13, the largest visiting (13^7 - 1)/12 =
    # 5,229,043 points, where r + 2 = 9 primes reached 23
    code, out, err = run(capsys, ["family", "braid", "--n", "8", "tutte",
                                  "--method", "finite-field"])
    assert code == 0 and err == ""
    assert out.strip() == tutte_from_coboundary(oracle_coboundary("braid", 8), 7).format()


@pytest.mark.parametrize("budget", [[], ["--budget", "1000000"]])
def test_central_walk_over_budget_fails_before_it_starts(capsys, monkeypatch, budget):
    # braid(8) is central with 28 hyperplanes: its multivariate polynomial
    # holds 2^28 terms of 29 exponents, known before its walk of every
    # central subset starts
    built = []
    rows = linalg.integer_rows

    def spy(*args):
        built.append(args)
        return rows(*args)

    monkeypatch.setattr(linalg, "integer_rows", spy)
    code, out, err = run(capsys, ["family", "braid", "--n", "8", "multivariate"] + budget)
    assert code == 2 and out == "" and _one_error_line(err, "budget-exceeded")
    assert "needs 2^28 terms of 29 exponents, over the budget %d" % (
        int(budget[1]) if budget else DEFAULT_BUDGET) in err
    assert not built


def test_braid8_subset_walk_and_check_fit_the_default_budget(capsys):
    # the walk over braid(8)'s central independent subsets costs 1,666,142,
    # within sum_{k <= 8} C(28, k) = 4,791,323, where every central subset
    # would cost 2^28; over a smaller budget it stops at the first running
    # total past it
    argv = ["family", "braid", "--n", "8"]
    code, tutte, err = run(capsys, argv + ["tutte", "--method", "subset"])
    assert code == 0 and err == "" and tutte == run(capsys, argv + ["tutte"])[1]
    code, out, err = run(capsys, argv + ["check"])
    assert code == 0 and err == "" and out == CHECK_LINES
    with pytest.raises(BudgetExceededError) as info:
        tutte_subset(braid(8), budget=10 ** 6)
    assert 10 ** 6 < info.value.required < 2 ** 28
    assert tutte_subset(braid(8), budget=1666142).tutte.format() + "\n" == tutte


def test_basis_multiplicities_are_charged_before_they_are_taken(capsys, tmp_path):
    # 200 lines in three directions: the cone matrix has 201 rows and rank
    # 3, so C(201, 3) = 1,333,300 maximal minors, which certify 3, a prime
    # below the floor
    lines = ([([1, 0], b) for b in range(67)] + [([0, 1], b) for b in range(67)]
             + [([1, 2], b) for b in range(66)])
    arr = Arrangement(2, lines)
    with pytest.raises(BudgetExceededError) as info:
        finite_field.reduce_mod_p(arr, 3, budget=10 ** 6)
    assert info.value.required == 1333300
    assert "basis_multiplicities" not in vars(arr)
    path = tmp_path / "lines.json"
    path.write_text(arr.to_json())
    code, out, err = run(capsys, ["coboundary", "--input", str(path), "--method",
                                  "finite-field", "--primes", "3",
                                  "--budget", "1000000"])
    assert code == 2 and out == "" and _one_error_line(err, "budget-exceeded")
    assert "the 1333300 maximal minors" in err


def test_primes_above_the_floor_take_no_multiplicities(capsys, tmp_path):
    # 100 copies each of x = 0, y = 0, x + y = 0 and x - y = 0: the rows are
    # signed-graphic, so 3 is above the floor and certified without the
    # C(401, 3) = 10,666,600 maximal minors, which exceed the budget
    lines = [(normal, 0) for normal in ([1, 0], [0, 1], [1, 1], [1, -1])
             for _ in range(100)]
    arr = Arrangement(2, lines)
    assert arr.prime_floor == 2
    path = tmp_path / "lines.json"
    path.write_text(arr.to_json())
    code, out, err = run(capsys, ["coboundary", "--input", str(path), "--method",
                                  "finite-field", "--primes", "3",
                                  "--budget", "1000000"])
    assert (code, err) == (0, "")
    assert out == "Y^400 + 4*Y^100*X - 4*Y^100 + X^2 - 4*X + 3\n"


def _lines_through_the_origin(count):
    # normals (1, k): mod 3 the lines k and k + 3 coincide, so p = 3 divides
    # a basis multiplicity and reduce_mod_p rejects it
    return Arrangement(2, [([1, k], 0) for k in range(1, count + 1)])


def test_rejected_prime_witness_walk_is_charged_to_the_budget(capsys, monkeypatch,
                                                              tmp_path):
    # 40 lines: the C(41, 3) = 10660 minors fit the budget, and the
    # semimatroid walk that names the witness is charged its 2^40 before it
    # starts
    walked = []
    rows = linalg.integer_rows

    def spy(*args):
        walked.append(args)
        return rows(*args)

    monkeypatch.setattr(linalg, "integer_rows", spy)
    path = tmp_path / "lines.json"
    path.write_text(_lines_through_the_origin(40).to_json())
    argv = ["tutte", "--method", "finite-field", "--primes", "3",
            "--budget", "100000", "--input", str(path)]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == "" and _one_error_line(err, "budget-exceeded")
    assert "the central-subset walk needs 2^40 candidate subsets, over the " \
        "budget 100000" in err
    assert not walked
    with pytest.raises(BudgetExceededError) as info:
        finite_field.reduce_mod_p(_lines_through_the_origin(40), 3, budget=100000)
    assert info.value.required == 2 ** 40


def test_rejected_prime_within_the_budget_names_its_witness(capsys, tmp_path):
    arr = _lines_through_the_origin(16)     # 2^16 subsets fit 100000
    with pytest.raises(BadPrimeError) as info:
        finite_field.reduce_mod_p(arr, 3, budget=100000)
    assert info.value.witness == [0, 3]
    path = tmp_path / "lines.json"
    path.write_text(arr.to_json())
    code, out, err = run(capsys, ["tutte", "--method", "finite-field", "--primes",
                                  "3", "--budget", "100000", "--input", str(path)])
    assert (code, out, err) == (2, "", "error: bad-prime: p=3 changes the semimatroid\n")
