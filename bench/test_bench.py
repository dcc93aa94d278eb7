"""Tests of the benchmark's own oracles, workloads and tracer.

Run from the root of the repository:  python3 -m pytest -q bench
"""

import os
import sys

import pytest
import sympy

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [HERE, SRC]

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from oracles import q, x, y  # noqa: E402
from workloads import Subject  # noqa: E402

# x = 0, y = 0, x - y = 0, z = 0 in Q^3
FOUR_PLANES = [([1, 0, 0], 0), ([0, 1, 0], 0), ([1, -1, 0], 0), ([0, 0, 1], 0)]
T_FOUR = "x^3 + x^2 + x*y"
CHI_FOUR = "q^3 - 4*q^2 + 5*q - 2"


def P(expr, *gens):
    return sympy.Poly(expr, *gens, domain="QQ")


def fmt(expr):
    """A sympy polynomial in tuttekit's text format."""
    return str(sympy.expand(expr)).replace("**", "^")


def four_planes():
    return Subject("four", 3, rows=FOUR_PLANES)


def four_outputs():
    cob = oracles.coboundary_from_tutte(oracles.parse_poly(T_FOUR, (x, y)), 3)
    invariants = "\n".join([
        "beta = 0", "bounded_regions = 0",
        "complement_size = " + CHI_FOUR,
        "general_position_bounded = 2",
        "poincare = 2*q^3 + 5*q^2 + 4*q + 1", "regions = 12"])
    return [("tutte", "tutte four", T_FOUR), ("char", "char four", CHI_FOUR),
            ("coboundary", "coboundary four", fmt(cob.as_expr())),
            ("invariants", "invariants four", invariants)]


def test_parse_terms_reads_tuttekit_format():
    terms = oracles.parse_terms("-3*x^2*y + y - 2/3")
    assert terms == {(("x", 2), ("y", 1)): -3, (("y", 1),): 1, (): sympy.Rational(-2, 3)}
    assert oracles.parse_terms("0") == {}


def test_four_planes_hand_checked_identities():
    T = oracles.parse_poly(T_FOUR, (x, y))
    chi = oracles.parse_poly(CHI_FOUR, (q,))
    assert oracles.rank([nm for nm, _ in FOUR_PLANES]) == 3
    assert oracles.whitney_chi(T, 3, 3) == chi
    counts = oracles.independent_counts([nm for nm, _ in FOUR_PLANES])
    assert counts == [1, 4, 6, 3]        # T(1,1) = 3 bases, T(2,1) = 14
    assert T.as_expr().subs({x: 2, y: 1}) == sum(counts)
    assert oracles.tutte_y0_from_chi(chi, 3, 3) == P(x ** 3 + x ** 2, x)
    assert oracles.poincare_from_chi(chi, 3) == \
        P(2 * q ** 3 + 5 * q ** 2 + 4 * q + 1, q)


def test_four_planes_outputs_pass():
    assert oracles.check_subject(four_planes(), four_outputs()) == []


@pytest.mark.parametrize("verb, old, new", [
    ("tutte", "x^2", "2*x^2"),
    ("char", "5*q", "6*q"),
    ("coboundary", "X^3", "2*X^3"),
    ("invariants", "regions = 12", "regions = 13"),
])
def test_one_changed_coefficient_is_reported(verb, old, new):
    outputs = []
    for v, label, text in four_outputs():
        if v == verb:
            assert old in text
            text = text.replace(old, new, 1)
        outputs.append((v, label, text))
    assert oracles.check_subject(four_planes(), outputs)


def test_closed_forms():
    assert oracles.chi_closed("braid", 4) == \
        P(q * (q - 1) * (q - 2) * (q - 3), q)
    assert oracles.chi_closed("shi", 3) == P(q * (q - 3) ** 2, q)
    assert oracles.chi_closed("threshold", 3) == P((q - 1) ** 3, q)
    assert oracles.uniform_tutte(3, 2) == P(x ** 2 + x + y, x, y)
    assert oracles.graph_tutte([(1, 2), (2, 3), (1, 3)]) == \
        P(x ** 2 + x + y, x, y)
    assert oracles.stirling2(4, 2) == 7


def test_vector_configuration_brute_force():
    square = [[1, 0], [0, 1]]
    assert oracles.det_sum(square, 2) == 1
    assert oracles.zonotope_points(square, 2) == (4, 0)
    hexagon = [[1, 0], [0, 1], [1, 1]]
    assert oracles.det_sum(hexagon, 2) == 3
    assert oracles.zonotope_points(hexagon, 2) == (7, 1)
    counts = oracles.toric_counts(hexagon, 2, 4)
    assert sum(counts) == 4 ** 2


def test_multivariate_specialises_to_tutte():
    # one hyperplane in Q^1: q^1 Z = q + w_1, and T = x
    got = oracles.multivariate_to_tutte(oracles.parse_terms("q + w_1"), 1)
    assert got == P((y - 1) * x, x, y)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_rounds_are_the_same_jobs_for_every_seed(workload, tmp_path):
    shapes = []
    for seed in (1, 2):
        d = tmp_path / str(seed)
        d.mkdir()
        jobs, subjects = workloads.build(workload, seed, str(d))
        assert {j.subject for j in jobs} <= set(subjects)
        shapes.append([(j.verb, j.subject, j.expect_error, j.auto) for j in jobs])
    assert shapes[0] == shapes[1]


def _run_jobs(jobs):
    import tuttekit.cli as cli
    rnd = run.Round()
    rnd.results = [run.run_job(cli, j.argv) for j in jobs]
    return rnd


def test_expected_budget_failures_count_as_failed_not_wrong(tmp_path):
    jobs, subjects = workloads.build("auto", 1, str(tmp_path))
    fixed = [j for j in jobs if j.subject.startswith("fail")]
    assert sum(j.expect_error is not None for j in fixed) == 2
    errors, failed = run.check_outputs(fixed, subjects, [_run_jobs(fixed)])
    assert errors == []
    assert len(failed) == 2
    assert all(code == "budget-exceeded" and expected for _, code, expected in failed)


def test_tuttekit_output_on_four_planes_passes_and_a_perturbed_one_fails(tmp_path):
    path = workloads.write_arrangement(str(tmp_path / "four.json"), 3, FOUR_PLANES)
    jobs = [workloads.Job([verb, "--input", path], verb, "four")
            for verb in ("tutte", "char", "coboundary", "invariants", "poset", "check")]
    subjects = {"four": four_planes()}
    rnd = _run_jobs(jobs)
    assert rnd.results[0][1].strip() == T_FOUR
    assert run.check_outputs(jobs, subjects, [rnd]) == ([], [])
    code, out, err = rnd.results[1]
    rnd.results[1] = (code, out.replace("5*q", "7*q"), err)
    errors, failed = run.check_outputs(jobs, subjects, [rnd])
    assert errors and not failed


def test_tracer_counts_and_restores(tmp_path):
    import tuttekit
    import tuttekit.cli as cli
    from tracing import Tracer
    original = tuttekit.tutte.intersection_poset
    tracer = Tracer(tuttekit)
    tracer.install()
    try:
        tracer.begin_job(0)
        code, _, _ = run.run_job(cli, ["family", "braid", "--n", "4", "char"])
        tracer.begin_job(1)
        run.run_job(cli, ["family", "braid", "--n", "3", "tutte",
                          "--method", "finite-field"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tuttekit.tutte.intersection_poset is original
    m = tracer.metrics(0, 0)
    assert m["poset.flats"][0] == 15             # partitions of a 4-set
    assert m["linalg.rank_calls"][0] > 0
    assert m["finite_field.primes_accepted"][0] == 4   # r + 2 primes
    assert m["finite_field.points"][0] > 0
    assert {s[4] for s in tracer.spans} == {0, 1}
