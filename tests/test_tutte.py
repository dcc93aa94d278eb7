import random
from fractions import Fraction

import pytest

from conftest import random_arrangement
from test_engines_reference import generalized_tg_evaluate
from tuttekit import tutte
from tuttekit.arrangement import Arrangement
from tuttekit.errors import ConsistencyError
from tuttekit.families import braid, generic, oracle_char, shi
from tuttekit.multipoly import MultiPoly
from tuttekit.poset import intersection_poset
from tuttekit.tutte import (
    SUBSET_MAX_CHARGE,
    TutteResult,
    char_poly,
    coboundary_transform,
    scalar_invariants,
    subset_first,
    tutte_activity,
    tutte_delcon,
    tutte_from_coboundary,
    tutte_subset,
    validate_chi_shape,
    whitney_char,
)

x = MultiPoly.variable("x")
y = MultiPoly.variable("y")
q = MultiPoly.variable("q")


def test_bench_all_engines(bench):
    want = x ** 3 + x ** 2 + x * y
    assert tutte_subset(bench).tutte == want
    assert tutte_delcon(bench).tutte == want
    assert tutte_activity(bench)[0].tutte == want


def test_bench_activity_certificate(bench):
    # order t < u < v < w: bases tuw -> x^3, tvw -> x^2, uvw -> x*y
    _, cert = tutte_activity(bench)
    records = {basis: (i, e) for basis, i, e in cert.records}
    assert records[(0, 1, 3)] == (3, 0)
    assert records[(0, 2, 3)] == (2, 0)
    assert records[(1, 2, 3)] == (1, 1)
    assert len(records) == 3


def test_activity_order_invariance(bench):
    rng = random.Random(3)
    base = tutte_activity(bench)[0].tutte
    for _ in range(5):
        order = list(range(bench.n))
        rng.shuffle(order)
        assert tutte_activity(bench, order)[0].tutte == base
    with pytest.raises(ValueError):
        tutte_activity(bench, [0, 0, 1, 2])


def test_empty_and_degenerate():
    empty = Arrangement(2, [])
    assert tutte_subset(empty).tutte == 1
    assert char_poly(empty) == q ** 2
    loop = Arrangement(2, [([0, 0], 0)])
    assert tutte_subset(loop).tutte == y
    assert tutte_delcon(loop).tutte == y
    assert tutte_activity(loop)[0].tutte == y
    coloop = Arrangement(1, [([1], 0)])
    assert tutte_subset(coloop).tutte == x


def test_engines_agree_random():
    rng = random.Random(17)
    for _ in range(30):
        arr = random_arrangement(rng, max_n=6, max_d=3)
        t = tutte_subset(arr).tutte
        assert tutte_delcon(arr).tutte == t
        assert tutte_activity(arr)[0].tutte == t


def test_whitney(bench):
    assert char_poly(bench) == q ** 3 - 4 * q ** 2 + 5 * q - 2
    assert whitney_char(bench, tutte_subset(bench).tutte) == \
        intersection_poset(bench).char_poly()


def test_char_poly_checks_whitney_for_small_n(bench, monkeypatch):
    # while the subset walk's bound sum_{k <= r+1} C(m, k) is at most 2^10
    # the Mobius route is cross-checked against Whitney's, with T from the
    # subset expansion; above it T is not taken.  shi(4) has 12 hyperplanes
    # of rank 3, a bound of 794, and braid(6) 15 of rank 5, 9,949
    assert SUBSET_MAX_CHARGE == 1024
    assert char_poly(bench) == intersection_poset(bench).char_poly()
    wrong = TutteResult(x ** 3, bench.rank, bench.n, "subset")
    monkeypatch.setattr(tutte, "tutte_subset", lambda arr, budget: wrong)
    for small in (bench, shi(4)):
        assert subset_first(small)
        with pytest.raises(ConsistencyError, match="Mobius and Whitney"):
            char_poly(small)
    big = braid(6)
    assert not subset_first(big)
    assert char_poly(big) == oracle_char("braid", 6)


def test_the_subset_route_edge_is_a_bound_of_2_to_the_10():
    # m non-loops of rank r pass while sum_{k <= r+1} C(m, k) <= 1024: every
    # n <= 10, 11 generic hyperplanes in Q^4 (1024) but not 12 (1586), and
    # 44 parallel hyperplanes (991) but not 45 (1036)
    rng = random.Random(11)
    for _ in range(40):
        assert subset_first(random_arrangement(rng, max_n=10, max_d=6))
    assert subset_first(generic(11, 4)) and not subset_first(generic(12, 4))
    lines = [([1, 0], b) for b in range(45)]
    assert subset_first(Arrangement(2, lines[:44]))
    assert not subset_first(Arrangement(2, lines))


def test_coboundary_bench(bench):
    X = MultiPoly.variable("X")
    Y = MultiPoly.variable("Y")
    cob = coboundary_transform(tutte_subset(bench).tutte, bench.rank)
    want = Y ** 4 + (X - 1) * Y ** 3 + 3 * (X - 1) * Y ** 2 \
        + (4 * X ** 2 - 9 * X + 5) * Y + (X ** 3 - 4 * X ** 2 + 5 * X - 2)
    assert cob == want


def test_coboundary_roundtrip_random():
    rng = random.Random(29)
    for _ in range(25):
        arr = random_arrangement(rng, max_n=6, max_d=3)
        t = tutte_subset(arr).tutte
        r = arr.rank
        cob = coboundary_transform(t, r)
        assert tutte_from_coboundary(cob, r) == t


def test_coboundary_rejects_wrong_rank():
    with pytest.raises(ValueError):
        coboundary_transform(x ** 3, 2)
    cob = coboundary_transform(x ** 2, 2)
    with pytest.raises(ValueError):
        tutte_from_coboundary(cob + 1, 2)


def test_scalar_invariants(bench):
    inv = scalar_invariants(bench, tutte_subset(bench).tutte)
    assert inv["regions"] == 12
    assert inv["bounded_regions"] == 0
    assert inv["poincare"] == 2 * q ** 3 + 5 * q ** 2 + 4 * q + 1
    assert inv["general_position_bounded"] == 2
    assert inv["beta"] == 0


def test_scalar_invariants_bounded():
    # x=0, x=1 in Q^1: 3 regions, 1 bounded
    arr = Arrangement(1, [([1], 0), ([1], 1)])
    inv = scalar_invariants(arr, tutte_subset(arr).tutte)
    assert inv["regions"] == 3
    assert inv["bounded_regions"] == 1
    assert inv["beta"] == 1


def test_beta_skipped_for_tiny():
    arr = Arrangement(1, [([1], 0)])
    assert scalar_invariants(arr, tutte_subset(arr).tutte)["beta"] is None


def test_validate_chi_shape(bench):
    report = validate_chi_shape(intersection_poset(bench).char_poly())
    assert report["ok"]
    assert report["magnitudes"] == [1, 4, 5, 2]
    bad = q ** 2 + q + 1  # wrong signs
    assert not validate_chi_shape(bad)["ok"]


def test_universality(bench):
    # f(A) = a^(n-r) b^r T(x0/b, y0/a) for any TG-style recursion values
    rng = random.Random(31)
    for _ in range(10):
        arr = random_arrangement(rng, max_n=5, max_d=3)
        a, b = Fraction(2), Fraction(3)
        x0, y0 = Fraction(5), Fraction(7)
        t = tutte_subset(arr).tutte
        r, n = arr.rank, arr.n
        want = a ** (n - r) * b ** r * \
            t.evaluate({"x": x0 / b, "y": y0 / a})
        assert generalized_tg_evaluate(arr, a, b, x0, y0) == want


def _dense_chi_shape(chi, var="q"):
    """The shape report over all d + 1 magnitudes, trailing zeros included."""
    d = chi.degree(var)
    coeffs = sorted((d - e, c) for (e,), c in chi.table((var,)).items())
    violations = ["sign of q^%d coefficient" % (d - k)
                  for k, c in coeffs if (c > 0) != (k % 2 == 0)]
    mags = [0] * (d + 1)
    for k, c in coeffs:
        mags[k] = abs(c)
    rising = True
    for j in range(1, d + 1):
        if rising and mags[j] < mags[j - 1]:
            rising = False
        elif not rising and mags[j] > mags[j - 1]:
            violations.append("unimodality fails at position %d" % j)
            break
    for j in range(1, d):
        if mags[j - 1] * mags[j + 1] > mags[j] ** 2:
            violations.append("log-concavity fails at position %d" % j)
    return violations, mags


def test_chi_shape_stops_at_the_last_nonzero_magnitude():
    # seeded polynomials with internal and trailing zeros, and some with the
    # wrong signs: the violations are those of the walk over every power
    rng = random.Random(71)
    internal = 0
    for _ in range(300):
        d = rng.randint(0, 9)
        coeffs = {(d,): rng.randint(1, 5)}
        for e in range(d):
            if rng.random() < 0.6:
                c = rng.randint(1, 20) * (-1) ** (d - e)
                coeffs[(e,)] = -c if rng.random() < 0.1 else c
        chi = MultiPoly(("q",), coeffs)
        violations, mags = _dense_chi_shape(chi)
        while mags and not mags[-1]:
            mags.pop()
        internal += 0 in mags
        report = validate_chi_shape(chi)
        assert report["violations"] == violations
        assert report["ok"] == (not violations)
        assert report["magnitudes"] == mags
    assert internal > 50
    assert validate_chi_shape(q ** 10 ** 7)["magnitudes"] == [1]


def test_tg_recursion_differs_from_tutte_off_central():
    # 3x = 1, 3x = -1: T = x + 1, but contracting one point drops the other,
    # so the recursion gives a*c + b where a^(n-r) b^r T(c/b, l/a) = a*c + a*b
    arr = Arrangement(1, [([3], 1), ([3], -1)])
    assert tutte_subset(arr).tutte == x + 1
    a, b, c, l = (Fraction(v) for v in (2, 3, 5, 7))
    assert generalized_tg_evaluate(arr, a, b, c, l) == a * c + b
    assert a * b * (c / b + 1) == a * c + a * b != a * c + b
