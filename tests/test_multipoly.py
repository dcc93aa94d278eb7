import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tuttekit.errors import UnknownVariableError
from tuttekit.multipoly import MultiPoly

x = MultiPoly.variable("x")
y = MultiPoly.variable("y")


def small_polys():
    coeff = st.integers(-5, 5)
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
    terms = st.dictionaries(exps, coeff, max_size=4)
    return terms.map(lambda t: MultiPoly(("x", "y"), t))


@given(small_polys(), small_polys(), small_polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + MultiPoly.zero() == a
    assert a * MultiPoly.const(1) == a
    assert a - a == MultiPoly.zero()


@given(small_polys(), st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_pow_matches_repeated_product(a, k):
    expected = MultiPoly.const(1)
    for _ in range(k):
        expected = expected * a
    assert a ** k == expected


def test_equality_across_var_orders():
    a = MultiPoly(("x", "y"), {(1, 2): 3})
    b = MultiPoly(("y", "x"), {(2, 1): 3})
    assert a == b
    assert hash(a) == hash(b)
    assert a != MultiPoly(("x", "y"), {(2, 1): 3})


def test_scalar_comparison_and_arith():
    assert MultiPoly.const(5) == 5
    assert x - x == 0
    assert 2 * x + x == 3 * x
    assert (x + 1) * (x - 1) == x ** 2 - 1
    assert (x / 2) * 2 == x


def test_substitute():
    p = x ** 2 + y
    q = p.substitute({"x": y + 1})
    assert q == y ** 2 + 3 * y + 1
    with pytest.raises(UnknownVariableError):
        p.substitute({"z": x})


def test_substitute_scalar_and_evaluate():
    p = x ** 2 * y - 2 * y
    assert p.substitute({"x": 3}) == 7 * y
    assert p.evaluate({"x": 3, "y": 2}) == 14
    assert p.evaluate({"x": Fraction(1, 2), "y": 4}) == -7
    with pytest.raises(UnknownVariableError):
        p.evaluate({"x": 1})


def test_degree_and_coefficients():
    p = 3 * x ** 2 * y + x * y - 5
    assert p.degree("x") == 2
    assert p.degree("y") == 1
    assert p.degree("z") == 0
    assert p.coefficient("x", 1) == y
    assert p.coefficient("x", 0) == MultiPoly.const(-5)
    assert p.coeff_of_monomial({"x": 2, "y": 1}) == 3
    assert p.coeff_of_monomial({}) == -5


def test_div_exact_var():
    p = x ** 3 + x ** 2 * y
    assert p.div_exact_var("x", 2) == x + y
    with pytest.raises(ValueError):
        (p + 1).div_exact_var("x")


def test_table_over_given_variables():
    p = 3 * x ** 2 * y + Fraction(1, 2) * y - 1
    table = p.table(("y", "x", "z"))
    assert table == {(1, 2, 0): 3, (1, 0, 0): Fraction(1, 2), (0, 0, 0): -1}
    assert type(table[(1, 2, 0)]) is int
    # a variable that is declared but unused does not matter
    assert MultiPoly(("x", "q"), {(1, 0): 2}).table(("x",)) == {(1,): 2}
    with pytest.raises(ValueError):
        p.table(("x",))


def test_has_integer_coeffs():
    assert (x + 2).has_integer_coeffs()
    assert not (x / 2).has_integer_coeffs()


def test_format_graded_lex():
    t = x ** 3 + x ** 2 + x * y
    assert str(t) == "x^3 + x^2 + x*y"
    chi = MultiPoly(("q",), {(3,): 1, (2,): -4, (1,): 5, (0,): -2})
    assert str(chi) == "q^3 - 4*q^2 + 5*q - 2"
    assert str(MultiPoly.zero()) == "0"
    assert str(MultiPoly.const(Fraction(-3, 2)) * x) == "-3/2*x"


def test_format_is_deterministic():
    rng = random.Random(7)
    terms = {(rng.randint(0, 4), rng.randint(0, 4)): rng.randint(-5, 5)
             for _ in range(8)}
    a = MultiPoly(("x", "y"), terms)
    b = MultiPoly(("y", "x"), {(e2, e1): c for (e1, e2), c in terms.items()})
    assert a.format() == b.format() or a == b  # same poly, same string
    assert a.format() == MultiPoly(("x", "y"), dict(terms)).format()


def test_latex():
    p = x ** 12 + 2 * x ** 3
    assert p.to_latex() == "x^{12} + 2 x^{3}"


def test_term_list():
    p = x ** 2 + Fraction(1, 2) * y
    assert p.term_list() == [["1", {"x": 2}], ["1/2", {"y": 1}]]


def test_immutability():
    with pytest.raises(AttributeError):
        x.vars = ("z",)
