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


# -- the printing order and text, against the formatter that stored every
# coefficient as a Fraction and sorted by the exponents of used variables

def _reference_sorted_terms(p):
    used = [i for i, v in enumerate(p.vars) if any(e[i] for e in p.terms)]
    items = []
    for exps, coeff in p.terms.items():
        key = (sum(exps), tuple(exps[i] for i in used))
        items.append((key, exps, Fraction(coeff)))
    items.sort(key=lambda t: t[0], reverse=True)
    return [(e, c) for _, e, c in items]


def _reference_frac(f):
    if f.denominator == 1:
        return str(f.numerator)
    return "%d/%d" % (f.numerator, f.denominator)


def _reference_format(p, mul="*", pow_="^"):
    if not p.terms:
        return "0"
    parts = []
    for exps, coeff in _reference_sorted_terms(p):
        factors = []
        for v, e in zip(p.vars, exps):
            if e == 1:
                factors.append(v)
            elif e > 1:
                factors.append("%s%s%d" % (v, pow_, e))
        mag = abs(coeff)
        if factors and mag == 1:
            body = mul.join(factors)
        elif factors:
            body = mul.join([_reference_frac(mag)] + factors)
        else:
            body = _reference_frac(mag)
        parts.append(("-" if coeff < 0 else "+", body))
    sign, body = parts[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        text += " %s %s" % (sign, body)
    return text


def _reference_latex(p):
    text = _reference_format(p, mul=" ", pow_="^")
    out = []
    i = 0
    while i < len(text):
        if text[i] == "^":
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append("^{" + text[i + 1 : j] + "}")
            i = j
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def _reference_term_list(p):
    return [[str(c), {v: e for v, e in zip(p.vars, exps) if e}]
            for exps, c in _reference_sorted_terms(p)]


def _random_poly(rng, names, used):
    """Up to 8 terms in `used` (a subset of `names`), exponents 0-12, with
    int, integral Fraction and non-integral Fraction coefficients."""
    terms = {}
    for _ in range(rng.randint(0, 8)):
        exps = tuple(rng.randint(0, 12) if v in used and rng.random() < 0.7
                     else 0 for v in names)
        kind = rng.randrange(3)
        c = rng.randint(-3, 3)
        if kind == 1:
            c = Fraction(c * 2, 2)
        elif kind == 2:
            c = Fraction(c, rng.randint(2, 5))
        terms[exps] = c
    return MultiPoly(names, terms)


@pytest.mark.parametrize("names,used", [
    (("x", "y"), "xy"), (("y", "x"), "xy"), (("x", "z", "y"), "xy"),
    (("q",), "q"), (("x", "y"), "y"), (("w_1", "w_2", "w_10", "q"), ("w_1", "w_10", "q")),
])
@pytest.mark.parametrize("seed", range(25))
def test_text_matches_the_reference_formatter(names, used, seed):
    p = _random_poly(random.Random("%s-%d" % (names, seed)), names, used)
    assert p.format() == _reference_format(p)
    assert p.to_latex() == _reference_latex(p)
    assert p.term_list() == _reference_term_list(p)


@pytest.mark.parametrize("p", [
    MultiPoly.zero(), MultiPoly(("x", "y"), {}), MultiPoly.const(-1),
    MultiPoly.const(7), MultiPoly.const(Fraction(-5, 3)),
    MultiPoly(("x", "y"), {(0, 0): 1}), MultiPoly(("x",), {(2,): -1, (0,): 1}),
    MultiPoly(("x", "y"), {(1, 1): Fraction(-1, 2), (2, 0): -1, (0, 2): 1}),
    MultiPoly(("x", "y", "z"), {(3, 0, 0): -2, (0, 3, 0): 1, (1, 1, 0): Fraction(6, 2)}),
])
def test_edge_cases_match_the_reference_formatter(p):
    assert p.format() == _reference_format(p)
    assert p.to_latex() == _reference_latex(p)
    assert p.term_list() == _reference_term_list(p)


def test_integral_coefficients_are_stored_as_int():
    p = MultiPoly(("x", "y"), {(1, 0): Fraction(4, 2), (0, 1): True,
                               (1, 1): Fraction(1, 2), (0, 0): False})
    assert p.terms == {(1, 0): 2, (0, 1): 1, (1, 1): Fraction(1, 2)}
    assert type(p.terms[(1, 0)]) is int and type(p.terms[(0, 1)]) is int
    assert type(p.terms[(1, 1)]) is Fraction
    assert all(type(c) is int for c in ((x / 2) * 2 + 3 * y).terms.values())
    assert type(MultiPoly.const(Fraction(6, 3)).constant_value()) is int
    assert type(MultiPoly.zero().constant_value()) is int
    assert (x + 2).table(("x",)) == {(1,): 1, (0,): 2}


def test_evaluate_stays_in_ints_at_int_points():
    p = 3 * x ** 2 * y - 2 * y + 1
    assert p.evaluate({"x": 3, "y": 2}) == 51
    assert type(p.evaluate({"x": 3, "y": 2})) is int
    assert type(MultiPoly.zero().evaluate({})) is int
    assert p.evaluate({"x": Fraction(1, 2), "y": 4}) == -4
    assert (p / 2).evaluate({"x": 1, "y": 1}) == Fraction(1, 1)
    assert (p / 3).evaluate({"x": 1, "y": 1}) == Fraction(2, 3)


@pytest.mark.parametrize("seed", range(10))
def test_equality_and_hash_agree_across_orders_and_unused_variables(seed):
    rng = random.Random(seed)
    a = _random_poly(rng, ("x", "y"), "xy")
    swapped = MultiPoly(("y", "x"), {(j, i): c for (i, j), c in a.terms.items()})
    padded = MultiPoly(("x", "z", "y"), {(i, 0, j): c for (i, j), c in a.terms.items()})
    for b in (swapped, padded, MultiPoly(("x", "y"), dict(a.terms))):
        assert a == b and b == a
        assert hash(a) == hash(b)
    # an unused variable changes neither the order nor the text
    assert padded.format() == a.format()
    other = a + MultiPoly(("y",), {(1,): 1})
    assert other != a and other != swapped and other != padded
