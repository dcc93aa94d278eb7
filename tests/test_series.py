from fractions import Fraction
from math import comb, factorial

import pytest

from gf_oracles import (
    deformed_exponential,
    mul_trunc,
    q_pochhammer_ratio,
    q_pochhammer_scalar,
    series_exp,
    series_log,
    series_pow,
    truncate,
)
from tuttekit.multipoly import MultiPoly

Z = MultiPoly.variable("Z")
X = MultiPoly.variable("X")
Y = MultiPoly.variable("Y")


def test_truncate():
    p = 1 + Z + Z ** 2 + X * Z ** 3
    assert truncate(p, ["Z"], 2) == 1 + Z + Z ** 2
    assert truncate(p, ["Z"], 0) == MultiPoly.const(1)


def test_log_exp_inverse_pair():
    f = 1 + Z + 3 * Z ** 2
    assert series_exp(series_log(f, ["Z"], 6), ["Z"], 6) == truncate(f, ["Z"], 6)
    with pytest.raises(ValueError):
        series_log(2 + Z, ["Z"], 3)
    with pytest.raises(ValueError):
        series_exp(1 + Z, ["Z"], 3)


def test_binomial_series():
    # (1+Z)^k for integer k matches the binomial theorem
    for k in (0, 1, 2, 5):
        got = series_pow(1 + Z, k, ["Z"], 6)
        want = truncate((1 + Z) ** k, ["Z"], 6)
        assert got == want
    # symbolic exponent: coefficient of Z^j in (1+Z)^X is C(X, j)
    g = series_pow(1 + Z, X, ["Z"], 4)
    c2 = g.coefficient("Z", 2)
    assert c2 == X * (X - 1) / 2
    c3 = g.coefficient("Z", 3)
    assert c3 == X * (X - 1) * (X - 2) / 6


def test_pow_additivity():
    f = 1 + Z + Y * Z ** 2
    a = series_pow(f, X, ["Z"], 5)
    b = series_pow(f, X + 2, ["Z"], 5)
    assert mul_trunc(a, truncate(f * f, ["Z"], 5), ["Z"], 5) == b


def test_deformed_exponential():
    # F(z, 1) = exp(z)
    f = deformed_exponential(Z, MultiPoly.const(1), ["Z"], 5)
    for n in range(6):
        assert f.coefficient("Z", n) == MultiPoly.const(Fraction(1, factorial(n)))
    # coefficient of z^n in F(z, y) is y^C(n,2)/n!
    g = deformed_exponential(Z, Y, ["Z"], 4)
    assert g.coefficient("Z", 3) == Y ** 3 / 6


def test_q_pochhammer_scalar():
    assert q_pochhammer_scalar(2, 2, 3) == Fraction((1 - 2) * (1 - 4) * (1 - 8))
    assert q_pochhammer_scalar(Fraction(1, 2), 3, 0) == 1


def test_q_pochhammer_ratio_qbinomial():
    # (u;p)_inf / (Xu;p)_inf: coefficient of u^n is
    # (X-1)(X-p)...(X-p^(n-1)) / (p;p)_n; at X=p^m it must produce the
    # Gaussian-binomial generating values, checked against the finite product
    p = 2
    order = 4
    ratio = q_pochhammer_ratio(X, "u", p, order)
    u = MultiPoly.variable("u")
    for m in range(0, 4):
        # with X = p^m the ratio telescopes to the finite product (u;p)_m
        spec = ratio.substitute({"X": Fraction(p) ** m})
        finite = MultiPoly.const(1)  # (u;p)_m
        for k in range(m):
            finite = finite * (1 - p ** k * u)
        assert spec == truncate(finite, ["u"], order), m
