"""Truncated formal power series over MultiPoly coefficients.

All series are represented as plain MultiPoly values together with a list of
"series variables" and a truncation order N: every operation discards terms
whose total degree in the series variables exceeds N.  This covers both the
single-variable generating functions (series in Z) and the bivariate ones
(complete bipartite graphs, series in Z1 and Z2).

Powers follow the convention A^C = exp(C * log(1 + B)) for A = 1 + B with
constant term exactly 1, computed by the truncated Taylor recurrences; the
arithmetic is exact throughout.
"""

from fractions import Fraction
from math import factorial

from .multipoly import MultiPoly


def truncate(poly, svars, order):
    """Drop terms of total degree > order in the series variables."""
    idx = [poly.vars.index(v) for v in svars if v in poly.vars]
    out = {}
    for exps, coeff in poly.terms.items():
        if sum(exps[i] for i in idx) <= order:
            out[exps] = coeff
    return MultiPoly(poly.vars, out)


def mul_trunc(a, b, svars, order):
    return truncate(a * b, svars, order)


def series_log(f, svars, order):
    """log f for f with constant term (in the series variables) equal to 1."""
    const = truncate(f, svars, 0)
    if const != MultiPoly.const(1):
        raise ValueError("log requires constant term 1, got %s" % const)
    b = truncate(f - 1, svars, order)
    result = MultiPoly.zero()
    power = MultiPoly.const(1)
    for k in range(1, order + 1):
        power = mul_trunc(power, b, svars, order)
        if power.is_zero():
            break
        result = result + power * Fraction((-1) ** (k + 1), k)
    return result


def series_exp(d, svars, order):
    """exp d for d with zero constant term in the series variables."""
    if not truncate(d, svars, 0).is_zero():
        raise ValueError("exp requires zero constant term")
    result = MultiPoly.const(1)
    power = MultiPoly.const(1)
    for k in range(1, order + 1):
        power = mul_trunc(power, d, svars, order)
        if power.is_zero():
            break
        result = result + power * Fraction(1, factorial(k))
    return result


def series_pow(base, exponent, svars, order):
    """base**exponent = exp(exponent * log base); exponent may be any MultiPoly."""
    if isinstance(exponent, (int, Fraction)):
        exponent = MultiPoly.const(exponent)
    logb = series_log(base, svars, order)
    return series_exp(mul_trunc(exponent, logb, svars, order), svars, order)


def deformed_exponential(z_poly, y_poly, svars, order):
    """F(alpha, beta) = sum_n alpha^n beta^C(n,2) / n!, truncated.

    z_poly must have positive order in the series variables so the sum is finite.
    """
    total = MultiPoly.const(1)
    zp = MultiPoly.const(1)
    for n in range(1, order + 1):
        zp = mul_trunc(zp, z_poly, svars, order)
        if zp.is_zero():
            break
        total = total + zp * (y_poly ** (n * (n - 1) // 2)) * Fraction(1, factorial(n))
    return truncate(total, svars, order)


def q_pochhammer_scalar(a, p, n):
    """(a; p)_n for scalar a, as a Fraction."""
    result = Fraction(1)
    a = Fraction(a)
    for k in range(n):
        result *= 1 - a * p ** k
    return result


def q_pochhammer_ratio(x_poly, uvar, p, order):
    """The formal series (u; p)_inf / (x u; p)_inf truncated at u^order.

    The two infinite products have no termwise-finite coefficients for an
    integer p > 1, but their ratio does: by the q-binomial theorem it equals
    sum_n (x - 1)(x - p) ... (x - p^{n-1}) u^n / (p; p)_n.
    """
    u = MultiPoly.variable(uvar)
    total = MultiPoly.const(1)
    num = MultiPoly.const(1)
    for n in range(1, order + 1):
        num = num * (x_poly - Fraction(p) ** (n - 1))
        total = total + num * u ** n / q_pochhammer_scalar(p, p, n)
    return total
