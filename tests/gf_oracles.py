"""The generating-function coboundary oracles of the catalog families, and
the truncated power series they are built from.

They produce the coboundary polynomials without ever constructing the
arrangement, so the tests play them against the engines.

Series: a series is a plain MultiPoly together with a list of "series
variables" and a truncation order N: every operation discards terms whose
total degree in the series variables exceeds N.  This covers both the
single-variable generating functions (series in Z) and the bivariate ones
(complete bipartite graphs, series in Z1 and Z2).  Powers follow the
convention A^C = exp(C * log(1 + B)) for A = 1 + B with constant term
exactly 1, computed by the truncated Taylor recurrences; the arithmetic is
exact throughout.

Generating-function conventions: the series identities produce, at index n,
the full point-count polynomial X^(d-r) * cobchi(A; X, Y); for type A and the
complete bipartite graphs d - r = 1 (a connected graphical arrangement), so
one factor of X appears up front.  The oracles divide by X^(d-r) so they
always return the coboundary polynomial itself.  The Catalan oracle counts
the points of F_q^n as labelled balls in runs of boxes on a cycle of length
q (see `_catalan_coboundary`).

Not named oracles.py: bench/oracles.py is imported by that name.
"""

from fractions import Fraction
from math import factorial

from tuttekit.errors import FamilyError
from tuttekit.families import bc, complete_bipartite, dn, threshold
from tuttekit.linalg import is_prime
from tuttekit.multipoly import MultiPoly


# -- truncated power series ------------------------------------------------

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


# -- generating-function coboundary oracles --------------------------------

def _extract(coeff_poly, scale, rank_deficit):
    """Scale a series coefficient and strip the X^(d-r) point-count factor."""
    poly = coeff_poly * scale
    return poly.div_exact_var("X", rank_deficit) if rank_deficit else poly


def _catalan_coboundary(n):
    """Coboundary polynomial of catalan(n), from points of F_q^n on a cycle.

    A point places n labelled balls in the q boxes of Z_q, and a pair of
    balls lies on one hyperplane when their boxes are equal or adjacent, on
    none otherwise.  The nonempty boxes form s runs of consecutive boxes, K
    boxes in all; S sums W^boxes Z^balls / balls! Y^pairs over single runs.
    The s runs, told apart by their balls, go round the cycle in (s-1)!
    orders, with q boxes for the first run to start at and C(q-K-1, s-1)
    ways to leave nonempty gaps.  So the point count is
    n! [Z^n] sum_s q C(q-K-1, s-1) [W^K] S^s / s, and d - r = 1 takes q off.
    """
    X, Y, Z, W = (MultiPoly.variable(v) for v in "XYZW")
    # first[m]: the runs whose first box holds m balls, found by adding boxes
    # in front until no run of at most n balls is missing
    first = {m: MultiPoly.zero() for m in range(1, n + 1)}
    for _ in range(n):
        first = {m: truncate(W * Z ** m * Y ** (m * (m - 1) // 2) * Fraction(1, factorial(m))
                             * (1 + sum((Y ** (m * k) * f for k, f in first.items()),
                                        MultiPoly.zero())), ["Z"], n)
                 for m in first}
    runs = sum(first.values(), MultiPoly.zero())
    total = MultiPoly.zero()
    power = MultiPoly.const(1)
    for s in range(1, n + 1):
        power = mul_trunc(power, runs, ["Z"], n)
        balls = power.coefficient("Z", n)
        for K in range(s, n + 1):
            gaps = MultiPoly.const(Fraction(1, factorial(s - 1)))
            for i in range(s - 1):
                gaps = gaps * (X - (K + 1 + i))
            total = total + balls.coefficient("W", K) * gaps * Fraction(1, s)
    return total * factorial(n)


def oracle_coboundary(tag, n=None, p=None, m=None, order=None):
    """Series-extracted coboundary polynomial of a catalog family.

    The extraction index is n (and m for the bipartite family); `order` is
    the series truncation, defaulting to the smallest sufficient value.
    """
    X = MultiPoly.variable("X")
    Y = MultiPoly.variable("Y")
    Z = MultiPoly.variable("Z")
    if tag == "braid":
        # T_A = F(Z, Y)^X; index n vertices, arrangement A_{n-1}, d - r = 1
        N = order or n
        if n > N:
            raise FamilyError("requested index beyond truncation order")
        f = deformed_exponential(Z, Y, ["Z"], N)
        ta = series_pow(f, X, ["Z"], N)
        coeff = ta.coefficient("Z", n)
        return _extract(coeff, Fraction(factorial(n)), 1)
    if tag in ("bc", "dn"):
        N = order or n
        if n > N:
            raise FamilyError("requested index beyond truncation order")
        f2 = deformed_exponential(2 * Z, Y, ["Z"], N)
        half = (X - 1) / 2
        first = series_pow(f2, half, ["Z"], N)
        if tag == "bc":
            second = deformed_exponential(Y * Z, Y ** 2, ["Z"], N)
        else:
            second = deformed_exponential(Z, Y ** 2, ["Z"], N)
        t_phi = mul_trunc(first, second, ["Z"], N)
        coeff = t_phi.coefficient("Z", n)
        arr = bc(n) if tag == "bc" else dn(n)
        return _extract(coeff, Fraction(factorial(n)), arr.dim - arr.rank)
    if tag == "threshold":
        N = order or n
        if n > N:
            raise FamilyError("requested index beyond truncation order")
        inner = MultiPoly.zero()
        for r in range(N + 1):
            for s in range(N + 1 - r):
                inner = inner + Y ** (r * s) * Z ** (r + s) \
                    * Fraction(1, factorial(r) * factorial(s))
        first = series_pow(inner, (X - 1) / 2, ["Z"], N)
        second = deformed_exponential(Z, Y, ["Z"], N)
        total = mul_trunc(first, second, ["Z"], N)
        coeff = total.coefficient("Z", n)
        arr = threshold(n)
        return _extract(coeff, Fraction(factorial(n)), arr.dim - arr.rank)
    if tag == "catalan":
        return _catalan_coboundary(n)
    if tag == "bipartite":
        N = order or (m + n)
        if m + n > N:
            raise FamilyError("requested index beyond truncation order")
        Z1 = MultiPoly.variable("Z1")
        Z2 = MultiPoly.variable("Z2")
        inner = MultiPoly.zero()
        for a in range(N + 1):
            for b in range(N + 1 - a):
                inner = inner + Y ** (a * b) * Z1 ** a * Z2 ** b \
                    * Fraction(1, factorial(a) * factorial(b))
        total = series_pow(inner, X, ["Z1", "Z2"], N)
        coeff = truncate(total, ["Z1", "Z2"], m + n) \
            .coefficient("Z1", m).coefficient("Z2", n)
        arr = complete_bipartite(m, n)
        deficit = arr.dim - arr.rank
        return _extract(coeff, Fraction(factorial(m) * factorial(n)), deficit)
    if tag == "all_linear":
        if not is_prime(p):
            raise FamilyError("all_linear requires prime p")
        N = order or n
        if n > N:
            raise FamilyError("requested index beyond truncation order")
        ratio = q_pochhammer_ratio(X, "u", p, N)
        u = MultiPoly.variable("u")
        tail = MultiPoly.const(1)
        for j in range(1, N + 1):
            tail = tail + Y ** ((p ** j - 1) // (p - 1)) * u ** j \
                / q_pochhammer_scalar(p, p, j)
        total = truncate(ratio * tail, ["u"], N)
        coeff = total.coefficient("u", n)
        return coeff * q_pochhammer_scalar(p, p, n)
    raise FamilyError("no generating-function oracle for %r" % tag)
