"""Exact Lagrange interpolation in one variable.

This is the reconstruction step of the finite field method: the coboundary
polynomial has X-degree at most the rank r, and its coefficients of X^r and
X^(r-1) are known without counting, so r - 1 samples determine the rest (the
point profiles at distinct primes, and for a central arrangement the value
Y^n at X = 1), and an extra sample cross-checks the degree bound and the
correctness of every reduction.  The known top coefficients are subtracted
from the samples and added back into the result's table.

The work is done on integer tables.  The Lagrange basis polynomials are
computed once per call, as integer coefficient lists over one common
denominator; each monomial's column of sample values is then interpolated
by a dot product, and each oversample is checked by Horner's rule.  One
MultiPoly is built at the end, and a sample may be given as a list of
integer counts, so the finite field method builds no polynomial per prime.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import InconsistentSamplesError
from .multipoly import MultiPoly


def _lagrange_basis(abscissae):
    """(common, weights): weights[j][e] / common is the X^e coefficient of
    the j-th Lagrange basis polynomial of the abscissae, each given as a
    pair (n, d) of integers standing for n/d with d > 0; the weights are
    integers, and common is the least denominator that makes them so.

    The j-th basis polynomial is the product over k != j of
    d_j (d_k X - n_k) / (n_j d_k - n_k d_j): an integer polynomial over an
    integer, both reduced by their gcd.
    """
    nums, dens = [], []
    for j, (nj, dj) in enumerate(abscissae):
        coeffs, scale = [1], 1
        for k, (nk, dk) in enumerate(abscissae):
            if k != j:
                # multiply by d_j (d_k X - n_k)
                coeffs = [dj * (dk * a - nk * b)
                          for a, b in zip([0] + coeffs, coeffs + [0])]
                scale *= nj * dk - nk * dj
        g = gcd(scale, *coeffs)
        nums.append([c // g for c in coeffs])
        dens.append(scale // g)
    common = lcm(*dens)
    return common, [[c * (common // s) for c in coeffs]
                    for coeffs, s in zip(nums, dens)]


def interpolate_in_X(samples, degree_bound, var="X", top=()):
    """Fit the unique polynomial of degree <= degree_bound + len(top) in `var`
    with the given top coefficients through samples.

    samples: list of (abscissa, value) with Fraction/int abscissae and values
    in variables other than `var`: a MultiPoly, a scalar, or a list of
    integers [c_0, c_1, ...] standing for sum_k c_k Y^k, as in
    `PointProfile.polynomial`, which the finite field method passes so that
    no polynomial is built per sample.
    top: known coefficients of var^(degree_bound + 1), var^(degree_bound + 2),
    ..., values of the same kinds.  The known part is subtracted from each
    sample, the rest is fitted at degree_bound (-1: the rest must be 0), and
    the top is added into the result's table.
    Extra samples beyond degree_bound+1 are used as consistency checks; a
    mismatch raises InconsistentSamplesError.
    """
    if degree_bound < -1:
        raise ValueError("degree bound must be at least -1")
    pts = []    # ((n, d), value) for the abscissa n/d in lowest terms, d > 0
    names = []  # the variables of sum_j v_j l_j(var), in order of appearance

    def checked(val):
        """val as a list or a MultiPoly, its variables added to names."""
        if isinstance(val, list):
            used, bad = ("Y",), var == "Y"
        else:
            if isinstance(val, (int, Fraction)):
                val = MultiPoly.const(val)
            used, bad = val.vars, val.degree(var)
        if bad:
            raise ValueError("sample values must not contain %s" % var)
        names.extend(v for v in used + (var,) if v not in names)
        return val

    for absc, val in samples:
        absc = Fraction(absc)
        x = (absc.numerator, absc.denominator)
        val = checked(val)
        if x in (a for a, _ in pts):
            raise InconsistentSamplesError("duplicate abscissa %s" % absc)
        pts.append((x, val))
    top = [checked(val) for val in top]
    need = degree_bound + 1
    if len(pts) < need:
        raise ValueError(
            "need at least %d samples for degree bound %d" % (need, degree_bound)
        )
    at = names.index(var)

    def table(val):
        if isinstance(val, list):
            pos = names.index("Y")
            return {(0,) * pos + (k,) + (0,) * (len(names) - pos - 1): c
                    for k, c in enumerate(val) if c}
        return val.table(names)

    columns = {}    # monomial, var's exponent 0 -> [value at each abscissa]
    for j, (_, val) in enumerate(pts):
        for mono, c in table(val).items():
            columns.setdefault(mono, [0] * len(pts))[j] = c
    known = {}      # the top's monomials, var's exponent set
    for e, val in enumerate(top, need):
        powers = [n ** e if d == 1 else Fraction(n, d) ** e for (n, d), _ in pts]
        for mono, c in table(val).items():
            known[mono[:at] + (e,) + mono[at + 1:]] = c
            col = columns.setdefault(mono, [0] * len(pts))
            for j, x in enumerate(powers):
                col[j] -= c * x
    common, weights = _lagrange_basis([a for a, _ in pts[:need]])
    # scaled[mono][e] = common * (the var^e coefficient of mono's column)
    scaled = {mono: [sum(col[j] * w[e] for j, w in enumerate(weights))
                     for e in range(need)]
              for mono, col in columns.items()}
    for j in range(need, len(pts)):
        n, d = pts[j][0]
        # d^degree_bound times the interpolant at n/d, by Horner's rule
        # on the homogenised polynomial
        homog = d ** max(degree_bound, 0)
        for mono, nums in scaled.items():
            acc, scale = 0, 1
            for c in reversed(nums):
                acc = acc * n + c * scale
                scale *= d
            if acc != columns[mono][j] * common * homog:
                raise InconsistentSamplesError(
                    "oversample at %s disagrees with the interpolant "
                    "(wrong degree bound or bad prime)" % Fraction(n, d)
                )
    fitted = {mono[:at] + (e,) + mono[at + 1:]: Fraction(c, common)
              for mono, nums in scaled.items() for e, c in enumerate(nums) if c}
    return MultiPoly(names, {**fitted, **known})
