"""Exact Lagrange interpolation in one variable.

This is the reconstruction step of the finite field method: the coboundary
polynomial has X-degree at most the rank r, so r+1 point profiles at distinct
primes determine it, and an extra prime cross-checks the degree bound and the
correctness of every reduction.

The work is done on integer tables.  The r+1 Lagrange basis polynomials are
computed once per call, as integer coefficient lists over one common
denominator; each monomial's column of sample values is then interpolated
by a dot product, and each oversample is checked by Horner's rule.  One
MultiPoly is built at the end.
"""

from fractions import Fraction
from math import lcm

from .errors import InconsistentSamplesError
from .multipoly import MultiPoly


def _lagrange_basis(abscissae):
    """(common, weights): weights[j][e] / common is the X^e coefficient of
    the j-th Lagrange basis polynomial of the abscissae; the weights are
    integers."""
    basis = []
    for j, xj in enumerate(abscissae):
        coeffs, scale = [Fraction(1)], Fraction(1)
        for k, xk in enumerate(abscissae):
            if k != j:
                # multiply by (X - xk)
                coeffs = [b - xk * a for a, b in zip(coeffs + [0], [0] + coeffs)]
                scale *= xj - xk
        basis.append([c / scale for c in coeffs])
    common = lcm(*(c.denominator for coeffs in basis for c in coeffs))
    return common, [[int(c * common) for c in coeffs] for coeffs in basis]


def interpolate_in_X(samples, degree_bound, var="X"):
    """Fit the unique polynomial of degree <= degree_bound in `var` through samples.

    samples: list of (abscissa, value) with Fraction/int abscissae and MultiPoly
    (or scalar) values in variables other than `var`.  Extra samples beyond
    degree_bound+1 are used as consistency checks; a mismatch raises
    InconsistentSamplesError.
    """
    if degree_bound < 0:
        raise ValueError("degree bound must be nonnegative")
    pts = []
    names = []  # the variables of sum_j v_j l_j(var), in order of appearance
    for absc, val in samples:
        absc = Fraction(absc)
        if isinstance(val, (int, Fraction)):
            val = MultiPoly.const(val)
        if val.degree(var):
            raise ValueError("sample values must not contain %s" % var)
        if absc in (a for a, _ in pts):
            raise InconsistentSamplesError("duplicate abscissa %s" % absc)
        pts.append((absc, val))
        names += [v for v in val.vars + (var,) if v not in names]
    need = degree_bound + 1
    if len(pts) < need:
        raise ValueError(
            "need at least %d samples for degree bound %d" % (need, degree_bound)
        )
    at = names.index(var)
    columns = {}    # monomial, var's exponent 0 -> [value at each abscissa]
    for j, (_, val) in enumerate(pts):
        for mono, c in val.table(names).items():
            columns.setdefault(mono, [0] * len(pts))[j] = c
    common, weights = _lagrange_basis([a for a, _ in pts[:need]])
    # scaled[mono][e] = common * (the var^e coefficient of mono's column)
    scaled = {mono: [sum(col[j] * w[e] for j, w in enumerate(weights))
                     for e in range(need)]
              for mono, col in columns.items()}
    for j in range(need, len(pts)):
        xe = pts[j][0]
        xe = xe.numerator if xe.denominator == 1 else xe
        for mono, nums in scaled.items():
            acc = 0
            for c in reversed(nums):
                acc = acc * xe + c
            if acc != columns[mono][j] * common:
                raise InconsistentSamplesError(
                    "oversample at %s disagrees with the interpolant "
                    "(wrong degree bound or bad prime)" % xe
                )
    return MultiPoly(names, {mono[:at] + (e,) + mono[at + 1:]: Fraction(c, common)
                             for mono, nums in scaled.items()
                             for e, c in enumerate(nums) if c})
