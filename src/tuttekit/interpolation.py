"""Exact Lagrange interpolation in one variable.

This is the reconstruction step of the finite field method: the coboundary
polynomial has X-degree at most the rank r, and its coefficients of X^r and
X^(r-1) are known without counting, so r - 1 samples determine the rest (the
point profiles at distinct primes, and for a central arrangement the value
Y^n at X = 1), and an extra sample cross-checks the degree bound and the
correctness of every reduction.  The known top coefficients are subtracted
from the samples and added back into the result's table.

The work is done on integer tables.  A sample is an integer abscissa with a
list of integer counts [c_0, c_1, ...] standing for sum_k c_k Y^k, as a
point profile gives them, so no polynomial is built per sample.  The
Lagrange basis polynomials are computed once per call, as integer
coefficient lists over one common denominator; each power of Y's column of
sample values is then interpolated by a dot product, and each oversample is
checked by Horner's rule.  One MultiPoly in (Y, X) is built at the end.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import InconsistentSamplesError
from .multipoly import MultiPoly


def _lagrange_basis(xs):
    """(common, weights): weights[j][e] / common is the X^e coefficient of
    the j-th Lagrange basis polynomial of the distinct integers xs; the
    weights are integers, and common is the least denominator that makes
    them so.

    The j-th basis polynomial is the product over k != j of
    (X - x_k) / (x_j - x_k): an integer polynomial over an integer, both
    reduced by their gcd.
    """
    nums, dens = [], []
    for j, xj in enumerate(xs):
        coeffs, scale = [1], 1
        for k, xk in enumerate(xs):
            if k != j:
                # multiply by X - x_k
                coeffs = [a - xk * b for a, b in zip([0] + coeffs, coeffs + [0])]
                scale *= xj - xk
        g = gcd(scale, *coeffs)
        nums.append([c // g for c in coeffs])
        dens.append(scale // g)
    common = lcm(*dens)
    return common, [[c * (common // s) for c in coeffs]
                    for coeffs, s in zip(nums, dens)]


def interpolate_in_X(samples, degree_bound, top=()):
    """Fit the unique polynomial in X of degree <= degree_bound + len(top),
    with the given top coefficients, through samples; a MultiPoly in
    ("Y", "X").

    samples: list of (x, [c_0, c_1, ...]), x an integer and the counts
    integers standing for the value sum_k c_k Y^k at X = x.
    top: known coefficients of X^(degree_bound + 1), X^(degree_bound + 2),
    ..., integer lists of the same kind.  The known part is subtracted from
    each sample, the rest is fitted at degree_bound (-1: the rest must be 0),
    and the top is added into the result's table.
    Extra samples beyond degree_bound+1 are used as consistency checks; a
    mismatch raises InconsistentSamplesError.
    """
    if degree_bound < -1:
        raise ValueError("degree bound must be at least -1")
    xs = [x for x, _ in samples]
    for j, x in enumerate(xs):
        if x in xs[:j]:
            raise InconsistentSamplesError("duplicate abscissa %s" % x)
    need = degree_bound + 1
    if len(xs) < need:
        raise ValueError(
            "need at least %d samples for degree bound %d" % (need, degree_bound)
        )
    columns = {}    # Y's exponent -> [its coefficient at each abscissa]
    for j, (_, counts) in enumerate(samples):
        for k, c in enumerate(counts):
            if c:
                columns.setdefault(k, [0] * len(xs))[j] = c
    known = {}      # (Y's exponent, X's exponent) -> the top's coefficient
    for e, counts in enumerate(top, need):
        powers = [x ** e for x in xs]
        for k, c in enumerate(counts):
            if c:
                known[(k, e)] = c
                col = columns.setdefault(k, [0] * len(xs))
                for j, x in enumerate(powers):
                    col[j] -= c * x
    common, weights = _lagrange_basis(xs[:need])
    # scaled[k][e] = common * (the X^e coefficient of Y^k's column)
    scaled = {k: [sum(col[j] * w[e] for j, w in enumerate(weights))
                  for e in range(need)]
              for k, col in columns.items()}
    for j in range(need, len(xs)):
        x = xs[j]
        for k, nums in scaled.items():
            acc = 0
            for c in reversed(nums):
                acc = acc * x + c
            if acc != columns[k][j] * common:
                raise InconsistentSamplesError(
                    "oversample at %s disagrees with the interpolant "
                    "(wrong degree bound or bad prime)" % x
                )
    fitted = {(k, e): Fraction(c, common)
              for k, nums in scaled.items() for e, c in enumerate(nums) if c}
    return MultiPoly(("Y", "X"), {**fitted, **known})
