"""Exact linear algebra over Q, written apart from tuttekit's linalg.

Kept free of sympy so that building a workload's inputs loads nothing that
would count in the benchmark's peak memory.
"""

from fractions import Fraction


def _reduce(vec, basis):
    """Reduce vec against an echelon basis [(pivot, row with row[pivot]=1)]."""
    v = list(vec)
    for p, row in basis:
        if v[p]:
            f = v[p]
            v = [a - f * b for a, b in zip(v, row)]
    for p, a in enumerate(v):
        if a:
            return p, [b / a for b in v]
    return None


def rank(rows):
    basis = []
    for r in rows:
        red = _reduce([Fraction(a) for a in r], basis)
        if red is not None:
            basis.append(red)
    return len(basis)


def independent_counts(vectors):
    """counts[k] = number of linearly independent k-subsets of vectors."""
    vecs = [[Fraction(a) for a in v] for v in vectors]
    counts = []

    def extend(start, basis):
        k = len(basis)
        if k == len(counts):
            counts.append(0)
        counts[k] += 1
        for i in range(start, len(vecs)):
            red = _reduce(vecs[i], basis)
            if red is not None:
                extend(i + 1, basis + [red])

    extend(0, [])
    return counts


def det(m):
    """Exact determinant by Fraction elimination."""
    m = [[Fraction(a) for a in row] for row in m]
    n = len(m)
    result = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            result = -result
        result *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return result
