"""Exact linear algebra helpers.

Ranks over the rationals are computed by fraction-free Bareiss elimination on
integer rows (denominators are cleared per row), which keeps intermediate
entries as true minors and controls coefficient growth.  Ranks over a prime
field use plain Gaussian elimination mod p.

The echelon kernel (`normalise_row`, `reduce_row`, `extend_basis`, on one
integer elimination step, `eliminate`) keeps a reduced echelon basis of
integer rows over Q, or of rows mod p with pivot entry 1 over F_p, and
reduces further rows against it one at a time;
`pivot_columns` reads the pivots of a row space from it, and
`central_subsets` walks every central subset of an arrangement on it.
"""

from fractions import Fraction
from math import gcd, lcm


# Miller-Rabin with these bases decides primality exactly below
# 3,317,044,064,679,887,385,961,981 (Sorenson and Webster, 2017).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(m):
    """True iff the integer m is prime, by Miller-Rabin on fixed bases.

    Exact below 3.3 * 10^24; above it a strong probable-prime test.  The
    cost is a few modular powers, so an outsized modulus from the input is
    not a sqrt(m) loop.
    """
    if m < 2:
        return False
    for a in _WITNESSES:
        if m % a == 0:
            return m == a
    d, s = m - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def normalise_row(row, prime=None):
    """The canonical nonzero scalar multiple of an integer row, as a tuple.

    Over Q (prime=None) the result is primitive with first nonzero entry
    positive; over F_p its entries lie in [0, p) and the first nonzero one
    is 1.  The zero row maps to itself.
    """
    if prime is not None:
        row = [x % prime for x in row]
        lead = next((x for x in row if x), 1)
        inv = pow(lead, -1, prime)
        return tuple(x * inv % prime for x in row)
    g = gcd(*row)
    for x in row:
        if x:
            if x < 0:
                g = -g
            break
    if g in (0, 1):
        return tuple(row)
    return tuple([x // g for x in row])


def clear_row(row):
    """Scale a row of Fractions to a primitive integer row, first nonzero > 0.

    Returns a tuple of ints; the zero row maps to itself.
    """
    fracs = [Fraction(x) for x in row]
    denom = lcm(*[x.denominator for x in fracs])
    return normalise_row([x.numerator * (denom // x.denominator) for x in fracs])


def eliminate(v, b, c, prime=None):
    """b[c]*v - v[c]*b: an integer row of span(v, b), zero in column c.

    Over F_p (prime given) the entries are reduced mod p.
    """
    a, bc = v[c], b[c]
    out = [bc * x - a * y for x, y in zip(v, b)]
    return out if prime is None else [x % prime for x in out]


def reduce_row(row, basis, prime=None):
    """Remainder of an integer row modulo the span of a reduced echelon basis.

    basis is a list of (pivot column, row) in which every row is zero at the
    other rows' pivots, as kept by `extend_basis`.  The remainder is zero at
    every pivot column, so two rows have remainders that are scalar multiples
    of each other exactly when some combination of them lies in the span.
    """
    v = list(row)
    for c, b in basis:
        if v[c]:
            v = eliminate(v, b, c, prime)
    return v


def extend_basis(basis, row, prime=None):
    """The reduced echelon basis of span(basis) + row, as a new list.

    row must be a nonzero remainder of `reduce_row` against basis, already
    normalised with `normalise_row`; its first nonzero column is the new pivot.
    """
    c = next(i for i, x in enumerate(row) if x)
    out = []
    for pc, b in basis:
        if b[c]:
            b = normalise_row(eliminate(b, row, c, prime), prime)
        out.append((pc, b))
    out.append((c, tuple(row)))
    return out


def pivot_columns(rows, prime=None):
    """Pivot columns of the row space of integer rows, in increasing order.

    They are the pivots of the reduced echelon basis built by `extend_basis`
    (every echelon form of a row space has the same pivots), over Q or F_p;
    the columns at them span every other column.
    """
    basis = []
    for row in rows:
        rem = reduce_row(row, basis, prime)
        if any(rem):
            basis = extend_basis(basis, normalise_row(rem, prime), prime)
    return sorted(c for c, _ in basis)


def central_subsets(rows, prime=None):
    """Every central subset of augmented rows [normal | offset], depth first.

    Yields (mask, size, rank) in index order: each subset comes before the
    subsets that extend it by larger indices, and rank is the rank of its
    normals.  A subset keeps the reduced echelon basis of its rows, so adding
    a row costs one reduction.  A remainder that is zero on the normals but
    not on the offset leaves the subset with no common point, and every
    superset too, so that subtree is skipped; a zero remainder keeps the rank.
    """
    n = len(rows)
    stack = [(0, 0, 0, [])]     # next index, mask, size, basis
    while stack:
        start, mask, size, basis = stack.pop()
        yield mask, size, len(basis)
        children = []
        for j in range(start, n):
            rem = reduce_row(rows[j], basis, prime)
            if any(rem[:-1]):
                child = extend_basis(basis, normalise_row(rem, prime), prime)
            elif rem[-1]:
                continue
            else:
                child = basis
            children.append((j + 1, mask | 1 << j, size + 1, child))
        stack.extend(reversed(children))


def rank_int(rows):
    """Rank of a matrix with integer entries, by Bareiss elimination."""
    m = [list(r) for r in rows if any(r)]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(ncols):
        pivot = None
        for i in range(row, len(m)):
            if m[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        for i in range(row + 1, len(m)):
            for j in range(col + 1, ncols):
                m[i][j] = (m[row][col] * m[i][j] - m[i][col] * m[row][j]) // prev
            m[i][col] = 0
        prev = m[row][col]
        row += 1
        rank += 1
        if row == len(m):
            break
    return rank


def rank_mod_p(rows, p):
    """Rank of a matrix over F_p by Gaussian elimination."""
    m = [[x % p for x in r] for r in rows]
    m = [r for r in m if any(r)]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = None
        for i in range(row, len(m)):
            if m[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = pow(m[row][col], -1, p)
        for i in range(row + 1, len(m)):
            if m[i][col]:
                f = (m[i][col] * inv) % p
                for j in range(col, ncols):
                    m[i][j] = (m[i][j] - f * m[row][j]) % p
        row += 1
        rank += 1
        if row == len(m):
            break
    return rank


def rank_rows(rows, prime=None):
    """Rank dispatcher: integer rows over Q (prime=None) or over F_prime."""
    if prime is None:
        return rank_int(rows)
    return rank_mod_p(rows, prime)
