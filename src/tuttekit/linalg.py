"""Exact linear algebra helpers.

Every exact rank, dependency and closure over Q or F_p comes from one
echelon pass (`hold_row`): each integer row is reduced at the pivots held,
in the order they were found (`reduce_row`, one `eliminate` step per
pivot), and a nonzero remainder is held with its first nonzero column as a
new pivot, divided by the gcd of its entries over Q and left unscaled over
F_p.  `pivot_columns` runs the pass until every column is a pivot, and the
ranks `rank_int`, `rank_mod_p` and `rank_rows` are its number of pivots.
`normalise_row` puts a row in canonical form, and `contract_rows`
restricts rows to one row's hyperplane.

The array form works on 2-D numpy integer arrays, a row per item:
`eliminate_rows` is `eliminate` and `normalise_rows` is `normalise_row` on
every row at once, and `primitive_rows` only divides each row by its gcd
(reduces it mod p), for readers of zero patterns alone.  Arrays are int64
while the prime and every entry lie below 2^31, so that no product of two
entries overflows, and numpy arrays of Python ints otherwise
(`integer_rows`); between steps `narrow_rows` stores them in the narrowest
type that holds them.  The flat lattice (`poset`) and `echelon_walk` run on
it.  `echelon_walk` walks subsets of the rows a size at a time, a block of
subsets and their remainders per step: every central subset
(`central_subsets`, for the multivariate Tutte polynomial and the
semimatroid fingerprint), whose remainder rows carry their owner subset
and row index so that each held row is a candidate child, or only the
central independent ones with a count of the rows each spans (the subset
expansion), or every independent subset up to the bases, held as one
(subsets, rows, columns) array with tag columns that record fundamental
circuits (the basis-activity expansion).  Its readers use only the zero patterns of the
remainders, so it reduces them by `primitive_rows`.

The lattice kernel (`extend_lattice`) keeps the Hermite basis of the
integer span of integer rows, extended one row at a time by unimodular
extended-gcd steps; `subset_walk` carries it along every subset of a vector
configuration, and `lattice_index` and `elementary_divisors` read the
arithmetic of the lattice off it.  `minor_gcd`, `det_int` and
`elementary_divisors` on a whole matrix are the reference route.

The determinant kernel (`det_stack`) runs Bareiss elimination on a stack of
square integer matrices at once; `maximal_minors` feeds it every maximal
minor of a matrix a block at a time (the basis multiplicities that certify
small primes).
"""

from fractions import Fraction
from functools import reduce
from itertools import combinations, islice
from math import gcd, lcm, prod

import numpy as np

from .errors import BudgetExceededError


# Rows are int64 while the prime and every entry lie below this bound, so
# that b[c]*v - v[c]*b of four such entries fits in 63 bits; Python ints
# otherwise.
_KEY_BOUND = 1 << 31

# Bytes of int64 child rows that `echelon_walk` builds at once.
_WALK_BYTES = 1 << 17

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


def power_fits(base, exp, budget):
    """base^exp <= budget for an integer base >= 1, without forming a power
    beyond the budget, so a huge exponent costs no more than a small one."""
    if base == 1:
        return budget >= 1
    acc = 1
    for _ in range(exp):
        acc *= base
        if acc > budget:
            return False
    return acc <= budget


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


def normalise_rows(rows, prime=None):
    """`normalise_row` on each row of a 2-D numpy integer array, as a new array.

    The dtype is kept: int64 when every entry and the products of two of
    them fit, or object (Python ints).  Over Q each row is negated where its
    first nonzero entry is negative, and the rows whose gcd exceeds 1 are
    divided by it; when every entry lies within +-1, no gcd does, and only
    the signs change.  The gcd is taken a column at a time, which numpy
    does faster than along each short row.  Over F_p a row is reduced mod p
    and multiplied by the inverse of its first nonzero entry, one `pow` per
    distinct leading entry.
    """
    if prime is not None:
        rows = rows % prime
    lead = rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)]
    if prime is not None:
        lead[lead == 0] = 1
        leads, where = np.unique(lead, return_inverse=True)
        inverses = np.array([pow(int(x), -1, prime) for x in leads], rows.dtype)
        return rows * inverses[where][:, None] % prime
    out = rows * np.where(lead < 0, -1, 1).astype(rows.dtype)[:, None]
    if -1 <= rows.min(initial=0) and rows.max(initial=0) <= 1:
        return out
    g = reduce(np.gcd, rows.T, 0)
    big = (g > 1).nonzero()[0]
    out[big] //= g[big, None]
    return out


def primitive_rows(rows, prime=None):
    """A nonzero multiple of each row of a numpy integer array (rows along
    the last axis) with the same zero pattern and small entries: over Q the
    row divided by the gcd of its entries, over F_p the row reduced mod p.
    Unlike `normalise_rows`, the sign or leading entry is left as it is."""
    if prime is not None:
        return rows % prime
    if np.abs(rows).max(initial=0) <= 1:
        return rows     # every gcd is 0 or 1
    return rows // np.maximum(np.gcd.reduce(rows, axis=-1, keepdims=True), 1)


def integer_rows(rows, width, prime=None):
    """Integer rows of the given width as a 2-D numpy array: int64 while the
    prime and every entry lie below _KEY_BOUND, Python ints otherwise."""
    wide = (prime or 0) >= _KEY_BOUND or any(abs(x) >= _KEY_BOUND for row in rows for x in row)
    return np.array(rows, object if wide else np.int64).reshape(len(rows), width)


def eliminate_rows(rows, basis, cols):
    """`eliminate` on every row of a 2-D numpy integer array at once:
    b[c]*v - v[c]*b for each row v, with b and c the matching row of basis
    and entry of cols.

    Integer arrays are computed in int64, which holds the result while every
    entry lies below _KEY_BOUND, as `narrow_rows` keeps them; object arrays
    in Python ints.  Over F_p the result is reduced by `normalise_rows`.
    """
    if rows.dtype != object and basis.dtype != object:
        rows, basis = rows.astype(np.int64), basis.astype(np.int64)
    at = np.arange(len(cols)), cols
    return basis[at][:, None] * rows - rows[at][:, None] * basis


def narrow_rows(rows):
    """Integer rows in the narrowest numpy type that holds them, or as Python
    ints once an entry reaches _KEY_BOUND; Python-int rows stay as they are."""
    if rows.dtype == object:
        return rows
    top = int(np.abs(rows).max(initial=0))
    return rows.astype(object if top >= _KEY_BOUND else np.min_scalar_type(-top - 1))


def blocks(sizes, limit):
    """(start, end) ranges covering range(len(sizes)) in order, each of total
    size at most limit unless it is a single item; sizes is a numpy array."""
    ends = sizes.cumsum()
    s = 0
    while s < len(ends):
        top = (ends[s - 1] if s else 0) + limit
        e = len(ends) if ends[-1] <= top else \
            max(s + 1, int(ends.searchsorted(top, "right")))
        yield s, e
        s = e


def clear_row(row):
    """Scale a row of ints and Fractions to a primitive integer row, first
    nonzero > 0; other entries are made Fractions first.

    Returns a tuple of ints; the zero row maps to itself.
    """
    fracs = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
    denom = lcm(*[x.denominator for x in fracs])
    return normalise_row([x.numerator * (denom // x.denominator) for x in fracs])


def eliminate(v, b, c, prime=None):
    """b[c]*v - v[c]*b: an integer row of span(v, b), zero in column c.

    Over F_p (prime given) the entries are reduced mod p.
    """
    a, bc = v[c], b[c]
    if prime is None:
        return [bc * x - a * y for x, y in zip(v, b)]
    return [(bc * x - a * y) % prime for x, y in zip(v, b)]


def reduce_row(row, basis, prime=None):
    """Remainder of an integer row modulo the span of an echelon basis.

    basis is a list of (pivot column, row) in which every row is zero at the
    pivots of the rows before it and its first nonzero column is its own
    pivot, as `hold_row` keeps it; the row is reduced at the pivots in that
    order.  The remainder is zero at every pivot column, and zero exactly
    when the row lies in the span of the basis.
    """
    v = list(row)
    for c, b in basis:
        if v[c]:
            v = eliminate(v, b, c, prime)
    return v


def hold_row(basis, row, prime=None):
    """One step of the echelon pass: reduce an integer row against basis
    (`reduce_row`) and, when a remainder is left, append (its first nonzero
    column, it) to basis, divided by the gcd of its entries over Q and left
    unscaled over F_p.  True iff the row was held, that is iff it does not
    lie in the span of the rows before it."""
    v = reduce_row(row if prime is None else [x % prime for x in row], basis, prime)
    c = next((i for i, x in enumerate(v) if x), None)
    if c is None:
        return False
    if prime is None:
        g = gcd(*v)
        v = [x // g for x in v]
    basis.append((c, v))
    return True


def pivot_columns(rows, prime=None):
    """Pivot columns of the row space of integer rows, in increasing order.

    One echelon pass over the rows (`hold_row`), over Q or F_p, that stops
    once every column is a pivot.  A held row is zero at the pivots found
    before it and its first nonzero column is its own pivot, so the rows
    held, sorted by pivot, are an echelon form, and every echelon form of a
    row space has the same pivots; the columns at them span every other
    column.
    """
    basis = []      # (pivot column, row), in the order found
    for row in rows:
        if hold_row(basis, row, prime) and len(basis) == len(row):
            break
    return sorted(c for c, _ in basis)


def contract_rows(rows, i, prime=None):
    """The rows restricted to row i's hyperplane, in canonical form: each
    other row eliminated at the first nonzero column of row i's normal,
    that column dropped, and a row parallel to row i (zero normal, nonzero
    offset) dropped.  A row whose image is zero stays, as a loop."""
    h = rows[i]
    c = next(k for k, x in enumerate(h) if x)
    out = []
    for j, g in enumerate(rows):
        if j == i:
            continue
        if not g[c]:
            out.append(g[:c] + g[c + 1:])
            continue
        row = eliminate(g, h, c, prime)
        del row[c]
        if any(row[:-1]):
            out.append(normalise_row(row, prime))
        elif not row[-1]:
            out.append(tuple(row))      # a loop
    return out


def subset_walk(rows, step, root):
    """Every subset of rows that `step` admits, depth first, with its basis.

    Yields (mask, size, basis) in index order: each subset comes before the
    subsets that extend it by larger indices.  root is the basis of the
    empty subset, and step(basis, row) the basis of a subset with one more
    row, or None when that subset and every superset of it are skipped; a
    subset's basis is computed once and shared by every subset built on it.
    """
    n = len(rows)
    stack = [(0, 0, 0, root)]     # next index, mask, size, basis
    push = stack.append
    while stack:
        start, mask, size, basis = stack.pop()
        yield mask, size, basis
        # the children go on the stack last index first, so the first pops first
        for j in range(n - 1, start - 1, -1):
            child = step(basis, rows[j])
            if child is not None:
                push((j + 1, mask | 1 << j, size + 1, child))


def echelon_walk(rows, prime=None, budget=None, rank=None, spans=False):
    """Blocks of subsets of augmented rows [normal | offset], each with the
    remainders of rows against its reduced echelon basis.

    A subset's state is an integer array of remainders; a block holds
    states of one size, and all its children (subset + j, j past the
    subset's last index) are built together: row j's remainder b is the
    new basis row, and every other remainder v takes one elimination step,
    b[c]*v - v[c]*b at b's first nonzero normal column c.  The walk and its
    readers use only which entries of a remainder are zero, so a step
    divides each remainder by the gcd of its entries over Q, which keeps
    them small, and reduces it mod p over F_p; remainders are determined up
    to a nonzero scalar per row (and per tag column).  Children are built
    `_WALK_BYTES` of int64 rows at a time and each child block is walked
    before the next is built, so a wide size is never held whole; within
    each size the subsets come in lexicographic order.  Yields (masks,
    size, ranks, rems) per block: bit j of a mask stands for row j, ranks
    are the ranks of the normals, and rems the remainders.  Between blocks
    they are stored by `narrow_rows`.

    With rank None the walk is central, and rems holds the states' rows
    concatenated, one row per (state, j) with j past the state's last
    index; each row carries that owner state and index j.  So the held rows
    are the candidates: the child (state, j) is the row itself, and its
    rows are the next m - 1 - j rows of the block.  A child whose remainder
    is zero on the normals but not on the offset is skipped with every
    superset (no common point), and one whose remainder is zero keeps its
    parent's rows and rank.  Each candidate child costs one unit of the
    budget, and the empty set one, so a central arrangement costs 2^n; when
    the rows have a common point and 2^n exceeds the budget, that is known
    before the walk, which then does not start.

    With spans set as well, on rows with nonzero normals (the non-loops),
    the central walk keeps only the children that raise the rank, so it
    visits the central independent subsets I, and the ranks array gives
    |F(I)| instead, which their sizes make redundant: F(I) holds the rows
    outside I that lie in the span of the augmented rows of I before them.
    A child's F is its parent's and the rows after j that its new basis
    row reduces to zero.  The budget is charged as above, per candidate
    row, which maps (I, j) to the subset I + j of at most r + 1 rows: the
    walk costs at most sum_{k <= r+1} C(m, k), with r the rank of the
    normals, and never more than the full walk.

    With a rank r the walk runs over the independent subsets that can reach
    size r, and rems is a (states, m, w) array: every row of each state,
    with r tag columns after the offset.  Tag k is set in the k-th basis
    row as it joins, so that every later elimination carries it, and a
    basis row's remainder is the zero row.  The candidates are read off one
    (states, m) grid: a child is admitted when j is past the state's last
    index, its remainder is nonzero on the normals and rows j .. m - 1 can
    still complete it.  Each admitted subset, the empty one too, costs m
    units (its m row steps).  The walk stops at size r, whose states are
    the bases.

    Each block of children is charged before its arrays are made, and
    BudgetExceededError reports the running total as `required` once it
    exceeds the budget (None: no bound).
    """
    m = len(rows)
    d = len(rows[0]) - 1 if rows else 0
    width = d + 1 + (rank or 0)
    bits = np.array([1 << j for j in range(m)], np.int64 if m < 63 else object)
    work = 0

    def charge(units):
        nonlocal work
        work += units
        if budget is not None and work > budget:
            what = ("the central-subset walk needs at least %d candidate subsets"
                    if rank is None else
                    "the basis-activity expansion needs at least %d row steps")
            raise BudgetExceededError((what + ", over the budget %d") % (work, budget),
                                      required=work)

    def wide(rems):
        return rems if rems.dtype == object else rems.astype(np.int64)

    def central(masks, size, ranks, rems, owner, index):
        step = (rems[:, :d] != 0).any(axis=1)
        zero = ~step & (rems[:, d] == 0)
        keep = step if spans else step | zero
        height = m - 1 - index

        def child(pick):
            # the rows of child k are rows pick[k] + 1 .. pick[k] + counts[k]
            counts = height[pick]
            rep = np.repeat(np.arange(len(pick)), counts)
            src = np.arange(len(rep)) + (pick + 1 - np.cumsum(counts) + counts)[rep]
            v, b = wide(rems[src]), wide(rems[pick])
            c = np.argmax(b != 0, axis=1)
            bc = b[np.arange(len(pick)), c]
            bc[bc == 0] = 1         # a zero remainder keeps its parent's rows
            out = bc[rep, None] * v - v[np.arange(len(rep)), c[rep], None] * b[rep]
            out = narrow_rows(primitive_rows(out, prime))
            parent = owner[pick]
            if spans:
                # the rows that the new basis row reduces to zero
                cut = ~(out != 0).any(axis=1) & ~zero[src]
                grew = np.bincount(rep[cut], minlength=len(pick))
            else:
                grew = step[pick]
            return (masks[parent] | bits[index[pick]], size + 1, ranks[parent] + grew,
                    out, rep, index[src])

        for lo, hi in blocks((height + 1) * keep * (8 * width), _WALK_BYTES):
            pick = lo + np.flatnonzero(keep[lo:hi])
            charge(hi - lo)
            if len(pick):
                yield child(pick)

    def independent(masks, size, ranks, rems, last):
        j = np.arange(m)
        keep = ((rems[:, :, :d] != 0).any(axis=2) & (j > last[:, None])
                & (m - j >= rank - size)).ravel()

        def child(pick):
            s, cj = np.divmod(pick, m)
            at = np.arange(len(pick))
            v = wide(rems[s])
            b = v[at, cj]
            b[:, d + 1 + size] = 1      # the tag of the new basis row
            c = np.argmax(b != 0, axis=1)
            out = b[at, c, None, None] * v - v[at, :, c][:, :, None] * b[:, None]
            out[at, cj] = 0
            return (masks[s] | bits[cj], size + 1, ranks[s] + 1,
                    narrow_rows(primitive_rows(out, prime)), cj)

        for lo, hi in blocks(keep * ((m + 1) * 8 * width), _WALK_BYTES):
            pick = lo + np.flatnonzero(keep[lo:hi])
            if len(pick):
                charge(m * len(pick))
                yield child(pick)

    if rank is None and not spans and budget is not None and not power_fits(2, m, budget) \
            and rank_rows([row[:-1] for row in rows], prime) == rank_rows(rows, prime):
        raise BudgetExceededError(
            "the central-subset walk needs 2^%d candidate subsets, over the "
            "budget %d" % (m, budget), required=2 ** m)
    rems = integer_rows(rows, d + 1, prime)
    root = np.zeros(1, bits.dtype), 0, np.zeros(1, np.int64)
    if rank is None:
        grow = central
        root += narrow_rows(rems), np.zeros(m, np.int64), np.arange(m)
    else:
        grow = independent
        rems = np.hstack([rems, np.zeros((m, rank), rems.dtype)])
        root += narrow_rows(rems)[None], np.full(1, -1)
    charge(1 if rank is None else m)
    stack = [iter([root])]
    while stack:
        block = next(stack[-1], None)
        if block is None:
            stack.pop()
            continue
        yield block[:4]
        if rank is None or block[1] < rank:
            stack.append(grow(*block))


def central_subsets(rows, prime=None, budget=None):
    """Every central subset of augmented rows [normal | offset], a block at
    a time: yields (masks, sizes, ranks) arrays, in the order of
    `echelon_walk`, where ranks are the ranks of the subsets' normals.  The
    walk charges one unit per candidate subset to the budget."""
    for masks, size, ranks, _ in echelon_walk(rows, prime, budget):
        yield masks, np.full(len(masks), size), ranks


# -- integer lattices ---------------------------------------------------------

def _xgcd(a, b):
    """(g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        k, rem = divmod(a, b)
        a, b = b, rem
        s0, s1 = s1, s0 - k * s1
        t0, t1 = t1, t0 - k * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)


def extend_lattice(basis, row):
    """The Hermite basis of the lattice spanned by basis and an integer row.

    A Hermite basis is a tuple of (pivot column, row) in increasing pivot
    order: each row is zero before its pivot, its pivot entry is positive,
    and the entries of the rows above it at that pivot lie in [0, pivot).
    Every lattice has exactly one, so equal lattices give equal tuples.  The
    row is reduced against the basis by unimodular extended-gcd steps, and a
    row already in the lattice returns basis itself.
    """
    if len(basis) == len(row) and all(b[c] == 1 for c, b in basis):
        return basis    # it spans Z^d, and so every row
    v = row
    out = None          # a copy of basis, made at the first change
    k = 0
    for c in range(len(v)):
        a = v[c]
        if not a:
            continue
        rows = basis if out is None else out
        while k < len(rows) and rows[k][0] < c:
            k += 1
        if k == len(rows) or rows[k][0] > c:
            if out is None:
                out = list(basis)
            out.insert(k, (c, tuple(v) if a > 0 else tuple([-x for x in v])))
            break
        b = rows[k][1]
        p = b[c]
        f, rem = divmod(a, p)
        if rem:
            if out is None:
                out = list(basis)
            # replace b by the row of span(b, v) with pivot gcd(p, a)
            g, s, t = _xgcd(p, a)
            out[k] = (c, tuple([s * y + t * x for x, y in zip(v, b)]))
            v = [p // g * x - a // g * y for x, y in zip(v, b)]
        else:
            v = [x - f * y for x, y in zip(v, b)]
    if out is None:
        return basis
    for i, (c, b) in enumerate(out):
        for j in range(i):
            cj, bj = out[j]
            f = bj[c] // b[c]
            if f:
                out[j] = (cj, tuple([x - f * y for x, y in zip(bj, b)]))
    return tuple(out)


def lattice_index(basis):
    """The index of a lattice in the integer points of its span, from its
    Hermite basis: the gcd of the maximal minors, which at full rank is
    the product of the pivots."""
    if basis and len(basis) < len(basis[0][1]):
        return minor_gcd([b for _, b in basis], len(basis))
    return prod(b[c] for c, b in basis)


def det_int(m):
    """Integer determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return 1
    m = [list(row) for row in m]
    sign = 1
    prev = 1
    for col in range(n - 1):
        if m[col][col] == 0:
            for i in range(col + 1, n):
                if m[i][col]:
                    m[col], m[i] = m[i], m[col]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(col + 1, n):
            for j in range(col + 1, n):
                m[i][j] = (m[col][col] * m[i][j] - m[i][col] * m[col][j]) // prev
            m[i][col] = 0
        prev = m[col][col]
    return sign * m[n - 1][n - 1]


def hadamard_sq(rows, k):
    """The product of the k largest squared norms of integer rows, each taken
    as at least 1: its square root bounds every minor with at most k rows
    (Hadamard)."""
    norms_sq = sorted((max(1, sum(x * x for x in row)) for row in rows), reverse=True)
    return prod(norms_sq[:k])


def det_stack(mats):
    """Determinants of a stack of k x k integer matrices (k >= 1), an
    (N, k, k) numpy array, by fraction-free (Bareiss) elimination on all of
    them at once.

    Step c swaps up the first row with a nonzero entry in column c and sets
    m[i][j] = (m[c][c]*m[i][j] - m[i][c]*m[c][j]) / (pivot of step c - 1),
    an exact division, for i, j > c; a matrix with no such row is singular,
    its entries below and right of the pivot become 0, and its next divisor
    is taken as 1.  Each entry after step c is a (c + 2) x (c + 2) minor, and
    the last step multiplies two (k - 1) x (k - 1) minors, so an int64 stack
    is exact while those minors lie below _KEY_BOUND; an object stack
    (Python ints) always is.
    """
    m = np.array(mats)
    n, k = m.shape[0], m.shape[1]
    sign = np.ones(n, m.dtype)
    prev = np.ones(n, m.dtype)
    at = np.arange(n)
    for c in range(k - 1):
        piv = c + np.argmax(m[:, c:, c] != 0, axis=1)
        swap = piv != c
        if swap.any():
            s, t = at[swap], piv[swap]
            top = m[s, c].copy()
            m[s, c] = m[s, t]
            m[s, t] = top
            sign[swap] = -sign[swap]
        a = m[:, c, c]
        m[:, c + 1:, c + 1:] = (a[:, None, None] * m[:, c + 1:, c + 1:]
                                - m[:, c + 1:, c, None] * m[:, c, None, c + 1:]
                                ) // prev[:, None, None]
        prev = np.where(a == 0, 1, a)
    return sign * m[:, k - 1, k - 1]


def maximal_minors(rows):
    """The k x k minors of an integer matrix of k >= 1 columns, one per
    k-subset of its rows in lexicographic order, as numpy arrays a block at
    a time.

    Each block stacks `_WALK_BYTES` of int64 matrices for `det_stack`, in
    int64 while the Hadamard bound of the (k - 1) x (k - 1) minors lies below
    _KEY_BOUND, and in Python ints otherwise.
    """
    k = len(rows[0])
    wide = hadamard_sq(rows, max(1, k - 1)) >= _KEY_BOUND ** 2
    a = np.array(rows, object if wide else np.int64)
    subsets = combinations(range(len(rows)), k)
    per = max(1, _WALK_BYTES // (8 * k * k))
    while True:
        block = list(islice(subsets, per))
        if not block:
            return
        yield det_stack(a[np.array(block)])


def minor_gcd(matrix, r):
    """gcd of all r x r minors of an integer matrix (1 when r = 0)."""
    if r == 0:
        return 1
    nrows, ncols = len(matrix), len(matrix[0])
    g = 0
    for rows in combinations(range(nrows), r):
        for cols in combinations(range(ncols), r):
            g = gcd(g, det_int([[matrix[i][j] for j in cols] for i in rows]))
            if g == 1:
                return 1
    return g


def elementary_divisors(matrix):
    """The nonzero elementary divisors e_1 | e_2 | ... of an integer matrix.

    The matrix is diagonalised by repeated gcd pivoting, and the diagonal is
    made a divisor chain by gcd/lcm exchanges (the Smith normal form).  Their
    product is the gcd of the maximal minors.
    """
    m = [list(row) for row in matrix]
    diag = []
    nrows, ncols = len(m), len(m[0]) if m else 0
    top = left = 0
    while top < nrows and left < ncols:
        piv = None
        best = None
        for i in range(top, nrows):
            for j in range(left, ncols):
                if m[i][j] and (best is None or abs(m[i][j]) < best):
                    best = abs(m[i][j])
                    piv = (i, j)
        if piv is None:
            break
        i, j = piv
        m[top], m[i] = m[i], m[top]
        for row in m:
            row[left], row[j] = row[j], row[left]
        dirty = False
        for i in range(top + 1, nrows):
            qt = m[i][left] // m[top][left]
            if qt:
                for j in range(left, ncols):
                    m[i][j] -= qt * m[top][j]
            if m[i][left]:
                dirty = True
        for j in range(left + 1, ncols):
            qt = m[top][j] // m[top][left]
            if qt:
                for i in range(top, nrows):
                    m[i][j] -= qt * m[i][left]
            if m[top][j]:
                dirty = True
        if dirty:
            continue  # smaller remainders appeared; re-pivot this block
        diag.append(abs(m[top][left]))
        top += 1
        left += 1
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return diag


def rank_int(rows):
    """Rank of a matrix with integer entries, by the echelon pass."""
    return len(pivot_columns(rows))


def rank_mod_p(rows, p):
    """Rank of a matrix over F_p, by the echelon pass."""
    return len(pivot_columns(rows, p))


def rank_rows(rows, prime=None):
    """Rank dispatcher: integer rows over Q (prime=None) or over F_prime."""
    if prime is None:
        return rank_int(rows)
    return rank_mod_p(rows, prime)
