"""Arithmetic Tutte polynomials, zonotopes, toric point counts, and the
multivariate Tutte polynomial.

A VectorConfig is a list of integer column vectors in Z^d.  The arithmetic
Tutte polynomial weights each subset B by its multiplicity m(B), the index
of ZB in the integer points of its span.  One depth-first walk over the
subsets carries the Hermite basis of ZB (`linalg.extend_lattice`, one
unimodular step per added vector) and reads the elementary divisors of ZB
off it once per distinct lattice (`linalg.elementary_divisors`, the Smith
form): m(B) is their product, and the toric identity weighs each subset by
them too.  The walk's 2^n subsets are charged to the budget before it
starts.  `multiplicity` computes a single m(B) apart from the walk, as the
gcd of the full-rank minors checked against the elementary divisors of the
whole submatrix: the oracle the tests hold the walk to, not the hot path.

Every invariant here is a specialisation of M, and each is read off the
walk's integer table of m(B) summed by rank and size as a signed sum: the
characteristic polynomial, the zonotope's volume, lattice points and
Ehrhart polynomial, and the toric regions and Poincare polynomial.  The
Tutte polynomial of a thickening is read off the terms of the multivariate
polynomial the same way, with one binomial expansion.  Each result is one
MultiPoly built from an integer table; none is expanded from M and taken
apart again.
"""

from math import comb, gcd, prod

import numpy as np

from .errors import (
    DEFAULT_BUDGET,
    BadPrimeError,
    BudgetExceededError,
    ConsistencyError,
    InputFormatError,
    charge,
)
from .linalg import (
    central_subsets,
    elementary_divisors,
    extend_lattice,
    is_prime,
    minor_gcd,
    power_fits,
    rank_rows,
    subset_walk,
)
from .multipoly import MultiPoly
from .tutte import expand, expand_rank_table


class VectorConfig:
    """An ordered collection of integer vectors (columns of a d x n matrix)."""

    def __init__(self, dim, columns, label=None):
        self.dim = dim
        cols = []
        for c in columns:
            c = tuple(int(x) for x in c)
            if len(c) != dim:
                raise InputFormatError("vector length != dim")
            cols.append(c)
        self.columns = tuple(cols)
        self.label = label

    @property
    def n(self):
        return len(self.columns)

    def rank_of(self, subset):
        return rank_rows([self.columns[i] for i in subset])

    @property
    def rank(self):
        return self.rank_of(range(self.n))

    def matrix(self, subset=None):
        cols = self.columns if subset is None else \
            [self.columns[i] for i in sorted(subset)]
        return [[c[i] for c in cols] for i in range(self.dim)]

    @classmethod
    def from_text(cls, text):
        """Parse the file format: a `dim d` line, then one integer row per vector."""
        lines = [l.strip() for l in text.splitlines()
                 if l.strip() and not l.strip().startswith("#")]
        if not lines:
            raise InputFormatError("empty vector configuration")
        head = lines[0].replace(":", " ").split()
        if len(head) != 2 or head[0] != "dim":
            raise InputFormatError("first line must be 'dim <d>'")
        try:
            dim = int(head[1])
            cols = [[int(x) for x in line.split()] for line in lines[1:]]
        except ValueError as exc:
            raise InputFormatError("bad vector row: %s" % exc)
        if dim < 0:
            raise InputFormatError("dim must be >= 0, got %d" % dim)
        return cls(dim, cols)

    def to_text(self):
        out = ["dim %d" % self.dim]
        out += [" ".join(str(x) for x in c) for c in self.columns]
        return "\n".join(out) + "\n"

    def __repr__(self):
        return "VectorConfig(dim=%d, n=%d)" % (self.dim, self.n)


def multiplicity(config, subset):
    """m(B): index of ZB inside span(B) intersected with Z^d.

    The reference route, apart from the subset walk: the gcd of the
    full-rank minors of the column submatrix, with the product of its
    elementary divisors checked equal to it (ConsistencyError otherwise).
    """
    subset = sorted(subset)
    if not subset:
        return 1
    mat = config.matrix(subset)
    r = config.rank_of(subset)
    if r == 0:
        return 1
    g = minor_gcd(mat, r)
    alt = prod(elementary_divisors(mat))
    if alt != g:
        raise ConsistencyError(
            "minor-gcd and elementary-divisor multiplicities differ "
            "(%d vs %d) on %s" % (g, alt, subset))
    return g


def _lattice_walk(config, weigh, budget):
    """(rank, size, weigh(e)) for every subset B of the columns, e the
    elementary divisors of ZB.

    One depth-first walk carries the Hermite basis of ZB, one
    `extend_lattice` step per added column, and the divisors are read off
    it and weighed once per distinct lattice.  The 2^n subsets are charged
    to the budget before the walk starts.
    """
    if not power_fits(2, config.n, budget):
        raise BudgetExceededError(
            "the 2^%d subsets of the lattice walk exceed the enumeration "
            "budget %d" % (config.n, budget), required=2 ** config.n)
    memo = {}
    for _, size, basis in subset_walk(config.columns, extend_lattice, ()):
        w = memo.get(basis)
        if w is None:
            w = memo[basis] = weigh(elementary_divisors([b for _, b in basis]))
        yield len(basis), size, w


def _multiplicity_table(config, budget=DEFAULT_BUDGET):
    """[rB][|B|] -> sum of m(B) over all subsets B, from one lattice walk."""
    table = [[0] * (config.n + 1) for _ in range(config.rank + 1)]
    for rb, size, m in _lattice_walk(config, prod, budget):
        table[rb][size] += m
    return table


def arithmetic_tutte(config, budget=DEFAULT_BUDGET):
    """M(A; x, y) = sum over subsets of m(B)(x-1)^(r-rB) (y-1)^(|B|-rB)."""
    return expand_rank_table(_multiplicity_table(config, budget), config.rank)


def _alternating_rows(table):
    """[rB] -> sum over sizes of (-1)^|B| table[rB][|B|]."""
    return [sum((-1) ** size * m for size, m in enumerate(row)) for row in table]


def arithmetic_char_poly(config, budget=DEFAULT_BUDGET):
    """(-1)^r q^(d-r) M(1-q, 0) = sum over subsets B of (-1)^|B| m(B) q^(d-rB)."""
    rows = _alternating_rows(_multiplicity_table(config, budget))
    return MultiPoly(("q",), {(config.dim - rb,): c for rb, c in enumerate(rows)})


def zonotope_evaluations(config, budget=DEFAULT_BUDGET):
    """Volume M(1, 1), lattice point count M(2, 1), interior count M(0, 1),
    and Ehrhart polynomial q^r M(1 + 1/q, 1) of the zonotope.

    M(x, 1) = sum_k c_k (x-1)^(r-k), c_k the sum of m(B) over the
    independent subsets B of size k, so the volume is c_r, the two counts
    are sum_k c_k and sum_k (-1)^(r-k) c_k, and the Ehrhart polynomial is
    sum_k c_k q^k.
    """
    table = _multiplicity_table(config, budget)
    r = config.rank
    diag = [table[k][k] for k in range(r + 1)]
    return {
        "volume": diag[r],
        "lattice_points": sum(diag),
        "interior_points": sum((-1) ** (r - k) * c for k, c in enumerate(diag)),
        "ehrhart": MultiPoly(("q",), {(k,): c for k, c in enumerate(diag)}),
    }


def toric_evaluations(config):
    """Region count of the compact toric complement, M(1, 0), and the
    Poincare polynomial of the complex toric complement, q^r M(2 + 1/q, 0).

    M(x, 0) = sum_k s_k (x-1)^(r-k), s_k the sum of (-1)^(|B|-k) m(B) over
    the subsets B of rank k, so the regions are s_r and the Poincare
    polynomial is sum_k s_k q^k (q+1)^(r-k), expanded.
    """
    r = config.rank
    rows = _alternating_rows(_multiplicity_table(config))
    signed = [(-1) ** k * c for k, c in enumerate(rows)]
    poincare = {}
    for k, s in enumerate(signed):
        for j in range(r - k + 1):
            poincare[(k + j,)] = poincare.get((k + j,), 0) + s * comb(r - k, j)
    return {"regions": signed[r], "poincare": MultiPoly(("q",), poincare)}


# Largest number of (column, point) incidences tested in one numpy block;
# the torus is cut along its coordinates so blocks stay this small.
_BLOCK = 1 << 18


def _torus_block(cols, q, base, counts):
    """Add to counts[h] the number of points y of (Z/q)^k, k the number of
    columns of cols, with b.y + base[i] = 0 mod q for exactly h rows b of
    cols (i the index of b).

    A block is a run of values of the first coordinate times all values of
    the others; while the others alone are too many for a block, the first
    coordinate is fixed in turn.  Entries are reduced mod q after every
    product, so they stay below q^2.
    """
    n, k = cols.shape
    if k == 0:
        counts[int((base == 0).sum())] += 1
        return
    rest = q ** (k - 1)
    width = max(n, 1) * rest
    if width > _BLOCK:
        for c in range(q):
            _torus_block(cols[:, 1:], q, (base + cols[:, 0] * c) % q, counts)
        return
    tail = base[:, None]            # b.y + base over the other coordinates
    if k > 1:
        digits = np.arange(q, dtype=cols.dtype)
        for j in range(1, k):
            tail = ((tail[:, :, None] + cols[:, j, None, None] * digits)
                    % q).reshape(n, -1)
    step = max(1, _BLOCK // width)
    for lo in range(0, q, step):
        first = np.arange(lo, min(q, lo + step), dtype=cols.dtype)
        head = (-cols[:, 0, None] * first) % q
        hits = (tail[:, None, :] == head[:, :, None]).sum(axis=0)
        for h, c in enumerate(np.bincount(hits.ravel(), minlength=n + 1)):
            counts[h] += int(c)


def _torus_counts(config, q):
    """counts[k]: the points of (F*_{q+1})^d on exactly k hypertori t^b = 1.

    t = g^y for a generator g of F*_{q+1} maps (Z/q)^d onto the torus, and
    t^b = 1 becomes b.y = 0 mod q.  A coordinate that every column has
    divisible by q changes no incidence, so the others are counted and each
    point stands for q points per such coordinate.
    """
    n, d = config.n, config.dim
    live = [i for i in range(d) if any(b[i] % q for b in config.columns)]
    dtype = np.int64 if q < 1 << 31 else object
    cols = np.array([[b[i] % q for i in live] for b in config.columns],
                    dtype=dtype).reshape(n, len(live))
    counts = [0] * (n + 1)
    _torus_block(cols, q, np.zeros(n, dtype=dtype), counts)
    fibre = q ** (d - len(live))
    return [c * fibre for c in counts]


def toric_point_profile(config, q, budget=DEFAULT_BUDGET):
    """Point counts over the torus (F*_{q+1})^d, with the exact identity check.

    q + 1 must be prime.  The q^d points and, apart from them, the 2^n
    subsets of the walk are charged to the budget.
    h(p) counts hypertori as a multiset over the columns (two equal columns
    contribute two).  A subset B with elementary divisors e_i cuts out a
    subtorus of q^(d - rB) prod gcd(e_i, q) points, so the identity
    sum_p t^h(p) = sum_B q^(d - rB) prod gcd(e_i, q) (t-1)^|B| is asserted
    exactly, coefficient by coefficient; when every e_i divides q the
    product is m(B), and the complement count must also equal the
    arithmetic characteristic polynomial at q, read off the walk's
    multiplicity table.
    """
    P = q + 1
    if q < 1 or not is_prime(P):
        raise BadPrimeError("q + 1 = %d must be prime" % P)
    d = config.dim
    if not power_fits(q, d, budget):
        # q^d itself may have more digits than an int prints
        raise BudgetExceededError(
            "q^d = %d^%d exceeds the enumeration budget %d" % (q, d, budget),
            required=q ** d)

    def weigh(e):
        on = q ** (d - len(e)) * prod(gcd(x, q) for x in e)
        return prod(e), on, all(q % x == 0 for x in e)

    table = [[0] * (config.n + 1) for _ in range(config.rank + 1)]
    on_subtori = [0] * (config.n + 1)
    split = True
    for rb, size, (m, on, divides) in _lattice_walk(config, weigh, budget):
        table[rb][size] += m
        on_subtori[size] += on
        split = split and divides
    counts = _torus_counts(config, q)
    # sum over sizes of on_subtori[size] (t-1)^size, by the binomial theorem
    rhs = [sum((-1) ** (size - j) * comb(size, j) * c
               for size, c in enumerate(on_subtori)) for j in range(config.n + 1)]
    if counts != rhs:
        raise ConsistencyError("toric finite field identity fails at q=%d" % q)
    chi_at_q = sum(c * q ** (d - rb) for rb, c in enumerate(_alternating_rows(table)))
    if split and counts[0] != chi_at_q:
        raise ConsistencyError("toric complement count disagrees with "
                               "the arithmetic characteristic polynomial")
    return {"q": q, "counts": counts,
            "polynomial": MultiPoly(("t",), {(k,): c for k, c in enumerate(counts)})}


class MultivariateTutte:
    """q^r * Ztilde(A; q, w) of an arrangement, a polynomial in q and
    w_1..w_n with no negative powers: one term q^(r - rB) prod_{e in B} w_e
    per central subset B."""

    def __init__(self, poly, arrangement):
        self.poly = poly
        self.arrangement = arrangement
        self.rank = arrangement.rank
        self.n = arrangement.n


def multivariate_tutte(arrangement, budget=DEFAULT_BUDGET):
    """q^r Ztilde = sum over central B of q^(r - rB) prod_{e in B} w_e.

    The central subsets are walked by `linalg.central_subsets`, charged to
    the budget one unit per candidate subset.  The terms held are charged
    apart, n + 1 units (their exponents) per term: when the arrangement is
    central its 2^n terms are checked against the budget before the walk,
    and otherwise each block of terms is charged as the walk yields it.
    """
    r = arrangement.rank
    n = arrangement.n
    if budget is not None and not power_fits(2, n, budget // (n + 1)) \
            and arrangement.is_central():
        raise BudgetExceededError(
            "the multivariate Tutte polynomial needs 2^%d terms of %d exponents, "
            "over the budget %d" % (n, n + 1, budget), required=(n + 1) << n)
    rows = [h.row() for h in arrangement.hyperplanes]
    terms = {}
    held = 0
    for masks, _, ranks in central_subsets(rows, arrangement.prime, budget):
        held += (n + 1) * len(masks)
        charge(held, budget,
               "the multivariate Tutte polynomial needs at least %d term exponents")
        exps = np.column_stack([r - ranks, (masks[:, None] >> np.arange(n)) & 1])
        terms.update(dict.fromkeys(map(tuple, exps.tolist()), 1))
    names = ("q",) + tuple("w_%d" % (e + 1) for e in range(n))
    return MultivariateTutte(MultiPoly(names, terms), arrangement)


def _geometric_product(lengths):
    """Coefficients of prod (1 + y + ... + y^(k-1)) over k in lengths,
    lowest power first; a factor with k = 0 is the empty sum, so the
    product is then 0."""
    coeffs = [1]
    for k in lengths:
        coeffs = [sum(coeffs[max(0, j - k + 1):j + 1])
                  for j in range(len(coeffs) + k - 1)]
    return coeffs


def tutte_from_multivariate(mv, multiplicities):
    """Tutte polynomial of the thickened arrangement A(a) from q^r Ztilde.

    T(A(a); x, y) = (x-1)^(r_s - r) (y-1)^(-r) q^r Ztilde(A; (x-1)(y-1),
    w_e = y^(a_e) - 1), r_s the rank of the support of a.  Since
    y^k - 1 = (y-1)(1 + y + ... + y^(k-1)), the term of a central B is
    (x-1)^(r_s - rB) (y-1)^(|B| - rB) prod_{e in B} (1 + ... + y^(a_e - 1)),
    which is 0 unless B lies in the support; one binomial expansion of
    these terms gives T.
    """
    if len(multiplicities) != mv.n:
        raise ValueError("need one multiplicity per hyperplane")
    if not all(isinstance(k, int) and k >= 0 for k in multiplicities):
        raise ValueError("multiplicities must be nonnegative integers")
    r_s = mv.arrangement.rank_normals(
        frozenset(e for e, k in enumerate(multiplicities) if k))
    terms = {}
    for (qexp, *ws), c in mv.poly.table(mv.poly.vars).items():
        lengths = [k for k, w in zip(multiplicities, ws) if w]
        rb = mv.rank - qexp
        for j, g in enumerate(_geometric_product(lengths)):
            key = (0, r_s - rb, j, len(lengths) - rb)
            terms[key] = terms.get(key, 0) + c * g
    return MultiPoly(("x", "y"), expand(terms))
