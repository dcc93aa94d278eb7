"""Arithmetic Tutte polynomials, zonotopes, toric point counts, and the
multivariate Tutte polynomial.

A VectorConfig is a list of integer column vectors in Z^d.  The arithmetic
Tutte polynomial weights each subset B by its multiplicity m(B), the index
of ZB in the integer points of its span.  One depth-first walk over the
subsets carries the Hermite basis of ZB (`linalg.extend_lattice`, one
unimodular step per added vector) and reads m(B) off it once per distinct
lattice; the toric identity reads the elementary divisors of ZB off the same
basis.  The walk's 2^n subsets are charged to the budget before it
starts.  `multiplicity` computes a single m(B) apart from the walk, as the
gcd of the full-rank minors checked against the elementary divisors of the
whole submatrix: the oracle the tests hold the walk to, not the hot path.
"""

from fractions import Fraction
from math import comb, gcd, prod

import numpy as np

from .errors import (
    BadPrimeError,
    BudgetExceededError,
    ConsistencyError,
    InputFormatError,
)
from .finite_field import DEFAULT_BUDGET
from .linalg import (
    central_subsets,
    elementary_divisors,
    extend_lattice,
    is_prime,
    lattice_index,
    minor_gcd,
    power_fits,
    rank_rows,
    subset_walk,
)
from .multipoly import MultiPoly
from .tutte import expand_rank_table


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


def multiplicity(config, subset, cross_check=True):
    """m(B): index of ZB inside span(B) intersected with Z^d.

    The reference route, apart from the subset walk: the gcd of the
    full-rank minors of the column submatrix, with the product of its
    elementary divisors asserted equal when cross_check is set.
    """
    subset = sorted(subset)
    if not subset:
        return 1
    mat = config.matrix(subset)
    r = config.rank_of(subset)
    if r == 0:
        return 1
    g = minor_gcd(mat, r)
    if cross_check:
        alt = prod(elementary_divisors(mat))
        if alt != g:
            raise ConsistencyError(
                "minor-gcd and elementary-divisor multiplicities differ "
                "(%d vs %d) on %s" % (g, alt, subset))
    return g


def _lattice_walk(config, weigh, budget):
    """(rank, size, weigh(basis)) for every subset B of the columns.

    One depth-first walk carries the Hermite basis of ZB, one
    `extend_lattice` step per added column, and weigh runs once per
    distinct lattice.  The 2^n subsets are charged to the budget before
    the walk starts.
    """
    if not power_fits(2, config.n, budget):
        raise BudgetExceededError(
            "the 2^%d subsets of the lattice walk exceed the enumeration "
            "budget %d" % (config.n, budget), required=2 ** config.n)
    memo = {}
    for _, size, basis in subset_walk(config.columns, extend_lattice, ()):
        w = memo.get(basis)
        if w is None:
            w = memo[basis] = weigh(basis)
        yield len(basis), size, w


def _multiplicity_table(config, budget=DEFAULT_BUDGET):
    """[rB][|B|] -> sum of m(B) over all subsets B, from one lattice walk."""
    table = [[0] * (config.n + 1) for _ in range(config.rank + 1)]
    for rb, size, m in _lattice_walk(config, lattice_index, budget):
        table[rb][size] += m
    return table


def arithmetic_tutte(config, budget=DEFAULT_BUDGET):
    """M(A; x, y) = sum over subsets of m(B)(x-1)^(r-rB) (y-1)^(|B|-rB)."""
    return expand_rank_table(_multiplicity_table(config, budget), config.rank)


def arithmetic_char_poly(config, m_poly=None, var="q", budget=DEFAULT_BUDGET):
    """(-1)^r q^(d-r) M(1-q, 0)."""
    if m_poly is None:
        m_poly = arithmetic_tutte(config, budget)
    q = MultiPoly.variable(var)
    r = config.rank
    sub = {v: w for v, w in (("x", 1 - q), ("y", MultiPoly.const(0)))
           if v in m_poly.vars}
    spec = m_poly.substitute(sub) if sub else m_poly
    return spec * q ** (config.dim - r) * Fraction((-1) ** r)


def zonotope_evaluations(config, m_poly=None, budget=DEFAULT_BUDGET):
    """Volume, lattice point count, interior count, and Ehrhart polynomial."""
    if m_poly is None:
        m_poly = arithmetic_tutte(config, budget)
    r = config.rank
    volume = m_poly.evaluate({"x": 1, "y": 1})
    lattice = m_poly.evaluate({"x": 2, "y": 1})
    interior = m_poly.evaluate({"x": 0, "y": 1})
    q = MultiPoly.variable("q")
    my1 = m_poly.substitute({"y": MultiPoly.const(1)}) \
        if "y" in m_poly.vars else m_poly
    ehrhart = MultiPoly.zero()
    for i in range(my1.degree("x") + 1):
        ci = my1.coefficient("x", i).constant_value()
        ehrhart = ehrhart + ci * (q + 1) ** i * q ** (r - i)
    return {
        "volume": volume,
        "lattice_points": lattice,
        "interior_points": interior,
        "ehrhart": ehrhart,
    }


def toric_evaluations(config, m_poly=None):
    """Region count of the compact toric complement, M(1, 0), and the
    Poincare polynomial of the complex toric complement, q^r M(2 + 1/q, 0)
    expanded to a genuine polynomial in q."""
    if m_poly is None:
        m_poly = arithmetic_tutte(config)
    r = config.rank
    regions = m_poly.evaluate({"x": 1, "y": 0})
    mx0 = m_poly.substitute({"y": MultiPoly.const(0)}) \
        if "y" in m_poly.vars else m_poly
    q = MultiPoly.variable("q")
    # q^r (2 + 1/q)^i = q^(r-i) (2q + 1)^i, so the expansion is polynomial
    poincare = MultiPoly.zero()
    for i in range(mx0.degree("x") + 1):
        ci = mx0.coefficient("x", i).constant_value()
        poincare = poincare + ci * q ** (r - i) * (2 * q + 1) ** i
    return {"regions": regions, "poincare": poincare}


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


def toric_point_profile(config, q, m_poly=None, budget=DEFAULT_BUDGET):
    """Point counts over the torus (F*_{q+1})^d, with the exact identity check.

    q + 1 must be prime.  The q^d points and, apart from them, the 2^n
    subsets of the walk are charged to the budget.
    h(p) counts hypertori as a multiset over the columns (two equal columns
    contribute two).  A subset B with elementary divisors e_i cuts out a
    subtorus of q^(d - rB) prod gcd(e_i, q) points, so the identity
    sum_p t^h(p) = sum_B q^(d - rB) prod gcd(e_i, q) (t-1)^|B| is asserted
    exactly; when every e_i divides q the product is m(B), and the
    complement count must also match the arithmetic characteristic
    polynomial at q.
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

    def weigh(basis):
        e = elementary_divisors([b for _, b in basis])
        on = q ** (d - len(basis)) * prod(gcd(x, q) for x in e)
        return prod(e), on, all(q % x == 0 for x in e)

    table = [[0] * (config.n + 1) for _ in range(config.rank + 1)]
    on_subtori = [0] * (config.n + 1)
    split = True
    for rb, size, (m, on, divides) in _lattice_walk(config, weigh, budget):
        table[rb][size] += m
        on_subtori[size] += on
        split = split and divides
    counts = _torus_counts(config, q)
    lhs = MultiPoly(("t",), {(k,): c for k, c in enumerate(counts)})
    rhs = {}
    for size, c in enumerate(on_subtori):
        for j in range(size + 1):
            rhs[(j,)] = rhs.get((j,), 0) + c * comb(size, j) * (-1) ** (size - j)
    if lhs != MultiPoly(("t",), rhs):
        raise ConsistencyError("toric finite field identity fails at q=%d" % q)
    if split:
        if m_poly is None:
            m_poly = expand_rank_table(table, config.rank)
        chi_at_q = arithmetic_char_poly(config, m_poly).evaluate({"q": q})
        if counts[0] != chi_at_q:
            raise ConsistencyError("toric complement count disagrees with "
                                   "the arithmetic characteristic polynomial")
    return {"q": q, "counts": counts, "polynomial": lhs}


class MultivariateTutte:
    """q^r * Ztilde(A; q, w) stored as a genuine polynomial (no negative powers)."""

    def __init__(self, poly, rank, n):
        self.poly = poly          # in q, w_1..w_n
        self.rank = rank
        self.n = n

    def specialize_uniform(self, w_name="w"):
        """Set every w_e = w; returns q^r * Ztilde(q, w)."""
        w = MultiPoly.variable(w_name)
        sub = {"w_%d" % (e + 1): w for e in range(self.n)
               if "w_%d" % (e + 1) in self.poly.vars}
        return self.poly.substitute(sub)


def multivariate_tutte(arrangement, budget=DEFAULT_BUDGET):
    """q^r Ztilde = sum over central B of q^(r - rB) prod_{e in B} w_e.

    The central subsets are walked by `linalg.central_subsets`, charged to
    the budget one unit per candidate subset.
    """
    r = arrangement.rank
    n = arrangement.n
    rows = [h.row() for h in arrangement.hyperplanes]
    terms = {}
    for masks, _, ranks in central_subsets(rows, arrangement.prime, budget):
        exps = np.column_stack([r - ranks, (masks[:, None] >> np.arange(n)) & 1])
        terms.update(dict.fromkeys(map(tuple, exps.tolist()), 1))
    names = ("q",) + tuple("w_%d" % (e + 1) for e in range(n))
    total = MultiPoly(names, terms)
    mv = MultivariateTutte(total, r, n)
    mv.arrangement = arrangement
    return mv


def tutte_from_multivariate(mv, multiplicities):
    """Tutte polynomial of the thickened arrangement A(a) from q^r Ztilde.

    Implements T(A(a); x, y) = (x-1)^(r(supp a)) Ztilde(A; (x-1)(y-1),
    w_e = y^(a_e) - 1), the substitution fixed by matching independently
    computed thickenings.  Division by the q-power is exact.
    """
    x = MultiPoly.variable("x")
    y = MultiPoly.variable("y")
    s = MultiPoly.variable("_s")  # stands for y - 1
    n = mv.n
    if len(multiplicities) != n:
        raise ValueError("need one multiplicity per hyperplane")
    # q^r Ztilde with q -> (x-1)(y-1): substitute q -> (x-1)*_s
    sub = {}
    if "q" in mv.poly.vars:
        sub["q"] = (x - 1) * s
    for e in range(n):
        name = "w_%d" % (e + 1)
        if name in mv.poly.vars:
            sub[name] = (s + 1) ** multiplicities[e] - 1
    val = mv.poly.substitute(sub) if sub else mv.poly
    # multiply by (x-1)^(r_supp - r) (y-1)^(-r): both divisions are exact
    r_supp = _support_rank(mv, multiplicities)
    if mv.rank > r_supp:
        val = val.substitute({"x": 1 + MultiPoly.variable("_x")})
        val = val.div_exact_var("_x", mv.rank - r_supp)
        if "_x" in val.vars:
            val = val.substitute({"_x": x - 1})
    val = val.div_exact_var("_s", mv.rank) if mv.rank else val
    return val.substitute({"_s": y - 1}) if "_s" in val.vars else val


def _support_rank(mv, multiplicities):
    # caller attaches the arrangement for rank-of-support queries
    arr = getattr(mv, "arrangement", None)
    if arr is None:
        raise ValueError("attach .arrangement to the MultivariateTutte first")
    support = [e for e, a in enumerate(multiplicities) if a > 0]
    return arr.rank_normals(frozenset(support))
