"""Arithmetic Tutte polynomials, zonotopes, toric point counts, and the
multivariate Tutte polynomial.

A VectorConfig is a list of integer column vectors in Z^d.  The arithmetic
Tutte polynomial weights each subset by its multiplicity, the index of the
sublattice it spans; multiplicities are computed both as the gcd of the
full-rank minors (the reference route) and through elementary divisors
(Smith-style reduction), and the two are asserted equal.
"""

from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd

from .errors import BadPrimeError, ConsistencyError, InputFormatError
from .linalg import central_subsets, is_prime, rank_rows
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


def _minor_gcd(matrix, r):
    """gcd of all r x r minors of an integer matrix (0 when r = 0 means empty)."""
    if r == 0:
        return 1
    nrows, ncols = len(matrix), len(matrix[0])
    g = 0
    for rows in combinations(range(nrows), r):
        for cols in combinations(range(ncols), r):
            sub = [[matrix[i][j] for j in cols] for i in rows]
            g = gcd(g, abs(_det_int(sub)))
    return g


def _det_int(m):
    """Integer determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return 1
    m = [row[:] for row in m]
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


def _smith_divisor_product(matrix):
    """Product of the elementary divisors (Smith normal form diagonal).

    Standard reduction by repeated gcd pivoting; for a matrix of rank r this
    equals the gcd of the r x r minors, which is the fast path cross-check.
    """
    m = [row[:] for row in matrix]
    if not m or not m[0]:
        return 1
    nrows, ncols = len(m), len(m[0])
    prod = 1
    top = 0
    left = 0
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
        prod *= abs(m[top][left])
        top += 1
        left += 1
    return prod


def multiplicity(config, subset, cross_check=True):
    """m(B): index of ZB inside span(B) intersected with Z^d.

    Computed as the gcd of the full-rank minors of the column submatrix; the
    elementary-divisor product is asserted equal when cross_check is set.
    """
    subset = sorted(subset)
    if not subset:
        return 1
    mat = config.matrix(subset)
    r = config.rank_of(subset)
    if r == 0:
        return 1
    g = _minor_gcd(mat, r)
    if cross_check:
        alt = _smith_divisor_product(mat)
        if alt != g:
            raise ConsistencyError(
                "minor-gcd and elementary-divisor multiplicities differ "
                "(%d vs %d) on %s" % (g, alt, subset))
    return g


def _multiplicity_table(config):
    """[rB][|B|] -> sum of m(B) over all subsets B, from one subset walk.

    With zero offsets every subset is central, so the walk visits them all
    and gives each one's rank.
    """
    table = [[0] * (config.n + 1) for _ in range(config.rank + 1)]
    rows = [c + (0,) for c in config.columns]
    for mask, size, rb in central_subsets(rows):
        cols = [i for i in range(config.n) if mask >> i & 1]
        table[rb][size] += _minor_gcd(config.matrix(cols), rb)
    return table


def arithmetic_tutte(config):
    """M(A; x, y) = sum over subsets of m(B)(x-1)^(r-rB) (y-1)^(|B|-rB)."""
    return expand_rank_table(_multiplicity_table(config), config.rank)


def arithmetic_char_poly(config, m_poly=None, var="q"):
    """(-1)^r q^(d-r) M(1-q, 0)."""
    if m_poly is None:
        m_poly = arithmetic_tutte(config)
    q = MultiPoly.variable(var)
    r = config.rank
    sub = {v: w for v, w in (("x", 1 - q), ("y", MultiPoly.const(0)))
           if v in m_poly.vars}
    spec = m_poly.substitute(sub) if sub else m_poly
    return spec * q ** (config.dim - r) * Fraction((-1) ** r)


def zonotope_evaluations(config, m_poly=None):
    """Volume, lattice point count, interior count, and Ehrhart polynomial."""
    if m_poly is None:
        m_poly = arithmetic_tutte(config)
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


def toric_point_profile(config, q, m_poly=None):
    """Point counts over the torus (F*_{q+1})^d, with the exact identity check.

    q + 1 must be prime.  h(p) counts hypertori as a multiset over the
    columns (two equal columns contribute two).  The displayed identity
    sum_p t^h(p) = sum_B m(B) q^(d - rB) (t-1)^|B| is asserted exactly, and
    the complement count must match the arithmetic characteristic polynomial
    at q.
    """
    P = q + 1
    if q < 1 or not is_prime(P):
        raise BadPrimeError("q + 1 = %d must be prime" % P)
    counts = [0] * (config.n + 1)
    units = range(1, P)
    for point in product(units, repeat=config.dim):
        h = 0
        for col in config.columns:
            val = 1
            for x, a in zip(point, col):
                if a:
                    val = val * pow(x, a, P) % P if a > 0 else \
                        val * pow(pow(x, -1, P), -a, P) % P
            if val == 1:
                h += 1
        counts[h] += 1
    table = _multiplicity_table(config)
    if m_poly is None:
        m_poly = expand_rank_table(table, config.rank)
    lhs = MultiPoly(("t",), {(k,): c for k, c in enumerate(counts)})
    rhs = {}
    for rb, row in enumerate(table):
        for size, weight in enumerate(row):
            c = weight * q ** (config.dim - rb)
            for j in range(size + 1):
                rhs[(j,)] = rhs.get((j,), 0) + c * comb(size, j) * (-1) ** (size - j)
    if lhs != MultiPoly(("t",), rhs):
        raise ConsistencyError("toric finite field identity fails at q=%d" % q)
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


def multivariate_tutte(arrangement):
    """q^r Ztilde = sum over central B of q^(r - rB) prod_{e in B} w_e."""
    r = arrangement.rank
    n = arrangement.n
    rows = [h.row() for h in arrangement.hyperplanes]
    terms = {(r - rb,) + tuple(mask >> e & 1 for e in range(n)): 1
             for mask, _, rb in central_subsets(rows, arrangement.prime)}
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
