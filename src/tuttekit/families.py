"""Constructors for the named arrangement families and their exact oracles.

Each family comes in two halves: a constructor producing the explicit
arrangement (hyperplanes in a documented order), and closed-form or
generating-function oracles that produce the same polynomials without ever
constructing the arrangement.  The test suite plays the two halves against
each other.

The source paper's catalog has one shape of row, x_i + s x_j = c, so the
coordinate, braid, threshold, BC_n, D_n, Shi and Catalan arrangements come
from one generator (`_signed_pairs`): the rows over the pairs i < j in
order, each pair taking its family's listed (s, c) in turn, then x_i = 0
where the family has them.  `build_family` looks a tag up in one table of
builders and their arguments, and checks the size parameters first.

Generating-function conventions: the series identities produce, at index n,
the full point-count polynomial X^(d-r) * cobchi(A; X, Y); for type A and the
complete bipartite graphs d - r = 1 (a connected graphical arrangement), so
one factor of X appears up front.  The oracles divide by X^(d-r) so they
always return the coboundary polynomial itself.  The Catalan oracle counts
the points of F_q^n as labelled balls in runs of boxes on a cycle of length
q (see `_catalan_coboundary`).
"""

from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial

from .arrangement import Arrangement
from .errors import DEFAULT_BUDGET, FamilyError, charge
from .linalg import is_prime
from .multipoly import MultiPoly
from .series import (
    deformed_exponential,
    mul_trunc,
    q_pochhammer_ratio,
    q_pochhammer_scalar,
    series_pow,
    truncate,
)


def _pair_normal(dim, i, j, sj):
    v = [0] * dim
    v[i] = 1
    v[j] = sj
    return v


def _signed_pairs(n, signs, label, units=False):
    """The arrangement in Q^n of the rows x_i + s x_j = c over the pairs
    i < j in order, each pair taking the listed (s, c) in turn, then the
    rows x_i = 0 when units is set: the one shape of every catalog row."""
    hs = [(_pair_normal(n, i, j, s), c)
          for i, j in combinations(range(n), 2) for s, c in signs]
    if units:
        hs += [([int(k == i) for k in range(n)], 0) for i in range(n)]
    return Arrangement(n, hs, label=label)


def coordinate(n):
    """The n coordinate hyperplanes x_i = 0 in Q^n."""
    return _signed_pairs(n, (), "H_%d" % n, units=True)


def braid(n):
    """The braid arrangement A_{n-1}: x_i = x_j for i < j, in Q^n."""
    return _signed_pairs(n, [(-1, 0)], "braid(%d)" % n)


def graphical(n_vertices, edges):
    """Graphical arrangement: a hyperplane x_i = x_j per edge (1-indexed)."""
    hs = []
    for i, j in edges:
        if not (1 <= i <= n_vertices and 1 <= j <= n_vertices) or i == j:
            raise FamilyError("bad edge (%d, %d)" % (i, j))
        a, b = min(i, j) - 1, max(i, j) - 1
        hs.append((_pair_normal(n_vertices, a, b, -1), 0))
    return Arrangement(n_vertices, hs, label="graphical")


def complete_bipartite(m, n):
    """K_{m,n} as a graphical arrangement on m + n vertices."""
    edges = [(i + 1, m + j + 1) for i in range(m) for j in range(n)]
    return graphical(m + n, edges)


def bc(n):
    """The Coxeter arrangement BC_n: x_i = x_j, x_i = -x_j, x_i = 0."""
    return _signed_pairs(n, [(-1, 0), (1, 0)], "BC_%d" % n, units=True)


def dn(n):
    """The Coxeter arrangement D_n: x_i = x_j and x_i = -x_j."""
    return _signed_pairs(n, [(-1, 0), (1, 0)], "D_%d" % n)


def threshold(n):
    """The threshold arrangement: x_i + x_j = 0 for i < j."""
    return _signed_pairs(n, [(1, 0)], "T_%d" % n)


def catalan(n):
    """Cat_{n-1}: x_i - x_j in {-1, 0, 1} for i < j, in Q^n."""
    return _signed_pairs(n, [(-1, -1), (-1, 0), (-1, 1)], "Cat_%d" % (n - 1))


def shi(n):
    """Shi_{n-1}: x_i - x_j in {0, 1} for i < j, in Q^n."""
    return _signed_pairs(n, [(-1, 0), (-1, 1)], "Shi_%d" % (n - 1))


def all_linear(p, n, budget=DEFAULT_BUDGET):
    """A(p, n): every linear hyperplane in F_p^n (one per normal up to scaling).

    The normals are the canonical ones, first nonzero entry 1, in sorted
    order: those with the most leading zeros first.  Listing them is
    charged their number, (p^n - 1) / (p - 1), to the budget.
    """
    if not is_prime(p):
        raise FamilyError("all_linear requires a prime p, got %d" % p)
    charge((p ** n - 1) // (p - 1), budget,
           "all_linear(%d, %d) needs at least %%d normals" % (p, n))
    normals = [(0,) * (n - 1 - k) + (1,) + tail for k in range(n)
               for tail in product(range(p), repeat=k)]
    return Arrangement(n, [(v, 0) for v in normals], prime=p,
                       label="A(%d,%d)" % (p, n))


def generic(n, d, budget=DEFAULT_BUDGET):
    """A generic central arrangement: any m <= d hyperplanes meet in
    codimension m (the uniform matroid).  Hyperplane i has the Vandermonde
    normal (1, t, t^2, ..., t^(d-1)) through the origin, for t = 1, ..., n;
    every d x d minor of the normals is a Vandermonde determinant over
    distinct t, so nonzero, and every d normals are independent.  The n
    rows made are charged to the budget first.
    """
    charge(n, budget, "generic(%d, %d) needs at least %%d rows" % (n, d))
    hs = [([t ** k for k in range(d)], 0) for t in range(1, n + 1)]
    return Arrangement(d, hs, label="generic(%d,%d)" % (n, d))


def thicken(arrangement, k, budget=DEFAULT_BUDGET):
    """Replace each hyperplane by k copies (uniform) or a_e copies (vector).

    A zero multiplicity removes the hyperplane.  The copies made, n*k or
    the sum of the a_e, are charged to the budget first.
    """
    if isinstance(k, int):
        if k < 1:
            raise FamilyError("uniform thickening needs k >= 1")
        mults = [k] * arrangement.n
    else:
        mults = list(k)
        if len(mults) != arrangement.n or any(a < 0 for a in mults):
            raise FamilyError("multiplicity vector must be nonnegative, length n")
    charge(sum(mults), budget, "thickening needs at least %d copies")
    hs = []
    for h, a in zip(arrangement.hyperplanes, mults):
        hs.extend([h] * a)
    return Arrangement(arrangement.dim, hs, prime=arrangement.prime)


# tag -> (its builder, the names of the builder's arguments in order); the
# size parameters among them (n, p, d, m) must be integers >= 1
_FAMILIES = {"coordinate": (coordinate, ("n",)), "braid": (braid, ("n",)),
             "graphical": (graphical, ("n", "edges")), "bc": (bc, ("n",)),
             "dn": (dn, ("n",)), "generic": (generic, ("n", "d", "budget")),
             "catalan": (catalan, ("n",)), "shi": (shi, ("n",)),
             "threshold": (threshold, ("n",)),
             "all_linear": (all_linear, ("p", "n", "budget")),
             "bipartite": (complete_bipartite, ("m", "n"))}


def build_family(tag, n=None, p=None, d=None, edges=None, m=None, budget=DEFAULT_BUDGET):
    """Dispatch a family tag and its parameters to the right constructor.

    Raises FamilyError for an unknown tag or a missing or nonpositive size.
    The budget goes to the builders that charge it (`generic`, `all_linear`).
    """
    if tag not in _FAMILIES:
        raise FamilyError("unknown family tag %r" % tag)
    builder, names = _FAMILIES[tag]
    given = {"n": n, "p": p, "d": d, "m": m, "edges": edges, "budget": budget}
    for name in names:
        value = given[name]
        if name in ("n", "p", "d", "m") and (
                not isinstance(value, int) or isinstance(value, bool) or value < 1):
            raise FamilyError("family %r needs an integer --%s >= 1, got %r"
                              % (tag, name, value))
    return builder(*[given[name] for name in names])


# -- closed-form characteristic polynomials --------------------------------

def oracle_char(tag, n=None, p=None):
    """The factored characteristic polynomial of a catalog family, expanded."""
    q = MultiPoly.variable("q")

    def prod(factors):
        total = MultiPoly.const(1)
        for f in factors:
            total = total * f
        return total

    if tag == "coordinate":
        return prod([q - 1] * n)
    if tag == "braid":
        return prod([q - i for i in range(n)])
    if tag == "bc":
        return prod([q - (2 * i + 1) for i in range(n)])
    if tag == "dn":
        return prod([q - (2 * i + 1) for i in range(n - 1)] + [q - (n - 1)])
    if tag == "catalan":
        return q * prod([q - i for i in range(n + 1, 2 * n)])
    if tag == "shi":
        return q * (q - n) ** (n - 1)
    if tag == "all_linear":
        return prod([q - p ** i for i in range(n)])
    raise FamilyError(
        "no closed form for %r; use the generating oracle or the engines" % tag)


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


def generic_tutte(n, d):
    """Closed-form Tutte polynomial of the generic arrangement of n in dim d."""
    x = MultiPoly.variable("x")
    y = MultiPoly.variable("y")
    total = MultiPoly.zero()
    for i in range(1, d + 1):
        total = total + comb(n - i - 1, n - d - 1) * x ** i
    for j in range(1, n - d + 1):
        total = total + comb(n - j - 1, d - 1) * y ** j
    return total


def chromatic_polynomial(n_vertices, edges):
    """Chromatic polynomial by deletion-contraction on the (multi)graph.

    Vertices are 1..n; an edge is an (i, j) pair.  Independent of the
    arrangement machinery: this is the oracle for the graphical identity.
    """
    q = MultiPoly.variable("q")

    def rec(verts, es):
        if any(u == v for u, v in es):
            return MultiPoly.zero()  # a graph loop forbids every coloring
        if not es:
            return q ** len(verts)
        u, v = es[-1]
        rest = es[:-1]
        contracted = [(u if a == v else a, u if b == v else b) for a, b in rest]
        return rec(verts, rest) - rec(verts - {v}, contracted)

    return rec(frozenset(range(1, n_vertices + 1)), list(edges))


def catalan_number(n):
    return comb(2 * n, n) // (n + 1)
