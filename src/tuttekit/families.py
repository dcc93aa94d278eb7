"""Constructors for the named arrangement families.

Each constructor produces the explicit arrangement, its hyperplanes in a
documented order, so the engines apply to it unchanged.

The source paper's catalog has one shape of row, x_i + s x_j = c, so the
coordinate, braid, threshold, BC_n, D_n, Shi and Catalan arrangements come
from one generator (`_signed_pairs`): the rows over the pairs i < j in
order, each pair taking its family's listed (s, c) in turn, then x_i = 0
where the family has them.  `build_family` looks a tag up in one table of
builders and their arguments, and checks those arguments first.
"""

from itertools import combinations, product

from .arrangement import Arrangement
from .errors import DEFAULT_BUDGET, FamilyError, charge
from .linalg import is_prime


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
    return arrangement.restrict([e for e, a in enumerate(mults) for _ in range(a)])


# tag -> (its builder, the names of the builder's arguments in order); each
# is required but the budget, and the size parameters among them (n, p, d,
# m) must be integers >= 1
_FAMILIES = {"coordinate": (coordinate, ("n",)), "braid": (braid, ("n",)),
             "graphical": (graphical, ("n", "edges")), "bc": (bc, ("n",)),
             "dn": (dn, ("n",)), "generic": (generic, ("n", "d", "budget")),
             "catalan": (catalan, ("n",)), "shi": (shi, ("n",)),
             "threshold": (threshold, ("n",)),
             "all_linear": (all_linear, ("p", "n", "budget")),
             "bipartite": (complete_bipartite, ("m", "n"))}


def build_family(tag, n=None, p=None, d=None, edges=None, m=None, budget=DEFAULT_BUDGET):
    """Dispatch a family tag and its parameters to the right constructor.

    Raises FamilyError for an unknown tag, a missing or nonpositive size, or
    missing edges.
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
        if value is None and name != "budget":
            raise FamilyError("family %r needs its %s" % (tag, name))
    return builder(*[given[name] for name in names])
