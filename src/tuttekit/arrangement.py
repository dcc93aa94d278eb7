"""Affine hyperplane arrangements with exact coefficients.

An arrangement lives either over Q (the default) or over a prime field F_p:
the "all linear hyperplanes in F_p^n" family, whose matroid is in general not
realizable over Q, and the reduction of a Q-arrangement mod p, on which the
finite field method counts points.  Hyperplane equations are stored in
canonical form (`linalg.clear_row` and `normalise_row`): over Q as primitive
integer vectors with positive leading entry, over F_p with entries in [0, p)
and leading entry 1.  The degenerate "loop" hyperplane (zero normal, zero
offset) stands for the whole ambient space and is allowed, since contractions
and reductions mod p produce it.
"""

import json
from fractions import Fraction
from functools import cached_property
from math import isqrt

import numpy as np

from .errors import (
    InputFormatError,
    InvalidHyperplaneError,
    LoopContractionError,
    NonCentralError,
)
from .linalg import (
    central_subsets,
    clear_row,
    contract_rows,
    extend_lattice,
    hadamard_sq,
    is_prime,
    maximal_minors,
    normalise_row,
    pivot_columns,
    rank_rows,
)


def _entry(x):
    """An input entry as an int when `int` parses it, else as a Fraction.

    Only ints and strings go to `int`, which would truncate a float or a
    Fraction.  Every string that `int` parses, `Fraction` parses to the
    same value, so a Fraction is made only for the entries that need one.
    """
    if isinstance(x, (int, str)):
        try:
            return int(x)
        except ValueError:
            pass
    return Fraction(x)


class Hyperplane:
    """A single hyperplane {x : normal . x = offset}, in canonical form."""

    __slots__ = ("normal", "offset", "prime")

    def __init__(self, normal, offset, prime=None):
        if prime is None:
            row = clear_row(list(normal) + [offset])
        else:
            row = normalise_row([int(x) for x in normal] + [int(offset)], prime)
        if not any(row[:-1]) and row[-1]:
            raise InvalidHyperplaneError(
                "zero normal with nonzero offset is not a hyperplane")
        self.normal = row[:-1]
        self.offset = row[-1]
        self.prime = prime

    @property
    def is_loop(self):
        return not any(self.normal)

    def row(self):
        """(normal..., offset) as a tuple of ints."""
        return self.normal + (self.offset,)

    def key(self):
        return (self.normal, self.offset)

    def __eq__(self, other):
        return isinstance(other, Hyperplane) and self.key() == other.key() \
            and self.prime == other.prime

    def __hash__(self):
        return hash((self.key(), self.prime))

    def __repr__(self):
        return "Hyperplane(%r, %r)" % (list(self.normal), self.offset)


class Arrangement:
    """An ordered list of hyperplanes in dimension `dim`.

    The hyperplane order is significant: it is the activity order and the
    order used by the command-line interface.  Duplicate hyperplanes are
    allowed (thickenings need them).
    """

    def __init__(self, dim, hyperplanes, label=None, prime=None):
        self.dim = dim
        hs = []
        for h in hyperplanes:
            if isinstance(h, Hyperplane):
                if h.prime != prime:
                    h = Hyperplane(h.normal, h.offset, prime)
            else:
                normal, offset = h
                h = Hyperplane(normal, offset, prime)
            if len(h.normal) != dim:
                raise InvalidHyperplaneError("normal length != ambient dimension")
            hs.append(h)
        self.hyperplanes = tuple(hs)
        self.label = label
        self.prime = prime
        self._semimatroid = None

    # -- basic queries -----------------------------------------------------

    @property
    def n(self):
        return len(self.hyperplanes)

    def loops(self):
        return [i for i, h in enumerate(self.hyperplanes) if h.is_loop]

    def nonloops(self):
        return [i for i, h in enumerate(self.hyperplanes) if not h.is_loop]

    @cached_property
    def rows(self):
        """The augmented rows (normal..., offset) of the non-loops, in order."""
        return tuple(h.row() for h in self.hyperplanes if not h.is_loop)

    @cached_property
    def prime_floor(self):
        """A bound B: no prime > B divides any nonzero minor of the integer
        matrix [normals | offsets] of the rows, which every reduction mod p
        reads, so it is computed once per arrangement.

        The rows are scanned first.  When every row has at most two nonzero
        entries, all +-1, the matrix is the transposed incidence matrix of a
        signed graph (braid, graphical, BC, D and threshold arrangements, and
        x_i = +-1), and every nonzero minor is +-2^k (Zaslavsky 1982), so
        B = 2; when no row has two nonzero entries of one sign it is totally
        unimodular, every nonzero minor is +-1, and B = 1.  Otherwise any
        k x k minor is bounded in absolute value by the product of the k
        largest row norms (Hadamard), and B exceeds that product.
        """
        rows = self.rows
        floor = 1
        for row in rows:
            nonzero = [x for x in row if x]
            if len(nonzero) > 2 or any(abs(x) != 1 for x in nonzero):
                break
            if len(nonzero) == 2 and nonzero[0] == nonzero[1]:
                floor = 2
        else:
            return floor
        return max(1, isqrt(hadamard_sq(rows, min(len(rows), self.dim + 1))) + 1)

    @cached_property
    def basis_multiplicities(self):
        """The distinct multiplicities m(B) > 1 of the bases B of the cone
        vectors, in increasing order, as Python ints.

        The cone vectors are the rows (normal..., offset) of the non-loops
        and e_(d+1); a set of non-loops is central when adding e_(d+1) raises
        its rank, and its rank is that of its normals.  So reduction mod a
        prime p keeps the semimatroid (which sets are central, and their
        ranks) exactly when it keeps the matroid of the cone vectors, that
        is when every basis B stays independent mod p, when p divides no
        m(B), the gcd of the maximal minors of B (Athanasiadis 1996;
        d'Adderio and Moci 2013).  Over Q only.

        The columns of the cone matrix C span a lattice; the rows of its
        Hermite basis K (`extend_lattice`) write C = K^T V with V integer
        and the maximal minors of V coprime, so by Cauchy-Binet m(B) is the
        absolute value of the maximal minor of K on the columns B.  Those
        minors are taken a block at a time (`maximal_minors`); loops are not
        cone vectors, and zero columns of C add nothing to the lattice.
        """
        rows = self.rows
        cols = [col + (0,) for col in zip(*(row[:-1] for row in rows)) if any(col)]
        cols.append(tuple(row[-1] for row in rows) + (1,))
        basis = ()
        for col in cols:
            basis = extend_lattice(basis, col)
        found = set()
        for dets in maximal_minors(list(zip(*(row for _, row in basis)))):
            found.update(np.abs(dets).tolist())
        return tuple(sorted(found - {0, 1}))

    def _check_indices(self, subset):
        for i in subset:
            if not 0 <= i < self.n:
                raise IndexError("hyperplane index %d out of range" % i)

    def is_central(self, subset=None):
        """True iff the hyperplanes in `subset` have a common point.

        Loops never break centrality.  Decided by comparing the exact rank of
        the coefficient matrix with the rank of the augmented matrix.
        """
        subset = range(self.n) if subset is None else sorted(set(subset))
        self._check_indices(subset)
        rows = [self.hyperplanes[i].row() for i in subset
                if not self.hyperplanes[i].is_loop]
        return rank_rows([r[:-1] for r in rows], self.prime) == rank_rows(rows, self.prime)

    def rank_normals(self, subset=None):
        """Rank of the normal vectors of `subset` (semimatroid rank extension).

        For a central subset this equals the codimension of the intersection;
        for an arbitrary subset it equals the maximal rank of a central subset.
        """
        subset = range(self.n) if subset is None else sorted(set(subset))
        self._check_indices(subset)
        return rank_rows([self.hyperplanes[i].normal for i in subset
                          if not self.hyperplanes[i].is_loop], self.prime)

    def rank_of(self, subset):
        """dim V - dim(intersection) for a central subset; loops contribute 0."""
        subset = frozenset(subset)
        if not self.is_central(subset):
            raise NonCentralError("non-central subset %s" % sorted(subset))
        return self.rank_normals(subset)

    @cached_property
    def rank(self):
        """Rank of the whole arrangement (the height of its intersection poset)."""
        return self.rank_normals()

    # -- constructions -----------------------------------------------------

    def delete(self, i):
        self._check_indices([i])
        hs = [h for j, h in enumerate(self.hyperplanes) if j != i]
        return Arrangement(self.dim, hs, prime=self.prime)

    def contract(self, i):
        """Re-express the other hyperplanes inside hyperplane i (dimension d-1).

        The pivot coordinate is the first nonzero entry of i's normal; it is
        solved for and substituted into the other equations
        (`linalg.contract_rows`).  A hyperplane whose image is all of i
        becomes a degenerate loop; one with empty intersection (parallel) is
        dropped.
        """
        self._check_indices([i])
        if self.hyperplanes[i].is_loop:
            raise LoopContractionError("cannot contract a loop hyperplane")
        rows = contract_rows([h.row() for h in self.hyperplanes], i, self.prime)
        return Arrangement(self.dim - 1, [(row[:-1], row[-1]) for row in rows],
                           prime=self.prime)

    def essentialize(self):
        """The quotient by the lineality space, the common kernel of the normals.

        Translation by that space maps every hyperplane to itself, so the
        quotient has the same intersection pattern and dimension equal to the
        rank.  The columns of the normals at the pivots J of their echelon
        basis span every other column, so a.x = a[J].y for a linear map
        x -> y onto the quotient, whose fibres are the cosets of the
        lineality space; each hyperplane (a, b) becomes (a[J], b).  This
        holds over Q and F_p, for central and affine arrangements alike.
        """
        pivots = pivot_columns([row[:-1] for row in self.rows], self.prime)
        return Arrangement(len(pivots),
                           [([h.normal[j] for j in pivots], h.offset)
                            for h in self.hyperplanes], prime=self.prime)

    def restrict(self, subset):
        """Subarrangement on the given indices, in the given ambient space."""
        subset = sorted(subset)
        self._check_indices(subset)
        return Arrangement(self.dim, [self.hyperplanes[i] for i in subset],
                           prime=self.prime)

    # -- semimatroid fingerprint ------------------------------------------

    def semimatroid(self, budget=None):
        """Sorted tuple of (bitmask, rank) over all central subsets of non-loops.

        Bit k of a mask stands for the k-th non-loop.  Loops are excluded;
        the fingerprint is what `finite_field.reduce_mod_p` compares to name
        the witness of a rejected prime, so it is computed once per
        arrangement.  The walk is charged to the budget as
        `linalg.central_subsets` charges it (None: no bound).
        """
        if self._semimatroid is None:
            self._semimatroid = tuple(sorted(
                pair for masks, _, ranks in central_subsets(self.rows, self.prime,
                                                            budget)
                for pair in zip(masks.tolist(), ranks.tolist())))
        return self._semimatroid

    # -- serialization -----------------------------------------------------

    def to_dict(self):
        return {
            "dim": self.dim,
            "hyperplanes": [
                {"normal": [str(x) for x in h.normal], "offset": str(h.offset)}
                for h in self.hyperplanes
            ],
            **({"label": self.label} if self.label else {}),
            **({"prime": self.prime} if self.prime else {}),
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, data):
        """The arrangement of a `to_dict` record; InputFormatError if malformed.

        `dim` must be an integer or a string of one, a `prime` field a prime
        integer, and the entries of an arrangement over F_p integers.
        """
        try:
            dim = data["dim"]
            if type(dim) is not int:
                if not isinstance(dim, str):
                    raise TypeError("dim must be an integer, got %r" % (dim,))
                dim = int(dim)
            hs = [([_entry(x) for x in h["normal"]], _entry(h.get("offset", 0)))
                  for h in data["hyperplanes"]]
        except (AttributeError, KeyError, TypeError, ValueError,
                ArithmeticError) as exc:
            raise InputFormatError("bad arrangement record: %s" % exc)
        prime = data.get("prime")
        if dim < 0:
            raise InputFormatError("dim must be >= 0, got %d" % dim)
        if prime is not None:
            if type(prime) is not int or not is_prime(prime):
                raise InputFormatError("prime must be a prime integer, got %r"
                                       % (prime,))
            if any(x.denominator != 1 for n, b in hs for x in n + [b]):
                raise InputFormatError("entries over F_%d must be integers" % prime)
            hs = [([int(a) for a in n], int(b)) for n, b in hs]
        return cls(dim, hs, label=data.get("label"), prime=prime)

    @classmethod
    def from_json(cls, text):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputFormatError("invalid JSON: %s" % exc)
        return cls.from_dict(data)

    def __repr__(self):
        return "Arrangement(dim=%d, n=%d%s)" % (
            self.dim, self.n, ", label=%r" % self.label if self.label else "")
