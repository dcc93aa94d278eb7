"""Intersection posets, flats, and Möbius functions.

Flats are identified with closed sets of hyperplane indices: exactly the
hyperplanes containing the corresponding affine subspace.  The poset is
ordered by reverse inclusion of subspaces, i.e. inclusion of the index sets;
the minimum element is the closure of the empty set (the loops).

Enumeration is breadth-first by rank.  Each flat keeps a reduced echelon
basis of the augmented rows [normal | offset] of its hyperplanes.  The flats
covering F come from one reduction of every other hyperplane against F's
basis: a remainder that vanishes on the normals but not on the offset is
parallel to F, and hyperplanes whose normalised remainders agree cut F in the
same subspace, so they form one cover.  The number of flats is exponential
in the worst case; the pairwise work is budgeted by flats^2.

The characteristic and coboundary polynomials are summed from the Möbius
values and the flats' point counts into integer coefficient tables, and one
MultiPoly is built from each table.
"""

from .errors import BudgetExceededError, ConsistencyError, NonCentralError
from .finite_field import DEFAULT_BUDGET
from .linalg import extend_basis, normalise_row, reduce_row
from .multipoly import MultiPoly


class Flat:
    """A flat: closed index set plus its dimension and rank."""

    __slots__ = ("hyperplane_set", "rank", "dim")

    def __init__(self, hyperplane_set, rank, dim):
        self.hyperplane_set = frozenset(hyperplane_set)
        self.rank = rank
        self.dim = dim

    def __repr__(self):
        return "Flat(%s, rank=%d, dim=%d)" % (
            sorted(self.hyperplane_set), self.rank, self.dim)


class IntersectionPoset:
    """All flats of an arrangement with their Möbius values.

    below[i] lists the indices of the flats strictly below flats[i].
    """

    def __init__(self, arrangement, flats, mobius, below):
        self.arrangement = arrangement
        self.flats = flats          # sorted by (rank, sorted index set)
        self.mobius = mobius        # frozenset -> int
        self.below = below
        self.minimum = flats[0].hyperplane_set

    def leq(self, f, g):
        """f <= g in the poset (reverse inclusion of subspaces)."""
        return f.hyperplane_set <= g.hyperplane_set

    def char_poly(self, var="q"):
        """Characteristic polynomial: sum of mu(F) q^dim(F), summed by dim.

        A loop hyperplane (0 = 0) covers the whole space, so an arrangement
        with a loop has empty complement and chi = 0; the Möbius sum over
        flats alone does not see this.
        """
        table = {}
        if not self.arrangement.loops():
            for f in self.flats:
                table[(f.dim,)] = table.get((f.dim,), 0) + self.mobius[f.hyperplane_set]
        return MultiPoly((var,), table)

    def verify_mobius(self):
        """Check the defining recursion at every flat; returns True or raises."""
        for g in self.flats:
            total = sum(self.mobius[f.hyperplane_set]
                        for f in self.flats if self.leq(f, g))
            expected = 1 if g.hyperplane_set == self.minimum else 0
            if total != expected:
                raise ConsistencyError("Mobius recursion fails at %r" % g)
        return True

    def coboundary(self):
        """Coboundary polynomial in X and Y from the flats alone, with no primes.

        Over F_q a point lies on exactly the hyperplanes of one flat G, and
        the points of G on no flat above it number
        N_G(q) = q^dim G - sum_{G' > G} N_{G'}(q).  Hence
        q^(d-r) cobchi(q, t) = sum_G t^|G| N_G(q), an identity of
        polynomials (Crapo; Ardila 2007), returned with X = q and Y = t.
        The N_G are integer coefficient lists, summed into one table indexed
        by [|G|][q-exponent].
        """
        d = self.arrangement.dim
        shift = d - self.flats[-1].rank
        counts = [None] * len(self.flats)
        table = {}
        for i in range(len(self.flats) - 1, -1, -1):
            g = self.flats[i]
            own = counts[i] or [0] * (g.dim + 1)
            own[g.dim] += 1
            size = len(g.hyperplane_set)
            for e, c in enumerate(own):
                if c:
                    key = (size, e - shift)
                    table[key] = table.get(key, 0) + c
            for j in self.below[i]:
                acc = counts[j]
                if acc is None:
                    acc = counts[j] = [0] * (self.flats[j].dim + 1)
                for e, c in enumerate(own):
                    acc[e] -= c
        # the variable order of coboundary_ffm's result, which printing follows
        return MultiPoly(("Y", "X"), table)


def closure(arrangement, subset):
    """Closure of a central subset: all hyperplanes containing its intersection.

    Raises NonCentralError when the subset has no common point.
    """
    p = arrangement.prime
    rows = [h.row() for h in arrangement.hyperplanes]
    basis = []
    for i in sorted(subset):
        rem = reduce_row(rows[i], basis, p)
        if not any(rem[:-1]):
            if rem[-1]:
                raise NonCentralError("non-central subset %s" % sorted(subset))
            continue
        basis = extend_basis(basis, normalise_row(rem, p), p)
    return frozenset(i for i, row in enumerate(rows)
                     if not any(reduce_row(row, basis, p)))


def intersection_poset(arrangement, budget=DEFAULT_BUDGET):
    """Enumerate all flats breadth-first and compute Möbius values.

    Raises BudgetExceededError once the number of flats squared, the cost
    of the pairwise Möbius step, exceeds the budget.
    """
    p = arrangement.prime
    d = arrangement.dim
    rows = [h.row() for h in arrangement.hyperplanes]
    nonloops = arrangement.nonloops()
    bottom = sum(1 << i for i in arrangement.loops())
    bases = {bottom: []}        # hyperplane bitmask -> echelon basis
    level = [bottom]
    while level:
        nxt = []
        for fmask in level:
            basis = bases[fmask]
            covers = {}
            for j in nonloops:
                if fmask >> j & 1:
                    continue
                rem = reduce_row(rows[j], basis, p)
                if any(rem[:-1]):  # otherwise parallel to the flat
                    key = normalise_row(rem, p)
                    covers[key] = covers.get(key, 0) | 1 << j
            for key, cmask in covers.items():
                gmask = fmask | cmask
                if gmask not in bases:
                    bases[gmask] = extend_basis(basis, key, p)
                    nxt.append(gmask)
            count = len(bases)
            if count * count > budget:
                raise BudgetExceededError(
                    "%d flats and more: flats^2 exceeds the budget %d"
                    % (count, budget), required=count * count)
        level = nxt

    members = {m: [i for i in range(arrangement.n) if m >> i & 1] for m in bases}
    masks = sorted(bases, key=lambda m: (len(bases[m]), members[m]))
    flats = [Flat(members[m], len(bases[m]), d - len(bases[m])) for m in masks]
    # F < G iff F's set is a proper subset of G's; a closed set inside G of
    # the same rank is G itself, so only flats of lower rank are compared.
    below = []
    mu = []
    start = 0
    for i, g in enumerate(masks):
        if flats[i].rank > flats[start].rank:
            start = i
        lower = [j for j in range(start) if masks[j] & g == masks[j]]
        below.append(lower)
        mu.append(-sum(mu[j] for j in lower) if i else 1)
    mobius = {f.hyperplane_set: m for f, m in zip(flats, mu)}
    return IntersectionPoset(arrangement, flats, mobius, below)
