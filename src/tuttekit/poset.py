"""Intersection posets, flats, and Möbius functions.

Flats are identified with closed sets of hyperplane indices: exactly the
hyperplanes containing the corresponding affine subspace.  The poset is
ordered by reverse inclusion of subspaces, i.e. inclusion of the index sets;
the minimum element is the closure of the empty set (the loops).

Enumeration is breadth-first by rank, on the augmented rows [normal |
offset].  A cover of a flat F is kept as the normalised remainder of its
hyperplanes modulo the normals of F, which is zero at the pivots of an
echelon basis of F, with the bitmask of those hyperplanes.  A flat G found
as a cover of F adds that one remainder row k to F's normals.  Every
hyperplane outside G lies in another cover of F or is parallel to F, hence
to G, and the hyperplanes of one cover of F all cut G in the same subspace.
So the covers of G take one elimination step of each other cover's
remainder against k: a result that vanishes on the normals is parallel to G,
and equal normalised results join one cover of G.

The flats strictly below G are gathered as a bitset over flat indices while
G's rank is built: the OR, over the lower covers F of G, of below(F) | {F}.
Once a rank is complete its bitsets become ascending int32 index arrays, all
flats' arrays concatenated into one array of comparable pairs, and its Möbius
values are summed from them.  While the next rank is built, the bitsets come
back from those arrays one numpy block at a time, so only the bitsets of the
rank being built are held.  The budget is charged for the work done,
reductions plus comparable pairs, and for the bitsets held, so it bounds the
memory as well.

The characteristic and coboundary polynomials are summed from the Möbius
values and the flats' point counts into integer coefficient tables, and one
MultiPoly is built from each table.
"""

from functools import cached_property

import numpy as np

from .errors import BudgetExceededError, ConsistencyError, NonCentralError
from .finite_field import DEFAULT_BUDGET
from .linalg import extend_basis, normalise_row, reduce_row
from .multipoly import MultiPoly

# Bytes of bitsets per numpy block in `_bit_positions` and `_bitsets`.
_BLOCK_BYTES = 1 << 22


def _dtype(n):
    """Array dtype for Möbius values and point-count coefficients.

    Both are signed counts of subsets of the n hyperplanes, so below 2^n in
    size; int64 holds them when n < 63.  Sums that overflow on the way wrap
    modulo 2^64 and still end exact.  Larger n uses Python ints.
    """
    return np.int64 if n < 63 else object


def _check_budget(required, budget):
    if required > budget:
        raise BudgetExceededError(
            "the flat lattice needs at least %d reductions, comparable pairs "
            "and held 32-bit bitset words, over the budget %d" % (required, budget),
            required=required)


def _members(mask):
    """Set-bit positions of a nonnegative int, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _bit_positions(bitsets, width):
    """Set-bit positions of ints below 2^width, in numpy blocks.

    Returns one int32 array of every int's positions, ascending within each
    int and the ints in order, and an array of the count per int.  Only the
    nonzero bytes are unpacked.
    """
    nbytes = (width + 7) // 8 or 1
    step = max(1, _BLOCK_BYTES // nbytes)
    positions, counts = [], []
    for s in range(0, len(bitsets), step):
        block = bitsets[s:s + step]
        raw = b"".join(x.to_bytes(nbytes, "little") for x in block)
        table = np.frombuffer(raw, np.uint8).reshape(len(block), nbytes)
        rows, cols = np.nonzero(table)
        byte_rows, bits = np.nonzero(np.unpackbits(table[rows, cols, None], axis=1,
                                                   bitorder="little"))
        positions.append((cols[byte_rows] * 8 + bits).astype(np.int32))
        counts.append(np.bincount(rows[byte_rows], minlength=len(block)))
    return np.concatenate(positions), np.concatenate(counts)


def _bitsets(positions, counts, width):
    """The ints of `_bit_positions` back, one numpy block at a time."""
    nbytes = (width + 7) // 8 or 1
    step = max(1, _BLOCK_BYTES // (8 * nbytes))
    ends = np.cumsum(counts)
    for s in range(0, len(counts), step):
        block = counts[s:s + step]
        table = np.zeros((len(block), 8 * nbytes), bool)
        table[np.repeat(np.arange(len(block)), block),
              positions[ends[s] - counts[s]:ends[s + len(block) - 1]]] = True
        raw = np.packbits(table, axis=1, bitorder="little").tobytes()
        for r in range(len(block)):
            yield int.from_bytes(raw[r * nbytes:(r + 1) * nbytes], "little")


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
    """All flats of an arrangement with their intervals and Möbius values.

    The indices of the flats strictly below flats[i] are the ascending
    int32 array lower[starts[i]:starts[i + 1]]; `below` lists them all.
    """

    def __init__(self, arrangement, flats, mobius, lower, starts):
        self.arrangement = arrangement
        self.flats = flats          # sorted by (rank, sorted index set)
        self.mobius = mobius        # frozenset -> int
        self.lower = lower          # int32: every flat's below, in flat order
        self.starts = starts        # len(flats) + 1 offsets into lower
        self.minimum = flats[0].hyperplane_set

    @cached_property
    def below(self):
        """below[i] lists the indices of the flats strictly below flats[i]."""
        return [self.lower[a:b].tolist()
                for a, b in zip(self.starts[:-1], self.starts[1:])]

    def _ranks(self):
        """(first, end) flat indices of each rank, lowest rank first."""
        cuts = [i for i in range(1, len(self.flats))
                if self.flats[i].rank != self.flats[i - 1].rank]
        return list(zip([0] + cuts, cuts + [len(self.flats)]))

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
        """Check every interval and the Möbius recursion; True or raises.

        The flats strictly below G are recomputed from the hyperplane sets
        alone, as the flats of lower rank that contain no hyperplane outside
        G: from one bitset per hyperplane of the flats that contain it,
        n ORs per flat.  Then sum(mu(F), F <= G) must be 1 at the minimum
        and 0 elsewhere.
        """
        flats = self.flats
        arr = self.arrangement
        member = np.zeros((arr.n, len(flats)), bool)
        member[[h for f in flats for h in f.hyperplane_set],
               [i for i, f in enumerate(flats) for _ in f.hyperplane_set]] = True
        containing = [int.from_bytes(row.tobytes(), "little")
                      for row in np.packbits(member, axis=1, bitorder="little")]
        mu = np.array([self.mobius[f.hyperplane_set] for f in flats], _dtype(arr.n))
        for first, end in self._ranks():
            low = (1 << first) - 1
            cut = [c & low for c in containing]
            expected = []
            for f in flats[first:end]:
                outside = 0
                for h, c in enumerate(cut):
                    if h not in f.hyperplane_set:
                        outside |= c
                expected.append(low & ~outside)
            positions, counts = _bit_positions(expected, first)
            have = self.lower[self.starts[first]:self.starts[end]]
            sizes = np.diff(self.starts[first:end + 1])
            if not (np.array_equal(counts, sizes) and np.array_equal(positions, have)):
                bad = next(i for i in range(first, end) if not np.array_equal(
                    self.lower[self.starts[i]:self.starts[i + 1]],
                    _members(expected[i - first])))
                raise ConsistencyError("wrong interval below %r" % flats[bad])
            totals = mu[first:end].copy()
            if first:
                totals += np.add.reduceat(mu[have], np.cumsum(sizes) - sizes)
            want = np.zeros(end - first, np.int64)
            want[0] = not first
            bad = np.flatnonzero(totals != want)
            if len(bad):
                raise ConsistencyError("Mobius recursion fails at %r" % flats[first + bad[0]])
        return True

    def coboundary(self):
        """Coboundary polynomial in X and Y from the flats alone, with no primes.

        Over F_q a point lies on exactly the hyperplanes of one flat G, and
        the points of G on no flat above it number
        N_G(q) = q^dim G - sum_{G' > G} N_{G'}(q).  Hence
        q^(d-r) cobchi(q, t) = sum_G t^|G| N_G(q), an identity of
        polynomials (Crapo; Ardila 2007), returned with X = q and Y = t.
        The N_G are integer coefficient rows, finished one rank at a time
        from the top and subtracted from every flat below, then summed into
        one table indexed by [|G|][X-exponent].  Every N_G is q^(d-r) times
        a polynomial of degree at most r, so a row holds the r + 1
        coefficients of q^(d-r) to q^d.
        """
        r = self.flats[-1].rank
        counts = np.zeros((len(self.flats), r + 1), _dtype(self.arrangement.n))
        counts[np.arange(len(self.flats)), [r - f.rank for f in self.flats]] = 1
        table = {}
        for first, end in reversed(self._ranks()):
            own = counts[first:end]
            sizes = np.diff(self.starts[first:end + 1])
            targets = self.lower[self.starts[first]:self.starts[end]]
            # a column at a time, so the repeated rows take 8 bytes a pair
            for e in range(r + 1):
                np.subtract.at(counts[:, e], targets, np.repeat(own[:, e], sizes))
            for g, row in zip(self.flats[first:end], own.tolist()):
                size = len(g.hyperplane_set)
                for e, c in enumerate(row):
                    if c:
                        table[size, e] = table.get((size, e), 0) + c
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
    """Enumerate all flats breadth-first by rank, with intervals and Möbius values.

    Every row reduction and every comparable pair is charged to the budget
    when it is done, and the bitsets of the rank being built count against
    it while they are held, 32 bits to a pair; BudgetExceededError reports
    that running total as `required` once it exceeds the budget.  A stored
    pair takes 4 bytes, so the budget bounds the memory as well as the time.
    """
    p = arrangement.prime
    d = arrangement.dim
    rows = [h.row() for h in arrangement.hyperplanes]
    dtype = _dtype(arrangement.n)
    work = 0        # reductions and comparable pairs so far
    held = 0        # bitsets of the rank being built, in pairs of 32 bits each
    bottom = sum(1 << i for i in arrangement.loops())
    # hyperplane bitmask -> [the row the flat adds to the normals of the flat
    # that found it, as a one-row echelon basis; that flat's covers as
    # (normalised remainder row, cover bitmask); the flat's own cover among
    # them].  The minimum adds no row, and every non-loop is a cover.
    level = {bottom: [[], [(normalise_row(rows[j], p), 1 << j)
                           for j in arrangement.nonloops()], 0]}
    below = {bottom: 0}     # hyperplane bitmask -> below bitset, for one rank
    flats, lower, sizes = [], [], []
    mu = np.ones(1, dtype)  # the minimum's
    rank = 0
    while level:
        members = {m: _members(m) for m in level}
        order = sorted(level, key=members.get)
        first = len(flats)
        flats += [Flat(members[m], rank, d - rank) for m in order]
        positions, counts = _bit_positions([below[m] for m in order], first)
        work += len(positions)
        _check_budget(work + held, budget)
        below, held = {}, 0
        if first:
            mu = np.concatenate([mu, -np.add.reduceat(mu[positions],
                                                      np.cumsum(counts) - counts)])
        lower.append(positions)
        sizes.append(counts)
        units = (first + len(order)) // 32 + 1     # of one bitset of the next rank
        nxt = {}
        for i, fmask, bits in zip(range(first, first + len(order)), order,
                                  _bitsets(positions, counts, first)):
            step, found_by, own = level[fmask]
            pivot = step[0][0] if step else None
            covers = {}
            for key, cmask in found_by:
                if cmask != own:
                    if pivot is not None and key[pivot]:
                        rem = reduce_row(key, step, p)
                        if not any(rem[:-1]):  # parallel to the flat
                            continue
                        key = normalise_row(rem, p)
                    covers[key] = covers.get(key, 0) | cmask
            work += len(found_by) - (own != 0)
            _check_budget(work + held, budget)
            mine = list(covers.items())
            up = bits | 1 << i
            for key, cmask in mine:
                gmask = fmask | cmask
                if gmask in below:
                    below[gmask] |= up
                else:
                    held += units
                    _check_budget(work + held, budget)
                    col = next(c for c, x in enumerate(key) if x)
                    nxt[gmask] = [[(col, key)], mine, cmask]
                    below[gmask] = up
        level = nxt
        rank += 1

    starts = np.zeros(len(flats) + 1, np.int64)
    np.cumsum(np.concatenate(sizes), out=starts[1:])
    lower = np.concatenate(lower)
    mobius = {f.hyperplane_set: m for f, m in zip(flats, mu.tolist())}
    return IntersectionPoset(arrangement, flats, mobius, lower, starts)
