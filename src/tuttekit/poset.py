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

Each rank is built by a fixed sequence of numpy steps on all its flats at
once.  Every flat's candidates, the covers of the flat that found it, are
gathered into one row matrix; each is eliminated against its flat's added
row in one operation, and the rows parallel to their flat are dropped, the
flat's own cover among them; `linalg.normalise_rows` normalises the rest.  A lexsort groups equal keys
per flat and `bitwise_or.reduceat` joins their hyperplane masks into the
flat's covers.  The covers' masks, with the flat's own, are the flats of the
next rank: a stable argsort orders them and names each one's finder, the
first flat in order that has it as a cover.  Hyperplane j is bit n - 1 - j of a
mask, so descending masks order the flats of one rank by their sorted
hyperplane lists.  Keys are int64 while the prime and every entry stay
below 2^31, and masks while n < 63, so that no product overflows; beyond
that both are numpy arrays of Python ints, through the same code
(`linalg.eliminate_rows`).  Between ranks the keys are kept in the
narrowest integer type that holds them (`linalg.narrow_rows`).

The flats strictly below G are kept as pairs: an ascending int32 array of
flat indices per rank, all of its flats' below sets end to end, with their
counts.  While G's rank is built, below(G) is gathered as the union, over
the lower covers F of G, of below(F) | {F}, by sorting keys that join G and
the entry a block of `_BLOCK_BYTES` at a time and dropping equal neighbours.
Crapo's formula runs bottom-up over the pairs: each flat H gets
g_H(t) = sum_{G <= H} mu(G, H) t^|G| = t^|H| - sum_{G < H} g_G(t), summed a
block at a time.  A rank's pairs are dropped once the next rank's are made.
The budget is charged at each rank boundary, before the arrays that the
charge sizes are made: the rank's comparable pairs, then the reductions
that find its covers, then the pairs gathered for the next rank,
|below(F)| + 1 for each of its covers, which are held until that rank's
pairs are charged.  So the smallest budget that fits is the largest running
total of work done and pairs gathered, and it bounds the pairs held.  g
keeps one integer per flat and flat size that occurs, and every flat above
the minimum is charged at least one pair, so below 63 hyperplanes g takes
at most 8(n + 1) bytes per unit of the budget.

Only numpy 1.24 API is used: bits are counted by a byte table, not
`bitwise_count`, and no result relies on numpy 2 shapes.

The characteristic and coboundary polynomials are summed from the Möbius
values and g into integer coefficient tables, and one MultiPoly is built
from each table.
"""

import numpy as np

from .errors import BudgetExceededError, ConsistencyError, NonCentralError
from .finite_field import DEFAULT_BUDGET
from .linalg import (
    blocks,
    eliminate_rows,
    extend_basis,
    integer_rows,
    narrow_rows,
    normalise_row,
    normalise_rows,
    reduce_row,
)
from .multipoly import MultiPoly

# Bytes per numpy block: of candidate key rows eliminated at once, of the
# keys sorted into the next rank's below sets, of g columns gathered over
# intervals, and of the table rows and words `verify_mobius` reads.
_BLOCK_BYTES = 1 << 20

# A block's below-set keys are int32 when all are below this, int64 otherwise.
_INT32_KEYS = 1 << 31

_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], np.uint8)


def _dtype(n):
    """Array dtype for hyperplane masks and g coefficients.

    A mask has n bits; the others are signed counts of subsets of the n
    hyperplanes, so below 2^n in size.  int64 holds them when n < 63, and
    sums that overflow on the way wrap modulo 2^64 and still end exact.
    Larger n uses Python ints.
    """
    return np.int64 if n < 63 else object


def _check_budget(required, budget):
    if required > budget:
        raise BudgetExceededError(
            "the flat lattice needs at least %d reductions, comparable pairs "
            "and gathered below-set pairs, over the budget %d" % (required, budget),
            required=required)


def _set_words(rows):
    """The nonzero words of rows of uint64 words, a block of rows at a time:
    yields the first row s of each block and the (row - s, column, value)
    arrays of its nonzero words, in row-major order."""
    for s, e in blocks(np.full(len(rows), 8 * rows.shape[1]), _BLOCK_BYTES):
        r, c = np.nonzero(rows[s:e])
        yield s, r, c, rows[s + r, c]


def _bit_counts(rows):
    """The number of set bits in each row of uint64 words."""
    counts = np.zeros(len(rows), np.int64)
    for s, r, _, words in _set_words(rows):
        bits = np.bincount(r, _POPCOUNT[words.view(np.uint8)].reshape(-1, 8).sum(axis=1))
        counts[s:s + len(bits)] = bits
    return counts


def _bit_positions(rows):
    """Set-bit positions of rows of uint64 words, ascending within each row
    and the rows in order, as one int32 array.  Only the nonzero bytes of
    nonzero words are unpacked."""
    out = [np.zeros(0, np.int32)]
    for _, _, c, words in _set_words(rows):
        table = words.view(np.uint8).reshape(-1, 8)
        w, b = np.nonzero(table)
        byte, bits = np.nonzero(np.unpackbits(table[w, b, None], axis=1,
                                              bitorder="little"))
        out.append((c[w[byte]] * 64 + b[byte] * 8 + bits).astype(np.int32))
    return np.concatenate(out)


def _hyperplane_lists(masks, n):
    """The ascending hyperplane list of each mask, hyperplane j at bit n - 1 - j."""
    if masks.dtype == object:
        nbytes = (n + 7) // 8
        raw = b"".join(x.to_bytes(nbytes, "little") for x in masks.tolist())
    else:
        nbytes, raw = 8, masks.astype("<i8").tobytes()
    bits = np.unpackbits(np.frombuffer(raw, np.uint8).reshape(len(masks), nbytes),
                         axis=1, bitorder="little")
    rows, cols = np.nonzero(bits[:, :n][:, ::-1])
    cuts = np.cumsum(np.bincount(rows, minlength=len(masks))).tolist()
    cols = cols.tolist()
    return [cols[a:b] for a, b in zip([0] + cuts[:-1], cuts)]


def _sizes(masks):
    """The number of hyperplanes of each mask."""
    if masks.dtype == object:
        return np.array([bin(x).count("1") for x in masks.tolist()], np.int64)
    # the top byte of the product is the sum of the 8 bytes' bit counts
    return (_POPCOUNT[masks.view(np.uint8)].view(np.int64) * 0x0101010101010101) >> 56


def _interval_sums(cols, positions, counts):
    """Sums of the columns cols[:, j] over the positions j of each interval, the
    intervals given in order by their counts (each at least 1), in blocks."""
    ends = np.cumsum(counts)
    starts = ends - counts
    return np.concatenate([
        np.add.reduceat(cols.take(positions[starts[s]:ends[e - 1]], axis=1),
                        starts[s:e] - starts[s], axis=1)
        for s, e in blocks(8 * len(cols) * counts, _BLOCK_BYTES)], axis=1)


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
    """All flats of an arrangement with their g_H and Möbius values.

    g[j, i] is the coefficient of t^powers[j] in g_H for H = flats[i], the
    powers being the flat sizes |H| that occur, ascending.  The first is the
    minimum's, the number of loops, so g[0, i] is mobius[H] = mu(0, H).
    """

    def __init__(self, arrangement, flats, g, powers):
        self.arrangement = arrangement
        self.flats = flats          # sorted by (rank, sorted index set)
        self.g = g                  # a row per power of t, a column per flat
        self.powers = powers
        self.minimum = flats[0].hyperplane_set
        self.mobius = {f.hyperplane_set: mu for f, mu in     # frozenset -> int
                       zip(flats, g[0].tolist())}

    def _ranks(self):
        """(first, end) flat indices of each rank, lowest rank first."""
        cuts = [i for i in range(1, len(self.flats))
                if self.flats[i].rank != self.flats[i - 1].rank]
        return list(zip([0] + cuts, cuts + [len(self.flats)]))

    def _rank_sums(self):
        """table[s][k]: the coefficient of t^s in the sum of g_H over the
        flats H of rank k, as nested lists of ints."""
        sums = np.add.reduceat(self.g, [first for first, _ in self._ranks()], axis=1)
        table = np.zeros((self.arrangement.n + 1, sums.shape[1]), self.g.dtype)
        table[self.powers] = sums
        return table.tolist()

    def char_poly(self):
        """Characteristic polynomial: q^(d-r) cobchi(q, 0), the t^0 row of
        the rank sums of g, which is sum_H mu(H) q^dim H.

        A loop hyperplane (0 = 0) lies in every flat, so no g_H has a t^0
        term and chi = 0: an arrangement with a loop has empty complement.
        """
        d = self.arrangement.dim
        return MultiPoly(("q",), {(d - k,): c for k, c in enumerate(self._rank_sums()[0])})

    def verify_mobius(self):
        """Check g and the Möbius values on every interval; True or raises.

        The flats strictly below G are recomputed from the hyperplane sets
        alone, as the flats of lower rank that contain no hyperplane outside
        G: the complement of the OR, over the hyperplanes h outside G, of
        the words of the flats containing h.  The hyperplanes go in groups
        of four, and each group's 16 ORs are tabled first by one OR pass per
        hyperplane, so a row of a rank takes one table row per group.  Then
        sum_{F <= G} g_F must be t^|G|.  Its coefficient of t^(number of
        loops) is the Möbius recursion, once the Möbius values are g's.
        """
        flats = self.flats
        n = self.arrangement.n
        words, groups = (len(flats) + 63) // 64, (n + 3) // 4
        member = np.zeros((4 * groups, 64 * words), bool)
        member[[h for f in flats for h in f.hyperplane_set],
               [i for i, f in enumerate(flats) for _ in f.hyperplane_set]] = True
        containing = np.packbits(member, axis=1, bitorder="little").view(np.uint64)
        # table[g, k]: the OR of the words of hyperplanes 4g + b over the bits b of k
        table = np.zeros((groups, 16, words), np.uint64)
        for b in range(4):
            table[:, 1 << b:2 << b] = table[:, :1 << b] | containing[b::4, None]
        # each flat's bits k of the hyperplanes of each group that it lacks
        lacks = np.packbits(~member.reshape(groups, 4, 64 * words), axis=1,
                            bitorder="little")[:, 0]
        if [self.mobius[f.hyperplane_set] for f in flats] != self.g[0].tolist():
            raise ConsistencyError("Mobius values differ from g")
        rows = np.searchsorted(self.powers, [len(f.hyperplane_set) for f in flats])
        for first, end in self._ranks():
            width = (first + 63) // 64
            low = np.packbits(np.arange(64 * width) < first,
                              bitorder="little").view(np.uint64)
            for s, e in blocks(np.full(end - first, 8 * width * max(groups, 1)),
                               _BLOCK_BYTES):
                s, e = first + s, first + e
                outside = np.bitwise_or.reduce(
                    table[np.arange(groups)[:, None], lacks[:, s:e], :width], axis=0)
                expected = ~outside & low
                totals = self.g[:, s:e] + (_interval_sums(
                    self.g, _bit_positions(expected), _bit_counts(expected)) if first else 0)
                totals[rows[s:e], np.arange(e - s)] -= 1
                bad = np.flatnonzero(totals.any(axis=0))
                if len(bad):
                    raise ConsistencyError("Mobius recursion fails at %r" % flats[s + bad[0]])
        return True

    def coboundary(self):
        """Coboundary polynomial in X and Y from the flats alone, with no primes.

        Crapo's formula read bottom-up (Crapo; Ardila 2007), with X = q and
        Y = t: q^(d-r) cobchi(q, t) = sum_H q^dim H g_H(t).  Each rank's g_H
        are summed into one column of the table [|H|][X-exponent], rank k's X^(r-k).
        """
        table = self._rank_sums()
        r = len(table[0]) - 1
        # the variable order of coboundary_ffm's result, which printing follows
        return MultiPoly(("Y", "X"), {(size, r - k): c for size, row in enumerate(table)
                                      for k, c in enumerate(row) if c})


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


def _covers(ckeys, cmasks, start, count, own, pivot, p):
    """The covers of one rank's flats from their candidates, or None if none.

    Flat i's candidates are the covers start[i] .. start[i] + count[i] - 1
    of the flat that found it: each key is eliminated against
    ckeys[own[i]], the row the flat added, at its pivot column pivot[i],
    and dropped if parallel to the flat, as the flat's own cover is.  The
    minimum has no such row (own is None), and its candidates are the
    non-loops as they are.  Equal keys of one flat join one cover.  Returns
    (keys, masks, flat) arrays, grouped by flat in order.
    """
    out = []
    for s, e in blocks(count * 8 * ckeys.shape[1], _BLOCK_BYTES):
        total = int(count[s:e].sum())
        offsets = np.cumsum(count[s:e]) - count[s:e]
        idx = np.repeat(start[s:e] - offsets, count[s:e]) + np.arange(total)
        gid = np.repeat(np.arange(s, e), count[s:e])
        keys, masks = ckeys[idx], cmasks[idx]
        if own is not None:
            keys = eliminate_rows(keys, ckeys[own[gid]], pivot[gid])
            keep = (keys[:, :-1] != 0).any(axis=1)
            keys = normalise_rows(keys[keep], p)
            masks, gid = masks[keep], gid[keep]
        if not len(gid):
            continue
        order = np.lexsort(tuple(keys.T[::-1]) + (gid,))
        keys, masks, gid = keys[order], masks[order], gid[order]
        heads = np.ones(len(gid), bool)
        heads[1:] = (gid[1:] != gid[:-1]) | (keys[1:] != keys[:-1]).any(axis=1)
        heads = np.flatnonzero(heads)
        keys = narrow_rows(keys[heads])
        out.append((keys, np.bitwise_or.reduceat(masks, heads), gid[heads]))
    if not out:
        return None
    return tuple(np.concatenate(x) for x in zip(*out))


def _below_pairs(positions, counts, first, flat, target, size):
    """The below sets of the next rank as (positions, counts) pairs.

    below(G) is the union of below(F) | {F} over the lower covers F of G.
    The covers come sorted by their flat G = target[c], and F is
    first + flat[c]; positions and counts hold the current rank's below
    sets.  A block of targets at a time, sized for its keys, each entry is
    keyed (G - s) * width + entry, s the block's first target: in int32
    when every key is below _INT32_KEYS, else in int64.  The keys are
    sorted and equal neighbours dropped, so the positions come out
    ascending within each G, as int32.
    """
    width = first + len(counts)
    starts = np.cumsum(counts) - counts
    lens = counts[flat]
    bounds = np.searchsorted(target, np.arange(size + 1))
    out, sizes = [np.zeros(0, np.int32)], []
    for s, e in blocks(8 * np.add.reduceat(lens + 1, bounds[:-1]), _BLOCK_BYTES):
        a, b = bounds[s], bounds[e]
        dtype = np.int32 if (e - s) * width <= _INT32_KEYS else np.int64
        f, k = flat[a:b], lens[a:b]
        base = ((target[a:b] - s) * width).astype(dtype)
        # F's below set is positions[starts[F]:starts[F] + |below(F)|]
        ends = np.cumsum(k)
        idx = np.repeat(starts[f] - ends + k, k) + np.arange(ends[-1])
        keys = np.concatenate((np.repeat(base, k) + positions[idx],
                               base + (first + f).astype(dtype)))
        keys.sort()
        keep = np.empty(len(keys), bool)
        keep[0] = True
        np.not_equal(keys[1:], keys[:-1], out=keep[1:])
        keys = keys[keep]
        rows = keys // width
        out.append((keys - rows * width).astype(np.int32))
        sizes.append(np.bincount(rows, minlength=e - s))
    return np.concatenate(out), np.concatenate(sizes)


def intersection_poset(arrangement, budget=DEFAULT_BUDGET):
    """Enumerate all flats breadth-first by rank, with their g_H and Möbius values.

    The budget is charged at each rank boundary, before the arrays that the
    charge sizes are made: the rank's comparable pairs, then the reductions
    that find its covers, then the pairs gathered for the below sets of the
    next rank, which are held until that rank's pairs are charged.
    BudgetExceededError reports the running total as `required` once it
    exceeds the budget.  A rank's pairs are held only until the next rank's
    below sets are built.
    ConsistencyError is raised if g_H(1) is not 0 for an H above the minimum.
    """
    p = arrangement.prime
    n, d = arrangement.n, arrangement.dim
    rows = [h.row() for h in arrangement.hyperplanes]
    nonloops = arrangement.nonloops()
    dtype = _dtype(n)
    # the minimum's candidates: every non-loop
    ckeys = integer_rows([rows[j] for j in nonloops], d + 1, p)
    cmasks = np.array([1 << n - 1 - j for j in nonloops], dtype)
    start, count = np.zeros(1, np.int64), np.array([len(nonloops)])
    own = pivot = None
    masks = np.array([sum(1 << n - 1 - j for j in arrangement.loops())], dtype)
    positions, counts = np.zeros(0, np.int32), np.zeros(1, np.int64)
    work = held = first = 0
    ranks = []
    # the flat sizes so far, and the minimum's g, t^(number of loops)
    seen = np.arange(n + 1) == len(arrangement.loops())
    powers, g = np.flatnonzero(seen), np.ones((1, 1), dtype)
    while True:
        m = len(masks)
        ranks.append(masks)
        work += int(counts.sum())
        _check_budget(work + held, budget)
        held = 0
        if first:
            # g_H = t^|H| - sum_{G < H} g_G for the flats H of this rank
            sizes = _sizes(masks)
            seen[sizes] = True
            row = np.cumsum(seen) - 1       # the row of each power of t
            grown = np.zeros((row[-1] + 1, first + m), dtype)
            old = row[powers]
            grown[old, :first] = g
            grown[old, first:] = -_interval_sums(g, positions, counts)
            grown[row[sizes], np.arange(first, first + m)] = 1   # no lower g has t^|H|
            g, powers = grown, np.flatnonzero(seen)
            bad = np.flatnonzero(g[:, first:].sum(axis=0))
            if len(bad):
                raise ConsistencyError("g(1) is not 0 at the flat of hyperplanes %s"
                                       % _hyperplane_lists(masks[bad[:1]], n)[0])

        work += int(count.sum()) - (0 if own is None else m)
        _check_budget(work, budget)
        covers = _covers(ckeys, cmasks, start, count, own, pivot, p)
        if covers is None:
            break
        ckeys, cmasks, cflat = covers

        # the covers' flats, ordered by descending mask; each is found by the
        # first flat in order that has it as a cover, and the covers in that
        # order go up to the flats np.cumsum(heads) - 1
        negated = -(masks[cflat] | cmasks)
        order = np.argsort(negated, kind="stable")
        heads = np.ones(len(order), bool)
        heads[1:] = negated[order[1:]] != negated[order[:-1]]
        found = order[heads]
        held = int(counts[cflat].sum()) + len(cflat)
        _check_budget(work + held, budget)
        positions, counts = _below_pairs(positions, counts, first, cflat[order],
                                         np.cumsum(heads) - 1, len(found))
        cstart = np.searchsorted(cflat, np.arange(m + 1))
        masks = -negated[found]
        finder = cflat[found]
        start, count = cstart[finder], cstart[finder + 1] - cstart[finder]
        own = found
        pivot = np.argmax(ckeys[own] != 0, axis=1)
        first += m

    rank_of = np.repeat(np.arange(len(ranks)), [len(masks) for masks in ranks]).tolist()
    flats = [Flat(hs, rank, d - rank)
             for hs, rank in zip(_hyperplane_lists(np.concatenate(ranks), n), rank_of)]
    return IntersectionPoset(arrangement, flats, g, powers)
