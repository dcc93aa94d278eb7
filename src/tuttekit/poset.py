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
flat's own cover among them; `linalg.normalise_rows` normalises the rest,
changing only signs when every entry lies within +-1.
One stable argsort groups equal keys per flat: it sorts an int64 code of
(flat, key) in mixed radix, each key column shifted by its minimum and
weighted by the product of the later columns' ranges, so that equal codes
are equal rows and the order is that of a lexsort by flat and then by key.
Only keys whose code would reach `_CODE_BOUND`, and Python-int keys, take
the lexsort itself.  `bitwise_or.reduceat` joins the grouped rows'
hyperplane masks into the flat's covers, and `add.reduceat` their
hyperplane counts, which add up since one flat's candidates share no
hyperplane.  The covers' masks, with the flat's own, are the flats of the
next rank: a stable argsort orders them and names each one's finder, the
first flat in order that has it as a cover.  A flat's size is its
finder's plus that cover's, so no mask is popcounted.  Hyperplane j is bit
n - 1 - j of a mask, so descending masks order the flats of one rank by
their sorted hyperplane lists.  Keys are int64
while the prime and every entry stay below 2^31, and masks while n < 63, so
that no product overflows; beyond that both are numpy arrays of Python
ints, through the same code (`linalg.eliminate_rows`).  Between ranks the
keys are kept in the narrowest integer type that holds them
(`linalg.narrow_rows`).  On posets of a few hundred flats the time goes to
the fixed number of numpy calls per rank, not to the flats, so the steps
call ndarray methods rather than their `np.*` wrappers.

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

`verify_mobius` recounts every interval from the hyperplane masks alone,
in one pass over all flats: F <= G exactly when F has no hyperplane
outside G, and no other flat of G's rank or above passes that test, so no
rank loop is needed.  One `nonzero` pass over each block's words gives the
positions and counts of its intervals.

Only numpy 1.24 API is used: bits are counted from their unpacked
positions, not by `bitwise_count`, and no result relies on numpy 2 shapes.

The poset keeps each flat as its mask, with the number of flats of each
rank; the `Flat` objects and the Möbius dict are built only when read.  The
characteristic and coboundary polynomials are summed from g into integer
coefficient tables, and one MultiPoly is built from each table.
"""

from functools import cached_property

import numpy as np

from .errors import DEFAULT_BUDGET, ConsistencyError, NonCentralError, charge
from .linalg import (
    blocks,
    eliminate_rows,
    hold_row,
    integer_rows,
    narrow_rows,
    normalise_rows,
    reduce_row,
)
from .multipoly import MultiPoly

# Bytes per numpy block: of candidate key rows eliminated at once, of the
# keys sorted into the next rank's below sets, of g columns gathered over
# intervals, and of the words and table rows `verify_mobius` ORs together.
_BLOCK_BYTES = 1 << 20

# A block's below-set keys are int32 when all are below this, int64 otherwise.
_INT32_KEYS = 1 << 31

# A block's (flat, key) sort codes are int64 while its flat count times the
# product of its key columns' ranges stays below this.
_CODE_BOUND = 1 << 62

# What the lattice's running budget total counts (`errors.charge`).
_CHARGE = ("the flat lattice needs at least %d reductions, comparable pairs "
           "and gathered below-set pairs")


def _dtype(n):
    """Array dtype for hyperplane masks and g coefficients.

    A mask has n bits; the others are signed counts of subsets of the n
    hyperplanes, so below 2^n in size.  int64 holds them when n < 63, and
    sums that overflow on the way wrap modulo 2^64 and still end exact.
    Larger n uses Python ints.
    """
    return np.int64 if n < 63 else object


def _set_bits(rows):
    """The set bits of rows of uint64 words as (positions, counts): the bit
    positions, ascending within each row and the rows in order, as one int32
    array, and the number in each row.  A block of rows at a time, only the
    nonzero bytes of nonzero words are unpacked."""
    positions, counts = [np.zeros(0, np.int32)], []
    for s, e in blocks(np.full(len(rows), 8 * rows.shape[1]), _BLOCK_BYTES):
        r, c = rows[s:e].nonzero()
        table = rows[s:e][r, c].view(np.uint8).reshape(-1, 8)
        w, b = table.nonzero()
        byte, bits = np.unpackbits(table[w, b, None], axis=1, bitorder="little").nonzero()
        w = w[byte]
        positions.append((c[w] * 64 + b[byte] * 8 + bits).astype(np.int32))
        counts.append(np.bincount(r[w], minlength=e - s))
    return np.concatenate(positions), np.concatenate(counts)


def _mask_bits(masks, n):
    """A 0/1 uint8 row per mask, column j set when the mask has hyperplane j
    (bit n - 1 - j)."""
    if masks.dtype == object:
        nbytes = (n + 7) // 8
        raw = b"".join(x.to_bytes(nbytes, "little") for x in masks.tolist())
    else:
        nbytes, raw = 8, masks.astype("<i8").tobytes()
    bits = np.unpackbits(np.frombuffer(raw, np.uint8).reshape(len(masks), nbytes),
                         axis=1, bitorder="little")
    return bits[:, :n][:, ::-1]


def _hyperplane_lists(masks, n):
    """The ascending hyperplane list of each mask, hyperplane j at bit n - 1 - j."""
    rows, cols = np.nonzero(_mask_bits(masks, n))
    cuts = np.cumsum(np.bincount(rows, minlength=len(masks))).tolist()
    cols = cols.tolist()
    return [cols[a:b] for a, b in zip([0] + cuts[:-1], cuts)]


def _interval_sums(cols, positions, counts):
    """Sums of the columns cols[:, j] over the positions j of each interval, the
    intervals given in order by their counts (each at least 1), in blocks."""
    ends = counts.cumsum()
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

    masks holds the flats' hyperplane masks (hyperplane j at bit n - 1 - j),
    sorted by (rank, sorted index set), and rank_sizes the number of flats
    of each rank.  g[j, i] is the coefficient of t^powers[j] in g_H for the
    flat H of masks[i], the powers being the flat sizes |H| that occur,
    ascending.  The first is the minimum's, the number of loops, so g[0, i]
    is mu(0, H).  `flats`, `mobius` and `minimum` are built on first read.
    """

    def __init__(self, arrangement, masks, rank_sizes, g, powers):
        self.arrangement = arrangement
        self.masks = masks
        self.rank_sizes = rank_sizes
        self.g = g                  # a row per power of t, a column per flat
        self.powers = powers

    def table(self):
        """(sorted hyperplane list, rank, Möbius value) of each flat, in order."""
        ranks = np.repeat(np.arange(len(self.rank_sizes)), self.rank_sizes).tolist()
        return list(zip(_hyperplane_lists(self.masks, self.arrangement.n), ranks,
                        self.g[0].tolist()))

    @cached_property
    def flats(self):
        """The flats as `Flat` objects, sorted by (rank, sorted index set)."""
        d = self.arrangement.dim
        return [Flat(hs, rank, d - rank) for hs, rank, _ in self.table()]

    @cached_property
    def mobius(self):
        """{hyperplane frozenset: mu(0, H)} over the flats H."""
        return {f.hyperplane_set: mu for f, mu in zip(self.flats, self.g[0].tolist())}

    @cached_property
    def minimum(self):
        """The minimum's hyperplanes, the loops, as a frozenset."""
        return frozenset(_hyperplane_lists(self.masks[:1], self.arrangement.n)[0])

    def _ranks(self):
        """(first, end) flat indices of each rank, lowest rank first."""
        ends = np.cumsum(self.rank_sizes).tolist()
        return list(zip([0] + ends[:-1], ends))

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

        The flats F <= G are recomputed from the hyperplane sets alone, for
        every flat G in one pass: F <= G exactly when F contains no
        hyperplane outside G, and of the flats of G's rank or above only G
        itself passes.  They are the complement of the OR, over the
        hyperplanes h outside G, of the words of the flats containing h.
        The hyperplanes go in groups of four, and each group's 16 ORs are
        tabled first by one OR pass per hyperplane, so a flat takes one
        table row per group, ORed in a group at a time.  The flats are in
        rank order, so a block of flats reads only the words up to its last
        flat.  One `nonzero` pass
        over these words gives each interval's positions and counts, and
        sum_{F <= G} g_F must be t^|G|.  Its coefficient of t^(number of
        loops) is the Möbius recursion, once the Möbius values are g's: the
        Möbius dict, once it has been built, must equal g's first row.
        """
        n, m = self.arrangement.n, len(self.masks)
        bits = _mask_bits(self.masks, n)
        words, groups = (m + 63) // 64, (n + 3) // 4
        member = np.zeros((4 * groups, 64 * words), bool)
        member[:n, :m] = bits.T
        containing = np.packbits(member, axis=1, bitorder="little").view(np.uint64)
        # table[g, k]: the OR of the words of hyperplanes 4g + b over the bits b of k
        table = np.zeros((groups, 16, words), np.uint64)
        for b in range(4):
            table[:, 1 << b:2 << b] = table[:, :1 << b] | containing[b::4, None]
        # each flat's bits k of the hyperplanes of each group that it lacks
        lacks = np.packbits(~member.reshape(groups, 4, 64 * words), axis=1,
                            bitorder="little")[:, 0]
        if "mobius" in self.__dict__ and \
                [self.mobius[f.hyperplane_set] for f in self.flats] != self.g[0].tolist():
            raise ConsistencyError("Mobius values differ from g")
        present = np.packbits(np.arange(64 * words) < m, bitorder="little").view(np.uint64)
        rows = self.powers.searchsorted(bits.sum(axis=1))
        # a block holds its flats' words and one gathered table row per flat
        for s, e in blocks(np.full(m, 16 * words), _BLOCK_BYTES):
            width = (e + 63) // 64      # the words of the flats before e
            outside = np.zeros((e - s, width), np.uint64)
            for part, lack in zip(table[:, :, :width], lacks[:, s:e]):
                outside |= part[lack]
            totals = _interval_sums(self.g, *_set_bits(~outside & present[:width]))
            totals[rows[s:e], np.arange(e - s)] -= 1
            bad = totals.any(axis=0).nonzero()[0]
            if len(bad):
                raise ConsistencyError("Mobius recursion fails at %r"
                                       % self.flats[s + bad[0]])
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

    The echelon pass runs over the subset's augmented rows: the subset has
    no common point exactly when a held row's pivot is the offset column,
    and NonCentralError is raised.  Otherwise a hyperplane contains the
    intersection exactly when its row lies in the span of the held rows.
    """
    subset = sorted(subset)
    arrangement._check_indices(subset)
    p = arrangement.prime
    rows = arrangement.hyperplanes
    basis = []
    for i in subset:
        hold_row(basis, rows[i], p)
    if any(c == arrangement.dim for c, _ in basis):
        raise NonCentralError("non-central subset %s" % subset)
    return frozenset(i for i, row in enumerate(rows)
                     if not any(reduce_row(row, basis, p)))


def _sort_code(keys, gid, count):
    """An int64 code of each row (gid, key), gid in range(count): equal
    exactly when the rows are equal, and in the order of a lexsort by gid
    and then by the key's columns in turn.  None for Python-int keys, or
    when the code could reach _CODE_BOUND.
    """
    if keys.dtype == object:
        return None
    # a contiguous row per key column: numpy reduces the few columns of a
    # row-major array at the cost of one inner-loop call per row
    columns = keys.T.copy()
    low = columns.min(axis=1)
    ranges = [b - a + 1 for a, b in zip(low.tolist(), columns.max(axis=1).tolist())]
    # the place value of each column, the last column's 1
    weights = [1]
    for size in ranges[:0:-1]:
        weights.append(weights[-1] * size)
    span = weights[-1] * ranges[0]
    if count * span >= _CODE_BOUND:
        return None
    # w . (key - low) < span, as w @ columns - w @ low: int64 products that
    # wrap modulo 2^64 on the way still end exact
    weights = np.array(weights[::-1])
    return gid * span + (weights @ columns - weights @ low)


def _covers(ckeys, cmasks, csizes, start, count, own, pivot, p):
    """The covers of one rank's flats from their candidates, or None if none.

    Flat i's candidates are the covers start[i] .. start[i] + count[i] - 1
    of the flat that found it: each key is eliminated against
    ckeys[own[i]], the row the flat added, at its pivot column pivot[i],
    and dropped if parallel to the flat, as the flat's own cover is.  The
    minimum has no such row (own is None), and its candidates are the
    non-loops as they are.  Equal keys of one flat join one cover, grouped
    by one stable argsort of their `_sort_code`, or by a lexsort when there
    is none.  csizes holds the candidates' hyperplane counts; a cover's is
    their sum, since the candidates of one flat share no hyperplane.
    Returns (keys, masks, sizes, flat) arrays, grouped by flat in order.
    """
    out = []
    for s, e in blocks(count * 8 * ckeys.shape[1], _BLOCK_BYTES):
        k = count[s:e]
        ends = k.cumsum()
        idx = (start[s:e] - ends + k).repeat(k) + np.arange(ends[-1])
        gid = np.arange(s, e).repeat(k)
        keys, masks, sizes = ckeys[idx], cmasks[idx], csizes[idx]
        if own is not None:
            keys = eliminate_rows(keys, ckeys[own[gid]], pivot[gid])
            keep = (keys[:, :-1] != 0).any(axis=1)
            keys = normalise_rows(keys[keep], p)
            masks, sizes, gid = masks[keep], sizes[keep], gid[keep]
        if not len(gid):
            continue
        code = _sort_code(keys, gid - s, e - s)
        heads = np.empty(len(gid), bool)
        heads[0] = True
        if code is None:
            order = np.lexsort(tuple(keys.T[::-1]) + (gid,))
            sorted_keys, sorted_gid = keys[order], gid[order]
            heads[1:] = (sorted_gid[1:] != sorted_gid[:-1]) | \
                (sorted_keys[1:] != sorted_keys[:-1]).any(axis=1)
        else:
            order = code.argsort(kind="stable")
            code = code[order]
            np.not_equal(code[1:], code[:-1], out=heads[1:])
        heads = heads.nonzero()[0]
        firsts = order[heads]
        out.append((narrow_rows(keys[firsts]), np.bitwise_or.reduceat(masks[order], heads),
                    np.add.reduceat(sizes[order], heads, dtype=sizes.dtype), gid[firsts]))
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
    starts = counts.cumsum() - counts
    lens = counts[flat]
    bounds = target.searchsorted(np.arange(size + 1))
    out, sizes = [np.zeros(0, np.int32)], []
    for s, e in blocks(8 * np.add.reduceat(lens + 1, bounds[:-1]), _BLOCK_BYTES):
        a, b = bounds[s], bounds[e]
        dtype = np.int32 if (e - s) * width <= _INT32_KEYS else np.int64
        f, k = flat[a:b], lens[a:b]
        base = ((target[a:b] - s) * width).astype(dtype)
        # F's below set is positions[starts[F]:starts[F] + |below(F)|]
        ends = k.cumsum()
        idx = (starts[f] - ends + k).repeat(k) + np.arange(ends[-1])
        keys = np.concatenate((base.repeat(k) + positions[idx],
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
    rows = arrangement.hyperplanes
    loops, nonloops = arrangement.loops(), arrangement.nonloops()
    dtype = _dtype(n)
    # the minimum's candidates: every non-loop
    ckeys = integer_rows([rows[j] for j in nonloops], d + 1, p)
    cmasks = np.array([1 << n - 1 - j for j in nonloops], dtype)
    csizes = np.ones(len(nonloops), np.min_scalar_type(n))   # sums stay <= n
    start, count = np.zeros(1, np.int64), np.array([len(nonloops)])
    own = pivot = None
    masks = np.array([sum(1 << n - 1 - j for j in loops)], dtype)
    sizes = np.array([len(loops)])
    positions, counts = np.zeros(0, np.int32), np.zeros(1, np.int64)
    work = held = first = 0
    ranks = []
    # the flat sizes so far, and the minimum's g, t^(number of loops)
    seen = np.arange(n + 1) == len(loops)
    powers, g = seen.nonzero()[0], np.ones((1, 1), dtype)
    while True:
        m = len(masks)
        ranks.append(masks)
        work += int(counts.sum())
        charge(work + held, budget, _CHARGE)
        held = 0
        if first:
            # g_H = t^|H| - sum_{G < H} g_G for the flats H of this rank
            seen[sizes] = True
            row = seen.cumsum() - 1         # the row of each power of t
            grown = np.zeros((row[-1] + 1, first + m), dtype)
            old = row[powers]
            grown[old, :first] = g
            grown[old, first:] = -_interval_sums(g, positions, counts)
            grown[row[sizes], np.arange(first, first + m)] = 1   # no lower g has t^|H|
            g, powers = grown, seen.nonzero()[0]
            bad = g[:, first:].sum(axis=0).nonzero()[0]
            if len(bad):
                raise ConsistencyError("g(1) is not 0 at the flat of hyperplanes %s"
                                       % _hyperplane_lists(masks[bad[:1]], n)[0])

        work += int(count.sum()) - (0 if own is None else m)
        charge(work, budget, _CHARGE)
        covers = _covers(ckeys, cmasks, csizes, start, count, own, pivot, p)
        if covers is None:
            break
        ckeys, cmasks, csizes, cflat = covers

        # the covers' flats, ordered by descending mask; each is found by the
        # first flat in order that has it as a cover, and the covers in that
        # order go up to the flats heads.cumsum() - 1
        negated = -(masks[cflat] | cmasks)
        order = negated.argsort(kind="stable")
        heads = np.empty(len(order), bool)
        heads[0] = True
        np.not_equal(negated[order[1:]], negated[order[:-1]], out=heads[1:])
        found = order[heads]
        held = int(counts[cflat].sum()) + len(cflat)
        charge(work + held, budget, _CHARGE)
        positions, counts = _below_pairs(positions, counts, first, cflat[order],
                                         heads.cumsum() - 1, len(found))
        cstart = cflat.searchsorted(np.arange(m + 1))
        masks = -negated[found]
        finder = cflat[found]
        sizes = sizes[finder] + csizes[found]
        start, count = cstart[finder], cstart[finder + 1] - cstart[finder]
        own = found
        pivot = (ckeys[own] != 0).argmax(axis=1)
        first += m

    return IntersectionPoset(arrangement, np.concatenate(ranks),
                             [len(masks) for masks in ranks], g, powers)
