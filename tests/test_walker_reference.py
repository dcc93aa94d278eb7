"""The echelon walk against its former version.

`ref_echelon_walk` below is the former `linalg.echelon_walk`, kept here
verbatim but for reading `_WALK_BYTES` off the module: it rebuilt each
level's candidates from per-state index arrays and normalised every
remainder (`normalise_rows`).  The walk must yield the same blocks in the
same order, with the same masks, sizes and ranks and remainders of the same
zero pattern, offset and tag columns included, and reach and exceed the
budget at the same points, with the same message and `required`, over Q and
F_p, in int64 and in Python ints, at every block size.
"""

import numpy as np
import pytest

from test_linalg import (
    _near_the_bound,
    _over_a_wide_prime,
    _walker_cases,
    _wide_after_elimination,
)
from tuttekit import families
from tuttekit import linalg as linalg_module
from tuttekit.arrangement import Arrangement
from tuttekit.errors import BudgetExceededError
from tuttekit.linalg import (
    blocks,
    echelon_walk,
    eliminate_rows,
    integer_rows,
    narrow_rows,
    normalise_rows,
    power_fits,
    rank_rows,
)


def ref_echelon_walk(rows, prime=None, budget=None, rank=None):
    """Blocks of subsets of augmented rows [normal | offset], each with the
    remainders of rows against its reduced echelon basis.

    A subset's state is an integer array of remainders; a block holds
    states of one size, and all its children (subset + j, j past the
    subset's last index) are built together: row j's remainder b is the
    new basis row, and every other remainder v takes one elimination step,
    b[c]*v - v[c]*b at b's first nonzero normal column c, then
    `normalise_rows`.  Children are built `_WALK_BYTES` of int64 rows at a
    time and each child block is walked before the next is built, so a wide
    size is never held whole; within each size the subsets come in
    lexicographic order.  Yields (masks, size, ranks, rems) per block: bit j
    of a mask stands for row j, ranks are the ranks of the normals, and
    rems the states' remainder rows concatenated.  Between blocks they are
    stored by `narrow_rows`.

    With rank None the walk is central: a state holds the rows after its
    subset's last index, a child whose remainder is zero on the normals but
    not on the offset is skipped with every superset (no common point), and
    one whose remainder is zero keeps its parent's rows and rank.  Each
    candidate child costs one unit of the budget, and the empty set one, so
    a central arrangement costs 2^n; when the rows have a common point and
    2^n exceeds the budget, that is known before the walk, which then does
    not start.

    With a rank r the walk runs over the independent subsets that can reach
    size r, and a state holds every row with r tag columns after the
    offset: tag k is set to 1 in the k-th basis row as it joins, so that
    every later elimination carries it, and a basis row's remainder is the
    zero row.  A child is admitted when its remainder is nonzero on the
    normals and rows j .. m - 1 can still complete it, and each admitted
    subset, the empty one too, costs m units (its m row steps).  The walk
    stops at size r, whose states are the bases.

    Each block of children is charged before its arrays are made, and
    BudgetExceededError reports the running total as `required` once it
    exceeds the budget (None: no bound).
    """
    m = len(rows)
    d = len(rows[0]) - 1 if rows else 0
    bits = np.array([1 << j for j in range(m)], np.int64 if m < 63 else object)
    work = 0

    def charge(units):
        nonlocal work
        work += units
        if budget is not None and work > budget:
            what = ("the central-subset walk needs at least %d candidate subsets"
                    if rank is None else
                    "the basis-activity expansion needs at least %d row steps")
            raise BudgetExceededError((what + ", over the budget %d") % (work, budget),
                                      required=work)

    def children(masks, size, ranks, last, rems):
        first = last + 1 if rank is None else np.zeros_like(last)
        starts = np.cumsum(m - first) - (m - first)
        # the candidates: (state, j) for j past the state's last index
        ncand = m - 1 - last
        state = np.repeat(np.arange(len(last)), ncand)
        j = (np.arange(len(state)) - np.repeat(np.cumsum(ncand) - ncand, ncand)
             + last[state] + 1)
        at = starts[state] + j - first[state]
        step = (rems[at, :d] != 0).any(axis=1)
        if rank is None:
            keep = step | (rems[at, d] == 0)
            height = m - 1 - j
        else:
            step &= m - j >= rank - size
            keep = step
            height = np.full(len(j), m)
        for lo, hi in blocks((height + 1) * keep * 8 * rems.shape[1], linalg_module._WALK_BYTES):
            pick = lo + np.flatnonzero(keep[lo:hi])
            charge(hi - lo if rank is None else m * len(pick))
            if not len(pick):
                continue
            cs, cj, b = state[pick], j[pick], rems[at[pick]]
            cfirst = cj + 1 if rank is None else np.zeros_like(cj)
            counts = m - cfirst
            offsets = np.cumsum(counts) - counts
            owner = np.repeat(np.arange(len(pick)), counts)
            src = (np.arange(int(counts.sum())) - offsets[owner]
                   + (starts[cs] - first[cs] + cfirst)[owner])
            v = rems[src]
            if rank:
                b[:, d + 1 + size] = 1      # the tag of the new basis row
            out = eliminate_rows(v, b[owner], np.argmax(b != 0, axis=1)[owner])
            if rank is None:
                # a zero remainder keeps its parent's rows
                out = np.where(step[pick][owner, None], out, v)
            else:
                out[offsets + cj] = 0
            yield (masks[cs] | bits[cj], size + 1, ranks[cs] + step[pick], cj,
                   narrow_rows(normalise_rows(out, prime)))

    if rank is None and budget is not None and not power_fits(2, m, budget) \
            and rank_rows([row[:-1] for row in rows], prime) == rank_rows(rows, prime):
        raise BudgetExceededError(
            "the central-subset walk needs 2^%d candidate subsets, over the "
            "budget %d" % (m, budget), required=2 ** m)
    rems = integer_rows(rows, d + 1, prime)
    if rank:
        rems = np.hstack([rems, np.zeros((m, rank), rems.dtype)])
    root = (np.zeros(1, bits.dtype), 0, np.zeros(1, np.int64),
            np.full(1, -1), narrow_rows(rems))
    charge(1 if rank is None else m)
    stack = [iter([root])]
    while stack:
        block = next(stack[-1], None)
        if block is None:
            stack.pop()
            continue
        masks, size, ranks, last, rems = block
        yield masks, size, ranks, rems
        if rank is None or size < rank:
            stack.append(children(masks, size, ranks, last, rems))


def _over_f3(arr):
    return Arrangement(arr.dim, [(h[:-1], h[-1]) for h in arr.hyperplanes], prime=3)


def _cases():
    named = [(repr(a), a) for a in _walker_cases()]
    for name, arr in (("braid5", families.braid(5)), ("shi3", families.shi(3)),
                      ("bc3", families.bc(3))):
        named += [(name, arr), (name + "-F3", _over_f3(arr))]
    return named + [(make.__name__, make()) for make in
                    (_near_the_bound, _over_a_wide_prime, _wide_after_elimination)]


class _Recorder:
    """A budget that is never exceeded and records every running total the
    walk compares with it.  The central walk's check of 2^m against the
    budget (`power_fits`) compares 2, 4, .. 2^m and ends with 2^m <= budget;
    those comparisons are dropped there."""

    def __init__(self):
        self.totals = []

    def __lt__(self, work):
        self.totals.append(work)
        return False

    def __ge__(self, work):
        self.totals.clear()
        return True


def _blocks(walk, rows, prime, rank, budget=None):
    out = []
    for masks, size, ranks, rems in walk(rows, prime, budget, rank):
        zero = (rems == 0).reshape(len(masks), -1, rems.shape[-1]) if rank else rems == 0
        out.append((masks.tolist(), size, ranks.tolist(), zero.shape, zero.tobytes()))
    return out


def _outcome(walk, rows, prime, rank, budget):
    try:
        return _blocks(walk, rows, prime, rank, budget)
    except BudgetExceededError as e:
        return str(e), e.required


def _walks(arr):
    # the central walk on every row (as `multivariate_tutte` runs it, loops
    # included) and the basis walk on the non-loops (as `_bases` does)
    yield list(arr.hyperplanes), None
    if arr.rank:
        yield list(arr.rows), arr.rank


@pytest.mark.parametrize("arr", [pytest.param(a, id=name) for name, a in _cases()])
@pytest.mark.parametrize("block", [1, 200, linalg_module._WALK_BYTES])
def test_walk_matches_the_former_walk(arr, block, monkeypatch):
    monkeypatch.setattr(linalg_module, "_WALK_BYTES", block)
    for rows, rank in _walks(arr):
        want = _blocks(ref_echelon_walk, rows, arr.prime, rank)
        assert _blocks(echelon_walk, rows, arr.prime, rank) == want
        # the walk raises at the first running total above the budget, so
        # equal totals give the same error at every budget from 1 to the
        # total; a spread of budgets is run as well
        seen = []
        for walk in (ref_echelon_walk, echelon_walk):
            recorder = _Recorder()
            assert _blocks(walk, rows, arr.prime, rank, recorder) == want
            # a block with no admitted child charges nothing
            seen.append([t for i, t in enumerate(recorder.totals)
                         if not i or t != recorder.totals[i - 1]])
        assert seen[0] == seen[1]
        totals = sorted(set(seen[0]))
        budgets = {1} | {t - 1 for t in totals[1::max(1, len(totals) // 6)] + totals[-1:]}
        for budget in sorted(b for b in budgets if b < totals[-1]):
            got = _outcome(echelon_walk, rows, arr.prime, rank, budget)
            assert got == _outcome(ref_echelon_walk, rows, arr.prime, rank, budget)
            # a central walk over the budget may stop before it starts, at 2^m
            first = min(t for t in totals if t > budget)
            assert got[1] in (first, 2 ** len(rows)) and \
                "over the budget %d" % budget in got[0]
        assert _outcome(echelon_walk, rows, arr.prime, rank, totals[-1]) == want
