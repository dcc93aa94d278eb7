"""The subset expansion over central independent sets against the full walk.

`tutte_subset` walks only the central independent sets I and counts, for
each, the rows F(I) that its greedy basis spans.  Its polynomial must equal
the expanded rank-size table of every central subset, as
`linalg.central_subsets` walks them, and its charge must stay within
sum_{k <= r+1} C(m, k) over the m non-loops and within the full walk's.
"""

import random
from functools import cache
from math import comb

import pytest

from test_linalg import _near_the_bound, _over_a_wide_prime, _wide_after_elimination
from test_walker_reference import _Recorder
from tuttekit import families
from tuttekit import linalg as linalg_module
from tuttekit.arrangement import Arrangement
from tuttekit.linalg import central_subsets
from tuttekit.multipoly import MultiPoly
from tuttekit.tutte import expand_rank_table, tutte_subset


def _seeded(rng, prime=None):
    """d 0-4 and n 0-10, affine rows with loops, repeated rows and parallel
    rows; over Q some entries lie past 2^31, which takes Python ints."""
    d = rng.randint(0, 4)
    top = 2 ** 33 if prime is None and rng.random() < 0.2 else 3
    hs = []
    for _ in range(rng.randint(0, 10)):
        roll = rng.random()
        if not d or roll < 0.1:
            hs.append(([0] * d, 0))                     # a loop
        elif hs and roll < 0.25:
            hs.append(rng.choice(hs))                   # a repeated row
        elif hs and roll < 0.4 and any(hs[-1][0]):
            hs.append((hs[-1][0], rng.randint(-3, 3)))  # a parallel row
        else:
            if prime is None:
                normal = [rng.randint(-top, top) for _ in range(d)]
                offset = rng.randint(-top, top)
            else:
                normal = [rng.randrange(prime) for _ in range(d)]
                offset = rng.randrange(prime)
            hs.append((normal, offset if any(normal) else 0))
    return Arrangement(d, hs, prime=prime)


def _cases():
    rng = random.Random(29)
    named = [("Q-%d" % k, _seeded(rng)) for k in range(60)]
    named += [("F%d-%d" % (p, k), _seeded(rng, p)) for p in (2, 3, 5) for k in range(20)]
    named += [(make.__name__, make()) for make in
              (_near_the_bound, _over_a_wide_prime, _wide_after_elimination)]
    return named + [("braid7", families.braid(7)), ("dn5", families.dn(5)),
                    ("all_linear_3_3", families.build_family("all_linear", n=3, p=3)),
                    ("all_linear_2_4", families.build_family("all_linear", n=4, p=2))]


CASES = dict(_cases())


def _charge(walk):
    budget = _Recorder()
    result = walk(budget)
    return result, max(budget.totals)


@cache
def _full(name):
    """The expanded rank-size table of every central subset, and the charge
    of that walk."""
    arr = CASES[name]
    rows = arr.rows
    table = [[0] * (len(rows) + 1) for _ in range(arr.rank + 1)]

    def walk(budget):
        for _, sizes, ranks in central_subsets(rows, arr.prime, budget):
            for size, rank in zip(sizes.tolist(), ranks.tolist()):
                table[rank][size] += 1

    charge = _charge(walk)[1]
    tutte = expand_rank_table(table, arr.rank)
    loops = arr.n - len(rows)
    if loops:
        tutte = tutte * MultiPoly.variable("y") ** loops
    return tutte, charge


@pytest.mark.parametrize("name", list(CASES))
@pytest.mark.parametrize("block", [1, linalg_module._WALK_BYTES])
def test_subset_expansion_matches_the_full_walk(name, block, monkeypatch):
    arr = CASES[name]
    want, full_charge = _full(name)
    monkeypatch.setattr(linalg_module, "_WALK_BYTES", block)
    got, charge = _charge(lambda budget: tutte_subset(arr, budget).tutte)
    assert got == want and got.format() == want.format()
    m = len(arr.rows)
    assert charge <= sum(comb(m, k) for k in range(arr.rank + 2))
    assert charge <= full_charge
