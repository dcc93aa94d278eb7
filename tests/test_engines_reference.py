"""Deletion-contraction and basis activity against their former versions.

The references below are the former `Arrangement`-based implementations,
kept here verbatim in substance: they recurse on `Arrangement.delete` and
`contract`, and decide activity from `rank_normals` and `is_central` per
subset.  The echelon-kernel engines must return polynomials that print the
same text over the same variables, and the same activity records in the
same order.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import random_arrangement, random_prime_arrangement
from tuttekit import families
from tuttekit import linalg as linalg_module
from tuttekit.arrangement import Arrangement
from tuttekit.errors import BudgetExceededError
from tuttekit.multipoly import MultiPoly
from tuttekit.tutte import (
    ActivityCertificate,
    generalized_tg_evaluate,
    tutte_activity,
    tutte_delcon,
)


def ref_delcon(arrangement):
    x, y = MultiPoly.variable("x"), MultiPoly.variable("y")

    def rec(arr):
        loops = arr.loops()
        if loops:
            inner = rec(arr.restrict(arr.nonloops()))
            return inner * y ** len(loops)
        if arr.n == 0:
            return MultiPoly.const(1)
        for i in range(arr.n - 1, -1, -1):
            if arr.classify(i) == "ordinary":
                return rec(arr.delete(i)) + rec(arr.contract(i))
        return x ** arr.n

    return rec(arrangement)


def ref_activity(arrangement, order=None):
    n = arrangement.n
    if order is None:
        order = list(range(n))
    pos = {h: k for k, h in enumerate(order)}
    r = arrangement.rank
    nl = arrangement.nonloops()
    loops = arrangement.loops()
    records = []
    for combo in combinations(nl, r):
        basis = frozenset(combo)
        if arrangement.rank_normals(basis) != r or not arrangement.is_central(basis):
            continue
        internal = 0
        for h in basis:
            below = basis - {h} | {g for g in range(n) if pos[g] < pos[h]}
            if arrangement.rank_normals(below) == r - 1:
                internal += 1
        external = len(loops)
        for h in nl:
            if h in basis:
                continue
            if not arrangement.is_central(basis | {h}):
                continue
            above = frozenset(g for g in basis if pos[g] > pos[h])
            if arrangement.rank_normals(above | {h}) == arrangement.rank_normals(above):
                external += 1
        records.append((tuple(sorted(basis)), internal, external))
    return records


def _same(got, want):
    assert got.format() == want.format()
    assert got.vars == want.vars
    assert got == want


def _family_members():
    out = []
    for tag, sizes in (("coordinate", (1, 2, 3)), ("braid", (2, 3, 4)),
                       ("bc", (1, 2, 3)), ("dn", (2, 3)),
                       ("threshold", (2, 3, 4)), ("catalan", (2, 3)),
                       ("shi", (2, 3))):
        out += [(tag, n, getattr(families, tag)(n)) for n in sizes]
    out += [("generic", (n, d), families.generic(n, d))
            for n, d in ((4, 2), (5, 3), (6, 2))]
    out += [("bipartite", (2, 2), families.complete_bipartite(2, 2)),
            ("graphical", 4, families.graphical(4, [(1, 2), (2, 3), (3, 1),
                                                    (3, 4), (3, 4)]))]
    out += [("all_linear", (p, n), families.all_linear(p, n))
            for p, n in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2))]
    return out


FAMILIES = _family_members()


def _random_inputs():
    rng = random.Random(20261018)
    return ([random_arrangement(rng) for _ in range(60)]
            + [random_prime_arrangement(rng) for _ in range(40)])


@pytest.mark.parametrize("key", range(len(FAMILIES)),
                         ids=["%s-%s" % f[:2] for f in FAMILIES])
def test_family_engines_match_the_former_ones(key):
    arr = FAMILIES[key][2]
    _same(tutte_delcon(arr).tutte, ref_delcon(arr))
    result, cert = tutte_activity(arr)
    assert cert.records == ref_activity(arr)
    _same(result.tutte, ActivityCertificate(ref_activity(arr)).polynomial())


def test_random_engines_match_the_former_ones():
    rng = random.Random(7)
    for arr in _random_inputs():
        _same(tutte_delcon(arr).tutte, ref_delcon(arr))
        assert tutte_activity(arr)[1].records == ref_activity(arr)
        order = list(range(arr.n))
        for _ in range(2):
            rng.shuffle(order)
            result, cert = tutte_activity(arr, order)
            want = ref_activity(arr, order)
            assert cert.records == want
            _same(result.tutte, ActivityCertificate(want).polynomial())


def test_universality_on_central_inputs():
    """a^(n-r) b^r T(c/b, l/a) equals the Tutte-Grothendieck recursion on a
    central arrangement.  (On an affine one the recursion's contraction
    drops parallel hyperplanes, and the identity fails in general.)"""
    central = [arr for arr in _random_inputs() if arr.is_central()]
    assert len(central) > 40
    for arr in central + [f[2] for f in FAMILIES if f[2].is_central()]:
        t = tutte_delcon(arr).tutte
        for a, b, c, l in ((2, 3, 5, 7), (1, -1, 4, 2)):
            want = generalized_tg_evaluate(arr, a, b, c, l)
            value = t.evaluate({"x": Fraction(c, b), "y": Fraction(l, a)})
            assert a ** (arr.n - arr.rank) * b ** arr.rank * value == want


@pytest.mark.parametrize("engine", [tutte_delcon,
                                    lambda arr, budget: tutte_activity(arr, budget=budget)])
def test_engines_charge_the_budget(engine):
    arr = families.braid(5)
    with pytest.raises(BudgetExceededError) as info:
        engine(arr, budget=100)
    assert info.value.required > 100
    assert engine(arr, budget=10 ** 6)


def _wide_inputs():
    rng = random.Random(12)
    top, p = 2 ** 31, 2147483659
    near = [([rng.choice([top - 1, top, top + 1, -top, 1, 0]) for _ in range(3)],
             rng.choice([0, 0, top])) for _ in range(7)]
    # entries below 2^31 whose eliminations reach about 2^61
    below = [([rng.randrange(2 ** 30, 2 ** 31) for _ in range(3)],
              rng.choice([0, rng.randrange(2 ** 30)])) for _ in range(7)]
    over_p = [([rng.randrange(1, p), rng.randrange(p), rng.randrange(p)],
               rng.choice([0, rng.randrange(p)])) for _ in range(7)]
    return [Arrangement(3, [(n if any(n) else [1, 0, 0], b) for n, b in near]),
            Arrangement(3, below), Arrangement(3, over_p, prime=p)]


def test_wide_entries_match_the_former_activity():
    rng = random.Random(13)
    for arr in _wide_inputs():
        assert tutte_activity(arr)[1].records == ref_activity(arr)
        order = list(range(arr.n))
        rng.shuffle(order)
        assert tutte_activity(arr, order)[1].records == ref_activity(arr, order)


@pytest.mark.parametrize("block", [1, 500])
def test_small_walk_blocks_give_the_same_records_and_budgets(block, monkeypatch):
    arrs = [f[2] for f in FAMILIES] + _random_inputs()[:20] + _wide_inputs()
    want = [tutte_activity(arr)[1].records for arr in arrs]
    monkeypatch.setattr(linalg_module, "_WALK_BYTES", block)
    assert [tutte_activity(arr)[1].records for arr in arrs] == want
    # braid(4): 6 row steps for each of the 31 subsets the walk visits
    with pytest.raises(BudgetExceededError) as info:
        tutte_activity(families.braid(4), budget=185)
    assert info.value.required > 185
    assert tutte_activity(families.braid(4), budget=186)
