import random
from itertools import combinations

import pytest

from conftest import random_arrangement, random_prime_arrangement
from tuttekit.arrangement import Arrangement
from tuttekit.errors import BudgetExceededError, NonCentralError
from tuttekit.families import all_linear, braid, thicken
from tuttekit.multipoly import MultiPoly
from tuttekit.poset import closure, intersection_poset
from tuttekit.tutte import coboundary_transform, tutte_subset

q = MultiPoly.variable("q")


def level_mobius_sums(poset):
    """Sum of the Möbius values at each rank, as a list indexed by rank."""
    sums = [0] * (max(f.rank for f in poset.flats) + 1)
    for f in poset.flats:
        sums[f.rank] += poset.mobius[f.hyperplane_set]
    return sums


def test_bench_poset(bench):
    poset = intersection_poset(bench)
    # 1 minimum, 4 hyperplanes, 4 rank-2 flats (xy-line merged), 1 maximum
    by_rank = {}
    for f in poset.flats:
        by_rank.setdefault(f.rank, []).append(f)
    assert len(by_rank[0]) == 1
    assert len(by_rank[1]) == 4
    assert level_mobius_sums(poset) == [1, -4, 5, -2]
    assert poset.char_poly() == q ** 3 - 4 * q ** 2 + 5 * q - 2
    poset.verify_mobius()


def test_braid3_mobius():
    # A_2: center line, 3 hyperplanes, full flat; mu = 1, -1x3, 2
    poset = intersection_poset(braid(3))
    assert level_mobius_sums(poset) == [1, -3, 2]
    assert poset.char_poly() == q ** 3 - 3 * q ** 2 + 2 * q


def test_closure():
    bench = Arrangement(3, [([1, 0, 0], 0), ([0, 1, 0], 0),
                            ([1, -1, 0], 0), ([0, 0, 1], 0)])
    assert closure(bench, frozenset({0, 1})) == frozenset({0, 1, 2})
    assert closure(bench, frozenset()) == frozenset()


def test_loops_live_in_minimum():
    arr = Arrangement(2, [([0, 0], 0), ([1, 0], 0)])
    poset = intersection_poset(arr)
    assert poset.minimum == frozenset({0})
    # the loop leaves no complement: chi = 0, although the Möbius sum over
    # the flats alone would give q^2 - q
    assert poset.char_poly() == 0


def test_noncentral_poset():
    # x=0, x=1: two atoms, no common flat
    arr = Arrangement(1, [([1], 0), ([1], 1)])
    poset = intersection_poset(arr)
    assert len(poset.flats) == 3
    assert poset.char_poly() == q - 2


def test_mobius_recursion_random():
    rng = random.Random(23)
    for _ in range(25):
        arr = random_arrangement(rng, max_n=6, max_d=3)
        poset = intersection_poset(arr)
        poset.verify_mobius()


def test_closure_of_noncentral_subset_raises():
    arr = Arrangement(1, [([1], 0), ([1], 1)])
    with pytest.raises(NonCentralError):
        closure(arr, frozenset({0, 1}))


def _reference_flats(arr):
    """Closures of all central subsets by exact ranks, with brute-force mu."""
    nl = arr.nonloops()
    closed = {}
    for size in range(len(nl) + 1):
        for combo in combinations(nl, size):
            if not arr.is_central(combo):
                continue
            rank = arr.rank_normals(combo)
            fset = set(arr.loops()) | set(combo)
            fset |= {j for j in nl if arr.is_central(fset | {j})
                     and arr.rank_normals(fset | {j}) == rank}
            closed[frozenset(combo)] = frozenset(fset)
    flats = sorted(set(closed.values()), key=lambda f: (arr.rank_normals(f), sorted(f)))
    mu = {}
    for g in flats:
        mu[g] = 1 if g == flats[0] else -sum(mu[f] for f in flats if f < g)
    return closed, flats, mu


def _kernel_cases():
    rng = random.Random(41)
    cases = [all_linear(2, 3), all_linear(3, 2), thicken(braid(4), 2)]
    for _ in range(30):
        cases.append(random_arrangement(rng, max_n=7, max_d=4))
    for _ in range(6):
        cases.append(thicken(random_arrangement(rng, max_n=4, max_d=3), 2))
    for _ in range(20):
        cases.append(random_prime_arrangement(rng))
    return cases


@pytest.mark.parametrize("arr", _kernel_cases(), ids=repr)
def test_kernel_matches_brute_force(arr):
    closed, flats, mu = _reference_flats(arr)
    poset = intersection_poset(arr)
    assert [f.hyperplane_set for f in poset.flats] == flats
    assert all(f.rank == arr.rank_normals(f.hyperplane_set) for f in poset.flats)
    assert poset.mobius == mu
    poset.verify_mobius()
    for subset, want in closed.items():
        assert closure(arr, subset) == want
    # the flat-lattice coboundary prints exactly as the subset route does
    cob = poset.coboundary()
    want = coboundary_transform(tutte_subset(arr).tutte, arr.rank)
    assert cob == want and cob.format() == want.format()


def test_poset_budget():
    with pytest.raises(BudgetExceededError) as err:
        intersection_poset(braid(4), budget=100)   # 15 flats
    assert err.value.required > 100
    assert len(intersection_poset(braid(4), budget=225).flats) == 15
