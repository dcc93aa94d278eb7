import random
from itertools import combinations

import numpy as np
import pytest

from conftest import random_arrangement, random_prime_arrangement
from gf_oracles import oracle_coboundary
from tuttekit import families
from tuttekit import linalg as linalg_module
from tuttekit import poset as poset_module
from tuttekit.arrangement import Arrangement
from tuttekit.errors import BudgetExceededError, ConsistencyError, NonCentralError
from tuttekit.families import all_linear, braid, generic, shi, thicken
from tuttekit.multipoly import MultiPoly
from tuttekit.poset import IntersectionPoset, closure, intersection_poset
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


def _reference_g(flats):
    """g[H] = t^|H| - sum_{G < H} g[G] over the flats, sorted by rank, in the
    layout of `IntersectionPoset.g`: a row per flat size that occurs, and a
    column per flat."""
    powers = sorted({len(f) for f in flats})
    g = {}
    for h in flats:
        col = [int(s == len(h)) for s in powers]
        for f in flats:
            if f < h:
                col = [a - b for a, b in zip(col, g[f])]
        g[h] = col
    return [list(row) for row in zip(*(g[h] for h in flats))]


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
    assert poset.g.tolist() == _reference_g(flats)
    poset.verify_mobius()
    for subset, want in closed.items():
        assert closure(arr, subset) == want
    # the flat-lattice coboundary prints exactly as the subset route does
    cob = poset.coboundary()
    want = coboundary_transform(tutte_subset(arr).tutte, arr.rank)
    assert cob == want and cob.format() == want.format()


def test_poset_budget():
    # braid(4): 50 reductions (6 at the minimum, 5 per atom, 2 per rank-2
    # flat, none at the top), 45 comparable pairs, and the 32 pairs
    # gathered for the top's below set, |below(F)| + 1 over its 7 lower
    # covers F (4 x 5 + 3 x 4), charged while its pairs are
    with pytest.raises(BudgetExceededError) as err:
        intersection_poset(braid(4), budget=126)
    assert err.value.required > 126
    poset = intersection_poset(braid(4), budget=127)
    assert len(poset.flats) == 15
    assert poset.g.tolist() == _reference_g([f.hyperplane_set for f in poset.flats])


def _rebuilt(poset, g):
    """The poset with g in place of its own."""
    return IntersectionPoset(poset.arrangement, poset.masks, poset.rank_sizes, g, poset.powers)


@pytest.mark.parametrize("arr", [braid(5), shi(3), generic(6, 3)], ids=repr)
def test_verify_mobius_catches_one_changed_g_row_or_value(arr):
    poset = intersection_poset(arr)
    flats = [f.hyperplane_set for f in poset.flats]
    assert _rebuilt(poset, poset.g).verify_mobius()
    rng = random.Random(5)
    same_rank_added = 0
    for _ in range(6):
        i = rng.randrange(1, len(flats))
        # one g coefficient changed
        g = poset.g.copy()
        g[rng.randrange(len(g)), i] += rng.choice([-1, 1, 2])
        with pytest.raises(ConsistencyError):
            _rebuilt(poset, g).verify_mobius()
        # g_H summed again over its interval with one lower flat dropped,
        # with a flat of lower rank that is not below it added, or with
        # another flat of its own rank added
        below = [j for j, f in enumerate(flats) if f < flats[i]]
        dropped = rng.choice(below)
        intervals = [[j for j in below if j != dropped]]
        rank = poset.flats[i].rank
        others = [j for j, f in enumerate(poset.flats) if f.rank < rank and j not in below]
        if others:
            intervals.append(below + [rng.choice(others)])
        same = [j for j, f in enumerate(poset.flats) if f.rank == rank and j != i]
        if same:
            intervals.append(below + [rng.choice(same)])
            same_rank_added += 1
        for interval in [below] + intervals:
            g = poset.g.copy()
            g[:, i] = 0
            g[poset.powers.tolist().index(len(flats[i])), i] = 1
            g[:, i] -= g[:, interval].sum(axis=1)
            if interval is below:
                assert np.array_equal(g, poset.g)
                continue
            with pytest.raises(ConsistencyError):
                _rebuilt(poset, g).verify_mobius()
        # one Möbius value changed
        changed = _rebuilt(poset, poset.g)
        changed.mobius[flats[i]] += rng.choice([-1, 1, 2])
        with pytest.raises(ConsistencyError):
            changed.verify_mobius()
    assert same_rank_added


def test_build_checks_that_g_vanishes_at_one(monkeypatch):
    # the last interval of each rank loses the minimum, its first position:
    # its g_H(1) is 1, where above the minimum it is 0
    pairs = poset_module._below_pairs

    def drop_minimum(*args):
        positions, counts = pairs(*args)
        if counts[-1] > 1:
            positions = np.delete(positions, len(positions) - counts[-1])
            counts = counts.copy()
            counts[-1] -= 1
        return positions, counts

    monkeypatch.setattr(poset_module, "_below_pairs", drop_minimum)
    with pytest.raises(ConsistencyError, match=r"g\(1\) is not 0"):
        intersection_poset(braid(4))


@pytest.mark.parametrize("block", [1, 64, poset_module._BLOCK_BYTES])
@pytest.mark.parametrize("arr, python_ints", [
    (braid(5), False), (shi(3), False), (generic(6, 3), False),
    (all_linear(3, 3), False), (braid(5), True)],
    ids=["braid5", "shi3", "generic6-3", "all-linear-3-3", "braid5-python-ints"])
@pytest.mark.parametrize("int32_keys", [poset_module._INT32_KEYS, 0], ids=["int32", "int64"])
def test_below_pairs_are_the_flats_below_by_containment(arr, python_ints, block, int32_keys,
                                                         monkeypatch):
    made = []
    pairs = poset_module._below_pairs

    def spy(*args):
        made.append(pairs(*args))
        return made[-1]

    monkeypatch.setattr(poset_module, "_below_pairs", spy)
    monkeypatch.setattr(poset_module, "_BLOCK_BYTES", block)
    monkeypatch.setattr(poset_module, "_INT32_KEYS", int32_keys)
    if python_ints:
        monkeypatch.setattr(poset_module, "_dtype", lambda n: object)
    poset = intersection_poset(arr)
    flats = poset.flats
    # the call that found rank k + 1 made its below sets
    ranks = poset._ranks()[1:]
    assert len(made) == len(ranks)
    for (positions, counts), (first, end) in zip(made, ranks):
        assert positions.dtype == np.int32
        want = [[j for j in range(first) if flats[j].hyperplane_set <= flats[i].hyperplane_set]
                for i in range(first, end)]
        assert counts.tolist() == [len(w) for w in want]
        assert positions.tolist() == [j for w in want for j in w]


@pytest.mark.parametrize("block", [1, 64, poset_module._BLOCK_BYTES])
@pytest.mark.parametrize("python_ints", [False, True], ids=["int64", "python-ints"])
@pytest.mark.parametrize("arr", [braid(5), shi(3), generic(6, 3), all_linear(3, 3)],
                         ids=["braid5", "shi3", "generic6-3", "all-linear-3-3"])
def test_verify_mobius_recounts_each_interval_by_containment(arr, python_ints, block,
                                                             monkeypatch):
    if python_ints:
        monkeypatch.setattr(poset_module, "_dtype", lambda n: object)
    poset = intersection_poset(arr)
    made = []
    set_bits = poset_module._set_bits

    def spy(rows):
        made.append(set_bits(rows))
        return made[-1]

    monkeypatch.setattr(poset_module, "_set_bits", spy)
    monkeypatch.setattr(poset_module, "_BLOCK_BYTES", block)
    assert poset.verify_mobius()
    flats = [f.hyperplane_set for f in poset.flats]
    want = [[j for j, f in enumerate(flats) if f <= g] for g in flats]
    counts = [c for _, block_counts in made for c in block_counts.tolist()]
    assert counts == [len(w) for w in want]
    assert [j for positions, _ in made for j in positions.tolist()] == [j for w in want for j in w]
    if block == 1:
        assert len(made) == len(flats)


def test_bit_counts_and_positions_across_blocks(monkeypatch):
    rng = random.Random(9)
    for width in (1, 7, 8, 9, 64, 200):
        ints = [rng.getrandbits(width) & rng.getrandbits(width) for _ in range(40)]
        want = [[b for b in range(width) if x >> b & 1] for x in ints]
        words = (width + 63) // 64
        table = np.zeros((len(ints), 64 * words), bool)
        for i, w in enumerate(want):
            table[i, w] = True
        rows = np.packbits(table, axis=1, bitorder="little").view(np.uint64)
        for block in (1, 5, 1 << 22):
            monkeypatch.setattr(poset_module, "_BLOCK_BYTES", block)
            positions, counts = poset_module._set_bits(rows)
            assert positions.dtype == np.int32
            assert counts.tolist() == [len(w) for w in want]
            assert positions.tolist() == [b for w in want for b in w]


def _same_poset(got, want):
    assert [f.hyperplane_set for f in got.flats] == [f.hyperplane_set for f in want.flats]
    assert [f.rank for f in got.flats] == [f.rank for f in want.flats]
    assert got.mobius == want.mobius
    assert got.g.tolist() == _reference_g([f.hyperplane_set for f in want.flats])
    assert got.verify_mobius()
    assert got.coboundary().format() == want.coboundary().format()


def _wide_entry():
    # entries of 2^31 + 11 from the start
    return Arrangement(3, [([1, 0, 0], 0), ([0, 1, 0], 0), ([2 ** 31 + 11, 3, 0], 1),
                           ([1, 1, 1], 0), ([0, 5, 2 ** 31 + 11], 7), ([1, 0, 1], 0)])


def _wide_prime():
    # F_p with p = 2147483659 > 2^31: entries and products need Python ints
    rng = random.Random(3)
    p = 2147483659
    rows = [[rng.randrange(p) for _ in range(4)] for _ in range(4)]
    rows.append([(x + y) % p for x, y in zip(rows[0], rows[1])])
    rows.append([(3 * x) % p for x in rows[2]])
    return Arrangement(3, [(r[:3], r[3]) for r in rows], prime=p)


def _wide_after_elimination():
    # entries below 2^31 whose eliminations reach about 2^61
    rng = random.Random(4)
    return Arrangement(3, [([rng.randrange(2 ** 30, 2 ** 31) for _ in range(3)],
                            rng.choice([0, rng.randrange(2 ** 30)])) for _ in range(5)])


@pytest.mark.parametrize("make", [_wide_entry, _wide_prime, _wide_after_elimination])
def test_python_int_keys_match_int64_and_brute_force(make, monkeypatch):
    arr = make()
    _, flats, mu = _reference_flats(arr)
    dtypes = []
    normalise = poset_module.normalise_rows

    def spy(rows, prime=None):
        dtypes.append(rows.dtype)
        return normalise(rows, prime)

    monkeypatch.setattr(poset_module, "normalise_rows", spy)
    poset = intersection_poset(arr)
    assert [f.hyperplane_set for f in poset.flats] == flats
    assert poset.mobius == mu
    assert poset.g.tolist() == _reference_g(flats)
    if make is _wide_after_elimination:
        # int64 for the first eliminations, Python ints once they outgrow it
        assert np.dtype(np.int64) in dtypes and dtypes[-1] == object
        assert max(abs(x) for row in arr.hyperplanes for x in row) < 2 ** 31
    else:
        assert set(dtypes) == {np.dtype(object)}
    # every key and mask a Python int from the start
    monkeypatch.setattr(linalg_module, "_KEY_BOUND", 0)
    monkeypatch.setattr(poset_module, "_dtype", lambda n: object)
    _same_poset(intersection_poset(arr), poset)


@pytest.mark.parametrize("top", [127, 128, 255, 32767, 32768, 2 ** 31 - 1])
def test_keys_stored_at_the_edge_of_their_type(top):
    # keys are kept in the narrowest integer type between ranks; an entry
    # of 128 or 32768 needs the next type up.  a - b = c, which a key that
    # wrapped to -top would break
    half = top // 2
    a, b, c = [1, top, 0], [1, half, 1], [0, top - half, -1]
    arr = Arrangement(3, [([1, 0, 0], 0), ([0, 1, 0], 0), ([0, 0, 1], 0), (a, 0), (b, 0),
                          (c, 0), ([1, 1, 1], 1)])
    _, flats, mu = _reference_flats(arr)
    poset = intersection_poset(arr)
    assert [f.hyperplane_set for f in poset.flats] == flats
    assert poset.mobius == mu
    assert poset.g.tolist() == _reference_g(flats)


@pytest.mark.parametrize("block", [1, 64, 4096])
def test_small_blocks_give_the_same_poset(block, monkeypatch):
    want = intersection_poset(braid(7))
    monkeypatch.setattr(poset_module, "_BLOCK_BYTES", block)
    _same_poset(intersection_poset(braid(7)), want)
    # the smallest budget that fits is the same: 7056 reductions up to rank
    # 4, 17549 comparable pairs up to rank 5, and the 24276 pairs gathered
    # for rank 5's below sets
    with pytest.raises(BudgetExceededError):
        intersection_poset(braid(7), budget=48880)
    assert len(intersection_poset(braid(7), budget=48881).flats) == 877


def _sort_codes(monkeypatch):
    """The list that every `_sort_code` result is appended to from now on."""
    codes = []
    sort_code = poset_module._sort_code

    def spy(*args):
        codes.append(sort_code(*args))
        return codes[-1]

    monkeypatch.setattr(poset_module, "_sort_code", spy)
    return codes


@pytest.mark.parametrize("make, packed", [
    (lambda: braid(7), True), (lambda: shi(3), True), (lambda: all_linear(3, 3), True),
    (_wide_entry, False), (_wide_after_elimination, False)],
    ids=["braid7", "shi3", "all-linear-3-3", "wide-entry", "wide-after-elimination"])
def test_lexsort_groups_as_the_sort_code_does(make, packed, monkeypatch):
    codes = _sort_codes(monkeypatch)
    want = intersection_poset(make())
    # the wide inputs' keys are Python ints or span too much to pack
    assert codes and all((code is not None) == packed for code in codes)
    codes.clear()
    monkeypatch.setattr(poset_module, "_CODE_BOUND", 0)
    _same_poset(intersection_poset(make()), want)
    assert codes and all(code is None for code in codes)


def test_keys_too_wide_for_a_sort_code_take_the_lexsort(monkeypatch):
    # int64 entries spanning +-2^20 over 4 columns: the ranges' product
    # passes 2^62 at the minimum, whose candidates are the rows themselves
    rng = random.Random(6)
    arr = Arrangement(3, [([rng.randrange(-2 ** 20, 2 ** 20) for _ in range(3)],
                           rng.randrange(-2 ** 20, 2 ** 20)) for _ in range(5)]
                      + [([2 ** 20, 0, 0], -2 ** 20), ([-2 ** 20, 1, 1], 2 ** 20)])
    codes = _sort_codes(monkeypatch)
    _, flats, mu = _reference_flats(arr)
    poset = intersection_poset(arr)
    assert max(abs(x) for row in arr.hyperplanes for x in row) < 2 ** 31   # int64 keys
    assert codes[0] is None
    assert [f.hyperplane_set for f in poset.flats] == flats
    assert poset.mobius == mu
    assert poset.g.tolist() == _reference_g(flats)
    assert poset.verify_mobius()


@pytest.mark.parametrize("tag, n", [("braid", 8), ("bc", 6), ("dn", 6),
                                    ("threshold", 7), ("catalan", 5)])
def test_lattice_coboundary_matches_the_generating_function(tag, n):
    arr = getattr(families, tag)(n)
    assert intersection_poset(arr).coboundary() == oracle_coboundary(tag, n)


@pytest.mark.parametrize("arr", [braid(5), shi(3), thicken(braid(3), 2)], ids=repr)
def test_python_int_arrays_match_int64(arr, monkeypatch):
    # above 62 hyperplanes Möbius values and point counts are Python ints
    want = intersection_poset(arr)
    monkeypatch.setattr(poset_module, "_dtype", lambda n: object)
    got = intersection_poset(arr)
    assert got.mobius == want.mobius and got.g.tolist() == want.g.tolist()
    assert got.verify_mobius()
    cob = got.coboundary()
    assert cob == want.coboundary() and cob.format() == want.coboundary().format()


def test_sixty_four_lines_in_general_position():
    # tangents of a parabola: no two parallel, no three through a point.
    # n = 64 takes the Python-int path; chi = q^2 - 64 q + C(64, 2)
    poset = intersection_poset(Arrangement(2, [([2 * t, -1], t * t) for t in range(64)]))
    assert poset.char_poly() == q ** 2 - 64 * q + 2016
    assert poset.verify_mobius()
