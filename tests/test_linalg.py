import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import numpy as np
import pytest

from conftest import random_arrangement, random_prime_arrangement
from tuttekit import arithmetic as arithmetic_module
from tuttekit import families
from tuttekit import linalg as linalg_module
from tuttekit.arithmetic import (
    VectorConfig,
    arithmetic_tutte,
    multiplicity,
    multivariate_tutte,
    toric_point_profile,
)
from tuttekit.arrangement import Arrangement
from tuttekit.errors import BadPrimeError, BudgetExceededError, NonCentralError
from tuttekit.finite_field import reduce_mod_p
from tuttekit.linalg import (
    central_subsets,
    clear_row,
    contract_rows,
    det_stack,
    hadamard_sq,
    is_prime,
    maximal_minors,
    minor_gcd,
    normalise_row,
    normalise_rows,
    pivot_columns,
    rank_int,
    rank_mod_p,
    rank_rows,
)
from tuttekit.multipoly import MultiPoly
from tuttekit.poset import closure
from tuttekit.tutte import _dependent, tutte_activity, tutte_subset


def test_clear_row():
    assert clear_row([Fraction(1, 2), Fraction(-1, 3), 0]) == (3, -2, 0)
    assert clear_row([-2, 4]) == (1, -2)  # leading entry made positive
    assert clear_row([0, 0]) == (0, 0)


def _rows_to_normalise(rng, unit_only, count=80, width=5):
    """Seeded integer rows: zero rows and rows with entries within +-1, and
    unless unit_only, rows times a factor above 1 and rows of entries up to
    20 in size.  Every entry stays within int8."""
    rows = []
    for i in range(count):
        row = [rng.choice((-1, 0, 0, 1)) for _ in range(width)]
        kind = i % 4 if not unit_only else i % 2
        if kind == 0:
            row = [0] * width
        elif kind == 2:
            factor = rng.choice((-5, -3, -2, 2, 3, 4, 5))
            row = [factor * rng.randint(-5, 5) for _ in range(width)]
        elif kind == 3:
            row = [rng.randint(-20, 20) for _ in range(width)]
        rows.append(row)
    return rows


@pytest.mark.parametrize("dtype", [np.int8, np.int64, object])
@pytest.mark.parametrize("prime", [None, 2, 3, 11], ids=lambda p: "Q" if p is None else "F%d" % p)
@pytest.mark.parametrize("unit_only", [True, False], ids=["within-1", "mixed"])
def test_normalise_rows_matches_normalise_row(dtype, prime, unit_only, monkeypatch):
    gcds = []
    column_gcd = linalg_module.reduce

    def spy(*args):
        gcds.append(args)
        return column_gcd(*args)

    monkeypatch.setattr(linalg_module, "reduce", spy)
    rng = random.Random(29)
    for _ in range(5):
        rows = _rows_to_normalise(rng, unit_only)
        assert any(not any(r) for r in rows)
        if not unit_only:
            assert any(gcd(*r) > 1 for r in rows) and any(max(map(abs, r)) > 1 for r in rows)
        array = np.array(rows, dtype)
        got = normalise_rows(array, prime)
        assert got.dtype == np.dtype(dtype) and got is not array
        assert array.tolist() == rows
        assert [tuple(r) for r in got.tolist()] == [normalise_row(r, prime) for r in rows]
    # over Q, rows within +-1 only change sign: no gcd is taken
    assert bool(gcds) == (prime is None and not unit_only)


def test_rank_int_basics():
    assert rank_int([]) == 0
    assert rank_int([(0, 0)]) == 0
    assert rank_int([(1, 0), (0, 1)]) == 2
    assert rank_int([(1, 2), (2, 4)]) == 1
    assert rank_int([(1, 2, 3), (4, 5, 6), (7, 8, 9)]) == 2


def test_rank_mod_p():
    # x - y and x + y coincide mod 2
    assert rank_mod_p([(1, -1), (1, 1)], 3) == 2
    assert rank_mod_p([(1, 1), (1, 1)], 2) == 1
    assert rank_mod_p([(1, -1), (1, 1)], 2) == 1


def test_rank_rows_dispatch_agrees_with_fraction_elimination():
    rng = random.Random(11)
    for _ in range(50):
        rows = [tuple(rng.randint(-4, 4) for _ in range(3))
                for _ in range(rng.randint(0, 5))]
        # reference: rational Gaussian elimination
        m = [list(map(Fraction, r)) for r in rows]
        rank = 0
        for col in range(3):
            piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
            if piv is None:
                continue
            m[rank], m[piv] = m[piv], m[rank]
            for i in range(rank + 1, len(m)):
                f = m[i][col] / m[rank][col]
                for j in range(3):
                    m[i][j] -= f * m[rank][j]
            rank += 1
        assert rank_rows(rows) == rank


def _echelon_pivots(rows, width, prime=None):
    """Pivot columns by Gaussian elimination, column by column, over Fractions
    or mod prime."""
    if prime is None:
        m = [list(map(Fraction, r)) for r in rows]
    else:
        m = [[x % prime for x in r] for r in rows]
    pivots = []
    for col in range(width):
        rank = len(pivots)
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            if prime is None:
                f = m[i][col] / m[rank][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
            else:
                f = m[i][col] * pow(m[rank][col], -1, prime)
                m[i] = [(x - f * y) % prime for x, y in zip(m[i], m[rank])]
        pivots.append(col)
    return pivots


def _seeded_row_sets(prime):
    """200 seeded sets of integer rows, with their width: zero, repeated,
    dependent and full-rank sets, with entries past p and, over Q, past
    2^64."""
    rng = random.Random(23 if prime is None else prime)
    for _ in range(200):
        width = rng.randint(1, 6)
        big = rng.random() < 0.2 and prime is None
        span = [[rng.randint(-9, 9) * (3 ** 50 if big else 1) for _ in range(width)]
                for _ in range(rng.randint(0, width))]
        rows = []
        for _ in range(rng.randint(0, 8)):
            coeffs = [rng.randint(-3, 3) for _ in span]
            rows.append([sum(c * v[j] for c, v in zip(coeffs, span))
                         for j in range(width)])
            if rows and rng.random() < 0.2:
                rows.append(list(rng.choice(rows)))
        yield rows, width


class _Unread(list):
    """A row that fails when it is read."""

    def __getitem__(self, key):
        raise AssertionError("read a row past rank")


_FIELDS = pytest.mark.parametrize("prime", [None, 2, 3, 7],
                                  ids=lambda p: "Q" if p is None else "F%d" % p)


@_FIELDS
def test_pivot_columns_match_gaussian_elimination(prime):
    # the echelon pass against Gaussian elimination: its pivots, the ranks
    # read off it, and the rows delcon finds dependent, those in the span of
    # the rows before them; once `rank` rows are independent, no later row
    # is read
    for rows, width in _seeded_row_sets(prime):
        pivots = _echelon_pivots(rows, width, prime)
        assert pivot_columns(rows, prime) == pivots
        rank = rank_int(rows) if prime is None else rank_mod_p(rows, prime)
        assert rank == rank_rows(rows, prime) == len(pivots)
        ranks = [len(_echelon_pivots(rows[:k], width, prime)) for k in range(len(rows) + 1)]
        deps = [k for k in range(len(rows)) if ranks[k + 1] == ranks[k]]
        full = ranks.index(rank)        # rows up to index full - 1 reach the rank
        aug = [row + [k] if k < full else _Unread(row + [k]) for k, row in enumerate(rows)]
        assert _dependent(aug, rank, prime) == deps


def _seeded_arrangements(prime):
    """An arrangement over Q or F_p from each seeded row set of width >= 2,
    the last column the offset, with a loop and a row parallel to the first
    non-loop added; a zero normal takes offset 0."""
    for rows, width in _seeded_row_sets(prime):
        if width < 2:
            continue
        hs = [(row[:-1], row[-1] if any(x % prime if prime else x for x in row[:-1])
               else 0) for row in rows]
        arr = Arrangement(width - 1, hs, prime=prime)
        hs = [(row[:-1], row[-1]) for row in arr.hyperplanes] + [([0] * arr.dim, 0)]
        if arr.nonloops():
            *normal, offset = arr.hyperplanes[arr.nonloops()[0]]
            hs.append((normal, offset + 1))
        yield Arrangement(arr.dim, hs, prime=prime)


def _containment(arr):
    """A function of a subset of arr: the hyperplanes containing its common
    points, None when it has none.  Over F_p it reads the points
    themselves; over Q it goes by rank: the subset is central when its
    normals and its augmented rows have one rank, and its intersection lies
    on a hyperplane when that hyperplane's row leaves the rank of its
    augmented rows as it is."""
    rows = [list(row) for row in arr.hyperplanes]
    p = arr.prime
    if p is not None:
        points = np.indices((p,) * arr.dim).reshape(arr.dim, -1)
        normals = np.array([row[:-1] for row in rows], np.int64).reshape(arr.n, arr.dim)
        on = (normals @ points - np.array([row[-1] for row in rows])[:, None]) % p == 0

        def containing(subset):
            common = on[sorted(subset)].all(axis=0)
            if not common.any():
                return None
            return frozenset(np.flatnonzero(on[:, common].all(axis=1)).tolist())
        return containing

    def containing(subset):
        chosen = [rows[i] for i in sorted(subset)]
        rank = len(_echelon_pivots(chosen, arr.dim + 1))
        if len(_echelon_pivots([row[:-1] for row in chosen], arr.dim)) < rank:
            return None
        return frozenset(i for i in range(arr.n)
                         if len(_echelon_pivots(chosen + [rows[i]], arr.dim + 1)) == rank)
    return containing


@_FIELDS
def test_closure_matches_containment_on_the_seeded_rows(prime):
    # the empty set, every single hyperplane, the parallel pair and seeded
    # subsets, central and not
    rng = random.Random(29)
    seen = {True: 0, False: 0}
    for arr in _seeded_arrangements(prime):
        containing = _containment(arr)
        subsets = [set()] + [{i} for i in range(arr.n)]
        if arr.nonloops():
            subsets.append({arr.nonloops()[0], arr.n - 1})
        subsets += [{i for i in range(arr.n) if rng.random() < density}
                    for density in (0.2, 0.4, 0.6) for _ in range(3)]
        for subset in subsets:
            want = containing(subset)
            seen[want is None] += 1
            if want is None:
                with pytest.raises(NonCentralError):
                    closure(arr, subset)
            else:
                assert closure(arr, subset) == want
    assert seen[True] > 50 and seen[False] > 50


@_FIELDS
def test_contract_matches_the_delcon_contraction_on_the_seeded_rows(prime):
    # Arrangement.contract over every hyperplane against the contraction
    # delcon takes over the non-loop rows alone: the same non-loop rows in
    # order, and the loops of both
    for arr in _seeded_arrangements(prime):
        for k, i in enumerate(arr.nonloops()):
            got = arr.contract(i)
            want = contract_rows(arr.rows, k, prime)
            assert got.dim == arr.dim - 1 and got.prime == prime
            assert list(got.rows) == [row for row in want if any(row)]
            assert len(got.loops()) == len(arr.loops()) + sum(not any(row) for row in want)


def test_pivot_columns_stop_once_every_column_is_a_pivot():
    def rows():
        yield [0, 2, 1]
        yield [1, 1, 0]
        yield [0, 0, 5]
        raise AssertionError("read a row past full rank")

    assert pivot_columns(rows()) == [0, 1, 2]
    assert pivot_columns(rows(), 7) == [0, 1, 2]
    with pytest.raises(AssertionError, match="past full rank"):
        pivot_columns(rows(), 5)        # [0, 0, 5] vanishes mod 5


def _fraction_det(m):
    # reference: rational Gaussian elimination
    m = [list(map(Fraction, r)) for r in m]
    det = Fraction(1)
    for c in range(len(m)):
        piv = next((i for i in range(c, len(m)) if m[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, len(m)):
            f = m[i][c] / m[c][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return int(det)


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_det_stack_matches_rational_elimination(dtype):
    rng = random.Random(19)
    for k in range(1, 6):
        # sparse entries force pivot swaps and singular matrices
        mats = [[[rng.choice((0, 0, 0, 1, -1, rng.randint(-9, 9))) for _ in range(k)]
                 for _ in range(k)] for _ in range(60)]
        got = det_stack(np.array(mats, dtype).reshape(60, k, k))
        assert got.dtype == np.dtype(dtype)
        assert got.tolist() == [_fraction_det(m) for m in mats]
    assert sum(d == 0 for d in got.tolist()) > 5


@pytest.mark.parametrize("scale", [1, 2 ** 31, 2 ** 40 + 1])
def test_minor_gcd_matches_the_gcd_of_rational_minors(scale, monkeypatch):
    # entries of 2^31 and above take the Python-int stack
    dtypes = []
    stack = linalg_module.det_stack

    def spy(mats):
        dtypes.append(mats.dtype)
        return stack(mats)

    monkeypatch.setattr(linalg_module, "det_stack", spy)
    rng = random.Random(29 + scale)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        factor = rng.choice((1, 2, 6))
        m = [[factor * rng.choice((0, 1, -1, rng.randint(-5, 5), scale, -scale - 3))
              for _ in range(ncols)] for _ in range(nrows)]
        for r in range(min(nrows, ncols) + 1):
            want = 0
            for rows in combinations(range(nrows), r):
                for cols in combinations(range(ncols), r):
                    want = gcd(want, _fraction_det([[m[i][j] for j in cols]
                                                    for i in rows]))
            assert minor_gcd(m, r) == (want if r else 1), (m, r)
    assert (np.dtype(object) in dtypes) == (scale > 1)


def test_maximal_minors_come_in_subset_order_and_blocks(monkeypatch):
    rng = random.Random(23)
    rows = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(9)]
    want = [_fraction_det([rows[i] for i in s]) for s in combinations(range(9), 3)]
    for limit in (1, 8 * 9 * 5, 1 << 17):
        monkeypatch.setattr(linalg_module, "_WALK_BYTES", limit)
        blocks = list(maximal_minors(rows))
        assert [d for b in blocks for d in b.tolist()] == want
        assert len(blocks) == -(-len(want) // max(1, limit // 72))


def test_maximal_minors_widen_past_2_31(monkeypatch):
    # int64 holds a product of two (k - 1) x (k - 1) minors below 2^31;
    # a larger bound takes Python ints, and the minors stay exact
    dtypes = []
    stack = linalg_module.det_stack

    def spy(mats):
        dtypes.append(mats.dtype)
        return stack(mats)

    monkeypatch.setattr(linalg_module, "det_stack", spy)
    big = 2 ** 31 - 1
    cases = ([[big, 2, 3], [5, big, 7], [11, 13, big], [big, big, 1]],
             [[big, 1], [1, big], [3, 5]],
             [[46340, 0, 1], [0, 46340, 1], [1, 1, 46340], [2, 3, 5]],
             [[46341, 0, 1], [0, 46341, 1], [1, 1, 46341], [2, 3, 5]])
    for rows in cases:
        k = len(rows[0])
        assert [d for b in maximal_minors(rows) for d in b.tolist()] == \
            [_fraction_det([rows[i] for i in s]) for s in combinations(range(len(rows)), k)]
    assert dtypes == [np.dtype(t) for t in (object, np.int64, np.int64, object)]
    assert hadamard_sq([[46340, 0, 1], [0, 46340, 1]], 2) < 2 ** 62 <= \
        hadamard_sq([[46341, 0, 1], [0, 46341, 1]], 2)


# -- the central-subset walker ----------------------------------------------

def _walker_cases():
    rng = random.Random(43)
    cases = [random_arrangement(rng, max_n=8, max_d=4) for _ in range(30)]
    cases += [random_prime_arrangement(rng) for _ in range(15)]
    return cases


def _subsets(n):
    return [frozenset(i for i in range(n) if mask >> i & 1)
            for mask in range(1 << n)]


@pytest.mark.parametrize("arr", _walker_cases(), ids=repr)
def test_walker_matches_brute_force(arr):
    rows = arr.hyperplanes
    walked = [triple for block in central_subsets(rows, arr.prime)
              for triple in zip(*(a.tolist() for a in block))]
    want = {sum(1 << i for i in s): arr.rank_normals(s)
            for s in _subsets(arr.n) if arr.is_central(s)}
    assert {mask: rank for mask, _, rank in walked} == want
    assert len(walked) == len(want)
    assert all(size == bin(mask).count("1") for mask, size, _ in walked)
    # subsets of each size come in lexicographic order
    members = [[i for i in range(arr.n) if mask >> i & 1] for mask, _, _ in walked]
    for size in range(arr.n + 1):
        of_size = [m for m in members if len(m) == size]
        assert of_size == sorted(of_size)


def _assert_same(got, want):
    assert got == want and got.format() == want.format()


@pytest.mark.parametrize("arr", _walker_cases(), ids=repr)
def test_subset_polynomials_match_per_subset_sums(arr):
    x, y, q = (MultiPoly.variable(v) for v in "xyq")
    ws = [MultiPoly.variable("w_%d" % (e + 1)) for e in range(arr.n)]
    r = arr.rank
    tutte = MultiPoly.zero()
    multi = MultiPoly.zero()
    for s in _subsets(arr.n):
        if not arr.is_central(s):
            continue
        rb = arr.rank_normals(s)
        if all(any(arr.hyperplanes[i]) for i in s):
            tutte = tutte + (x - 1) ** (r - rb) * (y - 1) ** (len(s) - rb)
        term = q ** (r - rb)
        for e in sorted(s):
            term = term * ws[e]
        multi = multi + term
    _assert_same(tutte_subset(arr).tutte, tutte * y ** len(arr.loops()))
    _assert_same(multivariate_tutte(arr).poly, multi)


def _near_the_bound():
    # entries at 2^31 and either side of it: Python ints from the start
    rng = random.Random(8)
    top = 2 ** 31
    hs = [([rng.choice([top - 1, top, top + 1, -top, 1, 0]) for _ in range(3)],
           rng.choice([0, 0, 1, top])) for _ in range(7)]
    return Arrangement(3, [(n if any(n) else [1, 0, 0], b) for n, b in hs])


def _over_a_wide_prime():
    # F_p with p = 2147483659 > 2^31: products of two entries overflow int64
    p = 2147483659
    rng = random.Random(9)
    return Arrangement(3, [([rng.randrange(1, p), rng.randrange(p), rng.randrange(p)],
                            rng.choice([0, rng.randrange(p)])) for _ in range(7)], prime=p)


def _wide_after_elimination():
    # entries below 2^31 whose eliminations reach about 2^61
    rng = random.Random(4)
    return Arrangement(3, [([rng.randrange(2 ** 30, 2 ** 31) for _ in range(3)],
                            rng.choice([0, rng.randrange(2 ** 30)])) for _ in range(7)])


@pytest.mark.parametrize("make", [_near_the_bound, _over_a_wide_prime,
                                  _wide_after_elimination])
def test_walker_on_wide_entries_matches_brute_force(make, monkeypatch):
    arr = make()
    dtypes = []
    primitive = linalg_module.primitive_rows

    def spy(rows, prime=None):
        dtypes.append(rows.dtype)
        return primitive(rows, prime)

    monkeypatch.setattr(linalg_module, "primitive_rows", spy)
    rows = arr.hyperplanes
    walked = {mask: rank for masks, _, ranks in central_subsets(rows, arr.prime)
              for mask, rank in zip(masks.tolist(), ranks.tolist())}
    want = {sum(1 << i for i in s): arr.rank_normals(s)
            for s in _subsets(arr.n) if arr.is_central(s)}
    assert walked == want
    if make is _wide_after_elimination:
        # int64 for the first eliminations, Python ints once they outgrow it
        assert np.dtype(np.int64) in dtypes and dtypes[-1] == object
        assert max(abs(x) for row in rows for x in row) < 2 ** 31
    else:
        assert set(dtypes) == {np.dtype(object)}
    assert tutte_subset(arr).tutte == tutte_activity(arr)[0].tutte


def _subset_results(arrs):
    return [(tutte_subset(a).tutte.format(), multivariate_tutte(a).poly.format(),
             a.semimatroid())
            for a in arrs]


@pytest.mark.parametrize("block", [1, 200])
def test_small_walk_blocks_give_the_same_tables_and_budgets(block, monkeypatch):
    arrs = _walker_cases()[:12] + [families.braid(5), families.shi(3), _near_the_bound()]
    want = _subset_results(arrs)
    monkeypatch.setattr(linalg_module, "_WALK_BYTES", block)
    assert _subset_results(arrs) == want
    # braid(5)'s walk of its central independent subsets costs 515 at any
    # block size, and its multivariate polynomial n + 1 units for each of
    # its 2^n terms
    for walk, fit in ((tutte_subset, 515), (multivariate_tutte, 1024 * 11)):
        with pytest.raises(BudgetExceededError) as info:
            walk(families.braid(5), budget=fit - 1)
        assert info.value.required == fit
        assert walk(families.braid(5), budget=fit)


def test_multivariate_terms_are_charged_per_block(monkeypatch):
    # x = 0 .. x = 4 have no common point: the walk costs 16 candidates, and
    # the 6 terms (the empty set and the singletons) 6 exponents each
    arr = Arrangement(1, [([1], b) for b in range(5)])
    assert len(multivariate_tutte(arr, budget=36).poly.terms) == 6
    for block in (1, 1 << 17):
        monkeypatch.setattr(linalg_module, "_WALK_BYTES", block)
        with pytest.raises(BudgetExceededError) as info:
            multivariate_tutte(arr, budget=35)
        assert info.value.required == 36 and "term exponents" in str(info.value)
    # past 2^n (n + 1) a central arrangement fails before its walk starts
    def no_walk(*args):
        raise AssertionError("the walk started")

    monkeypatch.setattr(arithmetic_module, "central_subsets", no_walk)
    with pytest.raises(BudgetExceededError) as info:
        multivariate_tutte(families.bc(5))
    assert info.value.required == 26 << 25


def test_dropped_candidates_are_charged():
    # x = 0 .. x = 4 are parallel: the empty set, its 5 candidates, and the
    # 4 + 3 + 2 + 1 candidates of the singletons, which have no common point
    arr = Arrangement(1, [([1], b) for b in range(5)])
    assert tutte_subset(arr, budget=16).tutte.format() == "x + 4"
    with pytest.raises(BudgetExceededError) as info:
        tutte_subset(arr, budget=15)
    assert info.value.required == 16


def test_masks_are_python_ints_past_62_rows():
    # x = 0 .. x = 65, y = 0, x + y = 0: 1 + 68 + 133 + 1 central subsets
    arr = Arrangement(2, [([1, 0], b) for b in range(66)] + [([0, 1], 0), ([1, 1], 0)])
    masks = [mask for block, _, _ in central_subsets(arr.rows) for mask in block.tolist()]
    assert len(masks) == 203 and (1 << 66 | 1 << 67) in masks
    assert len(multivariate_tutte(arr).poly.terms) == 203
    assert tutte_subset(arr).tutte == tutte_activity(arr)[0].tutte
    assert tutte_subset(arr).tutte.format() == "x^2 + 66*x + y + 65"


def _config_cases():
    rng = random.Random(47)
    cases = [VectorConfig(2, [(1, 0), (1, 1), (0, 0), (1, 1), (1, -1)])]
    for _ in range(12):
        d = rng.randint(1, 3)
        cases.append(VectorConfig(d, [[rng.randint(-1, 1) for _ in range(d)]
                                      for _ in range(rng.randint(0, 6))]))
    return cases


@pytest.mark.parametrize("config", _config_cases(), ids=repr)
def test_arithmetic_polynomials_match_per_subset_sums(config):
    x, y, t = (MultiPoly.variable(v) for v in "xyt")
    r = config.rank
    arith = MultiPoly.zero()
    # entries in {-1, 0, 1} and d <= 3 keep every multiplicity a divisor of
    # 12, so the torus (F*_13)^d splits every subtorus and the identity holds
    toric = MultiPoly.zero()
    for s in _subsets(config.n):
        m = multiplicity(config, s)
        rb = rank_int([config.columns[i] for i in s])
        arith = arith + m * (x - 1) ** (r - rb) * (y - 1) ** (len(s) - rb)
        toric = toric + m * 12 ** (config.dim - rb) * (t - 1) ** len(s)
    _assert_same(arithmetic_tutte(config), arith)
    _assert_same(toric_point_profile(config, 12)["polynomial"], toric)


@pytest.mark.parametrize("arr", _walker_cases()[:30], ids=repr)
def test_verified_reduction_witness_is_smallest_mismatch(arr):
    nl = arr.nonloops()
    for p in (2, 3, 5, 7):
        reduced = [[x % p for x in arr.hyperplanes[i]] for i in nl]
        if any(not any(row[:-1]) for row in reduced):
            continue  # rejected before the comparison: a normal vanishes
        modarr = Arrangement(arr.dim, [(row[:-1], row[-1]) for row in reduced],
                             prime=p)
        witness = None
        for s in _subsets(len(nl)):
            qs = frozenset(nl[i] for i in s)
            central = arr.is_central(qs)
            if central != modarr.is_central(s) or (
                    central and arr.rank_normals(qs) != modarr.rank_normals(s)):
                witness = sorted(qs)
                break
        if witness is None:
            assert reduce_mod_p(arr, p).prime == p
        else:
            with pytest.raises(BadPrimeError) as err:
                reduce_mod_p(arr, p)
            assert err.value.witness == witness


def test_is_prime():
    assert [m for m in range(-3, 30) if is_prime(m)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_is_prime_matches_trial_division_and_sympy():
    from math import isqrt

    import sympy
    assert all(is_prime(m) == (m >= 2 and all(m % k for k in range(2, isqrt(m) + 1)))
               for m in range(20000))
    # Carmichael numbers, strong pseudoprimes to small bases, large primes
    # and their neighbours, all below the bound where the test is exact
    rng = random.Random(71)
    hard = [561, 41041, 2047, 1373653, 25326001, 3215031751, 2152302898747,
            3474749660383, 341550071728321, 3825123056546413051,
            2 ** 61 - 1, 2 ** 61 + 1, 10 ** 18 + 3, 10 ** 18 + 9]
    hard += [rng.randrange(10 ** 20) for _ in range(200)]
    for m in hard:
        assert is_prime(m) == sympy.isprime(m), m
