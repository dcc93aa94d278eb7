import itertools
import random
from fractions import Fraction
from functools import cached_property
from math import isqrt, prod

import numpy as np
import pytest

from conftest import profile_polynomial, random_arrangement, random_prime_arrangement
from tuttekit.arrangement import Arrangement
from tuttekit import finite_field
from tuttekit.errors import (
    BadPrimeError,
    BudgetExceededError,
    ConsistencyError,
    InconsistentSamplesError,
)
from tuttekit.families import (
    bc,
    braid,
    catalan,
    complete_bipartite,
    dn,
    generic,
    graphical,
    shi,
    threshold,
)
from tuttekit.finite_field import (
    DEFAULT_BUDGET,
    PointProfile,
    check_profile,
    coboundary_ffm,
    point_profile,
    power_fits,
    reduce_mod_p,
    select_primes,
)
from tuttekit.linalg import det_stack, is_prime, normalise_row
from tuttekit.multipoly import MultiPoly
from tuttekit.poset import intersection_poset
from tuttekit.tutte import char_poly, coboundary_transform, tutte_subset


def test_bench_profile_p5(bench):
    modarr = reduce_mod_p(bench, 5)
    profile = point_profile(modarr)
    assert profile.counts == (48, 60, 12, 4, 1)


def test_profile_identity_random():
    # sum_k c_k t^k == p^(d-r) cobchi(p, t), c_0 == chi(p), sum == p^d
    rng = random.Random(41)
    done = 0
    while done < 12:
        arr = random_arrangement(rng, max_n=5, max_d=3)
        try:
            mods = select_primes(arr, 1)
        except BadPrimeError:
            continue
        modarr = mods[0]
        p = modarr.prime
        profile = point_profile(modarr)
        cob = coboundary_transform(tutte_subset(arr).tutte, arr.rank)
        sub = {v: w for v, w in (("X", p), ("Y", MultiPoly.variable("Y")))
               if v in cob.vars}
        want = (cob.substitute(sub) if sub else cob) * \
            p ** (arr.dim - arr.rank)
        assert profile_polynomial(profile) == want
        assert sum(profile.counts) == p ** arr.dim
        chi = intersection_poset(arr).char_poly()
        assert profile.counts[0] == chi.evaluate({"q": p})
        done += 1


def test_bad_prime_witness():
    # x - y = 0 and x + y = 0 collapse mod 2
    arr = Arrangement(2, [([1, -1], 0), ([1, 1], 0)])
    with pytest.raises(BadPrimeError) as err:
        reduce_mod_p(arr, 2)
    assert err.value.witness == [0, 1]
    # a good prime passes: 3, the first above the floor (2: the rows are
    # signed-graphic)
    assert next(finite_field._primes_from(arr.prime_floor + 1)) == 3
    assert reduce_mod_p(arr, 3).prime == 3


def test_hadamard_floor_certifies():
    # any prime above the floor divides no basis multiplicity, so it
    # preserves the semimatroid
    rng = random.Random(43)
    from tuttekit.finite_field import _primes_from
    for _ in range(10):
        arr = random_arrangement(rng, max_n=4, max_d=3)
        floor = arr.prime_floor
        p = next(_primes_from(floor + 1))
        assert finite_field._keeps_bases(arr, p)
        reduce_mod_p(arr, p)  # must not raise


def test_budget(bench):
    modarr = reduce_mod_p(bench, 11)
    # bench is central: the count visits (11^3 - 1)/(11 - 1) = 133 points
    with pytest.raises(BudgetExceededError) as err:
        point_profile(modarr, budget=132)
    assert err.value.required == (11 ** 3 - 1) // 10 == 133
    assert point_profile(modarr, budget=133).counts == point_profile(modarr).counts
    # an affine arrangement is charged all p^r points
    affine = Arrangement(3, [([1, 0, 0], 1), ([0, 1, 0], 0), ([0, 0, 1], 0)], prime=11)
    with pytest.raises(BudgetExceededError) as err:
        point_profile(affine, budget=11 ** 3 - 1)
    assert err.value.required == 11 ** 3
    assert sum(point_profile(affine, budget=11 ** 3).counts) == 11 ** 3


def test_power_fits_stops_at_the_budget():
    assert power_fits(2, 10, 1024) and not power_fits(2, 11, 1024)
    assert power_fits(7, 0, 1) and power_fits(1, 10 ** 9, 1)
    # stops after 17 products, long before 3^(10^18) could be formed
    assert not power_fits(3, 10 ** 18, 10 ** 8)


def test_no_certified_prime_fits_large_arrangement():
    # 15 hyperplanes are too many for verified reduction, and the Hadamard
    # floor puts every certified prime far above budget^(1/d)
    arr = generic(15, 5)
    with pytest.raises(BudgetExceededError) as err:
        select_primes(arr, 7)
    # generic(15, 5) is central: the count would visit (q^5 - 1)/(q - 1)
    # points at q = floor + 1
    q = arr.prime_floor + 1
    assert err.value.required == (q ** 5 - 1) // (q - 1)
    assert err.value.required > DEFAULT_BUDGET


def test_coboundary_ffm_matches_transform(bench):
    cob = coboundary_ffm(bench)
    assert cob == coboundary_transform(tutte_subset(bench).tutte, bench.rank)


def test_coboundary_ffm_explicit_primes(bench):
    cob = coboundary_ffm(bench, primes=[5, 7, 11, 13, 17])
    assert cob == coboundary_transform(tutte_subset(bench).tutte, bench.rank)
    # bench needs one prime beside cobchi(1, t) = t^n
    assert coboundary_ffm(bench, primes=[5]) == cob
    with pytest.raises(ValueError):
        coboundary_ffm(bench, primes=[])


def test_coboundary_ffm_random():
    rng = random.Random(47)
    done = 0
    while done < 6:
        arr = random_arrangement(rng, max_n=5, max_d=3)
        if arr.dim >= 3 and arr.prime_floor > 20:
            continue  # keep the enumeration cheap
        cob = coboundary_ffm(arr)
        assert cob == coboundary_transform(tutte_subset(arr).tutte, arr.rank)
        done += 1


def test_ffm_rejects_prime_field_arrangement():
    arr = Arrangement(2, [([1, 0], 0)], prime=3)
    with pytest.raises(ValueError):
        coboundary_ffm(arr)


def test_d0_and_loops():
    arr = Arrangement(1, [([0], 0), ([1], 0)])  # one loop, one coloop
    modarr = reduce_mod_p(arr, 3)
    profile = point_profile(modarr)
    # every point lies on the loop; one point also on x=0
    assert profile.counts == (0, 2, 1)


def test_check_profile_rejects_corrupted_counts(bench):
    modarr = reduce_mod_p(bench, 5)
    profile = point_profile(modarr)
    chi = char_poly(bench)
    assert check_profile(profile, modarr, chi)
    counts = list(profile.counts)
    counts[1] += 1
    with pytest.raises(InconsistentSamplesError, match="sum to p\\^d"):
        check_profile(PointProfile(5, counts), modarr)
    counts[0] += 1
    counts[1] -= 2
    with pytest.raises(InconsistentSamplesError, match="chi"):
        check_profile(PointProfile(5, counts), modarr, chi)


def test_line_above_the_block_is_counted_without_scattering(monkeypatch):
    # rank 1 in F_p^2 with p > _BLOCK: each row is one root on the line, and
    # no slice or block of points is built
    p = 262147
    assert p > finite_field._BLOCK

    def no_scatter(*args):
        raise AssertionError("scattered a line")

    monkeypatch.setattr(finite_field, "_scatter", no_scatter)
    hs = [([1, 0], 0), ([2, 0], 6), ([1, 0], 3), ([p, 0], 0), ([0, p], 0),
          ([0, 0], 0)]
    arr = Arrangement(2, hs, prime=p)
    # every point lies on the three loops; x = 0 also on hyperplane 0,
    # x = 3 also on hyperplanes 1 and 2
    want = (0, 0, 0, (p - 2) * p, p, p, 0)
    assert point_profile(arr).counts == want


def test_small_arrangement_keeps_verified_primes():
    # three parallel lines: certified primes would lie above the Hadamard
    # floor (about 3e5), verified ones need only avoid 2, 3, 5 and 7
    arr = Arrangement(2, [([1, 0], 0), ([1, 0], 300), ([1, 0], 1000)])
    assert [m.prime for m in select_primes(arr, 3)] == [11, 13, 17]


def _brute_profile(arr):
    """Incidences at every point of F_p^d, counted one point at a time."""
    p = arr.prime
    counts = [0] * (arr.n + 1)
    for x in itertools.product(range(p), repeat=arr.dim):
        counts[sum(1 for *normal, offset in arr.hyperplanes
                   if (sum(a * b for a, b in zip(normal, x)) - offset) % p == 0)] += 1
    return tuple(counts)


def _random_reduction(rng, p, d, kind):
    """An arrangement over F_p^d: `central` normals span a random subspace of
    rank at most d - 1 (a nontrivial lineality space) and offsets are 0;
    `affine` hyperplanes are random; `degenerate` ones repeat, run parallel
    to, or have a normal that is 0 mod p (a loop), with loops on top."""
    n = rng.randint(0, 6)
    span = [[rng.randrange(p) for _ in range(d)]
            for _ in range(max(d - 1, 0) if kind == "central" else d)]
    hs = []
    for _ in range(n):
        coeffs = [rng.randrange(p) for _ in span]
        normal = [sum(c * v[j] for c, v in zip(coeffs, span)) % p for j in range(d)]
        offset = 0 if kind == "central" else rng.randrange(p)
        if kind == "degenerate" and hs and rng.random() < 0.6:
            normal = list(rng.choice(hs)[0])
            offset = rng.choice((offset, hs[-1][1]))
        if kind == "degenerate" and rng.random() < 0.2:
            normal = [rng.choice((0, p)) for _ in range(d)]
        if not any(x % p for x in normal):
            offset = rng.choice((0, p))     # a zero normal is a loop
        # entries are not always reduced: Arrangement takes them mod p
        hs.append(([x + p * rng.randint(0, 1) for x in normal], offset))
    if kind == "degenerate":
        hs += [([0] * d, 0)] * rng.randint(0, 2)
    return Arrangement(d, hs, prime=p)


@pytest.mark.parametrize("block", [None, 5, 64])
def test_profile_matches_brute_force(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(finite_field, "_BLOCK", block)
    scatter = finite_field._scatter

    def bounded_scatter(rows, p, k, counts):
        assert p ** k <= finite_field._BLOCK, "scattered more than one block"
        assert len(rows) * p ** (k - 1) <= finite_field._BLOCK, \
            "scattered more than one block of incidences"
        assert k >= 2, "a line or a point is counted without scattering"
        return scatter(rows, p, k, counts)

    monkeypatch.setattr(finite_field, "_scatter", bounded_scatter)
    rng = random.Random(53)
    cases = []
    for p in (2, 3, 5, 7, 11):
        for kind in ("central", "affine", "degenerate"):
            for d in range(0, 5 if p <= 3 else 4):
                cases.append(_random_reduction(rng, p, d, kind))
    cases += [Arrangement(0, [([], 0), ([], 3)], prime=3),          # d = 0
              Arrangement(2, [([0, 5], 0), ([5, 0], 10)], prime=5),  # r = 0
              Arrangement(3, [([0, 0, 0], 0)] * 2, prime=7)]
    nullities = set()
    for arr in cases:
        want = _brute_profile(arr)
        assert point_profile(arr).counts == want
        nullities.add(arr.dim - arr.rank)
    assert {0, 1, 2} <= nullities   # essential and nontrivial quotients both ran


def _brute_rows(rows, p, k):
    """The profile over F_p^k of rows (a, b), counted one point at a time."""
    counts = [0] * (len(rows) + 1)
    for x in itertools.product(range(p), repeat=k):
        counts[sum(1 for a, b in rows
                   if (sum(u * v for u, v in zip(a, x)) - b) % p == 0)] += 1
    return counts


def _rows_ending_at(rng, p, k, lasts):
    """A row (a, b) over F_p^k per index j in lasts, with a_j its last
    nonzero entry."""
    return [([rng.randrange(p) for _ in range(j)] + [rng.randrange(1, p)]
             + [0] * (k - 1 - j), rng.randrange(p)) for j in lasts]


@pytest.mark.parametrize("cut", [False, True], ids=["whole", "sliced"])
@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_one_pass_scatter_matches_brute_force(monkeypatch, p, k, cut):
    # rows solved for every coordinate, with a gap (none for x_1), for the
    # last one only, and repeated; the whole space is scattered at once, or
    # _BLOCK is shrunk so that it is cut into slices of one coordinate fewer
    rng = random.Random(100 * p + k)
    every = _rows_ending_at(rng, p, k, list(range(k)) * 2)
    cases = [every,
             _rows_ending_at(rng, p, k, [j for j in range(k) if j != 1] * 3),
             _rows_ending_at(rng, p, k, [k - 1] * 4),
             every + every[:3] + every[-1:] * 2]
    if (p, k) == (2, 2):
        # 300 rows, 260 of them one line: points on more than 255 rows
        # need a uint16 incidence array
        cases.append(_rows_ending_at(rng, p, k, [0, 1] * 20) + [([1, 0], 1)] * 260)
    scatter = finite_field._scatter
    spaces = []

    def spy(rows, p, k, counts):
        spaces.append(k)
        return scatter(rows, p, k, counts)

    monkeypatch.setattr(finite_field, "_scatter", spy)
    for rows in cases:
        spaces.clear()
        if cut:
            monkeypatch.setattr(finite_field, "_BLOCK", max(
                p ** (k - 1), len(rows) * p ** max(k - 2, 0)))
        counts = np.zeros(len(rows) + 1, dtype=object)
        finite_field._affine(rows, p, k, counts)
        assert list(counts) == _brute_rows(rows, p, k)
        if not cut:
            assert spaces == [k]
        elif k > 2:
            assert spaces and set(spaces) == {k - 1}
        else:
            assert not spaces       # slices of F_p^2 are lines


def _pm1_arrangement(rng, n, d, central):
    """n hyperplanes in Q^d with normal entries +-1 and offsets +-1, or 0
    for a central one (Hadamard floors 56 and 33, so 59 is certified)."""
    return Arrangement(d, [([rng.choice((-1, 1)) for _ in range(d)],
                            0 if central else rng.choice((-1, 1)))
                           for _ in range(n)])


@pytest.mark.parametrize("central", [False, True], ids=["affine", "central"])
def test_profile_above_the_block_matches_the_flat_lattice(central):
    # 59^4 points exceed the block, so the space is cut into slices of 59^3
    # (affine), or its central slices are (central); the profile is
    # p^(d-r) cobchi(59, Y), the flats' coboundary at X = 59 times the fibre
    p, d = 59, 4
    assert p ** d > finite_field._BLOCK >= p ** (d - 1)
    rng = random.Random(71 + central)
    for n in (5, 7, 10):
        arr = _pm1_arrangement(rng, n, d, central)
        cob = intersection_poset(arr).coboundary()
        fibre = p ** (d - arr.rank)
        want = cob.substitute({"X": p, "Y": MultiPoly.variable("Y")}) * fibre
        profile = point_profile(reduce_mod_p(arr, p))
        assert profile_polynomial(profile) == want
        assert sum(profile.counts) == p ** d


def test_repeated_point_in_a_row_raises_consistency(monkeypatch):
    # over F_5^2, x = 0, x = 1, y = 0, x + y = 0: the first row solved for
    # y (y = 0) is given the value 5 at x = 0, so its points at x = 0 and
    # x = 1 both land on (1, 0); a bincount of its heads counts that point
    # twice and every h_j stays a multiple of j, so only the check that each
    # solved value lies in [0, p) can raise
    arr = Arrangement(2, [([1, 0], 0), ([1, 0], 1), ([0, 1], 0), ([1, 1], 0)],
                      prime=5)
    want = point_profile(arr).counts
    assert want == _brute_profile(arr)
    solutions = finite_field._solutions

    def repeated(rows, p):
        for j, x in solutions(rows, p):
            if j == 1:
                x[0, 0] = p + x[0, 1]
            yield j, x

    monkeypatch.setattr(finite_field, "_solutions", repeated)
    with pytest.raises(ConsistencyError,
                       match=r"points coincide over F_5\^2: .* outside \[0, 5\)"):
        point_profile(arr)


def test_select_primes_reads_the_floor_once(monkeypatch):
    # the floor is kept on the arrangement: one scan of its rows however
    # many primes are reduced, and none for the next call
    scan = Arrangement.prime_floor.func
    scans = []

    def counted(arr):
        scans.append(arr)
        return scan(arr)

    prop = cached_property(counted)
    prop.__set_name__(Arrangement, "prime_floor")
    monkeypatch.setattr(Arrangement, "prime_floor", prop)
    arr = dn(4)
    assert coboundary_ffm(arr) == \
        coboundary_transform(tutte_subset(arr).tutte, arr.rank)
    assert len(scans) == 1
    coboundary_ffm(arr, primes=[3, 5, 7, 11, 13])
    assert len(scans) == 1
    coboundary_ffm(dn(4), primes=[3, 5, 7, 11, 13])
    assert len(scans) == 2


def test_coboundary_ffm_builds_one_polynomial(monkeypatch):
    # each prime's counts go to the interpolation as integers: the only
    # polynomial built is the result, however many primes are sampled
    init = MultiPoly.__init__
    built = []

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    arr = bc(3)
    want = coboundary_transform(tutte_subset(arr).tutte, arr.rank)
    monkeypatch.setattr(MultiPoly, "__init__", counted)
    assert coboundary_ffm(arr) == want
    assert len(built) == 1


def test_essential_profile_times_fibre_is_the_full_profile():
    # the quotient by the lineality space, counted by brute force, times
    # p^(d-r) is the brute-force profile of the whole space
    rng = random.Random(59)
    for _ in range(40):
        arr = random_prime_arrangement(rng)
        ess = arr.essentialize()
        assert ess.dim == arr.rank == ess.rank
        fibre = arr.prime ** (arr.dim - arr.rank)
        want = _brute_profile(arr)
        assert tuple(c * fibre for c in _brute_profile(ess)) == want
        assert point_profile(ess).counts == tuple(c // fibre for c in want)
        assert point_profile(arr).counts == want


def test_reduction_is_an_arrangement_over_the_prime_field():
    # loops stay loops and keep their places; the non-loops are reduced mod p
    arr = Arrangement(2, [([1, 0], 0), ([0, 0], 0), ([3, 1], 7)])
    red = reduce_mod_p(arr, 5)
    assert isinstance(red, Arrangement)
    assert (red.prime, red.dim, red.n) == (5, 2, 3)
    assert red.loops() == [1]
    assert red.rows == ((1, 0, 0), (1, 2, 4))


def _wide_arrangement(rng):
    """A seeded Q-arrangement with a loop, Fraction entries and entries
    around 2^31 and 2^40, past the int64 keys."""
    d = rng.randint(1, 4)
    hs = [([0] * d, 0)]
    for _ in range(rng.randint(1, 5)):
        scale = rng.choice((1, 2 ** 31, 2 ** 40))
        normal = [Fraction(rng.randint(-3, 3) * scale + rng.randint(-2, 2),
                           rng.choice((1, 2, 3))) for _ in range(d)]
        offset = Fraction(rng.randint(-2, 2) * scale + rng.randint(-1, 1),
                          rng.choice((1, 5))) if any(normal) else 0
        hs.insert(rng.randint(0, len(hs)), (normal, offset))
    return Arrangement(d, hs)


def test_reduction_normalises_each_row_mod_p():
    primes = [2, 3, 5, 7, 101, 2 ** 31 - 1] + [next(finite_field._primes_from(2 ** k))
                                               for k in (31, 61)]
    rng = random.Random(71)
    accepted, wide = set(), 0
    for _ in range(40):
        arr = _wide_arrangement(rng)
        wide += max(abs(x) for row in arr.hyperplanes for x in row) >= 2 ** 31
        for p in primes:
            try:
                red = reduce_mod_p(arr, p)
            except BadPrimeError:
                continue
            assert red.hyperplanes == tuple(normalise_row(row, p) for row in arr.hyperplanes)
            assert red.loops() == arr.loops() and (red.prime, red.dim) == (p, arr.dim)
            accepted.add(p)
    assert accepted == set(primes) and wide >= 20


@pytest.mark.parametrize("p", [1, 4, 9, 15, 25])
def test_composite_modulus_is_a_bad_prime(p):
    arr = Arrangement(2, [([1, 0], 0), ([0, 1], 0), ([1, 3], 0)])
    with pytest.raises(BadPrimeError, match="p=%d is not prime" % p):
        reduce_mod_p(arr, p)


# -- primes certified from the rows -------------------------------------------

def _square_minors(rows):
    """Every square minor of an integer matrix."""
    for k in range(1, min(len(rows), len(rows[0])) + 1):
        for rs in itertools.combinations(rows, k):
            for cols in itertools.combinations(range(len(rows[0])), k):
                yield det_stack(np.array([[[row[j] for j in cols] for row in rs]],
                                         object))[0]


def _hadamard(arr):
    """The Hadamard bound: 1 + isqrt of the product of the dim + 1 largest
    squared row norms of [normals | offsets]."""
    norms = sorted((sum(x * x for x in row) for row in arr.rows), reverse=True)
    return isqrt(prod(norms[:arr.dim + 1])) + 1


def _signed_graphic(rng, graphic):
    """Seeded rows with at most two nonzero entries, all +-1: x_i -+ x_j = 0,
    x_i = 0 and x_i = +-1; `graphic` keeps one +1 and one -1 at most per
    row (x_i - x_j = 0, x_i = 0, x_i = -1)."""
    d = rng.randint(1, 4)
    hs = []
    for _ in range(rng.randint(1, 7)):
        i, j = rng.sample(range(d), 2) if d > 1 else (0, 0)
        if i != j and rng.random() < 0.6:
            normal = [0] * d
            normal[i], normal[j] = 1, -1 if graphic else rng.choice((1, -1))
            hs.append((normal, 0))
        else:
            normal = [0] * d
            normal[i] = rng.choice((1, -1))
            offset = rng.choice((0, -normal[i]) if graphic else (0, 1, -1))
            hs.append((normal, offset))
    return Arrangement(d, hs)


@pytest.mark.parametrize("arr, floor", [
    (braid(4), 1),
    (graphical(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)]), 1),
    (complete_bipartite(2, 3), 1),
    (bc(3), 2),
    (dn(4), 2),
    (threshold(4), 2),
], ids=["braid4", "graph4", "K23", "BC3", "D4", "T4"])
def test_signed_graphic_minors_set_the_floor(arr, floor):
    # every nonzero minor of [normals | offsets] is +-1 (graphic) or +-2^k
    # (signed-graphic), and the scan of the rows finds the largest prime
    # dividing one
    minors = {abs(m) for m in _square_minors(arr.rows)} - {0}
    assert all(m & (m - 1) == 0 for m in minors)
    assert (2 if max(minors) > 1 else 1) == floor
    assert arr.prime_floor == floor


def test_signed_graphic_rows_pass_verified_reduction_above_the_floor():
    rng = random.Random(61)
    for k in range(40):
        graphic = k % 2 == 0
        arr = _signed_graphic(rng, graphic)
        floor = arr.prime_floor
        assert floor <= 2 and (floor == 1 or not graphic)
        for p in range(floor + 1, 32):
            if is_prime(p):
                assert finite_field._keeps_bases(arr, p)
                assert reduce_mod_p(arr, p).prime == p


@pytest.mark.parametrize("arr", [
    braid(4), braid(5), complete_bipartite(2, 3), bc(3), dn(4), threshold(4),
    Arrangement(2, [([1, 0], 1), ([1, 0], -1), ([0, 1], 1), ([1, 1], 0)]),
], ids=["braid4", "braid5", "K23", "BC3", "D4", "T4", "affine"])
def test_coboundary_ffm_at_the_smallest_certified_primes(arr):
    r = arr.rank
    floor = arr.prime_floor
    primes = [m.prime for m in select_primes(arr, r + 2)]
    assert primes == list(itertools.islice(
        finite_field._primes_from(floor + 1), r + 2))
    want = coboundary_transform(tutte_subset(arr).tutte, r)
    assert coboundary_ffm(arr) == want


def test_seeded_signed_graphic_coboundary_ffm():
    rng = random.Random(67)
    for k in range(12):
        arr = _signed_graphic(rng, k % 2 == 0)
        want = coboundary_transform(tutte_subset(arr).tutte, arr.rank)
        assert coboundary_ffm(arr) == want


@pytest.mark.parametrize("arr", [
    shi(4), catalan(4), generic(6, 3),
    Arrangement(2, [([1, 0], 0), ([0, 1], 0), ([2, 1], 0)]),
    Arrangement(2, [([1, 1], 0), ([1, -1], 2)]),
], ids=["Shi3", "Cat3", "generic63", "entry2", "offset2"])
def test_other_rows_keep_the_hadamard_floor(arr):
    assert arr.prime_floor == _hadamard(arr)


def _free_coefficient_cases():
    """Fixed arrangements of each kind that the known top coefficients and
    the free sample at q = 1 tell apart, then seeded random ones."""
    fixed = [
        braid(4), bc(3), shi(3),
        # x = 1, y = 1, x + y = 2: central, translated off the origin
        Arrangement(2, [([1, 0], 1), ([0, 1], 1), ([1, 1], 2)]),
        Arrangement(3, [([1, 0, 0], 1), ([0, 1, 0], 1), ([1, 1, 0], 2),
                        ([0, 0, 1], -1), ([2, 0, 0], 2)]),
        # loops and duplicate rows, affine
        Arrangement(2, [([0, 0], 0), ([1, 0], 0), ([2, 0], 0), ([0, 1], 1),
                        ([1, 1], 0), ([0, 0], 0), ([0, 1], 1)]),
        Arrangement(2, []), Arrangement(3, [([0, 0, 0], 0)] * 2),     # r = 0
        Arrangement(2, [([1, 1], 0), ([2, 2], 0), ([0, 0], 0)]),      # r = 1
        Arrangement(2, [([1, 1], 0), ([1, 1], 3), ([1, 1], 3)]),
        Arrangement(2, [([1, 0], 0), ([0, 1], 0), ([1, -1], 0)]),     # r = 2
        Arrangement(2, [([1, 0], 0), ([1, 0], 1), ([0, 1], 0), ([1, 1], 5)]),
        Arrangement(0, []), Arrangement(0, [((), 0)] * 3),            # d = 0
    ]
    rng = random.Random(61)
    return fixed + [random_arrangement(rng, max_n=6, max_d=3) for _ in range(30)]


def _kinds(arr):
    central = arr.is_central()
    kinds = {"affine" if not central else
             "translated" if any(row[-1] for row in arr.rows) else "central"}
    if arr.loops():
        kinds.add("loops")
    if len(set(arr.rows)) < len(arr.rows):
        kinds.add("duplicates")
    if arr.rank <= 2:
        kinds.add("r=%d" % arr.rank)
    if arr.dim == 0:
        kinds.add("d=0")
    return kinds


def test_coboundary_ffm_with_free_coefficients_matches_the_subset_expansion():
    cases = _free_coefficient_cases()
    assert set().union(*map(_kinds, cases)) == {
        "central", "translated", "affine", "loops", "duplicates",
        "r=0", "r=1", "r=2", "d=0"}
    for arr in cases:
        want = coboundary_transform(tutte_subset(arr).tutte, arr.rank)
        got = coboundary_ffm(arr)
        assert got == want and got.format() == want.format()


def _trimmed(coeffs):
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def test_known_top_is_the_lattice_g_of_ranks_0_and_1():
    # Crapo's formula bottom-up: the X^(r-k) coefficient of cobchi is the
    # sum of g_H over the flats of rank k
    for arr in _free_coefficient_cases():
        poset = intersection_poset(arr)
        by_rank = []
        for first, end in poset._ranks()[:2]:
            row = [0] * (arr.n + 1)
            sums = poset.g[:, first:end].sum(axis=1).tolist()
            for power, c in zip(poset.powers.tolist(), sums):
                row[power] += c
            by_rank.append(_trimmed(row))
        below, loops = finite_field._known_top(arr)
        assert by_rank == [_trimmed(loops), _trimmed(below)][:arr.rank + 1]
        assert arr.rank or not any(below)


@pytest.mark.parametrize("arr, count", [
    (bc(4), 3), (braid(5), 3), (dn(5), 4), (threshold(5), 4), (shi(4), 3),
    (catalan(4), 3),
    (Arrangement(2, [([1, 1], 0), ([2, 2], 0)]), 1),                # r = 1
    (Arrangement(2, [([1, 0], 0), ([1, 0], 1), ([0, 1], 0)]), 2),  # r = 2, affine
], ids=["BC4", "braid5", "D4", "T5", "Shi4", "Cat4", "r1", "r2affine"])
def test_default_primes_are_r_minus_1_central_and_r_affine(arr, count, monkeypatch):
    asked = []
    select = finite_field.select_primes

    def spy(arrangement, n, *args):
        asked.append(n)
        return select(arrangement, n, *args)

    monkeypatch.setattr(finite_field, "select_primes", spy)
    want = coboundary_transform(tutte_subset(arr).tutte, arr.rank)
    assert coboundary_ffm(arr) == want and asked == [count]


@pytest.mark.parametrize("arr", [
    Arrangement(2, [([1, 1], 0), ([1, 1], 3), ([0, 0], 0)]),
    Arrangement(2, [([1, 1], 0), ([2, 2], 0)]),
    Arrangement(2, [([0, 0], 0)]),
], ids=["r1affine", "r1central", "r0"])
def test_rank_at_most_one_checks_that_the_rest_is_zero(arr, monkeypatch):
    # the known coefficients are all of cobchi, so every sample is a check:
    # one fibre of points moved from c_0 to c_1 is reported at its prime
    assert coboundary_ffm(arr, primes=[5, 7]) == \
        coboundary_transform(tutte_subset(arr).tutte, arr.rank)
    count = finite_field.point_profile

    def corrupted(modarr, *args, **kwargs):
        profile = count(modarr, *args, **kwargs)
        quotient = list(profile.quotient)
        if modarr.prime == 7:
            quotient[0] -= 1
            quotient[1] += 1
        return finite_field.PointProfile(modarr.prime, quotient, profile.lift)

    monkeypatch.setattr(finite_field, "point_profile", corrupted)
    with pytest.raises(InconsistentSamplesError, match="oversample at 7 disagrees"):
        coboundary_ffm(arr, primes=[5, 7])


def test_a_profile_lifted_past_d_minus_r_is_a_reduction_failure(monkeypatch):
    # braid(3) has d - r = 1; a lift of 2 is what a rank drop mod p would
    # give, and a certified reduction never has one
    count = finite_field.point_profile

    def lifted(modarr, *args, **kwargs):
        profile = count(modarr, *args, **kwargs)
        return finite_field.PointProfile(modarr.prime, profile.quotient, profile.lift + 1)

    monkeypatch.setattr(finite_field, "point_profile", lifted)
    with pytest.raises(InconsistentSamplesError,
                       match=r"^profile at p=2 has lift 2, not d - r = 1: reduction failure$"):
        coboundary_ffm(braid(3))


def test_explicit_primes_of_an_affine_arrangement_need_r_minus_1():
    # Shi(3) is affine of rank 2: with no free sample the rest, of degree 0,
    # needs one prime, and a second one checks it
    arr = shi(3)
    want = coboundary_transform(tutte_subset(arr).tutte, arr.rank)
    p, q = [m.prime for m in select_primes(arr, 2)]
    assert coboundary_ffm(arr, primes=[p]) == coboundary_ffm(arr, primes=[p, q]) == want
    with pytest.raises(ValueError, match="need at least 1 primes, got 0"):
        coboundary_ffm(arr, primes=[])
    # Shi(4) is affine of rank 3, and its rest, of degree 1, needs two
    with pytest.raises(ValueError, match="need at least 2 primes, got 1"):
        coboundary_ffm(shi(4), primes=[p])
