"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every comparison is exact (Fraction arithmetic, tolerance zero).
"""

import random
import time
from itertools import combinations, product

from conftest import classify, profile_polynomial, random_arrangement
from tuttekit.arithmetic import (
    VectorConfig,
    arithmetic_char_poly,
    arithmetic_tutte,
    multivariate_tutte,
    toric_point_profile,
    tutte_from_multivariate,
    zonotope_evaluations,
)
from tuttekit.arrangement import Arrangement
from tuttekit import families as fam
from tuttekit.finite_field import (
    coboundary_ffm,
    point_profile,
    reduce_mod_p,
)
from tuttekit.multipoly import MultiPoly
from tuttekit.poset import intersection_poset
from tuttekit.series import truncate
from tuttekit.tutte import (
    char_poly,
    coboundary_transform,
    scalar_invariants,
    tutte_activity,
    tutte_delcon,
    tutte_from_coboundary,
    tutte_subset,
    validate_chi_shape,
    whitney_char,
)

x = MultiPoly.variable("x")
y = MultiPoly.variable("y")
q = MultiPoly.variable("q")
X = MultiPoly.variable("X")
Y = MultiPoly.variable("Y")


def _report(name, ok):
    print("%s  criterion %s" % ("PASS" if ok else "FAIL", name))
    assert ok, name


def _bench():
    return Arrangement(3, [([1, 0, 0], 0), ([0, 1, 0], 0),
                           ([1, -1, 0], 0), ([0, 0, 1], 0)])


def _cob(arr):
    return coboundary_transform(tutte_subset(arr).tutte, arr.rank)


def test_criterion_1_benchmark_reproduction():
    arr = _bench()
    ok = True
    # brute-force dependency check: {t,u,v} = {0,1,2} is the unique
    # dependent triple
    triples = [c for c in combinations(range(4), 3)
               if arr.rank_normals(frozenset(c)) < 3]
    ok &= triples == [(0, 1, 2)]
    want_t = x ** 3 + x ** 2 + x * y
    ok &= tutte_subset(arr).tutte == want_t
    ok &= tutte_delcon(arr).tutte == want_t
    ok &= tutte_activity(arr)[0].tutte == want_t
    ok &= tutte_from_coboundary(coboundary_ffm(arr), arr.rank) == want_t
    ok &= char_poly(arr) == q ** 3 - 4 * q ** 2 + 5 * q - 2
    want_cob = Y ** 4 + (X - 1) * Y ** 3 + 3 * (X - 1) * Y ** 2 \
        + (4 * X ** 2 - 9 * X + 5) * Y + (X ** 3 - 4 * X ** 2 + 5 * X - 2)
    ok &= _cob(arr) == want_cob
    ok &= coboundary_ffm(arr) == want_cob
    profile = point_profile(reduce_mod_p(arr, 5))
    ok &= profile.counts == (48, 60, 12, 4, 1)
    _report("1 (benchmark arrangement: T, chi, coboundary, p=5 profile)", ok)


def test_criterion_2_coordinate_coboundary():
    ok = True
    for n in range(1, 7):
        arr = fam.coordinate(n)
        want = (X + Y - 1) ** n
        ok &= _cob(arr) == want
        ok &= coboundary_ffm(arr) == want
    _report("2 (coordinate arrangements: coboundary (X+Y-1)^n, n=1..6)", ok)


def test_criterion_3_coxeter_catalog():
    ok = True
    from math import factorial
    for n in range(2, 6):
        arr = fam.braid(n)
        ok &= intersection_poset(arr).char_poly() == fam.oracle_char("braid", n)
        ok &= scalar_invariants(arr, tutte_subset(arr).tutte)["regions"] == factorial(n)
    for n in range(2, 4):
        arr = fam.bc(n)
        ok &= intersection_poset(arr).char_poly() == fam.oracle_char("bc", n)
        ok &= scalar_invariants(arr, tutte_subset(arr).tutte)["regions"] == 2 ** n * factorial(n)
        arr = fam.dn(n)
        ok &= intersection_poset(arr).char_poly() == fam.oracle_char("dn", n)
        ok &= scalar_invariants(arr, tutte_subset(arr).tutte)["regions"] == 2 ** (n - 1) * factorial(n)
    _report("3 (Coxeter catalog: chi and region counts)", ok)


def test_criterion_4_catalan_shi():
    ok = True
    for n in range(2, 5):
        ok &= intersection_poset(fam.catalan(n)).char_poly() == \
            fam.oracle_char("catalan", n)
        ok &= intersection_poset(fam.shi(n)).char_poly() == \
            fam.oracle_char("shi", n)
    arr = fam.catalan(3)
    inv = scalar_invariants(arr, tutte_subset(arr).tutte)
    ok &= inv["regions"] == 30 and inv["bounded_regions"] == 12
    arr = fam.shi(3)
    inv = scalar_invariants(arr, tutte_subset(arr).tutte)
    ok &= inv["regions"] == 16 and inv["bounded_regions"] == 4
    _report("4 (Catalan and Shi: chi, region counts)", ok)


def test_criterion_5_generic():
    ok = True
    for n, d in ((4, 2), (5, 2), (5, 3)):
        ok &= tutte_subset(fam.generic(n, d)).tutte == fam.generic_tutte(n, d)
    _report("5 (generic arrangements: binomial Tutte formula)", ok)


def test_criterion_6_generating_function_oracles():
    ok = True
    for n in range(2, 5):
        ok &= _cob(fam.braid(n)) == fam.oracle_coboundary("braid", n=n)
    for n in range(2, 4):
        ok &= _cob(fam.bc(n)) == fam.oracle_coboundary("bc", n=n)
        ok &= _cob(fam.dn(n)) == fam.oracle_coboundary("dn", n=n)
    for n in range(2, 5):
        ok &= _cob(fam.threshold(n)) == fam.oracle_coboundary("threshold", n=n)
    for m, n in ((1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (1, 4)):
        ok &= _cob(fam.complete_bipartite(m, n)) == \
            fam.oracle_coboundary("bipartite", m=m, n=n)
    for p, n in ((2, 2), (2, 3), (3, 2)):
        ok &= _cob(fam.all_linear(p, n)) == \
            fam.oracle_coboundary("all_linear", p=p, n=n)
    _report("6 (generating-function oracles match engines)", ok)


def test_criterion_7_thickening():
    ok = True
    for arr in (fam.braid(3), _bench()):
        base = _cob(arr)
        for k in (2, 3):
            ok &= _cob(fam.thicken(arr, k)) == base.substitute({"Y": Y ** k})
    # multivariate substitution for T(A(a)) on arrangements with n <= 3
    for arr in (fam.braid(3), Arrangement(2, [([1, 0], 0), ([0, 1], 0)]),
                Arrangement(1, [([1], 0)])):
        mv = multivariate_tutte(arr)
        for a in product(range(4), repeat=arr.n):
            want = tutte_subset(fam.thicken(arr, list(a))).tutte
            ok &= tutte_from_multivariate(mv, list(a)) == want
    # truncated generating identity over all multiplicity vectors
    ok &= _thickening_series_identity(fam.braid(3), order=3)
    ok &= _thickening_series_identity(
        Arrangement(2, [([1, 0], 0), ([1, 0], 1)]), order=3)
    _report("7 (thickening: coboundary identity and multivariate forms)", ok)


def _thickening_series_identity(arr, order):
    """sum_a T(A(a)) (x-1)^(r - r(supp a)) w^a (truncated) equals the
    subset-expansion side with w_e/(1 - y w_e) factors."""
    r = arr.rank
    n = arr.n
    ws = [MultiPoly.variable("w_%d" % (e + 1)) for e in range(n)]
    wnames = ["w_%d" % (e + 1) for e in range(n)]

    def geom(term):
        out = MultiPoly.const(1)
        powr = MultiPoly.const(1)
        for _ in range(order):
            powr = truncate(powr * term, wnames, order)
            if powr.is_zero():
                break
            out = out + powr
        return out

    lhs = MultiPoly.zero()
    for a in product(range(order + 1), repeat=n):
        if sum(a) > order:
            continue
        support = frozenset(e for e in range(n) if a[e])
        rs = arr.rank_normals(support)
        term = tutte_subset(fam.thicken(arr, list(a))).tutte \
            * (x - 1) ** (r - rs)
        for e in range(n):
            term = term * ws[e] ** a[e]
        lhs = lhs + term
    lhs = truncate(lhs, wnames, order)

    rhs = MultiPoly.zero()
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            if not arr.is_central(combo):
                continue
            rb = arr.rank_normals(frozenset(combo))
            term = (x - 1) ** (r - rb) * (y - 1) ** (size - rb)
            for e in combo:
                term = truncate(term * ws[e] * geom(y * ws[e]), wnames, order)
            rhs = rhs + term
    full = MultiPoly.const(1)
    for e in range(n):
        full = truncate(full * geom(ws[e]), wnames, order)
    return truncate(rhs * full, wnames, order) == lhs


def test_criterion_8_property_suites():
    rng = random.Random(2024)
    ok = True
    profiles_done = 0
    for trial in range(200):
        arr = random_arrangement(rng, max_n=7, max_d=4)
        t = tutte_subset(arr).tutte
        ok &= tutte_delcon(arr).tutte == t
        ok &= tutte_activity(arr)[0].tutte == t
        order = list(range(arr.n))
        rng.shuffle(order)
        ok &= tutte_activity(arr, order)[0].tutte == t
        ordinary = [i for i in range(arr.n) if classify(arr, i) == "ordinary"]
        for i in ordinary:
            ok &= t == tutte_subset(arr.delete(i)).tutte + \
                tutte_subset(arr.contract(i)).tutte
        poset = intersection_poset(arr)
        poset.verify_mobius()
        chi = poset.char_poly()
        ok &= chi == whitney_char(arr, t)
        ok &= validate_chi_shape(chi)["ok"]
        r = arr.rank
        cob = coboundary_transform(t, r)
        ok &= tutte_from_coboundary(cob, r) == t
        if profiles_done < 25 and arr.dim <= 3:
            try:
                modarr = reduce_mod_p(arr, 7)
            except Exception:
                continue
            profile = point_profile(modarr)
            ok &= sum(profile.counts) == 7 ** arr.dim          # t=1 slice
            ok &= profile.counts[0] == chi.evaluate({"q": 7})  # t=0 slice
            sub = {v: w for v, w in (("X", 7), ("Y", Y)) if v in cob.vars}
            want = (cob.substitute(sub) if sub else cob) * 7 ** (arr.dim - r)
            ok &= profile_polynomial(profile) == want
            profiles_done += 1
    ok &= profiles_done == 25
    _report("8 (property suites on 200 random arrangements)", ok)


def test_criterion_9_arithmetic_toric():
    ok = True
    c1 = VectorConfig(2, [(1, 1), (1, -1)])
    m1 = arithmetic_tutte(c1)
    ok &= m1 == x ** 2 + 1
    z = zonotope_evaluations(c1)
    ok &= (z["volume"], z["lattice_points"], z["interior_points"]) == (2, 5, 1)
    c2 = VectorConfig(2, [(2, 0), (0, 1)])
    m2 = arithmetic_tutte(c2)
    ok &= m2 == x ** 2 + x
    z = zonotope_evaluations(c2)
    ok &= (z["volume"], z["lattice_points"], z["interior_points"]) == (2, 6, 0)
    ok &= z["ehrhart"] == 2 * q ** 2 + 3 * q + 1
    for c in (c1, c2):
        for qq in (2, 4, 6):  # q+1 in {3, 5, 7}
            toric_point_profile(c, qq)  # raises if the identity fails
    ok &= toric_point_profile(c1, 4)["counts"][0] == 10
    ok &= arithmetic_char_poly(c1).evaluate({"q": 4}) == 10
    # brute-force zonotope oracle on 50 random small configurations
    from test_arithmetic import zonotope_points
    rng = random.Random(99)
    for _ in range(50):
        n = rng.randint(1, 4)
        cols = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(n)]
        c = VectorConfig(2, cols)
        z = zonotope_evaluations(c)
        ok &= z["lattice_points"] == zonotope_points(c)
        ok &= z["interior_points"] == zonotope_points(c, interior=True)
        for dil in (1, 2, 3):
            ok &= z["ehrhart"].evaluate({"q": dil}) == \
                zonotope_points(c, dilation=dil)
    _report("9 (arithmetic Tutte, zonotopes, toric identities)", ok)


def test_criterion_10_performance():
    p = 97
    rng = random.Random(7)
    hs3 = [([rng.randrange(p) for _ in range(3)], rng.randrange(p))
           for _ in range(10)]
    arr3 = Arrangement(3, hs3, prime=p)
    start = time.perf_counter()
    serial3 = point_profile(arr3)
    t3 = time.perf_counter() - start
    ok = t3 < 1.0
    ok &= sum(serial3.counts) == p ** 3

    hs4 = [([rng.randrange(p) for _ in range(4)], rng.randrange(p))
           for _ in range(10)]
    arr4 = Arrangement(4, hs4, prime=p)
    assert p ** 4 <= 10 ** 8  # fits the default budget
    start = time.perf_counter()
    serial4 = point_profile(arr4)
    t4 = time.perf_counter() - start
    ok &= t4 < 60.0
    ok &= sum(serial4.counts) == p ** 4
    _report("10 (performance: d=3 %.3fs < 1s, d=4 %.1fs < 60s)" % (t3, t4), ok)
