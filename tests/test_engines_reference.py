"""Deletion-contraction, basis activity and the arithmetic specialisations
against their former versions, and the generalized Tutte-Grothendieck
recursion.

The references below are the former `Arrangement`-based implementations,
kept here verbatim in substance: they recurse on `Arrangement.delete` and
`contract`, and decide activity from `rank_normals` and `is_central` per
subset.  The echelon-kernel engines must return polynomials that print the
same text over the same variables, and the same activity records in the
same order.  The former arithmetic specialisations expanded M(x, y), or the
multivariate polynomial, and took it apart again by substitution and exact
division; the ones read off integer tables must print the same text.
"""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from conftest import classify, random_arrangement, random_prime_arrangement
from tuttekit import families
from tuttekit import linalg as linalg_module
from tuttekit.arithmetic import (
    VectorConfig,
    arithmetic_char_poly,
    arithmetic_tutte,
    multivariate_tutte,
    toric_evaluations,
    tutte_from_multivariate,
    zonotope_evaluations,
)
from tuttekit.arrangement import Arrangement
from tuttekit.errors import BudgetExceededError
from tuttekit.multipoly import MultiPoly
from tuttekit.tutte import (
    ActivityCertificate,
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
            if classify(arr, i) == "ordinary":
                return rec(arr.delete(i)) + rec(arr.contract(i))
        return x ** arr.n

    return rec(arrangement)


def generalized_tg_evaluate(arrangement, a, b, coloop_value, loop_value):
    """Evaluate the generalized Tutte-Grothendieck recursion directly.

    Used to sanity-check universality: on a central arrangement the result
    must equal a^(n-r) b^r T(coloop_value/b, loop_value/a).  On an affine
    one it need not, since a contraction drops the hyperplanes parallel to
    the one contracted: on 3x = 1, 3x = -1 (T = x + 1) it gives
    a*coloop_value + b, not a*coloop_value + a*b.
    """
    a, b = Fraction(a), Fraction(b)
    cv, lv = Fraction(coloop_value), Fraction(loop_value)

    def rec(arr):
        if arr.n == 0:
            return Fraction(1)
        for i in range(arr.n - 1, -1, -1):
            kind = classify(arr, i)
            if kind == "loop":
                return lv * rec(arr.delete(i))
            if kind == "coloop":
                return cv * rec(arr.contract(i))
        i = arr.n - 1
        return a * rec(arr.delete(i)) + b * rec(arr.contract(i))

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


# -- the arithmetic specialisations, by substitution into M -----------------

def ref_arithmetic_char_poly(config):
    """(-1)^r q^(d-r) M(1-q, 0)."""
    m_poly = arithmetic_tutte(config)
    q = MultiPoly.variable("q")
    r = config.rank
    sub = {v: w for v, w in (("x", 1 - q), ("y", MultiPoly.const(0)))
           if v in m_poly.vars}
    spec = m_poly.substitute(sub) if sub else m_poly
    return spec * q ** (config.dim - r) * Fraction((-1) ** r)


def ref_zonotope_evaluations(config):
    m_poly = arithmetic_tutte(config)
    r = config.rank
    q = MultiPoly.variable("q")
    my1 = m_poly.substitute({"y": MultiPoly.const(1)}) \
        if "y" in m_poly.vars else m_poly
    ehrhart = MultiPoly.zero()
    for i in range(my1.degree("x") + 1):
        ci = my1.coefficient("x", i).constant_value()
        ehrhart = ehrhart + ci * (q + 1) ** i * q ** (r - i)
    return {
        "volume": m_poly.evaluate({"x": 1, "y": 1}),
        "lattice_points": m_poly.evaluate({"x": 2, "y": 1}),
        "interior_points": m_poly.evaluate({"x": 0, "y": 1}),
        "ehrhart": ehrhart,
    }


def ref_toric_evaluations(config):
    m_poly = arithmetic_tutte(config)
    r = config.rank
    mx0 = m_poly.substitute({"y": MultiPoly.const(0)}) \
        if "y" in m_poly.vars else m_poly
    q = MultiPoly.variable("q")
    # q^r (2 + 1/q)^i = q^(r-i) (2q + 1)^i
    poincare = MultiPoly.zero()
    for i in range(mx0.degree("x") + 1):
        ci = mx0.coefficient("x", i).constant_value()
        poincare = poincare + ci * q ** (r - i) * (2 * q + 1) ** i
    return {"regions": m_poly.evaluate({"x": 1, "y": 0}), "poincare": poincare}


def ref_tutte_from_multivariate(mv, multiplicities):
    """(x-1)^(r_s - r) (y-1)^(-r) q^r Ztilde((x-1)(y-1), w_e = y^a_e - 1),
    by substitution and exact division."""
    x, y = MultiPoly.variable("x"), MultiPoly.variable("y")
    s = MultiPoly.variable("_s")  # stands for y - 1
    sub = {}
    if "q" in mv.poly.vars:
        sub["q"] = (x - 1) * s
    for e in range(mv.n):
        name = "w_%d" % (e + 1)
        if name in mv.poly.vars:
            sub[name] = (s + 1) ** multiplicities[e] - 1
    val = mv.poly.substitute(sub) if sub else mv.poly
    r_supp = mv.arrangement.rank_normals(
        frozenset(e for e, a in enumerate(multiplicities) if a > 0))
    if mv.rank > r_supp:
        val = val.substitute({"x": 1 + MultiPoly.variable("_x")})
        val = val.div_exact_var("_x", mv.rank - r_supp)
        if "_x" in val.vars:
            val = val.substitute({"_x": x - 1})
    val = val.div_exact_var("_s", mv.rank) if mv.rank else val
    return val.substitute({"_s": y - 1}) if "_s" in val.vars else val


def _same_text(got, want):
    assert got == want
    assert got.format() == want.format()
    assert got.to_latex() == want.to_latex()
    assert got.term_list() == want.term_list()


def _configs():
    """Seeded configurations in Z^0..Z^4, with zero and repeated columns,
    and the B_3 and D_4 roots."""
    rng = random.Random(20261019)
    out = []
    for _ in range(150):
        d = rng.randint(0, 4)
        cols = []
        for _ in range(rng.randint(0, 7)):
            roll = rng.random()
            if roll < 0.1:
                cols.append([0] * d)
            elif roll < 0.25 and cols:
                cols.append(list(rng.choice(cols)))
            else:
                cols.append([rng.randint(-3, 3) for _ in range(d)])
        out.append(VectorConfig(d, cols))
    b3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]] + \
        [[1, s, 0] for s in (1, -1)] + [[1, 0, s] for s in (1, -1)] + \
        [[0, 1, s] for s in (1, -1)]
    d4 = [[int(k == i) + s * int(k == j) for k in range(4)]
          for i, j in combinations(range(4), 2) for s in (1, -1)]
    return out + [VectorConfig(3, b3), VectorConfig(4, d4)]


CONFIGS = _configs()


def test_configs_cover_the_edge_cases():
    assert {c.dim for c in CONFIGS} == {0, 1, 2, 3, 4}
    assert any(c.n == 0 for c in CONFIGS)
    assert any(c.dim == 0 and c.n > 0 for c in CONFIGS)
    assert any(c.dim and (0,) * c.dim in c.columns for c in CONFIGS)
    assert any(len(set(c.columns)) < c.n for c in CONFIGS)


def test_arithmetic_specialisations_match_the_substitutions():
    for c in CONFIGS:
        _same_text(arithmetic_char_poly(c), ref_arithmetic_char_poly(c))
        got, want = zonotope_evaluations(c), ref_zonotope_evaluations(c)
        assert got.keys() == want.keys()
        for key in ("volume", "lattice_points", "interior_points"):
            assert str(got[key]) == str(want[key]) and got[key] == want[key]
        _same_text(got["ehrhart"], want["ehrhart"])
        got, want = toric_evaluations(c), ref_toric_evaluations(c)
        assert got["regions"] == want["regions"]
        _same_text(got["poincare"], want["poincare"])


def _thickened_inputs():
    return [families.braid(3), families.braid(4), families.bc(2),
            Arrangement(2, [([1, 0], 0), ([1, 0], 1), ([0, 1], 0), ([1, 1], 2)]),
            Arrangement(2, [([0, 0], 0), ([1, 0], 0), ([1, -1], 0), ([0, 0], 0)])]


def test_thickening_matches_the_substitution():
    rng = random.Random(5)
    for arr in _thickened_inputs():
        mv = multivariate_tutte(arr)
        weights = list(product(range(3), repeat=arr.n))
        if arr.n > 4:
            weights = rng.sample(weights, 60) + [(0,) * arr.n, (2,) * arr.n]
        for a in weights:
            _same_text(tutte_from_multivariate(mv, list(a)),
                       ref_tutte_from_multivariate(mv, list(a)))
        a = [rng.randint(1, 4) for _ in range(arr.n)]
        _same_text(tutte_from_multivariate(mv, a), ref_tutte_from_multivariate(mv, a))


@pytest.mark.parametrize("bad", [[1, -1, 1], [1, 1.5, 1], [1, Fraction(2), 1],
                                 [1, 1]])
def test_thickening_rejects_bad_multiplicities(bad):
    with pytest.raises(ValueError):
        tutte_from_multivariate(multivariate_tutte(families.braid(3)), bad)
