import random
from fractions import Fraction
from itertools import product
from math import gcd, prod

import pytest

from tuttekit import arithmetic
from tuttekit.arithmetic import (
    VectorConfig,
    _multiplicity_table,
    _torus_counts,
    arithmetic_char_poly,
    arithmetic_tutte,
    multiplicity,
    multivariate_tutte,
    toric_evaluations,
    toric_point_profile,
    tutte_from_multivariate,
    zonotope_evaluations,
)
from tuttekit.arrangement import Arrangement
from tuttekit.errors import (
    BudgetExceededError,
    ConsistencyError,
    InputFormatError,
    TuttekitError,
)
from tuttekit.families import braid, thicken
from tuttekit.linalg import (
    elementary_divisors,
    extend_lattice,
    rank_rows,
    subset_walk,
)
from tuttekit.multipoly import MultiPoly
from tuttekit.tutte import tutte_subset

x = MultiPoly.variable("x")
y = MultiPoly.variable("y")
q = MultiPoly.variable("q")


# -- brute-force zonotope oracle (d <= 2) -----------------------------------

def _rot(v):
    return (-v[1], v[0])


def _zonotope_halfplanes(cols, dilation=1):
    """Edge normals with support values, plus equality normals spanning the
    orthogonal complement, for the zonotope of 2-d generators."""
    nz = [c for c in cols if any(c)]
    ineqs = []
    eqs = []
    if not nz:
        eqs = [((1, 0), 0), ((0, 1), 0)]
        return ineqs, eqs
    rank2 = any(a[0] * b[1] - a[1] * b[0] for a in nz for b in nz)
    if rank2:
        for c in nz:
            for n in (_rot(c), _rot((-c[0], -c[1]))):
                h = sum(max(0, n[0] * a + n[1] * b) for a, b in cols) * dilation
                ineqs.append((n, h))
    else:
        # a segment: bound it along its own direction, pin the normal one
        d = nz[0]
        for n in (d, (-d[0], -d[1])):
            h = sum(max(0, n[0] * a + n[1] * b) for a, b in cols) * dilation
            ineqs.append((n, h))
        eqs = [(_rot(d), 0)]
    return ineqs, eqs


def zonotope_points(config, dilation=1, interior=False):
    """Brute-force count of lattice points of dilation * Z(config), d <= 2.

    interior counts the relative interior (strict edge inequalities).
    """
    assert config.dim == 2
    cols = config.columns
    lo = [sum(min(0, c[i]) for c in cols) * dilation for i in range(2)]
    hi = [sum(max(0, c[i]) for c in cols) * dilation for i in range(2)]
    ineqs, eqs = _zonotope_halfplanes(cols, dilation)
    count = 0
    for z in product(range(lo[0], hi[0] + 1), range(lo[1], hi[1] + 1)):
        if any(n[0] * z[0] + n[1] * z[1] != 0 for n, _ in eqs):
            continue
        vals = [h - (n[0] * z[0] + n[1] * z[1]) for n, h in ineqs]
        if interior:
            if all(v > 0 for v in vals):
                count += 1
        else:
            if all(v >= 0 for v in vals):
                count += 1
    return count


# -- multiplicities ----------------------------------------------------------

def test_multiplicity():
    c = VectorConfig(2, [(2, 0), (1, 0), (1, 1), (1, -1), (0, 0)])
    assert multiplicity(c, [0]) == 2
    assert multiplicity(c, [1, 2]) == 1
    assert multiplicity(c, [2, 3]) == 2
    assert multiplicity(c, []) == 1
    assert multiplicity(c, [4]) == 1  # zero vector
    assert multiplicity(c, [0, 1]) == 1  # rank 1 subset, gcd of 1x1 minors


def test_multiplicity_cross_check_random():
    rng = random.Random(53)
    for _ in range(60):
        d = rng.randint(1, 3)
        n = rng.randint(1, 4)
        c = VectorConfig(d, [[rng.randint(-4, 4) for _ in range(d)]
                             for _ in range(n)])
        # multiplicity checks gcd-of-minors == elementary-divisor product
        multiplicity(c, range(n))


# -- the lattice walk --------------------------------------------------------

def _degenerate_config(rng, d):
    """Random columns in Z^d with zero, repeated and parallel ones; one draw
    in three lies in a sublattice of lower rank."""
    span = d if d == 1 or rng.random() < 0.66 else rng.randint(1, d - 1)
    gens = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(span)]
    cols = []
    for _ in range(rng.randint(1, 5 if d > 3 else 6)):
        coeffs = [rng.randint(-2, 2) for _ in gens]
        cols.append([sum(c * g[i] for c, g in zip(coeffs, gens))
                     for i in range(d)])
    first = cols[0]
    cols += [[0] * d, list(first),
             [rng.choice([-3, -2, 2, 3]) * x for x in first]]
    rng.shuffle(cols)
    return VectorConfig(d, cols)


_LATTICE_CASES = [_degenerate_config(random.Random(1000 + k), 1 + k % 5)
                  for k in range(25)]


@pytest.mark.parametrize("config", _LATTICE_CASES, ids=repr)
def test_lattice_walk_table_matches_per_subset_multiplicity(config):
    want = [[0] * (config.n + 1) for _ in range(config.rank + 1)]
    for mask in range(1 << config.n):
        subset = [i for i in range(config.n) if mask >> i & 1]
        # multiplicity checks gcd of minors == product of elementary divisors
        m = multiplicity(config, subset)
        want[config.rank_of(subset)][len(subset)] += m
    assert _multiplicity_table(config) == want


@pytest.mark.parametrize("config", _LATTICE_CASES[:10], ids=repr)
def test_walk_basis_spans_the_subset_lattice(config):
    for mask, _, basis in subset_walk(config.columns, extend_lattice, ()):
        subset = [i for i in range(config.n) if mask >> i & 1]
        cols = [config.columns[i] for i in subset]
        rows = [b for _, b in basis]
        # ZB inside L, L inside span(B), and the same index: L = ZB
        assert all(extend_lattice(basis, c) is basis for c in cols)
        assert rank_rows(rows + cols) == rank_rows(cols) == len(basis)
        assert prod(elementary_divisors(rows)) == multiplicity(config, subset)


def test_extend_lattice_is_the_hermite_form():
    rng = random.Random(61)
    for _ in range(40):
        d = rng.randint(1, 5)
        cols = [tuple(rng.randint(-4, 4) for _ in range(d))
                for _ in range(rng.randint(1, 6))]
        forms = set()
        for _ in range(3):
            rng.shuffle(cols)
            basis = ()
            for c in cols:
                basis = extend_lattice(basis, c)
            forms.add(basis)
        assert len(forms) == 1          # one basis per lattice
        for i, (c, b) in enumerate(basis):
            assert b[c] > 0 and not any(b[:c])
            assert all(0 <= bj[c] < b[c] for _, bj in basis[:i])


# -- arithmetic Tutte polynomial --------------------------------------------

def test_arithmetic_tutte_examples():
    assert arithmetic_tutte(VectorConfig(2, [(1, 1), (1, -1)])) == x ** 2 + 1
    assert arithmetic_tutte(VectorConfig(2, [(2, 0), (0, 1)])) == x ** 2 + x
    # unimodular: coordinate vectors give x^n
    assert arithmetic_tutte(VectorConfig(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])) \
        == x ** 3


def test_arithmetic_tutte_unimodular_matches_ordinary():
    # for unimodular configurations M equals the Tutte polynomial of the
    # central arrangement with those normals
    cols = [(1, 0), (0, 1), (1, 1)]
    c = VectorConfig(2, cols)
    m = arithmetic_tutte(c)
    arr = Arrangement(2, [(list(v), 0) for v in cols])
    assert m == tutte_subset(arr).tutte


def test_arithmetic_char_poly():
    c = VectorConfig(2, [(1, 1), (1, -1)])
    chi = arithmetic_char_poly(c)
    assert chi == q ** 2 - 2 * q + 2
    assert chi.evaluate({"q": 4}) == 10


# -- zonotopes ---------------------------------------------------------------

def test_zonotope_examples():
    z = zonotope_evaluations(VectorConfig(2, [(1, 1), (1, -1)]))
    assert (z["volume"], z["lattice_points"], z["interior_points"]) == (2, 5, 1)
    z = zonotope_evaluations(VectorConfig(2, [(2, 0), (0, 1)]))
    assert (z["volume"], z["lattice_points"], z["interior_points"]) == (2, 6, 0)
    assert z["ehrhart"] == 2 * q ** 2 + 3 * q + 1
    z = zonotope_evaluations(VectorConfig(2, [(1, 0), (0, 1)]))
    assert z["lattice_points"] == 4 and z["ehrhart"] == (q + 1) ** 2


def test_zonotope_brute_force_oracle():
    rng = random.Random(59)
    tried = 0
    while tried < 50:
        n = rng.randint(1, 4)
        cols = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(n)]
        c = VectorConfig(2, cols)
        z = zonotope_evaluations(c)
        assert z["lattice_points"] == zonotope_points(c), cols
        assert z["interior_points"] == zonotope_points(c, interior=True), cols
        for dil in (1, 2, 3):
            assert z["ehrhart"].evaluate({"q": dil}) == \
                zonotope_points(c, dilation=dil), (cols, dil)
        tried += 1


# -- toric point counts ------------------------------------------------------

def _pow_loop_counts(config, q):
    """The profile over (F*_{q+1})^d by evaluating t^b at every point."""
    P = q + 1
    counts = [0] * (config.n + 1)
    for point in product(range(1, P), repeat=config.dim):
        h = 0
        for col in config.columns:
            val = 1
            for x, a in zip(point, col):
                if a:
                    val = val * pow(x, a, P) % P if a > 0 else \
                        val * pow(pow(x, -1, P), -a, P) % P
            if val == 1:
                h += 1
        counts[h] += 1
    return counts


def _torus_cases():
    rng = random.Random(67)
    cases = [VectorConfig(2, [(1, 0), (1, 2), (2, -1)]),
             VectorConfig(3, [(2, 0, 0), (0, 0, 0), (0, 4, 6), (0, 4, 6)])]
    for _ in range(8):
        d = rng.randint(1, 3)
        cases.append(VectorConfig(d, [[rng.randint(-5, 5) for _ in range(d)]
                                      for _ in range(rng.randint(0, 4))]))
    return cases


@pytest.mark.parametrize("block", [None, 1, 7, 40])
def test_torus_counts_match_the_pow_loop(monkeypatch, block):
    # small blocks cut the torus along each coordinate and into runs of
    # values of one coordinate
    if block is not None:
        monkeypatch.setattr(arithmetic, "_BLOCK", block)
    for config in _torus_cases():
        for qq in (2, 4, 6, 10, 12):        # q + 1 in {3, 5, 7, 11, 13}
            if qq ** config.dim > 2000:
                continue
            assert _torus_counts(config, qq) == _pow_loop_counts(config, qq), \
                (config.columns, qq)


def _on_subtorus(config, subset, q):
    """Points of (F*_{q+1})^d on every hypertorus of the subset, by brute force."""
    sub = VectorConfig(config.dim, [config.columns[i] for i in subset])
    return _pow_loop_counts(sub, q)[len(subset)]


@pytest.mark.parametrize("qq", [4, 6, 10, 12])
def test_toric_identity_holds_for_every_prime_q_plus_one(qq):
    t = MultiPoly.variable("t")
    for config in _torus_cases()[:6]:
        if qq ** config.dim > 2000:
            continue
        prof = toric_point_profile(config, qq)
        assert prof["counts"] == _pow_loop_counts(config, qq)
        want = MultiPoly.zero()
        for mask, size, basis in subset_walk(config.columns, extend_lattice, ()):
            subset = [i for i in range(config.n) if mask >> i & 1]
            on = _on_subtorus(config, subset, qq)
            e = elementary_divisors([b for _, b in basis])
            assert on == qq ** (config.dim - len(basis)) * \
                prod(gcd(x, qq) for x in e)
            want = want + on * (t - 1) ** size
        assert prof["polynomial"] == want


def test_toric_budget():
    c = VectorConfig(3, [(1, 0, 0), (1, 1, 1)])
    with pytest.raises(BudgetExceededError) as err:
        toric_point_profile(c, 12, budget=12 ** 3 - 1)
    assert err.value.required == 12 ** 3
    assert toric_point_profile(c, 12, budget=12 ** 3)["counts"] == \
        _pow_loop_counts(c, 12)


def test_toric_identity_worked_configs():
    for cols in ([(1, 1), (1, -1)], [(2, 0), (0, 1)]):
        c = VectorConfig(2, cols)
        for qq in (2, 4, 6):  # q+1 in {3, 5, 7}
            toric_point_profile(c, qq)  # asserts the identity internally


def test_toric_complement_count():
    c = VectorConfig(2, [(1, 1), (1, -1)])
    prof = toric_point_profile(c, 4)
    assert prof["counts"][0] == 10


def test_toric_checks_the_complement_against_chi(monkeypatch):
    # chi(q) is read off the walk's table; one more in its constant row
    # must fail the check of the complement count
    c = VectorConfig(2, [(1, 1), (1, -1)])
    rows = arithmetic._alternating_rows
    monkeypatch.setattr(arithmetic, "_alternating_rows",
                        lambda table: [rows(table)[0] + 1] + rows(table)[1:])
    with pytest.raises(ConsistencyError, match="characteristic polynomial"):
        toric_point_profile(c, 4)


def test_toric_small_examples():
    prof = toric_point_profile(VectorConfig(2, [(1, 0), (0, 1)]), 2)
    assert prof["counts"] == [1, 2, 1]
    # the hypertorus p1^2 = 1 in F_3 contains both units, so every point counts
    prof = toric_point_profile(VectorConfig(2, [(2, 0)]), 2)
    assert prof["counts"] == [0, 4]


def test_toric_negative_exponents():
    c = VectorConfig(2, [(1, -1), (2, -3)])
    for qq in (2, 4):
        toric_point_profile(c, qq)


def test_toric_rejects_bad_q():
    with pytest.raises(TuttekitError):
        toric_point_profile(VectorConfig(1, [(1,)]), 3)  # q+1 = 4


def test_toric_evaluations():
    c = VectorConfig(2, [(1, 1), (1, -1)])
    ev = toric_evaluations(c)
    assert ev["regions"] == arithmetic_tutte(c).evaluate({"x": 1, "y": 0})
    # q^r M(2 + 1/q, 0) expanded: M(x, 0) = x^2 + 1 here
    want = (2 * q + 1) ** 2 + q ** 2
    assert ev["poincare"] == want


# -- file format -------------------------------------------------------------

def test_vector_config_file_roundtrip():
    c = VectorConfig(2, [(1, 1), (1, -1)])
    again = VectorConfig.from_text(c.to_text())
    assert again.columns == c.columns and again.dim == 2
    with pytest.raises(InputFormatError):
        VectorConfig.from_text("2\n1 1\n")
    with pytest.raises(InputFormatError):
        VectorConfig.from_text("dim 2\n1 x\n")
    with pytest.raises(InputFormatError):
        VectorConfig.from_text("dim 2\n1 2 3\n")
    with pytest.raises(InputFormatError):
        VectorConfig.from_text("")


# -- multivariate Tutte polynomial ------------------------------------------

def test_multivariate_single_coloop():
    arr = Arrangement(1, [([1], 0)])
    mv = multivariate_tutte(arr)
    w1 = MultiPoly.variable("w_1")
    assert mv.poly == q + w1


def test_multivariate_specialization(bench):
    # q^r Ztilde(q, w..w) == sum_k P_k(w+1) q^k w^(r-k) for T = sum P_k(y)(x-1)^k
    for arr in (bench, braid(3)):
        mv = multivariate_tutte(arr)
        r = arr.rank
        t = tutte_subset(arr).tutte
        u = MultiPoly.variable("u")
        shifted = t.substitute({"x": u + 1}) if "x" in t.vars else t
        w = MultiPoly.variable("w")
        want = MultiPoly.zero()
        for k in range(r + 1):
            pk = shifted.coefficient("u", k)
            pk = pk.substitute({"y": w + 1}) if "y" in pk.vars else pk
            want = want + pk * q ** k * w ** (r - k)
        uniform = {"w_%d" % (e + 1): w for e in range(arr.n)}
        assert mv.poly.substitute(uniform) == want


def test_multivariate_thickening_substitution(bench):
    # T(A(a); x, y) = (x-1)^(r(supp a)) Ztilde(A; (x-1)(y-1), y^a_e - 1)
    arr = braid(3)
    mv = multivariate_tutte(arr)
    for a in ([1, 1, 1], [2, 1, 1], [3, 2, 1], [0, 1, 1], [2, 2, 2]):
        want = tutte_subset(thicken(arr, a)).tutte
        assert tutte_from_multivariate(mv, a) == want, a
    mv = multivariate_tutte(bench)
    for a in ([2, 1, 1, 1], [1, 2, 3, 1], [0, 0, 1, 1]):
        want = tutte_subset(thicken(bench, a)).tutte
        assert tutte_from_multivariate(mv, a) == want, a
    with pytest.raises(ValueError):
        tutte_from_multivariate(mv, [1, 1])


def test_multivariate_generating_identity():
    # summing T(A(a)) (x-1)^(r - r(supp a)) w^a over all a (truncated at
    # total degree 3) equals the subset-expansion side built from geometric
    # series in each w_e
    from tuttekit.series import truncate
    order = 3
    arr = braid(3)
    r = arr.rank
    n = arr.n
    ws = [MultiPoly.variable("w_%d" % (e + 1)) for e in range(n)]
    wnames = ["w_%d" % (e + 1) for e in range(n)]

    lhs = MultiPoly.zero()
    for a in product(range(order + 1), repeat=n):
        if sum(a) > order:
            continue
        support = frozenset(e for e in range(n) if a[e])
        rs = arr.rank_normals(support)
        t_a = tutte_subset(thicken(arr, list(a))).tutte
        term = t_a * (x - 1) ** (r - rs)
        for e in range(n):
            term = term * ws[e] ** a[e]
        lhs = lhs + term
    lhs = truncate(lhs, wnames, order)

    # right side: prod 1/(1-w_e) * sum_{central B} (x-1)^(r-rB) (y-1)^(|B|-rB)
    #             * prod_{e in B} w_e (y-1+1... ) / (1 - y w_e), truncated
    def geom(term, order):  # 1/(1 - term) truncated
        out = MultiPoly.const(1)
        powr = MultiPoly.const(1)
        for _ in range(order):
            powr = truncate(powr * term, wnames, order)
            if powr.is_zero():
                break
            out = out + powr
        return out

    from itertools import combinations
    rhs = MultiPoly.zero()
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            if not arr.is_central(combo):
                continue
            rb = arr.rank_normals(frozenset(combo))
            term = (x - 1) ** (r - rb) * (y - 1) ** (size - rb)
            for e in combo:
                term = truncate(term * ws[e] * geom(y * ws[e], order),
                                wnames, order)
            rhs = rhs + term
    full = MultiPoly.const(1)
    for e in range(n):
        full = truncate(full * geom(ws[e], order), wnames, order)
    rhs = truncate(rhs * full, wnames, order)
    assert lhs == rhs
