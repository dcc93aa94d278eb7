from fractions import Fraction
from itertools import combinations

import pytest

from tuttekit import families as fam
from tuttekit.errors import BudgetExceededError, FamilyError
from tuttekit.multipoly import MultiPoly
from tuttekit.poset import intersection_poset
from tuttekit.tutte import coboundary_transform, scalar_invariants, tutte_subset

q = MultiPoly.variable("q")


def _engine_char(arr):
    return intersection_poset(arr).char_poly()


def _engine_cob(arr):
    return coboundary_transform(tutte_subset(arr).tutte, arr.rank)


# -- closed-form characteristic polynomials --------------------------------

def test_coordinate_char():
    for n in range(1, 5):
        assert _engine_char(fam.coordinate(n)) == fam.oracle_char("coordinate", n)
        assert fam.oracle_char("coordinate", n) == (q - 1) ** n


def test_braid_char():
    for n in range(2, 6):
        assert _engine_char(fam.braid(n)) == fam.oracle_char("braid", n)


def test_bc_dn_char():
    for n in range(2, 4):
        assert _engine_char(fam.bc(n)) == fam.oracle_char("bc", n)
        assert _engine_char(fam.dn(n)) == fam.oracle_char("dn", n)


def test_catalan_shi_char():
    for n in range(2, 5):
        assert _engine_char(fam.catalan(n)) == fam.oracle_char("catalan", n)
        assert _engine_char(fam.shi(n)) == fam.oracle_char("shi", n)
        assert fam.oracle_char("shi", n) == q * (q - n) ** (n - 1)


def test_catalan_regions():
    # bounded regions of Cat_{n-1} relate to the Catalan numbers
    inv = scalar_invariants(fam.catalan(3), tutte_subset(fam.catalan(3)).tutte)
    assert inv["regions"] == 30
    assert inv["bounded_regions"] == 12


def test_shi_regions():
    inv = scalar_invariants(fam.shi(3), tutte_subset(fam.shi(3)).tutte)
    assert inv["regions"] == 16
    assert inv["bounded_regions"] == 4


def test_all_linear_char():
    for p, n in ((2, 2), (2, 3), (3, 2)):
        arr = fam.all_linear(p, n)
        assert arr.n == (p ** n - 1) // (p - 1)
        assert _engine_char(arr) == fam.oracle_char("all_linear", n=n, p=p)
    with pytest.raises(FamilyError):
        fam.all_linear(4, 2)


def _scanned_normals(p, n):
    """Every nonzero vector of F_p^n scaled to first nonzero entry 1, duplicates
    dropped, sorted."""
    normals = set()
    for mask in range(1, p ** n):
        v = [mask // p ** i % p for i in range(n)]
        inv = pow(next(x for x in v if x), -1, p)
        normals.add(tuple(x * inv % p for x in v))
    return sorted(normals)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_all_linear_lists_the_scanned_normals_in_order(p, n):
    arr = fam.all_linear(p, n)
    assert [tuple(h.normal) for h in arr.hyperplanes] == _scanned_normals(p, n)
    assert all(h.offset == 0 for h in arr.hyperplanes)
    assert (arr.prime, arr.dim, arr.label) == (p, n, "A(%d,%d)" % (p, n))


def test_builders_charge_the_budget_before_they_loop():
    # generic makes n rows, all_linear lists (p^n - 1)/(p - 1) normals,
    # thicken makes n*k copies; a budget that equals the count fits
    for build, count in [(lambda b: fam.generic(30, 8, b), 30),
                         (lambda b: fam.all_linear(101, 3, b), 10303),
                         (lambda b: fam.thicken(fam.braid(4), 10 ** 12, b), 6 * 10 ** 12),
                         (lambda b: fam.thicken(fam.braid(4), [10 ** 12] * 6, b), 6 * 10 ** 12)]:
        with pytest.raises(BudgetExceededError) as err:
            build(count - 1)
        assert err.value.required == count
    assert fam.generic(6, 3, 20).n == 6
    assert fam.all_linear(3, 3, 13).n == 13
    assert fam.thicken(fam.braid(4), 3, 18).n == 18


def test_oracle_char_unknown():
    with pytest.raises(FamilyError):
        fam.oracle_char("threshold", 3)


# -- generating-function coboundary oracles --------------------------------

def test_braid_coboundary_series():
    for n in range(2, 5):
        assert _engine_cob(fam.braid(n)) == fam.oracle_coboundary("braid", n=n)


def test_bc_dn_coboundary_series():
    for n in range(2, 4):
        assert _engine_cob(fam.bc(n)) == fam.oracle_coboundary("bc", n=n)
        assert _engine_cob(fam.dn(n)) == fam.oracle_coboundary("dn", n=n)


def test_threshold_coboundary_series():
    for n in range(2, 5):
        assert _engine_cob(fam.threshold(n)) == \
            fam.oracle_coboundary("threshold", n=n)


def test_catalan_coboundary_from_runs_on_a_cycle():
    for n in range(1, 5):
        assert _engine_cob(fam.catalan(n)) == fam.oracle_coboundary("catalan", n=n)


def test_bipartite_coboundary_series():
    for m, n in ((1, 1), (1, 2), (2, 2), (2, 3), (1, 4)):
        assert _engine_cob(fam.complete_bipartite(m, n)) == \
            fam.oracle_coboundary("bipartite", m=m, n=n)


def test_all_linear_coboundary_series():
    for p, n in ((2, 2), (2, 3), (3, 2)):
        assert _engine_cob(fam.all_linear(p, n)) == \
            fam.oracle_coboundary("all_linear", p=p, n=n)


# -- generic arrangements ---------------------------------------------------

def test_generic_tutte():
    for n, d in ((4, 2), (5, 2), (5, 3), (11, 4)):
        arr = fam.generic(n, d)
        assert tutte_subset(arr).tutte == fam.generic_tutte(n, d)


def _fraction_det(m):
    m = [[Fraction(x) for x in row] for row in m]
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
    return det


def test_generic_normals_have_only_nonzero_maximal_minors():
    # brute force: every d x d minor is nonzero, so any m <= d normals are
    # independent; with fewer normals than coordinates, all n of them are
    for n in range(1, 10):
        for d in range(1, 5):
            arr = fam.generic(n, d)
            normals = [h.normal for h in arr.hyperplanes]
            if n < d:
                assert arr.rank == n
                continue
            assert all(_fraction_det([normals[i] for i in rows])
                       for rows in combinations(range(n), d))
            assert arr.rank == d


# -- graphical arrangements -------------------------------------------------

def test_graphical_chromatic_identity():
    # chi of the graphical arrangement equals the chromatic polynomial
    cases = [
        (3, [(1, 2), (2, 3), (1, 3)]),          # triangle
        (4, [(1, 2), (2, 3), (3, 4), (4, 1)]),  # 4-cycle
        (4, [(1, 2), (1, 3), (1, 4)]),          # star
        (4, [(1, 2), (1, 2), (3, 4)]),          # multigraph
    ]
    for nv, edges in cases:
        arr = fam.graphical(nv, edges)
        assert _engine_char(arr) == fam.chromatic_polynomial(nv, edges)
    with pytest.raises(FamilyError):
        fam.graphical(2, [(1, 1)])


def test_complete_bipartite_is_graphical():
    arr = fam.complete_bipartite(2, 3)
    assert arr.n == 6 and arr.dim == 5 and arr.rank == 4


# -- thickening -------------------------------------------------------------

def test_thicken_uniform_and_vector(bench):
    assert fam.thicken(bench, 2).n == 8
    assert fam.thicken(bench, [0, 1, 2, 1]).n == 4
    with pytest.raises(FamilyError):
        fam.thicken(bench, 0)
    with pytest.raises(FamilyError):
        fam.thicken(bench, [1, 2])


def test_thicken_coboundary_identity(bench):
    # cobchi of the k-fold thickening is cobchi(X, Y^k)
    Y = MultiPoly.variable("Y")
    base = _engine_cob(bench)
    for k in (2, 3):
        thick = _engine_cob(fam.thicken(bench, k))
        assert thick == base.substitute({"Y": Y ** k})


def test_build_family_dispatch():
    assert fam.build_family("braid", n=3).n == 3
    assert fam.build_family("bipartite", m=2, n=2).n == 4
    with pytest.raises(FamilyError):
        fam.build_family("unknown")


def test_catalan_number():
    assert [fam.catalan_number(n) for n in range(6)] == [1, 1, 2, 5, 14, 42]
