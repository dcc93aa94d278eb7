from fractions import Fraction
from itertools import combinations

import networkx
import pytest
import sympy

from conftest import bench_module, bench_oracle, from_sympy
from gf_oracles import oracle_coboundary
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
        assert _engine_char(fam.coordinate(n)) == (q - 1) ** n


def test_braid_char():
    for n in range(2, 6):
        assert _engine_char(fam.braid(n)) == bench_oracle("chi_closed", "braid", n)


def test_bc_dn_char():
    for n in range(2, 4):
        assert _engine_char(fam.bc(n)) == bench_oracle("chi_closed", "bc", n)
        assert _engine_char(fam.dn(n)) == bench_oracle("chi_closed", "dn", n)


def test_catalan_shi_char():
    for n in range(2, 5):
        assert _engine_char(fam.catalan(n)) == bench_oracle("chi_closed", "catalan", n)
        assert _engine_char(fam.shi(n)) == bench_oracle("chi_closed", "shi", n)
        assert bench_oracle("chi_closed", "shi", n) == q * (q - n) ** (n - 1)


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
        want = MultiPoly.const(1)
        for i in range(n):
            want = want * (q - p ** i)
        assert _engine_char(arr) == want
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
    assert [row[:-1] for row in arr.hyperplanes] == _scanned_normals(p, n)
    assert all(row[-1] == 0 for row in arr.hyperplanes)
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


# -- generating-function coboundary oracles --------------------------------

def test_braid_coboundary_series():
    for n in range(2, 5):
        assert _engine_cob(fam.braid(n)) == oracle_coboundary("braid", n=n)


def test_bc_dn_coboundary_series():
    for n in range(2, 4):
        assert _engine_cob(fam.bc(n)) == oracle_coboundary("bc", n=n)
        assert _engine_cob(fam.dn(n)) == oracle_coboundary("dn", n=n)


def test_threshold_coboundary_series():
    for n in range(2, 5):
        assert _engine_cob(fam.threshold(n)) == \
            oracle_coboundary("threshold", n=n)


def test_catalan_coboundary_from_runs_on_a_cycle():
    for n in range(1, 5):
        assert _engine_cob(fam.catalan(n)) == oracle_coboundary("catalan", n=n)


def test_bipartite_coboundary_series():
    for m, n in ((1, 1), (1, 2), (2, 2), (2, 3), (1, 4)):
        assert _engine_cob(fam.complete_bipartite(m, n)) == \
            oracle_coboundary("bipartite", m=m, n=n)


def test_all_linear_coboundary_series():
    for p, n in ((2, 2), (2, 3), (3, 2)):
        assert _engine_cob(fam.all_linear(p, n)) == \
            oracle_coboundary("all_linear", p=p, n=n)


# -- generic arrangements ---------------------------------------------------

def test_generic_tutte():
    for n, d in ((4, 2), (5, 2), (5, 3), (11, 4)):
        arr = fam.generic(n, d)
        assert tutte_subset(arr).tutte == bench_oracle("uniform_tutte", n, d)


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
            normals = [row[:-1] for row in arr.hyperplanes]
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
        graph = networkx.MultiGraph()
        graph.add_nodes_from(range(1, nv + 1))
        graph.add_edges_from(edges)
        chromatic = networkx.chromatic_polynomial(graph)    # in sympy's x
        want = from_sympy(sympy.Poly(chromatic.subs(sympy.Symbol("x"), sympy.Symbol("q"))))
        assert _engine_char(fam.graphical(nv, edges)) == want
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


# -- the catalog's rows, against rows built apart from `families` -----------

@pytest.fixture(scope="module")
def family_rows():
    """`family_rows` of bench/workloads.py, which builds the catalog's rows
    from first principles."""
    return bench_module("workloads").family_rows


def _rows(arr):
    return [(list(row[:-1]), row[-1]) for row in arr.hyperplanes]


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("tag, label", [
    ("braid", "braid(%d)"), ("threshold", "T_%d"), ("bc", "BC_%d"), ("dn", "D_%d")])
def test_central_catalog_rows_and_labels(family_rows, tag, label, n):
    arr = getattr(fam, tag)(n)
    assert _rows(arr) == family_rows(tag, n)
    assert (arr.dim, arr.label) == (n, label % n)


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("tag, label", [("shi", "Shi_%d"), ("catalan", "Cat_%d")])
def test_affine_catalog_rows_and_labels(family_rows, tag, label, n):
    arr = getattr(fam, tag)(n)
    assert _rows(arr) == family_rows(tag, n)
    assert (arr.dim, arr.label) == (n, label % (n - 1))


@pytest.mark.parametrize("n", range(1, 8))
def test_coordinate_rows_and_label(n):
    arr = fam.coordinate(n)
    assert _rows(arr) == [([int(j == i) for j in range(n)], 0) for i in range(n)]
    assert (arr.dim, arr.label) == (n, "H_%d" % n)


@pytest.mark.parametrize("d", range(1, 5))
@pytest.mark.parametrize("n", range(1, 8))
def test_generic_rows_and_label(family_rows, n, d):
    arr = fam.generic(n, d)
    assert _rows(arr) == family_rows("generic", n, d)
    assert (arr.dim, arr.label) == (d, "generic(%d,%d)" % (n, d))


def test_build_family_dispatch(family_rows):
    assert fam.build_family("braid", n=3).n == 3
    assert fam.build_family("bipartite", m=2, n=2).n == 4
    with pytest.raises(FamilyError):
        fam.build_family("unknown")
    for tag in ("braid", "threshold", "bc", "dn", "shi", "catalan"):
        assert _rows(fam.build_family(tag, n=4)) == family_rows(tag, 4)
    assert _rows(fam.build_family("generic", n=5, d=3)) == family_rows("generic", 5, 3)
    assert _rows(fam.build_family("coordinate", n=2)) == [([1, 0], 0), ([0, 1], 0)]
    assert fam.build_family("all_linear", p=2, n=3).label == "A(2,3)"
    arr = fam.build_family("graphical", n=3, edges=[(1, 3), (2, 3)])
    assert _rows(arr) == [([1, 0, -1], 0), ([0, 1, -1], 0)]
    with pytest.raises(BudgetExceededError):
        fam.build_family("generic", n=5, d=3, budget=4)


@pytest.mark.parametrize("kwargs, message", [
    ({"tag": "nosuch", "n": 3}, "unknown family tag 'nosuch'"),
    ({"tag": "braid"}, "family 'braid' needs an integer --n >= 1, got None"),
    ({"tag": "braid", "n": 0}, "family 'braid' needs an integer --n >= 1, got 0"),
    ({"tag": "braid", "n": True}, "family 'braid' needs an integer --n >= 1, got True"),
    ({"tag": "generic", "n": 3}, "family 'generic' needs an integer --d >= 1, got None"),
    ({"tag": "all_linear", "n": 3}, "family 'all_linear' needs an integer --p >= 1, got None"),
    ({"tag": "bipartite", "n": 2, "m": -1},
     "family 'bipartite' needs an integer --m >= 1, got -1"),
    ({"tag": "graphical", "n": 3}, "family 'graphical' needs its edges"),
])
def test_build_family_errors(kwargs, message):
    with pytest.raises(FamilyError) as err:
        fam.build_family(**kwargs)
    assert str(err.value) == message

