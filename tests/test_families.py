from math import comb

import pytest

from tuttekit import families as fam
from tuttekit import linalg
from tuttekit.arrangement import Arrangement
from tuttekit.errors import FamilyError
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
    for n, d in ((4, 2), (5, 2), (5, 3)):
        arr = fam.generic(n, d)
        assert tutte_subset(arr).tutte == fam.generic_tutte(n, d)


def test_generic_check_takes_the_largest_minors_only(monkeypatch):
    calls, sizes = [], []
    rank = Arrangement.rank_normals
    dets = linalg.det_stack

    def counted(self, subset=None):
        calls.append(subset)
        return rank(self, subset)

    def stacked(mats):
        sizes.append(mats.shape)
        return dets(mats)

    monkeypatch.setattr(Arrangement, "rank_normals", counted)
    monkeypatch.setattr(linalg, "det_stack", stacked)
    arr = fam.generic(11, 4)
    # every 4 x 4 minor, in int64 blocks, and no rank
    assert not calls and sum(n for n, _, _ in sizes) == comb(11, 4)
    assert all(shape[1:] == (4, 4) for shape in sizes)
    assert tutte_subset(arr).tutte == fam.generic_tutte(11, 4)
    # fewer normals than coordinates: one rank of them all
    calls.clear()
    fam.generic(3, 5)
    assert calls == [None]
    # a repeated normal is caught inside every 3-subset that holds both copies
    twice = Arrangement(3, [([1, 0, 0], 0), ([0, 1, 0], 0), ([2, 0, 0], 0), ([0, 0, 1], 0)])
    assert not fam._is_generic(twice, 4, 3)
    assert fam._is_generic(fam.generic(2, 3), 2, 3)


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
