import random
import sys
from fractions import Fraction

import pytest

from conftest import classify, random_arrangement, random_prime_arrangement
from tuttekit.arrangement import Arrangement, Hyperplane
from tuttekit.errors import (
    InputFormatError,
    InvalidHyperplaneError,
    LoopContractionError,
    NonCentralError,
)
from tuttekit.multipoly import MultiPoly
from tuttekit.poset import closure, intersection_poset
from tuttekit.tutte import tutte_subset


def test_canonical_form():
    h = Hyperplane([Fraction(1, 2), Fraction(-1, 3)], Fraction(1, 6))
    assert h.normal == (3, -2) and h.offset == 1
    h2 = Hyperplane([-2, 4], -2)
    assert h2.normal == (1, -2) and h2.offset == 1
    assert Hyperplane([0, 0], 0).is_loop
    with pytest.raises(InvalidHyperplaneError):
        Hyperplane([0, 0], 1)


def test_canonical_form_mod_p():
    h = Hyperplane([2, 4], 6, prime=5)
    assert h.normal == (1, 2) and h.offset == 3
    assert Hyperplane([3, 1], 0, prime=5) == Hyperplane([6, 2], 0, prime=5)


def test_centrality_and_rank(bench):
    assert bench.is_central()
    assert bench.rank == 3
    assert bench.rank_of({0, 1, 2}) == 2  # the dependent triple
    assert bench.rank_of({0, 1, 3}) == 3
    # parallel pair: x=0 and x=1
    arr = Arrangement(2, [([1, 0], 0), ([1, 0], 1)])
    assert not arr.is_central()
    assert arr.rank_normals() == 1  # semimatroid rank of a non-central set
    with pytest.raises(NonCentralError):
        arr.rank_of({0, 1})


def test_classify(bench):
    assert classify(bench, 3) == "coloop"
    assert classify(bench, 0) == "ordinary"
    arr = Arrangement(2, [([0, 0], 0), ([1, 0], 0)])
    assert classify(arr, 0) == "loop"
    assert classify(arr, 1) == "coloop"


def test_delete_contract(bench):
    d = bench.delete(2)
    assert d.n == 3 and d.rank == 3
    c = bench.contract(2)  # contract x-y=0: x=0 and y=0 become one hyperplane
    assert c.dim == 2
    assert c.rank == 2
    with pytest.raises(LoopContractionError):
        Arrangement(1, [([0], 0)]).contract(0)


def test_contract_drops_parallel_images():
    # contracting x=0 sends x=1 to an empty intersection: it disappears
    arr = Arrangement(2, [([1, 0], 0), ([1, 0], 1), ([0, 1], 0)])
    c = arr.contract(0)
    assert c.n == 1  # x=1 dropped, y=0 kept
    assert not c.hyperplanes[0].is_loop


def test_contract_creates_loop():
    arr = Arrangement(2, [([1, 0], 0), ([1, 0], 0)])  # duplicate hyperplane
    c = arr.contract(0)
    assert c.n == 1 and c.hyperplanes[0].is_loop


def _cone(arr):
    """Homogenize into dimension d+1, adding the hyperplane x_{d+1} = 0."""
    out = [(h.normal + (-h.offset,), 0) for h in arr.hyperplanes]
    out.append(((0,) * arr.dim + (1,), 0))
    return Arrangement(arr.dim + 1, out, prime=arr.prime)


def test_cone_and_essentialize(bench):
    from tuttekit.multipoly import MultiPoly
    q = MultiPoly.variable("q")
    # coning multiplies chi by (q - 1)
    cone = _cone(bench)
    assert intersection_poset(cone).char_poly() == \
        (q - 1) * intersection_poset(bench).char_poly()
    # essentialization divides chi by q^(d-r)
    arr = Arrangement(3, [([1, 0, 0], 0), ([1, -1, 0], 0)])
    ess = arr.essentialize()
    assert ess.dim == 2
    assert intersection_poset(arr).char_poly() == \
        q * intersection_poset(ess).char_poly()
    # Tutte polynomial is invariant under both
    assert tutte_subset(ess).tutte == tutte_subset(arr).tutte
    # normals spanning coordinates 1 and 2 of Q^4, the later pivot first:
    # the lineality space is 2-dimensional and coordinates 1, 2 are kept
    arr = Arrangement(4, [([0, 0, 1, 1], 0), ([0, 1, 0, 1], 0),
                          ([0, 1, 1, 2], 0), ([0, 0, 0, 0], 0)])
    ess = arr.essentialize()
    assert ess.dim == 2
    assert [h.normal for h in ess.hyperplanes] == [(0, 1), (1, 0), (1, 1), (0, 0)]
    assert tutte_subset(ess).tutte == tutte_subset(arr).tutte
    loopless = arr.restrict(arr.nonloops())
    assert intersection_poset(loopless).char_poly() == \
        q ** 2 * intersection_poset(loopless.essentialize()).char_poly()


def test_restrict(bench):
    sub = bench.restrict([0, 3])
    assert sub.n == 2 and sub.rank == 2


@pytest.mark.parametrize("query", [
    lambda arr, i: arr.is_central({i}),
    lambda arr, i: arr.rank_normals({i}),
    lambda arr, i: arr.restrict({i}),
    lambda arr, i: arr.delete(i),
    lambda arr, i: arr.contract(i),
    lambda arr, i: closure(arr, {i}),
], ids=["is_central", "rank_normals", "restrict", "delete", "contract", "closure"])
def test_subset_queries_reject_indices_out_of_range(bench, query):
    # -1 would read the last hyperplane and n none; both are out of range
    for i in (-1, bench.n):
        with pytest.raises(IndexError, match="out of range"):
            query(bench, i)
    query(bench, 0)


def test_semimatroid_fingerprint_order_independent(bench):
    shuffled = Arrangement(3, [bench.hyperplanes[i] for i in (3, 1, 0, 2)])
    # fingerprints need not be equal as masks differ, but sizes must match
    assert len(bench.semimatroid()) == len(shuffled.semimatroid())


def test_json_roundtrip(bench):
    again = Arrangement.from_json(bench.to_json())
    assert again.dim == bench.dim
    assert [h.key() for h in again.hyperplanes] == \
        [h.key() for h in bench.hyperplanes]
    h = Arrangement.from_json(
        '{"dim": 2, "hyperplanes": [{"normal": ["1", "-2/3"], "offset": "1/2"}]}')
    assert h.hyperplanes[0].normal == (6, -4) and h.hyperplanes[0].offset == 3
    with pytest.raises(InputFormatError):
        Arrangement.from_json("not json")
    with pytest.raises(InputFormatError):
        Arrangement.from_json('{"hyperplanes": []}')


def test_int_parses_no_integer_string_that_fraction_reads_otherwise():
    # entries that `int` parses skip the Fraction; both must read the same
    # value from every such string: signs, whitespace, underscores and
    # non-ASCII digits
    chars = [chr(c) for c in range(sys.maxunicode + 1)
             if chr(c).isspace() or chr(c).isdecimal()] + list("+-_")
    parsed = 0
    for c in chars:
        for s in (c, c + "7", "7" + c, "1" + c + "2", c + "-3", "+" + c + "4", c + "1_0" + c):
            try:
                value = int(s)
            except ValueError:
                continue
            parsed += 1
            assert Fraction(s) == value, repr(s)
    assert parsed > 1000


def test_integer_strings_parse_as_fractions_did():
    entries = [" 3 ", "+4", "-0", "1_000", "\u0663\u0664", "\u2003-5\u2003", 7, True,
               "1.5", "2/4", 0.25, "1e3"]
    got = Arrangement.from_dict({"dim": len(entries), "hyperplanes": [
        {"normal": entries, "offset": "\u0661"}]})
    want = Arrangement(len(entries), [([Fraction(x) for x in entries], 1)])
    assert got.hyperplanes == want.hyperplanes
    for bad in ("1__0", "0x10", "", "3 4", None, [1]):
        with pytest.raises(InputFormatError):
            Arrangement.from_dict({"dim": 1, "hyperplanes": [{"normal": [bad]}]})


def test_prime_field_roundtrip():
    arr = Arrangement(2, [([1, 1], 0), ([1, 2], 0)], prime=3)
    again = Arrangement.from_json(arr.to_json())
    assert again.prime == 3
    assert [h.key() for h in again.hyperplanes] == \
        [h.key() for h in arr.hyperplanes]


def test_random_contraction_preserves_tutte_identity():
    # T(A) = T(A \ h) + T(A / h) for ordinary h, on random arrangements
    rng = random.Random(5)
    done = 0
    while done < 20:
        arr = random_arrangement(rng, max_n=5, max_d=3)
        ordinary = [i for i in range(arr.n) if classify(arr, i) == "ordinary"]
        if not ordinary:
            continue
        i = rng.choice(ordinary)
        t = tutte_subset(arr).tutte
        assert t == tutte_subset(arr.delete(i)).tutte + \
            tutte_subset(arr.contract(i)).tutte
        done += 1


def _contract_reference(arr, i):
    """Contraction by solving for the pivot, in Fractions over Q and with
    inverses mod p over F_p: the images of the other hyperplanes as
    (normal, offset) pairs, parallel images dropped."""
    h, p = arr.hyperplanes[i], arr.prime
    piv = next(j for j, x in enumerate(h.normal) if x)
    out = []
    for j, g in enumerate(arr.hyperplanes):
        if j == i:
            continue
        if p is None:
            f = Fraction(g.normal[piv], h.normal[piv])
        else:
            f = g.normal[piv] * pow(h.normal[piv], -1, p)
        row = [g.normal[k] - f * h.normal[k] for k in range(arr.dim) if k != piv]
        offset = g.offset - f * h.offset
        if p is not None:
            row, offset = [x % p for x in row], offset % p
        if any(row) or not offset:
            out.append((row, offset))
    return Arrangement(arr.dim - 1, out, prime=p)


@pytest.mark.parametrize("make", [random_arrangement, random_prime_arrangement])
def test_contract_matches_the_pivot_reference(make):
    rng = random.Random(61)
    for _ in range(60):
        arr = make(rng)
        for i in arr.nonloops():
            got, want = arr.contract(i), _contract_reference(arr, i)
            assert (got.dim, got.prime) == (want.dim, want.prime)
            assert got.hyperplanes == want.hyperplanes


@pytest.mark.parametrize("make", [random_arrangement, random_prime_arrangement])
def test_essentialize_keeps_tutte_and_has_dim_rank(make):
    # over Q and F_p, central and affine: the quotient by the lineality
    # space has the same semimatroid, and chi drops the factor q^(d-r)
    q = MultiPoly.variable("q")
    rng = random.Random(67)
    for _ in range(60):
        arr = make(rng)
        ess = arr.essentialize()
        assert ess.prime == arr.prime and ess.n == arr.n
        assert ess.dim == ess.rank == arr.rank
        assert ess.loops() == arr.loops()
        assert tutte_subset(ess).tutte == tutte_subset(arr).tutte
        assert intersection_poset(arr).char_poly() == \
            q ** (arr.dim - arr.rank) * intersection_poset(ess).char_poly()


@pytest.mark.parametrize("text", [
    '{"dim": 2, "hyperplanes": [{"normal": ["1/0", "1"]}]}',
    '{"dim": 2, "hyperplanes": [{"normal": [1e400, 1]}]}',
    '{"dim": 2, "prime": 4, "hyperplanes": [{"normal": [2, 1]}]}',
    '{"dim": 2, "prime": "x", "hyperplanes": [{"normal": [2, 1]}]}',
    '{"dim": 2, "prime": true, "hyperplanes": []}',
    '{"dim": 2, "prime": 5, "hyperplanes": [{"normal": ["1/2", 1]}]}',
    '{"dim": -1, "hyperplanes": []}',
    '{"dim": 2.9, "hyperplanes": [{"normal": ["1", "0"]}]}',
    '{"dim": true, "hyperplanes": [{"normal": ["1"]}]}',
    '{"dim": 1, "hyperplanes": [[1]]}',
    '[1, 2]',
])
def test_malformed_record_is_an_input_format_error(text):
    with pytest.raises(InputFormatError):
        Arrangement.from_json(text)
