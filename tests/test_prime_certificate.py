"""Basis multiplicities against the semimatroid walk.

A prime certifies a Q-arrangement when it divides no basis multiplicity
(`Arrangement.basis_multiplicities`).  The reference is the comparison that
names the witness of a rejected prime: the central subsets and their ranks,
walked over Q and over F_p.
"""

import random

import numpy as np
import pytest

from conftest import random_arrangement
from tuttekit import finite_field
from tuttekit import linalg
from tuttekit.arrangement import Arrangement
from tuttekit.errors import BadPrimeError, ConsistencyError
from tuttekit.families import bc, braid, generic, shi
from tuttekit.finite_field import reduce_mod_p

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def _walk_keeps(arr, p):
    """The reference: p kills no normal, and the semimatroid over F_p is the
    one over Q."""
    if any(not any(x % p for x in row[:-1]) for row in arr.rows):
        return False
    return Arrangement(arr.dim, arr.hyperplanes, prime=p).semimatroid() == \
        arr.semimatroid()


def _near_2_31(rng, d, n):
    # entries within 40 of +-2^31, and some small ones
    def entry():
        if rng.random() < 0.3:
            return rng.randint(-2, 2)
        return rng.choice((1, -1)) * (2 ** 31 + rng.randint(-40, 40))
    return [([entry() for _ in range(d)], entry()) for _ in range(n)]


def _lineality(rng, d, n):
    # normals in the span of fewer than d integer vectors
    span = [[rng.randint(-3, 3) for _ in range(d)]
            for _ in range(rng.randint(1, d - 1))]
    hs = []
    while len(hs) < n:
        c = [rng.randint(-2, 2) for _ in span]
        normal = [sum(a * v[i] for a, v in zip(c, span)) for i in range(d)]
        if any(normal):
            hs.append((normal, rng.randint(-3, 3)))
    return hs


def _parallel(rng, d, n):
    # a few directions, each taken with several offsets, some repeated
    dirs = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(rng.randint(1, 3))]
    dirs = [v for v in dirs if any(v)] or [[1] + [0] * (d - 1)]
    return [(rng.choice(dirs), rng.randint(-6, 6)) for _ in range(n)]


def _seeded_arrangements():
    rng = random.Random(2013)
    out = []
    for k in range(520):
        kind = k % 4
        d = rng.randint(1, 5)
        n = rng.randint(0, 6)
        if kind == 0:
            out.append(random_arrangement(rng, max_n=6, max_d=5))
            continue
        if kind == 1:
            hs = _near_2_31(rng, d, n)
        elif kind == 2 and d > 1:
            hs = _lineality(rng, d, n)
        else:
            hs = _parallel(rng, d, n)
        hs = [(a, b if any(a) else 0) for a, b in hs]
        if hs and rng.random() < 0.3:
            hs.append(rng.choice(hs))           # a duplicate row
        if rng.random() < 0.2:
            hs.insert(rng.randint(0, len(hs)), ([0] * d, 0))    # a loop
        out.append(Arrangement(d, hs))
    return out


def test_multiplicities_certify_exactly_the_primes_the_walk_accepts():
    arrs = _seeded_arrangements()
    assert len(arrs) >= 500
    assert {arr.dim for arr in arrs} == {1, 2, 3, 4, 5}
    wide = rejected = 0
    for arr in arrs:
        wide += arr.prime_floor >= 2 ** 31
        for p in PRIMES:
            keeps = _walk_keeps(arr, p)
            assert finite_field._keeps_bases(arr, p) == keeps, (arr.rows, p)
            if keeps:
                assert reduce_mod_p(arr, p).prime == p
            else:
                rejected += 1
                with pytest.raises(BadPrimeError):
                    reduce_mod_p(arr, p)
    # the seeds reach floors past int64 minors and reject a fair share
    assert wide >= 50 and rejected >= 500


@pytest.mark.parametrize("arr", [shi(4), braid(4), bc(3), generic(6, 3)],
                         ids=["shi4", "braid4", "bc3", "generic63"])
def test_families_certify_as_the_walk_does(arr):
    for p in PRIMES:
        assert finite_field._keeps_bases(arr, p) == _walk_keeps(arr, p)


def test_shi_with_lineality_fails_only_at_2_and_3():
    # shi(4) has rank 3 in Q^4: the cone vectors have rank 4 < 5
    arr = shi(4)
    assert arr.rank == 3 and arr.basis_multiplicities == (2, 3)


def test_loops_are_not_cone_vectors():
    # x = 0 and x = 2 differ mod every odd prime; the loops change nothing
    arr = Arrangement(1, [([0], 0), ([1], 0), ([0], 0), ([1], 2)])
    assert arr.basis_multiplicities == (2,)
    assert arr.basis_multiplicities == Arrangement(1, [([1], 0), ([1], 2)]).basis_multiplicities


def test_pivot_minors_overstate_a_multiplicity():
    # 2x + 3y = 0 and e_3 on the pivot columns (x, offset) give det 2, yet
    # the lattice of their columns is Z^2: no prime is bad, 2 included
    arr = Arrangement(2, [([2, 3], 0)])
    assert arr.basis_multiplicities == ()
    assert reduce_mod_p(arr, 2).prime == 2


def test_floors_past_2_31_take_python_ints(monkeypatch):
    dtypes = []
    stack = linalg.det_stack

    def spy(mats):
        dtypes.append(mats.dtype)
        return stack(mats)

    monkeypatch.setattr(linalg, "det_stack", spy)
    big = 2 ** 31 + 11
    arr = Arrangement(2, [([big, 1], 0), ([1, big], 3), ([big, -big + 2], 1),
                          ([5, 7], 2)])
    assert arr.prime_floor >= 2 ** 31
    mults = arr.basis_multiplicities
    assert dtypes and set(dtypes) == {np.dtype(object)}
    for p in PRIMES:
        assert all(m % p for m in mults) == _walk_keeps(arr, p)


def test_a_prime_above_every_multiplicity_is_not_reduced_mod_int64():
    # the divisibility test runs on Python ints: a prime past 2^63, at or
    # below a floor past 2^64, is tested against the multiplicity 2^64
    arr = Arrangement(2, [([1, 0], 0), ([0, 1], 0), ([1, 1], 2 ** 64)])
    p = 10000000000000000051
    assert 2 ** 63 < p <= arr.prime_floor
    assert arr.basis_multiplicities == (2 ** 64,)
    assert reduce_mod_p(arr, p).prime == p


def test_a_prime_above_the_floor_takes_no_multiplicities():
    # shi(4) has the Hadamard floor; a prime above it divides no minor of
    # the rows, so no multiplicity, and none is taken
    arr = shi(4)
    p = next(finite_field._primes_from(arr.prime_floor + 1))
    assert reduce_mod_p(arr, p).prime == p
    assert "basis_multiplicities" not in vars(arr)
    # at or below the floor they are taken
    assert reduce_mod_p(arr, 5).prime == 5
    assert arr.basis_multiplicities == (2, 3)


def test_killed_normal_is_reported_before_the_multiplicities():
    arr = Arrangement(2, [([3, 6], 1), ([1, 0], 0)])
    with pytest.raises(BadPrimeError, match="kills the normal"):
        reduce_mod_p(arr, 3)
    assert "basis_multiplicities" not in vars(arr)


def test_a_certificate_the_walk_contradicts_is_a_consistency_error(monkeypatch):
    # the multiplicities (3, 4) are replaced by (5,), and 5 is at or below
    # the floor, so it is tested against them
    arr = Arrangement(2, [([1, 0], 0), ([0, 1], 0), ([3, 4], 0)])
    assert arr.prime_floor == 6
    monkeypatch.setitem(vars(arr), "basis_multiplicities", (5,))
    with pytest.raises(ConsistencyError):
        reduce_mod_p(arr, 5)
