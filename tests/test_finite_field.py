import random

import pytest

from conftest import random_arrangement
from tuttekit.arrangement import Arrangement
from tuttekit.errors import BadPrimeError, BudgetExceededError
from tuttekit.families import generic
from tuttekit.finite_field import (
    DEFAULT_BUDGET,
    coboundary_ffm,
    hadamard_prime_floor,
    point_profile,
    point_profile_partitioned,
    reduce_mod_p,
    select_primes,
)
from tuttekit.multipoly import MultiPoly
from tuttekit.tutte import char_poly, coboundary_transform, tutte_subset


def test_bench_profile_p5(bench):
    modarr = reduce_mod_p(bench, 5, mode="verified")
    profile = point_profile(modarr)
    assert profile.counts == (48, 60, 12, 4, 1)
    assert profile.csv_row() == "5,48,60,12,4,1"


def test_profile_identity_random():
    # sum_k c_k t^k == p^(d-r) cobchi(p, t), c_0 == chi(p), sum == p^d
    rng = random.Random(41)
    done = 0
    while done < 12:
        arr = random_arrangement(rng, max_n=5, max_d=3)
        try:
            mods = select_primes(arr, 1, reduction="verified")
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
        assert profile.polynomial("Y") == want
        assert sum(profile.counts) == p ** arr.dim
        chi = char_poly(arr, check_whitney=False)
        assert profile.counts[0] == chi.evaluate({"q": p})
        done += 1


def test_bad_prime_witness():
    # x - y = 0 and x + y = 0 collapse mod 2
    arr = Arrangement(2, [([1, -1], 0), ([1, 1], 0)])
    with pytest.raises(BadPrimeError) as err:
        reduce_mod_p(arr, 2, mode="verified")
    assert err.value.witness == [0, 1]
    # the Hadamard floor also rejects 2
    with pytest.raises(BadPrimeError):
        reduce_mod_p(arr, 2, mode="bound-certified")
    # a good prime passes both modes
    assert reduce_mod_p(arr, 3, mode="verified").prime == 3
    floor = hadamard_prime_floor(arr)
    assert reduce_mod_p(arr, floor + 2, mode="bound-certified").prime == floor + 2


def test_hadamard_floor_certifies():
    # any prime above the floor preserves the semimatroid
    rng = random.Random(43)
    from tuttekit.finite_field import _primes_from
    for _ in range(10):
        arr = random_arrangement(rng, max_n=4, max_d=3)
        floor = hadamard_prime_floor(arr)
        p = next(_primes_from(floor + 1))
        reduce_mod_p(arr, p, mode="verified")  # must not raise


def test_partitioned_profile_bit_identical(bench):
    modarr = reduce_mod_p(bench, 7, mode="verified")
    serial = point_profile(modarr)
    for parts in (2, 3, 7):
        merged = point_profile_partitioned(modarr, parts)
        assert merged.counts == serial.counts
        assert merged.prime == serial.prime


def test_budget(bench):
    modarr = reduce_mod_p(bench, 11, mode="verified")
    with pytest.raises(BudgetExceededError) as err:
        point_profile(modarr, budget=100)
    assert err.value.required == 11 ** 3
    with pytest.raises(BudgetExceededError):
        point_profile_partitioned(modarr, 2, budget=100)


def test_no_certified_prime_fits_large_arrangement():
    # 15 hyperplanes are too many for verified reduction, and the Hadamard
    # floor puts every certified prime far above budget^(1/d)
    arr = generic(15, 5)
    with pytest.raises(BudgetExceededError) as err:
        select_primes(arr, 7)
    assert err.value.required == (hadamard_prime_floor(arr) + 1) ** 5
    assert err.value.required > DEFAULT_BUDGET


def test_coboundary_ffm_matches_transform(bench):
    cob = coboundary_ffm(bench)
    assert cob == coboundary_transform(tutte_subset(bench).tutte, bench.rank)


def test_coboundary_ffm_explicit_primes(bench):
    cob = coboundary_ffm(bench, primes=[5, 7, 11, 13, 17])
    assert cob == coboundary_transform(tutte_subset(bench).tutte, bench.rank)
    with pytest.raises(ValueError):
        coboundary_ffm(bench, primes=[5, 7])


def test_coboundary_ffm_random():
    rng = random.Random(47)
    done = 0
    while done < 6:
        arr = random_arrangement(rng, max_n=5, max_d=3)
        if arr.dim >= 3 and hadamard_prime_floor(arr) > 20:
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
    modarr = reduce_mod_p(arr, 3, mode="verified")
    profile = point_profile(modarr)
    # every point lies on the loop; one point also on x=0
    assert profile.counts == (0, 2, 1)
