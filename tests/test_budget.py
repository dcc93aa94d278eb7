"""The budget contract: `errors.charge` and the engines that call it."""

import pytest

import tuttekit
from tuttekit import cli, errors, families, finite_field
from tuttekit.arithmetic import VectorConfig, arithmetic_tutte, toric_point_profile
from tuttekit.arrangement import Arrangement
from tuttekit.errors import DEFAULT_BUDGET, BudgetExceededError, charge
from tuttekit.finite_field import coboundary_ffm, point_profile, reduce_mod_p, select_primes
from tuttekit.poset import intersection_poset
from tuttekit.tutte import tutte_delcon, tutte_subset

WHAT = "the walk needs at least %d steps"


@pytest.mark.parametrize("required", [0, 1, 10 ** 30])
def test_no_bound_never_raises(required):
    assert charge(required, None, WHAT) is None


@pytest.mark.parametrize("budget", [0, 1, 7, 10 ** 30])
def test_a_total_equal_to_the_budget_fits(budget):
    charge(budget, budget, WHAT)
    charge(budget - 1, budget, WHAT)


@pytest.mark.parametrize("budget", [0, 1, 7, 10 ** 30])
def test_one_unit_over_the_budget_raises_with_the_total(budget):
    with pytest.raises(BudgetExceededError) as err:
        charge(budget + 1, budget, WHAT)
    assert err.value.required == budget + 1
    assert str(err.value) == "the walk needs at least %d steps, over the budget %d" % (
        budget + 1, budget)
    assert err.value.code == "budget-exceeded"


def test_one_default_budget_everywhere():
    assert DEFAULT_BUDGET == 10 ** 8
    assert tuttekit.DEFAULT_BUDGET is finite_field.DEFAULT_BUDGET is DEFAULT_BUDGET
    assert cli.DEFAULT_BUDGET is DEFAULT_BUDGET


def test_engines_with_a_running_total_take_no_bound():
    arr = families.braid(4)
    want = tutte_subset(arr).tutte
    assert tutte_subset(arr, budget=None).tutte == want
    assert tutte_delcon(arr, budget=None).tutte == want
    assert intersection_poset(arr, budget=None).char_poly() == \
        intersection_poset(arr).char_poly()
    assert families.generic(5, 3, None).n == 5
    assert families.thicken(arr, 2, None).n == 12


# (1, 2) makes the rows neither graphic nor signed-graphic, so their prime
# floor is a Hadamard bound, 3, and a prime there is certified by taking the
# basis multiplicities
NON_GRAPHIC = Arrangement(2, [([1, 0], 0), ([0, 1], 0), ([1, 2], 0)])


@pytest.mark.parametrize("call", [
    lambda budget: arithmetic_tutte(VectorConfig(1, [[1]]), budget),
    lambda budget: toric_point_profile(VectorConfig(1, [[1]]), 2, budget),
    lambda budget: [m.prime for m in select_primes(families.braid(3), 1, budget)],
    lambda budget: coboundary_ffm(families.braid(4), budget=budget),
    lambda budget: point_profile(reduce_mod_p(families.braid(3), 5), budget).counts,
    lambda budget: reduce_mod_p(NON_GRAPHIC, NON_GRAPHIC.prime_floor, budget).rows,
], ids=["arithmetic_tutte", "toric_point_profile", "select_primes", "coboundary_ffm",
        "point_profile", "reduce_mod_p_at_the_floor"])
def test_power_and_minor_checks_take_no_bound(call):
    assert call(None) == call(DEFAULT_BUDGET)
