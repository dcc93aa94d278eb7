"""The budget contract: `errors.charge` and the engines that call it."""

import pytest

import tuttekit
from tuttekit import cli, errors, families, finite_field
from tuttekit.errors import DEFAULT_BUDGET, BudgetExceededError, charge
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
