from fractions import Fraction

import pytest

from conftest import counts_in_Y
from tuttekit.errors import InconsistentSamplesError
from tuttekit.interpolation import interpolate_in_X
from tuttekit.multipoly import MultiPoly

X = MultiPoly.variable("X")
Y = MultiPoly.variable("Y")


def test_exact_reconstruction():
    # integer-valued at integers, with half-integer coefficients
    target = Fraction(1, 2) * (X ** 2 - X) * Y + 3 * X - Y + 1
    samples = [(p, counts_in_Y(target.substitute({"X": p})))
               for p in (2, 3, 5, 7)]
    got = interpolate_in_X(samples, 2)
    assert got == target
    assert got.vars == ("Y", "X")


def test_counts_without_Y():
    samples = [(0, [1]), (1, [2]), (2, [5])]
    assert interpolate_in_X(samples, 2) == X ** 2 + 1


def test_constant_with_oversample():
    assert interpolate_in_X([(2, [7]), (3, [7])], 0) == 7


def test_oversample_mismatch():
    samples = [(0, [0]), (1, [1]), (2, [3])]  # not linear
    with pytest.raises(InconsistentSamplesError, match="at 2"):
        interpolate_in_X(samples, 1)


def test_duplicate_abscissa():
    with pytest.raises(InconsistentSamplesError, match="duplicate abscissa 2"):
        interpolate_in_X([(2, [1]), (2, [1])], 1)


def test_too_few_samples():
    with pytest.raises(ValueError):
        interpolate_in_X([(1, [1])], 3)


def test_integer_counts_interpolate_as_polynomials():
    # the list [c_0, c_1, ...] stands for sum_k c_k Y^k
    target = 3 * X ** 2 * Y ** 2 - X * Y + 5 * X - 7
    counts = [(p, [5 * p - 7, -p, 3 * p ** 2]) for p in (2, 3, 5, 7)]
    got = interpolate_in_X(counts, 2)
    assert got == target
    assert got.vars == ("Y", "X")
    counts[-1][1][0] += 1
    with pytest.raises(InconsistentSamplesError, match="at 7"):
        interpolate_in_X(counts, 2)


def test_known_top_coefficients_are_subtracted_and_added_back():
    target = 3 * X ** 3 * Y - X ** 2 + 5 * X * Y + 2
    # X^2 and X^3 known: the rest, 5*X*Y + 2, has degree 1, and 7 checks it
    counts = [(p, [2 - p ** 2, 5 * p + 3 * p ** 3]) for p in (2, 3, 7)]
    got = interpolate_in_X(counts, 1, top=[[-1], [0, 3]])
    assert got == target and got.vars == ("Y", "X")
    with pytest.raises(InconsistentSamplesError, match="at 7"):
        interpolate_in_X(counts, 1, top=[[-1], [0, 2]])


def test_degree_bound_minus_one_checks_every_sample_against_the_top():
    # the top is the whole polynomial, so each sample must equal it
    assert interpolate_in_X([(2, [1, 2]), (3, [1, 2])], -1,
                            top=[[1, 2]]) == 1 + 2 * Y
    assert interpolate_in_X([], -1, top=[[0, 1], [1]]) == Y + X
    with pytest.raises(InconsistentSamplesError, match="at 3"):
        interpolate_in_X([(2, [1, 2]), (3, [1, 3])], -1, top=[[1, 2]])
    with pytest.raises(ValueError):
        interpolate_in_X([(2, [1])], -2)
