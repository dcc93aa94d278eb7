from fractions import Fraction

import pytest

from tuttekit.errors import InconsistentSamplesError
from tuttekit.interpolation import interpolate_in_X
from tuttekit.multipoly import MultiPoly

X = MultiPoly.variable("X")
Y = MultiPoly.variable("Y")


def test_exact_reconstruction():
    target = X ** 2 * Y + 3 * X - Y + Fraction(1, 2)
    samples = [(p, target.substitute({"X": p})) for p in (2, 3, 5, 7)]
    assert interpolate_in_X(samples, 2) == target


def test_scalar_values():
    samples = [(0, 1), (1, 2), (2, 5)]
    assert interpolate_in_X(samples, 2) == X ** 2 + 1


def test_constant_with_oversample():
    samples = [(2, MultiPoly.const(7)), (3, MultiPoly.const(7))]
    assert interpolate_in_X(samples, 0) == 7


def test_oversample_mismatch():
    samples = [(0, 0), (1, 1), (2, 3)]  # not linear
    with pytest.raises(InconsistentSamplesError):
        interpolate_in_X(samples, 1)


def test_duplicate_abscissa():
    with pytest.raises(InconsistentSamplesError):
        interpolate_in_X([(2, 1), (2, 1)], 1)


def test_too_few_samples():
    with pytest.raises(ValueError):
        interpolate_in_X([(1, 1)], 3)


def test_fractional_abscissae_and_oversample():
    # abscissae n/d with d > 1, the last one an oversample checked by
    # Horner's rule on n and d
    target = X ** 2 * Y - Fraction(3, 4) * X + 2
    xs = [Fraction(1, 2), Fraction(-2, 3), 3, Fraction(5, 7)]
    samples = [(a, target.substitute({"X": a})) for a in xs]
    assert interpolate_in_X(samples, 2) == target
    samples[-1] = (xs[-1], samples[-1][1] + Y)
    with pytest.raises(InconsistentSamplesError, match="at 5/7"):
        interpolate_in_X(samples, 2)


def test_integer_counts_interpolate_as_polynomials():
    # lists of the coefficients of Y give the same fit as the polynomials
    target = 3 * X ** 2 * Y ** 2 - X * Y + 5 * X - 7
    samples = [(p, target.substitute({"X": p})) for p in (2, 3, 5, 7)]
    counts = [(p, [5 * p - 7, -p, 3 * p ** 2]) for p, _ in samples]
    got = interpolate_in_X(counts, 2)
    assert got == interpolate_in_X(samples, 2) == target
    assert got.vars == ("Y", "X")
    # a list may stand beside polynomials in other variables
    mixed = [(p, v if p < 5 else vals)
             for (p, v), (_, vals) in zip(samples, counts)]
    assert interpolate_in_X(mixed, 2) == target
    counts[-1][1][0] += 1
    with pytest.raises(InconsistentSamplesError, match="at 7"):
        interpolate_in_X(counts, 2)
    with pytest.raises(InconsistentSamplesError, match="duplicate"):
        interpolate_in_X([(2, [1]), (2, [1])], 1)
    # a list stands for a polynomial in Y, so Y cannot be interpolated in
    with pytest.raises(ValueError, match="must not contain Y"):
        interpolate_in_X([(2, [1]), (3, [1])], 1, var="Y")


def test_known_top_coefficients_are_subtracted_and_added_back():
    target = 3 * X ** 3 * Y - X ** 2 + 5 * X * Y + 2
    xs = [2, Fraction(1, 3), 5]
    samples = [(a, target.substitute({"X": a})) for a in xs]
    # X^2 and X^3 known: the rest, 5*X*Y + 2, has degree 1, and 5 checks it
    assert interpolate_in_X(samples, 1, top=[-1, 3 * Y]) == target
    counts = [(p, [2 - p ** 2, 5 * p + 3 * p ** 3]) for p in (2, 3, 7)]
    got = interpolate_in_X(counts, 1, top=[[-1], [0, 3]])
    assert got == target and got.vars == ("Y", "X")
    with pytest.raises(InconsistentSamplesError, match="at 5"):
        interpolate_in_X(samples, 1, top=[-1, 2 * Y])


def test_degree_bound_minus_one_checks_every_sample_against_the_top():
    # the top is the whole polynomial, so each sample must equal it
    assert interpolate_in_X([(2, [1, 2]), (3, [1, 2])], -1,
                            top=[[1, 2]]) == 1 + 2 * Y
    assert interpolate_in_X([], -1, top=[[0, 1], [1]]) == Y + X
    with pytest.raises(InconsistentSamplesError, match="at 3"):
        interpolate_in_X([(2, [1, 2]), (3, [1, 3])], -1, top=[[1, 2]])
    with pytest.raises(ValueError):
        interpolate_in_X([(2, 1)], -2)
