"""The integer-table core against the MultiPoly ring formulas it replaced.

Each reference below is the former implementation, kept here verbatim in
substance: it builds the same polynomial from MultiPoly products, powers,
substitutions and exact division.  The table versions must return equal
polynomials that also print the same text (the variable order decides the
printed order of factors and the tie-breaks between terms).
"""

import random
from fractions import Fraction

import pytest

from conftest import counts_in_Y, random_arrangement, random_prime_arrangement
from tuttekit import finite_field
from tuttekit.errors import InconsistentSamplesError
from tuttekit.families import bc, braid, catalan, dn, shi
from tuttekit.finite_field import coboundary_ffm
from tuttekit.interpolation import interpolate_in_X
from tuttekit.multipoly import MultiPoly
from tuttekit.poset import intersection_poset
from tuttekit.tutte import (
    ActivityCertificate,
    coboundary_transform,
    scalar_invariants,
    tutte_activity,
    tutte_from_coboundary,
    tutte_subset,
    whitney_char,
)

# -- the former MultiPoly formulas ------------------------------------------


def ref_coboundary_transform(tutte, r):
    X = MultiPoly.variable("X")
    Y = MultiPoly.variable("Y")
    total = MultiPoly.zero()
    for i in range(tutte.degree("x") + 1):
        ci = tutte.coefficient("x", i)
        ci = ci.substitute({"y": Y}) if "y" in ci.vars else ci
        total = total + ci * (X + Y - 1) ** i * (Y - 1) ** (r - i)
    return total


def ref_tutte_from_coboundary(cob, r):
    x = MultiPoly.variable("x")
    s = MultiPoly.variable("_s")
    sub = {}
    if "X" in cob.vars:
        sub["X"] = (x - 1) * s
    if "Y" in cob.vars:
        sub["Y"] = s + 1
    shifted = cob.substitute(sub) if sub else cob
    try:
        shifted = shifted.div_exact_var("_s", r) if r else shifted
    except ValueError:
        raise ValueError("inconsistent coboundary/rank pair: division not exact")
    if "_s" in shifted.vars:
        shifted = shifted.substitute({"_s": MultiPoly.variable("y") - 1})
    return shifted


def ref_whitney_char(arrangement, tutte):
    q = MultiPoly.variable("q")
    r = arrangement.rank
    sub = {v: w for v, w in (("x", 1 - q), ("y", MultiPoly.const(0)))
           if v in tutte.vars}
    spec = tutte.substitute(sub) if sub else tutte
    return spec * q ** (arrangement.dim - r) * Fraction((-1) ** r)


def ref_char_poly(poset):
    if poset.arrangement.loops():
        return MultiPoly.zero()
    q = MultiPoly.variable("q")
    total = MultiPoly.zero()
    for f in poset.flats:
        total = total + poset.mobius[f.hyperplane_set] * q ** f.dim
    return total


def ref_activity_polynomial(records):
    x = MultiPoly.variable("x")
    y = MultiPoly.variable("y")
    total = MultiPoly.zero()
    for _, i, e in records:
        total = total + x ** i * y ** e
    return total


def ref_poincare(chi, d):
    q = MultiPoly.variable("q")
    poincare = MultiPoly.zero()
    for k in range(chi.degree("q") + 1):
        c = chi.coefficient("q", k).constant_value()
        poincare = poincare + c * Fraction((-1) ** (d - k)) * q ** (d - k)
    return poincare


def ref_interpolate_in_X(samples, degree_bound, var="X"):
    pts = [(Fraction(a), MultiPoly.const(v) if isinstance(v, (int, Fraction))
            else v) for a, v in samples]
    need = degree_bound + 1
    base, extra = pts[:need], pts[need:]
    x = MultiPoly.variable(var)
    result = MultiPoly.zero()
    for j, (xj, vj) in enumerate(base):
        lj = MultiPoly.const(1)
        for k, (xk, _) in enumerate(base):
            if k != j:
                lj = lj * (x - xk) / (xj - xk)
        result = result + vj * lj
    for xe, ve in extra:
        fitted = result.substitute({var: xe}) if var in result.vars else result
        if fitted != ve:
            raise InconsistentSamplesError(
                "oversample at %s disagrees with the interpolant "
                "(wrong degree bound or bad prime)" % xe)
    return result


def same(got, want):
    assert got == want
    assert str(got) == str(want)


# -- inputs -------------------------------------------------------------------

def _families():
    out = []
    for n in range(2, 6):
        out += [braid(n), bc(n), dn(n), shi(n), catalan(n)]
    out.append(bc(1))
    return out


FAMILIES = _families()


def _random_inputs():
    rng = random.Random(61)
    arrs = [random_arrangement(rng, max_n=7, max_d=4) for _ in range(40)]
    arrs += [random_prime_arrangement(rng) for _ in range(25)]
    return arrs


RANDOM = _random_inputs()


def _check_transforms(arr, tutte):
    r = arr.rank
    cob = coboundary_transform(tutte, r)
    same(cob, ref_coboundary_transform(tutte, r))
    same(tutte_from_coboundary(cob, r), ref_tutte_from_coboundary(cob, r))
    same(whitney_char(arr, tutte), ref_whitney_char(arr, tutte))
    poset = intersection_poset(arr)
    chi = poset.char_poly()
    same(chi, ref_char_poly(poset))
    inv = scalar_invariants(arr, tutte)
    same(inv["complement_size"], chi)
    same(inv["poincare"], ref_poincare(chi, arr.dim))


@pytest.mark.parametrize("arr", RANDOM, ids=repr)
def test_random_arrangements_match_the_ring_formulas(arr):
    tutte = tutte_subset(arr).tutte
    _check_transforms(arr, tutte)
    result, cert = tutte_activity(arr)
    same(result.tutte, ref_activity_polynomial(cert.records))


@pytest.mark.parametrize("arr", FAMILIES, ids=repr)
def test_families_match_the_ring_formulas(arr):
    # the flat lattice gives the Tutte polynomial without a 2^n walk
    cob = intersection_poset(arr).coboundary()
    tutte = tutte_from_coboundary(cob, arr.rank)
    same(tutte, ref_tutte_from_coboundary(cob, arr.rank))
    _check_transforms(arr, tutte)


def test_activity_polynomial_keeps_the_order_of_first_appearance():
    # a term-by-term sum names y first when y^e precedes every x^i
    rng = random.Random(7)
    for _ in range(200):
        records = [((), rng.randint(0, 2), rng.randint(0, 2))
                   for _ in range(rng.randint(0, 6))]
        same(ActivityCertificate(records).polynomial(),
             ref_activity_polynomial(records))


@pytest.mark.parametrize("arr", RANDOM[:40] + FAMILIES[:10], ids=repr)
def test_interpolation_matches_the_lagrange_products(arr):
    # RANDOM[:40] are the arrangements over Q
    cob = intersection_poset(arr).coboundary()
    r = arr.rank
    xs = [2, 3, 5, 7, 11, 13, 17][:r + 2]
    samples = [(p, cob.substitute({"X": p}) if "X" in cob.vars else cob)
               for p in xs]
    counts = [(p, counts_in_Y(v)) for p, v in samples]
    same(interpolate_in_X(counts, r), ref_interpolate_in_X(samples, r))


def test_interpolation_random_integer_data():
    rng = random.Random(11)
    X = MultiPoly.variable("X")
    outcomes = set()
    for _ in range(80):
        deg = rng.randint(0, 4)
        xs = rng.sample(range(-9, 10), deg + rng.randint(1, 3))
        target = MultiPoly(("Y",), {
            (rng.randint(0, 3),): rng.randint(-4, 4)
            for _ in range(3)}) if rng.random() < 0.7 else MultiPoly.zero()
        for e in range(deg + 1):
            target = target + rng.randint(-5, 5) * X ** e
        samples = [(a, target.substitute({"X": a}) if "X" in target.vars
                    else target) for a in xs]
        if rng.random() < 0.4:  # spoil one sample
            k = rng.randrange(len(xs))
            samples[k] = (xs[k], samples[k][1] + rng.choice([-2, -1, 1, 2]))
        counts = [(a, counts_in_Y(v)) for a, v in samples]
        try:
            want = ref_interpolate_in_X(samples, deg)
        except InconsistentSamplesError as exc:
            outcomes.add("mismatch")
            with pytest.raises(InconsistentSamplesError) as got:
                interpolate_in_X(counts, deg)
            assert str(got.value) == str(exc)
            continue
        outcomes.add("fit")
        same(interpolate_in_X(counts, deg), want)
    assert outcomes == {"fit", "mismatch"}


def test_inverse_transform_rejects_what_the_division_rejected():
    rng = random.Random(19)
    Y = MultiPoly.variable("Y")
    X = MultiPoly.variable("X")
    cases = [(coboundary_transform(MultiPoly.variable("x") ** 2, 2) + 1, 2)]
    for arr in RANDOM[:20]:
        r = arr.rank
        if r == 0:
            continue
        cob = coboundary_transform(tutte_subset(arr).tutte, r)
        k, a = rng.randint(0, 3), rng.randint(0, r - 1)
        cases.append((cob + Y ** k * X ** a, r))
    for cob, r in cases:
        with pytest.raises(ValueError) as want:
            ref_tutte_from_coboundary(cob, r)
        with pytest.raises(ValueError) as got:
            tutte_from_coboundary(cob, r)
        assert str(got.value) == str(want.value)


def test_oversample_mismatch_is_reported_before_non_integer_coefficients(
        bench, monkeypatch):
    count = finite_field.point_profile
    first = []

    def corrupted(modarr, *args, **kwargs):
        # move one fibre of points from c_0 to c_1 at the first prime: the
        # sum and the divisibility by p^(d-r) still hold
        counts = list(count(modarr, *args, **kwargs).counts)
        if not first or first[0] == modarr.prime:
            first[:] = [modarr.prime]
            counts[0] -= 1
            counts[1] += 1
        return finite_field.PointProfile(modarr.prime, counts)

    monkeypatch.setattr(finite_field, "point_profile", corrupted)
    # bench is central of rank 3: the top two coefficients are known and
    # cobchi(1, t) = t^n, so the rest, of degree r - 2, needs r - 2 primes
    r = bench.rank
    with pytest.raises(InconsistentSamplesError, match="non-integer"):
        coboundary_ffm(bench, primes=[5, 7, 11, 13][:r - 2])
    first.clear()
    with pytest.raises(InconsistentSamplesError,
                       match="oversample at .* disagrees"):
        coboundary_ffm(bench, primes=[5, 7, 11, 13, 17][:r - 1])
