"""The finite field method: point counting over F_p^d plus interpolation.

For a prime p over which the arrangement reduces correctly, `reduce_mod_p`
gives the reduced arrangement, an `Arrangement` over F_p whose rows are the
rational rows reduced mod p and normalised, and its profile
(c_0, ..., c_n) with c_k = #{points lying on exactly k hyperplanes} satisfies
sum_k c_k t^k = p^(d-r) cobchi(A; p, t).  Not every coefficient needs a
count: cobchi is a sum over central subsets (Crapo; Ardila 2007), so its
coefficients of q^r and q^(r-1) come from the loops and the classes of equal
rows, and a central arrangement has cobchi(1, t) = t^n.  Counts at r - 1
primes (r for an affine arrangement, one extra as a consistency witness)
give the rest by interpolation in the first coboundary variable.

A prime is certified by one rule (`reduce_mod_p`): it must divide no
multiplicity m(B) of a basis B of the cone vectors, which holds exactly when
reduction keeps the semimatroid (`Arrangement.basis_multiplicities`, the
maximal minors of one integer matrix, computed once per arrangement, so a
small prime is certified without walking any subsets).  A prime above
`Arrangement.prime_floor` divides no nonzero minor of [normals | offsets],
so none of the m(B) either, and is certified without them.  The rows of
braid, graphical, BC, D and threshold arrangements have at most two nonzero
entries, all +-1; the floor is 2 for them, and 1 when the rows are graphic,
so the smallest primes serve.  Other rows have their floor at the Hadamard
bound.  `select_primes` takes the smallest primes above the floor, unless
the arrangement is small and p^d at the first of them exceeds the budget or
one scatter block; a small arrangement fills the slots left with the
smallest primes that divide no m(B).

Point counting is the performance-critical kernel.  Its work per prime
grows with p^r, and with p^(r-1) for a central arrangement, not with p^d:
- translation by the lineality space (the common kernel of the normals
  mod p) maps every hyperplane to itself, so the points are counted in the
  quotient F_p^r, whose coordinates are the pivot columns of the normals
  (`Arrangement.essentialize`), and each point stands for p^(d-r) points;
- in a central arrangement x and c*x (c != 0) lie on the same hyperplanes,
  so the slices x_1 = c != 0 all have the profile of x_1 = 1, which leaves
  one affine slice per dimension;
- on a line each hyperplane meets one point, so a line is counted from
  the roots alone, in O(n) whatever p is;
- a larger affine slice is counted from its incidences in one pass over
  its coordinates: the hyperplanes are sorted by their last nonzero
  coordinate x_j, and each is solved for x_j over the grid of the
  coordinates before it, carried as that grid grows one coordinate at a
  time, so it costs p^j values; one bincount of a group's solutions, added
  across the runs of points they fix, marks an incidence array of bytes
  with the number of hyperplanes through each point, which is read back at
  the hyperplanes' points only; a point on exactly j hyperplanes is met j
  times there, so the histogram of those reads divided by j is the
  profile; a solution outside [0, p) would put two of a hyperplane's
  points together and is raised; a space of more than a fixed block of
  points or incidences is cut along its first coordinate, so peak memory
  does not grow with n, r or p.
The budget is charged the points the count visits: (p^r - 1)/(p - 1) when
every offset is 0, and p^r otherwise.
"""

from bisect import bisect_right
from collections import Counter
from math import comb
from operator import itemgetter

import numpy as np

from .arrangement import Arrangement
from .errors import (
    DEFAULT_BUDGET,
    BadPrimeError,
    BudgetExceededError,
    ConsistencyError,
    InconsistentSamplesError,
    MethodError,
)
from .interpolation import interpolate_in_X
from .linalg import is_prime, normalise_row, pivot_columns, power_fits


class PointProfile:
    """Counts (c_0, ..., c_n) of points by number of incident hyperplanes.

    They are held as c_k = quotient[k] * p^lift: a profile counted in the
    quotient by the lineality space has lift d - r, and the fibre p^(d-r)
    is multiplied in only when `counts` is read.
    """

    __slots__ = ("prime", "quotient", "lift")

    def __init__(self, prime, counts, lift=0):
        self.prime = prime
        self.quotient = tuple(int(c) for c in counts)
        self.lift = lift

    @property
    def counts(self):
        fibre = self.prime ** self.lift
        return tuple(c * fibre for c in self.quotient)


def _central(rows):
    """Every offset of the rows (normal..., offset) is 0: the test by which
    `_count` shares one profile among the slices y_1 = c != 0, and so the
    one by which the count is charged."""
    return not any(row[-1] for row in rows)


def _count_charge(p, r, central):
    """The points a count over F_p^r visits, which is what the budget is
    charged: (p^r - 1)/(p - 1) when the rows are `_central`, since the
    slices y_1 = c != 0 share one profile (see `_count`), and p^r
    otherwise."""
    return (p ** r - 1) // (p - 1) if central else p ** r


def _charge_fits(p, r, central, budget):
    """_count_charge(p, r, central) <= budget (None: no bound), with no power
    formed past the budget."""
    return budget is None or power_fits(p, r, budget * (p - 1) + 1 if central else budget)


def _primes_from(start):
    """Yield primes >= start."""
    m = max(2, start)
    while True:
        if is_prime(m):
            yield m
        m += 1


def reduce_mod_p(arrangement, p, budget=DEFAULT_BUDGET):
    """The arrangement over F_p that a Q-arrangement reduces to, certified.

    p must divide no basis multiplicity m(B) of the cone vectors
    (`Arrangement.basis_multiplicities`), which holds exactly when the
    semimatroid (centrality and rank of every subset) over F_p equals the
    rational one.  A p above `Arrangement.prime_floor` divides none of them
    and is certified without taking them; at or below the floor, taking them
    is charged to the budget (see `_keeps_bases`).  A rejected p is reported
    with a witness, the first subset, by mask, on which the two semimatroids
    differ; only then are they walked, each walk charged to the budget as
    well.
    The reduction's rows are the arrangement's canonical rows reduced mod p
    and normalised (`linalg.normalise_row`), one pass over the table with
    no second canonicalisation; loops, the zero rows, stay loops.  A p that
    is not prime, or that kills the normal of a non-loop (read off its
    reduced row), is rejected before the reduction is certified.
    """
    if arrangement.prime is not None:
        raise ValueError("arrangement is already over a finite field")
    if not is_prime(p):
        raise BadPrimeError("p=%d is not prime" % p)
    rows = [normalise_row(row, p) for row in arrangement.hyperplanes]
    for row, image in zip(arrangement.hyperplanes, rows):
        if any(row) and not any(image[:-1]):
            raise BadPrimeError("p=%d kills the normal of %s" % (p, row))
    reduced = Arrangement._of_rows(arrangement.dim, rows, p)
    if p <= arrangement.prime_floor and not _keeps_bases(arrangement, p, budget):
        want = dict(arrangement.semimatroid(budget))
        got = dict(reduced.semimatroid(budget))
        differ = [m for m in want.keys() | got.keys() if want.get(m) != got.get(m)]
        if not differ:
            raise ConsistencyError(
                "p=%d divides a basis multiplicity but keeps the semimatroid" % p)
        mask = min(differ)
        raise BadPrimeError(
            "p=%d changes the semimatroid" % p,
            witness=[i for k, i in enumerate(arrangement.nonloops()) if mask >> k & 1])
    return reduced


def _keeps_bases(arrangement, p, budget=DEFAULT_BUDGET):
    """Reduction mod the prime p keeps the semimatroid of a Q-arrangement:
    p divides none of its `Arrangement.basis_multiplicities`.

    Those are maximal minors of an (n' + 1) x (r + 1) matrix for n' non-loops
    of rank r, and the budget is charged their C(n' + 1, r + 1) before they
    are taken.
    """
    minors = comb(len(arrangement.rows) + 1, arrangement.rank + 1)
    if budget is not None and minors > budget:
        raise BudgetExceededError(
            "the %d maximal minors of the basis multiplicities exceed the "
            "enumeration budget %d" % (minors, budget), required=minors)
    return all(m % p for m in arrangement.basis_multiplicities)


# Largest number of points, and of incidences, in one scatter; a larger
# space is cut into slices along its first coordinate, so peak memory stays
# O(_BLOCK) whatever n, r and p are.
_BLOCK = 1 << 18


def _slice(rows, c, p):
    """The rows restricted to the slice y_1 = c, over the remaining coordinates."""
    return [(a[1:], (b - a[0] * c) % p) for a, b in rows]


def _solutions(rows, p):
    """Yield (j, x) per last nonzero coordinate j of the rows, in increasing
    j: the m rows whose last nonzero coordinate is x_j, solved for it, as an
    (m, p^j) array with x[r, g] the value of x_j on row r at the point g of
    the grid F_p^j of the coordinates before it (the first coordinate most
    significant).

    The rows are sorted by j once and solved for x_j = b' - sum_(i<j) a'_i
    x_i (a' = a / a_j) in one pass: every row not yet yielded carries its
    partial sum over the grid as the grid grows one coordinate at a time,
    and the rows whose last nonzero coordinate is the next one drop out.
    Each partial sum is below 2p, so the smaller of s and s - p in an
    unsigned type wraps it where an integer % would divide.
    """
    solved = []
    for a, b in rows:
        j = len(a) - 1
        while not a[j]:
            j -= 1
        neg = p - pow(a[j], -1, p)      # -1 / a_j
        solved.append((j, [-b * neg % p] + [x * neg % p for x in a]))
    solved.sort(key=itemgetter(0))
    last = [j for j, _ in solved]
    coeffs = np.array([c for _, c in solved], dtype=np.int64)
    # steps[r, i, x] = a'_i x mod p: the term of coordinate i at x_i = x
    wrap = np.min_scalar_type(2 * p)
    steps = (coeffs[:, 1:, None] * np.arange(p) % p).astype(wrap)
    x = coeffs[:, :1].astype(wrap)
    start = 0
    for j in range(last[-1]):
        stop = bisect_right(last, j, start)
        if stop > start:
            yield j, x[:stop - start]
        x = (x[stop - start:, :, None] + steps[stop:, j, None, :]).reshape(
            len(last) - stop, -1)
        x = np.minimum(x, x - p)
        start = stop
    yield last[-1], x


def _scatter(rows, p, k, counts):
    """Add the profile over F_p^k of rows whose normals are all nonzero.

    A row solved for its last nonzero coordinate x_j (`_solutions`) fixes
    the first j + 1 coordinates of its points at p^j heads, each the start
    of a run of p^(k-1-j) points.  One bincount of a group's heads, added
    across the runs, marks each point of an incidence array with the number
    of the group's rows through it.  The array is read back at every row's
    points, one gather per group, and one bincount of all the reads is the
    histogram h, in which a point on exactly j rows is met j times: h_j =
    j c_j, and c_0 is what is left of p^k.  Solving and reading grow with
    the n p^(k-1) incidences; marking is one pass over the p^k points per
    group.  A row's heads are distinct exactly when its solved values lie
    in [0, p); one that does not would count a point twice, and is raised.
    """
    inc = np.zeros(p ** k, dtype=np.min_scalar_type(len(rows)))
    groups = []
    for j, x in _solutions(rows, p):
        if x.max() >= p:    # x is unsigned: its minimum is at least 0
            raise ConsistencyError(
                "a row's points coincide over F_%d^%d: a solved coordinate "
                "lies outside [0, %d)" % (p, k, p))
        # runs[h] is the run of points whose first j + 1 coordinates index h
        runs = inc.reshape(p ** (j + 1), -1)
        heads = (np.arange(0, p ** (j + 1), p) + x).ravel()
        marks = np.bincount(heads, minlength=len(runs)).astype(inc.dtype)
        runs += marks[:, None]
        groups.append((runs, heads))
    reads = [runs.take(heads, axis=0).ravel() for runs, heads in groups]
    met = np.bincount(np.concatenate(reads)).tolist()
    rest = p ** k
    for j, h in enumerate(met[1:], 1):
        c, bad = divmod(h, j)
        if bad:
            raise ConsistencyError(
                "%d incidences over F_%d^%d lie at points on %d hyperplanes, "
                "not a multiple of %d" % (h, p, k, j, j))
        counts[j] += c
        rest -= c
    counts[0] += rest


def _affine(rows, p, k, counts):
    """Add to counts[j] the number of points of F_p^k on exactly j rows.

    On a line each row meets one point, its root; a larger space is
    scattered whole when its points and incidences fit in a block, and is
    cut along its first coordinate otherwise.
    """
    live, shift = [], 0
    for a, b in rows:
        if any(a):
            live.append((a, b))
        elif not b:
            shift += 1          # a zero row holds everywhere
    counts = counts[shift:]     # a view: index j now stands for shift + j
    if not live:                # as at k = 0
        counts[0] += p ** k
    elif k == 1:
        roots = Counter(b * pow(a, -1, p) % p for (a,), b in live)
        counts[0] += p - len(roots)
        for m in roots.values():
            counts[m] += 1
    elif p ** k <= _BLOCK and len(live) * p ** (k - 1) <= _BLOCK:
        _scatter(live, p, k, counts)
    else:
        for c in range(p):
            _affine(_slice(live, c, p), p, k - 1, counts)


def _count(rows, p, k, counts):
    """Add the profile of the points of F_p^k.

    A central arrangement puts y and c*y (c != 0) on the same rows, so every
    slice y_1 = c != 0 has the profile of y_1 = 1, and y_1 = 0 is the
    central arrangement one dimension down.
    """
    if k == 0 or not _central(rows):
        _affine(rows, p, k, counts)
        return
    line = np.zeros_like(counts)
    _affine(_slice(rows, 1, p), p, k - 1, line)
    counts += (p - 1) * line
    _count(_slice(rows, 0, p), p, k - 1, counts)


def _quotient(arrangement, budget):
    """(r, rows): the quotient by the lineality space, as its dimension r and
    the (normal, offset) rows of the non-loops, after charging the points its
    count visits to the budget (`_count_charge`).

    The normals are cut to their pivot columns, the coordinates of the
    quotient (see `Arrangement.essentialize`); a non-loop keeps a nonzero
    normal there, since the pivot columns span the others.
    """
    p = arrangement.prime
    rows = arrangement.rows
    pivots = pivot_columns([row[:-1] for row in rows], p)
    r = len(pivots)
    central = _central(rows)
    if not _charge_fits(p, r, central, budget):
        charge = _count_charge(p, r, central)
        raise BudgetExceededError(
            "%s = %d exceeds the enumeration budget %d"
            % ("(p^r - 1)/(p - 1)" if central else "p^r", charge, budget),
            required=charge)
    return r, [([row[j] for j in pivots], row[-1]) for row in rows]


def point_profile(arrangement, budget=DEFAULT_BUDGET):
    """Exact incidence counts over F_p^d of an arrangement over F_p.

    The points are counted in the quotient F_p^r by the lineality space
    (see `_quotient`); each count stands for the fibre of p^(d-r) points,
    the profile's lift.  The totals are Python ints (a numpy array of
    objects), which stay exact when p^r outgrows 64 bits.
    """
    r, rows = _quotient(arrangement, budget)
    counts = np.zeros(len(rows) + 1, dtype=object)
    _count(rows, arrangement.prime, r, counts)
    return PointProfile(arrangement.prime,
                        [0] * (arrangement.n - len(rows)) + list(counts),
                        arrangement.dim - r)


def check_profile(profile, arrangement, chi=None):
    """Invariant checks: counts sum to p^d; t=0 slice equals chi(p) if given.

    The sum is compared before the lift, with p^(d - lift).
    """
    p, lift = arrangement.prime, profile.lift
    if sum(profile.quotient) != p ** (arrangement.dim - lift):
        raise InconsistentSamplesError("profile counts do not sum to p^d")
    if chi is not None and \
            profile.quotient[0] * p ** lift != chi.evaluate({"q": p}):
        raise InconsistentSamplesError("complement count disagrees with chi(p)")
    return True


def select_primes(arrangement, count, budget=DEFAULT_BUDGET):
    """Choose `count` certified primes (see `reduce_mod_p`), smallest first.

    The primes above `Arrangement.prime_floor` come first: from 2 for graphic
    rows, from 3 for signed-graphic ones, and above the Hadamard bound
    otherwise.  A prime fits while the points its count visits
    (`_count_charge`) fit the budget.  A small arrangement (at most 14
    non-loops) takes them only when p^d fits both the budget and one scatter
    block (`_BLOCK`) at the first of them, p; it fills the slots left with
    the smallest primes that divide no basis multiplicity, which are no
    larger than those above a Hadamard bound.  Each of those is tested
    against the multiplicities before it is reduced, so a rejected one costs
    no walk.
    """
    r = arrangement.rank
    floor = arrangement.prime_floor
    small = len(arrangement.rows) <= 14
    central = _central(arrangement.rows)
    p = floor + 1
    if small:
        # p^d at the first prime above the floor; no prime is sought when
        # floor + 1 already does not fit
        d, cap = arrangement.dim, _BLOCK if budget is None else min(budget, _BLOCK)
        above = _charge_fits(p, d, False, cap) and \
            _charge_fits(next(_primes_from(p)), d, False, cap)
    else:
        above = _charge_fits(p, r, central, budget)
    out = []
    if above:
        for p in _primes_from(p):
            if not _charge_fits(p, r, central, budget):
                break
            out.append(reduce_mod_p(arrangement, p, budget))
            if len(out) == count:
                return out
    # the charge exceeds the budget and larger primes only get worse
    if not small:
        raise BudgetExceededError(
            "no certified prime fits the enumeration budget",
            required=_count_charge(p, r, central))
    taken = {m.prime for m in out}
    for p in _primes_from(2):
        if p in taken:
            continue
        if not _charge_fits(p, r, central, budget):
            raise BudgetExceededError(
                "cannot find %d verified primes within the budget" % count,
                required=_count_charge(p, r, central))
        if _keeps_bases(arrangement, p, budget):
            out.append(reduce_mod_p(arrangement, p, budget))
            if len(out) == count:
                return out


def _known_top(arrangement):
    """The coefficients of X^(r-1) and X^r in cobchi(X, Y), as integer
    coefficient lists in Y, with no count.

    cobchi is the sum over central subsets S of X^(r - r(S)) (Y - 1)^|S|
    (Crapo; Ardila 2007).  The subsets of rank 0 are the sets of loops, which
    give Y^loops.  Those of rank 1 add a nonempty set of rows on one
    hyperplane, and the rows are canonical, so a class C of equal non-loop
    rows gives Y^loops (Y^|C| - 1).
    """
    loops = arrangement.n - len(arrangement.rows)
    below = [0] * (arrangement.n + 1)
    for size in Counter(arrangement.rows).values():
        below[loops + size] += 1
        below[loops] -= 1
    return below, [0] * loops + [1]


def coboundary_ffm(arrangement, primes=None, budget=DEFAULT_BUDGET):
    """Compute the coboundary polynomial by the finite field method.

    The coefficients of X^r and X^(r-1) are known from the loops and the
    classes of equal rows (`_known_top`), and a central arrangement has
    cobchi(1, Y) = Y^n, since every subset is central.  Profiles at primes,
    counted in the quotient (so divided by p^(d-r), their lift), give the
    rest: it is interpolated coefficient-wise in X at degree bound r - 2
    (for r <= 1 it must be 0), which takes r - 1 samples.  The default
    primes (`select_primes`) are one more than that needs, r - 1 on a
    central arrangement and r otherwise, and at least one; explicit primes
    must be at least what it needs, and at least one, and each is certified
    by `reduce_mod_p`.  Every extra sample must be consistent and the final
    coefficients must be integers, otherwise the degree bound or a
    reduction was wrong.
    """
    if arrangement.prime is not None:
        raise MethodError("finite field method applies to Q-arrangements")
    d = arrangement.dim
    r = arrangement.rank
    top = _known_top(arrangement)[-(r + 1):]    # no X^(r-1) when r = 0
    bound = r - len(top)
    samples = [(1, [0] * arrangement.n + [1])] if arrangement.is_central() else []
    fit = bound + 1 - len(samples)      # the primes the fit needs
    if primes is None:
        mods = select_primes(arrangement, max(1, fit + 1), budget)
    else:
        if len(primes) < max(1, fit):
            raise MethodError("need at least %d primes, got %d"
                              % (max(1, fit), len(primes)))
        mods = [reduce_mod_p(arrangement, p, budget) for p in primes]
    for mod in mods:
        profile = point_profile(mod, budget=budget)
        # the counts are p^(d-r) cobchi(p, Y), so the quotient's are
        # cobchi(p, Y), when the rank over F_p is r: a lift past d - r is a
        # rank drop mod p, which a certified reduction never has
        if profile.lift != d - r:
            raise InconsistentSamplesError(
                "profile at p=%d has lift %d, not d - r = %d: "
                "reduction failure" % (mod.prime, profile.lift, d - r))
        check_profile(profile, mod)
        samples.append((mod.prime, profile.quotient))
    result = interpolate_in_X(samples, bound, top=top)
    if not result.has_integer_coeffs():
        raise InconsistentSamplesError(
            "interpolated coboundary has non-integer coefficients: "
            "degree bound or reduction failure")
    return result
