"""The finite field method: point counting over F_p^d plus interpolation.

For a prime p over which the arrangement reduces correctly, `reduce_mod_p`
gives the reduced arrangement, an `Arrangement` over F_p, and its profile
(c_0, ..., c_n) with c_k = #{points lying on exactly k hyperplanes} satisfies
sum_k c_k t^k = p^(d-r) cobchi(A; p, t).  Sampling r+2 primes (one extra as a
consistency witness) and interpolating in the first coboundary variable
reconstructs the whole polynomial.

A prime is certified when it divides no nonzero minor of [normals | offsets]
(`hadamard_prime_floor`).  The rows of braid, graphical, BC, D and threshold
arrangements have at most two nonzero entries, all +-1; every odd prime is
certified for them, and every prime when the rows are graphic, so the
smallest primes serve.  Other rows take primes above the Hadamard bound, or
small primes verified against the whole semimatroid.

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
- a larger affine slice is counted by solving each hyperplane for its
  last nonzero coordinate and scattering 1 into an incidence array at its
  points, then one bincount; a space of more than a fixed block of points
  is cut along its first coordinate, so peak memory does not grow with n,
  r or p.
The work compared with the budget is p^r.  Partitioning the first quotient
coordinate across workers and summing the per-range counts is bit-identical
to the serial run.
"""

from collections import Counter
from fractions import Fraction
from math import isqrt

import numpy as np

from .arrangement import Arrangement
from .errors import (
    BadPrimeError,
    BudgetExceededError,
    InconsistentSamplesError,
    MethodError,
)
from .interpolation import interpolate_in_X
from .linalg import is_prime, pivot_columns
from .multipoly import MultiPoly

DEFAULT_BUDGET = 10 ** 8


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

    def polynomial(self, var="Y"):
        return MultiPoly((var,), {(k,): c for k, c in enumerate(self.counts)})

    def csv_row(self):
        return ",".join([str(self.prime)] + [str(c) for c in self.counts])


def power_fits(base, exp, budget):
    """base^exp <= budget for an integer base >= 1, without forming a power
    beyond the budget, so a huge exponent costs no more than a small one."""
    if base == 1:
        return budget >= 1
    acc = 1
    for _ in range(exp):
        acc *= base
        if acc > budget:
            return False
    return acc <= budget


def _primes_from(start):
    """Yield primes >= start."""
    m = max(2, start)
    while True:
        if is_prime(m):
            yield m
        m += 1


def hadamard_prime_floor(arrangement):
    """A bound B: no prime > B divides any nonzero minor of [normals | offsets].

    The augmented rows are scanned first.  When every row has at most two
    nonzero entries, all +-1, the matrix is the transposed incidence matrix
    of a signed graph (braid, graphical, BC, D and threshold arrangements,
    and x_i = +-1), and every nonzero minor is +-2^k (Zaslavsky 1982), so
    B = 2; when no row has two nonzero entries of one sign it is totally
    unimodular, every nonzero minor is +-1, and B = 1.  Otherwise any k x k
    minor is bounded in absolute value by the product of the k largest row
    norms (Hadamard), and B exceeds that product.  Reduction mod any prime
    above B preserves every subset rank and centrality.
    """
    rows = arrangement.rows
    floor = 1
    for row in rows:
        nonzero = [x for x in row if x]
        if len(nonzero) > 2 or any(abs(x) != 1 for x in nonzero):
            break
        if len(nonzero) == 2 and nonzero[0] == nonzero[1]:
            floor = 2
    else:
        return floor
    norms_sq = sorted((sum(x * x for x in r) for r in rows), reverse=True)
    k = min(len(rows), arrangement.dim + 1)
    prod = 1
    for v in norms_sq[:k]:
        prod *= v
    return max(1, isqrt(prod) + 1)


def reduce_mod_p(arrangement, p, mode="bound"):
    """The arrangement over F_p that a Q-arrangement reduces to, certified.

    bound: require p > hadamard_prime_floor(A).
    verified: recompute the full semimatroid (centrality and rank of every
    subset) over F_p and compare with the rational one; reject with a witness
    subset on mismatch.
    Loops stay loops; a p that is not prime, or that kills the normal of a
    non-loop, is rejected before the reduction is built.
    """
    if arrangement.prime is not None:
        raise ValueError("arrangement is already over a finite field")
    if mode not in ("bound", "verified"):
        raise ValueError("mode must be 'bound' or 'verified'")
    if not is_prime(p):
        raise BadPrimeError("p=%d is not prime" % p)
    for row in arrangement.rows:
        if not any(x % p for x in row[:-1]):
            raise BadPrimeError("p=%d kills the normal of %s" % (p, row))
    if mode == "bound":
        floor = hadamard_prime_floor(arrangement)
        if p <= floor:
            raise BadPrimeError(
                "p=%d is not above the Hadamard floor %d" % (p, floor))
    reduced = Arrangement(arrangement.dim, arrangement.hyperplanes, prime=p)
    if mode == "verified":
        want = arrangement.semimatroid()
        got = reduced.semimatroid()
        if want != got:
            want, got = dict(want), dict(got)
            mask = min(m for m in want.keys() | got.keys()
                       if want.get(m) != got.get(m))
            nl = arrangement.nonloops()
            raise BadPrimeError(
                "p=%d changes the semimatroid" % p,
                witness=[i for k, i in enumerate(nl) if mask >> k & 1])
    return reduced


# Largest number of points scattered into one incidence array; a larger
# space is cut into slices along its first coordinate, so peak memory stays
# O(_BLOCK) whatever n, r and p are.
_BLOCK = 1 << 18


def _slice(rows, c, p):
    """The rows restricted to the slice y_1 = c, over the remaining coordinates."""
    return [(a[1:], (b - a[0] * c) % p) for a, b in rows]


def _scatter(rows, p, k, counts):
    """Add the profile over F_p^k of rows whose normals are all nonzero.

    Each row is solved for its last nonzero coordinate x_j, and 1 is added
    to an incidence array at its p^(k-1) points (distinct indices, so a
    fancy-index += counts each once); one bincount turns incidences into
    counts.
    """
    inc = np.zeros(p ** k, dtype=np.min_scalar_type(len(rows)))
    digits = np.arange(p, dtype=np.int64)
    for a, b in rows:
        j = max(i for i, x in enumerate(a) if x)
        inv = pow(a[j], -1, p)
        # x_j over the grid of the coordinates before it, the first most significant
        xj = np.array([b * inv], dtype=np.int64)
        for x in a[:j]:
            xj = (xj[:, None] - (x * inv % p) * digits).ravel()
        head = np.arange(p ** j, dtype=np.int64) * p + xj % p
        tail = p ** (k - 1 - j)
        inc[(head[:, None] * tail + np.arange(tail)).ravel()] += 1
    counts[:len(rows) + 1] += np.bincount(inc, minlength=len(rows) + 1)


def _affine(rows, p, k, counts, lo=0, hi=None):
    """Add to counts[j] the number of points of F_p^k on exactly j rows whose
    first coordinate is in range(lo, hi) (all of them by default); for k = 0
    the one point counts as first coordinate 0.

    On a line each row meets one point, its root; a larger space is
    scattered whole when it fits in a block and is cut along its first
    coordinate otherwise.
    """
    hi = p if hi is None else hi
    live, shift = [], 0
    for a, b in rows:
        if any(a):
            live.append((a, b))
        elif not b:
            shift += 1          # a zero row holds everywhere
    counts = counts[shift:]     # a view: index j now stands for shift + j
    if k == 0:
        counts[0] += lo <= 0 < hi
    elif k == 1:
        roots = Counter(b * pow(a, -1, p) % p for (a,), b in live)
        hits = [m for y, m in roots.items() if lo <= y < hi]
        counts[0] += hi - lo - len(hits)
        for m in hits:
            counts[m] += 1
    elif (lo, hi) == (0, p) and p ** k <= _BLOCK:
        _scatter(live, p, k, counts)
    else:
        for c in range(lo, hi):
            _affine(_slice(live, c, p), p, k - 1, counts)


def _count(rows, p, k, counts, lo, hi):
    """Add the profile of the points of F_p^k whose first coordinate is in
    range(lo, hi); for k = 0 the one point counts as first coordinate 0.

    A central arrangement puts y and c*y (c != 0) on the same rows, so every
    slice y_1 = c != 0 has the profile of y_1 = 1, and y_1 = 0 is the
    central arrangement one dimension down.
    """
    if k == 0 or any(b for _, b in rows):
        _affine(rows, p, k, counts, lo, hi)
        return
    units = hi - lo - (lo <= 0 < hi)
    if units:
        line = np.zeros_like(counts)
        _affine(_slice(rows, 1, p), p, k - 1, line)
        counts += units * line
    if lo <= 0 < hi:
        _count(_slice(rows, 0, p), p, k - 1, counts, 0, p)


def _quotient(arrangement, budget):
    """(r, rows): the quotient by the lineality space, as its dimension r and
    the (normal, offset) rows of the non-loops, after charging its p^r points
    to the budget.

    The normals are cut to their pivot columns, the coordinates of the
    quotient (see `Arrangement.essentialize`); a non-loop keeps a nonzero
    normal there, since the pivot columns span the others.
    """
    p = arrangement.prime
    rows = arrangement.rows
    pivots = pivot_columns([row[:-1] for row in rows], p)
    r = len(pivots)
    if p ** r > budget:
        raise BudgetExceededError(
            "p^r = %d exceeds the enumeration budget %d" % (p ** r, budget),
            required=p ** r)
    return r, [([row[j] for j in pivots], row[-1]) for row in rows]


def _profile(arrangement, r, rows, lo, hi):
    """The profile of the quotient points with first coordinate in range(lo, hi),
    each of which stands for its fibre of p^(d-r) points of F_p^d.

    The totals are Python ints (a numpy array of objects), which stay exact
    when p^r outgrows 64 bits.
    """
    counts = np.zeros(len(rows) + 1, dtype=object)
    _count(rows, arrangement.prime, r, counts, lo, hi)
    return [0] * (arrangement.n - len(rows)) + list(counts)


def point_profile(arrangement, budget=DEFAULT_BUDGET):
    """Exact incidence counts over F_p^d of an arrangement over F_p.

    The points are counted in the quotient F_p^r by the lineality space
    (see `_quotient`); each count stands for the fibre of p^(d-r) points,
    the profile's lift.
    """
    r, rows = _quotient(arrangement, budget)
    p = arrangement.prime
    return PointProfile(p, _profile(arrangement, r, rows, 0, p),
                        arrangement.dim - r)


def point_profile_partitioned(arrangement, parts, budget=DEFAULT_BUDGET):
    """Partition the quotient's first coordinate into `parts` ranges; merge by addition.

    The merged profile is bit-identical to the serial one; the ranges are
    independent and may be dispatched to concurrent workers.
    """
    p = arrangement.prime
    r, rows = _quotient(arrangement, budget)
    bounds = [round(i * p / parts) for i in range(parts + 1)]
    total = [0] * (arrangement.n + 1)
    for lo, hi in zip(bounds, bounds[1:]):
        total = [a + b for a, b in
                 zip(total, _profile(arrangement, r, rows, lo, hi))]
    return PointProfile(p, total, arrangement.dim - r)


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


def select_primes(arrangement, count, reduction="auto", budget=DEFAULT_BUDGET):
    """Choose `count` certified primes, smallest first.

    bound mode takes the smallest primes above `hadamard_prime_floor`: from
    2 for graphic rows, from 3 for signed-graphic ones, and above the
    Hadamard bound otherwise.  verified mode takes the smallest primes
    passing the exhaustive semimatroid check, and is the default when no
    bound prime fits.  Counting visits p^r points (r the rank), and that is
    what the budget is charged.  A small arrangement (at most 14
    hyperplanes) can always fall back to verified primes, which are smaller
    than those above a Hadamard bound, so it takes bound primes only while
    p^d fits the budget, as when the count ran over all of F_p^d.
    """
    r = arrangement.rank
    floor = hadamard_prime_floor(arrangement)
    small = len(arrangement.rows) <= 14
    e = arrangement.dim if small else r
    fits = power_fits(floor + 1, e, budget)
    if reduction == "auto":
        cheap = fits and power_fits(next(_primes_from(floor + 1)), e, budget)
        reduction = "bound" if cheap or not small else "verified"
    out = []
    if reduction == "bound":
        p = floor + 1
        if fits:
            for p in _primes_from(p):
                if not power_fits(p, e, budget):
                    break
                out.append(reduce_mod_p(arrangement, p, "bound"))
                if len(out) == count:
                    return out
        # p^e exceeds the budget and larger primes only get worse; fill the
        # remaining slots with small verified primes if the arrangement is small
        if not small:
            raise BudgetExceededError(
                "no certified prime fits the enumeration budget", required=p ** e)
        reduction = "verified"
    if reduction == "verified":
        taken = {m.prime for m in out}
        for p in _primes_from(2):
            if p in taken:
                continue
            if not power_fits(p, r, budget):
                raise BudgetExceededError(
                    "cannot find %d verified primes within the budget" % count,
                    required=p ** r)
            try:
                out.append(reduce_mod_p(arrangement, p, "verified"))
            except BadPrimeError:
                continue
            if len(out) == count:
                return out
    raise ValueError("reduction must be 'auto', 'bound', or 'verified'")


def coboundary_ffm(arrangement, primes=None, reduction="auto",
                   budget=DEFAULT_BUDGET):
    """Compute the coboundary polynomial by the finite field method.

    Profiles at r+2 primes, divided by p^(d-r), are interpolated
    coefficient-wise in X; the extra prime must be consistent and the final
    coefficients must be integers, otherwise the degree bound or a reduction
    was wrong.
    """
    if arrangement.prime is not None:
        raise MethodError("finite field method applies to Q-arrangements")
    d = arrangement.dim
    r = arrangement.rank
    if primes is None:
        mods = select_primes(arrangement, r + 2, reduction, budget)
    else:
        if len(primes) < r + 1:
            raise MethodError("need at least r+1 = %d primes, got %d"
                              % (r + 1, len(primes)))
        mode = "verified" if reduction == "auto" else reduction
        mods = [reduce_mod_p(arrangement, p, mode) for p in primes]
    samples = []
    for mod in mods:
        profile = point_profile(mod, budget=budget)
        check_profile(profile, mod)
        # p^(d-r) cobchi(p, Y): the quotient counts when the lift is d - r
        fibre = mod.prime ** (d - r - profile.lift)
        if any(c % fibre for c in profile.quotient):
            raise InconsistentSamplesError(
                "profile at p=%d is not divisible by p^(d-r): "
                "degree bound or reduction failure" % mod.prime)
        samples.append((Fraction(mod.prime), MultiPoly(
            ("Y",), {(k,): c // fibre for k, c in enumerate(profile.quotient)})))
    result = interpolate_in_X(samples, r, var="X")
    if not result.has_integer_coeffs():
        raise InconsistentSamplesError(
            "interpolated coboundary has non-integer coefficients: "
            "degree bound or reduction failure")
    return result
