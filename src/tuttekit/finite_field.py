"""The finite field method: point counting over F_p^d plus interpolation.

For a prime p over which the arrangement reduces correctly, the profile
(c_0, ..., c_n) with c_k = #{points lying on exactly k hyperplanes} satisfies
sum_k c_k t^k = p^(d-r) cobchi(A; p, t).  Sampling r+2 primes (one extra as a
consistency witness) and interpolating in the first coboundary variable
reconstructs the whole polynomial.

The p^d enumeration is the performance-critical kernel; it is vectorized with
numpy by slicing along the first coordinate: per hyperplane the dot product
over the remaining coordinates is precomputed once, and each slice reduces to
one vector comparison per hyperplane.  Partitioning the first coordinate
across workers and summing the per-range counts is bit-identical to the
serial run.
"""

from fractions import Fraction
from math import isqrt

import numpy as np

from .errors import (
    BadPrimeError,
    BudgetExceededError,
    InconsistentSamplesError,
    MethodError,
)
from .interpolation import interpolate_in_X
from .linalg import is_prime
from .multipoly import MultiPoly

DEFAULT_BUDGET = 10 ** 8


class ModularArrangement:
    """An arrangement reduced mod p: integer rows with entries in [0, p)."""

    __slots__ = ("prime", "dim", "rows", "n_loops", "n")

    def __init__(self, prime, dim, rows, n_loops=0):
        self.prime = prime
        self.dim = dim
        self.rows = rows          # list of (normal..., offset) int tuples, non-loops
        self.n_loops = n_loops
        self.n = len(rows) + n_loops


class PointProfile:
    """Counts (c_0, ..., c_n) of points by number of incident hyperplanes."""

    __slots__ = ("prime", "counts")

    def __init__(self, prime, counts):
        self.prime = prime
        self.counts = tuple(int(c) for c in counts)

    def polynomial(self, var="Y"):
        t = MultiPoly.variable(var)
        total = MultiPoly.zero()
        for k, c in enumerate(self.counts):
            total = total + c * t ** k
        return total

    def csv_row(self):
        return ",".join([str(self.prime)] + [str(c) for c in self.counts])


def _primes_from(start):
    """Yield primes >= start."""
    m = max(2, start)
    while True:
        if is_prime(m):
            yield m
        m += 1


def hadamard_prime_floor(arrangement):
    """A bound B: no prime > B divides any nonzero minor of [normals | offsets].

    Any k x k minor is bounded in absolute value by the product of the k
    largest row norms (Hadamard), so reduction mod any prime above that
    product preserves every subset rank and centrality.
    """
    rows = [arrangement.hyperplanes[i].row() for i in arrangement.nonloops()]
    if not rows:
        return 1
    norms_sq = sorted((sum(x * x for x in r) for r in rows), reverse=True)
    k = min(len(rows), arrangement.dim + 1)
    prod = 1
    for v in norms_sq[:k]:
        prod *= v
    return max(1, isqrt(prod) + 1)


def reduce_mod_p(arrangement, p, mode="bound-certified"):
    """Reduce a Q-arrangement mod p, certifying the reduction is correct.

    bound-certified: require p > hadamard_prime_floor(A).
    verified: recompute the full semimatroid (centrality and rank of every
    subset) over F_p and compare with the rational one; reject with a witness
    subset on mismatch.
    """
    if arrangement.prime is not None:
        raise ValueError("arrangement is already over a finite field")
    nl = arrangement.nonloops()
    rows = [arrangement.hyperplanes[i].row() for i in nl]
    reduced = [tuple(x % p for x in r) for r in rows]
    for orig, red in zip(rows, reduced):
        if any(orig[:-1]) and not any(red[:-1]):
            raise BadPrimeError("p=%d kills the normal of %s" % (p, orig))
    if mode == "bound-certified":
        floor = hadamard_prime_floor(arrangement)
        if p <= floor:
            raise BadPrimeError(
                "p=%d is not above the Hadamard floor %d" % (p, floor))
    elif mode == "verified":
        from .arrangement import Arrangement
        modarr = Arrangement(arrangement.dim,
                             [(r[:-1], r[-1]) for r in reduced], prime=p)
        want = dict(arrangement.semimatroid())
        got = dict(modarr.semimatroid())
        if want != got:
            mask = min(m for m in want.keys() | got.keys()
                       if want.get(m) != got.get(m))
            raise BadPrimeError(
                "p=%d changes the semimatroid" % p,
                witness=[i for k, i in enumerate(nl) if mask >> k & 1])
    else:
        raise ValueError("mode must be 'bound-certified' or 'verified'")
    return ModularArrangement(p, arrangement.dim, reduced,
                              n_loops=len(arrangement.loops()))


def point_profile(modarr, budget=DEFAULT_BUDGET, x1_range=None):
    """Exact incidence counts over F_p^d (or a slice of first coordinates).

    x1_range, when given, restricts the first coordinate to range(*x1_range);
    summing the profiles of a partition reproduces the full profile exactly.
    """
    p, d = modarr.prime, modarr.dim
    total_points = p ** d
    if x1_range is None and total_points > budget:
        raise BudgetExceededError(
            "p^d = %d exceeds the enumeration budget %d" % (total_points, budget),
            required=total_points)
    rows = modarr.rows
    n_active = len(rows)
    m = p ** (d - 1) if d >= 1 else 1
    counts = np.zeros(n_active + 1, dtype=np.int64)
    if d == 0:
        counts[sum(1 for r in rows if r[-1] % p == 0)] += 1
    else:
        idx = np.arange(m, dtype=np.int64)
        coords = [(idx // p ** (d - 2 - k)) % p for k in range(d - 1)]
        bases = []
        for r in rows:
            acc = np.zeros(m, dtype=np.int64)
            for k in range(d - 1):
                a = r[1 + k] % p
                if a:
                    acc += a * coords[k]
            bases.append((acc % p).astype(np.int32))
        lo, hi = (0, p) if x1_range is None else x1_range
        h = np.empty(m, dtype=np.int16)
        for x1 in range(lo, hi):
            h.fill(0)
            for r, base in zip(rows, bases):
                target = (r[-1] - r[0] * x1) % p
                h += base == target
            counts += np.bincount(h, minlength=n_active + 1)
    if modarr.n_loops:
        counts = np.concatenate([np.zeros(modarr.n_loops, dtype=np.int64), counts])
    return PointProfile(p, counts)


def point_profile_partitioned(modarr, parts, budget=DEFAULT_BUDGET):
    """Partition the first coordinate into `parts` ranges; merge by addition.

    The merged profile is bit-identical to the serial one; the ranges are
    independent and may be dispatched to concurrent workers.
    """
    p = modarr.prime
    if p ** modarr.dim > budget:
        raise BudgetExceededError(
            "p^d exceeds the enumeration budget", required=p ** modarr.dim)
    bounds = [round(i * p / parts) for i in range(parts + 1)]
    total = None
    for lo, hi in zip(bounds, bounds[1:]):
        sub = point_profile(modarr, budget=budget, x1_range=(lo, hi))
        if total is None:
            total = list(sub.counts)
        else:
            total = [a + b for a, b in zip(total, sub.counts)]
    return PointProfile(p, total)


def check_profile(profile, modarr, chi=None):
    """Invariant checks: counts sum to p^d; t=0 slice equals chi(p) if given."""
    p, d = modarr.prime, modarr.dim
    if sum(profile.counts) != p ** d:
        raise AssertionError("profile counts do not sum to p^d")
    if chi is not None and profile.counts[0] != chi.evaluate({"q": p}):
        raise AssertionError("complement count disagrees with chi(p)")
    return True


def select_primes(arrangement, count, reduction="auto", budget=DEFAULT_BUDGET):
    """Choose `count` certified primes, smallest first.

    bound mode takes the smallest primes above the Hadamard floor; verified
    mode takes the smallest primes passing the exhaustive semimatroid check,
    and is the default when the Hadamard floor would push p^d past the budget.
    """
    d = arrangement.dim
    floor = hadamard_prime_floor(arrangement)
    small = len(arrangement.nonloops()) <= 14
    # Primes are only searched for below budget^(1/d), where trial division
    # is cheap: a floor of 1e17 would otherwise cost seconds to step over.
    fits = (floor + 1) ** d <= budget
    if reduction == "auto":
        cheap = fits and next(_primes_from(floor + 1)) ** d <= budget
        reduction = "bound" if cheap or not small else "verified"
    out = []
    if reduction == "bound":
        p = floor + 1
        if fits:
            for p in _primes_from(p):
                if p ** d > budget:
                    break
                out.append(reduce_mod_p(arrangement, p, "bound-certified"))
                if len(out) == count:
                    return out
        # p^d exceeds the budget and larger primes only get worse; fill the
        # remaining slots with small verified primes if the arrangement is small
        if not small:
            raise BudgetExceededError(
                "no certified prime fits the enumeration budget", required=p ** d)
        reduction = "verified"
    if reduction == "verified":
        taken = {m.prime for m in out}
        for p in _primes_from(2):
            if p in taken:
                continue
            if p ** d > budget:
                raise BudgetExceededError(
                    "cannot find %d verified primes within the budget" % count,
                    required=p ** d)
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

    Profiles at r+2 primes are divided by p^(d-r) and interpolated
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
        mode = "verified" if reduction in ("auto", "verified") else "bound-certified"
        mods = [reduce_mod_p(arrangement, p, mode) for p in primes]
    samples = []
    for modarr in mods:
        profile = point_profile(modarr, budget=budget)
        check_profile(profile, modarr)
        poly = profile.polynomial("Y")
        scale = Fraction(1, modarr.prime ** (d - r))
        scaled = poly * scale
        if not scaled.has_integer_coeffs():
            raise InconsistentSamplesError(
                "profile at p=%d is not divisible by p^(d-r): "
                "degree bound or reduction failure" % modarr.prime)
        samples.append((Fraction(modarr.prime), scaled))
    result = interpolate_in_X(samples, r, var="X")
    if not result.has_integer_coeffs():
        raise InconsistentSamplesError(
            "interpolated coboundary has non-integer coefficients: "
            "degree bound or reduction failure")
    return result
