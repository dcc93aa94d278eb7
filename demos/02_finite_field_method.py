"""Counting points over F_p recovers the coboundary polynomial exactly.

For a good prime p, classify every point of F_p^d by how many hyperplanes it
lies on.  The generating function of those counts equals
p^(d-r) * cobchi(p, t), so sampling enough primes and interpolating in the
first variable reconstructs the full two-variable polynomial, and from it the
Tutte polynomial, with no structural computation at all.
"""

from tuttekit import (
    Arrangement,
    coboundary_ffm,
    coboundary_transform,
    point_profile,
    reduce_mod_p,
    select_primes,
    tutte_from_coboundary,
    tutte_subset,
)

arr = Arrangement(3, [([1, 0, 0], 0), ([0, 1, 0], 0),
                      ([1, -1, 0], 0), ([0, 0, 1], 0)])

# Step 1: reduce mod a certified prime, which gives an Arrangement over F_5,
# and count its points.  Each row has one +1 and at most one -1, so the rows
# are totally unimodular: every nonzero minor is +-1, and every prime is safe.
print("prime floor:", arr.prime_floor, "(any prime above it is safe)")
mod5 = reduce_mod_p(arr, 5)
profile = point_profile(mod5)
print("incidence profile at p=5:", profile.counts)
print("   %d points avoid all four planes; %d lie on exactly one; ..."
      % (profile.counts[0], profile.counts[1]))

# Step 2: the coefficients of X^r and X^(r-1) need no count, and since every
# subset is central, cobchi(1, Y) = Y^n is a free sample.  The rest has degree
# r - 2, so r - 1 samples fit it: q = 1 and r - 2 primes, the smallest above
# the floor, plus one more prime as a check.
mods = select_primes(arr, arr.rank - 1)
print("selected primes:", [m.prime for m in mods])
cob = coboundary_ffm(arr)
print("coboundary polynomial:", cob)

# Step 3: the structural route gives the identical polynomial.
tutte = tutte_subset(arr).tutte
structural = coboundary_transform(tutte, arr.rank)
print("matches the structural transform:", cob == structural)
print("Tutte recovered from point counts:",
      tutte_from_coboundary(cob, arr.rank))
