"""A first arrangement: four planes in Q^3 and everything we can say about it.

The arrangement is x = 0, y = 0, x - y = 0, z = 0.  The first three planes
share the line x = y = 0, which is what makes the example interesting: it is
the smallest arrangement whose structure is not determined by counting alone.
"""

from tuttekit import (
    Arrangement,
    char_poly,
    intersection_poset,
    scalar_invariants,
    tutte_activity,
    tutte_delcon,
    tutte_subset,
)

arr = Arrangement(3, [([1, 0, 0], 0),   # x = 0
                      ([0, 1, 0], 0),   # y = 0
                      ([1, -1, 0], 0),  # x = y
                      ([0, 0, 1], 0)])  # z = 0

print("arrangement:", arr)
print("rank:", arr.rank)

# Three independent engines, one answer.
tutte = tutte_subset(arr).tutte
print("Tutte (subset expansion):   ", tutte)
print("Tutte (deletion-contraction):", tutte_delcon(arr).tutte)
result, cert = tutte_activity(arr)
print("Tutte (basis activities):   ", result.tutte)
print("bases and their activity monomials:")
for basis, internal, external in cert.records:
    print("   basis %s -> x^%d y^%d" % (basis, internal, external))

# The characteristic polynomial comes from the intersection poset.
poset = intersection_poset(arr)
print("flats by rank:")
for f in poset.flats:
    print("   rank %d, hyperplanes %s, mobius %d"
          % (f.rank, sorted(f.hyperplane_set), poset.mobius[f.hyperplane_set]))
chi = char_poly(arr)
print("characteristic polynomial:", chi)

# Numeric specializations, all read off the Tutte polynomial: chi by
# Whitney's theorem, chi(q) = (-1)^r q^(d-r) T(1-q, 0), and from it the
# regions of the real complement, the Poincare polynomial of the complex
# complement, and the complement size over F_q.
inv = scalar_invariants(arr, tutte)
print("chi read off T agrees with the poset:", inv["complement_size"] == chi)
print("regions:", inv["regions"])
print("bounded regions:", inv["bounded_regions"])
print("Poincare polynomial:", inv["poincare"])
print("points off the arrangement in F_q^3:", inv["complement_size"])
