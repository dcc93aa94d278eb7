"""The multivariate polynomial knows every thickening at once.

Give each hyperplane its own weight w_e.  The resulting polynomial
q^r * Ztilde(q, w) specializes to the Tutte polynomial of any thickening
A(a), the arrangement where hyperplane e is replaced by a_e parallel copies,
via q -> (x-1)(y-1) and w_e -> y^(a_e) - 1.
"""

from itertools import product

from tuttekit import (
    MultiPoly,
    coboundary_transform,
    multivariate_tutte,
    tutte_from_multivariate,
    tutte_subset,
)
from tuttekit.families import braid, thicken


arr = braid(3)
mv = multivariate_tutte(arr)
print("braid(3) multivariate polynomial (q^r Ztilde):")
print("  ", mv.poly)
print()

# Setting every w_e = y - 1 and q = (x-1)(y-1) recovers the plain Tutte
# polynomial; other integer weights give thickenings.
plain = tutte_from_multivariate(mv, [1, 1, 1])
print("a = (1,1,1) recovers T:", plain, "==", tutte_subset(arr).tutte)

doubled = tutte_from_multivariate(mv, [2, 2, 2])
direct = tutte_subset(thicken(arr, 2)).tutte
print("a = (2,2,2) matches the doubled arrangement:", doubled == direct)
print("   T(A^(2)) =", doubled)

# Mixed multiplicities, including deleting a hyperplane with a_e = 0.
for a in [(2, 1, 1), (0, 1, 2), (3, 0, 0)]:
    got = tutte_from_multivariate(mv, list(a))
    print("a = %s: T = %s" % (a, got))

# Uniform thickening acts on the coboundary polynomial by Y -> Y^k.
cob = coboundary_transform(tutte_subset(arr).tutte, arr.rank)
thick = thicken(arr, 3)
cob3 = coboundary_transform(tutte_subset(thick).tutte, thick.rank)
Y = MultiPoly.variable("Y")
print()
print("cobchi(A^(3); X, Y) == cobchi(A; X, Y^3):",
      cob3 == cob.substitute({"Y": Y ** 3}))

# Sanity: the specialization agrees with direct construction for every
# nonzero weight vector in {0, 1, 2}^3.
ok = all(
    tutte_from_multivariate(mv, list(a))
    == tutte_subset(thicken(arr, list(a))).tutte
    for a in product(range(3), repeat=3) if any(a))
print("all weight vectors in {0,1,2}^3 agree with direct construction:", ok)
