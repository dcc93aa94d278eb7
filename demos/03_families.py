"""The catalog of classical families, checked against their closed forms.

Every family constructor returns a plain Arrangement, so the engines apply
unchanged; the closed-form oracles give an independent route to the same
polynomials.
"""

from math import factorial

from tuttekit import char_poly, scalar_invariants
from tuttekit.families import (
    braid,
    catalan,
    catalan_number,
    chromatic_polynomial,
    generic,
    generic_tutte,
    oracle_char,
    shi,
)
from tuttekit.tutte import tutte_subset

# The braid arrangement x_i = x_j: chi factors as q(q-1)...(q-n+1).
for n in (2, 3, 4):
    arr = braid(n)
    chi = char_poly(arr)
    print("braid(%d): chi = %s" % (n, chi))
    assert chi == oracle_char("braid", n)
    assert scalar_invariants(arr, tutte_subset(arr).tutte)["regions"] == factorial(n)
print("region count of braid(n) is n!, one per ordering of the coordinates")
print()

# Catalan and Shi arrangements: region counts n! C_n and (n+1)^(n-1), read
# off each one's Tutte polynomial.
for n in (2, 3):
    inv_c = scalar_invariants(catalan(n), tutte_subset(catalan(n)).tutte)
    inv_s = scalar_invariants(shi(n), tutte_subset(shi(n)).tutte)
    print("catalan(%d): %d regions (n! C_n = %d)"
          % (n, inv_c["regions"], factorial(n) * catalan_number(n)))
    print("shi(%d):     %d regions (n!(n+1)^(n-1)/n! = %d^%d)"
          % (n, inv_s["regions"], n + 1, n - 1))
print()

# Graph coloring: the chromatic polynomial of a graph is the characteristic
# polynomial of its graphical arrangement.
triangle = [(0, 1), (1, 2), (0, 2)]
print("chromatic polynomial of the triangle:",
      chromatic_polynomial(3, triangle))
print()

# n generic hyperplanes through the origin in R^d realize the uniform
# matroid; the Tutte polynomial is a pair of binomial sums.
arr = generic(5, 3)
engine = tutte_subset(arr).tutte
formula = generic_tutte(5, 3)
print("generic(5, 3) Tutte:", engine)
print("binomial closed form agrees:", engine == formula)
