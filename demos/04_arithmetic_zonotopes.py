"""Arithmetic Tutte polynomials: lattice geometry of integer vectors.

For a list of integer vectors, each independent subset carries a multiplicity
(the index of its lattice span, a gcd of maximal minors), and the weighted
subset expansion produces the arithmetic Tutte polynomial M(x, y).  Its
evaluations count lattice points of the zonotope and points on arrangements
of subtori.
"""

from tuttekit import (
    VectorConfig,
    arithmetic_char_poly,
    arithmetic_tutte,
    multiplicity,
    toric_evaluations,
    toric_point_profile,
    zonotope_evaluations,
)

# Two vectors spanning a sublattice of index 2.
config = VectorConfig(2, [[1, 1], [1, -1]])
print("vectors:", config.columns)
print("multiplicity of the full set:", multiplicity(config, frozenset({0, 1})))
M = arithmetic_tutte(config)
print("arithmetic Tutte M(x, y) =", M)

# Zonotope statistics read off from M.
z = zonotope_evaluations(config)
print("zonotope volume       M(1,1)  =", z["volume"])
print("lattice points        M(2,1)  =", z["lattice_points"])
print("interior points       M(0,1)  =", z["interior_points"])
print("Ehrhart polynomial            =", z["ehrhart"])

# Toric side: each vector a defines the subtorus t^a = 1 in (F*_(q+1))^d.
# The points of the torus, classified by how many subtori contain them,
# reproduce M exactly; toric_point_profile counts every point of the group
# (as t = g^y for a generator g) and checks the identity.
for q in (2, 4):
    prof = toric_point_profile(config, q)
    print("profile over (F*_%d)^2: counts %s, polynomial %s"
          % (q + 1, prof["counts"], prof["polynomial"]))

print("characteristic polynomial:", arithmetic_char_poly(config))
t = toric_evaluations(config)
print("regions of the compact-torus complement M(1,0) =", t["regions"])
print("Poincare polynomial of the complex-torus complement:", t["poincare"])
