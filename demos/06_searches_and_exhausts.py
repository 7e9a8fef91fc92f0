"""
Brute-force oracles and the classical corollaries
=================================================

The rational search is complete per denominator (divisor method), so
witnesses with large numerators surface at tiny budgets, and its M = 2
case rules out cube progressions; two exhaustive scans confirm the other
corollaries at desk scale.
"""

from cubesum import (
    BETA,
    EisensteinInt,
    cube_ap_exhaust,
    flt3_exhaust,
    mordell_check,
    relation_search,
    search_eisenstein,
    search_rational,
)

# 17 = (18/7)³ - (1/7)³: found immediately despite the numerator spread
print("17:", [(str(x), str(y)) for x, y in search_rational(17, 10)][:2])

# beta itself is a sum of two cubes with denominator 3
print("beta:", [(str(x), str(y)) for x, y in search_eisenstein(BETA, 3, 3)][:2])

# a relation w·r³ + v·s³ + M·t³ = 0 behind the 1+9w witness
print("relation for 1+9w:", [str(z) for z in relation_search(EisensteinInt(1, 9), 12)])

# FLT(3) in Z[w]: no nonzero x³ + y³ + z³ = 0 in a box of radius 12
print("FLT(3) counterexamples in radius 12:", flt3_exhaust(12))

# no three distinct cubes in arithmetic progression: x³ + y³ = 2 has no
# rational point but (1, 1) with denominator up to 1000, whatever the numerators
print("cube progressions with z up to 1000:", cube_ap_exhaust(1000))

# y² = x³ + 1 over Q(w): every hit has x³ in {-1, 0, 8}
report = mordell_check(8, 6)
print("y² = x³ + 1 rational points:", [(str(x), str(y)) for x, y in report.rational_hits])
print("  field points found:", len(report.eisenstein_hits))
