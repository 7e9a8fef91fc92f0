"""
Prime splitting and unique factorization
========================================

A rational prime ramifies (p = 3), stays inert (p = 2 mod 3) or splits
(p = 1 mod 3) in Z[w]; factor() reduces everything to the norm.
"""

from cubesum import EisensteinInt, classify_rational_prime, factor, split_prime
from cubesum.factorization import is_cube_mod_p, residue_split

# how the first few primes behave
for p in (2, 3, 5, 7, 13, 61, 73):
    cls = classify_rational_prime(p)
    extra = f": pi = {cls.pi}, conj = {cls.pi_bar}" if cls.tag == "split" else ""
    print(f"p = {p:>2} is {cls.tag}{extra}")

# a full factorization: 18w = w · (1+2w)⁴ · 2
print("\nfactor(18w) =", factor(EisensteinInt(0, 18)))

# 7 = pi · conj(pi) with non-associate factors
print("factor(7)   =", factor(EisensteinInt(7, 0)))

# the residue field O/pi has p elements; w maps to a root of z² + z + 1
pi, _ = split_prime(7)
c = residue_split(EisensteinInt(0, 1), pi)
print(f"\nw maps to {c} in O/({pi}); check: {c}² + {c} + 1 = {(c*c + c + 1) % 7} mod 7")

# cubes mod p, decided by one modular exponentiation
print("is 3 a cube mod 61?", is_cube_mod_p(3, 61))
print("is 3 a cube mod 79?", is_cube_mod_p(3, 79))
