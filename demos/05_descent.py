"""
Watching the 3-descent run
==========================

A solution of x³ + y³ = M turns into a triple (A, B, C) with A + B + C = 0
and A·B·C equal to M times a cube.  While two entries stay unit·cube, the
step (w·r + v·s, v·r + w·s, r + s) shrinks the norm product strictly; the
classical non-existence proofs are exactly the impossibility of this
continuing forever.
"""

from cubesum import EisensteinInt, KElement, descent_trace, triple_from_solution

# from Diophantus' solution of x³ + y³ = 7
t = triple_from_solution(KElement(2), KElement(-1), EisensteinInt(7, 0))
print("starting triple:", t.A, t.B, t.C, " norm product", t.norm_product())

trace = descent_trace(KElement(2), KElement(-1), EisensteinInt(7, 0))
for step in trace.steps:
    print(f"  ({step.A}, {step.B}, {step.C})   N = {step.norm_product()}")
print("stops:", trace.terminal)

# Legendre's mistake: 6 = (37/21)³ + (17/21)³, and the descent runs a bit
# longer before the structure gives out
print()
trace = descent_trace(KElement(37, 21), KElement(17, 21), EisensteinInt(6, 0))
for step in trace.steps:
    print(f"  N = {step.norm_product()}")
print("stops:", trace.terminal)
