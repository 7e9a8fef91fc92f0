"""Plain-integer arithmetic on the {1, w} basis, independent of cubesum.

The benchmark re-verifies every witness and trivial pair with these
functions instead of the program's own EisensteinInt / KElement, so a bug
shared by the program's arithmetic and its verifier cannot hide a wrong
verdict.  Elements of Z[w] are pairs (a, b) meaning a + b*w; elements of
K = Q(w) are triples (a, b, d) meaning (a + b*w)/d with d > 0.
"""

from __future__ import annotations

# Deterministic Miller-Rabin bases: exact for n < 3.3e24, far above the
# primes the workloads draw (at most 1e9).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def mul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """(a1 + b1 w)(a2 + b2 w) with w^2 = -1 - w."""
    a1, b1 = x
    a2, b2 = y
    return a1 * a2 - b1 * b2, a1 * b2 + a2 * b1 - b1 * b2


def cube(x: tuple[int, int]) -> tuple[int, int]:
    return mul(mul(x, x), x)


def norm(x: tuple[int, int]) -> int:
    a, b = x
    return a * a - a * b + b * b


def scale(x: tuple[int, int], k: int) -> tuple[int, int]:
    return x[0] * k, x[1] * k


def is_solution(x: tuple[int, int, int], y: tuple[int, int, int], m: tuple[int, int]) -> bool:
    """Whether ((xa + xb w)/xd)^3 + ((ya + yb w)/yd)^3 == m exactly."""
    xa, xb, xd = x
    ya, yb, yd = y
    if xd <= 0 or yd <= 0:
        return False
    lhs_x = scale(cube((xa, xb)), yd**3)
    lhs_y = scale(cube((ya, yb)), xd**3)
    rhs = scale(m, (xd * yd) ** 3)
    return (lhs_x[0] + lhs_y[0], lhs_x[1] + lhs_y[1]) == rhs


def is_trivial(x: tuple[int, int, int], y: tuple[int, int, int]) -> bool:
    """A trivial solution: one coordinate is zero, or x^3 == y^3."""
    if x[:2] == (0, 0) or y[:2] == (0, 0):
        return True
    return scale(cube(x[:2]), y[2] ** 3) == scale(cube(y[:2]), x[2] ** 3)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def associates(x: tuple[int, int]) -> list[tuple[int, int]]:
    """The six unit multiples of x, in the order x, w x, w^2 x, -x, ..."""
    out = [x]
    for _ in range(2):
        a, b = out[-1]
        out.append((-b, a - b))  # (a + b w) * w
    return out + [(-a, -b) for a, b in out]
