"""Explicit solution builders and the executable 3-descent step.

The central objects are triples (A, B, C) in Z[w]³ with A + B + C = 0 and
A·B·C equal to the target M times a nonzero cube.  Any solution of
x³ + y³ = M yields one (clear denominators of x³, y³, -M); conversely a
triple whose entries are unit·cube, unit·cube, rest steps down to
(w·r + v·s, v·r + w·s, r + s), whose product is -C and whose norm product
is strictly smaller.  Iterating gives the descent trace; the classical
non-existence proofs are exactly the statement that for blocked targets the
structure extraction can never keep succeeding.

Also here: the linear construction that turns a relation
w·r³ + v·s³ + M·t³ = 0 into a solution, the Lucas polynomial identity for
targets 3p, and the tangent/secant constructions for generating new points
from old ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .eisenstein import BETA, ONE, EisensteinInt, IntegrityError, KElement, V, W, eis_gcd, unit_inverse
from .factorization import factor, split_cubes
from .search import _CUBES_MOD_703, _CUBES_MOD_819, _cube_sieve, _exact_icbrt, check_solution, cube_roots


class TripleStructureError(ValueError):
    """A triple entry is not of the unit-times-cube shape the step needs."""


class DescentTerminal(Exception):
    """Descent has reached the units case and stops."""


@dataclass(frozen=True)
class Triple:
    """Descent state: A + B + C = 0 and A·B·C = target · (nonzero cube).

    A·B·C/target is a cube of K exactly when A·B·C·target² is a cube of
    Z[w] (Z[w] is integrally closed), so the invariant is tested there."""

    A: EisensteinInt
    B: EisensteinInt
    C: EisensteinInt
    target: EisensteinInt

    def __post_init__(self) -> None:
        if self.A.is_zero() or self.B.is_zero() or self.C.is_zero():
            raise ValueError("triple entries must be nonzero")
        if not (self.A + self.B + self.C).is_zero():
            raise ValueError("triple does not sum to zero")
        if self.target.is_zero():
            raise ValueError("triple target must be nonzero")
        if not cube_roots(self.A * self.B * self.C * self.target**2):
            raise ValueError("product is not the target times a cube")

    def norm_product(self) -> int:
        return self.A.norm() * self.B.norm() * self.C.norm()

    def entries(self) -> tuple[EisensteinInt, EisensteinInt, EisensteinInt]:
        return self.A, self.B, self.C


def solution_from_relation(
    r: EisensteinInt, s: EisensteinInt, t: EisensteinInt, m: EisensteinInt
) -> tuple[KElement, KElement]:
    """Turn a relation w·r³ + v·s³ + m·t³ = 0 into a solution of x³ + y³ = m.

    Solves the linear system w·x + v·y = w·r³, v·x + w·y = v·s³ (determinant
    w² - v² = -beta) and rescales by 1/(r·s·t); the three linear forms then
    multiply out to x³ + y³ = m exactly, which is re-verified.
    """
    rst = r * s * t
    if rst.is_zero():
        raise ValueError("not a valid relation: r·s·t = 0")
    if not (W * r**3 + V * s**3 + m * t**3).is_zero():
        raise ValueError("not a valid relation: w·r³ + v·s³ + m·t³ != 0")
    # Cramer against determinant w² - v² = v - w = -beta; 1/beta = -beta/3.
    x_num = (W * s**3 - V * r**3) * -BETA  # 3·x before division
    y_num = (r**3 - s**3) * -BETA
    scale = KElement(rst * 3, 1)
    return check_solution((KElement(x_num) / scale, KElement(y_num) / scale), m,
                          "constructed pair")


def lucas_pair(a: int, b: int) -> tuple[int, int]:
    """The Lucas polynomials x = a³ - b³ + 6a²b + 3ab², y = b³ - a³ + 3a²b + 6ab².

    Both classical identities are checked exactly (IntegrityError otherwise):
        x + y = 9ab(a + b)     and     x² - xy + y² = 3(a² + ab + b²)³,
    whence x³ + y³ = -27·a·b·c·(a² + ab + b²)³ with c = -a - b.
    """
    x = a**3 - b**3 + 6 * a * a * b + 3 * a * b * b
    y = b**3 - a**3 + 3 * a * a * b + 6 * a * b * b
    if (x + y != 9 * a * b * (a + b)
            or x * x - x * y + y * y != 3 * (a * a + a * b + b * b) ** 3):
        raise IntegrityError(f"Lucas identities fail at (a, b) = ({a}, {b})")
    return x, y


def lucas_witness(a: int, b: int, m: int) -> tuple[KElement, KElement]:
    """Rational witness for x³ + y³ = m from an integer triple (a, b, -a-b).

    Requires a·b·(-a-b)·m² = k³ for an integer k, so that abc/m = (k/m)³;
    then with (x, y) the Lucas pair and d = -3k·(a² + ab + b²), the pair
    (x·m/d, y·m/d) lands on the curve, is reduced, and re-verifies exactly.
    """
    c = -a - b
    if a == 0 or b == 0 or c == 0 or m == 0:
        raise ValueError("degenerate triple")
    k = _exact_icbrt(a * b * c * m * m)
    if k is None:
        raise ValueError("triple does not match target: a·b·(-a-b)/m is not a cube")
    x, y = lucas_pair(a, b)
    d = -3 * k * (a * a + a * b + b * b)
    return check_solution((KElement(x * m, d), KElement(y * m, d)), m, "Lucas witness")


def lucas_triple_search(m: int, bound: int) -> tuple[int, int] | None:
    """Smallest integer pair (a, b), by |a| + |b| then |a|, with
    a·b·(-a-b)/m a nonzero rational cube; None if the bound is exhausted.

    Candidates run by s = |a| + |b|, x = |a|, a = -x before x, then
    b = x - s before s - x.  abc/m = abc·m²/m³ is a rational cube exactly
    when abc·m² is an integer cube.  a, b ≠ 0, so p = abc is 0 only when c
    is; a nonzero p passing both residue tests in _cube_sieve(m²) is cubed.
    """
    if m == 0:
        raise ValueError("target must be nonzero")
    mm = m * m
    sieve_819 = _cube_sieve(mm, 819, _CUBES_MOD_819)
    sieve_703 = _cube_sieve(mm, 703, _CUBES_MOD_703)
    for s in range(2, 2 * bound + 1):
        for x in range(max(1, s - bound), min(s - 1, bound) + 1):
            for a in (-x, x):
                for b in (x - s, s - x):
                    p = -a * b * (a + b)
                    if (p and sieve_819[p % 819] and sieve_703[p % 703]
                            and _exact_icbrt(p * mm) is not None):
                        return a, b
    return None


def tangent_step(m: KElement, point: tuple[KElement, KElement]) -> tuple[KElement, KElement]:
    """Duplication on x³ + y³ = m: intersect the tangent line at the point
    with the curve.

        (x, y) -> ( x(x³ + 2y³)/(x³ - y³),  -y(2x³ + y³)/(x³ - y³) )

    The formula is validated only by exact substitution, never trusted.
    """
    x, y = point
    x3, y3 = x**3, y**3
    if x3 + y3 != m:
        raise ValueError("point is not on the curve")
    den = x3 - y3
    if den.is_zero():
        raise ValueError("tangent degenerate: x³ = y³")
    return check_solution((x * (x3 + 2 * y3) / den, -(y * (2 * x3 + y3)) / den), m,
                          "tangent point")


def secant_step(
    m: KElement, p1: tuple[KElement, KElement], p2: tuple[KElement, KElement]
) -> tuple[KElement, KElement]:
    """Third intersection of the line through two known points with the curve.

    With slope t = (y2-y1)/(x2-x1) and intercept c = y1 - t·x1, substituting
    y = t·x + c into x³ + y³ = m leaves a cubic whose roots are x1, x2 and
    the returned coordinate (Vieta on the quadratic cofactor).  Vertical or
    coincident configurations error out.
    """
    (x1, y1), (x2, y2) = p1, p2
    for x, y in (p1, p2):
        if x**3 + y**3 != m:
            raise ValueError("point is not on the curve")
    if x1 == x2:
        raise ValueError("secant degenerate: vertical or coincident points")
    t = (y2 - y1) / (x2 - x1)
    c = y1 - t * x1
    t3 = t**3
    lead = t3 + 1
    if lead.is_zero():
        raise ValueError("secant degenerate: line meets the curve twice only")
    # x³(1 + t³) + 3t²c·x² + 3tc²·x + c³ - m = 0, roots x1, x2, x3
    x3 = -(3 * t**2 * c) / lead - x1 - x2
    return check_solution((x3, t * x3 + c), m, "secant point")


def triple_from_solution(x: KElement, y: KElement, m: EisensteinInt) -> Triple:
    """Clear denominators of (x³, y³, -m) into a descent triple.

    With D = lcm of the denominators of x³ and y³, the entries x³D, y³D,
    -mD multiply to m·(-x·y·D)³, the target times a nonzero cube.
    """
    if x.is_zero() or y.is_zero():
        raise ValueError("degenerate solution: x·y = 0")
    x3, y3 = x**3, y**3
    if x3 + y3 != KElement(m):
        raise ValueError("not a solution of x³ + y³ = m")
    if x3 == y3:
        raise ValueError("degenerate solution: x³ = y³")
    d = lcm(x3.den, y3.den)
    return Triple(x3.num * (d // x3.den), y3.num * (d // y3.den), -m * d, m)


def reduce_triple(t: Triple) -> Triple:
    """Divide the entries by g = gcd(A, B) to make them pairwise coprime.

    g divides C = -A - B as well, so one division changes the product by
    the cube g³.  Afterwards a factor shared by any two quotients divides
    the third (they still sum to zero) and so divides gcd(A/g, B/g) = 1:
    the entries are pairwise coprime.  When g is 1 the triple is returned
    as it is; otherwise the quotient Triple re-verifies the invariant.
    """
    g = eis_gcd(t.A, t.B)
    if g == ONE:
        return t
    return Triple(t.A / g, t.B / g, t.C / g, t.target)


def _unit_cube_parts(x: EisensteinInt, label: str) -> tuple[EisensteinInt, EisensteinInt]:
    """Write x = i·r³ with i in {1, w, v}; raise naming the obstruction."""
    r, rest = split_cubes(factor(x))
    if rest.factors:
        irr, e = rest.factors[0]
        raise TripleStructureError(
            f"triple not in descent form: {label} carries ({irr})^{e} "
            f"(exponent not divisible by 3)"
        )
    return rest.unit, r


def descent_step(t: Triple) -> Triple:
    """One step of 3-descent on a triple whose A and B are unit-times-cube.

    The triple is reduced first, then A = i·r³ and B = j·s³ with i, j in
    {1, w, v}; i != j is an obstruction and raises.  Dividing the triple
    by the unit i would leave A = r³, B = s³ and change the product only
    by a unit cube; only C is carried on, so only C is divided.  s may be
    replaced by w·s or v·s without changing B; the first choice in the
    fixed order (s, w·s, v·s) making the non-cube part of C divide r + s
    is taken, else s itself.  The new triple is (w·r + v·s, v·r + w·s,
    r + s), whose product is exactly -C.  No new entry can vanish: the
    three multiply to r³ + s³ = -C/i, and C is nonzero.

    No step divides the new entries through by beta: that would need C to
    be a cube too, i.e. r³ + s³ + c³ = 0 with r·s·c != 0 in Z[w], which
    Fermat's Last Theorem for exponent 3 over Z[w] rules out (Euler and
    Gauss; Ireland–Rosen, §17.8).

    Raises DescentTerminal when A and B are units (the descent has
    bottomed out) and TripleStructureError when extraction fails.
    """
    t = reduce_triple(t)
    a, b, c = t.entries()
    if a.is_unit() and b.is_unit():
        raise DescentTerminal("A and B are units")
    i, r = _unit_cube_parts(a, "A")
    j, s = _unit_cube_parts(b, "B")
    inv = unit_inverse(i)
    if j != i:
        raise TripleStructureError(
            f"triple not in descent form: unit mismatch i != j (j/i = {inv * j})"
        )
    c = inv * c

    # C's non-cube part up to a unit: A, B unit·cube and A·B·C = M·k³ put C in M's class
    m_core = split_cubes(factor(t.target))[1].value()
    for cand in (s, W * s, V * s):
        if m_core.divides(r + cand):
            s = cand
            break

    a2, b2, c2 = W * r + V * s, V * r + W * s, r + s
    if a2 * b2 * c2 != -c:
        raise IntegrityError("product identity A'·B'·C' = -C failed")
    return Triple(a2, b2, c2, t.target)


@dataclass(frozen=True)
class DescentTrace:
    """The triples visited by iterated descent, with the stop reason."""

    steps: tuple[Triple, ...]
    terminal: str

    def norms(self) -> tuple[int, ...]:
        return tuple(t.norm_product() for t in self.steps)


def descent_trace(x: KElement, y: KElement, m: EisensteinInt) -> DescentTrace:
    """Iterate descent_step from a solution until it stops.

    The trace records whether it stopped at the units case or at structure
    absence (with the obstruction message).  It needs no step cap: each
    pass returns, or raises IntegrityError unless the norm product, a
    positive integer, strictly shrinks.
    """
    t = reduce_triple(triple_from_solution(x, y, m))
    steps = [t]
    while True:
        try:
            nxt = descent_step(t)
        except DescentTerminal as stop:
            return DescentTrace(tuple(steps), f"units: {stop}")
        except TripleStructureError as stop:
            return DescentTrace(tuple(steps), f"structure-absent: {stop}")
        if nxt.norm_product() >= t.norm_product():
            raise IntegrityError("descent failed to shrink the norm product")
        t = reduce_triple(nxt)
        steps.append(t)


def cube_triple_structure(
    a: EisensteinInt, b: EisensteinInt, c: EisensteinInt
) -> tuple[EisensteinInt, tuple[int, int, int]]:
    """Decompose a zero-sum cube-product triple as (d, d·w, d·v) in some order.

    Returns (d, perm) with perm indices such that (entries)[perm[0]] = d,
    [perm[1]] = d·w, [perm[2]] = d·v.  Raises when the hypotheses fail or
    (equivalently, by the classification) no decomposition exists.

    The decompositions rotate, (d·w, d·v, d) being one too, so if any
    exists every entry is a base; the base is the first rational entry
    (at most one entry of a decomposition is rational), else entry 0.
    """
    entries = (a, b, c)
    if any(e.is_zero() for e in entries):
        raise ValueError("not a cube triple: zero entry")
    if not (a + b + c).is_zero():
        raise ValueError("not a cube triple: nonzero sum")
    if not cube_roots(a * b * c):
        raise ValueError("not a cube triple: product is not a cube")
    i0 = next((i for i, e in enumerate(entries) if e.is_rational()), 0)
    d = entries[i0]
    for i1 in range(3):
        i2 = 3 - i0 - i1
        if i1 != i0 and entries[i1] == d * W and entries[i2] == d * V:
            return d, (i0, i1, i2)
    raise ValueError("not a cube triple: no unit decomposition")  # unreachable per the classification
