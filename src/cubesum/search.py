"""Brute-force witness searches at desk scale.

Three searches feed the classifier.  Of the three classical corollaries,
two are scans of their own (flt3_exhaust, mordell_check); the third, no
three distinct cubes in arithmetic progression, is Euler's M = 2 case,
which cube_ap_exhaust reads off search_rational(2, bound).

  * search_rational: complete per denominator.  For x = a/d, y = b/d the
    sum a³ + b³ = M·d³ factors as (a+b)(a² - ab + b²), so a + b runs over
    the divisors e of M·d³ in Z with |e|³ <= 4|M|d³, each leaving one
    quadratic in a whose discriminant is tested for squareness.  The primes
    of Z[w] prune e: past gcd(a, b) the two factors share no prime but 3, an
    inert q ≡ 2 mod 3 divides a² - ab + b² = N(a + b·w) only with a and b,
    and beta = 1 - w fixes v_3(e); every e left gives a primitive pair.  A d
    is skipped before anything is listed when some prime allows e no power,
    or when the product L of each prime's least power has L³ > 4|M|d³.  No
    numerator box: 17 = (18/7)³ - (1/7)³ appears at tiny budgets.
  * search_eisenstein: the same divisor search in Z[w] over _divisors,
    complete inside a coordinate box per denominator; an empty result proves
    nothing.  ξ = (e ± √((4f - e²)/3))/2 for f = M·d³/e needs no parity
    test (2 is inert).  4f - e² = 3(ξ - η)² makes M·d³ ≡ e³ mod 3, and a
    cube prime to beta is ±1 mod 3: so for beta ∤ M·d³ one sign of e is
    tried, e ≡ M·d³ mod beta (none if M·d³ ≢ ±1 mod 3), and only for
    beta | M·d³ both, each skipped unless 3 divides 4f - e².
    Hits are a set of reduced pairs with no primitivity test: a pair of
    content g at d is found, reduced, at d/g as well.
  * relation_search: first (r, s, t) with w·r³ + v·s³ + M·t³ = 0.

search_eisenstein skips, by an exact norm window, what no box point can
reach.  Box points have norm <= 3B² for the bound B.  For a hit (ξ, η),
|ξ² - ξη + η²| <= 9B², so the divisor e = ξ + η of M·d³ has
N(e) >= N(M)·d⁶/(81B⁴) as well as N(e) <= 12B²: search_eisenstein skips
every divisor below that floor and stops at the first d whose floor passes
12B², so a target past it at d = 1 is never factored.  Both divisor
searches factor their own target, and each d over Z when their loop
reaches it, in one shared memo of the last 1024 d; the box search reads
d's Z[w] primes off those.  relation_search needs no window: it looks each
right-hand side up in a table of the box's cubes, built once per bound, so
one that is no box point's cube costs a single dict lookup.

Both K searches work up to the units ±{1, w, v} of Z[w].  A pair (ξ, η)
sums to e exactly when (ζξ, ζη) sums to ζe, with the same cubes, for a
cube root of unity ζ; so search_eisenstein solves the quadratic once per
divisor orbit {e, we, ve} and rotates its roots into the box.  Associates
ζr share r³ up to sign, so relation_search tries one r per associate
class, read off the same table.  Both loop on plain int coordinates,
building ring elements only for the hits and for the one argument of each
square_roots call, which verifies every root exactly; relation_search
re-checks the relation it returns.

Every solution the package produces, from a search, a construction or the
classifier, passes one exact check, check_solution, which raises even
under python -O.

cube_roots is the one cube test of Z[w]; _exact_icbrt, the one exact cube root
of Z, cubes _icbrt, the floor cube root that also caps search_rational's
divisors; no float is used.  Residues mod 819 and 703 sieve each value once
first: N(z) in cube_roots, p = abc in the Lucas scan's _cube_sieve(m²).
Boxes are over the {w, v} coordinates; hit lists are ordered by
denominator ascending, then numerators descending lexicographically, so
identical budgets always yield identical ordered results regardless of how
the divisors are enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt, prod

from .eisenstein import (
    BETA,
    EisensteinInt,
    KElement,
    V,
    W,
    coordinate_box,
    coordinate_spiral,
    spiral,
)
from .factorization import _above, factor, factor_int

@dataclass(frozen=True)
class SearchBudget:
    """Bounds for the classifier's witness searches; results are exactly
    reproducible given a budget."""

    denom: int = 50
    coord: int = 30
    relation: int = 12

    def __post_init__(self) -> None:
        if min(self.denom, self.coord, self.relation) < 1:
            raise ValueError("budget bounds must be >= 1")


# a cube is one of these 45 residues mod 819 = 7·9·13 and 91 mod 703 = 19·37
_CUBES_MOD_819 = frozenset(k**3 % 819 for k in range(819))
_CUBES_MOD_703 = frozenset(k**3 % 703 for k in range(703))


def _icbrt(a: int) -> int:
    """floor(∛a) for a >= 0, by integer Newton steps from above; no float."""
    if a <= 1:
        return a
    k = 1 << -(-a.bit_length() // 3)
    while (k1 := (2 * k + a // (k * k)) // 3) < k:
        k = k1
    return k


def _exact_icbrt(n: int) -> int | None:
    """The integer k with k³ = n, or None when n is not a cube, by cubing
    _icbrt(|n|).  It sieves nothing: each caller that feeds it values in
    bulk has already passed them through the residue tests mod 819 and 703."""
    k = _icbrt(abs(n))
    if k**3 != abs(n):
        return None
    return k if n > 0 else -k


def _cube_sieve(k: int, q: int, cubes: frozenset[int]) -> bytearray:
    """Table of the residue test mod q for p·k, indexed by p mod q:
    t·k ≡ r (mod q) iff g | r and t ≡ (r/g)·(k/g)⁻¹ (mod q/g), g = gcd(k, q)."""
    g = gcd(k, q)
    table, inverse = bytearray(q // g), pow(k // g, -1, q // g)
    for r in cubes:
        if r % g == 0:
            table[r // g * inverse % (q // g)] = 1
    return table * g


def cube_roots(z: EisensteinInt) -> list[EisensteinInt]:
    """All y in Z[w] with y³ = z, exactly verified: [0] for z = 0, else
    none or three, ordered by (a, b).

    N(y)³ = N(z) rejects most z at once: the norm is sieved here by its
    residues mod 819 and 703 (1 in 141 passes), then cubed by _exact_icbrt.
    Otherwise, with k = N(y), the traces t = Tr y = 2a - b of the three
    roots y, w·y, v·y are the roots of t³ - 3k·t = Tr z.  The largest lies
    in [√k, 2√k], where the cubic increases, so integer bisection finds it;
    then 3b² = 4k - t² and a = (t + b)/2 give y up to conjugation.
    """
    if z.is_zero():
        return [EisensteinInt(0, 0)]
    if (n := z.norm()) % 819 not in _CUBES_MOD_819 or n % 703 not in _CUBES_MOD_703:
        return []
    k = _exact_icbrt(n)
    if k is None:
        return []
    tr = 2 * z.a - z.b
    # every t tried exceeds isqrt(k), so is at least √k
    lo = isqrt(k)
    hi = 2 * lo + 2
    while lo < hi:
        t = (lo + hi + 1) // 2
        if t * (t * t - 3 * k) <= tr:
            lo = t
        else:
            hi = t - 1
    b = isqrt((4 * k - lo * lo) // 3)
    for y in (EisensteinInt((lo + b) // 2, b), EisensteinInt((lo - b) // 2, -b)):
        if y.cube() == z:
            return sorted((y, W * y, V * y), key=lambda c: (c.a, c.b))
    return []


def square_roots(z: EisensteinInt) -> list[EisensteinInt]:
    """All y in Z[w] with y² = z, exactly verified: [0] for z = 0, else
    none or two, ordered by (a, b).

    With k = N(y) = √N(z), y² + k = y·Tr y and (Tr y)² = Tr z + 2k, so the
    root of trace t = √(Tr z + 2k) > 0 is (z + k)/t; a root of trace 0 is
    a multiple of beta, with z = -3a² for y = a·beta.
    """
    if z.is_zero():
        return [EisensteinInt(0, 0)]
    n = z.norm()
    k = isqrt(n)
    if k * k != n:
        return []
    t = isqrt(2 * z.a - z.b + 2 * k)
    y = EisensteinInt((z.a + k) // t, z.b // t) if t else isqrt(k // 3) * BETA
    if y * y != z:
        return []
    return sorted((y, -y), key=lambda c: (c.a, c.b))


def check_solution(pair: tuple[KElement, KElement], m, source: str) -> tuple[KElement, KElement]:
    """The pair, once x³ + y³ = m holds exactly; else ArithmeticError
    naming the source.  An explicit raise, so it also runs under python -O."""
    x, y = pair
    if x**3 + y**3 != m:
        raise ArithmeticError(f"{source} ({x}, {y}) does not sum to {m}")
    return pair


def witness_sort_key(pair: tuple[KElement, KElement]):
    """Denominator ascending, then numerators descending lexicographically.

    This puts the conventional presentation first, e.g. (37/21, 17/21)
    rather than its swap, and (3+2w, 1) among the unit twists.
    """
    x, y = pair
    d = x.den * y.den // gcd(x.den, y.den)
    sx, sy = d // x.den, d // y.den
    return (d, -x.num.a * sx, -x.num.b * sx, -y.num.a * sy, -y.num.b * sy)


def _divisors(target, denom, cap):
    """The divisors ∏ q^k of target·denom³ in Z[w] of norm at most cap, one
    per class of associates by unique factorization, as int triples
    (a, b, N(a + b·w)); target and denom are (prime, exponent) pairs over
    Z[w].  Norms only grow, so partial products stop at the cap."""
    exponents = dict(target)
    for q, k in denom:
        exponents[q] = exponents.get(q, 0) + 3 * k
    divs = [(1, 0, 1)]
    for q, top in exponents.items():
        qa, qb = q.a, q.b
        nq = qa * qa - qa * qb + qb * qb
        powers = [(1, 0, 1)]
        for _ in range(top):
            a, b, n = powers[-1]
            powers.append((a * qa - b * qb, a * qb + b * qa - b * qb, n * nq))
        divs = [(a * pa - b * pb, a * pb + b * pa - b * pb, n * pn)
                for a, b, n in divs for pa, pb, pn in powers
                if n * pn <= cap]
    return divs


def search_rational(m: int, denom_bound: int) -> list[tuple[KElement, KElement]]:
    """All rational solutions of x³ + y³ = m with common denominator <= bound.

    Complete for every denominator d <= denom_bound (tested against a naive
    double loop on small instances); an empty list is a valid result.

    For e = a + b, f = a² - ab + b² = m·d³/e >= e²/4 gives |e|³ <= 4|m|d³:
    e = sign(m)·∏ q^k runs over the divisors of m·d³ under that cap, as plain
    ints, so 12f - 3e² >= 0 (else isqrt raises); its root s = 3t with
    e² + 3t² = 4f, so e ≡ t mod 2 and 6 divides 3e ± s.  Only the e of a hit
    with gcd(a, b, d) = 1 are listed.  For a prime q, v = v_q(m·d³) and
    j = v_q(gcd(a, b)) have 3j <= v, and j = 0 when q | d; past q^j,
    e' = e/q^j and f' = f/q^2j share no prime but 3, so v_q(e) is j or v - 2j.
    An inert q ≡ 2 mod 3 divides f' = N(a' + b'·w) only with a' and b', so
    v_q(e) = v - 2j.  For q = 3, 4f' - e'² = 3(a' - b')² puts 3 in f' exactly
    when it is in e', and then once: v_3(e) = j when v = 3j, v - 2j - 1 when
    v >= 3j + 2, and no j leaves v = 3j + 1.  So every listed e already has
    e ≡ m·d³ mod 3, as x³ ≡ x mod 3 demands: q^k ≡ q^v mod 3 when q != 3.
    For q | d that leaves v_q(e) = 0 or v (v - 1 for q = 3), but q | a, b
    puts q in e and q² in f = m·d³/e: each hit is primitive untested.

    Each e takes one power per prime, so the least e listed is the product L
    of each prime's least power.  The powers of a prime q ∤ d depend on m
    alone and are built once per call; a prime of d takes 1 or q^v when
    split, q^v when inert, 3^(v - 1) for 3.  A d is skipped before any
    listing when a prime has no power (3 ∤ d with v_3(m) = 1) or when
    L³ > 4|m|d³, which for an integer L is L > ⌊∛(4|m|d³)⌋: exactly the d
    whose listing would be empty, most of them.
    """
    if m == 0:
        raise ValueError("target must be nonzero")
    target = factor_int(m)
    # for q ∤ d the powers q^k that v_q(e) can take depend on m alone
    own = {}
    for q, v in target.items():
        js = range(v // 3 + 1)
        if q == 3:
            ks = {v - 2 * j - (v > 3 * j) for j in js if v - 3 * j != 1}
        elif q % 3 == 1:
            ks = {k for j in js for k in (j, v - 2 * j)}
        else:
            ks = {v - 2 * j for j in js}
        own[q] = [q**k for k in sorted(ks)]
    # a² - ab + b² > 0, so a + b carries the sign of m
    sign = 1 if m > 0 else -1
    hits: set[tuple[KElement, KElement]] = set()
    for d in range(1, denom_bound + 1):
        n = m * d**3
        powers = own.copy()
        for q, k in _integer_factors(d):
            v = target.get(q, 0) + 3 * k
            powers[q] = [1, q**v] if q % 3 == 1 else [q**v] if q != 3 else [3**(v - 1)]
        # e takes one power per prime: a prime with none, or least powers
        # whose product L has L³ > 4|n|, leaves nothing under the cap
        if not all(powers.values()) or prod(p[0] for p in powers.values())**3 > 4 * abs(n):
            continue
        cap, divs = _icbrt(4 * abs(n)), [1]
        for ps in powers.values():
            divs = [g * p for g in divs for p in ps if g * p <= cap]
        for g in divs:
            e = sign * g
            disc = 12 * (n // e) - 3 * e * e
            s = isqrt(disc)
            if s * s != disc:
                continue
            for a in ((3 * e + s) // 6, (3 * e - s) // 6):
                hits.add((KElement(a, d), KElement(e - a, d)))
    return sorted((check_solution(p, m, "search hit") for p in hits), key=witness_sort_key)


def search_eisenstein(
    m: EisensteinInt,
    coord_bound: int,
    denom_bound: int,
    stop_at_first_denominator: bool = False,
) -> list[tuple[KElement, KElement]]:
    """Solutions of x³ + y³ = m with both numerators in the coordinate box.

    search_rational's divisor search in Z[w]: e = xi + eta runs over the
    divisors of m·d³ of norm <= 12·bound² (box points have norm <= 3·bound²),
    f = m·d³/e and xi = (e ± √((4f - e²)/3))/2; filtered to the box, this is
    the naive double box scan, complete inside the box per denominator.
    A hit has 4f - e² = 3(xi - eta)², so N = m·d³ = e·f ≡ e³ mod 3, and for
    beta ∤ e, e = ±1 + beta·k has e³ ≡ ±1 mod 3 (3 = -beta²).  So for beta ∤ N
    a d with N ≢ ±1 mod 3 is skipped, and only the e ≡ N mod beta is tried,
    which passes 3 | 4f - e²; for beta | N both signs go to that test.
    Each root r gives xi = (e + r)/2 with no parity test: 2 is inert, so
    Z[w]/2 is a field and (e + r)² ≡ e² + 3r² = 4f ≡ 0 mod 2 forces 2 | e + r.

    The quadratic is solved once per orbit {e, w·e, v·e}: e runs over the
    divisors with those signs only, and each root (xi, eta) for e gives the
    roots (ζ·xi, ζ·eta) for ζ·e, with the same cubes, tested only for the box.

    All of this runs on int coordinates, f = m·d³·conj(e)/N(e) by two
    integer divisions; square_roots verifies each root exactly.  m is
    factored at the first d listed, so a target no box pair can reach costs
    no factoring; each d, factored over Z when the loop reaches it, is
    lifted by _above: 3 = -beta², p inert, p = pi·pi_bar.

    A hit has |f| = |xi² - xi·eta + eta²| <= 9·bound², so N(f) <= 81·bound⁴
    and N(e) = N(m)·d⁶/N(f) >= N(m)·d⁶/(81·bound⁴): divisors below that
    floor are skipped before the division, and the d loop ends at the first
    d whose floor exceeds the cap 12·bound², as it does for every larger d.
    The test is kept multiplied out, so bound 0 needs no special case.

    Hits are a set of reduced pairs, checked by check_solution at the end,
    with no primitivity test: a root at d whose coordinates share g > 1
    with d is, divided by g, a root at d/g, in the (symmetric, convex) box
    wherever it is, so the set holds its pair once.  stop_at_first_denominator
    returns after the first d with hits: the leading hit is the same either way.
    """
    if m.is_zero():
        raise ValueError("target must be nonzero")
    nm, cap, f_cap = m.norm(), 12 * coord_bound**2, 81 * coord_bound**4
    hits: set[tuple[KElement, KElement]] = set()
    target = None
    for d in range(1, denom_bound + 1):
        # N(e)·N(f) = N(m·d³), and a hit has N(e) <= cap, N(f) <= f_cap
        nmd = nm * d**6
        if cap * f_cap < nmd:
            break
        ma, mb = m.a * d**3, m.b * d**3
        # N = m·d³ ≡ ma + mb mod beta (w ≡ 1): beta ∤ N needs N ≡ ±1 mod 3, e ≡ N
        if (unit := (ma + mb) % 3) and mb % 3:
            continue
        if target is None:
            target = factor(m).factors
        factors = [(irr, 2 * k if p == 3 else k)
                   for p, k in _integer_factors(d) for irr in _above(p)[1]]
        divs = _divisors(target, factors, cap)
        if not unit:
            divs += [(-ea, -eb, n) for ea, eb, n in divs]
        for ea, eb, n in divs:
            if n * f_cap < nmd:
                continue
            if unit and (ea + eb) % 3 != unit:
                ea, eb = -ea, -eb
            # f = m·d³/e = m·d³·conj(e)/N(e), as in eisenstein._exact_quotient
            fa, ra = divmod(ma * (ea - eb) + mb * eb, n)
            fb, rb = divmod(mb * ea - ma * eb, n)
            if ra or rb:
                raise ArithmeticError(f"{EisensteinInt(ea, eb)} does not divide {m}·{d}³")
            # a hit has 4f - e² = 3r² with r = xi - eta,
            # where e² = (ea² - eb²) + (2·ea - eb)·eb·w
            za, zb = 4 * fa - (ea * ea - eb * eb), 4 * fb - (2 * ea - eb) * eb
            if not unit and (za % 3 or zb % 3):
                continue
            for r in square_roots(EisensteinInt(za // 3, zb // 3)):
                ua, ub = (ea + r.a) // 2, (eb + r.b) // 2
                va, vb = ea - ua, eb - ub
                # rotations by 1, w and v; a + b·w is in the box when |a|, |b - a| <= bound
                for xa, xb, ya, yb in ((ua, ub, va, vb),
                                       (-ub, ua - ub, -vb, va - vb),
                                       (ub - ua, -ua, vb - va, -va)):
                    if max(abs(xa), abs(xb - xa), abs(ya), abs(yb - ya)) > coord_bound:
                        continue
                    x, y = KElement(EisensteinInt(xa, xb), d), KElement(EisensteinInt(ya, yb), d)
                    hits.add((x, y))
        if hits and stop_at_first_denominator:
            break
    return sorted((check_solution(p, m, "search hit") for p in hits), key=witness_sort_key)


# A grid-q pass factors 36,300 d (grid-k 25,306), at 1.64 µs uncached, 0.09 µs
# a hit: unmemoised, grid-q's classify p50 went 0.79 -> 0.95 ms (2-core x86-64).
@lru_cache(maxsize=1024)
def _integer_factors(d: int) -> tuple[tuple[int, int], ...]:
    """The prime factors of the integer d, memoised per d for both searches."""
    return tuple(factor_int(d).items())


# Building _box_cubes(12) takes 1.78 ms, a grid-k relation search 0.71 ms.
@lru_cache(maxsize=8)
def _box_cubes(bound: int) -> tuple[tuple[tuple[int, int, int, int], ...],
                                    dict[tuple[int, int], tuple[int, int]]]:
    """The cubes of the box, from one pass over coordinate_spiral(bound):
    (r.a, r.b, r³.a, r³.b) for the first r of each associate class, in that
    order, and a dict from the cube (c.a, c.b) of every nonzero box point
    to the (a, b)-least box point with that cube.  The associates ±ζ·r cube
    to ±r³, so r opens a class when neither r³ nor -r³ is a key yet."""
    classes = []
    roots: dict[tuple[int, int], tuple[int, int]] = {}
    for r in coordinate_spiral(bound):
        c = r.cube()
        key = (c.a, c.b)
        if key not in roots and (-c.a, -c.b) not in roots:
            classes.append((r.a, r.b, c.a, c.b))
        roots[key] = min(roots.get(key, (r.a, r.b)), (r.a, r.b))
    return tuple(classes), roots


def relation_search(
    m: EisensteinInt, bound: int
) -> tuple[EisensteinInt, EisensteinInt, EisensteinInt] | None:
    """First (r, s, t), all nonzero, with w·r³ + v·s³ + m·t³ = 0.

    Fixed scan order: r over the coordinate box by growing radius, t over
    the rational integers by magnitude; s is the (a, b)-least box point with
    s³ = -w·(w·r³ + m·t³) (v·s³ = -(w·r³ + m·t³), and v⁻¹ = w), the root
    cube_roots would list first.  The t slot scans rational integers only:
    t enters the relation through t³ alone, and the classical small
    relations all carry rational t.  Returns None when the box is exhausted.

    Only the first r of each associate class is tried.  An associate ζ·r
    has cube ±r³, and negating r³, s³ and t³ together keeps a relation,
    with -s in the box and -t in the t scan; so a later associate can only
    hit where the first one already has, and the first (r, s, t) is the one
    a scan over every r would return.

    The classes and s come from one table per bound, _box_cubes: each
    (class, t) candidate costs one lookup of its right-hand side on int
    coordinates, and ring elements are built only for a hit, whose relation
    is re-checked exactly.
    """
    if m.is_zero():
        raise ValueError("target must be nonzero")
    # v·s³ = -(w·r³ + m·t³), so s³ = -v·r³ - w·m·t³; -w·(a + b·w) = b + (b - a)·w
    wmt3s = [(t, m.b * t**3, (m.b - m.a) * t**3) for t in spiral(bound)]
    classes, roots = _box_cubes(bound)
    for ra, rb, ca, cb in classes:
        for t, ta, tb in wmt3s:
            # -v·r³ = (ca - cb) + ca·w
            if (s := roots.get((ca - cb + ta, ca + tb))) is None:
                continue
            r, s, t = EisensteinInt(ra, rb), EisensteinInt(*s), EisensteinInt(t, 0)
            if not (W * r**3 + V * s**3 + m * t**3).is_zero():
                raise ArithmeticError(f"relation ({r}, {s}, {t}) fails for {m}")
            return r, s, t
    return None


def flt3_exhaust(bound: int) -> list[tuple[EisensteinInt, EisensteinInt, EisensteinInt]]:
    """Scan for nonzero x, y, z in the box with x³ + y³ + z³ = 0.

    Returns the (necessarily empty) list of counterexamples.  Units times
    z share z's cube, so one box pass maps each cube value to its points,
    and the scan runs over those values, each pair once (the equation is
    symmetric in x and y); a hit lists every triple of points with them.
    """
    # A box point is a + b·w with |a| <= bound and |b| <= 2·bound, so both
    # coordinates of its cube are below 21·bound³ in size.  Packing c as
    # c.a·s + c.b with s > 3·21·bound³ is linear and injective on sums of
    # three cubes: x³ + y³ + z³ = 0 exactly when key(z) = -key(x) - key(y).
    s = 64 * bound**3 + 1

    def key(z: EisensteinInt) -> int:
        c = z.cube()
        return c.a * s + c.b

    preimages: dict[int, list[EisensteinInt]] = {}
    for z in coordinate_box(bound):
        if not z.is_zero():
            preimages.setdefault(key(z), []).append(z)
    keys = list(preimages)
    hits = []
    for i, kx in enumerate(keys):
        if preimages.keys().isdisjoint(map((-kx).__sub__, keys[i:])):
            continue
        hits += [(kx, ky, -kx - ky) for ky in keys[i:] if -kx - ky in preimages]
    return [
        (x, y, z)
        for kx, ky, kz in hits
        for x in preimages[kx]
        for y in preimages[ky]
        for z in preimages[kz]
    ]


def cube_ap_exhaust(bound: int) -> list[tuple[int, int, int]]:
    """Three distinct rational cubes in arithmetic progression, as primitive
    integer triples (x, z, y) with x < y, x³ + y³ = 2z³ and 0 < z <= bound;
    returns the (necessarily empty) list of counterexamples.

    Such a triple is a point (x/z, y/z) != (1, 1) of x³ + y³ = 2, whose
    denominator divides z, so search_rational(2, bound) finds it, whatever
    the size of x and y: Euler's theorem on M = 2 is this statement.  In
    lowest terms a prime dividing a numerator and the denominator d would
    divide the other numerator too, so both coordinates carry d, and z = d.
    """
    return sorted({(min(x.num.a, y.num.a), x.den, max(x.num.a, y.num.a))
                   for x, y in search_rational(2, bound) if x != y})


_MORDELL_X3 = frozenset((KElement(-1), KElement(0), KElement(8)))  # x = -1, 0, 2, 2w, 2v


@dataclass(frozen=True)
class MordellReport:
    """Hits of y² = x³ + 1 found inside a budgeted scan of K²."""

    rational_hits: tuple[tuple[KElement, KElement], ...]
    eisenstein_hits: tuple[tuple[KElement, KElement], ...]


def mordell_check(coord_bound: int, denom_bound: int) -> MordellReport:
    """Scan y² = x³ + 1 and check that every hit has x³ in {-1, 0, 8}.

    The scan runs x over the coordinate box of coord_bound with
    denominators d <= denom_bound; the box holds every rational numerator
    |a| <= coord_bound, so the rational hits are the hits with both
    coordinates rational.  Each root from square_roots must square back to
    x³ + 1, which leaves x³ the one condition to test; either failure
    raises ArithmeticError, also under python -O.
    """
    field_hits: list[tuple[KElement, KElement]] = []
    for d in range(1, denom_bound + 1):
        for xi in coordinate_box(coord_bound):
            if gcd(gcd(abs(xi.a), abs(xi.b)), d) != 1:
                continue
            x = KElement(xi, d)
            w = x**3 + 1
            for root in square_roots(w.num * w.den):
                y = KElement(root, w.den)
                if y**2 != w:
                    raise ArithmeticError(f"root {y} of {w} does not square back")
                if x**3 not in _MORDELL_X3:
                    raise ArithmeticError(f"counterexample to y² = x³ + 1 over K: ({x}, {y})")
                field_hits.append((x, y))
    field_hits.sort(key=witness_sort_key)
    rational = tuple(p for p in field_hits if p[0].is_rational() and p[1].is_rational())
    return MordellReport(rational, tuple(field_hits))
