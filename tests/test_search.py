"""Witness searches and the exhaustive corollary scans."""

import cmath
import os
import random
import subprocess
import sys
import time
from collections import Counter
from types import SimpleNamespace
from math import gcd, isqrt

import pytest

from cubesum import constructors, search
from cubesum.classifier import classify
from cubesum.eisenstein import (
    BETA,
    UNITS,
    EisensteinInt,
    KElement,
    V,
    W,
    coordinate_box,
    coordinate_spiral,
    spiral,
)
from cubesum.factorization import factor, factor_int, split_prime
from cubesum.search import (
    SearchBudget,
    _divisors,
    _exact_icbrt,
    cube_ap_exhaust,
    cube_roots,
    flt3_exhaust,
    mordell_check,
    relation_search,
    search_eisenstein,
    search_rational,
    square_roots,
    witness_sort_key,
)


def E(a, b=0):
    return EisensteinInt(a, b)


def K(a, d=1):
    return KElement(E(a) if isinstance(a, int) else a, d)


def in_coordinate_box(x, bound):
    """Whether x = a·w + b·v has |a|, |b| <= bound, the oracles' box test."""
    a, b = x.to_uv()
    return abs(a) <= bound and abs(b) <= bound


def _float_icbrt(n: int) -> int:
    """The floor cube root that _exact_icbrt replaced, kept as an oracle:
    largest-magnitude k with |k|³ <= |n|, carrying n's sign, from a rounded
    float guess below 2⁵³ and integer Newton above it."""
    if n == 0:
        return 0
    sign = -1 if n < 0 else 1
    a = abs(n)
    if a < 1 << 53:
        k = round(a ** (1.0 / 3.0))
        while k > 0 and k**3 > a:
            k -= 1
        while (k + 1) ** 3 <= a:
            k += 1
        return sign * k
    k = 1 << -(-a.bit_length() // 3)
    while True:
        k1 = (2 * k + a // (k * k)) // 3
        if k1 >= k:
            return sign * k
        k = k1


def _oracle_icbrt(n: int) -> int | None:
    k = _float_icbrt(n)
    return k if k**3 == n else None


def _around_cubes(ks):
    """k³ - 1, k³, k³ + 1 for each k, and their negatives."""
    return [s * (k**3 + e) for k in ks for e in (-1, 0, 1) for s in (1, -1)]


class TestIcbrt:
    def test_exact_below_float_range(self):
        for n in _around_cubes(list(range(0, 300)) + [2**17 - 1, 2**17, 208063, 208064]):
            assert _exact_icbrt(n) == _oracle_icbrt(n), n

    def test_huge_cube_returns_fast(self):
        for n, want in ((10**90, 10**30), (10**90 - 1, None), (-(10**90), -(10**30))):
            start = time.perf_counter()
            assert _exact_icbrt(n) == want
            assert time.perf_counter() - start < 1.0

    def test_beyond_double_range(self):
        for n, want in ((10**402, 10**134), (10**402 + 1, None), (-(10**402), -(10**134))):
            start = time.perf_counter()
            assert _exact_icbrt(n) == want
            assert time.perf_counter() - start < 1.0

    def test_around_two_to_the_53(self):
        ns = _around_cubes((208063, 208064, 208065, 10**6, 3 * 10**6 + 1, 10**20 + 7))
        ns += [s * (2**53 + e) for e in (-1, 0, 1) for s in (1, -1)]
        for n in ns:
            assert _exact_icbrt(n) == _oracle_icbrt(n), n

    def test_every_small_cube(self):
        # the residue test must never turn a cube away
        for k in range(-3000, 3001):
            assert _exact_icbrt(k**3) == k

    def test_sieve_matches_plain_cube_test(self):
        # the residue tests mod 819 and 703 must turn no cube away
        def plain(n):
            k = search._icbrt(abs(n))
            return None if k**3 != abs(n) else k if n >= 0 else -k

        ns = list(range(-10**5, 10**5 + 1)) + _around_cubes(range(10**4))
        ns += [s * (c + e) for c in (2**53, 10**30) for e in range(-500, 501) for s in (1, -1)]
        ns += _around_cubes((208063, 208064, 10**10 - 1, 10**10, 10**10 + 1))
        assert [n for n in ns if _exact_icbrt(n) != plain(n)] == []

    def test_lucas_shaped(self):
        # n = a·b·c·m² as lucas_triple_search builds it, nonzero cubes among them
        rng = random.Random(7)
        cubes = 0
        for _ in range(20000):
            a, b, m = (rng.choice((-1, 1)) * rng.randint(1, r) for r in (100, 100, 60))
            n = a * b * (-a - b) * m * m
            want = _oracle_icbrt(n)
            assert _exact_icbrt(n) == want, n
            cubes += bool(want)
        assert cubes > 20


# x = (10^e + 3) + 7w for e in HUGE_EXPONENTS: far past the double-precision
# horizon of any rounding-based root finder
HUGE_EXPONENTS = (15, 20, 30, 60)


def by_coords(roots):
    return sorted(roots, key=lambda c: (c.a, c.b))


class TestCubeRoots:
    def test_rational_cube(self):
        assert set(cube_roots(E(8))) == {E(2), 2 * W, 2 * V}
        assert cube_roots(E(0)) == [E(0)]

    def test_beta_cubed(self):
        roots = set(cube_roots(BETA**3))
        assert BETA in roots and len(roots) == 3

    def test_non_cube(self):
        assert cube_roots(E(2)) == []
        assert cube_roots(E(1, 1)) == []
        # norm p³, a cube, but not a cube: the exponents of pi and conj(pi)
        # are not multiples of three
        pi, pi_bar = split_prime(7)
        for u in UNITS:
            assert (u * pi * pi_bar**2).norm() == 7**3
            assert cube_roots(u * pi * pi_bar**2) == []
            assert cube_roots(u * pi**2 * pi_bar) == []

    def test_soak(self):
        import random

        rng = random.Random(18)
        xs = [E(rng.randint(-50, 50), rng.randint(-50, 50)) for _ in range(500)]
        start = time.perf_counter()
        for x in xs + [E(10**e + 3, 7) for e in HUGE_EXPONENTS]:
            roots = cube_roots(x**3)
            assert x in roots
            assert all(r**3 == x**3 for r in roots)
            if not x.is_zero():
                assert roots == by_coords({x, W * x, V * x})
        assert time.perf_counter() - start < 1.0

    def test_square_roots(self):
        assert set(square_roots(E(9))) == {E(3), E(-3)}
        assert set(square_roots(BETA**2)) == {BETA, -BETA}
        assert square_roots(E(2)) == []
        assert square_roots(E(0)) == [E(0)]
        start = time.perf_counter()
        for e in HUGE_EXPONENTS:
            x = E(10**e + 3, 7)
            assert square_roots(x * x) == by_coords({x, -x})
            # square norm, but -1 is not a square in Z[w]
            assert square_roots(-x * x) == []
        # y = a·beta has trace 0 and y² = -3a²
        for a in (1, 2, 5, 10**40 + 1):
            assert square_roots(E(-3 * a * a)) == by_coords({a * BETA, -a * BETA})
        assert time.perf_counter() - start < 1.0


_W_COMPLEX = complex(-0.5, 3**0.5 / 2)
_ROTATIONS3 = (complex(1, 0), _W_COMPLEX, _W_COMPLEX * _W_COMPLEX)
_ROTATIONS2 = (complex(1, 0),)


def _roots_by_rounding(z: EisensteinInt, power: int) -> list[EisensteinInt]:
    """Exact solutions y of y^power = z for power in {2, 3}.

    Cheap rejection first: N(y)^power = N(z), so N(z) must be a perfect
    power.  Survivors are found by rounding the complex roots to the
    lattice (the roots landing in Z[w] are unit rotations of each other)
    and verified exactly; a 3x3 neighbourhood guards against rounding
    error.  No false positives are possible (everything is verified), and
    a root can only be missed when its magnitude exceeds the double-
    precision rounding horizon (~1e15) -- far beyond any root the box
    searches could accept, so the scans stay exactly equivalent to their
    naive counterparts.
    """
    if z.is_zero():
        return [EisensteinInt(0, 0)]
    n = z.norm()
    if power == 3:
        k = _exact_icbrt(n)
        if k is None:
            return []
        rotations = _ROTATIONS3
    else:
        k = isqrt(n)
        if k * k != n:
            return []
        rotations = _ROTATIONS2
    zc = complex(z.a, 0) + z.b * _W_COMPLEX
    r = abs(zc) ** (1.0 / power)
    theta = cmath.phase(zc) / power
    base = cmath.rect(r, theta)
    roots: list[EisensteinInt] = []
    for rot in rotations:
        c = base * rot
        b0 = c.imag / _W_COMPLEX.imag
        a0 = c.real - b0 * _W_COMPLEX.real
        a0, b0 = round(a0), round(b0)
        for da in (-1, 0, 1):
            for db in (-1, 0, 1):
                cand = EisensteinInt(a0 + da, b0 + db)
                if cand.norm() != k:
                    continue
                if cand**power == z and cand not in roots:
                    roots.append(cand)
    if power == 2 and roots:
        r0 = roots[0]
        if -r0 not in roots:
            roots.append(-r0)
    roots.sort(key=lambda c: (c.a, c.b))
    return roots


class TestRootsAgainstRoundingOracle:
    """The complex-double root finder that cube_roots and square_roots
    replaced, kept as an oracle at magnitudes where it is exact: the lists
    must agree, order included."""

    def test_box_scan_inputs(self):
        # every z = m·d³ - xi³ that search_eisenstein hands to cube_roots
        box_cubes = [xi.cube() for xi in coordinate_box(10)]
        roots_found = 0
        for m in (E(2), E(9), E(0, 18), BETA, E(1, 9), W * E(-2, 3)):
            for d in range(1, 10):
                for c in box_cubes:
                    z = m * d**3 - c
                    got = cube_roots(z)
                    assert got == _roots_by_rounding(z, 3), z
                    roots_found += bool(got)
        assert roots_found > 50

    def test_small_grid(self):
        for a in range(-40, 41):
            for b in range(-40, 41):
                z = E(a, b)
                assert cube_roots(z) == _roots_by_rounding(z, 3), z
                assert square_roots(z) == _roots_by_rounding(z, 2), z

    def test_powers_and_neighbours(self):
        import random

        rng = random.Random(4)
        for _ in range(1000):
            x = E(rng.randint(-10**4, 10**4), rng.randint(-10**4, 10**4))
            for z in (x.cube(), x * x):
                for zz in (z, z + 1, z - 1, -z, BETA * z):
                    assert cube_roots(zz) == _roots_by_rounding(zz, 3), zz
                    assert square_roots(zz) == _roots_by_rounding(zz, 2), zz


def test_roots_verified_without_assert():
    """cube_roots and square_roots verify exactly under python -O, where
    assert statements are stripped."""
    code = (
        "from cubesum.eisenstein import EisensteinInt as E\n"
        "from cubesum.factorization import split_prime\n"
        "from cubesum.search import cube_roots, square_roots\n"
        "assert False, 'asserts must be stripped'\n"
        "x = E(10**60 + 3, 7)\n"
        "if x not in cube_roots(x**3) or len(cube_roots(x**3)) != 3:\n"
        "    raise SystemExit('huge cube')\n"
        "pi, pi_bar = split_prime(7)\n"
        "if cube_roots(pi * pi_bar**2) != []:\n"
        "    raise SystemExit('cube norm, not a cube')\n"
        "if square_roots(-pi * pi) != []:\n"
        "    raise SystemExit('square norm, not a square')\n"
        "print('ok')\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr or out.stdout
    assert out.stdout == "ok\n"


def test_search_hits_verified_without_assert():
    """A hit that does not sum to the target raises under python -O: a
    wrong square root in the Eisenstein search, a factorization of the
    target 9 with a non-divisor in the rational search (e = 2 against 9
    leaves f = 9 // 2 = 4, and the square 12·4 - 3·2² = 6² gives the pair
    (2, 0); d = 1 keeps its empty factorization, so 2 is no prime of d), and a
    wrong s planted in the relation search's cube table: s = 1 under every
    right-hand side s³ = -v·r³ - w·3·t³ of the first class r."""
    code = (
        "from cubesum import search\n"
        "from cubesum.eisenstein import EisensteinInt as E, spiral\n"
        "assert False, 'asserts must be stripped'\n"
        "search.square_roots = lambda z: [E(3)]\n"
        "search.factor_int = lambda n: {2: 1} if n == 9 else {}\n"
        "classes, roots = search._box_cubes(2)\n"
        "_, _, ca, cb = classes[0]\n"
        "roots.update({(ca - cb, ca - 3 * t**3): (1, 0) for t in spiral(2)})\n"
        "for call, message in ((lambda: search.search_eisenstein(E(2), 3, 1), 'does not sum to'),\n"
        "                      (lambda: search.search_rational(9, 1), 'does not sum to'),\n"
        "                      (lambda: search.relation_search(E(3), 2), 'fails for 3')):\n"
        "    try:\n"
        "        call()\n"
        "    except ArithmeticError as err:\n"
        "        if message in str(err):\n"
        "            continue\n"
        "    raise SystemExit('unverified hit')\n"
        "print('ok')\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr or out.stdout
    assert out.stdout == "ok\n"


def test_check_solution():
    pair = (KElement(2), KElement(1))
    assert search.check_solution(pair, 9, "hit") is pair
    assert search.check_solution(pair, KElement(EisensteinInt(9, 0)), "hit") is pair
    with pytest.raises(ArithmeticError, match=r"^hit \(2, 1\) does not sum to 10$"):
        search.check_solution(pair, 10, "hit")


class _Routed(Exception):
    """Raised, with its source, by the stand-in for check_solution."""


def test_every_solution_goes_through_check_solution(monkeypatch):
    """Every producer of a solution checks it through its module's binding
    of search.check_solution: with that binding patched to raise, each
    producer raises, naming its source."""
    from cubesum import classifier, constructors

    def routed(pair, m, source):
        raise _Routed(source)

    one, q = EisensteinInt(1, 0), KElement
    seven, p1, p2 = KElement(7), (q(2), q(-1)), (q(4, 3), q(5, 3))
    producers = (
        (search, lambda: search_rational(9, 1), "search hit"),
        (search, lambda: search_eisenstein(EisensteinInt(9, 0), 3, 1), "search hit"),
        (constructors, lambda: constructors.lucas_witness(-3, -61, 183), "Lucas witness"),
        (constructors, lambda: constructors.solution_from_relation(one, one, one, one),
         "constructed pair"),
        (constructors, lambda: constructors.tangent_step(seven, p1), "tangent point"),
        (constructors, lambda: constructors.secant_step(seven, p1, p2), "secant point"),
        (classifier, lambda: classifier.classify(9, "K"), "beta witness"),
        # a rational-search hit, and the axis pairs of 1/8, mapped back
        (classifier, lambda: classifier.classify(6, "Q"), "witness"),
        (classifier, lambda: classifier.classify(KElement(one, 8), "K"), "witness"),
    )
    for module, call, source in producers:
        with monkeypatch.context() as patch:
            patch.setattr(module, "check_solution", routed)
            with pytest.raises(_Routed) as err:
                call()
        assert str(err.value) == source


def naive_rational_search(m: int, denom_bound: int):
    """Complete double-loop oracle for |numerators| within the provable
    bound |a| <= sqrt(4f/3) <= sqrt(4|m·d³|/3)."""
    hits = set()
    for d in range(1, denom_bound + 1):
        n = m * d**3
        box = isqrt(4 * abs(n) // 3) + 1
        for a in range(-box, box + 1):
            for b in range(-box, box + 1):
                if a**3 + b**3 == n and gcd(gcd(abs(a), abs(b)), d) == 1:
                    hits.add((a, b, d))
    return hits


def _unpruned_search_rational(m: int, denom_bound: int):
    """search_rational before its divisor list kept only the exponents a
    primitive a + b can have, kept as an oracle: every divisor of m·d³ over
    Z, listed by _object_divisors, is tried under the cap."""
    target = factor_int(m).items()
    hits = set()
    for d in range(1, denom_bound + 1):
        n = m * d**3
        cap = search._icbrt(4 * abs(n))
        for e in _object_divisors((1 if m > 0 else -1,), target, factor_int(d).items()):
            if abs(e) > cap:
                continue
            disc = 12 * (n // e) - 3 * e * e
            s = isqrt(disc)
            if s * s == disc:
                for a in ((3 * e + s) // 6, (3 * e - s) // 6):
                    if gcd(a, e - a, d) == 1:
                        hits.add((K(a, d), K(e - a, d)))
    return sorted(hits, key=witness_sort_key)


class TestSearchRational:
    def test_seven(self):
        hits = {(str(x), str(y)) for x, y in search_rational(7, 5)}
        assert {("2", "-1"), ("4/3", "5/3")} <= hits

    def test_six(self):
        hits = search_rational(6, 25)
        assert (str(hits[0][0]), str(hits[0][1])) == ("37/21", "17/21")

    def test_five_empty(self):
        assert search_rational(5, 50) == []

    def test_seventeen(self):
        hits = {(str(x), str(y)) for x, y in search_rational(17, 10)}
        assert ("18/7", "-1/7") in hits

    def test_completeness_against_naive_oracle(self):
        for m in range(-20, 21):
            if m == 0:
                continue
            for bound in (1, 3, 6):
                got = set(search_rational(m, bound))
                want = {
                    (K(a, d), K(b, d))
                    for a, b, d in naive_rational_search(m, bound)
                }
                assert got == want, (m, bound)

    def test_zero_target_rejected(self):
        with pytest.raises(ValueError):
            search_rational(0, 5)

    @pytest.mark.parametrize("targets, bound", [
        (range(-1500, 1501), 12),
        (range(-300, 301), 30),
        # c carries 2, 5 and 11, k has 3 ∥ k and 9 ∥ k, both signs, and the
        # bound reaches d = 3, 6, 9, 12
        ([s * k * c**3 for s in (1, -1) for k in (1, 2, 3, 6, 7, 9, 17, 18, 19, 37, 65, 91)
          for c in (2, 3, 5, 6, 7, 10, 11, 22)], 12),
    ], ids=["1500-at-12", "300-at-30", "k-times-cubes"])
    def test_pruned_divisors_match_unpruned(self, targets, bound):
        # the primitive exponents of a + b lose no hit: an inert prime takes
        # v - 2j, 3 takes j or v - 2j - 1, and a prime of m alone takes
        # j = v(gcd(a, b)) >= 1, as 56 = 4³ + (-2)³ does with e = 2
        found = 0
        for m in targets:
            if m:
                got = search_rational(m, bound)
                assert got == _unpruned_search_rational(m, bound), m
                found += bool(got)
        assert found > 10

    def test_every_exponent_rule_is_taken_by_a_hit(self):
        # v_q(a + b) for each prime q of m·d³ on the hits, against the rule
        # for q: 56 = 4³ + (-2)³ takes the inert 2 with j = 1, 91 = 4³ + 3³
        # both rules of a split prime (e = 7, f = 13), 189 = 6³ + (-3)³ the
        # rule v = 3j of 3, and 9 = 2³ + 1³ its rule v - 2j - 1
        def val(q, x):
            return next(k for k in range(x.bit_length() + 1) if x % q ** (k + 1))

        taken = set()
        for m in (9, 56, 91, 189):
            for x, y in search_rational(m, 3):
                d = x.den * y.den // gcd(x.den, y.den)
                a, b = x.num.a * d // x.den, y.num.a * d // y.den
                for q, v in factor_int(m * d**3).items():
                    j, k = val(q, gcd(a, b)), val(q, abs(a + b))
                    if q == 3:
                        assert k == (j if v == 3 * j else v - 2 * j - 1), (m, a, b, d)
                        taken.add(("3", v == 3 * j))
                    elif q % 3 == 2:
                        assert k == v - 2 * j, (m, a, b, d)
                        taken.add(("inert", j >= 1))
                    else:
                        assert k in (j, v - 2 * j), (m, a, b, d)
                        taken.add(("split", k == j))
        assert {("inert", True), ("split", True), ("split", False),
                ("3", True), ("3", False)} <= taken

    def test_exponent_rules_cut_the_discriminant_tests(self, monkeypatch):
        # each listed e costs one isqrt: the rules leave 826 here, against
        # 31482 when an inert prime took j too and 3 every exponent, 10170
        # with only the first and 4408 with only the second of those
        calls = []
        monkeypatch.setattr(search, "isqrt", lambda x: calls.append(x) or isqrt(x))
        for m in range(-300, 301):
            if m:
                search_rational(m, 12)
        assert len(calls) <= 826

    def test_cap_edge_hits(self):
        # a = b gives e = 2a and f = a², so |e|³ = 4|m·d³| exactly: the hit
        # sits on the divisor cap, and a cap one too tight would miss it
        assert (K(1), K(1)) in search_rational(2, 1)
        assert (K(-1), K(-1)) in search_rational(-2, 1)
        assert (K(2), K(2)) in search_rational(16, 3)

    def test_determinism(self):
        assert search_rational(91, 10) == search_rational(91, 10)

    def test_huge_target_returns_fast(self):
        # 6 = (37/21)³ + (17/21)³ scaled by (7¹⁰⁰)³: the divisors of
        # 6·7³⁰⁰·d³ come from its factorization, not from trial division
        start = time.perf_counter()
        hits = search_rational(6 * 7**300, 3)
        assert time.perf_counter() - start < 1.0
        assert hits[0] == (K(37 * 7**99, 3), K(17 * 7**99, 3))


def _box_scan(m, coord_bound, denom_bound, stop_at_first_denominator=False):
    """The box scan that search_eisenstein replaced, kept as an oracle: for
    each box point xi, eta comes from eta³ = m·d³ - xi³ by cube_roots."""
    box_cubes = [(xi, xi.cube()) for xi in coordinate_box(coord_bound)]
    hits = []
    seen = set()
    for d in range(1, denom_bound + 1):
        target = m * d**3
        for xi, xi3 in box_cubes:
            z = target - xi3
            for eta in cube_roots(z):
                if not in_coordinate_box(eta, coord_bound):
                    continue
                if gcd(gcd(abs(xi.a), abs(xi.b)), gcd(gcd(abs(eta.a), abs(eta.b)), d)) != 1:
                    continue
                key = (xi.a, xi.b, eta.a, eta.b, d)
                if key in seen:
                    continue
                seen.add(key)
                x, y = KElement(xi, d), KElement(eta, d)
                assert x**3 + y**3 == KElement(m)
                hits.append((x, y))
        if hits and stop_at_first_denominator:
            break
    hits.sort(key=witness_sort_key)
    return hits


def _object_divisors(units, target, denom, cap=None):
    """The divisor enumerator before it ran on int coordinates, kept as an
    oracle: u·v for u in units and v over the divisors, as ring elements."""
    exponents = dict(target)
    for q, k in denom:
        exponents[q] = exponents.get(q, 0) + 3 * k
    divs = [(1, 1)]
    for q, top in exponents.items():
        nq = q.norm() if cap else 1
        powers = [(q**k, nq**k) for k in range(top + 1)]
        divs = [(v * qk, n * nk) for v, n in divs for qk, nk in powers
                if not cap or n * nk <= cap]
    return [u * v for u in units for v, _ in divs]


def _six_unit_search(m, coord_bound, denom_bound, stop_at_first_denominator=False):
    """search_eisenstein before it solved once per divisor orbit, kept as an
    oracle: e runs over all six unit multiples of every divisor."""
    target = factor(m).factors
    cap = 12 * coord_bound**2
    hits = []
    for d in range(1, denom_bound + 1):
        md3 = m * d**3
        for e in _object_divisors(UNITS, target, factor(E(d)).factors, cap):
            for s in square_roots(12 * (md3 / e) - 3 * e * e):
                num = 3 * e + s
                if num.a % 6 or num.b % 6:
                    continue
                xi = E(num.a // 6, num.b // 6)
                eta = e - xi
                if not (in_coordinate_box(xi, coord_bound) and in_coordinate_box(eta, coord_bound)
                        and gcd(xi.a, xi.b, eta.a, eta.b, d) == 1):
                    continue
                hits.append((KElement(xi, d), KElement(eta, d)))
        if hits and stop_at_first_denominator:
            break
    return sorted(hits, key=witness_sort_key)


def _object_search_eisenstein(m, coord_bound, denom_bound, stop_at_first_denominator=False):
    """search_eisenstein before its loops ran on int coordinates, kept as an
    oracle: every divisor, discriminant and rotation is a ring element."""
    target = factor(m).factors
    cap = 12 * coord_bound**2
    hits = []
    for d in range(1, denom_bound + 1):
        md3 = m * d**3
        for e in _object_divisors((E(1), E(-1)), target, factor(E(d)).factors, cap):
            for s in square_roots(12 * (md3 / e) - 3 * e * e):
                num = 3 * e + s
                if num.a % 6 or num.b % 6:
                    continue
                xi0 = E(num.a // 6, num.b // 6)
                eta0 = e - xi0
                if gcd(xi0.a, xi0.b, eta0.a, eta0.b, d) != 1:
                    continue
                for zeta in (E(1), W, V):
                    xi, eta = zeta * xi0, zeta * eta0
                    if in_coordinate_box(xi, coord_bound) and in_coordinate_box(eta, coord_bound):
                        hits.append((KElement(xi, d), KElement(eta, d)))
        if hits and stop_at_first_denominator:
            break
    return sorted(hits, key=witness_sort_key)


def _unwindowed_search_eisenstein(m, coord_bound, denom_bound, stop_at_first_denominator=False):
    """search_eisenstein before its divisor norm window, kept as an oracle:
    every divisor of norm <= 12·bound² goes to the quadratic, for every d."""
    target = factor(m).factors
    hits = []
    for d in range(1, denom_bound + 1):
        ma, mb = m.a * d**3, m.b * d**3
        for ea, eb, n in _divisors(target, factor(E(d)).factors, 12 * coord_bound**2):
            fa, ra = divmod(ma * (ea - eb) + mb * eb, n)
            fb, rb = divmod(mb * ea - ma * eb, n)
            assert not (ra or rb)
            for s in square_roots(E(12 * fa - 3 * (ea * ea - eb * eb),
                                    12 * fb - 3 * (2 * ea - eb) * eb)):
                na, nb = 3 * ea + s.a, 3 * eb + s.b
                if na % 6 or nb % 6:
                    continue
                ua, ub = na // 6, nb // 6
                va, vb = ea - ua, eb - ub
                if gcd(ua, ub, va, vb, d) != 1:
                    continue
                for xa, xb, ya, yb in ((ua, ub, va, vb),
                                       (-ub, ua - ub, -vb, va - vb),
                                       (ub - ua, -ua, vb - va, -va)):
                    if max(abs(xa), abs(xb - xa), abs(ya), abs(yb - ya)) <= coord_bound:
                        hits.append((KElement(E(xa, xb), d), KElement(E(ya, yb), d)))
        if hits and stop_at_first_denominator:
            break
    return sorted(hits, key=witness_sort_key)


class TestDivisors:
    def test_matches_object_enumerator_over_z(self):
        # a rational m·d³ factored in Z[w]: each of its divisors over Z is
        # listed once up to the units 1, w, v, as ±1 times a product of
        # irreducibles (3 = -beta², p = pi·pi_bar up to a unit)
        for m in (1, -1, 12, -30, 97, 360, 30030):
            for d in (1, 2, 6, 35):
                got = _divisors(factor(E(m)).factors, factor(E(d)).factors, (m * d**3) ** 2)
                rational = [e for a, b, _ in got for e in (E(a, b), W * E(a, b), V * E(a, b))
                            if e.b == 0]
                want = _object_divisors((1, -1), factor_int(m).items(), factor_int(d).items())
                assert Counter(e.a for e in rational) == Counter(want), (m, d)

    def test_matches_object_enumerator_over_zw(self):
        pi, _ = split_prime(19)
        for m in (E(1), E(0, 18), E(1, 9), BETA, W * pi, E(30030), E(-7, 3)):
            for d in (1, 2, 6, 35):
                args = (factor(m).factors, factor(E(d)).factors)
                for cap in ((m * d**3).norm(), 1, 7, 300, 10800):
                    got = _divisors(*args, cap)
                    assert all(E(a, b).norm() == n for a, b, n in got)
                    want = _object_divisors((E(1), E(-1)), *args, cap)
                    assert Counter(E(a, b) for a, b, _ in got) == Counter(want), (m, d, cap)

    def test_cap_zero_is_a_cap(self, monkeypatch):
        # a test of `not cap` read 0 as no cap, listing all 768 divisors
        target = factor(E(2 * 3 * 5 * 7 * 11 * 13)).factors
        assert len(_divisors(target, (), 30030**2)) == 768
        assert _divisors(target, (), 0) == []
        listed = []

        def listing(*args):
            divs = _divisors(*args)
            listed.extend(divs)
            return divs

        monkeypatch.setattr(search, "_divisors", listing)
        assert search_eisenstein(E(0, 18), 0, 3) == []
        assert listed == []


def _grid_k_sample(count, seed):
    """count targets a + b·w of the benchmark's grid, |a|, |b| <= 20."""
    grid = [E(a, b) for a in range(-20, 21) for b in range(-20, 21) if a or b]
    return random.Random(seed).sample(grid, count)


class TestIntCoordinates:
    """Both K searches against their object-arithmetic versions at the
    classifier's budget, and a guard on the ring products they make."""

    def test_eisenstein_matches_object_search(self):
        budget = SearchBudget()
        found = 0
        for m in _grid_k_sample(48, 13):
            got = search_eisenstein(m, budget.coord, budget.denom, True)
            assert got == _object_search_eisenstein(m, budget.coord, budget.denom, True), m
            found += bool(got)
        assert found >= 5

    def test_relation_matches_object_search(self):
        budget = SearchBudget()
        found = 0
        for m in _grid_k_sample(48, 13):
            got = relation_search(m, budget.relation)
            assert got == _object_relation_search(m, budget.relation), m
            found += got is not None
        assert found >= 4

    def test_non_divisor_raises(self, monkeypatch):
        # a factorization of 3 that lists the prime 2 offers e = 2, and
        # 3/2 leaves a remainder
        monkeypatch.setattr(search, "factor",
                            lambda x: SimpleNamespace(factors=((E(2), 1),) if x == E(3) else ()))
        with pytest.raises(ArithmeticError, match="does not divide"):
            search_eisenstein(E(3), 5, 1)

    def test_no_ring_products_per_candidate(self, monkeypatch):
        products = []
        mul = EisensteinInt.__mul__

        def counted(self, other):
            products.append(other)
            return mul(self, other)

        monkeypatch.setattr(EisensteinInt, "__mul__", counted)
        monkeypatch.setattr(EisensteinInt, "__rmul__", counted)
        # 208 discriminants go to square_roots; what is left is factoring
        # and checking the 18 hits (the object loops made 1338 products)
        assert len(search_eisenstein(E(0, 18), 30, 5)) == 18
        assert len(products) <= 200
        products.clear()
        # 3744 right-hand sides are looked up (the object loops made 3924
        # cube_roots calls)
        assert relation_search(E(3), 12) is None
        assert len(products) <= 10


class TestSearchEisenstein:
    def test_18w(self):
        hits = search_eisenstein(E(0, 18), 4, 1)
        assert (str(hits[0][0]), str(hits[0][1])) == ("3+2*w", "1")

    def test_beta(self):
        hits = {(str(x), str(y)) for x, y in search_eisenstein(BETA, 3, 3)}
        assert ("(-2-4*w)/3", "(-1-2*w)/3") in hits

    def test_unit_empty(self):
        assert search_eisenstein(W, 5, 3) == []

    def test_matches_naive_box_scan(self):
        for m in (E(2), E(9), E(0, 18), BETA, E(1, 1)):
            coord, denom = 3, 2
            naive = set()
            for d in range(1, denom + 1):
                target = m * d**3
                for x in coordinate_box(coord):
                    for y in coordinate_box(coord):
                        if x**3 + y**3 == target:
                            if gcd(gcd(abs(x.a), abs(x.b)),
                                   gcd(gcd(abs(y.a), abs(y.b)), d)) == 1:
                                naive.add((KElement(x, d), KElement(y, d)))
            assert set(search_eisenstein(m, coord, denom)) == naive, str(m)

    def test_matches_box_scan_oracle(self):
        pi, _ = split_prime(19)
        cases = [(E(a, b), 4, 3) for a in range(-8, 9) for b in range(-8, 9) if a or b]
        cases += [(m, 30, 3) for m in (E(1, 9), E(0, 18), W * pi, E(7), BETA)]
        # x = x at the box corner: x + x has the largest norm the cap lets in
        corner = EisensteinInt.from_uv(4, -4)
        cases.append((2 * corner.cube(), 4, 2))
        found = 0
        for m, coord, denom in cases:
            for stop in (False, True):
                got = search_eisenstein(m, coord, denom, stop)
                assert got == _box_scan(m, coord, denom, stop), (m, stop)
                found += bool(got)
        assert found > 20

    def test_matches_six_unit_oracle(self):
        pi, _ = split_prime(19)
        found = 0
        for m in (E(0, 18), E(1, 9), BETA, E(9), W * pi, E(2), E(3)):
            for stop in (False, True):
                got = search_eisenstein(m, 12, 7, stop)
                assert got == _six_unit_search(m, 12, 7, stop), (m, stop)
                found += len(got)
        assert found > 50

    def test_one_quadratic_per_divisor_orbit(self, monkeypatch):
        # the six-unit loop made 624 square_roots calls here, and one
        # quadratic per orbit made 208 before the mod-3 test on 4f - e²
        calls = []
        monkeypatch.setattr(search, "square_roots", lambda z: calls.append(z) or square_roots(z))
        assert search_eisenstein(E(0, 18), 30, 5)
        assert len(calls) == 104

    def test_stop_at_first_denominator_keeps_leading_hit(self):
        full = search_eisenstein(E(9), 4, 3)
        early = search_eisenstein(E(9), 4, 3, stop_at_first_denominator=True)
        assert full[0] == early[0]


def _relation_oracle(m, bound):
    """relation_search before it tried one r per associate class, kept as
    an oracle: every r of the spiral against every t."""
    for r in coordinate_spiral(bound):
        wr3 = W * r.cube()
        for t in spiral(bound):
            rhs = -(wr3 + m * t**3) * W
            for s in cube_roots(rhs):
                if s.is_zero() or not in_coordinate_box(s, bound):
                    continue
                return r, s, E(t)
    return None


def _object_relation_search(m, bound):
    """relation_search before its loops ran on int coordinates, kept as an
    oracle: r³, m·t³ and the right-hand side are ring elements."""
    mt3s = [(t, m * t**3) for t in spiral(bound)]
    seen = set()
    for r in coordinate_spiral(bound):
        r3 = r.cube()
        if r3 in seen:
            continue
        seen.update((r3, -r3))
        wr3 = W * r3
        for t, mt3 in mt3s:
            for s in cube_roots(-(wr3 + mt3) * W):
                if not s.is_zero() and in_coordinate_box(s, bound):
                    return r, s, E(t)
    return None


def _unwindowed_relation_search(m, bound):
    """relation_search before its right-hand-side norm window and class
    table, kept as an oracle: every right-hand side goes to cube_roots."""
    wmt3s = [(t, m.b * t**3, (m.b - m.a) * t**3) for t in spiral(bound)]
    seen = set()
    for r in coordinate_spiral(bound):
        r3 = r.cube()
        ca, cb = r3.a, r3.b
        if (ca, cb) in seen:
            continue
        seen.update(((ca, cb), (-ca, -cb)))
        for t, ta, tb in wmt3s:
            for s in cube_roots(E(ca - cb + ta, ca + tb)):
                if not s.is_zero() and in_coordinate_box(s, bound):
                    return r, s, E(t)
    return None


_WINDOW_TARGETS = [E(a, b) for a in range(-8, 9) for b in range(-8, 9) if a or b]


class TestRelationSearch:
    def test_matches_every_r_oracle(self):
        pi, _ = split_prime(19)
        cases = [(E(a, b), 6) for a in range(-6, 7) for b in range(-6, 7) if a or b]
        cases += [(m, 12) for m in (E(1, 9), W * pi, E(3))]
        found = 0
        for m, bound in cases:
            got = relation_search(m, bound)
            assert got == _relation_oracle(m, bound), m
            found += got is not None
        assert found >= 15

    def test_one_r_per_associate_class(self, monkeypatch):
        # E(3) has no relation in the box, so every class is tried against
        # every t: 156 classes of the 624 box points, 24 values of t, one
        # table lookup each (trying every r made 14976 cube_roots calls)
        lookups = []

        class Counted(dict):
            def get(self, key, default=None):
                lookups.append(key)
                return super().get(key, default)

        classes, roots = search._box_cubes(12)
        monkeypatch.setattr(search, "_box_cubes", lambda bound: (classes, Counted(roots)))
        assert relation_search(E(3), 12) is None
        assert len(classes) == 156
        assert len(lookups) == 3744

    def test_matches_unwindowed(self):
        found = 0
        for m in _WINDOW_TARGETS:
            for bound in (1, 5, 12):
                got = relation_search(m, bound)
                assert got == _unwindowed_relation_search(m, bound), (m, bound)
                found += got is not None
        assert found >= 40

    def test_cube_table(self, monkeypatch):
        # every nonzero box point's cube is a key, and its value is the root
        # cube_roots lists first in the box, so no search needs cube_roots
        calls = []
        monkeypatch.setattr(search, "cube_roots", lambda z: calls.append(z) or cube_roots(z))
        for bound in (1, 2, 5, 12):
            _, roots = search._box_cubes(bound)
            cubes = {p.cube() for p in coordinate_box(bound) if not p.is_zero()}
            assert set(roots) == {(c.a, c.b) for c in cubes}
            for c in cubes:
                first = next(s for s in cube_roots(c) if not s.is_zero() and in_coordinate_box(s, bound))
                assert E(*roots[c.a, c.b]) == first, (bound, c)
            found = [relation_search(m, bound) for m in _WINDOW_TARGETS]
            assert any(found) and None in found
        assert calls == []

    def test_relation_on_the_box_corner(self):
        # s at the box corner has the largest norm in the box, 3·B², and the
        # table holds the corner's cube: the first r and t meet it there
        for bound in (1, 2, 5, 12):
            corner = EisensteinInt.from_uv(bound, -bound)
            assert corner.norm() == 3 * bound**2
            m = -(W + V * corner.cube())
            assert relation_search(m, bound) == (E(1), corner, E(1))
            assert _unwindowed_relation_search(m, bound) == (E(1), corner, E(1))

    def test_remark_two_target(self):
        r, s, t = relation_search(E(1, 9), 12)
        assert (r, s, t) == (E(2), E(-1), E(-1))

    def test_u_times_norm_19(self):
        m = W * E(-2, 3)
        r, s, t = relation_search(m, 12)
        assert (W * r**3 + V * s**3 + m * t**3).is_zero()
        assert not (r * s * t).is_zero()

    def test_three_has_none(self):
        assert relation_search(E(3), 12) is None

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            relation_search(E(0), 5)

    def test_determinism(self):
        assert relation_search(E(1, 9), 12) == relation_search(E(1, 9), 12)
        assert search_eisenstein(E(9), 4, 3) == search_eisenstein(E(9), 4, 3)


class TestNormWindows:
    """The divisor window of search_eisenstein drops only what no box point
    can reach."""

    def test_eisenstein_matches_unwindowed(self):
        found = 0
        for m in _WINDOW_TARGETS:
            for args in ((6, 4), (30, 50, True), (0, 3)):
                got = search_eisenstein(m, *args)
                assert got == _unwindowed_search_eisenstein(m, *args), (m, args)
                found += bool(got)
        assert found >= 40

    def test_denominator_loop_ends_where_the_window_closes(self, monkeypatch):
        # at bound 1 a hit needs N(3)·d⁶ <= 12·81, so only d = 1, 2 are listed
        calls = []
        monkeypatch.setattr(search, "_divisors", lambda *args: calls.append(args) or _divisors(*args))
        assert search_eisenstein(E(3), 1, 50) == _unwindowed_search_eisenstein(E(3), 1, 50)
        assert len(calls) == 2

    def test_classify_root_calls(self, monkeypatch):
        # classify over |a|, |b| <= 5 at the default budget: 15472
        # square_roots calls and no cube_roots call.  Without the mod-3 test
        # on 4f - e² it made 45100 square_roots calls, and without the divisor
        # window 73636; the relation search made
        # 68486 cube_roots calls before its cube table, 74994 before its
        # right-hand-side window.
        calls = Counter()
        for module, name in ((search, "square_roots"), (search, "cube_roots"),
                             (constructors, "cube_roots")):
            root = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda z, root=root, name=name: calls.update((name,)) or root(z))
        for a in range(-5, 6):
            for b in range(-5, 6):
                if a or b:
                    classify(E(a, b), "K", SearchBudget())
        assert calls == Counter(square_roots=15472), calls


class _StopFactoring(Exception):
    pass


@pytest.mark.parametrize("run, step", [(lambda: search_rational(7, 10**12), "isqrt"),
                                       (lambda: search_eisenstein(W, 4, 10**9), "_divisors")],
                         ids=["rational", "eisenstein"])
def test_denominators_factored_as_the_loop_reaches_them(monkeypatch, run, step):
    # the target, then d = 1 and a step on its divisors (the rational search
    # has one, e = 1, and takes its discriminant's root; the box search lists
    # them), then d = 2: each d is factored only when the loop reaches it,
    # so a huge bound costs nothing up front
    log = []

    def logged(name, real):
        def call(*args):
            log.append(name)
            if log.count("factor") == 3:
                raise _StopFactoring
            return real(*args)
        return call

    for name in ("factor", "factor_int"):
        monkeypatch.setattr(search, name, logged("factor", getattr(search, name)))
    monkeypatch.setattr(search, step, logged("step", getattr(search, step)))
    search._integer_factors.cache_clear()
    with pytest.raises(_StopFactoring):
        run()
    assert log == ["factor", "factor", "step", "factor"]


def test_window_tested_before_the_target_is_factored(monkeypatch):
    # N(40) = 1600 > 12·1²·81·1⁴ = 972: no d passes the window, so the
    # search returns without factoring its target
    monkeypatch.setattr(search, "factor", lambda m: pytest.fail(f"factored {m}"))
    assert search_eisenstein(EisensteinInt(40, 0), 1, 50) == []


def test_denominators_lifted_to_z_w(monkeypatch):
    # the box search lifts each d's factors over Z to Z[w]; factoring d as
    # an element of Z[w] is the reference.  12·1000²·81·1000⁴ >= 3000⁶, so
    # a unit target at bound 1000 keeps the loop open to d = 3000
    lifted = []
    monkeypatch.setattr(search, "_divisors",
                        lambda target, denom, cap: lifted.append(denom) or [])
    assert search_eisenstein(E(1), 1000, 3000) == []
    assert len(lifted) == 3000
    for d, factors in enumerate(lifted, 1):
        assert Counter(factors) == Counter(factor(E(d)).factors), d


class TestFlt3:
    def test_empty_small(self):
        assert flt3_exhaust(1) == []
        assert flt3_exhaust(6) == []

    def test_empty_at_ten(self):
        assert flt3_exhaust(10) == []

    def test_scan_lists_planted_solutions(self, monkeypatch):
        # with cube() replaced by the identity the scan solves x + y + z = 0,
        # which has many solutions: every one must be listed, each unordered
        # pair {x, y} once
        monkeypatch.setattr(EisensteinInt, "cube", lambda self: self)
        bound = 3
        box = [z for z in coordinate_box(bound) if not z.is_zero()]
        want = {
            (frozenset((x, y)), -x - y)
            for x in box
            for y in box
            if -x - y in box
        }
        got = flt3_exhaust(bound)
        assert len(got) == len(want)
        assert {(frozenset((x, y)), z) for x, y, z in got} == want

    def test_scanner_sanity_inverted(self):
        # x³ + y³ - z³ = 0 allowing x = z has the trivial y = 0 family;
        # the same box machinery must find it, so emptiness above is not
        # an artifact of a broken scanner
        bound = 3
        hits = []
        for x in coordinate_box(bound):
            if x.is_zero():
                continue
            for y in coordinate_box(bound):
                z = x  # allow x = z
                if (x**3 + y**3 - z**3).is_zero():
                    hits.append((x, y, z))
        assert hits and all(y.is_zero() for _, y, _ in hits)


class TestCubeAp:
    def test_empty_to_1000(self):
        assert cube_ap_exhaust(1000) == []

    def test_maps_distinct_m2_points_to_primitive_triples(self, monkeypatch):
        # a made-up point of x³ + y³ = 2 beside (1, 1), in both orders as
        # the complete search lists it: the trivial point is dropped, and
        # the other becomes one (smaller numerator, d, larger numerator)
        calls = []

        def fake(m, bound):
            calls.append((m, bound))
            q = KElement
            return [(q(1), q(1)), (q(-5, 3), q(7, 3)), (q(7, 3), q(-5, 3))]

        monkeypatch.setattr(search, "search_rational", fake)
        assert cube_ap_exhaust(10) == [(-5, 3, 7)]
        assert calls == [(2, 10)]

    def test_squares_version_finds_1_5_7(self):
        # scanner sanity: squares in arithmetic progression do exist
        found = []
        for x in range(1, 20):
            for y in range(x + 1, 20):
                s = x * x + y * y
                if s % 2 == 0:
                    z = isqrt(s // 2)
                    if 2 * z * z == s and x < z < y:
                        found.append((x, z, y))
        assert (1, 5, 7) in found


def _mordell_rational_scan(coord_bound: int, denom_bound: int):
    """The rational scan mordell_check ran beside its field scan, kept as an
    oracle: numerators |a| <= coord_bound over denominators d <= denom_bound,
    y from isqrt."""
    rational = []
    for d in range(1, denom_bound + 1):
        for a in range(-coord_bound, coord_bound + 1):
            if gcd(abs(a), d) != 1:
                continue
            x = KElement(a, d)
            w = x**3 + 1
            n = w.num.a * w.den
            if n < 0:
                continue
            s = isqrt(n)
            if s * s != n:
                continue
            y = KElement(s, w.den)
            for yy in ((y,) if y.is_zero() else (y, -y)):
                assert yy**2 == x**3 + 1
                rational.append((x, yy))
    rational.sort(key=witness_sort_key)
    return tuple(rational)


class TestMordell:
    def test_rational_hits_match_rational_scan(self):
        for denom, coord in ((6, 8), (1, 1), (3, 20), (12, 12), (10, 30)):
            assert mordell_check(coord, denom).rational_hits == _mordell_rational_scan(coord, denom)

    def test_rational_hits(self):
        report = mordell_check(8, 6)
        rational = {(str(x), str(y)) for x, y in report.rational_hits}
        assert rational == {("-1", "0"), ("0", "1"), ("0", "-1"), ("2", "3"), ("2", "-3")}

    def test_k_hits_have_cube_in_allowed_set(self):
        report = mordell_check(8, 6)
        allowed = {KElement(-1), KElement(0), KElement(8)}
        assert report.eisenstein_hits
        for x, y in report.eisenstein_hits:
            assert x**3 in allowed
            assert y**2 in (KElement(0), KElement(1), KElement(9))

    def test_2w_hit_present(self):
        report = mordell_check(3, 2)
        assert any(x == KElement(2 * W) for x, _ in report.eisenstein_hits)

    def test_empty_budget_is_quiet(self):
        report = mordell_check(1, 1)
        assert all(y**2 == x**3 + 1 for x, y in report.rational_hits)

    @pytest.mark.parametrize("plant, message", [
        ("search.square_roots = lambda z: [E(5)]", "does not square back"),
        ("search._MORDELL_X3 = frozenset()", "counterexample to y² = x³ + 1"),
    ], ids=["non-root", "x3-outside-set"])
    def test_checks_raise_under_optimize(self, plant, message):
        """A root that does not square back to x³ + 1, and a hit whose x³
        is outside {-1, 0, 8}, each raise ArithmeticError under python -O,
        where assert statements are stripped."""
        code = (
            "from cubesum import search\n"
            "from cubesum.eisenstein import EisensteinInt as E\n"
            "assert False, 'asserts must be stripped'\n"
            f"{plant}\n"
            "try:\n"
            "    search.mordell_check(1, 1)\n"
            "except ArithmeticError as err:\n"
            "    print(err)\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 0, out.stderr or out.stdout
        assert message in out.stdout


class TestBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchBudget(denom=0)
