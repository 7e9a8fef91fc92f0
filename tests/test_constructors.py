"""Solution builders, the Lucas identity, and the executable descent."""

import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

from cubesum import constructors, search
from cubesum.constructors import (
    DescentTerminal,
    Triple,
    TripleStructureError,
    _unit_cube_parts,
    cube_triple_structure,
    descent_step,
    descent_trace,
    lucas_pair,
    lucas_triple_search,
    lucas_witness,
    reduce_triple,
    secant_step,
    solution_from_relation,
    tangent_step,
    triple_from_solution,
)
from cubesum.eisenstein import (
    BETA,
    UNITS,
    EisensteinInt,
    KElement,
    ONE,
    V,
    W,
    coordinate_box,
    eis_gcd,
    is_primary,
    unit_inverse,
)
from cubesum.factorization import Factorization, factor, split_cubes
from cubesum.search import cube_roots, search_eisenstein, search_rational


def E(a, b=0):
    return EisensteinInt(a, b)


def KQ(p, q=1):
    return KElement(p, q)


def _float_cbrt(n: int) -> int | None:
    """Integer cube root of a small n from a rounded float guess, or None."""
    k = round(abs(n) ** (1 / 3))
    for r in (k - 1, k, k + 1):
        if r**3 == abs(n):
            return r if n >= 0 else -r
    return None


def _fraction_lucas_witness(a: int, b: int, m: int):
    """The Fraction construction lucas_witness replaced, kept as an oracle:
    d = -3·cbrt(abc/m)·(a² + ab + b²) and the witness (x/d, y/d)."""
    q = Fraction(a * b * (-a - b), m)
    root = Fraction(_float_cbrt(q.numerator), _float_cbrt(q.denominator))
    x, y = lucas_pair(a, b)
    d = -3 * root * (a * a + a * b + b * b)
    return (
        KElement(x * d.denominator, d.numerator),
        KElement(y * d.denominator, d.numerator),
    )


def _loop_reduce_triple(t: Triple) -> Triple:
    """The gcd loop reduce_triple replaced, kept as an oracle: divide all
    three entries by gcd(gcd(A, B), C) until it is a unit."""
    a, b, c = t.A, t.B, t.C
    while True:
        g = eis_gcd(eis_gcd(a, b), c)
        if g.is_unit():
            break
        a, b, c = a / g, b / g, c / g
    return Triple(a, b, c, t.target)


def _primary_twist(x):
    for zeta in (ONE, W, V):
        if is_primary(zeta * x):
            return zeta * x
    return None


def _arrange_plus_minus(r, s):
    r1, s1 = _primary_twist(r), _primary_twist(-s)
    return None if r1 is None or s1 is None else (r1, -s1)


BETA_VARIANT_ENTRIES = []


def _beta_variant_descent_step(t: Triple) -> Triple:
    """descent_step as it was before the FLT(3)-unreachable beta-variant and
    unit sign flip were removed (its asserts left out), kept as an oracle.
    Each entry into the beta-variant branch is recorded in
    BETA_VARIANT_ENTRIES."""
    t = _loop_reduce_triple(t)
    a, b, c = t.entries()
    if a.is_unit() and b.is_unit():
        raise DescentTerminal("A and B are units")
    i, r = _unit_cube_parts(a, "A")
    j, s = _unit_cube_parts(b, "B")
    if i != ONE:
        inv = unit_inverse(i)
        a, b, c = inv * a, inv * b, inv * c
        j = inv * j
        if j in (-ONE, -W, -V):
            j, s = -j, -s
    if j != ONE:
        raise TripleStructureError(
            f"triple not in descent form: unit mismatch i != j (j/i = {j})"
        )
    c_root, c_rest = split_cubes(factor(c))
    m_core = c_rest.value()
    for cand in (s, W * s, V * s):
        if m_core.divides(r + cand):
            s = cand
            break
    a2, b2, c2 = W * r + V * s, V * r + W * s, r + s
    if a2.is_zero() or b2.is_zero() or c2.is_zero():
        raise TripleStructureError("descent step degenerates: r³ = s³ collision")
    if c_rest == Factorization(ONE, ()) and BETA.divides(c_root):
        BETA_VARIANT_ENTRIES.append(t)
        pair = _arrange_plus_minus(r, s) or _arrange_plus_minus(s, r)
        if pair is not None:
            r, s = pair
            return Triple((W * r + V * s) / BETA, (V * r + W * s) / BETA, (r + s) / BETA, t.target)
    return Triple(a2, b2, c2, t.target)


def _outcome(step, t: Triple):
    """A step's result as comparable data: the triple, or the exception."""
    try:
        out = step(t)
    except (ValueError, ArithmeticError, DescentTerminal) as exc:
        return type(exc).__name__, str(exc)
    return out.entries(), out.target


def _seeded_triples(count: int, seed: int):
    """Valid triples (u·r³·k, u'·s³·k, -u·r³·k - u'·s³·k) with target A·B·C:
    u, u' range independently over the six units, so two thirds of the
    triples carry mismatched unit classes, and k is a common factor."""
    rng = random.Random(seed)

    def small(bound):
        while True:
            x = E(rng.randint(-bound, bound), rng.randint(-bound, bound))
            if not x.is_zero():
                return x

    triples = []
    while len(triples) < count:
        k = rng.choice((ONE, ONE, BETA, E(2), small(2)))
        a = rng.choice(UNITS) * small(4) ** 3 * k
        b = rng.choice(UNITS) * small(4) ** 3 * k
        if (a + b).is_zero():
            continue
        triples.append(Triple(a, b, -a - b, a * b * -(a + b)))
    return triples


class TestDescentParity:
    """reduce_triple and descent_step agree with the gcd loop and the
    beta-variant step they replaced, outcome for outcome (triple, or
    exception type and message)."""

    def test_matches_gcd_loop_and_beta_variant_step(self):
        del BETA_VARIANT_ENTRIES[:]
        kinds = set()
        # every caught mutation of reduce_triple and descent_step (the unit
        # division of C, the unit-mismatch raise, the gcd division, the
        # candidate choice) first fails by triple 142 of this corpus
        for t in _seeded_triples(1_000, 9):
            assert reduce_triple(t) == _loop_reduce_triple(t), t
            got = _outcome(descent_step, t)
            assert got == _outcome(_beta_variant_descent_step, t), t
            kinds.add(got[0] if isinstance(got[0], str) else "step")
        assert kinds == {"step", "TripleStructureError", "DescentTerminal"}
        assert BETA_VARIANT_ENTRIES == []

    def test_c_is_never_a_unit_times_a_cube(self):
        # FLT(3) over Z[w]: r³ + s³ + u·c³ = 0 has no solution with
        # r·s·c != 0 for a unit u, so C is never a unit times a cube once
        # A and B have passed structure extraction
        stepped = 0
        for t in _seeded_triples(2_000, 10):
            try:
                descent_step(t)
            except (TripleStructureError, DescentTerminal):
                continue
            assert split_cubes(factor(reduce_triple(t).C))[1].factors, t
            stepped += 1
        assert stepped > 200
        for a in range(-6, 7):
            for b in range(-6, 7):
                for s in (ONE, E(2), BETA, E(2, 5)):
                    c = E(a, b) ** 3 + s**3
                    if (a or b) and not c.is_zero():
                        assert split_cubes(factor(c))[1].factors, (a, b, s)

    def test_step_entries_never_vanish(self):
        # descent_step has no zero-entry test: its entries multiply to
        # r³ + s³ = -C/i, which is nonzero since C is
        box = [x for x in coordinate_box(5) if not x.is_zero()]
        for r in box:
            for s in box:
                total = r.cube() + s.cube()
                if total.is_zero():
                    continue
                a2, b2, c2 = W * r + V * s, V * r + W * s, r + s
                assert not (a2.is_zero() or b2.is_zero() or c2.is_zero()), (r, s)
                assert a2 * b2 * c2 == total, (r, s)


def _c_in_target_class(t: Triple) -> bool:
    """Whether A and B are unit times cube; if so, assert that C's non-cube
    part is the target's, as descent_step assumes."""
    try:
        _unit_cube_parts(t.A, "A")
        _unit_cube_parts(t.B, "B")
    except TripleStructureError:
        return False
    assert split_cubes(factor(t.C))[1].factors == split_cubes(factor(t.target))[1].factors, t
    return True


class TestDescentCubeClass:
    """A·B·C = M·k³ with A = i·r³ and B = i·s³ gives v_π(C) = v_π(M) mod 3
    for every π, so descent_step may factor the target in place of C."""

    def test_on_descent_traces(self):
        checked = 0
        for m in range(2, 400):
            pairs = [(x, y) for x, y in search_rational(m, 12) if x != y and not (x * y).is_zero()]
            for x, y in pairs[:3]:
                checked += sum(map(_c_in_target_class, descent_trace(x, y, E(m)).steps))
        assert checked > 150

    def test_on_stepped_random_triples(self):
        # criterion 10's triples (r³, s³, -r³ - s³) and the seeded corpus
        # with its common factors, each stepped down until the descent stops
        rng = random.Random(20)
        starts = _seeded_triples(500, 11)
        while len(starts) < 1_000:
            r, s = (E(rng.randint(-20, 20), rng.randint(-20, 20)) for _ in "rs")
            c = -(r**3) - s**3
            if not (r * s * c).is_zero():
                starts.append(Triple(r**3, s**3, c, c))
        checked = 0
        for t in starts:
            t = reduce_triple(t)
            while _c_in_target_class(t):
                checked += 1
                try:
                    t = reduce_triple(descent_step(t))
                except (TripleStructureError, DescentTerminal):
                    break
        assert checked > 1_000


class TestSolutionFromRelation:
    def test_trivial_relation(self):
        x, y = solution_from_relation(E(1), E(1), E(1), E(1))
        assert (x, y) == (KElement(1), KElement(0))

    def test_norm_73_generator(self):
        # relation 8w + v·(-1)³·(-1)... : w·2³ + v·(-1)³ + (1+9w)·(-1)³ = 0
        x, y = solution_from_relation(E(2), E(-1), E(-1), E(1, 9))
        assert (str(x), str(y)) == ("(2-3*w)/2", "(-3-6*w)/2")
        assert x**3 + y**3 == KElement(E(1, 9))

    def test_v_times_norm_19(self):
        m = V * E(-2, 3)  # = 5 + 2w
        assert m == E(5, 2)
        x, y = solution_from_relation(BETA, E(1), E(-1), m)
        assert x**3 + y**3 == KElement(m)

    def test_invalid_relation(self):
        with pytest.raises(ValueError):
            solution_from_relation(E(1), E(1), E(1), E(2))
        with pytest.raises(ValueError):
            solution_from_relation(E(0), E(1), E(1), E(1))

    def test_random_valid_relations(self):
        # pick r, s, take t = 1 and solve for m; the construction must
        # then verify against that m
        rng = random.Random(19)
        checked = 0
        while checked < 100:
            r = E(rng.randint(-9, 9), rng.randint(-9, 9))
            s = E(rng.randint(-9, 9), rng.randint(-9, 9))
            if r.is_zero() or s.is_zero():
                continue
            m = -(W * r**3 + V * s**3)
            if m.is_zero():
                continue
            checked += 1
            x, y = solution_from_relation(r, s, E(1), m)
            assert x**3 + y**3 == KElement(m)


class TestLucasPair:
    def test_sixty_one_triple(self):
        assert lucas_pair(64, -3) == (190171, -295579)

    def test_symmetric(self):
        assert lucas_pair(1, 1) == (9, 9)

    def test_seventy_three_triple(self):
        x, y = lucas_pair(81, -8)
        assert x + y == 9 * 81 * (-8) * 73

    def test_identities_soak(self):
        rng = random.Random(20)
        for _ in range(1000):
            a, b = rng.randint(-500, 500), rng.randint(-500, 500)
            x, y = lucas_pair(a, b)  # identities asserted inside
            c = -a - b
            assert x**3 + y**3 == -27 * a * b * c * (a * a + a * b + b * b) ** 3


class TestLucasWitness:
    def test_183(self):
        x, y = lucas_witness(-3, -61, 183)
        assert (str(x), str(y)) == ("-190171/46956", "295579/46956")

    def test_201(self):
        x, y = lucas_witness(-3, -64, 201)
        assert x**3 + y**3 == KElement(201)

    def test_219(self):
        x, y = lucas_witness(-8, -73, 219)
        assert x**3 + y**3 == KElement(219)

    def test_two_from_ones(self):
        assert lucas_witness(1, 1, 2) == (KQ(1), KQ(1))

    def test_mismatched_target(self):
        with pytest.raises(ValueError):
            lucas_witness(64, -3, 5)

    def test_matches_fraction_construction(self):
        hits = 0
        for m in range(-60, 61):
            pair = lucas_triple_search(m, 20) if m else None
            if pair is not None:
                assert lucas_witness(*pair, m) == _fraction_lucas_witness(*pair, m), m
                hits += 1
        assert hits > 20


class TestLucasTripleSearch:
    def test_183(self):
        pair = lucas_triple_search(183, 100)
        assert pair == (-3, -61)
        a, b = pair
        q = Fraction(a * b * (-a - b), 183)
        assert q == 64  # a perfect rational cube, as required
        lucas_witness(a, b, 183)  # must not raise

    def test_219_class(self):
        pair = lucas_triple_search(219, 100)
        assert pair is not None and {abs(pair[0]), abs(pair[1])} <= {8, 73, 81}
        lucas_witness(pair[0], pair[1], 219)

    def test_15_finds_a_triple(self):
        # (-3)(-5)(8)/15 = 8 is a cube, so 15 is in fact a sum of two
        # rational cubes: 15 = (397/294)³ + (683/294)³
        assert lucas_triple_search(15, 30) == (-3, -5)
        x, y = lucas_witness(-3, -5, 15)
        assert x**3 + y**3 == KElement(15)
        assert (str(x), str(y)) == ("397/294", "683/294")

    def test_solvable_target_has_triples(self):
        # 7 = 2³ + (-1)³ scales to the triple (-1, -7, 8), found first
        assert lucas_triple_search(7, 8) == (-1, -7)

    def test_absent_for_blocked_target(self):
        # 5 is not a sum of two rational cubes, so no triple can exist
        assert lucas_triple_search(5, 20) is None

    def test_matches_fraction_scan(self):
        # the Fraction test the integer-cube test replaced, kept as an oracle
        def is_rational_cube(q: Fraction) -> bool:
            if q == 0:
                return True
            return _float_cbrt(q.numerator) is not None and _float_cbrt(q.denominator) is not None

        def fraction_scan(m, bound):
            for s in range(2, 2 * bound + 1):
                for abs_a in range(1, min(s - 1, bound) + 1):
                    abs_b = s - abs_a
                    if abs_b > bound:
                        continue
                    for a in (-abs_a, abs_a):
                        for b in (-abs_b, abs_b):
                            c = -a - b
                            if c and is_rational_cube(Fraction(a * b * c, m)):
                                return a, b
            return None

        for m in range(-40, 41):
            if m:
                assert lucas_triple_search(m, 16) == fraction_scan(m, 16), m


def _one_sign_lucas_scan(m: int, bound: int) -> tuple[int, int] | None:
    """The Lucas scan over one sign pattern, (-x, -(s - x)) with x <= s/2,
    whose a·b·c = x·(s - x)·s: changing the signs of (a, b) or swapping them
    only flips the sign of abc or reorders it, so no other pattern can hit
    first."""
    for s in range(2, 2 * bound + 1):
        for x in range(max(1, s - bound), s // 2 + 1):
            if search._exact_icbrt(x * (s - x) * s * m * m) is not None:
                return -x, -(s - x)
    return None


@pytest.mark.parametrize("targets, bound", [
    (range(-400, 401), 1), (range(-400, 401), 3), (range(-400, 401), 7),
    (range(-400, 401), 20), ((183, 219, 7, 15, 5, 10**12 + 39), 100),
])
def test_lucas_scan_returns_the_one_sign_answer(targets, bound):
    found = 0
    for m in targets:
        if m:
            got = lucas_triple_search(m, bound)
            assert got == _one_sign_lucas_scan(m, bound), m
            found += got is not None
    assert found


# cube residues, computed here apart from search's tables
_CUBES_819 = {k**3 % 819 for k in range(819)}
_CUBES_703 = {k**3 % 703 for k in range(703)}


def _unsieved_lucas_triple_search(m: int, bound: int) -> tuple[int, int] | None:
    """lucas_triple_search as it was before the per-target residue tables:
    the residue tests on n = a·b·c·m² itself, then _exact_icbrt(n), per
    candidate, kept as an oracle."""
    if m == 0:
        raise ValueError("target must be nonzero")
    for s in range(2, 2 * bound + 1):
        for abs_a in range(max(1, s - bound), min(s - 1, bound) + 1):
            abs_b = s - abs_a
            for a in (-abs_a, abs_a):
                for b in (-abs_b, abs_b):
                    c = -a - b
                    if c == 0:
                        continue
                    n = a * b * c * m * m
                    if (n % 819 in _CUBES_819 and n % 703 in _CUBES_703
                            and search._exact_icbrt(n) is not None):
                        return a, b
    return None


_SIEVE_PRIMES = 7 * 13 * 19 * 37  # every prime of 819·703 but 3
_LARGE_TARGETS = (10**12 + 39, -(10**12 + 1), 10**12 - 3 * 7 * 19)
_BOUND_100_TARGETS = ((183, 219, 7, 15, 5, 58, 381, 67, 280)
                      + tuple(k * _SIEVE_PRIMES for k in (1, 2, 3, -5, 9))
                      + _LARGE_TARGETS)


# at bound 20, |m| <= 500 catches each scan and sieve mutation that
# |m| <= 1500 catches, in a third of the time
@pytest.mark.parametrize("targets, bound", [
    (range(-1500, 1501), 1), (range(-1500, 1501), 3), (range(-1500, 1501), 7),
    (range(-500, 501), 20), (_BOUND_100_TARGETS, 100),
])
def test_lucas_scan_matches_unsieved_oracle(targets, bound):
    found = 0
    for m in targets:
        if m:
            got = lucas_triple_search(m, bound)
            assert got == _unsieved_lucas_triple_search(m, bound), m
            found += got is not None
    assert found


def test_cube_sieve_matches_its_definition():
    for m in (*range(-1500, 1501), *_BOUND_100_TARGETS):
        t819 = search._cube_sieve(m * m, 819, search._CUBES_MOD_819)
        t703 = search._cube_sieve(m * m, 703, search._CUBES_MOD_703)
        assert t819 == bytes(t * m * m % 819 in _CUBES_819 for t in range(819)), m
        assert t703 == bytes(t * m * m % 703 in _CUBES_703 for t in range(703)), m


def test_scan_cubes_only_residue_survivors(monkeypatch):
    # every candidate whose a·b·c·m² passes both residue tests reaches
    # _exact_icbrt, and no other does
    bound = 100
    products = [a * b * (-a - b)
                for s in range(2, 2 * bound + 1)
                for abs_a in range(max(1, s - bound), min(s - 1, bound) + 1)
                for a in (-abs_a, abs_a) for b in (-(s - abs_a), s - abs_a)
                if a + b]
    calls = []

    def counting(n):
        calls.append(n)
        return search._exact_icbrt(n)

    monkeypatch.setattr(constructors, "_exact_icbrt", counting)
    for m in range(1, 101):
        survivors = 0
        for p in products:
            n = p * m * m
            if n % 819 in _CUBES_819 and n % 703 in _CUBES_703:
                survivors += 1
                if search._icbrt(abs(n)) ** 3 == abs(n):
                    break
        calls.clear()
        lucas_triple_search(m, bound)
        assert len(calls) == survivors, m


def test_exhausting_scan_allocates_little():
    # the per-call tables are its only state: an exhausting scan peaks at a
    # few KiB and leaves nothing behind, for one target or the next
    before = dict(vars(constructors)), dict(vars(search))
    tracemalloc.start()
    try:
        assert lucas_triple_search(5, 100) is None
        held, peak = tracemalloc.get_traced_memory()
        assert lucas_triple_search(4, 100) is None
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert held < 256 and after < 256
    assert (dict(vars(constructors)), dict(vars(search))) == before


@pytest.mark.parametrize("call, message", [
    (lambda: Triple(E(0), E(1), E(-1), E(1)), "triple entries must be nonzero"),
    (lambda: Triple(E(1), E(1), E(1), E(1)), "triple does not sum to zero"),
    (lambda: lucas_witness(0, 3, 7), "degenerate triple"),
    (lambda: lucas_triple_search(0, 5), "target must be nonzero"),
    (lambda: search_eisenstein(E(0), 3, 3), "target must be nonzero"),
    (lambda: secant_step(KQ(7), (KQ(2), KQ(-1)), (KQ(1), KQ(1))), "point is not on the curve"),
    (lambda: triple_from_solution(KQ(2), KQ(1), E(7)), "not a solution of x³ + y³ = m"),
])
def test_public_input_checks(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


class TestTangentSecant:
    def test_diophantus_seven(self):
        x, y = tangent_step(KQ(7), (KQ(2), KQ(-1)))
        assert (str(x), str(y)) == ("4/3", "5/3")

    def test_nine(self):
        x, y = tangent_step(KQ(9), (KQ(2), KQ(1)))
        assert x**3 + y**3 == KQ(9)
        assert (x, y) != (KQ(2), KQ(1))

    def test_18w(self):
        m = KElement(E(0, 18))
        base = (KElement(E(3, 2)), KElement(1))
        x, y = tangent_step(m, base)
        assert x**3 + y**3 == m

    def test_degenerate(self):
        with pytest.raises(ValueError):
            tangent_step(KQ(2), (KQ(1), KQ(1)))
        with pytest.raises(ValueError):
            tangent_step(KQ(7), (KQ(1), KQ(1)))  # not on the curve

    def test_secant(self):
        p1 = (KQ(2), KQ(-1))
        p2 = (KQ(5, 3), KQ(4, 3))
        x, y = secant_step(KQ(7), p1, p2)
        assert (str(x), str(y)) == ("73/38", "-17/38")
        assert x**3 + y**3 == KQ(7)

    def test_secant_through_tangency_returns_base(self):
        # the line through P and its tangent double is tangent at P, so the
        # third intersection is P again
        p1 = (KQ(2), KQ(-1))
        p2 = (KQ(4, 3), KQ(5, 3))
        assert secant_step(KQ(7), p1, p2) == p1

    def test_secant_degenerate(self):
        with pytest.raises(ValueError):
            secant_step(KQ(7), (KQ(2), KQ(-1)), (KQ(2), KQ(-1)))


class TestTriples:
    def test_from_integral_solution(self):
        t = triple_from_solution(KQ(2), KQ(-1), E(7))
        assert (t.A, t.B, t.C) == (E(8), E(-1), E(-7))

    def test_from_fractional_solution(self):
        t = triple_from_solution(KQ(37, 21), KQ(17, 21), E(6))
        assert (t.A, t.B, t.C) == (E(37**3), E(17**3), E(-6 * 21**3))

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            triple_from_solution(KQ(1), KQ(1), E(2))
        with pytest.raises(ValueError):
            triple_from_solution(KQ(1), KQ(0), E(1))

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            Triple(E(1), E(1), E(-2), E(7))  # product not 7·cube

    def test_reduce(self):
        t = Triple(E(8), E(-1), E(-7), E(7))
        assert reduce_triple(t).entries() == (E(8), E(-1), E(-7))
        scaled = Triple(BETA * 8, BETA * -1, BETA * -7, E(7))
        assert reduce_triple(scaled).entries() == (E(8), E(-1), E(-7))
        doubled = Triple(E(16), E(-2), E(-14), E(7))
        assert reduce_triple(doubled).entries() == (E(8), E(-1), E(-7))


class TestDescentStep:
    def test_seven_step(self):
        t = Triple(E(8), E(-1), E(-7), E(7))
        t2 = descent_step(t)
        assert t2.A * t2.B * t2.C == E(7)  # = -C
        assert t2.A + t2.B + t2.C == E(0)
        assert t2.norm_product() < t.norm_product()

    def test_units_case_terminal(self):
        t = Triple(E(1), W, V, E(1))
        with pytest.raises(DescentTerminal):
            descent_step(t)

    def test_structure_absence_is_informative(self):
        t = Triple(E(1, 3), E(-2, -3), E(1), E(7))
        with pytest.raises(TripleStructureError) as exc:
            descent_step(t)
        assert "exponent" in str(exc.value)

    def test_beta_variant_identity(self):
        # cubes with 3 | r - 1, 3 | s + 1: the step divides through by beta
        rng = random.Random(21)
        checked = 0
        while checked < 50:
            r = E(1 + 3 * rng.randint(-5, 5), 3 * rng.randint(-5, 5))
            s = E(-1 + 3 * rng.randint(-5, 5), 3 * rng.randint(-5, 5))
            c = -(r**3) - s**3
            if r.is_zero() or s.is_zero() or c.is_zero() or r**3 == s**3:
                continue
            if not BETA.divides(c):
                continue
            if (r.is_unit() and s.is_unit()):
                continue
            a2 = (W * r + V * s) / BETA
            b2 = (V * r + W * s) / BETA
            c2 = (r + s) / BETA
            assert a2 * b2 * c2 * BETA**3 == -c
            checked += 1


class TestDescentTrace:
    def test_seven(self):
        trace = descent_trace(KQ(2), KQ(-1), E(7))
        norms = trace.norms()
        assert all(a > b for a, b in zip(norms, norms[1:]))
        assert "structure-absent" in trace.terminal or "units" in trace.terminal

    def test_six(self):
        trace = descent_trace(KQ(37, 21), KQ(17, 21), E(6))
        norms = trace.norms()
        assert len(norms) >= 2
        assert all(a > b for a, b in zip(norms, norms[1:]))

    def test_degenerate_input(self):
        with pytest.raises(ValueError):
            descent_trace(KQ(1), KQ(1), E(2))

    def test_step_that_does_not_shrink_raises(self, monkeypatch):
        # the shrink check is what bounds the loop: a step returning its
        # input would otherwise run forever, so the stub gives up after a
        # few calls rather than hang the suite
        calls = []

        def stuck(t):
            calls.append(t)
            if len(calls) > 3:
                raise RuntimeError("descent loop did not stop")
            return t

        monkeypatch.setattr(constructors, "descent_step", stuck)
        with pytest.raises(ArithmeticError, match="descent failed to shrink"):
            descent_trace(KQ(37, 21), KQ(17, 21), E(6))
        assert len(calls) == 1


def _k_quotient_is_cube(t_entries, target) -> bool:
    """The invariant as it was tested before, kept as an oracle: the
    K-quotient x = A·B·C/target is a cube when num·den² is a cube of Z[w]."""
    a, b, c = t_entries
    x = KElement(a * b * c) / KElement(target)
    return bool(cube_roots(x.num * x.den**2))


class TestTripleLifecycle:
    """Each descent triple is built, reduced and checked once."""

    def test_integral_invariant_matches_k_quotient(self):
        # the seeded triples hold the invariant; a target scaled by a
        # non-cube breaks it, one scaled by a cube (or -1) keeps it
        accepted = rejected = 0
        for t in _seeded_triples(1_000, 12):
            for q in (ONE, -ONE, E(8), BETA**3, E(2), E(4), W, BETA, E(1, 3), E(3)):
                target = t.target * q
                expected = _k_quotient_is_cube(t.entries(), target)
                try:
                    Triple(t.A, t.B, t.C, target)
                except ValueError:
                    assert not expected, (t, q)
                    rejected += 1
                else:
                    assert expected, (t, q)
                    accepted += 1
        assert accepted == 4_000 and rejected == 6_000

    def test_zero_target_rejected(self):
        with pytest.raises(ValueError, match="target must be nonzero"):
            Triple(E(8), E(-1), E(-7), E(0))

    def test_reduce_of_reduced_triple_is_the_same_object(self):
        for t in _seeded_triples(1_000, 13):
            reduced = reduce_triple(t)
            assert reduce_triple(reduced) is reduced, t

    def test_six_trace_builds_five_triples(self, monkeypatch):
        # one from the solution, then one per step and one per reduction
        # that divides; a reduced triple is never rebuilt
        built = []
        check = Triple.__post_init__

        def counting(self):
            built.append(self)
            check(self)

        monkeypatch.setattr(Triple, "__post_init__", counting)
        trace = descent_trace(KQ(37, 21), KQ(17, 21), E(6))
        assert len(trace.steps) == 3
        assert len(built) == 5


def _cube_triple_structure_by_permutations(a, b, c):
    """The six-permutation scan cube_triple_structure ran before, kept as an
    oracle: every decomposition, the rational base first."""
    entries = (a, b, c)
    if any(e.is_zero() for e in entries):
        raise ValueError("not a cube triple: zero entry")
    if not (a + b + c).is_zero():
        raise ValueError("not a cube triple: nonzero sum")
    if not cube_roots(a * b * c):
        raise ValueError("not a cube triple: product is not a cube")
    found = []
    for i0 in range(3):
        d = entries[i0]
        for i1 in range(3):
            if i1 == i0:
                continue
            i2 = 3 - i0 - i1
            if entries[i1] == d * W and entries[i2] == d * V:
                found.append((d, (i0, i1, i2)))
    if not found:
        raise ValueError("not a cube triple: no unit decomposition")
    found.sort(key=lambda t: (0 if t[0].is_rational() else 1, t[1]))
    return found[0]


def _structure_outcome(fn, *entries):
    """The decomposition as comparable data: the value, or the exception."""
    try:
        return fn(*entries)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


class TestCubeTripleStructure:
    def test_matches_permutation_scan_on_box_pairs(self):
        # every (a, b, -a - b) from the [-6, 6]² box, zeros and all
        box = list(coordinate_box(6))
        decomposed = 0
        for a in box:
            for b in box:
                want = _structure_outcome(_cube_triple_structure_by_permutations, a, b, -a - b)
                assert _structure_outcome(cube_triple_structure, a, b, -a - b) == want, (a, b)
                decomposed += want[0] != "ValueError"
        assert decomposed > 0

    def test_matches_permutation_scan_on_shuffled_rotations(self):
        rng = random.Random(16)
        rational = 0
        for _ in range(3_000):
            d = E(rng.randint(-50, 50), rng.randint(-50, 50))
            if rng.random() < 0.2:
                d = E(d.a)
            if d.is_zero():
                continue
            entries = [d, d * W, d * V]
            rng.shuffle(entries)
            want = _cube_triple_structure_by_permutations(*entries)
            assert cube_triple_structure(*entries) == want, entries
            rational += want[0].is_rational()
        assert rational > 0

    def test_unit_triple(self):
        c, perm = cube_triple_structure(E(1), W, V)
        assert c == ONE and perm == (0, 1, 2)

    def test_scaled_rotation(self):
        c, perm = cube_triple_structure(2 * V, E(2), 2 * W)
        assert c == E(2)

    def test_rejects_non_cube_product(self):
        with pytest.raises(ValueError):
            cube_triple_structure(E(1), E(1), E(-2))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            cube_triple_structure(E(1), W, W)

    def test_is_cube(self):
        assert cube_roots(E(8))
        assert cube_roots(E(-8))
        assert cube_roots(BETA**3)
        assert not cube_roots(W)
        assert not cube_roots(E(2))
        assert cube_roots(E(0)) == [E(0)]

    def test_is_cube_agrees_with_cube_split(self):
        # the factoring route: x is a cube when its cube class is trivial
        def via_factoring(x):
            return split_cubes(factor(x))[1] == Factorization(ONE, ())

        for a in range(-30, 31):
            for b in range(-30, 31):
                x = E(a, b)
                if x.is_zero():
                    continue
                c = x.cube()
                for y in (x, c, W * c, V * c):
                    assert bool(cube_roots(y)) == via_factoring(y), y


def test_is_cube_of_large_cube_does_not_factor():
    """N((10¹⁰+3+7w)³) is the cube of a 20-digit norm; factoring it hunts a
    repeated large prime with Pollard rho.  Run apart so a hang fails."""
    code = (
        "import time\n"
        "from cubesum.search import cube_roots\n"
        "from cubesum.eisenstein import EisensteinInt, W\n"
        "x = EisensteinInt(10**10 + 3, 7) ** 3\n"
        "start = time.perf_counter()\n"
        "answers = (bool(cube_roots(x)), bool(cube_roots(W * x)))\n"
        "print(answers, time.perf_counter() - start < 1.0)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=20
    )
    assert out.returncode == 0, out.stderr or out.stdout
    assert out.stdout == "(True, False) True\n"


def test_witness_checks_survive_optimize():
    """A wrong witness or a failed premise still raises under python -O,
    where assert statements are stripped: a wrong rational-search hit in
    classify, a wrong Lucas pair in lucas_witness, a wrong root from
    classify's cube split in the beta construction for classify(9, 'K'),
    condition (I) failing under Theorem 2.2 and under Theorem 2.3 for 3·7,
    a relation mapped back with a wrong Cramer
    determinant, and a tangent and a secant point computed with a division
    that is off by one."""
    code = (
        "from cubesum import classifier, constructors\n"
        "from cubesum.eisenstein import ONE, EisensteinInt, KElement\n"
        "assert False, 'asserts must be stripped'\n"
        "classifier.search_rational = lambda m, d: [(KElement(1), KElement(1))]\n"
        "constructors.lucas_pair = lambda a, b: (1, 1)\n"
        "split = classifier.split_cubes\n"
        "classifier.split_cubes = lambda f: (ONE, split(f)[1])\n"
        "classifier.condition_I = lambda p: False\n"
        "constructors.BETA = ONE\n"
        "one, m = EisensteinInt(1, 0), EisensteinInt(1, 9)\n"
        "seven, p1 = KElement(7), (KElement(2), KElement(-1))\n"
        "p2 = (KElement(4, 3), KElement(5, 3))\n"
        "divide = KElement.__truediv__\n"
        "def corrupt(call):\n"
        "    KElement.__truediv__ = lambda x, y: divide(x, y) + 1\n"
        "    try:\n"
        "        return call()\n"
        "    finally:\n"
        "        KElement.__truediv__ = divide\n"
        "for call, message in ((lambda: classifier.classify(6, 'Q'), 'does not sum to'),\n"
        "                      (lambda: constructors.lucas_witness(-3, -61, 183), 'does not sum to'),\n"
        "                      (lambda: classifier.classify(9, 'K'), 'beta witness'),\n"
        "                      (lambda: classifier.classify(EisensteinInt(0, 7), 'K'), 'condition (I)'),\n"
        "                      (lambda: classifier.classify(21, 'Q'), 'condition (I)'),\n"
        "                      (lambda: constructors.solution_from_relation(2 * one, -one, -one, m),\n"
        "                       'constructed pair'),\n"
        "                      (lambda: corrupt(lambda: constructors.tangent_step(seven, p1)),\n"
        "                       'tangent point'),\n"
        "                      (lambda: corrupt(lambda: constructors.secant_step(seven, p1, p2)),\n"
        "                       'secant point')):\n"
        "    try:\n"
        "        call()\n"
        "    except ArithmeticError as err:\n"
        "        if message in str(err):\n"
        "            continue\n"
        "    raise SystemExit('unchecked premise or witness')\n"
        "print('ok')\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr or out.stdout
    assert out.stdout == "ok\n"
