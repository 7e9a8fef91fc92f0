"""Core ring arithmetic: units, norm, Euclidean division, gcd, associates."""

import random

import pytest

from cubesum.eisenstein import (
    BETA,
    EisensteinInt,
    KElement,
    ONE,
    UNITS,
    V,
    W,
    ZERO,
    canonical_associate,
    coordinate_spiral,
    eis_gcd,
    format_eisenstein,
    format_k,
    gcd_ext,
    is_primary,
    mod9_class,
    ord_beta,
    parse_eisenstein,
    parse_k,
    unit_inverse,
    valuation,
)
from cubesum.factorization import factor, split_prime


def E(a, b=0):
    return EisensteinInt(a, b)


class TestRingOps:
    def test_w_squared_is_v(self):
        assert W * W == V

    def test_wv_is_one(self):
        assert W * V == ONE

    def test_w_cubed_is_one(self):
        assert W**3 == ONE

    def test_beta_squared(self):
        # beta = w - v = 1 + 2w, beta² = -3
        assert W - V == BETA
        assert BETA**2 == E(-3)

    def test_one_minus_2v_cubed(self):
        # (1 - 2v)³ = 19w + v, i.e. 3+2w cubed is -1+18w
        assert E(1) - 2 * V == E(3, 2)
        assert E(3, 2) ** 3 == E(-1, 18)
        assert E(-1, 18) == 19 * W + V

    def test_conj_swaps_w_and_v(self):
        assert W.conj() == V
        assert V.conj() == W
        assert E(3, 2).conj() == E(1, -2)

    def test_pow_negative_rejected(self):
        with pytest.raises(ValueError):
            W ** (-1)

    def test_units(self):
        assert len(UNITS) == 6
        for z in UNITS:
            assert z.norm() == 1
            assert z * unit_inverse(z) == ONE
        # closed under multiplication, pairwise incongruent mod 3
        for z1 in UNITS:
            for z2 in UNITS:
                assert (z1 * z2) in UNITS
        residues = {(z.a % 3, z.b % 3) for z in UNITS}
        assert len(residues) == 6


class TestNorm:
    def test_values(self):
        assert E(1, 2).norm() == 3
        assert E(-2, 3).norm() == 19  # 5w + 2v
        assert E(1, 9).norm() == 73
        assert E(0, 0).norm() == 0

    def test_multiplicative(self):
        rng = random.Random(1)
        for _ in range(10_000):
            x = E(rng.randint(-999, 999), rng.randint(-999, 999))
            y = E(rng.randint(-999, 999), rng.randint(-999, 999))
            assert (x * y).norm() == x.norm() * y.norm()

    def test_positive_definite(self):
        rng = random.Random(2)
        for _ in range(1000):
            x = E(rng.randint(-50, 50), rng.randint(-50, 50))
            assert x.norm() >= 0
            assert (x.norm() == 0) == x.is_zero()


class TestDivmod:
    def brute_force_has_small_remainder(self, l, m):
        """Oracle: scan the 3x3 neighbourhood of the exact quotient for a
        remainder within the Euclidean bound."""
        n = m.norm()
        num = l * m.conj()
        qa = round(num.a / n)
        qb = round(num.b / n)
        best = None
        for da in (-2, -1, 0, 1, 2):
            for db in (-2, -1, 0, 1, 2):
                q = E(qa + da, qb + db)
                r = l - q * m
                if best is None or r.norm() < best:
                    best = r.norm()
        return best

    def test_divmod_5_by_1_plus_3w(self):
        l, m = E(5), E(1, 3)
        q, r = divmod(l, m)
        assert l == q * m + r
        assert 3 * r.norm() <= m.norm()
        assert r.norm() <= self.brute_force_has_small_remainder(l, m)

    def test_divmod_beta_by_3(self):
        q, r = divmod(BETA, E(3))
        assert BETA == q * 3 + r
        assert r.norm() <= 3

    def test_exact_divisibility(self):
        for m in (E(7), E(1, 3), BETA, E(-4, 9)):
            assert divmod(m, m) == (ONE, E(0))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(E(5), E(0))

    def test_tie_broken_lexicographically(self):
        # 1/2 sits exactly between the quotients 0 and 1; both remainders
        # have norm 1 and the lexicographically smaller quotient wins
        assert divmod(E(1), E(2)) == (E(0), E(1))

    def test_euclidean_bound_soak(self):
        rng = random.Random(3)
        for _ in range(10_000):
            l = E(rng.randint(-9999, 9999), rng.randint(-9999, 9999))
            m = E(rng.randint(-99, 99), rng.randint(-99, 99))
            if m.is_zero():
                continue
            q, r = divmod(l, m)
            assert l == q * m + r
            assert 3 * r.norm() <= m.norm()

    def test_exact_division_raises_when_inexact(self):
        with pytest.raises(ValueError):
            E(5) / E(2)
        assert E(7) / E(1, 3) == E(-2, -3)


def divmod_by_objects(l, m):
    """The EisensteinInt-based 3x3 divmod used before the integer kernel,
    kept as an oracle: round l·conj(m)/N(m) coordinatewise (ties away from
    zero), then take the least (N(r), q.a, q.b) over the 3x3 neighbourhood."""

    def round_nearest(a, b):
        return (2 * a + b) // (2 * b) if a >= 0 else -((-2 * a + b) // (2 * b))

    n = m.norm()
    num = l * m.conj()
    qa0, qb0 = round_nearest(num.a, n), round_nearest(num.b, n)
    best_key = best = None
    for da in (-1, 0, 1):
        for db in (-1, 0, 1):
            q = E(qa0 + da, qb0 + db)
            r = l - q * m
            key = (r.norm(), q.a, q.b)
            if best_key is None or key < best_key:
                best_key, best = key, (q, r)
    return best


class TestDivmodKernel:
    @pytest.mark.parametrize("scale", [1, 5, 100, 10**6, 10**30])
    def test_matches_object_oracle(self, scale):
        rng = random.Random(scale)
        for _ in range(2000):
            l = E(rng.randint(-scale, scale), rng.randint(-scale, scale))
            m = E(rng.randint(-scale, scale), rng.randint(-scale, scale))
            if m.is_zero():
                continue
            assert divmod(l, m) == divmod_by_objects(l, m), (l, m)

    def test_matches_on_integer_divisors(self):
        rng = random.Random(7)
        for _ in range(2000):
            l = E(rng.randint(-10**4, 10**4), rng.randint(-10**4, 10**4))
            k = rng.choice([-1, 1]) * rng.randint(1, 99)
            assert divmod(l, k) == divmod_by_objects(l, E(k)), (l, k)
            assert divmod(l, E(k)) == divmod_by_objects(l, E(k)), (l, k)

    def test_matches_on_exact_ties(self):
        # l/m at the midpoint of two lattice points or at the centroid of a
        # lattice triangle: several remainders share the least norm, so the
        # (q.a, q.b) tie-break decides
        rng = random.Random(11)
        ties = 0
        for _ in range(1000):
            h = E(rng.randint(-50, 50), rng.randint(-50, 50))
            if h.is_zero():
                continue
            q = E(rng.randint(-50, 50), rng.randint(-50, 50))
            for m, offset in ((2 * h, h), (2 * h, W * h), (2 * h, (1 + W) * h),
                              (3 * h, (2 + W) * h), (3 * h, (1 + 2 * W) * h)):
                l = q * m + offset
                got = divmod(l, m)
                assert got == divmod_by_objects(l, m), (l, m)
                assert got[1].norm() == offset.norm()
                ties += 1
        assert ties > 4000

    def test_matches_on_every_small_pair(self):
        # every l, m with coordinates in [-6, 6], m != 0: 28,392 pairs,
        # exact ties among them
        box = [E(a, b) for a in range(-6, 7) for b in range(-6, 7)]
        pairs = 0
        for l in box:
            for m in box:
                if m.is_zero():
                    continue
                assert divmod(l, m) == divmod_by_objects(l, m), (l, m)
                pairs += 1
        assert pairs == 28_392


def euclid_truediv(x, m):
    """Exact division through the Euclidean divmod, as it was done before
    the integer kernel; kept as an oracle."""
    q, r = divmod(x, m)
    if not r.is_zero():
        raise ValueError(f"{m} does not divide {x}")
    return q


def euclid_divides(m, x):
    if m.is_zero():
        return x.is_zero()
    return (x % m).is_zero()


def divmod_valuation(x, d):
    """The repeated-divmod valuation loop kept as an oracle: (k, x/d^k)."""
    k = 0
    while True:
        q, r = divmod(x, d)
        if not r.is_zero():
            return k, x
        x, k = q, k + 1


def outcome(f, *args):
    """The value f returns, or the type of the exception it raises."""
    try:
        return f(*args)
    except Exception as exc:  # noqa: BLE001 - compared by type
        return type(exc)


class TestExactQuotient:
    @pytest.mark.parametrize("scale", [10, 10**3, 10**9, 10**30])
    def test_matches_euclidean_oracle(self, scale):
        rng = random.Random(scale)

        def rand():
            return E(rng.randint(-scale, scale), rng.randint(-scale, scale))

        divided = undivided = 0
        for i in range(2000):
            m = ZERO if i % 100 == 0 else rand()
            # odd i: m | x by construction; even i: a random x
            x = rand() * m if i % 2 else rand()
            got = outcome(lambda: x / m)
            assert got == outcome(euclid_truediv, x, m), (x, m)
            assert outcome(m.divides, x) == outcome(euclid_divides, m, x), (x, m)
            if isinstance(got, EisensteinInt):
                divided += 1
            elif got is ValueError:
                undivided += 1
            k = rng.randint(-scale, scale)  # a rational integer divisor
            y = x * k if i % 2 else x
            assert outcome(lambda: y / k) == outcome(euclid_truediv, y, k), (y, k)
        assert divided > 900 and undivided > 500

    def test_one_coordinate_remainder(self):
        # N(3) = 9 divides one coordinate of x·conj(3) and not the other
        for x in (E(6, 1), E(1, 6), E(9, 4), E(4, 9)):
            assert not E(3).divides(x)
            with pytest.raises(ValueError):
                x / 3

    def test_zero_divisor_and_bad_operand(self):
        with pytest.raises(ZeroDivisionError):
            E(5) / 0
        with pytest.raises(ZeroDivisionError):
            E(0) / E(0)
        assert E(0).divides(E(0)) and not E(0).divides(E(1))
        with pytest.raises(TypeError):
            E(5) / "2"
        with pytest.raises(TypeError):
            E(5) / 2.0

    def test_quotient_of_conjugate_divisor(self):
        # x·conj(m)/N(m), not x·m/N(m): 7 = pi·conj(pi)
        pi, pi_bar = split_prime(7)
        assert E(7) / pi == pi_bar
        assert E(7) / pi_bar == pi


class TestValuation:
    # beta, the split pairs of norms 7, 13 and 19, and the inert 2 and 5
    DIVISORS = (BETA, E(1, 3), E(-2, -3), E(4, 3), E(1, -3), E(-2, 3), E(-5, -3), E(2), E(5))

    @pytest.mark.parametrize("d", DIVISORS, ids=str)
    def test_matches_divmod_loop(self, d):
        rng = random.Random(d.norm())
        for _ in range(200):
            r = E(rng.randint(-500, 500), rng.randint(-500, 500))
            if r.is_zero():
                continue
            k = rng.randint(0, 6)
            x = d**k * rng.choice(UNITS) * r
            got = valuation(x, d)
            assert got == divmod_valuation(x, d), (x, d)
            assert got[0] >= k and d ** got[0] * got[1] == x
            assert not d.divides(got[1])

    def test_rejects_zero_and_units(self):
        for x, d in ((E(0), BETA), (E(3), W), (E(3), E(0))):
            with pytest.raises(ValueError):
                valuation(x, d)


def test_exact_division_avoids_euclidean_divmod(monkeypatch):
    """/, divides, ord_beta, canonical_associate and factor give the same
    answers with EisensteinInt.__divmod__ (and so // and %) disabled."""
    x, m = E(7 * 9 * 5, 7 * 9), E(7)
    ops = (
        lambda: x / m,
        lambda: x / 7,
        lambda: BETA.divides(x),
        lambda: E(2).divides(x),
        lambda: ord_beta(E(18) * E(1, 3) ** 2),
        lambda: canonical_associate(W * BETA**3 * E(-2, 3)),
        lambda: factor(E(4, -9) ** 3 * BETA**5 * E(10)),
        lambda: factor(x),
    )
    expected = [op() for op in ops]

    def no_divmod(self, other):
        raise AssertionError("exact division reached the Euclidean divmod")

    monkeypatch.setattr(EisensteinInt, "__divmod__", no_divmod)
    with pytest.raises(AssertionError):
        divmod(x, m)
    assert [op() for op in ops] == expected


class TestGcd:
    def test_coprime_rational_integers(self):
        g, a, b = gcd_ext(E(2), E(3))
        assert g == a * E(2) + b * E(3)
        assert g.is_unit()

    def test_common_split_factor(self):
        g, a, b = gcd_ext(E(7), E(1, 3))
        assert g == a * E(7) + b * E(1, 3)
        assert g.norm() == 7
        assert g.divides(E(7)) and g.divides(E(1, 3))

    def test_gcd_with_zero(self):
        g, _, _ = gcd_ext(E(0), E(-5))
        assert g == E(5)  # canonical associate

    def test_gcd_of_zeros(self):
        with pytest.raises(ValueError):
            gcd_ext(E(0), E(0))

    def test_bezout_soak(self):
        rng = random.Random(4)
        for _ in range(500):
            l = E(rng.randint(-500, 500), rng.randint(-500, 500))
            m = E(rng.randint(-500, 500), rng.randint(-500, 500))
            if l.is_zero() and m.is_zero():
                continue
            g, a, b = gcd_ext(l, m)
            assert g == a * l + b * m
            if not l.is_zero():
                assert g.divides(l)
            if not m.is_zero():
                assert g.divides(m)


class TestOrdBeta:
    def test_beta_itself(self):
        assert ord_beta(BETA) == 1

    def test_nine_is_beta_fourth(self):
        assert ord_beta(E(9)) == 4
        assert BETA**4 == E(9)

    def test_eighteen(self):
        assert ord_beta(E(18)) == 4

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            ord_beta(E(0))

    def test_additive_soak(self):
        rng = random.Random(5)
        for _ in range(1000):
            x = E(rng.randint(-200, 200), rng.randint(-200, 200))
            y = E(rng.randint(-200, 200), rng.randint(-200, 200))
            if x.is_zero() or y.is_zero():
                continue
            assert ord_beta(x * y) == ord_beta(x) + ord_beta(y)


class TestCanonicalAssociate:
    def test_primary_norm_19(self):
        # 5w + 2v = -2 + 3w is already congruent to 1 mod 3
        assert canonical_associate(E(-2, 3)) == (ONE, E(-2, 3))
        assert is_primary(E(-2, 3))

    def test_unit_input(self):
        assert canonical_associate(W) == (W, ONE)

    def test_inert_prime_positive(self):
        assert canonical_associate(E(-5)) == (-ONE, E(5))

    def test_ramified_power(self):
        unit, x0 = canonical_associate(E(3))
        assert (unit, x0) == (-ONE, BETA**2)

    def test_idempotent_soak(self):
        rng = random.Random(6)
        for _ in range(500):
            x = E(rng.randint(-300, 300), rng.randint(-300, 300))
            if x.is_zero():
                continue
            unit, x0 = canonical_associate(x)
            assert unit * x0 == x
            assert unit.is_unit()
            assert canonical_associate(x0) == (ONE, x0)


def two_loop_canonical_associate(x):
    """canonical_associate before the one-pass primary associate, kept as an
    oracle: a positive rational associate of the beta-free part if there is
    one, else its primary associate."""
    k, y = valuation(x, BETA)
    y0 = next((t for t in (z * y for z in UNITS) if t.b == 0 and t.a > 0), None)
    if y0 is None:
        y0 = next(t for t in (z * y for z in UNITS) if is_primary(t))
    x0 = BETA**k * y0
    return x / x0, x0


def ring_loop_coordinate_spiral(bound):
    """coordinate_spiral before it became a sorted box, kept as an oracle:
    one square scan per ring radius."""
    for r in range(1, bound + 1):
        for a in range(-r, r + 1):
            for b in range(-r, r + 1):
                if max(abs(a), abs(b)) == r:
                    yield EisensteinInt.from_uv(a, b)


# unit_inverse before it became the conjugate, kept as an oracle
UNIT_INVERSE_TABLE = {ONE: ONE, -ONE: -ONE, W: V, V: W, -W: -V, -V: -W}


class TestKernelOracles:
    def test_associates_on_small_box(self):
        for a in range(-40, 41):
            for b in range(-40, 41):
                if a or b:
                    x = E(a, b)
                    assert canonical_associate(x) == two_loop_canonical_associate(x), x

    @pytest.mark.parametrize("scale", [10**3, 10**9, 10**20])
    def test_associates_at_scale(self, scale):
        rng = random.Random(scale)
        for _ in range(300):
            x = E(rng.randint(-scale, scale), rng.randint(-scale, scale))
            if rng.random() < 0.2:
                x = x * BETA ** rng.randint(1, 4)
            if rng.random() < 0.2:
                x = E(x.a)
            if not x.is_zero():
                assert canonical_associate(x) == two_loop_canonical_associate(x), x

    def test_spiral(self):
        for bound in range(31):
            assert list(coordinate_spiral(bound)) == list(ring_loop_coordinate_spiral(bound)), bound

    def test_unit_inverse(self):
        for zeta in UNITS:
            assert unit_inverse(zeta) == UNIT_INVERSE_TABLE[zeta]

    @pytest.mark.parametrize("x", [E(0), E(2), E(-1, 1), BETA, E(1, 3)])
    def test_unit_inverse_rejects_non_units(self, x):
        with pytest.raises(ValueError, match="is not a unit"):
            unit_inverse(x)


class TestMod9:
    def test_plain_integer(self):
        assert mod9_class(E(10)) == E(1)

    def test_beta_cubed(self):
        assert BETA**3 == E(-3, -6)
        assert mod9_class(BETA**3) == E(6, 3)

    def test_cubes_are_plus_minus_one_mod_9(self):
        rng = random.Random(7)
        checked = 0
        while checked < 500:
            x = E(rng.randint(-500, 500), rng.randint(-500, 500))
            if x.is_zero() or BETA.divides(x):
                continue
            checked += 1
            assert mod9_class(x**3) in (E(1), E(8))


class TestKElement:
    def test_reduction(self):
        x = KElement(E(6, 9), 3)
        assert (x.num, x.den) == (E(2, 3), 1)
        assert KElement(x.num, x.den) == x

    def test_field_ops_match_cross_multiplication(self):
        rng = random.Random(8)
        for _ in range(500):
            n1 = E(rng.randint(-40, 40), rng.randint(-40, 40))
            n2 = E(rng.randint(-40, 40), rng.randint(-40, 40))
            d1, d2 = rng.randint(1, 20), rng.randint(1, 20)
            x, y = KElement(n1, d1), KElement(n2, d2)
            assert (x + y) * d1 * d2 == KElement(n1 * d2 + n2 * d1)
            assert (x * y) * (d1 * d2) == KElement(n1 * n2)
            if not y.is_zero():
                assert (x / y) * y == x

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            KElement(1) / KElement(0)

    def test_negative_denominator_normalised(self):
        assert KElement(E(1, 0), -2) == KElement(E(-1, 0), 2)

    def test_inverse_of_w(self):
        assert KElement(1) / KElement(W) == KElement(V)

    def test_equal_values_hash_equal(self):
        # an int, an EisensteinInt and a KElement can be equal, so they must
        # hash equal, or sets and dicts keep equal keys apart
        assert EisensteinInt(3, 0) == 3 and KElement(3) == EisensteinInt(3, 0)
        assert len({3, EisensteinInt(3, 0), KElement(3)}) == 1
        assert 3 in {EisensteinInt(3, 0)} and EisensteinInt(3, 0) in {KElement(3)}
        assert {3: "int", E(1, 2): "w"}[KElement(E(6), 2)] == "int"
        assert {3: "int", E(1, 2): "w"}[KElement(E(2, 4), 2)] == "w"
        for a in range(-6, 7):
            for b in range(-6, 7):
                x = E(a, b)
                assert KElement(x) == x and hash(KElement(x)) == hash(x), x
                assert hash(KElement(x * 5, 5)) == hash(x), x
                if b == 0:
                    assert hash(x) == hash(a), x


class TestParseFormat:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("1+2*w", E(1, 2)),
            ("-2+3*w", E(-2, 3)),
            ("5", E(5)),
            ("w", W),
            ("-w", -W),
            ("3*v", 3 * V),
            ("5*u+2*v", E(-2, 3)),
            ("-10*u-7*v", E(7, -3)),
            ("2w", E(0, 2)),
        ],
    )
    def test_parse(self, text, value):
        assert parse_eisenstein(text) == value

    def test_parse_rejects_garbage(self):
        for bad in ("", "1+", "x", "2**w", "1 2"):
            with pytest.raises(ValueError):
                parse_eisenstein(bad)

    def test_kelem_forms(self):
        assert parse_k("(2-3*w)/2") == KElement(E(2, -3), 2)
        assert parse_k("2-3*w/2") == KElement(E(2, -3), 2)
        assert parse_k("5/3") == KElement(E(5), 3)
        assert parse_k("1+2*w") == KElement(E(1, 2), 1)

    def test_round_trip_soak(self):
        rng = random.Random(9)
        for _ in range(500):
            x = E(rng.randint(-99, 99), rng.randint(-99, 99))
            assert parse_eisenstein(format_eisenstein(x)) == x
            k = KElement(x, rng.randint(1, 30))
            assert parse_k(format_k(k)) == k


class TestConjAutomorphism:
    def test_ring_automorphism_soak(self):
        rng = random.Random(10)
        for _ in range(1000):
            x = E(rng.randint(-99, 99), rng.randint(-99, 99))
            y = E(rng.randint(-99, 99), rng.randint(-99, 99))
            assert (x * y).conj() == x.conj() * y.conj()
            assert (x + y).conj() == x.conj() + y.conj()
            assert x.conj().conj() == x

    def test_norm_via_conj(self):
        rng = random.Random(11)
        for _ in range(200):
            x = E(rng.randint(-99, 99), rng.randint(-99, 99))
            assert x * x.conj() == E(x.norm())


class TestBasisConversion:
    def test_uv_round_trip(self):
        rng = random.Random(12)
        for _ in range(500):
            a, b = rng.randint(-99, 99), rng.randint(-99, 99)
            x = EisensteinInt.from_uv(a, b)
            assert x == a * W + b * V
            assert x.to_uv() == (a, b)
