"""Prime splitting, unique factorization, and residue-field arithmetic."""

import json
import os
import random
import subprocess
import sys
import time
from math import gcd, isqrt

import pytest

from cubesum import factorization
from cubesum.eisenstein import (
    BETA, EisensteinInt, ONE, UNITS, W, canonical_associate, is_primary, valuation)
from cubesum.factorization import (
    Factorization,
    _pollard_rho,
    classify_rational_prime,
    factor,
    factor_int,
    is_cube_mod_p,
    is_prime,
    residue_split,
    split_prime,
)


def E(a, b=0):
    return EisensteinInt(a, b)


class TestIsPrime:
    def test_small(self):
        assert is_prime(2)
        assert is_prime(73)
        assert is_prime(307)
        assert not is_prime(1)
        assert not is_prime(561)  # Carmichael

    def test_against_sieve(self):
        limit = 2000
        sieve = [True] * limit
        sieve[0] = sieve[1] = False
        for i in range(2, limit):
            if sieve[i]:
                for j in range(i * i, limit, i):
                    sieve[j] = False
        for n in range(limit):
            assert is_prime(n) == sieve[n], n

    def test_large(self):
        assert is_prime(10**12 + 39)
        assert not is_prime(10**12 + 37)

    def test_strong_pseudoprime_to_the_bases_up_to_37(self):
        # psi_12, the least strong pseudoprime to every prime base up to 37:
        # the base 41 exposes it
        psi_12 = 318665857834031151167461
        assert psi_12 == 399165290221 * 798330580441
        assert is_prime(399165290221) and is_prime(798330580441)
        assert not is_prime(psi_12)

    def test_strong_pseudoprime_to_the_bases_up_to_41(self):
        # psi_13 passes Miller-Rabin to all thirteen bases; the strong
        # Lucas test exposes it
        psi_13 = factorization._PSI_13
        assert psi_13 == 3317044064679887385961981 == 1287836182261 * 2575672364521
        assert is_prime(1287836182261) and is_prime(2575672364521)
        d, s = psi_13 - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        for a in factorization._SMALL_PRIMES:
            x = pow(a, d, psi_13)
            assert x in (1, psi_13 - 1) or any(
                pow(x, 2**r, psi_13) == psi_13 - 1 for r in range(1, s)), a
        assert not factorization._strong_lucas(psi_13)
        assert not is_prime(psi_13)

    def test_beyond_psi_13(self):
        # Mersenne numbers 2^k - 1 above psi_13: prime for k = 89, 107, 127,
        # composite for k = 101, 103
        for k in (89, 107, 127):
            assert 2**k - 1 > factorization._PSI_13
            assert is_prime(2**k - 1), k
        for k in (101, 103):
            assert not is_prime(2**k - 1), k
        assert not is_prime((2**89 - 1) * (2**107 - 1))
        assert not is_prime((2**89 - 1) ** 2)
        assert not is_prime(3 * (2**89 - 1))


# the strong Lucas pseudoprimes below 10^5 under Selfridge's parameters
_STRONG_LUCAS_PSEUDOPRIMES = (5459, 5777, 10877, 16109, 18971, 22499, 24569,
                              25199, 40309, 58519, 75077, 97439)


def test_strong_lucas_against_trial_division():
    def trial_prime(n):
        return n > 1 and all(n % p for p in range(3, isqrt(n) + 1, 2))

    disagree = [n for n in range(1, 10**5, 2)
                if factorization._strong_lucas(n) != trial_prime(n)]
    assert disagree == list(_STRONG_LUCAS_PSEUDOPRIMES)
    assert not any(is_prime(n) for n in _STRONG_LUCAS_PSEUDOPRIMES)


class TestFactorInt:
    def test_round_trip_soak(self):
        rng = random.Random(13)
        for _ in range(300):
            n = rng.randint(2, 10**12)
            f = factor_int(n)
            prod = 1
            for p, e in f.items():
                assert is_prime(p)
                prod *= p**e
            assert prod == n

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factor_int(0)


def pollard_rho_floyd(n):
    """Pollard rho before Brent's variant, kept as an oracle: Floyd's cycle
    search, one gcd per step."""
    for c in range(1, 50):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(x - y, n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed on {n}")


def factor_int_floyd(n):
    """factor_int before Brent's rho, kept as an oracle: trial division by
    every integer below 1000, then Floyd's rho."""
    out = {}
    for p in range(2, 1000):
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = pollard_rho_floyd(m)
        stack += [d, m // d]
    return dict(sorted(out.items()))


def _primes(rng, lo, hi, count):
    out = []
    while len(out) < count:
        p = rng.randrange(lo, hi)
        if is_prime(p):
            out.append(p)
    return out


# 1009·1049 and 1013·1019 close their cycle inside one batch of 128 steps
SMALL_PRODUCTS = (1009 * 1049, 1013 * 1019)


class TestBrentRho:
    """Brent's rho against the Floyd loop it replaced, on a seeded corpus."""

    @pytest.fixture(scope="class")
    def corpus(self):
        rng = random.Random(27)
        large = _primes(rng, 10**8, 10**9, 3)  # theorems-large's primes
        mid = _primes(rng, 1000, 10**6, 6)
        composites = [p * p for p in large]
        composites += [p * q for p, q in zip(mid[::2], mid[1::2])]
        composites += [p * p * q for p, q in zip(mid[1::2], mid[::2])]
        composites += [p**3 for p in mid[:2]]
        composites += SMALL_PRODUCTS
        norms = [k * p * p for p in large for k in (9, 3)]  # and p², above
        return composites, norms

    def test_factor_int_matches_floyd(self, corpus):
        composites, norms = corpus
        for n in composites + norms:
            assert factor_int(n) == factor_int_floyd(n), n

    def test_rho_returns_a_proper_divisor(self, corpus):
        composites, _ = corpus
        for n in composites:
            d = _pollard_rho(n)
            assert 1 < d < n and n % d == 0, (n, d)

    @pytest.mark.parametrize("n", SMALL_PRODUCTS)
    def test_batch_meeting_n_is_replayed(self, monkeypatch, n):
        seen = []
        monkeypatch.setattr(factorization, "gcd", lambda a, b: seen.append(gcd(a, b)) or seen[-1])
        batched = _pollard_rho(n)
        assert n in seen  # a batch's gcd met n, so the replay ran
        # one gcd per step finds the replay's factor, with the same c
        monkeypatch.setattr(factorization, "_RHO_BATCH", 1)
        assert _pollard_rho(n) == batched


class TestClassifyRationalPrime:
    def test_inert(self):
        assert classify_rational_prime(5).tag == "inert"
        assert classify_rational_prime(2).tag == "inert"

    def test_ramified(self):
        assert classify_rational_prime(3).tag == "ramified"

    def test_split_7(self):
        cls = classify_rational_prime(7)
        assert cls.tag == "split"
        assert cls.pi == E(1, 3)  # = 2u - v, the primary factor with b > 0
        assert cls.pi.norm() == 7
        assert is_primary(cls.pi)

    def test_not_prime(self):
        with pytest.raises(ValueError):
            classify_rational_prime(6)

    def test_split_factor_properties(self):
        for p in (7, 13, 19, 31, 37, 43, 61, 67, 73, 79, 97, 103):
            pi, pi_bar = split_prime(p)
            assert pi * pi_bar == E(p)
            assert pi.norm() == pi_bar.norm() == p
            assert is_primary(pi) and is_primary(pi_bar)
            assert pi.b > 0 > pi_bar.b
            # not associates: dividing them never gives a unit
            assert not any(pi == zeta * pi_bar for zeta in UNITS)

    def test_memo_is_a_pure_cache(self):
        warm = split_prime(151)
        split_prime.cache_clear()
        assert split_prime(151) == warm


def split_prime_by_scan(p):
    """The b-scan that split_prime ran before Cornacchia, kept as an oracle:
    solve a² - ab + b² = p by testing 4p - 3b² for squareness."""
    for b in range(1, isqrt(4 * p // 3) + 2):
        d = 4 * p - 3 * b * b
        if d < 0:
            break
        s = isqrt(d)
        if s * s != d or (b + s) % 2:
            continue
        cand = E((b + s) // 2, b)
        _, pi = canonical_associate(cand)
        _, pi_conj = canonical_associate(cand.conj())
        return (pi, pi_conj) if pi.b > 0 else (pi_conj, pi)
    raise AssertionError(f"no representation of {p}")


class TestSplitPrimeCornacchia:
    """split_prime's gcd(p, w - c) split: the distinguished pair, checked
    against a norm scan, on large primes, and on its input check."""

    def test_matches_scan_below_20000(self):
        count = 0
        for p in range(7, 20000, 6):
            if is_prime(p):
                assert split_prime.__wrapped__(p) == split_prime_by_scan(p), p
                count += 1
        assert count == 1124

    @pytest.mark.parametrize("p", [10**12 + 39, 2 * 10**25 + 11])
    def test_large_prime_is_fast(self, p):
        assert p % 3 == 1 and is_prime(p)
        start = time.perf_counter()
        pi, pi_bar = split_prime.__wrapped__(p)
        assert time.perf_counter() - start < 1.0
        assert pi.norm() == pi_bar.norm() == p
        assert is_primary(pi) and is_primary(pi_bar)
        assert pi.b > 0
        assert pi * pi_bar == E(p)

    def test_rejects_non_split(self):
        for n in (2, 3, 5, 25, 91):
            with pytest.raises(ValueError):
                split_prime(n)

    def test_memo_is_bounded(self):
        assert split_prime.cache_info().maxsize == 4096


class TestFactor:
    def test_eighteen_w(self):
        f = factor(E(0, 18))  # 18 = (2·beta)·beta³ times the unit w
        assert f.unit == W
        assert f.factors == ((BETA, 4), (E(2), 1))
        assert f.value() == E(0, 18)

    def test_unit_input(self):
        f = factor(W)
        assert f.unit == W and f.factors == ()

    def test_seven_splits(self):
        f = factor(E(7))
        assert f.unit == ONE
        assert len(f.factors) == 2
        (q1, e1), (q2, e2) = f.factors
        assert e1 == e2 == 1 and q1.norm() == q2.norm() == 7
        assert not any(q1 == zeta * q2 for zeta in UNITS)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factor(E(0))

    def test_round_trip_soak(self):
        rng = random.Random(14)
        checked = 0
        while checked < 500:
            x = E(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
            if x.is_zero():
                continue
            checked += 1
            f = factor(x)
            assert f.value() == x
            norms = [irr.norm() for irr, _ in f.factors]
            assert norms == sorted(norms)

    def test_canonical_under_unit_twist(self):
        rng = random.Random(15)
        for _ in range(200):
            x = E(rng.randint(-500, 500), rng.randint(-500, 500))
            if x.is_zero():
                continue
            base = factor(x).factors
            for zeta in UNITS:
                assert factor(zeta * x).factors == base

    def test_json_shape(self):
        doc = json.loads(factor(E(7)).to_json())
        assert set(doc) == {"unit", "factors"}
        assert all(set(f) == {"irr", "exp"} for f in doc["factors"])


def object_factor(x):
    """The factor that the int-coordinate one replaced, kept as an oracle:
    EisensteinInt values throughout, pi's exponent by valuation, one exact
    quotient by the power of the last irreducible above p."""
    rest, factors = x, []
    for p, k in factor_int(x.norm()).items():
        tag, irrs = factorization._above(p)
        j, rest = valuation(rest, irrs[0]) if tag == "split" else (0, rest)
        k = k // 2 if tag == "inert" else k - j
        rest = rest / irrs[-1] ** k
        factors += [(irr, e) for irr, e in ((irrs[0], j), (irrs[-1], k)) if e]
    assert rest.is_unit()
    factors.sort(key=lambda entry: (entry[0].norm(), entry[0].a, entry[0].b))
    return Factorization(rest, tuple(factors))


def _factor_parity_corpus(criterion_10_corpus, large_prime_forms):
    """Every a + bw with |a|, |b| <= 40, criterion 10's classify targets
    and factor soak, and the large p², 3p² and pi."""
    classified, factored = criterion_10_corpus
    grid = [E(a, b) for a in range(-40, 41) for b in range(-40, 41) if a or b]
    return grid + [args[0] for args in classified] + factored + large_prime_forms


def test_factor_matches_object_oracle(criterion_10_corpus, large_prime_forms):
    for x in _factor_parity_corpus(criterion_10_corpus, large_prime_forms):
        f = factor(x)
        assert f == object_factor(x), x
        assert type(f.unit) is EisensteinInt and f.value() == x


def test_factor_tries_at_most_k_quotients_per_prime(monkeypatch, criterion_10_corpus,
                                                     large_prime_forms):
    # pi is tried at most k times for p^k || N(x), and the power of beta, p
    # or pi_bar is one quotient: for split p, never k + 1 tries of pi
    calls = []
    monkeypatch.setattr(factorization, "_quotient",
                        lambda a, b, irr, e, real=factorization._quotient:
                        calls.append((irr, e)) or real(a, b, irr, e))
    for x in _factor_parity_corpus(criterion_10_corpus, large_prime_forms):
        calls.clear()
        factor(x)
        expected = 0
        for p, k in factor_int(x.norm()).items():
            tag, irrs = factorization._above(p)
            tries = calls.count((irrs[0], 1)) if tag == "split" else 0
            last = [e for irr, e in calls if irr == irrs[-1]]
            assert tries <= k and len(last) == 1, (x, p, calls)
            expected += tries + 1
        assert len(calls) == expected, x


class TestResidueSplit:
    def test_w_image_mod_7(self):
        c = residue_split(W, E(1, 3))
        assert c == 2
        assert (c * c + c + 1) % 7 == 0

    def test_pi_and_one(self):
        for p in (7, 13, 61):
            pi, _ = split_prime(p)
            assert residue_split(pi, pi) == 0
            assert residue_split(ONE, pi) == 1

    def test_rational_pi_rejected(self):
        # N(pi) = p and p | pi.b force pi.b = 0, and 0 and the units have
        # N(pi) <= 1: a caller's bad argument
        for pi in (E(2), E(3), W, -ONE, E(0, 0)):
            for x in (ONE, W, E(5, 7)):
                with pytest.raises(ValueError, match="not a split irreducible"):
                    residue_split(x, pi)

    def test_ring_homomorphism_soak(self):
        rng = random.Random(16)
        for p in (7, 13, 31, 61):
            pi, _ = split_prime(p)
            for _ in range(200):
                x = E(rng.randint(-99, 99), rng.randint(-99, 99))
                y = E(rng.randint(-99, 99), rng.randint(-99, 99))
                assert residue_split(x + y, pi) == (
                    residue_split(x, pi) + residue_split(y, pi)) % p
                assert residue_split(x * y, pi) == (
                    residue_split(x, pi) * residue_split(y, pi)) % p


class TestCubesModP:
    def test_known_values(self):
        assert is_cube_mod_p(3, 61)       # 3^20 = 1 mod 61
        assert not is_cube_mod_p(3, 79)   # 3^26 != 1 mod 79
        assert is_cube_mod_p(8, 13)       # a literal cube

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_cube_mod_p(61, 61)

    def test_wrong_residue_class_rejected(self):
        with pytest.raises(ValueError):
            is_cube_mod_p(2, 5)

    def test_composite_modulus_rejected(self):
        # 8³ = 2 mod 10 and 12³ = 3 mod 25, where Euler's criterion would say no
        for x, p in ((2, 10), (3, 25), (3, 91)):
            with pytest.raises(ValueError, match="prime"):
                is_cube_mod_p(x, p)

    def test_literal_cubes_soak(self):
        rng = random.Random(17)
        for p in (7, 13, 31, 61, 73):
            for _ in range(100):
                x = rng.randint(1, p - 1)
                assert is_cube_mod_p(x**3 % p, p)


# Arithmetic in the residue field O/p of an inert prime, behind the order-9
# obstruction: for inert p the unit group has p² - 1 = 3 or 6 mod 9
# elements, so it never contains an element of multiplicative order 9.


def inert_reduce(x: EisensteinInt, p: int) -> EisensteinInt:
    return EisensteinInt(x.a % p, x.b % p)


def inert_pow(x: EisensteinInt, n: int, p: int) -> EisensteinInt:
    result = EisensteinInt(1, 0)
    base = inert_reduce(x, p)
    while n:
        if n & 1:
            result = inert_reduce(result * base, p)
        n >>= 1
        if n:
            base = inert_reduce(base * base, p)
    return result


def inert_units(p: int) -> list[EisensteinInt]:
    """All invertible elements of O/p (norm prime to p)."""
    return [
        EisensteinInt(a, b)
        for a in range(p)
        for b in range(p)
        if (a * a - a * b + b * b) % p != 0
    ]


def multiplicative_order(x: EisensteinInt, p: int) -> int:
    acc = inert_reduce(x, p)
    if acc.norm() % p == 0:
        raise ValueError("not a unit mod p")
    n = 1
    cur = acc
    one = EisensteinInt(1, 0)
    while cur != one:
        cur = inert_reduce(cur * acc, p)
        n += 1
    return n


class TestInertResidueField:
    def test_unit_group_of_2(self):
        units = inert_units(2)
        assert len(units) == 3  # group of order 2² - 1
        for x in units:
            assert multiplicative_order(x, 2) in (1, 3)

    def test_no_order_nine_mod_5(self):
        units = inert_units(5)
        assert len(units) == 24
        assert all(multiplicative_order(x, 5) != 9 for x in units)

    def test_lagrange(self):
        for p in (2, 5, 11):
            assert inert_pow(W, p * p - 1, p) == ONE


def test_factor_checks_survive_optimize():
    """The checks in factor and split_prime still raise under python -O,
    where assert statements are stripped, and raise IntegrityError: a norm
    factorization that misses the prime 7 leaves 7 unfactored, an _above
    that hands back the inert 5 for the prime 7 of N(7) = 49 leaves 5 to
    divide 7, a gcd that returns w times the prime above 7 gives the
    associate 3 + w, which is not primary, and a forged prime above 61 of
    norm 73 gives Exceptional A a witness for 4·73, not 4·61; the cubic
    character mod 1 + 5w, of composite norm 21, is not a cube root of
    unity."""
    code = (
        "from cubesum import criteria, factorization\n"
        "from cubesum.eisenstein import W, EisensteinInt, IntegrityError, eis_gcd\n"
        "assert False, 'asserts must be stripped'\n"
        "factor_int, above = factorization.factor_int, factorization._above\n"
        "def leftover():\n"
        "    factorization.factor_int = lambda n: {}\n"
        "    try:\n"
        "        factorization.factor(EisensteinInt(7))\n"
        "    finally:\n"
        "        factorization.factor_int = factor_int\n"
        "def not_exact():\n"
        "    factorization._above = lambda p: ('inert', (EisensteinInt(5),))\n"
        "    try:\n"
        "        factorization.factor(EisensteinInt(7))\n"
        "    finally:\n"
        "        factorization._above = above\n"
        "def not_primary():\n"
        "    factorization.eis_gcd = lambda l, m: W * eis_gcd(l, m)\n"
        "    factorization.split_prime.cache_clear()\n"
        "    factorization.split_prime(7)\n"
        "def forged(predicate, pi):\n"
        "    criteria.split_prime = lambda p: (pi, pi.conj())\n"
        "    try:\n"
        "        predicate(61)\n"
        "    finally:\n"
        "        criteria.split_prime = factorization.split_prime\n"
        "for call, message in ((leftover, 'leftover 7 is not a unit'),\n"
        "                      (not_exact, 'does not divide the cofactor of 7'),\n"
        "                      (not_primary, 'are not primary'),\n"
        "                      (lambda: forged(criteria.exceptional_A, EisensteinInt(1, 9)),\n"
        "                       'fails 4·61 = x² + 243y²'),\n"
        "                      (lambda: forged(criteria.condition_I, EisensteinInt(1, 5)),\n"
        "                       'is not a cube root of unity')):\n"
        "    try:\n"
        "        call()\n"
        "    except IntegrityError as err:\n"
        "        if message in str(err):\n"
        "            continue\n"
        "    raise SystemExit('unchecked factorization')\n"
        "print('ok')\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr or out.stdout
    assert out.stdout == "ok\n"
