"""Condition (I) and the Exceptional A / B predicates.

Each predicate computes its definition once; the independent second paths
live here as oracles: the a + b trace shortcut for condition (I), the
4p = x² + 243y² scan for Exceptional A, and cubic reciprocity for the
character behind both.
"""

import json
import random
import time
from math import isqrt

import pytest

from cubesum.criteria import (
    condition_I,
    condition_I_table,
    exceptional_A,
    exceptional_A_set,
    exceptional_B,
    exceptional_B_set,
    first_exceptional_A_1mod9,
    prime_report,
    split_primes_upto,
)
from cubesum import factorization
from cubesum.eisenstein import UNITS, W, EisensteinInt
from cubesum.factorization import _cubic_char, is_cube_mod_p, is_prime, residue_split, split_prime


def form_scan(p):
    """Oracle for Exceptional A: the first y with 4p = x² + 243y²."""
    witness = None
    y = 1
    while 243 * y * y <= 4 * p:
        r = 4 * p - 243 * y * y
        s = isqrt(r)
        if s * s == r:
            witness = (s, y)
            break
        y += 1
    return witness is not None, witness


class TestConditionI:
    def test_easy_cases(self):
        # a+b is 1 for p = 7 and 61, -8 = (-2)³ for 43
        for p in (7, 43, 61):
            assert condition_I(p)

    def test_31_via_4_equals_minus_27(self):
        assert (4 + 27) % 31 == 0
        assert condition_I(31)

    def test_79_and_97(self):
        assert condition_I(79)
        assert condition_I(97)

    def test_requires_split_prime(self):
        with pytest.raises(ValueError):
            condition_I(5)
        with pytest.raises(ValueError):
            condition_I(3)

    def test_dual_paths_agree_below_20000(self):
        # oracle: on pi = a·w + b·v, conj(pi) is a cube mod pi exactly when
        # the trace shortcut a + b is a cube mod p
        for p in split_primes_upto(19999):
            a, b = split_prime(p)[0].to_uv()
            via_trace = pow(a + b, (p - 1) // 3, p) == 1
            assert condition_I(p) == via_trace, p
            assert via_trace, f"condition (I) ought to hold at {p}"


def is_2_a_cube(p):
    return is_cube_mod_p(2, p)


@pytest.mark.parametrize("predicate", [condition_I, exceptional_A, exceptional_B, is_2_a_cube])
def test_one_primality_test_per_prime(monkeypatch, predicate):
    # split_prime validates p; the Euler tests behind it do not test it again
    calls = []
    monkeypatch.setattr(factorization, "is_prime", lambda n: calls.append(n) or is_prime(n))
    primes = (7, 61, 10**12 + 39)
    for p in primes:
        split_prime.cache_clear()
        predicate(p)
    assert calls == list(primes)


class TestExceptionalA:
    def test_61(self):
        assert exceptional_A(61) == (True, (1, 1))  # 244 = 1² + 243

    def test_193(self):
        assert exceptional_A(193) == (True, (23, 1))  # 772 = 23² + 243

    def test_79_and_97_negative(self):
        assert exceptional_A(79) == (False, None)
        assert exceptional_A(97) == (False, None)

    def test_witness_equation(self):
        # oracles: the closed-form witness is the scan's, flag and (x, y),
        # and the flag is the primary-form shortcut 9 | a - b on pi = a·w + b·v
        for p in split_primes_upto(19999):
            a, b = split_prime(p)[0].to_uv()
            got = exceptional_A(p)
            assert got == form_scan(p), p
            assert got[0] == ((a - b) % 9 == 0), p

    def test_set_below_200(self):
        assert exceptional_A_set(200) == [61, 67, 73, 103, 151, 193]

    def test_mod9_path_uses_all_associates(self):
        # an associate congruent to a rational integer mod 9 exists exactly
        # for the Exceptional A primes
        for p in (61, 67, 73, 79, 97, 103):
            pi, _ = split_prime(p)
            any_assoc = any((zeta * pi).b % 9 == 0 for zeta in UNITS)
            assert any_assoc == exceptional_A(p)[0]


def test_criteria_finish_at_25_digits():
    # the Exceptional A form scan ran past 10 s here: y up to √(4p/243)
    p = 10**24 + 177
    assert is_prime(p) and p % 9 == 7
    for predicate in (condition_I, exceptional_A, exceptional_B):
        start = time.perf_counter()
        predicate(p)
        assert time.perf_counter() - start < 1.0, predicate.__name__


class TestCubicCharacter:
    # every distinguished irreducible of prime norm below 400
    PIS = [pi for p in split_primes_upto(400) for pi in split_prime(p)]

    def test_reciprocity(self):
        # chi_pi(lam) = chi_lam(pi) for primary pi, lam of different norms
        pairs = 0
        for pi in self.PIS:
            for lam in self.PIS:
                if pi.norm() != lam.norm():
                    assert _cubic_char(lam, pi) == _cubic_char(pi, lam), (pi, lam)
                    pairs += 1
        assert pairs == 5328

    def test_multiplicative(self):
        rng = random.Random(23)
        for pi in self.PIS:
            for _ in range(20):
                x, y = (EisensteinInt(rng.randint(-99, 99), rng.randint(-99, 99)) for _ in "xy")
                if residue_split(x * y, pi) == 0:
                    continue
                assert _cubic_char(x * y, pi) == (_cubic_char(x, pi) + _cubic_char(y, pi)) % 3

    def test_cubes_and_w(self):
        # oracle by enumeration: trivial exactly on the cubes of Z/p, and
        # chi_pi(w) = (p - 1)/3 mod 3, since w^((p-1)/3) is w to that power
        for pi in self.PIS[:12]:
            p = pi.norm()
            cubes = {pow(z, 3, p) for z in range(1, p)}
            for x in range(1, p):
                assert (_cubic_char(x, pi) == 0) == (x in cubes), (x, pi)
            assert _cubic_char(W, pi) == (p - 1) // 3 % 3

    def test_zero_residue_rejected(self):
        pi, _ = split_prime(7)
        with pytest.raises(ValueError, match="zero residue"):
            _cubic_char(pi * EisensteinInt(2, 5), pi)


class TestExceptionalB:
    def test_61_67_73(self):
        assert exceptional_B(61)
        assert exceptional_B(67)
        assert exceptional_B(73)

    def test_7_is_not(self):
        # oracle: the cube subgroup of (Z/7)* is {1, 6}; 3 is outside
        cubes = {pow(x, 3, 7) for x in range(1, 7)}
        assert 3 not in cubes
        assert not exceptional_B(7)

    def test_set_below_100(self):
        assert exceptional_B_set(100) == [61, 67, 73]

    def test_equivalence_with_A_below_5000(self):
        for p in split_primes_upto(4999):
            assert exceptional_A(p)[0] == exceptional_B(p), p


@pytest.mark.parametrize("predicate", [condition_I, exceptional_A, exceptional_B])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 25, 91])
def test_predicates_reject_non_split(predicate, p):
    # 91 = 7·13 passes the Exceptional B power test: 3^30 = 1 mod 91
    with pytest.raises(ValueError, match="is not a split prime"):
        predicate(p)


class TestFirstFiveMod9:
    def test_values(self):
        assert first_exceptional_A_1mod9(5) == [73, 271, 307, 523, 577]


class TestConditionITable:
    def test_paper_range(self):
        rows = condition_I_table(73)
        assert [r["p"] for r in rows] == [7, 13, 19, 31, 37, 43, 61, 67, 73]
        assert [r["a+b"] for r in rows] == [1, -5, 7, 4, -11, -8, 1, -5, 7]
        assert all(r["cube"] for r in rows)

    def test_trace_consistency(self):
        # a + b must be a cube mod p exactly when conj(pi) reduces to a cube
        for row in condition_I_table(200):
            p = row["p"]
            pi, pi_bar = split_prime(p)
            via_residue = is_cube_mod_p(residue_split(pi_bar, pi), p)
            assert via_residue == is_cube_mod_p((row["a"] + row["b"]) % p, p)


class TestPrimeReport:
    def test_61(self):
        rep = prime_report(61)
        assert rep.mod9 == 7
        assert rep.condition_I and rep.exceptional_A and rep.exceptional_B
        assert rep.exceptional_A_witness == (1, 1)

    def test_19(self):
        rep = prime_report(19)
        assert rep.mod9 == 1
        assert rep.condition_I
        assert not rep.exceptional_A and not rep.exceptional_B

    def test_2_has_no_split_fields(self):
        rep = prime_report(2)
        assert rep.tag == "inert"
        assert rep.pi is None
        doc = json.loads(rep.to_json())
        assert set(doc) == {"p", "mod9"}

    def test_json_shape_split(self):
        doc = json.loads(prime_report(61).to_json())
        assert doc == {
            "p": 61,
            "mod9": 7,
            "conditionI": True,
            "excA": True,
            "excA_witness": [1, 1],
            "excB": True,
            "pi": "4+9*w",
        }
