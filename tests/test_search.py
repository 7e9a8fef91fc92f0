"""Witness searches and the exhaustive corollary scans."""

import time
from fractions import Fraction
from math import gcd, isqrt

import pytest

from cubesum.eisenstein import BETA, EisensteinInt, KElement, V, W, coordinate_box
from cubesum.search import (
    SearchBudget,
    _icbrt,
    cube_ap_exhaust,
    cube_roots,
    flt3_exhaust,
    is_rational_cube,
    mordell_check,
    rational_cbrt,
    relation_search,
    search_eisenstein,
    search_rational,
    square_roots,
)


def E(a, b=0):
    return EisensteinInt(a, b)


def K(a, d=1):
    return KElement(E(a) if isinstance(a, int) else a, d)


class TestIcbrt:
    def test_exact_below_float_range(self):
        for k in list(range(0, 300)) + [2**17 - 1, 2**17, 208063, 208064]:
            for n in (k**3 - 1, k**3, k**3 + 1):
                if n >= 0:
                    assert _icbrt(n) ** 3 <= n < (_icbrt(n) + 1) ** 3, n
                    assert _icbrt(-n) == -_icbrt(n)

    def test_huge_cube_returns_fast(self):
        start = time.perf_counter()
        assert _icbrt(10**90) == 10**30
        assert _icbrt(10**90 - 1) == 10**30 - 1
        assert _icbrt(-(10**90)) == -(10**30)
        assert time.perf_counter() - start < 1.0

    def test_beyond_double_range(self):
        start = time.perf_counter()
        assert is_rational_cube(Fraction(10**402))
        assert not is_rational_cube(Fraction(10**402 + 1))
        assert rational_cbrt(Fraction(10**402, 27)) == Fraction(10**134, 3)
        assert time.perf_counter() - start < 1.0

    def test_around_two_to_the_53(self):
        for k in (208063, 208064, 208065, 10**6, 3 * 10**6 + 1, 10**20 + 7):
            for n in (k**3 - 1, k**3, k**3 + 1):
                assert _icbrt(n) == (k if n >= k**3 else k - 1), n


class TestCubeRoots:
    def test_rational_cube(self):
        assert set(cube_roots(E(8))) == {E(2), 2 * W, 2 * V}

    def test_beta_cubed(self):
        roots = set(cube_roots(BETA**3))
        assert BETA in roots and len(roots) == 3

    def test_non_cube(self):
        assert cube_roots(E(2)) == []
        assert cube_roots(E(1, 1)) == []

    def test_soak(self):
        import random

        rng = random.Random(18)
        for _ in range(500):
            x = E(rng.randint(-50, 50), rng.randint(-50, 50))
            roots = cube_roots(x**3)
            assert x in roots
            assert all(r**3 == x**3 for r in roots)
            if not x.is_zero():
                assert len(roots) == 3

    def test_square_roots(self):
        assert set(square_roots(E(9))) == {E(3), E(-3)}
        assert set(square_roots(BETA**2)) == {BETA, -BETA}
        assert square_roots(E(2)) == []


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

    def test_determinism(self):
        assert search_rational(91, 10) == search_rational(91, 10)


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

    def test_stop_at_first_denominator_keeps_leading_hit(self):
        full = search_eisenstein(E(9), 4, 3)
        early = search_eisenstein(E(9), 4, 3, stop_at_first_denominator=True)
        assert full[0] == early[0]


class TestRelationSearch:
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


class TestMordell:
    def test_rational_hits(self):
        report = mordell_check(SearchBudget(denom=6, coord=8, relation=1))
        rational = {(str(x), str(y)) for x, y in report.rational_hits}
        assert rational == {("-1", "0"), ("0", "1"), ("0", "-1"), ("2", "3"), ("2", "-3")}

    def test_k_hits_have_cube_in_allowed_set(self):
        report = mordell_check(SearchBudget(denom=6, coord=8, relation=1))
        allowed = {KElement(-1), KElement(0), KElement(8)}
        assert report.eisenstein_hits
        for x, y in report.eisenstein_hits:
            assert x**3 in allowed
            assert y**2 in (KElement(0), KElement(1), KElement(9))

    def test_2w_hit_present(self):
        report = mordell_check(SearchBudget(denom=2, coord=3, relation=1))
        assert any(x == KElement(2 * W) for x, _ in report.eisenstein_hits)

    def test_empty_budget_is_quiet(self):
        report = mordell_check(SearchBudget(denom=1, coord=1, relation=1))
        assert all(y**2 == x**3 + 1 for x, y in report.rational_hits)


class TestBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchBudget(denom=0)
