"""Structural properties under hypothesis: ring axioms, Euclidean bound,
factorization round-trips, the cube-class machinery, and a fuzz of the
parse layer."""

import contextlib
import io
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from cubesum import cli
from cubesum.classifier import canonicalize, classify
from cubesum.eisenstein import (
    BETA,
    EisensteinInt,
    KElement,
    ONE,
    canonical_associate,
    eis_gcd,
    gcd_ext,
    mod9_class,
    ord_beta,
    parse_eisenstein,
    parse_k,
    format_eisenstein,
    format_k,
)
from cubesum.factorization import factor, split_cubes
from cubesum.search import cube_roots, search_rational


def eisenstein(max_coord: int = 200):
    coords = st.integers(-max_coord, max_coord)
    return st.builds(EisensteinInt, coords, coords)


def nonzero(max_coord: int = 200):
    return eisenstein(max_coord).filter(lambda x: not x.is_zero())


k_elements = st.builds(
    KElement, eisenstein(60), st.integers(1, 40)
)


class TestRingAxioms:
    @given(eisenstein(), eisenstein(), eisenstein())
    def test_mul_associative_commutative(self, x, y, z):
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x

    @given(eisenstein(), eisenstein(), eisenstein())
    def test_distributive(self, x, y, z):
        assert x * (y + z) == x * y + x * z

    @given(eisenstein())
    def test_neutral_elements(self, x):
        assert x + EisensteinInt(0, 0) == x
        assert x * ONE == x
        assert x + (-x) == EisensteinInt(0, 0)

    @given(eisenstein(), eisenstein())
    def test_norm_multiplicative(self, x, y):
        assert (x * y).norm() == x.norm() * y.norm()

    @given(eisenstein(), eisenstein())
    def test_conj_automorphism(self, x, y):
        assert (x + y).conj() == x.conj() + y.conj()
        assert (x * y).conj() == x.conj() * y.conj()


class TestEuclidean:
    @settings(max_examples=1000)
    @given(eisenstein(2000), nonzero(200))
    def test_divmod_bound(self, l, m):
        q, r = divmod(l, m)
        assert l == q * m + r
        assert 3 * r.norm() <= m.norm()

    @given(nonzero(), nonzero())
    def test_bezout(self, l, m):
        g, a, b = gcd_ext(l, m)
        assert g == a * l + b * m
        assert g.divides(l) and g.divides(m)

    @given(nonzero(100), nonzero(100))
    def test_gcd_divides_and_is_maximal(self, l, m):
        g = eis_gcd(l, m)
        q1, q2 = l / g, m / g
        assert eis_gcd(q1, q2).is_unit()


class TestCanonicalisation:
    @given(nonzero())
    def test_associate_split(self, x):
        unit, x0 = canonical_associate(x)
        assert unit.is_unit() and unit * x0 == x
        assert canonical_associate(x0) == (ONE, x0)

    @given(nonzero(100), nonzero(100))
    def test_ord_beta_additive(self, x, y):
        assert ord_beta(x * y) == ord_beta(x) + ord_beta(y)

    @given(nonzero(300))
    def test_cube_mod_nine(self, x):
        assume(not BETA.divides(x))
        assert mod9_class(x**3) in (EisensteinInt(1, 0), EisensteinInt(8, 0))


class TestFactorization:
    @settings(max_examples=300)
    @given(nonzero(2000))
    def test_round_trip(self, x):
        f = factor(x)
        assert f.value() == x
        assert f.unit.is_unit()
        for irr, e in f.factors:
            assert e >= 1
            assert canonical_associate(irr) == (ONE, irr) or irr.is_rational()

    @given(nonzero(200))
    def test_cube_detection(self, x):
        roots = cube_roots(x**3)
        assert x in roots and len(roots) == 3


class TestKField:
    @given(k_elements, k_elements)
    def test_add_mul_consistent(self, x, y):
        assert (x + y) - y == x
        if not y.is_zero():
            assert (x * y) / y == x

    @given(k_elements)
    def test_reduction_idempotent(self, x):
        assert KElement(x.num, x.den) == x

    @given(k_elements)
    def test_parse_format_round_trip(self, x):
        assert parse_k(format_k(x)) == x

    @given(eisenstein())
    def test_eint_round_trip(self, x):
        assert parse_eisenstein(format_eisenstein(x)) == x


class TestCubeClass:
    @settings(max_examples=200)
    @given(nonzero(30), nonzero(5))
    def test_canonical_ignores_cubes(self, m, c):
        assert canonicalize(m * c**3) == canonicalize(m)

    @given(nonzero(30))
    def test_canonical_ignores_sign(self, m):
        assert canonicalize(-m) == canonicalize(m)

    @given(nonzero(40))
    def test_exponents_small(self, m):
        canon = canonicalize(m)
        assert canon.unit in (ONE, EisensteinInt(0, 1), EisensteinInt(-1, -1))
        for _, e in canon.factors:
            assert e in (1, 2)
        root, rest = split_cubes(factor(m))
        assert root**3 * rest.value() == m
        assert rest == canon

    @given(k_elements.filter(lambda x: not x.is_zero()))
    def test_classify_transports_the_cube_class(self, x):
        # classify factors only the oriented target; canonicalize factors x
        for y in (x, -x, x.conj(), -x.conj()):
            assert classify(y, "K", None).canonical == canonicalize(y)


# a common factor of the two numerators, so gcd(a, b) carries small primes
shared_factor = st.lists(st.sampled_from((2, 3, 5, 7, 11)), max_size=4).map(math.prod)
numerator = st.integers(-60, 60).filter(bool)


class TestSearchRational:
    @settings(max_examples=300, deadline=None)
    @given(shared_factor, numerator, numerator)
    def test_every_integer_pair_is_found(self, g, a, b):
        # the divisor pruning keeps e = a + b whatever primes gcd(a, b) has
        assume(a != -b)
        a, b = g * a, g * b
        assert (KElement(a), KElement(b)) in search_rational(a**3 + b**3, 1)

    @pytest.mark.parametrize("m, x, y, d", [
        (7, 4, 5, 3), (6, 37, 17, 21), (17, 18, -1, 7),
    ])
    def test_known_witnesses_at_their_denominator(self, m, x, y, d):
        assert (KElement(x, d), KElement(y, d)) in search_rational(m, d)


# texts over the characters the element grammar uses, and the space
def element_texts(max_size: int):
    return st.text(alphabet="0123456789wuv+-*/() ", max_size=max_size)


# argv of every other subcommand from three element texts x, y, m and a
# table size n; budgets of 1 keep each run small
SUBCOMMAND_ARGV = {
    "factor": lambda x, y, m, n: ["factor", m],
    "split-prime": lambda x, y, m, n: ["split-prime", m],
    "report": lambda x, y, m, n: ["report", m],
    "split-prime-n": lambda x, y, m, n: ["split-prime", str(n)],
    "report-n": lambda x, y, m, n: ["report", str(n)],
    "solve-lucas": lambda x, y, m, n: ["solve", m, "--method", "lucas"],
    "solve-relation": lambda x, y, m, n: ["solve", m, "--method", "relation",
                                          "--budget-relation", "1"],
    "solve-tangent": lambda x, y, m, n: ["solve", m, "--method", "tangent", "--from", f"{x},{y}"],
    "search": lambda x, y, m, n: ["search", m, "--budget-denom", "1", "--budget-coord", "1"],
    "descend": lambda x, y, m, n: ["descend", x, y, m],
    "tables": lambda x, y, m, n: ["tables", ("conditionI", "excA", "excB", "excA-mod9-first5")[n % 4],
                                  "--max", str(n)],
}


class TestParseFuzz:
    @settings(max_examples=300)
    @given(element_texts(12))
    def test_parse_k_parses_or_rejects(self, text):
        # any other exception escapes and fails the test
        try:
            parse_k(text)
        except (ValueError, ZeroDivisionError):
            pass

    @settings(max_examples=100, deadline=None)
    @given(element_texts(6))
    def test_classify_exits_with_a_contract_code(self, text):
        # six characters keep the targets small enough to factor at once;
        # argparse's usage error (a target that reads as a flag) exits 1
        argv = ["classify", text, "--budget-denom", "1", "--budget-coord", "1",
                "--budget-relation", "1"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), (text, code)

    @pytest.mark.parametrize("template", list(SUBCOMMAND_ARGV.values()), ids=list(SUBCOMMAND_ARGV))
    @settings(max_examples=40, deadline=None)
    @given(element_texts(6), element_texts(6), element_texts(6), st.integers(-5, 300))
    def test_subcommand_exits_with_a_contract_code(self, template, x, y, m, n):
        argv = template(x, y, m, n)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), (argv, code)
