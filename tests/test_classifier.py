"""Canonical cube-class forms and the theorem dispatch."""

import dataclasses
import json
import random
from collections import Counter

import pytest

from cubesum import classifier, constructors, factorization, search, verify
from cubesum.classifier import canonicalize, classify, match_rule
from cubesum.eisenstein import BETA, EisensteinInt, KElement, ONE, V, W
from cubesum.factorization import Factorization, factor, split_cubes
from cubesum.search import SearchBudget, search_eisenstein


def E(a, b=0):
    return EisensteinInt(a, b)


def strpair(pair):
    return (str(pair[0]), str(pair[1]))


SMALL_BUDGET = SearchBudget(denom=8, coord=8, relation=8)


class TestCanonicalize:
    def test_nine_is_beta_class(self):
        c = canonicalize(9)  # 9 = beta⁴ = beta·beta³
        assert c.unit == ONE and c.factors == ((BETA, 1),)

    def test_minus_eight_is_cube(self):
        c = canonicalize(-8)
        assert c.unit == ONE and c.factors == ()

    def test_three_is_beta_squared(self):
        c = canonicalize(3)  # 3 = (-1)·beta², the sign is a cube
        assert c.unit == ONE and c.factors == ((BETA, 2),)

    def test_fraction_lift(self):
        # 6/7 lifts to 6·7², same cube class
        assert canonicalize(KElement(E(6), 7)) == canonicalize(6 * 49)

    def test_idempotent(self):
        rng = random.Random(22)
        for _ in range(200):
            m = E(rng.randint(-99, 99), rng.randint(-99, 99))
            if m.is_zero():
                continue
            c = canonicalize(m)
            assert canonicalize(c.value()) == c

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            canonicalize(0)


# (status, tag, reason) of classify(target, "K", None) for the test_shapes
# targets of each rule; pinned so the text of every row is covered.
NO_THEOREM = ("Unknown", "none", "no theorem covers this canonical form")
SHAPE_VERDICTS = {
    "trivial-cube": ("OnlyTrivial", "Corollary 2 to Theorem 1.5",
                     "the target is a nonzero cube; only the axis solutions exist (FLT(3))"),
    "unit-target": ("NoSolutions", "Theorem 1.6",
                    "a unit other than ±1 is not a sum of two cubes in K"),
    "beta-solvable": ("HasSolutions", "beta-construction",
                      "targets in the cube class of beta are sums of two cubes "
                      "(x³ + y³ = 9 has infinitely many rational solutions)"),
    "beta-blocked": ("NoSolutions", "Theorem 1.7",
                     "an associate of beta or beta² other than ±beta is not a sum of two cubes"),
    "inert-25": ("NoSolutions", "Theorem 1.3",
                 "associate of 5^1 with p = 5 mod 9 (Pépin/Sylvester/Lucas class)"),
    "inert-8": ("LiteratureSolvable", "literature",
                "p = 17 = 8 mod 9: infinitely many rational representations of p and p²"),
    "inert-8-twist": NO_THEOREM,
    "split-47": ("NoSolutions", "Theorem 1.4",
                 "irreducible of norm 7 = 7 mod 9 (all associates blocked)"),
    "split-1mod9-primary": ("Unknown", "none", "norm 73 is Exceptional A; no theorem applies"),
    "split-1mod9-twist": ("Unknown", "none",
                          "unit twist of an irreducible of norm 19 = 1 mod 9; "
                          "no theorem covers this form"),
    "rational-split-47": ("LiteratureSolvable", "literature",
                          "p = 7 = 7 mod 9: infinitely many rational representations of p "
                          "and p² (Sylvester's conjecture, now established)"),
    "rational-split-47-twist": ("NoSolutions", "Theorem 2.2",
                                "u·7 and u·7² are not sums of two cubes "
                                "(condition (I) verified)"),
    "rational-split-1mod9": ("Unknown", "none",
                             "rational class of p = 73 = 1 mod 9: known results are conjectural"),
    "beta-inert-25": ("NoSolutions", "Theorem 2.1",
                      "beta·5^1 with p = 5 mod 9 (covers 9·5^1 via 9 = beta·beta³)"),
    "beta-inert-other": ("Unknown", "none",
                         "beta times an inert prime outside the Theorem 2.1 pattern "
                         "(unit twists of beta·p are not addressed by any theorem)"),
    "three-p": ("NoSolutions", "Theorem 2.3",
                "3·7^1: condition (I) holds and 7 is neither Exceptional A nor Exceptional B"),
    "three-p-twist": NO_THEOREM,
    "no-theorem": NO_THEOREM,
}


class TestRuleTable:
    def test_exactly_one_rule_fires(self):
        rng = random.Random(23)
        for _ in range(300):
            m = E(rng.randint(-60, 60), rng.randint(-60, 60))
            if m.is_zero():
                continue
            match_rule(canonicalize(m))  # every form finds a row

    def test_rows_partition_the_key_space(self):
        # every key a canonical form can have: p and beta·p carry an inert
        # prime (2, 5 or 8 mod 9), pi and pair a split norm (1, 4 or 7 mod 9),
        # the other kinds any n; the unit is 1, w or v
        residues = {"p": (2, 5, 8), "beta·p": (2, 5, 8), "pi": (1, 4, 7), "pair": (1, 4, 7)}
        kinds = ("unit", "beta", "beta²", "p", "beta·p", "pi", "pair", "3·pair", "other")
        matched, keys = set(), set()
        for kind in kinds:
            for n in residues.get(kind, range(9)):
                for unit in (ONE, W, V):
                    rows = [i for i, (_, k, ns, units, _) in enumerate(classifier._RULES)
                            if k == kind and n in ns and unit in units]
                    assert len(rows) == 1, (kind, n, unit, rows)
                    matched.update(rows)
                    keys.add((kind, n, unit))
        assert matched == set(range(len(classifier._RULES)))
        # _rule's lookup holds exactly these keys
        assert set(classifier._RULE_OF) == keys

    @pytest.mark.parametrize(
        "target,rule",
        [
            (E(1), "trivial-cube"),
            (W, "unit-target"),
            (E(9), "beta-solvable"),
            (E(3), "beta-blocked"),
            (E(5), "inert-25"),
            (E(17), "inert-8"),
            (17 * W, "inert-8-twist"),
            (E(1, 3), "split-47"),
            (E(1, 9), "split-1mod9-primary"),
            (W * E(-2, 3), "split-1mod9-twist"),
            (E(7), "rational-split-47"),
            (7 * W, "rational-split-47-twist"),
            (E(73), "rational-split-1mod9"),
            (E(45), "beta-inert-25"),
            (E(0, 18), "beta-inert-other"),
            (E(21), "three-p"),
            (21 * W, "three-p-twist"),
            (E(6), "no-theorem"),
            (E(15), "no-theorem"),
        ],
    )
    def test_shapes(self, target, rule):
        assert match_rule(canonicalize(target)) == rule
        v = classify(target, "K", None)
        assert (v.status, v.rule, v.reason) == SHAPE_VERDICTS[rule]


class TestVerdicts:
    def test_four_over_q(self):
        v = classify(4, "Q")
        assert (v.status, v.rule) == ("NoSolutions", "Theorem 1.3")

    def test_two_over_q(self):
        v = classify(2, "Q")
        assert v.status == "OnlyTrivial"
        assert [strpair(p) for p in v.trivial_solutions] == [("1", "1")]

    def test_minus_two_over_q(self):
        v = classify(-2, "Q")
        assert v.status == "OnlyTrivial"
        assert [strpair(p) for p in v.trivial_solutions] == [("-1", "-1")]

    def test_sixteen_over_q(self):
        v = classify(16, "Q")  # 16 = 2·2³
        assert v.status == "OnlyTrivial"
        assert [strpair(p) for p in v.trivial_solutions] == [("2", "2")]

    def test_two_over_k_has_nine(self):
        v = classify(2, "K")
        assert v.status == "OnlyTrivial" and len(v.trivial_solutions) == 9

    def test_cube_over_q(self):
        v = classify(27, "Q")
        assert v.status == "OnlyTrivial"
        assert {strpair(p) for p in v.trivial_solutions} == {("3", "0"), ("0", "3")}

    def test_three_over_k(self):
        v = classify(3, "K")
        assert (v.status, v.rule) == ("NoSolutions", "Theorem 1.7")

    def test_forty_five(self):
        v = classify(45, "K")
        assert (v.status, v.rule) == ("NoSolutions", "Theorem 2.1")

    def test_seven_w(self):
        v = classify(7 * W, "K")
        assert (v.status, v.rule) == ("NoSolutions", "Theorem 2.2")

    def test_twenty_one_over_q(self):
        v = classify(21, "Q")
        assert (v.status, v.rule) == ("NoSolutions", "Theorem 2.3")

    def test_lucas_upgrade_183(self):
        v = classify(183, "Q")
        assert v.status == "HasSolutions" and v.rule == "Lucas-construction"
        assert strpair(v.witness) == ("-190171/46956", "295579/46956")

    def test_search_upgrade_6(self):
        v = classify(6, "Q", SearchBudget(denom=25))
        assert v.status == "HasSolutions" and v.rule == "rational-search"
        assert strpair(v.witness) == ("37/21", "17/21")

    def test_unknown_without_budget(self):
        v = classify(6, "Q", None)
        assert v.status == "Unknown" and v.rule == "none"
        assert v.exit_code() == 2

    def test_beta_class_constructed(self):
        v = classify(9, "Q")
        assert v.status == "HasSolutions" and v.rule == "beta-construction"
        assert strpair(v.witness) == ("2", "1")
        v = classify(72, "Q")  # 9·2³
        assert strpair(v.witness) == ("4", "2")

    def test_eighteen_w(self):
        v = classify(E(0, 18), "K")
        assert v.status == "HasSolutions"
        assert strpair(v.witness) == ("3+2*w", "1")

    def test_one_plus_nine_w(self):
        v = classify(E(1, 9), "K")
        assert v.status == "HasSolutions" and v.rule == "relation-construction"
        assert strpair(v.witness) == ("(2-3*w)/2", "(-3-6*w)/2")

    def test_literature_never_claims_witness(self):
        for m in (E(7), E(17), E(49)):
            v = classify(m, "K")
            assert v.status == "LiteratureSolvable"
            assert v.witness is None and v.citation is not None

    def test_scope_q_requires_rational(self):
        with pytest.raises(ValueError):
            classify(W, "Q")

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            classify(0, "K")

    def test_bad_scope(self):
        with pytest.raises(ValueError):
            classify(7, "X")

    def test_fractional_target(self):
        # 2/27 is in the cube class of 2: only trivial solutions, scaled
        v = classify(KElement(E(2), 27), "Q")
        assert v.status == "OnlyTrivial"
        assert [strpair(p) for p in v.trivial_solutions] == [("1/3", "1/3")]


class TestInvariances:
    def test_sign_exact(self):
        rng = random.Random(24)
        checked = 0
        while checked < 60:
            m = E(rng.randint(-9, 9), rng.randint(-9, 9))
            if m.is_zero():
                continue
            checked += 1
            v = classify(m, "K", SMALL_BUDGET)
            vn = classify(-m, "K", SMALL_BUDGET)
            assert (v.status, v.rule) == (vn.status, vn.rule)
            if v.witness is not None:
                assert vn.witness == (-v.witness[0], -v.witness[1])
            if v.trivial_solutions is not None:
                assert set(vn.trivial_solutions) == {
                    (-a, -b) for a, b in v.trivial_solutions
                }

    def test_conjugation_exact(self):
        rng = random.Random(25)
        checked = 0
        while checked < 60:
            m = E(rng.randint(-9, 9), rng.randint(-9, 9))
            if m.is_zero() or m.conj() == m:
                continue
            checked += 1
            v = classify(m, "K", SMALL_BUDGET)
            vc = classify(m.conj(), "K", SMALL_BUDGET)
            assert (v.status, v.rule) == (vc.status, vc.rule)
            if v.witness is not None:
                assert vc.witness == (v.witness[0].conj(), v.witness[1].conj())
            if v.trivial_solutions is not None:
                assert set(vc.trivial_solutions) == {
                    (a.conj(), b.conj()) for a, b in v.trivial_solutions
                }

    def test_cube_class_status_and_rule(self):
        rng = random.Random(26)
        checked = 0
        while checked < 200:
            m = E(rng.randint(-9, 9), rng.randint(-9, 9))
            c = E(rng.randint(-3, 3), rng.randint(-3, 3))
            if m.is_zero() or c.is_zero():
                continue
            checked += 1
            v1 = classify(m, "K", None)
            v2 = classify(m * c**3, "K", None)
            assert (v1.status, v1.rule) == (v2.status, v2.rule)

    def test_witness_rescale_spot_check(self):
        # searches enabled: 9 and 9·2³ both solve, witnesses scale by 2
        v1 = classify(9, "K")
        v2 = classify(72, "K")
        two = KElement(2)
        assert (v1.witness[0] * two, v1.witness[1] * two) == v2.witness


def _exact_cube_root(x):
    """The cube root the classifier took before _Case.root, kept as an
    oracle: the root of x's cube split, where x must be a cube."""
    root, rest = split_cubes(factor(x))
    if rest != Factorization(ONE, ()):
        raise ValueError(f"{x} is not a cube (cube class {rest})")
    return root


@pytest.fixture
def case_of(monkeypatch):
    """m -> the rule name and the _Case that classify(m, "K", None) hands
    its handler, caught by a spy on the row that _rule returns."""
    cases = []
    rule = classifier._rule

    def spied(*key):
        row = rule(*key)
        return (*row[:-1], lambda c: cases.append((row[0], c)) or row[-1](c))

    monkeypatch.setattr(classifier, "_rule", spied)

    def case_of(m):
        cases.clear()
        classify(m, "K", None)
        (named_case,) = cases
        return named_case

    return case_of


# the rows that build solutions from the root: the cube, beta and 2 classes
_TWO_CLASS = Factorization(ONE, ((E(2), 1),))


class TestCaseRoot:
    def _check(self, case):
        assert case.root == _exact_cube_root(case.rep / case.canon.value()), case.rep
        assert case.root**3 * case.canon.value() == case.rep

    def test_matches_parent_root_on_the_grid(self, case_of):
        checked = 0
        for a in range(-60, 61):
            for b in range(-60, 61):
                if a == 0 and b == 0:
                    continue
                rule, case = case_of(E(a, b))
                if rule in ("trivial-cube", "beta-solvable") or case.canon == _TWO_CLASS:
                    self._check(case)
                    checked += 1
        assert checked == 44

    def test_matches_parent_root_on_constructed_targets(self, case_of):
        rows = {ONE: "trivial-cube", BETA: "beta-solvable", E(2): "inert-25"}
        for a in range(-10, 11):
            for b in range(-10, 11):
                g = E(a, b)
                if g.is_zero():
                    continue
                for x, row in rows.items():
                    rule, case = case_of(g**3 * x)
                    assert rule == row
                    self._check(case)


class TestJson:
    def test_183_shape(self):
        v = classify(183, "Q")
        doc = json.loads(v.to_json("183"))
        assert doc["input"] == "183"
        assert doc["scope"] == "Q"
        assert doc["status"] == "HasSolutions"
        assert doc["rule"] == "Lucas-construction"
        assert doc["witness"] == ["-190171/46956", "295579/46956"]
        assert doc["canonical"]["unit"] == "1"
        assert ["1+2*w", 2] in doc["canonical"]["factors"]

    def test_nosolutions_shape(self):
        doc = json.loads(classify(21, "Q").to_json("21"))
        assert doc["status"] == "NoSolutions" and doc["rule"] == "Theorem 2.3"
        assert "witness" not in doc


# The witness searches behind each attempt, faked to miss and to log their
# call: the real _try_* run, so each logs only where it applies.
SEARCH_FAKES = {
    "search_rational": ("rational", []),
    "lucas_triple_search": ("lucas", None),
    "search_eisenstein": ("box", []),
    "relation_search": ("relation", None),
}


@pytest.fixture
def search_log(monkeypatch):
    calls = []
    for fn, (name, miss) in SEARCH_FAKES.items():
        monkeypatch.setattr(classifier, fn,
                            lambda *args, name=name, miss=miss, **kw: calls.append(name) or miss)
    return calls


# Searches run by _Case.search, in call order, for each target kind and
# each rule construction put first: first moves to the front when it
# applies, and no attempt runs twice.
ATTEMPT_ORDER = {
    (7, "Q"): {
        None: ["rational", "lucas"],
        "lucas": ["lucas", "rational"],
        "relation": ["rational", "lucas"],
    },
    (7, "K"): {
        None: ["rational", "lucas", "box", "relation"],
        "lucas": ["lucas", "rational", "box", "relation"],
        "relation": ["relation", "rational", "lucas", "box"],
    },
    (EisensteinInt(2, 5), "K"): {
        None: ["box", "relation"],
        "lucas": ["box", "relation"],
        "relation": ["relation", "box"],
    },
}


@pytest.mark.parametrize("target, scope", list(ATTEMPT_ORDER), ids=str)
def test_search_attempt_order(search_log, target, scope):
    rep = EisensteinInt(target) if isinstance(target, int) else target
    root, canon = split_cubes(factor(rep))
    case = classifier._Case(rep, root, canon, 1, 1, scope, SearchBudget(), rep, (1, False))
    for first, expected in ATTEMPT_ORDER[(target, scope)].items():
        search_log.clear()
        verdict = case.search("reason", first and getattr(classifier, f"_try_{first}"))
        assert (verdict.status, verdict.rule, verdict.reason) == ("Unknown", "none", "reason")
        assert search_log == expected, first


# A target reaching the search of each searching row of _RULES, and the
# search that row runs first over K: its own construction, else the
# default order (rational search for a rational target, else the box).
SEARCH_FIRST = {
    "inert-8-twist": (17 * W, "box"),
    "split-1mod9-primary": (E(1, 9), "relation"),
    "split-1mod9-twist": (W * E(-2, 3), "relation"),
    "rational-split-1mod9": (E(73), "rational"),
    "beta-inert-other": (E(0, 18), "box"),
    "three-p": (E(183), "lucas"),
    "three-p-twist": (21 * W, "box"),
    "no-theorem": (E(6), "rational"),
}


def test_searching_rows_cover_the_search_verdicts():
    unknown = {rule for rule, v in SHAPE_VERDICTS.items() if v[0] == "Unknown"}
    assert set(SEARCH_FIRST) == unknown | {"three-p"}


@pytest.mark.parametrize("rule", list(SEARCH_FIRST))
def test_rule_first_attempt(search_log, rule):
    target, first = SEARCH_FIRST[rule]
    assert match_rule(canonicalize(target)) == rule
    assert classify(target, "K").status == "Unknown"
    assert search_log[0] == first


# -- one factorization per classify -------------------------------------------


def _orientations(x):
    """x, -x, conj(x) and -conj(x): the targets _orient sends to one rep."""
    return x, -x, x.conj(), -x.conj()


class TestCanonicalTransport:
    """classify reads the input's cube class off rep's through the
    orientation; canonicalize, which factors the input itself, is the oracle."""

    def test_grid(self):
        for a in range(-20, 21):
            for b in range(-20, 21):
                if a or b:
                    for x in _orientations(E(a, b)):
                        assert classify(x, "K", None).canonical == canonicalize(x), x

    def test_fractional_targets(self):
        for d in (2, 3, 7, 9):
            for a in range(-6, 7):
                for b in range(-6, 7):
                    if a or b:
                        for x in _orientations(KElement(E(a, b), d)):
                            assert classify(x, "K", None).canonical == canonicalize(x), x


# The six theorem-decided forms of the benchmark's theorems-large workload,
# on primes near 10⁵, with the theorem that decides each.
LARGE_FORMS = {
    E(300009): "Theorem 2.3",  # 3p, p split and not Exceptional
    E(277, 345): "Theorem 2.4",  # primary pi of norm 1 mod 9, not Exceptional A
    E(0, 100003): "Theorem 2.2",  # w·p, p split and 4 or 7 mod 9
    E(100019): "Theorem 1.3",  # inert q = 2 or 5 mod 9
    E(100019, 200038): "Theorem 2.1",  # beta·q, the same q
    E(-309, -323): "Theorem 1.4",  # an associate of pi of norm 4 or 7 mod 9
}


@pytest.fixture
def factor_calls(monkeypatch):
    """Every factor call, at each module's name for it, as (module, argument)."""
    calls = []
    for module in (factorization, classifier, search):
        name = module.__name__.rsplit(".", 1)[-1]

        def counted(x, name=name, real=module.factor):
            calls.append((name, x))
            return real(x)

        monkeypatch.setattr(module, "factor", counted)
    return calls


def test_one_factor_call_per_classify(factor_calls):
    grid = [E(a, b) for a in range(-20, 21, 3) for b in range(-20, 21, 4) if a or b]
    for target in [*LARGE_FORMS, *grid, KElement(E(2, 5), 7)]:
        factor_calls.clear()
        verdict = classify(target, "K", None)
        assert [name for name, _ in factor_calls] == ["classifier"], target
        assert verdict.rule == LARGE_FORMS.get(target, verdict.rule)
    for n in range(1, 100):
        factor_calls.clear()
        classify(n, "Q", None)
        assert len(factor_calls) == 1, n


@pytest.fixture
def split_calls(monkeypatch):
    """Every split_cubes call, at each module's name for it."""
    calls = []
    for module in (factorization, classifier, constructors):
        monkeypatch.setattr(module, "split_cubes",
                            lambda f, real=module.split_cubes: calls.append(f) or real(f))
    return calls


def test_one_cube_split_per_classify(split_calls):
    # the grid, the large forms, and the rows that read the root: cubes,
    # the beta class and the class of 2 (trivial-cube, beta-solvable, inert-25)
    grid = [E(a, b) for a in range(-20, 21, 3) for b in range(-20, 21, 4) if a or b]
    rooted = {g**3 * x: row for g in (E(1), E(-2), E(2, 1), E(-3, 5))
              for x, row in ((ONE, "trivial-cube"), (BETA, "beta-solvable"), (E(2), "inert-25"))}
    for target in [*LARGE_FORMS, *grid, *rooted]:
        split_calls.clear()
        classify(target, "K", None)
        assert len(split_calls) == 1, target
    assert {match_rule(canonicalize(t)) for t in rooted} == set(rooted.values())


@pytest.fixture
def factor_int_calls(monkeypatch):
    """Every factor_int call at search's name for it: the searches' targets
    over Z and each denominator d."""
    search._integer_factors.cache_clear()
    calls = []
    monkeypatch.setattr(search, "factor_int",
                        lambda n, real=search.factor_int: calls.append(n) or real(n))
    return calls


def test_box_search_factors_each_denominator_once(factor_calls, factor_int_calls, monkeypatch):
    # the default budget reaches every d <= 50, each factored over Z once,
    # in loop order; each box search factors its own target once, as
    # classify does
    searched = []
    monkeypatch.setattr(classifier, "search_eisenstein",
                        lambda m, *args, real=search_eisenstein, **kw:
                        searched.append(m) or real(m, *args, **kw))
    targets = [E(a, b) for a in range(-5, 6) for b in range(-5, 6) if a or b]
    verdicts = [classify(t, "K") for t in targets]
    assert "eisenstein-search" in {v.rule for v in verdicts}
    assert Counter(name for name, _ in factor_calls) == {
        "classifier": len(targets), "search": len(searched)}
    assert Counter(x for name, x in factor_calls if name == "search") == Counter(searched)
    assert factor_int_calls == list(range(1, 51))


def test_public_box_search_factors_its_target(factor_calls, factor_int_calls):
    m = E(2, 5)
    first = search_eisenstein(m, 4, 3)
    # factor runs on the target only; each d the loop lists is factored
    # over Z there, once.  2 + 5w ≡ -1 - w mod 3 is prime to beta and not
    # ±1 mod 3, so m·d³ can be a sum of two cubes only for 3 | d
    assert factor_calls == [("search", m)]
    assert factor_int_calls == [3]
    factor_calls.clear()
    factor_int_calls.clear()
    assert search_eisenstein(m, 4, 3) == first
    assert factor_calls == [("search", m)]
    assert factor_int_calls == []

    # 12⁶ <= 12·4²·81·4⁴ < 13⁶: past d = 12 even a unit target fails the
    # window, which stops the loop before d = 13 is factored; d = 3 is
    # memoised, and w, like m, is listed only at 3 | d
    factor_calls.clear()
    search_eisenstein(W, 4, 50)
    assert factor_calls == [("search", W)]
    assert factor_int_calls == [6, 9, 12]


# -- the fixed path against the object-based code it replaced -----------------


def _object_orient(m):
    """The _orient that the int-pair one replaced, kept as an oracle: the
    four transforms as EisensteinInt values, the least by (a, b) > (0, 0)."""
    candidates = [(s * (m.conj() if conj else m), (s, conj))
                  for conj in (False, True) for s in (1, -1)]
    # min keeps the first of equal candidates, i.e. the earliest transform
    return min(((x, t) for x, t in candidates if (x.a, x.b) > (0, 0)),
               key=lambda xt: (xt[0].a, xt[0].b))


def _scan_rule(kind, n, unit):
    """The linear scan that _rule's lookup replaced, kept as an oracle."""
    return next(row for row in classifier._RULES
                if row[1] == kind and n % 9 in row[2] and unit in row[3])


def _fixed_path_corpus(criterion_10_corpus, large_prime_forms):
    """Every a + bw with |a|, |b| <= 40, criterion 10's classify targets,
    and the large p², 3p² and pi."""
    grid = [E(a, b) for a in range(-40, 41) for b in range(-40, 41) if a or b]
    return grid + [args[0] for args in criterion_10_corpus[0]] + large_prime_forms


def test_orient_matches_object_oracle(criterion_10_corpus, large_prime_forms):
    for x in _fixed_path_corpus(criterion_10_corpus, large_prime_forms):
        rep, (sign, conj) = classifier._orient(x)
        assert (rep, (sign, conj)) == _object_orient(x), x
        assert type(rep) is EisensteinInt and type(conj) is bool


def test_rule_matches_linear_scan(criterion_10_corpus, large_prime_forms):
    for x in _fixed_path_corpus(criterion_10_corpus, large_prime_forms):
        canon = canonicalize(x)
        key = (*classifier._shape(canon)[:2], canon.unit)
        assert classifier._rule(*key) is _scan_rule(*key), x
    for kind, n, unit in classifier._RULE_OF:
        for n_big in (n, n + 9 * 10**8):  # n itself, not its residue
            assert classifier._rule(kind, n_big, unit) is _scan_rule(kind, n_big, unit)


def test_fixed_path_counts(monkeypatch):
    # criterion 10's 800 classify calls, searches off, build at most 7,000
    # EisensteinInt values (25,772 with the object-based path) and one
    # Verdict each: no dataclasses.replace, which built a second (800)
    counts, inside = Counter(), []

    def counted(name, real):
        def spy(*args, **kwargs):
            counts[name] += bool(inside)
            return real(*args, **kwargs)
        return spy

    def classify_spy(*args):
        inside.append(args)
        try:
            return classify(*args)
        finally:
            counts["classify"] += 1
            inside.pop()

    monkeypatch.setattr(EisensteinInt, "__init__", counted("eis", EisensteinInt.__init__))
    monkeypatch.setattr(classifier.Verdict, "__init__",
                        counted("verdict", classifier.Verdict.__init__))
    replace = counted("replace", dataclasses.replace)
    monkeypatch.setattr(dataclasses, "replace", replace)
    monkeypatch.setattr(classifier, "replace", replace, raising=False)  # a from-import's name
    monkeypatch.setattr(verify, "classify", classify_spy)
    verify.criterion_10_property_soak()
    assert (counts["classify"], counts["verdict"], counts["replace"]) == (800, 800, 0)
    assert counts["eis"] <= 7000, counts["eis"]  # 6,929 with the int-coordinate path
