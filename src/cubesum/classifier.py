"""Decide solvability of x³ + y³ = M over Q or K = Q(w), with citations.

Solvability only depends on M up to nonzero cube factors (and -1 is a
cube), so M is first reduced to a canonical form: a unit in {1, w, v}
times squarefree-mod-cubes factor data (every exponent 1 or 2).  A fixed
ordered rule table pattern-matches the canonical form; exactly one rule
fires per form, and each verdict carries the tag of the theorem that
decided it:

  1.3  inert p = 2, 5 mod 9 (Pépin/Sylvester/Lucas; Euler/Legendre for 2, 4)
  1.4  split irreducible of norm = 4, 7 mod 9
  1.5  FLT(3), Kummer: cube targets have only the trivial solutions
  1.6  the units w, v are not sums of two cubes
  1.7  associates of beta and beta² other than ±beta
  2.1  beta·p and beta·p² for inert p = 2, 5 mod 9
  2.2  u·p and u·p² for split p = 4, 7 mod 9 (under condition (I))
  2.3  3p and 3p² for split p, given (I) and not Exceptional A/B
  2.4  primary pi and pi² of norm = 1 mod 9 when p is not Exceptional A

Where no theorem decides, the verdict is Unknown and bounded searches try
to upgrade it to HasSolutions; every witness is re-verified exactly at
construction.  Existence results imported from the literature (Elkies,
Dasgupta-Voight, Kriz) are reported as LiteratureSolvable and never claim
a witness.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

from .criteria import condition_I, exceptional_A, exceptional_B
from .constructors import lucas_triple_search, lucas_witness, solution_from_relation
from .eisenstein import (
    BETA,
    EisensteinInt,
    KElement,
    ONE,
    V,
    W,
    canonical_associate,
    format_eisenstein,
    format_k,
)
from .factorization import Factorization, cube_split
from .search import SearchBudget, relation_search, search_eisenstein, search_rational

LUCAS_SEARCH_BOUND = 100  # integer triple scan radius for the 3p construction

Pair = tuple[KElement, KElement]

# M up to cube factors: the rest of cube_split, with unit in {1, w, v} and
# exponents 1 or 2.  M and its canonical value differ by a nonzero cube of K
# times ±1, so solvability over K (and over Q, for the theorem-backed
# verdicts) is a property of this form alone.  Canonicalisation is idempotent.
CanonicalM = Factorization


def canonicalize(m: "EisensteinInt | KElement | int") -> CanonicalM:
    """Cube-class reduction of a nonzero target.

    A fractional target n/d is lifted to n·d² (the same cube class), whose
    cube_split rest is the canonical form.
    """
    return cube_split(_integral_target(m))[1]


def _integral_target(m: "EisensteinInt | KElement | int") -> EisensteinInt:
    if isinstance(m, int):
        m = EisensteinInt(m, 0)
    if isinstance(m, KElement):
        m = m.num * m.den**2
    if m.is_zero():
        raise ValueError("zero target")
    return m


@dataclass(frozen=True)
class Verdict:
    """Outcome of classify: a status, the rule that produced it, and data.

    HasSolutions carries one exactly-verified witness pair; OnlyTrivial
    carries the full (scope-filtered) list of trivial solutions, also
    verified; LiteratureSolvable carries a citation and never a witness.
    """

    status: str  # NoSolutions | OnlyTrivial | HasSolutions | LiteratureSolvable | Unknown
    rule: str
    reason: str
    canonical: CanonicalM
    scope: str
    witness: Pair | None = None
    trivial_solutions: tuple[Pair, ...] | None = None
    citation: str | None = None

    def exit_code(self) -> int:
        return 2 if self.status == "Unknown" else 0

    def to_json(self, input_text: str | None = None) -> str:
        doc: dict = {}
        if input_text is not None:
            doc["input"] = input_text
        doc.update(
            {
                "scope": self.scope,
                "canonical": {
                    "unit": format_eisenstein(self.canonical.unit),
                    "factors": [[format_eisenstein(i), e] for i, e in self.canonical.factors],
                },
                "status": self.status,
                "rule": self.rule,
                "reason": self.reason,
            }
        )
        if self.witness is not None:
            doc["witness"] = [format_k(self.witness[0]), format_k(self.witness[1])]
        if self.trivial_solutions is not None:
            doc["trivial"] = [
                [format_k(x), format_k(y)] for x, y in self.trivial_solutions
            ]
        if self.citation is not None:
            doc["citation"] = self.citation
        return json.dumps(doc)


# -- shape analysis of a canonical form ------------------------------------


@dataclass(frozen=True)
class _Shape:
    unit: EisensteinInt
    beta_exp: int                                   # 0, 1 or 2
    inert: tuple[tuple[int, int], ...]              # (p, exp)
    split: tuple[tuple[EisensteinInt, int, int], ...]  # (pi, norm, exp)

    @property
    def unit_is_one(self) -> bool:
        return self.unit == ONE

    def split_conjugate_pair(self) -> tuple[int, int] | None:
        """(p, e) when the split part is exactly {pi^e, conj(pi)^e}."""
        if len(self.split) != 2:
            return None
        (p1, n1, e1), (p2, n2, e2) = self.split
        if n1 != n2 or e1 != e2:
            return None
        _, conj1 = canonical_associate(p1.conj())
        if conj1 != p2:
            return None
        return n1, e1


def _analyse(canon: CanonicalM) -> _Shape:
    beta_exp = 0
    inert: list[tuple[int, int]] = []
    split: list[tuple[EisensteinInt, int, int]] = []
    for irr, e in canon.factors:
        if irr == BETA:
            beta_exp = e
        elif irr.is_rational():
            inert.append((irr.a, e))
        else:
            split.append((irr, irr.norm(), e))
    return _Shape(canon.unit, beta_exp, tuple(inert), tuple(split))


def _beta_power(s: _Shape) -> int | None:
    """beta's exponent when the form is a unit times a power of beta."""
    return None if s.inert or s.split else s.beta_exp


def _lone_inert(s: _Shape, beta_exp: int) -> int | None:
    """p mod 9 when the form is a unit times beta^beta_exp times p^e, p inert."""
    if s.beta_exp == beta_exp and len(s.inert) == 1 and not s.split:
        return s.inert[0][0] % 9
    return None


def _lone_split(s: _Shape) -> int | None:
    """N(pi) mod 9 when the form is a unit times pi^e, pi split."""
    if s.beta_exp == 0 and not s.inert and len(s.split) == 1:
        return s.split[0][1] % 9
    return None


def _conj_pair(s: _Shape, beta_exp: int) -> int | None:
    """p mod 9 when the form is a unit times beta^beta_exp times p^e, p split."""
    pair = s.split_conjugate_pair() if s.beta_exp == beta_exp and not s.inert else None
    return None if pair is None else pair[0] % 9


# -- the ordered rule table --------------------------------------------------


@dataclass(frozen=True)
class _Case:
    """What a rule handler decides on: the oriented target and its form."""

    rep: EisensteinInt
    canon: CanonicalM
    shape: _Shape
    scope: str
    budget: SearchBudget | None

    def verdict(self, status: str, tag: str, reason: str, **data) -> Verdict:
        return Verdict(status, tag, reason, self.canon, self.scope, **data)

    def search(self, reason: str, **prefer: bool) -> Verdict:
        """Unknown with this reason, upgraded if a bounded search hits."""
        return _searched_unknown(self.rep, self.canon, self.scope, self.budget, reason, **prefer)


def _inert_25(c: _Case) -> Verdict:
    p, e = c.shape.inert[0]
    if p == 2 and e == 1 and c.shape.unit_is_one:
        return c.verdict(
            "OnlyTrivial", "Theorem 1.3",
            "targets in the cube class of 2 admit only the solutions with x³ = y³",
            trivial_solutions=_trivial_diagonal_pairs(c.rep),
        )
    return c.verdict(
        "NoSolutions", "Theorem 1.3",
        f"associate of {p}^{e} with p = {p % 9} mod 9 (Pépin/Sylvester/Lucas class)",
    )


def _split_47(c: _Case) -> Verdict:
    n = c.shape.split[0][1]
    return c.verdict(
        "NoSolutions", "Theorem 1.4",
        f"irreducible of norm {n} = {n % 9} mod 9 (all associates blocked)",
    )


def _split_primary(c: _Case) -> Verdict:
    n = c.shape.split[0][1]
    if not exceptional_A(n)[0]:
        return c.verdict(
            "NoSolutions", "Theorem 2.4",
            f"primary irreducible of norm {n} = 1 mod 9, {n} not Exceptional A",
        )
    return c.search(f"norm {n} is Exceptional A; no theorem applies", prefer_relation=True)


def _rational_split_47(c: _Case) -> Verdict:
    p = c.shape.split_conjugate_pair()[0]
    return c.verdict(
        "LiteratureSolvable", "literature",
        f"p = {p} = {p % 9} mod 9: infinitely many rational representations "
        "of p and p² (Sylvester's conjecture, now established)",
        citation="Elkies (announced); Dasgupta-Voight (under conditions)",
    )


def _rational_split_47_twist(c: _Case) -> Verdict:
    p = c.shape.split_conjugate_pair()[0]
    assert condition_I(p), "condition (I) must hold (cubic reciprocity)"
    return c.verdict(
        "NoSolutions", "Theorem 2.2",
        f"u·{p} and u·{p}² are not sums of two cubes (condition (I) verified)",
    )


def _beta_inert_25(c: _Case) -> Verdict:
    p, e = c.shape.inert[0]
    return c.verdict(
        "NoSolutions", "Theorem 2.1",
        f"beta·{p}^{e} with p = {p % 9} mod 9 (covers 9·{p}^{e} via 9 = beta·beta³)",
    )


def _three_p(c: _Case) -> Verdict:
    p, e = c.shape.split_conjugate_pair()
    cond, exc_a, exc_b = condition_I(p), exceptional_A(p)[0], exceptional_B(p)
    if cond and not exc_a and not exc_b:
        return c.verdict(
            "NoSolutions", "Theorem 2.3",
            f"3·{p}^{e}: condition (I) holds and {p} is neither "
            "Exceptional A nor Exceptional B",
        )
    return c.search(
        f"3·{p}^{e} with {p} Exceptional (A={exc_a}, B={exc_b}); "
        "theorem blocked, trying the Lucas construction",
        prefer_lucas=True,
    )


def _no_theorem(c: _Case) -> Verdict:
    return c.search("no theorem covers this canonical form")


# One row per case of the decision procedure: (name, predicate on the shape
# of the canonical form, handler).  The handler returns the verdict citing
# the deciding theorem, or runs the bounded searches where no theorem
# decides.  The predicates are mutually exclusive by construction and
# match_rule() hard-asserts it; the last row, no-theorem, has no predicate
# and fires exactly when no other row does.
_Rule = tuple[str, Callable[[_Shape], bool] | None, Callable[[_Case], Verdict]]
_RULES: tuple[_Rule, ...] = (
    ("trivial-cube", lambda s: _beta_power(s) == 0 and s.unit_is_one,
     lambda c: c.verdict(
         "OnlyTrivial", "Corollary 2 to Theorem 1.5",
         "the target is a nonzero cube; only the axis solutions exist (FLT(3))",
         trivial_solutions=_trivial_axis_pairs(c.rep))),
    ("unit-target", lambda s: _beta_power(s) == 0 and not s.unit_is_one,
     lambda c: c.verdict("NoSolutions", "Theorem 1.6",
                         "a unit other than ±1 is not a sum of two cubes in K")),
    ("beta-solvable", lambda s: _beta_power(s) == 1 and s.unit_is_one,
     lambda c: c.verdict(
         "HasSolutions", "beta-construction",
         "targets in the cube class of beta are sums of two cubes "
         "(x³ + y³ = 9 has infinitely many rational solutions)",
         witness=_beta_witness(c.rep))),
    ("beta-blocked",
     lambda s: _beta_power(s) in (1, 2) and not (s.beta_exp == 1 and s.unit_is_one),
     lambda c: c.verdict(
         "NoSolutions", "Theorem 1.7",
         "an associate of beta or beta² other than ±beta is not a sum of two cubes")),
    ("inert-25", lambda s: _lone_inert(s, 0) in (2, 5), _inert_25),
    ("inert-8", lambda s: _lone_inert(s, 0) == 8 and s.unit_is_one,
     lambda c: c.verdict(
         "LiteratureSolvable", "literature",
         f"p = {c.shape.inert[0][0]} = 8 mod 9: "
         "infinitely many rational representations of p and p²",
         citation="Kriz (arXiv): Sylvester's conjecture for p = 8 mod 9")),
    ("inert-8-twist", lambda s: _lone_inert(s, 0) == 8 and not s.unit_is_one, _no_theorem),
    ("split-47", lambda s: _lone_split(s) in (4, 7), _split_47),
    ("split-1mod9-primary", lambda s: _lone_split(s) == 1 and s.unit_is_one, _split_primary),
    ("split-1mod9-twist", lambda s: _lone_split(s) == 1 and not s.unit_is_one,
     lambda c: c.search(
         f"unit twist of an irreducible of norm {c.shape.split[0][1]} = 1 mod 9; "
         "no theorem covers this form", prefer_relation=True)),
    ("rational-split-47", lambda s: _conj_pair(s, 0) in (4, 7) and s.unit_is_one,
     _rational_split_47),
    ("rational-split-47-twist", lambda s: _conj_pair(s, 0) in (4, 7) and not s.unit_is_one,
     _rational_split_47_twist),
    ("rational-split-1mod9", lambda s: _conj_pair(s, 0) == 1,
     lambda c: c.search(f"rational class of p = {c.shape.split_conjugate_pair()[0]} = 1 mod 9: "
                        "known results are conjectural")),
    ("beta-inert-25", lambda s: _lone_inert(s, 1) in (2, 5) and s.unit_is_one, _beta_inert_25),
    ("beta-inert-other",
     lambda s: (_lone_inert(s, 1) is not None
                and not (_lone_inert(s, 1) in (2, 5) and s.unit_is_one)),
     lambda c: c.search(
         "beta times an inert prime outside the Theorem 2.1 pattern "
         "(unit twists of beta·p are not addressed by any theorem)")),
    ("three-p", lambda s: _conj_pair(s, 2) is not None and s.unit_is_one, _three_p),
    ("three-p-twist", lambda s: _conj_pair(s, 2) is not None and not s.unit_is_one, _no_theorem),
    ("no-theorem", None, _no_theorem),
)
_HANDLERS = {name: handler for name, _, handler in _RULES}


def match_rule(canon: CanonicalM) -> str:
    """Name of the unique rule whose pattern matches; asserts uniqueness."""
    shape = _analyse(canon)
    hits = [name for name, pred, _ in _RULES[:-1] if pred(shape)]
    assert len(hits) <= 1, f"rule table not a partition: {hits} for {canon}"
    return hits[0] if hits else _RULES[-1][0]


# -- orientation: sign and conjugation normalisation -------------------------


def _lex_positive(x: EisensteinInt) -> bool:
    return x.a > 0 or (x.a == 0 and x.b > 0)


_IDENT = lambda p: p
_NEG = lambda p: (-p[0], -p[1])
_CONJ = lambda p: (p[0].conj(), p[1].conj())
_NEGCONJ = lambda p: (-p[0].conj(), -p[1].conj())


def _orient(m: EisensteinInt) -> tuple[EisensteinInt, Callable[[Pair], Pair]]:
    """Representative of {±m, ±conj(m)} and the map sending its solutions
    to solutions of m.

    The representative is the lexicographically smallest positive member,
    so classify(-m) and classify(conj(m)) run the identical computation and
    differ only by the (exact) witness transport.  Transform preference on
    ties: identity, negation, conjugation, both.
    """
    candidates = [
        (m, _IDENT),
        (-m, _NEG),
        (m.conj(), _CONJ),
        (-m.conj(), _NEGCONJ),
    ]
    positives = [(x, t) for x, t in candidates if _lex_positive(x)]
    # min keeps the first of equal candidates, i.e. the earliest transform
    return min(positives, key=lambda xt: (xt[0].a, xt[0].b))


# -- witness construction helpers --------------------------------------------


def _exact_cube_root(x: EisensteinInt) -> EisensteinInt:
    """The cube root of x in Z[w]; raises if x is not a cube."""
    root, rest = cube_split(x)
    if rest != Factorization(ONE, ()):
        raise ValueError(f"{x} is not a cube (cube class {rest})")
    return root


def _beta_witness(rep: EisensteinInt) -> Pair:
    """Explicit solution for targets in the cube class of beta.

    (-2·beta/3)³ + (-beta/3)³ = beta, so with c³ = rep/beta the pair
    (-2·beta·c/3, -beta·c/3) lands on the curve; for 9 itself this gives
    the classical (2, 1).
    """
    c = _exact_cube_root(rep / BETA)
    x = KElement(-2 * BETA * c, 3)
    y = KElement(-BETA * c, 3)
    assert x**3 + y**3 == KElement(rep)
    return x, y


def _trivial_axis_pairs(rep: EisensteinInt) -> tuple[Pair, ...]:
    """The six axis solutions of x³ + y³ = rep when rep is a cube."""
    g = _exact_cube_root(rep)
    zero = KElement(0)
    pairs: list[Pair] = []
    for zeta in (ONE, W, V):
        pairs.append((KElement(g * zeta), zero))
    for zeta in (ONE, W, V):
        pairs.append((zero, KElement(g * zeta)))
    return tuple(pairs)


def _trivial_diagonal_pairs(rep: EisensteinInt) -> tuple[Pair, ...]:
    """The nine solutions with x³ = y³ = rep/2 when rep is twice a cube."""
    g = _exact_cube_root(rep / EisensteinInt(2, 0))
    return tuple(
        (KElement(g * z1), KElement(g * z2))
        for z1 in (ONE, W, V)
        for z2 in (ONE, W, V)
    )


# -- the classifier -----------------------------------------------------------


def classify(
    m: "EisensteinInt | KElement | int",
    scope: str = "K",
    budget: SearchBudget | None = SearchBudget(),
) -> Verdict:
    """Theorem-cited verdict on x³ + y³ = m over the requested scope.

    scope "Q" restricts to rational solutions (and requires a rational
    target); every non-existence theorem is stated over K, hence applies
    to Q directly.  budget=None disables the witness searches, leaving
    theorem-undecided targets at Unknown.
    """
    if scope not in ("Q", "K"):
        raise ValueError("scope must be 'Q' or 'K'")
    denominator = m.den if isinstance(m, KElement) else 1
    m_int = _integral_target(m)
    if scope == "Q" and not m_int.is_rational():
        raise ValueError("scope Q requires a rational target")

    rep, transport = _orient(m_int)
    canon_rep = canonicalize(rep)
    rule = match_rule(canon_rep)
    verdict = _HANDLERS[rule](_Case(rep, canon_rep, _analyse(canon_rep), scope, budget))

    # transport witnesses back to the original target and clear the
    # fractional rescale (solutions of n·d² are d times those of n/d)
    canonical = canonicalize(m)
    witness = verdict.witness
    trivial = verdict.trivial_solutions
    if witness is not None:
        witness = _rescale(transport(witness), denominator)
        _verify_pair(witness, m)
    if trivial is not None:
        mapped = tuple(_rescale(transport(p), denominator) for p in trivial)
        if scope == "Q":
            mapped = tuple(
                p for p in mapped if p[0].is_rational() and p[1].is_rational()
            )
        for p in mapped:
            _verify_pair(p, m)
        trivial = mapped
    return Verdict(
        verdict.status,
        verdict.rule,
        verdict.reason,
        canonical,
        scope,
        witness,
        trivial,
        verdict.citation,
    )


def _rescale(pair: Pair, denominator: int) -> Pair:
    if denominator == 1:
        return pair
    d = KElement(denominator)
    return (pair[0] / d, pair[1] / d)


def _verify_pair(pair: Pair, m) -> None:
    target = m if isinstance(m, KElement) else KElement(m)
    if pair[0] ** 3 + pair[1] ** 3 != target:
        raise ArithmeticError(f"witness ({pair[0]}, {pair[1]}) does not sum to {target}")


def _searched_unknown(
    rep: EisensteinInt,
    canon: CanonicalM,
    scope: str,
    budget: SearchBudget | None,
    reason: str,
    prefer_relation: bool = False,
    prefer_lucas: bool = False,
) -> Verdict:
    """Unknown verdict, upgraded to HasSolutions when a bounded search hits.

    Search order: the rule-specific construction first (relation search for
    the twisted-irreducible cases, Lucas triples for the 3p cases), then
    rational divisor search and Lucas triples for rational targets, then
    the coordinate-box and relation searches over K.  The reported witness
    is the first hit; within one search, hits are ordered by denominator
    then descending numerators, so the result is deterministic.
    """
    if budget is not None:
        preferred = [_try_lucas] * prefer_lucas + [_try_relation] * prefer_relation
        rational, over_k = rep.is_rational(), scope == "K"
        applies = {_try_lucas: rational, _try_rational: rational,
                   _try_box: over_k, _try_relation: over_k}
        ordered = preferred + [_try_rational, _try_lucas, _try_box, _try_relation]
        for attempt in dict.fromkeys(a for a in ordered if applies[a]):
            hit = attempt(rep, budget)
            if hit is not None:
                rule, witness = hit
                return Verdict(
                    "HasSolutions",
                    rule,
                    reason + "; witness found by bounded search",
                    canon,
                    scope,
                    witness=witness,
                )
    return Verdict("Unknown", "none", reason, canon, scope)


def _try_rational(rep: EisensteinInt, budget: SearchBudget) -> tuple[str, Pair] | None:
    hits = search_rational(rep.a, budget.denom)
    if hits:
        return "rational-search", hits[0]
    return None


def _try_lucas(rep: EisensteinInt, budget: SearchBudget) -> tuple[str, Pair] | None:
    # the Lucas scan has its own fixed bound, not a budget field
    pair = lucas_triple_search(rep.a, LUCAS_SEARCH_BOUND)
    if pair is not None:
        return "Lucas-construction", lucas_witness(pair[0], pair[1], rep.a)
    return None


def _try_box(rep: EisensteinInt, budget: SearchBudget) -> tuple[str, Pair] | None:
    hits = search_eisenstein(rep, budget.coord, budget.denom, stop_at_first_denominator=True)
    if hits:
        return "eisenstein-search", hits[0]
    return None


def _try_relation(rep: EisensteinInt, budget: SearchBudget) -> tuple[str, Pair] | None:
    rel = relation_search(rep, budget.relation)
    if rel is not None:
        r, s, t = rel
        return "relation-construction", solution_from_relation(r, s, t, rep)
    return None
