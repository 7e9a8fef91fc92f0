"""Decide solvability of x³ + y³ = M over Q or K = Q(w), with citations.

Solvability depends on M only up to nonzero cube factors (-1 is a cube),
so M is reduced to a canonical form, a unit in {1, w, v} times exponents
1 or 2, read off one factorization of its oriented representative; the
input's own form follows from it by conjugation.  Each rule is a row of a
fixed table keyed by the shape of that form: its kind (unit, beta, beta²,
p, beta·p, pi, pair, 3·pair or other), n mod 9 for n = p or N(pi), and
whether its unit is 1; a test shows that exactly one row matches each key
of this finite space.  Each verdict carries the tag of the deciding theorem:

  1.3  inert p = 2, 5 mod 9 (Pépin/Sylvester/Lucas; Euler/Legendre for 2, 4)
  1.4  split irreducible of norm = 4, 7 mod 9
  1.5  FLT(3), Kummer: cube targets have only the trivial solutions
  1.6  the units w, v are not sums of two cubes
  1.7  associates of beta and beta² other than ±beta
  2.1  beta·p and beta·p² for inert p = 2, 5 mod 9
  2.2  u·p and u·p² for split p = 4, 7 mod 9 (under condition (I))
  2.3  3p and 3p² for split p, given (I) and not Exceptional A/B
  2.4  primary pi and pi² of norm = 1 mod 9 when p is not Exceptional A

Where no theorem decides, the verdict is Unknown, and bounded searches
try to upgrade it to HasSolutions.  Each case builds one plan: the
rational divisor search and the Lucas scan for a rational target, then
the box and relation searches for scope K.  The rule's own construction
(the Lucas scan for three-p, the relation search for both split-1mod9
rows) leads the plan if the plan holds it; the first hit ends it and
nothing runs twice.  Hits within one search are ordered by denominator,
so the witness is deterministic.  Every witness and every trivial pair
is re-verified exactly against the original target by check_solution.
Existence results imported from the literature (Elkies, Dasgupta-Voight,
Kriz) are reported as LiteratureSolvable and never claim a witness.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
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
    format_eisenstein,
    format_k,
)
from .factorization import Factorization, _factor_order, factor, split_cubes
from .search import (
    SearchBudget,
    check_solution,
    relation_search,
    search_eisenstein,
    search_rational,
)

LUCAS_SEARCH_BOUND = 100  # integer triple scan radius for the 3p construction

Pair = tuple[KElement, KElement]
Hit = tuple[str, Pair]  # a search's rule tag and witness

# M up to cube factors: the rest of split_cubes, with unit in {1, w, v} and
# exponents 1 or 2.  M and its canonical value differ by a nonzero cube of K
# times ±1, so solvability over K (and over Q, for the theorem-backed
# verdicts) is a property of this form alone.  Canonicalisation is idempotent.
CanonicalM = Factorization


def canonicalize(m: "EisensteinInt | KElement | int") -> CanonicalM:
    """Cube-class reduction of a nonzero target.

    A fractional target n/d is lifted to n·d² (the same cube class), whose
    cube class is the canonical form.
    """
    return split_cubes(factor(_integral_target(m)))[1]


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


# -- the shape of a canonical form -------------------------------------------


def _shape(canon: CanonicalM) -> tuple[str, int, int]:
    """(kind, n, e): the shape of the canonical form up to its unit.

    kind is unit, beta, beta², p (an inert prime), beta·p, pi (a split
    irreducible), pair (pi^e·conj(pi)^e, the rational split prime p = N(pi)),
    3·pair (beta²·pi^e·conj(pi)^e, which is 3p^e up to a unit) or other.
    n is p or N(pi), e its exponent; both are 1 where the kind has neither.
    The conjugate of a primary pi is primary, so a pair is exactly the
    factors ((pi, e), (conj(pi), e)).
    """
    fs = canon.factors
    beta = fs[0][1] if fs and fs[0][0] == BETA else 0
    fs = fs[1:] if beta else fs
    if not fs:
        return ("unit", "beta", "beta²")[beta], 1, 1
    (pi, e), rest = fs[0], fs[1:]
    if not rest and pi.is_rational():
        return ("p", "beta·p", "other")[beta], pi.a, e
    if not rest:
        return ("pi" if beta == 0 else "other"), pi.norm(), e
    if rest == ((pi.conj(), e),):
        return ("pair", "other", "3·pair")[beta], pi.norm(), e
    return "other", 1, 1


# -- the ordered rule table --------------------------------------------------


@dataclass(frozen=True)
class _Case:
    """What a rule handler decides on: the oriented target, the root g with
    rep = g³·canon.value(), its form, n and e."""

    rep: EisensteinInt
    root: EisensteinInt
    canon: CanonicalM
    n: int
    e: int
    scope: str
    budget: SearchBudget | None

    def verdict(self, status: str, tag: str, reason: str, **data) -> Verdict:
        return Verdict(status, tag, reason, self.canon, self.scope, **data)

    def search(self, reason: str, first: Callable[[_Case], Hit | None] | None = None) -> Verdict:
        """Unknown with this reason, upgraded to HasSolutions by the first
        hit of the plan in the module docstring, built here from the case;
        first, the rule's own construction, leads the plan if it is in it."""
        if self.budget is not None:
            plan = ((_try_rational, _try_lucas) if self.rep.is_rational() else ()) + (
                (_try_box, _try_relation) if self.scope == "K" else ())
            for attempt in dict.fromkeys(a for a in (first, *plan) if a in plan):
                hit = attempt(self)
                if hit is not None:
                    rule, witness = hit
                    return self.verdict("HasSolutions", rule,
                                        reason + "; witness found by bounded search",
                                        witness=witness)
        return self.verdict("Unknown", "none", reason)


def _beta_blocked(c: _Case) -> Verdict:
    return c.verdict(
        "NoSolutions", "Theorem 1.7",
        "an associate of beta or beta² other than ±beta is not a sum of two cubes")


def _inert_25(c: _Case) -> Verdict:
    p, e = c.n, c.e
    if p == 2 and e == 1 and c.canon.unit == ONE:
        return c.verdict(
            "OnlyTrivial", "Theorem 1.3",
            "targets in the cube class of 2 admit only the solutions with x³ = y³",
            trivial_solutions=_trivial_diagonal_pairs(c),
        )
    return c.verdict(
        "NoSolutions", "Theorem 1.3",
        f"associate of {p}^{e} with p = {p % 9} mod 9 (Pépin/Sylvester/Lucas class)",
    )


def _split_47(c: _Case) -> Verdict:
    return c.verdict(
        "NoSolutions", "Theorem 1.4",
        f"irreducible of norm {c.n} = {c.n % 9} mod 9 (all associates blocked)",
    )


def _split_primary(c: _Case) -> Verdict:
    n = c.n
    if not exceptional_A(n)[0]:
        return c.verdict(
            "NoSolutions", "Theorem 2.4",
            f"primary irreducible of norm {n} = 1 mod 9, {n} not Exceptional A",
        )
    return c.search(f"norm {n} is Exceptional A; no theorem applies", first=_try_relation)


def _rational_split_47(c: _Case) -> Verdict:
    return c.verdict(
        "LiteratureSolvable", "literature",
        f"p = {c.n} = {c.n % 9} mod 9: infinitely many rational representations "
        "of p and p² (Sylvester's conjecture, now established)",
        citation="Elkies (announced); Dasgupta-Voight (under conditions)",
    )


def _rational_split_47_twist(c: _Case) -> Verdict:
    p = c.n
    if not condition_I(p):  # cubic reciprocity says this cannot happen
        raise ArithmeticError(f"condition (I) fails at {p}; Theorem 2.2 does not apply")
    return c.verdict(
        "NoSolutions", "Theorem 2.2",
        f"u·{p} and u·{p}² are not sums of two cubes (condition (I) verified)",
    )


def _beta_inert_25(c: _Case) -> Verdict:
    p, e = c.n, c.e
    return c.verdict(
        "NoSolutions", "Theorem 2.1",
        f"beta·{p}^{e} with p = {p % 9} mod 9 (covers 9·{p}^{e} via 9 = beta·beta³)",
    )


def _three_p(c: _Case) -> Verdict:
    p, e = c.n, c.e
    if not condition_I(p):  # cubic reciprocity says this cannot happen
        raise ArithmeticError(f"condition (I) fails at {p}; Theorem 2.3 does not apply")
    exc_a, exc_b = exceptional_A(p)[0], exceptional_B(p)
    if not exc_a and not exc_b:
        return c.verdict(
            "NoSolutions", "Theorem 2.3",
            f"3·{p}^{e}: condition (I) holds and {p} is neither "
            "Exceptional A nor Exceptional B",
        )
    return c.search(
        f"3·{p}^{e} with {p} Exceptional (A={exc_a}, B={exc_b}); "
        "theorem blocked, trying the Lucas construction",
        first=_try_lucas,
    )


def _beta_inert_other(c: _Case) -> Verdict:
    return c.search(
        "beta times an inert prime outside the Theorem 2.1 pattern "
        "(unit twists of beta·p are not addressed by any theorem)")


def _no_theorem(c: _Case) -> Verdict:
    return c.search("no theorem covers this canonical form")


_ANY_N = range(9)
_UNIT_1, _TWISTED, _ANY_UNIT = (ONE,), (W, V), (ONE, W, V)

# One row per case of the decision procedure: (name, kind of the shape,
# allowed residues of n mod 9, allowed units of the canonical form,
# handler).  The handler returns the verdict citing the deciding theorem,
# or runs the bounded searches where no theorem decides.  A rule that
# covers two keys of different kinds or residues takes two rows.  Exactly
# one row matches each key that _shape and split_cubes can produce;
# tests/test_classifier.py checks that over the whole finite key space.
_RULES = (
    ("trivial-cube", "unit", _ANY_N, _UNIT_1,
     lambda c: c.verdict(
         "OnlyTrivial", "Corollary 2 to Theorem 1.5",
         "the target is a nonzero cube; only the axis solutions exist (FLT(3))",
         trivial_solutions=_trivial_axis_pairs(c))),
    ("unit-target", "unit", _ANY_N, _TWISTED,
     lambda c: c.verdict("NoSolutions", "Theorem 1.6",
                         "a unit other than ±1 is not a sum of two cubes in K")),
    ("beta-solvable", "beta", _ANY_N, _UNIT_1,
     lambda c: c.verdict(
         "HasSolutions", "beta-construction",
         "targets in the cube class of beta are sums of two cubes "
         "(x³ + y³ = 9 has infinitely many rational solutions)",
         witness=_beta_witness(c))),
    ("beta-blocked", "beta", _ANY_N, _TWISTED, _beta_blocked),
    ("beta-blocked", "beta²", _ANY_N, _ANY_UNIT, _beta_blocked),
    ("inert-25", "p", (2, 5), _ANY_UNIT, _inert_25),
    ("inert-8", "p", (8,), _UNIT_1,
     lambda c: c.verdict(
         "LiteratureSolvable", "literature",
         f"p = {c.n} = 8 mod 9: infinitely many rational representations of p and p²",
         citation="Kriz (arXiv): Sylvester's conjecture for p = 8 mod 9")),
    ("inert-8-twist", "p", (8,), _TWISTED, _no_theorem),
    ("split-47", "pi", (4, 7), _ANY_UNIT, _split_47),
    ("split-1mod9-primary", "pi", (1,), _UNIT_1, _split_primary),
    ("split-1mod9-twist", "pi", (1,), _TWISTED,
     lambda c: c.search(
         f"unit twist of an irreducible of norm {c.n} = 1 mod 9; "
         "no theorem covers this form", first=_try_relation)),
    ("rational-split-47", "pair", (4, 7), _UNIT_1, _rational_split_47),
    ("rational-split-47-twist", "pair", (4, 7), _TWISTED, _rational_split_47_twist),
    ("rational-split-1mod9", "pair", (1,), _ANY_UNIT,
     lambda c: c.search(f"rational class of p = {c.n} = 1 mod 9: "
                        "known results are conjectural")),
    ("beta-inert-25", "beta·p", (2, 5), _UNIT_1, _beta_inert_25),
    ("beta-inert-other", "beta·p", (2, 5), _TWISTED, _beta_inert_other),
    ("beta-inert-other", "beta·p", (8,), _ANY_UNIT, _beta_inert_other),
    ("three-p", "3·pair", _ANY_N, _UNIT_1, _three_p),
    ("three-p-twist", "3·pair", _ANY_N, _TWISTED, _no_theorem),
    ("no-theorem", "other", _ANY_N, _ANY_UNIT, _no_theorem),
)


def _rule(kind: str, n: int, unit: EisensteinInt) -> tuple:
    """The first row of _RULES matching the key (kind, n mod 9, unit)."""
    return next(row for row in _RULES if row[1] == kind and n % 9 in row[2] and unit in row[3])


def match_rule(canon: CanonicalM) -> str:
    """Name of the rule whose row matches the canonical form."""
    return _rule(*_shape(canon)[:2], canon.unit)[0]


# -- orientation: sign and conjugation normalisation -------------------------


def _orient(m: EisensteinInt) -> tuple[EisensteinInt, tuple[int, bool]]:
    """Representative of {±m, ±conj(m)} and the (sign, conj) sending its
    solutions to solutions of m.

    The representative is the least member with (a, b) > (0, 0), so
    classify(-m) and classify(conj(m)) run the identical computation and
    differ only by the (exact) witness transport: conjugate the pair if
    conj, then multiply by sign.  Preference on ties: identity, negation,
    conjugation, both.
    """
    candidates = [(s * (m.conj() if conj else m), (s, conj))
                  for conj in (False, True) for s in (1, -1)]
    # min keeps the first of equal candidates, i.e. the earliest transform
    return min(((x, t) for x, t in candidates if (x.a, x.b) > (0, 0)),
               key=lambda xt: (xt[0].a, xt[0].b))


def _conj_class(canon: CanonicalM) -> CanonicalM:
    """The cube class of conj(x) from that of x: conjugation sends beta to
    -beta (-1 is a cube), an inert p to p, pi to pi_bar, and w to v."""
    factors = sorted(((irr if irr == BETA else irr.conj(), e) for irr, e in canon.factors),
                     key=_factor_order)
    return Factorization(canon.unit.conj(), tuple(factors))


# -- witness construction helpers --------------------------------------------


def _beta_witness(c: _Case) -> Pair:
    """Explicit solution for targets in the cube class of beta.

    (-2·beta/3)³ + (-beta/3)³ = beta, so with rep = g³·beta the pair
    (-2·beta·g/3, -beta·g/3) lands on the curve; for 9 itself this gives
    the classical (2, 1).
    """
    g = c.root
    return check_solution((KElement(-2 * BETA * g, 3), KElement(-BETA * g, 3)), c.rep,
                          "beta witness")


def _trivial_axis_pairs(c: _Case) -> tuple[Pair, ...]:
    """The six axis solutions of x³ + y³ = rep when rep = g³ is a cube."""
    zero = KElement(0)
    roots = [KElement(c.root * zeta) for zeta in (ONE, W, V)]
    return tuple((r, zero) for r in roots) + tuple((zero, r) for r in roots)


def _trivial_diagonal_pairs(c: _Case) -> tuple[Pair, ...]:
    """The nine solutions with x³ = y³ = g³ when rep = 2·g³."""
    g = c.root
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

    scope "Q" restricts to rational solutions (and requires a rational target);
    the theorems, stated over K, apply to Q directly.  Only the oriented target
    is factored, once, and m's form is transported from its form.  budget=None
    disables the witness searches, leaving theorem-undecided targets at Unknown.
    """
    if scope not in ("Q", "K"):
        raise ValueError("scope must be 'Q' or 'K'")
    denominator = m.den if isinstance(m, KElement) else 1
    m_int = _integral_target(m)
    if scope == "Q" and not m_int.is_rational():
        raise ValueError("scope Q requires a rational target")

    rep, (sign, conj) = _orient(m_int)
    root, canon_rep = split_cubes(factor(rep))
    kind, n, e = _shape(canon_rep)
    handler = _rule(kind, n, canon_rep.unit)[-1]
    verdict = handler(_Case(rep, root, canon_rep, n, e, scope, budget))

    def back(pair: Pair) -> Pair:
        """A solution for rep as one for m, checked: conjugation if conj,
        the sign, then division by the denominator (solutions of n·d² are
        d times those of n/d)."""
        x, y = (pair[0].conj(), pair[1].conj()) if conj else pair
        return check_solution((x * sign / denominator, y * sign / denominator), m, "witness")

    witness = verdict.witness
    if witness is not None:
        witness = back(witness)
    trivial = verdict.trivial_solutions
    if trivial is not None:
        trivial = tuple(p for p in map(back, trivial)
                        if scope == "K" or (p[0].is_rational() and p[1].is_rational()))
    canonical = _conj_class(canon_rep) if conj else canon_rep  # -1 is a cube
    return replace(verdict, canonical=canonical, witness=witness, trivial_solutions=trivial)


# -- the witness searches -----------------------------------------------------
# Each takes the case and returns its Hit, or None when it misses.  Where
# each applies is decided once, by the plan in _Case.search.


def _try_rational(c: _Case) -> Hit | None:
    hits = search_rational(c.rep.a, c.budget.denom)
    return ("rational-search", hits[0]) if hits else None


def _try_lucas(c: _Case) -> Hit | None:
    # the Lucas scan has its own fixed bound, not a budget field
    pair = lucas_triple_search(c.rep.a, LUCAS_SEARCH_BOUND)
    if pair is None:
        return None
    return "Lucas-construction", lucas_witness(pair[0], pair[1], c.rep.a)


def _try_box(c: _Case) -> Hit | None:
    hits = search_eisenstein(c.rep, c.budget.coord, c.budget.denom,
                             stop_at_first_denominator=True)
    return ("eisenstein-search", hits[0]) if hits else None


def _try_relation(c: _Case) -> Hit | None:
    rel = relation_search(c.rep, c.budget.relation)
    if rel is None:
        return None
    return "relation-construction", solution_from_relation(*rel, c.rep)
