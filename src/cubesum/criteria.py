"""Arithmetic predicates on primes p = 1 mod 3: condition (I) and the
Exceptional A / Exceptional B conditions.

Write p = pi·conj(pi) with pi = 1 mod 3 primary.

  condition (I):   conj(pi) is a cube in the multiplicative group of O/pi.
                   By cubic reciprocity (Eisenstein/Gauss) this in fact
                   holds for every split p; the library checks it instance
                   by instance rather than assuming it.

  Exceptional A:   some associate of pi is congruent to a rational integer
                   mod 9; equivalently 4p = x² + 243·y² is solvable.

  Exceptional B:   3 is a cube mod p, i.e. 3^((p-1)/3) = 1 mod p.

A and B are equivalent (again cubic reciprocity).  Each predicate is computed
once, from its definition: condition (I) and Exceptional B through the cubic
residue character mod pi, Exceptional A from pi's w-coordinate mod 9, with
its witness read off in closed form and re-checked exactly.  The independent
second paths (the a + b trace shortcut, the 4p = x² + 243y² scan) and cubic
reciprocity itself are oracles in tests/test_criteria.py.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .eisenstein import EisensteinInt, format_eisenstein
from .factorization import _cubic_char, classify_rational_prime, is_prime, split_prime


def condition_I(p: int) -> bool:
    """Whether conj(pi) is a cube in (O/pi)*: its cubic character mod pi is 1."""
    pi, pi_bar = split_prime(p)  # ValueError unless p is a split prime
    return _cubic_char(pi_bar, pi) == 0


def exceptional_A(p: int) -> tuple[bool, tuple[int, int] | None]:
    """Exceptional A test with witness: (True, (x, y)) when 4p = x² + 243y².

    By definition some associate zeta·pi = a + b·w has 9 | b.  The primary
    pi has 3 | b, while ±w·pi and ±v·pi have b = ±1 mod 3, so only ±pi
    can: the test is 9 | pi.b.  The witness is read off pi: 4·N(a + b·w) =
    (2a - b)² + 3b², so x = |2a - b| and y = |b|/9.  The witness equation
    is re-checked exactly (ArithmeticError otherwise, also under python -O).
    """
    pi, _ = split_prime(p)  # ValueError unless p is a split prime
    if pi.b % 9:
        return False, None
    x, y = abs(2 * pi.a - pi.b), abs(pi.b) // 9
    if x * x + 243 * y * y != 4 * p:
        raise ArithmeticError(f"Exceptional A witness ({x}, {y}) fails 4·{p} = x² + 243y²")
    return True, (x, y)


def exceptional_B(p: int) -> bool:
    """Whether 3 is a cube mod p: its cubic character mod pi is 1."""
    pi, _ = split_prime(p)  # ValueError unless p is a split prime
    return _cubic_char(3, pi) == 0


@dataclass(frozen=True)
class PrimeReport:
    """Everything the classifier wants to know about one rational prime."""

    p: int
    mod9: int
    tag: str
    condition_I: bool | None = None
    exceptional_A: bool | None = None
    exceptional_A_witness: tuple[int, int] | None = None
    exceptional_B: bool | None = None
    pi: EisensteinInt | None = None

    def to_json(self) -> str:
        doc: dict = {"p": self.p, "mod9": self.mod9}
        if self.pi is not None:
            doc["conditionI"] = self.condition_I
            doc["excA"] = self.exceptional_A
            doc["excA_witness"] = list(self.exceptional_A_witness) if self.exceptional_A_witness else None
            doc["excB"] = self.exceptional_B
            doc["pi"] = format_eisenstein(self.pi)
        return json.dumps(doc)


def prime_report(p: int) -> PrimeReport:
    """Aggregate report; split-only fields stay absent for p != 1 mod 3."""
    cls = classify_rational_prime(p)
    if cls.tag != "split":
        return PrimeReport(p, p % 9, cls.tag)
    exc_a, witness = exceptional_A(p)
    return PrimeReport(
        p,
        p % 9,
        "split",
        condition_I=condition_I(p),
        exceptional_A=exc_a,
        exceptional_A_witness=witness,
        exceptional_B=exceptional_B(p),
        pi=cls.pi,
    )


# -- table generators -----------------------------------------------------


def split_primes_upto(bound: int) -> list[int]:
    return [p for p in range(2, bound + 1) if p % 3 == 1 and is_prime(p)]


def condition_I_table(max_p: int) -> list[dict]:
    """Rows (p, a, b, a+b, cube?) for split p <= max_p, on the {w, v} basis."""
    rows = []
    for p in split_primes_upto(max_p):
        pi, _ = split_prime(p)
        a, b = pi.to_uv()
        rows.append(
            {"p": p, "a": a, "b": b, "a+b": a + b, "cube": condition_I(p)}
        )
    return rows


def exceptional_A_set(max_p: int) -> list[int]:
    return [p for p in split_primes_upto(max_p) if exceptional_A(p)[0]]


def exceptional_B_set(max_p: int) -> list[int]:
    return [p for p in split_primes_upto(max_p) if exceptional_B(p)]


def first_exceptional_A_1mod9(count: int = 5) -> list[int]:
    """The first `count` primes p = 1 mod 9 that are Exceptional A."""
    out: list[int] = []
    p = 2
    while len(out) < count:
        p += 1
        if p % 9 == 1 and is_prime(p) and exceptional_A(p)[0]:
            out.append(p)
    return out
