"""Arithmetic predicates on primes p = 1 mod 3: condition (I) and the
Exceptional A / Exceptional B conditions.

Write p = pi·conj(pi) with pi = 1 mod 3 primary.

  condition (I):   conj(pi) is a cube in the multiplicative group of O/pi.
                   Equivalently (writing pi = a·w + b·v) a + b is a cube in
                   (Z/p)*.  By cubic reciprocity (Eisenstein/Gauss) this in
                   fact holds for every split p; the library checks it
                   instance by instance rather than assuming it.

  Exceptional A:   some irreducible factor of p is congruent to a rational
                   integer mod 9; equivalently 4p = x² + 243·y² is solvable.

  Exceptional B:   3 is a cube mod p, i.e. 3^((p-1)/3) = 1 mod p.

A and B are equivalent (again cubic reciprocity); every predicate here is
computed along two independent paths, and a disagreement raises
ArithmeticError (also under python -O), so a normalization bug shows up as
a crash, never as a wrong table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import isqrt

from .eisenstein import UNITS, EisensteinInt, format_eisenstein
from .factorization import (
    _euler_cube,
    classify_rational_prime,
    is_prime,
    residue_split,
    split_prime,
)


def condition_I(p: int) -> bool:
    """Whether conj(pi) is a cube in (O/pi)*; computed two ways.

    Path one reduces conj(pi) into Z/p through the residue-field
    identification; path two applies the trace shortcut a + b.  The two
    must agree (ArithmeticError otherwise).
    """
    pi, pi_bar = split_prime(p)  # ValueError unless p is a split prime
    via_residue = _euler_cube(residue_split(pi_bar, pi, p), p)
    a, b = pi.to_uv()
    via_trace = _euler_cube((a + b) % p, p)
    if via_residue != via_trace:
        raise ArithmeticError(f"condition (I) paths disagree at p={p}")
    return via_residue


def exceptional_A(p: int) -> tuple[bool, tuple[int, int] | None]:
    """Exceptional A test with witness: (True, (x, y)) when 4p = x² + 243y².

    Path one scans all six associates of pi for congruence to a rational
    integer mod 9 (then cross-checks the primary-form shortcut: 9 | a - b
    for the primary factor written as a·w + b·v; split_prime raises unless
    pi is primary).  Path two searches the
    quadratic form 4p = x² + 243y² exhaustively.  The paths must agree
    (ArithmeticError otherwise).
    """
    pi, _ = split_prime(p)
    via_mod9 = any((zeta * pi).b % 9 == 0 for zeta in UNITS)
    a, b = pi.to_uv()
    if via_mod9 != ((a - b) % 9 == 0):
        raise ArithmeticError(f"mod-9 associate scan disagrees at p={p}")

    witness = None
    y = 1
    while 243 * y * y <= 4 * p:
        r = 4 * p - 243 * y * y
        s = isqrt(r)
        if s * s == r:
            witness = (s, y)
            break
        y += 1
    if via_mod9 != (witness is not None):
        raise ArithmeticError(f"Exceptional A paths disagree at p={p}")
    return via_mod9, witness


def exceptional_B(p: int) -> bool:
    """Whether 3 is a cube mod p."""
    split_prime(p)  # ValueError unless p is a split prime
    return _euler_cube(3, p)


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
