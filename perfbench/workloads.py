"""Seeded op streams for the four workloads.

An op is one top-level call: one `classify` call, or one acceptance
criterion on verify-full.  The program only ever sees the generated
targets; the seed, the ordering and the expected verdicts stay here.

Why these workloads (each stresses layers the others bypass):

  grid-q          rational targets 1..1000 over Q with the default search
                  budget.  Table scanning: small norms, warm split_prime
                  memo, time in the rational divisor search and Lucas scan.
  grid-k          a + b*w with |a|, |b| <= 20 over K, default budget.  The
                  only workload that drives the Eisenstein box scan, the
                  relation search and cube_roots.
  theorems-large  six theorem-decided forms built on primes in [1e8, 1e9],
                  budget=None.  No search runs; the time is factoring huge
                  norms (Pollard rho, split_prime) with memo misses.
  verify-full     the ten acceptance criteria of `cubesum verify full`.
                  The only workload that reaches the descent step, the
                  exhaust scans and the criteria tables.

The grid workloads draw from a fixed universe.  Their per-target cost is
bimodal (theorem-decided targets take under 1 ms, searched ones up to
half a second), so a plain shuffle makes the op mix, and hence every
latency quantile, depend on the seed.  The order is therefore stratified:
each stratum (the status frozen for its targets in the reference) is
sorted by norm and visited in a golden-ratio low-discrepancy order, and the
strata are interleaved in proportion to their size.  Any prefix of the
stream is then close to a proportional sample of the universe, and seeds
differ only in which members of each stratum come first.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

import arith

WORKLOADS = ("grid-q", "grid-k", "theorems-large", "verify-full")

GRID_K_RADIUS = 20
GRID_Q_MAX = 1000
LARGE_LO, LARGE_HI = 10**8, 10**9
_PHI = (5**0.5 - 1) / 2


@dataclass(frozen=True)
class Op:
    """One top-level call.

    key      stable text id of the input (the reference is keyed by it)
    target   (a, b) for a + b*w, for classify ops
    scope    "Q" or "K"
    searched True for the default SearchBudget(), False for budget=None
    expected (status, rule) known from theory, for theorems-large ops
    criterion number of the acceptance criterion, for verify-full ops
    """

    key: str
    target: tuple[int, int] | None = None
    scope: str = "K"
    searched: bool = True
    expected: tuple[str, str] | None = None
    criterion: int | None = None


def target_key(a: int, b: int) -> str:
    return f"{a},{b}"


def grid_universe(name: str) -> list[tuple[int, int]]:
    if name == "grid-q":
        return [(m, 0) for m in range(1, GRID_Q_MAX + 1)]
    r = GRID_K_RADIUS
    return [(a, b) for a in range(-r, r + 1) for b in range(-r, r + 1) if (a, b) != (0, 0)]


def stratified_order(
    universe: list[tuple[int, int]], stratum: dict[str, str], rng: random.Random
) -> list[tuple[int, int]]:
    """One pass over the universe; any prefix is a near-proportional sample."""
    groups: dict[str, list[tuple[int, int]]] = {}
    for t in universe:
        groups.setdefault(stratum[target_key(*t)], []).append(t)
    keyed: list[tuple[float, tuple[int, int]]] = []
    for name in sorted(groups):
        members = sorted(groups[name], key=lambda t: (arith.norm(t), t))
        n = len(members)
        u, v = rng.random(), rng.random()
        ranks = sorted(range(n), key=lambda r: (_PHI * r + u) % 1.0)
        keyed.extend(((i + v) / n, members[r]) for i, r in enumerate(ranks))
    keyed.sort()
    return [t for _, t in keyed]


def grid_ops(name: str, seed: int, stratum: dict[str, str]) -> Iterator[Op]:
    rng = random.Random(f"{name}:{seed}")
    scope = "Q" if name == "grid-q" else "K"
    universe = grid_universe(name)
    while True:  # a fresh stratified pass each time the universe is used up
        for a, b in stratified_order(universe, stratum, rng):
            yield Op(target_key(a, b), (a, b), scope)


# -- theorems-large -------------------------------------------------------
#
# Each form fixes which theorem must decide the target, so the expected
# (status, rule) is known for every seed without running the program.


def _next_prime(n: int, ok) -> int:
    while not (arith.is_prime(n) and ok(n)):
        n += 1
    return n


def _not_cube_3(p: int) -> bool:
    """3 is not a cube mod p (p = 1 mod 3): p is not Exceptional B (= A)."""
    return pow(3, (p - 1) // 3, p) != 1


def _split_element(rng: random.Random, start: int, ok) -> tuple[int, int]:
    """a + b*w with prime norm p >= start and ok(p), via random (a, b)."""
    bound = int((4 * start / 3) ** 0.5)
    while True:
        b = rng.randint(1, bound)
        a = rng.randint(-bound, bound)
        p = arith.norm((a, b))
        if start <= p <= start * 1.05 and arith.is_prime(p) and ok(p):
            return a, b


def _primary(x: tuple[int, int]) -> tuple[int, int]:
    """The associate of x that is 1 mod 3 (a = 1 mod 3, b = 0 mod 3)."""
    return next(y for y in arith.associates(x) if y[0] % 3 == 1 and y[1] % 3 == 0)


def _large_form(form: int, start: int, rng: random.Random) -> tuple[tuple[int, int], tuple[str, str]]:
    if form == 0:  # 3p, p split and not Exceptional
        p = _next_prime(start, lambda p: p % 3 == 1 and _not_cube_3(p))
        return (3 * p, 0), ("NoSolutions", "Theorem 2.3")
    if form == 1:  # primary pi of norm 1 mod 9, not Exceptional A
        pi = _split_element(rng, start, lambda p: p % 9 == 1 and _not_cube_3(p))
        return _primary(pi), ("NoSolutions", "Theorem 2.4")
    if form == 2:  # w*p, p split and 4 or 7 mod 9
        p = _next_prime(start, lambda p: p % 9 in (4, 7))
        return (0, p), ("NoSolutions", "Theorem 2.2")
    if form == 3:  # inert q = 2 or 5 mod 9
        q = _next_prime(start, lambda q: q % 9 in (2, 5))
        return (q, 0), ("NoSolutions", "Theorem 1.3")
    if form == 4:  # beta*q, beta = 1 + 2w, q inert and 2 or 5 mod 9
        q = _next_prime(start, lambda q: q % 9 in (2, 5))
        return (q, 2 * q), ("NoSolutions", "Theorem 2.1")
    # any associate of pi with norm 4 or 7 mod 9
    pi = _split_element(rng, start, lambda p: p % 9 in (4, 7))
    return rng.choice(arith.associates(pi)), ("NoSolutions", "Theorem 1.4")


LARGE_FORMS = 6


def large_ops(seed: int) -> Iterator[Op]:
    """Round-robin over the six forms; prime sizes spread evenly over
    [1e8, 1e9] by a golden-ratio sequence, since factoring cost grows with
    the prime."""
    rng = random.Random(f"theorems-large:{seed}")
    offsets = [rng.random() for _ in range(LARGE_FORMS)]
    k = 0
    while True:
        for form in range(LARGE_FORMS):
            x = (_PHI * k + offsets[form]) % 1.0
            start = LARGE_LO + int(x * (LARGE_HI - LARGE_LO) * 0.95)
            target, expected = _large_form(form, start, rng)
            yield Op(target_key(*target), target, "K", False, expected)
        k += 1


def verify_pass(numbers: list[int]) -> list[Op]:
    """One pass over the criteria in the program's own order, as
    `cubesum verify full` runs them.  The criteria fix their own inputs, so
    the seed changes nothing here: a seeded order would let the memo that
    one criterion leaves for the next move the latencies between seeds."""
    return [Op(f"criterion-{n}", criterion=n) for n in numbers]
