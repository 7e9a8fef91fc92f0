"""Prime splitting and unique factorization in Z[w].

A rational prime p behaves in one of three ways:

  * p = 3 ramifies:  3 = (-1)·beta²  with beta = 1 + 2w;
  * p = 2 mod 3 stays inert (p itself is irreducible, O/p has p² elements);
  * p = 1 mod 3 splits as pi·conj(pi) with non-associate factors, and
    O/pi is the field with p elements.

The prime above a split p is gcd(p, w - c) for a cube root of unity c mod p,
found by the Euclidean algorithm of Z[w].  factor() reduces everything to
rational integer factoring: factor the norm over Z, by trial division and
Pollard rho (Brent's variant), then divide x by each irreducible above
each prime of the norm as often as it goes (valuation).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt

from .eisenstein import (
    BETA,
    EisensteinInt,
    ONE,
    V,
    W,
    _exact_quotient,
    eis_gcd,
    format_eisenstein,
    is_primary,
    valuation,
)

# The first thirteen primes: trial divisors, then Miller-Rabin witnesses,
# exact below ψ₁₃ = 3317044064679887385961981 ≈ 3.3·10²⁴ (the bases up to 37
# fail at ψ₁₂ ≈ 3.2·10²³), far beyond anything this library factors; from
# ψ₁₃ on, which passes all thirteen, the strong Lucas test joins them (BPSW).
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0, by quadratic reciprocity."""
    a %= n
    j = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                j = -j
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            j = -j
        a %= n
    return j if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of odd n > 1 (Baillie-Wagstaff 1980).

    Selfridge's parameters: the first D in 5, -7, 9, -11, ... with
    (D/n) = -1, P = 1, Q = (1 - D)/4 (a square n has no such D).  With
    n + 1 = d·2^s, n passes when U_d = 0 or V_(d·2^r) = 0 for some r < s,
    for the Lucas sequences U, V of (P, Q) mod n.
    """
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return abs(D) == n
        D = -D - 2 if D > 0 else 2 - D
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    U, V, Qk = 1, 1, Q % n  # U_1, V_1 and Q^1 for P = 1
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = (U + V) % n, (D * U + V) % n  # twice U_(k+1), V_(k+1)
            U = (U + n * (U % 2)) // 2
            V = (V + n * (V % 2)) // 2
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Primality test: deterministic Miller-Rabin below ψ₁₃, where its
    thirteen bases are proven exact, and BPSW (Miller-Rabin to base 2 among
    them, then the strong Lucas test) from ψ₁₃ on; no BPSW pseudoprime is
    known."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _PSI_13 or _strong_lucas(n)


# factor_int's trial divisors: the 168 primes below 1000.
_TRIAL_PRIMES = tuple(p for p in range(2, 1000) if is_prime(p))

# Steps of Brent's rho whose differences share one gcd.
_RHO_BATCH = 128


def _pollard_rho(n: int) -> int:
    """One factor d of composite odd n with 1 < d < n; deterministic
    parameters.

    Brent's variant: y walks y -> y² + c while x holds y's value at the
    last power of two, so the walk's cycle shows as gcd(x - y, n) > 1.
    The differences are multiplied together mod n and share one gcd per
    batch of _RHO_BATCH steps; a batch whose gcd is n is replayed one step
    at a time from its start, and a replay that still meets n tries the
    next c.
    """
    for c in range(1, 50):
        y, r, q, d = 2, 1, 1, 1
        while d == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and d == 1:
                start = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                d = gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if d == n:
            d = 1
            while d == 1:
                start = (start * start + c) % n
                d = gcd(x - start, n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed on {n}")  # unreachable at desk scale


def factor_int(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}; n must be nonzero.

    Trial division by the primes below 1000, then Pollard rho (Brent's
    variant), which takes about √q steps to split off a prime q: the limit
    is the second-largest prime factor, not the size of n.  Two 13-digit
    primes, (10¹²+39)·(2·10¹²+3), take 0.45 s (2-core x86-64); two
    16-digit ones, or a repeated large prime, do not finish; factor meets
    the latter for rational x, as N(x) = x²: (10⁴⁰+1)² stalls.
    """
    if n == 0:
        raise ValueError("cannot factor zero")
    n = abs(n)
    out: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
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
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return dict(sorted(out.items()))


@dataclass(frozen=True)
class PrimeClass:
    """How a rational prime sits in Z[w].

    tag is one of "ramified" (p = 3), "inert" (p = 2 mod 3) or "split"
    (p = 1 mod 3).  For split primes, pi and pi_bar are the two distinguished
    non-associate irreducible factors, each primary (= 1 mod 3), with
    N(pi) = N(pi_bar) = p and pi the one with positive w-coordinate.
    """

    p: int
    tag: str
    pi: EisensteinInt | None = None
    pi_bar: EisensteinInt | None = None


@lru_cache(maxsize=4096)
def split_prime(p: int) -> tuple[EisensteinInt, EisensteinInt]:
    """The distinguished factor pair (pi, pi_bar) of a split prime p.

    c = g^((p-1)/3) mod p is a primitive cube root of unity for the first
    g = 2, 3, ... that makes it differ from 1.  N(w - c) = c² + c + 1 is
    divisible by p, so p and w - c share exactly the prime above p on which
    w = c mod it: pi = gcd(p, w - c), by the Euclidean algorithm of Z[w],
    which returns its distinguished (primary) associate.  The pair is pi and
    its conjugate, again primary, ordered so that pi has positive
    w-coordinate.  The result is cached (at most 4096 primes); the cache is
    a pure memo and safe under concurrent use.
    """
    if p % 3 != 1 or not is_prime(p):
        raise ValueError(f"{p} is not a split prime")
    e = (p - 1) // 3
    g = 2
    while (c := pow(g, e, p)) == 1:
        g += 1
    pi = eis_gcd(EisensteinInt(p, 0), EisensteinInt(-c, 1))
    if pi.norm() != p:
        raise ArithmeticError(f"{pi} does not have norm {p}")
    pi_conj = pi.conj()
    if pi.b < 0:
        pi, pi_conj = pi_conj, pi
    if not (pi.b > 0 and is_primary(pi) and is_primary(pi_conj)):
        raise ArithmeticError(f"split factors {pi}, {pi_conj} are not primary with pi.b > 0")
    return pi, pi_conj


def _above(p: int) -> tuple[str, tuple[EisensteinInt, ...]]:
    """How the rational prime p sits in Z[w]: its tag and the distinguished
    irreducibles above it (beta for 3, p itself when inert, the split pair)."""
    if p == 3:
        return "ramified", (BETA,)
    if p % 3 == 2:
        return "inert", (EisensteinInt(p, 0),)
    return "split", split_prime(p)


def classify_rational_prime(p: int) -> PrimeClass:
    """Ramified / inert / split classification of a rational prime."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    tag, irrs = _above(p)
    return PrimeClass(p, tag, *irrs) if tag == "split" else PrimeClass(p, tag)


def _factor_order(entry: tuple[EisensteinInt, int]) -> tuple[int, int, int]:
    """Factorization's order of (irreducible, exponent) entries: (norm, a, b)."""
    return entry[0].norm(), entry[0].a, entry[0].b


@dataclass(frozen=True)
class Factorization:
    """unit · product of powers of distinguished irreducibles.

    Factors are sorted by (norm, a, b) and no two entries are associates;
    value() reconstructs the original element exactly.
    """

    unit: EisensteinInt
    factors: tuple[tuple[EisensteinInt, int], ...]

    def value(self) -> EisensteinInt:
        out = self.unit
        for irr, e in self.factors:
            out = out * irr**e
        return out

    def __str__(self) -> str:
        parts = [format_eisenstein(self.unit)]
        for irr, e in self.factors:
            term = format_eisenstein(irr)
            if irr.a != 0 and irr.b != 0:
                term = f"({term})"
            parts.append(f"{term}^{e}" if e > 1 else term)
        return " * ".join(parts)

    def to_json(self) -> str:
        return json.dumps(
            {
                "unit": format_eisenstein(self.unit),
                "factors": [
                    {"irr": format_eisenstein(irr), "exp": e} for irr, e in self.factors
                ],
            }
        )


def factor(x: EisensteinInt) -> Factorization:
    """Canonical factorization of a nonzero element of Z[w].

    Method: factor N(x) over Z; the exponent k of each prime p of the norm
    fixes the powers above p: beta^k, p^(k/2) for inert p, pi^j·pi_bar^(k-j)
    for split p with j by valuation.  Each power leaves x by one checked
    exact quotient; the unit left over is recorded.
    """
    if x.is_zero():
        raise ValueError("cannot factor zero")
    factors: list[tuple[EisensteinInt, int]] = []
    rest = x
    for p, k in factor_int(x.norm()).items():
        tag, irrs = _above(p)
        j, rest = valuation(rest, irrs[0]) if tag == "split" else (0, rest)
        k = k // 2 if tag == "inert" else k - j  # N(p) = p², N(beta) = 3, N(pi) = p
        if (rest := _exact_quotient(rest, irrs[-1] ** k)) is None:
            raise ArithmeticError(f"{irrs[-1]}^{k} does not divide the cofactor of {x}")
        factors += [(irr, e) for irr, e in ((irrs[0], j), (irrs[-1], k)) if e]
    if not rest.is_unit():
        raise ArithmeticError(f"leftover {rest} is not a unit")
    factors.sort(key=_factor_order)
    f = Factorization(rest, tuple(factors))
    if f.value() != x:
        raise ArithmeticError(f"factorization {f} does not multiply back to {x}")
    return f


def split_cubes(f: Factorization) -> tuple[EisensteinInt, Factorization]:
    """(root, rest) with f.value() = root³ · rest.value(), rest the cube class:
    its unit in {1, w, v} (-1 is a cube, so a sign moves into the root), its
    exponents 1 or 2, and Factorization(1, ()) exactly for a cube of Z[w]."""
    root = ONE
    for irr, e in f.factors:
        if e >= 3:
            root = root * irr ** (e // 3)
    unit = f.unit
    if unit in (-ONE, -W, -V):
        unit, root = -unit, -root
    return root, Factorization(unit, tuple((irr, e % 3) for irr, e in f.factors if e % 3))


def residue_split(x: EisensteinInt, pi: EisensteinInt) -> int:
    """Image of x in the residue field O/pi identified with Z/p, p = N(pi).

    For pi = a + b·w the identification sends w to c = -a·b⁻¹ mod p, the
    root of z² + z + 1 carried by pi.  Ring homomorphism: addition and
    multiplication commute with reduction.
    """
    p = pi.norm()
    # 0 and the units have norm <= 1; else b² <= 4p/3 < p², so p | b means b = 0
    if p <= 1 or pi.b % p == 0:
        raise ValueError(f"{pi} is not a split irreducible (norm {p})")
    c = (-pi.a * pow(pi.b, -1, p)) % p
    return (x.a + x.b * c) % p


def _cubic_char(x: EisensteinInt | int, pi: EisensteinInt) -> int:
    """The cubic residue character of x mod a split irreducible pi: the k in
    {0, 1, 2} with x^((p-1)/3) = w^k mod pi, where p = N(pi) is prime.

    Both sides are read in Z/p through residue_split, where w is c.  The
    caller has validated p (split_prime does); a power that is not 1, c or
    c² means pi is not irreducible of prime norm, and raises.
    ValueError for x = 0 mod pi.
    """
    p = pi.norm()
    r = residue_split(EisensteinInt(x) if isinstance(x, int) else x, pi)
    if r == 0:
        raise ValueError("zero residue")
    c = residue_split(W, pi)
    roots = (1, c, c * c % p)
    e = pow(r, (p - 1) // 3, p)
    if e not in roots:
        raise ArithmeticError(f"{x}^((p-1)/3) mod {pi} is not a cube root of unity")
    return roots.index(e)


def is_cube_mod_p(x: int, p: int) -> bool:
    """Whether x is a cube in (Z/p)*, for a prime p = 1 mod 3: x^((p-1)/3) = 1."""
    if p % 3 != 1:
        raise ValueError("p must be 1 mod 3 (otherwise every residue is a cube)")
    try:
        pi, _ = split_prime(p)
    except ValueError:
        raise ValueError("p must be prime (Euler's criterion needs a cyclic (Z/p)*)") from None
    return _cubic_char(x, pi) == 0
