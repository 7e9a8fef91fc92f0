"""Exact arithmetic in the ring of Eisenstein integers and its fraction field.

The ring O = Z[w] where w is a primitive cube root of unity (w² + w + 1 = 0).
Elements are stored on the integral basis {1, w}: the pair (a, b) denotes
a + b·w.  The other root of z² + z + 1 is v = w² = -1 - w, and the ramified
element is beta = w - v = 1 + 2w, with beta² = -3.

Everything here is exact integer arithmetic; there is no floating point.
All values are immutable and all operations are pure functions, so they may
be shared freely across threads.

Inputs written on the {w, v} basis convert via  a·w + b·v = -b + (a - b)·w;
output is always on the {1, w} basis.
"""

from __future__ import annotations

import re
from math import gcd
from typing import Iterator


class EisensteinInt:
    """An element a + b·w of Z[w], with arbitrary-precision coordinates.

    Multiplication uses w² = -1 - w:
        (a1 + b1·w)(a2 + b2·w) = (a1·a2 - b1·b2) + (a1·b2 + a2·b1 - b1·b2)·w

    The norm N(a + b·w) = a² - ab + b² is multiplicative and non-negative,
    vanishing only at 0.
    """

    __slots__ = ("a", "b")

    a: int
    b: int

    def __init__(self, a: int = 0, b: int = 0) -> None:
        self.a = a
        self.b = b

    @classmethod
    def from_uv(cls, a: int, b: int) -> "EisensteinInt":
        """Build a·w + b·v from {w, v}-basis coordinates."""
        return cls(-b, a - b)

    def to_uv(self) -> tuple[int, int]:
        """Coordinates (a, b) such that self = a·w + b·v."""
        return (self.b - self.a, -self.a)

    # -- ring structure -------------------------------------------------

    def __add__(self, other: "EisensteinInt | int") -> "EisensteinInt":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return EisensteinInt(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other: "EisensteinInt | int") -> "EisensteinInt":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return EisensteinInt(self.a - other.a, self.b - other.b)

    def __rsub__(self, other: int) -> "EisensteinInt":
        return _coerce(other).__sub__(self)

    def __neg__(self) -> "EisensteinInt":
        return EisensteinInt(-self.a, -self.b)

    def __mul__(self, other: "EisensteinInt | int") -> "EisensteinInt":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return EisensteinInt(a1 * a2 - b1 * b2, a1 * b2 + a2 * b1 - b1 * b2)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "EisensteinInt":
        """Repeated squaring; n must be >= 0."""
        if n < 0:
            raise ValueError("negative exponent on a ring element")
        result = EisensteinInt(1, 0)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def conj(self) -> "EisensteinInt":
        """Complex conjugation, which swaps w and v:  a + b·w -> (a-b) - b·w."""
        return EisensteinInt(self.a - self.b, -self.b)

    def norm(self) -> int:
        """N(a + b·w) = a² - ab + b², a non-negative rational integer."""
        return self.a * self.a - self.a * self.b + self.b * self.b

    def cube(self) -> "EisensteinInt":
        # closed form of (a+bw)^3, handy in hot scan loops
        a, b = self.a, self.b
        return EisensteinInt(a**3 - 3 * a * b * b + b**3, 3 * a * b * (a - b))

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_unit(self) -> bool:
        return self.norm() == 1

    def is_rational(self) -> bool:
        return self.b == 0

    # -- Euclidean division ----------------------------------------------

    def __divmod__(self, other: "EisensteinInt | int") -> tuple["EisensteinInt", "EisensteinInt"]:
        """Division with remainder satisfying 3·N(r) <= N(m).

        q0 is the coordinatewise floor of the exact quotient
        self·conj(m)/N(m).  The corners q0 + {0, 1, w, 1+w} of its unit
        rhombus are scanned in lexicographic (da, db) order; the first least
        N(r) wins, so ties go to the least (q.a, q.b).  Four corners suffice:
        the short diagonal q0 -> q0+1+w splits the rhombus into two
        equilateral unit triangles, and the nearest lattice point (and every
        point as near) is a vertex of the triangle holding the quotient,
        within its circumradius 1/√3, so 3·N(r) <= N(m).  The scan runs on
        plain integers: offset (da, db) turns the remainder r0 of q0
        into r0 - da·m - db·(w·m), with w·m = -mb + (ma - mb)·w.
        """
        m = _coerce(other)
        if m is NotImplemented:
            return NotImplemented
        a, b, ma, mb = self.a, self.b, m.a, m.b
        n = ma * ma - ma * mb + mb * mb
        if n == 0:
            raise ZeroDivisionError("division by zero")
        # self·conj(m) with conj(m) = (ma - mb) - mb·w
        qa0 = (a * (ma - mb) + b * mb) // n
        qb0 = (b * ma - a * mb) // n
        ra0 = a - qa0 * ma + qb0 * mb
        rb0 = b - qa0 * mb - qb0 * (ma - mb)
        best = None
        for da in (0, 1):
            xa, xb = ra0 - da * ma, rb0 - da * mb
            for db in (0, 1):
                ra, rb = xa + db * mb, xb - db * (ma - mb)
                nr = ra * ra - ra * rb + rb * rb
                if best is None or nr < best[0]:
                    best = (nr, da, db, ra, rb)
        nr, da, db, ra, rb = best
        if 3 * nr > n:
            raise ArithmeticError("Euclidean bound violated")
        return EisensteinInt(qa0 + da, qb0 + db), EisensteinInt(ra, rb)

    def __floordiv__(self, other: "EisensteinInt | int") -> "EisensteinInt":
        return divmod(self, other)[0]

    def __mod__(self, other: "EisensteinInt | int") -> "EisensteinInt":
        return divmod(self, other)[1]

    def __truediv__(self, other: "EisensteinInt | int") -> "EisensteinInt":
        """Exact division; raises ValueError if other does not divide self."""
        m = _coerce(other)
        if m is NotImplemented:
            return NotImplemented
        q = _exact_quotient(self, m)
        if q is None:
            raise ValueError(f"{other} does not divide {self}")
        return q

    def divides(self, other: "EisensteinInt") -> bool:
        if self.is_zero():
            return other.is_zero()
        return _exact_quotient(other, self) is not None

    # -- comparisons / hashing / display ----------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.b == 0 and self.a == other
        if isinstance(other, EisensteinInt):
            return self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.a) if self.b == 0 else hash((self.a, self.b))

    def __repr__(self) -> str:
        return f"EisensteinInt({self.a}, {self.b})"

    def __str__(self) -> str:
        return format_eisenstein(self)


def _coerce(x: "EisensteinInt | int"):
    if isinstance(x, EisensteinInt):
        return x
    if isinstance(x, int):
        return EisensteinInt(x, 0)
    return NotImplemented


def _exact_quotient(x: EisensteinInt, m: EisensteinInt) -> EisensteinInt | None:
    """x/m when m divides x, else None: x/m = x·conj(m)/N(m), so m | x exactly
    when N(m) divides both coordinates of x·conj(m)."""
    ma, mb = m.a, m.b
    n = ma * ma - ma * mb + mb * mb  # zero only for m = 0: divmod raises
    qa, ra = divmod(x.a * (ma - mb) + x.b * mb, n)
    qb, rb = divmod(x.b * ma - x.a * mb, n)
    if ra or rb:
        return None
    return EisensteinInt(qa, qb)


ZERO = EisensteinInt(0, 0)
ONE = EisensteinInt(1, 0)
W = EisensteinInt(0, 1)            # primitive cube root of unity
V = EisensteinInt(-1, -1)          # the other root, v = w²
BETA = EisensteinInt(1, 2)         # w - v; the ramified element, beta² = -3
UNITS = (ONE, -ONE, W, -W, V, -V)  # the full unit group, order 6


def unit_inverse(zeta: EisensteinInt) -> EisensteinInt:
    """The inverse of a unit: N(zeta) = zeta·conj(zeta) = 1, so conj(zeta)."""
    if not zeta.is_unit():
        raise ValueError(f"{zeta} is not a unit")
    return zeta.conj()


def gcd_ext(l: EisensteinInt, m: EisensteinInt) -> tuple[EisensteinInt, EisensteinInt, EisensteinInt]:
    """Extended Euclidean algorithm: returns (g, A, B) with g = A·l + B·m.

    g divides both arguments and is returned in distinguished-associate form
    (see canonical_associate).  Raises ValueError when both arguments are 0.
    """
    if l.is_zero() and m.is_zero():
        raise ValueError("gcd of zeros")
    r0, r1 = l, m
    s0, s1 = ONE, ZERO
    t0, t1 = ZERO, ONE
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    zeta, g = canonical_associate(r0)
    inv = unit_inverse(zeta)
    return g, inv * s0, inv * t0


def eis_gcd(l: EisensteinInt, m: EisensteinInt) -> EisensteinInt:
    return gcd_ext(l, m)[0]


def valuation(x: EisensteinInt, d: EisensteinInt) -> tuple[int, EisensteinInt]:
    """(k, x/d^k) for the largest k with d^k dividing x; x must be nonzero
    and d neither zero nor a unit."""
    if x.is_zero() or d.norm() < 2:
        raise ValueError(f"no valuation of {x} at {d}")
    k = 0
    while (q := _exact_quotient(x, d)) is not None:
        x, k = q, k + 1
    return k, x


def ord_beta(d: EisensteinInt) -> int:
    """The largest n such that beta^n divides d.  d must be nonzero."""
    return valuation(d, BETA)[0]


def canonical_associate(x: EisensteinInt) -> tuple[EisensteinInt, EisensteinInt]:
    """Split x into (unit, distinguished associate) with x = unit · associate.

    The distinguished representative of each class of six associates:

      * a beta part is pulled out first and kept as a literal power of
        beta = 1 + 2w;
      * the beta-free cofactor is replaced by its one associate congruent
        to 1 mod 3 (the six units are pairwise incongruent mod 3);
      * when that primary associate is rational it is made positive (so
        the distinguished inert primes are the positive primes p).  A
        class holding a rational n prime to 3 has the rational primary
        associate ±n, as n = ±1 mod 3, so each such class gets |n|.

    Idempotent: canonicalising a distinguished element returns (1, itself).
    """
    if x.is_zero():
        raise ValueError("zero has no associates")
    k, y = valuation(x, BETA)
    for zeta in UNITS:
        y0 = zeta * y
        if is_primary(y0):
            break
    else:
        raise ArithmeticError(f"no primary associate of {y}")
    if y0.b == 0:
        y0 = EisensteinInt(abs(y0.a), 0)
    x0 = BETA**k * y0
    unit = x / x0
    if not unit.is_unit():
        raise ArithmeticError(f"quotient {unit} of {x} by {x0} is not a unit")
    return unit, x0


def is_primary(x: EisensteinInt) -> bool:
    """True when x = 1 mod 3."""
    return x.a % 3 == 1 and x.b % 3 == 0


def mod9_class(x: EisensteinInt) -> EisensteinInt:
    """Representative of x mod 9 with both coordinates reduced into [0, 9)."""
    return EisensteinInt(x.a % 9, x.b % 9)


# -- parsing and formatting ---------------------------------------------

_TERM = re.compile(
    r"""\s*(?P<sign>[+-]?)\s*
        (?:
            (?P<coeff>\d+)\s*\*?\s*(?P<sym1>[wuv])   # 3*w, 3w
          | (?P<sym2>[wuv])                          # bare symbol
          | (?P<int>\d+)                             # plain integer
        )""",
    re.VERBOSE,
)


def parse_eisenstein(text: str) -> EisensteinInt:
    """Parse "a+b*w" (internal basis) or "a*u+b*v" (the w,v basis).

    Grammar: eint ::= term (('+'|'-') term)*;
             term ::= integer | [integer '*'] ('w'|'u'|'v').
    'w' and 'u' both denote the primitive cube root of unity.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty element")
    pos = 0
    total = ZERO
    first = True
    while pos < len(s):
        m = _TERM.match(s, pos)
        if not m or (not first and m.group("sign") == ""):
            raise ValueError(f"cannot parse {text!r} at {s[pos:]!r}")
        sign = -1 if m.group("sign") == "-" else 1
        if m.group("int") is not None:
            total = total + sign * int(m.group("int"))
        else:
            coeff = sign * int(m.group("coeff") or 1)
            sym = m.group("sym1") or m.group("sym2")
            total = total + coeff * (V if sym == "v" else W)
        pos = m.end()
        first = False
    if s[pos:].strip():
        raise ValueError(f"trailing input in {text!r}")
    return total


def format_eisenstein(x: EisensteinInt) -> str:
    """Render on the {1, w} basis; round-trips through parse_eisenstein."""
    a, b = x.a, x.b
    if b == 0:
        return str(a)
    if b == 1:
        wterm = "w"
    elif b == -1:
        wterm = "-w"
    else:
        wterm = f"{b}*w"
    if a == 0:
        return wterm
    if b > 0:
        return f"{a}+{wterm}"
    return f"{a}{wterm}"


class KElement:
    """An element of the field K = Q(w), as num/den in lowest terms.

    num is an EisensteinInt and den a positive rational integer (every
    element of K has such a form: multiply through by the conjugate).
    Reduction removes gcd(den, num.a, num.b), so equal values always have
    identical representations.
    """

    __slots__ = ("num", "den")

    num: EisensteinInt
    den: int

    def __init__(self, num: "EisensteinInt | int" = 0, den: int = 1) -> None:
        num = _coerce(num)
        if den == 0:
            raise ZeroDivisionError("division by zero")
        if den < 0:
            num, den = -num, -den
        g = gcd(gcd(abs(num.a), abs(num.b)), den)
        if g > 1:
            num = EisensteinInt(num.a // g, num.b // g)
            den //= g
        self.num = num
        self.den = den

    # -- field operations ------------------------------------------------

    def __add__(self, other: "KElement | EisensteinInt | int") -> "KElement":
        other = _coerce_k(other)
        if other is NotImplemented:
            return NotImplemented
        return KElement(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other: "KElement | EisensteinInt | int") -> "KElement":
        other = _coerce_k(other)
        if other is NotImplemented:
            return NotImplemented
        return KElement(self.num * other.den - other.num * self.den, self.den * other.den)

    def __rsub__(self, other) -> "KElement":
        return _coerce_k(other).__sub__(self)

    def __neg__(self) -> "KElement":
        return KElement(-self.num, self.den)

    def __mul__(self, other: "KElement | EisensteinInt | int") -> "KElement":
        other = _coerce_k(other)
        if other is NotImplemented:
            return NotImplemented
        return KElement(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: "KElement | EisensteinInt | int") -> "KElement":
        other = _coerce_k(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero")
        n = other.num.norm()
        return KElement(self.num * other.den * other.num.conj(), self.den * n)

    def __rtruediv__(self, other) -> "KElement":
        return _coerce_k(other).__truediv__(self)

    def __pow__(self, n: int) -> "KElement":
        if n < 0:
            return (KElement(1) / self) ** (-n)
        return KElement(self.num**n, self.den**n)

    def conj(self) -> "KElement":
        return KElement(self.num.conj(), self.den)

    # -- predicates and views ---------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_rational(self) -> bool:
        return self.num.b == 0

    def is_integral(self) -> bool:
        return self.den == 1

    def __eq__(self, other: object) -> bool:
        other = _coerce_k(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash(self.num) if self.den == 1 else hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"KElement({self.num!r}, {self.den})"

    def __str__(self) -> str:
        return format_k(self)


def _coerce_k(x):
    if isinstance(x, KElement):
        return x
    if isinstance(x, (EisensteinInt, int)):
        return KElement(x, 1)
    return NotImplemented


def parse_k(text: str) -> KElement:
    """Parse "eint", "eint/den" or "(eint)/den"."""
    s = text.strip()
    m = re.fullmatch(r"\(\s*(?P<num>[^()]+?)\s*\)\s*/\s*(?P<den>\d+)", s)
    if not m:
        m = re.fullmatch(r"(?P<num>[^/]+?)\s*/\s*(?P<den>\d+)", s)
    if m:
        return KElement(parse_eisenstein(m.group("num")), int(m.group("den")))
    return KElement(parse_eisenstein(s), 1)


def format_k(x: KElement) -> str:
    num = format_eisenstein(x.num)
    if x.den == 1:
        return num
    if x.num.a != 0 and x.num.b != 0:
        return f"({num})/{x.den}"
    return f"{num}/{x.den}"


def coordinate_box(bound: int) -> Iterator[EisensteinInt]:
    """All lattice points a·w + b·v with |a|, |b| <= bound, in a fixed order.

    Scan boxes throughout the package are on the {w, v} coordinates.
    """
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            yield EisensteinInt.from_uv(a, b)


def spiral(bound: int) -> Iterator[int]:
    """Nonzero integers ordered by magnitude: 1, -1, 2, -2, ..."""
    for k in range(1, bound + 1):
        yield k
        yield -k


def coordinate_spiral(bound: int) -> Iterator[EisensteinInt]:
    """Nonzero box points ordered by growing radius max(|a|, |b|), each ring
    in box order: a stable sort of coordinate_box, whose origin, alone at
    radius 0, sorts first and is dropped."""

    def radius(x: EisensteinInt) -> int:
        a, b = x.to_uv()
        return max(abs(a), abs(b))

    return iter(sorted(coordinate_box(bound), key=radius)[1:])
