"""Exact scalars and combinatorial coefficients.

Every quantity in this package is an arbitrary-precision integer, an exact
rational, or a prime-field residue.  There is no tolerance anywhere: equality
of weights, bounds, and certificates is decidable equality of these values.

Rationals are ``fractions.Fraction`` (always lowest terms, positive
denominator), re-exported as :data:`Rational`.  Prime fields get a small
scalar class of their own.  A field is named by a tag value --
:class:`RationalField` or :class:`PrimeField` -- that also knows how to build
its scalars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

Rational = Fraction


# ---------------------------------------------------------------------------
# coefficients


def binomial(n: int, k: int) -> int:
    """C(n, k), with C(n, k) = 0 whenever k < 0 or k > n.

    The out-of-range convention matches its use inside weight sums, where a
    vanishing coefficient means an impossible configuration, not an error.
    """
    if n < 0:
        raise ValueError(f"binomial needs n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def multinomial(parts: Iterable[int]) -> int:
    """(sum parts)! / prod(parts!), computed as a product of binomials.

    The iterated-binomial form C(p1, p1) * C(p1+p2, p2) * ... keeps every
    intermediate value integral.
    """
    total = 0
    out = 1
    for p in parts:
        if p < 0:
            raise ValueError(f"multinomial parts must be nonnegative, got {p}")
        total += p
        out *= math.comb(total, p)
    return out


def rational_power(base: Rational, exp: int) -> Rational:
    """base ** exp for exp >= 0.  exp == 0 returns 1 even for base 0.

    The empty-product convention makes a dimension-0 factor contribute 1 to a
    product weight.
    """
    if exp < 0:
        raise ValueError(f"rational_power needs exp >= 0, got {exp}")
    if exp == 0:
        return Fraction(1)
    return Fraction(base) ** exp


# ---------------------------------------------------------------------------
# scalar serialization: rationals as "num/den" (den omitted when 1),
# prime-field scalars as "r mod p"


def rational_to_str(q: Rational) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def rational_from_str(s: str) -> Rational:
    try:
        q = Fraction(s.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {s!r}") from exc
    return q


# Miller-Rabin with the first 13 prime bases decides primality exactly for
# every p below this bound (Sorenson and Webster, 2015).
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    """Deterministic primality for p < MR_EXACT_BELOW; larger p is refused
    with ``ValueError`` rather than answered by a probabilistic test."""
    if p < 2:
        return False
    if p >= MR_EXACT_BELOW:
        raise ValueError(f"primality of {p} is not decided: moduli must be below {MR_EXACT_BELOW}")
    for b in MR_BASES:
        if p % b == 0:
            return p == b
    s, odd = 0, p - 1
    while odd % 2 == 0:
        s, odd = s + 1, odd // 2
    for b in MR_BASES:
        x = pow(b, odd, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeFieldScalar:
    """An element of GF(p): a residue in [0, p) with mod-p arithmetic."""

    residue: int
    p: int

    def __post_init__(self):
        if self.p < 2:
            raise ValueError(f"modulus must be >= 2, got {self.p}")
        object.__setattr__(self, "residue", self.residue % self.p)

    def _coerce(self, other) -> "PrimeFieldScalar":
        if isinstance(other, PrimeFieldScalar):
            if other.p != self.p:
                raise ValueError(f"mixed moduli {self.p} and {other.p}")
            return other
        if isinstance(other, int):
            return PrimeFieldScalar(other, self.p)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return PrimeFieldScalar(self.residue + other.residue, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return PrimeFieldScalar(self.residue - other.residue, self.p)

    def __neg__(self):
        return PrimeFieldScalar(-self.residue, self.p)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return PrimeFieldScalar(self.residue * other.residue, self.p)

    __rmul__ = __mul__

    def inverse(self) -> "PrimeFieldScalar":
        if self.residue == 0:
            raise ZeroDivisionError(f"0 has no inverse mod {self.p}")
        # p is prime, so Fermat's little theorem applies
        return PrimeFieldScalar(pow(self.residue, self.p - 2, self.p), self.p)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __bool__(self) -> bool:
        return self.residue != 0

    def __str__(self) -> str:
        return f"{self.residue} mod {self.p}"


def prime_scalar_from_str(s: str, p: int) -> PrimeFieldScalar:
    """Parse "r mod p" or a bare integer string against a known modulus."""
    text = s.strip()
    if "mod" in text:
        left, _, right = text.partition("mod")
        try:
            r, mod = int(left), int(right)
        except ValueError as exc:
            raise ValueError(f"not a prime-field scalar: {s!r}") from exc
        if mod != p:
            raise ValueError(f"scalar {s!r} does not match field GF({p})")
        return PrimeFieldScalar(r, p)
    try:
        return PrimeFieldScalar(int(text), p)
    except ValueError as exc:
        raise ValueError(f"not a prime-field scalar: {s!r}") from exc


Scalar = Union[Fraction, PrimeFieldScalar]


# ---------------------------------------------------------------------------
# field tags


@dataclass(frozen=True)
class RationalField:
    """Tag for exact rational arithmetic."""

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def from_int(self, k: int) -> Fraction:
        return Fraction(k)

    def scalar_from_str(self, s: str) -> Fraction:
        return rational_from_str(s)

    def scalar_to_str(self, x: Scalar) -> str:
        return rational_to_str(x)

    def __str__(self) -> str:
        return "rational"


@dataclass(frozen=True)
class PrimeField:
    """Tag for GF(p), p prime."""

    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    def zero(self) -> PrimeFieldScalar:
        return PrimeFieldScalar(0, self.p)

    def one(self) -> PrimeFieldScalar:
        return PrimeFieldScalar(1, self.p)

    def from_int(self, k: int) -> PrimeFieldScalar:
        return PrimeFieldScalar(k, self.p)

    def scalar_from_str(self, s: str) -> PrimeFieldScalar:
        return prime_scalar_from_str(s, self.p)

    def scalar_to_str(self, x: Scalar) -> str:
        return str(x)

    def __str__(self) -> str:
        return f"gf({self.p})"


FieldTag = Union[RationalField, PrimeField]

QQ = RationalField()


def field_from_str(s: str) -> FieldTag:
    text = s.strip().lower()
    if text in ("rational", "rationals", "q", "qq"):
        return QQ
    if text.startswith("gf(") and text.endswith(")"):
        try:
            p = int(text[3:-1])
        except ValueError as exc:
            raise ValueError(f"bad field name: {s!r}") from exc
        return PrimeField(p)
    raise ValueError(f"bad field name: {s!r} (expected 'rational' or 'gf(p)')")


# ---------------------------------------------------------------------------
# probability vectors


@dataclass(frozen=True)
class ProbabilityVector:
    """Positive rationals p_1..p_d summing to exactly 1."""

    entries: tuple[Rational, ...]

    def __post_init__(self):
        entries = tuple(Fraction(e) for e in self.entries)
        object.__setattr__(self, "entries", entries)
        if len(entries) < 1:
            raise ValueError("probability vector needs at least one entry")
        if any(e <= 0 for e in entries):
            raise ValueError(f"probabilities must be positive: {entries}")
        total = sum(entries, Fraction(0))
        if total != 1:
            raise ValueError(f"probabilities must sum to 1 exactly, got {total}")

    @property
    def d(self) -> int:
        return len(self.entries)

    @classmethod
    def uniform(cls, d: int) -> "ProbabilityVector":
        return cls(tuple(Fraction(1, d) for _ in range(d)))

    @classmethod
    def parse(cls, text: str) -> "ProbabilityVector":
        """Parse a comma-separated list of rationals, e.g. "1/2,1/4,1/4"."""
        parts = [rational_from_str(part) for part in text.split(",") if part.strip()]
        return cls(tuple(parts))

    def __str__(self) -> str:
        return ",".join(rational_to_str(e) for e in self.entries)
