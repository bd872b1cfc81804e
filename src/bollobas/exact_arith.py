"""Exact scalars and combinatorial coefficients.

Every quantity in this package is an arbitrary-precision integer, an exact
rational, or a prime-field residue.  There is no tolerance anywhere: equality
of weights, bounds, and certificates is decidable equality of these values.

Rationals are ``fractions.Fraction`` (always lowest terms, positive
denominator), re-exported as :data:`Rational`; prime-field elements are plain
``int`` residues in [0, p).  A field is named by a tag value --
:class:`RationalField` or :class:`PrimeField` -- that parses document entries
("num/den" or "r mod p") straight into ``int`` rows and formats canonical
rows back; it builds no scalar objects of its own.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import Frozen, ShapeError

Rational = Fraction


# ---------------------------------------------------------------------------
# coefficients


def binomial(n: int, k: int) -> int:
    """C(n, k), with C(n, k) = 0 whenever k < 0 or k > n.

    The out-of-range convention matches its use inside weight sums, where a
    vanishing coefficient means an impossible configuration, not an error.
    """
    if n < 0:
        raise ShapeError(f"binomial needs n >= 0, got n={n}")
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
            raise ShapeError(f"multinomial parts must be nonnegative, got {p}")
        total += p
        out *= math.comb(total, p)
    return out


# ---------------------------------------------------------------------------
# scalar serialization: rationals as "num/den" (den omitted when 1),
# prime-field scalars as "r mod p"


def rational_to_str(q: Rational) -> str:
    """``num/den``, or ``num`` alone when the denominator is 1; ints pass too."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def rational_from_str(s: str) -> Rational:
    """A literal ``Fraction`` accepts: an integer, ``num/den``, or a decimal
    with an optional exponent, e.g. "-3/4", "1.5", "47e-2".

    An exponent that would give the numerator or denominator more digits
    than the interpreter's int-string limit (``sys.get_int_max_str_digits``)
    is refused before the power of ten is built, as a plain literal that
    long already is; otherwise a few bytes such as "1e100000000" would ask
    for a bignum of a hundred million digits.
    """
    try:
        # most document entries are plain integers: int skips the literal grammar
        return Fraction(int(s))
    except ValueError:
        pass
    try:
        mantissa, e, exp = s.lower().partition("e")
        limit = sys.get_int_max_str_digits()
        if e and limit:
            m, k = Fraction(mantissa), int(exp)
            part = m.numerator if k > 0 else m.denominator
            if k and len(str(abs(part))) + abs(k) > limit:
                raise ValueError(f"more than {limit} digits")
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ShapeError(f"not a rational: {s!r}") from exc


def residue_from_str(s: str, p: int) -> int:
    """Parse "r mod p" or a bare integer string against a known modulus; the
    residue r mod p."""
    text = s.strip()
    if "mod" in text:
        left, _, right = text.partition("mod")
        try:
            r, mod = int(left), int(right)
        except ValueError as exc:
            raise ShapeError(f"not a prime-field scalar: {s!r}") from exc
        if mod != p:
            raise ShapeError(f"scalar {s!r} does not match field GF({p})")
        return r % p
    try:
        return int(text) % p
    except ValueError as exc:
        raise ShapeError(f"not a prime-field scalar: {s!r}") from exc


# Miller-Rabin with the first 13 prime bases decides primality exactly for
# every p below this bound (Sorenson and Webster, 2015).
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    """Deterministic primality for p < MR_EXACT_BELOW; larger p is refused
    with ``ShapeError`` rather than answered by a probabilistic test."""
    if p < 2:
        return False
    if p >= MR_EXACT_BELOW:
        raise ShapeError(f"primality of {p} is not decided: moduli must be below {MR_EXACT_BELOW}")
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


# ---------------------------------------------------------------------------
# field tags


class RationalField(Frozen):
    """Tag for exact rational arithmetic."""

    __slots__ = ()
    p = 0  # the modulus: none; a class constant, not a field

    def __eq__(self, other):
        return True if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(())

    def parse_row(self, texts: Sequence[str]) -> list[int]:
        """Rational entries as one int row spanning the same line: each entry
        times the lcm of the denominators.  A plain integer entry stays an
        ``int`` (its denominator is 1); only the others go through
        :func:`rational_from_str`.  A row of plain integers is read in one
        pass, the others entry by entry."""
        try:
            return list(map(int, texts))
        except ValueError:
            pass
        qs: list[int | Fraction] = []
        for text in texts:
            try:
                qs.append(int(text))
            except ValueError:
                qs.append(rational_from_str(text))
        den = math.lcm(*[q.denominator for q in qs])
        return [q.numerator * (den // q.denominator) for q in qs]

    def format_row(self, row: Sequence[int]) -> list[str]:
        """The texts of a canonical row's RREF entries: each entry x over the
        row's pivot c (its first nonzero entry, positive) written as
        ``rational_to_str(Fraction(x, c))`` would, reduced by ``math.gcd``
        with no ``Fraction`` built."""
        c = next(x for x in row if x)
        out = []
        for x in row:
            g = math.gcd(x, c)
            out.append(str(x // g) if g == c else f"{x // g}/{c // g}")
        return out

    def __str__(self) -> str:
        return "rational"


class PrimeField(Frozen):
    """Tag for GF(p), p prime; its scalars are int residues in [0, p)."""

    __slots__ = _fields = ("p",)

    def __init__(self, p: int):
        self._init(p)
        if not is_prime(p):
            raise ShapeError(f"{p} is not prime")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.p == other.p

    def __hash__(self) -> int:
        return hash((self.p,))

    def parse_row(self, texts: Sequence[str]) -> list[int]:
        return [residue_from_str(text, self.p) for text in texts]

    def format_row(self, row: Sequence[int]) -> list[str]:
        """The texts of a canonical row: its residues as "x mod p"."""
        p = self.p
        return [f"{x} mod {p}" for x in row]

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
            raise ShapeError(f"bad field name: {s!r}") from exc
        return PrimeField(p)
    raise ShapeError(f"bad field name: {s!r} (expected 'rational' or 'gf(p)')")


# ---------------------------------------------------------------------------
# probability vectors


class ProbabilityVector(Frozen):
    """Positive rationals p_1..p_d summing to exactly 1."""

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: tuple[Rational, ...]):
        entries = tuple(Fraction(e) for e in entries)
        self._init(entries)
        if len(entries) < 1:
            raise ShapeError("probability vector needs at least one entry")
        if any(e <= 0 for e in entries):
            raise ShapeError(f"probabilities must be positive: {self}")
        total = sum(entries, Fraction(0))
        if total != 1:
            raise ShapeError(f"probabilities must sum to 1 exactly, got {total}")

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
