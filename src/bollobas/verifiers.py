"""Condition verifiers and counting-bound certificates.

``verify`` decides which of the three conditions a system satisfies:

* ``bollobas`` (pairs only): components of each pair disjoint/independent, and
  A_i meets B_j for every ordered pair i != j;
* ``skew``: same clause (i), and for i < j some component pair p < q has
  A_i^(p) meeting A_j^(q);
* ``weak``: as skew, but either orientation of the (p, q) pair counts.

For subspace d-tuples, clause (i) is dimension additivity of the component
sum (direct-sum independence), which for d >= 3 is strictly stronger than
pairwise zero intersections.

Clause (ii) is written once, in ``ClauseTable``: ``verify``, ``search_max``
and the random generators read it there as ``int`` bitsets over the tuples.

A false verdict always carries the lexicographically first violating witness
(i, j, clause), 1-based, with i = j marking a clause-(i) failure.  Duplicate
tuples never survive verification: two equal tuples have componentwise
trivial cross intersections, which breaks clause (ii).

Verdicts and certificates over GF(p) carry a caveat flag: the inequalities
and counting lemmas this package checks are theorems for real vector spaces,
so prime-field runs are exploration, not theorem checks.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Iterable

from .errors import Frozen, PreconditionError, ShapeError
from .exact_arith import PrimeField, Rational, multinomial, rational_to_str
from .subspace_algebra import Subspace, dim_of_sum, share_a_row
from .systems_model import (
    SetSystem,
    SubspaceSystem,
    System,
    block_profiles,
    is_decomposition_compatible,
    require_pairs,
    sizes_of,
)

FLAVORS = ("bollobas", "skew", "weak")


def check_flavor(flavor: str, d: int) -> None:
    """Refuse a flavor outside :data:`FLAVORS`, and the bollobas condition
    at any arity but 2."""
    if flavor not in FLAVORS:
        raise ShapeError(f"unknown flavor {flavor!r}")
    if flavor == "bollobas":
        require_pairs(d, "the bollobas condition")


CLAUSE_COMPONENT = "component"  # clause (i): within-tuple disjointness/independence
CLAUSE_CROSS = "cross"  # clause (ii): cross-tuple intersection requirement


class ConditionKind(Frozen):
    """A named condition: flavor x system kind ("set" or "subspace") x arity,
    plus the monotone flag used by the size-monotone skew inequality."""

    __slots__ = _fields = ("flavor", "kind", "d", "monotone")

    def __init__(self, flavor: str, kind: str, d: int, monotone: bool = False):
        self._init(flavor, kind, d, monotone)
        check_flavor(self.flavor, self.d)
        if self.kind not in ("set", "subspace"):
            raise ShapeError(f"unknown system kind {self.kind!r}")

    def __str__(self) -> str:
        mono = ", monotone" if self.monotone else ""
        return f"{self.flavor} {self.kind} {self.d}-tuples{mono}"


def condition_for(system: System, flavor: str, monotone: bool = False) -> ConditionKind:
    kind = "set" if isinstance(system, SetSystem) else "subspace"
    return ConditionKind(flavor, kind, system.d, monotone)


class VerificationReport(Frozen):
    __slots__ = _fields = ("verdict", "first_violation", "condition", "field_caveat")

    def __init__(
        self,
        verdict: bool,
        first_violation: tuple[int, int, str] | None,
        condition: ConditionKind,
        field_caveat: bool = False,
    ):
        self._init(verdict, first_violation, condition, field_caveat)
        if self.verdict == (self.first_violation is not None):
            raise ValueError("verdict and witness are inconsistent")


def is_gfp(system: System) -> bool:
    """True for a subspace system over GF(p): its verdicts carry the field caveat."""
    return isinstance(system, SubspaceSystem) and isinstance(system.field, PrimeField)


# ---------------------------------------------------------------------------
# clauses; components are bitmasks (sets) or Subspace values, and the two
# never mix within a tuple


def component_clause_ok(t) -> bool:
    """Clause (i): pairwise disjoint subsets / dimension-additive subspaces.
    A sum has dimension at most n, so subspace dims adding up past n fail
    with no elimination, and ``dim_of_sum`` adds pairwise disjoint pivot
    masks with none.  The shared-row test of ``cross_nontrivial`` is left
    out: a valid tuple never has a shared row, and on the search's
    candidates the pairs it tests cost more than the eliminations it saves."""
    if not t or isinstance(t[0], int):
        seen = 0
        for mask in t:
            if mask & seen:
                return False
            seen |= mask
        return True
    total = sum(sub.dim for sub in t)
    if total > t[0].n:
        return False
    return dim_of_sum(t) == total


def cross_nontrivial(x: Subspace, y: Subspace) -> bool:
    """Positive intersection dimension of two subspaces of the same space:
    dim(U ∩ W) = dim U + dim W - dim(U + W).  Three exact certificates
    settle most meets with no elimination: dims adding up past n mean a
    nontrivial meet, since dim(U + W) <= n; so does a canonical row of
    both, a common nonzero vector; and pairwise distinct pivot columns
    (``dim_of_sum``) mean a trivial one.  The rest are eliminated."""
    if x.dim == 0 or y.dim == 0:
        return False
    total = x.dim + y.dim
    return total > x.n or share_a_row(x, y) or total > dim_of_sum((x, y))


# _BIT_DIGITS[b] maps a byte to b"1" where bit b is set, to b"0" elsewhere
_BIT_DIGITS = [bytes(0x31 if byte >> b & 1 else 0x30 for byte in range(256)) for b in range(8)]


def _file_elements(filed: dict, masks: list[int], start: int) -> None:
    """OR into ``filed[1 << e]``, for each element e of some mask, the bitset
    of the masks holding e, mask j at bit ``start + j``.  The masks are
    packed as words of ``width`` little-endian bytes; element e's bits are
    the byte e // 8 of every word, read at bit e % 8."""
    union = 0
    for mask in masks:
        union |= mask
    width = (union.bit_length() + 7) >> 3
    packed = b"".join([mask.to_bytes(width, "little") for mask in masks])
    while union:
        e = union & -union
        union ^= e
        k = e.bit_length() - 1
        digits = packed[k >> 3 :: width].translate(_BIT_DIGITS[k & 7])
        filed[e] = filed.get(e, 0) | int(digits[::-1], 2) << start


class ClauseTable:
    """Clause (ii) over a list of d-tuples: t_i before t_j needs t_i^(p)
    meeting t_j^(q) for a pair p < q (skew) or p != q (weak); bollobas needs
    A_i meeting B_j and A_j meeting B_i.

    Per position q, the table files the bitset of the tuples whose q-th
    component holds each ground element (set values) or is each subspace
    value.  ``extend`` builds the element bitsets of set values by
    transposing column q: the new masks are packed into fixed-width
    little-endian words, and each element's bits are read with bytes
    operations (a strided slice, a translate to ``b"0"``/``b"1"``, a
    reverse, ``int(..., 2)``), so its Python-level work is O(d n) for n
    elements, not O(m n).  Subspace values are filed one by one.
    ``hit(v, q)``, the bitset of tuples whose q-th component meets v, is an
    OR of element bitsets for a set, one ``cross_nontrivial`` per value filed
    at q for a subspace; it is cached until the next ``extend``.  A read ORs
    hits over the flavor's pairs and stops once it covers the bitset it
    needs.
    """

    def __init__(self, flavor: str, d: int, tuples: Iterable[tuple] = ()):
        check_flavor(flavor, d)
        if flavor == "bollobas":
            pairs = [(0, 1)]
        else:
            pairs = [(p, q) for p in range(d) for q in range(p + 1, d)]
            if flavor == "weak":
                pairs += [(q, p) for p, q in pairs]
        self.flavor = flavor
        self.tuples: list[tuple] = []
        self._forward = pairs
        self._backward = [(q, p) for p, q in pairs]
        self._filed: list[dict] = [{} for _ in range(d)]
        self.extend(tuples)

    def extend(self, tuples: Iterable[tuple]) -> None:
        """Append tuples to the table, dropping the cached hits."""
        start = len(self.tuples)
        self.tuples.extend(tuples)
        size = (len(self.tuples) >> 3) + 1
        for q, filed in enumerate(self._filed):
            column = [t[q] for t in self.tuples[start:]]
            if column and isinstance(column[0], int):
                _file_elements(filed, column, start)
                continue
            members: dict = {}
            for j, x in enumerate(column, start):
                members.setdefault(x, []).append(j)
            for x, js in members.items():
                buf = bytearray(size)
                for j in js:
                    buf[j >> 3] |= 1 << (j & 7)
                filed[x] = filed.get(x, 0) | int.from_bytes(buf, "little")
        self._hits: list[dict] = [{} for _ in self._filed]

    def hit(self, v, q: int, low: int = 0) -> int:
        """The tuples whose q-th component meets v, exact from index ``low``
        on: a subspace is tested only against values that some tuple of
        index ``low`` or more carries."""
        cached = self._hits[q].get(v)
        if cached is not None and cached[1] <= low:
            return cached[0]
        filed = self._filed[q]
        bits = 0
        if isinstance(v, int):
            low = 0
            rest = v
            while rest:
                e = rest & -rest
                bits |= filed.get(e, 0)
                rest ^= e
        else:
            for w, members in filed.items():
                if members.bit_length() > low and cross_nontrivial(v, w):
                    bits |= members
        self._hits[q][v] = (bits, low)
        return bits

    def _cover(self, t: tuple, pairs: list[tuple[int, int]], need: int, low: int = 0) -> int:
        bits = 0
        for p, q in pairs:
            if bits & need == need:
                break
            bits |= self.hit(t[p], q, low)
        return bits

    def row(self, t: tuple, need: int) -> int:
        """Tuples j such that t placed before t_j satisfies clause (ii):
        exact on the bits of ``need``."""
        bits = self._cover(t, self._forward, need)
        if self.flavor == "bollobas":
            bits &= self._cover(t, self._backward, need)
        return bits

    def dead(self, t: tuple) -> bool:
        """Whether no tuple placed after t can satisfy clause (ii) with it:
        the components of t that the flavor's pairs read against a later
        tuple are all empty (the first d - 1 for skew, all d for weak, A for
        bollobas).  With d = 1 there are no pairs, and any t is dead."""
        return not any(t[p] if isinstance(t[p], int) else t[p].dim for p, _ in self._forward)

    def admits(self, t: tuple) -> bool:
        """Whether t placed after every tuple of the table satisfies clause (ii)."""
        need = (1 << len(self.tuples)) - 1
        bits = self._cover(t, self._backward, need)
        if self.flavor == "bollobas":
            bits &= self._cover(t, self._forward, need)
        return bits & need == need


# ---------------------------------------------------------------------------
# verification


def verify(system: System, flavor: str) -> VerificationReport:
    """Check the condition named by ``flavor``, one of ``FLAVORS``, reporting
    the first violation in lexicographic (i, j) order: clause (i) at (i, i),
    and clause (ii) at the first tuple j that t_i's forward cover misses,
    among every j != i for bollobas (the B_j that A_i misses) and every
    j > i otherwise."""
    condition = condition_for(system, flavor)
    caveat = is_gfp(system)

    def violated(i: int, j: int, clause: str) -> VerificationReport:
        return VerificationReport(False, (i + 1, j + 1, clause), condition, caveat)

    table = ClauseTable(flavor, system.d, system.tuples)
    everyone = (1 << system.m) - 1
    for i, t in enumerate(system.tuples):
        bit = 1 << i
        if flavor == "bollobas":
            need, low = everyone & ~bit, 0
        else:
            need, low = everyone & -(bit << 1), i + 1
        missing = need & ~table._cover(t, table._forward, need, low)
        if missing & (bit - 1):
            return violated(i, (missing & -missing).bit_length() - 1, CLAUSE_CROSS)
        if not component_clause_ok(t):
            return violated(i, i, CLAUSE_COMPONENT)
        if missing:
            return violated(i, (missing & -missing).bit_length() - 1, CLAUSE_CROSS)
    return VerificationReport(True, None, condition, caveat)


def is_monotone_pair_profile(system: System) -> bool:
    """a_1 <= ... <= a_m and b_1 >= ... >= b_m for a pair system."""
    require_pairs(system.d, "monotone profile")
    sizes = [sizes_of(t) for t in system.tuples]
    return all(s[0] <= t[0] for s, t in zip(sizes, sizes[1:])) and all(
        s[1] >= t[1] for s, t in zip(sizes, sizes[1:])
    )


# ---------------------------------------------------------------------------
# certificates


def count_bound(profile: tuple) -> int:
    """The counting lemma's bound on the full tuples of one type class: the
    multinomial of a size vector (a_1, ..., a_d), so C(a + b, a) for a pair,
    and prod_k C(a_k + b_k, a_k) for a per-block profile ((a_1, b_1), ...,
    (a_r, b_r))."""
    if profile and isinstance(profile[0], tuple):
        return prod(map(multinomial, profile))
    return multinomial(profile)


class ClassCount(Frozen):
    """One type class: its profile, how many tuples realize it, and the
    counting bound the profile licenses."""

    __slots__ = _fields = ("profile", "count", "bound")

    def __init__(self, profile: tuple, count: int, bound: int):
        self._init(profile, count, bound)


class Certificate(Frozen):
    """A checked assertion with its exact quantities.

    ``quantities`` holds (name, exact-string) pairs; ``classes`` is populated
    by type-class certificates; GF(p) findings are recorded, never raised.
    """

    __slots__ = _fields = ("check", "holds", "quantities", "classes", "field_caveat", "findings")

    def __init__(
        self,
        check: str,
        holds: bool,
        quantities: tuple[tuple[str, str], ...],
        classes: tuple[ClassCount, ...] = (),
        field_caveat: bool = False,
        findings: tuple[str, ...] = (),
    ):
        self._init(check, holds, quantities, classes, field_caveat, findings)

    def quantity(self, name: str) -> str:
        for key, value in self.quantities:
            if key == name:
                return value
        raise KeyError(name)


def _require_verified(system: System, flavor: str, check: str) -> VerificationReport:
    report = verify(system, flavor)
    if not report.verdict:
        raise PreconditionError(
            f"{check} needs the {flavor} condition; violated at {report.first_violation}"
        )
    return report


def check_uniform_pair_bound(system: System) -> Certificate:
    """m <= C(a+b, a) for a verified skew pair system with uniform sizes."""
    require_pairs(system.d, "uniform pair bound")
    report = _require_verified(system, "skew", "uniform pair bound")
    sizes = set(map(sizes_of, system.tuples))
    if len(sizes) > 1:
        raise PreconditionError(f"sizes are not uniform: {sorted(sizes)}")
    a, b = sizes.pop() if sizes else (0, 0)
    bound = count_bound((a, b))
    m = system.m
    return Certificate(
        check="uniform-skew-pair-count",
        holds=m <= bound,
        quantities=(
            ("m", str(m)),
            ("a", str(a)),
            ("b", str(b)),
            ("bound", str(bound)),
            ("tight", str(m == bound).lower()),
        ),
        field_caveat=report.field_caveat,
    )


def check_partitioned_uniform_bound(system: System) -> Certificate:
    """m <= prod_k C(a_k + b_k, a_k) for a verified skew pair system whose
    per-block profile is the same for every pair: a partitioned set system,
    or a decomposition-compatible subspace system."""
    if isinstance(system, SetSystem):
        name, check, uneven = "partitioned", "partitioned", "per-block profile is"
    else:
        name, check, uneven = "decomposition", "decomposed", "per-component dims are"
    blocks, profiles = block_profiles(system)
    if isinstance(system, SubspaceSystem) and not is_decomposition_compatible(system):
        raise PreconditionError("system is not decomposition-compatible")
    report = _require_verified(system, "skew", f"{name} uniform bound")
    profiles = set(profiles)
    if len(profiles) > 1:
        raise PreconditionError(f"{uneven} not uniform across pairs")
    profile = profiles.pop() if profiles else ((0, 0),) * len(blocks)
    bound = count_bound(profile)
    return Certificate(
        check=f"{check}-uniform-skew-pair-count",
        holds=system.m <= bound,
        quantities=(
            ("m", str(system.m)),
            ("profile", str(profile)),
            ("bound", str(bound)),
        ),
        field_caveat=report.field_caveat,
    )


def check_cardinality_lemmas(system: System) -> Certificate:
    """The uniform counting bounds licensed by whichever condition holds.

    Skew subspace systems: m <= 2^n for pairs and m <= d^n in general.
    Weak set systems: m <= (d+1)^n, plus m <= (a+b)^(a+b) / (a^a b^b) when the
    pair sizes are uniform.  Over GF(p) a violated bound is recorded as a
    finding with the caveat flag, never as an error.
    """
    lines: list[tuple[str, Rational, Rational]] = []
    caveat = is_gfp(system)
    m = system.m
    if isinstance(system, SubspaceSystem):
        report = verify(system, "skew")
        if report.verdict:
            if system.d == 2:
                lines.append(("skew-subspace-pair-count <= 2^n", Fraction(m), Fraction(2**system.n)))
            lines.append(
                (
                    "skew-subspace-tuple-count <= d^n",
                    Fraction(m),
                    Fraction(system.d**system.n),
                )
            )
    else:
        report = verify(system, "weak")
        if report.verdict:
            lines.append(
                (
                    "weak-set-tuple-count <= (d+1)^n",
                    Fraction(m),
                    Fraction((system.d + 1) ** system.n),
                )
            )
            if system.d == 2 and m > 0:
                sizes = set(map(sizes_of, system.tuples))
                if len(sizes) == 1:
                    a, b = sizes.pop()
                    # (a+b)^(a+b) / (a^a * b^b), with 0^0 = 1
                    num = Fraction((a + b) ** (a + b))
                    den = Fraction((a**a if a else 1) * (b**b if b else 1))
                    lines.append(
                        ("uniform-weak-pair-count <= (a+b)^(a+b)/(a^a b^b)", Fraction(m), num / den)
                    )
    if not lines:
        raise PreconditionError(
            "no counting bound applies: the system verifies neither "
            "skew (subspaces) nor weak (sets)"
        )
    findings = tuple(
        f"violated over {system.field}: {name} with m={rational_to_str(value)}, "
        f"bound={rational_to_str(bound)}"
        for name, value, bound in lines
        if value > bound and caveat
    )
    holds = all(value <= bound for _, value, bound in lines)
    quantities = [("m", str(m))]
    for name, value, bound in lines:
        quantities.append((name, rational_to_str(bound)))
    return Certificate(
        check="cardinality-bounds",
        holds=holds,
        quantities=tuple(quantities),
        field_caveat=caveat,
        findings=findings,
    )
