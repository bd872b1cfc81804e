"""Exact linear algebra: canonical subspaces and their lattice operations.

A subspace of an n-dimensional ambient space is stored as its reduced
row echelon basis with strictly increasing pivot columns.  RREF is the unique
canonical representative of a row space, so structural equality of two
:class:`Subspace` values coincides with equality of the subspaces themselves,
and serialization is deterministic.

All arithmetic is exact, and elimination runs on plain ``int`` rows: over GF(p)
on residues mod p, over QQ on rows cleared of their denominators, reduced
fraction-free (Bareiss-style cross multiplication, each new row divided by its
gcd).  ``Fraction`` or :class:`PrimeFieldScalar` entries are built only for a
returned basis; ranks and dimensions build none.  Intersections use
Zassenhaus' sum/intersection elimination of ``[u | u]`` over ``[w | 0]``, never
orthogonal complements (which are field-sensitive).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import FieldMismatchError, PreconditionError
from .exact_arith import FieldTag, PrimeField, PrimeFieldScalar, Scalar

Vector = tuple  # tuple[Scalar, ...]
Matrix = tuple  # tuple[Vector, ...]


def _int_rows(rows: Iterable[Sequence[Scalar]], width: int, p: int) -> list[list[int]]:
    """Int rows with the same row space: residues over GF(p) (p > 0), or each
    row times the lcm of its denominators over QQ (p == 0)."""
    out = []
    for row in rows:
        if len(row) != width:
            raise ValueError(f"row of length {len(row)}, expected {width}")
        if p:
            out.append([x.residue for x in row])
            continue
        den = math.lcm(*[x.denominator for x in row])
        out.append([x.numerator * (den // x.denominator) for x in row])
    return out


def _eliminate(rows: list[Sequence[int]], width: int, p: int) -> tuple[list[Sequence[int]], list[int]]:
    """Gauss-Jordan elimination of int rows in column order.

    Returns the nonzero rows in echelon order and their pivot columns; every
    pivot column is zero in all other rows.  Over GF(p) each pivot is 1; over
    QQ each row is primitive (gcd 1), so its RREF row is ``row / row[pivot]``.
    The list is reordered and its rows replaced, but no row is changed in
    place, so rows may be shared with a cached basis.
    """
    rank = 0
    pivots = []
    for col in range(width):
        for i in range(rank, len(rows)):
            if rows[i][col]:
                break
        else:
            continue
        top = rows[i]
        rows[i] = rows[rank]
        a = top[col]
        if p:
            if a != 1:
                inv = pow(a, -1, p)
                top = [x * inv % p for x in top]
            for j, row in enumerate(rows):
                f = row[col]
                if f and j != rank:
                    rows[j] = [(x - f * y) % p for x, y in zip(row, top)]
        else:
            for j, row in enumerate(rows):
                f = row[col]
                if f and j != rank:
                    new = [a * x - f * y for x, y in zip(row, top)]
                    g = math.gcd(*new)
                    rows[j] = [x // g for x in new] if g > 1 else new
        rows[rank] = top
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return rows[:rank], pivots


def _modulus(field: FieldTag) -> int:
    return field.p if isinstance(field, PrimeField) else 0


def _scalar_rows(rows: Sequence[Sequence[int]], pivots: Sequence[int], field: FieldTag) -> Matrix:
    """The canonical basis of eliminated rows: each row over its pivot entry."""
    if isinstance(field, PrimeField):
        return tuple(tuple(PrimeFieldScalar(x, field.p) for x in row) for row in rows)
    zero = Fraction(0)
    return tuple(
        tuple(Fraction(x, row[c]) if x else zero for x in row) for row, c in zip(rows, pivots)
    )


def rref(rows: Iterable[Sequence[Scalar]], width: int, field: FieldTag) -> Matrix:
    """Reduced row echelon form; zero rows dropped, pivots normalized to 1."""
    p = _modulus(field)
    reduced, pivots = _eliminate(_int_rows(rows, width, p), width, p)
    return _scalar_rows(reduced, pivots, field)


def _pivot_col(row: Sequence[Scalar], field: FieldTag) -> int:
    zero = field.zero()
    for c, x in enumerate(row):
        if x != zero:
            return c
    raise ValueError("zero row has no pivot")


@dataclass(frozen=True)
class Subspace:
    """A subspace of F^n in canonical (RREF) form.

    ``basis`` rows are linearly independent with pivot columns strictly
    increasing; the zero subspace has an empty basis.  Values are immutable
    and hashable; equality is subspace equality.
    """

    n: int
    field: FieldTag
    basis: Matrix

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The hash of the fields, computed once per value: the search keys
        its clause table by subspaces, and each basis entry hashes at Python
        level."""
        return hash((self.n, self.field, self.basis))

    @cached_property
    def _int_basis(self) -> tuple:
        """``basis`` as int rows (see ``_int_rows``), built once per value:
        ``intersection`` and ``dim_of_sum`` eliminate these, not ``basis``."""
        return tuple(map(tuple, _int_rows(self.basis, self.n, _modulus(self.field))))

    def __add__(self, other: "Subspace") -> "Subspace":
        """Subspace sum U + W."""
        _check_same_space(self, other)
        return canonicalize(self.n, self.field, self.basis + other.basis)

    def __and__(self, other: "Subspace") -> "Subspace":
        """Subspace intersection U & W."""
        return intersection(self, other)

    def contains_vector(self, v: Sequence[Scalar]) -> bool:
        return contains(self, v)

    def is_subspace_of(self, other: "Subspace") -> bool:
        _check_same_space(self, other)
        return all(contains(other, row) for row in self.basis)

    def __str__(self) -> str:
        rows = "; ".join(
            "(" + ", ".join(self.field.scalar_to_str(x) for x in row) + ")"
            for row in self.basis
        )
        return f"<dim {self.dim} of F^{self.n}: {rows or '0'}>"


def _check_same_space(u: Subspace, w: Subspace) -> None:
    if u.n != w.n or u.field != w.field:
        raise FieldMismatchError(
            f"ambient/field mismatch: F^{u.n} over {u.field} vs F^{w.n} over {w.field}"
        )


def canonicalize(n: int, field: FieldTag, rows: Iterable[Sequence[Scalar]]) -> Subspace:
    """Row space of ``rows`` in RREF; dependent and zero rows dropped."""
    if n < 0:
        raise ValueError(f"ambient dimension must be >= 0, got {n}")
    return Subspace(n, field, rref(rows, n, field))


def zero_subspace(n: int, field: FieldTag) -> Subspace:
    return Subspace(n, field, ())


def full_space(n: int, field: FieldTag) -> Subspace:
    return coordinate_subspace(n, field, range(1, n + 1))


def coordinate_subspace(n: int, field: FieldTag, coords: Iterable[int]) -> Subspace:
    """span{e_p : p in coords}, coords 1-based.  Already in RREF by construction."""
    zero, one = field.zero(), field.one()
    rows = []
    for p in sorted(set(coords)):
        if not 1 <= p <= n:
            raise ValueError(f"coordinate {p} outside [1, {n}]")
        row = [zero] * n
        row[p - 1] = one
        rows.append(tuple(row))
    return Subspace(n, field, tuple(rows))


def subspace_sum(u: Subspace, w: Subspace) -> Subspace:
    return u + w


def intersection(u: Subspace, w: Subspace) -> Subspace:
    """U ∩ W by Zassenhaus' algorithm: one elimination of [u | u] over [w | 0].

    Every row of the stack has the form (x + y, x) with x in U and y in W, and
    the rows whose left half is zero are exactly those with x = -y in U ∩ W.
    Since elimination runs in column order, those rows come last, and their
    right halves are already the reduced echelon basis of U ∩ W.
    """
    _check_same_space(u, w)
    if u.dim == 0 or w.dim == 0:
        return zero_subspace(u.n, u.field)
    n = u.n
    stacked = [row + row for row in u._int_basis]
    stacked += [row + (0,) * n for row in w._int_basis]
    reduced, pivots = _eliminate(stacked, 2 * n, _modulus(u.field))
    split = sum(c < n for c in pivots)
    meet = [row[n:] for row in reduced[split:]]
    return Subspace(n, u.field, _scalar_rows(meet, [c - n for c in pivots[split:]], u.field))


def component(u: Subspace, v_k: Subspace) -> Subspace:
    """U ∩ V_k, named for decomposition contexts."""
    return intersection(u, v_k)


def dim_of_sum(parts: Sequence[Subspace]) -> int:
    """dim(U_1 + ... + U_t) from one rank computation on the stacked bases."""
    if not parts:
        raise ValueError("dim_of_sum needs at least one subspace")
    first = parts[0]
    rows = []
    for part in parts:
        _check_same_space(first, part)
        rows.extend(part._int_basis)
    return len(_eliminate(rows, first.n, _modulus(first.field))[1])


def is_direct_sum(parts: Sequence[Subspace]) -> bool:
    """True iff dim(sum of parts) equals the sum of the dims."""
    return dim_of_sum(parts) == sum(p.dim for p in parts)


def contains(u: Subspace, v: Sequence[Scalar]) -> bool:
    """Membership by elimination against the RREF basis."""
    if len(v) != u.n:
        raise ValueError(f"vector of length {len(v)}, expected {u.n}")
    zero = u.field.zero()
    work = list(v)
    for row in u.basis:
        c = _pivot_col(row, u.field)
        if work[c] != zero:
            f = work[c]
            work = [a - f * b for a, b in zip(work, row)]
    return all(x == zero for x in work)


def extension_vector(v_k: Subspace, s: Subspace) -> Optional[Vector]:
    """First canonical basis row of ``v_k`` outside ``s``; None when s = v_k.

    Deterministic by construction, which makes saturation runs reproducible.
    Requires s ⊆ v_k.
    """
    _check_same_space(v_k, s)
    if not s.is_subspace_of(v_k):
        raise PreconditionError("extension_vector requires S contained in V_k")
    for row in v_k.basis:
        if not contains(s, row):
            return row
    return None


@dataclass(frozen=True)
class Decomposition:
    """A direct-sum decomposition V = V_1 ⊕ ... ⊕ V_r of the ambient space."""

    n: int
    field: FieldTag
    blocks: tuple[Subspace, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if not self.blocks:
            raise ValueError("decomposition needs at least one block")
        for b in self.blocks:
            if b.n != self.n or b.field != self.field:
                raise FieldMismatchError("decomposition block in wrong ambient space/field")
        total = sum(b.dim for b in self.blocks)
        if total != self.n:
            raise ValueError(f"block dims sum to {total}, ambient is {self.n}")
        if dim_of_sum(self.blocks) != self.n:
            raise ValueError("blocks are not independent: stacked rank below ambient dim")

    @property
    def r(self) -> int:
        return len(self.blocks)

    def block_dims(self) -> tuple[int, ...]:
        return tuple(b.dim for b in self.blocks)


def coordinate_decomposition(n: int, field: FieldTag, blocks: Sequence[Iterable[int]]) -> Decomposition:
    """Decomposition into coordinate subspaces spanned by the given 1-based index blocks."""
    return Decomposition(n, field, tuple(coordinate_subspace(n, field, b) for b in blocks))
