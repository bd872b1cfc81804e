"""Exact linear algebra: canonical subspaces and their lattice operations.

A subspace of an n-dimensional ambient space is stored as one tuple of
canonical ``int`` rows: its reduced row echelon basis, with strictly
increasing pivot columns, in integer form.  Over GF(p) a row is the RREF row
itself, residues in [0, p) with pivot 1; over QQ it is the RREF row scaled to
be primitive (gcd 1) with a positive pivot.  RREF is the unique canonical
representative of a row space, so structural equality and hashing of two
:class:`Subspace` values coincide with equality of the subspaces themselves,
and serialization is deterministic.

All arithmetic is exact and runs on these rows directly: over GF(p) on
residues mod p, over QQ fraction-free (Bareiss-style cross multiplication,
each new row divided by its gcd).  The scalar basis -- ``Fraction`` entries
over QQ, ``int`` residues over GF(p) -- is a view derived on demand for
serialization and display.  Intersections use Zassenhaus' sum/intersection
elimination of ``[u | u]`` over ``[w | 0]``, never orthogonal complements
(which are field-sensitive).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import FieldMismatchError, PreconditionError
from .exact_arith import FieldTag, PrimeField


def _eliminate(rows: list[Sequence[int]], width: int, p: int) -> tuple[list[Sequence[int]], list[int]]:
    """Gauss-Jordan elimination of int rows in column order.

    Returns the nonzero rows in echelon order and their pivot columns; every
    pivot column is zero in all other rows, so each row is a multiple of its
    RREF row.  Over GF(p) the rows must hold residues, and each pivot comes
    out 1; over QQ a row may keep a common factor or a negative pivot, which
    :func:`_canonical` removes.  The list is reordered and its rows replaced,
    but no row is changed in place, so rows may be shared with a subspace.
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


def _canonical(rows: Sequence[Sequence[int]], pivots: Sequence[int], p: int) -> tuple:
    """Eliminated rows in canonical form: over GF(p) as they are; over QQ
    each divided by the gcd of its entries, signed to a positive pivot."""
    if p:
        return tuple(map(tuple, rows))
    out = []
    for row, c in zip(rows, pivots):
        g = math.gcd(*row)
        if row[c] < 0:
            g = -g
        out.append(tuple(x // g for x in row) if g != 1 else tuple(row))
    return tuple(out)


def rref(rows: Iterable[Sequence[int]], width: int, field: FieldTag) -> tuple:
    """Canonical int rows of the row space of ``rows``, zero and dependent
    rows dropped.  Entries must be ints (``TypeError`` otherwise): over GF(p)
    any integers, taken mod p; over QQ a row with fractions is given times a
    common denominator."""
    p = _modulus(field)
    work = []
    for row in rows:
        if len(row) != width:
            raise ValueError(f"row of length {len(row)}, expected {width}")
        if not all(isinstance(x, int) for x in row):
            raise TypeError(f"rows must hold int entries, got {row!r}")
        work.append([x % p for x in row] if p else row)
    return _canonical(*_eliminate(work, width, p), p)


@dataclass(frozen=True)
class Subspace:
    """A subspace of F^n, stored as its canonical int rows (see the module
    docstring); the zero subspace has none.  Values are immutable and
    hashable; equality is subspace equality."""

    n: int
    field: FieldTag
    rows: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The hash of the fields, computed once per value: the search keys
        its clause table by subspaces."""
        return hash((self.n, self.field, self.rows))

    @cached_property
    def basis(self) -> tuple:
        """The RREF basis as scalars: each row over its pivot as ``Fraction``
        entries over QQ, the rows themselves (int residues) over GF(p)."""
        if isinstance(self.field, PrimeField):
            return self.rows
        zero = Fraction(0)
        out = []
        for row in self.rows:
            pivot = next(x for x in row if x)
            out.append(tuple(Fraction(x, pivot) if x else zero for x in row))
        return tuple(out)

    def __add__(self, other: "Subspace") -> "Subspace":
        """Subspace sum U + W."""
        _check_same_space(self, other)
        return canonicalize(self.n, self.field, self.rows + other.rows)

    def __and__(self, other: "Subspace") -> "Subspace":
        """Subspace intersection U & W."""
        return intersection(self, other)

    def is_subspace_of(self, other: "Subspace") -> bool:
        _check_same_space(self, other)
        return all(contains(other, row) for row in self.rows)

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


def canonicalize(n: int, field: FieldTag, rows: Iterable[Sequence[int]]) -> Subspace:
    """Row space of the int ``rows`` (see :func:`rref`) in canonical form."""
    if n < 0:
        raise ValueError(f"ambient dimension must be >= 0, got {n}")
    return Subspace(n, field, rref(rows, n, field))


def zero_subspace(n: int, field: FieldTag) -> Subspace:
    return Subspace(n, field, ())


def full_space(n: int, field: FieldTag) -> Subspace:
    return coordinate_subspace(n, field, range(1, n + 1))


def coordinate_subspace(n: int, field: FieldTag, coords: Iterable[int]) -> Subspace:
    """span{e_p : p in coords}, coords 1-based.  Canonical by construction."""
    rows = []
    for p in sorted(set(coords)):
        if not 1 <= p <= n:
            raise ValueError(f"coordinate {p} outside [1, {n}]")
        rows.append((0,) * (p - 1) + (1,) + (0,) * (n - p))
    return Subspace(n, field, tuple(rows))


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
    p = _modulus(u.field)
    stacked = [row + row for row in u.rows]
    stacked += [row + (0,) * n for row in w.rows]
    reduced, pivots = _eliminate(stacked, 2 * n, p)
    split = sum(c < n for c in pivots)
    meet = [row[n:] for row in reduced[split:]]
    return Subspace(n, u.field, _canonical(meet, [c - n for c in pivots[split:]], p))


def component(u: Subspace, v_k: Subspace) -> Subspace:
    """U ∩ V_k, named for decomposition contexts."""
    return intersection(u, v_k)


def dim_of_sum(parts: Sequence[Subspace]) -> int:
    """dim(U_1 + ... + U_t) from one rank computation on the stacked rows."""
    if not parts:
        raise ValueError("dim_of_sum needs at least one subspace")
    first = parts[0]
    rows = []
    for part in parts:
        _check_same_space(first, part)
        rows.extend(part.rows)
    return len(_eliminate(rows, first.n, _modulus(first.field))[1])


def is_direct_sum(parts: Sequence[Subspace]) -> bool:
    """True iff dim(sum of parts) equals the sum of the dims."""
    return dim_of_sum(parts) == sum(p.dim for p in parts)


def contains(u: Subspace, v: Sequence) -> bool:
    """Membership of the vector v: since each pivot column of U's rows is
    zero in the other rows, v lies in U iff it equals the combination of the
    rows weighted by its own pivot entries.  Over QQ, v may hold ints or
    fractions; over GF(p), ints."""
    if len(v) != u.n:
        raise ValueError(f"vector of length {len(v)}, expected {u.n}")
    p = _modulus(u.field)
    pivots = [next(c for c, x in enumerate(row) if x) for row in u.rows]
    # over QQ the rows are scaled by their pivot entries; clear those
    scale = math.lcm(*[row[c] for row, c in zip(u.rows, pivots)])
    work = [scale * x for x in v]
    for row, c in zip(u.rows, pivots):
        f = v[c] * (scale // row[c])
        if f:
            work = [a - f * b for a, b in zip(work, row)]
    return not any(x % p if p else x for x in work)


def extension_vector(v_k: Subspace, s: Subspace) -> Optional[tuple[int, ...]]:
    """First canonical row of ``v_k`` outside ``s``; None when s = v_k.

    Deterministic by construction, which makes saturation runs reproducible.
    Requires s ⊆ v_k.
    """
    _check_same_space(v_k, s)
    if not s.is_subspace_of(v_k):
        raise PreconditionError("extension_vector requires S contained in V_k")
    for row in v_k.rows:
        if not contains(s, row):
            return row
    return None


@dataclass(frozen=True)
class Decomposition:
    """A direct-sum decomposition V = V_1 ⊕ ... ⊕ V_r of the ambient space.

    ``components(u)`` memoizes (U ∩ V_1, ..., U ∩ V_r) per subspace U in a
    dict that lives as long as this value: systems derived by
    ``with_tuples``/``replace`` keep the same decomposition, so one
    saturation run computes each component once.  The memo takes no part in
    equality, hashing or repr.
    """

    n: int
    field: FieldTag
    blocks: tuple[Subspace, ...]
    _components: dict = dataclasses.field(
        default_factory=dict, init=False, compare=False, hash=False, repr=False
    )

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

    def components(self, u: Subspace) -> tuple[Subspace, ...]:
        """(U ∩ V_1, ..., U ∩ V_r), computed on the first call for U."""
        found = self._components.get(u)
        if found is None:
            found = self._components[u] = tuple(component(u, blk) for blk in self.blocks)
        return found


def coordinate_decomposition(n: int, field: FieldTag, blocks: Sequence[Iterable[int]]) -> Decomposition:
    """Decomposition into coordinate subspaces spanned by the given 1-based index blocks."""
    return Decomposition(n, field, tuple(coordinate_subspace(n, field, b) for b in blocks))
