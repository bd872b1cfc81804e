"""Exact linear algebra: canonical subspaces and their lattice operations.

A subspace of an n-dimensional ambient space is stored as one tuple of
canonical ``int`` rows: its reduced row echelon basis, with strictly
increasing pivot columns, in integer form.  Over GF(p) a row is the RREF row
itself, residues in [0, p) with pivot 1; over QQ it is the RREF row scaled to
be primitive (gcd 1) with a positive pivot.  RREF is the unique canonical
representative of a row space, so structural equality and hashing of two
:class:`Subspace` values coincide with equality of the subspaces themselves,
and serialization is deterministic.  Beside its rows a value carries its
``dim`` and ``pivot_mask``, fixed when it is made, and its hash, computed on
first use; meets, components and clause tests read these on every call.

All arithmetic is exact and runs on these rows directly: over GF(p) on
residues mod p, over QQ fraction-free (Bareiss-style cross multiplication,
each new row divided by its gcd).  The layer builds no scalar objects: the
field tag writes a canonical row's RREF entries as text straight from the
ints (``format_row``).  :func:`intersection` uses Zassenhaus'
sum/intersection elimination of ``[u | u]`` over ``[w | 0]``, never
orthogonal complements (which are field-sensitive).  A subspace's components
in a decomposition come from one elimination of its rows in block
coordinates (:class:`Decomposition`), and from Zassenhaus only when the
subspace is not the direct sum of them.

Two certificates read sums and meets off the canonical rows exactly, with no
elimination.  Rows whose pivot columns (first nonzero entries) are pairwise
distinct are independent, so when the parts' pivot masks
(:attr:`Subspace.pivot_mask`) are pairwise disjoint, :func:`dim_of_sum` is
the sum of their dims.  A canonical row that two subspaces share is a
nonzero vector of both, so their meet is nontrivial and their sum is not
direct (:func:`share_a_row`).  Where neither settles a question, the rows
are eliminated.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Iterable, Optional, Sequence

from .errors import FieldMismatchError, Frozen, PreconditionError, ShapeError, check_sizes
from .exact_arith import FieldTag


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
    rows dropped.  Unchecked: the rows are the package's own, ``width`` ints
    each, residues over GF(p); outside rows enter by :func:`canonicalize`."""
    p = field.p
    return _canonical(*_eliminate(list(rows), width, p), p)


class Subspace(Frozen):
    """A subspace of F^n, stored as its canonical int rows (see the module
    docstring); the zero subspace has none.  Values are immutable and
    hashable; equality is subspace equality.

    ``dim`` and ``pivot_mask`` (bit c set for each pivot column c) are plain
    attributes, fixed when the value is made; the hash is computed on first
    use and kept: the search keys its clause table by subspaces.
    """

    _fields = ("n", "field", "rows")
    __slots__ = _fields + ("dim", "pivot_mask", "_hash")

    def __init__(self, n: int, field: FieldTag, rows: tuple[tuple[int, ...], ...]):
        mask = 0
        for row in rows:
            c = 0
            while not row[c]:  # a canonical row is never zero
                c += 1
            mask |= 1 << c
        init = object.__setattr__
        init(self, "n", n)
        init(self, "field", field)
        init(self, "rows", rows)
        init(self, "dim", len(rows))
        init(self, "pivot_mask", mask)
        init(self, "_hash", None)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not Subspace:
            return NotImplemented
        return (
            self.rows == other.rows
            and self.n == other.n
            and (self.field is other.field or self.field == other.field)
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.n, self.field, self.rows))
            object.__setattr__(self, "_hash", h)
        return h

    def __add__(self, other: "Subspace") -> "Subspace":
        """Subspace sum U + W."""
        _check_same_space(self, other)
        return Subspace(self.n, self.field, rref(self.rows + other.rows, self.n, self.field))

    def is_subspace_of(self, other: "Subspace") -> bool:
        _check_same_space(self, other)
        return all(contains(other, row) for row in self.rows)

    def __str__(self) -> str:
        rows = "; ".join("(" + ", ".join(self.field.format_row(row)) + ")" for row in self.rows)
        return f"<dim {self.dim} of F^{self.n}: {rows or '0'}>"


def _check_same_space(u: Subspace, w: Subspace) -> None:
    if u.n != w.n or (u.field is not w.field and u.field != w.field):
        raise FieldMismatchError(
            f"ambient/field mismatch: F^{u.n} over {u.field} vs F^{w.n} over {w.field}"
        )


def canonicalize(n: int, field: FieldTag, rows: Iterable[Sequence[int]]) -> Subspace:
    """Row space of ``rows`` in canonical form, checked: each row must hold
    n ints, over GF(p) any integers (taken mod p), over QQ a row with
    fractions times a common denominator; n must lie in the size range."""
    check_sizes({"n": n}, "")
    p = field.p
    work = []
    for row in rows:
        if len(row) != n:
            raise ShapeError(f"row of length {len(row)}, expected {n}")
        if not all(isinstance(x, int) for x in row):
            raise TypeError(f"rows must hold int entries, got {row!r}")
        work.append([x % p for x in row] if p else row)
    return Subspace(n, field, rref(work, n, field))


def zero_subspace(n: int, field: FieldTag) -> Subspace:
    check_sizes({"n": n}, "")
    return Subspace(n, field, ())


def full_space(n: int, field: FieldTag) -> Subspace:
    return coordinate_subspace(n, field, range(1, n + 1))


def coordinate_subspace(n: int, field: FieldTag, coords: Iterable[int]) -> Subspace:
    """span{e_p : p in coords}, coords 1-based.  Canonical by construction."""
    check_sizes({"n": n}, "")
    rows = []
    for p in sorted(set(coords)):
        if not 1 <= p <= n:
            raise ShapeError(f"coordinate {p} outside [1, {n}]")
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
        return Subspace(u.n, u.field, ())
    n = u.n
    p = u.field.p
    stacked = [row + row for row in u.rows]
    stacked += [row + (0,) * n for row in w.rows]
    reduced, pivots = _eliminate(stacked, 2 * n, p)
    split = sum(c < n for c in pivots)
    meet = [row[n:] for row in reduced[split:]]
    return Subspace(n, u.field, _canonical(meet, [c - n for c in pivots[split:]], p))


def dim_of_sum(parts: Sequence[Subspace]) -> int:
    """dim(U_1 + ... + U_t): the sum of the dims when the parts' pivot masks
    are pairwise disjoint, otherwise one rank computation on the stacked
    rows.  The sum of no parts is the zero space."""
    if not parts:
        return 0
    first = parts[0]
    seen = 0
    disjoint = True
    for part in parts:
        _check_same_space(first, part)
        mask = part.pivot_mask
        if mask & seen:
            disjoint = False
        seen |= mask
    if disjoint:
        return sum(part.dim for part in parts)
    rows = [row for part in parts for row in part.rows]
    return len(_eliminate(rows, first.n, first.field.p)[1])


def share_a_row(u: Subspace, w: Subspace) -> bool:
    """Whether U and W have a canonical row in common.  True certifies that
    U ∩ W is nontrivial and U + W is not direct; False settles nothing."""
    _check_same_space(u, w)
    rows = w.rows
    for row in u.rows:
        if row in rows:
            return True
    return False


def contains(u: Subspace, v: Sequence) -> bool:
    """Membership of the vector v: since each pivot column of U's rows is
    zero in the other rows, v lies in U iff it equals the combination of the
    rows weighted by its own pivot entries.  Over QQ, v may hold ints or
    fractions; over GF(p), ints."""
    if len(v) != u.n:
        raise ShapeError(f"vector of length {len(v)}, expected {u.n}")
    p = u.field.p
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


def _times(rows: Iterable[Sequence[int]], cols: Sequence[Sequence[int]], p: int) -> list[list[int]]:
    """The int rows times the matrix given by its columns, mod p over GF(p)."""
    out = [[sum(map(mul, row, col)) for col in cols] for row in rows]
    return [[x % p for x in row] for row in out] if p else out


class Decomposition(Frozen):
    """A direct-sum decomposition V = V_1 ⊕ ... ⊕ V_r of the ambient space.

    At construction the stacked canonical rows of the blocks, block 1's
    first, form an invertible matrix M, which is inverted once: over QQ as
    D·M⁻¹ in ints, D one common denominator, over GF(p) as M⁻¹ mod p.  A
    row times that inverse is the row in block coordinates (up to the factor
    D), where V_k is spanned by the unit vectors of the columns of block k.
    ``components(u)`` maps U's rows there and eliminates them once, n wide:
    when every eliminated row lies in the columns of one block, U is the
    direct sum of its blocks' parts, and block k's rows mapped back through
    M span U ∩ V_k.  Otherwise U is not decomposition-compatible, and each
    U ∩ V_k is a Zassenhaus :func:`intersection`.

    The components are memoized per subspace U in a dict that lives as long
    as this value: systems derived by ``with_tuples`` keep the same
    decomposition, so one saturation run computes each component once, and
    :meth:`record` enters the components of a subspace its caller built
    from known parts.  Neither the memo nor the inverse is a field: they take
    no part in equality, hashing or repr.
    """

    _fields = ("n", "field", "blocks")
    __slots__ = _fields + ("_components", "_inverse", "_ends")

    def __init__(self, n: int, field: FieldTag, blocks: tuple[Subspace, ...]):
        self._init(n, field, tuple(blocks))
        init = object.__setattr__
        init(self, "_components", {})
        for b in self.blocks:
            if b.n != self.n or b.field != self.field:
                raise FieldMismatchError("decomposition block in wrong ambient space/field")
        total = sum(b.dim for b in self.blocks)
        if total != self.n:
            raise ShapeError(f"block dims sum to {total}, ambient is {self.n}")
        # eliminate [M | I]: M is invertible iff every pivot falls in M, and
        # then row i is a_i (e_i | row i of M⁻¹)
        p = field.p
        rows = [row for b in self.blocks for row in b.rows]
        unit = [(0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)]
        reduced, pivots = _eliminate([row + e for row, e in zip(rows, unit)], 2 * n, p)
        if pivots != list(range(n)):
            raise ShapeError("blocks are not independent: stacked rank below ambient dim")
        scale = math.lcm(*[row[i] for i, row in enumerate(reduced)])
        inverse = [[x * (scale // row[i]) for x in row[n:]] for i, row in enumerate(reduced)]
        ends = []  # ends[c]: the end of the columns of the block owning column c
        for b in self.blocks:
            ends += [len(ends) + b.dim] * b.dim
        init(self, "_inverse", tuple(zip(*inverse)))  # by columns
        init(self, "_ends", ends)

    def components(self, u: Subspace) -> tuple[Subspace, ...]:
        """(U ∩ V_1, ..., U ∩ V_r), computed on the first call for U."""
        found = self._components.get(u)
        if found is None:
            found = self._components[u] = self._split(u)
        return found

    def _split(self, u: Subspace) -> tuple[Subspace, ...]:
        """U's components by one elimination in block coordinates, or by
        Zassenhaus when U is not the direct sum of its components."""
        blocks = self.blocks
        if not blocks:
            return ()
        _check_same_space(u, blocks[0])
        n, field, p = self.n, u.field, u.field.p
        reduced, pivots = _eliminate(_times(u.rows, self._inverse, p), n, p)
        ends = self._ends
        if any(any(row[ends[c] :]) for row, c in zip(reduced, pivots)):
            return tuple(intersection(u, blk) for blk in blocks)
        parts = []
        start = 0
        for blk in blocks:
            end = start + blk.dim
            mine = [row[start:end] for row, c in zip(reduced, pivots) if start <= c < end]
            if len(mine) == blk.dim:
                parts.append(blk)
            else:
                back = _times(mine, tuple(zip(*blk.rows)), p)
                parts.append(Subspace(n, field, rref(back, n, field)))
            start = end
        return tuple(parts)

    def record(self, u: Subspace, parts: tuple[Subspace, ...]) -> None:
        """Enter ``parts`` as U's components when their dims add up to
        dim U.  The caller vouches that part k lies in U ∩ V_k; the parts of
        independent blocks are independent, so then U is their direct sum
        and part k is all of U ∩ V_k.  Otherwise the memo is left alone."""
        if sum(part.dim for part in parts) == u.dim:
            self._components.setdefault(u, parts)


def coordinate_decomposition(n: int, field: FieldTag, blocks: Sequence[Iterable[int]]) -> Decomposition:
    """Decomposition into coordinate subspaces spanned by the given 1-based index blocks."""
    return Decomposition(n, field, tuple(coordinate_subspace(n, field, b) for b in blocks))
