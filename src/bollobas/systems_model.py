"""Ordered systems of d-tuples of sets or subspaces.

A system is an ordered list of d-tuples together with an optional context:
a partition of the ground set [n] for set systems, or a direct-sum
decomposition of the ambient space for subspace systems.  Order is part of
the value -- the skew conditions read differently under reordering -- so
systems are tuples, never sets, and equality is order-sensitive.

Subsets of [n] are stored as int bitmasks (bit p-1 <=> element p).  Tuple
indices in the public API are 1-based, matching the usual index set [m];
violation witnesses and fill-up steps use the same convention.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

# MAX_N and MAX_D are imported for callers that read the range from here
from .errors import MAX_D, MAX_N, Frozen, PartitionError, ShapeError, check_sizes
from .exact_arith import QQ, FieldTag
from .subspace_algebra import Decomposition, Subspace, coordinate_subspace


# ---------------------------------------------------------------------------
# bitmask helpers


def mask_from_elements(elements: Iterable[int], n: int) -> int:
    """Bitmask of the elements, each an int in [1, n]; anything else is
    refused, a bool too, though Python counts True as 1."""
    mask = 0
    for p in elements:
        if type(p) is not int or not 1 <= p <= n:
            raise ShapeError(f"element {p!r} outside [1, {n}]")
        mask |= 1 << (p - 1)
    return mask


def elements_of_mask(mask: int) -> tuple[int, ...]:
    out = []
    p = 1
    while mask:
        if mask & 1:
            out.append(p)
        mask >>= 1
        p += 1
    return tuple(out)


def _assigned_masks(assignment: Iterable[int], d: int) -> tuple[int, ...]:
    """The d part masks of an assignment whose p-th entry sends element p to
    part c in [1, d], or to no part when c is 0."""
    parts = [0] * (d + 1)
    for p, c in enumerate(assignment):
        parts[c] |= 1 << p
    del parts[0]  # the elements assigned to no part
    return tuple(parts)


# ---------------------------------------------------------------------------
# systems


class SetSystem(Frozen):
    """Ordered system of d-tuples of subsets of [n], with optional partition.

    ``tuples[i]`` is a d-tuple of bitmasks.  ``partition`` is a tuple of block
    bitmasks that are disjoint with union [n].  Duplicate tuples are
    representable; the verifiers reject them through the cross clauses.
    """

    __slots__ = _fields = ("n", "d", "tuples", "partition")

    def __init__(
        self,
        n: int,
        d: int,
        tuples: tuple[tuple[int, ...], ...],
        partition: tuple[int, ...] | None = None,
    ):
        check_sizes({"n": n, "d": d}, "")
        self._init(n, d, tuple(tuple(t) for t in tuples), None if partition is None else tuple(partition))
        full = (1 << self.n) - 1
        for t in self.tuples:
            if len(t) != self.d:
                raise ShapeError(f"tuple arity {len(t)} != d={self.d}")
            for mask in t:
                if mask < 0 or mask & ~full:
                    raise ShapeError(f"subset mask {mask} outside ground set [1, {self.n}]")
        if self.partition is not None:
            union = 0
            for k, b in enumerate(self.partition):
                if b & union:
                    raise PartitionError("blocks overlap", k)
                union |= b
            if union != full:
                raise PartitionError("blocks do not cover [n]")

    @property
    def m(self) -> int:
        return len(self.tuples)

    @classmethod
    def from_sets(
        cls,
        n: int,
        tuples: Iterable[Sequence[Iterable[int]]],
        partition: Iterable[Iterable[int]] | None = None,
        d: int | None = None,
    ) -> "SetSystem":
        """Build from element collections instead of raw masks."""
        packed = tuple(
            tuple(mask_from_elements(part, n) for part in t) for t in tuples
        )
        if d is None:
            if not packed:
                raise ShapeError("empty system needs an explicit arity d")
            d = len(packed[0])
        blocks = None
        if partition is not None:
            blocks = tuple(mask_from_elements(b, n) for b in partition)
        return cls(n, d, packed, blocks)


class SubspaceSystem(Frozen):
    """Ordered system of d-tuples of subspaces, with optional decomposition."""

    __slots__ = _fields = ("n", "field", "d", "tuples", "decomposition")

    def __init__(
        self,
        n: int,
        field: FieldTag,
        d: int,
        tuples: tuple[tuple[Subspace, ...], ...],
        decomposition: Decomposition | None = None,
    ):
        check_sizes({"n": n, "d": d}, "")
        self._init(n, field, d, tuple(tuple(t) for t in tuples), decomposition)
        for t in self.tuples:
            if len(t) != self.d:
                raise ShapeError(f"tuple arity {len(t)} != d={self.d}")
            for sub in t:
                if sub.n != self.n or sub.field != self.field:
                    raise ShapeError("subspace in wrong ambient space or field")
        if self.decomposition is not None:
            if self.decomposition.n != self.n or self.decomposition.field != self.field:
                raise ShapeError("decomposition in wrong ambient space or field")

    @property
    def m(self) -> int:
        return len(self.tuples)


System = Union[SetSystem, SubspaceSystem]


def with_tuples(system: System, tuples) -> System:
    """Same system with the tuple list replaced (context kept)."""
    if isinstance(system, SetSystem):
        return SetSystem(system.n, system.d, tuples, system.partition)
    return SubspaceSystem(system.n, system.field, system.d, tuples, system.decomposition)


def blocks_of(system: System) -> tuple | None:
    """The block masks of a set system's partition, or the block subspaces
    of a subspace system's decomposition; None when it has neither."""
    if isinstance(system, SetSystem):
        return system.partition
    return None if system.decomposition is None else system.decomposition.blocks


def sizes_of(t: tuple) -> tuple[int, ...]:
    """Sizes (or dims) of the components of one set or subspace tuple, or of
    a system's blocks."""
    if t and isinstance(t[0], int):
        return tuple(map(int.bit_count, t))
    return tuple(x.dim for x in t)


def require_pairs(d: int, what: str) -> None:
    """Refuse an arity other than 2 for ``what``, a reader of pair systems."""
    if d != 2:
        raise ShapeError(f"{what} needs a pair system, arity is {d}")


def block_profiles(system: System) -> tuple[tuple, tuple]:
    """A pair system's blocks (as :func:`blocks_of` gives them) and each
    tuple's per-block profile ((a_1, b_1), ..., (a_r, b_r)), in tuple order.
    A system of another arity, or with no partition or decomposition, is
    refused whether or not it has tuples."""
    require_pairs(system.d, "block profile")
    blocks = blocks_of(system)
    if blocks is None:
        context = "partition" if isinstance(system, SetSystem) else "decomposition"
        raise ShapeError(f"needs a {context}")
    if isinstance(system, SetSystem):
        return blocks, tuple(
            tuple(((a & blk).bit_count(), (b & blk).bit_count()) for blk in blocks)
            for a, b in system.tuples
        )
    components = system.decomposition.components
    return blocks, tuple(
        tuple((a_k.dim, b_k.dim) for a_k, b_k in zip(components(a), components(b)))
        for a, b in system.tuples
    )


# ---------------------------------------------------------------------------
# canonical embedding of set systems into coordinate-subspace systems


def embed(set_system: SetSystem) -> SubspaceSystem:
    """Map each subset S to span{e_p : p in S} over the rationals.

    Sizes become dimensions exactly (|A ∩ X_k| = dim(A' ∩ V_k)), the partition
    becomes the coordinate decomposition, and order is preserved, so every
    verifier verdict and weight value carries over unchanged.
    """
    n = set_system.n
    tuples = tuple(
        tuple(coordinate_subspace(n, QQ, elements_of_mask(mask)) for mask in t)
        for t in set_system.tuples
    )
    decomposition = None
    if set_system.partition is not None:
        decomposition = Decomposition(
            n,
            QQ,
            tuple(
                coordinate_subspace(n, QQ, elements_of_mask(b))
                for b in set_system.partition
            ),
        )
    return SubspaceSystem(n, QQ, set_system.d, tuples, decomposition)


def is_decomposition_compatible(system: SubspaceSystem) -> bool:
    """True iff every subspace equals the direct sum of its block components.

    Components of distinct blocks are independent because the blocks are, and
    their sum always sits inside the subspace, so equality holds exactly when
    the component dimensions add up to the subspace dimension.
    """
    if system.decomposition is None:
        raise ShapeError("no decomposition attached")
    components = system.decomposition.components
    for t in system.tuples:
        for sub in t:
            if sum(c.dim for c in components(sub)) != sub.dim:
                return False
    return True
