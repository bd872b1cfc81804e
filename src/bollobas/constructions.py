"""Generators for the equality-achieving families.

Each family is tight for one of the inequalities, which makes them the
fixtures every functional is tested against:

* ``uniform_bollobas(a, b)``: all C(a+b, a) pairs (S, complement), |S| = a,
  on ground [a+b]; a bollobas system with bollobas_sum exactly 1.
* ``complement_chain(n)``: all 2^n pairs (S, [n] \\ S) ordered by
  non-increasing |S|; skew, with yue_sum = 1 and hegedus_frankl_sum = n + 1.
  Reversing the order breaks skew verification -- order is load-bearing.
* ``partitioned_complement_chain(n, blocks)``: the same pairs with a declared
  partition; partitioned_yue_sum = 1.
* ``full_tuza_tuples(n, d)``: all d^n ordered partitions of [n] into d
  labelled (possibly empty) parts; weak, with tuza_sum = 1 for every p.

Within equal |S| the chain breaks ties lexicographically.  Any within-size
order is skew-valid, but a fixed one keeps fixtures byte-stable.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Iterable, Sequence

from .errors import DEFAULT_TUPLE_BUDGET, BudgetError, ShapeError, check_sizes
from .exact_arith import binomial
from .systems_model import SetSystem, System, elements_of_mask, embed, mask_from_elements


def _guard(count: int) -> None:
    if count > DEFAULT_TUPLE_BUDGET:
        raise BudgetError(
            f"family would have {count} tuples, budget is {DEFAULT_TUPLE_BUDGET}"
        )


def uniform_bollobas(a: int, b: int) -> SetSystem:
    """All a-subsets of [a+b] paired with their complements, in lex order."""
    check_sizes({"a": a, "b": b, "a+b": a + b}, "")
    n = a + b
    _guard(binomial(n, a))
    full = (1 << n) - 1
    tuples = []
    for chosen in combinations(range(1, n + 1), a):
        s = mask_from_elements(chosen, n)
        tuples.append((s, full & ~s))
    return SetSystem(n, 2, tuple(tuples))


def _chain_masks(n: int) -> list[int]:
    """All subsets of [n], non-increasing size, lexicographic within a size."""
    masks = list(range(1 << n))
    masks.sort(key=lambda s: (-s.bit_count(), elements_of_mask(s)))
    return masks


def complement_chain(n: int) -> SetSystem:
    check_sizes({"n": n}, "")
    _guard(1 << n)
    full = (1 << n) - 1
    tuples = tuple((s, full & ~s) for s in _chain_masks(n))
    return SetSystem(n, 2, tuples)


def partitioned_complement_chain(n: int, blocks: Sequence[Iterable[int]]) -> SetSystem:
    chain = complement_chain(n)
    partition = tuple(mask_from_elements(b, n) for b in blocks)
    return SetSystem(n, 2, chain.tuples, partition)


def full_tuza_tuples(n: int, d: int) -> SetSystem:
    """All d^n assignments of [n] onto d labelled parts, assignment-lex order."""
    check_sizes({"n": n, "d": d}, "")
    _guard(d**n)
    tuples = []
    for assignment in product(range(d), repeat=n):
        parts = [0] * d
        for p, coord in enumerate(assignment, start=1):
            parts[coord] |= 1 << (p - 1)
        tuples.append(tuple(parts))
    return SetSystem(n, d, tuple(tuples))


_FAMILIES = {
    f.__name__: f
    for f in (uniform_bollobas, complement_chain, partitioned_complement_chain, full_tuza_tuples)
}
# each family's required parameters, in its signature's order
FAMILY_PARAMS = {name: f.__code__.co_varnames[: f.__code__.co_argcount] for name, f in _FAMILIES.items()}
FAMILY_NAMES = tuple(FAMILY_PARAMS)


def construct(name: str, params: dict, embedded: bool = False) -> System:
    """Dispatch a family by name; the CLI entry point for fixtures.  A param
    the family does not take is refused; ``embedded`` maps the result
    through the coordinate-subspace embedding."""
    if name not in FAMILY_PARAMS:
        raise ShapeError(f"unknown family {name!r}; choose from {FAMILY_NAMES}")
    missing = [key for key in FAMILY_PARAMS[name] if key not in params]
    if missing:
        raise ShapeError(f"family {name!r} needs params {', '.join(missing)}")
    unknown = [key for key in params if key not in FAMILY_PARAMS[name]]
    if unknown:
        raise ShapeError(f"family {name!r} takes no params {', '.join(unknown)}")
    system = _FAMILIES[name](**params)
    if embedded:
        assert isinstance(system, SetSystem)
        return embed(system)
    return system
