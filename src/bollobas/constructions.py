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

from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, Sequence

from .errors import BudgetError, ShapeError
from .exact_arith import binomial
from .systems_model import SetSystem, System, elements_of_mask, embed, mask_from_elements

DEFAULT_TUPLE_BUDGET = 4096

# each family's required parameters, in its signature's order
FAMILY_PARAMS = {
    "uniform_bollobas": ("a", "b"),
    "complement_chain": ("n",),
    "partitioned_complement_chain": ("n", "blocks"),
    "full_tuza_tuples": ("n", "d"),
}
FAMILY_NAMES = tuple(FAMILY_PARAMS)


@dataclass(frozen=True)
class FamilyKind:
    """A family name with its parameters; ``embedded`` maps the result through
    the coordinate-subspace embedding."""

    name: str
    params: tuple[tuple[str, object], ...]
    embedded: bool = False


def _guard(count: int, budget: int) -> None:
    if count > budget:
        raise BudgetError(f"family would have {count} tuples, budget is {budget}")


def uniform_bollobas(a: int, b: int, budget: int = DEFAULT_TUPLE_BUDGET) -> SetSystem:
    """All a-subsets of [a+b] paired with their complements, in lex order."""
    if a < 0 or b < 0:
        raise ValueError("parameters must be nonnegative")
    n = a + b
    _guard(binomial(n, a), budget)
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


def complement_chain(n: int, budget: int = DEFAULT_TUPLE_BUDGET) -> SetSystem:
    if n < 0:
        raise ValueError("n must be nonnegative")
    _guard(1 << n, budget)
    full = (1 << n) - 1
    tuples = tuple((s, full & ~s) for s in _chain_masks(n))
    return SetSystem(n, 2, tuples)


def partitioned_complement_chain(
    n: int, blocks: Sequence[Iterable[int]], budget: int = DEFAULT_TUPLE_BUDGET
) -> SetSystem:
    chain = complement_chain(n, budget)
    partition = tuple(mask_from_elements(b, n) for b in blocks)
    return SetSystem(n, 2, chain.tuples, partition)


def full_tuza_tuples(n: int, d: int, budget: int = DEFAULT_TUPLE_BUDGET) -> SetSystem:
    """All d^n assignments of [n] onto d labelled parts, assignment-lex order."""
    if n < 0 or d < 1:
        raise ValueError("need n >= 0 and d >= 1")
    _guard(d**n, budget)
    tuples = []
    for assignment in product(range(d), repeat=n):
        parts = [0] * d
        for p, coord in enumerate(assignment, start=1):
            parts[coord] |= 1 << (p - 1)
        tuples.append(tuple(parts))
    return SetSystem(n, d, tuple(tuples))


def construct(kind: FamilyKind | str, budget: int = DEFAULT_TUPLE_BUDGET, **params) -> System:
    """Dispatch a family by name; the CLI entry point for fixtures."""
    if isinstance(kind, FamilyKind):
        params = dict(kind.params)
        embedded = kind.embedded
        name = kind.name
    else:
        name = kind
        embedded = bool(params.pop("embedded", False))
    missing = [key for key in FAMILY_PARAMS.get(name, ()) if key not in params]
    if missing:
        raise ShapeError(f"family {name!r} needs params {', '.join(missing)}")
    if name == "uniform_bollobas":
        system: System = uniform_bollobas(params["a"], params["b"], budget)
    elif name == "complement_chain":
        system = complement_chain(params["n"], budget)
    elif name == "partitioned_complement_chain":
        system = partitioned_complement_chain(params["n"], params["blocks"], budget)
    elif name == "full_tuza_tuples":
        system = full_tuza_tuples(params["n"], params["d"], budget)
    else:
        raise ValueError(f"unknown family {name!r}; choose from {FAMILY_NAMES}")
    if embedded:
        assert isinstance(system, SetSystem)
        return embed(system)
    return system
