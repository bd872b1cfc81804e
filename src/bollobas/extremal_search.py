"""Desk-scale exhaustive and randomized search over small grounds.

The depth-first search extends a sequence of tuples one position at a time.
Appending T after an existing sequence only requires the cross clauses
between each existing index and the new last index, because the skew and weak
conditions constrain ordered index pairs i < j and a prefix never changes.
For the weak and bollobas flavors clause (ii) is symmetric (respectively
two-sided), so validity is order-independent and the search restricts to
candidate-index-increasing sequences; the skew flavor explores orders.

Candidates stream in a fixed canonical order -- assignment-lexicographic for
set tuples, (dim, pivot columns, free entries) for GF(p) subspaces -- which
makes results deterministic across runs and platforms.

Weight pruning for the maximum-size objective uses a licensed inequality:
the tuza sum at uniform p is at most 1 on every weak set system, hence on
every system the set search can build.  No theorem covers GF(p) grounds, so
weight pruning never applies there.  A budget-exhausted search returns its
best-found value with the exhaustive flag cleared, never an error.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Iterator, Sequence

from .errors import BudgetError, PreconditionError, ShapeError
from .exact_arith import (
    QQ,
    FieldTag,
    PrimeField,
    ProbabilityVector,
    Rational,
    RationalField,
    binomial,
)
from .subspace_algebra import (
    Subspace,
    canonicalize,
    coordinate_decomposition,
    coordinate_subspace,
    intersection,
    zero_subspace,
)
from .systems_model import SetSystem, SubspaceSystem, System, mask_size
from .verifiers import (
    component_clause_ok,
    cross_nontrivial,
    skew_clause_ok,
    weak_clause_ok,
)
from .weight_functionals import FunctionalKind, omega, tuza

DEFAULT_NODE_BUDGET = 200_000
DEFAULT_SET_GUARD = 6
DEFAULT_GF_GUARD = 4
# most subspaces an exhaustive GF(p) lattice may have (GF(7)^4 has 3652)
GF_LATTICE_GUARD = 10_000

OBJECTIVES = ("max_m", "max_weight", "counterexample")


@dataclass(frozen=True)
class SearchProblem:
    """A search space (ground, arity, condition) plus objective and limits."""

    kind: str  # "set" | "subspace"
    n: int
    d: int
    flavor: str  # "bollobas" | "skew" | "weak"
    objective: str = "max_m"
    functional: FunctionalKind | None = None
    field: FieldTag | None = None
    uniform_sizes: tuple[int, ...] | None = None
    node_budget: int = DEFAULT_NODE_BUDGET
    prune: bool = True
    set_guard: int = DEFAULT_SET_GUARD
    gf_guard: int = DEFAULT_GF_GUARD

    def __post_init__(self):
        if self.kind not in ("set", "subspace"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.node_budget <= 0:
            raise ValueError("node budget must be positive")
        if self.kind == "subspace" and self.field is None:
            raise ShapeError("subspace search needs a field")
        if self.objective in ("max_weight", "counterexample") and self.functional is None:
            raise ShapeError(f"{self.objective} needs a functional")
        if self.objective == "counterexample" and not self._counterexample_allowed():
            raise PreconditionError(
                "counterexample search is only meaningful where no theorem "
                "licenses the bound: weak subspace systems, or any condition "
                "over a prime field"
            )

    def _counterexample_allowed(self) -> bool:
        if isinstance(self.field, PrimeField):
            return True
        return self.kind == "subspace" and self.flavor == "weak"


@dataclass(frozen=True)
class SearchResult:
    """Best value found, a witness system realizing it, and whether the
    search provably covered the space."""

    best_value: Rational | int
    witness: System | None
    nodes: int
    exhaustive: bool


# ---------------------------------------------------------------------------
# candidate enumeration


def enumerate_set_candidates(
    n: int, d: int, guard: int = DEFAULT_SET_GUARD
) -> Iterator[tuple[int, ...]]:
    """All (d+1)^n tuples of pairwise-disjoint subsets of [n], streamed in
    assignment-lexicographic order (coordinate 0 means unused)."""
    if n > guard:
        raise BudgetError(f"set ground n={n} above exhaustive guard {guard}")
    for assignment in product(range(d + 1), repeat=n):
        parts = [0] * d
        for p, coord in enumerate(assignment, start=1):
            if coord:
                parts[coord - 1] |= 1 << (p - 1)
        yield tuple(parts)


def all_subspaces(n: int, field: PrimeField, guard: int = DEFAULT_GF_GUARD) -> tuple[Subspace, ...]:
    """Every subspace of GF(p)^n, by dim, then pivot columns, then free entries."""
    if not isinstance(field, PrimeField):
        raise ShapeError("subspace enumeration needs a prime field")
    if n > guard:
        raise BudgetError(f"GF ground n={n} above exhaustive guard {guard}")
    size = subspace_count(n, field.p)
    if size > GF_LATTICE_GUARD:
        raise BudgetError(
            f"GF({field.p})^{n} has {size} subspaces, above the lattice guard {GF_LATTICE_GUARD}"
        )
    residues = [field.from_int(v) for v in range(field.p)]
    zero, one = field.zero(), field.one()
    out: list[Subspace] = []
    for k in range(n + 1):
        for pivots in combinations(range(n), k):
            pivot_set = set(pivots)
            free_positions = [
                (i, c)
                for i in range(k)
                for c in range(pivots[i] + 1, n)
                if c not in pivot_set
            ]
            for values in product(residues, repeat=len(free_positions)):
                rows = [[zero] * n for _ in range(k)]
                for i, c in enumerate(pivots):
                    rows[i][c] = one
                for (i, c), v in zip(free_positions, values):
                    rows[i][c] = v
                out.append(Subspace(n, field, tuple(tuple(r) for r in rows)))
    return tuple(out)


def subspace_count(n: int, q: int) -> int:
    """Number of subspaces of GF(q)^n: the sum over k of the Gaussian
    binomials [n, k]_q, each built as an exact running product."""
    total = 0
    for k in range(n + 1):
        term = 1
        for i in range(k):
            term = term * (q ** (n - i) - 1) // (q ** (i + 1) - 1)
        total += term
    return total


def enumerate_subspace_candidates(
    n: int, field: PrimeField, d: int, guard: int = DEFAULT_GF_GUARD
) -> Iterator[tuple[Subspace, ...]]:
    """All clause-(i)-valid d-tuples over the GF(p) subspace lattice, in
    product order over the canonical subspace list."""
    lattice = all_subspaces(n, field, guard)
    for t in product(lattice, repeat=d):
        if sum(s.dim for s in t) <= n and component_clause_ok(t):
            yield t


def enumerate_candidates(problem: SearchProblem) -> Iterator[tuple]:
    if problem.kind == "set":
        candidates: Iterator[tuple] = enumerate_set_candidates(
            problem.n, problem.d, problem.set_guard
        )
    else:
        if not isinstance(problem.field, PrimeField):
            raise ShapeError(
                "exhaustive subspace search needs a prime field; over the "
                "rationals use the randomized explorer"
            )
        candidates = enumerate_subspace_candidates(
            problem.n, problem.field, problem.d, problem.gf_guard
        )
    if problem.uniform_sizes is None:
        yield from candidates
        return
    wanted = tuple(problem.uniform_sizes)
    for t in candidates:
        if _sizes_of(t) == wanted:
            yield t


def _sizes_of(t: tuple) -> tuple[int, ...]:
    return tuple(mask_size(x) if isinstance(x, int) else x.dim for x in t)


# ---------------------------------------------------------------------------
# depth-first search


def _cross_ok(flavor: str, existing: Sequence[tuple], t: tuple) -> bool:
    """Clauses between every existing index and the appended last index."""
    if flavor == "bollobas":
        return all(
            cross_nontrivial(ti[0], t[1]) and cross_nontrivial(t[0], ti[1])
            for ti in existing
        )
    clause = skew_clause_ok if flavor == "skew" else weak_clause_ok
    return all(clause(ti, t) for ti in existing)


def _tuple_term(t: tuple, functional: FunctionalKind) -> Fraction:
    """Per-tuple weight term; every supported functional is a sum of these."""
    name = functional.name
    sizes = _sizes_of(t)
    if name == "tuza_sum":
        assert functional.p is not None
        term = Fraction(1)
        for p_l, s in zip(functional.p.entries, sizes):
            term *= p_l**s
        return term
    if len(t) != 2:
        raise ShapeError(f"{name} needs pair tuples")
    a, b = sizes
    if name in ("bollobas_sum", "scott_wilmer_sum"):
        return Fraction(1, binomial(a + b, a))
    if name == "hegedus_frankl_sum":
        return Fraction(1, binomial(a + b, b))
    if name == "yue_sum":
        return Fraction(1, (1 + a + b) * binomial(a + b, a))
    raise ShapeError(f"search cannot decompose {name} into per-tuple terms")


def _make_system(problem: SearchProblem, tuples: Sequence[tuple]) -> System:
    if problem.kind == "set":
        return SetSystem(problem.n, problem.d, tuple(tuples))
    assert problem.field is not None
    return SubspaceSystem(problem.n, problem.field, problem.d, tuple(tuples))


def search_max(problem: SearchProblem) -> SearchResult:
    """Deterministic DFS for the problem's objective.

    The optimum carries ``exhaustive=True`` when the space was fully covered
    within the node budget.  Witnesses are the first optimum reached in
    canonical order.  A counterexample search stops at the first system whose
    functional value exceeds 1.
    """
    candidates = tuple(enumerate_candidates(problem))
    order_free = problem.flavor in ("weak", "bollobas")

    objective_terms: list[Fraction] | None = None
    max_term = Fraction(0)
    if problem.objective in ("max_weight", "counterexample"):
        assert problem.functional is not None
        objective_terms = [_tuple_term(t, problem.functional) for t in candidates]
        if objective_terms:
            max_term = max(objective_terms)

    # licensed weight prune for max_m: uniform tuza is <= 1 on weak set systems
    prune_terms: list[Fraction] | None = None
    prune_min: Fraction | None = None
    if problem.objective == "max_m" and problem.prune and problem.kind == "set" and candidates:
        uniform = tuza(ProbabilityVector.uniform(problem.d))
        prune_terms = [_tuple_term(t, uniform) for t in candidates]
        prune_min = min(prune_terms)

    best_value: Rational | int = 0 if problem.objective == "max_m" else Fraction(0)
    best_witness: list[int] = []
    cex_witness: list[int] | None = None
    nodes = 0
    budget_exhausted = False

    chosen: list[int] = []
    chosen_tuples: list[tuple] = []
    used = [False] * len(candidates)
    unused_count = len(candidates)

    def dfs(obj_weight: Fraction, prune_weight: Fraction) -> bool:
        """Returns True to stop the whole search (counterexample found)."""
        nonlocal nodes, budget_exhausted, best_value, best_witness, cex_witness, unused_count
        value: Rational | int = len(chosen) if problem.objective == "max_m" else obj_weight
        if value > best_value:
            best_value = value
            best_witness = list(chosen)
        if problem.objective == "counterexample" and obj_weight > 1:
            cex_witness = list(chosen)
            return True
        if prune_min is not None and prune_weight <= 1:
            headroom = (Fraction(1) - prune_weight) / prune_min
            if len(chosen) + headroom <= best_value:
                return False
        if objective_terms is not None and problem.prune:
            remaining = (
                len(candidates) - (chosen[-1] + 1)
                if order_free and chosen
                else unused_count
            )
            ceiling = obj_weight + remaining * max_term
            if problem.objective == "max_weight" and ceiling <= best_value:
                return False
            if problem.objective == "counterexample" and ceiling <= 1:
                return False
        start = chosen[-1] + 1 if order_free and chosen else 0
        for idx in range(start, len(candidates)):
            if used[idx]:
                continue
            if not _cross_ok(problem.flavor, chosen_tuples, candidates[idx]):
                continue
            nodes += 1
            if nodes > problem.node_budget:
                budget_exhausted = True
                return False
            used[idx] = True
            unused_count -= 1
            chosen.append(idx)
            chosen_tuples.append(candidates[idx])
            stop = dfs(
                obj_weight + (objective_terms[idx] if objective_terms else Fraction(0)),
                prune_weight + (prune_terms[idx] if prune_terms else Fraction(0)),
            )
            chosen.pop()
            chosen_tuples.pop()
            used[idx] = False
            unused_count += 1
            if stop:
                return True
            if budget_exhausted:
                return False
        return False

    stopped = dfs(Fraction(0), Fraction(0))

    if stopped and cex_witness is not None:
        witness_idx = cex_witness
    else:
        witness_idx = best_witness
    witness = _make_system(problem, [candidates[i] for i in witness_idx])
    return SearchResult(
        best_value=best_value,
        witness=witness,
        nodes=nodes,
        exhaustive=not budget_exhausted and not stopped,
    )


# ---------------------------------------------------------------------------
# randomized generators


def _random_set_tuple(rng: random.Random, n: int, d: int) -> tuple[int, ...]:
    parts = [0] * d
    for p in range(1, n + 1):
        coord = rng.randrange(d + 1)
        if coord:
            parts[coord - 1] |= 1 << (p - 1)
    return tuple(parts)


def _random_subspace(rng: random.Random, n: int, field: FieldTag) -> Subspace:
    rows = []
    for _ in range(rng.randrange(n + 1)):
        if isinstance(field, PrimeField):
            rows.append(tuple(field.from_int(rng.randrange(field.p)) for _ in range(n)))
        else:
            rows.append(tuple(Fraction(rng.randint(-2, 2)) for _ in range(n)))
    return canonicalize(n, field, rows)


def random_valid_system(
    kind: str,
    n: int,
    d: int,
    flavor: str,
    target_m: int,
    seed: int,
    field: FieldTag | None = None,
    partition: Sequence[Sequence[int]] | None = None,
    max_attempts: int | None = None,
) -> System:
    """Random greedy generator: propose clause-(i)-valid tuples, append those
    whose ordered clauses hold against every existing tuple.

    Deterministic for a fixed seed; may return fewer than ``target_m`` tuples.
    The result verifies its condition by construction.
    """
    rng = random.Random(seed)
    attempts = max_attempts if max_attempts is not None else 60 * max(target_m, 1)
    chosen: list[tuple] = []
    for _ in range(attempts):
        if len(chosen) >= target_m:
            break
        if kind == "set":
            t: tuple = _random_set_tuple(rng, n, d)
        elif kind == "subspace":
            if field is None:
                raise ShapeError("subspace generation needs a field")
            t = tuple(_random_subspace(rng, n, field) for _ in range(d))
            if not component_clause_ok(t):
                continue
        else:
            raise ValueError(f"unknown kind {kind!r}")
        if t in chosen:
            continue
        if not _cross_ok(flavor, chosen, t):
            continue
        chosen.append(t)
    if kind == "set":
        blocks = None
        if partition is not None:
            from .systems_model import mask_from_elements

            blocks = tuple(mask_from_elements(b, n) for b in partition)
        return SetSystem(n, d, tuple(chosen), blocks)
    assert field is not None
    return SubspaceSystem(n, field, d, tuple(chosen))


def random_compatible_pair_system(
    n: int,
    blocks: Sequence[Sequence[int]],
    target_m: int,
    seed: int,
    max_attempts: int | None = None,
) -> SubspaceSystem:
    """Random skew, decomposition-compatible subspace pair system over the
    rationals: embedded coordinate pairs mixed with blockwise-random pairs.

    Each appended pair is assembled block by block with trivially-intersecting
    components, so compatibility and clause (i) hold by construction;
    skewness is enforced by the same append rule as the other generators.
    """
    rng = random.Random(seed)
    decomp = coordinate_decomposition(n, QQ, blocks)
    attempts = max_attempts if max_attempts is not None else 80 * max(target_m, 1)
    chosen: list[tuple[Subspace, Subspace]] = []
    block_coords = [tuple(b) for b in blocks]
    for _ in range(attempts):
        if len(chosen) >= target_m:
            break
        a_parts: list[Subspace] = []
        b_parts: list[Subspace] = []
        ok = True
        for coords in block_coords:
            if rng.random() < 0.5:
                # coordinate pair inside the block, like an embedded subset pair
                split = [rng.randrange(3) for _ in coords]
                a_k = coordinate_subspace(n, QQ, [c for c, s in zip(coords, split) if s == 1])
                b_k = coordinate_subspace(n, QQ, [c for c, s in zip(coords, split) if s == 2])
            else:
                a_k = _random_block_subspace(rng, n, coords)
                b_k = _random_block_subspace(rng, n, coords)
            if intersection(a_k, b_k).dim != 0:
                ok = False
                break
            a_parts.append(a_k)
            b_parts.append(b_k)
        if not ok:
            continue
        t = (_sum_all(a_parts, n), _sum_all(b_parts, n))
        if t in chosen:
            continue
        if not _cross_ok("skew", chosen, t):
            continue
        chosen.append(t)
    return SubspaceSystem(n, QQ, 2, tuple(chosen), decomp)


def _sum_all(parts: Sequence[Subspace], n: int) -> Subspace:
    total = zero_subspace(n, QQ)
    for p in parts:
        total = total + p
    return total


def _random_block_subspace(rng: random.Random, n: int, coords: Sequence[int]) -> Subspace:
    """A random subspace supported on the given 1-based coordinates."""
    rows = []
    for _ in range(rng.randrange(len(coords) + 1)):
        row = [Fraction(0)] * n
        for c in coords:
            row[c - 1] = Fraction(rng.randint(-2, 2))
        rows.append(tuple(row))
    return canonicalize(n, QQ, rows)


# ---------------------------------------------------------------------------
# the open-problem explorer


def explore_weak_subspace_conjecture(
    n: int,
    d: int,
    p: ProbabilityVector,
    field: FieldTag,
    budget: int = DEFAULT_NODE_BUDGET,
    seed: int = 0,
) -> SearchResult:
    """Search weak subspace d-tuple systems for large tuza sums.

    Exhaustive over GF(p) lattices (within guards), randomized over the
    rationals.  A result above 1 is a finding about the chosen field, not a
    refutation for real vector spaces; callers report it as such.
    """
    if p.d != d:
        raise ShapeError(f"p has {p.d} entries, arity is {d}")
    if isinstance(field, PrimeField):
        problem = SearchProblem(
            kind="subspace",
            n=n,
            d=d,
            flavor="weak",
            objective="max_weight",
            functional=tuza(p),
            field=field,
            node_budget=budget,
            prune=False,
        )
        return search_max(problem)
    if not isinstance(field, RationalField):
        raise ShapeError(f"unsupported field {field}")
    rng = random.Random(seed)
    best = Fraction(0)
    witness: System | None = None
    samples = max(1, budget // 200)
    for _ in range(samples):
        system = random_valid_system(
            "subspace",
            n,
            d,
            "weak",
            target_m=rng.randint(1, max(2, 2 * n)),
            seed=rng.randrange(2**30),
            field=QQ,
        )
        value = omega(system, tuza(p))
        if value > best:
            best = value
            witness = system
    return SearchResult(best_value=best, witness=witness, nodes=samples, exhaustive=False)
