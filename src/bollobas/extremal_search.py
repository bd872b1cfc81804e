"""Desk-scale exhaustive and randomized search over small grounds.

The depth-first search extends a sequence of tuples one position at a time.
Appending T after an existing sequence only requires the cross clauses
between each existing index and the new last index, because the skew and weak
conditions constrain ordered index pairs i < j and a prefix never changes.
For the weak and bollobas flavors clause (ii) is symmetric (respectively
two-sided), so validity is order-independent and the search restricts to
candidate-index-increasing sequences; the skew flavor explores orders.

A ground is named by its field alone: the set [n] when the field is None,
the space F^n over a field.  Candidates stream in a fixed canonical order --
assignment-lexicographic for set tuples, (dim, pivot columns, free entries)
for GF(p) subspaces -- which makes results deterministic across runs and
platforms.

The candidate list is fixed for a problem, so the cross clauses are read
from ``verifiers.ClauseTable`` over it, as ``int`` bitset rows of the
candidates that may follow a candidate; the random generators append the
proposals that the same table admits.  ``CLAUSE_TABLE_GUARD`` bounds the
table's worst-case size while the candidates are listed, before any row is
built.  The search runs no recursion: it is a loop over an
explicit stack whose frames hold the allowed bitset (the parent's AND the new
tuple's row) and the children still to visit, lowest index first, so its
depth is not bounded by the interpreter's recursion limit.  Weights are
integers, each term scaled by the least common multiple of the term
denominators; a reported weight is rebuilt as one exact fraction.

Each candidate's row is read from the table once per search, over the whole
candidate list, the first time the candidate is expanded; a node ANDs the
kept row into its allowed bitset, which gives what a row read for that bitset
gives, since a row is exact on the bits it is asked for.  The prune band below
is likewise built once per (frame weight, best - depth).  Rows and bands are
bitsets over the candidates, and they are kept only while their bits stay
within ``CLAUSE_TABLE_GUARD``; past that, each is computed where it is needed.

Weight pruning for the maximum-size objective uses a licensed inequality:
the tuza sum at uniform p is at most 1 on every weak set system, hence on
every system the set search can build.  No theorem covers GF(p) grounds, so
weight pruning never applies there.  A budget-exhausted search returns its
best-found value with the exhaustive flag cleared, never an error.

The prune refuses most of the nodes a max-m set search enters, and these
leaves are counted in bulk.  The candidates are grouped by weight, one bitmask
per distinct weight (at most n + 1).  A child at depth at most best cannot
raise best, and the prune refuses it on entry exactly when its weight lies in
a band fixed by its frame's weight and best: the band is the prune's own test.
So when a frame resumes, the run of children before the next one to enter is
the unvisited children in the band's classes, counted with one ``bit_count``;
the same children are entered in the same order, and the result, the witness
and the node count are those of a visit to each leaf.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, Iterator, Sequence

from .errors import DEFAULT_TUPLE_BUDGET, BudgetError, Frozen, PreconditionError, ShapeError, check_sizes
from .exact_arith import (
    QQ,
    FieldTag,
    PrimeField,
    ProbabilityVector,
    Rational,
    RationalField,
)
from .subspace_algebra import (
    Subspace,
    coordinate_decomposition,
    coordinate_subspace,
    rref,
)
from .systems_model import SetSystem, SubspaceSystem, System, sizes_of
from .verifiers import ClauseTable, check_flavor, component_clause_ok, cross_nontrivial
from .weight_functionals import FunctionalKind, _scaled, omega, term, tuza

DEFAULT_NODE_BUDGET = 200_000
DEFAULT_SET_GUARD = 6
DEFAULT_GF_GUARD = 4
# most subspaces an exhaustive GF(p) lattice may have (GF(7)^4 has 3652)
GF_LATTICE_GUARD = 10_000
# most bits the search's clause table may reach, counted as distinct component
# values x arity x candidates (8 MiB).  GF(3)^4 pairs need 10.2 M and set
# n=6 d=6 45 M; GF(5)^4 pairs, 1.8 G, are refused.
CLAUSE_TABLE_GUARD = 1 << 26

OBJECTIVES = ("max_m", "max_weight", "counterexample")


class SearchProblem(Frozen):
    """A search space (ground, arity, condition) plus objective and limits.
    The ground is the set [n] when ``field`` is None and F^n over a field."""

    __slots__ = _fields = (
        "n", "d", "flavor", "objective", "functional", "field", "uniform_sizes", "node_budget", "prune",
    )

    def __init__(
        self,
        n: int,
        d: int,
        flavor: str,  # "bollobas" | "skew" | "weak"
        objective: str = "max_m",
        functional: FunctionalKind | None = None,
        field: FieldTag | None = None,
        uniform_sizes: tuple[int, ...] | None = None,
        node_budget: int = DEFAULT_NODE_BUDGET,
        prune: bool = True,
    ):
        check_sizes({"n": n, "d": d}, "")
        self._init(n, d, flavor, objective, functional, field, uniform_sizes, node_budget, prune)
        if self.objective not in OBJECTIVES:
            raise ShapeError(f"unknown objective {self.objective!r}")
        check_flavor(self.flavor, self.d)
        if self.uniform_sizes is not None and len(self.uniform_sizes) != self.d:
            raise ShapeError(
                f"uniform sizes have {len(self.uniform_sizes)} entries, arity is {self.d}"
            )
        if self.node_budget <= 0:
            raise ShapeError("node budget must be positive")
        if self.objective == "max_m" and self.functional is not None:
            raise ShapeError("max_m takes no functional")
        if self.objective != "max_m" and self.functional is None:
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
        return self.field is not None and self.flavor == "weak"


class SearchResult(Frozen):
    """Best value found, a witness system realizing it, and whether the
    search provably covered the space."""

    __slots__ = _fields = ("best_value", "witness", "nodes", "exhaustive")

    def __init__(self, best_value: Rational | int, witness: System | None, nodes: int, exhaustive: bool):
        self._init(best_value, witness, nodes, exhaustive)


# ---------------------------------------------------------------------------
# candidate enumeration


def enumerate_set_candidates(n: int, d: int) -> Iterator[tuple[int, ...]]:
    """All (d+1)^n tuples of pairwise-disjoint subsets of [n], streamed in
    assignment-lexicographic order (coordinate 0 means unused)."""
    if n > DEFAULT_SET_GUARD:
        raise BudgetError(f"set ground n={n} above exhaustive guard {DEFAULT_SET_GUARD}")
    for assignment in product(range(d + 1), repeat=n):
        parts = [0] * d
        for p, coord in enumerate(assignment, start=1):
            if coord:
                parts[coord - 1] |= 1 << (p - 1)
        yield tuple(parts)


def all_subspaces(n: int, field: FieldTag) -> tuple[Subspace, ...]:
    """Every subspace of GF(p)^n, by dim, then pivot columns, then free
    entries; any other field is refused."""
    if not isinstance(field, PrimeField):
        raise ShapeError(
            "exhaustive subspace search needs a prime field; over the "
            "rationals use the randomized explorer"
        )
    if n > DEFAULT_GF_GUARD:
        raise BudgetError(f"GF ground n={n} above exhaustive guard {DEFAULT_GF_GUARD}")
    size = subspace_count(n, field.p)
    if size > GF_LATTICE_GUARD:
        raise BudgetError(
            f"GF({field.p})^{n} has {size} subspaces, above the lattice guard {GF_LATTICE_GUARD}"
        )
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
            for values in product(range(field.p), repeat=len(free_positions)):
                rows = [[0] * n for _ in range(k)]
                for i, c in enumerate(pivots):
                    rows[i][c] = 1
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
    n: int, field: FieldTag, d: int
) -> Iterator[tuple[Subspace, ...]]:
    """All clause-(i)-valid d-tuples over the GF(p) subspace lattice, in
    product order over the canonical subspace list."""
    lattice = all_subspaces(n, field)
    for t in product(lattice, repeat=d):
        if component_clause_ok(t):
            yield t


def enumerate_candidates(problem: SearchProblem) -> Iterator[tuple]:
    if problem.field is None:
        candidates: Iterator[tuple] = enumerate_set_candidates(problem.n, problem.d)
    else:
        candidates = enumerate_subspace_candidates(problem.n, problem.field, problem.d)
    if problem.uniform_sizes is None:
        yield from candidates
        return
    wanted = tuple(problem.uniform_sizes)
    for t in candidates:
        if sizes_of(t) == wanted:
            yield t


# ---------------------------------------------------------------------------
# depth-first search


def _make_system(n: int, d: int, field: FieldTag | None, tuples: Sequence[tuple]) -> System:
    if field is None:
        return SetSystem(n, d, tuple(tuples))
    return SubspaceSystem(n, field, d, tuple(tuples))


def _listed(stream: Iterable[tuple]) -> tuple[tuple, ...]:
    """The candidates of ``stream``, refused as soon as the clause table's
    worst case, distinct component values x d x candidates, passes
    ``CLAUSE_TABLE_GUARD``: it only grows while the stream is listed."""
    values: set = set()
    listed: list[tuple] = []
    for t in stream:
        listed.append(t)
        values.update(t)
        worst = len(values) * len(t) * len(listed)
        if worst > CLAUSE_TABLE_GUARD:
            raise BudgetError(
                f"clause table of {len(listed)} candidates could reach {worst} bits, "
                f"above the guard {CLAUSE_TABLE_GUARD}"
            )
    return tuple(listed)


def search_max(problem: SearchProblem) -> SearchResult:
    """Deterministic DFS for the problem's objective.

    The optimum carries ``exhaustive=True`` when the space was fully covered
    within the node budget.  Witnesses are the first optimum reached in
    canonical order.  A counterexample search stops at the first system whose
    functional value exceeds 1.
    """
    if problem.functional is not None:
        # a functional that does not fit d-tuples is refused before enumerating
        term((0,) * problem.d, problem.functional)
    candidates = _listed(enumerate_candidates(problem))
    table = ClauseTable(problem.flavor, problem.d, candidates)
    count = len(candidates)
    order_free = problem.flavor in ("weak", "bollobas")
    max_m = problem.objective == "max_m"
    counterexample = problem.objective == "counterexample"

    # Weights are integers, each term times `scale`: the objective's terms,
    # or for max_m the licensed prune's uniform tuza terms, whose sum is at
    # most 1 on every weak set system.
    weights: list[int] | None = None
    scale = 1
    if not max_m:
        assert problem.functional is not None
        scale, weights = _scaled([term(sizes_of(t), problem.functional) for t in candidates])
    elif problem.prune and problem.field is None and candidates:
        uniform = tuza(ProbabilityVector.uniform(problem.d))
        scale, weights = _scaled([term(sizes_of(t), uniform) for t in candidates])
    headroom_prune = max_m and weights is not None
    ceiling_prune = not max_m and problem.prune
    # the bitmask of the candidates of each distinct weight: at most n + 1
    classes: dict[int, int] = {}
    if headroom_prune:
        step = min(weights)
        for i, w in enumerate(weights):
            classes[w] = classes.get(w, 0) | 1 << i
    elif ceiling_prune:
        step = max(weights, default=0)

    best = 0
    best_witness: list[int] = []
    nodes = 0
    budget_exhausted = stopped = False
    chosen: list[int] = []
    # one frame per expanded node on the path: [unvisited children, allowed, weight]
    stack: list[list[int]] = []
    full = (1 << count) - 1
    allowed, weight = full, 0
    # each candidate's full row, and the prune band of each (frame weight,
    # best - depth): `count`-bit values kept while `room` lasts, so within
    # CLAUSE_TABLE_GUARD bits
    rows: list[int | None] = [None] * count
    bands: dict[tuple[int, int], int] = {}
    room = CLAUSE_TABLE_GUARD // max(count, 1)
    while True:
        # enter the node `chosen`; `allowed` is still its parent's
        depth = len(chosen)
        value = depth if max_m else weight
        if value > best:
            best = value
            best_witness = chosen.copy()
        if counterexample and weight > scale:
            # the first weight above 1 is also the best so far: it is the witness
            stopped = True
            break
        if headroom_prune:
            # prune when depth + (1 - W) / (min term) <= best
            expand = not (weight <= scale and scale - weight <= (best - depth) * step)
        elif ceiling_prune:
            remaining = count - chosen[-1] - 1 if order_free and chosen else count - depth
            limit = best if problem.objective == "max_weight" else scale
            expand = weight + remaining * step > limit
        else:
            expand = True
        if expand:
            if chosen:
                last = chosen[-1]
                if order_free:
                    allowed &= -(2 << last)  # only candidates after `last`
                # clause (i) keeps `last` out of its own row: it is not chosen again
                row = rows[last]
                if row is None:
                    if room:
                        row = rows[last] = table.row(candidates[last], full)
                        room -= 1
                    else:
                        row = table.row(candidates[last], allowed)
                allowed &= row
            stack.append([allowed, allowed, weight])
        elif chosen:
            chosen.pop()
        # move to the next unvisited child, lowest index first.  Where the
        # children cannot raise best, the headroom prune refuses exactly those
        # of weight in [hi - (best - depth) * step, hi]: the run of them before
        # the next child to enter is counted, not entered.
        while stack:
            frame = stack[-1]
            rest = frame[0]
            if classes and len(chosen) < best:
                key = (frame[2], best - len(chosen))
                band = bands.get(key)
                if band is None:
                    hi = scale - frame[2]
                    lo = hi - (best - len(chosen) - 1) * step
                    band = 0
                    for w, mask in classes.items():
                        if lo <= w <= hi:
                            band |= mask
                    if room:
                        bands[key] = band
                        room -= 1
                kept = rest & ~band
                run = rest & ((kept & -kept) - 1)
                nodes += run.bit_count()
                rest ^= run
                frame[0] = rest
            if rest or nodes > problem.node_budget:
                break
            stack.pop()
            if chosen:
                chosen.pop()
        if stack:
            low = rest & -rest
            frame[0] = rest ^ low
            nodes += 1
        if nodes > problem.node_budget:
            # also when the budget ran out inside a run of refused children
            nodes = problem.node_budget + 1
            budget_exhausted = True
            break
        if not stack:
            break
        chosen.append(low.bit_length() - 1)
        allowed = frame[1]
        if weights is not None:
            weight = frame[2] + weights[chosen[-1]]

    witness = _make_system(problem.n, problem.d, problem.field, [candidates[i] for i in best_witness])
    return SearchResult(
        best_value=best if max_m else Fraction(best, scale),
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


def _check_target(target_m: int) -> None:
    """Refuse a negative target, and one above the tuple budget: each
    attempt reads every tuple chosen so far, and a small ground admits few
    tuples anyway."""
    if target_m < 0:
        raise ShapeError(f"target m={target_m} is negative")
    if target_m > DEFAULT_TUPLE_BUDGET:
        raise BudgetError(f"target m={target_m} is above the tuple budget {DEFAULT_TUPLE_BUDGET}")


def _random_subspace(rng: random.Random, n: int, field: FieldTag, coords: Sequence[int]) -> Subspace:
    """A random subspace supported on the given 1-based coordinates."""
    rows = []
    for _ in range(rng.randrange(len(coords) + 1)):
        row = [0] * n
        for c in coords:
            row[c - 1] = rng.randrange(field.p) if field.p else rng.randint(-2, 2)
        rows.append(row)
    return Subspace(n, field, rref(rows, n, field))


def random_valid_system(
    n: int,
    d: int,
    flavor: str,
    target_m: int,
    seed: int,
    field: FieldTag | None = None,
) -> System:
    """Random greedy generator: propose clause-(i)-valid tuples, append those
    that the clause table admits after every existing tuple.  The tuples are
    of subsets of [n] when ``field`` is None and of subspaces of F^n over a
    field.

    Deterministic for a fixed seed; may return fewer than ``target_m`` tuples.
    Proposals stop once a tuple that no later tuple can follow is appended
    (``ClauseTable.dead``): the table would refuse the rest of the budget.
    The result verifies its condition by construction.  A ``target_m`` above
    ``DEFAULT_TUPLE_BUDGET`` is refused with ``BudgetError``.
    """
    check_sizes({"n": n, "d": d}, "")
    _check_target(target_m)
    rng = random.Random(seed)
    table = ClauseTable(flavor, d)
    for _ in range(60 * max(target_m, 1)):
        if len(table.tuples) >= target_m:
            break
        if field is None:
            t: tuple = _random_set_tuple(rng, n, d)
        else:
            t = tuple(_random_subspace(rng, n, field, range(1, n + 1)) for _ in range(d))
            if not component_clause_ok(t):
                continue
        if table.admits(t):
            table.extend((t,))
            if table.dead(t):
                break
    return _make_system(n, d, field, table.tuples)


def random_compatible_pair_system(
    n: int,
    blocks: Sequence[Sequence[int]],
    target_m: int,
    seed: int,
) -> SubspaceSystem:
    """Random skew, decomposition-compatible subspace pair system over the
    rationals: embedded coordinate pairs mixed with blockwise-random pairs.

    Each appended pair is assembled block by block with trivially-intersecting
    components, so compatibility and clause (i) hold by construction;
    skewness is enforced by the same append rule, and stop rule, as the
    other generators.
    """
    check_sizes({"n": n}, "")
    _check_target(target_m)
    rng = random.Random(seed)
    decomp = coordinate_decomposition(n, QQ, blocks)
    table = ClauseTable("skew", 2)
    block_coords = [tuple(b) for b in blocks]
    for _ in range(80 * max(target_m, 1)):
        if len(table.tuples) >= target_m:
            break
        a_rows: list[tuple] = []
        b_rows: list[tuple] = []
        ok = True
        for coords in block_coords:
            if rng.random() < 0.5:
                # coordinate pair inside the block, like an embedded subset pair
                split = [rng.randrange(3) for _ in coords]
                a_k = coordinate_subspace(n, QQ, [c for c, s in zip(coords, split) if s == 1])
                b_k = coordinate_subspace(n, QQ, [c for c, s in zip(coords, split) if s == 2])
            else:
                a_k = _random_subspace(rng, n, QQ, coords)
                b_k = _random_subspace(rng, n, QQ, coords)
            if cross_nontrivial(a_k, b_k):
                ok = False
                break
            a_rows += a_k.rows
            b_rows += b_k.rows
        if not ok:
            continue
        t = (Subspace(n, QQ, rref(a_rows, n, QQ)), Subspace(n, QQ, rref(b_rows, n, QQ)))
        if table.admits(t):
            table.extend((t,))
            if table.dead(t):
                break
    return SubspaceSystem(n, QQ, 2, tuple(table.tuples), decomp)


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
    if budget <= 0:
        raise ShapeError("node budget must be positive")
    if isinstance(field, PrimeField):
        problem = SearchProblem(
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
