"""Shared oracles and corpus builders.

Oracles here are deliberately independent of the package's code paths:
rank comes from fraction-free (Bareiss) elimination on integers, GF(2)
subspaces from closure enumeration, set-system clauses from plain Python
sets over element lists, clause-table element bitsets one tuple and one
element at a time, weights from a per-tuple loop that writes each
functional's term out, verification and the search optimum from pairwise
clause checks (subspace meets by textbook elimination), the search optimum
by a recursive DFS that sums ``Fraction`` weights, potentials from meets by
Zassenhaus on scalars, saturation from whole-system passes that rescan,
rebuild and re-weigh the system at every step, and the random generators'
outputs from full-budget loops that draw the package's proposals and admit
them by pairwise clause checks.  ``is_direct_sum`` and
``is_skew_implies_weak_check`` are not oracles: they state properties over
the package's own ``dim_of_sum`` and ``verify`` for the tests that check
them.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

import pytest

from bollobas import (
    QQ,
    FillUpStep,
    SaturationTrace,
    canonicalize,
    coordinate_decomposition,
    coordinate_subspace,
    dim_of_sum,
    extension_vector,
    fill_up,
    full_space,
    intersection,
    phi_upper_bound,
    PreconditionError,
    ProbabilityVector,
    SearchProblem,
    SetSystem,
    ShapeError,
    SubspaceSystem,
    omega,
    random_compatible_pair_system,
    random_valid_system,
    tuza,
    verify,
)
from bollobas.extremal_search import (
    _random_set_tuple,
    _random_subspace,
    enumerate_candidates,
)
from bollobas.systems_model import (
    block_profiles,
    blocks_of,
    elements_of_mask,
    sizes_of,
)
from bollobas.exact_arith import PrimeField
from bollobas.verifiers import is_monotone_pair_profile
from bollobas.weight_functionals import FunctionalKind


# ---------------------------------------------------------------------------
# independent linear-algebra oracles


def bareiss_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free elimination."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(n_cols):
        pivot = None
        for r in range(rank, n_rows):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(n_rows):
            if r != rank:
                for c in range(n_cols):
                    if c == col:
                        continue
                    m[r][c] = (m[rank][col] * m[r][c] - m[r][col] * m[rank][c]) // prev
                m[r][col] = 0
        prev = m[rank][col]
        rank += 1
        if rank == n_rows:
            break
    return rank


def fractions_to_int_rows(rows) -> list[list[int]]:
    """Clear denominators row by row; rank is unchanged."""
    out = []
    for row in rows:
        fracs = [Fraction(x) for x in row]
        lcm = 1
        for f in fracs:
            lcm = lcm * f.denominator // _gcd(lcm, f.denominator)
        out.append([int(f * lcm) for f in fracs])
    return out


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def rational_rank(rows) -> int:
    return bareiss_rank(fractions_to_int_rows(rows))


def scalar_rref(rows, width: int, p: int = 0) -> tuple[tuple, ...]:
    """Textbook Gauss-Jordan on scalars: ``Fraction`` entries over QQ
    (p == 0), residues mod p over GF(p).  Zero rows dropped, each pivot
    scaled to 1 and cleared from every other row."""
    m = [[x % p for x in row] if p else [Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(width):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], -1, p) if p else 1 / m[rank][col]
        m[rank] = [x * inv % p if p else x * inv for x in m[rank]]
        for i in range(len(m)):
            f = m[i][col]
            if i != rank and f:
                m[i] = [(a - f * b) % p if p else a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return tuple(tuple(row) for row in m[:rank])


def scalar_basis(sub) -> tuple[tuple, ...]:
    """The RREF basis of a subspace as scalars: each canonical row divided
    by its pivot, ``Fraction`` entries over QQ; the rows themselves (pivot
    1, residues) over GF(p)."""
    if isinstance(sub.field, PrimeField):
        return sub.rows
    out = []
    for row in sub.rows:
        pivot = next(x for x in row if x)
        out.append(tuple(Fraction(x, pivot) for x in row))
    return tuple(out)


def gf2_subspaces_bruteforce(n: int) -> list[frozenset[tuple[int, ...]]]:
    """All subspaces of GF(2)^n as vector sets: subsets containing 0 that are
    closed under addition.  Exponential; fine for n <= 3."""
    vectors = [tuple((i >> k) & 1 for k in range(n)) for i in range(1 << n)]
    zero = tuple([0] * n)
    out = []
    nonzero = [v for v in vectors if v != zero]
    for r in range(len(nonzero) + 1):
        for chosen in combinations(nonzero, r):
            s = frozenset((zero,) + chosen)
            if all(_xor(a, b) in s for a in s for b in s):
                out.append(s)
    return out


def _xor(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x ^ y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# independent set-system clause oracle (element lists, no bitmasks)


def set_tuple_lists(system: SetSystem, i: int) -> list[set[int]]:
    return [set(elements_of_mask(mask)) for mask in system.tuples[i - 1]]


def oracle_set_verify(system: SetSystem, flavor: str) -> bool:
    tuples = [set_tuple_lists(system, i) for i in range(1, system.m + 1)]
    for t in tuples:
        for p in range(len(t)):
            for q in range(p + 1, len(t)):
                if t[p] & t[q]:
                    return False
    m = len(tuples)
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            if flavor == "bollobas":
                if not (tuples[i][0] & tuples[j][1]):
                    return False
            elif i < j:
                hits = []
                for p in range(system.d):
                    for q in range(p + 1, system.d):
                        fwd = bool(tuples[i][p] & tuples[j][q])
                        bwd = bool(tuples[i][q] & tuples[j][p])
                        hits.append(fwd or (flavor == "weak" and bwd))
                if not any(hits):
                    return False
    return True


# ---------------------------------------------------------------------------
# predicates over the package's own operations, for tests that state them


def is_direct_sum(parts) -> bool:
    """True iff dim(sum of parts), by ``dim_of_sum``, equals the sum of the
    dims."""
    return dim_of_sum(parts) == sum(p.dim for p in parts)


def is_skew_implies_weak_check(system) -> bool:
    """skew verified => weak verified, by ``verify``; holds for every system."""
    if system.d < 2:
        return True
    if not verify(system, "skew").verdict:
        return True
    return verify(system, "weak").verdict


# ---------------------------------------------------------------------------
# pairwise clause oracle and reference verification, sets and subspaces


def _rank(rows, sub) -> int:
    p = sub.field.p if isinstance(sub.field, PrimeField) else 0
    return len(scalar_rref(rows, sub.n, p))


@lru_cache(maxsize=None)
def meets(x, y) -> bool:
    """Nonempty intersection of set masks, positive intersection dimension
    of subspaces (dim x + dim y > dim (x + y))."""
    if isinstance(x, int):
        return bool(x & y)
    return x.dim + y.dim > _rank(x.rows + y.rows, x)


def components_ok(t) -> bool:
    """Clause (i): pairwise disjoint masks / dimension-additive subspaces."""
    if not t or isinstance(t[0], int):
        return all(not (t[p] & t[q]) for p in range(len(t)) for q in range(p + 1, len(t)))
    return _rank([row for sub in t for row in sub.rows], t[0]) == sum(sub.dim for sub in t)


def cross_ok(flavor: str, ti, tj) -> bool:
    """Clause (ii) for ti placed before tj, component pair by component pair."""
    if flavor == "bollobas":
        return meets(ti[0], tj[1]) and meets(tj[0], ti[1])
    d = len(ti)
    return any(
        meets(ti[p], tj[q]) or (flavor == "weak" and meets(ti[q], tj[p]))
        for p in range(d)
        for q in range(p + 1, d)
    )


def reference_element_bitsets(tuples, q: int) -> dict[int, int]:
    """{e: bitset of the tuples whose q-th set component holds element e},
    0-based e, built one tuple and one element at a time."""
    bitsets: dict[int, int] = {}
    for j, t in enumerate(tuples):
        for e in elements_of_mask(t[q]):
            bitsets[e - 1] = bitsets.get(e - 1, 0) | 1 << j
    return bitsets


def reference_row(flavor: str, t, tuples) -> int:
    """Bitset of the tuples t_j such that t placed before t_j satisfies
    clause (ii), pair by pair."""
    return sum(1 << j for j, tj in enumerate(tuples) if cross_ok(flavor, t, tj))


def reference_verify(system, flavor: str) -> tuple[bool, tuple | None]:
    """(verdict, first violation) of ``verify`` by the pairwise double loop:
    (i, j) in lexicographic order, clause (i) at i == j, and clause (ii) at
    j > i for skew and weak, at every j != i for bollobas (A_i meeting B_j)."""
    tuples = system.tuples
    for i, ti in enumerate(tuples):
        for j, tj in enumerate(tuples):
            if i == j:
                ok, clause = components_ok(ti), "component"
            elif flavor == "bollobas":
                ok, clause = meets(ti[0], tj[1]), "cross"
            elif j > i:
                ok, clause = cross_ok(flavor, ti, tj), "cross"
            else:
                continue
            if not ok:
                return False, (i + 1, j + 1, clause)
    return True, None


def meet_rows(x, y) -> list:
    """Rows spanning the subspace meet x ∩ y, by Zassenhaus on scalars: the
    rows (u | u), u in x, and (v | 0), v in y, reduced; those whose left
    half vanishes carry the meet in their right half."""
    n = x.n
    p = x.field.p if isinstance(x.field, PrimeField) else 0
    rows = [list(u) * 2 for u in x.rows] + [list(v) + [0] * n for v in y.rows]
    return [row[n:] for row in scalar_rref(rows, 2 * n, p) if not any(row[:n])]


def reference_phi(system, flavor: str) -> int:
    """``phi`` written out per tuple from this file's meets and sums: the
    sum of the component sizes (set) or dimensions (tuple), and for a pair
    (A, B) 2^(s_1 + ... + s_r), s_k the rank of (A ∩ V_k) + (B ∩ V_k)."""
    if flavor == "set":
        return sum(len(part) for i in range(1, system.m + 1) for part in set_tuple_lists(system, i))
    if flavor == "tuple":
        return sum(_rank(sub.rows, sub) for t in system.tuples for sub in t)
    blocks = system.decomposition.blocks
    return sum(
        2 ** sum(_rank(meet_rows(a, blk) + meet_rows(b, blk), blk) for blk in blocks)
        for a, b in system.tuples
    )


# ---------------------------------------------------------------------------
# reference weights: one term per tuple, each functional written out


def reference_omega(system, kind) -> Fraction:
    """``omega`` as a loop over the tuples, with each functional's term
    written out from the tuple's sizes and the same shape, context and
    precondition checks."""
    if not isinstance(kind, FunctionalKind):
        kind = FunctionalKind(kind)
    name = kind.name
    if name == "tuza_sum":
        if kind.p.d != system.d:
            raise ShapeError("p and the system arity differ")
        total = Fraction(0)
        for t in system.tuples:
            value = Fraction(1)
            for p_l, size in zip(kind.p.entries, sizes_of(t)):
                value *= p_l**size
            total += value
        return total
    if name == "scott_wilmer_sum" and not is_monotone_pair_profile(system):
        raise PreconditionError("scott_wilmer_sum needs a monotone profile")
    if name in ("partitioned_yue_sum", "partitioned_bollobas_sum"):
        if blocks_of(system) is None:
            raise ShapeError(f"{name} needs a context")
        total = Fraction(0)
        for profile in block_profiles(system)[1]:
            value = Fraction(1)
            for a_k, b_k in profile:
                value /= comb(a_k + b_k, a_k)
                if name == "partitioned_yue_sum":
                    value /= 1 + a_k + b_k
            total += value
        return total
    if system.d != 2:
        raise ShapeError(f"{name} needs a pair system")
    total = Fraction(0)
    for t in system.tuples:
        a, b = sizes_of(t)
        if name in ("bollobas_sum", "scott_wilmer_sum"):
            total += Fraction(1, comb(a + b, a))
        elif name == "hegedus_frankl_sum":
            total += Fraction(1, comb(a + b, b))
        else:
            total += Fraction(1, (1 + a + b) * comb(a + b, a))
    return total


# ---------------------------------------------------------------------------
# reference search: the recursive DFS with per-node clause checks


def reference_search(problem: SearchProblem) -> tuple:
    """(best_value, nodes, exhaustive, witness tuples) by the recursive DFS:
    every candidate is re-checked against every chosen tuple, weights are
    ``Fraction`` sums, and each tuple's weight term is ``omega`` of the
    one-tuple system.  Node counts, budget and prunes follow the search's
    documented semantics."""
    candidates = tuple(enumerate_candidates(problem))
    order_free = problem.flavor in ("weak", "bollobas")

    def term(t, functional) -> Fraction:
        if problem.field is None:
            return omega(SetSystem(problem.n, problem.d, (t,)), functional)
        return omega(SubspaceSystem(problem.n, problem.field, problem.d, (t,)), functional)

    objective_terms = None
    max_term = Fraction(0)
    if problem.objective in ("max_weight", "counterexample"):
        objective_terms = [term(t, problem.functional) for t in candidates]
        if objective_terms:
            max_term = max(objective_terms)
    prune_terms = None
    prune_min = None
    if problem.objective == "max_m" and problem.prune and problem.field is None and candidates:
        uniform = tuza(ProbabilityVector.uniform(problem.d))
        prune_terms = [term(t, uniform) for t in candidates]
        prune_min = min(prune_terms)

    state = {
        "best": 0 if problem.objective == "max_m" else Fraction(0),
        "witness": [],
        "cex": None,
        "nodes": 0,
        "exhausted": False,
    }
    chosen: list[int] = []
    used = [False] * len(candidates)

    def dfs(obj_weight: Fraction, prune_weight: Fraction) -> bool:
        value = len(chosen) if problem.objective == "max_m" else obj_weight
        if value > state["best"]:
            state["best"] = value
            state["witness"] = list(chosen)
        if problem.objective == "counterexample" and obj_weight > 1:
            state["cex"] = list(chosen)
            return True
        if prune_min is not None and prune_weight <= 1:
            if len(chosen) + (1 - prune_weight) / prune_min <= state["best"]:
                return False
        if objective_terms is not None and problem.prune:
            if order_free and chosen:
                remaining = len(candidates) - (chosen[-1] + 1)
            else:
                remaining = used.count(False)
            ceiling = obj_weight + remaining * max_term
            if problem.objective == "max_weight" and ceiling <= state["best"]:
                return False
            if problem.objective == "counterexample" and ceiling <= 1:
                return False
        start = chosen[-1] + 1 if order_free and chosen else 0
        for idx in range(start, len(candidates)):
            if used[idx] or not all(
                cross_ok(problem.flavor, candidates[i], candidates[idx]) for i in chosen
            ):
                continue
            state["nodes"] += 1
            if state["nodes"] > problem.node_budget:
                state["exhausted"] = True
                return False
            used[idx] = True
            chosen.append(idx)
            stop = dfs(
                obj_weight + (objective_terms[idx] if objective_terms else 0),
                prune_weight + (prune_terms[idx] if prune_terms else 0),
            )
            chosen.pop()
            used[idx] = False
            if stop:
                return True
            if state["exhausted"]:
                return False
        return False

    stopped = dfs(Fraction(0), Fraction(0))
    witness = state["cex"] if stopped else state["witness"]
    return (
        state["best"],
        state["nodes"],
        not state["exhausted"] and not stopped,
        tuple(candidates[i] for i in witness),
    )


# ---------------------------------------------------------------------------
# reference saturation: whole-system passes at every step


def reference_saturate(system, flavor: str, functional: FunctionalKind) -> SaturationTrace:
    """``saturate`` as whole-system passes: each step rescans from tuple 1 for
    the first non-full tuple, picks x (and the pair's block) itself, rebuilds
    the system through the public ``fill_up`` step, and recomputes omega and
    phi over every tuple.  The input must satisfy the flavor's condition;
    the invariants are asserted."""

    def full(t) -> bool:
        if flavor == "set":
            union = 0
            for mask in t:
                union |= mask
            return union == (1 << system.n) - 1
        if flavor == "pair":
            a, b = t
            return all(
                dim_of_sum([intersection(a, blk), intersection(b, blk)]) == blk.dim
                for blk in system.decomposition.blocks
            )
        return dim_of_sum(list(t)) == system.n

    bound = phi_upper_bound(system, flavor)
    weight = omega(system, functional)
    phis = [reference_phi(system, flavor)]
    steps = []
    current = system
    while True:
        i = next((k for k, t in enumerate(current.tuples, start=1) if not full(t)), None)
        if i is None:
            break
        t = current.tuples[i - 1]
        block = None
        if flavor == "set":
            covered = 0
            for mask in t:
                covered |= mask
            x = next(e for e in range(1, system.n + 1) if not covered & (1 << (e - 1)))
            new = fill_up(current, i, x, flavor)
        elif flavor == "pair":
            a, b = t
            block, v_k = next(
                (k, blk)
                for k, blk in enumerate(system.decomposition.blocks, start=1)
                if dim_of_sum([intersection(a, blk), intersection(b, blk)]) != blk.dim
            )
            x = extension_vector(v_k, intersection(a, v_k) + intersection(b, v_k))
            new = fill_up(current, i, block, flavor)
        else:
            span = canonicalize(system.n, system.field, [row for sub in t for row in sub.rows])
            x = extension_vector(full_space(system.n, system.field), span)
            new = fill_up(current, i, flavor=flavor)
        if flavor != "set":
            # a step reports x as the canonical row of its span
            x = canonicalize(system.n, system.field, (x,)).rows[0]
        steps.append(FillUpStep(i, block, x))
        phis.append(reference_phi(new, flavor))
        assert omega(new, functional) == weight
        assert phis[-2] < phis[-1] <= bound and len(steps) <= bound
        current = new
    return SaturationTrace(flavor, functional, tuple(steps), weight, tuple(phis), current)


# ---------------------------------------------------------------------------
# random generators without the stop at a dead tuple


def reference_random(n, d, flavor, target_m, seed, field=None):
    """``random_valid_system`` as a full-budget loop: the same proposals from
    the same seed, each appended when ``cross_ok`` holds against every
    tuple chosen before it, until the target or the budget is reached."""
    rng = random.Random(seed)
    chosen = []
    for _ in range(60 * max(target_m, 1)):
        if len(chosen) >= target_m:
            break
        if field is None:
            t = _random_set_tuple(rng, n, d)
        else:
            t = tuple(_random_subspace(rng, n, field, range(1, n + 1)) for _ in range(d))
            if not components_ok(t):
                continue
        if all(cross_ok(flavor, ti, t) for ti in chosen):
            chosen.append(t)
    if field is None:
        return SetSystem(n, d, tuple(chosen))
    return SubspaceSystem(n, field, d, tuple(chosen))


def reference_compatible_pairs(n, blocks, target_m, seed):
    """``random_compatible_pair_system`` as a full-budget loop, appending by
    ``cross_ok`` like ``reference_random``."""
    rng = random.Random(seed)
    decomp = coordinate_decomposition(n, QQ, blocks)
    chosen = []
    for _ in range(80 * max(target_m, 1)):
        if len(chosen) >= target_m:
            break
        a_parts, b_parts = [], []
        for coords in blocks:
            if rng.random() < 0.5:
                split = [rng.randrange(3) for _ in coords]
                a_k = coordinate_subspace(n, QQ, [c for c, s in zip(coords, split) if s == 1])
                b_k = coordinate_subspace(n, QQ, [c for c, s in zip(coords, split) if s == 2])
            else:
                a_k = _random_subspace(rng, n, QQ, coords)
                b_k = _random_subspace(rng, n, QQ, coords)
            if meets(a_k, b_k):
                break
            a_parts.append(a_k)
            b_parts.append(b_k)
        else:
            t = tuple(
                canonicalize(n, QQ, [row for part in parts for row in part.rows])
                for parts in (a_parts, b_parts)
            )
            if all(cross_ok("skew", ti, t) for ti in chosen):
                chosen.append(t)
    return SubspaceSystem(n, QQ, 2, tuple(chosen), decomp)


# ---------------------------------------------------------------------------
# seeded corpora


@pytest.fixture(scope="session")
def skew_set_pair_corpus():
    """Deterministic random skew set-pair systems, n <= 5."""
    out = []
    for seed in range(60):
        n = 2 + seed % 4  # 2..5
        out.append(
            random_valid_system(n, 2, "skew", target_m=2 + seed % 5, seed=seed)
        )
    return out


@pytest.fixture(scope="session")
def weak_set_tuple_corpus():
    out = []
    for seed in range(40):
        n = 2 + seed % 3
        d = 2 + seed % 3
        out.append(
            random_valid_system(n, d, "weak", target_m=2 + seed % 4, seed=100 + seed)
        )
    return out


@pytest.fixture(scope="session")
def compatible_pair_corpus():
    """Random skew decomposition-compatible subspace pair systems over Q."""
    out = []
    blocks_by_n = {
        2: [[1], [2]],
        3: [[1, 2], [3]],
        4: [[1, 2], [3, 4]],
    }
    for seed in range(40):
        n = 2 + seed % 3
        out.append(
            random_compatible_pair_system(
                n, blocks_by_n[n], target_m=2 + seed % 4, seed=200 + seed
            )
        )
    return out
