"""Shared oracles and corpus builders.

Oracles here are deliberately independent of the package's code paths:
rank comes from fraction-free (Bareiss) elimination on integers, GF(2)
subspaces from closure enumeration, set-system clauses from plain Python
sets over element lists, and the search optimum from a recursive DFS that
re-checks every clause and sums ``Fraction`` weights.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest

from bollobas import (
    ProbabilityVector,
    SearchProblem,
    SetSystem,
    SubspaceSystem,
    omega,
    random_compatible_pair_system,
    random_valid_system,
    tuza,
)
from bollobas.extremal_search import enumerate_candidates
from bollobas.systems_model import elements_of_mask
from bollobas.verifiers import cross_nontrivial, skew_clause_ok, weak_clause_ok


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
        if problem.kind == "set":
            return omega(SetSystem(problem.n, problem.d, (t,)), functional)
        return omega(SubspaceSystem(problem.n, problem.field, problem.d, (t,)), functional)

    def cross_ok(existing, t) -> bool:
        if problem.flavor == "bollobas":
            return all(
                cross_nontrivial(ti[0], t[1]) and cross_nontrivial(t[0], ti[1])
                for ti in existing
            )
        clause = skew_clause_ok if problem.flavor == "skew" else weak_clause_ok
        return all(clause(ti, t) for ti in existing)

    objective_terms = None
    max_term = Fraction(0)
    if problem.objective in ("max_weight", "counterexample"):
        objective_terms = [term(t, problem.functional) for t in candidates]
        if objective_terms:
            max_term = max(objective_terms)
    prune_terms = None
    prune_min = None
    if problem.objective == "max_m" and problem.prune and problem.kind == "set" and candidates:
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
            if used[idx] or not cross_ok([candidates[i] for i in chosen], candidates[idx]):
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
# seeded corpora


@pytest.fixture(scope="session")
def skew_set_pair_corpus():
    """Deterministic random skew set-pair systems, n <= 5."""
    out = []
    for seed in range(60):
        n = 2 + seed % 4  # 2..5
        out.append(
            random_valid_system("set", n, 2, "skew", target_m=2 + seed % 5, seed=seed)
        )
    return out


@pytest.fixture(scope="session")
def weak_set_tuple_corpus():
    out = []
    for seed in range(40):
        n = 2 + seed % 3
        d = 2 + seed % 3
        out.append(
            random_valid_system("set", n, d, "weak", target_m=2 + seed % 4, seed=100 + seed)
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
