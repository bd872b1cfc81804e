"""Exhaustive and randomized search, cross-checked by an orderings oracle."""

import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bollobas import (
    BudgetError,
    PreconditionError,
    PrimeField,
    ProbabilityVector,
    QQ,
    SearchProblem,
    SetSystem,
    ShapeError,
    all_subspaces,
    embed,
    enumerate_set_candidates,
    enumerate_subspace_candidates,
    evaluate_inequality,
    explore_weak_subspace_conjecture,
    is_decomposition_compatible,
    omega,
    random_compatible_pair_system,
    random_valid_system,
    search_max,
    tuza,
    verify,
)
from bollobas import extremal_search, verifiers
from bollobas.extremal_search import subspace_count
from bollobas.weight_functionals import FunctionalKind

from conftest import (
    oracle_set_verify,
    reference_compatible_pairs,
    reference_random,
    reference_search,
)


def oracle_max_m_sequences(n: int, d: int, flavor: str) -> int:
    """Second, orderings-based brute force: grow candidate sequences in every
    order, using the full verifier as the legality oracle at each prefix.

    Sound because appending tuples never repairs a violated clause between
    existing indices.
    """
    candidates = []
    for assignment in product(range(d + 1), repeat=n):
        parts = [0] * d
        for p, coord in enumerate(assignment, start=1):
            if coord:
                parts[coord - 1] |= 1 << (p - 1)
        candidates.append(tuple(parts))

    best = 0

    def grow(sequence: list) -> None:
        nonlocal best
        best = max(best, len(sequence))
        for t in candidates:
            if t in sequence:
                continue
            trial = SetSystem(n, d, tuple(sequence + [t]))
            if verify(trial, flavor).verdict:
                grow(sequence + [t])

    grow([])
    return best


class TestEnumerateCandidates:
    def test_set_counts(self):
        assert list(enumerate_set_candidates(1, 2)) == [(0, 0), (1, 0), (0, 1)]
        assert len(list(enumerate_set_candidates(2, 2))) == 9
        assert len(list(enumerate_set_candidates(2, 3))) == 16

    def test_set_candidates_are_disjoint_and_unique(self):
        seen = set()
        for t in enumerate_set_candidates(3, 3):
            assert t not in seen
            seen.add(t)
            union, total = 0, 0
            for mask in t:
                union |= mask
                total += bin(mask).count("1")
            assert bin(union).count("1") == total
        assert len(seen) == 4**3

    def test_guard(self):
        with pytest.raises(BudgetError):
            list(enumerate_set_candidates(7, 2))

    def test_gf2_subspace_counts(self):
        assert len(all_subspaces(1, PrimeField(2))) == 2
        assert len(all_subspaces(2, PrimeField(2))) == 5
        assert len(all_subspaces(3, PrimeField(2))) == 16
        # the 25 ordered pairs of GF(2)^2 subspaces contain exactly 15 with
        # trivial intersection: recount 1 + (3+3) + (1+1) + 6
        cands = list(enumerate_subspace_candidates(2, PrimeField(2), 2))
        assert len(cands) == 15

    def test_lattice_guard_counts_before_enumerating(self):
        # Gaussian-binomial sums: GF(3)^3 has 1 + 13 + 13 + 1 subspaces
        assert subspace_count(3, 3) == 28 == len(all_subspaces(3, PrimeField(3)))
        assert subspace_count(2, 5) == 8 == len(all_subspaces(2, PrimeField(5)))
        # GF(p)^2 has p + 3 subspaces, refused before any is built
        with pytest.raises(BudgetError):
            all_subspaces(2, PrimeField(100000000000000000039))

    def test_gf2_pair_filter_matches_direct_recount(self):
        lattice = all_subspaces(2, PrimeField(2))
        count = 0
        for a in lattice:
            for b in lattice:
                from bollobas import intersection

                if intersection(a, b).dim == 0:
                    count += 1
        assert count == 15


class TestSearchMax:
    def test_skew_pairs_n2(self):
        problem = SearchProblem(n=2, d=2, flavor="skew")
        result = search_max(problem)
        assert result.best_value == 4
        assert result.exhaustive
        assert verify(result.witness, "skew").verdict
        assert result.witness.m == 4

    def test_matches_orderings_oracle(self):
        # frozen from the oracle below: max m = 2 (n=1) and 4 (n=2)
        assert oracle_max_m_sequences(1, 2, "skew") == 2
        assert oracle_max_m_sequences(2, 2, "skew") == 4
        for n in (1, 2):
            problem = SearchProblem(n=n, d=2, flavor="skew")
            assert search_max(problem).best_value == oracle_max_m_sequences(n, 2, "skew")

    def test_weak_matches_orderings_oracle(self):
        assert oracle_max_m_sequences(1, 2, "weak") == 2
        for n in (1, 2):
            problem = SearchProblem(n=n, d=2, flavor="weak")
            assert search_max(problem).best_value == oracle_max_m_sequences(n, 2, "weak")

    def test_uniform_sizes(self):
        problem = SearchProblem(n=2, d=2, flavor="skew", uniform_sizes=(1, 1))
        result = search_max(problem)
        assert result.best_value == 2  # C(1+1, 1)
        assert result.exhaustive

    def test_uniform_sizes_need_one_entry_per_component(self):
        # (1,) on pairs used to match no candidate and report best 0, exhaustive
        for sizes in [(1,), (1, 1, 0)]:
            with pytest.raises(ShapeError, match=f"have {len(sizes)} entries, arity is 2"):
                SearchProblem(n=2, d=2, flavor="skew", uniform_sizes=sizes)

    def test_pruned_equals_unpruned(self):
        for flavor in ("skew", "weak", "bollobas"):
            for n in (1, 2):
                pruned = search_max(SearchProblem(n=n, d=2, flavor=flavor))
                plain = search_max(SearchProblem(n=n, d=2, flavor=flavor, prune=False))
                assert pruned.best_value == plain.best_value

    def test_budget_exhaustion_returns_best_found(self):
        problem = SearchProblem(n=2, d=2, flavor="skew", node_budget=3)
        result = search_max(problem)
        assert not result.exhaustive
        assert result.best_value >= 1

    def test_max_weight_objective(self):
        problem = SearchProblem(
            n=2,
            d=2,
            flavor="skew",
            objective="max_weight",
            functional=tuza((Fraction(1, 2), Fraction(1, 2))),
        )
        result = search_max(problem)
        assert result.best_value == 1  # licensed bound is tight on n=2
        assert omega(result.witness, tuza((Fraction(1, 2), Fraction(1, 2)))) == 1

    def test_max_m_takes_no_functional(self):
        # it was accepted and never read
        with pytest.raises(ShapeError, match="^max_m takes no functional$"):
            SearchProblem(n=2, d=2, flavor="skew", functional=FunctionalKind("yue_sum"))

    @pytest.mark.parametrize("d, p",[(3, (1, 1)), (2, (1, 1, 1))])
    def test_tuza_p_must_match_the_arity(self, d, p):
        # a missing p_l used to be read as 1, and an extra one was dropped
        problem = SearchProblem(
            n=3, d=d, flavor="weak", objective="max_weight",
            functional=tuza(tuple(Fraction(x, len(p)) for x in p)),
        )
        with pytest.raises(ShapeError):
            search_max(problem)

    def test_counterexample_requires_unlicensed_setting(self):
        with pytest.raises(PreconditionError):
            SearchProblem(
                n=2,
                d=2,
                flavor="skew",
                objective="counterexample",
                functional=tuza((Fraction(1, 2), Fraction(1, 2))),
            )

    def test_counterexample_over_gf2_weak_pairs(self):
        problem = SearchProblem(
            n=2,
            d=2,
            flavor="weak",
            objective="counterexample",
            functional=tuza((Fraction(1, 2), Fraction(1, 2))),
            field=PrimeField(2),
            prune=False,
        )
        result = search_max(problem)
        # the GF(2) plane supports a weak pair family above 1 (a finding)
        assert result.witness is not None
        assert omega(result.witness, tuza((Fraction(1, 2), Fraction(1, 2)))) > 1
        assert verify(result.witness, "weak").verdict


@st.composite
def search_problems(draw):
    """Small set (n <= 3, d in {2, 3}) and GF(2)/GF(3) (n = 2) problems over
    every flavor, objective, budget, prune setting and uniform size tuple."""
    kind = draw(st.sampled_from(["set", "set", "subspace"]))
    if kind == "set":
        n, d, field = draw(st.sampled_from([3, 3, 2, 1])), draw(st.sampled_from([2, 3])), None
        objectives = ["max_m", "max_weight"]
    else:
        n, d, field = 2, 2, PrimeField(draw(st.sampled_from([2, 3])))
        objectives = ["max_m", "max_weight", "counterexample"]
    flavor = draw(st.sampled_from(["skew", "weak", "bollobas"] if d == 2 else ["skew", "weak"]))
    objective = draw(st.sampled_from(objectives))
    functional = None
    if objective != "max_m":
        names = ["tuza_sum"]
        if d == 2 and objective == "max_weight":
            names += ["bollobas_sum", "scott_wilmer_sum", "hegedus_frankl_sum", "yue_sum"]
            # searched systems carry no partition: these must be refused
            names += ["partitioned_yue_sum", "partitioned_bollobas_sum"]
        name = draw(st.sampled_from(names))
        if name == "tuza_sum":
            shares = draw(st.lists(st.integers(1, 4), min_size=d, max_size=d))
            functional = tuza(tuple(Fraction(x, sum(shares)) for x in shares))
        else:
            functional = FunctionalKind(name)
    uniform = None
    if draw(st.integers(0, 3)) == 0:
        uniform = draw(
            st.lists(st.integers(0, n), min_size=d, max_size=d)
            .filter(lambda sizes: sum(sizes) <= n)
            .map(tuple)
        )
    return SearchProblem(
        n=n,
        d=d,
        flavor=flavor,
        objective=objective,
        functional=functional,
        field=field,
        uniform_sizes=uniform,
        node_budget=draw(st.integers(1, 50) | st.integers(500, 3000)),
        prune=draw(st.booleans()),
    )


class TestSearchMatchesReferenceDfs:
    @settings(max_examples=120, deadline=None)
    @given(search_problems())
    def test_search_equals_reference(self, problem):
        if problem.functional is not None and problem.functional.name.startswith("partitioned_"):
            with pytest.raises(ShapeError):
                search_max(problem)
            with pytest.raises(ShapeError):
                reference_search(problem)
            return
        result = search_max(problem)
        got = (result.best_value, result.nodes, result.exhaustive, result.witness.tuples)
        assert got == reference_search(problem)

    @pytest.mark.parametrize(
        "problem",
        [
            SearchProblem(n=3, d=3, flavor="weak"),
            SearchProblem(n=3, d=2, flavor="skew", prune=False),
            SearchProblem(n=4, d=2, flavor="bollobas"),
            # budgets that run out inside a run of children the prune refuses;
            # 1719 is the last node of the 1720-node exhaustive search
            SearchProblem(n=4, d=2, flavor="skew", node_budget=1000),
            SearchProblem(n=4, d=2, flavor="skew", node_budget=1719),
            SearchProblem(n=3, d=3, flavor="weak", node_budget=2000),
            SearchProblem(n=4, d=2, flavor="weak", node_budget=700),
            SearchProblem(
                n=4, d=2, flavor="skew", objective="max_weight",
                functional=FunctionalKind("yue_sum"), node_budget=800,
            ),
            SearchProblem(
                n=3, d=2, flavor="weak", objective="max_weight",
                functional=FunctionalKind("bollobas_sum"),
            ),
            SearchProblem(n=3, d=2, flavor="skew", field=PrimeField(2), node_budget=300),
            SearchProblem(
                n=2, d=2, flavor="weak", objective="max_weight",
                functional=tuza((Fraction(1, 3), Fraction(2, 3))), field=PrimeField(3), prune=False,
            ),
        ],
    )
    def test_larger_searches_equal_reference(self, problem):
        result = search_max(problem)
        got = (result.best_value, result.nodes, result.exhaustive, result.witness.tuples)
        assert got == reference_search(problem)

    def test_depth_is_not_bound_by_the_recursion_limit(self):
        depth = 0
        frame = sys._getframe()
        while frame is not None:
            depth += 1
            frame = frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 40)
        try:
            result = search_max(SearchProblem(n=4, d=3, flavor="weak"))
        finally:
            sys.setrecursionlimit(limit)
        assert (result.best_value, result.nodes, result.exhaustive) == (81, 71518, True)

    @pytest.mark.parametrize(
        "problem",
        [
            SearchProblem(n=4, d=2, flavor="skew"),
            SearchProblem(n=4, d=2, flavor="bollobas"),
            # best keeps rising after bands are kept, and after the room is spent
            SearchProblem(n=4, d=3, flavor="weak", node_budget=3000),
            SearchProblem(n=3, d=2, flavor="weak", field=PrimeField(2), node_budget=3000),
        ],
    )
    def test_memo_stays_within_the_guard(self, monkeypatch, problem):
        """With the guard at the clause table's own worst case, the search
        keeps a few rows and bands and computes the rest where they are
        needed; the result is the reference's either way."""
        candidates = list(extremal_search.enumerate_candidates(problem))
        count = len(candidates)
        guard = len({x for t in candidates for x in t}) * problem.d * count
        monkeypatch.setattr(extremal_search, "CLAUSE_TABLE_GUARD", guard)
        real_row = verifiers.ClauseTable.row
        row_calls = []

        def counted_row(table, t, need):
            row_calls.append(need)
            return real_row(table, t, need)

        monkeypatch.setattr(verifiers.ClauseTable, "row", counted_row)
        # the memo as it stands when the search returns: it only grows
        kept = {}

        def watch(frame, event, arg):
            if event == "return" and frame.f_code is search_max.__code__:
                kept.update(rows=frame.f_locals["rows"], bands=frame.f_locals["bands"])

        sys.setprofile(watch)
        try:
            result = search_max(problem)
        finally:
            sys.setprofile(None)
        got = (result.best_value, result.nodes, result.exhaustive, result.witness.tuples)
        assert got == reference_search(problem)
        rows = [row for row in kept["rows"] if row is not None]
        values = rows + list(kept["bands"].values())
        assert values and all(v.bit_length() <= count for v in values)
        assert len(values) * count <= guard
        # every kept row was read once, with the whole candidate list asked for
        assert row_calls.count((1 << count) - 1) >= len(rows)
        assert len(row_calls) > len(rows)  # some rows were read per node

    def test_clause_table_guard_refuses_before_any_row(self, monkeypatch):
        # set n=2, d=2: 4 component values x 2 positions x 9 candidates = 72 bits;
        # GF(2)^1 pairs: 2 values x 2 positions x 3 candidates = 12 bits
        # set rows are built with no meet test, subspace rows by meet tests
        cases = [
            (SearchProblem(n=2, d=2, flavor="skew"), 72, 4, False),
            (SearchProblem(n=1, d=2, flavor="skew", field=PrimeField(2)), 12, 2, True),
        ]
        real_hit, real_meet = verifiers.ClauseTable.hit, verifiers.cross_nontrivial
        calls = Counter()

        def counted_hit(table, *args):
            calls["hit"] += 1
            return real_hit(table, *args)

        def counted_meet(x, y):
            calls["meet"] += 1
            return real_meet(x, y)

        def no_row(*args):
            raise AssertionError("a clause row was built")

        for problem, bits, best, meet_tests in cases:
            calls.clear()
            monkeypatch.setattr(verifiers.ClauseTable, "hit", counted_hit)
            monkeypatch.setattr(verifiers, "cross_nontrivial", counted_meet)
            monkeypatch.setattr(extremal_search, "CLAUSE_TABLE_GUARD", bits)
            assert search_max(problem).best_value == best
            assert calls["hit"] > 0 and (calls["meet"] > 0) == meet_tests
            monkeypatch.setattr(extremal_search, "CLAUSE_TABLE_GUARD", bits - 1)
            monkeypatch.setattr(verifiers.ClauseTable, "hit", no_row)
            monkeypatch.setattr(verifiers, "cross_nontrivial", no_row)
            with pytest.raises(BudgetError):
                search_max(problem)


class TestRandomValidSystem:
    def test_postcondition_by_construction(self):
        for flavor in ("bollobas", "skew", "weak"):
            for seed in range(20):
                s = random_valid_system(4, 2, flavor, target_m=6, seed=seed)
                assert verify(s, flavor).verdict
                assert oracle_set_verify(s, flavor)
                assert s.m <= 6

    def test_reproducible(self):
        a = random_valid_system(4, 2, "skew", target_m=6, seed=9)
        b = random_valid_system(4, 2, "skew", target_m=6, seed=9)
        assert a == b

    def test_embedded_output_verifies(self):
        for seed in range(10):
            s = random_valid_system(3, 2, "weak", target_m=4, seed=seed)
            assert verify(embed(s), "weak").verdict

    def test_degenerate_target(self):
        s = random_valid_system(3, 2, "skew", target_m=0, seed=1)
        assert s.m == 0
        assert omega(s, "yue_sum") == 0

    def test_negative_target_is_refused(self):
        # it used to return an empty system
        with pytest.raises(ShapeError, match="^target m=-1 is negative$"):
            random_valid_system(2, 2, "skew", target_m=-1, seed=0)
        with pytest.raises(ShapeError, match="^target m=-1 is negative$"):
            random_compatible_pair_system(2, [[1], [2]], target_m=-1, seed=0)
        # an unknown flavor used to build a skew table
        with pytest.raises(ValueError, match="^unknown flavor 'wek'$"):
            random_valid_system(3, 2, "wek", 6, 0)

    def test_gf_subspace_generation(self):
        for seed in range(10):
            s = random_valid_system(2, 2, "skew", target_m=3, seed=seed, field=PrimeField(3))
            assert verify(s, "skew").verdict

    def test_rational_subspace_generation(self):
        for seed in range(10):
            s = random_valid_system(3, 2, "weak", target_m=3, seed=seed, field=QQ)
            assert verify(s, "weak").verdict


@st.composite
def generator_args(draw):
    """Arguments of ``random_valid_system``: set and GF(2)/GF(3)/QQ grounds,
    d in {1, 2, 3}, every flavor the arity admits."""
    field = draw(st.sampled_from([None, PrimeField(2), PrimeField(3), QQ]))
    d = draw(st.integers(1, 3))
    flavor = draw(st.sampled_from(("skew", "weak", "bollobas") if d == 2 else ("skew", "weak")))
    n = draw(st.integers(1, 4 if field is None else 3))
    return n, d, flavor, draw(st.integers(0, 8)), draw(st.integers(0, 2**20)), field


class TestRandomStopsAtADeadTuple:
    @settings(max_examples=300, deadline=None)
    @given(generator_args())
    def test_output_is_that_of_the_full_budget(self, args):
        assert random_valid_system(*args) == reference_random(*args)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**20),
        st.integers(0, 6),
        st.sampled_from([[[1], [2]], [[1, 2], [3]], [[1], [2, 3]]]),
    )
    def test_compatible_pairs_are_those_of_the_full_budget(self, seed, target_m, blocks):
        n = sum(map(len, blocks))
        got = random_compatible_pair_system(n, blocks, target_m, seed)
        assert got == reference_compatible_pairs(n, blocks, target_m, seed)

    @pytest.mark.parametrize(
        "flavor, d, t, dead",
        [
            ("skew", 1, ({1},), True),
            ("skew", 2, ((), {1, 2}), True),
            ("skew", 2, ({1}, ()), False),
            ("skew", 3, ((), (), {1}), True),
            ("skew", 3, ((), {1}, ()), False),
            ("weak", 1, ({1},), True),
            ("weak", 2, ((), {1}), False),
            ("weak", 2, ((), ()), True),
            ("bollobas", 2, ((), {1}), True),
            ("bollobas", 2, ({1}, ()), False),
        ],
    )
    def test_dead_tuples(self, flavor, d, t, dead):
        masks = SetSystem.from_sets(2, [t], d=d).tuples[0]
        assert verifiers.ClauseTable(flavor, d).dead(masks) is dead
        embedded = embed(SetSystem(2, d, (masks,))).tuples[0]
        assert verifiers.ClauseTable(flavor, d).dead(embedded) is dead

    def test_generation_stops_at_the_dead_tuple(self, monkeypatch):
        calls = []
        real = extremal_search._random_set_tuple

        def counted(rng, n, d):
            calls.append(1)
            return real(rng, n, d)

        monkeypatch.setattr(extremal_search, "_random_set_tuple", counted)
        s = random_valid_system(1, 1, "skew", target_m=5, seed=0)
        assert s.m == 1 and len(calls) == 1


class TestRandomCompatiblePairs:
    def test_postconditions(self):
        for seed in range(15):
            s = random_compatible_pair_system(4, [[1, 2], [3, 4]], target_m=4, seed=seed)
            assert verify(s, "skew").verdict
            assert is_decomposition_compatible(s)
            assert evaluate_inequality(s, "partitioned_yue_sum").holds

    def test_reproducible(self):
        a = random_compatible_pair_system(3, [[1, 2], [3]], target_m=3, seed=4)
        b = random_compatible_pair_system(3, [[1, 2], [3]], target_m=3, seed=4)
        assert a == b


class TestExploreConjecture:
    def test_dim1_maximum_is_one(self):
        for field in (PrimeField(2), PrimeField(3)):
            result = explore_weak_subspace_conjecture(
                1, 2, ProbabilityVector.uniform(2), field
            )
            assert result.exhaustive
            assert result.best_value == 1

    def test_gf2_n2_reports_finding_with_witness(self):
        result = explore_weak_subspace_conjecture(
            2, 2, ProbabilityVector.uniform(2), PrimeField(2)
        )
        assert result.exhaustive
        assert verify(result.witness, "weak").verdict
        assert omega(result.witness, tuza(ProbabilityVector.uniform(2).entries)) == result.best_value
        # frozen from this exhaustive run: the GF(2) plane reaches 5/4; a
        # finding about GF(2) only, not a claim about real vector spaces
        assert result.best_value == Fraction(5, 4)

    def test_skew_subfamilies_stay_licensed(self):
        # any skew subsystem over the rationals obeys the licensed bound
        for seed in range(10):
            s = random_valid_system(2, 2, "skew", target_m=3, seed=seed, field=QQ)
            assert evaluate_inequality(s, tuza(ProbabilityVector.uniform(2).entries)).holds

    def test_randomized_rational_mode(self):
        result = explore_weak_subspace_conjecture(
            2, 2, ProbabilityVector.uniform(2), QQ, budget=2000, seed=7
        )
        assert not result.exhaustive
        assert result.nodes == 10
        if result.witness is not None:
            assert verify(result.witness, "weak").verdict

    @pytest.mark.parametrize("field", [PrimeField(2), QQ])
    def test_arity_mismatch(self, field):
        with pytest.raises(ShapeError, match="p has 2 entries, system arity is 3"):
            explore_weak_subspace_conjecture(2, 3, ProbabilityVector.uniform(2), field)

    def test_unknown_field_tag_refused(self):
        # neither QQ nor a GF(p) tag: the CLI parses --field into one of those
        with pytest.raises(ShapeError, match=r"^unsupported field gf\(4\)$"):
            explore_weak_subspace_conjecture(2, 2, ProbabilityVector.uniform(2), "gf(4)")

    def test_exhaustive_rational_subspace_search_refused(self):
        problem = SearchProblem(n=2, d=2, flavor="skew", field=QQ)
        with pytest.raises(ShapeError):
            search_max(problem)
