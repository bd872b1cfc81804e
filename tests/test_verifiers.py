"""Condition verification and counting-bound certificates."""

import random
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bollobas import (
    ConditionKind,
    FieldMismatchError,
    PreconditionError,
    PrimeField,
    QQ,
    SearchProblem,
    SetSystem,
    ShapeError,
    SubspaceSystem,
    check_cardinality_lemmas,
    check_partitioned_uniform_bound,
    check_uniform_pair_bound,
    complement_chain,
    coordinate_decomposition,
    coordinate_subspace,
    canonicalize,
    embed,
    full_tuza_tuples,
    intersection,
    random_valid_system,
    verify,
    zero_subspace,
)
from bollobas import subspace_algebra, verifiers
from bollobas.subspace_algebra import _eliminate, dim_of_sum
from bollobas.systems_model import MAX_N
from bollobas.verifiers import ClauseTable, component_clause_ok, count_bound, cross_nontrivial

from conftest import (
    components_ok,
    is_skew_implies_weak_check,
    oracle_set_verify,
    reference_element_bitsets,
    reference_row,
    reference_verify,
    set_tuple_lists,
)


class TestVerify:
    def test_skew_valid_pair(self):
        s = SetSystem.from_sets(2, [({1}, {2}), ({2}, {1})])
        report = verify(s, "skew")
        assert report.verdict and report.first_violation is None
        assert oracle_set_verify(s, "skew")

    def test_skew_duplicate_pair_fails_with_witness(self):
        s = SetSystem.from_sets(2, [({1}, {2}), ({1}, {2})])
        report = verify(s, "skew")
        assert not report.verdict
        assert report.first_violation == (1, 2, "cross")
        assert not oracle_set_verify(s, "skew")

    def test_component_clause_violation(self):
        e1 = coordinate_subspace(2, QQ, [1])
        s = SubspaceSystem(2, QQ, 2, ((e1, e1),))
        for flavor in ("bollobas", "skew", "weak"):
            report = verify(s, flavor)
            assert not report.verdict
            assert report.first_violation == (1, 1, "component")

    def test_all_full_tuples_are_weak(self):
        # two distinct ordered partitions of [n] always share an element in
        # differently-labelled blocks, which is exactly the weak clause
        for n, d in ((1, 2), (2, 2), (2, 3), (3, 2)):
            s = full_tuza_tuples(n, d)
            assert verify(s, "weak").verdict
            assert oracle_set_verify(s, "weak")

    def test_bollobas_checks_both_orientations(self):
        # skew-valid but not bollobas: pair 2 against pair 1 misses
        s = SetSystem.from_sets(3, [({1}, {2}), ({3}, {1})], d=2)
        assert verify(s, "skew").verdict
        report = verify(s, "bollobas")
        assert not report.verdict
        assert report.first_violation == (2, 1, "cross")
        assert not oracle_set_verify(s, "bollobas")

    def test_bollobas_needs_pairs(self):
        s = full_tuza_tuples(1, 3)
        with pytest.raises(ShapeError):
            verify(s, "bollobas")

    def test_flavor_implication_chain_on_corpus(self, skew_set_pair_corpus):
        for s in skew_set_pair_corpus:
            if verify(s, "bollobas").verdict:
                assert verify(s, "skew").verdict
            if verify(s, "skew").verdict:
                assert verify(s, "weak").verdict

    def test_matches_oracle_on_random_systems(self):
        rng = random.Random(2)
        for _ in range(120):
            n = rng.randrange(1, 4)
            d = rng.randrange(2, 4)
            m = rng.randrange(0, 4)
            tuples = []
            for _ in range(m):
                parts = [0] * d
                for p in range(1, n + 1):
                    c = rng.randrange(d + 1)
                    if c:
                        parts[c - 1] |= 1 << (p - 1)
                tuples.append(tuple(parts))
            s = SetSystem(n, d, tuple(tuples))
            for flavor in ("skew", "weak") + (("bollobas",) if d == 2 else ()):
                assert verify(s, flavor).verdict == oracle_set_verify(s, flavor)

    def test_order_sensitivity(self):
        chain = complement_chain(2)
        assert verify(chain, "skew").verdict
        reversed_chain = SetSystem(2, 2, tuple(reversed(chain.tuples)))
        report = verify(reversed_chain, "skew")
        assert not report.verdict
        assert report.first_violation == (1, 2, "cross")

    def test_witness_recheck_in_isolation(self):
        rng = random.Random(6)
        found = 0
        for _ in range(200):
            n = rng.randrange(1, 4)
            tuples = []
            for _ in range(rng.randrange(1, 4)):
                parts = [0, 0]
                for p in range(1, n + 1):
                    c = rng.randrange(3)
                    if c:
                        parts[c - 1] |= 1 << (p - 1)
                tuples.append(tuple(parts))
            s = SetSystem(n, 2, tuple(tuples))
            report = verify(s, "skew")
            if report.verdict:
                continue
            found += 1
            i, j, clause = report.first_violation
            if clause == "component":
                t = set_tuple_lists(s, i)
                assert t[0] & t[1]
            else:
                ti, tj = set_tuple_lists(s, i), set_tuple_lists(s, j)
                assert not (ti[0] & tj[1])
        assert found > 20  # the random corpus must actually exercise violations

    def test_gfp_verdicts_carry_caveat(self):
        field = PrimeField(2)
        z = zero_subspace(2, field)
        v = coordinate_subspace(2, field, [1, 2])
        s = SubspaceSystem(2, field, 2, ((v, z), (z, v)))
        report = verify(s, "skew")
        assert report.verdict and report.field_caveat
        s_q = SetSystem.from_sets(1, [({1}, ())])
        assert not verify(s_q, "weak").field_caveat


def test_skew_implies_weak_check(skew_set_pair_corpus):
    bad = SetSystem.from_sets(2, [({1}, {2}), ({1}, {2})])
    assert is_skew_implies_weak_check(bad)  # vacuous: not skew
    for s in skew_set_pair_corpus:
        assert is_skew_implies_weak_check(s)


class TestCountBound:
    @given(st.lists(st.integers(0, 6), max_size=4))
    def test_size_vector_is_its_multinomial(self, sizes):
        assert count_bound(tuple(sizes)) == factorial(sum(sizes)) // prod(map(factorial, sizes))

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=4))
    def test_block_profile_is_the_product_of_block_binomials(self, profile):
        assert count_bound(tuple(profile)) == prod(comb(a + b, a) for a, b in profile)

    def test_pair_sizes_are_one_block(self):
        assert count_bound((2, 1)) == count_bound(((2, 1),)) == 3


class TestUniformPairBound:
    def test_tight_example(self):
        s = SetSystem.from_sets(2, [({1}, {2}), ({2}, {1})])
        cert = check_uniform_pair_bound(s)
        assert cert.holds
        assert cert.quantity("m") == "2"
        assert cert.quantity("bound") == "2"
        assert cert.quantity("tight") == "true"

    def test_single_empty_pair(self):
        s = SetSystem.from_sets(1, [((), ())])
        cert = check_uniform_pair_bound(s)
        assert cert.holds and cert.quantity("bound") == "1"

    def test_missing_quantity_is_a_key_error(self):
        cert = check_uniform_pair_bound(SetSystem.from_sets(2, [({1}, {2}), ({2}, {1})]))
        with pytest.raises(KeyError, match="'omega'"):
            cert.quantity("omega")

    def test_non_uniform_rejected(self):
        s = SetSystem.from_sets(2, [({1, 2}, ()), ({1}, {2})])
        with pytest.raises(PreconditionError):
            check_uniform_pair_bound(s)

    def test_unverified_rejected(self):
        s = SetSystem.from_sets(2, [({1}, {2}), ({1}, {2})])
        with pytest.raises(PreconditionError):
            check_uniform_pair_bound(s)


class TestAlonBound:
    def test_partitioned_uniform(self):
        # both pairs meet each block in the same (a_k, b_k); bound is a product
        s = SetSystem.from_sets(
            2,
            [({1}, {2}), ({2}, {1})],
            partition=[[1], [2]],
        )
        # per-block profiles differ across pairs here, so this is rejected
        with pytest.raises(PreconditionError):
            check_partitioned_uniform_bound(s)

    def test_uniform_per_block(self):
        s = SetSystem.from_sets(
            4,
            [({1, 3}, {2, 4}), ({2, 4}, {1, 3})],
            partition=[[1, 2], [3, 4]],
        )
        cert = check_partitioned_uniform_bound(s)
        assert cert.holds
        assert cert.quantity("bound") == str(2 * 2)


class TestDecompositionUniformBound:
    def test_embedded_variant(self):
        s = SetSystem.from_sets(
            4,
            [({1, 3}, {2, 4}), ({2, 4}, {1, 3})],
            partition=[[1, 2], [3, 4]],
        )
        cert = check_partitioned_uniform_bound(embed(s))
        assert cert.holds
        assert cert.quantity("bound") == "4"

    def test_incompatible_rejected(self):
        decomp = coordinate_decomposition(2, QQ, [[1], [2]])
        from bollobas import canonicalize

        diag = canonicalize(2, QQ, [(1, 1)])
        s = SubspaceSystem(2, QQ, 2, ((diag, zero_subspace(2, QQ)),), decomp)
        with pytest.raises(PreconditionError):
            check_partitioned_uniform_bound(s)


class TestCardinalityLemmas:
    def test_embedded_chain_is_tight_for_2n(self):
        s = embed(complement_chain(2))
        cert = check_cardinality_lemmas(s)
        assert cert.holds
        assert cert.quantity("m") == "4"
        assert cert.quantity("skew-subspace-pair-count <= 2^n") == "4"

    def test_weak_set_bound(self):
        s = full_tuza_tuples(1, 2)
        cert = check_cardinality_lemmas(s)
        assert cert.holds
        assert cert.quantity("weak-set-tuple-count <= (d+1)^n") == "3"

    def test_uniform_weak_pair_bound(self):
        # a = b = 1: bound (1+1)^2 / (1^1 1^1) = 4
        s = SetSystem.from_sets(2, [({1}, {2}), ({2}, {1})])
        cert = check_cardinality_lemmas(s)
        assert cert.holds
        assert cert.quantity("uniform-weak-pair-count <= (a+b)^(a+b)/(a^a b^b)") == "4"

    def test_no_applicable_bound(self):
        # weak but not skew subspace system: no lemma applies
        e1 = coordinate_subspace(2, QQ, [1])
        e2 = coordinate_subspace(2, QQ, [2])
        v = coordinate_subspace(2, QQ, [1, 2])
        z = zero_subspace(2, QQ)
        s = SubspaceSystem(2, QQ, 2, ((e1, e2), (v, z)))
        assert verify(s, "weak").verdict
        assert not verify(s, "skew").verdict
        with pytest.raises(PreconditionError):
            check_cardinality_lemmas(s)

    def test_gfp_violation_is_a_finding_not_an_error(self):
        # the cyclic-line weak system over GF(2) exceeds nothing here (it is
        # not skew), but a skew GF(2) run must flag the caveat
        field = PrimeField(2)
        z = zero_subspace(2, field)
        v = coordinate_subspace(2, field, [1, 2])
        s = SubspaceSystem(2, field, 2, ((v, z),))
        cert = check_cardinality_lemmas(s)
        assert cert.field_caveat
        assert cert.holds

    def test_corpus_respects_lemmas(self, skew_set_pair_corpus, weak_set_tuple_corpus):
        for s in weak_set_tuple_corpus:
            cert = check_cardinality_lemmas(s)
            assert cert.holds
        for s in skew_set_pair_corpus:
            e = embed(s)
            cert = check_cardinality_lemmas(e)
            assert cert.holds
            assert e.m <= 2**e.n


class TestEmbedEquivalenceOracle:
    def test_verdicts_and_witnesses_match(self):
        rng = random.Random(8)
        for _ in range(60):
            n = rng.randrange(1, 4)
            d = rng.randrange(2, 4)
            tuples = []
            for _ in range(rng.randrange(0, 4)):
                parts = [0] * d
                for p in range(1, n + 1):
                    c = rng.randrange(d + 1)
                    if c:
                        parts[c - 1] |= 1 << (p - 1)
                tuples.append(tuple(parts))
            s = SetSystem(n, d, tuple(tuples))
            e = embed(s)
            for flavor in ("skew", "weak") + (("bollobas",) if d == 2 else ()):
                rs, re = verify(s, flavor), verify(e, flavor)
                assert rs.verdict == re.verdict
                assert rs.first_violation == re.first_violation


# ---------------------------------------------------------------------------
# the clause table against the pairwise double loop


def flavors_for(d: int) -> tuple[str, ...]:
    return ("bollobas", "skew", "weak") if d == 2 else ("skew", "weak")


def set_masks(n: int):
    """Masks over [n]: any, or of at most three elements."""
    sparse = st.sets(st.integers(0, n - 1), max_size=3).map(lambda es: sum(1 << e for e in es))
    return st.one_of(st.integers(0, (1 << n) - 1), sparse)


@st.composite
def systems_with_violations(draw, wide: bool = False):
    """A seeded random valid system of either kind, then extra tuples (any
    components, so clause (i) may fail) and copies of its own tuples, each
    inserted at a drawn position.  ``wide`` draws set systems with n in
    [MAX_N - 7, MAX_N], whose masks pack into the widest words, 8 bytes, that
    the size range admits."""
    kind = "set" if wide else draw(st.sampled_from(["set", "subspace"]))
    if kind == "set":
        n = draw(st.integers(MAX_N - 7, MAX_N) if wide else st.integers(1, 6))
        d, field = draw(st.integers(1, 4)), None
        component = set_masks(n)
    else:
        n, d = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        field = draw(st.sampled_from([PrimeField(2), PrimeField(3), QQ]))
        row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
        component = st.lists(row, max_size=n).map(lambda rows: canonicalize(n, field, rows))
    tuples = []
    if d >= 2 and draw(st.booleans()):
        base = random_valid_system(
            n,
            d,
            draw(st.sampled_from(flavors_for(d))),
            target_m=draw(st.integers(0, 12)),
            seed=draw(st.integers(0, 2**16)),
            field=field,
        )
        tuples = list(base.tuples)
    for _ in range(draw(st.integers(0, 3))):
        if tuples and draw(st.booleans()):
            t = draw(st.sampled_from(tuples))  # a duplicate
        else:
            t = tuple(draw(st.lists(component, min_size=d, max_size=d)))
        tuples.insert(draw(st.integers(0, len(tuples))), t)
    if kind == "set":
        return SetSystem(n, d, tuple(tuples))
    return SubspaceSystem(n, field, d, tuple(tuples))


@st.composite
def subspace_of_dim(draw, n, field, k):
    """A k-dimensional subspace of F^n: k rows with distinct leading columns
    are independent, and every subspace has such a basis."""
    entries = st.integers(-2, 2) if field == QQ else st.integers(0, field.p - 1)
    cols = sorted(draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)))
    rows = [[0] * c + [1] + draw(st.lists(entries, min_size=n - c - 1, max_size=n - c - 1)) for c in cols]
    return canonicalize(n, field, rows)


@st.composite
def subspace_tuples(draw):
    """Tuples of 2 or 3 subspaces over QQ, GF(2) or GF(3), n <= 4; half the
    draws give the first two dims summing past n."""
    field = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(3)]))
    n = draw(st.integers(1, 4))
    past_n = draw(st.booleans())
    first = draw(st.integers(int(past_n), n))
    dims = [first, draw(st.integers(n - first + 1 if past_n else 0, n))]
    dims += draw(st.lists(st.integers(0, n), max_size=1))
    return tuple(draw(subspace_of_dim(n, field, k)) for k in dims)


class TestMeetsByDimensionCount:
    @settings(max_examples=300, deadline=None)
    @given(subspace_tuples())
    def test_cross_and_component_clauses_match_elimination(self, t):
        x, y = t[0], t[1]
        meet = intersection(x, y).dim > 0
        assert cross_nontrivial(x, y) == meet
        if x.dim + y.dim > x.n:
            assert meet
        assert component_clause_ok(t) == components_ok(t)
        assert component_clause_ok(t[:2]) == components_ok(t[:2])


@st.composite
def certificate_cases(draw):
    """(mode, x, y, z) over QQ, GF(2) or GF(3), n <= 5, with x and y nonzero
    and dim x + dim y <= n, where only an elimination or a certificate can
    tell whether they meet.  Mode "row": y is spanned by some of x's
    canonical rows, so they share a row.  Mode "pivot": y has a row leading
    in one of x's pivot columns.  Mode "any": y is drawn alone.  z is a
    third part for sums of three."""
    field = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(3)]))
    n = draw(st.integers(2, 5))
    x = draw(subspace_of_dim(n, field, draw(st.integers(1, n - 1))))
    mode = draw(st.sampled_from(["row", "pivot", "any"]))
    room = n - x.dim
    if mode == "row":
        rows = draw(st.lists(st.sampled_from(x.rows), min_size=1, max_size=min(x.dim, room)))
        y = canonicalize(n, field, rows)
    elif mode == "pivot":
        pivots = [c for c in range(n) if x.pivot_mask >> c & 1]
        entries = st.integers(-2, 2) if field == QQ else st.integers(0, field.p - 1)
        c = draw(st.sampled_from(pivots))
        row = [0] * c + [1] + draw(st.lists(entries, min_size=n - c - 1, max_size=n - c - 1))
        y = canonicalize(n, field, [row])
    else:
        y = draw(subspace_of_dim(n, field, draw(st.integers(1, room))))
    z = draw(subspace_of_dim(n, field, draw(st.integers(0, n))))
    return mode, x, y, z


def eliminated_rank(parts) -> int:
    first = parts[0]
    p = first.field.p if isinstance(first.field, PrimeField) else 0
    return len(_eliminate([row for part in parts for row in part.rows], first.n, p)[1])


class TestMeetsByRowCertificates:
    @settings(max_examples=400, deadline=None)
    @given(certificate_cases())
    def test_certificates_match_elimination(self, case):
        mode, x, y, z = case
        if mode == "row":
            assert set(x.rows) & set(y.rows)
        if mode == "pivot":
            assert x.pivot_mask & y.pivot_mask
        assert cross_nontrivial(x, y) == (intersection(x, y).dim > 0)
        for parts in ([x], [x, y], [y, z], [x, y, z]):
            assert dim_of_sum(parts) == eliminated_rank(parts)
        assert component_clause_ok((x, y, z)) == components_ok((x, y, z))

    @staticmethod
    def refuse_elimination(monkeypatch):
        def refuse(*args):
            raise AssertionError("eliminated")

        monkeypatch.setattr(subspace_algebra, "_eliminate", refuse)

    def test_a_shared_row_settles_a_meet_with_no_elimination(self, monkeypatch):
        x = canonicalize(3, QQ, [[1, 1, 0]])
        y = canonicalize(3, QQ, [[1, 1, 0], [0, 0, 1]])
        assert component_clause_ok((x, y)) is False  # clause (i) eliminates
        self.refuse_elimination(monkeypatch)
        assert cross_nontrivial(x, y) is True

    def test_disjoint_pivots_settle_with_no_elimination(self, monkeypatch):
        x, y = canonicalize(3, QQ, [[1, 0, 0]]), canonicalize(3, QQ, [[0, 1, 1]])
        self.refuse_elimination(monkeypatch)
        assert cross_nontrivial(x, y) is False
        assert component_clause_ok((x, y)) is True

    @pytest.mark.parametrize("rows", [[[1, 0]], [[0, 1]]])
    def test_parts_of_other_spaces_are_refused(self, rows):
        x, y = canonicalize(2, QQ, [[1, 0]]), canonicalize(2, PrimeField(2), rows)
        with pytest.raises(FieldMismatchError):
            cross_nontrivial(x, y)
        with pytest.raises(FieldMismatchError):
            component_clause_ok((x, y))


def assert_verify_matches_reference(system) -> None:
    for flavor in flavors_for(system.d):
        report = verify(system, flavor)
        assert (report.verdict, report.first_violation) == reference_verify(system, flavor)


class TestClauseTableMatchesPairwiseVerify:
    @settings(max_examples=300, deadline=None)
    @given(systems_with_violations())
    def test_verdict_and_first_violation(self, system):
        assert_verify_matches_reference(system)

    @settings(max_examples=60, deadline=None)
    @given(systems_with_violations(wide=True))
    def test_verdict_and_first_violation_up_to_max_n(self, system):
        assert_verify_matches_reference(system)

    def test_hit_read_from_an_earlier_index_is_rebuilt(self):
        # verify reads hits from index i + 1 on; a later read from 0 must not
        # reuse that partial bitset
        field = PrimeField(2)
        z = zero_subspace(2, field)
        e1, e2 = coordinate_subspace(2, field, [1]), coordinate_subspace(2, field, [2])
        table = ClauseTable("skew", 2, [(z, e1 + e2), (z, e2), (z, e1)])
        assert table.hit(e1, 1, 2) == 0b100
        assert table.hit(e1, 1) == 0b101

    def test_witness_order_on_fixed_systems(self):
        # a duplicate, clause (i) after a bollobas miss below i, and a last-j miss
        chain = complement_chain(3)
        dup = SetSystem(3, 2, chain.tuples[:2] + chain.tuples[1:2])
        overlap = SetSystem(2, 2, ((1, 2), (1, 1)))  # A_2 misses B_1; tuple 2 overlaps
        late = SetSystem(3, 2, chain.tuples[1:] + chain.tuples[:1])
        cases = [
            (chain, "skew", (True, None)),
            (dup, "skew", (False, (2, 3, "cross"))),
            (overlap, "weak", (False, (2, 2, "component"))),
            (overlap, "bollobas", (False, (2, 1, "cross"))),
            (chain, "bollobas", (False, (2, 1, "cross"))),
            (late, "skew", (False, (1, 8, "cross"))),
            (late, "weak", (True, None)),
        ]
        for system, flavor, expected in cases:
            report = verify(system, flavor)
            assert (report.verdict, report.first_violation) == expected
            assert reference_verify(system, flavor) == expected


# ---------------------------------------------------------------------------
# the weak certificate: distinct ordered partitions of one support


@st.composite
def one_support_systems(draw):
    """Distinct tuples, each a random ordered partition of one random support
    S of [n] (all of [n] half the time), n in [0, 8] or 64 and d in [1, 4];
    then one drawn perturbation: a tuple copied to a random index, an element
    of one tuple added to a second component of it, an element dropped from
    one tuple, or the tuples shuffled."""
    n = draw(st.sampled_from([MAX_N, *range(9)]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    d = rng.randint(1, 4)  # not drawn: hypothesis leans to d = 1, where S has one partition
    everything = draw(st.booleans())
    support = [e for e in range(n) if everything or rng.random() < 0.5]

    def partition() -> tuple[int, ...]:
        parts = [0] * d
        for e in support:
            parts[rng.randrange(d)] |= 1 << e
        return tuple(parts)

    tuples = list(dict.fromkeys(partition() for _ in range(rng.randrange(16))))
    perturbation = draw(st.sampled_from(["none", "duplicate", "overlap", "drop", "reorder"]))
    if tuples and perturbation == "duplicate":
        tuples.insert(rng.randrange(len(tuples) + 1), rng.choice(tuples))
    elif tuples and support and perturbation in ("overlap", "drop"):
        i, e = rng.randrange(len(tuples)), rng.choice(support)
        parts = list(tuples[i])
        p = next(k for k, part in enumerate(parts) if part >> e & 1)
        if perturbation == "drop":
            parts[p] ^= 1 << e
        elif d > 1:
            parts[rng.choice([q for q in range(d) if q != p])] |= 1 << e
        tuples[i] = tuple(parts)
    elif perturbation == "reorder":
        rng.shuffle(tuples)
    return SetSystem(n, d, tuple(tuples))


class TestWeakPartitionCertificate:
    @settings(max_examples=400, deadline=None)
    @given(one_support_systems())
    def test_verdict_and_first_violation(self, system):
        assert_verify_matches_reference(system)

    def test_full_systems_skip_the_clause_table(self, monkeypatch):
        full = full_tuza_tuples(6, 3)
        repeated = SetSystem(6, 3, full.tuples + full.tuples[:1])

        def refuse(*args):
            raise AssertionError("clause table built")

        monkeypatch.setattr(verifiers, "ClauseTable", refuse)
        assert full.m == 729 and verify(full, "weak").verdict
        for system, flavor in ((full, "skew"), (repeated, "weak")):
            with pytest.raises(AssertionError, match="^clause table built$"):
                verify(system, flavor)
        with pytest.raises(ShapeError, match="^unknown flavor 'wek'$"):
            verify(full, "wek")


# ---------------------------------------------------------------------------
# the clause table's element bitsets, however the table was built


@st.composite
def set_columns(draw):
    """(flavor, n, d, tuples, chunk sizes): n up to 70, m crossing the 8- and
    64-bit boundaries of the packed columns and of the tuple bitsets."""
    n = draw(st.one_of(st.integers(1, 70), st.sampled_from([8, 9, 63, 64, 65, 70])))
    d = draw(st.integers(1, 3))
    m = draw(st.sampled_from([0, 1, 7, 8, 9, 63, 64, 65, 130]))
    rng = random.Random(draw(st.integers(0, 2**32)))

    def mask() -> int:
        if rng.random() < 0.5:
            return rng.getrandbits(n)
        return sum(1 << rng.randrange(n) for _ in range(rng.randrange(4)))

    tuples = [tuple(mask() for _ in range(d)) for _ in range(m)]
    chunks = draw(st.lists(st.integers(1, 70), max_size=6))
    return draw(st.sampled_from(flavors_for(d))), n, d, tuples, chunks


def clause_table_builds(flavor: str, d: int, tuples: list, chunks: list[int]) -> list:
    """The table over ``tuples`` built at once, by ``extend`` in chunks of the
    drawn sizes (the rest in one chunk), and one tuple at a time."""
    at_once = ClauseTable(flavor, d, tuples)
    chunked = ClauseTable(flavor, d)
    start = 0
    for size in chunks + [len(tuples)]:
        chunked.extend(tuples[start : start + size])
        start += size
    one_by_one = ClauseTable(flavor, d)
    for t in tuples:
        one_by_one.extend((t,))
    return [at_once, chunked, one_by_one]


class TestClauseTableBuilds:
    @settings(max_examples=60, deadline=None)
    @given(set_columns())
    def test_hits_and_rows_match_the_per_element_reference(self, case):
        flavor, n, d, tuples, chunks = case
        tables = clause_table_builds(flavor, d, tuples, chunks)
        need = (1 << len(tuples)) - 1
        for q in range(d):
            reference = reference_element_bitsets(tuples, q)
            for e in range(n):
                for table in tables:
                    assert table.hit(1 << e, q) == reference.get(e, 0)
        for t in tuples[:20]:
            expected = reference_row(flavor, t, tuples)
            for table in tables:
                assert table.row(t, need) & need == expected


FLAVOR_ENTRY_POINTS = {
    "ConditionKind": lambda flavor, d: ConditionKind(flavor, "set", d),
    "ClauseTable": lambda flavor, d: ClauseTable(flavor, d),
    "SearchProblem": lambda flavor, d: SearchProblem(n=2, d=d, flavor=flavor),
}


@pytest.mark.parametrize("entry", sorted(FLAVOR_ENTRY_POINTS))
class TestFlavorRules:
    """Every entry point that takes a flavor refuses the same inputs with the
    same exception and text."""

    def test_unknown_flavor(self, entry):
        with pytest.raises(ShapeError, match="^unknown flavor 'wek'$") as info:
            FLAVOR_ENTRY_POINTS[entry]("wek", 2)
        assert type(info.value) is ShapeError

    @pytest.mark.parametrize("d", [1, 3])
    def test_bollobas_needs_pairs(self, entry, d):
        with pytest.raises(ShapeError, match=f"^the bollobas condition needs a pair system, arity is {d}$"):
            FLAVOR_ENTRY_POINTS[entry]("bollobas", d)

    @pytest.mark.parametrize("flavor, d", [("bollobas", 2), ("skew", 1), ("skew", 3), ("weak", 3)])
    def test_accepted(self, entry, flavor, d):
        FLAVOR_ENTRY_POINTS[entry](flavor, d)
