"""Condition verification and counting-bound certificates."""

import random

import pytest

from bollobas import (
    PreconditionError,
    PrimeField,
    QQ,
    SetSystem,
    ShapeError,
    SubspaceSystem,
    check_cardinality_lemmas,
    check_partitioned_uniform_bound,
    check_uniform_pair_bound,
    complement_chain,
    coordinate_decomposition,
    coordinate_subspace,
    embed,
    full_tuza_tuples,
    is_skew_implies_weak_check,
    verify,
    zero_subspace,
)
from bollobas.verifiers import ConditionKind

from conftest import oracle_set_verify, set_tuple_lists


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

    def test_condition_kind_mismatch_rejected(self):
        s = SetSystem.from_sets(2, [({1}, {2})])
        with pytest.raises(ShapeError):
            verify(s, ConditionKind("skew", "subspace", 2))

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
