"""Weight values, licensed verdicts, and potentials."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bollobas import (
    LicensingError,
    PreconditionError,
    PrimeField,
    QQ,
    SetSystem,
    ShapeError,
    SubspaceSystem,
    binomial,
    complement_chain,
    coordinate_decomposition,
    coordinate_subspace,
    embed,
    evaluate_inequality,
    full_tuza_tuples,
    omega,
    partitioned_complement_chain,
    phi,
    phi_upper_bound,
    random_compatible_pair_system,
    random_valid_system,
    term,
    tuza,
    uniform_bollobas,
    verify,
    zero_subspace,
)
from bollobas.weight_functionals import FUNCTIONALS, FunctionalKind

from conftest import reference_omega


def yue_chain_oracle(n: int) -> Fraction:
    """Closed-form sum over all subsets: sum_S 1 / ((n+1) C(n, |S|))."""
    total = Fraction(0)
    for mask in range(1 << n):
        k = bin(mask).count("1")
        total += Fraction(1, (n + 1) * binomial(n, k))
    return total


class TestOmegaValues:
    def test_yue_on_single_empty_pair(self):
        s = SetSystem.from_sets(1, [((), ())])
        assert omega(s, "yue_sum") == 1

    def test_yue_on_chain2_matches_closed_form(self):
        # oracle: 1/3 + 1/6 + 1/6 + 1/3 == 1
        assert yue_chain_oracle(2) == 1
        chain = complement_chain(2)
        assert omega(chain, "yue_sum") == 1
        terms = [Fraction(1, 3), Fraction(1, 6), Fraction(1, 6), Fraction(1, 3)]
        assert sum(terms) == 1

    def test_partitioned_yue_on_partitioned_chain2(self):
        s = partitioned_complement_chain(2, [[1], [2]])
        # each full pair contributes 1/(C(1, a_k) * 2) per block: 4 * 1/4
        assert omega(s, "partitioned_yue_sum") == 1

    def test_tuza_full_tuples_on_one_point(self):
        s = full_tuza_tuples(1, 2)
        assert omega(s, tuza((Fraction(1, 2), Fraction(1, 2)))) == 1

    def test_bollobas_sum_on_uniform_construction(self):
        s = uniform_bollobas(2, 1)
        assert omega(s, "bollobas_sum") == 1

    def test_hegedus_frankl_on_chain2(self):
        chain = complement_chain(2)
        assert omega(chain, "hegedus_frankl_sum") == 1 + Fraction(1, 2) + Fraction(1, 2) + 1 == 3

    def test_empty_system_weighs_zero(self):
        s = SetSystem.from_sets(3, [], d=2)
        for name in ("bollobas_sum", "yue_sum", "hegedus_frankl_sum"):
            assert omega(s, name) == 0
        assert omega(s, tuza((Fraction(1, 2), Fraction(1, 2)))) == 0

    def test_bollobas_equals_hegedus_frankl_everywhere(self):
        rng = random.Random(14)
        for _ in range(60):
            n = rng.randrange(1, 5)
            tuples = []
            for _ in range(rng.randrange(0, 5)):
                a = rng.randrange(1 << n)
                b = rng.randrange(1 << n) & ~a
                tuples.append((a, b))
            s = SetSystem(n, 2, tuple(tuples))
            assert omega(s, "bollobas_sum") == omega(s, "hegedus_frankl_sum")

    def test_partitioned_kinds_degenerate_at_r1(self):
        rng = random.Random(15)
        for seed in range(20):
            n = 2 + seed % 3
            tuples = []
            for _ in range(rng.randrange(0, 4)):
                a = rng.randrange(1 << n)
                b = rng.randrange(1 << n) & ~a
                tuples.append((a, b))
            s = SetSystem(n, 2, tuple(tuples), partition=((1 << n) - 1,))
            assert omega(s, "partitioned_yue_sum") == omega(s, "yue_sum")
            assert omega(s, "partitioned_bollobas_sum") == omega(s, "bollobas_sum")

    def test_tuza_arity_mismatch(self):
        s = full_tuza_tuples(2, 3)
        with pytest.raises(ShapeError):
            omega(s, tuza((Fraction(1, 2), Fraction(1, 2))))

    def test_partitioned_needs_context(self):
        s = SetSystem.from_sets(2, [({1}, {2})])
        with pytest.raises(ShapeError):
            omega(s, "partitioned_yue_sum")

    @pytest.mark.parametrize("name", ["partitioned_yue_sum", "partitioned_bollobas_sum"])
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("embedded", [False, True], ids=["set", "subspace"])
    def test_block_rules_refuse_an_empty_non_pair_system(self, name, d, embedded):
        # the refusal a one-tuple system of the same arity gets
        s = SetSystem(2, d, (), partition=(1, 2))
        if embedded:
            s = embed(s)
        for entry in (omega, evaluate_inequality):
            with pytest.raises(ShapeError, match=f"^block profile needs a pair system, arity is {d}$"):
                entry(s, name)

    def test_scott_wilmer_monotone_precondition(self):
        ok = SetSystem.from_sets(2, [({1}, {2}), ({1, 2}, ())])
        assert omega(ok, "scott_wilmer_sum") == Fraction(1, 2) + 1
        bad = SetSystem.from_sets(2, [({1, 2}, ()), ({1}, {2})])
        with pytest.raises(PreconditionError):
            omega(bad, "scott_wilmer_sum")


class TestLicensing:
    def test_yue_verdict_tight_on_chain(self):
        verdict = evaluate_inequality(complement_chain(2), "yue_sum")
        assert verdict.holds and verdict.tight
        assert verdict.value == 1 and verdict.bound == 1
        assert verdict.licensed_by.flavor == "skew"

    def test_hegedus_frankl_verdict(self):
        verdict = evaluate_inequality(complement_chain(2), "hegedus_frankl_sum")
        assert verdict.value == 3 and verdict.bound == 3 and verdict.tight

    def test_tuza_verdict_on_27_tuples(self):
        s = full_tuza_tuples(3, 3)
        verdict = evaluate_inequality(
            s, tuza((Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
        )
        assert verdict.value == 1 and verdict.tight
        assert verdict.licensed_by.flavor == "weak"

    def test_bollobas_sum_refused_without_license(self):
        # the chain is skew but neither bollobas nor size-monotone
        chain = complement_chain(2)
        assert not verify(chain, "bollobas").verdict
        with pytest.raises(LicensingError):
            evaluate_inequality(chain, "bollobas_sum")
        # its value actually exceeds 1, which is why the license matters
        assert omega(chain, "bollobas_sum") > 1

    def test_bollobas_sum_licensed_by_monotone_skew(self):
        s = SetSystem.from_sets(3, [({1}, {2}), ({3}, {1})])
        assert verify(s, "skew").verdict and not verify(s, "bollobas").verdict
        verdict = evaluate_inequality(s, "bollobas_sum")
        assert verdict.licensed_by.monotone
        assert verdict.holds

    def test_bollobas_sum_licensed_by_bollobas(self):
        s = uniform_bollobas(1, 1)
        verdict = evaluate_inequality(s, "bollobas_sum")
        assert verdict.licensed_by.flavor == "bollobas"
        assert verdict.tight

    def test_scott_wilmer_needs_monotone_profile(self):
        bad = SetSystem.from_sets(2, [({1, 2}, ()), ({1}, {2})])
        with pytest.raises(PreconditionError):
            evaluate_inequality(bad, "scott_wilmer_sum")

    def test_tuza_refused_on_weak_subspace_systems(self):
        # weak but not skew; the subspace tuza bound is only licensed by skew
        e1 = coordinate_subspace(2, QQ, [1])
        e2 = coordinate_subspace(2, QQ, [2])
        v = coordinate_subspace(2, QQ, [1, 2])
        z = zero_subspace(2, QQ)
        s = SubspaceSystem(2, QQ, 2, ((e1, e2), (v, z)))
        assert verify(s, "weak").verdict and not verify(s, "skew").verdict
        with pytest.raises(LicensingError):
            evaluate_inequality(s, tuza((Fraction(1, 2), Fraction(1, 2))))

    def test_unverified_skew_refused(self):
        s = SetSystem.from_sets(2, [({1}, {2}), ({1}, {2})])
        with pytest.raises(LicensingError):
            evaluate_inequality(s, "yue_sum")

    def test_partitioned_bollobas_bound_is_block_product(self):
        s = partitioned_complement_chain(2, [[1], [2]])
        verdict = evaluate_inequality(s, "partitioned_bollobas_sum")
        assert verdict.bound == 4  # (1 + 1)(1 + 1)
        assert verdict.holds and verdict.tight  # 4 pairs, each term 1/1

    def test_incompatible_subspace_system_refused(self):
        from bollobas import canonicalize

        decomp = coordinate_decomposition(2, QQ, [[1], [2]])
        diag = canonicalize(2, QQ, [(1, 1)])
        s = SubspaceSystem(2, QQ, 2, ((diag, zero_subspace(2, QQ)),), decomp)
        with pytest.raises(LicensingError):
            evaluate_inequality(s, "partitioned_yue_sum")

    def test_corpus_yue_holds(self, skew_set_pair_corpus):
        for s in skew_set_pair_corpus:
            verdict = evaluate_inequality(s, "yue_sum")
            assert verdict.holds

    def test_corpus_tuza_holds_for_several_p(self, weak_set_tuple_corpus):
        vectors = {
            2: [(Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3), Fraction(2, 3))],
            3: [
                (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
                (Fraction(1, 5), Fraction(2, 5), Fraction(2, 5)),
            ],
            4: [(Fraction(1, 4),) * 4],
        }
        for s in weak_set_tuple_corpus:
            for p in vectors[s.d]:
                assert evaluate_inequality(s, tuza(p)).holds

    def test_corpus_partitioned_yue_holds(self, compatible_pair_corpus):
        for s in compatible_pair_corpus:
            verdict = evaluate_inequality(s, "partitioned_yue_sum")
            assert verdict.holds


class TestPotentials:
    def test_set_potential(self):
        s = SetSystem.from_sets(2, [({1}, ())])
        assert phi(s, "set") == 1
        assert phi_upper_bound(s, "set") == 2 * 3**2

    def test_pair_potential_single_deficient_pair(self):
        decomp = coordinate_decomposition(2, QQ, [[1, 2]])
        s = SubspaceSystem(
            2, QQ, 2,
            ((coordinate_subspace(2, QQ, [1]), zero_subspace(2, QQ)),),
            decomp,
        )
        assert phi(s, "pair") == 2  # 2^(2-1)
        assert phi_upper_bound(s, "pair") == 4**2

    def test_pair_potential_full_pair(self):
        decomp = coordinate_decomposition(2, QQ, [[1], [2]])
        s = SubspaceSystem(
            2, QQ, 2,
            ((coordinate_subspace(2, QQ, [1]), coordinate_subspace(2, QQ, [2])),),
            decomp,
        )
        assert phi(s, "pair") == 2**2

    def test_phi_upper_bound_examples(self):
        pair_sys = SubspaceSystem(
            3, QQ, 2, (), coordinate_decomposition(3, QQ, [[1, 2, 3]])
        )
        assert phi_upper_bound(pair_sys, "pair") == 64
        set_sys = SetSystem.from_sets(2, [], d=2)
        assert phi_upper_bound(set_sys, "set") == 18
        tuple_sys = SubspaceSystem(2, QQ, 3, ())
        assert phi_upper_bound(tuple_sys, "tuple") == 2 * 3**2

    def test_tuple_potential(self):
        v = coordinate_subspace(2, QQ, [1])
        s = SubspaceSystem(2, QQ, 2, ((v, zero_subspace(2, QQ)),))
        assert phi(s, "tuple") == 1

    def test_flavor_shape_checks(self):
        s = SetSystem.from_sets(2, [({1}, {2})])
        with pytest.raises(ShapeError):
            phi(s, "pair")
        sub = SubspaceSystem(2, QQ, 2, ())
        with pytest.raises(ShapeError):
            phi(sub, "set")
        with pytest.raises(ShapeError):
            phi(sub, "pair")  # no decomposition
        with pytest.raises(ValueError):
            phi(s, "unknown")


class TestEmbedPreservesWeights:
    def test_all_functional_values_transfer(self):
        rng = random.Random(23)
        for seed in range(25):
            n = 2 + seed % 3
            tuples = []
            for _ in range(rng.randrange(0, 4)):
                a = rng.randrange(1 << n)
                b = rng.randrange(1 << n) & ~a
                tuples.append((a, b))
            blocks = [[1], list(range(2, n + 1))] if n > 1 else [[1]]
            s = SetSystem.from_sets(
                n,
                [
                    (
                        [p + 1 for p in range(n) if (a >> p) & 1],
                        [p + 1 for p in range(n) if (b >> p) & 1],
                    )
                    for a, b in tuples
                ],
                partition=blocks,
                d=2,
            )
            e = embed(s)
            for name in (
                "bollobas_sum",
                "hegedus_frankl_sum",
                "yue_sum",
                "partitioned_yue_sum",
                "partitioned_bollobas_sum",
            ):
                assert omega(s, name) == omega(e, name)
            p = tuza((Fraction(1, 3), Fraction(2, 3)))
            assert omega(s, p) == omega(e, p)


@st.composite
def weighted_systems(draw):
    """Set systems of arbitrary masks, with or without a partition; their
    embeddings; random compatible pair systems with a decomposition; and
    random skew GF(2)/GF(3) systems without one."""
    n = draw(st.integers(1, 4))
    d = draw(st.sampled_from([2, 2, 2, 1, 3]))
    source = draw(st.sampled_from(["set", "embedded", "compatible", "gf"]))
    if source == "compatible":
        blocks = [[1], list(range(2, n + 1))] if n > 1 else [[1]]
        m = draw(st.integers(1, 4))
        return random_compatible_pair_system(n, blocks, m, seed=draw(st.integers(0, 999)))
    if source == "gf":
        field = PrimeField(draw(st.sampled_from([2, 3])))
        m = draw(st.integers(0, 4))
        n = min(n, 3)
        return random_valid_system(n, d, "skew", m, seed=draw(st.integers(0, 999)), field=field)
    masks = st.integers(0, (1 << n) - 1)
    tuples = draw(st.lists(st.tuples(*[masks] * d), max_size=5))
    partition = None
    if draw(st.booleans()):
        labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        partition = tuple(
            sum(1 << p for p, label in enumerate(labels) if label == k)
            for k in sorted(set(labels))
        )
    system = SetSystem(n, d, tuple(tuples), partition)
    return embed(system) if source == "embedded" else system


@st.composite
def functional_kinds(draw, d):
    """Any of the seven functionals; a tuza p usually has d entries."""
    name = draw(st.sampled_from(FUNCTIONALS))
    if name != "tuza_sum":
        return FunctionalKind(name)
    size = draw(st.sampled_from([d, d, d, d + 1] + ([d - 1] if d > 1 else [])))
    shares = draw(st.lists(st.integers(1, 4), min_size=size, max_size=size))
    return tuza(tuple(Fraction(x, sum(shares)) for x in shares))


def _outcome(weigh, system, kind):
    try:
        return weigh(system, kind)
    except (ShapeError, PreconditionError) as exc:
        return type(exc)


class TestOmegaMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_omega_equals_per_tuple_loop(self, data):
        system = data.draw(weighted_systems())
        kind = data.draw(functional_kinds(system.d))
        assert _outcome(omega, system, kind) == _outcome(reference_omega, system, kind)

    def test_term_examples(self):
        assert term((1, 2), "yue_sum") == Fraction(1, 4 * 3)
        assert term((1, 2), "hegedus_frankl_sum") == term((1, 2), "bollobas_sum") == Fraction(1, 3)
        assert term(((1, 1), (0, 2)), "partitioned_yue_sum") == Fraction(1, 2 * 3 * 1 * 3)
        assert term(((1, 1), (0, 2)), "partitioned_bollobas_sum") == Fraction(1, 2)
        assert term((2, 0, 1), tuza((Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))) == Fraction(1, 16)

    def test_term_checks_the_profile_shape(self):
        with pytest.raises(ShapeError):
            term((1, 1, 1), "yue_sum")
        with pytest.raises(ShapeError):
            term((1, 1), "partitioned_yue_sum")  # sizes where block pairs are needed
        with pytest.raises(ShapeError):
            term((1, 1, 1), tuza((Fraction(1, 2), Fraction(1, 2))))

    @pytest.mark.parametrize("kind", ["tuza_sum", "no_such_sum", None])
    def test_term_refuses_a_kind_it_cannot_build(self, kind):
        with pytest.raises(ValueError):
            term((1, 1), kind)

    def test_equal_kinds_share_one_term(self):
        # the cache keys on p's ints, so an equal kind built afresh is a hit
        profile = (3, 0, 5)
        first = term(profile, tuza((Fraction(1, 7), Fraction(2, 7), Fraction(4, 7))))
        again = term(profile, tuza((Fraction(1, 7), Fraction(2, 7), Fraction(4, 7))))
        assert again is first
        assert first == Fraction(1, 7) ** 3 * Fraction(4, 7) ** 5
        assert term(profile, tuza((Fraction(4, 7), Fraction(2, 7), Fraction(1, 7)))) != first
