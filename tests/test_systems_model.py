"""System data model: profiles, embedding, decomposition compatibility."""

import random
import time

import pytest

from bollobas import (
    QQ,
    ConditionKind,
    Decomposition,
    FieldMismatchError,
    FunctionalKind,
    PrimeField,
    ProbabilityVector,
    SearchProblem,
    SetSystem,
    ShapeError,
    SubspaceSystem,
    canonicalize,
    complement_chain,
    contains,
    coordinate_decomposition,
    coordinate_subspace,
    embed,
    explore_weak_subspace_conjecture,
    full_space,
    full_tuza_tuples,
    is_decomposition_compatible,
    partitioned_complement_chain,
    random_compatible_pair_system,
    random_valid_system,
    saturate,
    search_max,
    uniform_bollobas,
    zero_subspace,
)
from bollobas.systems_model import (
    MAX_D,
    MAX_N,
    block_profiles,
    blocks_of,
    elements_of_mask,
    mask_from_elements,
    sizes_of,
)


def test_mask_round_trip():
    assert mask_from_elements([1, 3], 3) == 0b101
    assert elements_of_mask(0b101) == (1, 3)
    with pytest.raises(ValueError):
        mask_from_elements([4], 3)
    with pytest.raises(ValueError, match="element True outside"):
        mask_from_elements([True], 3)
    with pytest.raises(ValueError):
        mask_from_elements([0], 3)


class TestSetSystem:
    def test_from_sets(self):
        s = SetSystem.from_sets(3, [({1}, {2}), ({2, 3}, {1})])
        assert s.m == 2 and s.d == 2
        assert s.tuples == ((0b001, 0b010), (0b110, 0b001))

    def test_partition_validation(self):
        SetSystem.from_sets(2, [({1}, {2})], partition=[[1], [2]])
        with pytest.raises(ValueError):
            SetSystem.from_sets(2, [({1}, {2})], partition=[[1], [1, 2]])
        with pytest.raises(ValueError):
            SetSystem.from_sets(2, [({1}, {2})], partition=[[1]])

    def test_arity_validation(self):
        with pytest.raises(ShapeError):
            SetSystem(2, 2, ((1, 2, 0),))

    def test_order_sensitive_equality(self):
        a = SetSystem.from_sets(2, [({1}, {2}), ({2}, {1})])
        b = SetSystem.from_sets(2, [({2}, {1}), ({1}, {2})])
        assert a != b

    def test_empty_system_needs_arity(self):
        with pytest.raises(ValueError):
            SetSystem.from_sets(2, [])
        assert SetSystem.from_sets(2, [], d=3).m == 0


class TestProfile:
    def test_pair_with_partition(self):
        s = SetSystem.from_sets(2, [({1}, {2}), ({2}, {1})], partition=[[1], [2]])
        assert block_profiles(s) == ((0b01, 0b10), (((1, 0), (0, 1)), ((0, 1), (1, 0))))

    def test_empty_pair_profile(self):
        s = SetSystem.from_sets(2, [((), ())], partition=[[1], [2]])
        assert block_profiles(s)[1] == (((0, 0), (0, 0)),)

    def test_empty_system_has_no_profiles(self):
        s = SetSystem.from_sets(2, [], partition=[[1], [2]], d=2)
        assert block_profiles(s) == ((0b01, 0b10), ())

    def test_pair_without_partition_gives_sizes(self):
        s = SetSystem.from_sets(3, [({1, 2}, {3})])
        assert sizes_of(s.tuples[0]) == (2, 1)

    def test_subspace_pair_profile(self):
        decomp = coordinate_decomposition(3, QQ, [[1, 2], [3]])
        sys = SubspaceSystem(
            3,
            QQ,
            2,
            ((coordinate_subspace(3, QQ, [1, 3]), coordinate_subspace(3, QQ, [2])),),
            decomp,
        )
        assert block_profiles(sys) == (decomp.blocks, (((1, 1), (1, 0)),))

    @pytest.mark.parametrize("tuples", [[({1}, {2}, {3})], []])
    def test_refused_off_a_pair_system(self, tuples):
        s = SetSystem.from_sets(3, tuples, partition=[[1], [2, 3]], d=3)
        with pytest.raises(ShapeError, match=r"^block profile needs a pair system, arity is 3$"):
            block_profiles(s)

    @pytest.mark.parametrize("embedded, context", [(False, "partition"), (True, "decomposition")])
    def test_refused_without_blocks(self, embedded, context):
        s = SetSystem.from_sets(2, [({1}, {2})])
        if embedded:
            s = embed(s)
        with pytest.raises(ShapeError, match=f"^needs a {context}$"):
            block_profiles(s)


class TestBlocks:
    def test_set_system(self):
        s = SetSystem.from_sets(3, [], partition=[[1, 3], [2]], d=2)
        assert blocks_of(s) == (0b101, 0b010)
        assert sizes_of(blocks_of(s)) == (2, 1)
        assert blocks_of(SetSystem.from_sets(3, [], d=2)) is None

    def test_subspace_system(self):
        decomp = coordinate_decomposition(3, QQ, [[1, 3], [2]])
        s = SubspaceSystem(3, QQ, 2, (), decomp)
        assert blocks_of(s) == decomp.blocks
        assert sizes_of(blocks_of(s)) == (2, 1)
        assert blocks_of(SubspaceSystem(3, QQ, 2, ())) is None

    @pytest.mark.parametrize("n, field", [(2, QQ), (3, PrimeField(3))])
    def test_decomposition_of_another_space_refused(self, n, field):
        decomp = coordinate_decomposition(n, field, [[p] for p in range(1, n + 1)])
        with pytest.raises(ShapeError, match=r"^decomposition in wrong ambient space or field$"):
            SubspaceSystem(3, QQ, 2, (), decomp)

    def test_block_of_another_field_refused(self):
        blocks = (coordinate_subspace(2, QQ, [1]), coordinate_subspace(2, PrimeField(3), [2]))
        with pytest.raises(
            FieldMismatchError, match=r"^decomposition block in wrong ambient space/field$"
        ):
            Decomposition(2, QQ, blocks)


class TestEmbed:
    def test_single_pair(self):
        s = SetSystem.from_sets(2, [({1}, {2})])
        e = embed(s)
        assert e.tuples[0][0] == coordinate_subspace(2, QQ, [1])
        assert e.tuples[0][1] == coordinate_subspace(2, QQ, [2])

    def test_empty_sets_embed_to_zero(self):
        s = SetSystem.from_sets(2, [((), ())])
        e = embed(s)
        assert e.tuples[0][0].dim == 0 and e.tuples[0][1].dim == 0

    def test_sizes_become_dims(self):
        rng = random.Random(4)
        for seed in range(25):
            n = 2 + seed % 3
            s = random_valid_system(n, 2, "skew", target_m=3, seed=seed)
            e = embed(s)
            for t, u in zip(s.tuples, e.tuples):
                assert sizes_of(t) == sizes_of(u)

    def test_block_profiles_preserved(self):
        s = SetSystem.from_sets(
            4,
            [({1, 3}, {2}), ({2, 4}, {1, 3})],
            partition=[[1, 2], [3, 4]],
        )
        assert block_profiles(s)[1] == block_profiles(embed(s))[1]

    def test_embedded_system_is_compatible(self):
        s = SetSystem.from_sets(3, [({1}, {2, 3})], partition=[[1, 2], [3]])
        assert is_decomposition_compatible(embed(s))


class TestDecompositionCompatibility:
    def test_diagonal_line_is_incompatible(self):
        decomp = coordinate_decomposition(3, QQ, [[1, 2], [3]])
        diag = canonicalize(3, QQ, [(1, 0, 1)])
        sys = SubspaceSystem(3, QQ, 2, ((diag, zero_subspace(3, QQ)),), decomp)
        assert not is_decomposition_compatible(sys)

    def test_zero_subspaces_are_compatible(self):
        decomp = coordinate_decomposition(2, QQ, [[1], [2]])
        z = zero_subspace(2, QQ)
        sys = SubspaceSystem(2, QQ, 2, ((z, z),), decomp)
        assert is_decomposition_compatible(sys)

    def test_requires_decomposition(self):
        z = zero_subspace(2, QQ)
        sys = SubspaceSystem(2, QQ, 2, ((z, z),))
        with pytest.raises(ShapeError):
            is_decomposition_compatible(sys)


def _range_cases():
    """(id, call, text): each library entry point at every size it takes,
    just outside the range, and the calls that once hung, raised a bare
    ``ValueError`` or took any ambient n."""
    uniform = ProbabilityVector.uniform(2)
    entries = {
        "SetSystem": lambda n, d: SetSystem(n, d, ()),
        "SubspaceSystem": lambda n, d: SubspaceSystem(n, QQ, d, ()),
        "complement_chain": lambda n, d: complement_chain(n),
        "partitioned_complement_chain": lambda n, d: partitioned_complement_chain(n, [range(1, n + 1)]),
        "full_tuza_tuples": full_tuza_tuples,
        "random_valid_system_set": lambda n, d: random_valid_system(n, d, "weak", 10, 0),
        "random_valid_system_qq": lambda n, d: random_valid_system(n, d, "weak", 10, 0, field=QQ),
        "random_compatible_pair_system": (
            lambda n, d: random_compatible_pair_system(n, [range(1, n + 1)], 10, 0)
        ),
        "SearchProblem": lambda n, d: SearchProblem(n=n, d=d, flavor="weak"),
        "explore_gf2": lambda n, d: explore_weak_subspace_conjecture(n, d, uniform, PrimeField(2), budget=5),
        "explore_qq": lambda n, d: explore_weak_subspace_conjecture(n, d, uniform, QQ, budget=5),
        "canonicalize": lambda n, d: canonicalize(n, QQ, []),
        "zero_subspace": lambda n, d: zero_subspace(n, QQ),
        "full_space": lambda n, d: full_space(n, QQ),
        "coordinate_subspace": lambda n, d: coordinate_subspace(n, QQ, [1]),
        "coordinate_decomposition": lambda n, d: coordinate_decomposition(n, QQ, [range(1, n + 1)]),
    }
    takes_no_d = {
        "complement_chain", "partitioned_complement_chain", "random_compatible_pair_system",
        "canonicalize", "zero_subspace", "full_space", "coordinate_subspace", "coordinate_decomposition",
    }
    cases = []
    for name, entry in entries.items():
        for n in (-1, MAX_N + 1):
            cases.append((f"{name}-n={n}", lambda entry=entry, n=n: entry(n, 2), f"n={n} is outside [0, 64]"))
        if name not in takes_no_d:
            for d in (0, MAX_D + 1):
                cases.append((f"{name}-d={d}", lambda entry=entry, d=d: entry(2, d), f"d={d} is outside [1, 16]"))
    for key, a, b in (("a", -1, 2), ("a", MAX_N + 1, 0), ("b", 2, -1), ("b", 0, MAX_N + 1)):
        value = a if key == "a" else b
        cases.append(
            (f"uniform_bollobas-{key}={value}", lambda a=a, b=b: uniform_bollobas(a, b),
             f"{key}={value} is outside [0, 64]")
        )
    cases += [
        ("uniform_bollobas-a+b=65", lambda: uniform_bollobas(1, MAX_N), "a+b=65 is outside [0, 64]"),
        # once hung
        ("random_set-n=10**6", lambda: random_valid_system(10**6, 2, "skew", 10, 0), "n=1000000 is outside [0, 64]"),
        ("random_qq-n=400", lambda: random_valid_system(400, 2, "skew", 10, 0, field=QQ), "n=400 is outside [0, 64]"),
        ("explore_qq-n=200", lambda: explore_weak_subspace_conjecture(200, 2, uniform, QQ, budget=5),
         "n=200 is outside [0, 64]"),
        # once raised a bare ValueError
        ("search_max-n=-1", lambda: search_max(SearchProblem(n=-1, d=2, flavor="skew")), "n=-1 is outside [0, 64]"),
        ("complement_chain-n=14300", lambda: complement_chain(14300), "n=14300 is outside [0, 64]"),
        ("uniform_bollobas-10**5", lambda: uniform_bollobas(10**5, 10**5), "a=100000 is outside [0, 64]"),
        ("saturate-n=14300", lambda: saturate(SetSystem(14300, 2, ((0, 0),)), "set"), "n=14300 is outside [0, 64]"),
        # once took any ambient n: F^(10^5) would have 10^10 entries, and
        # zero_subspace(-5) gave <dim 0 of F^-5: 0>
        ("full_space-n=10**5", lambda: full_space(10**5, QQ), "n=100000 is outside [0, 64]"),
        ("zero_subspace-n=-5", lambda: zero_subspace(-5, QQ), "n=-5 is outside [0, 64]"),
        ("coordinate_subspace-n=400", lambda: coordinate_subspace(400, QQ, [1]), "n=400 is outside [0, 64]"),
        ("canonicalize-n=100", lambda: canonicalize(100, QQ, []), "n=100 is outside [0, 64]"),
    ]
    return cases


RANGE_CASES = _range_cases()


@pytest.mark.parametrize("call, text", [c[1:] for c in RANGE_CASES], ids=[c[0] for c in RANGE_CASES])
def test_library_entry_points_refuse_sizes_outside_the_range(call, text):
    """Every library entry point reads the one size range before any work
    that n or d sizes, and refuses with its one text."""
    start = time.perf_counter()
    with pytest.raises(ShapeError) as refused:
        call()
    assert time.perf_counter() - start < 0.1
    assert type(refused.value) is ShapeError and str(refused.value) == text


def _refusal_cases():
    """(id, call, text): the library refusals of the value constructors and
    the subspace layer that no CLI report reaches."""
    line = coordinate_subspace(2, QQ, [1])
    half = ProbabilityVector.uniform(2)
    return [
        ("SearchProblem-objective", lambda: SearchProblem(2, 2, "skew", objective="x"), "unknown objective 'x'"),
        ("ConditionKind-kind", lambda: ConditionKind("skew", "graph", 2), "unknown system kind 'graph'"),
        ("FunctionalKind-p", lambda: FunctionalKind("yue_sum", half), "yue_sum takes no probability vector"),
        ("SetSystem-mask", lambda: SetSystem(2, 1, ((4,),)), "subset mask 4 outside ground set [1, 2]"),
        ("SubspaceSystem-arity", lambda: SubspaceSystem(2, QQ, 2, ((line,),)), "tuple arity 1 != d=2"),
        (
            "SubspaceSystem-field",
            lambda: SubspaceSystem(2, QQ, 1, ((zero_subspace(2, PrimeField(3)),),)),
            "subspace in wrong ambient space or field",
        ),
        ("coordinate_subspace-coord", lambda: coordinate_subspace(2, QQ, [3]), "coordinate 3 outside [1, 2]"),
        ("contains-length", lambda: contains(line, (1,)), "vector of length 1, expected 2"),
    ]


REFUSAL_CASES = _refusal_cases()


@pytest.mark.parametrize("call, text", [c[1:] for c in REFUSAL_CASES], ids=[c[0] for c in REFUSAL_CASES])
def test_library_refusals_give_their_text(call, text):
    with pytest.raises(ShapeError) as refused:
        call()
    assert type(refused.value) is ShapeError and str(refused.value) == text
