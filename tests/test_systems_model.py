"""System data model: profiles, embedding, decomposition compatibility."""

import random

import pytest

from bollobas import (
    QQ,
    Decomposition,
    FieldMismatchError,
    PrimeField,
    SetSystem,
    ShapeError,
    SubspaceSystem,
    canonicalize,
    coordinate_decomposition,
    coordinate_subspace,
    embed,
    is_decomposition_compatible,
    random_valid_system,
    zero_subspace,
)
from bollobas.systems_model import (
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
            s = random_valid_system("set", n, 2, "skew", target_m=3, seed=seed)
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
