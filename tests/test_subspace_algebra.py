"""Canonical subspaces and lattice operations, cross-checked against
fraction-free rank and GF(2) closure-enumeration oracles."""

import copy
import dataclasses
import math
import pickle
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bollobas import (
    Decomposition,
    FieldMismatchError,
    PreconditionError,
    PrimeField,
    QQ,
    Subspace,
    canonicalize,
    contains,
    coordinate_decomposition,
    coordinate_subspace,
    dim_of_sum,
    extension_vector,
    full_space,
    intersection,
    zero_subspace,
)
from bollobas.extremal_search import all_subspaces
from bollobas.systems_model import sizes_of

from conftest import (
    fractions_to_int_rows,
    gf2_subspaces_bruteforce,
    is_direct_sum,
    rational_rank,
    scalar_basis,
    scalar_rref,
)


def qspan(n, *rows):
    return canonicalize(n, QQ, rows)


def random_subspace(rng, n, field=QQ, max_entry=3):
    rows = []
    for _ in range(rng.randrange(n + 1)):
        if isinstance(field, PrimeField):
            rows.append([rng.randrange(field.p) for _ in range(n)])
        else:
            rows.append([rng.randint(-max_entry, max_entry) for _ in range(n)])
    return canonicalize(n, field, rows)


class TestCanonicalize:
    def test_full_space_from_scaled_rows(self):
        s = qspan(2, [2, 0], [0, 3])
        assert scalar_basis(s) == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
        assert s.dim == 2

    def test_dependent_rows_dropped(self):
        s = qspan(2, [1, 1], [2, 2])
        assert s.dim == 1
        assert scalar_basis(s) == ((Fraction(1), Fraction(1)),)

    def test_non_int_entries_refused(self):
        # a Fraction row over QQ, and over GF(3) one whose pivot is already 1
        with pytest.raises(TypeError, match="int entries"):
            canonicalize(2, QQ, [[Fraction(1, 2), 1]])
        with pytest.raises(TypeError, match="int entries"):
            canonicalize(2, PrimeField(3), [[1, Fraction(1, 2)]])

    @pytest.mark.parametrize("field", [QQ, PrimeField(3)])
    def test_wrong_length_and_negative_n_refused(self, field):
        with pytest.raises(ValueError, match=r"^row of length 3, expected 2$"):
            canonicalize(2, field, [[1, 0], [1, 0, 0]])
        with pytest.raises(ValueError, match=r"^row of length 0, expected 2$"):
            canonicalize(2, field, [[]])
        with pytest.raises(ValueError, match=r"^n=-1 is outside \[0, 64\]$"):
            canonicalize(-1, field, [])

    def test_empty_rows_give_zero_subspace(self):
        s = canonicalize(3, QQ, [])
        assert s.dim == 0
        assert s == zero_subspace(3, QQ)

    def test_idempotent(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randrange(1, 5)
            s = random_subspace(rng, n)
            assert canonicalize(n, QQ, s.rows) == s

    def test_pivots_strictly_increasing_and_normalized(self):
        rng = random.Random(9)
        for _ in range(60):
            n = rng.randrange(1, 5)
            s = random_subspace(rng, n)
            pivots = []
            for row in scalar_basis(s):
                nz = [c for c, x in enumerate(row) if x != 0]
                assert row[nz[0]] == 1
                pivots.append(nz[0])
            assert pivots == sorted(set(pivots))

    def test_rank_matches_bareiss_oracle(self):
        rng = random.Random(21)
        for _ in range(60):
            n = rng.randrange(1, 5)
            rows = [
                [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(rng.randrange(0, n + 2))
            ]
            assert canonicalize(n, QQ, fractions_to_int_rows(rows)).dim == rational_rank(rows)


class TestSumIntersection:
    def test_sum_of_coordinate_lines(self):
        u = coordinate_subspace(3, QQ, [1])
        w = coordinate_subspace(3, QQ, [2])
        assert (u + w) == coordinate_subspace(3, QQ, [1, 2])

    def test_sum_idempotent(self):
        u = qspan(3, [1, 2, 3])
        assert (u + u) == u

    def test_sum_of_skew_lines_spans_plane(self):
        # derived value: rank of the stacked matrix [[1,1,0],[1,-1,0]] is 2
        assert rational_rank([[1, 1, 0], [1, -1, 0]]) == 2
        u = qspan(3, [1, 1, 0])
        w = qspan(3, [1, -1, 0])
        assert (u + w) == coordinate_subspace(3, QQ, [1, 2])

    def test_intersection_of_coordinate_planes(self):
        u = coordinate_subspace(3, QQ, [1, 2])
        w = coordinate_subspace(3, QQ, [2, 3])
        assert intersection(u, w) == coordinate_subspace(3, QQ, [2])

    def test_intersection_of_independent_lines_is_zero(self):
        assert intersection(qspan(3, [1, 0, 0]), qspan(3, [0, 1, 0])).dim == 0
        # derived: the stacked system [[1,1],[1,-1]] has rank 2, so meet is 0
        assert rational_rank([[1, 1], [1, -1]]) == 2
        assert intersection(qspan(2, [1, 1]), qspan(2, [1, -1])).dim == 0

    def test_dimension_formula_randomized(self):
        rng = random.Random(33)
        for _ in range(80):
            n = rng.randrange(1, 5)
            u = random_subspace(rng, n)
            w = random_subspace(rng, n)
            meet = intersection(u, w)
            join = u + w
            assert u.dim + w.dim == join.dim + meet.dim
            for row in scalar_basis(meet):
                assert contains(u, row) and contains(w, row)

    def test_dimension_formula_over_gf(self):
        rng = random.Random(34)
        for p in (2, 3):
            field = PrimeField(p)
            for _ in range(40):
                n = rng.randrange(1, 4)
                u = random_subspace(rng, n, field)
                w = random_subspace(rng, n, field)
                assert u.dim + w.dim == (u + w).dim + intersection(u, w).dim

    def test_mismatch_errors(self):
        with pytest.raises(FieldMismatchError):
            intersection(qspan(2, [1, 0]), qspan(3, [1, 0, 0]))
        with pytest.raises(FieldMismatchError):
            qspan(2, [1, 0]) + canonicalize(2, PrimeField(2), [])


class TestDirectSumAndContains:
    def test_direct_sum_examples(self):
        e1 = coordinate_subspace(2, QQ, [1])
        e2 = coordinate_subspace(2, QQ, [2])
        assert is_direct_sum([e1, e2])
        assert not is_direct_sum([e1, e1])
        assert is_direct_sum([qspan(2, [1, 1]), qspan(2, [0, 1])])

    def test_contains(self):
        plane = coordinate_subspace(3, QQ, [1, 2])
        assert contains(plane, (Fraction(3), Fraction(-5), Fraction(0)))
        assert not contains(coordinate_subspace(3, QQ, [1]), (Fraction(0), Fraction(1), Fraction(0)))
        assert contains(qspan(2, [1, 2]), (Fraction(2), Fraction(4)))

    def test_contains_matches_rank_oracle(self):
        rng = random.Random(41)
        for _ in range(60):
            n = rng.randrange(1, 5)
            u = random_subspace(rng, n)
            v = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            by_rank = rational_rank(list(scalar_basis(u)) + [v]) == u.dim
            assert contains(u, tuple(v)) == by_rank

    def test_equality_is_mutual_containment(self):
        rng = random.Random(43)
        for _ in range(40):
            n = rng.randrange(1, 4)
            u = random_subspace(rng, n)
            w = random_subspace(rng, n)
            mutual = u.is_subspace_of(w) and w.is_subspace_of(u)
            assert (u == w) == mutual


class TestExtensionVector:
    def test_first_basis_row_outside(self):
        vk = coordinate_subspace(3, QQ, [1, 2])
        s = coordinate_subspace(3, QQ, [1])
        assert extension_vector(vk, s) == (Fraction(0), Fraction(1), Fraction(0))

    def test_none_when_equal(self):
        vk = coordinate_subspace(3, QQ, [1, 2])
        assert extension_vector(vk, vk) is None

    def test_first_canonical_row_outside_span(self):
        vk = full_space(3, QQ)
        s = qspan(3, [1, 1, 0], [0, 0, 1])
        # e1 is outside span{e1+e2, e3}; it is the first canonical basis row
        assert extension_vector(vk, s) == (Fraction(1), Fraction(0), Fraction(0))

    def test_postcondition_property(self):
        rng = random.Random(55)
        for _ in range(60):
            n = rng.randrange(1, 5)
            vk = random_subspace(rng, n)
            rows = [r for r in vk.rows if rng.random() < 0.5]
            s = canonicalize(n, QQ, rows)
            x = extension_vector(vk, s)
            if x is None:
                assert s == vk
            else:
                assert contains(vk, x)
                x_span = canonicalize(n, QQ, (x,))
                assert is_direct_sum([s, x_span])

    def test_containment_precondition_checked(self):
        with pytest.raises(PreconditionError):
            extension_vector(coordinate_subspace(3, QQ, [1]), coordinate_subspace(3, QQ, [2]))


class TestComponent:
    def test_examples(self):
        v1 = coordinate_subspace(3, QQ, [1, 2])
        assert intersection(coordinate_subspace(3, QQ, [1, 3]), v1) == coordinate_subspace(3, QQ, [1])
        assert intersection(zero_subspace(3, QQ), v1).dim == 0
        assert intersection(qspan(3, [1, 0, 1]), v1).dim == 0

    def test_component_contained_and_sums_back(self):
        rng = random.Random(77)
        decomp = coordinate_decomposition(4, QQ, [[1, 2], [3], [4]])
        for _ in range(40):
            # coordinate subspaces are decomposition-compatible by construction
            coords = [c for c in range(1, 5) if rng.random() < 0.5]
            u = coordinate_subspace(4, QQ, coords)
            parts = [intersection(u, blk) for blk in decomp.blocks]
            total = zero_subspace(4, QQ)
            for part in parts:
                assert part.is_subspace_of(u)
                total = total + part
            assert total == u


class TestDecomposition:
    def test_valid(self):
        d = coordinate_decomposition(3, QQ, [[1, 2], [3]])
        assert len(d.blocks) == 2
        assert sizes_of(d.blocks) == (2, 1)

    def test_dims_must_sum_to_ambient(self):
        with pytest.raises(ValueError):
            Decomposition(3, QQ, (coordinate_subspace(3, QQ, [1]), coordinate_subspace(3, QQ, [2])))

    def test_blocks_must_be_independent(self):
        with pytest.raises(ValueError):
            Decomposition(
                2,
                QQ,
                (qspan(2, [1, 1]), qspan(2, [2, 2])),
            )


class TestComponentMemo:
    def test_components_are_the_block_meets_computed_once(self, monkeypatch):
        from bollobas import subspace_algebra

        decomp = coordinate_decomposition(3, QQ, [[1, 2], [3]])
        u = qspan(3, [1, 0, 1], [0, 1, 0])
        calls = []
        real = subspace_algebra.intersection

        def counted(x, y):
            calls.append((x, y))
            return real(x, y)

        monkeypatch.setattr(subspace_algebra, "intersection", counted)
        parts = decomp.components(u)
        assert parts == tuple(real(u, blk) for blk in decomp.blocks)
        assert parts == (qspan(3, [0, 1, 0]), zero_subspace(3, QQ))
        assert decomp.components(qspan(3, [0, 1, 0], [1, 0, 1])) is parts
        assert calls == [(u, blk) for blk in decomp.blocks]

    def test_memo_takes_no_part_in_equality_or_hash(self):
        from bollobas import SubspaceSystem

        filled = coordinate_decomposition(2, QQ, [[1], [2]])
        empty = coordinate_decomposition(2, QQ, [[1], [2]])
        pair = (coordinate_subspace(2, QQ, [1]), coordinate_subspace(2, QQ, [2]))
        for sub in pair:
            filled.components(sub)
        assert filled is not empty
        assert filled == empty and hash(filled) == hash(empty) and repr(filled) == repr(empty)
        with_memo = SubspaceSystem(2, QQ, 2, (pair,), filled)
        without = SubspaceSystem(2, QQ, 2, (pair,), empty)
        assert with_memo == without and hash(with_memo) == hash(without)
        assert {with_memo: 1}[without] == 1


SPLIT_FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(5)]


@st.composite
def block_splits(draw):
    """(kind, decomposition, U): blocks of F^n, n <= 6, cut from the rows of
    an invertible L·R (L unit lower triangular, R upper triangular with a
    nonzero diagonal; over QQ of determinant up to ±3^n), some blocks of dim
    0; U is zero, the sum of one random subspace of each block (compatible),
    or the span of random rows (compatible or not)."""
    field = draw(st.sampled_from(SPLIT_FIELDS))
    p = field.p
    n = draw(st.integers(0, 6))
    entry = st.integers(0, p - 1) if p else st.integers(-3, 3)
    diagonal = st.integers(1, p - 1) if p else st.sampled_from([-3, -2, -1, 1, 2, 3])
    lower = [[draw(entry) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    upper = [[draw(diagonal) if i == j else draw(entry) if j > i else 0 for j in range(n)] for i in range(n)]
    rows = [[sum(lower[i][l] * upper[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
    ends = [0, *sorted(draw(st.lists(st.integers(0, n), max_size=3))), n]
    decomposition = Decomposition(
        n, field, tuple(canonicalize(n, field, rows[a:b]) for a, b in zip(ends, ends[1:]))
    )
    kind = draw(st.sampled_from(["zero", "compatible", "any"]))
    vectors = []
    if kind == "compatible":
        for blk in decomposition.blocks:
            for _ in range(draw(st.integers(0, blk.dim))):
                coeffs = [draw(entry) for _ in blk.rows]
                vectors.append([sum(c * row[j] for c, row in zip(coeffs, blk.rows)) for j in range(n)])
    elif kind == "any":
        vectors = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=n))
    return kind, decomposition, canonicalize(n, field, vectors)


class TestBlockSplit:
    """``components`` by one elimination in block coordinates, against the
    Zassenhaus meets with each block."""

    @settings(max_examples=400, deadline=None)
    @given(block_splits())
    def test_components_are_the_meets_with_the_blocks(self, drawn):
        kind, decomposition, u = drawn
        parts = decomposition.components(u)
        assert parts == tuple(intersection(u, blk) for blk in decomposition.blocks)
        if kind != "any":
            assert sum(part.dim for part in parts) == u.dim

    def test_blocks_of_determinant_other_than_one(self):
        blocks = (qspan(4, [2, 1, 0, 0]), qspan(4, [0, 3, 1, 0], [1, 0, 0, 2]), qspan(4, [0, 0, 1, 1]))
        stacked = [list(map(Fraction, row)) for blk in blocks for row in blk.rows]
        det = Fraction(1)
        for c in range(4):
            top = next(r for r in range(c, 4) if stacked[r][c])
            if top != c:
                stacked[c], stacked[top] = stacked[top], stacked[c]
                det = -det
            det *= stacked[c][c]
            for r in range(c + 1, 4):
                f = stacked[r][c] / stacked[c][c]
                stacked[r] = [x - f * y for x, y in zip(stacked[r], stacked[c])]
        assert det == 11
        decomposition = Decomposition(4, QQ, blocks)
        u = qspan(4, [2, 1, 0, 0], [1, 3, 1, 2])
        assert decomposition.components(u) == (blocks[0], qspan(4, [1, 3, 1, 2]), zero_subspace(4, QQ))
        rng = random.Random(11)
        for _ in range(60):
            u = random_subspace(rng, 4)
            assert decomposition.components(u) == tuple(intersection(u, blk) for blk in blocks)

    def test_record_enters_parts_that_add_up_and_keeps_what_it_has(self):
        decomposition = coordinate_decomposition(3, QQ, [[1, 2], [3]])
        u = coordinate_subspace(3, QQ, [1, 3])
        e1, e3, zero = (coordinate_subspace(3, QQ, c) for c in ([1], [3], []))
        decomposition.record(u, (e1, zero))
        assert decomposition.components(u) == (e1, e3)
        w = coordinate_subspace(3, QQ, [2])
        parts = (w, zero)
        decomposition.record(w, parts)
        assert decomposition.components(w) is parts
        decomposition.record(w, (coordinate_subspace(3, QQ, [2]), zero))
        assert decomposition.components(w) is parts

    def test_another_ambient_space_is_refused(self):
        decomposition = coordinate_decomposition(3, QQ, [[1, 2], [3]])
        with pytest.raises(FieldMismatchError):
            decomposition.components(coordinate_subspace(2, QQ, [1]))
        with pytest.raises(FieldMismatchError):
            decomposition.components(coordinate_subspace(3, PrimeField(3), [1]))


class TestGFLattice:
    def test_gf2_counts_match_closure_oracle(self):
        for n in (1, 2, 3):
            expected = len(gf2_subspaces_bruteforce(n))
            assert len(all_subspaces(n, PrimeField(2))) == expected
        # frozen: the GF(2) lattices have 2, 5, 16 subspaces for n = 1, 2, 3
        assert [len(gf2_subspaces_bruteforce(n)) for n in (1, 2, 3)] == [2, 5, 16]

    def test_gf2_spans_match_closure_oracle(self):
        n = 2
        enumerated = all_subspaces(n, PrimeField(2))
        as_vector_sets = set()
        for sub in enumerated:
            vectors = {tuple(0 for _ in range(n))}
            for coeffs in range(1, 1 << sub.dim):
                total = [0] * n
                for i in range(sub.dim):
                    if (coeffs >> i) & 1:
                        total = [
                            (t + x) % 2 for t, x in zip(total, scalar_basis(sub)[i])
                        ]
                vectors.add(tuple(total))
            as_vector_sets.add(frozenset(vectors))
        assert as_vector_sets == set(gf2_subspaces_bruteforce(n))

    def test_dim_of_sum_agrees_with_pairwise_sum(self):
        rng = random.Random(88)
        field = PrimeField(3)
        for _ in range(30):
            n = rng.randrange(1, 4)
            parts = [random_subspace(rng, n, field) for _ in range(rng.randrange(1, 4))]
            total = zero_subspace(n, field)
            for part in parts:
                total = total + part
            assert dim_of_sum(parts) == total.dim


# ---------------------------------------------------------------------------
# property tests of the int elimination kernel against the conftest oracles

small_fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
nonzero_fractions = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 5))


@st.composite
def rational_rows(draw, n=None):
    n = draw(st.integers(1, 5)) if n is None else n
    return n, draw(st.lists(st.lists(small_fractions, min_size=n, max_size=n), max_size=n + 2))


@st.composite
def rational_pair(draw):
    n, u_rows = draw(rational_rows())
    _, w_rows = draw(rational_rows(n))
    return n, u_rows, w_rows


def span_mod(vectors, n, p):
    """Every vector of the span of int vectors over GF(p), by enumerating all
    coefficient combinations with plain residue arithmetic."""
    out = set()
    for coeffs in product(range(p), repeat=len(vectors)):
        out.add(tuple(sum(c * v[i] for c, v in zip(coeffs, vectors)) % p for i in range(n)))
    return frozenset(out)


def gf_span(sub):
    return span_mod(scalar_basis(sub), sub.n, sub.field.p)


def assert_reduced_echelon(sub):
    """Pivots strictly increase, are 1, and are the only nonzero entry of
    their column: the definition of RREF, which makes the basis unique."""
    pivots = [next(c for c, x in enumerate(row) if x) for row in scalar_basis(sub)]
    assert pivots == sorted(set(pivots))
    for i, c in enumerate(pivots):
        assert [row[c] for row in scalar_basis(sub)] == [int(k == i) for k in range(sub.dim)]


class TestKernelProperties:
    @settings(max_examples=150, deadline=None)
    @given(rational_rows())
    def test_rank_matches_bareiss_oracle(self, drawn):
        n, rows = drawn
        s = canonicalize(n, QQ, fractions_to_int_rows(rows))
        assert s.dim == rational_rank(rows)
        assert_reduced_echelon(s)
        assert dim_of_sum([s]) == s.dim
        assert canonicalize(n, QQ, s.rows) == s

    @settings(max_examples=150, deadline=None)
    @given(rational_pair())
    def test_intersection_dimension_and_containment(self, drawn):
        n, u_rows, w_rows = drawn
        u, w = (canonicalize(n, QQ, fractions_to_int_rows(rows)) for rows in (u_rows, w_rows))
        meet = intersection(u, w)
        stacked_rank = rational_rank(list(scalar_basis(u)) + list(scalar_basis(w)))
        assert meet.dim == u.dim + w.dim - stacked_rank
        assert dim_of_sum([u, w]) == stacked_rank == (u + w).dim
        for row in scalar_basis(meet):
            assert rational_rank(list(scalar_basis(u)) + [row]) == u.dim
            assert rational_rank(list(scalar_basis(w)) + [row]) == w.dim
        assert_reduced_echelon(meet)
        assert intersection(w, u) == meet

    @settings(max_examples=150, deadline=None)
    @given(rational_rows(), st.data())
    def test_scaled_rows_give_equal_subspace(self, drawn, data):
        n, rows = drawn
        scales = data.draw(st.lists(nonzero_fractions, min_size=len(rows), max_size=len(rows)))
        scaled = [[c * x for x in row] for c, row in zip(scales, rows)]
        assert canonicalize(n, QQ, fractions_to_int_rows(scaled)) == canonicalize(
            n, QQ, fractions_to_int_rows(rows)
        )

    def test_gf2_intersections_match_closure_oracle(self):
        field = PrimeField(2)
        for n in (1, 2, 3):
            lattice = gf2_subspaces_bruteforce(n)
            subs = [
                canonicalize(n, field, s) for s in lattice
            ]
            for s, sub in zip(lattice, subs):
                assert gf_span(sub) == s
            for a, u in zip(lattice, subs):
                for b, w in zip(lattice, subs):
                    meet = intersection(u, w)
                    assert gf_span(meet) == a & b
                    assert meet.dim == u.dim + w.dim - dim_of_sum([u, w])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3), st.data())
    def test_gf3_intersections_match_span_oracle(self, n, data):
        field = PrimeField(3)
        vectors = st.lists(st.lists(st.integers(0, 2), min_size=n, max_size=n), max_size=n + 1)
        u_vecs, w_vecs = data.draw(vectors), data.draw(vectors)
        u, w = (
            canonicalize(n, field, vecs)
            for vecs in (u_vecs, w_vecs)
        )
        assert gf_span(u) == span_mod(u_vecs, n, 3)
        meet = intersection(u, w)
        assert gf_span(meet) == span_mod(u_vecs, n, 3) & span_mod(w_vecs, n, 3)
        assert_reduced_echelon(meet)
        assert 3 ** dim_of_sum([u, w]) == len(span_mod(u_vecs + w_vecs, n, 3))


@st.composite
def spanning_rows(draw):
    """A field, a width, base rows, and rows spanning what the base rows
    span: each base row times a nonzero (possibly negative) integer, so
    rows come non-primitive and with negative pivots, plus a dependent
    combination of two of them, in a drawn order.  Over GF(p) a scale that
    is a multiple of p drops its row from the span."""
    field = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(3)]))
    n = draw(st.integers(1, 5))
    base = draw(st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), max_size=n + 1))
    scales = draw(st.lists(st.integers(-4, 4).filter(bool), min_size=len(base), max_size=len(base)))
    rows = [[c * x for x in row] for c, row in zip(scales, base)]
    if base:
        i, j = draw(st.integers(0, len(base) - 1)), draw(st.integers(0, len(base) - 1))
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows.append([a * x + b * y for x, y in zip(base[i], base[j])])
    return field, n, base, draw(st.permutations(rows))


class TestCanonicalRows:
    """The stored int rows against the scalar RREF oracle in conftest."""

    @settings(max_examples=300, deadline=None)
    @given(spanning_rows())
    def test_rows_basis_equality_and_hash_follow_the_oracle(self, drawn):
        field, n, base, rows = drawn
        p = field.p if isinstance(field, PrimeField) else 0
        s = canonicalize(n, field, rows)
        expected = scalar_rref(rows, n, p)
        assert scalar_basis(s) == expected
        for row, oracle_row in zip(s.rows, expected):
            pivot = next(c for c, x in enumerate(row) if x)
            if p:
                assert row == oracle_row and all(0 <= x < p for x in row)
            else:
                assert row[pivot] > 0 and math.gcd(*row) == 1
                assert tuple(Fraction(x, row[pivot]) for x in row) == oracle_row
        w = canonicalize(n, field, base)
        assert (s == w) == (expected == scalar_rref(base, n, p))
        if s == w:
            assert hash(s) == hash(w)
        assert canonicalize(n, field, s.rows) == s


    @settings(max_examples=200, deadline=None)
    @given(spanning_rows())
    def test_a_canonical_row_spans_itself_in_canonical_form(self, drawn):
        # the saturation steps build <x> from a canonical row x unreduced
        field, n, _, rows = drawn
        for x in canonicalize(n, field, rows).rows:
            assert Subspace(n, field, (x,)) == canonicalize(n, field, [x])


class TestSubspaceValue:
    """A subspace is a value: equal however it was built, immutable,
    copyable, and never equal to a tuple."""

    @pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)])
    def test_equal_however_built(self, field):
        e12 = ((1, 0, 0), (0, 1, 0))
        built = [
            Subspace(3, field, e12),
            canonicalize(3, field, [[1, 1, 0], [0, 1, 0], [1, 0, 0]]),
            coordinate_subspace(3, field, [2, 1]),
            intersection(full_space(3, field), coordinate_subspace(3, field, [1, 2])),
            intersection(
                canonicalize(3, field, [[1, 0, 1], [0, 1, 0], [1, 0, 0]]),
                coordinate_subspace(3, field, [1, 2]),
            ),
        ]
        for s in built:
            assert s == built[0] and hash(s) == hash(built[0])
            assert s.rows == e12 and s.dim == 2 and s.pivot_mask == 0b011
            assert hash(s) == hash((s.n, s.field, s.rows))

    def test_equal_fields_need_not_be_one_object(self):
        rows = ((1, 2),)
        assert Subspace(2, PrimeField(3), rows) == Subspace(2, PrimeField(3), rows)
        assert Subspace(2, PrimeField(3), rows) != Subspace(2, PrimeField(5), rows)
        assert Subspace(2, QQ, rows) != Subspace(2, PrimeField(3), rows)
        assert zero_subspace(2, QQ) != zero_subspace(3, QQ)

    def test_never_equals_a_tuple(self):
        s = coordinate_subspace(2, QQ, [1])
        for other in (s.rows, (2, QQ, s.rows), (s.n, s.field, s.rows, s.dim), ()):
            assert s != other and other != s
            assert s.__eq__(other) is NotImplemented
        assert zero_subspace(0, QQ) != ()

    def test_assignment_raises(self):
        s = coordinate_subspace(2, QQ, [1])
        hash(s)
        for name in ("n", "field", "rows", "dim", "pivot_mask", "_hash", "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(s, name, 0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(s, name)
        assert s == coordinate_subspace(2, QQ, [1]) and s.dim == 1

    def test_repr_is_the_dataclass_text(self):
        assert repr(qspan(2, [2, 2])) == "Subspace(n=2, field=RationalField(), rows=((1, 1),))"
        assert repr(zero_subspace(1, PrimeField(3))) == "Subspace(n=1, field=PrimeField(p=3), rows=())"

    def test_str_writes_the_rref_entries(self):
        assert str(qspan(3, [2, 1, 0], [0, -4, 6])) == "<dim 2 of F^3: (1, 0, 3/4); (0, 1, -3/2)>"
        assert str(canonicalize(2, PrimeField(3), [[2, 1]])) == "<dim 1 of F^2: (1 mod 3, 2 mod 3)>"
        assert str(zero_subspace(2, QQ)) == "<dim 0 of F^2: 0>"

    @pytest.mark.parametrize("field", [QQ, PrimeField(3)])
    def test_copy_and_pickle_round_trip(self, field):
        s = canonicalize(3, field, [[1, 2, 0], [0, 1, 1]])
        fresh = canonicalize(3, field, [[1, 2, 0], [0, 1, 1]])
        hash(s)  # one with its hash kept, one without
        for value in (s, fresh):
            for twin in (
                copy.copy(value),
                copy.deepcopy(value),
                pickle.loads(pickle.dumps(value)),
                pickle.loads(pickle.dumps(value, protocol=0)),
            ):
                assert twin == s and hash(twin) == hash(s)
                assert (twin.dim, twin.pivot_mask) == (s.dim, s.pivot_mask)

    @settings(max_examples=200, deadline=None)
    @given(spanning_rows())
    def test_dim_and_pivot_mask_follow_the_rows(self, drawn):
        field, n, _, rows = drawn
        s = canonicalize(n, field, rows)
        pivots = [next(c for c, x in enumerate(row) if x) for row in s.rows]
        assert s.dim == len(s.rows)
        assert s.pivot_mask == sum(1 << c for c in pivots)
        twin = Subspace(n, field, s.rows)
        assert (twin.dim, twin.pivot_mask) == (s.dim, s.pivot_mask)
