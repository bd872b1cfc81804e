"""Fill-up steps, weight invariance, saturation, and certification.

The per-step potential increments asserted here are recomputed from the
potential's definition: replacing a tuple of total size s with d tuples of
total size s+1 adds (d-1)*s + d for the set and tuple flavors, and exactly
3 * prod_j 2^(n_j - d_ij) for the pair flavor.
"""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bollobas import (
    BollobasError,
    BudgetError,
    Decomposition,
    DuplicateTupleError,
    PreconditionError,
    PrimeField,
    ProbabilityVector,
    QQ,
    SetSystem,
    ShapeError,
    SubspaceSystem,
    canonicalize,
    certify_full_system,
    complement_chain,
    coordinate_decomposition,
    coordinate_subspace,
    embed,
    extension_vector,
    fill_up,
    full_space,
    full_tuza_tuples,
    intersection,
    omega,
    phi,
    phi_upper_bound,
    random_valid_system,
    saturate,
    tuza,
    verify,
    zero_subspace,
)
from bollobas import saturation_engine
from bollobas.saturation_engine import default_flavor, is_full_tuple
from bollobas.systems_model import sizes_of
from bollobas.weight_functionals import FunctionalKind

from conftest import reference_phi, reference_saturate


def pair_deficit_product(system: SubspaceSystem, i: int) -> int:
    """prod_j 2^(n_j - d_ij) recomputed from components."""
    from bollobas.subspace_algebra import dim_of_sum, intersection

    a, b = system.tuples[i - 1]
    out = 1
    for blk in system.decomposition.blocks:
        filled = dim_of_sum([intersection(a, blk), intersection(b, blk)])
        out *= 2**filled
    return out


HALF = tuza((Fraction(1, 2), Fraction(1, 2)))


class TestFillUpSetTuple:
    def test_spec_example_weights(self):
        s = SetSystem.from_sets(2, [({1}, ())])
        new = fill_up(s, 1, 2)
        assert new.tuples == ((0b11, 0b00), (0b01, 0b10))
        assert omega(s, HALF) == Fraction(1, 2)
        assert omega(new, HALF) == Fraction(1, 4) + Fraction(1, 4)

    def test_potential_increment_matches_definition(self):
        # the replaced tuple has size-sum s = 1 and d = 2, so the potential
        # grows by (d-1)*s + d = 3: from 1 to 4 (each new tuple has sum 2)
        s = SetSystem.from_sets(2, [({1}, ())])
        new = fill_up(s, 1, 2)
        assert phi(s, "set") == 1
        assert phi(new, "set") == 4

    def test_increment_formula_randomized(self):
        rng = random.Random(31)
        for seed in range(40):
            sys = random_valid_system(2 + seed % 3, 2 + seed % 2, "weak", 3, seed=seed)
            i = next(
                (k for k in range(1, sys.m + 1) if not is_full_tuple(sys, k, "set")),
                None,
            )
            if i is None:
                continue
            covered = 0
            for mask in sys.tuples[i - 1]:
                covered |= mask
            x = next(e for e in range(1, sys.n + 1) if not covered & (1 << (e - 1)))
            s_sum = sum(sizes_of(sys.tuples[i - 1]))
            new = fill_up(sys, i, x)
            assert phi(new, "set") - phi(sys, "set") == (sys.d - 1) * s_sum + sys.d

    def test_weight_invariance_for_any_p(self):
        s = SetSystem.from_sets(3, [({1}, {2})])
        new = fill_up(s, 1, 3)
        for p in ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 5), Fraction(4, 5))):
            assert omega(s, tuza(p)) == omega(new, tuza(p))

    def test_replacement_order_is_coordinate_order(self):
        s = SetSystem.from_sets(2, [((), (), ())], d=3)
        new = fill_up(s, 1, 1)
        assert new.tuples == ((0b1, 0, 0), (0, 0b1, 0), (0, 0, 0b1))

    def test_duplicate_detection(self):
        # not a weak system: the would-be replacement already exists
        s = SetSystem.from_sets(2, [({1}, ()), ({1, 2}, ())])
        with pytest.raises(DuplicateTupleError):
            fill_up(s, 1, 2)

    def test_insertion_preserves_surrounding_order(self):
        s = SetSystem.from_sets(3, [({1}, {2}), ({3}, {1}), ({2}, {3})])
        new = fill_up(s, 2, 2)
        assert new.tuples[0] == s.tuples[0]
        assert new.tuples[3] == s.tuples[2]
        assert new.tuples[1] == (0b110, 0b001)  # ({2,3}, {1})
        assert new.tuples[2] == (0b100, 0b011)  # ({3}, {1,2})

    def test_verified_weak_inputs_never_duplicate(self, weak_set_tuple_corpus):
        for sys in weak_set_tuple_corpus:
            i = next(
                (k for k in range(1, sys.m + 1) if not is_full_tuple(sys, k, "set")),
                None,
            )
            if i is None:
                continue
            covered = 0
            for mask in sys.tuples[i - 1]:
                covered |= mask
            x = next(e for e in range(1, sys.n + 1) if not covered & (1 << (e - 1)))
            new = fill_up(sys, i, x)  # must not raise
            assert new.m == sys.m + sys.d - 1


class TestFillUpSubspacePair:
    def setup_method(self):
        self.decomp = coordinate_decomposition(2, QQ, [[1, 2]])
        self.s = SubspaceSystem(
            2, QQ, 2,
            ((coordinate_subspace(2, QQ, [1]), zero_subspace(2, QQ)),),
            self.decomp,
        )

    def test_spec_example(self):
        new = fill_up(self.s, 1, 1)
        assert new.m == 2
        a1, b1 = new.tuples[0]
        a2, b2 = new.tuples[1]
        assert (a1.dim, b1.dim) == (2, 0)
        assert (a2.dim, b2.dim) == (1, 1)
        assert omega(self.s, "partitioned_yue_sum") == Fraction(1, 2)
        assert omega(new, "partitioned_yue_sum") == Fraction(1, 3) + Fraction(1, 6)

    def test_potential_increment_exact(self):
        new = fill_up(self.s, 1, 1)
        assert phi(self.s, "pair") == 2
        assert phi(new, "pair") == 8
        assert phi(new, "pair") - phi(self.s, "pair") == 3 * pair_deficit_product(self.s, 1)

    def test_result_is_skew_and_compatible(self):
        from bollobas import is_decomposition_compatible

        new = fill_up(self.s, 1, 1)
        assert verify(new, "skew").verdict
        assert is_decomposition_compatible(new)

    def test_swapped_insertion_order_breaks_skew(self):
        # build the reversed replacement by hand: (A, B+<x>) before (A+<x>, B)
        new = fill_up(self.s, 1, 1)
        swapped = SubspaceSystem(
            2, QQ, 2, (new.tuples[1], new.tuples[0]), self.decomp
        )
        report = verify(swapped, "skew")
        assert not report.verdict
        assert report.first_violation == (1, 2, "cross")

    def test_weight_invariance_randomized(self, compatible_pair_corpus):
        for sys in compatible_pair_corpus:
            i = next(
                (k for k in range(1, sys.m + 1) if not is_full_tuple(sys, k, "pair")),
                None,
            )
            if i is None:
                continue
            k = next(
                k
                for k, blk in enumerate(sys.decomposition.blocks, start=1)
                if pair_block_deficit(sys, i, k) > 0
            )
            new = fill_up(sys, i, k)
            assert omega(new, "partitioned_yue_sum") == omega(sys, "partitioned_yue_sum")
            assert phi(new, "pair") - phi(sys, "pair") == 3 * pair_deficit_product(sys, i)


def _recorded_pair_saturations(compatible_pair_corpus):
    """Pair systems to saturate: the corpus, over coordinate blocks, and
    empty or one-subspace pairs over blocks that are not coordinate ones:
    three blocks of QQ^4 whose stacked rows have determinant 11, and three
    of GF(3)^3."""
    qq_blocks = (
        canonicalize(4, QQ, [[2, 1, 0, 0]]),
        canonicalize(4, QQ, [[0, 3, 1, 0], [1, 0, 0, 2]]),
        canonicalize(4, QQ, [[0, 0, 1, 1]]),
    )
    gf3 = PrimeField(3)
    gf3_blocks = tuple(canonicalize(3, gf3, [row]) for row in ([2, 1, 0], [0, 2, 1], [0, 0, 1]))
    return [
        *compatible_pair_corpus,
        SubspaceSystem(
            4, QQ, 2, ((canonicalize(4, QQ, [[1, 3, 1, 2]]), zero_subspace(4, QQ)),),
            Decomposition(4, QQ, qq_blocks),
        ),
        SubspaceSystem(4, QQ, 2, ((zero_subspace(4, QQ),) * 2,), Decomposition(4, QQ, qq_blocks)),
        SubspaceSystem(3, gf3, 2, ((zero_subspace(3, gf3),) * 2,), Decomposition(3, gf3, gf3_blocks)),
    ]


def test_recorded_components_are_the_split_ones(compatible_pair_corpus, monkeypatch):
    """Every memo entry a pair saturation records equals what a fresh
    decomposition of the same blocks splits, and the Zassenhaus meets."""
    real = Decomposition.record
    recorded = []

    def counted(decomposition, u, parts):
        recorded.append(u)
        real(decomposition, u, parts)

    monkeypatch.setattr(Decomposition, "record", counted)
    for system in _recorded_pair_saturations(compatible_pair_corpus):
        recorded.clear()
        trace = saturate(system, "pair")
        assert len(recorded) == 2 * len(trace.steps)
        memo = system.decomposition._components
        fresh = Decomposition(system.n, system.field, system.decomposition.blocks)
        for u in recorded:
            assert memo[u] == fresh.components(u)
            assert memo[u] == tuple(intersection(u, blk) for blk in fresh.blocks)


@st.composite
def deficient_spans(draw):
    """A subspace S below F^n, n <= 6, over QQ or GF(p), spanned by rows
    that are often unit rows."""
    field = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(3), PrimeField(5)]))
    n = draw(st.integers(1, 6))
    entry = st.integers(0, field.p - 1) if field.p else st.integers(-3, 3)
    unit = st.integers(0, n - 1).map(lambda c: [int(j == c) for j in range(n)])
    rows = draw(st.lists(st.one_of(unit, st.lists(entry, min_size=n, max_size=n)), max_size=n))
    span = canonicalize(n, field, rows)
    assume(span.dim < n)
    return field, n, span


class TestTupleStepVector:
    @settings(max_examples=300, deadline=None)
    @given(deficient_spans())
    def test_x_is_the_first_unit_row_outside_the_span(self, drawn):
        # e_c lies in S exactly when S's canonical row of pivot c is e_c
        field, n, span = drawn
        system = SubspaceSystem(n, field, 1, ((span,),))
        _, x, _, _ = saturation_engine.FLAVORS["tuple"].step(system, (span,), 1, span)
        assert x == extension_vector(full_space(n, field), span)
        assert x == next(e for e in full_space(n, field).rows if e not in span.rows)


def pair_block_deficit(system: SubspaceSystem, i: int, k: int) -> int:
    from bollobas.subspace_algebra import dim_of_sum, intersection

    a, b = system.tuples[i - 1]
    blk = system.decomposition.blocks[k - 1]
    return blk.dim - dim_of_sum([intersection(a, blk), intersection(b, blk)])


class TestFillUpSubspaceTuple:
    def test_spec_example(self):
        s = SubspaceSystem(
            2, QQ, 2, ((coordinate_subspace(2, QQ, [1]), zero_subspace(2, QQ)),)
        )
        p = tuza((Fraction(1, 3), Fraction(2, 3)))
        new = fill_up(s, 1)
        assert omega(s, p) == Fraction(1, 3)
        assert omega(new, p) == Fraction(1, 9) + Fraction(2, 9)
        # potential: definition gives 1 -> 4 (each new tuple has dim-sum 2)
        assert phi(s, "tuple") == 1
        assert phi(new, "tuple") == 4

    def test_full_tuple_rejected(self):
        s = SubspaceSystem(
            2, QQ, 2,
            ((coordinate_subspace(2, QQ, [1]), coordinate_subspace(2, QQ, [2])),),
        )
        with pytest.raises(PreconditionError):
            fill_up(s, 1)

    def test_skewness_preserved(self):
        z = zero_subspace(2, QQ)
        s = SubspaceSystem(2, QQ, 2, ((coordinate_subspace(2, QQ, [1]), z),))
        new = fill_up(s, 1)
        assert verify(new, "skew").verdict


_Z, _E1 = zero_subspace(2, QQ), coordinate_subspace(2, QQ, [1])
_SET = SetSystem.from_sets(2, [({1}, ())])
# two blocks: without its range check, k = 0 would fill the last one
_PAIR = SubspaceSystem(2, QQ, 2, ((_Z, _Z),), coordinate_decomposition(2, QQ, [[1], [2]]))
_TUPLE = SubspaceSystem(2, QQ, 2, ((_E1, _Z),))


@pytest.mark.parametrize(
    "system, i, at, flavor, error, message",
    [
        pytest.param(_TUPLE, 1, 1, "set", ShapeError, "needs a set system", id="set-shape"),
        pytest.param(_SET, 1, 1, "pair", ShapeError, "needs a subspace pair", id="pair-shape"),
        pytest.param(_TUPLE, 1, 1, "pair", ShapeError, "needs a decomposition", id="pair-blocks"),
        pytest.param(_SET, 1, None, "tuple", ShapeError, "needs a subspace system", id="tuple-shape"),
        pytest.param(_SET, 0, 2, None, ShapeError, r"^tuple index 0 outside \[1, 1\]$", id="i=0"),
        pytest.param(_PAIR, 2, 1, None, ShapeError, r"^tuple index 2 outside \[1, 1\]$", id="i=m+1"),
        pytest.param(_SET, 1, 0, None, ValueError, r"^ground element 0 outside \[1, 2\]$", id="x=0"),
        pytest.param(_SET, 1, 3, None, ValueError, r"^ground element 3 outside \[1, 2\]$", id="x=n+1"),
        pytest.param(_PAIR, 1, 0, None, ShapeError, r"^block index 0 outside \[1, 2\]$", id="k=0"),
        pytest.param(_PAIR, 1, 3, None, ShapeError, r"^block index 3 outside \[1, 2\]$", id="k=r+1"),
        pytest.param(_TUPLE, 1, 1, None, ShapeError, "takes no element or block", id="tuple-at"),
        # a tuple that is not full, asked to fill where it already is
        pytest.param(
            _SET, 1, 1, None, PreconditionError, "^element 1 is already covered by tuple 1$",
            id="x-covered",
        ),
        pytest.param(
            SubspaceSystem(2, QQ, 2, ((_E1, _Z),), _PAIR.decomposition), 1, 1, None,
            PreconditionError, "^pair 1 is already full in block 1$", id="k-full",
        ),
        pytest.param(
            SetSystem.from_sets(2, [({1}, {2})]), 1, None, None,
            PreconditionError, "^tuple 1 is already full$", id="full",
        ),
        pytest.param(
            SubspaceSystem(2, QQ, 2, ((_Z, _Z), (_E1, _Z)), _PAIR.decomposition), 1, 1, None,
            DuplicateTupleError, "reproduces an existing tuple", id="pair-duplicate",
        ),
        pytest.param(
            SubspaceSystem(2, QQ, 2, ((_E1, _Z), (_E1, coordinate_subspace(2, QQ, [2])))),
            1, None, None, DuplicateTupleError, "reproduces an existing tuple", id="tuple-duplicate",
        ),
    ],
)
def test_refusals_of_fill_up(system, i, at, flavor, error, message):
    with pytest.raises(error, match=message):
        fill_up(system, i, at, flavor)


@st.composite
def potential_inputs(draw):
    """A flavor and a system of its shape, whose tuples need satisfy no
    condition: set systems with n <= 3, and subspace tuples over QQ, GF(2)
    and GF(3) with n <= 3, pairs under a decomposition into blocks of a
    random basis."""
    flavor = draw(st.sampled_from(["set", "pair", "tuple"]))
    n = draw(st.integers(1, 3))
    d = 2 if flavor == "pair" else draw(st.integers(1, 3))
    if flavor == "set":
        t = st.tuples(*[st.integers(0, (1 << n) - 1)] * d)
        return flavor, SetSystem(n, d, tuple(draw(st.lists(t, max_size=4))))
    field = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(3)]))
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    sub = st.lists(row, max_size=n).map(lambda rows: canonicalize(n, field, rows))
    tuples = tuple(draw(st.lists(st.tuples(*[sub] * d), max_size=4)))
    decomposition = None
    if flavor == "pair":
        basis = draw(
            st.lists(row, min_size=n, max_size=n).filter(
                lambda rows: canonicalize(n, field, rows).dim == n
            )
        )
        cuts = [0, *sorted(draw(st.sets(st.integers(1, n)))), n]
        blocks = tuple(
            canonicalize(n, field, basis[lo:hi]) for lo, hi in zip(cuts, cuts[1:]) if lo < hi
        )
        decomposition = Decomposition(n, field, blocks)
    return flavor, SubspaceSystem(n, field, d, tuples, decomposition)


class TestPhiMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(inputs=potential_inputs())
    def test_phi_equals_the_reference(self, inputs):
        flavor, system = inputs
        assert phi(system, flavor) == reference_phi(system, flavor)


class TestSaturationSizeGuard:
    def test_final_m_is_exact(self, weak_set_tuple_corpus, compatible_pair_corpus):
        cases = [(s, "set") for s in weak_set_tuple_corpus[:12]]
        cases += [(s, "pair") for s in compatible_pair_corpus[:8]]
        line = coordinate_subspace(3, QQ, [2])
        cases += [
            (SubspaceSystem(2, QQ, 3, ((zero_subspace(2, QQ),) * 3,)), "tuple"),
            (SubspaceSystem(3, QQ, 2, ((line, zero_subspace(3, QQ)),)), "tuple"),
        ]
        for system, flavor in cases:
            final = saturate(system, flavor).final
            record = saturation_engine.FLAVORS[flavor]
            assert sum(
                system.d ** record.deficit(system, record.facts(system, t))
                for t in system.tuples
            ) == final.m

    @pytest.mark.parametrize("flavor", ["set", "pair", "tuple"])
    def test_refused_before_the_first_step(self, flavor):
        # one empty pair on 13 points would end with 2^13 = 8192 pairs
        s = SetSystem.from_sets(13, [((), ())], partition=[range(1, 7), range(7, 14)])
        system = s if flavor == "set" else embed(s)
        with pytest.raises(BudgetError, match="8192 tuples"):
            saturate(system, flavor)

    def test_budget_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(saturation_engine, "DEFAULT_TUPLE_BUDGET", 4)
        assert saturate(SetSystem.from_sets(2, [((), ())]), "set").final.m == 4
        with pytest.raises(BudgetError):
            saturate(SetSystem.from_sets(3, [((), ())]), "set")


class TestDebugRecountGuard:
    """``debug`` recounts the whole system after every step; steps x final
    tuples is bounded by ``DEBUG_RECOUNT_BUDGET`` before the first step."""

    def test_step_count_is_exact(self, monkeypatch, compatible_pair_corpus):
        line = coordinate_subspace(3, QQ, [2])
        cases = [
            (SetSystem(3, 1, ((0,),)), "set"),
            (SetSystem.from_sets(3, [((), ())]), "set"),
            (SetSystem.from_sets(3, [({1}, ()), ({2}, {1})]), "set"),
            (SetSystem(3, 3, ((0, 0, 0),)), "set"),
            (SubspaceSystem(3, QQ, 2, ((line, zero_subspace(3, QQ)),)), "tuple"),
        ]
        cases += [(s, "pair") for s in compatible_pair_corpus[:4]]
        for system, flavor in cases:
            trace = saturate(system, flavor)
            cost = len(trace.steps) * trace.final.m
            monkeypatch.setattr(saturation_engine, "DEBUG_RECOUNT_BUDGET", cost)
            assert saturate(system, flavor, debug=True) == trace
            monkeypatch.setattr(saturation_engine, "DEBUG_RECOUNT_BUDGET", cost - 1)
            with pytest.raises(BudgetError, match=f"{len(trace.steps)} steps, {cost} tuple"):
                saturate(system, flavor, debug=True)

    def test_budget_admits_n7_d3_and_refuses_n12_d2(self):
        # one empty triple on 7 points: 1093 steps to 2187 tuples
        assert 1093 * 2187 <= saturation_engine.DEBUG_RECOUNT_BUDGET
        start = time.perf_counter()
        with pytest.raises(BudgetError) as raised:
            saturate(SetSystem.from_sets(12, [((), ())]), "set", debug=True)
        assert time.perf_counter() - start < 1.0
        assert str(raised.value) == (
            "debug saturation would recount 4096 tuples after each of 4095 steps, "
            f"16773120 tuple operations; the budget is {2**22}"
        )


class TestSaturate:
    def test_minimal_weak_example(self):
        s = SetSystem.from_sets(1, [((), ())], d=2)
        trace = saturate(s, "set")
        assert trace.final.tuples == ((0b1, 0), (0, 0b1))
        assert trace.omega == 1
        assert len(trace.steps) == 1

    def test_already_full_is_identity(self):
        s = full_tuza_tuples(2, 2)
        trace = saturate(s, "set")
        assert trace.steps == ()
        assert trace.final == s

    def test_pair_example(self):
        s = SubspaceSystem(
            2, QQ, 2,
            ((coordinate_subspace(2, QQ, [1]), zero_subspace(2, QQ)),),
            coordinate_decomposition(2, QQ, [[1, 2]]),
        )
        trace = saturate(s, "pair", debug=True)
        assert len(trace.steps) == 1
        assert trace.omega == Fraction(1, 2)
        assert trace.phis == (2, 8)
        assert all(is_full_tuple(trace.final, i, "pair") for i in (1, 2))

    def test_unverified_input_rejected(self):
        s = SetSystem.from_sets(2, [({1}, {2}), ({1}, {2})])
        with pytest.raises(PreconditionError):
            saturate(s, "set")

    def test_duplicate_refused_past_the_admission(self, monkeypatch):
        # not weak, but admitted: ({1}, {}) fills up with 2 into ({1, 2}, {}),
        # which tuple 2 already is, so the final tuples 1 and 3 are equal
        monkeypatch.setattr(saturation_engine, "_admit", lambda record, system: None)
        with pytest.raises(
            DuplicateTupleError,
            match=r"^saturation ends with tuple 3 equal to tuple 1; "
            r"the input did not satisfy its condition$",
        ):
            saturate(SetSystem.from_sets(2, [({1}, ()), ({1, 2}, ())]), "set")

    def test_weak_subspace_saturation_refused(self):
        # weak-but-not-skew subspace systems have no licensed saturation
        e1 = coordinate_subspace(2, QQ, [1])
        e2 = coordinate_subspace(2, QQ, [2])
        v = coordinate_subspace(2, QQ, [1, 2])
        z = zero_subspace(2, QQ)
        s = SubspaceSystem(2, QQ, 2, ((e1, e2), (v, z)))
        assert verify(s, "weak").verdict
        with pytest.raises(PreconditionError):
            saturate(s, "tuple")

    def test_set_flavor_needs_a_set_system(self):
        # a subspace system once reached the set flavor's element loop
        s = SubspaceSystem(1, QQ, 2, ((zero_subspace(1, QQ),) * 2,))
        with pytest.raises(ShapeError, match="set saturation needs a set system"):
            saturate(s, "set")
        with pytest.raises(ShapeError, match="set saturation needs a set system"):
            certify_full_system(s, "set")

    def test_pair_flavor_needs_decomposition(self):
        s = SubspaceSystem(2, QQ, 2, ())
        with pytest.raises(ShapeError):
            saturate(s, "pair")

    def test_default_flavor(self):
        assert default_flavor(SetSystem.from_sets(2, [], d=2)) == "set"
        assert default_flavor(SubspaceSystem(2, QQ, 2, ())) == "tuple"
        assert (
            default_flavor(
                SubspaceSystem(2, QQ, 2, (), coordinate_decomposition(2, QQ, [[1, 2]]))
            )
            == "pair"
        )

    def test_termination_within_bound(self, skew_set_pair_corpus):
        for s in skew_set_pair_corpus[:20]:
            trace = saturate(s, "set")
            assert len(trace.steps) <= phi_upper_bound(s, "set")
            assert trace.phis[-1] <= phi_upper_bound(s, "set")


class TestCertifyFullSystem:
    def test_full_tuza_27(self):
        s = full_tuza_tuples(3, 3)
        p = ProbabilityVector((Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
        cert = certify_full_system(s, "set", p=p)
        assert cert.holds
        assert cert.quantity("omega") == "1"
        # each class realizes its multinomial bound exactly
        for c in cert.classes:
            assert c.count == c.bound

    def test_embedded_chain_pair_certificate(self):
        e = embed(complement_chain(2))
        e = SubspaceSystem(
            e.n, e.field, e.d, e.tuples, coordinate_decomposition(2, QQ, [[1, 2]])
        )
        cert = certify_full_system(e, "pair")
        assert cert.holds
        assert cert.quantity("omega") == "1"
        by_profile = {c.profile: c for c in cert.classes}
        assert by_profile[(2,)].count == 1 and by_profile[(2,)].bound == 1
        assert by_profile[(1,)].count == 2 and by_profile[(1,)].bound == 2
        assert by_profile[(0,)].count == 1 and by_profile[(0,)].bound == 1

    def test_single_full_pair(self):
        s = SubspaceSystem(
            2, QQ, 2,
            ((coordinate_subspace(2, QQ, [1, 2]), zero_subspace(2, QQ)),),
            coordinate_decomposition(2, QQ, [[1, 2]]),
        )
        cert = certify_full_system(s, "pair")
        assert cert.holds
        assert len(cert.classes) == 1
        assert cert.classes[0].count == 1 and cert.classes[0].bound == 1

    def test_non_full_rejected(self):
        s = SetSystem.from_sets(2, [({1}, ())])
        with pytest.raises(PreconditionError):
            certify_full_system(s, "set")

    def test_saturate_then_certify_is_the_proof(self, skew_set_pair_corpus):
        p = ProbabilityVector.uniform(2)
        for s in skew_set_pair_corpus[:15]:
            trace = saturate(s, "set", p=p)
            cert = certify_full_system(trace.final, "set", p=p)
            assert cert.holds
            assert omega(trace.final, tuza(p.entries)) == omega(s, tuza(p.entries))


@st.composite
def saturation_inputs(draw, pair_corpus, max_n=5):
    """(system, flavor, p): a weak set system (n <= max_n, d in {2, 3}), a
    compatible pair system of the corpus, or a skew tuple system over QQ,
    GF(2) or GF(3) (n <= 4, d in {2, 3}); p is a random probability vector,
    None for pairs."""
    flavor = draw(st.sampled_from(["set", "pair", "tuple"]))
    if flavor == "pair":
        return draw(st.sampled_from(pair_corpus)), "pair", None
    d = draw(st.sampled_from([2, 3]))
    m = draw(st.sampled_from(range(1, 5 if flavor == "set" else 4)))
    seed = draw(st.integers(0, 9999))
    # the system is drawn on the first k coordinates of [n] (or F^n), so the
    # last n - k are missing from every tuple and the runs grow longer
    n = draw(st.sampled_from(range(1, (max_n if flavor == "set" else min(max_n, 4)) + 1)))
    k = draw(st.sampled_from(range(1, n + 1)))
    if flavor == "set":
        drawn = random_valid_system(k, d, "weak", m, seed=seed)
        system = SetSystem(n, d, drawn.tuples)
    else:
        field = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(3)]))
        drawn = random_valid_system(k, d, "skew", m, seed=seed, field=field)
        pad = (0,) * (n - k)
        system = SubspaceSystem(
            n,
            field,
            d,
            tuple(
                tuple(canonicalize(n, field, [row + pad for row in sub.rows]) for sub in t)
                for t in drawn.tuples
            ),
        )
    shares = draw(st.lists(st.integers(1, 4), min_size=d, max_size=d))
    return system, flavor, ProbabilityVector(tuple(Fraction(x, sum(shares)) for x in shares))


class TestIncrementalEngine:
    """The engine's local checks and expansion against the whole-system loop."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_trace_equals_the_whole_system_reference(self, compatible_pair_corpus, data):
        system, flavor, p = data.draw(saturation_inputs(compatible_pair_corpus))
        functional = FunctionalKind("partitioned_yue_sum") if flavor == "pair" else tuza(p)
        assert saturate(system, flavor, p=p) == reference_saturate(system, flavor, functional)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_debug_gives_the_same_trace(self, compatible_pair_corpus, data):
        # debug re-verifies the whole system at every step, O(steps * m^2)
        system, flavor, p = data.draw(saturation_inputs(compatible_pair_corpus[:20], max_n=3))
        assert saturate(system, flavor, p=p, debug=True) == saturate(system, flavor, p=p)

    def test_one_empty_triple_at_n7(self):
        start = time.perf_counter()
        trace = saturate(SetSystem.from_sets(7, [((), (), ())], d=3), "set")
        elapsed = time.perf_counter() - start
        assert (len(trace.steps), trace.final.m) == (1093, 2187)
        assert trace.phis[-1] == 2187 * 7
        # whole-system passes took 5.8 s on a 2-core host, local steps 0.053 s
        assert elapsed < 3.0

    def test_one_empty_triple_at_n7_computes_facts_of_input_and_final_tuples(self, monkeypatch):
        # steps hand their replacements' facts on: 1 input tuple and 2 187
        # final ones, not one per tuple met, 1 + 1 093 x 3 = 3 280
        record = saturation_engine.FLAVORS["set"]
        honest = record.facts
        calls = []

        def counting(system, t):
            calls.append(t)
            return honest(system, t)

        monkeypatch.setattr(record, "facts", counting)
        saturate(SetSystem.from_sets(7, [((), (), ())], d=3), "set")
        assert len(calls) == 1 + 2187

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_handed_facts_are_the_recomputed_ones(self, compatible_pair_corpus, data):
        system, flavor, p = data.draw(saturation_inputs(compatible_pair_corpus))
        record = saturation_engine.FLAVORS[flavor]
        # pair facts are recomputed through a fresh decomposition, whose memo
        # holds none of the components the run's steps recorded
        fresh = system
        if flavor == "pair":
            blocks = Decomposition(system.n, system.field, system.decomposition.blocks)
            fresh = SubspaceSystem(system.n, system.field, 2, (), blocks)
        honest = record.step
        handed = []

        def recording(system, t, i, facts):
            stepped = honest(system, t, i, facts)
            handed.extend(zip(stepped[2], stepped[3], strict=True))
            return stepped

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(record, "step", recording)
            trace = saturate(system, flavor, p=p)
        assert len(handed) == system.d * len(trace.steps)
        for t, facts in handed:
            assert facts == record.facts(fresh, t)


def stepping(flavor, replacements):
    """A flavor's step that replaces any tuple by ``replacements``, with x = 2
    and their facts computed afresh."""
    record = saturation_engine.FLAVORS[flavor]

    def step(system, t, i, facts):
        return None, 2, replacements, tuple(record.facts(system, r) for r in replacements)

    return step


class TestLocalChecksFire:
    """A flavor record whose step or potential breaks an invariant is caught
    by the step's own checks, with the messages of the whole-system checks."""

    def test_wrong_weight(self, monkeypatch):
        # (1, 0) and (1, 1) weigh 1/2 + 1/4 at p = (1/2, 1/2), not 1
        monkeypatch.setattr(
            saturation_engine.FLAVORS["set"], "step", stepping("set", ((0b01, 0b00), (0b01, 0b10)))
        )
        with pytest.raises(BollobasError, match=r"^weight invariance broken at step 1: 1 -> 3/4$"):
            saturate(SetSystem.from_sets(2, [((), ())]), "set")

    def test_wrong_pair_weight(self, monkeypatch):
        s = SubspaceSystem(
            2, QQ, 2,
            ((coordinate_subspace(2, QQ, [1]), zero_subspace(2, QQ)),),
            coordinate_decomposition(2, QQ, [[1, 2]]),
        )
        honest = saturation_engine.FLAVORS["pair"].step

        def doubled(system, t, i, facts):
            block, x, replacements, handed = honest(system, t, i, facts)
            return block, x, (replacements[0],) * 2, (handed[0],) * 2

        monkeypatch.setattr(saturation_engine.FLAVORS["pair"], "step", doubled)
        with pytest.raises(BollobasError, match=r"^weight invariance broken at step 1: 1/2 -> 2/3$"):
            saturate(s, "pair")

    def test_potential_that_does_not_increase(self, monkeypatch):
        # ({2}, {}) weighs what ({1}, {}) weighs, and has the same potential
        monkeypatch.setattr(saturation_engine.FLAVORS["set"], "step", stepping("set", ((0b10, 0),)))
        with pytest.raises(BollobasError, match=r"^potential failed to increase at step 1$"):
            saturate(SetSystem.from_sets(2, [({1}, ())]), "set")

    def test_invariance_broken_by_one_part_in_10_to_the_30(self, monkeypatch):
        # the integer ledger compares terms scaled by the lcm of their
        # denominators: a term off by 1/10^30 still breaks it
        honest = saturation_engine.term

        def skewed(profile, functional):
            return honest(profile, functional) + (Fraction(1, 10**30) if profile == (1, 0) else 0)

        monkeypatch.setattr(saturation_engine, "term", skewed)
        with pytest.raises(
            BollobasError,
            match=rf"^weight invariance broken at step 1: 1 -> {10**30 + 1}/{10**30}$",
        ):
            saturate(SetSystem.from_sets(1, [((), ())]), "set")

    def test_profile_first_met_at_step_3_is_checked_there(self, monkeypatch):
        # the empty pair on [2] steps (0, 0), then (1, 0), then (0, 1) ->
        # (1, 1), (0, 2): a term off on (0, 2) alone breaks step 3, also
        # after an honest run of the same system
        system = SetSystem.from_sets(2, [((), ())])
        saturate(system, "set")
        honest = saturation_engine.term

        def skewed(profile, functional):
            return honest(profile, functional) + (Fraction(1, 10**30) if profile == (0, 2) else 0)

        monkeypatch.setattr(saturation_engine, "term", skewed)
        with pytest.raises(
            BollobasError,
            match=rf"^weight invariance broken at step 3: 1 -> {10**30 + 1}/{10**30}$",
        ):
            saturate(system, "set")

    def test_one_weight_check_per_profile_class(self, monkeypatch):
        # 364 steps from one empty triple on [6] fall into 56 classes, one per
        # replaced size vector of sum 0 to 5; each class weighs its d + 1 = 4
        # terms once, not 364 x 4 times
        honest = saturation_engine.term
        calls = []

        def counting(profile, functional):
            calls.append(profile)
            return honest(profile, functional)

        monkeypatch.setattr(saturation_engine, "term", counting)
        trace = saturate(SetSystem.from_sets(6, [((), (), ())], d=3), "set")
        assert len(trace.steps) == 364
        assert len(calls) == 56 * 4

    @pytest.mark.parametrize("debug", [False, True])
    def test_handed_fact_that_claims_fullness(self, monkeypatch, debug):
        # the first step hands ({1}, {}) on as covering [2], so the run emits
        # it unfilled: weight and potential still add up, and only the
        # closing check's fresh facts see it
        honest = saturation_engine.FLAVORS["set"].step

        def overclaiming(system, t, i, facts):
            block, x, replacements, ((covered, sizes), *rest) = honest(system, t, i, facts)
            return block, x, replacements, ((covered | 0b10, sizes), *rest)

        monkeypatch.setattr(saturation_engine.FLAVORS["set"], "step", overclaiming)
        with pytest.raises(BollobasError, match=r"^tuple 1 is not full at the end \(bug\)$"):
            saturate(SetSystem.from_sets(2, [((), ())]), "set", debug=debug)

    @pytest.mark.parametrize("debug, where", [(False, "at the end"), (True, "at step 1")])
    def test_whole_system_check(self, monkeypatch, debug, where):
        # a potential that doubles after its first answer: the start sum reads
        # 1, the step adds 2 * (2 + 2) - 2 * 1, and a recount reads 2 * (2 + 2)
        honest = saturation_engine.FLAVORS["set"].potential
        calls = []

        def drifting(t, facts):
            calls.append(t)
            return honest(t, facts) * (1 if len(calls) == 1 else 2)

        monkeypatch.setattr(saturation_engine.FLAVORS["set"], "potential", drifting)
        with pytest.raises(
            BollobasError, match=f"^whole-system potential 8 differs from the running 7 {where}$"
        ):
            saturate(SetSystem.from_sets(2, [({1}, ())]), "set", debug=debug)
