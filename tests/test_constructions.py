"""Tight families: every construction passes its licensing verifier and hits
its bound exactly."""

from fractions import Fraction

import pytest

from bollobas import (
    BudgetError,
    SetSystem,
    ShapeError,
    binomial,
    complement_chain,
    construct,
    embed,
    evaluate_inequality,
    full_tuza_tuples,
    omega,
    partitioned_complement_chain,
    tuza,
    uniform_bollobas,
    verify,
)

class TestUniformBollobas:
    def test_minimal_example(self):
        s = uniform_bollobas(1, 1)
        assert s.tuples == ((0b01, 0b10), (0b10, 0b01))
        assert verify(s, "bollobas").verdict
        assert omega(s, "bollobas_sum") == 1

    @pytest.mark.parametrize("a,b", [(0, 0), (1, 2), (2, 2), (2, 3)])
    def test_tightness_grid(self, a, b):
        s = uniform_bollobas(a, b)
        assert s.m == binomial(a + b, a)
        assert verify(s, "bollobas").verdict
        verdict = evaluate_inequality(s, "bollobas_sum")
        assert verdict.tight

    def test_complement_structure(self):
        s = uniform_bollobas(2, 1)
        full = (1 << 3) - 1
        for a_mask, b_mask in s.tuples:
            assert a_mask | b_mask == full and a_mask & b_mask == 0
            assert a_mask.bit_count() == 2


class TestComplementChain:
    def test_chain2_values(self):
        s = complement_chain(2)
        assert s.m == 4
        assert verify(s, "skew").verdict
        assert omega(s, "yue_sum") == 1
        assert omega(s, "hegedus_frankl_sum") == 3

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_tightness_grid(self, n):
        s = complement_chain(n)
        assert s.m == 2**n
        assert verify(s, "skew").verdict
        yue = evaluate_inequality(s, "yue_sum")
        assert yue.tight
        hf = evaluate_inequality(s, "hegedus_frankl_sum")
        assert hf.value == n + 1 and hf.tight

    def test_order_is_non_increasing_size_then_lex(self):
        s = complement_chain(3)
        sizes = [a.bit_count() for a, _ in s.tuples]
        assert sizes == sorted(sizes, reverse=True)
        # within |S| = 2: {1,2} < {1,3} < {2,3}
        two_blocks = [a for a, _ in s.tuples if a.bit_count() == 2]
        assert two_blocks == [0b011, 0b101, 0b110]

    def test_reversed_chain_fails_skew_with_witness(self):
        for n in (1, 2, 3):
            s = complement_chain(n)
            rev = SetSystem(n, 2, tuple(reversed(s.tuples)))
            report = verify(rev, "skew")
            assert not report.verdict
            assert report.first_violation == (1, 2, "cross")


class TestPartitionedChain:
    def test_partitioned_yue_tight(self):
        s = partitioned_complement_chain(2, [[1], [2]])
        verdict = evaluate_inequality(s, "partitioned_yue_sum")
        assert verdict.value == 1 and verdict.tight

    @pytest.mark.parametrize(
        "n,blocks",
        [
            (2, [[1], [2]]),
            (3, [[1, 2], [3]]),
            (4, [[1, 2], [3, 4]]),
            (4, [[1], [2], [3, 4]]),
        ],
    )
    def test_tightness_grid(self, n, blocks):
        s = partitioned_complement_chain(n, blocks)
        assert verify(s, "skew").verdict
        assert evaluate_inequality(s, "partitioned_yue_sum").tight
        # the chain also meets the block-product bound prod_k (1 + n_k)
        # exactly: the sum factorizes into per-block telescopes
        assert evaluate_inequality(s, "partitioned_bollobas_sum").tight


class TestFullTuzaTuples:
    def test_small_example(self):
        s = full_tuza_tuples(2, 2)
        assert s.m == 4
        assert verify(s, "weak").verdict
        assert omega(s, tuza((Fraction(1, 3), Fraction(2, 3)))) == 1

    @pytest.mark.parametrize(
        "n,d,p",
        [
            (1, 2, (Fraction(1, 2), Fraction(1, 2))),
            (2, 2, (Fraction(1, 4), Fraction(3, 4))),
            (2, 3, (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))),
            (3, 3, (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))),
            (3, 2, (Fraction(2, 5), Fraction(3, 5))),
        ],
    )
    def test_tightness_grid(self, n, d, p):
        s = full_tuza_tuples(n, d)
        assert s.m == d**n
        verdict = evaluate_inequality(s, tuza(p))
        assert verdict.tight

    def test_every_tuple_covers_ground(self):
        s = full_tuza_tuples(3, 2)
        full = (1 << 3) - 1
        for t in s.tuples:
            union = 0
            for mask in t:
                union |= mask
            assert union == full


class TestConstructDispatch:
    def test_by_name(self):
        s = construct("complement_chain", {"n": 2})
        assert isinstance(s, SetSystem) and s.m == 4

    def test_embedded_variant(self):
        e = construct("complement_chain", {"n": 2}, embedded=True)
        assert verify(e, "skew").verdict
        assert e == embed(complement_chain(2))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            construct("mystery_family", {"n": 2})

    def test_budget_guard(self):
        with pytest.raises(BudgetError):
            construct("complement_chain", {"n": 20})
        with pytest.raises(BudgetError):
            construct("full_tuza_tuples", {"n": 8, "d": 4})

    def test_params_the_family_does_not_take_are_refused(self):
        with pytest.raises(ShapeError, match="^family 'complement_chain' takes no params a, b$"):
            construct("complement_chain", {"a": 1, "b": 1, "n": 5})
        # a budget among the params is a param like any other, not the guard's
        with pytest.raises(ShapeError, match="takes no params budget$"):
            construct("complement_chain", {"n": 17, "budget": 10**6})
