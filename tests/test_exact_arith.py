"""Exact scalar layer: coefficients, fields, probability vectors."""

import random
import sys
import time
from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bollobas import (
    PrimeField,
    ProbabilityVector,
    QQ,
    binomial,
    multinomial,
)
from bollobas.exact_arith import (
    MR_EXACT_BELOW,
    field_from_str,
    is_prime,
    rational_from_str,
    rational_to_str,
)


def pascal_binomial(n: int, k: int) -> int:
    """Pascal-triangle oracle, independent of math.comb."""
    if k < 0 or k > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


def test_binomial_small_cases():
    assert binomial(4, 2) == 6
    assert binomial(0, 0) == 1
    assert binomial(5, -1) == 0
    assert binomial(5, 6) == 0


def test_binomial_against_pascal_oracle():
    # frozen from the oracle: pascal_binomial(30, 15) == 155117520
    assert pascal_binomial(30, 15) == 155117520
    assert binomial(30, 15) == 155117520
    for n in range(0, 12):
        for k in range(-1, n + 2):
            assert binomial(n, k) == pascal_binomial(n, k)


def test_binomial_symmetry_and_row_sums():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(0, 40)
        k = rng.randrange(-2, n + 3)
        assert binomial(n, k) == binomial(n, n - k)
    for n in range(0, 20):
        assert sum(binomial(n, k) for k in range(n + 1)) == 2**n


def test_binomial_rejects_negative_n():
    with pytest.raises(ValueError):
        binomial(-1, 0)


def factorial_multinomial(parts) -> int:
    total = sum(parts)
    out = factorial(total)
    for p in parts:
        out //= factorial(p)
    return out


def test_multinomial_cases():
    assert multinomial([1, 1, 1]) == 6
    assert multinomial([7]) == 1
    assert multinomial([]) == 1
    # frozen from the factorial oracle: 6! / (2! 2! 2!) == 90
    assert factorial_multinomial([2, 2, 2]) == 90
    assert multinomial([2, 2, 2]) == 90


def test_multinomial_matches_factorial_oracle_and_permutations():
    rng = random.Random(11)
    for _ in range(100):
        parts = [rng.randrange(0, 6) for _ in range(rng.randrange(1, 5))]
        expected = factorial_multinomial(parts)
        assert multinomial(parts) == expected
        rng.shuffle(parts)
        assert multinomial(parts) == expected


def test_multinomial_equals_iterated_binomial_product():
    rng = random.Random(13)
    for _ in range(50):
        parts = [rng.randrange(0, 5) for _ in range(rng.randrange(1, 5))]
        remaining = sum(parts)
        product = 1
        for p in parts:
            product *= binomial(remaining, p)
            remaining -= p
        assert multinomial(parts) == product


def test_multinomial_rejects_negative_parts():
    with pytest.raises(ValueError):
        multinomial([2, -1])


def test_rational_arithmetic_field_axioms_randomized():
    rng = random.Random(3)
    for _ in range(200):
        x = Fraction(rng.randint(-40, 40), rng.randint(1, 17))
        y = Fraction(rng.randint(-40, 40), rng.randint(1, 17))
        z = Fraction(rng.randint(-40, 40), rng.randint(1, 17))
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


def test_rational_serialization_round_trip():
    for q in (Fraction(3, 2), Fraction(-5, 7), Fraction(4), Fraction(0)):
        assert rational_from_str(rational_to_str(q)) == q
    assert rational_to_str(Fraction(6, 4)) == "3/2"
    assert rational_to_str(Fraction(8, 2)) == "4"
    with pytest.raises(ValueError):
        rational_from_str("not-a-number")


def test_rational_literals_parse_as_fraction_does():
    literals = ("3", "-3/4", " +7/14 ", "1.5", ".5", "2.", "-47e-2", "1E3", "1_000", "1_0.2_5e1_0")
    for text in literals:
        assert rational_from_str(text) == Fraction(text.strip())
    for text in ("x", "1/0", "1/-2", "", ".", "e5", "1.d", "1/2/3"):
        with pytest.raises(ValueError, match="not a rational"):
            rational_from_str(text)


def test_rational_row_clears_denominators():
    assert QQ.parse_row(["1/2", "-1/3", "2"]) == [3, -2, 12]
    assert QQ.parse_row([]) == []


BIG = 10**30


@st.composite
def canonical_rational_rows(draw):
    """A canonical QQ row: leading zeros, a positive pivot, then entries of
    either sign up to 30 digits, divided by the gcd of the row."""
    lead = draw(st.integers(0, 3))
    pivot = draw(st.one_of(st.integers(1, 12), st.integers(1, BIG)))
    rest = draw(st.lists(st.one_of(st.integers(-12, 12), st.integers(-BIG, BIG)), max_size=5))
    row = [0] * lead + [pivot] + rest
    g = gcd(*row)
    return tuple(x // g for x in row)


@settings(max_examples=300, deadline=None)
@given(canonical_rational_rows())
def test_rational_row_text_is_the_fraction_text(row):
    pivot = next(x for x in row if x)
    assert QQ.format_row(row) == [rational_to_str(Fraction(x, pivot)) for x in row]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.data())
def test_prime_row_text_is_the_scalar_text(p, data):
    field = PrimeField(p)
    row = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=6))
    assert field.format_row(row) == [f"{x} mod {p}" for x in row]


def test_rational_row_text_cases():
    assert QQ.format_row((0, 2, -3, 0, 4)) == ["0", "1", "-3/2", "0", "2"]
    assert QQ.format_row((1, -7, 0)) == ["1", "-7", "0"]
    assert QQ.format_row((0, 6, 4, -9)) == ["0", "1", "2/3", "-3/2"]


def test_rational_row_integer_entries_stay_int():
    # an integer entry skips Fraction; the row matches the fraction route
    for texts, expected in [
        (["3"], [3]),
        (["6/2"], [3]),
        (["1", "-1/2", "0"], [2, -1, 0]),
        (["2/2", "-0.5", "0/7"], [2, -1, 0]),
        ([" -4 ", "1/3", "2"], [-12, 1, 6]),
    ]:
        row = QQ.parse_row(texts)
        assert row == expected and all(type(x) is int for x in row)
        qs = [Fraction(text.strip()) for text in texts]
        den = 1
        for q in qs:
            den = den * q.denominator // gcd(den, q.denominator)
        assert row == [int(q * den) for q in qs]


def test_exponent_past_the_digit_limit_refused_before_building():
    # 10^100000000 would take seconds to build; the refusal must not
    limit = sys.get_int_max_str_digits()
    start = time.perf_counter()
    for text in (
        "1e100000000", "-1e-100000000", "0.5e100000000", "0e100000000", f"1e{limit}", f"1e-{limit}"
    ):
        with pytest.raises(ValueError, match="not a rational"):
            rational_from_str(text)
    assert time.perf_counter() - start < 1.0
    # one digit under the limit is still a number
    assert rational_from_str(f"1e{limit - 1}") == 10 ** (limit - 1)
    assert rational_from_str(f"1e-{limit - 1}") == Fraction(1, 10 ** (limit - 1))


class TestRationalField:
    def test_modulus_is_zero_and_no_field(self):
        # p is a class constant: the tag's equality, hash and repr have no field
        assert QQ.p == 0
        assert QQ._fields == ()
        assert repr(QQ) == "RationalField()" and QQ == type(QQ)() and hash(QQ) == hash(type(QQ)())


class TestPrimeField:
    def test_prime_validation(self):
        with pytest.raises(ValueError):
            PrimeField(4)
        with pytest.raises(ValueError):
            PrimeField(1)
        assert PrimeField(2).p == 2
        assert PrimeField(13).p == 13

    def test_is_prime_matches_trial_division(self):
        def trial(p):
            return p >= 2 and all(p % f for f in range(2, int(p**0.5) + 1))

        assert [p for p in range(5000) if is_prime(p)] == [p for p in range(5000) if trial(p)]

    def test_21_digit_prime_answers_fast(self):
        start = time.perf_counter()
        assert PrimeField(100000000000000000039).p == 100000000000000000039
        assert time.perf_counter() - start < 1.0

    def test_large_composites_rejected(self):
        # strong pseudoprimes to every prime base up to 23 and up to 37
        for q in (3825123056546413051, 318665857834031151167461):
            assert not is_prime(q)
        with pytest.raises(ValueError):
            PrimeField(100000000003 * 100000000019)

    def test_modulus_above_exact_limit_refused(self):
        assert MR_EXACT_BELOW > 10**24
        with pytest.raises(ValueError, match="not decided"):
            PrimeField(2**89 - 1)  # a Mersenne prime, above the limit

    def test_serialization(self):
        f = PrimeField(5)
        assert f.parse_row(["2 mod 5", "7", "-1", " 0 mod 5 "]) == [2, 2, 4, 0]
        with pytest.raises(ValueError, match="does not match field GF"):
            f.parse_row(["2 mod 7"])
        with pytest.raises(ValueError, match="not a prime-field scalar"):
            f.parse_row(["1/2"])


def test_field_from_str():
    assert field_from_str("rational") == QQ
    assert field_from_str("gf(5)") == PrimeField(5)
    with pytest.raises(ValueError):
        field_from_str("gf(6)")
    with pytest.raises(ValueError):
        field_from_str("complex")


class TestProbabilityVector:
    def test_valid(self):
        p = ProbabilityVector((Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
        assert p.d == 3
        assert sum(p.entries) == 1

    def test_uniform(self):
        p = ProbabilityVector.uniform(4)
        assert p.entries == (Fraction(1, 4),) * 4

    def test_rejects_bad_sums_and_signs(self):
        with pytest.raises(ValueError):
            ProbabilityVector((Fraction(1, 2), Fraction(1, 3)))
        with pytest.raises(ValueError):
            ProbabilityVector((Fraction(3, 2), Fraction(-1, 2)))
        with pytest.raises(ValueError):
            ProbabilityVector(())

    def test_parse(self):
        p = ProbabilityVector.parse("1/2,1/4,1/4")
        assert p.entries == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
        with pytest.raises(ValueError):
            ProbabilityVector.parse("1/2,1/2,1/2")
