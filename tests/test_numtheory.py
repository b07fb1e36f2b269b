import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from distdlog.numtheory import (
    InstanceError,
    NotInvertibleError,
    ceil_log2,
    ceil_log2_ratio,
    is_prime,
    mod_inverse,
    mod_pow,
    multiplicative_order,
    to_fraction,
    validate_instance,
)


def iterated_power(base, exp, modulus):
    """Oracle: repeated modular multiplication."""
    acc = 1
    for _ in range(exp):
        acc = (acc * base) % modulus
    return acc


class TestModPow:
    def test_examples(self):
        assert iterated_power(3, 5, 11) == 1
        assert mod_pow(3, 5, 11) == 1
        assert mod_pow(7, 0, 11) == 1
        assert mod_pow(3, 2, 11) == 9

    @given(st.integers(0, 1000), st.integers(0, 50), st.integers(2, 500))
    def test_matches_iteration(self, base, exp, modulus):
        assert mod_pow(base, exp, modulus) == iterated_power(base, exp, modulus)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            mod_pow(2, 3, 1)
        with pytest.raises(ValueError):
            mod_pow(2, -1, 5)


class TestModInverse:
    def test_examples(self):
        assert mod_inverse(2, 5) == 3
        assert mod_inverse(1, 7) == 1
        assert mod_inverse(4, 5) == 4

    def test_gcd_witness(self):
        with pytest.raises(NotInvertibleError) as exc:
            mod_inverse(6, 9)
        assert exc.value.gcd == 3

    @given(st.integers(2, 10_000), st.data())
    def test_involution(self, modulus, data):
        x = data.draw(st.integers(1, modulus - 1))
        if math.gcd(x, modulus) != 1:
            return
        y = mod_inverse(x, modulus)
        assert (x * y) % modulus == 1
        assert mod_inverse(y, modulus) == x % modulus


class TestMultiplicativeOrder:
    def test_examples(self):
        powers = [iterated_power(3, e, 11) for e in range(1, 6)]
        assert powers == [3, 9, 5, 4, 1]
        assert multiplicative_order(3, 11) == 5
        assert multiplicative_order(1, 17) == 1
        assert multiplicative_order(10, 11) == 2

    def test_rejects_non_unit(self):
        with pytest.raises(InstanceError):
            multiplicative_order(6, 9)

    @pytest.mark.parametrize("N", range(3, 201))
    def test_order_divides_group_order(self, N):
        group_order = sum(1 for x in range(1, N) if math.gcd(x, N) == 1)
        units = [a for a in range(1, N) if math.gcd(a, N) == 1]
        sample = units if N <= 60 else units[:5] + units[-5:]
        for a in sample:
            assert group_order % multiplicative_order(a, N) == 0


class TestValidateInstance:
    def test_acceptance_instance(self):
        instance = validate_instance(11, 3, 9)
        assert (instance.r, instance.L, instance.hidden_g) == (5, 4, 2)
        assert mod_pow(instance.a, instance.r, instance.N) == 1
        assert mod_pow(instance.a, instance.hidden_g, instance.N) == instance.b

    def test_identity_target(self):
        assert validate_instance(11, 3, 1).hidden_g == 0

    def test_promise_violation(self):
        # powers of 3 mod 11 are {1, 3, 9, 5, 4}; 7 is outside
        with pytest.raises(InstanceError, match="promise violated"):
            validate_instance(11, 3, 7)

    def test_composite_order_rejected(self):
        assert multiplicative_order(2, 15) == 4
        with pytest.raises(InstanceError, match="prime"):
            validate_instance(15, 2, 4)

    def test_order_two_rejected(self):
        with pytest.raises(InstanceError, match="prime"):
            validate_instance(11, 10, 1)

    def test_non_unit_rejected(self):
        with pytest.raises(InstanceError, match="unit"):
            validate_instance(10, 5, 3)

    @pytest.mark.parametrize("N,a,b", [(11, 3, 9), (7, 2, 4), (23, 2, 8), (29, 16, 24)])
    def test_valid_instances_verify(self, N, a, b):
        instance = validate_instance(N, a, b)
        assert is_prime(instance.r) and instance.r > 2
        assert mod_pow(a, instance.hidden_g, N) == b
        assert instance.L == N.bit_length()

    def test_hash_computed_once_and_by_value(self):
        """Equal instances hash equal, and as the tuple of their fields, as
        the generated hash did; ``dataclasses.replace`` gives an instance with
        its own hash, and the cached hash is not a field to compare or show."""
        first, second = validate_instance(11, 3, 9), validate_instance(11, 3, 9)
        assert first is not second and first == second and hash(first) == hash(second)
        assert hash(first) == hash((11, 3, 9, 5, 4, 2))
        assert {first: 1}[second] == 1
        wrong = dataclasses.replace(first, hidden_g=3)
        assert wrong != first and wrong.hidden_g == 3
        assert hash(wrong) == hash((11, 3, 9, 5, 4, 3))
        assert dataclasses.replace(wrong, hidden_g=2) == first
        assert hash(dataclasses.replace(wrong, hidden_g=2)) == hash(first)
        assert "_hash" not in repr(first)
        stored = dataclasses.replace(first)
        object.__setattr__(stored, "_hash", 1)
        assert hash(stored) == 1 and stored == first  # read, not recomputed
        assert [f.name for f in dataclasses.fields(first) if f.compare] == [
            "N", "a", "b", "r", "L", "hidden_g"
        ]
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.r = 7


class TestExactLogs:
    def test_ceil_log2(self):
        assert [ceil_log2(n) for n in (1, 2, 3, 4, 5, 8, 9)] == [0, 1, 2, 2, 3, 3, 4]

    def test_ceil_log2_ratio_edges(self):
        assert ceil_log2_ratio(8, 1) == 3
        assert ceil_log2_ratio(9, 1) == 4
        assert ceil_log2_ratio(6, 1) == 3  # 2 + 1/epsilon at epsilon = 1/4
        assert ceil_log2_ratio(5, 2) == 2  # 2.5 -> 2
        assert ceil_log2_ratio(1, 1) == 0
        assert ceil_log2_ratio(2**60 + 1, 1) == 61

    @given(st.integers(1, 10**9), st.integers(1, 10**6))
    def test_ceil_log2_ratio_definition(self, numerator, denominator):
        if numerator < denominator:
            numerator, denominator = denominator, numerator
        e = ceil_log2_ratio(numerator, denominator)
        assert denominator * (1 << e) >= numerator
        if e > 0:
            assert denominator * (1 << (e - 1)) < numerator

    def test_to_fraction_exact_decimal_strings(self):
        from fractions import Fraction

        assert to_fraction("0.1") == Fraction(1, 10)
        assert to_fraction(0.25) == Fraction(1, 4)
        assert to_fraction(Fraction(2, 7)) == Fraction(2, 7)
