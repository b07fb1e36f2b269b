import dataclasses
import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from distdlog.numtheory import (
    InstanceError,
    ceil_log2,
    ceil_log2_ratio,
    is_prime,
    validate_instance,
)


def iterated_power(base, exp, modulus):
    """Oracle: repeated modular multiplication."""
    acc = 1
    for _ in range(exp):
        acc = (acc * base) % modulus
    return acc


def order_of(a, N):
    """The order of the unit a mod N, read from ``validate_instance(N, a, a)``:
    its r, or the ``got r = ...`` of its refusal of an order that is not an
    odd prime. Any other refusal propagates."""
    try:
        return validate_instance(N, a, a).r
    except InstanceError as exc:
        match = re.fullmatch(r"unsupported: .* got r = (\d+)", str(exc))
        if match is None:
            raise
        return int(match[1])


def two_scans(N, a, b):
    """Reference for ``validate_instance`` on N >= 3 and a, b in 0..N-1: its
    fields, from the order found by iteration and then the exponent of b
    found by search, or the InstanceError it raises."""
    for name, x in (("a", a), ("b", b)):
        if math.gcd(x, N) != 1:
            raise InstanceError(f"{name} = {x} is not a unit mod {N} (gcd = {math.gcd(x, N)})")
    r = 1
    while iterated_power(a, r, N) != 1:
        r += 1
    if r <= 2 or not is_prime(r):
        raise InstanceError(
            f"unsupported: the order of a must be a prime greater than 2, got r = {r}"
        )
    for g in range(r):
        if iterated_power(a, g, N) == b:
            return (N, a, b, r, N.bit_length(), g)
    raise InstanceError(f"promise violated: {b} is not a power of {a} mod {N}")


class TestMultiplicativeOrder:
    def test_examples(self):
        powers = [iterated_power(3, e, 11) for e in range(1, 6)]
        assert powers == [3, 9, 5, 4, 1]
        assert order_of(3, 11) == 5
        assert order_of(1, 17) == 1
        assert order_of(10, 11) == 2

    def test_rejects_non_unit(self):
        with pytest.raises(InstanceError, match=r"a = 6 is not a unit mod 9 \(gcd = 3\)"):
            order_of(6, 9)

    @pytest.mark.parametrize("N", range(3, 201))
    def test_order_divides_group_order(self, N):
        group_order = sum(1 for x in range(1, N) if math.gcd(x, N) == 1)
        units = [a for a in range(1, N) if math.gcd(a, N) == 1]
        sample = units if N <= 60 else units[:5] + units[-5:]
        for a in sample:
            assert group_order % order_of(a, N) == 0


@pytest.mark.parametrize("N", range(3, 51))
def test_one_pass_equals_two_scans(N):
    """The one pass over the powers of a finds what the order iteration and
    the exponent search found, or refuses with the same message, for every
    unit a and every b."""
    units = [a for a in range(1, N) if math.gcd(a, N) == 1]
    for a in units:
        for b in range(N):
            try:
                expected = two_scans(N, a, b)
            except InstanceError as exc:
                with pytest.raises(InstanceError) as got:
                    validate_instance(N, a, b)
                assert str(got.value) == str(exc)
                continue
            instance = validate_instance(N, a, b)
            assert dataclasses.astuple(instance)[:6] == expected


class TestValidateInstance:
    def test_acceptance_instance(self):
        instance = validate_instance(11, 3, 9)
        assert (instance.r, instance.L, instance.hidden_g) == (5, 4, 2)
        assert pow(instance.a, instance.r, instance.N) == 1
        assert pow(instance.a, instance.hidden_g, instance.N) == instance.b

    def test_identity_target(self):
        assert validate_instance(11, 3, 1).hidden_g == 0

    def test_promise_violation(self):
        # powers of 3 mod 11 are {1, 3, 9, 5, 4}; 7 is outside
        with pytest.raises(InstanceError, match="promise violated"):
            validate_instance(11, 3, 7)

    def test_composite_order_rejected(self):
        assert order_of(2, 15) == 4
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
        assert pow(a, instance.hidden_g, N) == b
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
