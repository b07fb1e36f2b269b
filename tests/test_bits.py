import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from distdlog.bits import (
    BitString,
    circ_dist,
    wrap_add,
)

from phaseloop import fraction_bits


def min_wrap_shift(x: BitString, y: BitString) -> int:
    """Oracle: min |b| over all signed b with (x + b) mod 2^t == y."""
    size = 1 << x.width
    best = size
    for b in range(-(size - 1), size):
        if (x.value + b) % size == y.value:
            best = min(best, abs(b))
    return best


def doubling_bits(numerator: int, denominator: int, upto: int) -> str:
    """Oracle: binary expansion by repeated doubling of the remainder."""
    out = []
    rem = numerator
    for _ in range(upto):
        rem *= 2
        out.append("1" if rem >= denominator else "0")
        rem %= denominator
    return "".join(out)


def bs(text: str) -> BitString:
    return BitString(len(text), int(text, 2))


class TestBitString:
    def test_rendering_round_trip(self):
        """``str`` equals ``format(value, f"0{width}b")`` at both ends and the
        top bit of every width, and on a seeded sample."""
        assert str(bs("01101")) == "01101"
        assert bs("01101").value == 13
        cases = [(w, v) for w in range(1, 65) for v in (0, 1, 1 << (w - 1), (1 << w) - 1)]
        rng = random.Random(24)
        cases += [(w, rng.getrandbits(w)) for w in (rng.randint(1, 64) for _ in range(2000))]
        for width, value in cases:
            assert str(BitString(width, value)) == format(value, f"0{width}b"), (width, value)

    def test_validation(self):
        with pytest.raises(ValueError):
            BitString(0, 0)
        with pytest.raises(ValueError):
            BitString(3, 8)
        with pytest.raises(ValueError):
            BitString(65, 0)

    def test_slice_examples(self):
        assert str(bs("01101").slice(2, 4)) == "110"
        x = bs("10110")
        assert x.slice(1, x.width) == x
        assert str(bs("10000").slice(5, 5)) == "0"

    def test_slice_out_of_range(self):
        with pytest.raises(IndexError):
            bs("101").slice(0, 2)
        with pytest.raises(IndexError):
            bs("101").slice(2, 4)
        with pytest.raises(IndexError):
            bs("101").slice(3, 2)


class TestCircDist:
    def test_examples(self):
        assert circ_dist(bs("000"), bs("000")) == 0
        # derived by direct evaluation: min(7, 8 - 7) and min(5, 8 - 5)
        assert circ_dist(bs("000"), bs("111")) == min(7, 8 - 7) == 1
        assert circ_dist(bs("110"), bs("001")) == min(5, 8 - 5) == 3

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            circ_dist(bs("00"), bs("000"))

    @given(st.integers(1, 8), st.data())
    def test_matches_min_shift_oracle(self, t, data):
        x = BitString(t, data.draw(st.integers(0, (1 << t) - 1)))
        y = BitString(t, data.draw(st.integers(0, (1 << t) - 1)))
        assert circ_dist(x, y) == min_wrap_shift(x, y)

    @given(st.integers(1, 16), st.data())
    def test_metric_axioms(self, t, data):
        draw = lambda: BitString(t, data.draw(st.integers(0, (1 << t) - 1)))
        x, y, z = draw(), draw(), draw()
        assert (circ_dist(x, y) == 0) == (x == y)
        assert circ_dist(x, y) == circ_dist(y, x)
        assert circ_dist(x, z) <= circ_dist(x, y) + circ_dist(y, z)
        assert circ_dist(x, y) <= 1 << (t - 1)

    @given(st.integers(2, 16), st.data())
    def test_prefix_facts(self, t, data):
        x = BitString(t, data.draw(st.integers(0, (1 << t) - 1)))
        y = BitString(t, data.draw(st.integers(0, (1 << t) - 1)))
        t0 = data.draw(st.integers(1, t - 1))
        if circ_dist(x, y) < (1 << (t - t0)):
            assert circ_dist(x.slice(1, t0), y.slice(1, t0)) <= 1
        t1 = data.draw(st.integers(t0, t))
        if circ_dist(x, y) < (1 << (t - t0)):
            assert circ_dist(x.slice(1, t1), y.slice(1, t1)) <= 1 << (t1 - t0)


class TestWrapAdd:
    def test_examples(self):
        assert str(wrap_add(bs("101"), 1)) == "110"
        assert str(wrap_add(bs("111"), 1)) == "000"
        assert wrap_add(bs("0101"), 2).value == (5 + 2) % 16 == 7

    @given(st.integers(1, 16), st.data())
    def test_group_law(self, t, data):
        x = BitString(t, data.draw(st.integers(0, (1 << t) - 1)))
        b1 = data.draw(st.integers(-(1 << t), 1 << t))
        b2 = data.draw(st.integers(-(1 << t), 1 << t))
        assert wrap_add(wrap_add(x, b1), b2) == wrap_add(x, b1 + b2)


class TestFractionBits:
    def test_examples_match_doubling_oracle(self):
        assert doubling_bits(1, 5, 4) == "0011"
        assert str(fraction_bits(1, 5, 1, 4)) == "0011"
        assert str(fraction_bits(0, 5, 1, 4)) == "0000"
        assert doubling_bits(2, 5, 5) == "01100"
        assert str(fraction_bits(2, 5, 1, 5)) == "01100"

    @given(
        st.integers(1, 500),
        st.integers(1, 20),
        st.integers(1, 20),
    )
    def test_any_window_matches_oracle(self, denominator, i, width):
        numerator = denominator // 3
        j = i + width - 1
        expansion = doubling_bits(numerator, denominator, j)
        assert str(fraction_bits(numerator, denominator, i, j)) == expansion[i - 1 :]

    @given(st.integers(2, 1000), st.integers(1, 40))
    def test_prefix_value_identity(self, denominator, t):
        numerator = denominator - 1
        window = fraction_bits(numerator, denominator, 1, t)
        assert window.value == ((numerator << t) // denominator) % (1 << t)

    def test_rejects_improper(self):
        with pytest.raises(ValueError):
            fraction_bits(5, 5, 1, 3)
        with pytest.raises(ValueError):
            fraction_bits(1, 5, 3, 2)
