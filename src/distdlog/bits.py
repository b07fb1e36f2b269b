"""Fixed-width bit strings with 1-based, MSB-first indexing.

Everything here is pure integer arithmetic; no float ever enters a bit
computation. All values are immutable, so they are safe to share across
threads and processes.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_WIDTH = 64


@dataclass(frozen=True, slots=True)
class BitString:
    """A word of ``width`` bits; position 1 is the most significant bit."""

    width: int
    value: int

    def __post_init__(self) -> None:
        if not 1 <= self.width <= MAX_WIDTH:
            raise ValueError(f"width must be in 1..{MAX_WIDTH}, got {self.width}")
        if not 0 <= self.value < (1 << self.width):
            raise ValueError(f"value {self.value} does not fit in {self.width} bits")

    def __str__(self) -> str:
        return bin(self.value)[2:].zfill(self.width)

    def slice(self, i: int, j: int) -> "BitString":
        """Bits ``i..j`` inclusive, 1-based from the MSB."""
        if not 1 <= i <= j <= self.width:
            raise IndexError(f"slice [{i},{j}] outside 1..{self.width}")
        width = j - i + 1
        return BitString(width, (self.value >> (self.width - j)) & ((1 << width) - 1))


def circ_dist(x: BitString, y: BitString) -> int:
    """Circular distance min(|x-y|, 2^t - |x-y|) on equal-width words."""
    if x.width != y.width:
        raise ValueError(f"width mismatch: {x.width} vs {y.width}")
    diff = abs(x.value - y.value)
    return min(diff, (1 << x.width) - diff)


def wrap_add(x: BitString, b: int) -> BitString:
    """x + b reduced modulo 2^width, keeping the width.

    ``b`` may be any signed integer.
    """
    return BitString(x.width, (x.value + b) % (1 << x.width))

