"""Validated discrete-log instances and exact integer logarithms.

Scale target is desk-size moduli: one pass over the powers of a finds both
its order r and the exponent of b, which keeps every downstream quantity
independently verified. Modular powers and inverses are Python's ``pow``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


class InstanceError(ValueError):
    """A problem instance violates one of its validity requirements."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def ceil_log2(n: int) -> int:
    """Smallest e with 2**e >= n, for integer n >= 1."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return (n - 1).bit_length()


def ceil_log2_ratio(numerator: int, denominator: int) -> int:
    """Exact ceil(log2(numerator/denominator)) for a ratio >= 1.

    ceil(log2(q)) of the ceiling quotient equals the true value because
    2**e is an integer; no floats are involved, so threshold cases such as
    exact powers of two never wobble.
    """
    if denominator < 1 or numerator < denominator:
        raise ValueError(f"need numerator/denominator >= 1, got {numerator}/{denominator}")
    return ceil_log2(-(-numerator // denominator))


@dataclass(frozen=True)
class ProblemInstance:
    """A validated discrete-log problem: find g with a**g = b mod N.

    ``r`` is the multiplicative order of ``a`` and ``L`` the work-register
    width floor(log2 N) + 1. ``hidden_g`` is the exponent found during
    validation. Tests assert against it, and the analytic backends read it
    as their oracle for the branch phases s g / r. The state-vector
    backends never read it.

    Its hash is computed once, with the instance: every cached solve looks
    its law up by instance, and the generated ``__hash__`` would hash the
    six fields anew on each lookup.
    """

    N: int
    a: int
    b: int
    r: int
    L: int
    hidden_g: int
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        fields = (self.N, self.a, self.b, self.r, self.L, self.hidden_g)
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self) -> int:
        return self._hash


def validate_instance(N: int, a: int, b: int) -> ProblemInstance:
    """Check all instance requirements and derive (r, L, hidden_g): one pass
    over the powers of a gives both r and the exponent of b.

    The order is always recomputed rather than trusted, since a wrong r
    silently corrupts every width and rounding rule built from it.
    """
    if N < 3:
        raise InstanceError(f"modulus must be >= 3, got {N}")
    for name, x in (("a", a), ("b", b)):
        if not 0 <= x < N:
            raise InstanceError(f"{name} = {x} outside 0..{N - 1}")
        if math.gcd(x, N) != 1:
            raise InstanceError(f"{name} = {x} is not a unit mod {N} (gcd = {math.gcd(x, N)})")
    hidden_g = 0 if b == 1 else None
    current, r = a, 1
    while current != 1:
        if current == b:  # a^1 .. a^(r-1) are distinct: at most one match
            hidden_g = r
        current = current * a % N
        r += 1
    if r <= 2 or not is_prime(r):
        raise InstanceError(
            f"unsupported: the order of a must be a prime greater than 2, got r = {r}"
        )
    if hidden_g is None:
        raise InstanceError(f"promise violated: {b} is not a power of {a} mod {N}")
    return ProblemInstance(N=N, a=a, b=b, r=r, L=N.bit_length(), hidden_g=hidden_g)
