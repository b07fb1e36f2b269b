"""Modular arithmetic, order finding, and validated discrete-log instances.

Scale target is desk-size moduli: orders are found by brute-force iteration
and the base-b promise is checked by exhaustive exponent search, which keeps
every downstream quantity independently verified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction


class InstanceError(ValueError):
    """A problem instance violates one of its validity requirements."""


class NotInvertibleError(ValueError):
    """Modular inverse requested for a non-unit; carries the gcd witness."""

    def __init__(self, x: int, modulus: int, witness: int):
        super().__init__(f"{x} is not invertible mod {modulus} (gcd = {witness})")
        self.gcd = witness


def mod_pow(base: int, exp: int, modulus: int) -> int:
    """base**exp mod modulus by square-and-multiply."""
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    if exp < 0:
        raise ValueError(f"exponent must be non-negative, got {exp}")
    return pow(base, exp, modulus)


def mod_inverse(x: int, modulus: int) -> int:
    """The y in (0, modulus) with x*y = 1 mod modulus."""
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    witness = math.gcd(x, modulus)
    if witness != 1:
        raise NotInvertibleError(x, modulus, witness)
    return pow(x, -1, modulus)


def multiplicative_order(a: int, N: int) -> int:
    """Least r >= 1 with a**r = 1 mod N, by direct iteration."""
    if N < 2:
        raise InstanceError(f"modulus must be >= 2, got {N}")
    if math.gcd(a, N) != 1:
        raise InstanceError(f"{a} is not a unit mod {N} (gcd = {math.gcd(a, N)})")
    current = a % N
    r = 1
    while current != 1:
        current = (current * a) % N
        r += 1
    return r


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


def to_fraction(value: Fraction | float | int | str) -> Fraction:
    """Normalise a user-supplied tolerance to an exact Fraction.

    Strings are parsed as exact decimals, so CLI input like "0.1" means
    one tenth rather than the nearest binary float.
    """
    return Fraction(value)


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
    """Check all instance requirements and derive (r, L, hidden_g).

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
    r = multiplicative_order(a, N)
    if r <= 2 or not is_prime(r):
        raise InstanceError(
            f"unsupported: the order of a must be a prime greater than 2, got r = {r}"
        )
    hidden_g = None
    current = 1
    for g in range(r):
        if current == b % N:
            hidden_g = g
            break
        current = (current * a) % N
    if hidden_g is None:
        raise InstanceError(f"promise violated: {b} is not a power of {a} mod {N}")
    return ProblemInstance(N=N, a=a, b=b, r=r, L=N.bit_length(), hidden_g=hidden_g)
