"""Phase estimation in two interchangeable forms.

The circuit form runs on the state-vector simulator; the analytic form
evaluates the exact closed-form outcome distribution of the post-transform
counting register. The two serve as mutual oracles: every distribution the
circuit can produce is also available in closed form, and the test suites
hold them against each other.

Phases are exact rationals throughout. Accuracy statements live at the
2^-t scale, where float phases would poison every window test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import statevec
from .bits import BitString, fraction_bits
from .numtheory import ProblemInstance, ceil_log2_ratio, to_fraction

_MAX_T = 26


@dataclass(frozen=True)
class PhaseTask:
    """An estimation task for a phase omega with a t-qubit counting register."""

    omega: Fraction
    t: int
    n: int
    epsilon: Fraction

    @classmethod
    def from_accuracy(
        cls, omega: Fraction, n: int, epsilon: Fraction | float | str
    ) -> "PhaseTask":
        """Derive t from the target accuracy: t = n + ceil(log2(2 + 1/(2 eps)))."""
        eps = to_fraction(epsilon)
        if not 0 < eps < 1:
            raise ValueError(f"epsilon must be in (0,1), got {eps}")
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        p, q = eps.numerator, eps.denominator
        t = n + ceil_log2_ratio(4 * p + q, 2 * p)
        return cls(omega=omega, t=t, n=n, epsilon=eps)


@dataclass(frozen=True)
class EigenstateSpec:
    """Selects the s-th shared eigenvector of the two multiplication maps."""

    instance: ProblemInstance
    s: int

    def __post_init__(self) -> None:
        if not 0 <= self.s < self.instance.r:
            raise ValueError(f"s = {self.s} outside 0..{self.instance.r - 1}")


def build_eigenstate(spec: EigenstateSpec) -> np.ndarray:
    """The unit vector (1/sqrt r) sum_k exp(-2 pi i s k / r) |a^k mod N>."""
    inst = spec.instance
    vec = np.zeros(1 << inst.L, dtype=np.complex128)
    point = 1
    scale = 1.0 / math.sqrt(inst.r)
    for k in range(inst.r):
        angle = -2.0 * math.pi * ((spec.s * k) % inst.r) / inst.r
        vec[point] += scale * complex(math.cos(angle), math.sin(angle))
        point = (point * inst.a) % inst.N
    return vec


@lru_cache(maxsize=512)
def phase_outcome_distribution(omega: Fraction, t: int) -> np.ndarray:
    """Exact outcome distribution of a t-qubit estimation of phase omega.

    Pr[m] = sin^2(pi (2^t w - m)) / (2^2t sin^2(pi (w - m/2^t))), with
    Pr[m] = 1 at the removable singularity. The singular outcomes are found
    by exact integer comparison, never by float thresholding, and the
    numerator is folded modulo 1 before any float enters.
    """
    omega = Fraction(omega)
    if not 0 <= omega < 1:
        raise ValueError(f"phase must be in [0,1), got {omega}")
    if not 1 <= t <= _MAX_T:
        raise ValueError(f"register width must be in 1..{_MAX_T}, got {t}")
    num, den = omega.numerator, omega.denominator
    if t + den.bit_length() > 62:
        raise ValueError(f"width {t} with denominator {den} exceeds exact integer range")
    size = 1 << t
    ms = np.arange(size, dtype=np.int64)
    diff = (num << t) - ms * den  # 2^t * (w - m/2^t) * den, exact
    if num == 0:
        probs = np.zeros(size)
        probs[0] = 1.0
    else:
        # sin^2 is symmetric about pi/2: fold the residue to the half-turn
        # nearer 0, so the peak factor is never evaluated next to pi.
        res = (num << t) % den
        peak = math.sin(math.pi * min(res, den - res) / den) ** 2
        args = math.pi * (diff / float(den << t))
        with np.errstate(divide="ignore", invalid="ignore"):
            probs = peak / (float(size) ** 2 * np.sin(args) ** 2)
        probs[diff == 0] = 1.0
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-12:
        raise AssertionError(f"distribution mass {total!r} drifted from 1")
    probs.setflags(write=False)
    return probs


def phase_state_amplitudes(omega: Fraction, t: int) -> np.ndarray:
    """Exact amplitudes of the post-transform counting register.

    amp[v] = (1/2^t) sum_u exp(2 pi i u (w - v/2^t)), evaluated as a closed
    geometric sum. Squared moduli reproduce phase_outcome_distribution.
    """
    omega = Fraction(omega)
    if not 0 <= omega < 1:
        raise ValueError(f"phase must be in [0,1), got {omega}")
    if not 1 <= t <= _MAX_T:
        raise ValueError(f"register width must be in 1..{_MAX_T}, got {t}")
    num, den = omega.numerator, omega.denominator
    size = 1 << t
    vs = np.arange(size, dtype=np.int64)
    diff = (num << t) - vs * den
    singular = diff == 0
    # exp(2 pi i 2^t w) is constant in v; fold the exponent mod 1 exactly.
    top = 1.0 - np.exp(2j * math.pi * ((num << t) % den) / den)
    z = np.exp(2j * math.pi * (diff / float(den << t)))
    with np.errstate(divide="ignore", invalid="ignore"):
        amps = top / (size * (1.0 - z))
    amps[singular] = 1.0
    return amps


def prefix_marginal(distribution: np.ndarray, width: int) -> np.ndarray:
    """Fold a 2^t outcome distribution to its first `width` bits."""
    size = len(distribution)
    if size % (1 << width) != 0 or (1 << width) > size:
        raise ValueError(f"cannot fold length {size} to {width} prefix bits")
    return distribution.reshape(1 << width, -1).sum(axis=1)


def run_phase_estimation(
    task: PhaseTask,
    unitary: tuple[int, int],
    eigenstate: EigenstateSpec,
    rng: np.random.Generator,
    power_exponent: int = 0,
) -> BitString:
    """Execute the estimation circuit and return the measured t-bit string.

    ``unitary`` is (base, N): the multiplication-by-base map mod N, raised
    to 2^power_exponent before being controlled on the counting register.
    """
    base, N = unitary
    inst = eigenstate.instance
    if N != inst.N:
        raise ValueError(f"unitary modulus {N} differs from instance modulus {inst.N}")
    layout = statevec.RegisterLayout((("x", task.t), ("work", inst.L)))
    state = statevec.init_product(layout, {"work": build_eigenstate(eigenstate)})
    state = statevec.hadamard_layer(state, "x")
    state = statevec.controlled_modmul_power(state, "x", "work", base, power_exponent, N)
    state = statevec.inverse_qft(state, "x")
    outcome, _ = statevec.measure_register(state, "x", rng)
    return outcome.bits


@dataclass(frozen=True)
class AccuracyReport:
    """Achieved probability masses for the estimation accuracy guarantees."""

    ok: bool
    bound: float
    window_mass: float
    prefix_masses: dict[int, float]


def check_accuracy_bound(
    omega: Fraction, t: int, n: int, epsilon: Fraction | float | str
) -> AccuracyReport:
    """Verify both accuracy guarantees for one phase by exact mass summation.

    Full-width form: mass of {m : d_t(m, w_bits) < 2^(t-n)} >= 1 - eps.
    Prefix form, for each m in [n, t]: mass of outcomes whose m-bit prefix
    lies within circular distance 2^(m-n) of the phase's m-bit window.
    """
    eps = to_fraction(epsilon)
    omega = Fraction(omega)
    dist = phase_outcome_distribution(omega, t)
    bound = 1.0 - float(eps)
    slack = 1e-12  # float-summation guard only

    window_mass = _window_mass(dist, omega, t, threshold=1 << (t - n), strict=True)
    prefix_masses: dict[int, float] = {}
    ok = window_mass >= bound - slack
    for m in range(n, t + 1):
        folded = prefix_marginal(dist, m)
        mass = _window_mass(folded, omega, m, threshold=1 << (m - n), strict=False)
        prefix_masses[m] = mass
        ok = ok and mass >= bound - slack
    return AccuracyReport(ok=ok, bound=bound, window_mass=window_mass, prefix_masses=prefix_masses)


def _window_mass(
    distribution: np.ndarray, omega: Fraction, width: int, threshold: int, strict: bool
) -> float:
    target = fraction_bits(omega.numerator, omega.denominator, 1, width).value
    size = 1 << width
    outcomes = np.arange(size, dtype=np.int64)
    diff = np.abs(outcomes - target)
    circ = np.minimum(diff, size - diff)
    mask = circ < threshold if strict else circ <= threshold
    return float(distribution[mask].sum())
