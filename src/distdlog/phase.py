"""Phase estimation in closed form.

The exact outcome distribution and amplitudes of the post-transform
counting register. They are the circuit's oracle: the test suites hold
every distribution the circuit produces (the gate-level estimation circuit
lives with them, in ``tests/gatelevel.py``) against its closed form. The
analytic solvers draw from that law one outcome at a time by rejection
(``sample_phase_outcome``), which builds no 2^t array. The sampler takes
its phase as two ints, num and den, checks and reduces them in ints, and
sets the weight's float constants once per draw; no Fraction is built on
the way to an outcome.

One row kernel builds the full laws: ``outcome_laws`` takes many phases at
one width and returns their laws as one (rows, 2^t) array, the oracle for
the tests, the closed-form joint laws and the exact success masses. It takes
each entry at its offset j in (-2^(t-1), 2^(t-1)] from the row's peak, so
the sine in its denominator is folded, in integers, to the half-turn nearer
0 and is never evaluated next to a full turn; each entry is then the
sampler's weight ``_offset_weight`` at that offset, bit for bit. Its cached
one-row case ``phase_outcome_distribution`` is filled by no solver or law
path; the cache stays for the tests and ``bench/worker.py``'s ``CACHES``.
Likewise ``accuracy_masses`` takes the window and prefix accuracy masses of
many phases at once, and ``check_accuracy_bound`` is its one-phase case; the
accuracy suite sweeps every phase s/r through the two kernels.

Phases are exact rationals throughout: Fractions at the law's interface,
and int numerators and denominators in the sampler and the kernels.
Accuracy statements live at the 2^-t scale, where float phases would
poison every window test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .numtheory import ProblemInstance, ceil_log2_ratio, to_fraction

_MAX_T = 26


def accuracy_width(n: int, epsilon: Fraction | float | str) -> int:
    """Counting width for n accurate bits with failure mass at most epsilon:
    t = n + ceil(log2(2 + 1/(2 eps)))."""
    eps = to_fraction(epsilon)
    if not 0 < eps < 1:
        raise ValueError(f"epsilon must be in (0,1), got {eps}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    p, q = eps.numerator, eps.denominator
    return n + ceil_log2_ratio(4 * p + q, 2 * p)


def build_eigenstate(instance: ProblemInstance, s: int) -> np.ndarray:
    """The s-th shared eigenvector of the two multiplication maps, the unit
    vector (1/sqrt r) sum_k exp(-2 pi i s k / r) |a^k mod N>."""
    if not 0 <= s < instance.r:
        raise ValueError(f"s = {s} outside 0..{instance.r - 1}")
    vec = np.zeros(1 << instance.L, dtype=np.complex128)
    point = 1
    scale = 1.0 / math.sqrt(instance.r)
    for k in range(instance.r):
        angle = -2.0 * math.pi * ((s * k) % instance.r) / instance.r
        vec[point] += scale * complex(math.cos(angle), math.sin(angle))
        point = (point * instance.a) % instance.N
    return vec


def _exact_phase(num: int, den: int, t: int) -> tuple[int, int]:
    """Check a phase num/den and a register width by int comparisons; return
    the phase in lowest terms, whose products with 2^t stay exact int64
    values. A Fraction is built only to format the error."""
    if not 0 <= num < den:
        raise ValueError(f"phase must be in [0,1), got {Fraction(num, den)}")
    if not 1 <= t <= _MAX_T:
        raise ValueError(f"register width must be in 1..{_MAX_T}, got {t}")
    common = math.gcd(num, den)
    num, den = num // common, den // common
    if t + den.bit_length() > 62:
        raise ValueError(f"width {t} with denominator {den} exceeds exact integer range")
    return num, den


def _peak_factor(res: int, den: int) -> float:
    """sin^2(pi res / den), with the residue folded to the half-turn nearer
    0 (sin^2 is symmetric about pi/2), so it is never evaluated next to pi."""
    return math.sin(math.pi * min(res, den - res) / den) ** 2


def outcome_laws(nums: np.ndarray | int, dens: np.ndarray | int, t: int) -> np.ndarray:
    """Exact outcome laws of t-qubit estimations of many phases at once.

    Row i of the returned (rows, 2^t) array is the law of the phase
    nums[i]/dens[i], taken in lowest terms (``dens`` may be one shared
    denominator): Pr[m] = sin^2(pi (2^t w - m)) / (2^2t sin^2(pi (w - m/2^t))),
    with Pr[m] = 1 at the removable singularity. The singular outcomes are
    found by exact integer comparison, never by float thresholding. Before
    any float enters, each row's numerator is folded modulo 1, and each
    entry's denominator sine is folded by whole turns to the offset of m from
    the row's peak, as ``_offset_weight`` takes it. A phase
    outside [0, 1), a width outside 1.._MAX_T or a reduced denominator too
    wide for exact int64 products raises ValueError; a row whose mass is not
    1 within 1e-12 raises AssertionError.
    """
    nums, dens = np.broadcast_arrays(
        np.asarray(nums, dtype=np.int64).reshape(-1), np.asarray(dens, dtype=np.int64)
    )
    outside = (nums < 0) | (nums >= dens)
    if outside.any():
        i = int(np.argmax(outside))
        raise ValueError(f"phase must be in [0,1), got {Fraction(int(nums[i]), int(dens[i]))}")
    if not 1 <= t <= _MAX_T:
        raise ValueError(f"register width must be in 1..{_MAX_T}, got {t}")
    common = np.gcd(nums, dens)
    nums, dens = nums // common, dens // common
    wide = dens >= 1 << (62 - t)  # t + bits(den) > 62
    if wide.any():
        den = int(dens[np.argmax(wide)])
        raise ValueError(f"width {t} with denominator {den} exceeds exact integer range")
    size, lift = 1 << t, (1 << (t - 1)) - 1
    peaks_at, rems = np.divmod(nums << t, dens)  # 2^t w = c + rem/den
    # Outcome m sits at offset j = m - c from the peak, taken mod 2^t in
    # (-2^(t-1), 2^(t-1)]; rem - j den is its exact numerator
    # 2^t den (w - m/2^t), folded by whole turns to the half-turn nearer 0.
    # In place on one int64 array: (m - c + lift) mod 2^t = j + lift, and
    # rem - j den = (rem + lift den) - (j + lift) den.
    diff = np.arange(size, dtype=np.int64) - (peaks_at - lift)[:, None]
    diff &= size - 1
    diff *= dens[:, None]
    np.subtract((rems + lift * dens)[:, None], diff, out=diff)
    peaks = np.array([_peak_factor(rem, den) for rem, den in zip(rems.tolist(), dens.tolist())])
    # peak / (2^2t sin^2(pi diff / (den 2^t))), in place on one float array
    laws = diff / (dens << t).astype(np.float64)[:, None]
    laws *= math.pi
    np.sin(laws, out=laws)
    np.square(laws, out=laws)
    laws *= float(size) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(peaks[:, None], laws, out=laws)
    laws[diff == 0] = 1.0
    totals = laws.sum(axis=1)
    drifted = np.abs(totals - 1.0) > 1e-12
    if drifted.any():
        total = float(totals[np.argmax(drifted)])
        raise AssertionError(f"distribution mass {total!r} drifted from 1")
    return laws


@lru_cache(maxsize=512)
def phase_outcome_distribution(omega: Fraction, t: int) -> np.ndarray:
    """Exact outcome distribution of a t-qubit estimation of phase omega:
    the one-row case of ``outcome_laws``, cached and read-only."""
    num, den = _exact_phase(omega.numerator, omega.denominator, t)
    (probs,) = outcome_laws(num, den, t)
    probs.setflags(write=False)
    return probs


def sample_phase_outcome(rng: np.random.Generator, num: int, den: int, t: int) -> int:
    """Draw one outcome of a t-qubit estimation of the phase w = num/den,
    exactly, in O(1) expected time and without building the 2^t law.

    The phase is two ints, checked by int comparisons and reduced to lowest
    terms as the law reduces it, so the weights below are the law's entries
    bit for bit; a bad phase or width raises the law's ValueError.

    Write 2^t w = c + f with c an integer. If f = 0 the outcome is c with
    certainty and nothing is drawn. Otherwise outcome c + j (mod 2^t), for
    the offset j in (-2^(t-1), 2^(t-1)], has probability
    p(j) = F(d) = sin^2(pi d) / (T^2 sin^2(pi d / T)) with d = f - j and
    T = 2^t, evaluated by ``_offset_weight``, the float formula of
    ``outcome_laws``. The offset is drawn by rejection from the rounded
    Cauchy proposal j = floor(f + tan(pi (U - 1/2)) + 1/2), whose mass
    Q(j) = (atan(j - f + 1/2) - atan(j - f - 1/2)) / pi
    = atan(1 / ((j - f)^2 + 3/4)) / pi has no cancellation in the tail;
    offsets out of range are rejected and j is kept with probability
    p(j) / (4 Q(j)). The accepted j then has law p exactly, and each
    proposal is accepted with probability sum_j p(j) / 4 = 1/4. The
    weight's constants, 2^t den and T^2 as floats, and the generator and
    math functions the loop calls are set once per draw.

    The envelope p <= 4 Q holds for every in-range j. The Fejer kernel F is
    at most 1, and |d| < T/2 puts pi d / T in (-pi/2, pi/2), where
    |sin y| >= 2 |y| / pi, so F(d) <= min(1, sin^2(pi d) / (4 d^2)). For
    d^2 <= 1/4, 4 Q >= (4/pi) atan(1) = 1. For d^2 > 1/4, x = 1/(d^2 + 3/4)
    lies in (0, 1), where concavity gives atan(x) >= (pi/4) x, so
    4 Q >= 1/(d^2 + 3/4) >= 1/(4 d^2) because d^2 + 3/4 <= 4 d^2.
    """
    num, den = _exact_phase(num, den, t)
    size = 1 << t
    c, rem = divmod(num << t, den)
    if rem == 0:
        return c % size
    half = size >> 1
    f = rem / den
    peak = _peak_factor(rem, den)
    scale, norm = float(den << t), float(size) ** 2
    random, floor, tan, atan, pi = rng.random, math.floor, math.tan, math.atan, math.pi
    while True:
        j = floor(f + tan(pi * (random() - 0.5)) + 0.5)
        if not -half < j <= half:
            continue
        envelope = 4.0 * atan(1.0 / ((j - f) ** 2 + 0.75)) / pi
        if random() * envelope < _offset_weight(peak, rem - j * den, scale, norm):
            return (c + j) % size


def _offset_weight(peak: float, numerator: int, scale: float, norm: float) -> float:
    """p(j): the entry of outcome_laws at offset j from the peak, bit for
    bit. With 2^t w = c + rem/den, 0 < rem < den, the arguments are
    peak = _peak_factor(rem, den), the exact numerator rem - j den of
    2^t den (w - (c + j)/2^t), scale = float(2^t den) and
    norm = float(2^t) ** 2. The sine is squared by one multiplication, as
    the law kernel squares it."""
    sine = math.sin(math.pi * (numerator / scale))
    return peak / (norm * (sine * sine))


def phase_state_amplitudes(omega: Fraction, t: int) -> np.ndarray:
    """Exact amplitudes of the post-transform counting register.

    amp[v] = (1/2^t) sum_u exp(2 pi i u (w - v/2^t)), evaluated as a closed
    geometric sum. Squared moduli reproduce phase_outcome_distribution.
    """
    num, den = _exact_phase(omega.numerator, omega.denominator, t)
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


@dataclass(frozen=True)
class AccuracyReport:
    """Achieved probability masses for the estimation accuracy guarantees."""

    ok: bool
    bound: float
    window_mass: float
    prefix_masses: dict[int, float]


# Float-summation guard on every accuracy-mass comparison.
MASS_SLACK = 1e-12


def check_accuracy_bound(
    omega: Fraction, t: int, n: int, epsilon: Fraction | float | str
) -> AccuracyReport:
    """Verify both accuracy guarantees for one phase by exact mass summation:
    the one-phase case of ``accuracy_masses``."""
    eps = to_fraction(epsilon)
    omega = Fraction(omega)
    dist = phase_outcome_distribution(omega, t)
    (masses,) = accuracy_masses(dist[None], omega.numerator, omega.denominator, n).tolist()
    bound = 1.0 - float(eps)
    return AccuracyReport(
        ok=min(masses) >= bound - MASS_SLACK,
        bound=bound,
        window_mass=masses[0],
        prefix_masses=dict(zip(range(n, t + 1), masses[1:])),
    )


def accuracy_masses(
    laws: np.ndarray, nums: np.ndarray | int, dens: np.ndarray | int, n: int
) -> np.ndarray:
    """Both accuracy masses of many phases nums/dens, from their t-bit laws
    (one row each, as ``outcome_laws`` builds them).

    Column 0 is the full-width form: the mass of {m : d_t(m, w_t) < 2^(t-n)}.
    Column 1 + m - n, for each m in [n, t], is the prefix form: the mass of
    outcomes whose m-bit prefix lies within circular distance 2^(m-n) of the
    phase's m-bit window w_m = floor(2^m w).
    """
    t = laws.shape[1].bit_length() - 1
    columns = [_window_mass(laws, nums, dens, t, 1 << (t - n), strict=True)]
    for m in range(n, t + 1):
        folded = laws.reshape(len(laws), 1 << m, -1).sum(axis=2)  # prefix_marginal per row
        columns.append(_window_mass(folded, nums, dens, m, 1 << (m - n), strict=False))
    return np.stack(columns, axis=1)


def _window_mass(
    laws: np.ndarray, nums: np.ndarray | int, dens: np.ndarray | int, width: int,
    threshold: int, strict: bool,
) -> np.ndarray:
    """Per row, the mass of the outcomes within circular distance
    ``threshold`` (strictly below it if ``strict``) of the integer target
    floor(2^width num / den). Every row's mask selects the same number of
    outcomes, so the masked entries split evenly into rows and each row sums
    its own in outcome order."""
    size = 1 << width
    targets = (np.asarray(nums, dtype=np.int64) << width) // np.asarray(dens, dtype=np.int64)
    diff = np.abs(np.arange(size, dtype=np.int64) - np.reshape(targets, (-1, 1)))
    circ = np.minimum(diff, size - diff)
    mask = circ < threshold if strict else circ <= threshold
    return laws[mask].reshape(len(laws), -1).sum(axis=1)
