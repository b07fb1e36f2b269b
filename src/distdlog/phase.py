"""Phase estimation in closed form.

The exact outcome distribution and amplitudes of the post-transform
counting register. They are the circuit's oracle: the test suites hold
every distribution the circuit produces (the gate-level estimation circuit
lives with them, in ``tests/gatelevel.py``) against its closed form. The
analytic solvers draw from that law one outcome at a time
(``sample_phase_outcome``), which builds no 2^t array: one uniform
inverts the two outcomes next to the peak, and only a draw past them
rejects from a rounded Cauchy envelope on the tail. The sampler takes
its phase as two ints, num and den, checks and reduces them in ints, and
hands the split 2^t w = c + rem/den to its one draw body
(``draw_from_peak``), which sets the weight's float constants once per
draw; no Fraction is built on the way to an outcome. A caller whose
phases are in lowest terms by construction, as ``dlp.sample_chain``'s over
a prime order are, checks the width once (``check_width``) and calls the
body itself.

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
accuracy suite sweeps every phase s/r through the two kernels. Each mass
gathers only the law entries in its phase's circular window, in outcome
order, so it builds no (rows, 2^t) mask and folds no whole row, and it
equals the boolean-mask sum over the row bit for bit.

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
from typing import TYPE_CHECKING

import numpy as np

from .numtheory import ceil_log2_ratio

if TYPE_CHECKING:
    from .statevec import Rng

_MAX_T = 26


def accuracy_width(n: int, epsilon: Fraction | float | str) -> int:
    """Counting width for n accurate bits with failure mass at most epsilon:
    t = n + ceil(log2(2 + 1/(2 eps)))."""
    eps = Fraction(epsilon)
    if not 0 < eps < 1:
        raise ValueError(f"epsilon must be in (0,1), got {eps}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    p, q = eps.numerator, eps.denominator
    return n + ceil_log2_ratio(4 * p + q, 2 * p)


def _exact_phase(num: int, den: int, t: int) -> tuple[int, int]:
    """Check a phase num/den and a register width by int comparisons; return
    the phase in lowest terms, whose products with 2^t stay exact int64
    values. A Fraction is built only to format the error."""
    if not 0 <= num < den:
        raise ValueError(f"phase must be in [0,1), got {Fraction(num, den)}")
    common = math.gcd(num, den)
    num, den = num // common, den // common
    check_width(t, den)
    return num, den


def check_width(t: int, den: int) -> None:
    """Refuse, with the law's messages, a register width outside
    1.._MAX_T, or one whose products with the reduced denominator den leave
    the exact int64 range (t + bits(den) > 62)."""
    if not 1 <= t <= _MAX_T:
        raise ValueError(f"register width must be in 1..{_MAX_T}, got {t}")
    if t + den.bit_length() > 62:
        raise ValueError(f"width {t} with denominator {den} exceeds exact integer range")


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


def sample_phase_outcome(rng: Rng, num: int, den: int, t: int) -> int:
    """Draw one outcome of a t-qubit estimation of the phase w = num/den,
    exactly, in O(1) expected time and without building the 2^t law.

    The phase is two ints, checked by int comparisons and reduced to lowest
    terms as the law reduces it, so the weights below are the law's entries
    bit for bit; a bad phase or width raises the law's ValueError. The draw
    is ``draw_from_peak`` on the split divmod(num 2^t, den).

    Write 2^t w = c + f with c an integer. If f = 0 the outcome is c with
    certainty and nothing is drawn. Otherwise outcome c + j (mod 2^t), for
    the offset j in (-2^(t-1), 2^(t-1)], has probability
    p(j) = F(d) = sin^2(pi d) / (T^2 sin^2(pi d / T)) with d = f - j and
    T = 2^t, evaluated by ``_offset_weight``, the float formula of
    ``outcome_laws``. The two central offsets, 0 and 1, carry at least
    8/pi^2 > 0.81 of the mass, so the draw inverts them first on one
    uniform u: it returns c if u < p(0), and c + 1 if u < p(0) + p(1) or if
    t = 1, where they are the only offsets. Only otherwise does it draw from
    the tail, the offsets j not in {0, 1}, by rejection from the rounded
    Cauchy proposal j = floor(f + tan(pi (U - 1/2)) + 1/2), whose mass
    Q(j) = (atan(j - f + 1/2) - atan(j - f - 1/2)) / pi
    = atan(1 / ((j - f)^2 + 3/4)) / pi has no cancellation in the tail;
    central and out-of-range offsets are rejected and j is kept with
    probability p(j) / (M Q(j)), M = 7/4 sin^2(pi f). The accepted j then
    has the tail's law, p renormalised to 1 - p(0) - p(1), and the outcome
    has law p exactly. The weight's constants, 2^t den and T^2 as floats,
    are set once per draw, and the generator and math functions the loop
    calls once per tail draw.

    The envelope p <= M Q holds for every tail offset. There |d| >= 1, as
    f lies in (0, 1) and j <= -1 or j >= 2, and sin^2(pi d) = sin^2(pi f).
    |d| < T/2 puts pi d / T in (-pi/2, pi/2), where |sin y| >= 2 |y| / pi,
    so p(j) <= sin^2(pi f) / (4 d^2). x = 1/(d^2 + 3/4) lies in (0, 1),
    where concavity gives atan(x) >= (pi/4) x, so
    Q(j) >= 1 / (4 (d^2 + 3/4)). Their ratio is
    p / (sin^2(pi f) Q) <= (d^2 + 3/4) / d^2 <= 7/4.
    """
    num, den = _exact_phase(num, den, t)
    c, rem = divmod(num << t, den)
    return draw_from_peak(rng, c, rem, den, t)


def draw_from_peak(rng: Rng, c: int, rem: int, den: int, t: int) -> int:
    """``sample_phase_outcome``'s draw body, for a phase w whose split
    2^t w = c + rem/den is given: w = num/den must be in [0, 1) and in lowest
    terms (or rem = 0), and t must pass ``check_width(t, den)``. It checks
    neither; given them, it draws exactly as ``sample_phase_outcome``
    draws on num/den."""
    size = 1 << t
    if rem == 0:
        return c % size
    peak = _peak_factor(rem, den)
    scale, norm = float(den << t), float(size) ** 2
    u = rng.random()
    p0 = _offset_weight(peak, rem, scale, norm)
    if u < p0:
        return c % size
    if t == 1 or u < p0 + _offset_weight(peak, rem - den, scale, norm):
        return (c + 1) % size
    half = size >> 1
    f = rem / den
    bound = 1.75 * peak
    random, floor, tan, atan, pi = rng.random, math.floor, math.tan, math.atan, math.pi
    while True:
        j = floor(f + tan(pi * (random() - 0.5)) + 0.5)
        if not -half < j <= half or 0 <= j <= 1:
            continue
        envelope = bound * atan(1.0 / ((j - f) ** 2 + 0.75)) / pi
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
    eps = Fraction(epsilon)
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

    Each mass reads only the entries in its window (``_window_mass``) and
    adds them in the order a boolean mask over the row would, so it equals
    that mask's sum bit for bit; no (rows, 2^t) mask or whole-row fold is
    built.
    """
    rows, size = laws.shape
    t = size.bit_length() - 1
    targets = (np.asarray(nums, dtype=np.int64) << t) // np.asarray(dens, dtype=np.int64)
    targets = np.reshape(targets, (-1, 1))  # floor(2^t w); floor(2^m w) is targets >> (t - m)
    lines = np.arange(rows)[:, None]
    masses = np.empty((rows, t - n + 2))
    outcomes = laws.reshape(rows << t, 1)
    masses[:, 0] = _window_mass(outcomes, targets, lines << t, t, (1 << (t - n)) - 1)
    for m in range(n, t + 1):
        cells = laws.reshape(rows << m, -1)
        masses[:, 1 + m - n] = _window_mass(cells, targets >> (t - m), lines << m, m, 1 << (m - n))
    return masses


def _window_mass(
    cells: np.ndarray, targets: np.ndarray, lines: np.ndarray, width: int, reach: int
) -> np.ndarray:
    """Per row, the mass of the outcomes whose ``width``-bit prefix lies
    within circular distance ``reach`` of the row's integer target
    floor(2^width w). ``cells`` holds the laws as (rows 2^width, 2^(t - width)),
    one line per prefix with its outcomes in order, and ``lines`` holds each
    row's first line. Each row's window is its min(2 reach + 1, 2^width)
    prefixes around the target, sorted ascending; their cells are gathered
    as (rows, count, 2^(t - width)) and summed over the cells, then over the
    window, so every outcome is added in the order a boolean mask over the
    row would add it."""
    size = 1 << width
    offsets = np.arange(-reach, reach + 1) if 2 * reach + 1 < size else np.arange(size)
    window = targets + offsets
    window &= size - 1
    window.sort(axis=1)
    window += lines
    return cells.take(window, axis=0).sum(axis=2).sum(axis=1)
