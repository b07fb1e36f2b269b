"""The per-phase accuracy path, the reference for ``phase.outcome_laws``,
``phase.accuracy_masses`` and ``verify.suite_accuracy``.

``outcome_distribution`` builds one phase's 2^t law on its own, each entry
taken at its offset from the peak as the kernel takes it,
``accuracy_report`` sums its window and prefix masses with boolean masks on
that one law around the window ``fraction_bits`` gives, and
``suite_accuracy_loop`` calls it once per (eps, r, s, n), the way the
accuracy suite ran before it swept every s/r in one call.
``analytic_joint_law_loop`` is the closed-form joint law built branch by
branch, the way ``dlp`` built it before ``dlp.branch_laws`` took every
branch's laws in one row-kernel call per register.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from distdlog.bits import MAX_WIDTH, BitString
from distdlog.dlp import Chain, node_numerators
from distdlog.numtheory import ProblemInstance, to_fraction
from distdlog.phase import (
    AccuracyReport,
    _exact_phase,
    _peak_factor,
    accuracy_width,
    phase_outcome_distribution,
    prefix_marginal,
)
from distdlog.verify import ACCURACY_MAX_N, PRIMES_TO_31, CheckResult, _result


def fraction_bits(numerator: int, denominator: int, i: int, j: int) -> BitString:
    """Bits ``i..j`` of the binary expansion of numerator/denominator.

    Bit m is floor(2^m * numerator / denominator) mod 2; terminating
    expansions continue with zeros. Computed by exact integer doubling so
    the window is bit-perfect at any depth.
    """
    if denominator <= 0:
        raise ValueError("denominator must be positive")
    if not 0 <= numerator < denominator:
        raise ValueError(f"need 0 <= numerator < denominator, got {numerator}/{denominator}")
    if not 1 <= i <= j:
        raise ValueError(f"bad window [{i},{j}]")
    width = j - i + 1
    if width > MAX_WIDTH:
        raise ValueError(f"window wider than {MAX_WIDTH} bits")
    prefix = (numerator << j) // denominator
    return BitString(width, prefix & ((1 << width) - 1))


def outcome_distribution(omega: Fraction, t: int) -> np.ndarray:
    num, den = _exact_phase(omega.numerator, omega.denominator, t)
    size = 1 << t
    ms = np.arange(size, dtype=np.int64)
    c, rem = divmod(num << t, den)
    offsets = (ms - c + (size >> 1) - 1) % size - ((size >> 1) - 1)  # in (-2^(t-1), 2^(t-1)]
    diff = rem - offsets * den  # 2^t * (w - m/2^t) * den, exact, folded by whole turns
    if num == 0:
        probs = np.zeros(size)
        probs[0] = 1.0
    else:
        peak = _peak_factor(rem, den)
        args = math.pi * (diff / float(den << t))
        with np.errstate(divide="ignore", invalid="ignore"):
            probs = peak / (float(size) ** 2 * np.sin(args) ** 2)
        probs[diff == 0] = 1.0
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-12:
        raise AssertionError(f"distribution mass {total!r} drifted from 1")
    return probs


def _window_mass(distribution, omega: Fraction, width: int, threshold: int, strict: bool) -> float:
    target = fraction_bits(omega.numerator, omega.denominator, 1, width).value
    size = 1 << width
    outcomes = np.arange(size, dtype=np.int64)
    diff = np.abs(outcomes - target)
    circ = np.minimum(diff, size - diff)
    mask = circ < threshold if strict else circ <= threshold
    return float(distribution[mask].sum())


def accuracy_report(omega: Fraction, t: int, n: int, epsilon) -> AccuracyReport:
    eps = to_fraction(epsilon)
    omega = Fraction(omega)
    dist = outcome_distribution(omega, t)
    bound = 1.0 - float(eps)
    slack = 1e-12
    window_mass = _window_mass(dist, omega, t, threshold=1 << (t - n), strict=True)
    prefix_masses: dict[int, float] = {}
    ok = window_mass >= bound - slack
    for m in range(n, t + 1):
        folded = prefix_marginal(dist, m)
        mass = _window_mass(folded, omega, m, threshold=1 << (m - n), strict=False)
        prefix_masses[m] = mass
        ok = ok and mass >= bound - slack
    return AccuracyReport(ok=ok, bound=bound, window_mass=window_mass, prefix_masses=prefix_masses)


def suite_accuracy_loop(
    rs: tuple[int, ...] = PRIMES_TO_31, epsilons: tuple = ("0.5", "0.25", "0.1")
) -> list[CheckResult]:
    checks = []
    for eps_raw in epsilons:
        eps = to_fraction(eps_raw)
        worst = 1.0
        ok = True
        widths = {n: accuracy_width(n, eps) for n in range(1, ACCURACY_MAX_N + 1)}
        for r in rs:
            for s in range(r):
                for n, t in widths.items():
                    report = accuracy_report(Fraction(s, r), t, n, eps)
                    ok &= report.ok
                    worst = min(worst, report.window_mass, *report.prefix_masses.values())
        checks.append(
            _result(
                f"accuracy masses eps={eps} over r in {rs}, n<={ACCURACY_MAX_N}",
                ok,
                f"worst mass {worst:.6f}",
                f">= {1.0 - float(eps):.6f}",
            )
        )
    return checks


def analytic_joint_law_loop(instance: ProblemInstance, nodes: Chain) -> np.ndarray:
    """The closed-form joint law of a chain, same nodes and indexing as
    ``dlp.joint_law``: per branch s, every register's cached one-phase law,
    folded to its prefix and joined by ``np.kron``, summed over s in order."""
    r = instance.r
    law = None
    for s in range(r):
        term = np.ones(1)
        for t, exponent, m in nodes:
            for num in node_numerators(instance, exponent, s):
                dist = phase_outcome_distribution(Fraction(num, r), t)
                term = np.kron(term, prefix_marginal(dist, m))
        law = term if law is None else law + term
    return law / r
