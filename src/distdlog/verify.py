"""Executable property suites: the circular-distance facts, the
prefix-distance bound, the alignment-step facts, the estimation accuracy
bounds, the alignment oracle, and the exact success masses of both solvers.

Each suite returns CheckResult rows so the CLI and the tests can share one
implementation; exhaustive ranges and random cases are swept as numpy arrays.
The random cases of the metric and alignment-oracle suites are drawn from
``harness.case_rng(seed)``, a counter-based stream of int64 arrays, so no
``verify`` process loads ``numpy.random``; the output holds only verdicts and
counts, so it does not depend on which cases a seed draws.

The distance suites (``suite_metric``, ``suite_prefix_bound``) compute every
circular distance through one formula, ``_circ_dist``. The metric suite
draws its random cases as arrays (``_metric_cases``) and checks them in one
pass; the prefix suite builds each prefix-distance table once per width and
checks it against every shorter prefix. Their exhaustive tables are int16,
a quarter of the int64 size (128 KiB at t = 8). The tests hold them to the
per-case ``BitString`` loops they replaced (``tests/metricloop.py``).

The accuracy suite (``suite_accuracy``) sweeps every phase s/r at once
through ``phase``'s row kernels: ``outcome_laws`` builds their 2^t laws
once per width t, in row blocks, and ``accuracy_masses`` takes the window
and prefix masses of every (t, n) that the epsilons need from each block,
gathering only the entries in each phase's window. Each epsilon is parsed,
and its widths found, once per sweep. ``run_suite`` refuses, once and before
any suite runs, a sweep of more law entries than _ACCURACY_ENTRIES_CAP, and
a case count whose alignment arrays would pass the byte cap
(``statevec.check_bytes``).
Every temporary of the prefix and accuracy suites is at most 128 KiB,
glibc's default mmap threshold, so a warm pass reuses the heap instead of
faulting its working set back in.

The alignment oracle (``suite_correct``) runs the solvers' own alignment
pass, ``dist.align_values``, on int64 arrays: one oracle call per sweep.
That pass is closed form: each node's shift is the signed residue
s = 2^h - ((2^h - (target - tail)) mod 2^(h+1)), in (-2^h, 2^h], clamped
to [-2^(h-1), 2^(h-1)], with the fallback flag set when |s| > 2^(h-1); the
midpoint s = 2^h, a tie between +2^(h-1) and -2^(h-1), goes to +2^(h-1).
Its body is integer arithmetic only, with every mod 2^k taken as a mask,
so ``correct_with_flag`` runs the same body on Python ints. The tests hold
it equal to a scan over the candidate shifts (``tests/alignscan.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import dist, dlp, phase, statevec
from .bits import circ_dist, wrap_add  # bench/tests checks verify's binding of both
from .harness import case_rng
from .numtheory import validate_instance

# The sizes of the suites; the check names print most of them.
PRIMES_TO_31 = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
METRIC_EXHAUSTIVE_T = 6
METRIC_RANDOM_CASES = 2000
PREFIX_MAX_T = 8
ALIGNMENT_MAX_T = 6
ACCURACY_MAX_N = 6
ACCURACY_EPSILONS = ("0.5", "0.25", "0.1")
CORRECT_RS = (5, 7, 11, 13)
CORRECT_KS = (2, 3)
CORRECT_HS = (2, 3)
DLP_MASS_INSTANCES = ((7, 2, 4), (11, 3, 9))

# suite_correct's tracemalloc peak is about 131 bytes per random case at 10^5
# and 10^6 cases (w, the perturbations, and the oracle's windows, inputs and
# pass temporaries, all int64 arrays of that length); rounded up here. The
# byte cap admits about two million cases.
_CASE_BYTES = 136

# suite_accuracy builds the laws of one width in row blocks of at most this
# many bytes. Each temporary of the law and mass kernels is at most one
# block, so at 64 KiB none reaches glibc's default 128 KiB mmap threshold:
# the sweep's memory stays on the heap between passes instead of being
# unmapped and faulted back in (1,000 to 1,500 minor faults per warm
# default pass at 256 KiB, 0 to 16 at 64 KiB, counted with getrusage), and
# its tracemalloc peak is 334 KiB.
_ACCURACY_BLOCK_BYTES = 1 << 16
# The most law entries (accuracy_entries) one accuracy sweep may take: about
# 0.65 s of sweep at 20 ns per counted entry with the default epsilons, which
# share widths (r = 8009), and 1.2 s at 35 ns with one epsilon, which shares
# none (r = 16001, epsilon 0.1); shared 2-core machine. The default sweep
# counts 322,560; the cap admits r up to 16,644 at the default epsilons.
_ACCURACY_ENTRIES_CAP = 1 << 25


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    achieved: str
    bound: str


def _result(name: str, ok: bool, achieved, bound) -> CheckResult:
    return CheckResult(name=name, ok=bool(ok), achieved=str(achieved), bound=str(bound))


def _circ_dist(x, y, width):
    """Circular distance min(|x-y|, 2^width - |x-y|), elementwise on int
    arrays, in their dtype; ``width`` may be one width or an array of them."""
    diff = np.abs(x - y)
    return np.minimum(diff, (1 << width) - diff, out=diff)


def _circ_table(t: int) -> np.ndarray:
    """Circular distances of every pair of t-bit words, as int16: every
    intermediate is at most 2^t, so t <= 14 fits."""
    vals = np.arange(1 << t, dtype=np.int16)
    return _circ_dist(vals[:, None], vals[None, :], t)


def _prefix_table(t: int, t1: int) -> np.ndarray:
    """Circular distances of the t1-bit prefixes of every pair of t-bit
    words, as int16 (see ``_circ_table``)."""
    prefix = np.arange(1 << t, dtype=np.int16) >> (t - t1)
    return _circ_dist(prefix[:, None], prefix[None, :], t1)


def _metric_cases(seed: int) -> tuple[np.ndarray, ...]:
    """The random cases of ``suite_metric``: per case a width t in 2..16,
    three words x, y, z below 2^t and a prefix width t0 in 1..t-1, drawn
    as int64 arrays from ``case_rng(seed)``."""
    rng = case_rng(seed)
    t = rng.integers(2, 17, size=METRIC_RANDOM_CASES)
    x, y, z = rng.integers(0, 1 << t, size=(3, METRIC_RANDOM_CASES))
    t0 = rng.integers(1, t)
    return t, x, y, z, t0


def suite_metric(seed: int = 0) -> list[CheckResult]:
    """Distance axioms, the minimal-shift characterisation, and the one-bit
    prefix consequence, exhaustively for small widths and sampled above.

    Every row runs on int64 arrays through one distance formula,
    ``_circ_dist``. The minimal-shift scan is one ``np.minimum.at`` over
    every (word, shift) pair, and the random cases (``_metric_cases``) are
    checked in one pass. The tests hold the random row to the per-case
    ``BitString`` loop it replaced (``tests/metricloop.py``).
    """
    checks: list[CheckResult] = []

    axioms_ok = True
    shift_ok = True
    prefix_ok = True
    for t in range(1, METRIC_EXHAUSTIVE_T + 1):
        size = 1 << t
        D = _circ_table(t)
        vals = np.arange(size, dtype=np.int64)
        axioms_ok &= bool(((D == 0) == np.eye(size, dtype=bool)).all())
        axioms_ok &= bool((D == D.T).all())
        # triangle, one x at a time: D[x, z] <= D[x, y] + D[y, z] over (y, z)
        axioms_ok &= all(bool((row <= row[:, None] + D).all()) for row in D)

        # minimal |b| with (x + b) mod 2^t == y, by explicit scan over b
        best = np.full((size, size), size, dtype=np.int64)
        b = np.arange(-(size - 1), size, dtype=np.int64)
        np.minimum.at(best, (vals[:, None], (vals[:, None] + b) % size), np.abs(b))
        shift_ok &= bool((best == D).all())

        for t0 in range(1, t):
            mask = D < (1 << (t - t0))
            prefix_ok &= bool((_prefix_table(t, t0)[mask] <= 1).all())

    checks.append(_result(f"distance axioms exhaustive t<={METRIC_EXHAUSTIVE_T}", axioms_ok, axioms_ok, "all hold"))
    checks.append(_result(f"minimal-shift form exhaustive t<={METRIC_EXHAUSTIVE_T}", shift_ok, shift_ok, "all hold"))
    checks.append(_result(f"one-bit prefix fact exhaustive t<={METRIC_EXHAUSTIVE_T}", prefix_ok, prefix_ok, "all hold"))

    t, x, y, z, t0 = _metric_cases(seed)
    shift = t - t0  # a t0-bit prefix is the word >> (t - t0)
    dxy = _circ_dist(x, y, t)
    close = dxy < (1 << shift)
    random_ok = bool(
        ((dxy == 0) == (x == y)).all()
        and (dxy == _circ_dist(y, x, t)).all()
        and (_circ_dist(x, z, t) <= dxy + _circ_dist(y, z, t)).all()
        and (_circ_dist(x >> shift, y >> shift, t0)[close] <= 1).all()
    )
    checks.append(_result(f"distance axioms random t<=16 ({METRIC_RANDOM_CASES} cases)", random_ok, random_ok, "all hold"))
    return checks


def suite_prefix_bound() -> list[CheckResult]:
    """Exhaustive check of the general prefix-distance bound:
    d_t(x,y) < 2^(t-t0) implies d_t1(prefixes) <= 2^(t1-t0) for t0 <= t1 <= t.

    Every (t, t0, t1) and every pair of t-bit words is checked. Each t1's
    prefix-distance table is built once and checked against every t0 <= t1.
    The tests hold it to the t0-outer triple loop it replaced
    (``tests/metricloop.py``).
    """
    ok = True
    for t in range(2, PREFIX_MAX_T + 1):
        D = _circ_table(t)
        for t1 in range(1, t + 1):
            pd = _prefix_table(t, t1)
            for t0 in range(1, t1 + 1):
                mask = D < (1 << (t - t0))
                ok &= bool((pd[mask] <= (1 << (t1 - t0))).all())
    return [_result(f"prefix-distance bound exhaustive t<={PREFIX_MAX_T}", ok, ok, "all hold")]


def suite_alignment_facts() -> list[CheckResult]:
    """Exhaustive checks of the two facts the alignment pass rests on:
    the unique small shift between overlapping windows decomposes as
    b_1 + b_2, and a bounded shift acts on a word iff it acts on the
    word's trailing h bits.

    Each (t, h) is one sweep of int64 arrays broadcast over the word, the
    shifts and the candidate shift q: a word's trailing n bits are its
    value mod 2^n, and ``wrap_add`` on them is + mod 2^n. The tests hold it
    to the same enumeration over ``BitString`` words (``tests/alignfacts.py``).
    """
    unique_ok = True
    decompose_ok = True
    for t in range(3, ALIGNMENT_MAX_T + 1):
        for h in range(2, min(t - 1, 4) + 1):
            overlap = 1 << (h + 1)  # window [t-h, t], h+1 bits
            w = np.arange(1 << t, dtype=np.int64)[:, None, None, None]
            b1 = np.array([0, 1, -1], dtype=np.int64)[None, :, None, None]
            b2 = np.arange(-(1 << (h - 2)), (1 << (h - 2)) + 1, dtype=np.int64)[None, None, :, None]
            q = np.arange(-(1 << (h - 1)), (1 << (h - 1)) + 1, dtype=np.int64)
            x_tail = (w - b1) % (1 << t) % overlap  # so that x + b1 == w
            z = (w % overlap + b2) % overlap
            matches = (x_tail + q) % overlap == z
            unique_ok &= bool((matches.sum(axis=3) == 1).all())
            decompose_ok &= bool((matches == (q == b1 + b2)).all())

    restrict_ok = True
    for t in range(3, ALIGNMENT_MAX_T + 1):
        for h in range(2, t + 1):
            bound = 1 << (h - 2)
            x = np.arange(1 << t, dtype=np.int64)[:, None, None]
            b0 = np.arange(-bound, bound + 1, dtype=np.int64)[None, :, None]
            b = np.arange(-bound, bound + 1, dtype=np.int64)
            y = (x + b0) % (1 << t)
            full = (x + b) % (1 << t) == y
            tail = (x % (1 << h) + b) % (1 << h) == y % (1 << h)
            restrict_ok &= bool((full == (b == b0)).all()) and bool((full == tail).all())
    return [
        _result(f"overlap shift unique and b1+b2 (t<={ALIGNMENT_MAX_T})", unique_ok and decompose_ok,
                unique_ok and decompose_ok, "all hold"),
        _result(f"shift acts on word iff on trailing h bits (t<={ALIGNMENT_MAX_T})", restrict_ok,
                restrict_ok, "all hold"),
    ]


def suite_accuracy(
    rs: tuple[int, ...] = PRIMES_TO_31, epsilons: tuple = ACCURACY_EPSILONS
) -> list[CheckResult]:
    """Exhaustive estimation-accuracy masses over all phases s/r.

    Each (eps, n) needs the laws of every s/r at width t = accuracy_width(n,
    eps), one row per phase, and several (eps, n) share a width (the default
    epsilons need 7 widths for 18 sweeps). So each width's laws are built
    once by ``phase.outcome_laws``, in row blocks of at most
    _ACCURACY_BLOCK_BYTES of law, and ``phase.accuracy_masses`` takes their
    window and prefix masses once per (t, n) and block. Each eps then reads
    the minima of its own (t, n) blocks in (n, block) order. The laws'
    memory stays flat at any r. ``run_suite`` refuses a sweep of more than
    _ACCURACY_ENTRIES_CAP law entries. The tests hold it to one law and one
    mass check per phase (``tests/phaseloop.py``).
    """
    nums = np.concatenate([np.arange(r, dtype=np.int64) for r in rs])
    dens = np.repeat(np.asarray(rs, dtype=np.int64), rs)
    sweeps = _accuracy_sweeps(epsilons)
    # per width t, each n it serves mapped to the block minima of that (t, n)
    widths: dict[int, dict[int, list[float]]] = {}
    for _, ts in sweeps:
        for n, t in enumerate(ts, 1):
            widths.setdefault(t, {})[n] = []
    for t, minima in widths.items():
        rows = max(1, _ACCURACY_BLOCK_BYTES >> (t + 3))
        for start in range(0, len(nums), rows):
            block = slice(start, start + rows)
            laws = phase.outcome_laws(nums[block], dens[block], t)
            for n, lows in minima.items():
                lows.append(float(phase.accuracy_masses(laws, nums[block], dens[block], n).min()))
    checks = []
    for eps, ts in sweeps:
        bound = 1.0 - float(eps)
        worst = 1.0
        ok = True
        for n, t in enumerate(ts, 1):
            for low in widths[t][n]:
                ok &= low >= bound - phase.MASS_SLACK
                worst = min(worst, low)
        checks.append(
            _result(
                f"accuracy masses eps={eps} over r in {rs}, n<={ACCURACY_MAX_N}",
                ok,
                f"worst mass {worst:.6f}",
                f">= {bound:.6f}",
            )
        )
    return checks


def _accuracy_sweeps(epsilons: tuple) -> list[tuple[Fraction, tuple[int, ...]]]:
    """Each epsilon, parsed once, with its widths accuracy_width(n, eps) for
    n = 1..ACCURACY_MAX_N."""
    sweeps = []
    for eps_raw in epsilons:
        eps = Fraction(eps_raw)
        ts = tuple(phase.accuracy_width(n, eps) for n in range(1, ACCURACY_MAX_N + 1))
        sweeps.append((eps, ts))
    return sweeps


def accuracy_entries(rs: tuple[int, ...], epsilons: tuple) -> int:
    """Law entries an accuracy sweep takes masses over: r * sum_n 2^(t_n) per
    r and eps. A width that several (eps, n) share is built once but counted
    once per (eps, n), as each takes its own masses from it."""
    return sum(rs) * sum(1 << t for _, ts in _accuracy_sweeps(epsilons) for t in ts)


def feasible_correct_combos() -> list[dist.DistPlan]:
    plans = []
    for r in CORRECT_RS:
        for k in CORRECT_KS:
            for h in CORRECT_HS:
                try:
                    plans.append(dist.plan_for_order(r, k, h, Fraction(1, 4), Fraction(1, 5)))
                except dist.PlanError:
                    continue
    return plans


def suite_correct(cases: int = 10_000, seed: int = 1) -> list[CheckResult]:
    """The alignment oracle: randomized cases per feasible plan shape, plus
    exhaustive enumeration of every (word, perturbation) combination.

    Each check is one ``dist.brute_force_correct_oracle`` call on int64
    arrays: the random cases are drawn as arrays, the exhaustive sweep is a
    ``np.meshgrid`` over w and every perturbation. The oracle runs the
    solvers' own closed-form pass, ``dist.align_values`` (the shift is the
    signed residue of target - tail mod 2^(h+1) clamped to
    [-2^(h-1), 2^(h-1)], +2^(h-1) at the midpoint), elementwise, and the
    check reports how many cases it moved off the ground truth.
    """
    checks = []
    rng = case_rng(seed)
    for plan in feasible_correct_combos():
        label = f"r={plan.r} k={plan.k} h={plan.h}"
        bound = 1 << (plan.h - 2)
        w = rng.integers(1 << plan.total_width, size=cases)
        perturbations = [rng.integers(-bound, bound + 1, size=cases) for _ in range(plan.k - 1)]
        perturbations.append(rng.integers(-1, 2, size=cases))
        _, failures = dist.brute_force_correct_oracle(w, perturbations, plan)
        checks.append(_result(f"alignment oracle random {label} ({cases} cases)",
                              failures == 0, f"{failures} failures", "0 failures"))

        if plan.total_width <= 8:
            spans = [np.arange(-bound, bound + 1)] * (plan.k - 1) + [np.arange(-1, 2)]
            grid = np.meshgrid(np.arange(1 << plan.total_width), *spans, indexing="ij")
            w, *perturbations = (axis.ravel() for axis in grid)
            _, failures = dist.brute_force_correct_oracle(w, perturbations, plan)
            checks.append(_result(f"alignment oracle exhaustive {label}",
                                  failures == 0, f"{failures} failures", "0 failures"))
    return checks


def suite_dlp_mass(epsilons: tuple = ("0.5", "0.25")) -> list[CheckResult]:
    """Exact one-attempt success masses (``dlp.success_mass``) against
    (r-1)/r (1-eps) for Alg. 2 and (r-1)/r (1-eps') for Alg. 4 at k = 2,
    h = 2 and ``plan_for_order``'s default eps' = eps/2."""
    checks = []
    for N, a, b in DLP_MASS_INSTANCES:
        instance = validate_instance(N, a, b)
        r = instance.r
        for eps_raw in epsilons:
            eps = Fraction(eps_raw)
            plan = dist.plan_for_order(r, 2, 2, eps)
            alg4 = dlp.success_mass(instance, plan.nodes, plan.join, plan.total_width)
            rows = (("", dlp.single_shot_success_mass(instance, eps), eps),
                    (f" k=2 h=2 eps'={plan.epsilon_prime}", alg4, plan.epsilon_prime))
            for label, mass, slack in rows:
                bound = float(Fraction(r - 1, r) * (1 - slack))
                checks.append(_result(f"exact success mass r={r} eps={eps}{label}", mass >= bound,
                                      f"{mass:.6f}", f">= {bound:.6f}"))
    return checks


SUITES = ("metric", "prefix", "alignment", "accuracy", "correct", "dlp-mass", "all")


def run_suite(
    name: str,
    r: int | None = None,
    epsilon: str | None = None,
    cases: int = 10_000,
    seed: int = 1,
) -> list[CheckResult]:
    """Run one suite, or all of them in ``SUITES`` order. A negative seed, a
    case count whose alignment arrays would pass the byte cap
    (``statevec.check_bytes``), or an accuracy sweep of more than
    _ACCURACY_ENTRIES_CAP law entries, is refused here, once, before any
    suite runs."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    statevec.check_bytes(f"an alignment sweep of {cases} cases", cases * _CASE_BYTES)
    rs = (r,) if r is not None else PRIMES_TO_31
    accuracy_eps = (epsilon,) if epsilon else ACCURACY_EPSILONS
    if name in ("accuracy", "all"):
        entries = accuracy_entries(rs, accuracy_eps)
        if entries > _ACCURACY_ENTRIES_CAP:
            raise ValueError(
                f"accuracy sweep needs {entries} law entries (cap {_ACCURACY_ENTRIES_CAP})"
            )
    suites = {
        "metric": lambda: suite_metric(seed=seed),
        "prefix": suite_prefix_bound,
        "alignment": suite_alignment_facts,
        "accuracy": lambda: suite_accuracy(rs=rs, epsilons=accuracy_eps),
        "correct": lambda: suite_correct(cases=cases, seed=seed),
        "dlp-mass": lambda: suite_dlp_mass(epsilons=(epsilon,) if epsilon else ("0.5", "0.25")),
    }
    if name == "all":
        return [check for run in suites.values() for check in run()]
    if name not in suites:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    return suites[name]()
