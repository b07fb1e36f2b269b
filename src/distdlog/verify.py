"""Executable property suites: the circular-distance facts, the
prefix-distance bound, the alignment-step facts, the estimation accuracy
bounds, the alignment oracle, and the exact solver success masses.

Each suite returns CheckResult rows so the CLI and the tests can share one
implementation; exhaustive ranges are vectorised where the state space is
large.

The alignment oracle (``suite_correct``) runs the solvers' own alignment
pass, ``dist.align_values``, on int64 arrays: one oracle call per sweep.
That pass is closed form: each node's shift is the signed residue
s = 2^h - ((2^h - (target - tail)) mod 2^(h+1)), in (-2^h, 2^h], clamped
to [-2^(h-1), 2^(h-1)], with the fallback flag set when |s| > 2^(h-1); the
midpoint s = 2^h, a tie between +2^(h-1) and -2^(h-1), goes to +2^(h-1).
Its body is integer arithmetic only, so ``correct_with_flag`` runs the same
body on Python ints. The tests hold it equal to a scan over the candidate
shifts (``tests/alignscan.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import dist, dlp, phase
from .bits import BitString, circ_dist, wrap_add
from .numtheory import to_fraction, validate_instance

PRIMES_TO_31 = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    achieved: str
    bound: str


def _result(name: str, ok: bool, achieved, bound) -> CheckResult:
    return CheckResult(name=name, ok=bool(ok), achieved=str(achieved), bound=str(bound))


def _circ_table(t: int) -> np.ndarray:
    vals = np.arange(1 << t, dtype=np.int64)
    diff = np.abs(vals[:, None] - vals[None, :])
    return np.minimum(diff, (1 << t) - diff)


def suite_metric(max_exhaustive_t: int = 6, seed: int = 0, random_cases: int = 2000) -> list[CheckResult]:
    """Distance axioms, the minimal-shift characterisation, and the one-bit
    prefix consequence, exhaustively for small widths and sampled above."""
    checks: list[CheckResult] = []

    axioms_ok = True
    shift_ok = True
    prefix_ok = True
    for t in range(1, max_exhaustive_t + 1):
        size = 1 << t
        D = _circ_table(t)
        vals = np.arange(size, dtype=np.int64)
        axioms_ok &= bool(((D == 0) == np.eye(size, dtype=bool)).all())
        axioms_ok &= bool((D == D.T).all())
        axioms_ok &= bool((D[:, None, :] <= D[:, :, None] + D[None, :, :]).all())

        # minimal |b| with (x + b) mod 2^t == y, by explicit scan over b
        best = np.full((size, size), size, dtype=np.int64)
        for b in range(-(size - 1), size):
            np.minimum.at(best, (vals, (vals + b) % size), abs(b))
        shift_ok &= bool((best == D).all())

        for t0 in range(1, t):
            mask = D < (1 << (t - t0))
            prefix = vals >> (t - t0)
            pdiff = np.abs(prefix[:, None] - prefix[None, :])
            pd = np.minimum(pdiff, (1 << t0) - pdiff)
            prefix_ok &= bool((pd[mask] <= 1).all())

    checks.append(_result(f"distance axioms exhaustive t<={max_exhaustive_t}", axioms_ok, axioms_ok, "all hold"))
    checks.append(_result(f"minimal-shift form exhaustive t<={max_exhaustive_t}", shift_ok, shift_ok, "all hold"))
    checks.append(_result(f"one-bit prefix fact exhaustive t<={max_exhaustive_t}", prefix_ok, prefix_ok, "all hold"))

    rng = np.random.default_rng(seed)
    random_ok = True
    for _ in range(random_cases):
        t = int(rng.integers(2, 17))
        size = 1 << t
        xv, yv, zv = (int(v) for v in rng.integers(0, size, size=3))
        x, y, z = BitString(t, xv), BitString(t, yv), BitString(t, zv)
        random_ok &= (circ_dist(x, y) == 0) == (xv == yv)
        random_ok &= circ_dist(x, y) == circ_dist(y, x)
        random_ok &= circ_dist(x, z) <= circ_dist(x, y) + circ_dist(y, z)
        t0 = int(rng.integers(1, t))
        if circ_dist(x, y) < (1 << (t - t0)):
            random_ok &= circ_dist(x.slice(1, t0), y.slice(1, t0)) <= 1
    checks.append(_result(f"distance axioms random t<=16 ({random_cases} cases)", random_ok, random_ok, "all hold"))
    return checks


def suite_prefix_bound(max_t: int = 8) -> list[CheckResult]:
    """Exhaustive check of the general prefix-distance bound:
    d_t(x,y) < 2^(t-t0) implies d_t1(prefixes) <= 2^(t1-t0) for t0 <= t1 <= t."""
    ok = True
    for t in range(2, max_t + 1):
        D = _circ_table(t)
        vals = np.arange(1 << t, dtype=np.int64)
        for t0 in range(1, t + 1):
            mask = D < (1 << (t - t0))
            for t1 in range(t0, t + 1):
                prefix = vals >> (t - t1)
                pdiff = np.abs(prefix[:, None] - prefix[None, :])
                pd = np.minimum(pdiff, (1 << t1) - pdiff)
                ok &= bool((pd[mask] <= (1 << (t1 - t0))).all())
    return [_result(f"prefix-distance bound exhaustive t<={max_t}", ok, ok, "all hold")]


def suite_alignment_facts(max_t: int = 6) -> list[CheckResult]:
    """Enumerated checks of the two facts the alignment pass rests on:
    the unique small shift between overlapping windows decomposes as
    b_1 + b_2, and a bounded shift acts on a word iff it acts on the
    word's trailing h bits."""
    unique_ok = True
    decompose_ok = True
    for t in range(3, max_t + 1):
        for h in range(2, min(t - 1, 4) + 1):
            tail_lo = t - h  # window [t-h, t], h+1 bits
            for wv in range(1 << t):
                w = BitString(t, wv)
                w_tail = w.slice(tail_lo, t)
                for b1 in (0, 1, -1):
                    x = wrap_add(w, -b1)  # so that x + b1 == w
                    x_tail = x.slice(tail_lo, t)
                    for b2 in range(-(1 << (h - 2)), (1 << (h - 2)) + 1):
                        z = wrap_add(w_tail, b2)
                        matches = [
                            q
                            for q in range(-(1 << (h - 1)), (1 << (h - 1)) + 1)
                            if wrap_add(x_tail, q).value == z.value
                        ]
                        unique_ok &= len(matches) == 1
                        decompose_ok &= matches == [b1 + b2]

    restrict_ok = True
    for t in range(3, max_t + 1):
        for h in range(2, t + 1):
            bound = 1 << (h - 2)
            for xv in range(1 << t):
                x = BitString(t, xv)
                x_tail = x.slice(t - h + 1, t)
                for b0 in range(-bound, bound + 1):
                    y = wrap_add(x, b0)
                    y_tail = y.slice(t - h + 1, t)
                    solutions = [
                        b
                        for b in range(-bound, bound + 1)
                        if wrap_add(x, b).value == y.value
                    ]
                    restrict_ok &= solutions == [b0]
                    for b in range(-bound, bound + 1):
                        full = wrap_add(x, b).value == y.value
                        tail = wrap_add(x_tail, b).value == y_tail.value
                        restrict_ok &= full == tail
    return [
        _result(f"overlap shift unique and b1+b2 (t<={max_t})", unique_ok and decompose_ok,
                unique_ok and decompose_ok, "all hold"),
        _result(f"shift acts on word iff on trailing h bits (t<={max_t})", restrict_ok,
                restrict_ok, "all hold"),
    ]


def suite_accuracy(
    rs: tuple[int, ...] = PRIMES_TO_31,
    epsilons: tuple = ("0.5", "0.25", "0.1"),
    max_n: int = 6,
) -> list[CheckResult]:
    """Exhaustive estimation-accuracy masses over all phases s/r."""
    checks = []
    for eps_raw in epsilons:
        eps = to_fraction(eps_raw)
        worst = 1.0
        ok = True
        for r in rs:
            for s in range(r):
                for n in range(1, max_n + 1):
                    task = phase.PhaseTask.from_accuracy(Fraction(s, r), n, eps)
                    report = phase.check_accuracy_bound(task.omega, task.t, n, eps)
                    ok &= report.ok
                    worst = min(worst, report.window_mass, *report.prefix_masses.values())
        checks.append(
            _result(
                f"accuracy masses eps={eps} over r in {rs}, n<={max_n}",
                ok,
                f"worst mass {worst:.6f}",
                f">= {1.0 - float(eps):.6f}",
            )
        )
    return checks


def feasible_correct_combos(
    rs: tuple[int, ...] = (5, 7, 11, 13),
    ks: tuple[int, ...] = (2, 3),
    hs: tuple[int, ...] = (2, 3),
) -> list[dist.DistPlan]:
    plans = []
    for r in rs:
        for k in ks:
            for h in hs:
                try:
                    plans.append(dist.plan_for_order(r, k, h, Fraction(1, 4), Fraction(1, 5)))
                except dist.PlanError:
                    continue
    return plans


def _oracle_failures(w, perturbations, plan: dist.DistPlan) -> int:
    try:
        dist.brute_force_correct_oracle(w, perturbations, plan)
    except dist.AlignmentMismatch as err:
        return err.failures
    return 0


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
    rng = np.random.default_rng(seed)
    for plan in feasible_correct_combos():
        label = f"r={plan.r} k={plan.k} h={plan.h}"
        bound = 1 << (plan.h - 2)
        w = rng.integers(1 << plan.total_width, size=cases)
        perturbations = [rng.integers(-bound, bound + 1, size=cases) for _ in range(plan.k - 1)]
        perturbations.append(rng.integers(-1, 2, size=cases))
        failures = _oracle_failures(w, perturbations, plan)
        checks.append(_result(f"alignment oracle random {label} ({cases} cases)",
                              failures == 0, f"{failures} failures", "0 failures"))

        if plan.total_width <= 8:
            spans = [np.arange(-bound, bound + 1)] * (plan.k - 1) + [np.arange(-1, 2)]
            grid = np.meshgrid(np.arange(1 << plan.total_width), *spans, indexing="ij")
            w, *perturbations = (axis.ravel() for axis in grid)
            failures = _oracle_failures(w, perturbations, plan)
            checks.append(_result(f"alignment oracle exhaustive {label}",
                                  failures == 0, f"{failures} failures", "0 failures"))
    return checks


def suite_dlp_mass(
    instances: tuple[tuple[int, int, int], ...] = ((7, 2, 4), (11, 3, 9)),
    epsilons: tuple = ("0.5", "0.25"),
) -> list[CheckResult]:
    """Exact one-attempt success masses against the (r-1)/r (1-eps) bound."""
    checks = []
    for N, a, b in instances:
        instance = validate_instance(N, a, b)
        for eps_raw in epsilons:
            eps = to_fraction(eps_raw)
            mass = dlp.single_shot_success_mass(instance, eps)
            bound = float(Fraction(instance.r - 1, instance.r) * (1 - eps))
            checks.append(
                _result(
                    f"exact success mass r={instance.r} eps={eps}",
                    mass >= bound,
                    f"{mass:.6f}",
                    f">= {bound:.6f}",
                )
            )
    return checks


SUITES = ("metric", "prefix", "alignment", "accuracy", "correct", "dlp-mass", "all")


def run_suite(
    name: str,
    r: int | None = None,
    epsilon: str | None = None,
    cases: int = 10_000,
    seed: int = 1,
) -> list[CheckResult]:
    if name == "metric":
        return suite_metric(seed=seed)
    if name == "prefix":
        return suite_prefix_bound()
    if name == "alignment":
        return suite_alignment_facts()
    if name == "accuracy":
        rs = (r,) if r is not None else PRIMES_TO_31
        eps = (epsilon,) if epsilon else ("0.5", "0.25", "0.1")
        return suite_accuracy(rs=rs, epsilons=eps)
    if name == "correct":
        return suite_correct(cases=cases, seed=seed)
    if name == "dlp-mass":
        eps = (epsilon,) if epsilon else ("0.5", "0.25")
        return suite_dlp_mass(epsilons=eps)
    if name == "all":
        results = []
        for sub in ("metric", "prefix", "alignment", "accuracy", "correct", "dlp-mass"):
            results.extend(run_suite(sub, r=r, epsilon=epsilon, cases=cases, seed=seed))
        return results
    raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
