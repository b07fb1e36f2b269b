"""Seeded batches of a given solver, and their summary.

The solver is a function of one random generator. Every trial derives its
own generator from (seed, trial index), so a trial's record depends only
on the seed and its index, never on the trials run before it.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable

import numpy as np

from .dlp import RunRecord

_WILSON_Z = 1.959963984540054  # two-sided 95%


def trial_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng((seed, index))


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Two-sided 95% Wilson score interval for a binomial proportion."""
    z = _WILSON_Z
    if trials <= 0:
        return (0.0, 1.0)
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def run_batch(
    solve: Callable[[np.random.Generator], RunRecord], trials: int, seed: int, **summary_fields
) -> tuple[list[RunRecord], dict]:
    """Run ``trials`` seeded solves and summarise them.

    Trial i runs ``solve(trial_rng(seed, i))`` and its record carries seed
    i. Returns the records and the summary, which holds ``summary_fields``
    (what the caller solved, for example the algorithm, the mode and the
    plan) next to the counts and the Wilson interval.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    records = [replace(solve(trial_rng(seed, i)), seed=i) for i in range(trials)]
    successes = sum(r.success for r in records)
    low, high = wilson_interval(successes, trials)
    summary = {
        **summary_fields,
        "trials": trials,
        "successes": successes,
        "success_rate": successes / trials,
        "mean_retries": sum(r.retries for r in records) / trials,
        "wilson_low": low,
        "wilson_high": high,
        "seed": seed,
    }
    return records, summary
