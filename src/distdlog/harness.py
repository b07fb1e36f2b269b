"""Batch experiment orchestration with reproducible per-trial randomness.

Every trial derives its own random stream from (seed, trial index), so a
batch is byte-reproducible regardless of execution order and the records
of parallel and serial runs are identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import dist, dlp
from .numtheory import ProblemInstance, to_fraction, validate_instance

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


@dataclass
class ExperimentConfig:
    """Validated parameters for one batch of solves."""

    N: int
    a: int
    b: int
    algorithm: str = "shor"  # or "distributed"
    mode: str = "statevector"  # or "analytic"
    epsilon: Fraction | float | str = Fraction(1, 4)
    epsilon_prime: Fraction | float | str | None = None
    k: int = 2
    h: int | None = None
    trials: int = 100
    max_retries: int = 64
    seed: int = 0
    reuse_state: bool = True

    def __post_init__(self) -> None:
        if self.algorithm not in ("shor", "distributed"):
            raise ValueError(f"algorithm must be 'shor' or 'distributed', got {self.algorithm!r}")
        if self.mode not in dlp.MODES:
            raise ValueError(f"mode must be one of {dlp.MODES}, got {self.mode!r}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        self.epsilon = to_fraction(self.epsilon)
        if self.epsilon_prime is not None:
            self.epsilon_prime = to_fraction(self.epsilon_prime)

    def instance(self) -> ProblemInstance:
        return validate_instance(self.N, self.a, self.b)


@dataclass
class BatchResult:
    records: list[dlp.RunRecord]
    summary: dict


def run_batch(config: ExperimentConfig) -> BatchResult:
    """Run `trials` independent solves and summarise them."""
    instance = config.instance()
    plan = None
    shor_config = None
    if config.algorithm == "distributed":
        plan = dist.make_plan(
            instance, config.k, config.h, config.epsilon, config.epsilon_prime
        )
    else:
        shor_config = dlp.ShorConfig.for_instance(
            instance, config.epsilon, max_retries=config.max_retries, mode=config.mode
        )

    records = []
    for i in range(config.trials):
        rng = trial_rng(config.seed, i)
        if plan is not None:
            record = dist.solve_distributed(
                instance,
                plan,
                rng,
                mode=config.mode,
                max_retries=config.max_retries,
                reuse_state=config.reuse_state,
            )
        else:
            record = dlp.solve(instance, shor_config, rng, reuse_state=config.reuse_state)
        records.append(replace(record, seed=i))

    successes = sum(r.success for r in records)
    low, high = wilson_interval(successes, config.trials)
    summary = {
        "algorithm": config.algorithm,
        "mode": config.mode,
        "trials": config.trials,
        "successes": successes,
        "success_rate": successes / config.trials,
        "mean_retries": sum(r.retries for r in records) / config.trials,
        "wilson_low": low,
        "wilson_high": high,
        "seed": config.seed,
    }
    if plan is not None:
        summary["plan"] = plan.to_json_dict()
    return BatchResult(records=records, summary=summary)
