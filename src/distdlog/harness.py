"""Seeded batches of a given solver, and their summary.

The solver is a function of one random generator. Every trial derives its
own generator from (seed, trial index), so a trial's record depends only
on the seed and its index, never on the trials run before it. That
generator equals ``np.random.default_rng((seed, index))`` bit for bit. Its
``SeedSequence`` hashing is derived here a block of 1,024 consecutive
indices at a time, in array arithmetic, so a trial pays only for seeding
PCG64 with its cached row.

A batch hands each record on as it is made and keeps only running counts,
so its memory does not grow with the number of trials.
"""

from __future__ import annotations

import math
from functools import cache, lru_cache
from typing import Callable

import numpy as np

from .dlp import RunRecord

_WILSON_Z = 1.959963984540054  # two-sided 95%

# Trial indices per block of cached seed words. Every 2^(32w) is a multiple
# of it, so every index of a block has as many 32-bit words as the first.
_BLOCK = 1024
_MASK32 = 0xFFFFFFFF
# numpy's SeedSequence: pool words, the constants of its entropy hash (A),
# its output hash (B) and its mix, and the xorshift of all three.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def _uint32_words(n: int) -> list[int]:
    """The little-endian 32-bit words of n >= 0, at least one, as
    ``SeedSequence`` splits an integer of its entropy."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hash_pairs(init: int, mult: int):
    """The (xor, multiply) constants of successive hashes: the running
    constant starts at ``init`` and steps by ``mult`` inside each hash."""
    const = init
    while True:
        step = const * mult & _MASK32
        yield const, step
        const = step


def _hash(value: np.ndarray, pair: tuple[int, int]) -> np.ndarray:
    value = (value ^ pair[0]) * pair[1]
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_L * x - _MIX_R * y
    return result ^ (result >> _XSHIFT)


@lru_cache(maxsize=4)
def _block_words(seed: int, block: int) -> np.ndarray:
    """``SeedSequence((seed, i)).generate_state(4, np.uint64)`` for the
    indices i of one block, as a read-only ``(_BLOCK, 4)`` array.

    numpy's steps, each on the whole block at once in uint32 arrays, which
    wrap as its C code does: hash the entropy words into a pool of four,
    mix every pool word into every other, mix any entropy word past the
    pool into each pool word, and hash eight output words out of the pool.
    Four blocks are kept, so that batches at two seeds can alternate, as
    the benchmark's rounds do, without rebuilding one.
    """
    seed_words = _uint32_words(seed)
    entropy = np.array(seed_words + _uint32_words(block * _BLOCK), dtype=np.uint32)
    entropy = np.repeat(entropy[:, None], _BLOCK, axis=1)
    entropy[len(seed_words)] += np.arange(_BLOCK, dtype=np.uint32)
    pairs = _hash_pairs(_INIT_A, _MULT_A)
    zero = np.zeros(_BLOCK, dtype=np.uint32)
    pool = [_hash(entropy[i] if i < len(entropy) else zero, next(pairs)) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], next(pairs)))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], _hash(word, next(pairs)))
    out_pairs = _hash_pairs(_INIT_B, _MULT_B)
    state = np.stack([_hash(pool[i % _POOL], next(out_pairs)) for i in range(2 * _POOL)], axis=1)
    words = state.astype("<u4").view("<u8").astype(np.uint64)
    words.flags.writeable = False
    return words


@cache
def _seed_words_type() -> type:
    """The seed sequence class of trial generators, defined on the first
    trial, so that importing this module does not load ``numpy.random``:
    numpy defers that import, and ``default_rng`` made it on the first
    trial too."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        """Hands PCG64 one cached row of ``_block_words``; it is what
        ``rng.bit_generator.seed_seq`` holds for a trial generator."""

        __slots__ = ("words",)

        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            if (n_words, dtype) != (4, np.uint64):
                raise ValueError("trial seed words hold PCG64's four uint64 words only")
            return self.words

        def __reduce__(self):
            return _seed_words, (self.words,)

    return SeedWords


def _seed_words(words: np.ndarray):
    """A trial generator's seed sequence, as unpickling rebuilds it."""
    return _seed_words_type()(words)


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Trial ``index``'s generator at ``seed``: ``default_rng((seed, index))``."""
    if seed < 0 or index < 0:
        raise ValueError("expected non-negative integer")
    words = _block_words(seed, index // _BLOCK)[index % _BLOCK]
    return np.random.Generator(np.random.PCG64(_seed_words_type()(words)))


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
    solve: Callable[[np.random.Generator], RunRecord],
    trials: int,
    seed: int,
    emit: Callable[[RunRecord], object],
    **summary_fields,
) -> dict:
    """Run ``trials`` seeded solves, hand each record on, and summarise them.

    Trial i runs ``solve(trial_rng(seed, i))``, sets the seed of the record
    it returns to i and calls ``emit(record)`` before the next trial runs.
    Returns the summary, which holds ``summary_fields`` (what the caller
    solved, for example the algorithm, the mode and the plan) next to the
    counts and the Wilson interval.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    successes = retries = 0
    for i in range(trials):
        record = solve(trial_rng(seed, i))
        record.seed = i
        successes += record.success
        retries += record.retries
        emit(record)
    low, high = wilson_interval(successes, trials)
    return {
        **summary_fields,
        "trials": trials,
        "successes": successes,
        "success_rate": successes / trials,
        "mean_retries": retries / trials,
        "wilson_low": low,
        "wilson_high": high,
        "seed": seed,
    }
