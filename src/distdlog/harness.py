"""Seeded batches of a given solver, and their summary.

The solver is a function of one random generator. Every trial derives its
own generator from (seed, trial index), so a trial's record depends only
on the seed and its index, never on the trials run before it. That
generator, a ``TrialGenerator``, offers the solvers' only two draws,
``random()`` and ``integers(high)``, and its stream equals that of
``np.random.default_rng((seed, index))`` bit for bit: numpy's PCG64 and
the two draws run on plain Python ints, so no solve process loads
``numpy.random`` (which brings in ``secrets``, ``hashlib`` and OpenSSL,
about 5.5 MiB resident). Its ``SeedSequence`` hashing is derived here a
block of 1,024 consecutive indices at a time, in array arithmetic, so a
trial pays only for seeding PCG64 with its cached row. NEP 19 lets numpy
change ``Generator`` streams between versions, while these stay pinned;
``tests/test_harness.py`` reports any divergence from the installed numpy.

A batch hands each record on as it is made and keeps only running counts,
so its memory does not grow with the number of trials.
"""

from __future__ import annotations

import math
from functools import lru_cache
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


# PCG64 (O'Neill 2014, numpy's 128-bit XSL-RR variant): its multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_MASK53 = (1 << 53) - 1


class TrialGenerator:
    """numpy's ``Generator(PCG64)`` stream for the two draws the solvers
    make, ``random()`` and ``integers(high)``, in plain Python ints.

    ``state`` and ``inc`` are PCG64's 128-bit state and increment, and
    ``half`` is the upper 32-bit half of a 64-bit word that ``next32``
    buffered, or None: numpy's ``state``, ``inc`` and, when ``has_uint32``
    is set, ``uinteger``. A step is ``state = state * M + inc`` mod 2^128,
    and a 64-bit word is the step's XSL-RR output, ``hi ^ lo`` rotated
    right by the state's top six bits.
    """

    __slots__ = ("state", "inc", "half")

    def __init__(self, words: list[int]) -> None:
        """PCG64 seeded with four uint64 words, as numpy seeds it from
        ``generate_state(4, np.uint64)``: from state 0, step, add the
        initial state ``w0 w1``, step again, with the increment
        ``(w2 w3 << 1) | 1``."""
        w0, w1, w2, w3 = words
        self.inc = inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        self.state = ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _MASK128
        self.half = None

    def _next64(self) -> int:
        self.state = state = (self.state * _PCG_MULT + self.inc) & _MASK128
        word = state >> 64 ^ state & _MASK64
        return (word << 64 | word) >> (state >> 122) & _MASK64

    def _next32(self) -> int:
        half = self.half
        if half is not None:
            self.half = None
            return half
        word = self._next64()
        self.half = word >> 32
        return word & _MASK32

    def random(self) -> float:
        """A float in [0, 1), numpy's ``next_double``: the top 53 bits of a
        64-bit word times 2^-53. It neither reads nor clears ``half``."""
        # _next64 inlined: this is the solvers' most frequent draw.
        self.state = state = (self.state * _PCG_MULT + self.inc) & _MASK128
        word = state >> 64 ^ state & _MASK64
        return ((word << 64 | word) >> ((state >> 122) + 11) & _MASK53) * 2.0**-53

    def integers(self, high: int) -> int:
        """An int uniform on [0, high), numpy's int64 ``integers(high)``,
        1 <= high <= 2^63: nothing is drawn at high = 1; one raw 32-bit word
        at high = 2^32; Lemire's bounded rejection on 32-bit words below it
        and on 64-bit words above it."""
        if high <= _MASK32:
            if high == 1:
                return 0
            m = self._next32() * high
            if m & _MASK32 < high:
                threshold = (1 << 32) % high
                while m & _MASK32 < threshold:
                    m = self._next32() * high
            return m >> 32
        if high == 1 << 32:
            return self._next32()
        m = self._next64() * high
        if m & _MASK64 < high:
            threshold = (1 << 64) % high
            while m & _MASK64 < threshold:
                m = self._next64() * high
        return m >> 64


def trial_rng(seed: int, index: int) -> TrialGenerator:
    """Trial ``index``'s generator at ``seed``, whose draws are those of
    ``default_rng((seed, index))``."""
    if seed < 0 or index < 0:
        raise ValueError("expected non-negative integer")
    return TrialGenerator(_block_words(seed, index // _BLOCK)[index % _BLOCK].tolist())


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
    solve: Callable[[TrialGenerator], RunRecord],
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
