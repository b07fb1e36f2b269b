"""Trial generators: ``harness.trial_rng`` derives ``SeedSequence``'s words
a block of indices at a time and runs PCG64 and numpy's two draws on plain
ints, and its stream must equal ``default_rng((seed, index))``'s. Run this
file first after a numpy upgrade: NEP 19 lets numpy change its streams.

Case generators: ``harness.case_rng(seed)`` is a counter-based SplitMix64
stream with exact bounded draws in array arithmetic, held to pinned words, to
a plain-int reference of the same stream, and to chi-square uniformity."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from distdlog import harness
from distdlog.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

SEEDS = [0, 1, 7, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 1]
INDICES = [0, 1, 1023, 1024, 10**6, 2**32 - 1, 2**32, 2**33 + 7]
# The bounds at the edges of integers' three ways to draw, the orders the
# solvers draw the branch s at, and two bounds whose Lemire rejection
# redraws about a quarter (32-bit words) and an eighth (64-bit) of the time.
REJECTING = [3 * 2**30 + 1, 3 * 2**61 + 1]
HIGHS = [1, 2, 3, 16001, 1_000_151, 2**31 - 1, 2**32 - 1, 2**32, 2**32 + 1, 2**40 + 7, 2**62, 2**63,
         *REJECTING]


def pcg_state(rng) -> tuple[int, int, int | None]:
    """PCG64's state, increment and buffered upper half (None if empty), of
    a trial generator or of a numpy generator."""
    if isinstance(rng, harness.TrialGenerator):
        return rng.state, rng.inc, rng.half
    state = rng.bit_generator.state
    assert state["bit_generator"] == "PCG64"
    return state["state"]["state"], state["state"]["inc"], state["uinteger"] if state["has_uint32"] else None


@pytest.mark.parametrize("seed", SEEDS)
def test_trial_rng_equals_default_rng(seed):
    """Across the word-count edges of both the seed and the index, and at
    both ends of a block: the seeded state, then every draw and the state
    after it, call by call."""
    for index in INDICES:
        got, want = harness.trial_rng(seed, index), np.random.default_rng((seed, index))
        assert pcg_state(got) == pcg_state(want), index
        for high in [1 << 62, REJECTING[1]] * 4 + [16001, REJECTING[0]] * 3:
            assert got.integers(high) == want.integers(high), (index, high)
            assert pcg_state(got) == pcg_state(want), (index, high)
        for _ in range(8):
            assert got.random() == want.random(), index
            assert pcg_state(got) == pcg_state(want), index


@given(
    seed=st.integers(0, 2**70),
    index=st.integers(0, 2**34),
    calls=st.lists(st.one_of(st.none(), st.sampled_from(HIGHS), st.integers(1, 2**63)), max_size=40),
)
@example(seed=7, index=305, calls=[16001, None, 16001])
@example(seed=7, index=0, calls=[2**32, None, 2**32 - 1, 1_000_151, None, 2**63])
def test_draws_equal_numpy_call_by_call(seed, index, calls):
    """Mixed ``random()`` (None) and ``integers(high)`` calls equal numpy's
    draw for draw, with the buffered half included after each: a 32-bit
    draw buffers the upper half of its 64-bit word, ``random()`` leaves it,
    and the next 32-bit draw consumes it, as an analytic retry's branch
    draw does."""
    got, want = harness.trial_rng(seed, index), np.random.default_rng((seed, index))
    for high in calls:
        if high is None:
            assert got.random() == want.random()
        else:
            value = got.integers(high)
            assert type(value) is int and value == want.integers(high), high
        assert pcg_state(got) == pcg_state(want), high


@pytest.mark.parametrize("seed, index", [(-1, 0), (0, -1), (-(2**70), 5)])
def test_negative_seed_or_index_raises_numpys_error(seed, index):
    with pytest.raises(ValueError) as want:
        np.random.default_rng((seed, index))
    with pytest.raises(ValueError) as got:
        harness.trial_rng(seed, index)
    assert str(got.value) == str(want.value) == "expected non-negative integer"


@pytest.mark.parametrize("command", ["solve", "solve-dist", "verify"])
def test_negative_seed_exits_2(capsys, command):
    if command == "verify":
        argv = [command, "--suite", "all", "--seed", "-1"]
    else:
        dist = ["--k", "2", "--h", "2", "--epsilon-prime", "0.2"] if command == "solve-dist" else []
        argv = [command, "--N", "11", "--a", "3", "--b", "9", "--trials", "5", "--seed", "-1", *dist]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: expected non-negative integer\n"


def test_cached_blocks_are_read_only():
    block = harness._block_words(7, 3)
    assert block.shape == (harness._BLOCK, 4) and block.dtype == np.uint64
    assert not block.flags.writeable
    with pytest.raises(ValueError):
        block[0, 0] = 0
    rng = harness.trial_rng(7, 3 * harness._BLOCK + 5)
    assert pcg_state(rng) == pcg_state(harness.TrialGenerator(block[5].tolist()))
    assert harness._block_words(7, 3) is block


def test_generator_does_not_depend_on_earlier_trials():
    """Neither the trials drawn before, nor the blocks cached or evicted
    since, change a trial's generator."""
    want = pcg_state(np.random.default_rng((5, 2000)))
    first = harness.trial_rng(5, 2000)
    for _ in range(100):
        first.random()
    for seed in range(8):  # more blocks than the cache keeps
        for index in (0, 1024, 2047, 5000):
            harness.trial_rng(seed, index).integers(3)
    assert pcg_state(harness.trial_rng(5, 2000)) == want
    harness._block_words.cache_clear()
    assert pcg_state(harness.trial_rng(5, 2000)) == want


def test_trial_generator_pickles():
    """Also with an upper half buffered."""
    rng = harness.trial_rng(9, 1025)
    rng.random()
    rng.integers(16001)
    assert rng.half is not None
    copy = pickle.loads(pickle.dumps(rng))
    assert pcg_state(copy) == pcg_state(rng)
    assert [copy.integers(16001), copy.random(), copy.integers(2**40)] == [
        rng.integers(16001), rng.random(), rng.integers(2**40)
    ]


# The first two 64-bit words of case_rng(seed): SplitMix64's finaliser of
# key + γ and key + 2γ.
PINNED_WORDS = {
    0: [0xA706DD2F4D197E6F, 0xB382A305F4414F5E],
    1: [0x5E41AB087439611E, 0xF18D6CE93D6CF1EE],
    2**64 + 5: [0xA51A08E999E06950, 0x0ECA6960C89B7750],
}
MASK32, MASK64 = 2**32 - 1, 2**64 - 1
GAMMA = 0x9E3779B97F4A7C15


def splitmix64(z: int) -> int:
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & MASK64
    z = (z ^ z >> 27) * 0x94D049BB133111EB & MASK64
    return z ^ z >> 31


class ReferenceCases:
    """``case_rng``'s stream one plain int at a time: the key folds the
    seed's 64-bit words, low first; each 64-bit word gives two 32-bit words,
    low half first; a draw maps w to w * span >> 32 and redraws, in order,
    every position whose low 32 bits of w * span fall below 2^32 mod span,
    round after round."""

    def __init__(self, seed: int) -> None:
        key = 0
        while True:
            key = splitmix64((key + (seed & MASK64) + GAMMA) & MASK64)
            seed >>= 64
            if not seed:
                break
        self.key, self.count = key, 0

    def words32(self, n: int) -> list[int]:
        words = []
        for _ in range((n + 1) // 2):
            self.count += 1
            word = splitmix64((self.key + self.count * GAMMA) & MASK64)
            words += [word & MASK32, word >> 32]
        return words[:n]

    def integers(self, lows: list[int], spans: list[int]) -> list[int]:
        m = [w * span for w, span in zip(self.words32(len(spans)), spans)]
        redraw = [i for i, v in enumerate(m) if v & MASK32 < 2**32 % spans[i]]
        while redraw:
            for i, w in zip(redraw, self.words32(len(redraw))):
                m[i] = w * spans[i]
            redraw = [i for i in redraw if m[i] & MASK32 < 2**32 % spans[i]]
        return [low + (v >> 32) for low, v in zip(lows, m)]


def verify_draws(rng, cases: int = 2000) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Each call shape ``verify`` makes, in its order, as (values, low,
    high) with the bounds broadcast to the values' shape: scalar bounds,
    a bound array broadcast against a size, a bound array with no size, and
    a lone high, at the metric suite's and the oracle's bounds."""
    t = rng.integers(2, 17, size=cases)
    draws = [(t, 2, 17)]
    draws.append((rng.integers(0, 1 << t, size=(3, cases)), 0, 1 << t))
    draws.append((rng.integers(1, t), 1, t))
    for width, bound in [(5, 1), (6, 2)]:
        draws.append((rng.integers(1 << width, size=cases), 0, 1 << width))
        draws.append((rng.integers(-bound, bound + 1, size=cases), -bound, bound + 1))
        draws.append((rng.integers(-1, 2, size=cases), -1, 2))
    return [(v, *np.broadcast_arrays(v, low, high)[1:]) for v, low, high in draws]


@pytest.mark.parametrize("seed", PINNED_WORDS)
def test_case_rng_pinned_first_words(seed):
    """At span 2^32 a draw is the raw 32-bit words, low half first, and
    nothing is redrawn; the plain-int reference gives the same words, and
    its finaliser gives SplitMix64's published first output at seed 0."""
    assert splitmix64(GAMMA) == 0xE220A8397B1DCDAF
    want = [half for word in PINNED_WORDS[seed] for half in (word & MASK32, word >> 32)]
    assert harness.case_rng(seed).integers(1 << 32, size=4).tolist() == want
    assert ReferenceCases(seed).words32(4) == want


def test_case_rng_streams_by_seed():
    """Equal seeds give equal streams; different seeds, also ones equal in
    their low 64 bits, give different ones."""
    seeds = [0, 1, 5, 2**32, 2**64, 2**64 + 1, 2**64 + 5, 5 * 2**64, 2**128 + 5]
    streams = [tuple(harness.case_rng(seed).integers(1 << 32, size=8).tolist()) for seed in seeds]
    assert len(set(streams)) == len(seeds)
    for seed, stream in zip(seeds, streams):
        assert tuple(harness.case_rng(seed).integers(1 << 32, size=8).tolist()) == stream


def test_case_rng_continues_its_stream():
    """Each draw starts at the word after the last one the previous draw
    used; an odd count leaves the high half of its last word unused."""
    rng = harness.case_rng(11)
    first, second = rng.integers(1 << 32, size=4), rng.integers(1 << 32, size=3)
    third = rng.integers(1 << 32, size=2)
    whole = harness.case_rng(11).integers(1 << 32, size=10)
    assert first.tolist() + second.tolist() == whole[:7].tolist()
    assert third.tolist() == whole[8:].tolist()
    assert rng.count == 5


@pytest.mark.parametrize("seed", [0, 3, 2**64 + 5])
def test_case_rng_equals_plain_int_reference(seed):
    """Every draw of ``verify``'s call shapes, then draws at spans that
    redraw about half (2^31 + 1) and a quarter (3 * 2^30 + 1) of their
    words, equal the reference value for value and word for word."""
    rng, ref = harness.case_rng(seed), ReferenceCases(seed)
    for values, low, high in verify_draws(rng, cases=300):
        assert values.dtype == np.int64
        assert values.ravel().tolist() == ref.integers(low.ravel().tolist(), (high - low).ravel().tolist())
    for span in [2**31 + 1, 3 * 2**30 + 1, 3, 2**31 + 1]:
        values = rng.integers(-7, span - 7, size=501)
        assert values.tolist() == ref.integers([-7] * 501, [span] * 501), span
    assert rng.count == ref.count


@pytest.mark.parametrize("seed", [1, 7])
def test_case_rng_verify_shapes_in_bounds(seed):
    """Every value of every call shape ``verify`` makes lies in [low, high),
    per element where the bounds are arrays, in the shape of the bounds or
    the size, and each short span's every value is drawn."""
    rng = harness.case_rng(seed)
    draws = verify_draws(rng)
    assert [values.shape for values, _, _ in draws] == [(2000,), (3, 2000), (2000,)] + [(2000,)] * 6
    for values, low, high in draws:
        assert values.dtype == np.int64
        assert ((low <= values) & (values < high)).all()
    for values, low, high in draws[:1] + draws[3:]:
        assert set(values.tolist()) == set(range(low.flat[0], high.flat[0]))
    t, (x, _, _), t0 = (values for values, _, _ in draws[:3])
    assert set(t0[t == 16].tolist()) == set(range(1, 16))
    assert x[t == 16].max() >= 1 << 15


def chi_square_critical(dof: int, z: float = 4.75) -> float:
    """The Wilson-Hilferty upper quantile of chi-square at z standard
    deviations, about p = 1e-6."""
    c = 2 / (9 * dof)
    return dof * (1 - c + z * c**0.5) ** 3


@pytest.mark.parametrize("span, bins", [(3, 3), (5, 5), (2**16, 256), (2**31 + 1, 64)])
def test_case_rng_uniform(span, bins):
    """Chi-square of 200 draws a bin, the bins equal slices of the span
    (at 2^31 + 1 their sizes differ by at most one value), at p = 1e-6.
    About half of the words at span 2^31 + 1 are redrawn, and almost none
    at the other spans."""
    draws = 200 * bins
    rng = harness.case_rng(span)
    values = rng.integers(span, size=draws)
    counts = np.bincount(values * bins // span, minlength=bins)
    assert counts.size == bins
    chi2 = float(((counts - draws / bins) ** 2).sum() / (draws / bins))
    assert chi2 < chi_square_critical(bins - 1), (chi2, counts)
    words = 2 * rng.count
    if span == 2**31 + 1:
        assert 1.9 * draws < words < 2.1 * draws
    else:
        assert words < draws + 2


def test_case_rng_refuses_a_negative_seed_and_a_wide_span():
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        harness.case_rng(-1)
    rng = harness.case_rng(0)
    for low, high in [(0, 2**32 + 1), (3, 3), (np.array([0, 0]), np.array([1, 0]))]:
        with pytest.raises(ValueError, match="span"):
            rng.integers(low, high, size=2)
    assert rng.count == 0


def test_importing_distdlog_leaves_numpy_random_unloaded():
    """numpy loads ``numpy.random`` lazily, and its memory would count in
    every process's peak before the first trial, so no module imports it."""
    code = (
        "import importlib, pkgutil, sys, distdlog\n"
        "for module in pkgutil.iter_modules(distdlog.__path__):\n"
        "    if module.name != '__main__':\n"
        "        importlib.import_module('distdlog.' + module.name)\n"
        "assert 'numpy' in sys.modules\n"
        "assert 'numpy.random' not in sys.modules, sorted(sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c", code], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr


def test_cached_solve_dist_leaves_numpy_ma_unloaded(tmp_path):
    """``np.union1d`` imports ``numpy.ma`` on its first call (about 1 MiB of
    resident memory), so the live-orbit closure does without it: a cached
    ``solve-dist`` run, which closes the orbits of its nodes' law build,
    never loads it."""
    code = (
        "import sys\n"
        "from distdlog import cli\n"
        "assert cli.main(['solve-dist', '--N', '11', '--a', '3', '--b', '9', '--k', '2',\n"
        "                 '--h', '2', '--epsilon', '0.25', '--epsilon-prime', '0.2',\n"
        "                 '--trials', '20', '--seed', '7', '--output', sys.argv[1]]) == 0\n"
        "assert 'numpy.ma' not in sys.modules, sorted(sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c", code, str(tmp_path / "records.ndjson")], env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert len((tmp_path / "records.ndjson").read_text().splitlines()) == 21


def test_solves_leave_numpy_random_unloaded(tmp_path):
    """The trial generators run PCG64 in plain ints, so no ``solve`` or
    ``solve-dist`` run loads ``numpy.random`` (about 5.5 MiB resident, with
    ``secrets``, ``hashlib`` and OpenSSL): cached, fresh, and analytic at
    r = 16001 with retries, whose second branch draw consumes a buffered
    half (trial 23 of the ``solve-dist`` run retries once)."""
    code = (
        "import sys\n"
        "from distdlog import cli\n"
        "small = ['--N', '11', '--a', '3', '--b', '9', '--epsilon', '0.25']\n"
        "large = ['--N', '32003', '--a', '4', '--b', '17236', '--epsilon', '0.25',\n"
        "         '--mode', 'analytic', '--max-retries', '4']\n"
        "dist = ['--k', '2', '--epsilon-prime', '0.2']\n"
        "runs = [['solve', *small, '--mode', 'statevector'], ['solve', *small, '--no-reuse'],\n"
        "        ['solve-dist', *small, *dist, '--h', '2'],\n"
        "        ['solve-dist', *small, *dist, '--h', '2', '--no-reuse'],\n"
        "        ['solve', *large], ['solve-dist', *large, *dist]]\n"
        "for n, argv in enumerate(runs):\n"
        "    out = f'{sys.argv[1]}/{n}.ndjson'\n"
        "    assert cli.main([*argv, '--trials', '50', '--seed', '7', '--output', out]) == 0, argv\n"
        "    assert 'numpy.random' not in sys.modules, argv\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c", code, str(tmp_path)], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    for n in range(6):
        assert len((tmp_path / f"{n}.ndjson").read_text().splitlines()) == 51


def test_commands_leave_numpy_random_unloaded():
    """``verify`` draws its cases from ``harness.case_rng``, so no distdlog
    command loads ``numpy.random``: every suite, the oracle at 1,000
    cases, the factorised-state comparison and the resource table."""
    code = (
        "import sys\n"
        "from distdlog import cli\n"
        "runs = [['verify', '--suite', 'all'],\n"
        "        ['verify', '--suite', 'correct', '--cases', '1000', '--seed', '3'],\n"
        "        ['dist-compare', '--N', '11', '--a', '3', '--b', '9', '--k', '2', '--h', '2',\n"
        "         '--epsilon', '0.25', '--epsilon-prime', '0.2'],\n"
        "        ['resources', '--r', '5', '11', '--k', '2', '3']]\n"
        "for argv in runs:\n"
        "    assert cli.main(argv) == 0, argv\n"
        "    assert 'numpy.random' not in sys.modules, argv\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "34/34 checks passed" in result.stdout
