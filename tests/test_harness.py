"""Trial generators: ``harness.trial_rng`` derives ``SeedSequence``'s words
a block of indices at a time and runs PCG64 and numpy's two draws on plain
ints, and its stream must equal ``default_rng((seed, index))``'s. Run this
file first after a numpy upgrade: NEP 19 lets numpy change its streams."""

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


@pytest.mark.parametrize("command", ["solve", "solve-dist"])
def test_negative_seed_exits_2(capsys, command):
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
