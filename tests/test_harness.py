"""Trial generators: ``harness.trial_rng`` derives ``SeedSequence``'s words
a block of indices at a time, and must equal ``default_rng((seed, index))``."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from distdlog import harness
from distdlog.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

SEEDS = [0, 1, 7, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 1]
INDICES = [0, 1, 1023, 1024, 10**6, 2**32 - 1, 2**32, 2**33 + 7]


@pytest.mark.parametrize("seed", SEEDS)
def test_trial_rng_equals_default_rng(seed):
    """Across the word-count edges of both the seed and the index, and at
    both ends of a block."""
    for index in INDICES:
        got, want = harness.trial_rng(seed, index), np.random.default_rng((seed, index))
        assert got.bit_generator.state == want.bit_generator.state, index
        assert np.array_equal(got.integers(1 << 62, size=8), want.integers(1 << 62, size=8))
        assert np.array_equal(got.random(8), want.random(8))


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
    seed_seq = harness.trial_rng(7, 3 * harness._BLOCK + 5).bit_generator.seed_seq
    assert np.shares_memory(seed_seq.generate_state(4, np.uint64), block)
    with pytest.raises(ValueError, match="four uint64 words"):
        seed_seq.generate_state(8)


def test_generator_does_not_depend_on_earlier_trials():
    """Neither the trials drawn before, nor the blocks cached or evicted
    since, change a trial's generator."""
    want = np.random.default_rng((5, 2000)).bit_generator.state
    first = harness.trial_rng(5, 2000)
    first.random(100)
    for seed in range(8):  # more blocks than the cache keeps
        for index in (0, 1024, 2047, 5000):
            harness.trial_rng(seed, index).random(3)
    assert harness.trial_rng(5, 2000).bit_generator.state == want
    harness._block_words.cache_clear()
    assert harness.trial_rng(5, 2000).bit_generator.state == want


def test_trial_generator_pickles():
    rng = harness.trial_rng(9, 1025)
    rng.random(3)
    copy = pickle.loads(pickle.dumps(rng))
    assert copy.bit_generator.state == rng.bit_generator.state
    assert np.array_equal(copy.random(4), rng.random(4))


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
