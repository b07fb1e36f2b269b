"""Tests of the benchmark's own logic.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402

from distdlog import bits, dist, numtheory, verify  # noqa: E402


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_g_hat_checker_rejects_a_wrong_exponent():
    N, a, b = 11, 3, 9
    g = run.own_dlog(a, b, N)
    r = run.own_order(a, N)
    assert (g, r) == (2, 5)
    assert run.check_g_hat(N, a, b, g, g)
    assert not run.check_g_hat(N, a, b, g, g + 1)
    assert not run.check_g_hat(N, a, b, g, g + r)  # a^(g+r) = b, but not reduced
    assert not run.check_g_hat(N, a, b, g, None)
    assert not run.check_g_hat(N, a, b, g, True)


def test_checker_counts_wrong_answers_and_errors_as_failed():
    checker = run.Checker(11, 3, 9, 2, 5)
    checker.tally([
        ["alg4", 2, True, True, 5],
        ["alg4", None, False, False, 2],
        ["alg2", 3, True, True, 1],
        ["error", "AssertionError", "fault", None, 4],
    ])
    assert (checker.attempted, checker.failed) == (12, 5)
    assert checker.errors == {"fault: AssertionError": 4}
    assert len(checker.problems) == 1 and "wrong g_hat 3" in checker.problems[0]


def test_tracer_wraps_every_binding_and_restores_them():
    originals = {
        (module, name): getattr(module, name)
        for module, name in [
            (bits, "wrap_add"), (dist, "wrap_add"), (verify, "wrap_add"),
            (bits, "circ_dist"), (dist, "circ_dist"), (verify, "circ_dist"),
            (dist, "postprocess_detail"), (numtheory, "validate_instance"),
            (worker, "record_json"),
        ]
    }
    tracer = Tracer()
    worker.install_tracer(tracer)
    try:
        for (module, name), original in originals.items():
            assert getattr(module, name) is not original, (module.__name__, name)
        plan = dist.plan_for_order(5, 2, 2, "0.25", "0.2")
        dist.correct_with_flag([bits.BitString(w, 0) for w in plan.measured], plan)
        assert tracer.counts["bits.wrap_add.calls"] > 0  # calls through dist's own binding
        assert tracer.totals["dist.correct_with_flag"][0] == 1
    finally:
        tracer.restore()
    for (module, name), original in originals.items():
        assert getattr(module, name) is original, (module.__name__, name)
    assert not tracer._patches


def test_per_layer_list_matches_benchmark_json():
    listed = [(m["name"], m["unit"], m["better"]) for m in load_benchmark()["per_layer"]]
    assert listed == run.per_layer_metrics()


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_output_carries_every_metric(trace, section):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "sv-fresh",
           "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in load_benchmark()[section]}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert got == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
