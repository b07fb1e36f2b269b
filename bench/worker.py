"""One benchmark process: set a workload up, run its operations, report.

``run.py`` starts this script in fresh processes, in one of three modes:

* ``setup``: set up and exit, one more sample of the set-up time;
* ``cold``: set up, run the workload's fixed number of rounds and print
  every output line as the CLI does; ``run.py`` times the whole process
  (``wall_s``) and checks the printed lines.  With ``--trace 1`` the
  layers' public functions are wrapped and their times are reported;
* ``timed``: set up, then run whole rounds until ``--seconds`` have passed
  and report each round's operations and working time, and a tally of the
  results.

Every mode runs the calibration ``Sampler`` (see calibrate.py) from just
after the import, and reports its samples and the time they took.

The program only ever receives (N, a, b); the exponent g that the parent
drew is used here only to screen trials (see ``AnalyticLargeR``).  The last
line of stdout is a JSON object with the key ``bench``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import Counter
from dataclasses import replace

T_BEFORE_IMPORT = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)

from distdlog import bits, cli, dist, dlp, harness, numtheory, phase, statevec, verify  # noqa: E402
from calibrate import Sampler  # noqa: E402
from tracer import Tracer  # noqa: E402

# The cached functions themselves, for their cache_info(): the tracer
# rebinds the module attributes to wrappers.
CACHES = {"modmul": statevec._modmul_destinations, "phase": phase.phase_outcome_distribution}

# Offset of the timed process's trial indices, so that its trials differ
# from those of the cold processes (which start at 0, like the CLI).
TIMED_INDEX_BASE = 1_000_000


def record_json(record: dlp.RunRecord) -> str:
    """One ndjson record line, exactly as the CLI writes it."""
    return cli._json_line(record.to_json_dict())


def solve_op(kind: str, seed: int, index: int, solve):
    def op():
        record = solve(harness.trial_rng(seed, index))
        record = replace(record, seed=index)
        return (kind, record.g_hat, record.retries, record.success, record_json(record))

    return kind, op


class Workload:
    """Inputs from the parent; ``setup`` does what the path does once."""

    cold_rounds = 1  # rounds a cold process runs

    def __init__(self, seed: int, spec: dict) -> None:
        self.seed = seed
        self.spec = spec

    def setup(self) -> None:
        pass


class DistSvCached(Workload):
    """Alg. 4, state-vector backend, cached exact joint law (the CLI default)."""

    round_ops = 2000  # one cold round: 2000 trials, as in the README's solve-dist command

    def setup(self) -> None:
        self.instance = numtheory.validate_instance(self.spec["N"], self.spec["a"], self.spec["b"])
        self.plan = dist.make_plan(self.instance, 2, 2, "0.25", "0.2")
        dist.statevector_joint_distribution(self.instance, self.plan)

    def solve(self, rng):
        return dist.solve_distributed(self.instance, self.plan, rng)

    def make_round(self, first: int) -> tuple[list, int]:
        ops = [solve_op("alg4", self.seed, i, self.solve) for i in range(first, first + self.round_ops)]
        return ops, first + self.round_ops


class SvFresh(Workload):
    """Alg. 2 and Alg. 4 with no reuse: every attempt reruns the circuit."""

    alg2_per_round = 5
    cold_rounds = 2

    def setup(self) -> None:
        self.instance = numtheory.validate_instance(self.spec["N"], self.spec["a"], self.spec["b"])
        self.plan = dist.make_plan(self.instance, 2, 2, "0.25", "0.2")
        self.config = dlp.ShorConfig.for_instance(self.instance, "0.25", max_retries=1)

    def alg2(self, rng):
        return dlp.solve(self.instance, self.config, rng, reuse_state=False)

    def alg4(self, rng):
        return dist.solve_distributed(
            self.instance, self.plan, rng, max_retries=1, reuse_state=False
        )

    def make_round(self, first: int) -> tuple[list, int]:
        ops = [solve_op("alg2", self.seed, first + i, self.alg2) for i in range(self.alg2_per_round)]
        ops.append(solve_op("alg4", self.seed, first + self.alg2_per_round, self.alg4))
        return ops, first + self.alg2_per_round + 1


class AnalyticLargeR(Workload):
    """Alg. 2 and Alg. 4 (k = 2), analytic backend, r = 16001.

    ``phase_outcome_distribution`` raises for a few (numerator, width)
    pairs (the mass-drift fault).  Seeded trials whose one attempt would
    evaluate such a pair are skipped, because how many there are depends on
    the seed and the run length; instead every round ends with one fixed
    trial (g = 1234, trial seed 7, an index the parent found) that hits the
    fault every time.  ``spec["bad"]`` lists the failing numerators by width.
    """

    pairs_per_round = 8
    cold_rounds = 16

    def __init__(self, seed: int, spec: dict) -> None:
        super().__init__(seed, spec)
        self.bad = {int(t): set(nums) for t, nums in spec["bad"].items()}

    def setup(self) -> None:
        spec = self.spec
        self.instance = numtheory.validate_instance(spec["N"], spec["a"], spec["b"])
        self.plan = dist.make_plan(self.instance, 2, None, "0.25", "0.2")
        self.config = dlp.ShorConfig.for_instance(
            self.instance, "0.25", max_retries=1, mode="analytic"
        )
        fault = spec["fault"]
        self.fault_instance = numtheory.validate_instance(spec["N"], spec["a"], fault["b"])

    def alg2(self, rng):
        return dlp.solve(self.instance, self.config, rng)

    def alg4(self, rng):
        return dist.solve_distributed(self.instance, self.plan, rng, mode="analytic", max_retries=1)

    def fault(self, rng):
        return dist.solve_distributed(
            self.fault_instance, self.plan, rng, mode="analytic", max_retries=1
        )

    def hits_fault(self, kind: str, index: int) -> bool:
        """Would the trial's one attempt evaluate a failing phase?

        Both backends draw the branch s first from the trial's generator.
        """
        r = self.spec["r"]
        s = int(harness.trial_rng(self.seed, index).integers(r))
        phases = (s, s * self.spec["g"] % r)
        if kind == "alg2":
            return any(num in self.bad[self.config.t] for num in phases)
        plan = self.plan
        return any(
            num * pow(2, plan.l[j] - 1, r) % r in self.bad[plan.t[j]]
            for j in range(plan.k)
            for num in phases
        )

    def make_round(self, first: int) -> tuple[list, int]:
        ops = []
        index = first
        for _ in range(self.pairs_per_round):
            for kind, solve in (("alg2", self.alg2), ("alg4", self.alg4)):
                while self.hits_fault(kind, index):
                    index += 1
                ops.append(solve_op(kind, self.seed, index, solve))
                index += 1
        fault = self.spec["fault"]
        ops.append(solve_op("fault", fault["seed"], fault["index"], self.fault))
        return ops, index


class VerifyAll(Workload):
    """Repeated ``verify --suite all`` passes."""

    def make_round(self, first: int) -> tuple[list, int]:
        suite_seed = self.seed * 1_000_003 + first

        def op():
            results = verify.run_suite("all", seed=suite_seed)
            lines = [
                f"{'PASS' if c.ok else 'FAIL'} {c.name}: achieved {c.achieved}, bound {c.bound}"
                for c in results
            ]
            passed = sum(c.ok for c in results)
            lines.append(f"{passed}/{len(results)} checks passed")
            return ("verify", passed, len(results), None, "\n".join(lines))

        return [("verify", op)], first + 1


WORKLOADS = {
    "dist-sv-cached": DistSvCached,
    "sv-fresh": SvFresh,
    "analytic-large-r": AnalyticLargeR,
    "verify-all": VerifyAll,
}

# Public functions whose calls the traced run times (calls, total, self).
TIMED = {
    numtheory: ("validate_instance",),
    statevec: (
        "init_basis",
        "init_product",
        "hadamard_layer",
        "controlled_modmul_power",
        "inverse_qft",
        "measure_register",
        "register_vector",
        "sample_cdf",
        "sample_outcome",
    ),
    phase: ("phase_outcome_distribution", "prefix_marginal", "check_accuracy_bound"),
    dist: (
        "statevector_joint_distribution",
        "run_distributed_quantum",
        "solve_distributed",
        "decode_joint_index",
        "correct_with_flag",
    ),
    dlp: ("solve", "quantum_stage_statevector", "quantum_stage_analytic", "postprocess_detail"),
    verify: (
        "suite_metric",
        "suite_prefix_bound",
        "suite_alignment_facts",
        "suite_accuracy",
        "suite_correct",
        "suite_dlp_mass",
    ),
}
# Functions too cheap to time: their calls are only counted.
COUNTED = {bits: ("wrap_add", "circ_dist")}


def _count_solve(tracer: Tracer, record) -> None:
    tracer.bump("solve.ops")
    tracer.bump("solve.attempts", record.retries + 1)
    tracer.bump("solve.successes", int(record.success))


def _count_fallback(tracer: Tracer, result) -> None:
    tracer.bump("dist.correct_with_flag.fallbacks", int(result[1]))


ON_RESULT = {
    "dlp.solve": _count_solve,
    "dist.solve_distributed": _count_solve,
    "dist.correct_with_flag": _count_fallback,
}


def install_tracer(tracer: Tracer) -> None:
    modules = [m for n, m in sys.modules.items() if n == "distdlog" or n.startswith("distdlog.")]
    modules.append(sys.modules[__name__])
    for name in ("solve.ops", "solve.attempts", "solve.successes", "dist.correct_with_flag.fallbacks"):
        tracer.bump(name, 0)
    for module, names in TIMED.items():
        layer = module.__name__.rsplit(".", 1)[1]
        for fn_name in names:
            label = f"{layer}.{fn_name}"
            original = getattr(module, fn_name)
            wrapper = tracer.timed(label, original, ON_RESULT.get(label))
            tracer.install(original, wrapper, modules)
    for module, names in COUNTED.items():
        layer = module.__name__.rsplit(".", 1)[1]
        for fn_name in names:
            original = getattr(module, fn_name)
            tracer.install(original, tracer.counted(f"{layer}.{fn_name}.calls", original), modules)
    tracer.install(record_json, tracer.timed("cli.record_json", record_json), modules)


def cache_counts() -> dict:
    return {name: list(fn.cache_info()[:2]) for name, fn in CACHES.items()}


def peak_rss_kib() -> int:
    """Peak resident set of this process's own address space (VmHWM).

    ``ru_maxrss`` is not used: at exec the kernel folds the parent's peak
    into the new program's ``ru_maxrss``, so a worker started by a large
    parent would report the parent's size.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run_round(ops: list, out: list) -> None:
    for kind, op in ops:
        try:
            out.append(op())
        except Exception as exc:  # a failed operation is counted, not fatal
            out.append(("error", type(exc).__name__, kind, None, None))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--mode", choices=("setup", "cold", "timed"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file", default=None)
    parser.add_argument("--spec", default="{}", help="workload inputs as JSON")
    args = parser.parse_args(argv)

    sampler = Sampler()
    sampler.start()
    tracer = None
    if args.trace:
        tracer = Tracer()
        install_tracer(tracer)
    caches_before = cache_counts()

    workload = WORKLOADS[args.workload](args.seed, json.loads(args.spec))
    workload.setup()
    setup_s = time.perf_counter() - T_BEFORE_IMPORT
    setup_samples, setup_busy = sampler.mark()
    report: dict = {"setup_s": setup_s, "setup_busy": setup_busy, "setup_samples": setup_samples}
    lines: list[str] = []

    if args.mode == "cold":
        results: list = []
        index = 0
        for _ in range(workload.cold_rounds):
            ops, index = workload.make_round(index)
            run_round(ops, results)
        lines = [
            json.dumps({"error": res[1], "kind": res[2]}) if res[0] == "error" else res[4]
            for res in results
        ]
        report["kinds"] = [res[2] if res[0] == "error" else res[0] for res in results]
    elif args.mode == "timed":
        rounds = []
        tally: Counter = Counter()
        index = TIMED_INDEX_BASE
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds:
            ops, index = workload.make_round(index)
            results = []
            first_sample, busy_before = sampler.mark()
            began = time.perf_counter()
            run_round(ops, results)
            elapsed = time.perf_counter() - began
            end_sample, busy_after = sampler.mark()
            # ops, working seconds, and the samples taken in or just before the round
            rounds.append([len(ops), elapsed - (busy_after - busy_before), max(first_sample - 1, 0), end_sample])
            for res in results:
                if res[0] == "error":
                    tally[("error", res[1], res[2], None)] += 1
                elif res[0] == "verify":
                    tally[("verify", res[1], res[2], None)] += 1
                else:
                    tally[(res[0], res[1], res[2] == 0, res[3])] += 1
        report["rounds"] = rounds
        report["tally"] = [list(key) + [n] for key, n in sorted(tally.items(), key=repr)]

    # A signal that lands in a write to a full pipe can garble the output,
    # so the sampler stops before anything is printed.
    sampler.stop()
    if tracer is not None:
        tracer.restore()
        caches_after = cache_counts()
        report["trace"] = {
            "totals": tracer.totals,
            "counts": tracer.counts,
            "caches": {
                k: [a - b for a, b in zip(caches_after[k], caches_before[k])] for k in caches_after
            },
        }
        if args.trace_file:
            tracer.write_spans(args.trace_file)
    if lines:
        print("\n".join(lines))
    report["samples"] = sampler.samples
    report["busy"] = sampler.busy
    report["peak_rss_kib"] = peak_rss_kib()
    print(json.dumps({"bench": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
