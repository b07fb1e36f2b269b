"""Benchmark of distdlog: one workload, one seed, one result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json:

* ``setup_s``: time from before ``import distdlog`` until the first timed
  operation can start, the median over every fresh process of the run;
* ``ops_per_s``: operations per second in the timed phase, the median of
  the rates of its rounds;
* ``wall_s``: the workload's fixed work in a fresh process, from interpreter
  start to exit, the median over the cold processes;
* ``peak_rss_mib``: the peak resident set (VmHWM) of a cold process, read
  from inside it at its end, the median over the cold processes.

With ``--trace 1`` it runs the fixed work once untraced and once traced,
and reports the per-layer metrics and the tracing overhead.

Every run checks the outputs with the benchmark's own knowledge of the
answer (see ``Checker``), outside the measured processes.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from calibrate import calibration_seconds, scale  # noqa: E402

# Fresh processes per run: cold ones give wall_s and peak_rss_mib, and
# set-up-only ones add samples of the short set-up time.
COLD_PROCESSES = 3
SETUP_PROBES = {"dist-sv-cached": 2, "sv-fresh": 10, "analytic-large-r": 10, "verify-all": 10}
CHILD_TIMEOUT_S = 150
PARENT_SAMPLES = 3  # calibration samples taken here between two workers

# The mass-drift fault kept in analytic-large-r: Alg. 4 at g = 1234 with
# the CLI's trial seed 7 first evaluates a failing phase at trial 305.
FAULT = {"g": 1234, "seed": 7, "index": 305}
# Residues (num << t) mod r within this distance below r are tested for the
# fault; an exhaustive scan of every numerator at r = 16001 found failures
# only at distances 1 and 4.
FAULT_WINDOW = 16

EPSILON = Fraction(1, 4)
EPSILON_PRIME = Fraction(1, 5)
WILSON_Z = 1.959963984540054
TV_TOLERANCE = 1e-9

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("wall_s", "s"), ("peak_rss_mib", "MiB"))


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def own_order(a: int, N: int) -> int:
    x, r = a % N, 1
    while x != 1:
        x, r = x * a % N, r + 1
    return r


def own_dlog(a: int, b: int, N: int) -> int:
    x = 1
    for g in range(N):
        if x == b % N:
            return g
        x = x * a % N
    raise ValueError(f"{b} is not a power of {a} mod {N}")


def check_g_hat(N: int, a: int, b: int, g: int, g_hat) -> bool:
    """A reported exponent is right only if it is g itself and a^g_hat = b."""
    return (
        isinstance(g_hat, int)
        and not isinstance(g_hat, bool)
        and g_hat == g
        and pow(a, g_hat, N) == b % N
    )


def wilson_high(successes: int, trials: int) -> float:
    """Upper end of the 95% Wilson score interval of a binomial proportion."""
    z = WILSON_Z
    if trials == 0:
        return 1.0
    p = successes / trials
    denom = 1 + z * z / trials
    centre = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return min(1.0, centre + half)


class Checker:
    """Tallies operations and checks them against the known answer.

    An operation fails when it raises or reports a wrong g_hat; a solve
    that ends with success false is a completed operation.  One-attempt
    success counts must not lie significantly below the paper's bounds.
    """

    def __init__(self, N=None, a=None, b=None, g=None, r=None, fault_b=None):
        self.N, self.a, self.b, self.g, self.r = N, a, b, g, r
        self.fault_b = fault_b
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.errors: dict[str, int] = {}
        self.first = {"alg2": [0, 0], "alg4": [0, 0]}  # kind -> [successes, ops]

    def solve_result(self, kind, g_hat, first_success, success, count=1, use_for_bounds=True):
        self.attempted += count
        if kind == "fault":
            b, g = self.fault_b, FAULT["g"]
        else:
            b, g = self.b, self.g
        if success and not check_g_hat(self.N, self.a, b, g, g_hat):
            self.failed += count
            self.problems.append(f"{kind}: wrong g_hat {g_hat!r}, expected {g}")
            return
        if not success and g_hat is not None:
            self.failed += count
            self.problems.append(f"{kind}: unsuccessful solve reported g_hat {g_hat!r}")
            return
        if kind in self.first and use_for_bounds:
            self.first[kind][0] += count * bool(success and first_success)
            self.first[kind][1] += count

    def error(self, kind: str, name: str, count: int = 1) -> None:
        self.attempted += count
        self.failed += count
        self.errors[f"{kind}: {name}"] = self.errors.get(f"{kind}: {name}", 0) + count

    def verify_result(self, passed: int, total: int, count: int = 1) -> None:
        self.attempted += count
        if passed != total or total == 0:
            self.problems.append(f"verify: {passed}/{total} checks passed")

    def cold_output(self, text: str, kinds: list, use_for_bounds: bool) -> None:
        """Check the lines a cold process printed, one operation at a time."""
        lines = iter(text.splitlines())
        for kind in kinds:
            if kind == "verify":
                checks = []
                for line in lines:
                    if line.endswith("checks passed"):
                        break
                    checks.append(line)
                self.verify_result(sum(line.startswith("PASS ") for line in checks), len(checks))
                continue
            record = json.loads(next(lines))
            if "error" in record:
                self.error(kind, record["error"])
            else:
                self.solve_result(kind, record["g_hat"], record["retries"] == 0,
                                  record["success"], use_for_bounds=use_for_bounds)
        if next(lines, None) is not None:
            self.problems.append("cold output has more lines than operations")

    def tally(self, rows: list) -> None:
        for kind, x, y, z, count in rows:
            if kind == "error":
                self.error(y, x, count)
            elif kind == "verify":
                self.verify_result(x, y, count)
            else:
                self.solve_result(kind, x, y, z, count)

    def bounds(self) -> None:
        if self.r is None:
            return
        one = 1 - Fraction(1, self.r)
        for kind, eps in (("alg2", EPSILON), ("alg4", EPSILON_PRIME)):
            successes, ops = self.first[kind]
            if ops == 0:
                continue
            bound = float(one * (1 - eps))
            high = wilson_high(successes, ops)
            if high < bound:
                self.problems.append(
                    f"{kind}: one-attempt successes {successes}/{ops}, Wilson high {high:.4f} "
                    f"< bound {bound:.4f}"
                )


def import_program() -> None:
    """Import distdlog from this checkout's src/, or exit if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "distdlog", "__init__.py")):
        raise SystemExit(f"error: no distdlog sources under {SRC}")
    sys.path.insert(0, SRC)
    import distdlog

    if not os.path.abspath(distdlog.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: distdlog imported from {distdlog.__file__}, not from {SRC}")


def fault_numerators(r: int, widths) -> dict:
    """Numerators whose phase law raises at each width (tested, not assumed)."""
    from distdlog import phase

    bad = {}
    for t in sorted(set(widths)):
        inverse = pow(pow(2, t, r), -1, r)
        bad[t] = []
        for distance in range(1, FAULT_WINDOW + 1):
            num = (r - distance) * inverse % r
            try:
                phase.phase_outcome_distribution(Fraction(num, r), t)
            except AssertionError:
                bad[t].append(num)
    return bad


def workload_spec(workload: str, seed: int) -> tuple[dict, Checker]:
    """The inputs the workload gets, and a checker that knows the answers."""
    if workload == "analytic-large-r":
        from distdlog import dist, dlp, numtheory

        N, a = 32003, 4
        r = own_order(a, N)
        g = random.Random(seed).randrange(1, r)
        b = pow(a, g, N)
        fault_b = pow(a, FAULT["g"], N)
        plan = dist.plan_for_order(r, 2, None, EPSILON, EPSILON_PRIME)
        t = dlp.counting_width(r, EPSILON)
        spec = {
            "N": N, "a": a, "b": b, "r": r, "g": g,
            "bad": fault_numerators(r, (t,) + plan.t),
            "fault": {"b": fault_b, "seed": FAULT["seed"], "index": FAULT["index"]},
        }
        return spec, Checker(N, a, b, g, r, fault_b=fault_b)
    if workload in ("dist-sv-cached", "sv-fresh"):
        N, a, b = 11, 3, 9
        return {"N": N, "a": a, "b": b}, Checker(N, a, b, own_dlog(a, b, N), own_order(a, N))
    if workload == "verify-all":
        return {}, Checker()
    raise SystemExit(f"error: unknown workload {workload!r}")


def run_child(workload: str, mode: str, seed: int, spec: dict, seconds: float = 0.0,
              trace: int = 0, trace_file: str | None = None) -> tuple[dict, str, float]:
    """Run one worker process; return its report, its other output, its wall time."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--mode", mode, "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", str(trace), "--spec", json.dumps(spec)]
    if trace_file:
        cmd += ["--trace-file", trace_file]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {mode} worker for {workload} exited with {proc.returncode}")
    body, _, last = proc.stdout.rstrip("\n").rpartition("\n")
    return json.loads(last)["bench"], body, wall


def joint_law_distance(spec: dict) -> float:
    """Total variation between the cached state-vector law and the closed form."""
    from distdlog import dist, numtheory
    import numpy as np

    instance = numtheory.validate_instance(spec["N"], spec["a"], spec["b"])
    plan = dist.make_plan(instance, 2, 2, EPSILON, EPSILON_PRIME)
    sv = dist.statevector_joint_distribution(instance, plan)
    an = dist.analytic_joint_distribution(instance, plan)
    return 0.5 * float(np.abs(sv - an).sum())


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    import worker

    metrics = []
    for module, names in worker.TIMED.items():
        layer = module.__name__.rsplit(".", 1)[1]
        for fn in names:
            metrics += [(f"{layer}.{fn}.calls", "count", "lower"),
                        (f"{layer}.{fn}.ms", "ms", "lower"),
                        (f"{layer}.{fn}.self_ms", "ms", "lower")]
    metrics += [("cli.record_json.calls", "count", "lower"),
                ("cli.record_json.ms", "ms", "lower"),
                ("cli.record_json.self_ms", "ms", "lower")]
    for module, names in worker.COUNTED.items():
        layer = module.__name__.rsplit(".", 1)[1]
        metrics += [(f"{layer}.{fn}.calls", "count", "lower") for fn in names]
    metrics += [
        ("statevec.modmul_tables.hits", "count", "higher"),
        ("statevec.modmul_tables.misses", "count", "lower"),
        ("phase.phase_outcome_distribution.cache_hits", "count", "higher"),
        ("phase.phase_outcome_distribution.cache_misses", "count", "lower"),
        ("dist.correct_with_flag.fallbacks", "count", "lower"),
        ("solve.ops", "count", "higher"),
        ("solve.attempts", "count", "lower"),
        ("solve.successes", "count", "higher"),
        ("solve.attempts_per_op", "ratio", "lower"),
        ("solve.success_per_attempt", "ratio", "higher"),
        ("phase.cache_hit_ratio", "ratio", "higher"),
        ("dist.fallback_ratio", "ratio", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.traced_wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return metrics


def layer_values(trace: dict, untraced_wall: float, traced_wall: float) -> dict:
    values = {}
    for label, (calls, total, own) in trace["totals"].items():
        values[f"{label}.calls"] = calls
        values[f"{label}.ms"] = total * 1e3
        values[f"{label}.self_ms"] = own * 1e3
    values.update(trace["counts"])
    caches = trace["caches"]
    values["statevec.modmul_tables.hits"], values["statevec.modmul_tables.misses"] = caches["modmul"]
    hits, misses = caches["phase"]
    values["phase.phase_outcome_distribution.cache_hits"] = hits
    values["phase.phase_outcome_distribution.cache_misses"] = misses

    def ratio(num, base):
        return num / base if base else 0.0

    counts = trace["counts"]
    values["solve.attempts_per_op"] = ratio(counts["solve.attempts"], counts["solve.ops"])
    values["solve.success_per_attempt"] = ratio(counts["solve.successes"], counts["solve.attempts"])
    values["phase.cache_hit_ratio"] = ratio(hits, hits + misses)
    values["dist.fallback_ratio"] = ratio(
        counts["dist.correct_with_flag.fallbacks"], trace["totals"]["dist.correct_with_flag"][0]
    )
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.traced_wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    return values


class FreshProcesses:
    """Starts workers and scales their times to the nominal machine speed.

    Each worker is bracketed by calibration samples taken here, and adds
    the samples its own ``Sampler`` took (see calibrate.py).
    """

    def __init__(self, workload: str, seed: int, spec: dict) -> None:
        self.workload, self.seed, self.spec = workload, seed, spec
        self.last = self.bracket()
        self.raw: list[dict] = []

    @staticmethod
    def bracket() -> list[float]:
        return [calibration_seconds() for _ in range(PARENT_SAMPLES)]

    def run(self, mode: str, **kwargs) -> tuple[dict, str, float, float]:
        """Report, output, scaled wall time and scaled set-up time of one worker."""
        before = self.last
        report, body, wall = run_child(self.workload, mode, self.seed, self.spec, **kwargs)
        self.last = after = self.bracket()
        inside = report["samples"]
        wall_s = scale(wall - report["busy"], before + inside + after)
        setup_s = scale(report["setup_s"] - report["setup_busy"],
                        before + inside[: report["setup_samples"]])
        self.raw.append({"mode": mode, "wall": wall, "setup": report["setup_s"],
                         "busy": report["busy"], "samples": before + inside + after})
        return report, body, wall_s, setup_s


def round_rates(report: dict) -> list[float]:
    """Operations per second of each timed round, at nominal machine speed."""
    samples = report["samples"]
    rates = []
    for ops, seconds, first, end in report["rounds"]:
        window = samples[first:end] or samples[:1]
        rates.append(ops / scale(seconds, window))
    return rates


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import_program()
    spec, checker = workload_spec(workload, seed)
    os.makedirs(OUT, exist_ok=True)
    tag = f"{workload}-seed{seed}"
    fresh = FreshProcesses(workload, seed, spec)

    if trace:
        report, body, untraced_wall, _ = fresh.run("cold")
        checker.cold_output(body, report["kinds"], use_for_bounds=True)
        trace_file = os.path.join(OUT, f"trace-{tag}.json")
        traced, traced_body, traced_wall, _ = fresh.run("cold", trace=1, trace_file=trace_file)
        checker.cold_output(traced_body, traced["kinds"], use_for_bounds=False)
        if traced_body != body:
            checker.problems.append("traced output differs from untraced output")
        values = layer_values(traced["trace"], untraced_wall, traced_wall)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in per_layer_metrics()}
    else:
        setups, walls, rss, bodies = [], [], [], []
        for _ in range(COLD_PROCESSES):
            report, body, wall, setup = fresh.run("cold")
            setups.append(setup)
            walls.append(wall)
            rss.append(report["peak_rss_kib"] / 1024)
            checker.cold_output(body, report["kinds"], use_for_bounds=not bodies)
            bodies.append(body)
        if any(body != bodies[0] for body in bodies):
            checker.problems.append("cold processes with the same seed printed different output")
        for _ in range(SETUP_PROBES[workload]):
            setups.append(fresh.run("setup")[3])
        timed, _, _, setup = fresh.run("timed", seconds=seconds)
        setups.append(setup)
        checker.tally(timed["tally"])
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": statistics.median(round_rates(timed)),
            "wall_s": statistics.median(walls),
            "peak_rss_mib": statistics.median(rss),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        fresh.raw.append({"mode": "timed rounds", "rounds": timed["rounds"]})

    if workload == "dist-sv-cached":
        tv = joint_law_distance(spec)
        if not tv <= TV_TOLERANCE:
            checker.problems.append(f"joint laws differ: total variation {tv!r}")
    checker.bounds()
    result = {
        "correct": not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    with open(os.path.join(OUT, f"result-{tag}-trace{trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(result, problems=checker.problems, errors=checker.errors, raw=fresh.raw), fh)
    for problem in checker.problems:
        print(f"check failed: {problem}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(SETUP_PROBES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    result = run(args.workload, args.seed, args.seconds, args.trace)
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} attempted = {result['attempted']}, failed = {result['failed']}, "
          f"correct = {str(result['correct']).lower()}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
