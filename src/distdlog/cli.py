"""Command-line interface.

Subcommands: solve, solve-dist, resources, verify, dist-compare.
Records go out as newline-delimited JSON, each line as its trial ends and
written by ``records.json_line``; tables as CSV. Exit codes:
0 ok, 1 a verified property failed, 2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from fractions import Fraction
from functools import partial

import numpy as np

from . import dist, dlp, verify
from .harness import run_batch
from .numtheory import validate_instance
from .records import MODES
from .records import json_line as _json_line  # bench/worker.py writes lines through it
from .resources import (
    ResourceReport,
    communication_qubits,
    per_node_qubits_from_widths,
    per_node_qubits_formula,
    single_node_qubits,
    slack_bits,
)


# The widest bit length whose integers all print within Python's default
# limit of 4300 decimal digits, which the resources CSV row needs.
_BIGINT_BITS_CAP = 14_284


def _parse_bigint(text: str) -> int:
    """Plain integers plus the power form 'b**e' for huge symbolic orders.

    A power of more than _BIGINT_BITS_CAP bits is refused; a clearly larger
    one is refused before it is computed.
    """
    if "**" not in text:
        return int(text)
    base, exponent = (int(part) for part in text.split("**", 1))
    if exponent < 0:
        raise argparse.ArgumentTypeError(f"{text} has a negative exponent")
    too_big = argparse.ArgumentTypeError(f"{text} has more than {_BIGINT_BITS_CAP} bits")
    # b**e has more than (bit_length(|b|) - 1) * e bits, and once that is
    # below the cap it has fewer than twice the cap
    if (abs(base).bit_length() - 1) * exponent >= _BIGINT_BITS_CAP:
        raise too_big
    value = base**exponent
    if value.bit_length() > _BIGINT_BITS_CAP:
        raise too_big
    return value


def _int_at_least(low: int):
    """An argparse type for integers of at least ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below the minimum {low}")
        return value

    parse.__name__ = "int"  # argparse names the type in its "invalid int value" error
    return parse


class _Lines:
    """Writes lines to stdout, or to the file ``output``, which it creates
    at the first line: a run refused before its first line leaves no file."""

    def __init__(self, output: str | None) -> None:
        self.output = output
        self.fh = sys.stdout if output is None else None

    def __call__(self, line: str) -> None:
        if self.fh is None:
            self.fh = open(self.output, "w", encoding="utf-8")
        self.fh.write(line + "\n")

    def __enter__(self) -> "_Lines":
        return self

    def __exit__(self, *exc) -> None:
        if self.output is not None and self.fh is not None:
            self.fh.close()


def _cmd_solve(args: argparse.Namespace, distributed: bool) -> int:
    instance = validate_instance(args.N, args.a, args.b)
    fields: dict = {"algorithm": "distributed" if distributed else "shor", "mode": args.mode}
    if distributed:
        plan = dist.make_plan(instance, args.k, args.h, args.epsilon, args.epsilon_prime)
        fields["plan"] = plan.to_json_dict()
        nodes = plan.nodes
        solve = partial(
            dist.solve_distributed, instance, plan, mode=args.mode,
            max_retries=args.max_retries, reuse_state=not args.no_reuse,
        )
    else:
        config = dlp.ShorConfig.for_instance(instance, args.epsilon, args.max_retries, args.mode)
        nodes = config.nodes
        solve = partial(dlp.solve, instance, config, reuse_state=not args.no_reuse)
    for name, count in (("trials", args.trials), ("max_retries", args.max_retries)):
        if count < 1:  # refused before the cached law below is built
            raise ValueError(f"{name} must be >= 1, got {count}")
    if args.mode == "statevector" and not args.no_reuse:
        # the solvers' own cached law, so a law that fits is built once
        cdf, refusal = dlp.joint_cdf(instance, nodes)
        if cdf is None:
            print(f"note: {refusal}, so it is not cached; every attempt reruns the circuit",
                  file=sys.stderr)
    with _Lines(args.output) as write:
        summary = run_batch(
            solve, args.trials, args.seed,
            lambda record: write(_json_line(record.to_json_dict())), **fields,
        )
        write(_json_line({"summary": summary}))
    return 0


def _cmd_resources(args: argparse.Namespace) -> int:
    epsilon = Fraction(args.epsilon)
    epsilon_prime = Fraction(args.epsilon_prime)
    slack_bits(1, epsilon)  # an epsilon outside (0, 1) is refused first, with its own message
    for k in args.k:  # refused before any row; a k above W/2 is a row, as W depends on r
        dist.check_split(k, epsilon, epsilon_prime)
    rows = [
        [
            "r",
            "L",
            "k",
            "epsilon",
            "epsilon_prime",
            "qubits_single_node_alg2",
            "qubits_per_node_alg4",
            "qubits_per_node_alg4_formula",
            "comm_qubits",
            "gate_complexity_class",
            "depth_class",
            "alg4_less_than_alg2",
        ]
    ]
    for r in args.r:
        L = args.L if args.L is not None else r.bit_length() + 1
        for k in args.k:
            alg2 = single_node_qubits(r, L, epsilon)
            try:
                plan = dist.plan_for_order(r, k, epsilon=epsilon, epsilon_prime=epsilon_prime)
                alg4 = per_node_qubits_from_widths(plan.t, L)
                formula = float(per_node_qubits_formula(r, L, k, epsilon_prime))
                advantage = str(alg4 < alg2).lower()
                comm = communication_qubits(k, L)
            except dist.PlanError as exc:
                alg4, formula, advantage, comm = "", "", f"infeasible: {exc}", ""
            rows.append(
                [
                    str(r),
                    str(L),
                    str(k),
                    str(float(epsilon)),
                    str(float(epsilon_prime)),
                    str(alg2),
                    str(alg4),
                    str(formula),
                    str(comm),
                    ResourceReport.gate_complexity_class,
                    ResourceReport.depth_class,
                    advantage,
                ]
            )
    table = io.StringIO()
    csv.writer(table).writerows(rows)  # rows end in \r\n, the csv default
    with _Lines(args.output) as write:
        write(table.getvalue() + f"# note: {ResourceReport.ancilla_note}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = verify.run_suite(
        args.suite, r=args.r, epsilon=args.epsilon, cases=args.cases, seed=args.seed
    )
    failed = 0
    for check in results:
        status = "PASS" if check.ok else "FAIL"
        failed += not check.ok
        print(f"{status} {check.name}: achieved {check.achieved}, bound {check.bound}")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def _cmd_dist_compare(args: argparse.Namespace) -> int:
    instance = validate_instance(args.N, args.a, args.b)
    plan = dist.make_plan(instance, args.k, args.h, args.epsilon, args.epsilon_prime)
    # both laws first: their byte cap refuses an oversize run before the check
    sv = dist.statevector_joint_distribution(instance, plan)
    an = dist.analytic_joint_distribution(instance, plan)
    report = dist.compare_step7_state(instance, plan)
    tv = 0.5 * float(np.abs(sv - an).sum())
    payload = {
        "plan": plan.to_json_dict(),
        "max_amplitude_deviation": report.max_amplitude_deviation,
        "per_branch_deviation": list(report.per_branch_deviation),
        "factorization_residual": report.factorization_residual,
        "joint_total_variation": tv,
        "comm_qubits": communication_qubits(plan.k, instance.L),
    }
    with _Lines(args.output) as write:
        write(_json_line(payload))
    # the gates of acceptance criteria 4 and 5
    return 0 if report.max_amplitude_deviation <= 1e-9 and tv <= 1e-9 else 1


def _add_instance_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--N", type=int, required=True, help="modulus")
    parser.add_argument("--a", type=int, required=True, help="base")
    parser.add_argument("--b", type=int, required=True, help="target power")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="distdlog", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the single-node solver")
    _add_instance_args(solve)
    solve.add_argument("--epsilon", default="0.25")
    solve.add_argument("--mode", choices=MODES, default="statevector")
    solve.add_argument("--trials", type=int, default=100)
    solve.add_argument("--seed", type=int, required=True)
    solve.add_argument("--max-retries", type=int, default=64)
    solve.add_argument("--no-reuse", action="store_true",
                       help="rebuild the circuit per attempt instead of reusing its measurement law")
    solve.add_argument("--output", default=None)

    solve_dist = sub.add_parser("solve-dist", help="run the distributed solver")
    _add_instance_args(solve_dist)
    solve_dist.add_argument("--epsilon", default="0.25")
    solve_dist.add_argument("--epsilon-prime", dest="epsilon_prime", default=None)
    solve_dist.add_argument("--k", type=int, default=2)
    solve_dist.add_argument("--h", type=int, default=None)
    solve_dist.add_argument("--mode", choices=MODES, default="statevector")
    solve_dist.add_argument("--trials", type=int, default=100)
    solve_dist.add_argument("--seed", type=int, required=True)
    solve_dist.add_argument("--max-retries", type=int, default=64)
    solve_dist.add_argument("--no-reuse", action="store_true")
    solve_dist.add_argument("--output", default=None)

    resources = sub.add_parser("resources", help="qubit/communication cost table")
    resources.add_argument("--r", type=_parse_bigint, nargs="+", required=True,
                           help="orders; accepts forms like 5 or 2**1024")
    resources.add_argument("--k", type=int, nargs="+", default=[2])
    resources.add_argument("--L", type=_int_at_least(1), default=None,
                           help="synthetic work-register width (default: bits of r plus one)")
    resources.add_argument("--epsilon", default="0.25")
    resources.add_argument("--epsilon-prime", dest="epsilon_prime", default="0.125")
    resources.add_argument("--output", default=None)

    verify_cmd = sub.add_parser("verify", help="run the property suites")
    verify_cmd.add_argument("--suite", choices=verify.SUITES, default="all")
    verify_cmd.add_argument("--r", type=_int_at_least(2), default=None)
    verify_cmd.add_argument("--epsilon", default=None)
    verify_cmd.add_argument("--cases", type=_int_at_least(1), default=10_000)
    verify_cmd.add_argument("--seed", type=int, default=1)

    compare = sub.add_parser("dist-compare", help="simulated vs closed-form final state")
    _add_instance_args(compare)
    compare.add_argument("--epsilon", default="0.25")
    compare.add_argument("--epsilon-prime", dest="epsilon_prime", default="0.2")
    compare.add_argument("--k", type=int, default=2)
    compare.add_argument("--h", type=int, default=None)
    compare.add_argument("--output", default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args, distributed=False)
        if args.command == "solve-dist":
            return _cmd_solve(args, distributed=True)
        if args.command == "resources":
            return _cmd_resources(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "dist-compare":
            return _cmd_dist_compare(args)
        parser.error(f"unknown command {args.command!r}")
    except ValueError as exc:  # InstanceError, PlanError and QubitBudgetError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
