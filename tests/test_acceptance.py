"""Acceptance suite: one test per criterion, each printing a verdict line.

Statistical criteria use 2000 trials with the stated thresholds, which sit
three binomial standard deviations under the guaranteed rates; comparisons
use the Wilson 95% lower bound, which is stricter than the point estimate.
Each one-attempt rate is printed with the exact success mass of its solver,
which must lie inside the Wilson 95% interval.
"""

import time
from fractions import Fraction

import numpy as np

from distdlog import dist, dlp, resources, verify
from distdlog.harness import run_batch
from distdlog.numtheory import validate_instance


def _verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag} failed: {detail}"


def test_criterion_1_single_shot_success_bound():
    instance = validate_instance(11, 3, 9)
    config = dlp.ShorConfig.for_instance(instance, "0.25", max_retries=1)
    started = time.time()
    summary = run_batch(
        lambda rng: dlp.solve(instance, config, rng), trials=2000, seed=7, emit=lambda record: None
    )
    elapsed = time.time() - started
    low, high = summary["wilson_low"], summary["wilson_high"]
    rate = summary["success_rate"]
    mass = dlp.single_shot_success_mass(instance, "0.25")
    _verdict(
        "criterion 1 (single-node success rate)",
        low >= 0.567 and low <= mass <= high and elapsed < 120,
        f"rate {rate:.4f}, wilson [{low:.5f}, {high:.5f}] holds exact mass {mass:.5f}, "
        f"wilson low >= 0.567, {elapsed:.1f}s",
    )


def test_criterion_2_exact_success_mass():
    """Alg. 2 at eps against (r-1)/r (1-eps), and Alg. 4 (k = 2, h = 2,
    eps' = eps/2) against (r-1)/r (1-eps'), each at least Alg. 2's mass."""
    started = time.time()
    worst = 1.0
    for N, a, b in ((7, 2, 4), (11, 3, 9)):
        instance = validate_instance(N, a, b)
        r = instance.r
        for epsilon in ("0.5", "0.25"):
            mass = dlp.single_shot_success_mass(instance, epsilon)
            plan = dist.plan_for_order(r, 2, 2, epsilon)
            mass4 = dlp.success_mass(instance, plan.nodes, plan.join, plan.total_width)
            for label, got, slack in (("Alg. 2", mass, Fraction(epsilon)),
                                      ("Alg. 4", mass4, plan.epsilon_prime)):
                bound = float(Fraction(r - 1, r) * (1 - slack))
                assert got >= bound, f"{label} r={r} eps={epsilon}: {got} < formula {bound}"
                assert got >= 0.6, f"{label} r={r} eps={epsilon}: {got} < 0.6"
            assert mass4 >= mass, f"r={r} eps={epsilon}: Alg. 4 {mass4} < Alg. 2 {mass}"
            worst = min(worst, mass, mass4)
    elapsed = time.time() - started
    _verdict(
        "criterion 2 (exact one-shot mass)",
        worst >= 0.6 and elapsed < 30,
        f"worst mass {worst:.4f} >= 0.6 over Alg. 2 and Alg. 4, {elapsed:.1f}s",
    )


def test_criterion_3_distributed_success_bound():
    instance = validate_instance(11, 3, 9)
    plan = dist.make_plan(instance, 2, 2, "0.25", "0.2")
    summary = run_batch(
        lambda rng: dist.solve_distributed(instance, plan, rng, max_retries=1),
        trials=2000, seed=7, emit=lambda record: None,
    )
    low, high = summary["wilson_low"], summary["wilson_high"]
    rate = summary["success_rate"]
    mass = dlp.success_mass(instance, plan.nodes, plan.join, plan.total_width)
    # bound ordering is a formula-level fact: epsilon' < epsilon
    r = 5
    bound_dist = Fraction(r - 1, r) * (1 - Fraction("0.2"))
    bound_mono = Fraction(r - 1, r) * (1 - Fraction("0.25"))
    _verdict(
        "criterion 3 (distributed success rate)",
        low >= 0.608 and low <= mass <= high and bound_dist > bound_mono,
        f"rate {rate:.4f}, wilson [{low:.5f}, {high:.5f}] holds exact mass {mass:.5f}, "
        f"wilson low >= 0.608, bounds {float(bound_dist):.2f} > {float(bound_mono):.2f}",
    )


def test_criterion_4_step7_state_equality(instance, acceptance_plan):
    started = time.time()
    report = dist.compare_step7_state(instance, acceptance_plan)
    elapsed = time.time() - started
    _verdict(
        "criterion 4 (factorised state equality)",
        report.max_amplitude_deviation <= 1e-9 and elapsed < 10,
        f"certified sup deviation {report.max_amplitude_deviation:.3e} <= 1e-9, "
        f"{elapsed:.1f}s",
    )


def test_criterion_5_distribution_equivalence(instance, acceptance_plan):
    t = dlp.ShorConfig.for_instance(instance, "0.25").t
    assert t <= 7
    tv_mono = 0.5 * float(
        np.abs(
            dlp.joint_law(instance, ((t, 0, t),))
            - dlp.joint_law(instance, ((t, 0, t),), "analytic")
        ).sum()
    )
    tv_dist = 0.5 * float(
        np.abs(
            dist.statevector_joint_distribution(instance, acceptance_plan)
            - dist.analytic_joint_distribution(instance, acceptance_plan)
        ).sum()
    )
    _verdict(
        "criterion 5 (joint-law equivalence)",
        tv_mono <= 1e-9 and tv_dist <= 1e-9,
        f"TV single-node {tv_mono:.3e}, distributed {tv_dist:.3e}, both <= 1e-9",
    )


def test_criterion_6_alignment_oracle():
    checks = verify.suite_correct(cases=10_000, seed=1)
    plans = verify.feasible_correct_combos()
    widths = {plan.total_width for plan in plans}
    ok = all(check.ok for check in checks) and max(widths) <= 8
    exhaustive = sum("exhaustive" in check.name for check in checks)
    _verdict(
        "criterion 6 (alignment oracle)",
        ok,
        f"{len(plans)} feasible plan shapes x 10^4 random cases, "
        f"{exhaustive} exhaustive sweeps, zero failures",
    )


def test_criterion_7_distance_and_alignment_facts():
    checks = (
        verify.suite_metric()
        + verify.suite_prefix_bound()
        + verify.suite_alignment_facts()
    )
    failures = [check.name for check in checks if not check.ok]
    _verdict(
        "criterion 7 (distance and alignment facts)",
        not failures,
        f"{len(checks)} suites, failures: {failures or 'none'}",
    )


def test_criterion_8_accuracy_masses():
    checks = verify.suite_accuracy()
    ok = all(check.ok for check in checks)
    _verdict(
        "criterion 8 (estimation accuracy masses)",
        ok,
        "; ".join(f"{check.achieved} vs {check.bound}" for check in checks),
    )


def test_criterion_9_resource_report():
    # toy values, checked against an independent little-step evaluation
    def ceil_log2_slow(x: Fraction) -> int:
        e = 0
        while (1 << e) < x:
            e += 1
        return e

    r, L = 5, 4
    eps, eps_prime = Fraction(1, 4), Fraction(1, 5)
    alg2 = resources.single_node_qubits(r, L, eps)
    expected = 2 * (ceil_log2_slow(Fraction(2 * r)) + ceil_log2_slow(2 + 1 / eps)) + L
    assert alg2 == expected == 18

    plan = dist.plan_for_order(r, 2, 2, eps, eps_prime)
    assert resources.per_node_qubits_from_widths(plan.t, L) == 20
    assert resources.communication_qubits(2, L) == 4

    formula = resources.per_node_qubits_formula(r, L, 2, eps_prime)
    assert formula == 2 * (Fraction(5, 2) + ceil_log2_slow(2 + 2 / eps_prime)) + L

    # symbolic scale: the per-node expression must be strictly smaller
    big_r, big_L, big_k = 1 << 1024, 1025, 16
    big_alg2 = resources.single_node_qubits(big_r, big_L, eps)
    big_plan = dist.plan_for_order(big_r, big_k, 2, eps, eps_prime)
    big_plan_qubits = resources.per_node_qubits_from_widths(big_plan.t, big_L)
    big_formula = resources.per_node_qubits_formula(big_r, big_L, big_k, eps_prime)
    report = resources.ResourceReport(
        qubits_single_node_alg2=big_alg2,
        qubits_per_node_alg4=big_plan_qubits,
        comm_qubits=resources.communication_qubits(big_k, big_L),
    )
    ok = (
        big_plan_qubits < big_alg2
        and big_formula < big_alg2
        and report.comm_qubits == (big_k - 1) * big_L
        and report.gate_complexity_class == "O(L^3)"
        and report.depth_class == "O(L^3)"
        and "ancilla" in report.ancilla_note
    )
    _verdict(
        "criterion 9 (resource report)",
        ok,
        f"alg2 {big_alg2} vs per-node {big_plan_qubits} (formula {float(big_formula):.2f}) "
        f"at r = 2^1024, k = 16; comm {report.comm_qubits}; "
        "time/depth reported symbolically",
    )
