import copy
import dataclasses
import inspect
import json
import math
import operator
import pickle
import textwrap
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

import fullwidth
from alignscan import scan_values
from distdlog import cli, dist, dlp, phase, records, statevec, verify
from distdlog.bits import BitString, circ_dist
from distdlog.dist import (
    DistPlan,
    PlanError,
    align_values,
    analytic_joint_distribution,
    brute_force_correct_oracle,
    compare_step7_state,
    correct_with_flag,
    make_plan,
    plan_for_order,
    run_distributed_quantum,
    solve_distributed,
    statevector_joint_distribution,
)
from distdlog.dlp import (
    ShorConfig,
    decode_joint_index,
    joint_law,
    node_numerators,
    postprocess_detail,
    solve,
)
from distdlog.numtheory import ProblemInstance, ceil_log2, validate_instance
from distdlog.records import Outcome, RecordHeader, RunRecord, SplicedRecord
from distdlog.resources import communication_qubits, per_node_qubits_from_widths, single_node_qubits
from distdlog.statevec import QubitBudgetError
from gatelevel import build_stage_state, gate_stage_state, node_block, whole_state_step7
from phaseloop import analytic_joint_law_loop, fraction_bits


def bs(text):
    return BitString(len(text), int(text, 2))


def branch_phase(instance: ProblemInstance, exponent: int, s: int, family: str) -> Fraction:
    """Register ``family``'s phase on branch s: its ``node_numerators``
    entry over r."""
    num_a, num_b = node_numerators(instance, exponent, s)
    return Fraction(num_a if family == "a" else num_b, instance.r)


def node_window_mass(
    instance: ProblemInstance, plan: DistPlan, node: int, s: int, family: str
) -> float:
    """Probability that one node's measured prefix lands within its window.

    The window is the node's slice of the branch phase's expansion; the
    allowed circular deviation is 2^(h-2) for overlap nodes and 1 for the
    final node.
    """
    m = plan.measured[node]
    omega = branch_phase(instance, plan.l[node] - 1, s, family)
    dist = phase.phase_outcome_distribution(omega, plan.t[node])
    folded = phase.prefix_marginal(dist, m)
    target = fraction_bits(omega.numerator, omega.denominator, 1, m).value
    outcomes = np.arange(1 << m, dtype=np.int64)
    diff = np.abs(outcomes - target)
    circular = np.minimum(diff, (1 << m) - diff)
    threshold = (1 << (plan.h - 2)) if node < plan.k - 1 else 1
    return float(folded[circular <= threshold].sum())


def branch_event_mass(instance: ProblemInstance, plan: DistPlan, s: int) -> float:
    """Probability that every node of branch s lands in its window (both families)."""
    mass = 1.0
    for j in range(plan.k):
        for family in ("a", "b"):
            mass *= node_window_mass(instance, plan, j, s, family)
    return mass


def _node_transfer_states(
    instance: ProblemInstance, plan: DistPlan, node: int, columns: np.ndarray
) -> np.ndarray:
    """Stacked node outputs for work-register basis inputs ``columns``.

    Returns an array of shape (2^2t, 2^L, len(columns)): the node circuit is
    linear in the incoming work register, so these columns determine its
    action on any incoming state. The node runs once, on |1>: it commutes
    with multiplying the work register by a unit c, so the output for |c>
    is that for |1> gathered along the work axis through y -> c^-1 y mod N
    (y >= N stays put). Non-units are unreachable from |1> and refused.
    """
    t, N = plan.t[node], instance.N
    dim_c = 1 << instance.L
    for c in columns:
        if not (0 < c < N and math.gcd(int(c), N) == 1):
            raise ValueError(f"work column {c} is not a unit mod {N}")
    one = build_stage_state(instance, t, plan.l[node] - 1, 1).amps.reshape(1 << (2 * t), dim_c)
    inverses = np.array([pow(int(c), -1, N) for c in columns], dtype=np.int64)
    ys = np.arange(dim_c)[:, None]
    return one[:, np.where(ys < N, ys * inverses % N, ys)]


def r_chain_joint_distribution(instance: ProblemInstance, plan: DistPlan) -> np.ndarray:
    """The joint law of all measured prefixes without assuming it factorises
    per branch: the oracle for ``statevector_joint_distribution``.

    Conditioning on a node's full measurement record is carried forward as
    one positive-semidefinite matrix R over the work register per joint
    prefix class, polynomial in 2^L instead of exponential in the total
    register count.
    """
    dim_c = 1 << instance.L
    R = np.zeros((1, dim_c, dim_c), dtype=np.complex128)
    R[0, 1, 1] = 1.0  # work register starts in |1>

    for j in range(plan.k):
        t, m = plan.t[j], plan.measured[j]
        diag = np.einsum("mcc->c", R).real
        columns = np.where(diag > 1e-15)[0]
        theta = _node_transfer_states(instance, plan, j, columns)
        shape = (1 << m, 1 << (t - m), 1 << m, 1 << (t - m), dim_c, len(columns))
        theta = theta.reshape(shape)
        Rsub = R[np.ix_(range(R.shape[0]), columns, columns)]
        if j < plan.k - 1:
            R = np.einsum(
                "atbuxc,mcd,atbuyd->mabxy", theta, Rsub, theta.conj(), optimize=True
            )
            R = R.reshape(-1, dim_c, dim_c)
        else:
            H = np.einsum("atbuxc,atbuxd->abcd", theta, theta.conj(), optimize=True)
            P = np.einsum("mcd,abcd->mab", Rsub, H, optimize=True).real
            flat = np.ascontiguousarray(P.reshape(-1))
    total = float(flat.sum())
    if abs(total - 1.0) > 1e-9:
        raise AssertionError(f"joint law mass {total!r} drifted from 1")
    return flat


# Hand-picked small widths with a middle node; any widths describe a valid
# sequential protocol, so both joint laws apply.
THREE_NODE_PLAN = DistPlan(
    r=5, k=3, h=2, epsilon=Fraction(1, 2), epsilon_prime=Fraction(1, 4),
    l=(1, 2, 3, 5), t=(4, 4, 4), measured=(2, 2, 3), total_width=5,
)


class TestPlan:
    def test_acceptance_plan_values(self, acceptance_plan):
        plan = acceptance_plan
        assert plan.l == (1, 2, 5)
        assert plan.t == (8, 8)
        assert plan.measured == (4, 4)
        assert plan.total_width == 5
        assert per_node_qubits_from_widths(plan.t, 4) == 20

    def test_too_many_nodes(self, instance):
        with pytest.raises(PlanError, match="infeasible"):
            make_plan(instance, k=3, h=2, epsilon="0.25", epsilon_prime="0.2")

    def test_overlap_out_of_range(self, instance):
        with pytest.raises(PlanError, match="h must be"):
            make_plan(instance, k=2, h=3, epsilon="0.25", epsilon_prime="0.2")
        with pytest.raises(PlanError, match="h must be"):
            make_plan(instance, k=2, h=1, epsilon="0.25", epsilon_prime="0.2")

    def test_budget_ordering(self, instance):
        with pytest.raises(PlanError, match="epsilon"):
            make_plan(instance, k=2, h=2, epsilon="0.2", epsilon_prime="0.25")

    def test_defaults(self, instance):
        plan = make_plan(instance, k=2, epsilon="0.25")
        assert plan.epsilon_prime == Fraction(1, 8)
        assert plan.h == 2  # min(3, floor(5/2))

    def test_three_nodes_feasible_for_larger_order(self):
        plan = plan_for_order(11, k=3, h=2, epsilon="0.25", epsilon_prime="0.2")
        assert plan.l == (1, 2, 4, 6)
        assert plan.measured == (4, 5, 3)
        assert all(m <= t for m, t in zip(plan.measured, plan.t))

    def test_nodes_built_once_per_plan(self, acceptance_plan):
        nodes = acceptance_plan.nodes
        assert nodes == ((8, 0, 4), (8, 1, 4))
        assert acceptance_plan.nodes is nodes
        assert THREE_NODE_PLAN.nodes == ((4, 0, 2), (4, 1, 2), (4, 2, 3))

    def test_json_round_trip(self, acceptance_plan):
        payload = acceptance_plan.to_json_dict()
        assert payload["l"] == [1, 2, 5]
        assert payload["total_width"] == 5


class TestCorrect:
    def test_worked_example(self, acceptance_plan):
        out, fallback = correct_with_flag([bs("0101"), bs("1110")], acceptance_plan)
        assert str(out) == "01110"
        assert not fallback
        w = bs("01101")
        assert circ_dist(out, w) == 1
        assert circ_dist(bs("1110"), w.slice(2, 5)) == 1

    def test_exact_windows_reassemble(self, acceptance_plan):
        plan = acceptance_plan
        for wv in range(1 << plan.total_width):
            w = BitString(plan.total_width, wv)
            parts = [
                w.slice(plan.l[0], plan.l[1] + plan.h),
                w.slice(plan.l[1], plan.l[2]),
            ]
            assert correct_with_flag(parts, plan)[0] == w

    def test_single_node_degenerate(self):
        plan = DistPlan(
            r=5, k=1, h=2, epsilon=Fraction(1, 4), epsilon_prime=Fraction(1, 5),
            l=(1, 5), t=(8,), measured=(5,), total_width=5,
        )
        m = bs("10110")
        assert correct_with_flag([m], plan)[0] == m

    def test_width_validation(self, acceptance_plan):
        with pytest.raises(PlanError):
            correct_with_flag([bs("0101")], acceptance_plan)
        with pytest.raises(PlanError):
            correct_with_flag([bs("01011"), bs("1110")], acceptance_plan)

    def test_fallback_flag_fires_outside_window(self, acceptance_plan):
        fired = False
        for va in range(16):
            for vb in range(16):
                _, fallback = correct_with_flag(
                    [BitString(4, va), BitString(4, vb)], acceptance_plan
                )
                fired = fired or fallback
        assert fired  # some pairs admit no exact small shift


class TestCorrectOracle:
    def test_zero_perturbations(self, acceptance_plan):
        w = 0b11010
        assert brute_force_correct_oracle(w, [0, 0], acceptance_plan) == (w, 0)

    def test_worked_perturbations(self, acceptance_plan):
        out = brute_force_correct_oracle(0b01101, [-1, 1], acceptance_plan)
        assert out == (0b01110, 0)

    def test_randomized_small_batch(self, acceptance_plan):
        rng = np.random.default_rng(17)
        for _ in range(500):
            w = int(rng.integers(32))
            perturbations = [int(rng.integers(-1, 2)), int(rng.integers(-1, 2))]
            _, failures = brute_force_correct_oracle(w, perturbations, acceptance_plan)
            assert failures == 0

    def test_counts_moved_cases(self, acceptance_plan, monkeypatch):
        """A pass that moves the estimate fails every case it moves, and
        the oracle returns that count."""
        align = dist.align_values
        monkeypatch.setattr(
            dist, "align_values", lambda values, plan: ((align(values, plan)[0] + 2) & 31, False)
        )
        words = np.arange(32)
        _, failures = brute_force_correct_oracle(words, [0, 0], acceptance_plan)
        assert failures == 32

    def test_rejects_oversized_perturbation(self, acceptance_plan):
        with pytest.raises(ValueError):
            brute_force_correct_oracle(0b01101, [5, 0], acceptance_plan)
        with pytest.raises(ValueError):
            brute_force_correct_oracle(0b01101, [0, 2], acceptance_plan)
        # int64 arrays: one oversized entry, or one w outside 5 bits, refuses the batch
        words = np.arange(32)
        first = np.zeros(32, dtype=np.int64)
        first[7] = 2
        with pytest.raises(ValueError):
            brute_force_correct_oracle(words, [first, 0], acceptance_plan)
        with pytest.raises(ValueError):
            brute_force_correct_oracle(words, [0, np.full(32, -2)], acceptance_plan)
        with pytest.raises(ValueError):
            brute_force_correct_oracle(words + 1, [0, 0], acceptance_plan)


# Every feasible (r, k, h) with h from 2 to h_max for these orders.
ALIGNMENT_PLANS = [
    plan_for_order(r, k, h, "0.25", "0.2")
    for r in (5, 7, 11, 13, 37, 67, 131)
    for k in (2, 3)
    for h in range(2, (ceil_log2(2 * r) + 1) // k + 1)
]


class TestAlignValues:
    @pytest.mark.parametrize(
        "plan", ALIGNMENT_PLANS, ids=[f"r{p.r}-k{p.k}-h{p.h}" for p in ALIGNMENT_PLANS]
    )
    def test_matches_candidate_scan(self, plan):
        """The closed form equals the candidate scan, value and flag, on every
        input when a plan has at most 2^16 and on 10^5 seeded ones otherwise;
        called once per input on ints and once on all inputs as int64 arrays."""
        bits = sum(plan.measured)
        if bits <= 16:
            flat = np.arange(1 << bits, dtype=np.int64)
        else:
            flat = np.random.default_rng(bits).integers(1 << bits, size=100_000)
        ends = np.cumsum(plan.measured)
        values = [(flat >> (bits - end)) & ((1 << m) - 1) for end, m in zip(ends, plan.measured)]
        rows = np.stack(values, axis=1).tolist()
        want = [scan_values(row, plan) for row in rows]
        got = [align_values(row, plan) for row in rows]
        assert got == want
        assert all(type(value) is int and type(flag) is bool for value, flag in got)
        assert any(flag for _, flag in want)  # the fallback path is compared too
        value, flag = align_values(values, plan)
        assert value.dtype == np.int64 and flag.dtype == bool
        assert value.tolist() == [v for v, _ in want]
        assert flag.tolist() == [f for _, f in want]

    def test_midpoint_tie_goes_positive(self, acceptance_plan):
        # h = 2: node 1's tail 000 against target 100 is s = 4 = 2^h; both
        # +2 and -2 land at distance 2, and the clamp takes +2: 0010 then 0
        assert scan_values([0b0000, 0b1000], acceptance_plan) == (0b00100, True)
        assert align_values([0b0000, 0b1000], acceptance_plan) == (0b00100, True)

    def test_oracle_catches_flipped_shift(self, monkeypatch):
        source = textwrap.dedent(inspect.getsource(dist.align_values))
        assert source.count("values[j] + shift") == 1
        namespace = dict(vars(dist))
        exec(source.replace("values[j] + shift", "values[j] - shift"), namespace)
        monkeypatch.setattr(dist, "align_values", namespace["align_values"])
        checks = verify.suite_correct(cases=1000)
        assert len(checks) == 16
        assert all(not check.ok and check.achieved != "0 failures" for check in checks)


class TestNodePhases:
    def test_tail_phases(self, instance, acceptance_plan):
        # node 1 sees s/r itself; node 2 sees frac(2^(l_2 - 1) s / r)
        (_, e0, _), (_, e1, _) = acceptance_plan.nodes
        assert (e0, e1) == (0, acceptance_plan.l[1] - 1)
        assert branch_phase(instance, e0, 2, "a") == Fraction(2, 5)
        assert branch_phase(instance, e1, 2, "a") == Fraction(4, 5)
        # family b carries the exponent: g = 2, so s = 1 gives 2/5
        assert branch_phase(instance, e0, 1, "b") == Fraction(2, 5)

    def test_numerators_are_the_phases(self, instance):
        """The int numerators over r are the phases' numerators, s 2^e mod r
        for a and s g 2^e mod r for b, and the array form over every branch
        equals the int form branch by branch."""
        r, g = instance.r, instance.hidden_g
        for exponent in range(6):
            nums_a, nums_b = node_numerators(instance, exponent, np.arange(r, dtype=np.int64))
            assert nums_a.dtype == nums_b.dtype == np.int64
            for s in range(r):
                num_a, num_b = node_numerators(instance, exponent, s)
                assert (num_a, num_b) == (s * 2**exponent % r, s * g * 2**exponent % r)
                assert (nums_a[s], nums_b[s]) == (num_a, num_b)

    def test_window_masses_meet_budget(self, instance, acceptance_plan):
        bound = 1.0 - float(acceptance_plan.epsilon_prime)
        for s in range(instance.r):
            assert branch_event_mass(instance, acceptance_plan, s) >= bound

    def test_window_masses_analytic_only_plan(self):
        """Three-node plan checked purely in closed form (no simulation)."""
        from distdlog.numtheory import validate_instance

        instance = validate_instance(23, 2, 8)  # r = 11
        plan = make_plan(instance, k=3, h=2, epsilon="0.25", epsilon_prime="0.2")
        bound = 1.0 - float(plan.epsilon_prime)
        for s in range(instance.r):
            assert branch_event_mass(instance, plan, s) >= bound

    def test_zero_branch_mass_is_one(self, instance, acceptance_plan):
        assert branch_event_mass(instance, acceptance_plan, 0) == pytest.approx(1.0)
        for j in range(acceptance_plan.k):
            assert node_window_mass(instance, acceptance_plan, j, 0, "a") == pytest.approx(1.0)


class TestQuantumStage:
    def test_sequential_run_shapes(self, instance, acceptance_plan):
        rng = np.random.default_rng(5)
        pairs, latent_s = run_distributed_quantum(instance, acceptance_plan, rng)
        assert len(pairs) == 2 and latent_s is None
        for (m_a, m_b), width in zip(pairs, acceptance_plan.measured):
            assert type(m_a) is type(m_b) is int
            assert 0 <= m_a < 1 << width and 0 <= m_b < 1 << width

    def test_handoff_accounting_neutral(self, instance, acceptance_plan):
        """Both backends charge the (k - 1) L hand-off qubits, and a seeded
        rerun draws the same node measurements."""
        a = run_distributed_quantum(instance, acceptance_plan, np.random.default_rng(9))
        b = run_distributed_quantum(instance, acceptance_plan, np.random.default_rng(9))
        assert a == b
        for mode in ("statevector", "analytic"):
            record = solve_distributed(
                instance, acceptance_plan, np.random.default_rng(9), mode=mode, reuse_state=False
            )
            assert record.comm_qubits == 4

    def test_analytic_zero_branch_zero_strings(self, instance, acceptance_plan):
        class ZeroRng:
            def integers(self, *a, **k):
                return 0

            def random(self):
                return 0.0

        pairs, latent_s = run_distributed_quantum(
            instance, acceptance_plan, ZeroRng(), mode="analytic"
        )
        assert latent_s == 0
        assert all(ma == 0 and mb == 0 for ma, mb in pairs)

    def test_analytic_nodes_match_joint_law(self, instance, acceptance_plan):
        """20000 seeded analytic node passes against the closed-form joint
        law of all prefixes. Exact multinomial draws of this size from this
        law (65536 cells) have a mean TV of 0.015 and stayed below 0.020 in
        200 simulated batches."""
        law = analytic_joint_distribution(instance, acceptance_plan)
        draws = 20_000
        rng = np.random.default_rng(5)
        counts = np.zeros_like(law)
        for _ in range(draws):
            flat = 0
            nodes, _ = run_distributed_quantum(instance, acceptance_plan, rng, mode="analytic")
            for (m_a, m_b), m in zip(nodes, acceptance_plan.measured):
                flat = (((flat << m) | m_a) << m) | m_b
            counts[flat] += 1
        assert 0.5 * np.abs(counts / draws - law).sum() < 0.025

    def test_joint_laws_agree(self, instance, acceptance_plan):
        sv = statevector_joint_distribution(instance, acceptance_plan)
        an = analytic_joint_distribution(instance, acceptance_plan)
        assert sv.shape == an.shape == (1 << 16,)
        assert 0.5 * np.abs(sv - an).sum() < 1e-9

    def test_joint_laws_agree_three_nodes(self, instance):
        """Exercises a middle node of the chain."""
        sv = statevector_joint_distribution(instance, THREE_NODE_PLAN)
        an = analytic_joint_distribution(instance, THREE_NODE_PLAN)
        assert sv.shape == an.shape == (1 << 14,)
        assert 0.5 * np.abs(sv - an).sum() < 1e-9

    @pytest.mark.parametrize("which", ["small", "acceptance", "three_nodes"])
    def test_joint_law_matches_r_chain(
        self, which, instance, acceptance_plan, small_instance, small_plan
    ):
        """The branch mixture equals the chain that does not assume it."""
        inst, plan = {
            "small": (small_instance, small_plan),
            "acceptance": (instance, acceptance_plan),
            "three_nodes": (instance, THREE_NODE_PLAN),
        }[which]
        got = statevector_joint_distribution(inst, plan)
        assert np.abs(got - r_chain_joint_distribution(inst, plan)).max() <= 1e-15

    def test_joint_law_reaches_wide_work_register(self):
        """N = 311 (r = 5, L = 9): the R chain would need 1 GiB after node 0;
        the branch mixture needs only the per-node blocks."""
        inst = validate_instance(311, 6, 36)
        plan = make_plan(inst, k=2, h=2, epsilon="0.5", epsilon_prime="0.45")
        sv = statevector_joint_distribution(inst, plan)
        an = analytic_joint_distribution(inst, plan)
        assert 0.5 * np.abs(sv - an).sum() < 1e-9

    def test_joint_law_peak_memory(self, instance, acceptance_plan):
        tracemalloc.start()
        try:
            dlp.joint_law.__wrapped__(instance, acceptance_plan.nodes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20

    def test_sequential_sampling_consistent(self, small_instance, small_plan):
        """Honest per-trial sequential runs land in the exact joint law
        (checked on a folded marginal to keep the sample size sane)."""
        joint = statevector_joint_distribution(small_instance, small_plan)
        m1 = small_plan.measured[0]
        rest = joint.reshape(1 << m1, -1).sum(axis=1)
        counts = np.zeros(1 << m1)
        runs = 150
        for i in range(runs):
            rng = np.random.default_rng((31, i))
            pairs, _ = run_distributed_quantum(small_instance, small_plan, rng)
            counts[pairs[0][0]] += 1
        assert 0.5 * np.abs(counts / runs - rest).sum() < 0.25

    def test_transfer_stack_equals_per_column_builds(
        self, instance, acceptance_plan, small_instance, small_plan
    ):
        """The stack built from one simulation on |1> equals the gate-level
        circuit on every unit column, amplitude for amplitude, also on the
        units off the orbit of a, where the fused kernel does not run."""
        for inst, plan in ((small_instance, small_plan), (instance, acceptance_plan)):
            units = np.array([c for c in range(1, inst.N) if math.gcd(c, inst.N) == 1])
            for node in range(plan.k):
                stack = _node_transfer_states(inst, plan, node, units)
                for i, c in enumerate(units):
                    state = gate_stage_state(inst, plan.t[node], plan.l[node] - 1, int(c))
                    assert np.array_equal(stack[:, :, i].reshape(-1), state.amps), (node, c)

    def test_transfer_stack_refuses_non_units(self, instance, acceptance_plan):
        for column in (0, instance.N, instance.N + 1):
            with pytest.raises(ValueError, match="not a unit"):
                _node_transfer_states(instance, acceptance_plan, 0, np.array([1, column]))

    def test_decode_round_trip(self, acceptance_plan):
        rng = np.random.default_rng(2)
        for _ in range(50):
            flat = int(rng.integers(1 << 16))
            nodes = decode_joint_index(flat, acceptance_plan.nodes)
            rebuilt = 0
            for (m_a, m_b), m in zip(nodes, acceptance_plan.measured):
                assert 0 <= m_a < 1 << m and 0 <= m_b < 1 << m
                rebuilt = (((rebuilt << m) | m_a) << m) | m_b
            assert rebuilt == flat


BRANCH_CHAINS = [
    "N7", "N11", "N23", "acceptance", "three_nodes", "N311", "N2147483647-r7", "N2147483647-r31",
]


def branch_chain(which: str) -> tuple[ProblemInstance, dlp.Chain]:
    """The one-node chains N = 7, 11 and 23 at eps = 1/4, the acceptance and
    three-node plans on N = 11, N = 311 (k = 2, h = 2, eps = 1/2,
    eps' = 0.45), and N = 2^31 - 1 (L = 31), whose work register is the
    widest: Alg. 2 at a of order 7 (45 qubits) and the k = 2, h = 2,
    eps = 1/4, eps' = 1/5 plan at a of order 31 (49 qubits a node)."""
    one_node = {"N7": (7, 2, 4), "N11": (11, 3, 9), "N23": (23, 2, 8),
                "N2147483647-r7": (2147483647, 1205362885, 894255406)}
    if which in one_node:
        inst = validate_instance(*one_node[which])
        t = ShorConfig.for_instance(inst, "0.25").t
        return inst, ((t, 0, t),)
    if which == "N2147483647-r31":
        inst = validate_instance(2147483647, 512, 134217728)
        return inst, make_plan(inst, k=2, h=2, epsilon="0.25", epsilon_prime="0.2").nodes
    if which == "N311":
        inst = validate_instance(311, 6, 36)
        return inst, make_plan(inst, k=2, h=2, epsilon="0.5", epsilon_prime="0.45").nodes
    inst = validate_instance(11, 3, 9)
    if which == "acceptance":
        return inst, make_plan(inst, k=2, h=2, epsilon="0.25", epsilon_prime="0.2").nodes
    return inst, THREE_NODE_PLAN.nodes


class TestBranchLaws:
    @pytest.mark.parametrize("which", BRANCH_CHAINS)
    def test_backends_agree_row_for_row(self, which):
        """Row i of both backends is branch -i mod r: the circuit's and the
        closed form's per-branch laws agree row for row, and each row is a
        law. The mixture cannot see a relabelling of the branches; this can.
        The joint laws mixed from them are within 1e-9 in TV."""
        inst, nodes = branch_chain(which)
        sv = dlp.branch_laws(inst, nodes, "statevector")
        an = dlp.branch_laws(inst, nodes, "analytic")
        assert len(sv) == len(an) == len(nodes)
        for (_, _, m), got, want in zip(nodes, sv, an):
            assert got.shape == want.shape == (inst.r, 1 << (2 * m))
            assert np.abs(got - want).max() <= 1e-12
            assert np.abs(got.sum(axis=1) - 1.0).max() <= 1e-12
            assert np.abs(want.sum(axis=1) - 1.0).max() <= 1e-12
        sv = dlp.joint_law.__wrapped__(inst, nodes)
        an = dlp.joint_law.__wrapped__(inst, nodes, "analytic")
        assert 0.5 * np.abs(sv - an).sum() <= 1e-9

    def test_refuses_unknown_mode(self, instance, acceptance_plan):
        with pytest.raises(ValueError, match="mode must be one of"):
            dlp.branch_laws(instance, acceptance_plan.nodes, "dense")

    @pytest.mark.parametrize("which", BRANCH_CHAINS)
    def test_analytic_law_equals_per_branch_loop(self, which):
        inst, nodes = branch_chain(which)
        got = dlp.joint_law(inst, nodes, "analytic")
        assert np.abs(got - analytic_joint_law_loop(inst, nodes)).max() <= 1e-15
        assert not got.flags.writeable

    def test_analytic_law_builds_no_one_phase_law(self, monkeypatch):
        """Every branch's laws come from one row-kernel call per register:
        no one-phase law is built or folded."""

        def refuse(*args, **kwargs):
            raise AssertionError("the analytic law went one phase at a time")

        inst, nodes = branch_chain("three_nodes")
        want = analytic_joint_law_loop(inst, nodes)
        monkeypatch.setattr(phase, "phase_outcome_distribution", refuse)
        monkeypatch.setattr(phase, "prefix_marginal", refuse)
        got = dlp.joint_law.__wrapped__(inst, nodes, "analytic")
        assert np.abs(got - want).max() <= 1e-15

    def test_analytic_law_refused_over_cap(self, instance, acceptance_plan, monkeypatch):
        """The analytic law shares the state-vector law's byte cap, checked
        before any law row is built."""

        def refuse(*args, **kwargs):
            raise AssertionError("a law row was built")

        law_bytes = 3 * 8 * (1 << (2 * sum(acceptance_plan.measured)))
        monkeypatch.setattr(statevec, "BYTES_CAP", law_bytes - 1)
        monkeypatch.setattr(phase, "outcome_laws", refuse)
        with pytest.raises(QubitBudgetError, match="joint law needs"):
            dlp.joint_law.__wrapped__(instance, acceptance_plan.nodes, "analytic")

    def test_analytic_row_tables_refused_over_cap(self, monkeypatch):
        """At r = 16001 the chain ((14, 0, 2),) has a 16-entry law, but its
        two (r, 2^14) row tables come to GiBs: the cap counts them, so the
        build is refused before the row kernel runs."""

        def refuse(*args, **kwargs):
            raise AssertionError("a row table was built")

        inst = validate_instance(32003, 4, 17236)
        monkeypatch.setattr(phase, "outcome_laws", refuse)
        with pytest.raises(QubitBudgetError, match="joint law needs"):
            dlp.joint_law.__wrapped__(inst, ((14, 0, 2),), "analytic")

    @pytest.mark.parametrize(
        "nodes", [((7, 0, 1),), ((6, 0, 2), (5, 3, 3))], ids=["one-node", "two-node"]
    )
    def test_analytic_row_bytes_bound_the_build(self, nodes):
        """``_ROW_BYTES`` per entry of the widest row table, plus the kept
        (r, 4^m) tables, bounds ``branch_laws``' tracemalloc peak."""
        inst = validate_instance(32003, 4, 17236)
        widest = max(1 << t for t, _, _ in nodes)
        kept = sum(1 << (2 * m) for _, _, m in nodes)
        tracemalloc.start()
        try:
            laws = dlp.branch_laws(inst, nodes, "analytic")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(laws) == len(nodes)
        assert peak <= inst.r * (dlp._ROW_BYTES * widest + 8 * kept)

    @pytest.mark.parametrize(
        "N, a, nodes",
        [(11, 3, ((7, 0, 7),)), (11, 3, ((8, 0, 4), (8, 1, 4))), (23, 2, ((8, 0, 8),)),
         (47, 2, ((9, 0, 5), (9, 2, 5))), (59, 3, ((9, 0, 9),)), (59, 3, ((9, 0, 5), (9, 2, 5))),
         (8209, 3265, ((5, 0, 5),))],
        ids=["N11-one-node", "N11-two-node", "N23-one-node", "N47-two-node", "N59-one-node",
             "N59-two-node", "N8209-wide-register"],
    )
    def test_statevector_build_bytes_bound_the_build(self, N, a, nodes):
        """``_build_bytes`` bounds ``branch_laws``' state-vector tracemalloc
        peak from cold modmul, orbit and table caches, kept tables included:
        ``_CELL_BYTES`` per entry of the widest m_a cell, plus the complex
        r-entry work vector. At N = 8209 (r = 3, L = 14) the cell has 96
        entries and the peak, 39,672 bytes, is within 10% of the bound; at
        N = 59 the one-node chain keeps 58 MiB of tables, and the two-node
        chain's widest cell has 237,568 entries."""
        from distdlog import statevec

        inst = validate_instance(N, a, a * a % N)
        dlp.branch_laws(validate_instance(7, 2, 4), ((3, 0, 3),), "statevector")  # imports
        for cached in (statevec._modmul_destinations, dlp.node_tables):
            cached.cache_clear()
        tracemalloc.start()
        try:
            laws = dlp.branch_laws(inst, nodes, "statevector")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(laws) == len(nodes)
        assert peak <= dlp._build_bytes(inst, nodes, "statevector")

    def test_statevector_build_peak_at_n47(self):
        """The N = 47 (r = 23), k = 2, h = 2 build from cold caches peaks
        under 32 MiB by tracemalloc: one m_a cell of 2^4 rows is built at a
        time, where two complex copies of a node's whole (2^9, 2^9, 23)
        block came to 185 MiB."""
        from distdlog import statevec

        inst = validate_instance(47, 2, 4)
        nodes = make_plan(inst, k=2, h=2, epsilon="0.25", epsilon_prime="0.2").nodes
        dlp.branch_laws(validate_instance(7, 2, 4), ((3, 0, 3),), "statevector")  # imports
        for cached in (statevec._modmul_destinations, dlp.node_tables):
            cached.cache_clear()
        tracemalloc.start()
        try:
            dlp.branch_laws(inst, nodes, "statevector")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20

    @pytest.mark.parametrize("chain", ["alg2", "k2"])
    def test_n59_laws_cached_and_exact(self, chain):
        """N = 59, a = 3 (r = 29, L = 6): Alg. 2 at epsilon = 1/4 (t = 9)
        and the k = 2, h = 2 plan have 6 MiB and 24 MiB laws, which, built
        one cell at a time, fit the byte cap together with their build and
        are within 1e-9 TV of the analytic laws."""
        inst = validate_instance(59, 3, 9)
        nodes = {
            "alg2": ((ShorConfig.for_instance(inst, "0.25").t, 0, 9),),
            "k2": make_plan(inst, k=2, h=2, epsilon="0.25", epsilon_prime="0.2").nodes,
        }[chain]
        assert nodes in (((9, 0, 9),), ((9, 0, 5), (9, 2, 5)))
        sv = dlp.joint_law.__wrapped__(inst, nodes)
        an = dlp.joint_law.__wrapped__(inst, nodes, "analytic")
        assert 0.5 * np.abs(sv - an).sum() <= 1e-9

    def test_statevector_build_counted_against_cap(self, monkeypatch):
        """The build's charge counts against the cap: with the cap one byte
        below the N = 59 Alg. 2 law and its build together, the law is
        refused before the node runs (the solvers then run the chain
        fresh)."""
        def refuse(*args, **kwargs):
            raise AssertionError("the node ran")

        inst = validate_instance(59, 3, 9)
        nodes = ((9, 0, 9),)
        need = 3 * 8 * (1 << 18) + dlp._build_bytes(inst, nodes, "statevector")
        monkeypatch.setattr(statevec, "BYTES_CAP", need - 1)
        monkeypatch.setattr(dlp, "node_columns", refuse)
        with pytest.raises(QubitBudgetError, match=r"^joint law needs about 66 MiB \(cap 66"):
            dlp.joint_law.__wrapped__(inst, nodes)


class TestStepSevenState:
    def test_node_register_marginal_is_branch_average(self, instance, acceptance_plan):
        """The first node's counting-register law equals the branch average
        of the closed-form distributions; the work register is never measured."""
        from distdlog import statevec
        from distdlog.phase import phase_outcome_distribution

        state = build_stage_state(
            instance, acceptance_plan.t[0], acceptance_plan.l[0] - 1, 1
        )
        got = statevec.marginal_distribution(state, "a", acceptance_plan.t[0])
        want = sum(
            phase_outcome_distribution(
                branch_phase(instance, acceptance_plan.l[0] - 1, s, "a"), acceptance_plan.t[0]
            )
            for s in range(instance.r)
        ) / instance.r
        assert 0.5 * np.abs(got - want).sum() < 1e-9

    def test_factorised_form_certified(self, instance, acceptance_plan):
        report = compare_step7_state(instance, acceptance_plan)
        assert report.max_amplitude_deviation <= 1e-9
        assert report.factorization_residual == 0.0
        assert len(report.per_branch_deviation) == instance.r

    @staticmethod
    def plan_of(which, instance, acceptance_plan, small_instance, small_plan):
        return {
            "small": (small_instance, small_plan),
            "acceptance": (instance, acceptance_plan),
            "three_nodes": (instance, THREE_NODE_PLAN),
        }[which]

    @pytest.mark.parametrize("which", ["small", "acceptance", "three_nodes"])
    def test_node_block_shifts_along_orbit(
        self, which, instance, acceptance_plan, small_instance, small_plan
    ):
        """The premise of reading branches off one run on |1>: every node's
        block on |a^k> is its block on |1> shifted k places along the orbit,
        bit for bit."""
        inst, plan = self.plan_of(which, instance, acceptance_plan, small_instance, small_plan)
        for t, exponent, _ in plan.nodes:
            block, live = node_block(inst, t, exponent, 1)
            for k in range(inst.r):
                shifted, shifted_live = node_block(inst, t, exponent, pow(inst.a, k, inst.N))
                assert np.array_equal(shifted_live, live)
                back = np.searchsorted(live, live * pow(inst.a, -k, inst.N) % inst.N)
                assert np.array_equal(shifted, block[:, :, back])

    @pytest.mark.parametrize("which", ["small", "acceptance", "three_nodes"])
    def test_equals_whole_block_reference(
        self, which, instance, acceptance_plan, small_instance, small_plan, monkeypatch
    ):
        """One m_a cell at a time gives the report of the whole blocks
        exactly: the maxima over the cells are those over the blocks, and the
        residual adds the same rows in the same order."""
        inst, plan = self.plan_of(which, instance, acceptance_plan, small_instance, small_plan)
        got = compare_step7_state(inst, plan)
        monkeypatch.setattr(dist, "_node_terms", fullwidth.node_terms)
        assert compare_step7_state(inst, plan) == got

    def test_one_node_cell_at_a_time(self, instance, monkeypatch):
        """Each node runs twice, on |a> and on |1>: 2k runs of the a stage,
        not r k. The |1> block goes through the b stage one m_a cell at a
        time and the run on |a> one row at a time, so no whole block is
        built; when a cell is built at most the one before it is alive, and
        the report is unchanged."""
        plan = THREE_NODE_PLAN
        want = compare_step7_state(instance, plan)
        rows, columns, node_cells = dlp.node_rows, dlp.node_columns, dlp.node_cells
        works, cells = [], []

        def count_columns(*args, **kwargs):
            works.append(args[3] if len(args) > 3 else kwargs.get("work", 1))
            return columns(*args, **kwargs)

        def no_block(cols, places):
            if len(cols) == len(places):
                raise AssertionError("a whole block was built")
            return rows(cols, places)

        def track_cells(inst, t, exponent, m):
            for cell in node_cells(inst, t, exponent, m):
                assert cell.shape == (1 << (t - m), 1 << t, inst.r)
                if sum(ref() is not None for ref in cells) > 1:
                    raise AssertionError("more than one earlier cell is alive")
                cells.append(weakref.ref(cell))
                yield cell

        monkeypatch.setattr(dlp, "node_columns", count_columns)
        monkeypatch.setattr(dlp, "node_rows", no_block)
        monkeypatch.setattr(dlp, "node_cells", track_cells)
        assert compare_step7_state(instance, plan) == want
        assert works == [instance.a, 1] * plan.k
        assert len(cells) == sum(1 << m for m in plan.measured)

    @pytest.mark.parametrize(
        "N, a, b",
        [(23, 2, 3), (47, 2, 4), (59, 3, 9),
         (2147483647, 1205362885, 894255406), (2147483647, 512, 134217728)],
    )
    def test_peak_memory_within_build_bound(self, N, a, b):
        """The check holds at most what the law build may, ``dlp._build_bytes``
        (``_CELL_BYTES`` per entry of the widest m_a cell), from cold caches:
        one cell of the |1> block and its transform, one row of the |a> run
        and the closed-form amplitudes of every branch. Its certified
        deviation is within 1e-9, also at N = 2^31 - 1 (L = 31, r = 7 and
        31), whose nodes have 47 and 49 qubits."""
        from distdlog import statevec

        inst = validate_instance(N, a, b)
        plan = make_plan(inst, k=2, h=2, epsilon="0.25", epsilon_prime="0.2")
        statevec._modmul_destinations.cache_clear()
        dlp.node_tables.cache_clear()
        tracemalloc.start()
        try:
            report = compare_step7_state(inst, plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.factorization_residual == 0.0
        assert report.max_amplitude_deviation <= 1e-9
        assert peak <= dlp._build_bytes(inst, plan.nodes, "statevector")

    def test_oversize_plan_refused_before_any_node_runs(self, monkeypatch):
        """The check sizes itself by the law build's bound: at r = 16001 it
        is refused before the a stage of any node runs."""

        def refuse(*args, **kwargs):
            raise AssertionError("a node ran")

        inst = validate_instance(32003, 4, 17236)
        plan = make_plan(inst, k=2, epsilon="0.25", epsilon_prime="0.2")
        monkeypatch.setattr(dlp, "node_columns", refuse)
        with pytest.raises(QubitBudgetError, match="step-7 check needs"):
            compare_step7_state(inst, plan)

    @pytest.mark.parametrize("which", ["small", "acceptance", "three_nodes"])
    def test_live_blocks_match_whole_state(
        self, which, instance, acceptance_plan, small_instance, small_plan
    ):
        """The branch blocks read off one run of each node on |1> give the
        per-branch deviations of the same check run on every node's full
        state on every u_s, and that reference measures the factorisation
        and the expansion of |1> over the u_s as exact. Its bound adds those
        residuals, so it is never below the check's."""
        inst, plan = self.plan_of(which, instance, acceptance_plan, small_instance, small_plan)
        got = compare_step7_state(inst, plan)
        want = whole_state_step7(inst, plan)
        assert len(got.per_branch_deviation) == len(want.per_branch_deviation) == inst.r
        pairs = list(zip(got.per_branch_deviation, want.per_branch_deviation))
        assert all(abs(x - y) <= 1e-15 for x, y in pairs), pairs
        assert got.max_amplitude_deviation <= want.max_amplitude_deviation + 1e-15
        assert want.factorization_residual <= 1e-12
        assert want.basis_residual <= 1e-12


class TestSolveDistributed:
    def test_success_verifies(self, instance, acceptance_plan):
        record = solve_distributed(
            instance, acceptance_plan, np.random.default_rng(21), max_retries=20
        )
        assert record.success
        assert record.g_hat == instance.hidden_g
        assert pow(instance.a, record.g_hat, instance.N) == instance.b
        assert record.width == acceptance_plan.total_width
        assert record.measured == acceptance_plan.measured
        assert record.comm_qubits == 4
        assert record.resources.qubits_per_node_alg4 == 20

    @pytest.mark.parametrize("mode", ["statevector", "analytic"])
    def test_resource_report_built_once(self, instance, acceptance_plan, mode):
        """Every record of a (instance, plan, mode) shares one report, and
        its fields are the ``resources`` formulas."""
        first, second = (
            solve_distributed(instance, acceptance_plan, np.random.default_rng(i), mode=mode)
            for i in range(2)
        )
        report = first.resources
        assert second.resources is report and second.header is first.header
        assert report.qubits_single_node_alg2 == single_node_qubits(
            instance.r, instance.L, acceptance_plan.epsilon
        )
        per_node = per_node_qubits_from_widths(acceptance_plan.t, instance.L)
        assert report.qubits_per_node_alg4 == per_node
        assert report.comm_qubits == communication_qubits(acceptance_plan.k, instance.L)
        assert report.simulated_qubits_actual == per_node * (mode == "statevector")

    def test_fresh_runs_and_reuse_agree_in_law(self, small_instance, small_plan):
        wins_reuse = sum(
            solve_distributed(
                small_instance, small_plan, np.random.default_rng((3, i)), max_retries=1
            ).success
            for i in range(200)
        )
        wins_fresh = sum(
            solve_distributed(
                small_instance,
                small_plan,
                np.random.default_rng((3, i)),
                max_retries=1,
                reuse_state=False,
            ).success
            for i in range(200)
        )
        assert abs(wins_reuse - wins_fresh) < 50

    def test_analytic_mode(self, instance, acceptance_plan):
        record = solve_distributed(
            instance,
            acceptance_plan,
            np.random.default_rng(8),
            mode="analytic",
            max_retries=20,
        )
        assert record.success
        assert record.latent_s is not None
        assert record.node_measurements is not None

    def test_budget_fallback_runs_nodes_per_attempt(self):
        """When the cached joint law is too large to build, the solver falls
        back to honest per-attempt sequential runs."""
        from distdlog.numtheory import validate_instance

        instance = validate_instance(23, 2, 8)  # r = 11, L = 5
        plan = make_plan(instance, k=3, h=2, epsilon="0.6", epsilon_prime="0.5")
        assert max(plan.t) == 8
        with pytest.raises(QubitBudgetError):
            statevector_joint_distribution(instance, plan)
        record = solve_distributed(
            instance, plan, np.random.default_rng(13), max_retries=2
        )
        assert (record.width, record.measured) == (plan.total_width, plan.measured)
        assert record.m_a < 1 << plan.total_width
        assert all(
            ma < 1 << width for (ma, _), width in zip(record.node_measurements, plan.measured)
        )

    def test_one_cached_law_per_chain(self, instance, acceptance_plan):
        """Both solvers and ``statevector_joint_distribution`` share
        ``dlp.joint_law``'s cache: one entry per chain, built once."""
        dlp.joint_law.cache_clear()
        dlp.joint_cdf.cache_clear()
        law = statevector_joint_distribution(instance, acceptance_plan)
        assert law is dlp.joint_law(instance, acceptance_plan.nodes)
        config = ShorConfig.for_instance(instance, "0.25", max_retries=2)
        for i in range(20):
            solve(instance, config, np.random.default_rng((12, i)))
            rng = np.random.default_rng((12, i))
            solve_distributed(instance, acceptance_plan, rng, max_retries=2)
        for cached in (dlp.joint_law, dlp.joint_cdf):
            info = cached.cache_info()
            assert (info.currsize, info.misses) == (2, 2), cached.__name__
        assert statevector_joint_distribution(instance, acceptance_plan) is law

    def test_record_serialises(self, instance, acceptance_plan):
        import json

        record = solve_distributed(
            instance, acceptance_plan, np.random.default_rng(4), max_retries=5
        )
        payload = record.to_json_dict()
        assert len(payload["node_measurements"]) == 2
        json.dumps(payload)


class TestSolveChain:
    """Both solvers run ``dlp.solve_chain``, so they share its checks and
    its stage policy."""

    @pytest.mark.parametrize("algorithm", ["alg2", "alg4"])
    def test_joint_tensor_guard_falls_back(
        self, instance, acceptance_plan, monkeypatch, algorithm
    ):
        """A joint law whose three float64 arrays (law, branch term, CDF)
        exceed the byte cap is refused before any node runs, and either
        solver then runs the nodes per attempt, with full-width pairs,
        and keeps no memo of cached outcomes."""
        if algorithm == "alg2":
            config = ShorConfig.for_instance(instance, "0.25", max_retries=3)
            nodes, width = ((config.t, 0, config.t),), config.t
            run = lambda rng: solve(instance, config, rng)
        else:
            nodes, width = acceptance_plan.nodes, acceptance_plan.total_width
            run = lambda rng: solve_distributed(instance, acceptance_plan, rng, max_retries=3)
        law_bytes = 3 * 8 * (1 << (2 * sum(m for _, _, m in nodes)))
        monkeypatch.setattr(statevec, "BYTES_CAP", law_bytes - 1)
        dlp.joint_law.cache_clear()
        dlp.joint_cdf.cache_clear()
        calls = []
        measure_node = dlp.measure_node

        def refuse(*args, **kwargs):
            raise AssertionError("a law was built or drawn from")

        def count(*args, **kwargs):
            calls.append(args)
            return measure_node(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(dlp, "node_columns", refuse)
            with pytest.raises(QubitBudgetError, match="joint law needs"):
                dlp.joint_law(instance, nodes)
        monkeypatch.setattr(dlp, "measure_node", count)
        monkeypatch.setattr(dlp, "decode_joint_index", refuse)
        record = run(np.random.default_rng(3))
        assert len(calls) == len(nodes) * (record.retries + 1)  # fresh runs
        assert dlp.joint_cdf.cache_info().currsize == 0  # no memo made or filled
        assert record.width == width and max(record.m_a, record.m_b) < 1 << width
        pairs = record.node_measurements or ((record.m_a, record.m_b),)
        assert len(pairs) == len(nodes)
        assert all(max(pair) < 1 << m for pair, (_, _, m) in zip(pairs, nodes))

    def test_checks_mode_and_attempts(self, instance, acceptance_plan):
        """Both solvers get the loop's checks, before any stage runs."""
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="mode must be one of"):
            solve_distributed(instance, acceptance_plan, rng, mode="dense")
        with pytest.raises(ValueError, match="max_retries must be >= 1"):
            solve_distributed(instance, acceptance_plan, rng, max_retries=0)
        config = ShorConfig(epsilon=Fraction(1, 4), t=7, max_retries=0)
        with pytest.raises(ValueError, match="max_retries must be >= 1"):
            solve(instance, config, rng)


class TestCachedOutcomes:
    """``dlp.solve_chain``'s cached-law attempts: each drawn flat index is
    decoded, joined and verified once per chain and join, and a repeat
    draw reuses that outcome from the memo in ``joint_cdf``'s entry."""

    @pytest.fixture(autouse=True)
    def empty_memos(self):
        """Each test starts with no ``joint_cdf`` entry and leaves none, so
        no filled memo outlives it."""
        dlp.joint_cdf.cache_clear()
        yield
        dlp.joint_cdf.cache_clear()

    @staticmethod
    def chains(instance, plan):
        config = ShorConfig.for_instance(instance, "0.25")
        return {
            "alg2": (
                ((config.t, 0, config.t),), dlp.identity_join,
                dlp.single_node_header(instance.L, config.t, "statevector"),
            ),
            "alg4": (plan.nodes, plan.join, dist.record_header(instance, plan, "statevector")),
        }

    @staticmethod
    def draw_in_turn(monkeypatch, flats):
        """Make every cached draw return the next of ``flats``."""
        flats = iter(flats)
        monkeypatch.setattr(dlp.statevec, "sample_cdf", lambda rng, cdf: next(flats))

    @staticmethod
    def expected(instance, nodes, join, header, flat):
        """A fresh decode, join and post-processing of one flat index, as a
        one-attempt record."""
        m_a, m_b, extra = join(decode_joint_index(flat, nodes))
        detail = dlp.postprocess_detail(m_a, m_b, header.width, instance)
        return RunRecord(Outcome(m_a, m_b, detail, **extra), retries=0, header=header)

    @pytest.mark.parametrize("which", ["alg2", "alg4"])
    def test_every_index_equals_a_fresh_outcome(
        self, instance, acceptance_plan, monkeypatch, which
    ):
        """Every flat index of the N = 11 Alg. 2 chain's law (16,384) and of
        the acceptance plan's (65,536), drawn twice: the first draw stores
        its outcome and the second reuses it without decoding or verifying
        again, and both records equal a fresh decode, join and
        post-processing of that index."""
        nodes, join, header = self.chains(instance, acceptance_plan)[which]
        size = len(dlp.joint_law(instance, nodes))
        assert size == (1 << 14 if which == "alg2" else 1 << 16)
        monkeypatch.setattr(dlp, "_OUTCOMES_CAP", size)
        flats = range(size)
        rng = np.random.default_rng(0)  # unread: the draws are patched
        run = lambda: dlp.solve_chain(instance, nodes, rng, 1, True, join, header)
        self.draw_in_turn(monkeypatch, flats)
        records = []
        for flat in flats:
            records.append(run())
            assert records[-1] == self.expected(instance, nodes, join, header, flat)
        _, outcomes = dlp.joint_cdf(instance, nodes)
        assert list(outcomes) == [(join, flat) for flat in flats]

        def refuse(*args, **kwargs):
            raise AssertionError("a memoised draw was decoded or verified again")

        monkeypatch.setattr(dlp, "decode_joint_index", refuse)
        monkeypatch.setattr(dlp, "postprocess_detail", refuse)
        self.draw_in_turn(monkeypatch, flats)
        for record in records:
            assert run() == record
        assert len(outcomes) == size

    @pytest.mark.parametrize("which", ["alg2", "alg4"])
    def test_repeat_draws_give_distinct_records(
        self, instance, acceptance_plan, monkeypatch, which
    ):
        """Two cached solves that draw the same flat index build two records
        on the memo's one outcome: setting one's seed, as
        ``harness.run_batch`` does, leaves the other record and the outcome
        as they were, and neither its m_a nor the outcome's can be set."""
        nodes, join, header = self.chains(instance, acceptance_plan)[which]
        flat = 12345 % len(dlp.joint_law(instance, nodes))
        self.draw_in_turn(monkeypatch, [flat, flat])
        rng = np.random.default_rng(0)  # unread: the draws are patched
        first, second = (
            dlp.solve_chain(instance, nodes, rng, 1, True, join, header) for _ in range(2)
        )
        _, outcomes = dlp.joint_cdf(instance, nodes)
        outcome = outcomes[(join, flat)]
        fresh = self.expected(instance, nodes, join, header, flat)
        assert first is not second and first == second == fresh
        assert first.outcome is second.outcome is outcome
        first.seed = 7
        with pytest.raises(AttributeError):
            first.m_a ^= 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            outcome.m_a ^= 1
        assert second == fresh and second.seed is None
        assert outcomes[(join, flat)] is outcome
        assert outcome == dlp._outcome(
            instance, decode_joint_index(flat, nodes), join, header.width
        )
        assert outcome.m_a == fresh.m_a == first.m_a

    def test_memo_bounded_and_cleared(self, instance, acceptance_plan, monkeypatch):
        """A uniform CDF over the acceptance plan's 65,536 indices drives the
        memo past its cap: it never holds more than ``_OUTCOMES_CAP``
        outcomes, a miss past the cap is still decoded and verified afresh,
        and ``joint_cdf.cache_clear()`` drops the memo with the CDF."""
        nodes, join, header = self.chains(instance, acceptance_plan)["alg4"]
        cap = dlp._OUTCOMES_CAP
        size = 1 << (2 * sum(acceptance_plan.measured))
        uniform = np.arange(1, size + 1) / size
        _, outcomes = dlp.joint_cdf(instance, nodes)
        monkeypatch.setattr(dlp, "joint_cdf", lambda inst, chain: (uniform, outcomes))
        drawn = set()
        for i in range(cap + cap // 2):
            rng = np.random.default_rng((22, i))
            flat = dlp.statevec.sample_cdf(np.random.default_rng((22, i)), uniform)
            drawn.add(flat)
            record = dlp.solve_chain(instance, nodes, rng, 1, True, join, header)
            assert record == self.expected(instance, nodes, join, header, flat)
            assert len(outcomes) <= cap
        assert len(drawn) > cap and len(outcomes) == cap
        monkeypatch.undo()
        dlp.joint_cdf.cache_clear()
        cdf, fresh = dlp.joint_cdf(instance, nodes)
        assert fresh == {} and fresh is not outcomes and cdf is not uniform

    @pytest.mark.parametrize("which", ["alg2", "alg4"])
    def test_entry_bytes_within_stated_worst_case(
        self, instance, acceptance_plan, monkeypatch, which
    ):
        """A memo filled to its cap by distinct draws, each written out as
        the CLI does, so that every entry carries its JSON fields, takes at
        most the 2 KB an entry that ``dlp._OUTCOMES_CAP``'s comment states,
        and 8 such memos fit in 16 MiB (tracemalloc; the records are dropped
        as they come)."""
        nodes, join, header = self.chains(instance, acceptance_plan)[which]
        cap = dlp._OUTCOMES_CAP
        assert 8 * cap * 2048 <= 16 << 20
        _, outcomes = dlp.joint_cdf(instance, nodes)
        flats = np.random.default_rng(23).permutation(1 << (2 * sum(m for _, _, m in nodes)))
        self.draw_in_turn(monkeypatch, (int(f) for f in flats))
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for _ in range(cap):
                dlp.solve_chain(instance, nodes, rng, 1, True, join, header).to_json_dict()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(outcomes) == cap
        assert all(outcome._json is not None for outcome in outcomes.values())
        assert (after - before) / cap <= 2048

    def test_equal_plans_share_one_memo(self, instance):
        """Two batches in one process, each with its own ``make_plan`` on the
        same arguments: both get the one plan, so the second batch draws
        from the outcomes the first memoised and adds no entry. (A second,
        equal plan object would key a second set of entries by its own
        ``join``.)"""
        from distdlog.harness import run_batch

        def batch():
            plan = make_plan(instance, 2, 2, "0.25", "0.2")
            solve = lambda rng: solve_distributed(instance, plan, rng)
            run_batch(solve, trials=300, seed=3, emit=lambda record: None)
            return plan

        first = batch()
        _, outcomes = dlp.joint_cdf(instance, first.nodes)
        entries = dict(outcomes)
        assert entries and {join for join, _ in entries} == {first.join}
        assert batch() is first
        assert outcomes == entries

    def test_joins_keep_separate_entries(self, instance, acceptance_plan, monkeypatch):
        """Alg. 2 and Alg. 4 on one instance fill their own chains' memos,
        keyed by their own joins; on one chain, two joins, even two equal
        plans' alignment passes, never share an entry."""
        config = ShorConfig.for_instance(instance, "0.25", max_retries=4)
        for i in range(50):
            solve(instance, config, np.random.default_rng((24, i)))
            solve_distributed(instance, acceptance_plan, np.random.default_rng((24, i)))
        chains = self.chains(instance, acceptance_plan)
        memos = [dlp.joint_cdf(instance, nodes)[1] for nodes, *_ in chains.values()]
        assert memos[0] is not memos[1]
        for (_, join, _), memo in zip(chains.values(), memos):
            assert memo and {key[0] for key in memo} == {join}

        nodes = acceptance_plan.nodes
        twin = dataclasses.replace(acceptance_plan)
        assert twin == acceptance_plan and twin is not acceptance_plan
        first_pair = lambda pairs: (*pairs[0], {})
        dlp.joint_cdf.cache_clear()
        records = {}
        for name, join in (("plan", acceptance_plan.join), ("twin", twin.join),
                           ("first pair", first_pair)):
            self.draw_in_turn(monkeypatch, [7, 7])
            for _ in range(2):
                width = acceptance_plan.measured[0] if name == "first pair" else twin.total_width
                records.setdefault(name, []).append(dlp.solve_chain(
                    instance, nodes, np.random.default_rng(0), 1, True, join,
                    RecordHeader(width, "statevector"),
                ))
        _, outcomes = dlp.joint_cdf(instance, nodes)
        assert set(outcomes) == {(acceptance_plan.join, 7), (twin.join, 7), (first_pair, 7)}
        assert records["plan"] == records["twin"]
        assert records["plan"][0] == records["plan"][1]
        assert records["first pair"][0].m_a < 1 << acceptance_plan.measured[0]
        assert records["plan"][0].width == acceptance_plan.total_width


def flat_record_json(record) -> dict:
    """A record's ndjson fields written out afresh from its attributes, field
    by field, as records wrote them before they shared their solve's and
    their outcome's JSON fields: the reference for ``to_json_dict``."""
    bits = lambda value, width: bin(value)[2:].zfill(width)
    payload = {
        "m_a": bits(record.m_a, record.width),
        "m_b": bits(record.m_b, record.width),
        "mhat_a": record.mhat_a,
        "mhat_b": record.mhat_b,
        "g_hat": record.g_hat,
        "retries": record.retries,
        "success": record.success,
        "mode": record.mode,
        "seed": record.seed,
    }
    if record.latent_s is not None:
        payload["latent_s"] = record.latent_s
    if record.node_measurements is not None:
        payload["node_measurements"] = [
            {"m_a": bits(ma, m), "m_b": bits(mb, m)}
            for (ma, mb), m in zip(record.node_measurements, record.measured)
        ]
        payload["comm_qubits"] = record.comm_qubits
        payload["correct_fallback"] = record.correct_fallback
    if record.resources is not None:
        payload["resources"] = record.resources.to_json_dict()
    return payload


class TestSharedOutcomes:
    """A record holds its solve's ``RecordHeader`` and its last attempt's
    ``Outcome``, which a cached solve shares with every record that draws
    the same memo entry, JSON fields included; only ``retries``, ``seed``
    and ``latent_s`` are its own."""

    SOLVERS = [f"{alg}-{path}" for alg in ("alg2", "alg4") for path in ("cached", "fresh", "analytic")]

    @staticmethod
    def solver(instance, plan, name):
        algorithm, path = name.split("-")
        mode = "analytic" if path == "analytic" else "statevector"
        reuse = path != "fresh"
        if algorithm == "alg2":
            config = ShorConfig.for_instance(instance, "0.25", max_retries=2, mode=mode)
            return lambda rng: solve(instance, config, rng, reuse_state=reuse)
        return lambda rng: solve_distributed(
            instance, plan, rng, mode=mode, max_retries=2, reuse_state=reuse
        )

    @pytest.mark.parametrize("name", SOLVERS)
    def test_lines_equal_flat_records(self, instance, acceptance_plan, name):
        """Over 60 seeded trials, each record's line, with its seed set by
        ``dataclasses.replace`` or in place as ``harness.run_batch`` does, is
        the line of its fields written out afresh."""
        solve_one = self.solver(instance, acceptance_plan, name)
        for i in range(60):
            record = solve_one(np.random.default_rng((31, i)))
            want = cli._json_line({**flat_record_json(record), "seed": i})
            assert cli._json_line(dataclasses.replace(record, seed=i).to_json_dict()) == want
            assert record.seed is None
            record.seed = i
            assert cli._json_line(record.to_json_dict()) == want

    @pytest.mark.parametrize("name", SOLVERS)
    def test_one_header_per_solve(self, instance, acceptance_plan, name):
        """Every record of one solver configuration holds the same header."""
        solve_one = self.solver(instance, acceptance_plan, name)
        first, second = (solve_one(np.random.default_rng((32, i))) for i in range(2))
        assert first.header is second.header
        assert first.header.json is second.header.json

    def test_records_of_one_entry_equal_by_value(self, instance, acceptance_plan, monkeypatch):
        """Records drawn from one memo entry hold its one ``Outcome`` and
        equal each other, and a record on an equal, freshly made outcome
        whose JSON fields were never built: the cached fields take no part
        in equality or hashing."""
        plan = acceptance_plan
        dlp.joint_cdf.cache_clear()
        flats = iter([7] * 3)
        monkeypatch.setattr(dlp.statevec, "sample_cdf", lambda rng, cdf: next(flats))
        records = [
            solve_distributed(instance, plan, np.random.default_rng(0), max_retries=1)
            for _ in range(3)
        ]
        records[0].to_json_dict()  # builds the entry's JSON fields
        fresh = dlp._outcome(instance, decode_joint_index(7, plan.nodes), plan.join, plan.total_width)
        shared = records[0].outcome
        assert all(record.outcome is shared for record in records)
        assert fresh._json is None and shared._json is not None
        assert fresh == shared and hash(fresh) == hash(shared)
        assert records[0] == records[1] == records[2] == RunRecord(fresh, 0, records[0].header)
        dlp.joint_cdf.cache_clear()

    def test_json_dict_is_fresh(self, instance, acceptance_plan, monkeypatch):
        """``to_json_dict`` returns a new top-level dict on every call, so
        changing one leaves the shared fields, and the next record's line,
        as they were."""
        plan = acceptance_plan
        dlp.joint_cdf.cache_clear()
        flats = iter([7] * 2)
        monkeypatch.setattr(dlp.statevec, "sample_cdf", lambda rng, cdf: next(flats))
        first, second = (
            solve_distributed(instance, plan, np.random.default_rng(0), max_retries=1)
            for _ in range(2)
        )
        assert first.outcome is second.outcome
        line = cli._json_line(second.to_json_dict())
        payload = first.to_json_dict()
        assert payload is not first.to_json_dict()
        payload["m_a"] = "0"
        payload["g_hat"] = -1
        del payload["mode"], payload["resources"]
        payload["extra"] = True
        assert cli._json_line(second.to_json_dict()) == line
        assert line == cli._json_line(flat_record_json(second))
        assert first.to_json_dict() == flat_record_json(first)
        dlp.joint_cdf.cache_clear()

    @staticmethod
    def memoised_record(instance, plan, monkeypatch, flat=7):
        """A one-attempt Alg. 4 record on the memo entry of ``flat``, from an
        emptied memo, with seed 3."""
        dlp.joint_cdf.cache_clear()
        monkeypatch.setattr(dlp.statevec, "sample_cdf", lambda rng, cdf: flat)
        record = solve_distributed(instance, plan, np.random.default_rng(0), max_retries=1)
        record.seed = 3
        _, outcomes = dlp.joint_cdf(instance, plan.nodes)
        assert outcomes[(plan.join, flat)] is record.outcome
        return record

    MUTATORS = {
        "setitem": lambda d: d.__setitem__("g_hat", -1),
        "delitem": lambda d: d.__delitem__("mode"),
        "update": lambda d: d.update(extra=True),
        "pop": lambda d: d.pop("resources"),
        "popitem": lambda d: d.popitem(),
        "setdefault": lambda d: d.setdefault("extra", [1, 2]),
        "clear": lambda d: d.clear(),
        "ior": lambda d: operator.ior(d, {"m_a": "0", "seed": None}),
    }

    @pytest.mark.parametrize("mutate", MUTATORS)
    def test_mutators_drop_the_line(self, instance, acceptance_plan, monkeypatch, mutate):
        """A memoised record's mapping carries its spliced line, and after any
        mutator it is encoded afresh, as ``json.dumps(payload,
        sort_keys=True)``; the next record's line is as before."""
        record = self.memoised_record(instance, acceptance_plan, monkeypatch)
        payload = record.to_json_dict()
        assert isinstance(payload, SplicedRecord) and payload.line is not None
        line = cli._json_line(payload)
        assert line == json.dumps(payload, sort_keys=True)
        self.MUTATORS[mutate](payload)
        assert payload.line is None
        assert cli._json_line(payload) == json.dumps(payload, sort_keys=True) != line
        assert cli._json_line(record.to_json_dict()) == line
        dlp.joint_cdf.cache_clear()

    NESTED_MUTATORS = {
        "resources-setitem": lambda d: d["resources"].__setitem__("comm_qubits", 99),
        "resources-delitem": lambda d: d["resources"].__delitem__("comm_qubits"),
        "resources-update": lambda d: d["resources"].update(comm_qubits=99),
        "resources-pop": lambda d: d["resources"].pop("comm_qubits"),
        "resources-popitem": lambda d: d["resources"].popitem(),
        "resources-setdefault": lambda d: d["resources"].setdefault("extra", 1),
        "resources-clear": lambda d: d["resources"].clear(),
        "resources-ior": lambda d: operator.ior(d["resources"], {"comm_qubits": 99}),
        "nodes-setitem": lambda d: d["node_measurements"].__setitem__(0, {}),
        "nodes-delitem": lambda d: d["node_measurements"].__delitem__(0),
        "nodes-iadd": lambda d: operator.iadd(d["node_measurements"], [{}]),
        "nodes-imul": lambda d: operator.imul(d["node_measurements"], 2),
        "nodes-append": lambda d: d["node_measurements"].append({}),
        "nodes-clear": lambda d: d["node_measurements"].clear(),
        "nodes-extend": lambda d: d["node_measurements"].extend([{}]),
        "nodes-insert": lambda d: d["node_measurements"].insert(0, {}),
        "nodes-pop": lambda d: d["node_measurements"].pop(),
        "nodes-remove": lambda d: d["node_measurements"].remove(d["node_measurements"][0]),
        "nodes-reverse": lambda d: d["node_measurements"].reverse(),
        "nodes-sort": lambda d: d["node_measurements"].sort(key=len),
        "node-setitem": lambda d: d["node_measurements"][0].__setitem__("m_a", "0"),
        "node-update": lambda d: d["node_measurements"][1].update(m_b="0"),
    }

    @pytest.mark.parametrize("mutate", NESTED_MUTATORS)
    def test_nested_values_are_read_only(self, instance, acceptance_plan, monkeypatch, mutate):
        """The nested values a record shares with its header (``resources``)
        and its outcome (``node_measurements`` and its entries) refuse every
        mutator with TypeError, so the spliced line, this record's and the
        next one's, stays ``json.dumps(payload, sort_keys=True)``."""
        record = self.memoised_record(instance, acceptance_plan, monkeypatch)
        payload = record.to_json_dict()
        line = payload.line
        with pytest.raises(TypeError, match="read-only"):
            self.NESTED_MUTATORS[mutate](payload)
        assert payload.line == line == json.dumps(payload, sort_keys=True)
        assert payload == flat_record_json(record)
        assert cli._json_line(record.to_json_dict()) == line
        dlp.joint_cdf.cache_clear()

    @pytest.mark.parametrize("name", SOLVERS)
    def test_nested_values_read_only_on_every_path(self, instance, acceptance_plan, name):
        """Cached, fresh and analytic records alike: the nested values refuse
        a change and equal, and encode as, plain dicts and lists; a copy,
        deep or pickled, is plain and can be changed."""
        solve_one = self.solver(instance, acceptance_plan, name)
        record = solve_one(np.random.default_rng((35, 0)))
        payload = record.to_json_dict()
        nested = [payload["resources"]]
        if "node_measurements" in payload:
            nested += [payload["node_measurements"], *payload["node_measurements"]]
        for value in nested:
            with pytest.raises(TypeError, match="read-only"):
                value.clear()
        assert cli._json_line(payload) == json.dumps(payload, sort_keys=True)
        assert payload == flat_record_json(record)
        for clone in (copy.deepcopy(payload), pickle.loads(pickle.dumps(payload))):
            assert clone == payload
            clone["resources"]["comm_qubits"] = 99
            for node in clone.get("node_measurements", []):
                node["m_a"] = "0"
        assert payload == flat_record_json(record)

    def test_trial_values_other_than_ints_go_to_the_encoder(
        self, instance, acceptance_plan, monkeypatch
    ):
        """Only an exact int, or a None seed, is spliced: ``seed=True`` writes
        ``true`` and an int subclass its JSON form, as ``json.dumps`` does, and
        a ``numpy.int64`` seed or retry count raises TypeError."""
        record = self.memoised_record(instance, acceptance_plan, monkeypatch)
        record.seed = True
        line = cli._json_line(record.to_json_dict())
        assert '"seed": true' in line
        assert line == json.dumps(flat_record_json(record), sort_keys=True)
        record.seed, record.retries = None, True
        assert cli._json_line(record.to_json_dict()) == json.dumps(
            flat_record_json(record), sort_keys=True
        )
        record.retries = 0
        for name in ("seed", "retries"):
            setattr(record, name, np.int64(3))
            with pytest.raises(TypeError):
                cli._json_line(record.to_json_dict())
            setattr(record, name, 3)
        assert cli._json_line(record.to_json_dict()) == json.dumps(
            flat_record_json(record), sort_keys=True
        )
        dlp.joint_cdf.cache_clear()

    def test_draw_past_the_cap_writes_the_flat_line(self, instance, acceptance_plan, monkeypatch):
        """With the memo full, a new draw is computed and not kept; its
        record, like the kept one's, carries a spliced line, and both lines
        equal their flat records'."""
        dlp.joint_cdf.cache_clear()
        monkeypatch.setattr(dlp, "_OUTCOMES_CAP", 1)
        flats = iter([7, 8, 7])
        monkeypatch.setattr(dlp.statevec, "sample_cdf", lambda rng, cdf: next(flats))
        kept, past, again = (
            solve_distributed(instance, acceptance_plan, np.random.default_rng(0), max_retries=1)
            for _ in range(3)
        )
        _, outcomes = dlp.joint_cdf(instance, acceptance_plan.nodes)
        assert list(outcomes) == [(acceptance_plan.join, 7)]
        assert outcomes[(acceptance_plan.join, 7)] is kept.outcome is again.outcome
        assert all(outcome is not past.outcome for outcome in outcomes.values())
        for i, record in enumerate((kept, past, again)):
            record.seed = i
            payload = record.to_json_dict()
            assert type(payload) is SplicedRecord
            assert payload.line == json.dumps(payload, sort_keys=True)
            assert payload.line == json.dumps(flat_record_json(record), sort_keys=True)
        dlp.joint_cdf.cache_clear()

    def contract_solvers(self, instance, plan):
        """The six solver paths of ``SOLVERS`` on the acceptance plan, an
        analytic k = 3 solve at r = 16001 and an analytic Alg. 4 solve with
        up to 4 attempts at r = 5, which retries."""
        solvers = {name: self.solver(instance, plan, name) for name in self.SOLVERS}
        large = validate_instance(32003, 4, 17236)
        k3 = make_plan(large, 3, None, "0.25", "0.2")
        solvers["alg4-analytic-k3"] = lambda rng: solve_distributed(large, k3, rng, mode="analytic")
        solvers["alg4-analytic-retried"] = lambda rng: solve_distributed(
            instance, plan, rng, mode="analytic", max_retries=4
        )
        return solvers

    def test_every_line_is_spliced(self, instance, acceptance_plan, monkeypatch):
        """Every record, cached, fresh or analytic, with or without
        ``latent_s``, retried or not, writes its line with no encoder call:
        with ``JSON_ENCODER.encode`` made to raise, once each header's
        layout is built, 40 trials of every path give ``SplicedRecord``
        mappings whose lines equal ``json.dumps(payload, sort_keys=True)``."""
        solvers = self.contract_solvers(instance, acceptance_plan)
        for solve_one in solvers.values():  # builds every header's layouts
            solve_one(np.random.default_rng((36, 0))).to_json_dict()

        def refuse(payload):
            raise AssertionError(f"the encoder was called on {payload!r}")

        monkeypatch.setattr(records.JSON_ENCODER, "encode", refuse)
        retried = 0
        for name, solve_one in solvers.items():
            for i in range(40):
                record = solve_one(np.random.default_rng((36, i)))
                retried += name == "alg4-analytic-retried" and record.retries > 0
                record.seed = i
                payload = record.to_json_dict()
                assert type(payload) is SplicedRecord, name
                assert payload.line == json.dumps(payload, sort_keys=True), name
                assert payload == flat_record_json(record), name
                assert cli._json_line(payload) == payload.line
        assert retried

    @pytest.mark.parametrize("name", SOLVERS)
    @pytest.mark.parametrize("field, value", [
        ("seed", True), ("seed", np.int64(3)), ("retries", True), ("retries", np.int64(0)),
    ], ids=["seed-bool", "seed-int64", "retries-bool", "retries-int64"])
    def test_other_trial_values_reach_the_encoder(self, instance, acceptance_plan, monkeypatch,
                                                  name, field, value):
        """On every solver path, a bool or ``numpy.int64`` seed or retry
        count leaves the record to ``JSON_ENCODER``, whole: a bool is written
        as ``json.dumps`` writes it, and a ``numpy.int64`` is refused with
        its TypeError."""
        solve_one = self.solver(instance, acceptance_plan, name)
        record = solve_one(np.random.default_rng((37, 0)))
        setattr(record, field, value)
        encoded = []
        encode = records.JSON_ENCODER.encode
        monkeypatch.setattr(records.JSON_ENCODER, "encode",
                            lambda payload: encoded.append(payload) or encode(payload))
        payload = record.to_json_dict()
        assert type(payload) is dict
        if isinstance(value, bool):
            assert cli._json_line(payload) == json.dumps(flat_record_json(record), sort_keys=True)
        else:
            with pytest.raises(TypeError):
                cli._json_line(payload)
        assert encoded == [payload]

    @pytest.mark.parametrize("name", ["alg2-cached", "alg4-cached"])
    def test_spliced_lines_equal_flat_records(self, instance, acceptance_plan, name):
        """From an emptied memo, 200 seeded trials of each cached solver (most
        draws repeat an entry) and a ``latent_s`` set on each: every record
        carries a spliced line, and it is the line of its flat record."""
        dlp.joint_cdf.cache_clear()
        solve_one = self.solver(instance, acceptance_plan, name)
        for i in range(200):
            record = solve_one(np.random.default_rng((34, i)))
            for record.seed, record.latent_s in ((i, None), (None, i % 5)):
                payload = record.to_json_dict()
                assert type(payload) is SplicedRecord
                assert payload.line == json.dumps(flat_record_json(record), sort_keys=True)
                assert payload.line == json.dumps(payload, sort_keys=True)
        dlp.joint_cdf.cache_clear()


def test_statevector_solvers_never_read_hidden_g(small_instance, small_plan):
    """With a wrong stored exponent, both state-vector solvers, cached and
    fresh, produce the same records and still recover the true exponent."""
    instance = small_instance
    wrong = dataclasses.replace(instance, hidden_g=(instance.hidden_g + 1) % instance.r)
    config = ShorConfig.for_instance(instance, "0.5", max_retries=20)
    runs = {
        "solve": lambda inst, rng: solve(inst, config, rng),
        "solve fresh": lambda inst, rng: solve(inst, config, rng, reuse_state=False),
        "dist": lambda inst, rng: solve_distributed(inst, small_plan, rng, max_retries=20),
        "dist fresh": lambda inst, rng: solve_distributed(
            inst, small_plan, rng, max_retries=20, reuse_state=False
        ),
    }
    for name, run in runs.items():
        got = run(wrong, np.random.default_rng(11))
        assert got == run(instance, np.random.default_rng(11)), name
        assert got.success and got.g_hat == instance.hidden_g, name


def test_analytic_solvers_build_no_full_law(instance, acceptance_plan, monkeypatch):
    """Analytic solves draw each outcome in O(1): neither solver builds
    a 2^t law, folds one or samples one by its CDF."""
    from distdlog import statevec

    def refuse(*args, **kwargs):
        raise AssertionError("an analytic solve built or sampled a full law")

    monkeypatch.setattr(phase, "outcome_laws", refuse)
    monkeypatch.setattr(phase, "phase_outcome_distribution", refuse)
    monkeypatch.setattr(phase, "prefix_marginal", refuse)
    monkeypatch.setattr(statevec, "sample_outcome", refuse)
    config = ShorConfig.for_instance(instance, "0.25", mode="analytic", max_retries=8)
    for i in range(20):
        assert solve(instance, config, np.random.default_rng((6, i))).latent_s is not None
        record = solve_distributed(
            instance, acceptance_plan, np.random.default_rng((6, i)), mode="analytic"
        )
        assert record.node_measurements is not None


def test_analytic_solvers_run_in_flat_memory_at_large_order():
    """r = 1,000,151 (t = 24 for Alg. 2), where one 2^t law takes 128 MiB:
    200 solves of each solver stay under 8 MiB of tracemalloc peak, so none
    builds a law. The instance is validated before tracing starts, because
    its O(r) order scan is slow under tracing."""
    inst = validate_instance(2000303, 4, 482074)
    assert inst.r == 1_000_151
    config = ShorConfig.for_instance(inst, "0.25", mode="analytic")
    assert config.t == 24
    plan = make_plan(inst, 2, None, "0.25", "0.2")
    tracemalloc.start()
    try:
        records = [solve(inst, config, np.random.default_rng((7, i))) for i in range(200)]
        records += [
            solve_distributed(inst, plan, np.random.default_rng((7, i)), mode="analytic")
            for i in range(200)
        ]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    assert all(rec.success and rec.g_hat == inst.hidden_g for rec in records)


def test_join_on_arrays_equals_join_per_tuple(acceptance_plan):
    """``DistPlan.join`` runs on int64 arrays, as ``dlp.success_mass`` calls
    it: on every prefix tuple of the N = 11, k = 2 and N = 23, k = 3 plans
    (family b takes the tuples in reverse order), value and fallback flag
    equal the join of each tuple on ints."""
    k3 = plan_for_order(11, 3, 2, "0.5", "0.25")
    for plan in (acceptance_plan, k3):
        bits = sum(plan.measured)
        ends = np.cumsum(plan.measured)
        flat = np.arange(1 << bits, dtype=np.int64)
        values = [(flat >> (bits - end)) & ((1 << m) - 1) for end, m in zip(ends, plan.measured)]
        pairs = tuple((v, v[::-1]) for v in values)
        m_a, m_b, extra = plan.join(pairs)
        want = [plan.join(tuple(zip(a, b))) for a, b in zip(
            np.stack(values, axis=1).tolist(), np.stack(values, axis=1)[::-1].tolist()
        )]
        assert m_a.tolist() == [w[0] for w in want]
        assert m_b.tolist() == [w[1] for w in want]
        assert extra["correct_fallback"].tolist() == [w[2]["correct_fallback"] for w in want]
        assert any(w[2]["correct_fallback"] for w in want)  # the fallback path is compared too
        assert all(type(w[2]["correct_fallback"]) is bool for w in want)


# (N, a, b), k, epsilon, epsilon': the single-node chain when k = 1
MASS_CHAINS = [
    ((11, 3, 9), 1, "0.25", None),
    ((11, 3, 9), 2, "0.25", "0.2"),
    ((23, 2, 3), 1, "0.25", None),
    ((23, 2, 3), 2, "0.25", "0.2"),
    ((47, 2, 4), 1, "0.25", None),
    ((47, 2, 4), 2, "0.25", "0.2"),
    ((23, 2, 3), 3, "0.5", "0.25"),
]

# N = 2^31 - 1 (L = 31) with a of order 7 and 31: Alg. 2 and k = 2 run 45-
# to 49-qubit circuits, simulated exactly on the orbit of a.
WIDE_MASS_CHAINS = {
    f"N2147483647-r{r}-k{k}": (triple, k, "0.25", None if k == 1 else "0.2")
    for r, triple in ((7, (2147483647, 1205362885, 894255406)), (31, (2147483647, 512, 134217728)))
    for k in (1, 2)
}


def _mass_chain(instance, k, epsilon, epsilon_prime):
    """The solver's chain, join and width: Alg. 2's when k = 1, else the h = 2 plan's."""
    if k == 1:
        config = ShorConfig.for_instance(instance, epsilon)
        return config.nodes, dlp.identity_join, config.t
    plan = plan_for_order(instance.r, k, 2, epsilon, epsilon_prime)
    return plan.nodes, plan.join, plan.total_width


class TestSuccessMass:
    """``dlp.success_mass``, one exact routine over the solvers' own chain,
    join and rounding, for both algorithms."""

    @pytest.mark.parametrize(
        "triple, k, epsilon, epsilon_prime, alg4, alg2",
        [
            ((11, 3, 9), 2, "0.25", "0.2", 0.7935828, 0.7849270),
            ((23, 2, 3), 2, "0.25", "0.2", 0.9018229, 0.8920430),
            ((47, 2, 4), 2, "0.25", "0.2", 0.9469251, 0.9382482),
            ((23, 2, 3), 3, "0.5", "0.25", 0.9012768, 0.8756644),
        ],
        ids=["N11-k2", "N23-k2", "N47-k2", "N23-k3"],
    )
    def test_alg4_masses(self, triple, k, epsilon, epsilon_prime, alg4, alg2):
        """Alg. 4's exact mass meets (r - 1)/r (1 - eps') and beats Alg. 2's at eps."""
        instance = validate_instance(*triple)
        r = instance.r
        mass = dlp.success_mass(instance, *_mass_chain(instance, k, epsilon, epsilon_prime))
        single = dlp.single_shot_success_mass(instance, epsilon)
        assert mass == pytest.approx(alg4, abs=1e-7)
        assert single == pytest.approx(alg2, abs=1e-7)
        assert mass >= float(Fraction(r - 1, r) * (1 - Fraction(epsilon_prime)))
        assert mass > single

    def test_equals_brute_force_over_the_joint_law(self, instance, acceptance_plan):
        """Every flat index of the N = 11 analytic joint law (65,536) split,
        joined and post-processed one by one, weighted by its law entry."""
        plan = acceptance_plan
        law = joint_law(instance, plan.nodes, "analytic")
        assert law.size == 1 << 16
        total = 0.0
        for flat in range(law.size):
            m_a, m_b, _ = plan.join(decode_joint_index(flat, plan.nodes))
            if postprocess_detail(m_a, m_b, plan.total_width, instance).g_hat is not None:
                total += law[flat]
        mass = dlp.success_mass(instance, plan.nodes, plan.join, plan.total_width)
        assert abs(mass - total) <= 1e-12

    @pytest.mark.parametrize(
        "triple, k, epsilon, epsilon_prime", MASS_CHAINS + list(WIDE_MASS_CHAINS.values()),
        ids=[f"N{c[0][0]}-k{c[1]}" for c in MASS_CHAINS] + list(WIDE_MASS_CHAINS),
    )
    def test_backends_agree(self, triple, k, epsilon, epsilon_prime):
        """State-vector masses, from the marginals of ``branch_laws``' tables,
        equal the closed-form ones within 1e-9, also on the N = 23, k = 3
        chain whose joint law is over its byte cap, and at N = 2^31 - 1."""
        instance = validate_instance(*triple)
        chain = _mass_chain(instance, k, epsilon, epsilon_prime)
        analytic = dlp.success_mass(instance, *chain)
        assert abs(dlp.success_mass(instance, *chain, mode="statevector") - analytic) <= 1e-9

    def test_statevector_mass_reads_no_hidden_g(self, small_instance, small_plan):
        """A wrong stored exponent leaves the state-vector mass as it is; the
        analytic mass, which reads it as its oracle, moves."""
        wrong = dataclasses.replace(
            small_instance, hidden_g=(small_instance.hidden_g + 1) % small_instance.r
        )
        config = ShorConfig.for_instance(small_instance, "0.5")
        for chain in (
            (config.nodes, dlp.identity_join, config.t),
            (small_plan.nodes, small_plan.join, small_plan.total_width),
        ):
            right = dlp.success_mass(small_instance, *chain, mode="statevector")
            assert dlp.success_mass(wrong, *chain, mode="statevector") == right
            assert dlp.success_mass(wrong, *chain) < right - 0.1

    def test_refuses_unknown_mode(self, instance):
        config = ShorConfig.for_instance(instance, "0.25")
        with pytest.raises(ValueError, match="mode must be"):
            dlp.success_mass(instance, config.nodes, dlp.identity_join, config.t, mode="dense")

    @pytest.mark.parametrize("triple", [(7, 2, 4), (11, 3, 9), (23, 2, 3), (47, 2, 4)])
    def test_success_table_equals_every_check(self, triple):
        """The table built from the v_a = 1 row is ``recover_exponent``'s
        verdict on each of the r^2 rounded pairs."""
        instance = validate_instance(*triple)
        r = instance.r
        want = [[dlp.recover_exponent(va, vb, instance) is not None for vb in range(r)]
                for va in range(r)]
        assert dlp.success_table(instance).tolist() == want

    @pytest.mark.parametrize("mode", ["analytic", "statevector"])
    def test_refused_before_any_table(self, instance, acceptance_plan, monkeypatch, mode):
        """With the byte cap one below a chain's bound ``_mass_bytes``, the
        mass is refused with ValueError before any prefix tuple or law is
        built; at the bound it runs."""
        chains = (_mass_chain(instance, 1, "0.25", None),
                  (acceptance_plan.nodes, acceptance_plan.join, acceptance_plan.total_width))

        def refuse(*args, **kwargs):
            raise AssertionError("a table was built before the bytes were checked")

        for nodes, join, width in chains:
            nbytes = dlp._mass_bytes(instance, nodes, mode)
            want = dlp.success_mass(instance, nodes, join, width, mode)
            with monkeypatch.context() as patch:
                patch.setattr(statevec, "BYTES_CAP", nbytes - 1)
                for name in ("register_laws", "branch_laws", "success_table"):
                    patch.setattr(dlp, name, refuse)
                patch.setattr(dlp.np, "indices", refuse)
                with pytest.raises(ValueError, match="exact success mass needs about"):
                    dlp.success_mass(instance, nodes, join, width, mode)
            with monkeypatch.context() as patch:
                patch.setattr(statevec, "BYTES_CAP", nbytes)
                assert dlp.success_mass(instance, nodes, join, width, mode) == want

    @pytest.mark.parametrize(
        "triple, k, epsilon, epsilon_prime, mode",
        [
            ((11, 3, 9), 1, "0.5", None, "statevector"),
            ((11, 3, 9), 2, "0.25", "0.2", "statevector"),
            ((23, 2, 3), 2, "0.25", "0.2", "analytic"),
            ((23, 2, 3), 3, "0.5", "0.25", "analytic"),
            ((47, 2, 4), 1, "0.05", None, "analytic"),
            ((167, 4, 16), 1, "0.25", None, "analytic"),
        ],
    )
    def test_peak_within_bound(self, triple, k, epsilon, epsilon_prime, mode):
        """The mass's tracemalloc peak, from cold node caches, stays within
        ``_mass_bytes``, on the smallest chains (where its fixed part
        counts) and on the widest analytic ones (rows and tuples)."""
        instance = validate_instance(*triple)
        chain = _mass_chain(instance, k, epsilon, epsilon_prime)
        dlp.node_tables.cache_clear()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            dlp.success_mass(instance, *chain, mode=mode)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before <= dlp._mass_bytes(instance, chain[0], mode)
