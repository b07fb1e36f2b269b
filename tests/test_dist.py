import dataclasses
import inspect
import math
import textwrap
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from alignscan import scan_values
from distdlog import dist, dlp, phase, verify
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
from distdlog.dlp import ShorConfig, decode_joint_index, node_numerators, solve
from distdlog.numtheory import ProblemInstance, ceil_log2, mod_pow, validate_instance
from distdlog.resources import communication_qubits, per_node_qubits_from_widths, single_node_qubits
from distdlog.statevec import QubitBudgetError
from gatelevel import build_stage_state, whole_state_step7
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
        assert brute_force_correct_oracle(w, [0, 0], acceptance_plan) == w

    def test_worked_perturbations(self, acceptance_plan):
        out = brute_force_correct_oracle(0b01101, [-1, 1], acceptance_plan)
        assert out == 0b01110

    def test_randomized_small_batch(self, acceptance_plan):
        rng = np.random.default_rng(17)
        for _ in range(500):
            w = int(rng.integers(32))
            perturbations = [int(rng.integers(-1, 2)), int(rng.integers(-1, 2))]
            brute_force_correct_oracle(w, perturbations, acceptance_plan)

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
            assert m_a.width == width and m_b.width == width

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
        assert all(ma.value == 0 and mb.value == 0 for ma, mb in pairs)

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
                flat = (((flat << m) | m_a.value) << m) | m_b.value
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
            counts[pairs[0][0].value] += 1
        assert 0.5 * np.abs(counts / runs - rest).sum() < 0.25

    def test_transfer_stack_equals_per_column_builds(
        self, instance, acceptance_plan, small_instance, small_plan
    ):
        """The stack built from one simulation on |1> equals simulating the
        node on every unit column, amplitude for amplitude."""
        for inst, plan in ((small_instance, small_plan), (instance, acceptance_plan)):
            units = np.array([c for c in range(1, inst.N) if math.gcd(c, inst.N) == 1])
            for node in range(plan.k):
                stack = _node_transfer_states(inst, plan, node, units)
                for i, c in enumerate(units):
                    state = build_stage_state(inst, plan.t[node], plan.l[node] - 1, int(c))
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
            for m_a, m_b in nodes:
                rebuilt = (rebuilt << m_a.width) | m_a.value
                rebuilt = (rebuilt << m_b.width) | m_b.value
            assert rebuilt == flat


BRANCH_CHAINS = ["N7", "N11", "N23", "acceptance", "three_nodes", "N311"]


def branch_chain(which: str) -> tuple[ProblemInstance, dlp.Chain]:
    """The one-node chains N = 7, 11 and 23 at eps = 1/4, the acceptance and
    three-node plans on N = 11, and N = 311 (k = 2, h = 2, eps = 1/2,
    eps' = 0.45), whose work register is the widest."""
    one_node = {"N7": (7, 2, 4), "N11": (11, 3, 9), "N23": (23, 2, 8)}
    if which in one_node:
        inst = validate_instance(*one_node[which])
        t = ShorConfig.for_instance(inst, "0.25").t
        return inst, ((t, 0, t),)
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
        law. The mixture cannot see a relabelling of the branches; this can."""
        inst, nodes = branch_chain(which)
        sv = dlp.branch_laws(inst, nodes, "statevector")
        an = dlp.branch_laws(inst, nodes, "analytic")
        assert len(sv) == len(an) == len(nodes)
        for (_, _, m), got, want in zip(nodes, sv, an):
            assert got.shape == want.shape == (inst.r, 1 << (2 * m))
            assert np.abs(got - want).max() <= 1e-12
            assert np.abs(got.sum(axis=1) - 1.0).max() <= 1e-12
            assert np.abs(want.sum(axis=1) - 1.0).max() <= 1e-12

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
        monkeypatch.setattr(dlp, "_LAW_BYTES_CAP", law_bytes - 1)
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
         (8209, 3265, ((5, 0, 5),))],
        ids=["N11-one-node", "N11-two-node", "N23-one-node", "N8209-wide-register"],
    )
    def test_statevector_build_bytes_bound_the_build(self, N, a, nodes):
        """``_build_bytes`` bounds ``branch_laws``' state-vector tracemalloc
        peak from cold modmul and orbit caches, kept tables included. At
        N = 8209 (r = 3, L = 14) the (2^t, 2^L) a-stage arrays outweigh the
        block. The bound allows about two complex copies of the block, where
        the build once held three, and more while the next node ran."""
        from distdlog import statevec

        inst = validate_instance(N, a, a * a % N)
        statevec._modmul_destinations.cache_clear()
        dlp.live_orbit.cache_clear()
        tracemalloc.start()
        try:
            laws = dlp.branch_laws(inst, nodes, "statevector")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(laws) == len(nodes)
        assert peak <= dlp._build_bytes(inst, nodes, "statevector")

    def test_statevector_build_counted_against_cap(self, monkeypatch):
        """N = 59, a = 3 (r = 29, L = 6) at t = 9 fits the qubit cap and its
        law is 6 MiB, but its node block has 7.6 M entries: the build is
        refused before the node runs (the solvers then run the chain fresh)."""
        from distdlog import statevec

        def refuse(*args, **kwargs):
            raise AssertionError("the node ran")

        inst = validate_instance(59, 3, 9)
        monkeypatch.setattr(dlp, "node_columns", refuse)
        with pytest.raises(QubitBudgetError, match="joint law needs 6 MiB and its build 307 MiB more"):
            dlp.joint_law.__wrapped__(inst, ((9, 0, 9),))
        assert 2 * 9 + inst.L <= statevec.MAX_QUBITS


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
        assert report.factorization_residual <= 1e-12
        assert report.basis_residual <= 1e-12
        assert len(report.per_branch_deviation) == instance.r

    def test_one_eigenvector_at_a_time(self, instance, acceptance_plan, monkeypatch):
        """Each eigenvector goes through the nodes before the next is built,
        so an over-budget node is refused after one eigenvector; the report
        is unchanged."""
        want = compare_step7_state(instance, acceptance_plan)
        build, block = phase.build_eigenstate, dist.node_block
        calls = {"eigen": 0, "nodes": 0}

        def eigen(*args, **kwargs):
            if calls["eigen"] and not calls["nodes"]:
                raise AssertionError("a second eigenvector was built before any node ran")
            calls["eigen"] += 1
            return build(*args, **kwargs)

        def node(*args, **kwargs):
            calls["nodes"] += 1
            return block(*args, **kwargs)

        monkeypatch.setattr(phase, "build_eigenstate", eigen)
        monkeypatch.setattr(dist, "node_block", node)
        assert compare_step7_state(instance, acceptance_plan) == want
        assert calls == {"eigen": instance.r, "nodes": instance.r * acceptance_plan.k}

    @pytest.mark.parametrize("which", ["small", "acceptance", "three_nodes"])
    def test_live_blocks_match_whole_state(
        self, which, instance, acceptance_plan, small_instance, small_plan
    ):
        """Projecting each branch's live block gives the report of the same
        check on every node's full state, field by field."""
        inst, plan = {
            "small": (small_instance, small_plan),
            "acceptance": (instance, acceptance_plan),
            "three_nodes": (instance, THREE_NODE_PLAN),
        }[which]
        got = compare_step7_state(inst, plan)
        want = whole_state_step7(inst, plan)
        assert len(got.per_branch_deviation) == len(want.per_branch_deviation) == inst.r
        pairs = [
            (got.max_amplitude_deviation, want.max_amplitude_deviation),
            (got.factorization_residual, want.factorization_residual),
            (got.basis_residual, want.basis_residual),
            *zip(got.per_branch_deviation, want.per_branch_deviation),
        ]
        assert all(abs(x - y) <= 1e-15 for x, y in pairs), pairs


class TestSolveDistributed:
    def test_success_verifies(self, instance, acceptance_plan):
        record = solve_distributed(
            instance, acceptance_plan, np.random.default_rng(21), max_retries=20
        )
        assert record.success
        assert record.g_hat == instance.hidden_g
        assert mod_pow(instance.a, record.g_hat, instance.N) == instance.b
        assert record.m_a.width == acceptance_plan.total_width
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
        assert second.resources is report
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
        assert record.m_a.width == plan.total_width
        assert all(
            ma.width == width
            for (ma, _), width in zip(record.node_measurements, plan.measured)
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
        solver then runs the nodes per attempt, with full-width pairs."""
        if algorithm == "alg2":
            config = ShorConfig.for_instance(instance, "0.25", max_retries=3)
            nodes, width = ((config.t, 0, config.t),), config.t
            run = lambda rng: solve(instance, config, rng)
        else:
            nodes, width = acceptance_plan.nodes, acceptance_plan.total_width
            run = lambda rng: solve_distributed(instance, acceptance_plan, rng, max_retries=3)
        law_bytes = 3 * 8 * (1 << (2 * sum(m for _, _, m in nodes)))
        monkeypatch.setattr(dlp, "_LAW_BYTES_CAP", law_bytes - 1)
        dlp.joint_law.cache_clear()
        dlp.joint_cdf.cache_clear()
        calls = []
        measure_node = dlp.measure_node

        def refuse(*args, **kwargs):
            raise AssertionError("node_block ran")

        def count(*args, **kwargs):
            calls.append(args)
            return measure_node(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(dlp, "node_block", refuse)
            with pytest.raises(QubitBudgetError, match="joint law needs"):
                dlp.joint_law(instance, nodes)
        monkeypatch.setattr(dlp, "measure_node", count)
        record = run(np.random.default_rng(3))
        assert len(calls) == len(nodes) * (record.retries + 1)  # fresh runs
        assert record.m_a.width == record.m_b.width == width
        pairs = record.node_measurements or ((record.m_a, record.m_b),)
        assert [(ma.width, mb.width) for ma, mb in pairs] == [(m, m) for _, _, m in nodes]

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
    """Analytic solves draw each outcome by rejection: neither solver builds
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
