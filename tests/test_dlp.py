import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from distdlog import dlp, phase, resources, statevec
from distdlog.bits import BitString
from distdlog.dist import solve_distributed
from distdlog.dlp import (
    ShorConfig,
    joint_law,
    measure_node,
    node_block,
    node_columns,
    postprocess_detail,
    quantum_stage_analytic,
    quantum_stage_statevector,
    round_scaled,
    single_shot_success_mass,
    solve,
)
from distdlog.harness import run_batch
from distdlog.numtheory import mod_pow, validate_instance
from distdlog.phase import phase_outcome_distribution

from gatelevel import build_stage_state, joint_distribution
from orbitbfs import bfs_closure
from phaseloop import outcome_distribution


def bs(text):
    return BitString(len(text), int(text, 2))


class TestConfig:
    def test_width_example(self, instance):
        config = ShorConfig.for_instance(instance, "0.25")
        # ceil(log2 5 + 1) = 4, ceil(log2 6) = 3
        assert config.t == 7
        state = build_stage_state(instance, config.t)
        assert state.layout.total_width == 7 + 7 + 4

    def test_budget_exceeded_suggests_analytic(self, instance):
        config = ShorConfig.for_instance(instance, "0.001")
        with pytest.raises(statevec.QubitBudgetError, match="analytic"):
            build_stage_state(instance, config.t)

    def test_rejects_bad_parameters(self, instance):
        with pytest.raises(ValueError):
            ShorConfig.for_instance(instance, "1.5")
        with pytest.raises(ValueError):
            ShorConfig.for_instance(instance, "0.25", mode="table")
        with pytest.raises(ValueError):
            ShorConfig.for_instance(instance, "0.25", max_retries=0)


class TestRounding:
    def test_half_up_examples(self):
        # 6 * 5 / 32 = 0.9375 -> 1; 13 * 5 / 32 = 2.03 -> 2
        assert round_scaled(bs("00110"), 5) == 1
        assert round_scaled(bs("01101"), 5) == 2
        # exact .5 rounds up: 8 * 4 / 64 = 0.5
        assert round_scaled(BitString(6, 8), 4) == 1

    def test_postprocess_worked_example(self, instance):
        detail = postprocess_detail(bs("00110"), bs("01101"), instance)
        assert (detail.mhat_a, detail.mhat_b, detail.g_hat) == (1, 2, 2)
        assert mod_pow(3, 2, 11) == 9

    def test_zero_round_retries(self, instance):
        assert postprocess_detail(bs("00000"), bs("01101"), instance).g_hat is None

    def test_full_scale_alias_retries(self, instance):
        # 31 * 5 / 32 rounds to 5 = r, the wrap-around alias of s = 0
        assert round_scaled(bs("11111"), 5) == 5
        assert postprocess_detail(bs("11111"), bs("01101"), instance).g_hat is None

    def test_never_returns_unverified(self, instance):
        rng = np.random.default_rng(7)
        for _ in range(500):
            m_a = BitString(7, int(rng.integers(1 << 7)))
            m_b = BitString(7, int(rng.integers(1 << 7)))
            g_hat = postprocess_detail(m_a, m_b, instance).g_hat
            if g_hat is not None:
                assert mod_pow(instance.a, g_hat, instance.N) == instance.b

    def test_window_soundness_exhaustive(self, instance):
        """Every measurement pair inside the rounding windows of a branch
        s != 0 recovers the hidden exponent exactly."""
        t = ShorConfig.for_instance(instance, "0.25").t
        size = 1 << t
        r, g = instance.r, instance.hidden_g
        bound = Fraction(1, 1 << 4)  # 2^-ceil(log2 r + 1)
        for s in range(1, r):
            sg = (s * g) % r
            window_a = [
                m for m in range(size) if abs(Fraction(m, size) - Fraction(s, r)) <= bound
            ]
            window_b = [
                m for m in range(size) if abs(Fraction(m, size) - Fraction(sg, r)) <= bound
            ]
            assert window_a and window_b
            for ma in window_a:
                for mb in window_b:
                    detail = postprocess_detail(BitString(t, ma), BitString(t, mb), instance)
                    got = detail.g_hat
                    assert got == g


class TestStageEquivalence:
    def test_joint_laws_agree(self, instance):
        config = ShorConfig.for_instance(instance, "0.25")
        sv = joint_law(instance, ((config.t, 0, config.t),))
        an = joint_law(instance, ((config.t, 0, config.t),), "analytic")
        assert 0.5 * np.abs(sv - an).sum() < 1e-9

    @pytest.mark.parametrize("N, a, b", [(7, 2, 4), (11, 3, 9), (23, 2, 8)])
    def test_joint_law_matches_full_state(self, N, a, b):
        """The branch mixture equals summing the full state over the work
        register."""
        inst = validate_instance(N, a, b)
        t = ShorConfig.for_instance(inst, "0.25").t
        want = joint_distribution(build_stage_state(inst, t), ["a", "b"])
        assert np.abs(joint_law(inst, ((t, 0, t),)) - want).max() <= 1e-15

    def test_counting_marginal_is_branch_average(self, instance):
        config = ShorConfig.for_instance(instance, "0.25")
        state = build_stage_state(instance, config.t)
        got = statevec.marginal_distribution(state, "a", config.t)
        want = sum(
            phase_outcome_distribution(Fraction(s, instance.r), config.t)
            for s in range(instance.r)
        ) / instance.r
        assert 0.5 * np.abs(got - want).sum() < 1e-9

    def test_circuit_sampling_consistent(self, small_instance):
        """Fresh circuit runs sample from the same joint law (statistical)."""
        config = ShorConfig.for_instance(small_instance, "0.5")
        joint = joint_law(small_instance, ((config.t, 0, config.t),))
        counts = np.zeros_like(joint)
        runs = 500
        for i in range(runs):
            rng = np.random.default_rng((99, i))
            m_a, m_b = quantum_stage_statevector(small_instance, config, rng)
            counts[(m_a.value << config.t) | m_b.value] += 1
        assert 0.5 * np.abs(counts / runs - joint).sum() < 0.15

    def test_analytic_stage_matches_joint_law(self, instance):
        """20000 seeded analytic stages against the closed-form joint law.
        Exact multinomial draws of this size from this law (t = 7, 16384
        cells) have a mean TV of 0.038 and stayed below 0.046 in 200
        simulated batches."""
        config = ShorConfig.for_instance(instance, "0.25")
        law = joint_law(instance, ((config.t, 0, config.t),), "analytic")
        draws = 20_000
        rng = np.random.default_rng(5)
        counts = np.zeros_like(law)
        for _ in range(draws):
            m_a, m_b, _ = quantum_stage_analytic(instance, config, rng)
            counts[(m_a.value << config.t) | m_b.value] += 1
        assert 0.5 * np.abs(counts / draws - law).sum() < 0.05

    def test_analytic_zero_branch(self, instance):
        config = ShorConfig.for_instance(instance, "0.25")

        class ZeroRng:
            def integers(self, *a, **k):
                return 0

            def random(self):
                return 0.0

        m_a, m_b, s = quantum_stage_analytic(instance, config, ZeroRng())
        assert s == 0 and m_a.value == 0 and m_b.value == 0


def gate_stage_state(instance, t, exponent, work):
    """The node circuit applied gate by gate: the oracle for the fused kernel."""
    layout = statevec.RegisterLayout((("a", t), ("b", t), ("work", instance.L)))
    state = statevec.init_product(layout, {"work": work})
    state = statevec.hadamard_layer(state, "a")
    state = statevec.hadamard_layer(state, "b")
    state = statevec.controlled_modmul_power(state, "a", "work", instance.a, exponent, instance.N)
    state = statevec.controlled_modmul_power(state, "b", "work", instance.b, exponent, instance.N)
    state = statevec.inverse_qft(state, "a")
    return statevec.inverse_qft(state, "b")


def node_inputs(instance):
    """|1>, a fixed point |x >= N>, every eigenvector u_s and a random
    normalised vector with full support."""
    rng = np.random.default_rng(2024)
    full = rng.normal(size=1 << instance.L) + 1j * rng.normal(size=1 << instance.L)
    eigen = [phase.build_eigenstate(instance, s) for s in range(instance.r)]
    return [1, instance.N + 1, *eigen, full / np.linalg.norm(full)]


class TestNodeKernel:
    @pytest.mark.parametrize("exponent", [0, 1, 3])
    @pytest.mark.parametrize("t", range(2, 9))
    def test_equals_gate_composition(self, instance, t, exponent):
        for work in node_inputs(instance):
            got = build_stage_state(instance, t, exponent, work)
            want = gate_stage_state(instance, t, exponent, work)
            assert got.layout == want.layout
            assert np.array_equal(got.amps, want.amps)

    def test_input_checks(self, instance):
        with pytest.raises(statevec.LayoutError):
            build_stage_state(instance, 3, 0, 1 << instance.L)
        with pytest.raises(statevec.LayoutError):
            build_stage_state(instance, 3, 0, np.ones(1 << instance.L))
        with pytest.raises(ValueError, match="power exponent"):
            build_stage_state(instance, 3, -1)

    def test_peak_memory_within_three_outputs(self, instance):
        t = 9  # 2 t + L = 22 qubits
        build_stage_state(instance, 2)  # import-time and table allocations
        tracemalloc.start()
        try:
            state = build_stage_state(instance, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert state.layout.total_width == 22
        assert peak <= 3 * state.amps.nbytes


class TestMeasureNode:
    @pytest.mark.parametrize("exponent", [0, 1, 3])
    @pytest.mark.parametrize("t", range(2, 9))
    def test_equals_gate_measurements(self, instance, t, exponent):
        """The same draws as measuring a then b on the full state and reading
        the work register off the collapsed state."""
        for work in node_inputs(instance):
            for seed in range(3):
                m_a, m_b, handoff = measure_node(
                    instance, t, exponent, work, np.random.default_rng(seed)
                )
                rng = np.random.default_rng(seed)
                state = build_stage_state(instance, t, exponent, work)
                out_a, state = statevec.measure_register(state, "a", rng)
                out_b, state = statevec.measure_register(state, "b", rng)
                want = statevec.register_vector(
                    state, "work", {"a": out_a.bits.value, "b": out_b.bits.value}
                )
                assert (m_a, m_b) == (out_a.bits, out_b.bits)
                assert np.allclose(handoff, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("exponent", [0, 1, 3])
    @pytest.mark.parametrize("t", range(2, 9))
    def test_parseval_marginal_equals_block_marginal(self, instance, t, exponent):
        """The a-marginal read off the a stage, 2^t sum_{y in live}
        |cols[j_a, y]|^2, is the full block's marginal over j_b and work."""
        for work in node_inputs(instance):
            cols, live = node_columns(instance, t, exponent, work)
            got = (1 << t) * (np.abs(cols[:, live]) ** 2).sum(axis=1)
            block, block_live = node_block(instance, t, exponent, work)
            assert np.array_equal(live, block_live)
            want = (np.abs(block) ** 2).sum(axis=(1, 2))
            assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_row_mass_checked_against_marginal(self, instance, monkeypatch):
        node_rows = dlp.node_rows
        monkeypatch.setattr(dlp, "node_rows", lambda *args: node_rows(*args) * 1.001)
        with pytest.raises(statevec.LayoutError, match="differs from its marginal"):
            measure_node(instance, 4, 0, 1, np.random.default_rng(0))

    def test_peak_memory_below_one_state(self, instance):
        """Far below one state: a fresh node never holds a 2^t x 2^t block,
        and its peak is at most four (2^t, 2^L) complex arrays, the a gather,
        its transform, the scaled copy and the first-use modmul tables
        (about 3.5 of them at t = 9)."""
        t = 9  # 2 t + L = 22 qubits
        measure_node(instance, 2, 0, 1, np.random.default_rng(0))
        tracemalloc.start()
        try:
            measure_node(instance, t, 0, 1, np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * (16 << (t + instance.L))  # bytes of four a-column arrays


class TestLiveOrbit:
    @pytest.mark.parametrize("exponent", [0, 1, 3])
    @pytest.mark.parametrize("t", range(2, 9))
    @pytest.mark.parametrize("N, a, b", [(11, 3, 9), (23, 2, 3)])
    def test_equals_bfs_closure(self, N, a, b, t, exponent):
        """The cached closure is the breadth-first one for every input, on
        orbits that are strict subsets of the units, and it is read-only."""
        instance = validate_instance(N, a, b)
        for work in node_inputs(instance):
            _, live = node_columns(instance, t, exponent, work)
            support = [work] if isinstance(work, int) else np.flatnonzero(work)
            assert live.tolist() == bfs_closure(instance, exponent, support)
            assert not live.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                live[0] = live[0]

    def test_one_miss_per_exponent_and_support(self, instance, acceptance_plan, monkeypatch):
        """Fresh runs of both solvers compute each closure once: every
        further node on the same (exponent, support) is a cache hit."""
        cached = dlp.live_orbit
        cached.cache_clear()
        keys = []

        def record(*key):
            keys.append(key)
            return cached(*key)

        monkeypatch.setattr(dlp, "live_orbit", record)
        config = ShorConfig.for_instance(instance, "0.25", max_retries=2)
        for i in range(20):
            solve(instance, config, np.random.default_rng((13, i)), reuse_state=False)
            solve_distributed(
                instance, acceptance_plan, np.random.default_rng((13, i)),
                max_retries=2, reuse_state=False,
            )
        info = cached.cache_info()
        assert info.hits + info.misses == len(keys) >= 60
        assert info.misses <= len({(exponent, support) for _, exponent, support in keys})

    def test_warm_cache_gives_cold_records(self, instance, acceptance_plan):
        """50 seeded fresh solves give the same records on a warm cache as
        on a cold one."""
        config = ShorConfig.for_instance(instance, "0.25", max_retries=1)
        solvers = (
            lambda rng: solve(instance, config, rng, reuse_state=False),
            lambda rng: solve_distributed(
                instance, acceptance_plan, rng, max_retries=1, reuse_state=False
            ),
        )

        def batch():
            return [
                record.to_json_dict()
                for one in solvers
                for record in run_batch(one, trials=25, seed=7)[0]
            ]

        batch()
        misses = dlp.live_orbit.cache_info().misses
        warm = batch()
        assert dlp.live_orbit.cache_info().misses == misses
        dlp.live_orbit.cache_clear()
        cold = batch()
        assert dlp.live_orbit.cache_info().misses > 0
        assert warm == cold


class TestSolve:
    def test_statevector_and_reuse_agree_in_law(self, instance):
        config = ShorConfig.for_instance(instance, "0.25", max_retries=1)
        wins_reuse = sum(
            solve(instance, config, np.random.default_rng((1, i))).success
            for i in range(300)
        )
        wins_fresh = sum(
            solve(instance, config, np.random.default_rng((1, i)), reuse_state=False).success
            for i in range(300)
        )
        assert abs(wins_reuse - wins_fresh) < 60

    def test_success_record_verifies(self, instance):
        config = ShorConfig.for_instance(instance, "0.25", max_retries=20)
        record = solve(instance, config, np.random.default_rng(42))
        assert record.success
        assert record.g_hat == instance.hidden_g
        assert record.retries < 20
        assert record.resources.simulated_qubits_actual == 18

    @pytest.mark.parametrize("epsilon", ["0.25", "0.1", "0.5"])
    @pytest.mark.parametrize("mode", ["statevector", "analytic"])
    def test_resources_match_formulas(self, instance, epsilon, mode):
        """The record's Alg. 2 width, taken as 2 t + L from the config, is
        ``resources.single_node_qubits`` of (r, L, epsilon)."""
        config = ShorConfig.for_instance(instance, epsilon, max_retries=1, mode=mode)
        report = solve(instance, config, np.random.default_rng(0)).resources
        assert report.qubits_single_node_alg2 == resources.single_node_qubits(
            instance.r, instance.L, epsilon
        )
        simulated = 2 * config.t + instance.L if mode == "statevector" else 0
        assert report.simulated_qubits_actual == simulated
        assert report.comm_qubits == 0 and report.qubits_per_node_alg4 is None

    def test_identity_target(self):
        instance = validate_instance(11, 3, 1)
        config = ShorConfig.for_instance(instance, "0.25", max_retries=30)
        record = solve(instance, config, np.random.default_rng(0))
        assert record.success and record.g_hat == 0

    def test_retry_bound_gives_near_certain_success(self, instance):
        config = ShorConfig.for_instance(instance, "0.25", max_retries=20)
        wins = sum(
            solve(instance, config, np.random.default_rng((5, i))).success
            for i in range(1000)
        )
        assert wins / 1000 >= 0.999

    def test_analytic_mode_records_latent_branch(self, instance):
        config = ShorConfig.for_instance(instance, "0.25", mode="analytic", max_retries=8)
        record = solve(instance, config, np.random.default_rng(2))
        assert record.latent_s is not None
        assert record.mode == "analytic"
        assert record.resources.simulated_qubits_actual == 0

    def test_json_stable_fields(self, instance):
        config = ShorConfig.for_instance(instance, "0.25", max_retries=4)
        record = solve(instance, config, np.random.default_rng(3))
        payload = record.to_json_dict()
        for key in ("m_a", "m_b", "mhat_a", "mhat_b", "g_hat", "retries", "success", "mode", "seed"):
            assert key in payload
        json.dumps(payload)  # serialisable


class TestExactMass:
    @pytest.mark.parametrize("epsilon", ["0.5", "0.25"])
    def test_meets_formula_bound(self, instance, small_instance, epsilon):
        for inst in (instance, small_instance):
            mass = single_shot_success_mass(inst, epsilon)
            bound = float(
                Fraction(inst.r - 1, inst.r) * (1 - Fraction(epsilon))
            )
            assert mass >= bound

    @pytest.mark.parametrize("epsilon", ["0.5", "0.25", "0.1"])
    def test_equals_per_branch_reference(self, instance, small_instance, epsilon):
        """Bit for bit the mass of the per-branch loop it replaced: one
        reference law per register and branch, binned by class mod r."""
        for inst in (instance, small_instance, validate_instance(23, 2, 3)):
            r = inst.r
            t = ShorConfig.for_instance(inst, epsilon).t
            size = 1 << t
            classes = ((2 * np.arange(size) * r + size) >> (t + 1)) % r
            success = np.zeros((r, r), dtype=bool)
            for va in range(1, r):
                for vb in range(r):
                    g_hat = (pow(va, -1, r) * vb) % r
                    success[va, vb] = pow(inst.a, g_hat, inst.N) == inst.b
            total = 0.0
            for s in range(r):
                da = outcome_distribution(Fraction(s, r), t)
                db = outcome_distribution(Fraction(s * inst.hidden_g % r, r), t)
                mass_a = np.bincount(classes, weights=da, minlength=r)
                mass_b = np.bincount(classes, weights=db, minlength=r)
                total += float(mass_a @ success @ mass_b)
            assert single_shot_success_mass(inst, epsilon) == total / r

    def test_builds_no_one_row_law(self, instance, monkeypatch):
        """Both registers' laws come from one row-kernel call each; the
        one-row law cache is left to the tests."""

        def refuse(*args, **kwargs):
            raise AssertionError("built a one-row law")

        monkeypatch.setattr(phase, "phase_outcome_distribution", refuse)
        assert single_shot_success_mass(instance, "0.25") > 0.75 * 4 / 5

    def test_matches_brute_force_postprocess_sum(self, small_instance):
        """The classed summation equals a direct sweep over all outcome pairs
        run through the real post-processing path."""
        epsilon = "0.5"
        mass = single_shot_success_mass(small_instance, epsilon)
        config = ShorConfig.for_instance(small_instance, epsilon)
        t, r = config.t, small_instance.r
        total = 0.0
        for s in range(r):
            da = phase_outcome_distribution(Fraction(s, r), t)
            sg = (s * small_instance.hidden_g) % r
            db = phase_outcome_distribution(Fraction(sg, r), t)
            for ma in range(1 << t):
                if da[ma] == 0.0:
                    continue
                for mb in range(1 << t):
                    detail = postprocess_detail(BitString(t, ma), BitString(t, mb), small_instance)
                    if detail.g_hat is not None:
                        total += da[ma] * db[mb]
        assert mass == pytest.approx(total / r, abs=1e-12)
