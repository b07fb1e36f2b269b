import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from distdlog import dlp, phase, resources, statevec
from distdlog.dist import make_plan, solve_distributed
from distdlog.dlp import (
    ShorConfig,
    joint_law,
    measure_node,
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

import fullwidth
from gatelevel import build_eigenstate, build_stage_state, joint_distribution, node_block
from orbitbfs import bfs_closure
from phaseloop import outcome_distribution


def bs(text):
    """A bit string as its (value, width)."""
    return int(text, 2), len(text)


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

    def test_nodes_is_the_one_node_chain(self, instance):
        """The chain every Alg. 2 stage runs, built once per config."""
        config = ShorConfig.for_instance(instance, "0.25")
        assert config.nodes == ((7, 0, 7),)
        assert config.nodes is config.nodes


class TestRounding:
    def test_half_up_examples(self):
        # 6 * 5 / 32 = 0.9375 -> 1; 13 * 5 / 32 = 2.03 -> 2
        assert round_scaled(*bs("00110"), 5) == 1
        assert round_scaled(*bs("01101"), 5) == 2
        # exact .5 rounds up: 8 * 4 / 64 = 0.5
        assert round_scaled(8, 6, 4) == 1

    def test_postprocess_worked_example(self, instance):
        detail = postprocess_detail(0b00110, 0b01101, 5, instance)
        assert (detail.mhat_a, detail.mhat_b, detail.g_hat) == (1, 2, 2)
        assert mod_pow(3, 2, 11) == 9

    def test_zero_round_retries(self, instance):
        assert postprocess_detail(0b00000, 0b01101, 5, instance).g_hat is None

    def test_full_scale_alias_retries(self, instance):
        # 31 * 5 / 32 rounds to 5 = r, the wrap-around alias of s = 0
        assert round_scaled(*bs("11111"), 5) == 5
        assert postprocess_detail(0b11111, 0b01101, 5, instance).g_hat is None

    def test_never_returns_unverified(self, instance):
        rng = np.random.default_rng(7)
        for _ in range(500):
            m_a = int(rng.integers(1 << 7))
            m_b = int(rng.integers(1 << 7))
            g_hat = postprocess_detail(m_a, m_b, 7, instance).g_hat
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
                    detail = postprocess_detail(ma, mb, t, instance)
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
            counts[(m_a << config.t) | m_b] += 1
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
            counts[(m_a << config.t) | m_b] += 1
        assert 0.5 * np.abs(counts / draws - law).sum() < 0.05

    def test_analytic_zero_branch(self, instance):
        config = ShorConfig.for_instance(instance, "0.25")

        class ZeroRng:
            def integers(self, *a, **k):
                return 0

            def random(self):
                return 0.0

        m_a, m_b, s = quantum_stage_analytic(instance, config, ZeroRng())
        assert s == 0 and m_a == 0 and m_b == 0


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
    eigen = [build_eigenstate(instance, s) for s in range(instance.r)]
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
                assert (m_a, m_b) == (out_a.bits.value, out_b.bits.value)
                assert np.allclose(handoff, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("exponent", [0, 1, 3])
    @pytest.mark.parametrize("t", range(2, 9))
    def test_parseval_marginal_equals_block_marginal(self, instance, t, exponent):
        """The a-marginal read off the a stage's live columns, 2^t sum_k
        |cols[j_a, k]|^2, is the full block's marginal over j_b and work."""
        for work in node_inputs(instance):
            cols, live, _ = node_columns(instance, t, exponent, work)
            assert cols.shape == (1 << t, len(live))
            got = (1 << t) * (np.abs(cols) ** 2).sum(axis=1)
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
        and with its tables warm its peak is at most four (2^t, |live|)
        complex arrays: the live columns, the drawn row (its gather and its
        transform) and the float squares summed for a marginal (about 3.6 of
        them at t = 9). No array spans all 2^L work values."""
        t = 9  # 2 t + L = 22 qubits
        measure_node(instance, t, 0, 1, np.random.default_rng(0))  # tables and FFT plans
        _, live, _ = node_columns(instance, t, 0, 1)
        tracemalloc.start()
        try:
            measure_node(instance, t, 0, 1, np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * (16 << t) * len(live)  # bytes of four live-column arrays


class TestNodeTables:
    @pytest.mark.parametrize("N, a, b", [(11, 3, 9), (23, 2, 3)])
    def test_live_columns_of_the_full_tables(self, N, a, b):
        """The gather and the b positions are the full modmul tables' live
        columns, value for value, with the same dtype and Fortran layout,
        for every input of ``node_inputs`` (a fixed point >= N included)."""
        instance = validate_instance(N, a, b)
        for t, exponent in ((2, 0), (5, 1), (7, 3)):
            src_a = statevec.modmul_sources(t, instance.L, a, exponent, N)
            src_b = statevec.modmul_sources(t, instance.L, b, exponent, N)
            for work in node_inputs(instance):
                vec = statevec.register_factor("work", instance.L, work)
                support = np.flatnonzero(vec).tobytes()
                gather_a, place_b, live = dlp.node_tables(instance, t, exponent, support)
                assert live is dlp.live_orbit(instance, exponent, support)
                want_a = np.asfortranarray(src_a[:, live])
                want_b = np.asfortranarray(np.searchsorted(live, src_b[:, live]))
                for got, want in ((gather_a, want_a), (place_b, want_b)):
                    assert np.array_equal(got, want) and got.dtype == want.dtype
                    layout = lambda x: (x.flags.f_contiguous, x.flags.c_contiguous)
                    assert layout(got) == layout(want) and not got.flags.writeable

    def test_build_keeps_no_full_width_table(self):
        """A state-vector law build at N = 8209 (r = 3, L = 14, t = 5) builds
        no (2^t, 2^L) modmul table: from cold caches it leaves under 2 MiB
        allocated, where the two int64 tables alone take 8 MiB."""
        inst = validate_instance(8209, 3265, pow(3265, 2, 8209))
        assert (inst.r, inst.L) == (3, 14)
        dlp.branch_laws(validate_instance(7, 2, 4), ((3, 0, 3),), "statevector")  # imports
        for cached in (statevec._modmul_destinations, dlp.node_tables, dlp.live_orbit):
            cached.cache_clear()
        tracemalloc.start()
        try:
            laws = dlp.branch_laws(inst, ((5, 0, 5),), "statevector")
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert laws[0].shape == (3, 1 << 10)
        assert statevec._modmul_destinations.cache_info().currsize == 0
        assert held < 2 << 20

    def test_basis_input_builds_no_work_vector(self):
        """A basis input is gathered from the gather table alone: the cold
        N = 8209 (r = 3, L = 14, t = 5) build peaks at about 39 KiB by
        tracemalloc, under a quarter of the 256 KiB complex 2^L work vector
        it once built (the peak was 288 KiB)."""
        inst = validate_instance(8209, 3265, pow(3265, 2, 8209))
        dlp.branch_laws(validate_instance(7, 2, 4), ((3, 0, 3),), "statevector")  # imports
        for cached in (statevec._modmul_destinations, dlp.node_tables, dlp.live_orbit):
            cached.cache_clear()
        tracemalloc.start()
        try:
            dlp.branch_laws(inst, ((5, 0, 5),), "statevector")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (16 << inst.L) // 4

    def test_basis_input_range_checked(self):
        """A basis value outside the work register is refused as
        ``register_factor`` refuses it."""
        inst = validate_instance(11, 3, 9)
        with pytest.raises(statevec.LayoutError, match="does not fit register 'work'"):
            dlp.node_columns(inst, 3, 0, 1 << inst.L)


class TestLiveOrbit:
    @pytest.mark.parametrize("exponent", [0, 1, 3])
    @pytest.mark.parametrize("t", range(2, 9))
    @pytest.mark.parametrize("N, a, b", [(11, 3, 9), (23, 2, 3)])
    def test_equals_bfs_closure(self, N, a, b, t, exponent):
        """The cached closure is the breadth-first one for every input, on
        orbits that are strict subsets of the units, and it is read-only."""
        instance = validate_instance(N, a, b)
        for work in node_inputs(instance):
            _, live, _ = node_columns(instance, t, exponent, work)
            support = [work] if isinstance(work, int) else np.flatnonzero(work)
            assert live.tolist() == bfs_closure(instance, exponent, support)
            assert not live.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                live[0] = live[0]

    @pytest.mark.parametrize("N, a, b", [(11, 3, 9), (23, 2, 3), (47, 2, 4)])
    def test_equals_union1d_closure(self, N, a, b):
        """The sort-and-dedupe closure gives the very array, dtype included,
        that the ``np.union1d`` closure it replaced gives, on every input
        support and exponent 0 to 3."""
        instance = validate_instance(N, a, b)
        for work in node_inputs(instance):
            support = np.flatnonzero(work) if isinstance(work, np.ndarray) else [work]
            support = np.asarray(support, dtype=np.intp).tobytes()
            for exponent in range(4):
                want = np.frombuffer(support, dtype=np.intp)
                for c in (pow(a, 1 << exponent, N), pow(b, 1 << exponent, N)):
                    for _ in range(N.bit_length()):
                        want = np.union1d(want, np.where(want < N, want * c % N, want))
                        c = c * c % N
                got = dlp.live_orbit.__wrapped__(instance, exponent, support)
                assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_one_miss_per_exponent_and_support(self, instance, acceptance_plan, monkeypatch):
        """Fresh runs of both solvers compute each closure once: every node
        makes one lookup of ``node_tables``, which reads the closure only
        when it misses, and every further node on the same (exponent,
        support) is a cache hit."""
        tables, orbits = dlp.node_tables, dlp.live_orbit
        tables.cache_clear()
        orbits.cache_clear()
        keys = []

        def record(*key):
            keys.append(key)
            return tables(*key)

        monkeypatch.setattr(dlp, "node_tables", record)
        config = ShorConfig.for_instance(instance, "0.25", max_retries=2)
        for i in range(20):
            solve(instance, config, np.random.default_rng((13, i)), reuse_state=False)
            solve_distributed(
                instance, acceptance_plan, np.random.default_rng((13, i)),
                max_retries=2, reuse_state=False,
            )
        info = tables.cache_info()
        assert info.hits + info.misses == len(keys) >= 60
        assert orbits.cache_info().hits + orbits.cache_info().misses == info.misses
        assert orbits.cache_info().misses <= len({(e, support) for _, _, e, support in keys})

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
            records = []
            for one in solvers:
                run_batch(one, trials=25, seed=7, emit=lambda r: records.append(r.to_json_dict()))
            return records

        batch()
        misses = dlp.live_orbit.cache_info().misses
        warm = batch()
        assert dlp.live_orbit.cache_info().misses == misses
        dlp.live_orbit.cache_clear()
        dlp.node_tables.cache_clear()
        cold = batch()
        assert dlp.live_orbit.cache_info().misses > 0
        assert warm == cold


def reference_chain(N, a, b, chain):
    """The instance and its one-node chain (Alg. 2 at epsilon = 1/4) or its
    two-node chain (k = 2, h = 2, epsilon = 1/4, epsilon' = 1/5)."""
    inst = validate_instance(N, a, b)
    if chain == "one-node":
        t = ShorConfig.for_instance(inst, "0.25").t
        return inst, ((t, 0, t),)
    return inst, make_plan(inst, k=2, h=2, epsilon="0.25", epsilon_prime="0.2").nodes


@pytest.mark.parametrize("chain", ["one-node", "two-node"])
@pytest.mark.parametrize(
    "N, a, b", [(11, 3, 9), (23, 2, 3), (47, 2, 4)], ids=["N11", "N23", "N47"]
)
class TestFullWidthReference:
    """The live-column kernel equals the full-width one it replaced
    (``fullwidth``) bit for bit, on orbits that are strict subsets of the
    units (N = 23 and 47) and on chains of one and two nodes."""

    def test_measure_chain(self, N, a, b, chain):
        """300 seeded attempts: the same pairs from ``measure_chain``, and
        at every node the same draws and the same hand-off vector."""
        inst, nodes = reference_chain(N, a, b, chain)
        for i in range(300):
            rng, ref_rng = np.random.default_rng((23, i)), np.random.default_rng((23, i))
            work = ref_work = 1
            ref_pairs = []
            for t, exponent, m in nodes:
                m_a, m_b, work = measure_node(inst, t, exponent, work, rng)
                ref_a, ref_b, ref_work = fullwidth.measure_node(
                    inst, t, exponent, ref_work, ref_rng
                )
                assert (m_a, m_b) == (ref_a, ref_b)
                assert np.array_equal(work, ref_work)
                ref_pairs.append((ref_a >> (t - m), ref_b >> (t - m)))
            pairs = dlp.measure_chain(inst, nodes, np.random.default_rng((23, i)))
            assert pairs == tuple(ref_pairs)

    def test_node_block(self, N, a, b, chain):
        """Each node on the input the chain gives it: |1>, then the hand-off
        of a seeded run of the node before."""
        inst, nodes = reference_chain(N, a, b, chain)
        work = 1
        for t, exponent, _ in nodes:
            block, live = node_block(inst, t, exponent, work)
            ref_block, ref_live = fullwidth.node_block(inst, t, exponent, work)
            assert np.array_equal(live, ref_live)
            assert np.array_equal(block, ref_block)
            del block, ref_block
            _, _, work = measure_node(inst, t, exponent, work, np.random.default_rng(5))

    def test_branch_amplitudes(self, N, a, b, chain):
        """The r-point FFT of each m_a cell of ``node_cells`` is that cell's
        rows of the whole block's branch amplitudes."""
        inst, nodes = reference_chain(N, a, b, chain)
        for t, exponent, m in nodes:
            ref = fullwidth.branch_amplitudes(inst, t, exponent)
            rows = 1 << (t - m)
            for c, cell in enumerate(dlp.node_cells(inst, t, exponent, m)):
                assert np.array_equal(np.fft.fft(cell, axis=2), ref[c * rows : (c + 1) * rows])
            assert c == (1 << m) - 1
            del ref

    def test_joint_law(self, N, a, b, chain, monkeypatch):
        """The tables built one m_a cell at a time equal the whole-block
        ones, and so does the law mixed from them."""
        inst, nodes = reference_chain(N, a, b, chain)
        laws = dlp.branch_laws(inst, nodes, "statevector")
        ref = fullwidth.branch_laws(inst, nodes)
        assert len(laws) == len(ref) == len(nodes)
        assert all(np.array_equal(got, want) for got, want in zip(laws, ref))
        law = joint_law.__wrapped__(inst, nodes)
        whole_blocks = lambda inst, nodes, _: fullwidth.branch_laws(inst, nodes)
        monkeypatch.setattr(dlp, "branch_laws", whole_blocks)
        assert np.array_equal(law, joint_law.__wrapped__(inst, nodes))


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

    @pytest.mark.parametrize("mode", ["statevector", "analytic"])
    def test_solves_share_one_report(self, instance, mode):
        """Two solves of one configuration carry one report object, whose
        JSON is the fields written out afresh; the other backend's solves
        carry their own."""
        config = ShorConfig.for_instance(instance, "0.25", max_retries=1, mode=mode)
        first = solve(instance, config, np.random.default_rng(0)).resources
        second = solve(instance, config, np.random.default_rng(1)).resources
        assert first is second
        width = 2 * config.t + instance.L
        assert first.to_json_dict() == resources.ResourceReport(
            qubits_single_node_alg2=width, qubits_per_node_alg4=None, comm_qubits=0,
            simulated_qubits_actual=width if mode == "statevector" else 0,
        ).to_json_dict()
        other = "analytic" if mode == "statevector" else "statevector"
        config = ShorConfig.for_instance(instance, "0.25", max_retries=1, mode=other)
        assert solve(instance, config, np.random.default_rng(0)).resources is not first

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
                    detail = postprocess_detail(ma, mb, t, small_instance)
                    if detail.g_hat is not None:
                        total += da[ma] * db[mb]
        assert mass == pytest.approx(total / r, abs=1e-12)
