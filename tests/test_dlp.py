import dataclasses
import json
import math
import tracemalloc
from fractions import Fraction
from functools import lru_cache

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
from distdlog.numtheory import validate_instance
from distdlog.phase import phase_outcome_distribution

import fullwidth
from gatelevel import (
    build_eigenstate, build_stage_state, gate_stage_state, joint_distribution, live_values,
    node_block,
)
from phaseloop import outcome_distribution, sample_chain_loop


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

    def test_budget_exceeded_suggests_analytic(self, instance, monkeypatch):
        """A node run over the byte cap is refused, with a message naming
        analytic mode, before any table is built: at epsilon = 10^-5
        (t = 21) its bound, ``_RUN_BYTES`` per entry of its (2^t, r) arrays,
        is 1000 MiB. A run whose bound equals the cap runs."""
        config = ShorConfig.for_instance(instance, "0.00001")
        assert config.t == 21
        dlp.node_tables.cache_clear()
        with pytest.raises(
            statevec.QubitBudgetError,
            match=r"^node run needs about 1000 MiB \(cap 256 MiB\); use analytic mode$",
        ):
            build_stage_state(instance, config.t)
        assert dlp.node_tables.cache_info().misses == 0
        need = dlp._RUN_BYTES * instance.r << 4
        monkeypatch.setattr(statevec, "BYTES_CAP", need)
        measure_node(instance, 4, 0, 1, np.random.default_rng(0))
        monkeypatch.setattr(statevec, "BYTES_CAP", need - 1)
        with pytest.raises(statevec.QubitBudgetError, match="node run needs"):
            measure_node(instance, 4, 0, 1, np.random.default_rng(0))

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
        assert pow(3, 2, 11) == 9

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
                assert pow(instance.a, g_hat, instance.N) == instance.b

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


def node_inputs(instance):
    """|1>, every eigenvector u_s and a random normalised vector on the
    orbit of a, each vector as the kernel takes it: its r amplitudes on the
    powers of a, in ``live`` order."""
    rng = np.random.default_rng(2024)
    live = live_values(instance)
    rand = rng.normal(size=instance.r) + 1j * rng.normal(size=instance.r)
    eigen = [build_eigenstate(instance, s)[live] for s in range(instance.r)]
    return [1, *eigen, rand / np.linalg.norm(rand)]


class TestNodeKernel:
    @pytest.mark.parametrize("exponent", [0, 1, 3])
    @pytest.mark.parametrize("t", range(2, 9))
    def test_equals_gate_composition(self, instance, t, exponent):
        for work in node_inputs(instance):
            got = build_stage_state(instance, t, exponent, work)
            want = gate_stage_state(instance, t, exponent, work)
            assert got.layout == want.layout
            assert np.array_equal(got.amps, want.amps)

    def test_vector_scaling_rounds_as_each_hadamard(self, small_instance):
        """A vector input's 2t Hadamards scale it in one running product;
        the columns equal, bit for bit, those of scaling it one Hadamard at
        a time, (vec + 0) * (1 / sqrt(2)) each, on signed zeros, subnormals
        and magnitudes from 1e-300 to 1, at every t the byte cap admits (1
        to 19 at r = 3)."""
        inst = small_instance
        rng = np.random.default_rng(38)
        specials = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308, 1e-300,
                    -1e-300, 3e-150, -1e-20, 7e-5, -0.25]
        vectors = []
        for i in range(0, len(specials), 4):
            rest = np.array(specials[i : i + 4])
            head = math.sqrt(1.0 - float(np.sum(rest**2)))
            for sign in (1, -1):
                vec = np.empty(inst.r, dtype=np.complex128)
                vec.real[0], vec.imag[0] = sign * head * 0.6, -sign * head * 0.8
                vec.real[1:], vec.imag[1:] = rest[0::2], rest[1::2]
                vectors.append(vec)
        # every real or every imaginary part a zero, some of them -0
        vectors.append(np.array([complex(-0.0, 0.6), complex(0.0, -0.8), complex(-0.0, 0.0)]))
        vectors.append(np.array([complex(0.8, -0.0), complex(-0.0, -0.0), complex(-0.6, 0.0)]))
        for _ in range(4):
            parts = 10.0 ** rng.uniform(-300, 0, size=(2, inst.r)) * rng.choice([-1, 1], (2, inst.r))
            vec = parts[0] + 1j * parts[1]
            vectors.append(vec / math.sqrt(float(np.sum(vec.real**2 + vec.imag**2))))
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        t = 1
        while dlp._RUN_BYTES * inst.r << t <= statevec.BYTES_CAP:
            place_a = dlp.node_tables(inst, t, 0)[0]
            for vec in vectors:
                cols, _, _ = node_columns(inst, t, 0, vec)
                step = vec
                for _ in range(2 * t):
                    step = (step + 0) * inv_sqrt2
                want = np.fft.fft(step[place_a], axis=0)
                want /= math.sqrt(1 << t)
                assert np.array_equal(cols, want) and cols.tobytes() == want.tobytes()
                del cols, want
            del place_a
            dlp.node_tables.cache_clear()
            t += 1
        assert t == 20

    @pytest.mark.parametrize("t", range(1, 15))
    def test_scaling_multiplies_as_the_division(self, instance, monkeypatch, t):
        """``node_columns`` and ``node_rows`` scale by a multiply by 1 / sqrt(n):
        on basis and vector inputs every nonzero float equals, bit for bit,
        that of ``amps / math.sqrt(n)``, the division it replaced, and every
        array is ``np.array_equal`` to it."""
        seen = []
        scale = dlp._scale

        def spy(amps, n):
            old = amps / math.sqrt(n)
            scale(amps, n)
            seen.append((old, amps))

        monkeypatch.setattr(dlp, "_scale", spy)
        vec = np.exp(2j * np.pi * np.arange(instance.r) / 7) / math.sqrt(instance.r)
        for exponent, work in ((0, 1), (2, 4), (1, vec)):
            cols, _, place_b = node_columns(instance, t, exponent, work)
            dlp.node_rows(cols[:3], place_b)
        assert len(seen) == 6
        for old, new in seen:
            assert np.array_equal(old, new)
            old_floats, new_floats = (np.stack([a.real, a.imag]) for a in (old, new))
            nonzero = old_floats != 0
            assert nonzero.any()
            assert (old_floats[nonzero].view(np.uint64) == new_floats[nonzero].view(np.uint64)).all()

    def test_input_checks(self, instance):
        with pytest.raises(statevec.LayoutError):
            build_stage_state(instance, 3, 0, 1 << instance.L)
        with pytest.raises(statevec.LayoutError):
            build_stage_state(instance, 3, 0, np.ones(instance.r))
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
        the work register off the collapsed state, on the powers of a: it
        has no amplitude off them."""
        live = live_values(instance)
        off = np.setdiff1d(np.arange(1 << instance.L), live)
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
                assert handoff.shape == (instance.r,) and not want[off].any()
                assert np.allclose(handoff, want[live], rtol=0, atol=1e-12)

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
        them at t = 9). No array spans all 2^L work values. From cold caches,
        its tables built, it stays within the run's bound, ``_RUN_BYTES`` per
        entry."""
        t = 9  # 2 t + L = 22 qubits
        measure_node(instance, t, 0, 1, np.random.default_rng(0))  # tables and FFT plans
        _, live, _ = node_columns(instance, t, 0, 1)
        peaks = []
        for cold in (False, True):
            if cold:
                dlp.node_tables.cache_clear()
            tracemalloc.start()
            try:
                measure_node(instance, t, 0, 1, np.random.default_rng(0))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 4 * (16 << t) * len(live)  # bytes of four live-column arrays
        assert peaks[1] <= dlp._RUN_BYTES * len(live) << t

    def test_chain_peak_within_chain_bound(self):
        """From cold caches, a fresh run of the k = 5, h = 2 plan at N = 263
        (r = 131, t = 9, 10, 10, 10, 8) keeps every node's tables and stays
        within the chain's bound: its widest node's run at ``_RUN_BYTES`` per
        entry and 16 bytes per entry for each other node."""
        inst = validate_instance(263, 2, 32)
        nodes = make_plan(inst, k=5, h=2, epsilon="0.25", epsilon_prime="0.2").nodes
        assert [t for t, _, _ in nodes] == [9, 10, 10, 10, 8]
        want = 100 * (131 << 10) + 16 * 131 * ((1 << 9) + (2 << 10) + (1 << 8))
        assert dlp._chain_bytes(inst.r, nodes) == want
        dlp.measure_chain(inst, nodes, np.random.default_rng(0))  # FFT plans
        dlp.node_tables.cache_clear()
        tracemalloc.start()
        try:
            dlp.measure_chain(inst, nodes, np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= want

    def test_chain_over_cap_refused_before_any_table(self, monkeypatch):
        """A chain whose bound passes the byte cap is refused before its
        first table is built, with a message naming analytic mode, though
        every node alone fits; at the bound it runs."""
        inst = validate_instance(263, 2, 32)
        nodes = make_plan(inst, k=5, h=2, epsilon="0.25", epsilon_prime="0.2").nodes
        need = dlp._chain_bytes(inst.r, nodes)
        monkeypatch.setattr(statevec, "BYTES_CAP", need - 1)
        dlp.node_tables.cache_clear()
        with pytest.raises(
            statevec.QubitBudgetError,
            match=r"^chain run needs about 18 MiB \(cap 18 MiB\); use analytic mode$",
        ):
            dlp.measure_chain(inst, nodes, np.random.default_rng(0))
        assert dlp.node_tables.cache_info().misses == 0
        for t, exponent, _ in nodes:
            assert dlp._RUN_BYTES * inst.r << t < need - 1
            node_columns(inst, t, exponent)
            dlp.node_tables.cache_clear()
        monkeypatch.setattr(statevec, "BYTES_CAP", need)
        pairs = dlp.measure_chain(inst, nodes, np.random.default_rng(0))
        assert [max(pair) < 1 << m for pair, (_, _, m) in zip(pairs, nodes)] == [True] * 5


class TestNodeTables:
    @pytest.mark.parametrize("N, a, b", [(11, 3, 9), (23, 2, 3)])
    def test_live_columns_of_the_full_tables(self, N, a, b):
        """The a and b positions are the full modmul tables' live columns
        placed in ``live``, value for value, with the same dtype and Fortran
        layout,
        and every input of ``node_inputs`` runs on the one cached entry."""
        instance = validate_instance(N, a, b)
        for t, exponent in ((2, 0), (5, 1), (7, 3)):
            src_a = statevec.modmul_sources(t, instance.L, a, exponent, N)
            src_b = statevec.modmul_sources(t, instance.L, b, exponent, N)
            place_a, place_b, live, _ = dlp.node_tables(instance, t, exponent)
            want_a = np.asfortranarray(np.searchsorted(live, src_a[:, live]))
            want_b = np.asfortranarray(np.searchsorted(live, src_b[:, live]))
            for got, want in ((place_a, want_a), (place_b, want_b)):
                assert np.array_equal(got, want) and got.dtype == want.dtype
                layout = lambda x: (x.flags.f_contiguous, x.flags.c_contiguous)
                assert layout(got) == layout(want) and not got.flags.writeable
            for work in node_inputs(instance):
                _, got_live, got_b = node_columns(instance, t, exponent, work)
                assert got_live is live and got_b is place_b

    def test_build_keeps_no_full_width_table(self):
        """A state-vector law build at N = 8209 (r = 3, L = 14, t = 5) builds
        no (2^t, 2^L) modmul table: from cold caches it leaves under 2 MiB
        allocated, where the two int64 tables alone take 8 MiB."""
        inst = validate_instance(8209, 3265, pow(3265, 2, 8209))
        assert (inst.r, inst.L) == (3, 14)
        dlp.branch_laws(validate_instance(7, 2, 4), ((3, 0, 3),), "statevector")  # imports
        for cached in (statevec._modmul_destinations, dlp.node_tables):
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
        """A basis input is placed in an r-entry work vector and gathered
        through the a table: the cold N = 8209 (r = 3, L = 14, t = 5) build
        peaks at about 39 KiB by tracemalloc, under a quarter of the 256 KiB
        complex 2^L work vector it once built (the peak was 288 KiB)."""
        inst = validate_instance(8209, 3265, pow(3265, 2, 8209))
        dlp.branch_laws(validate_instance(7, 2, 4), ((3, 0, 3),), "statevector")  # imports
        for cached in (statevec._modmul_destinations, dlp.node_tables):
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


def _of_order(N, r, x):
    """(N, a, a^5 mod N) with a = x^((N - 1)/r) mod N, of order r."""
    a = pow(x, (N - 1) // r, N)
    return N, a, pow(a, 5, N)


# Moduli far past (N - 1)^2 < 2^63: live values past 2^63 at the first two,
# and Alg. 2 circuits of 145 and 537 qubits at epsilon 1/2 at the last two.
LARGE_MODULI = {
    "2^63+3341-r31": _of_order((1 << 63) + 3341, 31, 2),
    "2^64-323-r7": (18446744073709551293, 10207159125660657730, 11652433177934702572),
    "2^127-1-r43": _of_order((1 << 127) - 1, 43, 3),
    "2^521-1-r31": _of_order((1 << 521) - 1, 31, 3),
}
# Every valid instance the tests use, and N = 2^31 - 1 with a of order 7 and 31.
TABLE_INSTANCES = {
    f"N{N}-{a}-{b}": (N, a, b)
    for N, a, b in [
        (7, 2, 4), (11, 3, 1), (11, 3, 9), (23, 2, 3), (23, 2, 8), (29, 16, 24), (47, 2, 4),
        (59, 3, 9), (167, 4, 16), (263, 2, 32), (311, 6, 36), (8209, 3265, 4943),
        (32003, 4, 17236), (2000303, 4, 482074), (2147483647, 1205362885, 894255406),
        (2147483647, 512, 134217728), (3037000500, 2429600401, 1822200301),
        (3037000501, 2361333562, 675666938), (1099511627803, 231197147670, 398764939913),
    ]
} | LARGE_MODULI


class TestNodeTablesByIndex:
    """``node_tables`` by index arithmetic on the orbit of a, held to the
    residue-product build it replaced (``fullwidth.node_tables``), and the
    kernel run on it at moduli that build could not reach."""

    @pytest.mark.parametrize("triple", TABLE_INSTANCES.values(), ids=TABLE_INSTANCES)
    def test_equals_residue_products(self, triple):
        """At t = 3, 6, 9 and exponent 0, 2, 5, every table equals the
        reference in value, dtype, strides and read-only flag; ``live`` is
        intp while N <= 2^63 and object above. Grid points of more than 2^20
        table entries are skipped: r = 16001 runs at t = 3 and 6, and r =
        1,000,151 at none."""
        instance = validate_instance(*triple)
        built = 0
        for t in (3, 6, 9):
            for exponent in (0, 2, 5):
                if instance.r << t > 1 << 20:
                    continue
                got = dlp.node_tables(instance, t, exponent)
                want = fullwidth.node_tables(instance, t, exponent)
                for table, ref in zip(got, want):
                    assert np.array_equal(table, ref)
                    assert (table.dtype, table.strides) == (ref.dtype, ref.strides)
                    assert not table.flags.writeable and not ref.flags.writeable
                assert got[2].dtype == (np.intp if instance.N <= 1 << 63 else object)
                built += 1
        dlp.node_tables.cache_clear()
        assert built == {16001: 6, 1000151: 0}.get(instance.r, 9)

    @pytest.mark.parametrize("triple", LARGE_MODULI.values(), ids=LARGE_MODULI)
    def test_backends_agree_past_int64(self, triple):
        """Alg. 2's exact success mass at epsilon = 1/2 is the same in both
        modes within 1e-12, and 4,000 seeded fresh draws of the one-node chain
        ((6, 0, 3),) pass a chi-square test against its exact state-vector
        law; outcomes expected fewer than 5 times share one pooled cell."""
        from test_phase import chi_square_critical

        instance = validate_instance(*triple)
        config = ShorConfig.for_instance(instance, "0.5")
        chain = (config.nodes, dlp.identity_join, config.t)
        analytic = dlp.success_mass(instance, *chain)
        assert abs(dlp.success_mass(instance, *chain, mode="statevector") - analytic) <= 1e-12
        nodes = ((6, 0, 3),)
        law = joint_law(instance, nodes)
        draws = 4000
        rng = np.random.default_rng(2024)
        counts = np.zeros(law.size)
        for _ in range(draws):
            ((m_a, m_b),) = dlp.measure_chain(instance, nodes, rng)
            counts[m_a << 3 | m_b] += 1
        expected = law * draws
        big = expected >= 5
        observed = np.append(counts[big], counts[~big].sum())
        wanted = np.append(expected[big], expected[~big].sum())
        keep = wanted > 0
        stat = float((((observed - wanted) ** 2)[keep] / wanted[keep]).sum())
        assert stat <= chi_square_critical(int(keep.sum()) - 1)
        dlp.node_tables.cache_clear()
        joint_law.cache_clear()


class TestLiveOrbit:
    @pytest.mark.parametrize("exponent", [0, 1, 2, 3])
    @pytest.mark.parametrize("t", range(2, 9))
    @pytest.mark.parametrize("N, a, b", [(11, 3, 9), (23, 2, 3), (47, 2, 4)])
    def test_live_is_the_sorted_powers_of_a(self, N, a, b, t, exponent):
        """``live`` is the r powers of a, sorted, as intp, read-only, and
        ``order`` gives each power's position in it; at N = 23, a = 2 they
        are 11 of the 22 units."""
        instance = validate_instance(N, a, b)
        _, _, live, order = dlp.node_tables(instance, t, exponent)
        powers = [pow(a, k, N) for k in range(instance.r)]
        assert live.dtype == np.intp and live.tolist() == sorted(powers)
        assert live[order].tolist() == powers
        for table in (live, order):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = table[0]

    @pytest.mark.parametrize("exponent", [0, 3])
    def test_off_orbit_input_refused(self, exponent):
        """A basis input off the orbit of a is refused: the fixed point
        N + 1 and 5 at N = 23 (not a power of 2 mod 23). A vector has one
        amplitude per power, so a unit vector over all 2^L work values, or
        one entry short, is refused by its length, and one of norm 1.01 by
        its norm."""
        instance = validate_instance(23, 2, 3)
        rng = np.random.default_rng(2024)
        for work in (instance.N + 1, 5):
            with pytest.raises(statevec.LayoutError, match="not one of the 11 powers of 2"):
                node_columns(instance, 3, exponent, work)
        for size in (1 << instance.L, instance.r - 1):
            vec = rng.normal(size=size) + 1j * rng.normal(size=size)
            with pytest.raises(statevec.LayoutError, match=r"shape \(%d,\), not \(11,\)" % size):
                measure_node(instance, 3, exponent, vec / np.linalg.norm(vec), rng)
        vec = rng.normal(size=instance.r) + 1j * rng.normal(size=instance.r)
        with pytest.raises(statevec.LayoutError, match="work vector has norm 1.01"):
            measure_node(instance, 3, exponent, 1.01 * vec / np.linalg.norm(vec), rng)

    def test_one_miss_per_exponent_and_support(self, instance, acceptance_plan, monkeypatch):
        """Fresh runs of both solvers build each node's tables once,
        whatever the support of its input: every node makes one lookup of
        ``node_tables``, keyed by (instance, t, exponent), and only the first
        lookup of each (t, exponent) misses."""
        tables = dlp.node_tables
        tables.cache_clear()
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
        assert info.misses == len({(t, exponent) for _, t, exponent in keys}) >= 2

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
        misses = dlp.node_tables.cache_info().misses
        warm = batch()
        assert dlp.node_tables.cache_info().misses == misses
        dlp.node_tables.cache_clear()
        cold = batch()
        assert dlp.node_tables.cache_info().misses > 0
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


# The orders the chain-draw test covers, with an instance of each.
CHAIN_INSTANCES = {
    5: (11, 3, 9), 11: (23, 2, 3), 23: (47, 2, 4), 16001: (32003, 4, 17236),
    1000151: (2000303, 4, 482074),
}
# A three-node chain run at every order, so that a node's 2^e mod r is
# read at several r for one chain.
FIXED_CHAIN = ((6, 0, 6), (7, 3, 4), (5, 5, 2))


@lru_cache(maxsize=None)
def chain_instance(r):
    return validate_instance(*CHAIN_INSTANCES[r])


def chain_at(r, name):
    """Alg. 2's chain (``k1``), a k = 2 or k = 3 plan's chain (``k2``,
    ``k3``) or ``FIXED_CHAIN`` (``fixed-k3``) at order r."""
    instance = chain_instance(r)
    if name == "k1":
        return ShorConfig.for_instance(instance, "0.25").nodes
    if name == "fixed-k3":
        return FIXED_CHAIN
    return make_plan(instance, int(name[1]), None, "0.25", "0.2").nodes


# Every order with every chain, but the k = 3 plan, infeasible at r = 5.
CHAIN_CASES = [
    (r, name) for r in CHAIN_INSTANCES for name in ("k1", "k2", "k3", "fixed-k3")
    if (r, name) != (5, "k3")
]


class RefusingRng:
    def random(self):
        raise AssertionError("drew a uniform")

    def integers(self, high):
        raise AssertionError("drew the branch")


class TestSampleChain:
    @pytest.mark.parametrize(
        "r, chain", CHAIN_CASES, ids=[f"r{r}-{name}" for r, name in CHAIN_CASES]
    )
    def test_equals_the_per_register_sampler(self, r, chain):
        """Over 200 seeds, ``sample_chain`` draws what one checked
        ``phase.sample_phase_outcome`` call per register draws
        (``phaseloop.sample_chain_loop``): the same pairs and s, and the
        same generator state after."""
        instance, nodes = chain_instance(r), chain_at(r, chain)
        for seed in range(200):
            got_rng, want_rng = (np.random.default_rng((38, seed)) for _ in range(2))
            assert dlp.sample_chain(instance, nodes, got_rng) == sample_chain_loop(
                instance, nodes, want_rng
            ), (r, chain, seed)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("nodes, r", [
        (((27, 0, 27),), 5),
        (((8, 0, 8), (0, 1, 0)), 11),
        (((2, 0, 2),), (1 << 61) - 1),
        (((4, 0, 4), (3, 2, 2)), (1 << 59) - 55),
    ], ids=["t-above-cap", "t-zero", "den-61-bits", "den-59-bits"])
    def test_over_wide_chain_refused_before_any_draw(self, nodes, r):
        """A chain too wide for the sampler at r is refused with the message
        ``sample_phase_outcome`` gives its first too-wide node's register,
        before the branch or any register is drawn."""
        instance = dataclasses.replace(chain_instance(5), r=r, hidden_g=1)
        t = next(t for t, _, _ in nodes if not 1 <= t <= phase._MAX_T or t + r.bit_length() > 62)
        with pytest.raises(ValueError) as sampler_error:
            phase.sample_phase_outcome(RefusingRng(), 1, r, t)
        with pytest.raises(ValueError) as chain_error:
            dlp.sample_chain(instance, nodes, RefusingRng())
        assert str(chain_error.value) == str(sampler_error.value)


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
