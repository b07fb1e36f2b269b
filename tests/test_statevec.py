import math

import numpy as np
import pytest

from distdlog import statevec
from distdlog.numtheory import validate_instance
from distdlog.statevec import (
    LayoutError,
    QuantumState,
    QubitBudgetError,
    RegisterLayout,
    controlled_modmul_power,
    hadamard_layer,
    init_basis,
    init_product,
    inverse_qft,
    marginal_distribution,
    measure_prefix,
    measure_register,
    register_vector,
)

from gatelevel import build_eigenstate, joint_distribution


def random_state(layout, seed):
    rng = np.random.default_rng(seed)
    n = 1 << layout.total_width
    vec = rng.normal(size=n) + 1j * rng.normal(size=n)
    return QuantumState(layout, vec / np.linalg.norm(vec))


class TestLayout:
    def test_geometry(self):
        layout = RegisterLayout((("a", 3), ("b", 2), ("c", 4)))
        assert layout.total_width == 9
        assert layout.start_of("b") == 3
        assert layout.axis_shape() == (8, 4, 16)

    def test_validation(self):
        with pytest.raises(LayoutError):
            RegisterLayout((("a", 2), ("a", 3)))
        with pytest.raises(LayoutError):
            RegisterLayout((("a", 0),))
        with pytest.raises(QubitBudgetError):
            RegisterLayout((("a", 25),))

    def test_unknown_register(self):
        layout = RegisterLayout((("a", 2),))
        with pytest.raises(LayoutError):
            layout.width_of("zz")


class TestInit:
    def test_basis_examples(self):
        layout = RegisterLayout((("x", 2), ("C", 2)))
        state = init_basis(layout, {"C": 1})
        assert state.amps[0b0001] == 1.0
        assert np.count_nonzero(state.amps) == 1
        default = init_basis(RegisterLayout((("x", 1),)))
        assert default.amps[0] == 1.0
        assert abs(np.sum(np.abs(state.amps) ** 2) - 1.0) < 1e-15

    def test_basis_overflow(self):
        layout = RegisterLayout((("x", 2),))
        with pytest.raises(LayoutError):
            init_basis(layout, {"x": 4})

    def test_product_with_vector(self):
        layout = RegisterLayout((("x", 1), ("y", 2)))
        vec = np.array([1, 1, 0, 0], dtype=complex) / math.sqrt(2)
        state = init_product(layout, {"y": vec})
        expected = np.kron([1, 0], vec)
        assert np.allclose(state.amps, expected)

    def test_product_rejects_bad_norm(self):
        layout = RegisterLayout((("x", 2),))
        with pytest.raises(LayoutError):
            init_product(layout, {"x": np.array([1, 1, 0, 0], dtype=complex)})

    def test_norm_invariant_enforced(self):
        layout = RegisterLayout((("x", 1),))
        with pytest.raises(LayoutError):
            QuantumState(layout, np.array([0.5, 0.5], dtype=complex))


class TestHadamard:
    def test_single_qubit(self):
        layout = RegisterLayout((("x", 1),))
        state = hadamard_layer(init_basis(layout), "x")
        assert np.allclose(state.amps, [1 / math.sqrt(2), 1 / math.sqrt(2)])

    def test_uniform_superposition(self):
        layout = RegisterLayout((("x", 4), ("w", 2)))
        state = hadamard_layer(init_basis(layout), "x")
        tensor = state.tensor()
        assert np.allclose(tensor[:, 0], 1 / 4)
        assert np.allclose(tensor[:, 1:], 0)

    def test_involution(self):
        layout = RegisterLayout((("x", 3), ("y", 2)))
        state = random_state(layout, 11)
        back = hadamard_layer(hadamard_layer(state, "x"), "x")
        assert np.abs(back.amps - state.amps).max() < 1e-12


class TestControlledModMul:
    def test_basis_action(self):
        layout = RegisterLayout((("ctl", 3), ("wrk", 4)))
        state = init_basis(layout, {"ctl": 1, "wrk": 1})
        out = controlled_modmul_power(state, "ctl", "wrk", 3, 0, 11)
        expect = init_basis(layout, {"ctl": 1, "wrk": 3})
        assert np.array_equal(out.amps, expect.amps)
        # control j = 2 multiplies by 3^2 = 9
        state = init_basis(layout, {"ctl": 2, "wrk": 1})
        out = controlled_modmul_power(state, "ctl", "wrk", 3, 0, 11)
        assert out.amps[(2 << 4) | 9] == 1.0

    def test_zero_control_is_identity(self):
        layout = RegisterLayout((("ctl", 3), ("wrk", 4)))
        spread = build_eigenstate(validate_instance(11, 3, 9), 1)
        state = init_product(layout, {"ctl": 0, "wrk": spread})
        out = controlled_modmul_power(state, "ctl", "wrk", 3, 0, 11)
        assert np.abs(out.amps - state.amps).max() < 1e-15

    def test_power_exponent(self):
        layout = RegisterLayout((("ctl", 2), ("wrk", 4)))
        state = init_basis(layout, {"ctl": 1, "wrk": 1})
        out = controlled_modmul_power(state, "ctl", "wrk", 3, 2, 11)
        # 3^(2^2) = 81 = 4 mod 11
        assert out.amps[(1 << 4) | 4] == 1.0

    def test_eigenvector_phases(self, instance):
        """Multiplication maps scale each shared eigenvector by the expected
        unit phase: s/r for the base, (s g mod r)/r for the target."""
        layout = RegisterLayout((("ctl", 1), ("wrk", instance.L)))
        for s in range(instance.r):
            u = build_eigenstate(instance, s)
            for base, numerator in ((instance.a, s), (instance.b, (s * instance.hidden_g) % instance.r)):
                state = init_product(layout, {"ctl": 1, "wrk": u})
                out = controlled_modmul_power(state, "ctl", "wrk", base, 0, instance.N)
                expected_phase = np.exp(2j * np.pi * numerator / instance.r)
                block = out.tensor()[1]
                assert np.abs(block - expected_phase * u).max() < 1e-10

    def test_permutation_bijectivity(self):
        table = statevec._modmul_destinations(3, 4, 3, 1, 11)
        assert table.shape == (1 << 3, 1 << 4)
        for row in table:
            assert np.array_equal(np.sort(row), np.arange(1 << 4))

    def test_rejects_non_unit_base(self):
        layout = RegisterLayout((("c", 2), ("w", 4)))
        state = init_basis(layout)
        with pytest.raises(ValueError, match="not a unit"):
            controlled_modmul_power(state, "c", "w", 4, 0, 12)

    def test_work_register_too_small(self):
        layout = RegisterLayout((("c", 2), ("w", 3)))
        state = init_basis(layout)
        with pytest.raises(LayoutError):
            controlled_modmul_power(state, "c", "w", 3, 0, 11)


class TestFourier:
    def test_loaded_phase_recovers_index(self):
        t = 5
        layout = RegisterLayout((("x", t),))
        for j in (0, 3, 17, 31):
            k = np.arange(1 << t)
            vec = np.exp(2j * np.pi * j * k / (1 << t)) / math.sqrt(1 << t)
            state = QuantumState(layout, vec)
            out = inverse_qft(state, "x")
            assert abs(out.amps[j]) > 1 - 1e-10
            assert np.abs(np.delete(out.amps, j)).max() < 1e-10

    def test_zero_state_goes_uniform(self):
        layout = RegisterLayout((("x", 3),))
        out = inverse_qft(init_basis(layout), "x")
        assert np.allclose(out.amps, 1 / math.sqrt(8))

    @pytest.mark.parametrize("width", [1, 2, 5, 8])
    def test_unitarity_round_trip(self, width):
        """The dense forward transform undoes inverse_qft on a register with
        neighbours on both sides."""
        layout = RegisterLayout((("pre", 2), ("x", width), ("post", 1)))
        state = random_state(layout, width)
        dim = 1 << width
        jk = np.outer(np.arange(dim), np.arange(dim))
        forward_matrix = np.exp(2j * np.pi * jk / dim) / math.sqrt(dim)
        back = np.einsum("xy,pyq->pxq", forward_matrix, inverse_qft(state, "x").tensor())
        assert np.abs(back.reshape(-1) - state.amps).max() < 1e-10

    def test_matches_dense_matrix(self):
        t = 4
        layout = RegisterLayout((("x", t),))
        state = random_state(layout, 3)
        dim = 1 << t
        jk = np.outer(np.arange(dim), np.arange(dim))
        inverse_matrix = np.exp(-2j * np.pi * jk / dim) / math.sqrt(dim)
        direct = inverse_matrix @ state.amps
        out = inverse_qft(state, "x")
        assert np.abs(out.amps - direct).max() < 1e-12


class TestMeasurement:
    def test_basis_state_deterministic(self):
        layout = RegisterLayout((("x", 4), ("y", 2)))
        state = init_basis(layout, {"x": 0b1011, "y": 2})
        rng = np.random.default_rng(0)
        outcome, post = measure_prefix(state, "x", 2, rng)
        assert str(outcome.bits) == "10"
        assert outcome.probability == pytest.approx(1.0)
        assert np.array_equal(post.amps, state.amps)

    def test_full_width_equals_register_measurement(self):
        layout = RegisterLayout((("x", 3),))
        state = hadamard_layer(init_basis(layout), "x")
        outcome, post = measure_register(state, "x", np.random.default_rng(5))
        assert outcome.bits.width == 3
        assert outcome.probability == pytest.approx(1 / 8)
        assert abs(abs(post.amps[outcome.bits.value]) - 1.0) < 1e-12

    def test_marginal_examples(self):
        layout = RegisterLayout((("x", 3), ("y", 2)))
        basis = init_basis(layout, {"x": 5})
        assert np.allclose(marginal_distribution(basis, "x", 3), np.eye(8)[5])
        uniform = hadamard_layer(basis, "y")
        assert np.allclose(marginal_distribution(uniform, "y", 2), 1 / 4)

    def test_marginal_sums_to_one(self):
        layout = RegisterLayout((("x", 4), ("y", 3)))
        state = random_state(layout, 9)
        for width in (1, 2, 4):
            assert marginal_distribution(state, "x", width).sum() == pytest.approx(1.0)

    def test_collapse_statistics(self):
        layout = RegisterLayout((("x", 2),))
        vec = np.array([math.sqrt(0.7), 0, 0, math.sqrt(0.3)], dtype=complex)
        state = QuantumState(layout, vec)
        counts = [0, 0, 0, 0]
        for i in range(400):
            outcome, _ = measure_prefix(state, "x", 2, np.random.default_rng(i))
            counts[outcome.bits.value] += 1
        assert counts[1] == counts[2] == 0
        assert abs(counts[0] / 400 - 0.7) < 0.08

    def test_joint_distribution_layout_independence(self, instance):
        """The same circuit with registers declared in any order yields the
        same joint law of (a, b)."""
        results = []
        for order in (("a", "b", "w"), ("w", "b", "a"), ("b", "w", "a")):
            widths = {"a": 3, "b": 3, "w": instance.L}
            layout = RegisterLayout(tuple((n, widths[n]) for n in order))
            state = init_basis(layout, {"w": 1})
            state = hadamard_layer(state, "a")
            state = hadamard_layer(state, "b")
            state = controlled_modmul_power(state, "a", "w", instance.a, 0, instance.N)
            state = controlled_modmul_power(state, "b", "w", instance.b, 0, instance.N)
            state = inverse_qft(state, "a")
            state = inverse_qft(state, "b")
            results.append(joint_distribution(state, ["a", "b"]))
        assert np.abs(results[0] - results[1]).max() < 1e-12
        assert np.abs(results[0] - results[2]).max() < 1e-12


class TestSampleCdf:
    class Fixed:
        """A generator stand-in whose ``random()`` returns the given uniforms."""

        def __init__(self, *uniforms):
            self.uniforms = iter(uniforms)

        def random(self):
            return next(self.uniforms)

    def test_same_index_as_the_searchsorted_draw(self):
        """The method call draws the index of ``np.searchsorted(cdf, u,
        side="right")`` at u = rng.random() * cdf[-1], clamped to the last
        entry, as a Python int; zero-mass entries are never drawn."""
        law = np.random.default_rng(2).random(4096)
        law[::7] = 0.0
        cdf = np.cumsum(law)
        rng, twin = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(20_000):
            got = statevec.sample_cdf(rng, cdf)
            u = twin.random() * cdf[-1]
            assert type(got) is int
            assert got == min(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)
            assert law[got] > 0.0

    def test_clamps_to_the_last_entry(self):
        """u at the top of the CDF (rounding can reach it) and at its exact
        steps: ties go right, and nothing past the end is drawn."""
        cdf = np.array([0.25, 0.5, 1.0, 1.0])
        assert statevec.sample_cdf(self.Fixed(1.0), cdf) == 3
        assert statevec.sample_cdf(self.Fixed(0.25), cdf) == 1
        assert statevec.sample_cdf(self.Fixed(0.0), cdf) == 0


class TestRegisterVector:
    def test_extract_after_measurement(self):
        layout = RegisterLayout((("x", 2), ("w", 2)))
        vec = np.array([0.6, 0.8j, 0, 0], dtype=complex)
        state = init_product(layout, {"x": 2, "w": vec})
        extracted = register_vector(state, "w", {"x": 2})
        assert np.abs(extracted - vec).max() < 1e-12

    def test_rejects_uncollapsed(self):
        layout = RegisterLayout((("x", 1), ("w", 1)))
        state = hadamard_layer(init_basis(layout), "x")
        with pytest.raises(LayoutError):
            register_vector(state, "w", {"x": 0})


def test_step4_marginal_matches_double_sum(small_instance):
    """Marginal of the first counting register against a direct evaluation
    of the pre-measurement double sum."""
    inst = small_instance
    t = 4
    layout = RegisterLayout((("a", t), ("b", t), ("w", inst.L)))
    state = init_basis(layout, {"w": 1})
    state = hadamard_layer(state, "a")
    state = hadamard_layer(state, "b")
    state = controlled_modmul_power(state, "a", "w", inst.a, 0, inst.N)
    state = controlled_modmul_power(state, "b", "w", inst.b, 0, inst.N)
    state = inverse_qft(state, "a")
    state = inverse_qft(state, "b")
    got = marginal_distribution(state, "a", t)

    size = 1 << t
    expected = np.zeros(size)
    for s in range(inst.r):
        omega = s / inst.r
        for m in range(size):
            amp = sum(
                np.exp(2j * np.pi * j * (omega - m / size)) for j in range(size)
            ) / size
            expected[m] += abs(amp) ** 2 / inst.r
    assert np.abs(got - expected).max() < 1e-9
