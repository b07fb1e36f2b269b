"""Whole-state helpers of the gate-level oracle that only the tests use.

No solver or check path calls these: the solvers read the node circuit's
live columns and rows (``node_block`` here runs both stages on every row)
and the branch-mixture law
(``dlp.joint_law``), ``dist.compare_step7_state`` reads each branch's
amplitudes off one run of each node on |1>, one cell of ``dlp.node_cells``
at a time, and the tests hold all three to these whole-state computations. The shared
eigenvectors u_s are built here alone (``build_eigenstate``).
``build_stage_state`` scatters the live block onto the full (a, b, work)
state, ``gate_stage_state`` builds that state gate by gate on any work
input (a vector of the kernel's, r amplitudes in ``live`` order, is
embedded on the r powers of a, ``live_values``), and ``whole_state_step7``
is the step-7 check done directly: every node run on every u_s, r k runs,
with the projection on u_s and its residual taken by a dense contraction
over all 2^L work values. The one-register phase estimation circuit
(``run_phase_estimation(t, unitary, instance, s, rng)``, t counting qubits
on u_s) is the gate-level oracle of the closed-form outcome law in
``phase``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple

import numpy as np

from distdlog import phase, statevec
from distdlog.bits import BitString
from distdlog.dist import DistPlan
from distdlog.dlp import node_columns, node_numerators, node_rows
from distdlog.numtheory import ProblemInstance
from distdlog.statevec import QuantumState


def live_values(instance: ProblemInstance) -> np.ndarray:
    """The r powers of a mod N, sorted: the work values, in order, of the
    kernel's r-entry work vectors."""
    return np.array(sorted(pow(instance.a, k, instance.N) for k in range(instance.r)))


def build_eigenstate(instance: ProblemInstance, s: int) -> np.ndarray:
    """The s-th shared eigenvector of the two multiplication maps, the unit
    vector (1/sqrt r) sum_k exp(-2 pi i s k / r) |a^k mod N>."""
    if not 0 <= s < instance.r:
        raise ValueError(f"s = {s} outside 0..{instance.r - 1}")
    vec = np.zeros(1 << instance.L, dtype=np.complex128)
    point = 1
    scale = 1.0 / math.sqrt(instance.r)
    for k in range(instance.r):
        angle = -2.0 * math.pi * ((s * k) % instance.r) / instance.r
        vec[point] += scale * complex(math.cos(angle), math.sin(angle))
        point = (point * instance.a) % instance.N
    return vec


def node_block(
    instance: ProblemInstance, t: int, exponent: int = 0, work: int | np.ndarray = 1
) -> tuple[np.ndarray, np.ndarray]:
    """The node circuit's pre-measurement amplitudes on its live work values.

    ``work`` is a basis value or r amplitudes in ``live`` order, as
    ``dlp.node_columns`` takes it. Returns ``(block, live)``:
    ``block[j_a, j_b, i]`` is the amplitude of |j_a>|j_b>|live[i]>, the b
    stage (``dlp.node_rows``) run on every row of the a stage
    (``dlp.node_columns``); work values outside ``live`` have amplitude 0.
    The gate-level composition it equals amplitude for amplitude is
    init_product, hadamard_layer on a and b, controlled_modmul_power for a
    and b and inverse_qft on a and b.
    """
    cols, live, place_b = node_columns(instance, t, exponent, work)
    return node_rows(cols, place_b), live


def build_stage_state(
    instance: ProblemInstance, t: int, exponent: int = 0, work: int | np.ndarray = 1
) -> QuantumState:
    """The node circuit's full pre-measurement state over (a, b, work):
    ``node_block`` scattered onto its live work values."""
    block, live = node_block(instance, t, exponent, work)
    layout = statevec.RegisterLayout((("a", t), ("b", t), ("work", instance.L)))
    amps = np.zeros((1 << t, 1 << t, 1 << instance.L), dtype=np.complex128)
    amps[:, :, live] = block
    del block  # before the norm check allocates its temporaries
    return QuantumState(layout, amps.reshape(-1))


def gate_stage_state(
    instance: ProblemInstance, t: int, exponent: int, work: int | np.ndarray
) -> QuantumState:
    """The node circuit applied gate by gate, on any work input: the oracle
    for the fused kernel, which runs on the orbit of a alone. A basis value
    is any value of the work register; a vector holds r amplitudes in
    ``live`` order, embedded on the r powers of a as they are."""
    layout = statevec.RegisterLayout((("a", t), ("b", t), ("work", instance.L)))
    if isinstance(work, (int, np.integer)):
        state = statevec.init_product(layout, {"work": work})
    else:  # a and b start in |0>: the first 2^L amplitudes are the work register's
        amps = np.zeros(1 << layout.total_width, dtype=np.complex128)
        amps[live_values(instance)] = work
        state = QuantumState(layout, amps)
    state = statevec.hadamard_layer(state, "a")
    state = statevec.hadamard_layer(state, "b")
    state = statevec.controlled_modmul_power(state, "a", "work", instance.a, exponent, instance.N)
    state = statevec.controlled_modmul_power(state, "b", "work", instance.b, exponent, instance.N)
    state = statevec.inverse_qft(state, "a")
    return statevec.inverse_qft(state, "b")


class WholeStateStep7(NamedTuple):
    """``whole_state_step7``'s report. The deviations are the check's;
    ``factorization_residual`` is the largest distance of a node's output on
    u_s from (its overlap with u_s) x u_s, and ``basis_residual`` the
    distance of |1> from r^(-1/2) sum_s u_s."""

    max_amplitude_deviation: float
    per_branch_deviation: tuple[float, ...]
    factorization_residual: float
    basis_residual: float


def whole_state_step7(instance: ProblemInstance, plan: DistPlan) -> WholeStateStep7:
    """``dist.compare_step7_state``'s reference: each node run on every u_s
    and its full state projected on u_s, the overlap and the residual taken
    over all 2^L work values, with the residuals and the expansion residual
    of |1> added to the bound."""
    r = instance.r
    dim_c = 1 << instance.L
    live = live_values(instance)
    one = np.zeros(dim_c, dtype=np.complex128)
    one[1] = 1.0
    recon = sum(build_eigenstate(instance, s) for s in range(r)) / math.sqrt(r)
    basis_residual = float(np.linalg.norm(one - recon))

    per_branch = []
    residual_sum = 0.0
    residual_max = 0.0
    for s in range(r):
        u = build_eigenstate(instance, s)
        max_w, max_a, dev = [], [], []
        for t, exponent, _ in plan.nodes:
            cube = build_stage_state(instance, t, exponent, u[live]).amps.reshape(
                1 << t, 1 << t, dim_c
            )
            w = np.tensordot(cube, u.conj(), axes=([2], [0]))
            residual = float(np.linalg.norm(cube - w[:, :, None] * u[None, None, :]))
            residual_sum += residual
            residual_max = max(residual_max, residual)
            num_a, num_b = node_numerators(instance, exponent, s)
            amp_a = phase.phase_state_amplitudes(Fraction(num_a, r), t)
            amp_b = phase.phase_state_amplitudes(Fraction(num_b, r), t)
            analytic = np.outer(amp_a, amp_b)
            max_w.append(float(np.abs(w).max()))
            max_a.append(float(np.abs(analytic).max()))
            dev.append(float(np.abs(w - analytic).max()))
        telescoped = 0.0
        for j in range(plan.k):
            term = dev[j]
            for v in range(j):
                term *= max_w[v]
            for v in range(j + 1, plan.k):
                term *= max_a[v]
            telescoped += term
        per_branch.append(telescoped)

    return WholeStateStep7(
        max_amplitude_deviation=sum(per_branch) / r + residual_sum / math.sqrt(r) + basis_residual,
        per_branch_deviation=tuple(per_branch),
        factorization_residual=residual_max,
        basis_residual=basis_residual,
    )


def joint_distribution(state: QuantumState, registers: Iterable[str]) -> np.ndarray:
    """Exact joint distribution of whole registers, in the order given.

    The result is a flat vector indexed by the concatenated register values
    (first name most significant).
    """
    names = list(registers)
    layout = state.layout
    order = [layout.names.index(n) for n in names]
    rest = [i for i in range(len(layout.names)) if i not in order]
    probs = state.probabilities().reshape(layout.axis_shape())
    moved = np.transpose(probs, order + rest)
    selected = 1
    for n in names:
        selected <<= layout.width_of(n)
    return moved.reshape(selected, -1).sum(axis=1)


def run_phase_estimation(
    t: int,
    unitary: tuple[int, int],
    instance: ProblemInstance,
    s: int,
    rng: np.random.Generator,
    power_exponent: int = 0,
) -> BitString:
    """Execute the t-qubit estimation circuit on the s-th eigenvector of
    ``instance`` and return the measured t-bit string.

    ``unitary`` is (base, N): the multiplication-by-base map mod N, raised
    to 2^power_exponent before being controlled on the counting register.
    """
    base, N = unitary
    if N != instance.N:
        raise ValueError(f"unitary modulus {N} differs from instance modulus {instance.N}")
    layout = statevec.RegisterLayout((("x", t), ("work", instance.L)))
    state = statevec.init_product(layout, {"work": build_eigenstate(instance, s)})
    state = statevec.hadamard_layer(state, "x")
    state = statevec.controlled_modmul_power(state, "x", "work", base, power_exponent, N)
    state = statevec.inverse_qft(state, "x")
    outcome, _ = statevec.measure_register(state, "x", rng)
    return outcome.bits
