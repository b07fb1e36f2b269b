"""Whole-state helpers of the gate-level oracle that only the tests use.

No solver or check path calls these: the solvers read the node circuit's
live block (``dlp.node_block``) and the branch-mixture law
(``dlp.joint_law``), ``dist.compare_step7_state`` projects each branch's
live block on its eigenvector, and the tests hold all three to these
whole-state computations. ``build_stage_state`` scatters the live block onto
the full (a, b, work) state, and ``whole_state_step7`` is the step-7 check
run on that full state with a dense contraction over all 2^L work values.
The one-register phase estimation circuit (``run_phase_estimation(t,
unitary, instance, s, rng)``, t counting qubits on the eigenvector
``phase.build_eigenstate(instance, s)``) is the gate-level oracle of the
closed-form outcome law in ``phase``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

import numpy as np

from distdlog import phase, statevec
from distdlog.bits import BitString
from distdlog.dist import DistPlan, Step7Report
from distdlog.dlp import node_block, node_numerators
from distdlog.numtheory import ProblemInstance
from distdlog.phase import build_eigenstate
from distdlog.statevec import QuantumState


def build_stage_state(
    instance: ProblemInstance, t: int, exponent: int = 0, work: int | np.ndarray = 1
) -> QuantumState:
    """The node circuit's full pre-measurement state over (a, b, work):
    ``dlp.node_block`` scattered onto its live work values."""
    block, live = node_block(instance, t, exponent, work)
    layout = statevec.RegisterLayout((("a", t), ("b", t), ("work", instance.L)))
    amps = np.zeros((1 << t, 1 << t, 1 << instance.L), dtype=np.complex128)
    amps[:, :, live] = block
    del block  # before the norm check allocates its temporaries
    return QuantumState(layout, amps.reshape(-1))


def whole_state_step7(instance: ProblemInstance, plan: DistPlan) -> Step7Report:
    """``dist.compare_step7_state`` computed on every node's full state: the
    overlap with u_s and the residual run over all 2^L work values."""
    r = instance.r
    dim_c = 1 << instance.L
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
            cube = build_stage_state(instance, t, exponent, u).amps.reshape(1 << t, 1 << t, dim_c)
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

    return Step7Report(
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
