"""Whole-state helpers of the gate-level oracle that only the tests use.

No solver path calls these: the solvers read the node circuit's live block
(``dlp.node_block``) and the branch-mixture law (``dlp.joint_law``), and the
tests hold both to these whole-state computations. The one-register phase
estimation circuit (``run_phase_estimation``) is the gate-level oracle of
the closed-form outcome law in ``phase``.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from distdlog import statevec
from distdlog.bits import BitString
from distdlog.phase import EigenstateSpec, PhaseTask, build_eigenstate
from distdlog.statevec import QuantumState


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
    task: PhaseTask,
    unitary: tuple[int, int],
    eigenstate: EigenstateSpec,
    rng: np.random.Generator,
    power_exponent: int = 0,
) -> BitString:
    """Execute the estimation circuit and return the measured t-bit string.

    ``unitary`` is (base, N): the multiplication-by-base map mod N, raised
    to 2^power_exponent before being controlled on the counting register.
    """
    base, N = unitary
    inst = eigenstate.instance
    if N != inst.N:
        raise ValueError(f"unitary modulus {N} differs from instance modulus {inst.N}")
    layout = statevec.RegisterLayout((("x", task.t), ("work", inst.L)))
    state = statevec.init_product(layout, {"work": build_eigenstate(eigenstate)})
    state = statevec.hadamard_layer(state, "x")
    state = statevec.controlled_modmul_power(state, "x", "work", base, power_exponent, N)
    state = statevec.inverse_qft(state, "x")
    outcome, _ = statevec.measure_register(state, "x", rng)
    return outcome.bits
