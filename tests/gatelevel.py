"""Whole-state helpers of the gate-level oracle that only the tests use.

No solver path calls these: the solvers read the node circuit's live block
(``dlp.node_block``) and the branch-mixture law (``dlp.joint_law``), and the
tests hold both to these whole-state computations.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

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
