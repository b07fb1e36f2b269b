"""Qubit and communication cost accounting.

All quantities here are pure integer/rational functions of
(r, L, k, epsilon, epsilon_prime); nothing is measured from executed
circuits. Gate count and depth are reported as symbolic complexity classes
because gate-level modular arithmetic is outside the simulator's scope, and
the c = L + O(1) auxiliary qubits of a gate-level multiplier are reported
as an explicit exclusion rather than silently added: the simulator applies
multiplications as basis permutations and uses no ancillas.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

from .numtheory import ceil_log2, ceil_log2_ratio


def order_register_width(r: int) -> int:
    """ceil(log2 r + 1); the counting resolution the order r demands."""
    if r < 2:
        raise ValueError(f"need r >= 2, got {r}")
    return ceil_log2(2 * r)


def slack_bits(k: int, epsilon: Fraction | float | str) -> int:
    """ceil(log2(2 + k/epsilon)) extra counting bits per node: k = 1 at
    epsilon for the one-node solver, k nodes at epsilon' for the distributed one."""
    eps = Fraction(epsilon)
    if not 0 < eps < 1:
        raise ValueError(f"epsilon must be in (0,1), got {eps}")
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    p, q = eps.numerator, eps.denominator
    return ceil_log2_ratio(2 * p + k * q, p)


def single_node_qubits(r: int, L: int, epsilon: Fraction | float | str) -> int:
    """Work + counting qubits of the one-node solver (ancillas excluded)."""
    return 2 * (order_register_width(r) + slack_bits(1, epsilon)) + L


def per_node_qubits_from_widths(node_widths: tuple[int, ...] | list[int], L: int) -> int:
    """max_j (2 t_j + L): the largest dense register set any node holds."""
    return max(2 * t + L for t in node_widths)


def per_node_qubits_formula(
    r: int, L: int, k: int, epsilon_prime: Fraction | float | str
) -> Fraction:
    """The tabulated per-node space expression 2((W/k) + slack) + L.

    W = ceil(log2 r + 1) + 1. The division is kept exact (a Fraction), so
    the expression is reproduced rather than re-rounded.
    """
    W = order_register_width(r) + 1
    return 2 * (Fraction(W, k) + slack_bits(k, epsilon_prime)) + L


def communication_qubits(k: int, L: int) -> int:
    """(k - 1) * L qubits moved across the node chain."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return (k - 1) * L


@dataclass(frozen=True)
class ResourceReport:
    """Space/communication accounting for one solver configuration."""

    qubits_single_node_alg2: int
    qubits_per_node_alg4: int | None
    comm_qubits: int
    simulated_qubits_actual: int = 0
    gate_complexity_class: ClassVar[str] = "O(L^3)"
    depth_class: ClassVar[str] = "O(L^3)"
    ancilla_note: ClassVar[str] = (
        "excludes the c = L + O(1) auxiliary qubits of a gate-level controlled "
        "multiplier; the simulator applies multiplications as basis permutations "
        "and uses no ancillas"
    )

    def to_json_dict(self) -> dict:
        return {
            "qubits_single_node_alg2": self.qubits_single_node_alg2,
            "qubits_per_node_alg4": self.qubits_per_node_alg4,
            "comm_qubits": self.comm_qubits,
            "gate_complexity_class": self.gate_complexity_class,
            "depth_class": self.depth_class,
            "simulated_qubits_actual": self.simulated_qubits_actual,
            "ancilla_note": self.ancilla_note,
        }
