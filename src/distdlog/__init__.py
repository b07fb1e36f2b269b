"""Exact simulation and verification of single-node and distributed
quantum discrete-logarithm solvers.

The library pairs a dense state-vector backend with closed-form outcome
distributions so the two can check each other, adds the classical
alignment routine that stitches distributed measurements together, and
ships the property suites and CLI used to validate the whole stack.
"""

from .bits import BitString, circ_dist, fraction_bits, wrap_add
from .dist import DistPlan, correct_with_flag, make_plan, solve_distributed
from .dlp import RunRecord, ShorConfig, postprocess_detail, solve
from .numtheory import (
    InstanceError,
    NotInvertibleError,
    ProblemInstance,
    mod_inverse,
    mod_pow,
    multiplicative_order,
    validate_instance,
)
from .phase import (
    EigenstateSpec,
    PhaseTask,
    build_eigenstate,
    check_accuracy_bound,
    phase_outcome_distribution,
)
from .resources import ResourceReport
from .statevec import (
    MeasurementOutcome,
    QuantumState,
    RegisterLayout,
    controlled_modmul_power,
    hadamard_layer,
    init_basis,
    inverse_qft,
    marginal_distribution,
    measure_prefix,
)

__version__ = "0.1.0"

__all__ = [
    "BitString",
    "circ_dist",
    "fraction_bits",
    "wrap_add",
    "DistPlan",
    "correct_with_flag",
    "make_plan",
    "solve_distributed",
    "RunRecord",
    "ShorConfig",
    "postprocess_detail",
    "solve",
    "InstanceError",
    "NotInvertibleError",
    "ProblemInstance",
    "mod_inverse",
    "mod_pow",
    "multiplicative_order",
    "validate_instance",
    "EigenstateSpec",
    "PhaseTask",
    "build_eigenstate",
    "check_accuracy_bound",
    "phase_outcome_distribution",
    "ResourceReport",
    "MeasurementOutcome",
    "QuantumState",
    "RegisterLayout",
    "controlled_modmul_power",
    "hadamard_layer",
    "init_basis",
    "inverse_qft",
    "marginal_distribution",
    "measure_prefix",
    "__version__",
]
