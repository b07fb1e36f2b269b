"""End-to-end discrete-log solver: quantum stage, classical rounding and
inversion, and the one solve loop of both solvers.

Every stage piece runs over a chain of node circuits, given as ``(t,
exponent, measured)`` per node: the counting registers control powers
c^(j 2^exponent) of c = a and c = b, and their leading ``measured`` bits
are kept. ``solve_chain`` is the one solve loop: it picks every attempt's
stage (the analytic draw, the cached law, or a fresh run of the chain,
also when the cached law is over its byte cap), hands the drawn pairs to
the solver's join, then rounds, inverts and retries. This solver is it on
the one-node chain ``((t, 0, t),)`` with the identity join, and ``dist``
runs its plan's chain through it with the alignment pass as the join.
The node circuit is a fused kernel in two stages that keeps only the live
work values: ``node_columns`` runs it to the end of register a's inverse
QFT, and ``node_rows`` runs the b stage on the rows it is given;
``node_block`` is both on every row. The live values, the closure of the
input's support under a^(2^e) and b^(2^e), come from ``live_orbit``, cached
per (instance, exponent, support), so repeated fresh runs reuse them and
only the circuit runs again. Fresh runs measure node by node
(``measure_chain``): ``measure_node`` draws register a from the a stage
before b's transform, as nothing later acts on a, and runs the b stage on
the drawn row alone. They never read the instance's hidden exponent.
Cached runs draw a flat index from ``joint_cdf`` and split it with
``decode_joint_index``. ``branch_laws`` gives each node's laws P_j(. | s)
on the eigenvectors of multiplication by a, from the circuit or in closed
form, and ``joint_law``, cached per (instance, chain) with its CDF, is the
one branch mixture (1/r) sum_s prod_j P_j(. | s) of either backend. The
analytic backend draws the latent branch s and then each register exactly
at its phase by one O(1) rejection draw (``sample_chain``). Every branch
phase is an int numerator over r from ``node_numerators``, for one branch
or an int64 array of them. The phases read the exponent g from
``hidden_g`` as an oracle. The test suites hold the sampler to the closed
form, and the closed form to the circuit exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import numpy as np

from . import phase, statevec
from .bits import BitString
from .numtheory import ProblemInstance, mod_inverse, mod_pow, to_fraction
from .resources import (
    ResourceReport,
    communication_qubits,
    order_register_width,
    slack_bits_single,
)

MODES = ("statevector", "analytic")

Chain = tuple[tuple[int, int, int], ...]  # (t, exponent, measured) per node
Pairs = tuple[tuple[BitString, BitString], ...]  # (m_a, m_b) prefixes per node


@dataclass(frozen=True)
class ShorConfig:
    """Solver parameters; t is derived, never free."""

    epsilon: Fraction
    t: int
    max_retries: int = 64
    mode: str = "statevector"

    @classmethod
    def for_instance(
        cls,
        instance: ProblemInstance,
        epsilon: Fraction | float | str,
        max_retries: int = 64,
        mode: str = "statevector",
    ) -> "ShorConfig":
        eps = to_fraction(epsilon)
        if not 0 < eps < 1:
            raise ValueError(f"epsilon must be in (0,1), got {eps}")
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if max_retries < 1:
            raise ValueError(f"max_retries must be >= 1, got {max_retries}")
        t = counting_width(instance.r, eps)
        return cls(epsilon=eps, t=t, max_retries=max_retries, mode=mode)


def counting_width(r: int, epsilon: Fraction) -> int:
    """t = ceil(log2 r + 1) + ceil(log2(2 + 1/epsilon)), computed exactly."""
    return order_register_width(r) + slack_bits_single(epsilon)


@dataclass(frozen=True)
class RunRecord:
    """One end-to-end solve: measurements, rounding, verdict, accounting."""

    m_a: BitString
    m_b: BitString
    mhat_a: int
    mhat_b: int
    g_hat: int | None
    retries: int
    success: bool
    mode: str
    seed: int | None = None
    latent_s: int | None = None
    node_measurements: tuple[tuple[BitString, BitString], ...] | None = None
    comm_qubits: int = 0
    correct_fallback: bool = False
    resources: ResourceReport | None = None

    def to_json_dict(self) -> dict:
        record = {
            "m_a": str(self.m_a),
            "m_b": str(self.m_b),
            "mhat_a": self.mhat_a,
            "mhat_b": self.mhat_b,
            "g_hat": self.g_hat,
            "retries": self.retries,
            "success": self.success,
            "mode": self.mode,
            "seed": self.seed,
        }
        if self.latent_s is not None:
            record["latent_s"] = self.latent_s
        if self.node_measurements is not None:
            record["node_measurements"] = [
                {"m_a": str(ma), "m_b": str(mb)} for ma, mb in self.node_measurements
            ]
            record["comm_qubits"] = self.comm_qubits
            record["correct_fallback"] = self.correct_fallback
        if self.resources is not None:
            record["resources"] = self.resources.to_json_dict()
        return record


@lru_cache(maxsize=32)
def live_orbit(instance: ProblemInstance, exponent: int, support: bytes) -> np.ndarray:
    """The closure of ``support`` under multiplication by a^(2^e) and
    b^(2^e), values >= N fixed: every work value a node circuit on an input
    with that support reaches, sorted.

    ``support`` is the bytes of the input's ``np.flatnonzero``. Cached per
    (instance, exponent, support), read-only: a fresh chain meets the same
    few supports on every attempt.
    """
    N = instance.N
    live = np.frombuffer(support, dtype=np.intp)
    for c in (pow(instance.a, 1 << exponent, N), pow(instance.b, 1 << exponent, N)):
        for _ in range(N.bit_length()):  # after step i: every power below 2^(i+1)
            live = np.union1d(live, np.where(live < N, live * c % N, live))
            c = c * c % N
    live.setflags(write=False)
    return live


def node_columns(
    instance: ProblemInstance, t: int, exponent: int = 0, work: int | np.ndarray = 1
) -> tuple[np.ndarray, np.ndarray]:
    """The node circuit up to the end of the a-register inverse QFT.

    The counting registers control c^(j 2^exponent) for c = a and c = b on
    the work register, which starts in |work> or in the given vector: the
    single-node solver runs exponent 0 on |1>, node j of the distributed
    solver exponent l_j - 1 on the previous node's hand-off. Returns
    ``(cols, live)``: ``cols[j_a, y]`` is the amplitude, before the b stage,
    of a-outcome j_a with the work register at y, and ``live``, the orbit of
    the input's support under a^(2^e) and b^(2^e), holds every y the state
    reaches; ``cols`` is 0 off it. ``live`` is ``live_orbit``'s cached,
    read-only array, one per (instance, exponent, support).

    Both counting registers start in |0>, so the Hadamards only scale the
    work vector, and the a multiplications make ``cols`` the scaled work
    amplitude at a^(-j_a 2^e) y, transformed along j_a. A basis input is
    scaled as one float: its other entries are 0, so the result is the same.
    """
    required = 2 * t + instance.L
    if required > statevec.MAX_QUBITS:
        raise statevec.QubitBudgetError(
            f"circuit needs {required} qubits (cap {statevec.MAX_QUBITS}); use analytic mode"
        )
    vec = statevec.register_factor("work", instance.L, work)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    if isinstance(work, (int, np.integer)):
        scale = 1.0
        for _ in range(2 * t):
            scale *= inv_sqrt2
        vec[work] = scale
    else:
        for _ in range(2 * t):  # rounds exactly as one Hadamard on a |0> qubit
            vec = (vec + 0) * inv_sqrt2
    src_a = statevec.modmul_sources(t, instance.L, instance.a, exponent, instance.N)
    live = live_orbit(instance, exponent, np.flatnonzero(vec).tobytes())
    cols = np.fft.fft(vec[src_a], axis=0) / math.sqrt(1 << t)
    return cols, live


def node_rows(
    instance: ProblemInstance, t: int, exponent: int, cols: np.ndarray, live: np.ndarray
) -> np.ndarray:
    """The b stage of the node circuit on the given rows of ``node_columns``.

    ``cols`` holds some leading-index rows of the a-stage output; returns
    ``rows[i, j_b, k]``, the amplitude of |j_b>|live[k]> in row i. The b
    multiplications make it the row's amplitude at b^(-j_b 2^e) live[k],
    and the b-register transform runs only on the live columns.
    """
    src_b = statevec.modmul_sources(t, instance.L, instance.b, exponent, instance.N)
    rows = np.fft.fft(cols[:, src_b[:, live]], axis=1)
    rows /= math.sqrt(1 << t)
    return rows


def node_block(
    instance: ProblemInstance, t: int, exponent: int = 0, work: int | np.ndarray = 1
) -> tuple[np.ndarray, np.ndarray]:
    """The node circuit's pre-measurement amplitudes on its live work values.

    Returns ``(block, live)``: ``block[j_a, j_b, i]`` is the amplitude of
    |j_a>|j_b>|live[i]>, the b stage (``node_rows``) run on every row of
    the a stage (``node_columns``); work values outside ``live`` have
    amplitude 0.

    This is the fused node kernel; the gate-level oracle it equals
    amplitude for amplitude is init_product, hadamard_layer on a and b,
    controlled_modmul_power for a and b and inverse_qft on a and b. The
    a-register transform acts along j_a alone, so it runs on the (2^t, 2^L)
    gather through the a table before the b table spreads it over j_b.
    """
    cols, live = node_columns(instance, t, exponent, work)
    return node_rows(instance, t, exponent, cols, live), live


def measure_node(
    instance: ProblemInstance, t: int, exponent: int, work: int | np.ndarray,
    rng: np.random.Generator,
) -> tuple[BitString, BitString, np.ndarray]:
    """Run the node circuit once and measure both counting registers in full.

    Returns (m_a, m_b) and the renormalised 2^L work vector they leave
    behind: the draws of measure_register on a, then b, then register_vector
    (the tests hold it to that oracle). Register a is measured before the b
    stage, which never acts on it: every row of the b table permutes the
    live values and the b transform is unitary, so by Parseval the
    a-marginal is 2^t sum_{y in live} |cols[j_a, y]|^2, and only the drawn
    row goes through the b stage. Its mass must equal that marginal.
    """
    cols, live = node_columns(instance, t, exponent, work)
    live_cols = cols[:, live]
    marginal_a = (live_cols.real**2 + live_cols.imag**2).sum(axis=1) * (1 << t)
    norm2 = float(marginal_a.sum())
    if abs(norm2 - 1.0) > statevec.NORM_TOL:
        raise statevec.LayoutError(f"node norm**2 = {norm2!r} drifted beyond {statevec.NORM_TOL}")
    j_a, p_a = statevec.draw_outcome(rng, marginal_a)
    (row,) = node_rows(instance, t, exponent, cols[j_a : j_a + 1], live)
    marginal_b = (row.real**2 + row.imag**2).sum(axis=1)  # [j_b]: mass over the work register
    mass = float(marginal_b.sum())
    if abs(mass - p_a) > statevec.NORM_TOL:
        raise statevec.LayoutError(f"row {j_a} mass {mass!r} differs from its marginal {p_a!r}")
    j_b, _ = statevec.draw_outcome(rng, marginal_b / p_a)
    work_out = np.zeros(1 << instance.L, dtype=np.complex128)
    work_out[live] = row[j_b] / math.sqrt(float(marginal_b[j_b]))
    return BitString(t, j_a), BitString(t, j_b), work_out


def measure_chain(instance: ProblemInstance, nodes: Chain, rng: np.random.Generator) -> Pairs:
    """Run the chain afresh: ``measure_node`` on each node in turn, from |1>
    and then on the work vector the node before hands on."""
    work: int | np.ndarray = 1
    pairs = []
    for t, exponent, m in nodes:
        m_a, m_b, work = measure_node(instance, t, exponent, work, rng)
        pairs.append((m_a.slice(1, m), m_b.slice(1, m)))
    return tuple(pairs)


_LAW_BYTES_CAP = 1 << 28

# branch_laws' analytic tracemalloc peak, less the (r, 4^m) tables it keeps,
# is at most about 17.5 bytes per entry of the widest (r, 2^t) outcome_laws
# table (r = 16001, t = 5 to 8, one or two nodes: the int64 offsets, the
# float64 laws and the bool mask of the singular entries); rounded up here.
_ROW_BYTES = 18

# branch_laws' state-vector tracemalloc peak, less the kept tables, is about
# 32.2 bytes per entry of a node's (2^t, 2^t, r) block (its b stage and its
# r-point FFT each hold two complex copies), plus at most about 42 per entry
# of the node's (2^t, 2^L) a-stage arrays (the gathered columns, their
# transform and the first-use modmul tables), plus under 2 MiB for the
# first import of numpy.fft and the orbit's small arrays (N = 7 to 16381,
# t = 3 to 9, one to three nodes, cold caches); rounded up here.
_BLOCK_BYTES = 34
_COLUMN_BYTES = 42
_BUILD_BYTES_BASE = 2 << 20


def _build_bytes(instance: ProblemInstance, nodes: Chain, mode: str) -> int:
    """An upper bound on what ``branch_laws`` holds at its peak, the
    ``(r, 4^m)`` tables it keeps included: the widest node's row tables
    (analytic) or its block and a-stage arrays (state-vector)."""
    r = instance.r
    nbytes = 8 * r * sum(1 << (2 * m) for _, _, m in nodes)
    if mode == "analytic":
        return nbytes + _ROW_BYTES * r * max(1 << t for t, _, _ in nodes)
    return nbytes + _BUILD_BYTES_BASE + max(
        _BLOCK_BYTES * (r << (2 * t)) + _COLUMN_BYTES * (1 << (t + instance.L))
        for t, _, _ in nodes
    )


def branch_laws(instance: ProblemInstance, nodes: Chain, mode: str) -> list[np.ndarray]:
    """Per node, the ``(r, 4^m)`` table of its prefix laws P_j(m_a, m_b | s),
    flat index m_a 2^m + m_b; row i is branch s = -i mod r on both backends.

    |1> is r^(-1/2) sum_s |u_s>, u_s = r^(-1/2) sum_k exp(-2 pi i s k / r)
    |a^k>, and each node circuit is block-diagonal in the u_s. State-vector:
    the node runs once on |1>, and the r-point FFT of its block along the
    orbit a^k returns branch s's amplitudes at index -s mod r. Analytic: one
    ``phase.outcome_laws`` call per register on every row's numerators,
    folded to m bits; given s the registers are independent.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    r = instance.r
    laws = []
    if mode == "analytic":
        s = -np.arange(r, dtype=np.int64) % r
        for t, exponent, m in nodes:
            nums_a, nums_b = node_numerators(instance, exponent, s)
            p_a = phase.outcome_laws(nums_a, r, t).reshape(r, 1 << m, -1).sum(axis=2)
            p_b = phase.outcome_laws(nums_b, r, t).reshape(r, 1 << m, -1).sum(axis=2)
            laws.append((p_a[:, :, None] * p_b[:, None, :]).reshape(r, -1))
        return laws
    orbit = np.array([pow(instance.a, k, instance.N) for k in range(r)])
    return [_orbit_laws(instance, t, exponent, m, orbit) for t, exponent, m in nodes]


def _orbit_laws(
    instance: ProblemInstance, t: int, exponent: int, m: int, orbit: np.ndarray
) -> np.ndarray:
    """``branch_laws``' state-vector table of one node, whose temporaries
    are freed before the next node's are built.

    The b stage runs on the live values in orbit order, so entry k of its
    block is the amplitude at a^k and the r-point FFT needs no gather; at
    its peak the build holds two complex (2^t, 2^t, r) arrays.
    """
    r = instance.r
    cols, live = node_columns(instance, t, exponent, 1)
    if not np.array_equal(live, np.sort(orbit)):
        raise statevec.LayoutError(f"live work values are not the {r} powers of {instance.a}")
    w = np.fft.fft(node_rows(instance, t, exponent, cols, orbit), axis=2)
    p = (w.real**2 + w.imag**2).reshape(1 << m, 1 << (t - m), 1 << m, 1 << (t - m), r)
    return p.sum(axis=(1, 3)).reshape(-1, r).T


@lru_cache(maxsize=8)
def joint_law(instance: ProblemInstance, nodes: Chain, mode: str = "statevector") -> np.ndarray:
    """Exact joint law of the measured prefixes of a chain of node circuits.

    ``nodes`` lists ``(t, exponent, measured)`` per node, which keeps the
    leading ``measured`` bits of both counting registers. Flat index
    concatenates (m_1a, m_1b, ..., m_ka, m_kb), first node most significant.
    It is the branch mixture (1/r) sum_s prod_j P_j(. | s) of either
    backend's ``branch_laws``, refused before any row is built when the law
    and its build (``_build_bytes``) would pass the cap together.

    Cached per (instance, chain, mode), read-only: both solvers' cached draws
    and ``dist.statevector_joint_distribution`` pass no mode, so they share
    the one state-vector entry per chain.
    """
    size = 1 << (2 * sum(m for _, _, m in nodes))
    law_bytes = 3 * 8 * size  # the law, one branch term and joint_cdf's cumsum
    build_bytes = _build_bytes(instance, nodes, mode)
    if law_bytes + build_bytes > _LAW_BYTES_CAP:
        raise statevec.QubitBudgetError(
            f"joint law needs {law_bytes >> 20} MiB and its build {build_bytes >> 20} MiB"
            f" more (cap {_LAW_BYTES_CAP >> 20} MiB)"
        )
    branches = branch_laws(instance, nodes, mode)
    law = np.zeros(size)
    for s in range(instance.r):
        term = branches[0][s]
        for node in branches[1:]:
            term = np.kron(term, node[s])
        law += term
    law /= instance.r
    total = float(law.sum())
    if abs(total - 1.0) > 1e-9:
        raise AssertionError(f"joint law mass {total!r} drifted from 1")
    law.setflags(write=False)
    return law


@lru_cache(maxsize=8)
def joint_cdf(instance: ProblemInstance, nodes: Chain) -> np.ndarray:
    """Cumulative form of ``joint_law(instance, nodes)``, cached for sampling."""
    cdf = np.cumsum(joint_law(instance, nodes))
    cdf.setflags(write=False)
    return cdf


def decode_joint_index(flat: int, nodes: Chain) -> Pairs:
    """Split a flat joint-law index back into the chain's (m_a, m_b) prefixes."""
    pairs = []
    for _, _, m in reversed(nodes):
        m_b = BitString(m, flat & ((1 << m) - 1))
        flat >>= m
        pairs.append((BitString(m, flat & ((1 << m) - 1)), m_b))
        flat >>= m
    return tuple(reversed(pairs))


def quantum_stage_statevector(
    instance: ProblemInstance, config: ShorConfig, rng: np.random.Generator
) -> tuple[BitString, BitString]:
    """Run the circuit once and measure both counting registers in full:
    ``measure_chain`` on the one-node chain."""
    ((m_a, m_b),) = measure_chain(instance, ((config.t, 0, config.t),), rng)
    return m_a, m_b


def node_numerators(
    instance: ProblemInstance, exponent: int, s: int | np.ndarray
) -> tuple[int, int] | tuple[np.ndarray, np.ndarray]:
    """The numerators over r of the exact phases that a node with controlled
    powers c^(j 2^exponent) estimates on branch s: s for c = a and s g mod r
    for c = b, each times 2^exponent mod r; s may be an int64 array (r < 2^31)."""
    r = instance.r
    shift = pow(2, exponent, r)
    return s * shift % r, s * instance.hidden_g % r * shift % r


def sample_chain(
    instance: ProblemInstance, nodes: Chain, rng: np.random.Generator
) -> tuple[Pairs, int]:
    """Draw the chain's prefixes from the closed form; returns them and s.

    The branch s is uniform, the generator's first draw; given s the
    registers are independent at their phases. Node by node, a before b,
    each full t-bit outcome is one ``phase.sample_phase_outcome`` rejection
    draw on the int numerator from ``node_numerators`` over r, with no 2^t
    array and no Fraction.
    """
    r = instance.r
    s = int(rng.integers(r))
    pairs = []
    for t, exponent, m in nodes:
        num_a, num_b = node_numerators(instance, exponent, s)
        a = phase.sample_phase_outcome(rng, num_a, r, t)
        b = phase.sample_phase_outcome(rng, num_b, r, t)
        pairs.append((BitString(m, a >> (t - m)), BitString(m, b >> (t - m))))
    return tuple(pairs), s


def quantum_stage_analytic(
    instance: ProblemInstance, config: ShorConfig, rng: np.random.Generator
) -> tuple[BitString, BitString, int]:
    """Sample (m_a, m_b) from the closed-form joint law; returns latent s:
    ``sample_chain`` on the one-node chain."""
    ((m_a, m_b),), s = sample_chain(instance, ((config.t, 0, config.t),), rng)
    return m_a, m_b, s


def round_scaled(m: BitString, r: int) -> int:
    """round(value * r / 2^width) with exact half-up integer rounding."""
    width = m.width
    return (2 * m.value * r + (1 << width)) >> (width + 1)


@dataclass(frozen=True)
class PostprocessResult:
    mhat_a: int
    mhat_b: int
    g_hat: int | None


def postprocess_detail(
    m_a: BitString, m_b: BitString, instance: ProblemInstance
) -> PostprocessResult:
    """Round both measurements, invert, and verify the candidate exponent.

    The zero test on the rounded a-measurement is taken mod r: an outcome
    just below full scale rounds to exactly r, which is the wrap-around
    alias of the unusable s = 0 branch.
    """
    r = instance.r
    mhat_a = round_scaled(m_a, r)
    mhat_b = round_scaled(m_b, r)
    v = mhat_a % r
    if v == 0:
        return PostprocessResult(mhat_a, mhat_b, None)
    g_hat = (mod_inverse(v, r) * mhat_b) % r
    if mod_pow(instance.a, g_hat, instance.N) != instance.b % instance.N:
        return PostprocessResult(mhat_a, mhat_b, None)
    return PostprocessResult(mhat_a, mhat_b, g_hat)


def solve_chain(
    instance: ProblemInstance,
    nodes: Chain,
    rng: np.random.Generator,
    mode: str,
    max_retries: int,
    reuse_state: bool,
    join: Callable[[Pairs], tuple[BitString, BitString, dict]],
    **fields,
) -> RunRecord:
    """The one solve loop of both solvers: the chain's quantum stage,
    ``join``, post-processing, retried up to max_retries attempts.

    Each attempt draws the chain's pairs by ``sample_chain`` (analytic),
    from the cached ``joint_cdf`` (state-vector with reuse_state) or by
    ``measure_chain`` (state-vector, fresh). A cached law over its byte
    cap falls back to fresh runs on every attempt, so an oversize circuit
    is refused by its qubit cap. ``join(pairs)`` returns the two
    full-width estimates (m_a, m_b) with the record fields that attempt
    sets; the record reports the last attempt. ``fields`` are the record
    fields fixed for the whole solve.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if max_retries < 1:
        raise ValueError(f"max_retries must be >= 1, got {max_retries}")
    cdf = None
    if mode == "statevector" and reuse_state:
        try:
            cdf = joint_cdf(instance, nodes)
        except statevec.QubitBudgetError:
            pass  # cached law too large; run the chain per attempt
    latent_s = None
    for attempts in range(1, max_retries + 1):
        if mode == "analytic":
            pairs, latent_s = sample_chain(instance, nodes, rng)
        elif cdf is not None:
            pairs = decode_joint_index(statevec.sample_cdf(rng, cdf), nodes)
        else:
            pairs = measure_chain(instance, nodes, rng)
        m_a, m_b, extra = join(pairs)
        detail = postprocess_detail(m_a, m_b, instance)
        if detail.g_hat is not None:
            break
    return RunRecord(
        m_a=m_a,
        m_b=m_b,
        mhat_a=detail.mhat_a,
        mhat_b=detail.mhat_b,
        g_hat=detail.g_hat,
        retries=attempts - 1,
        success=detail.g_hat is not None,
        mode=mode,
        latent_s=latent_s,
        **extra,
        **fields,
    )


def solve(
    instance: ProblemInstance,
    config: ShorConfig,
    rng: np.random.Generator,
    reuse_state: bool = True,
) -> RunRecord:
    """The single-node solver: ``solve_chain`` on the one-node chain, whose
    one pair is the estimate.

    With reuse_state (the default) the state-vector backend draws outcomes
    from the cached exact measurement law of the pre-measurement state,
    which is distribution-identical to re-running the circuit per attempt.
    """
    t = config.t
    width = 2 * t + instance.L  # single_node_qubits(r, L, epsilon): t = counting_width(r, epsilon)
    report = ResourceReport(
        qubits_single_node_alg2=width,
        qubits_per_node_alg4=None,
        comm_qubits=communication_qubits(1, instance.L),
        simulated_qubits_actual=width if config.mode == "statevector" else 0,
    )
    return solve_chain(
        instance, ((t, 0, t),), rng, config.mode, config.max_retries, reuse_state,
        lambda pairs: (*pairs[0], {}), resources=report,
    )


def single_shot_success_mass(
    instance: ProblemInstance, epsilon: Fraction | float | str
) -> float:
    """Exact one-attempt success probability, by deterministic summation.

    For each branch s the rounded values are classified mod r, and the
    success of every (class_a, class_b) pair is decided by actually
    verifying the exponent it would produce, so no assumption about which
    outcomes succeed leaks in. The laws of every branch come from one
    ``phase.outcome_laws`` call per register: s/r for a, (s g mod r)/r for b.
    """
    eps = to_fraction(epsilon)
    t = counting_width(instance.r, eps)
    r = instance.r
    size = 1 << t
    outcomes = np.arange(size, dtype=np.int64)
    classes = ((2 * outcomes * r + size) >> (t + 1)) % r

    success_table = np.zeros((r, r), dtype=bool)
    for va in range(1, r):
        inv = mod_inverse(va, r)
        for vb in range(r):
            g_hat = (inv * vb) % r
            success_table[va, vb] = mod_pow(instance.a, g_hat, instance.N) == instance.b

    nums_a, nums_b = node_numerators(instance, 0, np.arange(r, dtype=np.int64))
    laws_a = phase.outcome_laws(nums_a, r, t)
    laws_b = phase.outcome_laws(nums_b, r, t)
    total = 0.0
    for law_a, law_b in zip(laws_a, laws_b):
        mass_a = np.bincount(classes, weights=law_a, minlength=r)
        mass_b = np.bincount(classes, weights=law_b, minlength=r)
        total += float(mass_a @ success_table @ mass_b)
    return total / r
