"""The k-node distributed discrete-log solver.

Each node estimates one window of the two phase expansions, neighbouring
windows overlap by h + 1 bits, and a classical alignment pass stitches the
per-node measurements into one full-width estimate before the usual
rounding and inversion.

The solver is a join plus a record header: ``solve_distributed`` hands
``dlp.solve_chain``, the one solve loop of both solvers, the plan's chain
``plan.nodes`` of ``(t_j, l_j - 1, measured_j)``, a join that aligns
each family's node prefixes (``align_values``, on the plain ints the chain
draws; no bit string is built while solving) and the plan's header, its
widths and resource report (``record_header``). The quantum stage,
both joint laws and the retries are ``dlp``'s. The nodes act in sequence
on a shared L-qubit work register. A register that a node has finished
with is never touched by any later operation, so the state-vector backend
simulates one node of 2 t_j + L logical qubits at a time:
``dlp.measure_chain`` measures its registers in full on the work values
the state reaches, register a before the b stage and b on the one drawn
row (measuring the unmeasured tail early changes no reported statistic,
by the deferred measurement principle), and hands the then-pure work
register to the next node as its r amplitudes on the orbit of a. The
simulated circuit therefore has the claimed per-node width
max_j (2 t_j + L) exactly, and the hand-off is the (k-1) L communication
cost; each node run holds O(2^t_j r) values, whatever L is. A single flat
vector over all nodes' registers would hold 2^(2 (t_1 + ... + t_k) + L)
amplitudes.

The cached backend needs no such vector either: given the branch s (an
eigenvector of multiplication by a) the nodes are independent, so
``dlp.joint_law`` builds the law of all measured prefixes as the mixture
(1/r) sum_s prod_j P_j(. | s) of ``dlp.branch_laws``' rows, from one run of
each node or in closed form, cached per chain in ``dlp``; as for the
single-node solver, the first draw of a flat index is split back into node
pairs by ``dlp.decode_joint_index``, aligned and verified, and repeat draws
reuse that outcome from the chain's memo, keyed by the plan's ``join``.
The step-7 check (``compare_step7_state``) reads the same branches off
one run of each node on |1>, one m_a cell of ``dlp.node_cells`` at a time,
holds them to the closed-form amplitudes, and checks the run on |a> against
the shifted run on |1>: two runs of each node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from . import dlp, phase
from .bits import BitString, circ_dist, wrap_add  # circ_dist: bench/tests checks dist's binding of it
from .dlp import (  # decode_joint_index, postprocess_detail: bench/ binds them by these names
    Chain,
    Pairs,
    decode_joint_index,
    joint_law,
    measure_chain,
    node_numerators,
    postprocess_detail,
    sample_chain,
    solve_chain,
)
from .numtheory import ProblemInstance
from .records import RecordHeader, RunRecord
from .resources import (
    ResourceReport,
    communication_qubits,
    order_register_width,
    per_node_qubits_from_widths,
    single_node_qubits,
    slack_bits,
)
from .statevec import Rng, check_bytes

class PlanError(ValueError):
    pass


@dataclass(frozen=True)
class DistPlan:
    """Split points, node widths, and measured widths for a k-node run.

    ``l`` has k + 1 entries (1-based bit positions into the phase
    expansion); node j covers positions l_j .. l_{j+1} + h (the last node
    stops at l_{k+1}).
    """

    r: int
    k: int
    h: int
    epsilon: Fraction
    epsilon_prime: Fraction
    l: tuple[int, ...]
    t: tuple[int, ...]
    measured: tuple[int, ...]
    total_width: int

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "h": self.h,
            "epsilon": float(self.epsilon),
            "epsilon_prime": float(self.epsilon_prime),
            "l": list(self.l),
            "t": list(self.t),
            "measured": list(self.measured),
            "total_width": self.total_width,
        }

    @cached_property
    def nodes(self) -> Chain:
        """``(t_j, l_j - 1, measured_j)`` per node, the chain ``dlp`` runs;
        built once per plan."""
        return tuple(zip(self.t, (l - 1 for l in self.l), self.measured))

    def join(self, pairs: Pairs) -> tuple[int, int, dict]:
        """The solver's join: the alignment pass (``align_values``) on each
        family of the chain's pairs, ints or int64 arrays (``dlp.success_mass``).
        A bound method hashes and compares by the plan's identity, so
        ``dlp.solve_chain`` keys the outcomes it memoises by it cheaply, apart
        from every other plan's and join's."""
        m_a, fb_a = align_values([ma for ma, _ in pairs], self)
        m_b, fb_b = align_values([mb for _, mb in pairs], self)
        return m_a, m_b, {"node_measurements": pairs, "correct_fallback": fb_a | fb_b}

    @cached_property
    def headers(self) -> dict[tuple[int, int, str], RecordHeader]:
        """``record_header``'s record headers for this plan, keyed by (r, L,
        mode): a solve finds its header without hashing the plan's Fractions."""
        return {}


def check_split(k: int, epsilon: Fraction, epsilon_prime: Fraction) -> None:
    """Refuse a split that no order can plan: fewer than 2 nodes, or not
    0 < epsilon' < epsilon < 1."""
    if not 0 < epsilon_prime < epsilon < 1:
        raise PlanError(f"need 0 < epsilon' < epsilon < 1, got {epsilon_prime} and {epsilon}")
    if k < 2:
        raise PlanError(f"need at least 2 nodes, got k = {k}")


@lru_cache(maxsize=64)
def plan_for_order(
    r: int,
    k: int,
    h: int | None = None,
    epsilon: Fraction | float | str = Fraction(1, 4),
    epsilon_prime: Fraction | float | str | None = None,
) -> DistPlan:
    """Derive a distributed plan from the order alone (no instance needed);
    cached, so equal requests share one plan, its join and its memo."""
    eps = Fraction(epsilon)
    eps_prime = eps / 2 if epsilon_prime is None else Fraction(epsilon_prime)
    check_split(k, eps, eps_prime)
    W = order_register_width(r) + 1
    l = [1] + [(i - 1) * W // k for i in range(2, k + 1)] + [W]
    if any(l[i] >= l[i + 1] for i in range(k)):
        raise PlanError(f"plan infeasible: k = {k} exceeds {W // 2} for order {r}")
    h_max = W // k
    if h is None:
        h = min(3, h_max)
    if not 2 <= h <= h_max:
        raise PlanError(f"h must be in 2..{h_max}, got {h}")
    slack = slack_bits(k, eps_prime)
    t = tuple(l[j + 1] + 3 - l[j] + slack for j in range(k - 1)) + (l[k] + 1 - l[k - 1] + slack,)
    measured = tuple(l[j + 1] + h + 1 - l[j] for j in range(k - 1)) + (l[k] + 1 - l[k - 1],)
    if any(m > w for m, w in zip(measured, t)):
        raise PlanError(f"measured widths {measured} exceed node widths {t} (h too large)")
    return DistPlan(
        r=r,
        k=k,
        h=h,
        epsilon=eps,
        epsilon_prime=eps_prime,
        l=tuple(l),
        t=t,
        measured=measured,
        total_width=W,
    )


def make_plan(
    instance: ProblemInstance,
    k: int,
    h: int | None = None,
    epsilon: Fraction | float | str = Fraction(1, 4),
    epsilon_prime: Fraction | float | str | None = None,
) -> DistPlan:
    return plan_for_order(instance.r, k, h, epsilon, epsilon_prime)


def align_values(values, plan: DistPlan):
    """The alignment pass on per-node measured values: ``(value, fallback)``.

    ``values`` holds one value per node, node j of width ``plan.measured[j]``.
    The body uses only ``+ - >> & <<``, comparisons and bool-times-int
    arithmetic, so it runs unchanged on Python ints (returning an ``int`` and
    a ``bool``) and elementwise on int64 arrays (returning two arrays). Every
    reduction mod 2^k is ``& (2^k - 1)``, which gives the same residue in
    [0, 2^k) as ``%`` for negative values too, on ints (infinite two's
    complement) and on int64 arrays, and costs a fraction of an array ``%``.
    Arrays hold ``plan.total_width`` bits, so they need a plan narrower than
    63 bits.

    Walking from the last node back, node j's trailing h + 1 bits are moved
    onto the leading h + 1 bits of the part already assembled. The needed
    move is the signed residue

        s = 2^h - ((2^h - (target - tail)) mod 2^(h+1)),  s in (-2^h, 2^h],

    and the shift applied is s clamped to [-2^(h-1), 2^(h-1)]. Within that
    range the shift makes the windows agree exactly and is the only shift
    that does. Outside it no shift in range matches, the clamp picks the
    closest one, and the fallback flag is set. At the midpoint s = 2^h the
    two ends are equally close and the clamp gives +2^(h-1).
    """
    h = plan.h
    half = 1 << h
    reach = 1 << (h - 1)
    combined = values[-1]
    width = plan.measured[-1]
    fallback = False
    for j in range(plan.k - 2, -1, -1):
        rest = width - h - 1  # bits of the assembled part below the overlap
        s = half - ((half - ((combined >> rest) - values[j])) & (2 * half - 1))
        over, under = s > reach, s < -reach
        shift = s - over * (s - reach) - under * (s + reach)
        fallback = fallback | over | under
        aligned = (values[j] + shift) & ((1 << plan.measured[j]) - 1)
        combined = (aligned << rest) + (combined & ((1 << rest) - 1))
        width = plan.measured[j] + rest
    return combined, fallback


def correct_with_flag(measurements: list[BitString], plan: DistPlan) -> tuple[BitString, bool]:
    """Alignment-and-concatenation pass over the per-node measurements.

    Walking from the last node back, each measurement is shifted by the
    small wrap-around offset that makes its trailing h + 1 bits agree with
    the leading h + 1 bits of the part already assembled, then the
    non-overlapping head is prepended. The offset is computed in closed
    form by ``align_values``: the signed residue s of (target - tail) mod
    2^(h+1), taken in (-2^h, 2^h], clamped to [-2^(h-1), 2^(h-1)]. Distinct
    shifts in that range give distinct trailing windows, so an exact match
    is unique when it exists.

    When |s| > 2^(h-1) no shift matches exactly (the measurements fell
    outside the guaranteed window) and the clamp gives the closest shift;
    at the midpoint s = 2^h, where +2^(h-1) and -2^(h-1) are equally close,
    it gives +2^(h-1). The flag reports that this fallback fired so the
    caller can distrust the output. This wrapper checks the widths and
    carries the values in and out of ``BitString``; ``align_values`` is the
    same pass on ints or int64 arrays, and the one the solver runs.
    """
    if len(measurements) != plan.k:
        raise PlanError(f"expected {plan.k} measurements, got {len(measurements)}")
    for m, width in zip(measurements, plan.measured):
        if m.width != width:
            raise PlanError(f"measurement width {m.width} does not match plan width {width}")
    value, fallback = align_values([m.value for m in measurements], plan)
    # value < 2^total_width already; the result goes through wrap_add because
    # bench/tests counts bits calls made through dist's binding of it
    return wrap_add(BitString(plan.total_width, 0), value), fallback


def _circ(diff, width: int):
    """Circular distance of a difference of ``width``-bit values (ints or arrays)."""
    d = diff & ((1 << width) - 1)
    return np.minimum(d, (1 << width) - d)


def brute_force_correct_oracle(w, perturbations, plan: DistPlan):
    """Independent check of the alignment pass against a known ground truth.

    The inputs are the exact windows of ``w`` nudged by the given wrap-around
    offsets; the reassembled output must sit at exactly the last node's
    deviation from its window, which is |perturbations[-1]|.

    ``w`` is an int or an int64 array of values of the plan's total width;
    each perturbation is an int or an int64 array broadcasting against
    ``w``. The windows are cut by shift and mask, the pass is
    ``align_values`` over all cases at once, and every case is checked.
    Returns ``(output, failures)``: the output, an int64 scalar or array,
    and the number of cases it moved off the ground truth.
    """
    width = plan.total_width
    if width > 62:
        raise ValueError(f"plan width {width} overflows the int64 oracle (at most 62)")
    values = np.asarray(w, dtype=np.int64)
    if ((values < 0) | (values >> width != 0)).any():
        raise ValueError(f"w has values outside {width} bits")
    if len(perturbations) != plan.k:
        raise ValueError(f"expected {plan.k} perturbations")
    offsets = [np.asarray(p, dtype=np.int64) for p in perturbations]
    bound = 1 << (plan.h - 2)
    for p in offsets[:-1]:
        if (np.abs(p) > bound).any():
            raise ValueError(f"perturbation {np.abs(p).max()} exceeds bound {bound}")
    if (np.abs(offsets[-1]) > 1).any():
        raise ValueError(f"last perturbation {np.abs(offsets[-1]).max()} exceeds 1")

    ends = [plan.l[j + 1] + plan.h for j in range(plan.k - 1)] + [plan.l[plan.k]]
    windows = [
        (values >> (width - end)) & ((1 << m) - 1) for end, m in zip(ends, plan.measured)
    ]
    inputs = [(x + p) & ((1 << m) - 1) for x, p, m in zip(windows, offsets, plan.measured)]

    output, _ = align_values(inputs, plan)
    got = _circ(output - values, width)
    want = _circ(inputs[-1] - windows[-1], plan.measured[-1])
    bad = (got != want) | (want != np.abs(offsets[-1]))
    return output, int(np.count_nonzero(bad))


def run_distributed_quantum(
    instance: ProblemInstance,
    plan: DistPlan,
    rng: Rng,
    mode: str = "statevector",
) -> tuple[Pairs, int | None]:
    """One pass of the k-node quantum stage: ``dlp.measure_chain`` or
    ``dlp.sample_chain`` over ``plan.nodes``; the circuit has no latent s."""
    if mode == "analytic":
        return sample_chain(instance, plan.nodes, rng)
    if mode != "statevector":
        raise ValueError(f"unknown mode {mode!r}")
    return measure_chain(instance, plan.nodes, rng), None


def statevector_joint_distribution(instance: ProblemInstance, plan: DistPlan) -> np.ndarray:
    """Exact joint law of all measured prefixes under the sequential protocol.

    Flat index concatenates (m_1a, m_1b, ..., m_ka, m_kb), first node most
    significant: ``dlp.joint_law`` over ``plan.nodes``, whose cached,
    read-only array it returns.
    """
    return joint_law(instance, plan.nodes)


def analytic_joint_distribution(instance: ProblemInstance, plan: DistPlan) -> np.ndarray:
    """Closed-form joint law (same indexing): ``dlp.joint_law``'s analytic entry."""
    return joint_law(instance, plan.nodes, "analytic")


def record_header(instance: ProblemInstance, plan: DistPlan, mode: str) -> RecordHeader:
    """The ``records.RecordHeader`` every record of a distributed solve
    carries, its resource report included, whose ``comm_qubits`` it reads.
    It depends only on the plan, the instance's r and L and the mode, so it
    is built once for them and kept in ``plan.headers``."""
    key = (instance.r, instance.L, mode)
    header = plan.headers.get(key)
    if header is None:
        per_node = per_node_qubits_from_widths(plan.t, instance.L)
        header = plan.headers[key] = RecordHeader(
            plan.total_width, mode, plan.measured, ResourceReport(
                qubits_single_node_alg2=single_node_qubits(instance.r, instance.L, plan.epsilon),
                qubits_per_node_alg4=per_node,
                comm_qubits=communication_qubits(plan.k, instance.L),
                simulated_qubits_actual=per_node if mode == "statevector" else 0,
            ),
        )
    return header


def solve_distributed(
    instance: ProblemInstance,
    plan: DistPlan,
    rng: Rng,
    mode: str = "statevector",
    max_retries: int = 64,
    reuse_state: bool = True,
) -> RunRecord:
    """Distributed quantum stage, alignment, rounding, verification, retries:
    ``dlp.solve_chain`` over ``plan.nodes``, joined by the alignment pass.

    With reuse_state the state-vector backend draws node measurements from
    the cached exact joint law of the sequential protocol, which is the same
    distribution as running the nodes afresh each attempt.
    """
    return solve_chain(
        instance, plan.nodes, rng, max_retries, reuse_state, plan.join,
        record_header(instance, plan, mode),
    )


@dataclass(frozen=True)
class Step7Report:
    """Certified comparison of the simulated and closed-form final states.

    Given branch s, node j leaves its counting registers in W_j(s), slice
    -s mod r of the r-point FFT of ``dlp.node_cells``' cells, times the
    shared eigenvector u_s; the closed form A_j(s) is the outer product of
    both registers' ``phase.phase_state_amplitudes``. The bound is assembled
    from per-node terms, never from the full tensor (no feasible plan's
    would fit).
    ``per_branch_deviation[s]`` bounds max |W_1(s) x ... x W_k(s) - A_1(s)
    x ... x A_k(s)| by the sum over j of max |W_j - A_j| times max |W_v| for
    v < j and max |A_v| for v > j, as |W1 W2 - A1 A2| <= |W1 - A1| |A2| +
    |W1| |W2 - A2|. ``factorization_residual`` is max_j d_j, d_j the 2-norm
    distance of node j's block on |a> from its block on |1> shifted one
    place along the orbit. The kernel treats every power of a alike, so its
    block on |a^k> is within k d_j of the shifted |1> block, and the chain's
    state within sqrt(r) (r - 1) sum_j d_j of its FFT reconstruction. Each
    entry of u_s has modulus r^(-1/2), so ``max_amplitude_deviation`` is
    sum_s per_branch_deviation[s] / r plus that term.
    """

    max_amplitude_deviation: float
    per_branch_deviation: tuple[float, ...]
    factorization_residual: float


def _node_terms(
    instance: ProblemInstance, t: int, exponent: int, m: int
) -> tuple[np.ndarray, float]:
    """One node's rows max |W(s)|, max |A(s)| and max |W(s) - A(s)| over the
    branches s, and its one-shift residual, one m_a cell (``dlp.node_cells``)
    of its block on |1> at a time: the maxima over the cells are those over
    the whole blocks.

    The residual is taken before the r-point FFT, which scales norms by
    sqrt(r): each row of the cell against the same row of the node's run on
    |a> read from a, one row at a time in j_a order.
    """
    r = instance.r
    nums = [node_numerators(instance, exponent, s) for s in range(r)]
    amps = [[phase.phase_state_amplitudes(Fraction(n, r), t) for n in pair] for pair in nums]
    cols, places = dlp.orbit_columns(instance, t, exponent, 1)
    rows = 1 << (t - m)
    square = 0.0
    terms = np.zeros((3, r))
    for lo, cell in zip(range(0, 1 << t, rows), dlp.node_cells(instance, t, exponent, m)):
        for i in range(rows):
            diff = dlp.node_rows(cols[lo + i : lo + i + 1], places)[0] - cell[i]
            square += float(np.vdot(diff, diff).real)
        w = np.fft.fft(cell, axis=2)
        for s, (amp_a, amp_b) in enumerate(amps):
            analytic = np.outer(amp_a[lo : lo + rows], amp_b)
            branch = w[:, :, -s % r]
            maxima = np.abs(branch).max(), np.abs(analytic).max(), np.abs(branch - analytic).max()
            terms[:, s] = np.maximum(terms[:, s], maxima)
    return terms, math.sqrt(square)


def compare_step7_state(instance: ProblemInstance, plan: DistPlan) -> Step7Report:
    """Check the factorised form of the pre-measurement state (all branches),
    bounded as ``Step7Report`` says: each node runs on |1> and on |a>
    (``_node_terms``), 2k runs in all, one m_a cell of its block on |1> at a
    time, within the law build's bound ``dlp._build_bytes``. A plan whose
    bound passes the byte cap is refused by ``statevec.check_bytes`` before
    any node runs."""
    check_bytes("step-7 check", dlp._build_bytes(instance, plan.nodes, "statevector"))
    r = instance.r
    per_node = [_node_terms(instance, t, exponent, m) for t, exponent, m in plan.nodes]
    max_w, max_a, dev = np.array([terms for terms, _ in per_node]).transpose(1, 0, 2)
    per_branch = sum(
        dev[j] * max_w[:j].prod(axis=0) * max_a[j + 1 :].prod(axis=0) for j in range(plan.k)
    )
    residuals = [residual for _, residual in per_node]
    return Step7Report(
        max_amplitude_deviation=float(per_branch.sum()) / r
        + math.sqrt(r) * (r - 1) * sum(residuals),
        per_branch_deviation=tuple(per_branch.tolist()),
        factorization_residual=max(residuals),
    )
