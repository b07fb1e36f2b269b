"""End-to-end discrete-log solver: quantum stage, classical rounding and
inversion, and the one solve loop of both solvers.

Every stage piece runs over a chain of node circuits, given as ``(t,
exponent, measured)`` per node: the counting registers control powers
c^(j 2^exponent) of c = a and c = b, and their leading ``measured`` bits
are kept. ``solve_chain`` is the one solve loop: it picks every attempt's
stage (the analytic draw, the cached law, or a fresh run of the chain,
also when the cached law is over its byte cap), hands the drawn pairs to
the solver's join, then rounds, inverts and retries. This solver is it on
the one-node chain ``((t, 0, t),)`` (``ShorConfig.nodes``) with the identity
join, and ``dist`` runs its plan's chain through it with the alignment pass
as the join. ``success_mass`` is both solvers' exact one-attempt success
mass, through the same chain, join, rounding and check.
Each attempt's result is a ``records.Outcome`` and each solve's a
``records.RunRecord`` on its solver's ``records.RecordHeader``; the record
format and its encoder are ``records``'.
The node circuit is a fused kernel in two stages on the live work values
alone: ``node_columns`` runs it to the end of register a's inverse QFT on
the (2^t, r) live columns, and ``node_rows`` runs the b stage on the rows
it is given (the tests' ``gatelevel.node_block`` runs both on every row
and holds them to the gate-level oracle). The live values are the orbit
of a: every node starts on |1> or on the hand-off of the node before, and
powers of a and of b = a^g keep the work register on the r powers of a.
``node_tables``, the kernel's one cache, per (instance, t, exponent), holds
them sorted, each power's position among them, and the a and b positions
on them, so repeated fresh runs reuse them and only the circuit runs
again: a fresh node run does O(2^t r) work and holds that much, in a
number of numpy calls that does not grow with t, and one byte budget,
checked before any table is built, refuses a larger run or chain.
Fresh runs measure node by node (``measure_chain``): ``measure_node`` draws
register a from the a stage before b's transform, as nothing later acts on
a, runs the b stage on the drawn row alone, and hands on the work register
as its r amplitudes on the orbit. They never read the instance's hidden
exponent. Cached runs draw a flat index from
``joint_cdf``; the first draw of an index in a chain splits it with
``decode_joint_index``, joins and verifies it, and the outcome is kept in
the memo of ``joint_cdf``'s entry, so a repeat draw is one CDF search and
one lookup, and its record shares the outcome, JSON fields and text
included. Every outcome, kept or not, writes its values' text once, and
every record's line is spliced from it (``records``).
``node_cells`` is the one source of the circuit's per-branch amplitudes
(one run of a node on |1>, one m_a cell of its block at a time, split into
branches by an r-point FFT along the orbit of a);
``branch_laws`` squares and folds them cell by cell or takes the laws
P_j(. | s) in closed form, and ``joint_law``, cached per (instance, chain)
with its CDF, is the one branch mixture (1/r) sum_s prod_j P_j(. | s) of
either backend. The analytic backend draws the latent branch s and then
each register exactly at its phase by one O(1) draw, most often of a
single uniform (``sample_chain``, which checks each chain's widths and
reads each node's 2^e mod r once per (r, chain), ``_chain_draws``, and
calls the sampler's draw body per register). Every branch phase is an int
numerator over r from ``node_numerators``, for one branch or an int64
array of them. The phases read the exponent g from ``hidden_g`` as an oracle. The
test suites hold the sampler to the closed form, and the closed form to
the circuit exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from typing import Callable, Iterator

import numpy as np

from . import phase, statevec
from .numtheory import ProblemInstance
from .records import MODES, Outcome, RecordHeader, RunRecord
from .resources import (
    ResourceReport,
    communication_qubits,
    order_register_width,
    slack_bits,
)

Chain = tuple[tuple[int, int, int], ...]  # (t, exponent, measured) per node
Pairs = tuple[tuple[int, int], ...]  # (m_a, m_b) prefixes per node, of its measured width
Join = Callable[[Pairs], tuple[int, int, dict]]  # pairs -> (m_a, m_b, Outcome fields)


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
        eps = Fraction(epsilon)
        t = counting_width(instance.r, eps)  # refuses an epsilon outside (0,1)
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if max_retries < 1:
            raise ValueError(f"max_retries must be >= 1, got {max_retries}")
        return cls(epsilon=eps, t=t, max_retries=max_retries, mode=mode)

    @cached_property
    def nodes(self) -> Chain:
        """The one-node chain ``((t, 0, t),)`` the single-node solver runs."""
        return ((self.t, 0, self.t),)


def counting_width(r: int, epsilon: Fraction) -> int:
    """t = ceil(log2 r + 1) + ceil(log2(2 + 1/epsilon)), computed exactly."""
    return order_register_width(r) + slack_bits(1, epsilon)


@lru_cache(maxsize=32)
def node_tables(
    instance: ProblemInstance, t: int, exponent: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The node circuit's live work values and its two gathers on them:
    returns ``(place_a, place_b, live, order)``.

    ``live`` is the r powers of a, sorted: every node starts on |1> or on
    the hand-off of the node before, and multiplications by powers of a and
    of b = a^g keep the work register on them. ``order[k]`` is the position
    of a^k in ``live``, and ``place_a[j_a, k]`` and ``place_b[j_b, k]`` the
    positions in ``live`` of the x with a^(j_a 2^e) x = live[k] and
    b^(j_b 2^e) x = live[k].

    Cached per (instance, t, exponent), read-only. The r powers, built as
    Python ints, are the only residue products, and one argsort orders them.
    Every live value is a power of a, so the tables follow from indices on
    the orbit: with live[k] = a^p_k and b^(2^e) = a^d, d looked up among the
    powers, the x of place_a is a^(p_k - j_a 2^e) and that of place_b
    a^(p_k - j_b d), exponents mod r. So any N runs: ``live`` is intp while
    N <= 2^63 and object above, a dtype numpy is never left to pick. The
    tables are laid out with the live axis outermost: numpy lays out
    what it gathers through an index array by that array's layout, and a
    later sum over the live axis adds in an order that depends on it (with
    |live| >= 8, numpy sums a contiguous axis pairwise).
    """
    if exponent < 0:
        raise ValueError(f"power exponent must be >= 0, got {exponent}")
    N, r = instance.N, instance.r
    powers = [1]
    for _ in range(r - 1):
        powers.append(powers[-1] * instance.a % N)
    d = powers.index(pow(instance.b, 1 << exponent, N))
    live = np.array(powers, dtype=np.intp if N <= 1 << 63 else object)
    by_value = np.argsort(live)
    live = live[by_value]
    order = np.empty_like(by_value)
    order[by_value] = np.arange(r)
    j = np.arange(1 << t)
    place_a, place_b = (
        order[(by_value[:, None] - j * step) % r].T for step in (pow(2, exponent, r), d)
    )
    for table in (place_a, place_b, live, order):
        table.setflags(write=False)
    return place_a, place_b, live, order


def node_columns(
    instance: ProblemInstance, t: int, exponent: int = 0, work: int | np.ndarray = 1
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The node circuit up to the end of the a-register inverse QFT, on the
    live work values only.

    The counting registers control c^(j 2^exponent) for c = a and c = b on
    the work register, which starts in |work> or in the given vector: the
    single-node solver runs exponent 0 on |1>, node j of the distributed
    solver exponent l_j - 1 on the previous node's hand-off. A basis value
    must lie on the orbit of a, the r powers of a mod N, and a vector holds
    r amplitudes on them in ``live`` order, of unit norm to 1e-9; any other
    input is refused with ``statevec.LayoutError``. Returns ``(cols, live,
    place_b)`` from ``node_tables``' cache: ``live`` is the orbit, sorted,
    ``cols[j_a, k]`` the amplitude, before the b stage, of a-outcome j_a
    with the work register at live[k], and ``place_b`` the b table that
    ``node_rows`` reads.

    Both counting registers start in |0>, so the Hadamards only scale the
    work vector, and the a multiplications make ``cols`` the scaled work
    amplitude at a^(-j_a 2^e) live[k], transformed along j_a: O(2^t r) work
    and memory. A basis input is scaled as one float and placed at its
    position on the orbit. A vector input is scaled by one ufunc call, a
    running product down 2t + 1 rows (its floats, then 1/sqrt(2) in every
    row), which rounds exactly as the 2t Hadamards one at a time, so the
    numpy calls of a node run do not grow with t. A run whose bound,
    ``_RUN_BYTES`` per entry of its (2^t, r) arrays, passes the byte cap is
    refused by ``statevec.check_bytes`` before any table is built.
    """
    r, a, N = instance.r, instance.a, instance.N
    statevec.check_bytes("node run", _RUN_BYTES * r << t, "; use analytic mode")
    place_a, place_b, live, _ = node_tables(instance, t, exponent)  # checks the exponent
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    if isinstance(work, (int, np.integer)):
        statevec.check_basis("work", instance.L, work)
        at = live.searchsorted(work)  # ``work in live`` scans every power
        if at == r or live[at] != work:
            raise statevec.LayoutError(
                f"work value {work} is not one of the {r} powers of {a} mod {N}"
            )
        scale = 1.0
        for _ in range(2 * t):
            scale *= inv_sqrt2
        vec = np.zeros(r, dtype=np.complex128)
        vec[at] = scale
    else:
        vec = np.asarray(work, dtype=np.complex128)
        if vec.shape != (r,):
            raise statevec.LayoutError(
                f"work vector has shape {vec.shape}, not ({r},): one amplitude per power"
                f" of {a} mod {N}"
            )
        # Row 0 holds the input's floats, + 0 turning -0 into +0, and every
        # later row 1/sqrt(2): the running product down the rows rounds, step
        # for step, as (vec + 0) * inv_sqrt2 once per Hadamard on a |0> qubit.
        steps = np.empty((2 * t + 1, 2 * r))
        np.add(vec, 0, out=steps[0].view(np.complex128))
        squares = np.add.reduce((steps[0] * steps[0]).reshape(r, 2), axis=1)
        norm = math.sqrt(float(np.add.reduce(squares)))
        if abs(norm - 1.0) > 1e-9:
            raise statevec.LayoutError(f"work vector has norm {norm}")
        steps[1:] = inv_sqrt2
        np.multiply.accumulate(steps, axis=0, out=steps)
        vec = steps[-1].view(np.complex128)
    cols = np.fft.fft(vec[place_a], axis=0)
    _scale(cols, 1 << t)
    return cols, live, place_b


def node_rows(cols: np.ndarray, places: np.ndarray) -> np.ndarray:
    """The b stage of the node circuit on the given rows of ``node_columns``.

    ``cols`` holds some rows of the a stage; column k of ``places`` lists,
    for every j_b, the position in the live columns of b^(-j_b 2^e) w_k for
    one work value w_k (``place_b``, or its columns in another order, with
    the same layout). Returns ``rows[i, j_b, k]``, the amplitude of
    |j_b>|w_k> in row i: the b multiplications make it the row's amplitude
    at b^(-j_b 2^e) w_k, and the b-register transform runs along j_b.
    """
    rows = np.fft.fft(cols[:, places], axis=1)
    _scale(rows, len(places))
    return rows


def _scale(amps: np.ndarray, n: int) -> None:
    """Divide ``amps`` by sqrt(n) in place, as numpy's complex-by-real
    division does it: a multiply by 1 / sqrt(n). Every nonzero entry rounds
    as in ``amps /= math.sqrt(n)``, in about half the time; a zero may keep
    a - sign that the division would clear, which no magnitude reads and
    the hand-off's + 0 clears."""
    np.multiply(amps, 1.0 / math.sqrt(n), out=amps)


def measure_node(
    instance: ProblemInstance, t: int, exponent: int, work: int | np.ndarray,
    rng: statevec.Rng,
) -> tuple[int, int, np.ndarray]:
    """Run the node circuit once and measure both counting registers in full.

    Returns the outcomes (j_a, j_b) and the renormalised work vector they
    leave behind, r amplitudes in ``live`` order: the draws of
    measure_register on a, then b, then register_vector on the orbit (the
    tests hold it to that oracle). Register a is
    measured before the b stage, which never acts on it: every row of the b
    table permutes the live values and the b transform is unitary, so by
    Parseval the a-marginal is 2^t sum_k |cols[j_a, k]|^2, and only the
    drawn row goes through the b stage. Its mass must equal that marginal.
    Each register's law is cumulated once, and that sum serves both its
    norm or mass check and its draw (``statevec.draw_outcome``).
    """
    cols, _, place_b = node_columns(instance, t, exponent, work)
    marginal_a = _row_masses(cols)
    marginal_a *= 1 << t
    cdf = marginal_a.cumsum()
    norm2 = float(cdf[-1])
    if abs(norm2 - 1.0) > statevec.NORM_TOL:
        raise statevec.LayoutError(f"node norm**2 = {norm2!r} drifted beyond {statevec.NORM_TOL}")
    j_a, p_a = statevec.draw_outcome(rng, marginal_a, cdf)
    (row,) = node_rows(cols[j_a : j_a + 1], place_b)
    marginal_b = _row_masses(row)  # [j_b]: mass over the work register
    law_b = marginal_b / p_a
    cdf = law_b.cumsum()
    mass = float(cdf[-1]) * p_a
    if abs(mass - p_a) > statevec.NORM_TOL:
        raise statevec.LayoutError(f"row {j_a} mass {mass!r} differs from its marginal {p_a!r}")
    j_b, _ = statevec.draw_outcome(rng, law_b, cdf)
    return j_a, j_b, row[j_b] / math.sqrt(float(marginal_b[j_b]))


def _row_masses(amps: np.ndarray) -> np.ndarray:
    """sum_k |amps[j, k]|^2 per row j, added in the layout of ``amps``."""
    squares = amps.real**2
    squares += amps.imag**2
    return np.add.reduce(squares, axis=1)


def measure_chain(instance: ProblemInstance, nodes: Chain, rng: statevec.Rng) -> Pairs:
    """Run the chain afresh: ``measure_node`` on each node in turn, from |1>
    and then on the work vector the node before hands on; each node keeps
    the leading ``measured`` bits of its two t-bit outcomes. A chain of two
    or more nodes whose bound ``_chain_bytes`` passes the byte cap is
    refused before its first table is built."""
    if len(nodes) > 1:
        statevec.check_bytes("chain run", _chain_bytes(instance.r, nodes), "; use analytic mode")
    work: int | np.ndarray = 1
    pairs = []
    for t, exponent, m in nodes:
        j_a, j_b, work = measure_node(instance, t, exponent, work, rng)
        pairs.append((j_a >> (t - m), j_b >> (t - m)))
    return tuple(pairs)


# A fresh run's tracemalloc peak (``measure_chain``, every table built and
# kept by ``node_tables``) is at most about 69 bytes per entry of its widest
# node's (2^t, r) arrays from cold caches and 49 warm: the two kept intp
# tables, the complex columns, the drawn row and the float squares of a
# marginal (a table's build by index arithmetic peaks at about 24 bytes an
# entry, the kept tables included). That is over every chain of N < 128
# (Alg. 2 at epsilon 1/2 and 1/4, k = 2 and 3 at h = 2) with 2^t r >= 2^14,
# N = 8209 (L = 14) and N = 2^31 - 1 (r = 7 and 31). The smallest runs hold
# a fixed 10 KiB, and pass 100 bytes an entry by at most 1,035 bytes.
# Rounded up here. The bound is per node run; a chain of more nodes also
# keeps each other node's two tables, 16 bytes an entry (``_chain_bytes``).
_RUN_BYTES = 100


@lru_cache(maxsize=16)
def _chain_bytes(r: int, nodes: Chain) -> int:
    """The bound of a fresh run of the chain, cached per (r, chain): its
    widest node's run at ``_RUN_BYTES`` per entry of its (2^t, r) arrays,
    and the two intp tables, 16 bytes an entry, that ``node_tables`` keeps
    of every other node for the rest of the chain. The k = 5, h = 2 plan at
    r = 131 (t = 9, 10, 10, 10, 8 at epsilon' = 1/5, each one wider at 1/8)
    peaks at about 104.2 bytes per entry of its widest node from cold
    caches, within the 144 this charges it."""
    entries = sorted(r << t for t, _, _ in nodes)
    return _RUN_BYTES * entries[-1] + 16 * sum(entries[:-1])


# branch_laws' analytic tracemalloc peak, less the (r, 4^m) tables it keeps,
# is at most about 17.5 bytes per entry of the widest (r, 2^t) outcome_laws
# table (r = 16001, t = 5 to 8, one or two nodes: the int64 offsets, the
# float64 laws and the bool mask of the singular entries); rounded up here.
_ROW_BYTES = 18

# branch_laws' state-vector tracemalloc peak, less the kept tables and the
# complex r-entry work vector, is about 75 bytes per entry of a node's widest
# m_a cell (``node_cells``), 113 when the cell is one row and as large as
# the node's (2^t, r) a-stage arrays, and 15 KiB more at the smallest cells;
# compare_step7_state's is about 77. Over every chain of N < 128 (prime r,
# Alg. 2 at epsilon 1/2 and 1/4, k = 2 and 3 at h = 2) and N = 8209 (r = 3,
# L = 14), from cold caches, the most is 193 per entry; rounded up here.
_CELL_BYTES = 200

# success_mass's tracemalloc peak per prefix tuple of the chain, apart from
# its laws: the int64 tuples and the join's temporaries (about 68 + 8k bytes
# at k nodes, at most 100.5 over k <= 5 and N <= 503), then the classes and
# one branch's product weights; rounded up here. Its fixed part, at most
# 0.13 MiB over the smallest chains, is _MASS_SLACK.
_TUPLE_BYTES = 128
_MASS_SLACK = 1 << 20


def _build_bytes(instance: ProblemInstance, nodes: Chain, mode: str) -> int:
    """An upper bound on what ``branch_laws`` holds at its peak, the
    ``(r, 4^m)`` tables it keeps included: the widest node's row tables
    (analytic) or its widest m_a cell and the r-entry work vector
    (state-vector)."""
    r = instance.r
    nbytes = 8 * r * sum(1 << (2 * m) for _, _, m in nodes)
    if mode == "analytic":
        return nbytes + _ROW_BYTES * r * max(1 << t for t, _, _ in nodes)
    cell = r * max(1 << (2 * t - m) for t, _, m in nodes)
    return nbytes + 16 * r + _CELL_BYTES * cell


def orbit_columns(
    instance: ProblemInstance, t: int, exponent: int, power: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """``node_columns`` on |a^power>, with its b table read along the orbit
    from there: returns ``(cols, places)``, and ``node_rows(cols,
    places)[:, :, k]`` is the node's block at work a^(power + k) mod N."""
    cols, _, place_b = node_columns(instance, t, exponent, pow(instance.a, power, instance.N))
    order = node_tables(instance, t, exponent)[3]
    return cols, place_b[:, np.roll(order, -power)]


def node_cells(instance: ProblemInstance, t: int, exponent: int, m: int) -> Iterator[np.ndarray]:
    """The one source of the circuit's per-branch amplitudes: the node's
    block on |1> read along the orbit of a, one m_a cell at a time in j_a
    order; cell c is rows c 2^(t-m) to (c + 1) 2^(t-m) - 1 of
    ``orbit_columns``' columns through ``node_rows``, (2^(t-m), 2^t, r).

    The circuit leaves each u_s = r^(-1/2) sum_k exp(-2 pi i s k / r) |a^k>
    as W(s) |u_s>, so entry k of the block is (1/r) sum_s W(s)
    exp(-2 pi i s k / r): slice i of a cell's r-point FFT along its last
    axis is the cell's rows of branch s = -i mod r's (2^t, 2^t) block W(s).
    """
    cols, places = orbit_columns(instance, t, exponent)
    rows = 1 << (t - m)
    for lo in range(0, 1 << t, rows):
        yield node_rows(cols[lo : lo + rows], places)


def register_laws(
    instance: ProblemInstance, t: int, exponent: int, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """A node's closed-form prefix laws of registers a and b, ``(r, 2^m)``
    each, row i being branch s = -i mod r: one ``phase.outcome_laws`` call
    per register on every branch's numerators, folded to m bits."""
    r = instance.r
    nums = node_numerators(instance, exponent, -np.arange(r, dtype=np.int64) % r)
    return tuple(phase.outcome_laws(n, r, t).reshape(r, 1 << m, -1).sum(axis=2) for n in nums)


def branch_laws(instance: ProblemInstance, nodes: Chain, mode: str) -> list[np.ndarray]:
    """Per node, the ``(r, 4^m)`` table of its prefix laws P_j(m_a, m_b | s),
    flat index m_a 2^m + m_b; row i is branch s = -i mod r on both backends.

    State-vector: each m_a cell of ``node_cells`` transformed into its
    branch amplitudes, squared and folded to m bits into the cell's 2^m
    columns of the node's table. Analytic: the outer product of the node's
    ``register_laws``; given s the registers are independent.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    r = instance.r
    laws = []
    if mode == "analytic":
        registers = (register_laws(instance, *node) for node in nodes)
        return [(p_a[:, :, None] * p_b[:, None, :]).reshape(r, -1) for p_a, p_b in registers]
    for t, exponent, m in nodes:
        law = np.empty((r, 1 << (2 * m)))
        for c, cell in enumerate(node_cells(instance, t, exponent, m)):
            w = np.fft.fft(cell, axis=2)
            p = (w.real**2 + w.imag**2).reshape(1 << (t - m), 1 << m, 1 << (t - m), r)
            law[:, c << m : (c + 1) << m] = p.sum(axis=(0, 2)).T
        laws.append(law)
    return laws


@lru_cache(maxsize=8)
def joint_law(instance: ProblemInstance, nodes: Chain, mode: str = "statevector") -> np.ndarray:
    """Exact joint law of the measured prefixes of a chain of node circuits.

    ``nodes`` lists ``(t, exponent, measured)`` per node, which keeps the
    leading ``measured`` bits of both counting registers. Flat index
    concatenates (m_1a, m_1b, ..., m_ka, m_kb), first node most significant.
    It is the branch mixture (1/r) sum_s prod_j P_j(. | s) of either
    backend's ``branch_laws``, refused by ``statevec.check_bytes`` before
    any row is built when the law and its build (``_build_bytes``) would
    pass the cap together.

    Cached per (instance, chain, mode), read-only: both solvers' cached draws
    and ``dist.statevector_joint_distribution`` pass no mode, so they share
    the one state-vector entry per chain.
    """
    size = 1 << (2 * sum(m for _, _, m in nodes))
    # the law, one branch term and joint_cdf's cumsum, then the build
    statevec.check_bytes("joint law", 3 * 8 * size + _build_bytes(instance, nodes, mode))
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


# Outcomes a chain's memo keeps (``joint_cdf``); a miss past it is computed
# and not stored, and its record's line is spliced as any other. By
# tracemalloc an entry (its key, its ``Outcome`` with the int estimates, the
# post-processing result, the node pairs and, once a record of it is
# written, its JSON fields and the tuple of their values' text; the header's
# values are shared, not copied) takes about 0.82 to 0.96 KB on a one-node
# chain and 1.69 to 1.85 KB on two (N = 11 to 59, 1,024 entries); without
# the JSON fields and text, 0.21 to 0.26 KB and 0.33 to 0.38 KB. No law of
# three or more nodes fits the byte cap: their prefixes come to at least 12
# bits a register, a 2^24-entry law. At a worst case of 2 KB an entry, a
# memo holds at most 2 MiB, and ``joint_cdf``'s 8 entries 16 MiB.
_OUTCOMES_CAP = 1 << 10


@lru_cache(maxsize=8)
def joint_cdf(instance: ProblemInstance, nodes: Chain) -> tuple[np.ndarray, dict] | tuple[None, str]:
    """Cumulative form of ``joint_law(instance, nodes)``, cached for sampling,
    with the memo of the chain's drawn outcomes; ``(None, reason)`` when the
    law is refused by the byte cap, ``reason`` being the refusal's text.

    ``solve_chain`` fills the memo: per (join, flat index), the attempt's
    ``Outcome``, at most ``_OUTCOMES_CAP`` of them. It
    lives in the same cache entry as the CDF, so ``cache_clear`` empties both.
    A refusal is cached too, so it is decided once per chain under the cap
    of its first call, and every solve of the chain makes one lookup here
    whether or not its law fits; after changing ``statevec.BYTES_CAP``,
    ``cache_clear`` decides again.
    """
    try:
        law = joint_law(instance, nodes)
    except statevec.QubitBudgetError as exc:
        return None, str(exc)
    cdf = np.cumsum(law)
    cdf.setflags(write=False)
    return cdf, {}


def decode_joint_index(flat: int, nodes: Chain) -> Pairs:
    """Split a flat joint-law index back into the chain's (m_a, m_b) prefixes."""
    pairs = []
    for _, _, m in reversed(nodes):
        pairs.append(((flat >> m) & ((1 << m) - 1), flat & ((1 << m) - 1)))
        flat >>= 2 * m
    return tuple(reversed(pairs))


def quantum_stage_statevector(
    instance: ProblemInstance, config: ShorConfig, rng: statevec.Rng
) -> tuple[int, int]:
    """Run the circuit once and measure both counting registers in full:
    ``measure_chain`` on the one-node chain."""
    ((m_a, m_b),) = measure_chain(instance, config.nodes, rng)
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


@lru_cache(maxsize=16)
def _chain_draws(r: int, nodes: Chain) -> tuple[tuple[int, int, int], ...]:
    """Per node of the chain, ``(t, 2^exponent mod r, t - measured)``: what
    ``sample_chain`` needs of it at order r, cached per (r, chain). Building
    it checks every node's width against r (``phase.check_width``), so a
    chain too wide for the sampler is refused, with its message, before
    any draw."""
    for t, _, _ in nodes:
        phase.check_width(t, r)
    return tuple((t, pow(2, exponent, r), t - m) for t, exponent, m in nodes)


def sample_chain(
    instance: ProblemInstance, nodes: Chain, rng: statevec.Rng
) -> tuple[Pairs, int]:
    """Draw the chain's prefixes from the closed form; returns them and s.

    The branch s is uniform, the generator's first draw; given s the
    registers are independent at their phases. Node by node, a before b,
    each full t-bit outcome is one draw of ``phase.draw_from_peak``, the
    sampler's body, on divmod(num 2^t, r) for the int numerator num of
    ``node_numerators``, with no 2^t array and no Fraction: one uniform
    inverts the two outcomes next to the peak, and only a draw past them
    rejects on the tail (about 2.3 uniforms per register at r = 16001). It
    draws exactly as ``phase.sample_phase_outcome`` on num/r would: r is
    prime (``validate_instance``), so every nonzero num < r is in lowest
    terms, num = 0 gives rem = 0 either way, and the widths are checked
    once per (r, chain) (``_chain_draws``).
    """
    r = instance.r
    draws = _chain_draws(r, nodes)
    s = int(rng.integers(r))
    sg = s * instance.hidden_g % r
    draw = phase.draw_from_peak
    pairs = []
    for t, shift, drop in draws:
        c, rem = divmod((s * shift % r) << t, r)
        a = draw(rng, c, rem, r, t)
        c, rem = divmod((sg * shift % r) << t, r)
        b = draw(rng, c, rem, r, t)
        pairs.append((a >> drop, b >> drop))
    return tuple(pairs), s


def quantum_stage_analytic(
    instance: ProblemInstance, config: ShorConfig, rng: statevec.Rng
) -> tuple[int, int, int]:
    """Sample (m_a, m_b) from the closed-form joint law; returns latent s:
    ``sample_chain`` on the one-node chain."""
    ((m_a, m_b),), s = sample_chain(instance, config.nodes, rng)
    return m_a, m_b, s


def round_scaled(value: int, width: int, r: int) -> int:
    """round(value * r / 2^width) with exact half-up integer rounding."""
    return (2 * value * r + (1 << width)) >> (width + 1)


@dataclass(frozen=True, slots=True)
class PostprocessResult:
    mhat_a: int
    mhat_b: int
    g_hat: int | None


def postprocess_detail(
    m_a: int, m_b: int, width: int, instance: ProblemInstance
) -> PostprocessResult:
    """Round both ``width``-bit measurements, invert, and verify the
    candidate exponent.

    The zero test on the rounded a-measurement is taken mod r: an outcome
    just below full scale rounds to exactly r, which is the wrap-around
    alias of the unusable s = 0 branch.
    """
    mhat_a = round_scaled(m_a, width, instance.r)
    mhat_b = round_scaled(m_b, width, instance.r)
    return PostprocessResult(mhat_a, mhat_b, recover_exponent(mhat_a, mhat_b, instance))


def recover_exponent(mhat_a: int, mhat_b: int, instance: ProblemInstance) -> int | None:
    """g_hat = mhat_b / mhat_a mod r if a^g_hat = b, else None (also if r | mhat_a)."""
    r = instance.r
    v = mhat_a % r
    if v == 0:
        return None
    g_hat = pow(v, -1, r) * mhat_b % r
    return g_hat if pow(instance.a, g_hat, instance.N) == instance.b % instance.N else None


def _outcome(instance: ProblemInstance, pairs: Pairs, join: Join, width: int) -> Outcome:
    """One attempt's ``Outcome``: the drawn pairs joined into two
    ``width``-bit estimates, rounded, inverted and verified."""
    m_a, m_b, extra = join(pairs)
    detail = postprocess_detail(m_a, m_b, width, instance)
    return Outcome(m_a, m_b, detail, **extra)


def identity_join(pairs: Pairs) -> tuple[int, int, dict]:
    """The single-node solver's join: the one pair is the estimate."""
    return (*pairs[0], {})


def solve_chain(
    instance: ProblemInstance, nodes: Chain, rng: statevec.Rng, max_retries: int,
    reuse_state: bool, join: Join, header: RecordHeader,
) -> RunRecord:
    """The one solve loop of both solvers: the chain's quantum stage,
    ``join``, post-processing, retried up to max_retries attempts.

    ``header`` holds what the solve fixes: the backend ``mode`` and the
    estimates' ``width``. Each attempt draws the chain's pairs by
    ``sample_chain`` (analytic), from the cached ``joint_cdf`` (state-vector
    with reuse_state) or by ``measure_chain`` (state-vector, fresh). A
    cached law over its byte cap falls back to fresh runs on every attempt,
    so an oversize circuit is refused by the fresh run's byte bounds
    (``measure_chain``'s for a chain, ``node_columns``' for a node);
    ``joint_cdf`` keeps that refusal, so it is decided once per chain.
    ``join(pairs)`` returns the two ``width``-bit int estimates (m_a, m_b)
    with the outcome fields that attempt sets; the record holds the last
    attempt's ``Outcome`` and the header.

    A cached attempt's ``Outcome`` is a pure function of the drawn flat
    index and the join, so it is kept in the memo of ``joint_cdf``'s entry
    under ``(join, index)``: each index is decoded, joined and verified by
    ``postprocess_detail`` once per chain and join, its JSON fields and
    their text are built once, lazily, on its first record's line, and a
    repeat draw costs one ``statevec.sample_cdf`` and one lookup. Past
    ``_OUTCOMES_CAP`` entries a miss is computed and not kept. Every
    record's line, whatever the path, is spliced from its outcome's text
    (``records.RunRecord.to_json_dict``), so nothing here marks an outcome
    for it.
    ``join`` is hashed by identity, so it should be one object per join
    rule (the module-level ``identity_join``, a plan's bound ``join``). The
    generator is read as without the memo: one ``rng.random()`` per cached
    attempt.
    """
    if max_retries < 1:
        raise ValueError(f"max_retries must be >= 1, got {max_retries}")
    mode, width = header.mode, header.width
    cdf = None
    if mode == "statevector" and reuse_state:
        cdf, outcomes = joint_cdf(instance, nodes)  # cdf None: over the cap, run afresh
    latent_s = None
    for attempts in range(1, max_retries + 1):
        if mode == "analytic":
            pairs, latent_s = sample_chain(instance, nodes, rng)
            outcome = _outcome(instance, pairs, join, width)
        elif cdf is None:
            outcome = _outcome(instance, measure_chain(instance, nodes, rng), join, width)
        else:
            key = (join, statevec.sample_cdf(rng, cdf))
            outcome = outcomes.get(key)
            if outcome is None:
                outcome = _outcome(instance, decode_joint_index(key[1], nodes), join, width)
                if len(outcomes) < _OUTCOMES_CAP:
                    outcomes[key] = outcome
        if outcome.detail.g_hat is not None:
            break
    return RunRecord(outcome, attempts - 1, header, latent_s=latent_s)


def solve(
    instance: ProblemInstance,
    config: ShorConfig,
    rng: statevec.Rng,
    reuse_state: bool = True,
) -> RunRecord:
    """The single-node solver: ``solve_chain`` on the one-node chain, whose
    one pair is the estimate.

    With reuse_state (the default) the state-vector backend draws outcomes
    from the cached exact measurement law of the pre-measurement state,
    which is distribution-identical to re-running the circuit per attempt.
    """
    return solve_chain(
        instance, config.nodes, rng, config.max_retries, reuse_state, identity_join,
        single_node_header(instance.L, config.t, config.mode),
    )


@lru_cache(maxsize=64)
def single_node_header(L: int, t: int, mode: str) -> RecordHeader:
    """The header every record of a single-node solve carries, built once
    per (L, t, mode) and shared by the records: with
    t = counting_width(r, epsilon), single_node_qubits(r, L, epsilon) is
    2t + L, so r enters only through t."""
    width = 2 * t + L
    return RecordHeader(t, mode, resources=ResourceReport(
        qubits_single_node_alg2=width,
        qubits_per_node_alg4=None,
        comm_qubits=communication_qubits(1, L),
        simulated_qubits_actual=width if mode == "statevector" else 0,
    ))


def _mass_bytes(instance: ProblemInstance, nodes: Chain, mode: str) -> int:
    """An upper bound on what ``success_mass`` holds at its peak: the
    register laws' build (analytic: the widest node's ``(r, 2^t)`` row
    tables at ``_ROW_BYTES`` per entry; state-vector: ``branch_laws``' bound
    ``_build_bytes``), the kept ``(r, 2^m)`` marginals, the prefix tuples
    with their join and classes at ``_TUPLE_BYTES`` each, the r x r
    success table and a fixed ``_MASS_SLACK``."""
    r = instance.r
    if mode == "analytic":
        laws = _ROW_BYTES * r * max(1 << t for t, _, _ in nodes)
    else:
        laws = _build_bytes(instance, nodes, mode)
    kept = 16 * r * sum(1 << m for _, _, m in nodes)
    tuples = 1 << sum(m for _, _, m in nodes)
    return laws + kept + _TUPLE_BYTES * tuples + r * r + _MASS_SLACK


def success_mass(
    instance: ProblemInstance, nodes: Chain, join: Join, width: int, mode: str = "analytic"
) -> float:
    """Exact one-attempt success probability of either solver, by summation:
    (1/r) sum_s mass_a(s)^T success mass_b(s), for a chain whose prefixes
    the solver's ``join`` turns into ``width``-bit estimates. Refused by
    ``statevec.check_bytes`` before any table is built when its bound
    ``_mass_bytes`` passes the byte cap.

    Every prefix tuple goes through ``join`` at once, as int64 arrays
    (``np.indices``) given as both families, which the join treats alike,
    and ``round_scaled`` mod r gives its class.
    mass_f(s) bins by class the product of the nodes' register-f laws on
    branch s (given s the registers are independent): ``register_laws``, or
    the marginals of the ``branch_laws`` tables, which read no ``hidden_g``.
    success is ``success_table``.
    """
    statevec.check_bytes("exact success mass", _mass_bytes(instance, nodes, mode))
    r = instance.r
    values = list(np.indices([1 << m for _, _, m in nodes], np.int64).reshape(len(nodes), -1))
    classes = round_scaled(join(tuple(zip(values, values)))[0], width, r) % r
    if mode == "analytic":
        laws = [register_laws(instance, *node) for node in nodes]
    else:
        tables = zip(branch_laws(instance, nodes, mode), nodes)
        grids = (law.reshape(r, 1 << m, -1) for law, (_, _, m) in tables)
        laws = [(p.sum(axis=2), p.sum(axis=1)) for p in grids]
    success = success_table(instance)
    total = 0.0
    for s in range(r):  # row -s mod r of every law is branch s
        weights = (reduce(np.multiply.outer, [law[f][-s % r] for law in laws]) for f in (0, 1))
        mass_a, mass_b = (np.bincount(classes, w.ravel(), r) for w in weights)
        total += float(mass_a @ success @ mass_b)
    return total / r


def success_table(instance: ProblemInstance) -> np.ndarray:
    """The r x r table of ``recover_exponent``'s verdicts: success[v_a, v_b]
    holds iff the rounded values (v_a, v_b) give an exponent g_hat with
    a^g_hat = b. Row v_a = 1 checks every g_hat = v_b, and r is prime, so
    the other rows follow from it without r^2 checks: success[v_a, v_b]
    holds iff v_a != 0 and v_b = g v_a mod r for a g that passes."""
    r = instance.r
    success = np.zeros((r, r), dtype=bool)
    v_a = np.arange(1, r, dtype=np.int64)
    for g in range(r):
        if recover_exponent(1, g, instance) is not None:
            success[v_a, g * v_a % r] = True
    return success


def single_shot_success_mass(instance: ProblemInstance, epsilon: Fraction | float | str) -> float:
    """Exact one-attempt success probability of the single-node solver:
    ``success_mass`` on its one-node chain with the identity join."""
    config = ShorConfig.for_instance(instance, epsilon)
    return success_mass(instance, config.nodes, identity_join, config.t)
