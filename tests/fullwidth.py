"""The full-width node kernel and the whole-block builds on it, the
bitwise references for ``dlp``'s kernel and its cell-by-cell builds.

``dlp.node_tables`` places every gather of the kernel by index arithmetic
on the orbit of a. ``node_tables`` here multiplies each live value out, in
Python ints at any N, and places the product in ``live`` by
``searchsorted``: the tests hold the two builds equal, value, dtype and
layout.

``dlp.node_columns`` gathers, transforms and scales only the (2^t, |live|)
live work columns of the a stage, the orbit of a, through tables cached
per (instance, t, exponent). The kernel here runs the a stage on all 2^L work
columns through the (2^t, 2^L) modmul tables on every run and reads the
live columns off that; the b stage gathers from the full columns. The
tests hold every array and every draw of ``dlp``'s kernel to this one with
``np.array_equal``.

``dlp.branch_laws`` and ``dist._node_terms`` go through a node's block on
|1> one m_a cell at a time (``dlp.node_cells``). ``branch_laws`` and
``node_terms`` here build each node's whole (2^t, 2^t, r) block and its
r-point FFT at once, and the tests hold the tables and the step-7 report to
them exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from distdlog import statevec
from distdlog.dlp import Chain, node_numerators, node_tables
from distdlog.numtheory import ProblemInstance
from distdlog.phase import phase_state_amplitudes


def node_tables(
    instance: ProblemInstance, t: int, exponent: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``dlp.node_tables`` by residue products: for c = a and c = b, the x
    = c^(-j 2^e) live[k] mod N of every entry, found in ``live``. The
    (r, 2^t) products are placed and transposed, the live axis outermost."""
    N, r = instance.N, instance.r
    powers = [pow(instance.a, k, N) for k in range(r)]
    live = np.array(sorted(powers), dtype=np.intp if N <= 1 << 63 else object)
    order = live.searchsorted(np.array(powers, dtype=live.dtype))
    tables = []
    for c in (instance.a, instance.b):
        step = pow(c, -(1 << exponent), N)
        steps = np.array([pow(step, j, N) for j in range(1 << t)], dtype=object)
        sources = np.array(live.tolist(), dtype=object)[:, None] * steps % N
        tables.append(live.searchsorted(sources.astype(live.dtype)).T)
    for table in (*tables, live, order):
        table.setflags(write=False)
    return tables[0], tables[1], live, order


def node_columns(
    instance: ProblemInstance, t: int, exponent: int = 0, work: int | np.ndarray = 1
) -> tuple[np.ndarray, np.ndarray]:
    """``(cols, live)``: the a stage on every work column, ``(2^t, 2^L)``,
    0 off ``live``. A vector input, r amplitudes in ``live`` order, is
    embedded on ``live`` in a 2^L work vector."""
    live = node_tables(instance, t, exponent)[2]
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    if isinstance(work, (int, np.integer)):
        vec = statevec.register_factor("work", instance.L, work)
        scale = 1.0
        for _ in range(2 * t):
            scale *= inv_sqrt2
        vec[work] = scale
    else:
        vec = np.zeros(1 << instance.L, dtype=np.complex128)
        vec[live] = work
        for _ in range(2 * t):
            vec = (vec + 0) * inv_sqrt2
    src_a = statevec.modmul_sources(t, instance.L, instance.a, exponent, instance.N)
    cols = np.fft.fft(vec[src_a], axis=0) / math.sqrt(1 << t)
    return cols, live


def node_rows(
    instance: ProblemInstance, t: int, exponent: int, cols: np.ndarray, live: np.ndarray
) -> np.ndarray:
    """The b stage on the given rows of the full columns, at the work
    values ``live`` in the order given."""
    src_b = statevec.modmul_sources(t, instance.L, instance.b, exponent, instance.N)
    rows = np.fft.fft(cols[:, src_b[:, live]], axis=1)
    rows /= math.sqrt(1 << t)
    return rows


def node_block(
    instance: ProblemInstance, t: int, exponent: int = 0, work: int | np.ndarray = 1
) -> tuple[np.ndarray, np.ndarray]:
    cols, live = node_columns(instance, t, exponent, work)
    return node_rows(instance, t, exponent, cols, live), live


def measure_node(
    instance: ProblemInstance, t: int, exponent: int, work: int | np.ndarray,
    rng: np.random.Generator,
) -> tuple[int, int, np.ndarray]:
    cols, live = node_columns(instance, t, exponent, work)
    live_cols = cols[:, live]
    marginal_a = (live_cols.real**2 + live_cols.imag**2).sum(axis=1) * (1 << t)
    j_a, p_a = statevec.draw_outcome(rng, marginal_a)
    (row,) = node_rows(instance, t, exponent, cols[j_a : j_a + 1], live)
    marginal_b = (row.real**2 + row.imag**2).sum(axis=1)
    j_b, _ = statevec.draw_outcome(rng, marginal_b / p_a)
    return j_a, j_b, row[j_b] / math.sqrt(float(marginal_b[j_b]))


def branch_amplitudes(instance: ProblemInstance, t: int, exponent: int) -> np.ndarray:
    orbit = np.array([pow(instance.a, k, instance.N) for k in range(instance.r)])
    cols, _ = node_columns(instance, t, exponent)
    return np.fft.fft(node_rows(instance, t, exponent, cols, orbit), axis=2)


def branch_laws(instance: ProblemInstance, nodes: Chain) -> list[np.ndarray]:
    """Per node, the ``(r, 4^m)`` table of its state-vector prefix laws:
    the whole ``branch_amplitudes`` block squared and folded to m bits."""
    r = instance.r
    laws = []
    for t, exponent, m in nodes:
        w = branch_amplitudes(instance, t, exponent)
        p = (w.real**2 + w.imag**2).reshape(1 << m, 1 << (t - m), 1 << m, 1 << (t - m), r)
        laws.append(p.sum(axis=(1, 3)).reshape(-1, r).T)
    return laws


def node_terms(
    instance: ProblemInstance, t: int, exponent: int, m: int
) -> tuple[np.ndarray, float]:
    """``dist._node_terms`` on the node's whole blocks (``m`` is unused):
    the residual of the run on |a> against the |1> block, row by row in j_a
    order, then max |W(s)|, max |A(s)| and max |W(s) - A(s)| per branch on
    the FFT of the whole |1> block."""
    r, N, a = instance.r, instance.N, instance.a
    orbit = np.array([pow(a, k, N) for k in range(r)])
    cols, _ = node_columns(instance, t, exponent)
    block = node_rows(instance, t, exponent, cols, orbit)
    cols, _ = node_columns(instance, t, exponent, a)
    square = 0.0
    for j_a in range(1 << t):
        diff = node_rows(instance, t, exponent, cols[j_a : j_a + 1], orbit * a % N)[0] - block[j_a]
        square += float(np.vdot(diff, diff).real)
    w = np.fft.fft(block, axis=2)
    terms = np.empty((3, r))
    for s in range(r):
        num_a, num_b = node_numerators(instance, exponent, s)
        analytic = np.outer(
            phase_state_amplitudes(Fraction(num_a, r), t),
            phase_state_amplitudes(Fraction(num_b, r), t),
        )
        branch = w[:, :, -s % r]
        terms[:, s] = np.abs(branch).max(), np.abs(analytic).max(), np.abs(branch - analytic).max()
    return terms, math.sqrt(square)
