"""Dense complex state-vector simulator over named, fixed-width registers.

Basis convention: registers appear in declaration order, most significant
first, and within a register the first qubit is the most significant bit.
All index arithmetic follows from that single rule, so marginals and
permutations reduce to reshapes and table gathers.

Operations are pure: each returns a fresh QuantumState and re-checks the
unit-norm invariant. A state is never mutated after construction, which
makes independent trials safe to run concurrently.

The gates (init_product, hadamard_layer, controlled_modmul_power,
inverse_qft) and measurements (measure_prefix, measure_register,
register_vector) act on the whole vector: they are the gate-level oracle.
Every dense build, an oracle layout or a run, law or check of ``dlp``,
``dist`` and ``verify``, is sized by an upper bound in bytes and refused
by ``check_bytes``, the one comparison with the one cap BYTES_CAP, before
it allocates; an oracle layout's bound is its 16-byte amplitudes. The
solvers' kernel (``dlp.node_columns``, the a stage, and ``dlp.node_rows``,
the b stage) and sampler ``dlp.measure_node`` use only check_basis,
check_bytes and draw_outcome from here. Fresh runs measure
register a before b's transform, so they never build the 2^t x 2^t block,
and they work on the live work values alone, the r powers of a: every work
vector they hold or hand on has r entries. The two stages gather through
(2^t, r) tables from ``dlp.node_tables``' cache, placed by index arithmetic
on the orbit of a, with no residue multiplied past its r powers: only the
oracle's controlled_modmul_power reads modmul_sources' (2^t, 2^w) table. Bit
strings appear here only in the oracle's measurement outcomes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from functools import lru_cache, reduce
from typing import Mapping, Protocol

import numpy as np

from .bits import BitString

BYTES_CAP = 1 << 28
NORM_TOL = 1e-12


class LayoutError(ValueError):
    pass


class QubitBudgetError(LayoutError):
    """A dense build whose byte bound passes BYTES_CAP (``check_bytes``)."""


def check_bytes(what: str, nbytes: int, advice: str = "") -> None:
    """Refuse, before it allocates, a build whose upper bound ``nbytes``
    passes BYTES_CAP; a bound equal to the cap runs. The message names
    ``what``, the bound in MiB and the cap, then ``advice``. The MiB figure
    is written as a ``Decimal``, which Python's limit on the digits of an
    int's text does not reach, so a bound of any size is printed."""
    if nbytes > BYTES_CAP:
        raise QubitBudgetError(
            f"{what} needs about {Decimal(nbytes >> 20)} MiB (cap {BYTES_CAP >> 20} MiB){advice}"
        )


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered (name, width) register declarations."""

    registers: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "registers", tuple((str(n), int(w)) for n, w in self.registers))
        names = [n for n, _ in self.registers]
        if len(set(names)) != len(names):
            raise LayoutError(f"duplicate register names in {names}")
        if any(w < 1 for _, w in self.registers):
            raise LayoutError("register widths must be >= 1")
        check_bytes("gate-level layout", 16 << self.total_width)

    @property
    def total_width(self) -> int:
        return sum(w for _, w in self.registers)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.registers)

    def width_of(self, name: str) -> int:
        for n, w in self.registers:
            if n == name:
                return w
        raise LayoutError(f"unknown register {name!r}")

    def start_of(self, name: str) -> int:
        """Number of qubits preceding the register (from the MSB side)."""
        offset = 0
        for n, w in self.registers:
            if n == name:
                return offset
            offset += w
        raise LayoutError(f"unknown register {name!r}")

    def axis_shape(self) -> tuple[int, ...]:
        return tuple(1 << w for _, w in self.registers)


class QuantumState:
    """An amplitude vector over a register layout."""

    __slots__ = ("layout", "amps")

    def __init__(self, layout: RegisterLayout, amps: np.ndarray):
        amps = np.asarray(amps, dtype=np.complex128)
        expected = 1 << layout.total_width
        if amps.shape != (expected,):
            raise LayoutError(f"amplitude vector has shape {amps.shape}, expected ({expected},)")
        norm2 = float(np.sum(amps.real**2 + amps.imag**2))
        if abs(norm2 - 1.0) > NORM_TOL:
            raise LayoutError(f"state norm**2 = {norm2!r} drifted beyond {NORM_TOL}")
        self.layout = layout
        self.amps = amps

    def probabilities(self) -> np.ndarray:
        return self.amps.real**2 + self.amps.imag**2

    def tensor(self) -> np.ndarray:
        """The amplitude vector reshaped to one axis per register."""
        return self.amps.reshape(self.layout.axis_shape())


def init_basis(layout: RegisterLayout, assignments: Mapping[str, int] | None = None) -> QuantumState:
    """The computational basis state with the given register values.

    Unassigned registers default to 0.
    """
    return init_product(layout, assignments)


def check_basis(name: str, width: int, value: int) -> None:
    """Refuse a basis value that does not fit the register."""
    if not 0 <= value < (1 << width):
        raise LayoutError(f"value {value} does not fit register {name!r} of width {width}")


def register_factor(name: str, width: int, factor: "int | np.ndarray") -> np.ndarray:
    """One register's amplitude vector from a basis value or from a vector
    that is unit norm to 1e-9, which is returned renormalised exactly."""
    if isinstance(factor, (int, np.integer)):
        check_basis(name, width, factor)
        vec = np.zeros(1 << width, dtype=np.complex128)
        vec[factor] = 1.0
        return vec
    vec = np.asarray(factor, dtype=np.complex128)
    if vec.shape != (1 << width,):
        raise LayoutError(f"factor for {name!r} has shape {vec.shape}")
    norm = math.sqrt(float(np.sum(vec.real**2 + vec.imag**2)))
    if abs(norm - 1.0) > 1e-9:
        raise LayoutError(f"factor for {name!r} has norm {norm}")
    return vec / norm


def init_product(
    layout: RegisterLayout, factors: Mapping[str, "int | np.ndarray"] | None = None
) -> QuantumState:
    """Tensor-product state from per-register basis values or amplitude vectors."""
    factors = dict(factors or {})
    parts = [register_factor(name, width, factors.pop(name, 0)) for name, width in layout.registers]
    if factors:
        raise LayoutError(f"unknown registers in factors: {sorted(factors)}")
    return QuantumState(layout, reduce(np.kron, parts))


def hadamard_layer(state: QuantumState, register: str) -> QuantumState:
    """Apply a Hadamard to every qubit of the register."""
    layout = state.layout
    n = layout.total_width
    start = layout.start_of(register)
    amps = state.amps.copy()
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for q in range(start, start + layout.width_of(register)):
        view = amps.reshape(1 << q, 2, 1 << (n - q - 1))
        top = view[:, 0, :].copy()
        bottom = view[:, 1, :].copy()
        view[:, 0, :] = (top + bottom) * inv_sqrt2
        view[:, 1, :] = (top - bottom) * inv_sqrt2
    return QuantumState(layout, amps)


@lru_cache(maxsize=64)
def _modmul_destinations(t: int, w: int, base: int, power_exponent: int, N: int) -> np.ndarray:
    """The (2^t, 2^w) table of c^j * x mod N over control j and work x.

    c = base^(2^power_exponent) mod N; work values >= N are fixed points,
    so every row is a permutation of range(2^w).
    """
    if (1 << w) < N:
        raise LayoutError(f"work register of width {w} cannot hold residues mod {N}")
    c = pow(base, 1 << power_exponent, N)
    powers = np.empty(1 << t, dtype=np.int64)
    acc = 1
    for j in range(1 << t):
        powers[j] = acc
        acc = (acc * c) % N
    xs = np.arange(1 << w, dtype=np.int64)
    table = np.where(xs < N, powers[:, None] * xs % N, xs)
    table.setflags(write=False)
    return table


def modmul_sources(t: int, w: int, base: int, power_exponent: int, N: int) -> np.ndarray:
    """The (2^t, 2^w) table whose entry [j, y] is the x with c^j x = y mod N.

    Gathering a work axis through row j applies the multiplication by c^j,
    with c = base^(2^power_exponent) mod N.
    """
    if N < 2:
        raise ValueError(f"modulus must be >= 2, got {N}")
    if math.gcd(base, N) != 1:
        raise ValueError(
            f"base {base} is not a unit mod {N}: multiplication is not a permutation"
        )
    if power_exponent < 0:
        raise ValueError(f"power exponent must be >= 0, got {power_exponent}")
    return _modmul_destinations(t, w, pow(base, -1, N), power_exponent, N)


def controlled_modmul_power(
    state: QuantumState,
    control: str,
    work: str,
    base: int,
    power_exponent: int,
    N: int,
) -> QuantumState:
    """Controlled modular multiplication: |j>|x> -> |j> |c^j x mod N>.

    The exponent j is the full value of the control register and
    c = base^(2^power_exponent) mod N. Registers not named are untouched,
    which is what makes the same call serve both the two-register and the
    bystander-register controlled forms.
    """
    layout = state.layout
    sources = modmul_sources(
        layout.width_of(control), layout.width_of(work), base, power_exponent, N
    )
    axes = (layout.names.index(control), layout.names.index(work))
    tensor = np.moveaxis(state.tensor(), axes, (-2, -1))
    gathered = tensor[..., np.arange(sources.shape[0])[:, None], sources]
    amps = np.ascontiguousarray(np.moveaxis(gathered, (-2, -1), axes))
    return QuantumState(layout, amps.reshape(-1))


def inverse_qft(state: QuantumState, register: str) -> QuantumState:
    """Exact inverse Fourier transform on one register's factor.

    Implemented as a radix-2 butterfly (FFT) along the register axis; this
    is numerically exact to ~1e-15 and much faster than a dense matrix.
    """
    layout = state.layout
    dim = 1 << layout.width_of(register)
    cube = state.amps.reshape(1 << layout.start_of(register), dim, -1)
    out = np.fft.fft(cube, axis=1) / math.sqrt(dim)
    return QuantumState(layout, np.ascontiguousarray(out.reshape(-1)))


@dataclass(frozen=True)
class MeasurementOutcome:
    bits: BitString
    probability: float


def marginal_distribution(state: QuantumState, register: str, prefix_width: int) -> np.ndarray:
    """Exact outcome distribution of the first prefix_width qubits of a register."""
    layout = state.layout
    width = layout.width_of(register)
    if not 1 <= prefix_width <= width:
        raise LayoutError(f"prefix width {prefix_width} outside 1..{width}")
    start = layout.start_of(register)
    cube = state.probabilities().reshape(1 << start, 1 << prefix_width, -1)
    return cube.sum(axis=(0, 2))


class Rng(Protocol):
    """A random generator with the solvers' two draws: ``random()``, a
    float in [0, 1), and ``integers(high)``, an int in [0, high). Trials get
    a ``harness.TrialGenerator``; a numpy ``Generator`` works too."""

    def random(self) -> float: ...

    def integers(self, high: int) -> int: ...


def sample_outcome(rng: Rng, probabilities: np.ndarray) -> int:
    """Draw an index from a probability vector (normalising float drift)."""
    return sample_cdf(rng, probabilities.cumsum())


def sample_cdf(rng: Rng, cdf: np.ndarray) -> int:
    u = rng.random() * cdf[-1]
    return min(int(cdf.searchsorted(u, side="right")), len(cdf) - 1)


def draw_outcome(
    rng: Rng, probabilities: np.ndarray, cdf: np.ndarray | None = None
) -> tuple[int, float]:
    """One measurement draw and its probability; refuses an unsupported
    outcome. ``cdf``, if given, is ``probabilities.cumsum()``, already taken."""
    outcome = sample_outcome(rng, probabilities) if cdf is None else sample_cdf(rng, cdf)
    p = float(probabilities[outcome])
    if p < 1e-15:
        raise LayoutError(f"sampled outcome {outcome} has no support (p = {p!r})")
    return outcome, p


def measure_prefix(
    state: QuantumState, register: str, prefix_width: int, rng: Rng
) -> tuple[MeasurementOutcome, QuantumState]:
    """Measure the first prefix_width qubits of a register.

    Returns the outcome with its pre-measurement probability and the
    collapsed, renormalised state.
    """
    layout = state.layout
    outcome, p = draw_outcome(rng, marginal_distribution(state, register, prefix_width))
    start = layout.start_of(register)
    cube = state.amps.reshape(1 << start, 1 << prefix_width, -1)
    collapsed = np.zeros_like(cube)
    collapsed[:, outcome, :] = cube[:, outcome, :] / math.sqrt(p)
    new_state = QuantumState(layout, collapsed.reshape(-1))
    return MeasurementOutcome(BitString(prefix_width, outcome), p), new_state


def measure_register(
    state: QuantumState, register: str, rng: Rng
) -> tuple[MeasurementOutcome, QuantumState]:
    """Measure every qubit of a register."""
    return measure_prefix(state, register, state.layout.width_of(register), rng)


def register_vector(state: QuantumState, target: str, fixed: Mapping[str, int]) -> np.ndarray:
    """Amplitude vector of one register once every other register is fixed
    to a basis value (e.g. after those registers were fully measured).

    The extracted vector is renormalised; its mass before normalisation must
    be essentially all of the state.
    """
    layout = state.layout
    expected = set(layout.names) - {target}
    if set(fixed) != expected:
        raise LayoutError(f"fixed registers {sorted(fixed)} != required {sorted(expected)}")
    indexer: list[object] = []
    for name, width in layout.registers:
        if name == target:
            indexer.append(slice(None))
        else:
            value = fixed[name]
            if not 0 <= value < (1 << width):
                raise LayoutError(f"value {value} does not fit register {name!r}")
            indexer.append(value)
    vec = np.ascontiguousarray(state.tensor()[tuple(indexer)])
    norm2 = float(np.sum(vec.real**2 + vec.imag**2))
    if norm2 < 1.0 - 1e-9:
        raise LayoutError(f"fixed assignment carries only mass {norm2}, state is not collapsed")
    return vec / math.sqrt(norm2)
