"""Gates as a table of operand-subspace matrices, applied by two kernels.

Each unitary kind has a matrix on its operand qubits (a 2x2; a 4x4 or 8x8
permutation or diagonal), kept as nonzero (row, column, coefficient) terms
built once per (kind, angle).  A gate writes into the dead buffer (see
statecore).  The strided kernel adds ``coefficient * input[column]`` into
``output[row]`` over whole strided views, one axis per operand; the scatter
takes only the nonzero inputs and adds each term's share by index arrays.

Without zero-skipping every basis state goes through the scatter.  With it,
registers of at least ``SCAN_MIN_QUBITS`` qubits are scanned for nonzero
amplitudes and scattered while at most ``SCATTER_MAX_FRACTION`` of them are
nonzero; other gates are strided, and a larger support marks the state
dense, which skips the scan until ``reset_ground``.  Both constants are
measured crossovers of the kernels.

Both kernels give bit-identical output: every output amplitude starts at +0
and gets its terms in the same order, so a skipped zero input only drops the
addition of a signed zero.  After a scatter the old input buffer is cleared
only at the rows the scan listed (all rows, as a slice, for the no-skip
reference); its other rows hold +0 already, since no kernel output, and so
no live buffer, is ever -0.0 (see statecore).  The strided kernel's input
is cleared whole.  Complex coefficients are split into a real and an
imaginary term, each product one rounding, because numpy's complex-by-complex
multiply rounds differently with array layout and length.

Noiseless passes of :func:`run_circuit` on registers of at least
``SCAN_MIN_QUBITS`` qubits fuse each run of consecutive permutation gates
(X, CNOT, SWAP, TOFFOLI) on at most ``FUSE_MAX_QUBITS`` qubits, greedily in
program order, into one block: a permutation of its operand subspace, cached
by its gate sequence.  A block takes the same kernel choice as a gate.  The
scatter moves each nonzero input through a lookup table of its operand bits;
the strided kernel applies the block's permutation as merged terms from the
same term builder as the gates.  A permutation's nonzero entries are all 1,
so each amplitude is added once to a +0 in its new place, as the unfused
gates would do, and output stays byte-identical.  Noisy passes stay unfused.

A batch of trajectories (see statecore) adds a trailing axis that both
kernels carry along: the strided views gain it as their last axis, and the
scatter's index arrays select whole rows, scanned as nonzero when any
trajectory is.  So one kernel call applies a gate to every trajectory, each
column getting exactly the bytes a single-trajectory run would.  Noise,
measurement and ``prep_z`` draw and act per trajectory.

:func:`sample` draws readouts from a probability array (see
``statecore.probabilities``), so a caller that computed one for its own use
samples from that same array.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .statecore import StateVector, probabilities


class GateKind(enum.Enum):
    X = "x"
    Y = "y"
    Z = "z"
    H = "h"
    RX = "rx"
    RY = "ry"
    RZ = "rz"
    CNOT = "cnot"
    CPHASE = "cz"
    TOFFOLI = "toffoli"
    SWAP = "swap"
    PREP_Z = "prep_z"
    MEASURE = "measure"

    @property
    def mnemonic(self) -> str:
        return self.value

    @property
    def arity(self) -> int:
        return _ARITY[self]

    @property
    def takes_angle(self) -> bool:
        return self in _ROTATIONS

    @property
    def is_unitary(self) -> bool:
        return self not in (GateKind.PREP_Z, GateKind.MEASURE)


_ARITY = {
    GateKind.X: 1,
    GateKind.Y: 1,
    GateKind.Z: 1,
    GateKind.H: 1,
    GateKind.RX: 1,
    GateKind.RY: 1,
    GateKind.RZ: 1,
    GateKind.CNOT: 2,
    GateKind.CPHASE: 2,
    GateKind.TOFFOLI: 3,
    GateKind.SWAP: 2,
    GateKind.PREP_Z: 1,
    GateKind.MEASURE: 1,
}

_ROTATIONS = frozenset({GateKind.RX, GateKind.RY, GateKind.RZ})

MNEMONICS: Mapping[str, GateKind] = {kind.mnemonic: kind for kind in GateKind}


@dataclass(frozen=True)
class GateInstance:
    """One instruction: a gate kind, its operand qubits, and an optional angle.

    Operand order is controls before target (CNOT: control, target;
    TOFFOLI: control, control, target).
    """

    kind: GateKind
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        if len(self.qubits) != self.kind.arity:
            raise ValueError(
                f"{self.kind.mnemonic} takes {self.kind.arity} qubit(s), got {len(self.qubits)}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"{self.kind.mnemonic} operands must be distinct: {self.qubits}")
        if any(q < 0 for q in self.qubits):
            raise ValueError(f"negative qubit index in {self.qubits}")
        if self.kind.takes_angle:
            if self.angle is None:
                raise ValueError(f"{self.kind.mnemonic} requires an angle")
            object.__setattr__(self, "angle", float(self.angle))
            if not math.isfinite(self.angle):
                raise ValueError(f"{self.kind.mnemonic} angle must be finite, got {self.angle!r}")
        elif self.angle is not None:
            raise ValueError(f"{self.kind.mnemonic} does not take an angle")


def gate(kind: GateKind | str, *qubits: int, angle: float | None = None) -> GateInstance:
    """Convenience constructor accepting a GateKind or its mnemonic."""
    if isinstance(kind, str):
        try:
            kind = MNEMONICS[kind.lower()]
        except KeyError:
            raise ValueError(f"unknown gate mnemonic {kind!r}") from None
    return GateInstance(kind, qubits, angle)


@dataclass(frozen=True)
class NoiseConfig:
    """Depolarizing noise: each operand qubit of each gate independently
    suffers a uniformly random X, Y or Z with probability p."""

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"depolarizing probability must be in [0, 1], got {self.p}")


#: Zero-skip scans registers of at least this many qubits for nonzero amplitudes;
#: below it the scan and scatter are no faster even on a two-state support.
SCAN_MIN_QUBITS = 13

#: Zero-skip scatters while at most this fraction of the amplitudes is
#: nonzero; on a larger support the strided kernel is faster.
SCATTER_MAX_FRACTION = 1 / 16

#: Noiseless passes on registers of at least SCAN_MIN_QUBITS qubits fuse each
#: run of consecutive permutation gates on at most this many qubits into one
#: block, applied in one pass.  Over the 32 perfbench ``align`` instances of
#: seed 1 (17 qubits; median in-process CPU time, 2-core VM, 3 to 6 rounds)
#: an op took 237-279 ms unfused, 147-163 ms at a cap of 4, 91-103 at 5,
#: 73-84 at 6, 63-74 at 7 and 61-71 at 8; one instance's 514 gates became
#: 306, 184, 143, 110 and 110 applications.  The cap is 6 because the
#: ``align`` benchmark's peak RSS stays flat there (47.9-48.0 MiB against
#: 47.2-47.6 unfused), while a cap of 7 raised it to 51.0-51.2 MiB.  That
#: rise is glibc malloc keeping freed heap pages, not live data: at a cap of
#: 8 the benchmark read 51.1 MiB, and 48.3-48.7 MiB with either
#: MALLOC_MMAP_THRESHOLD_=131072 or MALLOC_TRIM_THRESHOLD_=0 set on its
#: process, which make glibc map large blocks on their own or trim its heap.
FUSE_MAX_QUBITS = 6

_SQRT1_2 = 1.0 / math.sqrt(2.0)

#: Each unitary kind's matrix on its operand subspace (a rotation's as a
#: function of the cosine and sine of its half angle).  Operand j of a gate
#: is bit j of a row or column index, so CNOT's control is bit 0; row i of a
#: permutation is row perm[i] of the identity.
_MATRICES = {
    GateKind.X: [[0, 1], [1, 0]],
    GateKind.Y: [[0, -1j], [1j, 0]],
    GateKind.Z: [[1, 0], [0, -1]],
    GateKind.H: [[_SQRT1_2, _SQRT1_2], [_SQRT1_2, -_SQRT1_2]],
    GateKind.RX: lambda c, s: [[c, -1j * s], [-1j * s, c]],
    GateKind.RY: lambda c, s: [[c, -s], [s, c]],
    GateKind.RZ: lambda c, s: [[complex(c, -s), 0], [0, complex(c, s)]],
    GateKind.CNOT: np.eye(4)[[0, 3, 2, 1]],
    GateKind.CPHASE: np.diag([1, 1, 1, -1]),
    GateKind.SWAP: np.eye(4)[[0, 2, 1, 3]],
    GateKind.TOFFOLI: np.eye(8)[[0, 1, 2, 7, 4, 5, 6, 3]],
}

#: The permutation kinds, each as the subspace index every column moves to.
_PERMUTATIONS = {kind: np.argmax(np.asarray(_MATRICES[kind]), axis=0)
                 for kind in (GateKind.X, GateKind.CNOT, GateKind.SWAP, GateKind.TOFFOLI)}


def _merge(terms: list[tuple[int, int, int, complex]], bit: int) -> list:
    """Fold each pair of (care, row, col, coef) terms that differ only in ``bit``
    of both row and column into one term leaving it free (flipped if they differ)."""
    pending, merged = set(terms), []
    for care, row, col, coef in terms:
        if (care, row, col, coef) in pending:
            pending.discard((care, row, col, coef))
            if care & bit and (care, row ^ bit, col ^ bit, coef) in pending:
                pending.discard((care, row ^ bit, col ^ bit, coef))
                care, row, col = care & ~bit, (row & ~bit) | ((row ^ col) & bit), col & ~bit
            merged.append((care, row, col, coef))
    return merged


class _Table(NamedTuple):
    views: tuple[tuple[tuple, tuple, complex], ...]  # (output key, input key, coefficient)
    cares: np.ndarray  # per term: the operand bits it fixes,
    cols: np.ndarray  # their input values,
    flips: np.ndarray  # the operand bits it flips,
    coefs: np.ndarray  # and its coefficient


def _table(m: np.ndarray) -> _Table:
    """An operand-subspace matrix's nonzero entries as terms, each complex
    entry split into a real and an imaginary term so each product is one
    rounding, and terms that act alike on an operand bit merged so that it
    stays a free axis."""
    k, terms = m.shape[0].bit_length() - 1, []
    for row, col in zip(*np.nonzero(m)):
        for part in (float(m[row, col].real), complex(0.0, m[row, col].imag)):
            if part:
                terms.append(((1 << k) - 1, int(row), int(col), part))
    for j in range(k):
        terms = _merge(terms, 1 << j)

    def key(care, value, flip=0):  # leading-axis index, operand k-1 first
        return tuple((value >> j) & 1 if care >> j & 1 else np.s_[:: 1 - 2 * (flip >> j & 1)]
                     for j in reversed(range(k)))

    views = tuple((key(c, r), key(c, v, r ^ v), coef) for c, r, v, coef in terms)
    cares, rows, cols, coefs = (np.array(column) for column in zip(*terms))
    return _Table(views, cares, cols, rows ^ cols, coefs.astype(complex))


@functools.lru_cache(maxsize=4096)
def _gate_table(kind: GateKind, angle: float | None) -> _Table:
    """:func:`_table` of a gate's matrix, built once per (kind, angle)."""
    m = _MATRICES[kind]
    if kind.takes_angle:
        m = m(math.cos(angle / 2.0), math.sin(angle / 2.0))
    return _table(np.asarray(m, complex))


@functools.lru_cache(maxsize=256)
def _permutation_table(perm: tuple[int, ...]) -> _Table:
    """:func:`_table` of the permutation matrix sending subspace index i to
    ``perm[i]``, built once per permutation."""
    m = np.zeros((len(perm), len(perm)), complex)
    m[perm, np.arange(len(perm))] = 1
    return _table(m)


@functools.lru_cache(maxsize=4096)
def _layout(qubits: tuple[int, ...]) -> tuple[tuple, tuple, np.ndarray]:
    """How the kernels address operands: a shape with an axis per operand bit and per run
    between, an order putting operands k-1..0 first, and each subspace index's bits."""
    cuts = sorted(qubits, reverse=True)
    runs = [-1] + [1 << (hi - lo - 1) for hi, lo in zip(cuts, cuts[1:])]
    shape = tuple(size for run in runs for size in (run, 2)) + (1 << cuts[-1],)
    bit_axis = {q: 2 * i + 1 for i, q in enumerate(cuts)}
    order = tuple(bit_axis[q] for q in reversed(qubits)) + tuple(range(0, len(shape), 2))
    spread = np.array([sum(((i >> j) & 1) << q for j, q in enumerate(qubits))
                       for i in range(1 << len(qubits))])
    spread.flags.writeable = False
    return shape, order, spread


def _strided(src, dst, layout, table: _Table) -> None:
    """Dense kernel: each term adds a scaled input view into an output view;
    a batch's trajectory axis rides along as the last axis."""
    shape, order, _ = layout
    if src.ndim > 1:
        shape, order = shape + src.shape[1:], order + (len(shape),)
    s, d = src.reshape(shape).transpose(order), dst.reshape(shape).transpose(order)
    for out_key, in_key, coef in table.views:
        view = d[out_key]
        view += s[in_key] if coef == 1 else coef * s[in_key]


def _scatter(src, dst, layout, table: _Table, nonzero: np.ndarray) -> None:
    """Sparse kernel: each term, in order, moves the given inputs it selects
    to their targets (distinct within a term), as the strided kernel does;
    the index arrays select whole rows, so a batch moves every trajectory."""
    spread = layout[2]
    for care, col, flip, coef in zip(*spread[[table.cares, table.cols, table.flips]], table.coefs):
        sources = nonzero[(nonzero & care) == col]
        dst[sources ^ flip] += src[sources] if coef == 1 else coef * src[sources]


def apply_gate(
    state: StateVector,
    g: GateInstance,
    *,
    zero_skip: bool = True,
    columns: np.ndarray | None = None,
) -> StateVector:
    """Apply one unitary gate through the kernel table; toggles the buffer
    parity.

    MEASURE and PREP_Z are not gate applications and must go through
    :func:`measure` and :func:`prep_z`.  ``columns`` limits the gate to
    those trajectories of a batch; the others keep their amplitudes.  A
    plain state is the single trajectory 0.
    """
    if any(q >= state.n for q in g.qubits):
        raise IndexError(f"operands {g.qubits} out of range for {state.n} qubits")
    if not g.kind.is_unitary:
        raise ValueError(f"{g.kind.mnemonic} is not a gate application; use {g.kind.mnemonic}()")
    if columns is not None and len(columns) < (state.batch or 1):
        src = state.live[:, columns]
        dst = np.zeros_like(src)
        _apply_terms(state, src, dst, g, zero_skip)
        state.live[:, columns] = dst
    else:
        state.toggle_after_gate(_apply_terms(state, state.live, state.dead, g, zero_skip))
    return state


def _apply_terms(state: StateVector, src, dst, g: GateInstance,
                 zero_skip: bool) -> np.ndarray | None:
    """Add a unitary gate's terms from ``src`` into the zeroed ``dst``
    through the kernel that zero-skipping picks; returns the rows scattered,
    or None after the strided kernel."""
    table, layout = _gate_table(g.kind, g.angle), _layout(g.qubits)
    rows = _scatter_rows(state, src, zero_skip)
    if rows is None:
        _strided(src, dst, layout, table)
    else:
        _scatter(src, dst, layout, table, rows)
    return rows


def _scatter_rows(state: StateVector, src, zero_skip: bool) -> np.ndarray | None:
    """Pick the kernel for the next pass over ``src``: the rows the scatter
    must move, or None for the strided kernel.  Scanning updates
    ``state.dense``."""
    if not zero_skip:  # the reference: every basis state through the scatter
        return np.arange(state.dim)
    if state.dense or state.n < SCAN_MIN_QUBITS:
        return None
    occupied = src != 0
    nonzero = (occupied if src.ndim == 1 else occupied.any(axis=1)).nonzero()[0]
    state.dense = nonzero.size > SCATTER_MAX_FRACTION * state.dim
    return None if state.dense else nonzero


def _gather(index: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
    """Each index's bits at ``qubits`` as a subspace index (``qubits[j]``
    becomes bit j)."""
    local = np.zeros_like(index)
    for j, q in enumerate(qubits):
        local |= (index >> q & 1) << j
    return local


def _flips(qubits: tuple[int, ...], perm: np.ndarray) -> np.ndarray:
    """Per subspace index i, the bits at ``qubits`` that moving it to
    ``perm[i]`` flips."""
    return _layout(qubits)[2][np.arange(perm.size) ^ perm]


class _Block(NamedTuple):
    """Consecutive permutation gates fused into one permutation of their
    joint operand subspace."""

    qubits: tuple[int, ...]  # ascending; qubits[j] is subspace bit j
    perm: np.ndarray  # subspace index i goes to perm[i]
    flips: np.ndarray  # and flips these register bits


@functools.lru_cache(maxsize=4096)
def _block(gates: tuple[GateInstance, ...]) -> _Block:
    """Compose permutation gates, in order, on the subspace of their qubits."""
    qubits = tuple(sorted({q for g in gates for q in g.qubits}))
    dest = np.arange(1 << len(qubits))
    for g in gates:
        operands = tuple(qubits.index(q) for q in g.qubits)
        dest ^= _flips(operands, _PERMUTATIONS[g.kind])[_gather(dest, operands)]
    flips = _flips(qubits, dest)
    dest.flags.writeable = flips.flags.writeable = False
    return _Block(qubits, dest, flips)


def _apply_block(state: StateVector, block: _Block, zero_skip: bool) -> None:
    """Apply a fused block, as its gates one by one would, byte for byte:
    each amplitude is added once to a +0 in its new place."""
    if block.qubits[-1] >= state.n:
        raise IndexError(f"operands {block.qubits} out of range for {state.n} qubits")
    src, dst = state.live, state.dead
    rows = _scatter_rows(state, src, zero_skip)
    if rows is None:
        _strided(src, dst, _layout(block.qubits), _permutation_table(tuple(block.perm.tolist())))
    else:
        dst[rows ^ block.flips[_gather(rows, block.qubits)]] += src[rows]
    state.toggle_after_gate(rows)


def _fused(instructions: Iterable[GateInstance]):
    """The instructions with each run of two or more consecutive permutation
    gates on at most ``FUSE_MAX_QUBITS`` qubits replaced by its block."""
    run: list[GateInstance] = []
    span: set[int] = set()
    for g in instructions:
        permutes = g.kind in _PERMUTATIONS
        if run and not (permutes and len(span.union(g.qubits)) <= FUSE_MAX_QUBITS):
            yield run[0] if len(run) == 1 else _block(tuple(run))
            run, span = [], set()
        if permutes:
            run.append(g)
            span.update(g.qubits)
        else:
            yield g
    if run:
        yield run[0] if len(run) == 1 else _block(tuple(run))


def measure(
    state: StateVector, q: int, rng: np.random.Generator
) -> tuple[int | np.ndarray, StateVector]:
    """Projective measurement of one qubit with collapse and renormalization.

    A batch draws and collapses each trajectory on its own and returns an
    array of outcomes, one per trajectory.
    """
    if not 0 <= q < state.n:
        raise IndexError(f"qubit {q} out of range for {state.n} qubits")
    live = state.live
    view = live.reshape((-1, 2, 1 << q) + live.shape[1:])
    p1 = probabilities(view[:, 1]).sum(axis=(0, 1))
    p0 = 1.0 - p1
    total = state.norm_squared()
    if np.any(total < 0.5):  # cannot happen while the normalization invariant holds
        raise RuntimeError(f"degenerate state: norm^2 = {total!r}")
    ones_seen = rng.random(state.batch) >= p0
    np.copyto(view[:, 0], 0, where=ones_seen)
    np.copyto(view[:, 1], 0, where=~ones_seen)
    live /= np.sqrt(np.where(ones_seen, p1, p0))
    return (ones_seen.astype(int) if state.batch else int(ones_seen)), state


def prep_z(state: StateVector, q: int, rng: np.random.Generator) -> StateVector:
    """Reset a qubit to |0> by measuring and flipping each trajectory whose
    outcome is 1."""
    bits, _ = measure(state, q, rng)
    flipped = np.flatnonzero(bits)
    if flipped.size:
        apply_gate(state, GateInstance(GateKind.X, (q,)), columns=flipped)
    return state


def sample(probs: np.ndarray, shots: int, rng: np.random.Generator) -> dict[str, int]:
    """Draw full-register samples from a ``(2^n,)`` probability array.

    A ``(2^n, B)`` batch's array draws ``shots`` samples from each
    trajectory's column and counts them together.  Keys are bitstrings with
    qubit n-1 leftmost and qubit 0 rightmost.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    counts = rng.multinomial(shots, (probs / probs.sum(axis=0)).T)
    if probs.ndim > 1:
        counts = counts.sum(axis=0)
    width = probs.shape[0].bit_length() - 1
    return {format(i, f"0{width}b"): int(counts[i]) for i in np.flatnonzero(counts)}


_PAULIS = (GateKind.X, GateKind.Y, GateKind.Z)


def apply_depolarizing(
    state: StateVector,
    g: GateInstance,
    cfg: NoiseConfig,
    rng: np.random.Generator,
    *,
    zero_skip: bool = True,
) -> StateVector:
    """Ideal gate followed by independent depolarizing on each operand qubit.

    Each operand draws which trajectories it hits, then one Pauli per hit
    trajectory, and applies each Pauli to its trajectories in one call.
    """
    apply_gate(state, g, zero_skip=zero_skip)
    if cfg.p <= 0.0:
        return state
    for q in g.qubits:
        hits = np.flatnonzero(rng.random(state.batch) < cfg.p)
        if hits.size:
            picks = rng.integers(3, size=hits.size)
            for i, kind in enumerate(_PAULIS):
                columns = hits[picks == i]
                if columns.size:
                    apply_gate(state, GateInstance(kind, (q,)), zero_skip=zero_skip,
                               columns=columns)
    return state


def run_circuit(
    n: int,
    instructions: Iterable[GateInstance],
    *,
    rng: np.random.Generator | None = None,
    noise: NoiseConfig | None = None,
    zero_skip: bool = True,
    batch: int | None = None,
) -> tuple[StateVector, list[tuple[int, int | np.ndarray]]]:
    """Execute a gate sequence from the ground state, as ``batch``
    independent trajectories when given.

    Returns the final state and the measurement transcript as
    (qubit, outcome) pairs in execution order; a batch's outcomes are
    arrays, one per trajectory.
    """
    if rng is None:
        rng = np.random.default_rng()
    noisy = noise is not None and noise.p > 0.0
    if not noisy and n >= SCAN_MIN_QUBITS:
        # blocks built and cached before the buffers exist: built during the
        # pass, they kept the heap from shrinking and raised the perfbench
        # run_dense peak RSS by about 2 MiB
        instructions = list(_fused(instructions))
    state = StateVector(n, batch)
    transcript: list[tuple[int, int]] = []
    for g in instructions:
        if isinstance(g, _Block):
            _apply_block(state, g, zero_skip)
        elif g.kind is GateKind.MEASURE:
            bit, _ = measure(state, g.qubits[0], rng)
            transcript.append((g.qubits[0], bit))
        elif g.kind is GateKind.PREP_Z:
            prep_z(state, g.qubits[0], rng)
        elif noisy:
            apply_depolarizing(state, g, noise, rng, zero_skip=zero_skip)
        else:
            apply_gate(state, g, zero_skip=zero_skip)
    return state, transcript
