"""Gates as a table of operand-subspace matrices, applied by two kernels.

Each unitary kind has a matrix on its operand qubits (a 2x2; a 4x4 or 8x8
permutation or diagonal), kept as nonzero (row, column, coefficient) terms
built once per (kind, angle).  The strided kernel writes or adds
``coefficient * input[column]`` into ``output[row]`` over strided views,
one axis per operand, from the live buffer into the dead one (see
statecore); the scatter takes only the nonzero inputs, clears their rows
and adds each term's share back onto the live buffer by index arrays.

The strided kernel walks a register of more than
``statecore.CHUNK_AMPLITUDES`` amplitudes in chunks, writing each product
into scratch the state owns, so no pass over such a register allocates a
temporary of its size; it applies a smaller register, and a signed
permutation, in place (see :func:`_strided`).

Every pass zero-skips: registers of at least ``SCAN_MIN_QUBITS`` qubits are
scanned for nonzero amplitudes and scattered while at most
``SCATTER_MAX_FRACTION`` of them are nonzero (measured crossovers of the
kernels); other gates are strided, and a larger support marks the state
dense, which skips the scan until ``reset_ground``.  Only
``apply_gate(..., zero_skip=False)`` reaches the no-skip reference, which
sends every basis state through the scatter.  A pass carries the support of
every state it makes in ``state.support``: a pass of :func:`run_circuit`
scans its state once at the start, a noisy pass scans the noiseless state
it carries once, and its groups' copies of it (``StateVector.copy``) take
that support along.  A sparse pass returns the rows it wrote, which are the
rows the next scan would find, and a ``measure`` or ``prep_z`` rescans a
state that carried one, so every kernel choice, ``dense`` flag and byte
stays what scanning gives.  A state that no pass owns, such as one that
``qaccel bench`` times, is scanned before every gate.

Both kernels give bit-identical output: every output amplitude gets its
terms in the same order, the first onto +0, whether in place or in a chunk
of scratch, so a skipped zero input only drops the addition of a signed
zero.  The scatter adds onto +0 rows: the rows it gathered and cleared, and
rows outside them, which hold +0 already, since no kernel output, and so no
live buffer, is ever -0.0 (see statecore).  The strided kernel writes each
output's first term as ``0.0 + product`` (its table's write plan, see
:func:`_table`), so its output may hold anything beforehand.  Only the
strided kernel writes the dead buffer, and no pass reads what it held, so
no kernel choice or ``dense`` flag decides a byte.  Complex coefficients
are split into a real and an imaginary term, each product one rounding,
because numpy's complex-by-complex multiply rounds differently with array
layout and length.

A table whose matrix is a signed permutation (X, Z, CNOT, CZ, SWAP,
TOFFOLI, or a fused block of them) is ``signed``: a sparse pass moves it
through its terms in one indexed add (:func:`_move`); every other table
scatters term by term.  Each amplitude lands once, exactly negated or not,
on a +0, so both scatters give the same bytes from the same terms.

Passes of :func:`run_circuit`, all noiseless, on registers of at least
``SCAN_MIN_QUBITS`` qubits fuse gates before either kernel runs
(:func:`_fused`): one-qubit gates that are not signed permutations into
2x2 products, and runs of signed permutation gates on at most
``FUSE_MAX_QUBITS`` qubits into blocks, each a signed permutation of its
operand subspace composed through its gates' terms and cached by its gate
sequence.  Each item goes through :func:`apply_gate` on its own, and a
block gives the bytes of its gates applied one at a time.  A product rounds
differently from its gates, and so do two non-permutation gates on
different qubits that fusion has swapped: fused passes differ from program
order in the last bits (at most 1.2e-16 per amplitude over random
13-16-qubit circuits).  A fused pass's items give the same bytes through
either kernel choice.  Noisy passes stay unfused.

A batch of trajectories (see statecore) adds a trailing axis that both
kernels carry along: the strided views gain it as their last axis, and the
scatter's index arrays select whole rows, scanned as nonzero when any
trajectory is.  So one kernel call applies a gate to every trajectory, each
column getting exactly the bytes a single-trajectory run would.  Noise,
measurement and ``prep_z`` draw and act per trajectory.

One rule measures or resets a qubit, :func:`_collapse`, which calls no
kernel and keeps a carried support: every pass calls it, and
:func:`measure` and :func:`prep_z` are draws around it.

Noisy passes live in ``trajectories``, which builds on this module; this
module does not import it.

:func:`sample` draws readouts from a probability array (see
``statecore.probabilities``), so a caller that computed one for its own use
samples from that same array.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .statecore import StateVector, probabilities


class GateKind(enum.Enum):
    """A gate kind and its facts: mnemonic (also the enum value, so
    ``GateKind("cz")`` is CPHASE), operand count, whether it takes an angle,
    and whether it is a unitary gate application (``measure`` and ``prep_z``
    are not)."""

    X = "x", 1
    Y = "y", 1
    Z = "z", 1
    H = "h", 1
    RX = "rx", 1, True
    RY = "ry", 1, True
    RZ = "rz", 1, True
    CNOT = "cnot", 2
    CPHASE = "cz", 2
    TOFFOLI = "toffoli", 3
    SWAP = "swap", 2
    PREP_Z = "prep_z", 1, False, False
    MEASURE = "measure", 1, False, False

    def __new__(cls, mnemonic: str, arity: int, takes_angle: bool = False,
                is_unitary: bool = True):
        kind = object.__new__(cls)
        kind._value_ = kind.mnemonic = mnemonic
        kind.arity, kind.takes_angle, kind.is_unitary = arity, takes_angle, is_unitary
        return kind


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

    @classmethod
    def prevalidated(cls, kind: GateKind, qubits: tuple[int, ...],
                     angle: float | None = None) -> "GateInstance":
        """A gate built without ``__post_init__``, for fields the caller
        knows it would accept as they are: ``qubits`` a tuple of distinct
        non-negative ints of the kind's arity, ``angle`` a finite float where
        the kind takes one and None elsewhere (a checked gate's own fields,
        say, with its operands renamed one to one).  About 0.7 us against
        2.7-3.3 us for a checked one (timeit, 2-core VM)."""
        g = object.__new__(cls)
        g.__dict__.update(kind=kind, qubits=qubits, angle=angle)
        return g


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
#: run of signed permutation gates on at most this many qubits into one
#: block, which a pass applies as one move on a sparse state, or as one
#: strided pass on a dense one.  Over the 32 perfbench ``align`` instances of
#: seed 1 (17 qubits; per cap the median over instances of each one's
#: fastest of 3 in-process passes, CPU time, 4 alternating rounds, 2-core
#: VM) an engine pass took 8.2-9.0 ms with no blocks, 6.9-7.0 at a cap of 4,
#: 6.6-7.1 at 5, 6.0-6.3 at 6, 6.4-6.7 at 7 and 7.3-7.8 at 8; one
#: instance's 514 gates became 298, 180, 137, 104 and 103 applications.  A
#: cap of 7 also raised the ``align`` benchmark's peak RSS, when last
#: measured, from 47.9-48.0 to 51.0-51.2 MiB: glibc malloc keeping freed
#: heap pages, not live data.
FUSE_MAX_QUBITS = 6

#: The strided kernel copies each chunk of a larger register than one chunk
#: into contiguous scratch when the lowest operand leaves contiguous runs of
#: more than one and fewer than this many amplitudes (a batch's trajectory
#: axis lengthens them).  H, RY, RZ and a 3-gate 2x2 product together, on
#: a dense random state (median of 9 ``apply_gate`` calls each, 2-core VM),
#: with and without the copy: at n = 18 on q1 18.5 against 40.7 ms, q11 9.5
#: against 12.5, q12 9.5 against 8.8, q13 9.5 against 6.7; at n = 20 on q11
#: 40.8 against 61.8, q12 39.2 against 40.1, q13 40.4 against 32.9.  On q0
#: each view is one long strided loop, and the copy lost, 18.1 against 9.0
#: ms at n = 18.  On a (2^9, 128) noisy batch, with runs of 128 << q, H, RY
#: and RZ took 1.47-1.75 ms with the copy and 1.86-2.26 without on q0-q4,
#: and 1.48-1.72 against 1.03-1.41 on q5-q8.
COPY_MIN_RUN = 1 << 12

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


#: A free operand axis in a term's view, kept or reversed.  Every table
#: shares these two slices, so cached tables hold no slice objects of their
#: own: after the perfbench ``align`` pool, the tables and blocks cached in
#: this module took 0.83 MiB this way against 1.12 MiB.
_STEPS = (np.s_[::1], np.s_[::-1])


class _Table(NamedTuple):
    # the strided kernel's write plan: (output key, input key, term, whether
    # it writes its output rows rather than adding to them), in term order
    views: tuple[tuple[tuple, tuple, int, bool], ...]
    coefs: tuple[float | complex, ...]  # per term: its coefficient,
    cares: np.ndarray  # the operand bits it fixes,
    cols: np.ndarray  # their input values,
    flips: np.ndarray  # and the operand bits it flips
    signed: bool  # whether the matrix is a signed permutation (see _move)


def _table(m: np.ndarray) -> _Table:
    """An operand-subspace matrix's nonzero entries as terms, each complex
    entry split into a real and an imaginary term so each product is one
    rounding, and terms that act alike on an operand bit merged so that it
    stays a free axis.  A unitary whose every entry is +1 or -1 is a signed
    permutation, marked ``signed``: one term moves each of its columns.

    The write plan gives each term's view, or, where a term reaches output
    rows of which an earlier term reached only some, a view per row: the
    first view to reach a row writes it, every later one adds to it.  A
    unitary has a nonzero entry in every row, so the plan writes every
    output row once, before any addition to it."""
    k, terms = m.shape[0].bit_length() - 1, []
    for row, col in zip(*np.nonzero(m)):
        for part in (float(m[row, col].real), complex(0.0, m[row, col].imag)):
            if part:
                terms.append(((1 << k) - 1, int(row), int(col), part))
    for j in range(k):
        terms = _merge(terms, 1 << j)

    def key(care, value, flip=0):  # leading-axis index, operand k-1 first
        return tuple((value >> j) & 1 if care >> j & 1 else _STEPS[flip >> j & 1]
                     for j in reversed(range(k)))

    views, written = [], [False] * (1 << k)
    for term, (care, row, col, _) in enumerate(terms):
        reached = [x for x in range(1 << k) if (x ^ row) & care == 0]
        fresh = [not written[x] for x in reached]
        if all(fresh) or not any(fresh):
            views.append((key(care, row), key(care, col, row ^ col), term, fresh[0]))
        else:  # split by row: output row x reads input row x ^ flip
            views += [(key(-1, x), key(-1, x ^ row ^ col), term, new)
                      for x, new in zip(reached, fresh)]
        for x in reached:
            written[x] = True
    cares, rows, cols = (np.array([term[i] for term in terms]) for i in range(3))
    coefs = tuple(coef for *_, coef in terms)
    return _Table(tuple(views), coefs, cares, cols, rows ^ cols, all(c in (1, -1) for c in coefs))


def _matrix(kind: GateKind, angle: float | None) -> np.ndarray:
    """A unitary kind's matrix on its operand subspace."""
    m = _MATRICES[kind]
    if kind.takes_angle:
        m = m(math.cos(angle / 2.0), math.sin(angle / 2.0))
    return np.asarray(m, complex)


#: Gate tables kept for reuse, the least recently used dropped first.  One
#: program of the perfbench pools (seed 1) applies 29-31 distinct (kind,
#: angle) tables in ``run_dense``, 41 in ``run_small`` and 44 in
#: ``run_noisy``, whose runs apply their program once per batch.  Kept
#: without this bound (at most 4096), the 16 ``run_dense`` programs left 441
#: tables cached, and the module's caches held 1.77 MiB afterwards.
GATE_TABLES_KEPT = 64


@functools.lru_cache(maxsize=GATE_TABLES_KEPT)
def _gate_table(kind: GateKind, angle: float | None) -> _Table:
    """:func:`_table` of a gate's matrix, built once per (kind, angle) while
    it is among the ``GATE_TABLES_KEPT`` most recently used.

    A rotation whose half angle has a nonzero cosine and sine has the terms
    of its kind's probe table, in the same order, each the same real or
    imaginary part, plus or minus the cosine or the sine.  So its table is
    the probe's, write plan included, with each coefficient evaluated at
    its own angle: 3.4-3.9 us, against 36-45 us to build it (timeit, 2-core
    VM).
    """
    half = (math.cos(angle / 2.0), math.sin(angle / 2.0)) if kind.takes_angle else (0.0,)
    if not all(half):
        return _table(_matrix(kind, angle))
    probe, recipe = _probe(kind)
    return probe._replace(coefs=tuple(complex(0.0, sign * half[i]) if imag else sign * half[i]
                                      for i, sign, imag in recipe))


#: The half-angle cosine and sine of a rotation's probe table: no part of
#: a rotation matrix built from them equals another's negation by chance.
_PROBE = (0.6, 0.8)


@functools.cache
def _probe(kind: GateKind) -> tuple[_Table, tuple[tuple[int, float, bool], ...]]:
    """A rotation kind's table at the ``_PROBE`` cosine and sine, and per
    term its coefficient's recipe: cosine (0) or sine (1), sign, and whether
    it is an imaginary part."""
    table = _table(np.asarray(_MATRICES[kind](*_PROBE), complex))
    recipe = []
    for coef in table.coefs:
        x = coef.imag if isinstance(coef, complex) else coef
        recipe.append((_PROBE.index(abs(x)), 1.0 if x > 0 else -1.0, isinstance(coef, complex)))
    return table, tuple(recipe)


#: The kinds whose matrix is a signed permutation: X, Z, CNOT, CZ, SWAP and
#: TOFFOLI.
_SIGNED = frozenset(kind for kind in _MATRICES
                    if not kind.takes_angle and _gate_table(kind, None).signed)


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


def _strided(src, dst, qubits: tuple[int, ...], table: _Table,
             scratch: np.ndarray | None) -> None:
    """Dense kernel: each term adds a scaled input view into an output view;
    a batch's trajectory axis rides along as the last axis.

    ``scratch`` is the state's three chunk rows (see statecore), or None for
    a register of at most one chunk.  Such a register, and a signed
    permutation, which needs no product and reads each input once, is
    applied whole, in place.  A larger register is walked in chunks, every
    term applied to one chunk before the next, with products written into
    the third row; where the lowest operand leaves contiguous runs of 2 to
    ``COPY_MIN_RUN`` amplitudes, each chunk is copied into the first row,
    operand axes first, and built in the second.  The table's write plan
    writes every amplitude of ``dst`` once before adding to it, so ``dst``
    and the second row may hold anything beforehand.
    """
    shape, order, _ = _layout(qubits)
    if src.ndim > 1:
        shape, order = shape + src.shape[1:], order + (len(shape),)
    s, d = src.reshape(shape).transpose(order), dst.reshape(shape).transpose(order)
    if scratch is None or src.size <= scratch.shape[1] or table.signed:
        _add_terms(s, d, table)
        return
    copy_in, out, product = scratch
    # a chunk: fixed indices on the free axes outside ``axis``, the first
    # axis one of whose indices fits in a chunk, and ``step`` indices of it
    k, per = len(qubits), src.size
    for axis in range(k, s.ndim):
        per //= s.shape[axis]
        if per <= out.size:
            break
    step = out.size // per
    run = (src.size // src.shape[0]) << min(qubits)  # contiguous amplitudes
    copy = 1 < run < COPY_MIN_RUN
    for index in itertools.product(*map(range, s.shape[k:axis])):
        for start in range(0, s.shape[axis], step):
            key = (np.s_[:],) * k + index + (np.s_[start:start + step],)
            if not copy:
                _add_terms(s[key], d[key], table, product)
                continue
            chunk = s[key]
            a, o = (row[:chunk.size].reshape(chunk.shape) for row in (copy_in, out))
            np.copyto(a, chunk)
            _add_terms(a, o, table, product)
            d[key] = o


def _add_terms(s, d, table: _Table, product: np.ndarray | None = None) -> None:
    """Follow the table's write plan: each view's input, times its term's
    coefficient, written into its output view as ``0.0 + product`` where it
    writes, else added to it, in plan order.  That gives the bytes of adding
    every term onto +0, whatever ``d`` held.  A product is written into
    ``product`` when given, else into a new array.  A coefficient of -1
    subtracts instead, which gives the same bytes: x - y is x + (-y), and
    -y differs from -1 * y only in the sign of a zero, which adding to +0
    or to a sum onto +0 (never -0.0) cannot show."""
    for out_key, in_key, term, writes in table.views:
        view, coef, out = s[in_key], table.coefs[term], d[out_key]
        if coef == -1:
            np.subtract(0.0 if writes else out, view, out=out)
            continue
        if coef != 1:
            view = (coef * view if product is None else
                    np.multiply(coef, view, out=product[:view.size].reshape(view.shape)))
        np.add(0.0 if writes else out, view, out=out)


def _scatter(amps, qubits: tuple[int, ...], table: _Table, nonzero: np.ndarray) -> None:
    """Sparse kernel, in place: the given rows are gathered and cleared, then
    each term, in order, adds its share of the inputs it selects onto their
    +0 targets (distinct within a term), as the strided kernel does; the
    index arrays select whole rows, so a batch moves every trajectory."""
    spread = _layout(qubits)[2]
    inputs = amps[nonzero]
    amps[nonzero] = 0
    for care, col, flip, coef in zip(*spread[[table.cares, table.cols, table.flips]], table.coefs):
        picked = (nonzero & care) == col
        amps[nonzero[picked] ^ flip] += inputs[picked] if coef == 1 else coef * inputs[picked]


def _scattered(amps, qubits: tuple[int, ...], table: _Table, nonzero: np.ndarray) -> np.ndarray:
    """The nonzero rows of ``amps`` after :func:`_scatter` moved the rows
    ``nonzero`` through the table's terms: every term writes only inputs
    moved by its flip, and every other row is +0, so these are the nonzero
    rows among the inputs moved by each distinct flip.  Repeats go by a
    sort, not by ``np.unique``, whose hash path raised the perfbench
    ``align`` peak RSS from 49.0 to 50.4 MiB and its calibration scale from
    1.24 to 1.68 (medians of 6 runs each, 2-core VM)."""
    flips = set(_layout(qubits)[2][table.flips].tolist())
    if len(flips) == 1:
        rows = nonzero ^ flips.pop()
    else:  # a row may be reached by several flips
        rows = np.sort(np.concatenate([nonzero ^ flip for flip in flips]))
        rows = rows[np.concatenate(([True], rows[1:] != rows[:-1]))]
    return rows[_occupied(amps[rows])]


def _occupied(amps) -> np.ndarray:
    """Per row of an amplitude array, whether it is nonzero in any column."""
    occupied = amps != 0
    return occupied if amps.ndim == 1 else occupied.any(axis=1)


def _move(amps, qubits: tuple[int, ...], table: _Table, nonzero: np.ndarray) -> np.ndarray:
    """Sparse kernel of a signed permutation, in place: the given rows are
    gathered and cleared, each picked by one term, by its bits, flipped or
    negated as that term says, and added onto its +0 target in one indexed
    add; the index arrays select whole rows, so a batch moves every
    trajectory.  A negation is exact, and adding an input to the +0 it lands
    on changes only a -0.0 part, to +0, as the term scatter does.  Returns
    the rows written, each input's target: distinct, and nonzero wherever
    its input is."""
    terms = _layout(qubits)[2][[table.cares, table.cols, table.flips]].tolist()
    moved, rows = amps[nonzero], nonzero
    for care, col, flip, coef in zip(*terms, table.coefs):
        if flip or coef < 0:
            picked = (nonzero & care) == col
            if flip:  # into a copy, made once, as later terms pick by the inputs' rows
                rows = nonzero.copy() if rows is nonzero else rows
                rows[picked] ^= flip
            if coef < 0:
                moved[picked] = -moved[picked]
    amps[nonzero] = 0
    amps[rows] += moved
    return rows


def apply_gate(
    state: StateVector,
    g: GateInstance | _Block,
    *,
    zero_skip: bool = True,
    columns: np.ndarray | None = None,
) -> StateVector:
    """Apply one unitary gate or block of fused gates through its table and
    the kernel :func:`_scatter_rows` picks.  A sparse pass updates the live
    buffer in place; a strided pass writes the dead one and makes it live.

    MEASURE and PREP_Z are not gate applications and must go through
    :func:`measure` and :func:`prep_z`.  ``columns`` limits the gate to
    those trajectories of a batch, each named once (a plain state is the
    single trajectory 0); the others keep their amplitudes, and the pass
    runs on a copy of those columns.  ``zero_skip=False`` is the no-skip
    reference: every basis state scattered.

    A state that carries its support (``state.support``, set only by a pass
    that owns the state) is not scanned: its support is what the scan
    would return, and the kernel is picked from it alike.  After a sparse
    pass over the whole state the support is the rows the pass wrote:
    :func:`_move`'s targets, each nonzero as its input is, or the nonzero
    rows among the term scatter's targets (:func:`_scattered`).  A strided
    pass, or one over only some of a batch's trajectories, drops it, and a
    state that came in without one leaves without one.
    """
    table = _checked_table(g, state.n)
    whole = columns is None or _names_every(columns, state.batch or 1)
    if not whole and not len(columns):  # no trajectory
        return state
    src = state.live if whole else state.live[:, columns]
    carried = state.support if whole else None
    state.support = None  # until a sparse pass over a carried support sets it
    rows = _scatter_rows(state, src, zero_skip, carried)  # None: the strided kernel
    if rows is None:  # the strided kernel writes every output once
        dst = state.dead if whole else np.empty_like(src)
        _strided(src, dst, g.qubits, table, state.scratch)
        if whole:
            state.toggle_after_gate()  # dst is now the live buffer
        src = dst
    elif table.signed:  # a signed permutation moves through its terms
        moved = _move(src, g.qubits, table, rows)
        if carried is not None:
            state.support = moved
    else:
        _scatter(src, g.qubits, table, rows)
        if carried is not None:
            state.support = _scattered(src, g.qubits, table, rows)
    if not whole:
        state.live[:, columns] = src
    return state


def _names_every(columns, width: int) -> bool:
    """Whether ``columns`` names all ``width`` trajectories; IndexError unless
    integer trajectory numbers, each once (a boolean mask is not one)."""
    array = np.asarray(columns)
    named = array.tolist()
    if (array.ndim != 1 or named and array.dtype.kind not in "iu" or len(set(named)) < len(named)
            or named and not 0 <= min(named) <= max(named) < width):
        raise IndexError(f"columns {named} must name distinct trajectories of {width}")
    return len(named) == width


def _checked_table(g: GateInstance | _Block, n: int) -> _Table:
    """A gate's or block's table, once its operands are checked to fit ``n``
    qubits and it is checked to be a gate application."""
    if any(q >= n for q in g.qubits):
        raise IndexError(f"operands {g.qubits} out of range for {n} qubits")
    if isinstance(g, _Block):
        return g.table
    if g.kind.is_unitary:
        return _gate_table(g.kind, g.angle)
    raise ValueError(f"{g.kind.mnemonic} is not a gate application; use {g.kind.mnemonic}()")


def _scatter_rows(state: StateVector, src, zero_skip: bool, nonzero=None) -> np.ndarray | None:
    """Pick the kernel for the next pass over ``src``: the rows the scatter
    must move, or None for the strided kernel.  ``nonzero``, a support the
    state carries, stands in for the scan; either updates ``state.dense``."""
    if not zero_skip:  # the reference: every basis state through the scatter
        return np.arange(state.dim)
    if nonzero is None:
        if state.dense or state.n < SCAN_MIN_QUBITS:
            return None
        nonzero = _scan(src)
    state.dense = nonzero.size > SCATTER_MAX_FRACTION * state.dim
    return None if state.dense else nonzero


def _scan(src) -> np.ndarray:
    """The zero-skip scan: a full read of ``src`` for its nonzero rows."""
    return _occupied(src).nonzero()[0]


def _carry(state: StateVector) -> None:
    """Make ``state``, which the calling pass owns, carry its support from
    here on (see :func:`apply_gate`): one scan, where the next gate would
    scan, marking a dense state.  The pass clears it before it hands the state back."""
    state.support = _scatter_rows(state, state.live, True)


class _Block(NamedTuple):
    """Gates fused into one operation on the subspace of their qubits: a
    product of one-qubit gates on one qubit, or a signed permutation."""

    gates: tuple[GateInstance, ...]  # in the order they act
    qubits: tuple[int, ...]  # ascending; qubits[j] is subspace bit j
    table: _Table  # the fused matrix's terms


#: Fused blocks kept for reuse, the least recently used dropped first.  The
#: perfbench pools compose 164, 167 and 168 distinct blocks in ``align``
#: (seeds 1-3; two seed-1 rounds: 164 misses, 6,676 hits) and 176 in
#: ``run_dense``; with 4096 kept, the module's caches then held 1.28 MiB.
FUSED_BLOCKS_KEPT = 256


@functools.lru_cache(maxsize=FUSED_BLOCKS_KEPT)
def _block(gates: tuple[GateInstance, ...]) -> _Block:
    """Compose signed permutation gates, in order, on the subspace of their
    qubits: each subspace index, tagged with itself plus one, moves through
    every gate's terms, one :func:`_move` call per gate, as amplitudes do,
    and lands on its destination with its sign."""
    qubits = tuple(sorted({q for g in gates for q in g.qubits}))
    index = np.arange(1 << len(qubits))
    tags, rows = index + 1.0, index
    for g in gates:
        rows = _move(tags, tuple(map(qubits.index, g.qubits)), _gate_table(g.kind, g.angle), rows)
    m = np.zeros((index.size, index.size))
    m[index, abs(tags).astype(int) - 1] = np.sign(tags)
    return _Block(gates, qubits, _table(m))


def _product(gates: list[GateInstance]) -> GateInstance | _Block:
    """One-qubit gates on one qubit, in order: a lone gate stays itself,
    more become one block of their 2x2 product."""
    if len(gates) == 1:
        return gates[0]
    m = _matrix(gates[0].kind, gates[0].angle)
    for g in gates[1:]:
        m = _matrix(g.kind, g.angle) @ m
    return _Block(tuple(gates), gates[0].qubits, _table(m))


def _fused(instructions: Iterable[GateInstance]):
    """The instructions with gates fused into blocks, in an order that keeps
    each qubit's own order.

    One-qubit gates that are not signed permutations are held per qubit and
    let past gates on other qubits; they go out as one product when an
    instruction touches their qubit, and at the end.  Each run of two or
    more signed permutation gates on at most ``FUSE_MAX_QUBITS`` qubits
    becomes one block.  A released gate or product goes out before the open
    run unless that run touches its qubit, in which case the run closes
    first.
    """
    held: dict[int, list[GateInstance]] = {}
    run: list[GateInstance] = []
    span: set[int] = set()

    def close():
        nonlocal run, span
        closed = run[0] if len(run) == 1 else _block(tuple(run))
        run, span = [], set()
        return closed

    def release(qubits):
        for q in qubits:
            if q in held:
                if q in span:
                    yield close()
                yield _product(held.pop(q))

    for g in instructions:
        if g.kind.is_unitary and g.kind not in _SIGNED:  # Y, H, RX, RY, RZ
            held.setdefault(g.qubits[0], []).append(g)
            continue
        yield from release(g.qubits)
        permutes = g.kind in _SIGNED
        if run and not (permutes and len(span.union(g.qubits)) <= FUSE_MAX_QUBITS):
            yield close()
        if permutes:
            run.append(g)
            span.update(g.qubits)
        else:
            yield g
    yield from release(list(held))
    if run:
        yield close()


def measure(
    state: StateVector, q: int, rng: np.random.Generator
) -> tuple[int | np.ndarray, StateVector]:
    """Projective measurement of one qubit with collapse and renormalization.

    A batch draws and collapses each trajectory on its own and returns an
    array of outcomes, one per trajectory.
    """
    return _collapse(state, GateInstance.prevalidated(GateKind.MEASURE, (q,)),
                     rng.random(state.batch)), state


def prep_z(state: StateVector, q: int, rng: np.random.Generator) -> StateVector:
    """Reset a qubit to |0> by measuring and flipping each trajectory whose
    outcome is 1."""
    _collapse(state, GateInstance.prevalidated(GateKind.PREP_Z, (q,)), rng.random(state.batch))
    return state


def _collapse(state: StateVector, g: GateInstance, uniforms,
              in_order: bool = False) -> int | np.ndarray:
    """The one rule for a ``measure`` or ``prep_z`` instruction ``g``, with
    the given uniform draws, one per trajectory: outcome 1 where a draw is at
    least the probability of 0.  A ``prep_z`` then moves the qubit's 1 half
    of each trajectory that read 1 onto its cleared 0 half, which gives an
    X's bytes: a kernel adds each amplitude onto a +0, and a live buffer
    holds no -0.0.  Returns the outcomes.  A state that carried its support
    (see :func:`apply_gate`) is rescanned, so it leaves carrying it.

    A plain state sums the probability of 1 as numpy sums a whole array;
    ``in_order`` sums it in index order instead, as a batch's reduction
    over each column does, so a trajectory of a wider pass run on its own
    gets that pass's bytes.
    """
    q = g.qubits[0]
    if not 0 <= q < state.n:
        raise IndexError(f"qubit {q} out of range for {state.n} qubits")
    live = state.live
    view = live.reshape((-1, 2, 1 << q) + live.shape[1:])
    ones = probabilities(view[:, 1])
    p1 = ones.ravel().cumsum()[-1] if in_order else ones.sum(axis=(0, 1))
    p0 = 1.0 - p1
    total = state.norm_squared()
    if np.any(total < 0.5):  # cannot happen while the normalization invariant holds
        raise RuntimeError(f"degenerate state: norm^2 = {total!r}")
    ones_seen = uniforms >= p0
    carried, state.support = state.support is not None, None  # the collapse may clear rows
    np.copyto(view[:, 0], 0, where=ones_seen)
    np.copyto(view[:, 1], 0, where=~ones_seen)
    live /= np.sqrt(np.where(ones_seen, p1, p0))
    if g.kind is GateKind.PREP_Z:  # X's bytes: each amplitude lands on a +0
        np.copyto(view[:, 0], view[:, 1], where=ones_seen)
        np.copyto(view[:, 1], 0, where=ones_seen)
    if carried:
        _carry(state)
    return ones_seen.astype(int) if state.batch else int(ones_seen)


def check_shots(shots: int) -> None:
    """Raise ValueError unless 1 <= shots <= 2**63 - 1, the most numpy's multinomial draws."""
    if not 1 <= shots <= 2**63 - 1:
        raise ValueError(f"shots must be in 1..2**63 - 1, got {shots}")


def sample(probs: np.ndarray, shots: int, rng: np.random.Generator) -> dict[str, int]:
    """Draw full-register samples from a ``(2^n,)`` probability array.

    A ``(2^n, B)`` batch's array draws ``shots`` samples from each
    trajectory's column and counts them together.  Keys are bitstrings with
    qubit n-1 leftmost and qubit 0 rightmost.
    """
    check_shots(shots)
    counts = rng.multinomial(shots, (probs / probs.sum(axis=0)).T)
    if probs.ndim > 1:
        counts = counts.sum(axis=0)
    width = probs.shape[0].bit_length() - 1
    return {format(i, f"0{width}b"): int(counts[i]) for i in np.flatnonzero(counts)}


_PAULIS = (GateKind.X, GateKind.Y, GateKind.Z)


def apply_depolarizing(state: StateVector, g: GateInstance, cfg: NoiseConfig,
                       rng: np.random.Generator) -> StateVector:
    """Ideal gate followed by independent depolarizing on each operand qubit.

    Each operand draws which trajectories it hits, then one Pauli per hit
    trajectory, and applies each Pauli to its trajectories in one call.
    """
    apply_gate(state, g)
    if cfg.p <= 0.0:
        return state
    for q in g.qubits:
        hits = np.flatnonzero(rng.random(state.batch) < cfg.p)
        if hits.size:
            picks = rng.integers(3, size=hits.size)
            for i, kind in enumerate(_PAULIS):
                columns = hits[picks == i]
                if columns.size:
                    apply_gate(state, GateInstance(kind, (q,)), columns=columns)
    return state


def run_circuit(
    n: int,
    instructions: Iterable[GateInstance],
    *,
    rng: np.random.Generator | None = None,
    batch: int | None = None,
) -> tuple[StateVector, list[tuple[int, int | np.ndarray]]]:
    """Execute a gate sequence from the ground state without noise, as
    ``batch`` independent trajectories when given.  Noisy runs go through
    ``trajectories.batches``.

    Returns the final state and the measurement transcript as
    (qubit, outcome) pairs in execution order; a batch's outcomes are
    arrays, one per trajectory.
    """
    if rng is None:
        rng = np.random.default_rng()
    if n >= SCAN_MIN_QUBITS:
        # blocks and their tables built before the buffers exist: built
        # during the pass, they kept the heap from shrinking and raised the
        # perfbench run_dense peak RSS by about 2 MiB
        instructions = list(_fused(instructions))
    state = StateVector(n, batch)
    _carry(state)
    transcript: list[tuple[int, int]] = []
    for g in instructions:
        if isinstance(g, _Block) or g.kind.is_unitary:
            apply_gate(state, g)
            continue
        bits = _collapse(state, g, rng.random(state.batch))
        if g.kind is GateKind.MEASURE:
            transcript.append((g.qubits[0], bits))
    state.support = None
    return state, transcript
