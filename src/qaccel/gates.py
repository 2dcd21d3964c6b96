"""Gates as a table of operand-subspace matrices, applied by two kernels.

Each unitary kind has a matrix on its operand qubits (a 2x2; a 4x4 or 8x8
permutation or diagonal), kept as nonzero (row, column, coefficient) terms
built once per (kind, angle).  A gate writes into the dead buffer (see
statecore).  The strided kernel adds ``coefficient * input[column]`` into
``output[row]`` over strided views, one axis per operand; the scatter
takes only the nonzero inputs and adds each term's share by index arrays.

The strided kernel walks a register of more than
``statecore.CHUNK_AMPLITUDES`` amplitudes in chunks, slices of its
outermost free axes, and applies every term to one chunk before the next,
writing each product into scratch the state owns, so no pass over such a
register allocates a temporary of its size.  Where the lowest operand leaves
contiguous runs of 2 to ``COPY_MIN_RUN`` amplitudes, each chunk is copied
into contiguous scratch, operand axes outermost, and its output is built in
zeroed scratch and copied back.  A register of at most one chunk is
applied in place, and so is a signed permutation: its coefficients are
+-1, so it needs no product (-1 subtracts) and reads each input once.

Without zero-skipping every basis state goes through a sparse pass.  With it,
registers of at least ``SCAN_MIN_QUBITS`` qubits are scanned for nonzero
amplitudes and scattered while at most ``SCATTER_MAX_FRACTION`` of them are
nonzero; other gates are strided, and a larger support marks the state
dense, which skips the scan until ``reset_ground``.  Both constants are
measured crossovers of the kernels.  A pass carries the support of every
state it makes in ``state.support``: a pass of :func:`run_circuit` scans
its state once at the start and once after each ``measure`` or ``prep_z``,
a noisy pass scans the noiseless state it carries once, and its groups'
copies of it (``StateVector.copy``) take that support along.  A sparse
pass returns the rows it wrote, which are the rows the next scan would
find, so every kernel choice, ``dense`` flag and byte stays what scanning
gives.  A state that no pass owns, such as one that ``qaccel bench``
times, is scanned before every gate.

Both kernels give bit-identical output: every output amplitude starts at +0
and gets its terms in the same order, whether in place or in a chunk of
scratch, so a skipped zero input only drops the addition of a signed zero.
After a scatter the old input buffer is cleared only at the rows the scan
listed (all rows, as a slice, for the no-skip reference); its other rows
hold +0 already, since no kernel output, and so no live buffer, is ever
-0.0 (see statecore).  The strided kernel's input
is cleared whole.  Complex coefficients are split into a real and an
imaginary term, each product one rounding, because numpy's complex-by-complex
multiply rounds differently with array layout and length.

A table whose matrix is a signed permutation (X, Z, CNOT, CZ, SWAP,
TOFFOLI, or a fused block of them) also carries a lookup: each subspace
index's flipped operand bits and whether it is negated.  In a sparse pass a
signed permutation scatters through its table's lookup, in one indexed add,
whether it is a lone gate, a block or a chain of them; every other table
scatters term by term.  Each amplitude then lands once, exactly negated or
not, on a +0 in its new place, so both scatters give the same bytes.

Passes of :func:`run_circuit`, all noiseless, on registers of at least
``SCAN_MIN_QUBITS`` qubits fuse gates before either kernel runs.  One-qubit
gates that are not signed permutations (H, RX, RY, RZ, Y) are held per
qubit and move past gates on other qubits; when an instruction touches
their qubit, or the pass ends, they go out as one 2x2 product, or as
themselves when alone.  Each run of signed permutation gates on at most
``FUSE_MAX_QUBITS`` qubits becomes one block: a signed permutation of its
operand subspace, composed through its gates' lookups and cached by its
gate sequence.  A held product goes out before the open run unless that run
touches its qubit, in which case the run closes first.  Each stretch of
consecutive signed permutation items (blocks, and lone X, Z, CNOT, CZ, SWAP
and TOFFOLI gates) goes through :func:`apply_gate` as one chain, every
other product or gate alone, each part with its own table.  A signed
permutation keeps the support, so a chain is scanned once; on a sparse
state its parts move the scanned rows through their lookups in turn and
land them in one indexed add, and on a dense state the strided kernel
applies them one at a time.  So a chain gives the bytes of its items, and a
block those of its gates, applied one at a time.  A product rounds
differently from its gates, and so do two non-permutation gates on
different qubits that fusion has swapped: fused passes differ from program
order in the last bits (at most 1.2e-16 per amplitude over random
13-16-qubit circuits).  Zero-skip and no-skip passes fuse alike and stay
byte-identical.  Noisy passes stay unfused.

A batch of trajectories (see statecore) adds a trailing axis that both
kernels carry along: the strided views gain it as their last axis, and the
scatter's index arrays select whole rows, scanned as nonzero when any
trajectory is.  So one kernel call applies a gate to every trajectory, each
column getting exactly the bytes a single-trajectory run would.  Noise,
measurement and ``prep_z`` draw and act per trajectory.

One rule measures or resets a qubit, :func:`_collapse`, which flips each
trajectory a ``prep_z`` read as 1 with the pass's ``zero_skip``: every
pass calls it, and :func:`measure` and :func:`prep_z` are draws around it.

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
from typing import Iterable, Mapping, NamedTuple, Sequence

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
#: block.  A stretch of blocks and lone signed gates goes through one scan
#: and, on a sparse state, one lookup pass as a chain (see apply_gate), so
#: the cap now sizes only the blocks the strided kernel applies, one pass
#: each, on a dense state.  The figures below were measured before chains,
#: when a run stopped at the cap and each block cost a scan of its own, and
#: before Z and CZ joined the blocks.  Over the 32 perfbench ``align``
#: instances of seed 1 (17 qubits; median in-process CPU time, 2-core VM, 3
#: to 6 rounds) an op took 237-279 ms unfused, 147-163 ms at a cap of 4,
#: 91-103 at 5, 73-84 at 6, 63-74 at 7 and 61-71 at 8; one instance's 514
#: gates became 306, 184, 143, 110 and 110 applications.  The cap is 6
#: because the ``align`` benchmark's peak RSS stays flat there (47.9-48.0 MiB
#: against 47.2-47.6 unfused), while a cap of 7 raised it to 51.0-51.2 MiB.
#: That rise is glibc malloc keeping freed heap pages, not live data: at a
#: cap of 8 the benchmark read 51.1 MiB, and 48.3-48.7 MiB with either
#: MALLOC_MMAP_THRESHOLD_=131072 or MALLOC_TRIM_THRESHOLD_=0 set on its
#: process, which make glibc map large blocks on their own or trim its heap.
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
    views: tuple[tuple[tuple, tuple, complex], ...]  # (output key, input key, coefficient)
    cares: np.ndarray  # per term: the operand bits it fixes,
    cols: np.ndarray  # their input values,
    flips: np.ndarray  # and the operand bits it flips
    # a signed permutation's lookup: per subspace index, the operand bits
    # moving it flips and where it is negated (None: nowhere); else None
    moves: tuple[np.ndarray, np.ndarray | None] | None


def _table(m: np.ndarray) -> _Table:
    """An operand-subspace matrix's nonzero entries as terms, each complex
    entry split into a real and an imaginary term so each product is one
    rounding, and terms that act alike on an operand bit merged so that it
    stays a free axis; a signed permutation (real, one +-1 per column) also
    gets its lookup."""
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

    views = tuple((key(c, r), key(c, v, r ^ v), coef) for c, r, v, coef in terms)
    cares, rows, cols = (np.array([term[i] for term in terms]) for i in range(3))
    moves, nonzero = None, m != 0
    if not m.imag.any() and (nonzero.sum(axis=0) == 1).all() and (abs(m[nonzero]) == 1).all():
        negate = m.real.sum(axis=0) < 0
        moves = (np.arange(m.shape[1]) ^ nonzero.argmax(axis=0), negate if negate.any() else None)
    return _Table(views, cares, cols, rows ^ cols, moves)


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
    the probe's with each coefficient evaluated at its own angle: 3.4-3.9
    us, against 36-45 us to build it (timeit, 2-core VM).
    """
    half = (math.cos(angle / 2.0), math.sin(angle / 2.0)) if kind.takes_angle else (0.0,)
    if not all(half):
        return _table(_matrix(kind, angle))
    probe, recipe = _probe(kind)
    views = tuple((out_key, in_key, complex(0.0, sign * half[i]) if imag else sign * half[i])
                  for (out_key, in_key, _), (i, sign, imag) in zip(probe.views, recipe))
    return _Table(views, probe.cares, probe.cols, probe.flips, None)


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
    for *_, coef in table.views:
        x = coef.imag if isinstance(coef, complex) else coef
        recipe.append((_PROBE.index(abs(x)), 1.0 if x > 0 else -1.0, isinstance(coef, complex)))
    return table, tuple(recipe)


#: The kinds whose matrix is a signed permutation: X, Z, CNOT, CZ, SWAP and
#: TOFFOLI.
_SIGNED = frozenset(kind for kind in _MATRICES
                    if not kind.takes_angle and _gate_table(kind, None).moves is not None)


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
    operand axes first, and built in the zeroed second row.
    """
    shape, order, _ = _layout(qubits)
    if src.ndim > 1:
        shape, order = shape + src.shape[1:], order + (len(shape),)
    s, d = src.reshape(shape).transpose(order), dst.reshape(shape).transpose(order)
    if scratch is None or src.size <= scratch.shape[1] or table.moves is not None:
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
            o.fill(0)
            _add_terms(a, o, table, product)
            d[key] = o


def _add_terms(s, d, table: _Table, product: np.ndarray | None = None) -> None:
    """Add each term's input view, times its coefficient, into its output
    view, in table order.  A product is written into ``product`` when given,
    else into a new array.  A coefficient of -1 subtracts instead, which
    gives the same bytes: x - y is x + (-y), and -y differs from -1 * y only
    in the sign of a zero, which adding to an output (never -0.0) cannot
    show."""
    for out_key, in_key, coef in table.views:
        view = s[in_key]
        if coef == -1:
            d[out_key] -= view
            continue
        if coef != 1:
            view = (coef * view if product is None else
                    np.multiply(coef, view, out=product[:view.size].reshape(view.shape)))
        d[out_key] += view


def _scatter(src, dst, qubits: tuple[int, ...], table: _Table, nonzero: np.ndarray) -> None:
    """Sparse kernel: each term, in order, moves the given inputs it selects
    to their targets (distinct within a term), as the strided kernel does;
    the index arrays select whole rows, so a batch moves every trajectory."""
    spread = _layout(qubits)[2]
    coefs = (coef for *_, coef in table.views)
    for care, col, flip, coef in zip(*spread[[table.cares, table.cols, table.flips]], coefs):
        sources = nonzero[(nonzero & care) == col]
        dst[sources ^ flip] += src[sources] if coef == 1 else coef * src[sources]


def _scattered(dst, qubits: tuple[int, ...], table: _Table, nonzero: np.ndarray) -> np.ndarray:
    """The nonzero rows of ``dst`` after :func:`_scatter` wrote the table's
    terms from ``nonzero`` into it, all +0 before: every term writes only
    inputs moved by its flip, so these are the nonzero rows among the
    inputs moved by each distinct flip.  Repeats go by a sort, not by
    ``np.unique``, whose hash path raised the perfbench ``align`` peak RSS
    from 49.0 to 50.4 MiB and its calibration scale from 1.24 to 1.68
    (medians of 6 runs each, 2-core VM)."""
    flips = set(_layout(qubits)[2][table.flips].tolist())
    if len(flips) == 1:
        rows = nonzero ^ flips.pop()
    else:  # a row may be reached by several flips
        rows = np.sort(np.concatenate([nonzero ^ flip for flip in flips]))
        rows = rows[np.concatenate(([True], rows[1:] != rows[:-1]))]
    return rows[_occupied(dst[rows])]


def _occupied(amps) -> np.ndarray:
    """Per row of an amplitude array, whether it is nonzero in any column."""
    occupied = amps != 0
    return occupied if amps.ndim == 1 else occupied.any(axis=1)


def _move(src, dst, parts: Sequence[tuple[tuple[int, ...], _Table]],
          nonzero: np.ndarray) -> np.ndarray:
    """Sparse kernel of signed permutations, given as (qubits, table) parts
    applied in order: the given inputs go through each part's lookup in
    turn, negated where it says so, and are added to their last targets in
    one indexed add; the index arrays select whole rows, so a batch moves
    every trajectory.  This gives the bytes of the parts applied one at a
    time: a negation is exact, and adding an input to the +0 it lands on
    changes only a -0.0 part, to +0, whether once or after every part.
    Returns the rows written, each input's last target: distinct, and
    nonzero wherever its input is."""
    moved, rows = src[nonzero], nonzero
    for qubits, table in parts:
        flips, negate = table.moves
        local = _gather(rows, qubits)
        if negate is not None:
            negate = negate[local]
            moved[negate] = -moved[negate]
        rows = rows ^ _layout(qubits)[2][flips][local]
    dst[rows] += moved
    return rows


def apply_gate(
    state: StateVector,
    g: GateInstance | _Block | list[GateInstance | _Block],
    *,
    zero_skip: bool = True,
    columns: np.ndarray | None = None,
) -> StateVector:
    """Apply one unitary gate, a block of fused gates, or a chain (a list
    of signed permutation gates and blocks, applied in order), through
    their tables and the kernel :func:`_scatter_rows` picks; toggles the
    buffer parity once per pass.

    A chain is scanned once: a signed permutation keeps the support, so the
    scan holds for every part, and a sparse chain is one :func:`_move`
    pass.  On a dense state the strided kernel applies its parts one at a
    time.  MEASURE and PREP_Z are not gate applications and must go through
    :func:`measure` and :func:`prep_z`.  ``columns`` limits the gate to
    those trajectories of a batch; the others keep their amplitudes.  A
    plain state is the single trajectory 0.

    A state that carries its support (``state.support``, set only by a pass
    that owns the state) is not scanned: its support is what the scan
    would return, and the kernel is picked from it alike.  After a sparse
    pass over the whole state the support is the rows the pass wrote:
    :func:`_move`'s targets, each nonzero as its input is, or the nonzero
    rows among the term scatter's targets (:func:`_scattered`).  A strided
    pass or a ``columns`` application carries none on, and a state that
    came in without one leaves without one.
    """
    if isinstance(g, list):
        parts = [(part.qubits, _checked_table(part, state.n)) for part in g]
        if any(table.moves is None for _, table in parts):
            raise ValueError("a chain holds signed permutations only")
    else:
        parts = ((g.qubits, _checked_table(g, state.n)),)
    whole = columns is None or len(columns) >= (state.batch or 1)
    src = state.live if whole else state.live[:, columns]
    carried = state.support if whole else None
    state.support = None  # until a sparse pass over a carried support sets it
    rows = _scatter_rows(state, src, zero_skip, carried)  # None: the strided kernel
    # the strided kernel takes a chain a part at a time; a sparse pass
    # moves it whole, in one pass
    for qubits, table in parts if rows is None else parts[:1]:
        dst = state.dead if whole else np.zeros_like(src)
        if rows is None:
            _strided(src, dst, qubits, table, state.scratch)
        elif table.moves is None:
            _scatter(src, dst, qubits, table, rows)
            if carried is not None:
                state.support = _scattered(dst, qubits, table, rows)
        else:  # signed permutations scatter through their lookups
            moved = _move(src, dst, parts, rows)
            if carried is not None:
                state.support = moved
        if whole:
            state.toggle_after_gate(rows)  # dst is now the live buffer
        src = dst
    if not whole:
        state.live[:, columns] = src
    return state


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


def _carry(state: StateVector, zero_skip: bool) -> None:
    """Make ``state``, which the calling pass owns, carry its support from
    here on (see :func:`apply_gate`): one scan, where the next gate would
    scan, marking a dense state.  The pass clears it before it hands the state back."""
    if zero_skip:
        state.support = _scatter_rows(state, state.live, zero_skip)


def _gather(index: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
    """Each index's bits at ``qubits`` as a subspace index (``qubits[j]``
    becomes bit j)."""
    local = np.zeros_like(index)
    for j, q in enumerate(qubits):
        local |= (index >> q & 1) << j
    return local


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
    every gate's lookup in one :func:`_move` pass, as amplitudes do, and
    lands on its destination with its sign."""
    qubits = tuple(sorted({q for g in gates for q in g.qubits}))
    index = np.arange(1 << len(qubits))
    tags = np.zeros(index.size)
    _move(index + 1.0, tags, [(tuple(map(qubits.index, g.qubits)), _gate_table(g.kind, g.angle))
                              for g in gates], index)
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


def _signed(item: GateInstance | _Block) -> bool:
    """Whether a :func:`_fused` item is a signed permutation with a lookup."""
    return item.table.moves is not None if isinstance(item, _Block) else item.kind in _SIGNED


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


def _collapse(state: StateVector, g: GateInstance, uniforms, zero_skip: bool = True,
              in_order: bool = False) -> int | np.ndarray:
    """The one rule for a ``measure`` or ``prep_z`` instruction ``g``, with
    the given uniform draws, one per trajectory: outcome 1 where a draw is at
    least the probability of 0.  A ``prep_z`` then flips each trajectory
    that read 1, through :func:`apply_gate` with ``zero_skip``.  Returns the
    outcomes.

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
    state.support = None  # the collapse may clear rows
    np.copyto(view[:, 0], 0, where=ones_seen)
    np.copyto(view[:, 1], 0, where=~ones_seen)
    live /= np.sqrt(np.where(ones_seen, p1, p0))
    if g.kind is GateKind.PREP_Z and np.any(ones_seen):
        apply_gate(state, GateInstance.prevalidated(GateKind.X, g.qubits), zero_skip=zero_skip,
                   columns=np.flatnonzero(ones_seen))
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
    zero_skip: bool = True,
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
        # perfbench run_dense peak RSS by about 2 MiB.  Each stretch of
        # signed permutation items becomes one chain, scanned once.
        instructions = [item for signed, items in itertools.groupby(_fused(instructions), _signed)
                        for item in ([list(items)] if signed else items)]
    state = StateVector(n, batch)
    _carry(state, zero_skip)
    transcript: list[tuple[int, int]] = []
    for g in instructions:
        if isinstance(g, (list, _Block)) or g.kind.is_unitary:
            apply_gate(state, g, zero_skip=zero_skip)
            continue
        bits = _collapse(state, g, rng.random(state.batch), zero_skip)
        if g.kind is GateKind.MEASURE:
            transcript.append((g.qubits[0], bits))
        _carry(state, zero_skip)
    state.support = None
    return state, transcript
