"""Grover-based read alignment against a sliced reference.

The circuit works in four stages, one kernel each:

  superpose  H on every index qubit.
  encode     For each reference slice, multi-controlled X gates (controls
             selected by the slice's index pattern) write the slice bits
             into the data register, entangling index with content.
  distance   X on data positions where the read bit is 1, so each branch's
             data register becomes slice XOR read; an exact match is the
             all-zero pattern.
  amplify    Grover rounds: an oracle phase-flips branches whose data
             register is all zero, then inversion about the mean spreads
             amplitude toward them.

Nucleotide inputs are translated to two bits per base and sliced at a
stride of two bits, so every candidate window starts on a base and
positions count bases; binary inputs slice at every bit.

Index values beyond the real slice count are padded with sentinel slices
holding the bitwise complement of the read, so their post-XOR distance is
maximal and they can never be marked.  Multi-controlled gates are lowered
to Toffoli ladders over a small ancilla register that is uncomputed before
it matters.

An instance past the qubit cap raises CapacityError when it is built; only
:func:`align`, which allocates the state, checks memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cqasm import Kernel, Program
from .gates import GateInstance, GateKind, check_shots, run_circuit, support_rows
from .statecore import check_qubits, probabilities

#: 2-bit encoding used when references arrive as nucleotide letters.
NUCLEOTIDE_BITS = {"A": "00", "C": "01", "G": "10", "T": "11"}

DIFFUSION_JOINT = "joint"
DIFFUSION_INDEX = "index"

#: X and Z gates by their number of controls; X with more controls goes
#: through a Toffoli ladder, and Z with more through H conjugation of X.
_CONTROLLED_X = (GateKind.X, GateKind.CNOT, GateKind.TOFFOLI)
_CONTROLLED_Z = (GateKind.Z, GateKind.CPHASE)


def _is_binary(s: str) -> bool:
    return len(s) > 0 and set(s) <= {"0", "1"}


def nucleotides_to_bits(seq: str) -> str:
    """Translate an ACGT string into its 2-bit-per-base binary form."""
    try:
        return "".join(NUCLEOTIDE_BITS[ch] for ch in seq.upper())
    except KeyError as exc:
        raise ValueError(f"not a nucleotide sequence: {seq!r}") from exc


def sequence_bits(reference: str, read: str) -> tuple[str, str, int]:
    """The binary forms of a reference and a read given in one alphabet,
    both 01 or both ACGT, and the bits per symbol: 1 or 2."""
    binary = _is_binary(reference), _is_binary(read)
    if all(binary):
        return reference, read, 1
    if any(binary):
        raise ValueError(
            f"reference and read must be both 01 or both ACGT: {reference!r}, {read!r}"
        )
    return nucleotides_to_bits(reference), nucleotides_to_bits(read), 2


def _padded_index_count(positions: int) -> int:
    """Round the candidate count up to a power of two, minimum 4.

    With exactly two candidates the inversion-about-mean step has zero
    mean and cannot separate them, so two-candidate instances pad to four.
    """
    if positions <= 1:
        return 1
    count = 4
    while count < positions:
        count *= 2
    return count


@dataclass(frozen=True)
class AlignmentInstance:
    """One read-alignment problem over binary strings whose symbols are
    ``stride`` bits wide: candidate windows start every ``stride`` bits,
    and positions count symbols."""

    reference: str
    read: str
    iterations: int = 1
    diffusion: str = DIFFUSION_JOINT
    stride: int = 1

    def __post_init__(self):
        if not _is_binary(self.reference):
            raise ValueError(f"reference must be a non-empty 01-string: {self.reference!r}")
        if not _is_binary(self.read):
            raise ValueError(f"read must be a non-empty 01-string: {self.read!r}")
        if len(self.read) > len(self.reference):
            raise ValueError("read longer than reference")
        if self.stride < 1 or len(self.reference) % self.stride or len(self.read) % self.stride:
            raise ValueError(
                f"reference and read lengths must be multiples of the stride {self.stride}"
            )
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        if self.diffusion not in (DIFFUSION_JOINT, DIFFUSION_INDEX):
            raise ValueError(f"unknown diffusion register {self.diffusion!r}")
        check_qubits(self.total_qubits)  # the range rule alone: --emit-qasm simulates nothing

    @property
    def positions(self) -> int:
        return (len(self.reference) - len(self.read)) // self.stride + 1

    @property
    def index_count(self) -> int:
        return _padded_index_count(self.positions)

    @property
    def index_qubits(self) -> int:
        return (self.index_count - 1).bit_length()

    @property
    def data_qubits(self) -> int:
        return len(self.read)

    @property
    def ancilla_qubits(self) -> int:
        k, r = self.index_qubits, self.data_qubits
        m = k + r if self.diffusion == DIFFUSION_JOINT else k
        # ladder needs (controls - 2) ancillas; controls come from the
        # encode stage (k), the oracle (r - 1) and the diffusion (m - 1)
        return max(1, k - 2, r - 3, m - 3)

    @property
    def total_qubits(self) -> int:
        return self.index_qubits + self.data_qubits + self.ancilla_qubits


def encode_reference(
    reference: str, read_length: int, stride: int = 1
) -> list[tuple[int, str | None]]:
    """Slice the reference into read-sized windows, one per start position,
    the windows starting ``stride`` bits apart.

    Returns (index, bits) pairs padded to the instance's index count;
    sentinel entries carry None and are filled in at circuit-build time.
    """
    if read_length < 1:
        raise ValueError("read length must be >= 1")
    if not _is_binary(reference):
        raise ValueError(f"reference must be a non-empty 01-string: {reference!r}")
    if read_length > len(reference):
        raise ValueError("read longer than reference")
    positions = (len(reference) - read_length) // stride + 1
    slices: list[tuple[int, str | None]] = [
        (i, reference[i * stride : i * stride + read_length]) for i in range(positions)
    ]
    for i in range(positions, _padded_index_count(positions)):
        slices.append((i, None))
    return slices


class _CircuitWriter:
    """Accumulates instructions with Toffoli-ladder lowering helpers.  Its
    gates skip ``GateInstance``'s checks: their operands are distinct
    register qubits by construction, and ``Program`` checks their range."""

    def __init__(self, inst: AlignmentInstance):
        self.inst = inst
        k, r = inst.index_qubits, inst.data_qubits
        self.index = list(range(k))
        self.data = list(range(k, k + r))
        self.ancilla = list(range(k + r, k + r + inst.ancilla_qubits))
        self.ops: list[GateInstance] = []

    def add(self, kind: GateKind, *qubits: int) -> None:
        self.ops.append(GateInstance.prevalidated(kind, qubits))

    def layer(self, kind: GateKind, qubits: list[int]) -> None:
        """One ``kind`` gate on each of the given qubits."""
        for q in qubits:
            self.add(kind, q)

    def take(self) -> tuple[GateInstance, ...]:
        ops, self.ops = tuple(self.ops), []
        return ops

    def _and_ladder(self, qubits: list[int]) -> tuple[int, list[GateInstance]]:
        """Chain the AND of >= 2 qubits into ancillas.

        Returns the ancilla holding the result and the applied Toffolis;
        replaying those reversed uncomputes the chain exactly."""
        applied, top = [], qubits[0]
        for q, nxt in zip(qubits[1:], self.ancilla):
            applied.append(GateInstance.prevalidated(GateKind.TOFFOLI, (top, q, nxt)))
            top = nxt
        self.ops += applied
        return top, applied

    def multi_controlled_x(self, controls: list[int], targets: list[int]) -> None:
        """X on every target conditioned on all controls being 1."""
        if not targets:
            return
        if len(controls) < len(_CONTROLLED_X):
            for t in targets:
                self.add(_CONTROLLED_X[len(controls)], *controls, t)
        else:
            top, applied = self._and_ladder(controls[:-1])
            for t in targets:
                self.add(GateKind.TOFFOLI, top, controls[-1], t)
            self.ops += reversed(applied)

    def multi_controlled_z(self, qubits: list[int]) -> None:
        """Phase flip of the all-ones pattern over the given qubits."""
        if len(qubits) <= len(_CONTROLLED_Z):
            self.add(_CONTROLLED_Z[len(qubits) - 1], *qubits)
        else:
            self.add(GateKind.H, qubits[-1])
            self.multi_controlled_x(qubits[:-1], qubits[-1:])
            self.add(GateKind.H, qubits[-1])

    def global_phase_flip(self) -> None:
        """Multiply the whole state by -1: (XZ)^2 = -I on any one qubit."""
        anchor = self.ancilla[0]
        for kind in (GateKind.Z, GateKind.X, GateKind.Z, GateKind.X):
            self.add(kind, anchor)


def build_alignment_circuit(inst: AlignmentInstance) -> Program:
    """Generate the four-stage alignment circuit as a Program."""
    w = _CircuitWriter(inst)
    read = inst.read

    w.layer(GateKind.H, w.index)
    superpose = Kernel("superpose", w.take())

    sentinel = "".join("1" if ch == "0" else "0" for ch in read)
    for position, bits in encode_reference(inst.reference, len(read), inst.stride):
        if bits is None:
            bits = sentinel
        conjugate = [w.index[b] for b in range(inst.index_qubits) if not (position >> b) & 1]
        targets = [w.data[j] for j, ch in enumerate(bits) if ch == "1"]
        w.layer(GateKind.X, conjugate)
        w.multi_controlled_x(w.index, targets)
        w.layer(GateKind.X, conjugate)
    encode = Kernel("encode", w.take())

    w.layer(GateKind.X, [w.data[j] for j, ch in enumerate(read) if ch == "1"])
    distance = Kernel("distance", w.take())

    diffusion_regs = w.index + w.data if inst.diffusion == DIFFUSION_JOINT else list(w.index)
    for _ in range(inst.iterations):
        # oracle: -1 on branches whose data register is all zero
        w.layer(GateKind.X, w.data)
        w.multi_controlled_z(w.data)
        w.layer(GateKind.X, w.data)
        # inversion about the mean over the diffusion register; the
        # trailing global flip makes the operator exactly 2|s><s| - I
        if diffusion_regs:
            w.layer(GateKind.H, diffusion_regs)
            w.layer(GateKind.X, diffusion_regs)
            w.multi_controlled_z(diffusion_regs)
            w.layer(GateKind.X, diffusion_regs)
            w.layer(GateKind.H, diffusion_regs)
            w.global_phase_flip()
    amplify = Kernel("amplify", w.take())
    return Program("1.0", inst.total_qubits, (superpose, encode, distance, amplify))


@dataclass(frozen=True)
class AlignmentResult:
    """Ranked candidate positions plus sampled index readouts: a histogram
    of the real positions, and how many readouts fell on padded indices."""

    ranking: tuple[tuple[int, float], ...]
    histogram: dict[int, int]
    padding_readouts: int


def index_marginals(inst: AlignmentInstance, state_probs: np.ndarray,
                    rows: np.ndarray | None = None) -> np.ndarray:
    """Sum probabilities over everything but the index register.  Given
    ``rows``, ascending, ``state_probs`` are theirs alone, the others 0: numpy
    adds two or more index values' rows in row order, so the bytes agree."""
    size = 1 << inst.index_qubits
    if rows is None:
        return state_probs.reshape(-1, size).sum(axis=0)
    return np.bincount(rows & (size - 1), weights=state_probs, minlength=size)


def align(inst: AlignmentInstance, shots: int, rng: np.random.Generator) -> AlignmentResult:
    """Run the alignment circuit and rank reference positions.

    Ranking uses the exact index-register marginals of the final state,
    descending, ties broken by ascending position; sentinel indices are
    dropped.  ``shots`` index readouts are drawn over every index value;
    the histogram counts those of real positions, and the rest are
    ``padding_readouts``.
    """
    check_shots(shots)
    program = build_alignment_circuit(inst)
    state, _ = run_circuit(program.n, program.instructions, rng=rng)
    # numpy sums a single index value's rows pairwise, so it reads them all
    rows = support_rows(state) if inst.index_qubits else None
    live = state.live if rows is None else state.live[rows]
    marginals = index_marginals(inst, probabilities(live), rows)
    ranking = tuple(sorted(((pos, float(marginals[pos])) for pos in range(inst.positions)),
                           key=lambda item: (-item[1], item[0])))
    counts = rng.multinomial(shots, marginals / marginals.sum())
    real = counts[: inst.positions]
    histogram = {int(i): int(c) for i, c in enumerate(real) if c}
    return AlignmentResult(ranking, histogram, shots - int(real.sum()))
