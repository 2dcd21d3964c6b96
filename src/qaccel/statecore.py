"""Amplitude storage: double-buffered state vectors and the memory-cost model.

Amplitudes are complex numbers stored as (real, imaginary) pairs of doubles.
A state holds two 2^n amplitude buffers; one is live (the input to the next
gate).  A sparse pass updates it in place (see gates); a strided pass
writes every row of the other, the dead buffer, and a parity flag toggles
their roles, so no copy-back is ever required.  No pass reads what the dead
buffer held.  A live buffer never holds -0.0: every kernel output is a sum
onto +0, ``gates._collapse``, the one rule that measures or resets a qubit,
writes +0, and :meth:`StateVector.from_amplitudes` stores -0.0 as +0.0.

A batch of B independent trajectories (noisy shots) keeps the same two
buffers with a trailing trajectory axis, ``(2^n, B)``; a plain state is
``(2^n,)``.  A state of more than ``CHUNK_AMPLITUDES`` amplitudes also holds
the strided kernel's scratch (see gates), three chunks of that size, which
a state shares with its copies, as the states of one noisy pass do.  Only
:func:`probabilities` turns amplitudes of either shape into probabilities.

Admission: only this module knows the qubit cap and the memory rule.  Every
entry point asks :func:`check_qubits` (the range rule, O(1) for any n) or
:func:`check_capacity` (range, then memory) before it allocates a register.

Basis index convention: bit k of a basis index is qubit k, with qubit 0 the
least significant bit.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError

#: An amplitude is a complex number; .real/.imag are the stored double pair.
Amplitude = complex

#: Hard cap on simulated qubits: both buffers together stay <= 32 GiB of doubles.
#: A register must also fit in the machine's physical memory (see StateVector).
MAX_QUBITS = 30

#: Normalization / equivalence tolerance for double-precision states.
NORM_TOL = 1e-9

#: Amplitudes in one chunk of the strided kernel (see gates), which applies
#: every term of a gate to one chunk before it moves to the next; 256 KiB.
#: H, RY, RZ and a 3-gate 2x2 product on 14 operand qubits of a dense random
#: state (summed medians of 9 ``apply_gate`` calls, 2-core VM) took, for
#: chunks of 2^12 to 2^16 amplitudes, 197-205, 170-179, 134-149, 140-152
#: and 151-165 ms at n = 18 (two rounds), and 914, 825, 649, 704 and 844 ms
#: at n = 20.
CHUNK_AMPLITUDES = 1 << 14


def probabilities(amps: np.ndarray) -> np.ndarray:
    """Per-basis-state probability re^2 + im^2 of an amplitude array: a
    ``(2^n,)`` state, a ``(2^n, B)`` batch (one column per trajectory) or a
    view of either."""
    return amps.real**2 + amps.imag**2


def check_normalized(probs: np.ndarray, name: str) -> None:
    """Raise ValueError unless a state's probability array sums to 1 within
    NORM_TOL."""
    norm = float(probs.sum())
    if abs(norm - 1.0) > NORM_TOL:
        raise ValueError(f"{name} state not normalized: sum of squares is {norm!r}")


@dataclass(frozen=True)
class MemoryParams:
    """Inputs to the memory-cost model.

    ``scalar_bytes`` is the width of one scalar component of an amplitude
    (each amplitude needs two of them).  It parameterizes the cost model
    only; the execution engine always runs in double precision.  ``batch``
    is the number of trajectories held side by side.
    """

    n: int
    scalar_bytes: int = 8
    batch: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"qubit count must be >= 1, got {self.n}")
        if self.scalar_bytes not in (4, 8, 16):
            raise ValueError(f"scalar_bytes must be one of 4, 8, 16, got {self.scalar_bytes}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")


def estimate_vector_memory(params: MemoryParams) -> int:
    """Bytes needed for one 2^n amplitude array (two scalars per amplitude)
    per trajectory."""
    return 2 * params.scalar_bytes * params.batch << params.n


def estimate_total_memory(params: MemoryParams) -> int:
    """Bytes needed for the double-buffered engine: twice the vector cost."""
    return params.scalar_bytes * params.batch << (params.n + 2)


def estimate_matrix_memory(params: MemoryParams) -> int:
    """Bytes a dense 2^n x 2^n gate matrix would occupy.

    The engine never stores such a matrix; this quantifies what converting
    gates into mapping functions avoids.
    """
    return 2 * params.scalar_bytes * (1 << (2 * params.n))


def physical_memory_bytes() -> int | None:
    """Bytes of physical memory on this machine, or None where unknown."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def estimate_peak_memory(params: MemoryParams) -> int:
    """Bytes the zero-skip engine holds at its peak: the double buffer, the
    strided kernel's scratch of three chunks (for a register of at most
    ``CHUNK_AMPLITUDES`` amplitudes, its products: one more buffer), and
    what a zero-skip scan holds: a flag per amplitude, and a flag and an 8-byte index per
    basis state.  A noiseless run's readout holds less.  The no-skip reference, which
    gathers and scatters every basis state in place, needs about 4 buffers on top, at
    most 4.25 (traced on a dense register at n = 16 and 18: 4.06 for H, RY and RZ,
    3.06 for X, CNOT, SWAP and TOFFOLI, 2.56 for Z and CZ)."""
    size = params.batch << params.n
    scratch = size if size <= CHUNK_AMPLITUDES else 3 * CHUNK_AMPLITUDES
    scan = size + (9 << params.n)
    return estimate_total_memory(params) + 2 * params.scalar_bytes * scratch + scan


def check_qubits(n: int) -> None:
    """Raise CapacityError unless n is in 1..MAX_QUBITS: the range rule, in
    O(1) time and memory for any n."""
    if not 1 <= n <= MAX_QUBITS:
        msg = f"qubit count {n} outside supported range 1..{MAX_QUBITS}"
        if n >= 1:  # the double buffer's 2^(n + 5) bytes, named and not built from 2^64 on
            figure = estimate_total_memory(MemoryParams(n)) if n < 59 else f"2^{n + 5}"
            msg += f": double-buffered state would need {figure} bytes"
        raise CapacityError(msg)


def check_capacity(n: int, batch: int | None = None) -> None:
    """Raise CapacityError unless n passes :func:`check_qubits` and the
    engine's peak (:func:`estimate_peak_memory`) for n qubits, times
    ``batch`` trajectories when given, fits in physical memory."""
    check_qubits(n)
    params = MemoryParams(n, batch=1 if batch is None else batch)
    peak, physical = estimate_peak_memory(params), physical_memory_bytes()
    if physical is not None and peak > physical:
        width = f" x {batch} trajectories" if batch else ""
        raise CapacityError(
            f"{n} qubits{width} need {peak} bytes (double buffer, kernel scratch "
            f"and zero-skip scan), more than the {physical} bytes of physical memory"
        )


class StateVector:
    """An n-qubit register held in two alternating amplitude buffers.

    ``parity`` names the live buffer: 0 means the even buffer holds the
    current amplitudes, 1 means the odd buffer does; the dead one holds
    nothing a pass reads.  ``dense``, a kernel hint, records that
    zero-skipping found most amplitudes nonzero, so the engine stops
    scanning for zeros until :meth:`reset_ground`.  ``support``, also a
    kernel hint, is None or, while a pass that owns the state carries it,
    the rows a zero-skip scan would find nonzero (see gates); a reset and a
    new state carry none, and a :meth:`copy` carries both hints.  With ``batch=B`` the buffers are ``(2^n, B)``, one column per
    trajectory; ``batch`` is None for a plain ``(2^n,)`` state, which acts
    as a single trajectory.  Every state is made, as new, a copy or from
    amplitudes, through one body, :meth:`_hold`.
    """

    __slots__ = ("n", "dim", "batch", "buf_even", "buf_odd", "parity", "dense", "support",
                 "scratch")

    def __init__(self, n: int, batch: int | None = None):
        check_capacity(n, batch)
        live = np.zeros((1 << n,) if batch is None else (1 << n, batch), np.complex128)
        live[0] = 1.0
        self._hold(live)

    def _hold(self, live: np.ndarray, scratch: np.ndarray | None = None) -> "StateVector":
        """Make this a state with no hints holding ``live``, a ``(2^n,)`` or
        ``(2^n, B)`` array, without a copy; its dead buffer a calloc'd +0
        array, whose pages stay unmapped until a strided pass writes them;
        its scratch ``scratch``, or new scratch where the register needs some."""
        self.dim = live.shape[0]
        self.n = self.dim.bit_length() - 1
        self.batch = live.shape[1] if live.ndim > 1 else None
        self.buf_even, self.buf_odd = live, np.zeros(live.shape, live.dtype)
        self.parity, self.dense, self.support = 0, False, None
        self.scratch = _scratch(live.size) if scratch is None else scratch
        return self

    @property
    def live(self) -> np.ndarray:
        """The buffer currently holding the state."""
        return self.buf_even if self.parity == 0 else self.buf_odd

    @property
    def dead(self) -> np.ndarray:
        """The buffer the next strided pass writes every row of; it holds
        nothing a pass reads."""
        return self.buf_odd if self.parity == 0 else self.buf_even

    def toggle_after_gate(self) -> None:
        """Make the dead buffer live once a strided pass has written it."""
        self.parity ^= 1

    def reset_ground(self) -> None:
        """Return to |0...0> with even parity, writing only the buffer made live."""
        self.buf_even[:] = 0
        self.buf_even[0] = 1.0
        self.parity = 0
        self.dense = False
        self.support = None

    def amplitude(self, i: int) -> Amplitude:
        if not 0 <= i < self.dim:
            raise IndexError(f"basis index {i} out of range for {self.n} qubits")
        return complex(self.live[i])

    def probabilities(self) -> np.ndarray:
        """:func:`probabilities` of the live buffer."""
        return probabilities(self.live)

    def norm_squared(self) -> float | np.ndarray:
        """Squared norm; one per trajectory of a batch."""
        norms = probabilities(self.live).sum(axis=0)
        return norms if self.batch else float(norms)

    def copy(self, width: int | None = None) -> "StateVector":
        """A state of this one's live bytes, each trajectory repeated into
        ``width`` columns when given, with both kernel hints (a byte copy has
        the rows a scan would find) and this state's scratch, if it has
        some: a kernel uses scratch only while it runs.  A ``width`` is
        admitted as a batch is."""
        if width is not None:
            check_capacity(self.n, width)
        live = self.live.copy() if width is None else np.repeat(
            self.live.reshape(self.dim, -1), width, axis=1)
        dup = StateVector.__new__(StateVector)._hold(live, self.scratch)
        dup.dense, dup.support = self.dense, self.support
        return dup

    @classmethod
    def from_amplitudes(cls, amps: np.ndarray) -> "StateVector":
        """Build a state from an explicit amplitude vector (must be finite and
        normalized); -0.0 components are stored as +0.0."""
        amps = np.asarray(amps, dtype=np.complex128).ravel()
        n = int(amps.size).bit_length() - 1
        if (1 << n) != amps.size:
            raise ValueError(f"amplitude count {amps.size} is not a power of two")
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        check_normalized(probabilities(amps), "input")
        check_capacity(n)
        return cls.__new__(cls)._hold(amps + 0.0)  # exact, and -0.0 + 0.0 is +0.0

    def __repr__(self) -> str:
        return f"StateVector(n={self.n}, parity={self.parity})"


def _scratch(size: int) -> np.ndarray | None:
    """The strided kernel's scratch for ``size`` amplitudes (see gates):
    three chunk rows, a chunk's input copy, its output and its products;
    None for a register of at most one chunk, which needs none."""
    return None if size <= CHUNK_AMPLITUDES else np.empty((3, CHUNK_AMPLITUDES), np.complex128)


def alloc_state(n: int) -> StateVector:
    """Allocate the all-zero ground state |0...0> on n qubits."""
    return StateVector(n)
