"""Noisy runs: shots as batches of trajectories, each run from where it diverges.

:func:`batches` owns a noisy run's shot loop: it checks operands and the
widest batch's capacity once, then yields one :func:`noisy_pass`'s
``(2^n, width)`` amplitudes after another, the widest first, each of
``TRAJECTORY_AMPLITUDES >> n`` trajectories, at least one and at most the
shots left.  It keeps no reference to a batch it has yielded.

A noisy pass first draws the batch's whole error schedule, with the
Generator calls a gate-by-gate pass makes, in its order: per operand of
each gate the trajectories it hits and then their Paulis, per ``measure``
and ``prep_z`` one uniform per trajectory.  A trajectory diverges at its
first error's gate, or at the first ``measure`` or ``prep_z``; before that
it is the noiseless state, byte for byte.

The trajectories, sorted stably by divergence point, run in groups of at
most ``CHUNK_AMPLITUDES >> n`` columns and at least one (one trajectory
from n = 14 on); those that never diverge make one group, of any width.
One noiseless state is carried gate by gate, unfused, through each group's
first erring gate in turn.  Each group starts from a copy of it
(``StateVector.copy``, repeated into the group's columns), which takes
its support along (see gates) up to its first collapse or gate on only
some of its columns; the last group runs in the carried state itself
when it is one trajectory or never diverges.  Paulis go through
:func:`apply_gate` on the columns they hit; ``measure`` and ``prep_z``
through the one collapse rule, ``gates._collapse``.

The pass returns the batch's amplitudes in column order, each column the
bytes the gate-by-gate pass gives it, with that pass's transcript and next
draw; a lone trajectory of a wider batch sums its measurement probability
in index order, as a batch's column reduction does.  It holds at once the
carried state, one group and the finished groups' live buffers.  It returns
the only group's live buffer when that group covers the batch in column
order; otherwise, once the carried state is freed, it fills the batch's
array from the groups'.  It makes no dead buffer or scratch for the batch.
The states of one pass share one scratch; numpy's ufunc buffers are held
to ``UFUNC_BUFFER`` elements while the groups run.
"""

from __future__ import annotations

import numpy as np

from .gates import _PAULIS, GateInstance, GateKind, _carry, _collapse, apply_gate
from .statecore import CHUNK_AMPLITUDES, StateVector, check_capacity

#: numpy's ufunc buffer, in elements, while a noisy pass runs its groups.
#: numpy 2 copies each operand of a ufunc on views with short contiguous runs
#: through a buffer of up to 8192 elements (128 KiB of complex), up to three
#: per call: more than a whole 200-trajectory batch at n = 6, whose pass then
#: peaked 0.6 batch buffers above ``estimate_peak_memory``.  With 256 the
#: perfbench ``run_noisy`` ``op_ms.p50`` read 62-71 ms against 71-81 ms
#: (6 alternating runs each, seed 1, 2-core VM).  Every byte the pass
#: returns, its measurements' sums included, is the default's.
UFUNC_BUFFER = 256

#: Amplitudes in one batch of a noisy run (2^n x trajectories per batch).  On
#: 200-shot runs at p = 0.01 of the 32 perfbench ``run_noisy`` programs (9
#: qubits, 2-core VM, best of 4 rounds) 2^13 took 86 ms an op, 2^14 65 ms, 2^15
#: 61 ms and 2^16 to 2^18 47-54 ms, against 634 ms for one pass per shot.  The
#: batch width orders the draws: another value changes every seeded record.
TRAJECTORY_AMPLITUDES = 1 << 16


def _schedule(instructions: list, rng: np.random.Generator, p: float, width: int):
    """Every draw a per-gate noisy pass makes, in its order: per gate and
    operand the trajectories it hits, then their Paulis; per measure and
    prep_z its uniforms.  Returns the uniforms by instruction, the errors as
    (instruction, qubit, trajectory, Pauli index) arrays in draw order, and
    where each trajectory diverges: its first error's gate or the first
    measure or prep_z, else ``len(instructions)``."""
    uniforms, rows = {}, []
    for i, g in enumerate(instructions):
        if not g.kind.is_unitary:
            uniforms[i] = rng.random(width)
            continue
        for q in g.qubits:
            hits = np.flatnonzero(rng.random(width) < p)
            if hits.size:
                rows.append((i, q, hits, rng.integers(3, size=hits.size)))
    # narrow integers: the schedule is held for the whole pass
    sizes = [hits.size for _, _, hits, _ in rows]
    at = np.repeat(np.array([i for i, *_ in rows], np.int32), sizes)
    qubit = np.repeat(np.array([q for _, q, *_ in rows], np.int8), sizes)
    of = np.concatenate([hits for *_, hits, _ in rows] or [np.empty(0)]).astype(np.int32)
    pauli = np.concatenate([picks for *_, picks in rows] or [np.empty(0)]).astype(np.int8)
    start = np.full(width, min(uniforms, default=len(instructions)), np.int32)
    np.minimum.at(start, of, at)
    return uniforms, (at, qubit, of, pauli), start


def _errors_by_gate(errors: tuple, column: np.ndarray):
    """A group's errors, gate by gate in order: (instruction, {(qubit, Pauli
    index): the group's columns it hits, in draw order}).  ``column`` maps
    each error to its trajectory's column in the group, or -1 outside it."""
    at, qubit, _, pauli = errors
    current, paulis = None, {}
    for i, q, kind, c in zip(at, qubit, pauli, column):
        if c < 0:
            continue
        if i != current and paulis:
            yield current, paulis
            paulis = {}
        current = int(i)
        paulis.setdefault((int(q), int(kind)), []).append(int(c))
    if paulis:
        yield current, paulis


def noisy_pass(n: int, instructions: list, rng: np.random.Generator, p: float,
               zero_skip: bool, width: int) -> tuple[np.ndarray, list[tuple[int, np.ndarray]]]:
    """A batch of ``width`` trajectories at a depolarizing rate p > 0: the
    error schedule first, then the trajectories in groups of one chunk, each
    from its divergence point.  Returns the batch's ``(2^n, width)``
    amplitudes and its transcript, (qubit, outcomes) per ``measure``.  The
    caller checks operands and capacity (see :func:`batches`)."""
    end = len(instructions)
    uniforms, errors, start = _schedule(instructions, rng, p, width)
    group_width = min(width, max(1, CHUNK_AMPLITUDES >> n))
    order = (np.argsort(start, kind="stable") if width > group_width
             else np.arange(width, dtype=np.int32))
    outcomes = {i: np.empty(width, int) for i in uniforms
                if instructions[i].kind is GateKind.MEASURE}
    carried, done, first = StateVector(n), 0, 0  # noiseless, through instructions[:done]
    _carry(carried, zero_skip)
    finals = []  # (trajectories, final amplitudes) of each finished group
    with np.errstate():  # restores numpy's buffer size on exit
        np.setbufsize(UFUNC_BUFFER)
        while first < width:
            cols = order[first:first + group_width]
            begin = int(start[cols].min())
            if begin == end:  # these and all later trajectories never diverge
                cols = order[first:]
            first += cols.size
            # carried through the group's first erring gate, or up to its first measure
            reach = begin + (begin < end and instructions[begin].kind.is_unitary)
            for g in instructions[done:reach]:
                apply_gate(carried, g, zero_skip=zero_skip)
            done = reach
            if first == width and (cols.size == 1 or begin == end):
                state, carried = carried, None  # the last group runs in the carried state
            else:
                state = carried.copy(cols.size if cols.size > 1 else None)
            column = np.full(width, -1, np.int32)
            column[cols] = np.arange(cols.size)
            paulis = _errors_by_gate(errors, column[errors[2]])
            hit_at, hits = next(paulis, (end, None))
            in_order = state.batch is None and width > 1
            for i in range(begin, end):
                g = instructions[i]
                if i < reach:
                    pass  # the erring gate, run in the carried state
                elif g.kind.is_unitary:
                    apply_gate(state, g, zero_skip=zero_skip)
                else:
                    draws = uniforms[i][cols if state.batch else cols[0]]
                    bits = _collapse(state, g, draws, zero_skip, in_order)
                    if g.kind is GateKind.MEASURE:
                        outcomes[i][cols] = bits
                if i == hit_at:
                    for (q, kind), columns in hits.items():
                        apply_gate(state, GateInstance.prevalidated(_PAULIS[kind], (q,)),
                                   zero_skip=zero_skip, columns=np.array(columns))
                    hit_at, hits = next(paulis, (end, None))
            finals.append((cols, state.live.reshape(state.dim, -1)))
            del state  # its dead buffer is freed before the next group's are made

    del carried  # freed before the batch's buffer is made
    live = finals[0][1]  # the only group's amplitudes, when it covers the batch in order
    if len(finals) > 1 or live.shape[1] < width:
        live = np.empty((1 << n, width), np.complex128)
        while finals:  # each group's amplitudes are freed once copied
            cols, final = finals.pop()
            live[:, cols] = final
    return live, [(instructions[i].qubits[0], bits) for i, bits in outcomes.items()]


def batches(n: int, instructions: list, rng: np.random.Generator, p: float, shots: int):
    """A run's ``shots`` noisy trajectories at a depolarizing rate p > 0, as
    the ``(2^n, width)`` amplitudes of one :func:`noisy_pass` after another,
    the widest first, each drawing from ``rng`` in turn.  Operands and the
    widest batch's capacity are checked here, once, before any draw."""
    for g in instructions:
        if any(q >= n for q in g.qubits):
            raise IndexError(f"operands {g.qubits} out of range for {n} qubits")
    width = min(shots, max(1, TRAJECTORY_AMPLITUDES >> n))
    check_capacity(n, width)
    # no name holds a yielded batch, so the caller's last reference frees it
    return (noisy_pass(n, instructions, rng, p, True, min(width, shots - start))[0]
            for start in range(0, shots, width))
