"""Noisy passes: a batch of trajectories run from where each diverges.

A noisy pass of :func:`gates.run_circuit` pays for a trajectory only from
where it leaves the noiseless path.  It first draws the batch's whole error
schedule, with the Generator calls a gate-by-gate pass makes, in its order:
per operand of each gate the trajectories it hits and then their Paulis,
per ``measure`` and ``prep_z`` one uniform per trajectory.  A trajectory
diverges at its first error's gate, or at the first ``measure`` or
``prep_z``, which counts for every trajectory; before that it is the
noiseless state, byte for byte.

The trajectories, sorted stably by divergence point, run in groups of at
most ``CHUNK_AMPLITUDES >> n`` columns, and at least one: up to n = 14 a
group is a register of at most one chunk, which the kernels apply gates to
whole, and from n = 14 on it is one trajectory.  One noiseless state is
carried gate by gate, unfused, through each group's first erring gate in
turn, and each group starts from a copy of it; the last group, when it is
one trajectory, runs in the carried state itself, and trajectories that
never diverge take its end.  Paulis, and ``prep_z``'s flips, go through
:func:`apply_gate` on the columns they hit, as in the gate-by-gate pass.
The pass owns the carried state, so it scans it once and then carries its
support from gate to gate (see gates), up to the last group's first
collapse when that group runs in it; a group's copy carries none, and is
scanned before each gate.

The batch is assembled in its own column order, each column with the
bytes the gate-by-gate pass gives it, with that pass's transcript and next
draw; a lone trajectory of a wider batch sums its measurement probability
in index order, as a batch's column reduction does.  A plain noisy pass is
a batch of one.  The pass holds at once the carried state, one group and
the finished groups' amplitudes.  A group that does not run in the carried
state starts from a fresh copy of it, and a finished group keeps only its
live buffer, so its dead one is freed before the next group's are made.
Once the last group ends and the carried state is freed, the batch's buffer
is made once and filled from the groups'.  The states of one pass share one
scratch; numpy's ufunc buffers are held to ``UFUNC_BUFFER`` elements while
the groups run.
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


def _schedule(instructions: list, rng: np.random.Generator, p: float, batch: int | None):
    """Every draw a per-gate noisy pass makes, in its order: per gate and
    operand the trajectories it hits, then their Paulis; per measure and
    prep_z its uniforms.  Returns the uniforms by instruction, the errors as
    (instruction, qubit, trajectory, Pauli index) arrays in draw order, and
    where each trajectory diverges: its first error's gate or the first
    measure or prep_z, else ``len(instructions)``."""
    uniforms, rows = {}, []
    for i, g in enumerate(instructions):
        if not g.kind.is_unitary:
            uniforms[i] = rng.random(batch)
            continue
        for q in g.qubits:
            hits = np.flatnonzero(rng.random(batch) < p)
            if hits.size:
                rows.append((i, q, hits, rng.integers(3, size=hits.size)))
    # narrow integers: the schedule is held for the whole pass
    sizes = [hits.size for _, _, hits, _ in rows]
    at = np.repeat(np.array([i for i, *_ in rows], np.int32), sizes)
    qubit = np.repeat(np.array([q for _, q, *_ in rows], np.int8), sizes)
    of = np.concatenate([hits for *_, hits, _ in rows] or [np.empty(0)]).astype(np.int32)
    pauli = np.concatenate([picks for *_, picks in rows] or [np.empty(0)]).astype(np.int8)
    start = np.full(batch or 1, min(uniforms, default=len(instructions)), np.int32)
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
               zero_skip: bool, batch: int | None
               ) -> tuple[StateVector, list[tuple[int, int | np.ndarray]]]:
    """:func:`gates.run_circuit`'s pass at a depolarizing rate p > 0: the
    error schedule first, then the trajectories in groups of one chunk, each
    from its divergence point."""
    for g in instructions:
        if any(q >= n for q in g.qubits):
            raise IndexError(f"operands {g.qubits} out of range for {n} qubits")
    check_capacity(n, batch)
    width, end = batch or 1, len(instructions)
    uniforms, errors, start = _schedule(instructions, rng, p, batch)
    group_width = min(width, max(1, CHUNK_AMPLITUDES >> n))
    order = (np.argsort(start, kind="stable") if width > group_width
             else np.arange(width, dtype=np.int32))
    begins = [int(start[order[first:first + group_width]].min())
              for first in range(0, width, group_width)]
    del start
    outcomes = {i: np.empty(width, int) for i in uniforms
                if instructions[i].kind is GateKind.MEASURE}
    carried, done = StateVector(n), 0  # noiseless, through instructions[:done]
    _carry(carried, zero_skip)
    finals = []  # (trajectories, final amplitudes) of each finished group
    with np.errstate():  # restores numpy's buffer size on exit
        np.setbufsize(UFUNC_BUFFER)
        for first, begin in zip(range(0, width, group_width), begins):
            cols = order[first:first + group_width]
            last = first + group_width >= width
            # carried through the group's first erring gate, or up to its first measure
            reach = begin + (begin < end and instructions[begin].kind.is_unitary)
            for g in instructions[done:reach]:
                apply_gate(carried, g, zero_skip=zero_skip)
            done = reach
            if begin == end:  # these and all later trajectories never diverge
                cols, state, last = order[first:], carried, True
            else:
                if last and cols.size == 1:
                    state = carried  # the last group runs in the carried state
                else:  # a fresh copy of the carried state
                    state = StateVector.holding(
                        np.repeat(carried.live[:, None], cols.size, axis=1) if cols.size > 1
                        else carried.live.copy(), carried.scratch)
                state.dense = carried.dense
                if last:
                    carried = None
                if cols.size == width:  # one group, in order: a trajectory is its column
                    column = errors[2]
                else:
                    column = np.full(width, -1, np.int32)
                    column[cols] = np.arange(cols.size)
                    column = column[errors[2]]
                paulis = _errors_by_gate(errors, column)
                hit_at, hits = next(paulis, (end, None))
                in_order = state.batch is None and width > 1
                for i in range(begin, end):
                    g = instructions[i]
                    if i < reach:
                        pass  # the erring gate, run in the carried state
                    elif g.kind.is_unitary:
                        apply_gate(state, g, zero_skip=zero_skip)
                    else:
                        draws = uniforms[i] if batch is None else uniforms[i][
                            cols if state.batch else cols[0]]
                        bits = _collapse(state, g.qubits[0], draws, in_order)
                        if g.kind is GateKind.MEASURE:
                            outcomes[i][cols] = bits
                        elif np.any(bits):  # prep_z flips each trajectory that read 1
                            apply_gate(state, GateInstance.prevalidated(GateKind.X, g.qubits),
                                       zero_skip=zero_skip, columns=np.flatnonzero(bits))
                    if i == hit_at:
                        for (q, kind), columns in hits.items():
                            apply_gate(state, GateInstance.prevalidated(_PAULIS[kind], (q,)),
                                       zero_skip=zero_skip, columns=np.array(columns))
                        hit_at, hits = next(paulis, (end, None))
            if state.batch == batch or width == 1:  # the only group
                break
            finals.append((cols, state.live.reshape(state.dim, -1)))
            del state  # its dead buffer is freed before the next group's are made
            if last:
                break

    transcript = [(instructions[i].qubits[0], bits if batch else int(bits[0]))
                  for i, bits in outcomes.items()]
    if not finals:  # the only group's state
        if state.batch == batch:
            state.support = None  # it may be the carried state
            return state, transcript
        # a batch of one, run in the carried state, whose dead buffer goes first
        live, scratch = state.live.reshape(-1, 1), state.scratch
        del state, carried
        return StateVector.holding(live, scratch), transcript
    del carried  # freed before the batch's buffer is made
    live = np.empty((1 << n, width), np.complex128)
    while finals:  # each group's amplitudes are freed once copied
        cols, final = finals.pop()
        live[:, cols] = final
    del final  # freed before the batch's dead buffer is made
    return StateVector.holding(live), transcript
