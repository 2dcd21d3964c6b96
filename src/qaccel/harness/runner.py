"""Execution pipeline behind the ``run`` subcommand.

parse -> optional map -> simulate -> metrics -> persist.  The recorded
final state is the pre-measurement state: measure instructions mark the
register for readout and sampling, while fidelity and the state summary
are taken before any collapse.  The engine simulates perfect qubits, so a
noiseless run's state is its own ideal reference: it records fidelity 1
without computing it, once that state's norm has been checked.  Every run
makes one noiseless engine pass for that reference; a noisy run then loops
over ``trajectories.batches``, one readout per trajectory, and records
trajectory 0 of the first, widest batch as its final state and that
batch's width in its memory figure.  The batches, their readouts and the
record are the bytes a gate-by-gate pass gives (see trajectories).  A run
keeps only the ideal state's live buffer and support (``gates.support_rows``)
and summarizes the state it records once, while it is live: a noiseless run
from the probability array it samples, at the support's rows alone when
there is one, a noisy run from its first batch before that batch is sampled.
It keeps each batch only until it is sampled, and reads the ideal
probabilities only at the histogram's keys, for the support check.
"""

from __future__ import annotations

import hashlib
import time
import uuid
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .. import trajectories
from ..cqasm import Program, emit, parse
from ..gates import GateKind, check_seed, check_shots, run_circuit, sample, support_rows
from ..mapper import (MappingReport, initial_placement, parse_topology_spec, route,
                      schedule_asap, topology_key, topology_size)
from ..metrics import MetricSet, fidelity, gate_count, quantum_volume, success_probability
from ..statecore import (MemoryParams, check_capacity, check_normalized, estimate_total_memory,
                         probabilities)
from .records import FinalState, RunRecord, store_append

#: Ideal-state probabilities above this threshold define the correct-answer set.
SUPPORT_THRESHOLD = 1e-9

@dataclass
class RunOutcome:
    record: RunRecord
    report: MappingReport | None
    histogram: dict[str, int]
    store_path: Path | None


def _top_states(amps: np.ndarray, probs: np.ndarray, n: int, top_k: int,
                rows: np.ndarray | None = None) -> list[FinalState]:
    """The top_k nonzero basis states by descending probability (``probs``
    of ``amps``), ties by index, among ``rows`` alone (see ``sample``) when given."""
    picked = probs if rows is None else probs[rows]
    k = min(top_k, picked.size)
    if k == 0:
        return []
    # only indices at or above the k-th largest probability can make the cut
    kth = np.partition(picked, picked.size - k)[picked.size - k]
    candidates = np.flatnonzero((picked >= kth) & (picked > 0.0))
    order = candidates[np.argsort(-picked[candidates], kind="stable")[:k]]
    return [
        FinalState(
            bitstring=format(i, f"0{n}b"),
            amplitude=(float(amps[i].real), float(amps[i].imag)),
            probability=float(probs[i]),
        )
        for i in (order if rows is None else rows[order])
    ]


def run_program(
    program: Program,
    *,
    shots: int = 1000,
    seed: int | None = None,
    noise_p: float = 0.0,
    topology: str | None = None,
    placement: str = "greedy",
    top_k: int = 16,
    store_path: str | Path | None = None,
    persist: bool = True,
) -> RunOutcome:
    started = time.perf_counter_ns()
    check_shots(shots)
    check_seed(seed)
    if top_k < 0:
        raise ValueError(f"top_k must be >= 0, got {top_k}")
    # the register (one qubit per node when routed) is admitted before any work
    check_capacity(topology_size(*topology_key(topology)) if topology is not None else program.n)
    canonical = emit(program)
    circuit_hash = hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    report: MappingReport | None = None
    executed = program
    if topology is not None:
        topo = parse_topology_spec(topology)
        layout = initial_placement(program, topo, placement)
        executed, _final_layout, report = route(program, topo, layout)

    seed_root = np.random.SeedSequence(seed)
    # child 0 is unused; keeping four children keeps seeded histograms stable across versions
    _, actual_seq, shot_seq, sample_seq = seed_root.spawn(4)
    unitary = [g for g in executed.instructions if g.kind is not GateKind.MEASURE]
    if noise_p:  # the rate and the widest batch are checked here, before any pass or draw
        shot_rng = np.random.default_rng(shot_seq)
        noisy = trajectories.batches(executed.n, unitary, shot_rng, noise_p, shots)

    state = run_circuit(executed.n, unitary, rng=np.random.default_rng(actual_seq))[0]
    ideal, rows = state.live, support_rows(state)
    del state  # its second buffer and scratch are freed before any readout
    if not noise_p:
        width = 1  # trajectories in the widest state
        probs = probabilities(ideal)
        check_normalized(probs, "ideal")
        run_fidelity = 1.0  # the recorded state is the ideal one
        histogram = sample(probs, shots, np.random.default_rng(sample_seq), rows)
        final_states = _top_states(ideal, probs, executed.n, top_k, rows)
    else:
        histogram, width = {}, 0
        for batch in noisy:
            if not width:  # the first and widest batch: its trajectory 0 is the recorded state
                width = batch.shape[1]
                run_fidelity = fidelity(ideal, batch[:, 0])
                final_states = _top_states(batch[:, 0], probabilities(batch[:, 0]),
                                           executed.n, top_k)
            batch_probs = probabilities(batch)
            del batch  # freed before sampling
            for key, count in sample(batch_probs, 1, shot_rng).items():
                histogram[key] = histogram.get(key, 0) + count
            del batch_probs  # freed before the next batch runs

    ideal_probs = probabilities(ideal[[int(key, 2) for key in histogram]])  # at its keys only
    support = [key for key, p in zip(histogram, ideal_probs) if p > SUPPORT_THRESHOLD]
    counts = gate_count(executed)
    depth = report.depth_after if report is not None else schedule_asap(executed).depth
    metric_set = MetricSet(
        total_gates=counts.total,
        by_kind=counts.by_kind,
        depth=depth,
        fidelity=run_fidelity,
        success_probability=success_probability(histogram, support),
        quantum_volume=quantum_volume(depth) if depth <= 62 else None,
    )

    config = {
        "shots": shots,
        "seed": seed,
        "noise_p": noise_p,
        "topology": topology,
        "placement": placement if topology is not None else None,
        "top_k": top_k,
    }
    if report is not None:
        config["mapping"] = asdict(report)

    record = RunRecord(
        run_id=str(uuid.uuid4()),
        timestamp=datetime.now(timezone.utc).isoformat(),
        circuit_hash=circuit_hash,
        config=config,
        metrics=metric_set,
        final_states=final_states,
        wall_time_ns=time.perf_counter_ns() - started,
        peak_state_bytes=estimate_total_memory(MemoryParams(executed.n, batch=width)),
    )
    stored = store_append(record, store_path) if persist else None
    return RunOutcome(record, report, histogram, stored)


def run_file(path: str | Path, **kwargs) -> RunOutcome:
    """Parse a .qasm file and run it; see run_program for the knobs."""
    text = Path(path).read_text(encoding="utf-8")
    return run_program(parse(text), **kwargs)
