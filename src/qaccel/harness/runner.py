"""Execution pipeline behind the ``run`` subcommand.

parse -> optional map -> simulate -> metrics -> persist.  The recorded
final state is the pre-measurement state: measure instructions mark the
register for readout and sampling, while fidelity and the state summary
are taken before any collapse.  The engine simulates perfect qubits, so a
noiseless run's state is its own ideal reference: it records fidelity 1
without computing it, once that state's norm has been checked.  Every run
makes one noiseless engine pass for that reference; a noisy run then
simulates its shots as batches of trajectories, one readout each, and
records trajectory 0 of its first batch as its final state.
After its pass a noiseless run keeps one amplitude buffer and one
probability array, shared by sampling, the support check and the top-k
summary; a noisy run adds its recorded trajectory and that one's array.
"""

from __future__ import annotations

import hashlib
import time
import uuid
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import lru_cache
from pathlib import Path

import numpy as np

from ..cqasm import Program, emit, parse
from ..gates import GateKind, NoiseConfig, run_circuit, sample
from ..mapper import MappingReport, Topology, build_topology, initial_placement, route, schedule_asap
from ..metrics import MetricSet, fidelity, gate_count, quantum_volume, success_probability
from ..statecore import MemoryParams, check_normalized, estimate_total_memory, probabilities
from .records import FinalState, RunRecord, store_append

#: Ideal-state probabilities above this threshold define the correct-answer set.
SUPPORT_THRESHOLD = 1e-9

#: Amplitudes in one batch of noisy trajectories (2^n x shots per batch).
#: On 200-shot noisy runs of 9-qubit circuits (2-core VM) 2^13 took 135 ms
#: an op, 2^14 116 ms and 2^15 to 2^18 103-110 ms, against 630-700 ms for one
#: engine pass per shot; 2^16 sits on that plateau with 1 MiB buffers.
TRAJECTORY_AMPLITUDES = 1 << 16

#: Topologies kept for reuse; the least recently used one goes first.
TOPOLOGIES_KEPT = 8

_shared_topology = lru_cache(maxsize=TOPOLOGIES_KEPT)(build_topology)


def parse_topology_spec(spec: str) -> Topology:
    """The topology of a CLI spec: line:N, ring:N, grid:RxC, full:N.

    Specs with the same kind and dimensions share one Topology, so its path
    cache serves every run in the process that routes onto it.
    """
    kind, _, dims = spec.partition(":")
    kind = kind.strip().lower()
    if not dims:
        raise ValueError(f"topology spec {spec!r} needs dimensions, e.g. line:4")
    if kind == "grid":
        parts = dims.lower().split("x")
        if len(parts) != 2:
            raise ValueError(f"grid spec must be grid:RxC, got {spec!r}")
        return _shared_topology("grid", int(parts[0]), int(parts[1]))
    return _shared_topology(kind, int(dims))


@dataclass
class RunOutcome:
    record: RunRecord
    report: MappingReport | None
    histogram: dict[str, int]
    store_path: Path | None


def _top_states(amps: np.ndarray, probs: np.ndarray, n: int, top_k: int) -> list[FinalState]:
    """The top_k nonzero basis states by descending probability (``probs``
    of ``amps``), ties by index."""
    k = min(top_k, probs.size)
    if k == 0:
        return []
    # only indices at or above the k-th largest probability can make the cut
    kth = np.partition(probs, probs.size - k)[probs.size - k]
    candidates = np.flatnonzero((probs >= kth) & (probs > 0.0))
    order = candidates[np.argsort(-probs[candidates], kind="stable")[:k]]
    return [
        FinalState(
            bitstring=format(i, f"0{n}b"),
            amplitude=(float(amps[i].real), float(amps[i].imag)),
            probability=float(probs[i]),
        )
        for i in order
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
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if top_k < 0:
        raise ValueError(f"top_k must be >= 0, got {top_k}")
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
    noise = NoiseConfig(noise_p) if noise_p else None

    ideal_state, _ = run_circuit(executed.n, unitary, rng=np.random.default_rng(actual_seq))
    ideal = recorded = ideal_state.live
    del ideal_state  # only its live buffer is needed from here on
    width = 1  # trajectories in the widest state
    if noise is None:
        ideal_probs = probs = probabilities(ideal)
        check_normalized(probs, "ideal")
        run_fidelity = 1.0  # the recorded state is the ideal one
        histogram = sample(probs, shots, np.random.default_rng(sample_seq))
    else:
        # one noisy trajectory per shot, simulated in batches, one readout each
        histogram = {}
        shot_rng = np.random.default_rng(shot_seq)
        width = min(shots, max(1, TRAJECTORY_AMPLITUDES >> executed.n))
        for start in range(0, shots, width):
            batch, _ = run_circuit(executed.n, unitary, rng=shot_rng, noise=noise,
                                   batch=min(width, shots - start))
            if start == 0:  # a copy, so the batch buffers are not kept alive
                recorded = batch.live[:, 0].copy()
            for key, count in sample(batch.probabilities(), 1, shot_rng).items():
                histogram[key] = histogram.get(key, 0) + count
            del batch  # freed before the next batch is allocated
        ideal_probs, probs = probabilities(ideal), probabilities(recorded)
        run_fidelity = fidelity(ideal, recorded)

    support = [key for key in histogram if ideal_probs[int(key, 2)] > SUPPORT_THRESHOLD]
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
        config["mapping"] = report.to_dict()

    record = RunRecord(
        run_id=str(uuid.uuid4()),
        timestamp=datetime.now(timezone.utc).isoformat(),
        circuit_hash=circuit_hash,
        config=config,
        metrics=metric_set,
        final_states=_top_states(recorded, probs, executed.n, top_k),
        wall_time_ns=time.perf_counter_ns() - started,
        peak_state_bytes=estimate_total_memory(MemoryParams(executed.n, batch=width)),
    )
    stored = store_append(record, store_path) if persist else None
    return RunOutcome(record, report, histogram, stored)


def run_file(path: str | Path, **kwargs) -> RunOutcome:
    """Parse a .qasm file and run it; see run_program for the knobs."""
    text = Path(path).read_text(encoding="utf-8")
    return run_program(parse(text), **kwargs)
