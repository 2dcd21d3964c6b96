"""Run store, execution pipeline, CLI exit codes, and benchmark plumbing."""

import argparse
import gc
import hashlib
import json
import math
import re
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from helpers import density_matrix, make_program, random_circuit
from qaccel import gates, mapper, statecore, tensor_oracle, trajectories
from qaccel.cqasm import parse
from qaccel.errors import CapacityError, MappingError, ParseError
from qaccel.genomics import AlignmentInstance, build_alignment_circuit
from qaccel.gates import gate, run_circuit, sample
from qaccel.harness.bench import (
    bench_depth_scaling,
    bench_gates,
    bench_qubit_scaling,
    linear_fit,
)
from qaccel.harness import cli
from qaccel.harness.cli import main
from qaccel.harness.records import (
    FinalState,
    RunRecord,
    store_append,
    store_line,
    store_query,
)
from qaccel.harness import runner
from qaccel.harness.runner import parse_topology_spec, run_file, run_program
from qaccel.mapper import build_topology, initial_placement, route
from qaccel.metrics import MetricSet
from qaccel.statecore import (
    MemoryParams,
    estimate_peak_memory,
    estimate_total_memory,
    probabilities,
)

#: sha256 of ``align --emit-qasm`` for a 32-bit binary reference and a 5-bit
#: read (the first perfbench ``align`` instance of seed 1); binary inputs slice
#: at every bit, so this circuit must not change.
EMITTED_ALIGNMENT_SHA256 = "702b411d042951530adda9074efcf753097bd0871dbee9394a90c6850ee3c577"

BELL = "version 1.0\nqubits 2\n.bell\nh q[0]\ncnot q[0],q[1]\nmeasure q[0]\n"


def _sample_record(run_id="r-1", timestamp="2026-01-01T00:00:00+00:00"):
    return RunRecord(
        run_id=run_id,
        timestamp=timestamp,
        circuit_hash="abc123",
        config={"shots": 10, "seed": 3},
        metrics=MetricSet(2, {"h": 1, "cnot": 1}, 2, 1.0, 1.0, 4),
        final_states=[
            FinalState("00", (1 / math.sqrt(2), 0.0), 0.5),
            FinalState("11", (1 / 3, math.sqrt(2) / 2 - 1 / 3), 0.5),
        ],
        wall_time_ns=12345,
        peak_state_bytes=128,
    )


#: The store line of ``_sample_record()``: fields in declaration order, each
#: nested record an object, each amplitude a [re, im] list.
SAMPLE_LINE = (
    '{"run_id": "r-1", "timestamp": "2026-01-01T00:00:00+00:00", "circuit_hash": "abc123", '
    '"config": {"shots": 10, "seed": 3}, "metrics": {"total_gates": 2, "by_kind": '
    '{"h": 1, "cnot": 1}, "depth": 2, "fidelity": 1.0, "success_probability": 1.0, '
    '"quantum_volume": 4}, "final_states": [{"bitstring": "00", "amplitude": '
    '[0.7071067811865475, 0.0], "probability": 0.5}, {"bitstring": "11", "amplitude": '
    '[0.3333333333333333, 0.37377344785321426], "probability": 0.5}], '
    '"wall_time_ns": 12345, "peak_state_bytes": 128}'
)


class TestStore:
    def test_append_then_query_round_trips(self, tmp_path):
        store = tmp_path / "runs.jsonl"
        record = _sample_record()
        store_append(record, store)
        result = store_query(store, run_id="r-1")
        assert result.corrupt_lines == 0
        assert result.records == (record,)
        # full double precision survives the JSON round trip
        assert result.records[0].final_states[0].amplitude[0] == 1 / math.sqrt(2)

    def test_store_line_is_pinned(self, tmp_path):
        store = tmp_path / "runs.jsonl"
        store_append(_sample_record(), store)
        assert store.read_text(encoding="utf-8") == SAMPLE_LINE + "\n"

    def test_query_missing_store_is_empty(self, tmp_path):
        result = store_query(tmp_path / "absent.jsonl")
        assert result.records == () and result.corrupt_lines == 0

    def test_corrupt_lines_skipped_and_counted(self, tmp_path):
        store = tmp_path / "runs.jsonl"
        store_append(_sample_record("a"), store)
        with store.open("a") as handle:
            handle.write("{not json}\n")
            handle.write('{"run_id": "missing fields"}\n')
        store_append(_sample_record("b"), store)
        result = store_query(store)
        assert [r.run_id for r in result.records] == ["a", "b"]
        assert result.corrupt_lines == 2

    def test_blank_lines_skipped_and_not_counted(self, tmp_path):
        store = tmp_path / "runs.jsonl"
        store.write_text("\n" + SAMPLE_LINE + "\n\n  \t\n", encoding="utf-8")
        result = store_query(store)
        assert result.records == (_sample_record(),)
        assert result.corrupt_lines == 0

    def test_run_without_a_store_path_goes_to_the_environment_store(
        self, tmp_path, monkeypatch, capsys
    ):
        store = tmp_path / "from_env" / "runs.jsonl"
        monkeypatch.setenv("QACCEL_STORE", str(store))
        monkeypatch.chdir(tmp_path)
        qasm = tmp_path / "bell.qasm"
        qasm.write_text(BELL)
        assert main(["run", str(qasm), "--shots", "10", "--seed", "1"]) == 0
        assert f"stored -> {store}" in capsys.readouterr().out
        # nothing went to the default file in the working directory
        assert sorted(path.name for path in tmp_path.iterdir()) == ["bell.qasm", "from_env"]
        (record,) = store_query().records  # a query without a path reads it too
        assert record.config["shots"] == 10
        assert store_query(store).records == (record,)

    def test_filters(self, tmp_path):
        store = tmp_path / "runs.jsonl"
        store_append(_sample_record("a", "2026-01-01T00:00:00+00:00"), store)
        store_append(_sample_record("b", "2026-06-01T00:00:00+00:00"), store)
        assert [r.run_id for r in store_query(store, since="2026-03-01").records] == ["b"]
        assert [r.run_id for r in store_query(store, until="2026-03-01").records] == ["a"]
        assert [r.run_id for r in store_query(store, circuit_hash="abc123").records] == ["a", "b"]
        assert store_query(store, run_id="nope").records == ()


class TestRunPipeline:
    def test_bell_run_record(self, tmp_path):
        qasm = tmp_path / "bell.qasm"
        qasm.write_text(BELL)
        store = tmp_path / "runs.jsonl"
        outcome = run_file(qasm, shots=1000, seed=7, store_path=store)
        record = outcome.record
        assert record.metrics.fidelity == pytest.approx(1.0, abs=1e-9)
        assert record.metrics.success_probability == 1.0
        assert set(outcome.histogram) == {"00", "11"}
        assert record.metrics.depth == 3
        assert record.metrics.quantum_volume == 8
        assert record.peak_state_bytes == 128
        assert {fs.bitstring for fs in record.final_states} == {"00", "11"}
        assert store_query(store).records == (record,)

    def test_reproducible_modulo_identity_fields(self, tmp_path):
        qasm = tmp_path / "bell.qasm"
        qasm.write_text(BELL)
        first = run_file(qasm, shots=200, seed=11, persist=False).record
        second = run_file(qasm, shots=200, seed=11, persist=False).record
        assert first.run_id != second.run_id
        assert first.circuit_hash == second.circuit_hash
        assert first.metrics == second.metrics
        assert first.final_states == second.final_states
        assert first.config == second.config

    def test_topology_run_reports_mapping(self, tmp_path):
        qasm = tmp_path / "bell.qasm"
        qasm.write_text(BELL)
        outcome = run_file(qasm, shots=50, seed=1, topology="line:2", persist=False)
        assert outcome.report is not None
        assert outcome.report.added_swaps == 0
        assert outcome.record.config["mapping"]["added_swaps"] == 0
        assert outcome.record.metrics.fidelity == pytest.approx(1.0, abs=1e-9)

    def test_mapped_run_peak_bytes_tracks_executed_register(self, tmp_path):
        qasm = tmp_path / "bell.qasm"
        qasm.write_text(BELL)
        outcome = run_file(qasm, shots=20, seed=1, topology="line:4", persist=False)
        # executed circuit spans the 4 physical nodes: 8 * 2^(4+2) bytes
        assert outcome.record.peak_state_bytes == 8 * 2 ** (4 + 2)

    def test_argument_validation(self, tmp_path):
        qasm = tmp_path / "bell.qasm"
        qasm.write_text(BELL)
        with pytest.raises(ValueError):
            run_file(qasm, shots=0, persist=False)
        with pytest.raises(ValueError):
            run_file(qasm, top_k=-1, persist=False)

    def test_noisy_run_degrades_gracefully(self, tmp_path):
        qasm = tmp_path / "bell.qasm"
        qasm.write_text(BELL)
        outcome = run_file(qasm, shots=60, seed=5, noise_p=0.2, persist=False)
        metrics = outcome.record.metrics
        assert 0.0 <= metrics.fidelity <= 1.0 + 1e-12
        assert 0.0 <= metrics.success_probability <= 1.0
        assert sum(outcome.histogram.values()) == 60

    def test_prep_z_program_uses_engine_reference(self, tmp_path):
        qasm = tmp_path / "prep.qasm"
        qasm.write_text("version 1.0\nqubits 1\nx q[0]\nprep_z q[0]\nmeasure q[0]\n")
        outcome = run_file(qasm, shots=20, seed=2, persist=False)
        assert outcome.record.metrics.fidelity == pytest.approx(1.0, abs=1e-9)
        assert outcome.histogram == {"0": 20}

    @pytest.mark.parametrize("seed", range(8))
    def test_noiseless_prep_z_run_is_perfect(self, seed):
        program = parse("version 1.0\nqubits 2\nh q[0]\ncnot q[0], q[1]\nprep_z q[0]\n")
        metrics = run_program(program, shots=100, seed=seed, persist=False).record.metrics
        assert metrics.fidelity == pytest.approx(1.0, abs=1e-9)
        assert metrics.success_probability == 1.0

    def test_noiseless_run_peak_fits_the_memory_model(self):
        # after its pass a run holds one amplitude buffer and one probability array
        n = 16
        body = "h q[0]\n" + "".join(f"cnot q[{q}], q[{q + 1}]\n" for q in range(n - 1))
        program = parse(f"version 1.0\nqubits {n}\n{body}")
        run_program(parse(BELL), shots=10, seed=1, persist=False)  # one-off imports
        tracemalloc.start()
        try:
            run_program(program, shots=1000, seed=1, persist=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= estimate_peak_memory(MemoryParams(n))

    @pytest.mark.parametrize("n", [16, 18, 20])
    @pytest.mark.parametrize("circuit", ["ghz", "dense"])
    def test_traced_run_peak_is_within_the_memory_model(self, circuit, n):
        # a GHZ chain's pass scatters a sparse state; a dense H/RY/CNOT
        # circuit's pass scans once, then holds the strided kernel's scratch
        if circuit == "ghz":
            body = "h q[0]\n" + "".join(f"cnot q[{q}], q[{q + 1}]\n" for q in range(n - 1))
        else:
            layer = lambda base: "".join(f"ry q[{q}], {base + 0.05 * q}\n" for q in range(n))
            body = ("".join(f"h q[{q}]\n" for q in range(n)) + layer(0.3)
                    + "".join(f"cnot q[{q}], q[{q + 1}]\n" for q in range(n - 1)) + layer(0.2))
        program = parse(f"version 1.0\nqubits {n}\n{body}")
        run_program(parse(BELL), shots=10, seed=1, persist=False)  # one-off imports
        tracemalloc.start()
        try:
            run_program(program, shots=1000, seed=1, persist=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= estimate_peak_memory(MemoryParams(n))

    def test_final_state_ties_in_index_order(self):
        program = parse("version 1.0\nqubits 3\nh q[0]\nh q[1]\nh q[2]\n")
        record = run_program(program, shots=10, seed=0, top_k=3, persist=False).record
        assert [fs.bitstring for fs in record.final_states] == ["000", "001", "010"]

    def test_final_states_match_dense_oracle(self):
        rng = np.random.default_rng(2024)
        for trial in range(50):
            n = int(rng.integers(1, 9))
            ops = random_circuit(rng, n)
            record = run_program(
                make_program(n, ops), shots=10, seed=trial, top_k=1 << n, persist=False
            ).record
            expected = tensor_oracle.simulate_instructions(n, ops)
            listed = {int(fs.bitstring, 2): complex(*fs.amplitude) for fs in record.final_states}
            for i, amp in listed.items():
                assert abs(amp - expected[i]) < 1e-9, (trial, i)
            assert set(np.flatnonzero(np.abs(expected) ** 2 > 1e-9)) <= set(listed), trial
            assert record.metrics.fidelity == pytest.approx(1.0, abs=1e-9)

    @staticmethod
    def corpus_program(rng, i):
        """Program ``i`` of a seeded noiseless corpus at n = 13-16: signed
        permutations around a few H and RY gates, sparse at the end, or,
        every third program, an H layer and random gates, dense; some with
        a prep_z or a measure."""
        n, signed = 13 + i % 4, ("x", "z", "cnot", "cz", "swap", "toffoli")
        ops = [gate("h", int(q)) for q in rng.choice(n, int(rng.integers(6)), replace=False)]
        for _ in range(24):
            kind = signed[int(rng.integers(len(signed)))]
            qubits = rng.choice(n, gates.MNEMONICS[kind].arity, replace=False)
            ops.append(gate(kind, *(int(q) for q in qubits)))
        ops.insert(12, gate("ry", int(rng.integers(n)), angle=float(rng.uniform(-3, 3))))
        if i % 3 == 2:
            ops += [gate("h", q) for q in range(n)] + random_circuit(rng, n, max_gates=8)
        if i % 5 < 2:
            ops.insert(int(rng.integers(len(ops))), gate(("prep_z", "measure")[i % 5], 0))
        return make_program(n, ops + [gate("measure", q) for q in range(n)])

    def test_a_readout_over_the_support_records_what_the_whole_arrays_give(self, monkeypatch):
        # the records, less run_id, timestamp and wall_time_ns, and the
        # histograms equal those of a readout that reads every row
        def outcome(program, seed, shots, top_k):
            result = run_program(program, shots=shots, seed=seed, top_k=top_k, persist=False)
            line = json.loads(store_line(result.record))
            for key in ("run_id", "timestamp", "wall_time_ns"):
                del line[key]
            return line, list(result.histogram.items())

        rng, sparse, carried = np.random.default_rng(3636), [], gates.support_rows
        monkeypatch.setattr(runner, "support_rows",
                            lambda state: sparse.append(state.support is not None) or carried(state))
        for i in range(108):
            program, seed = self.corpus_program(rng, i), int(rng.integers(1 << 30))
            shots, top_k = (1, 5, 1000)[i % 3], (0, 3, 16)[i // 3 % 3]
            with monkeypatch.context() as whole:
                whole.setattr(runner, "support_rows", lambda state: None)
                expected = outcome(program, seed, shots, top_k)
            assert outcome(program, seed, shots, top_k) == expected, i
        assert sum(sparse) == 72  # every program without an H layer ends sparse

    def test_fused_run_records_the_executed_gate_counts(self, monkeypatch):
        fused = []
        original = gates.apply_gate
        # each block applied
        monkeypatch.setattr(gates, "apply_gate", lambda state, g, **kwargs: fused.extend(
            [g] if len(g.gates) > 1 else []) or original(state, g, **kwargs))
        ops = [gate("h", 0), gate("x", 1), gate("cnot", 0, 2), gate("toffoli", 0, 2, 3),
               gate("swap", 3, 12), gate("x", 12), gate("measure", 12)]
        record = run_program(make_program(13, ops), shots=10, seed=1, persist=False).record
        assert len(fused) == 1
        assert record.metrics.total_gates == 7
        assert record.metrics.by_kind == {"h": 1, "x": 2, "cnot": 1, "toffoli": 1, "swap": 1,
                                          "measure": 1}
        assert {fs.bitstring for fs in record.final_states} == {
            "1000000000010", "0000000000111"}

    def test_noiseless_record_reads_fidelity_exactly_one(self):
        # the overlap of this state with itself sums to 0.9999999999999996
        program = parse("version 1.0\nqubits 3\nh q[0]\nrx q[1], 0.7\n"
                        "cnot q[0], q[2]\nry q[2], 0.35\n")
        assert run_program(program, shots=10, seed=1, persist=False).record.metrics.fidelity == 1.0

    def test_unnormalized_noiseless_state_exits_one(self, tmp_path, monkeypatch, capsys):
        def unnormalized(*args, **kwargs):
            state, transcript = run_circuit(*args, **kwargs)
            state.live[:] *= 1.01
            return state, transcript

        monkeypatch.setattr(runner, "run_circuit", unnormalized)
        qasm = tmp_path / "bell.qasm"
        qasm.write_text(BELL)
        store = tmp_path / "runs.jsonl"
        assert main(["run", str(qasm), "--seed", "1", "--store", str(store)]) == 1
        assert "not normalized" in capsys.readouterr().err
        assert not store.exists()

    def test_run_does_not_use_dense_oracle(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("the dense oracle is test-only")

        monkeypatch.setattr(tensor_oracle, "gate_matrix", refuse)
        body = "".join(f"h q[{q}]\ncnot q[{q}], q[{q + 1}]\n" for q in range(8))
        program = parse(f"version 1.0\nqubits 9\n{body}")
        record = run_program(program, shots=20, seed=4, persist=False).record
        assert record.metrics.fidelity == pytest.approx(1.0, abs=1e-9)

    def test_final_states_sorted_descending(self, tmp_path):
        qasm = tmp_path / "skew.qasm"
        qasm.write_text("version 1.0\nqubits 2\nry q[0], 0.6\nry q[1], 1.1\n")
        outcome = run_file(qasm, shots=10, seed=3, persist=False)
        probs = [fs.probability for fs in outcome.record.final_states]
        assert probs == sorted(probs, reverse=True)
        assert all(0.0 <= p <= 1.0 for p in probs)

    def test_deep_circuit_skips_quantum_volume(self, tmp_path):
        body = "\n".join("x q[0]" for _ in range(70))
        qasm = tmp_path / "deep.qasm"
        qasm.write_text(f"version 1.0\nqubits 1\n{body}\n")
        outcome = run_file(qasm, shots=5, seed=0, persist=False)
        assert outcome.record.metrics.depth == 70
        assert outcome.record.metrics.quantum_volume is None

    def test_topology_spec_parsing(self):
        assert parse_topology_spec("line:4").node_count == 4
        assert parse_topology_spec("grid:2x3").node_count == 6
        with pytest.raises(ValueError):
            parse_topology_spec("line")
        with pytest.raises(ValueError):
            parse_topology_spec("grid:23")

    def test_topology_shared_per_kind_and_dimensions(self):
        grid = parse_topology_spec("grid:3x3")
        assert parse_topology_spec("GRID:3X3") is grid
        assert parse_topology_spec(" grid:3x3") is grid
        assert parse_topology_spec("grid:3x4") is not grid

    def test_topology_cache_is_bounded(self):
        first = parse_topology_spec("line:2")
        for n in range(3, mapper.TOPOLOGIES_KEPT + 6):
            last = parse_topology_spec(f"line:{n}")
            assert mapper._shared_topology.cache_info().currsize <= mapper.TOPOLOGIES_KEPT
        assert parse_topology_spec(f"line:{mapper.TOPOLOGIES_KEPT + 5}") is last
        assert parse_topology_spec("line:2") is not first  # evicted, then built again

    def test_path_cache_is_bounded(self):
        topo = build_topology("grid", 9, 9)  # 6561 node pairs
        fresh = build_topology("grid", 9, 9)
        for start in range(topo.node_count):
            for goal in range(topo.node_count):
                path = mapper._shortest_path(topo, start, goal)
                assert len(topo.paths) <= mapper.PATH_CACHE_ENTRIES
                assert path == mapper._bfs_path(fresh, start, goal)
        assert len(topo.paths) == mapper.PATH_CACHE_ENTRIES
        # the newest entries stay; an evicted query is searched again
        assert (80, 80, frozenset()) in topo.paths
        assert (0, 0, frozenset()) not in topo.paths
        assert mapper._shortest_path(topo, 0, 80) == mapper._bfs_path(fresh, 0, 80)

    def test_routing_through_a_full_path_cache_is_unchanged(self, monkeypatch):
        monkeypatch.setattr(mapper, "PATH_CACHE_ENTRIES", 8)
        rng = np.random.default_rng(17)
        program = make_program(8, random_circuit(rng, 8, max_gates=40))
        topo = build_topology("grid", 3, 3)
        bounded = route(program, topo, initial_placement(program, topo))
        assert len(topo.paths) == 8
        monkeypatch.setattr(mapper, "PATH_CACHE_ENTRIES", 1 << 20)
        fresh = build_topology("grid", 3, 3)
        assert bounded == route(program, fresh, initial_placement(program, fresh))
        assert len(fresh.paths) > 8


def _chi2_sf(x: float, dof: int) -> float:
    """Chi-square survival function, by its closed form for a whole number
    of degrees of freedom: a Poisson tail for even dof, erfc and half-integer
    terms for odd."""
    half = x / 2
    if dof % 2 == 0:
        return math.exp(-half) * sum(half ** i / math.factorial(i) for i in range(dof // 2))
    return math.erfc(math.sqrt(half)) + math.exp(-half) * sum(
        half ** (i - 0.5) / math.gamma(i + 0.5) for i in range(1, (dof + 1) // 2))


class TestExactNoisyReference:
    """``helpers.density_matrix`` against hand values and the dense oracle,
    and noisy runs' histograms against its diagonal."""

    #: Least p-value a seeded histogram may read against the exact diagonal.
    P_VALUE_FLOOR = 1e-3

    def test_noiseless_reference_is_the_pure_state(self):
        rng = np.random.default_rng(11)
        for n in range(1, 7):
            ops = random_circuit(rng, n, max_gates=15)
            psi = tensor_oracle.simulate_instructions(n, ops)
            assert np.abs(density_matrix(n, ops, 0.0) - np.outer(psi, psi.conj())).max() < 1e-12

    @pytest.mark.parametrize("ops, n, expected", [
        ([gate("h", 0), gate("measure", 0)], 1, np.diag([0.5, 0.5])),
        ([gate("h", 0), gate("prep_z", 0)], 1, np.diag([1.0, 0.0])),
        ([gate("h", 0), gate("cnot", 0, 1), gate("measure", 0)], 2, np.diag([0.5, 0, 0, 0.5])),
        ([gate("h", 0), gate("cnot", 0, 1), gate("prep_z", 0)], 2, np.diag([0.5, 0, 0.5, 0])),
        ([gate("h", 1), gate("prep_z", 0)], 2, 0.5 * np.outer([1, 0, 1, 0], [1, 0, 1, 0])),
    ], ids=["h-measure", "h-prep_z", "bell-measure", "bell-prep_z", "coherent-prep_z"])
    def test_measure_dephases_and_prep_z_resets(self, ops, n, expected):
        assert np.abs(density_matrix(n, ops, 0.0) - expected).max() < 1e-12

    def test_depolarizing_channel_by_hand(self):
        p = 0.3  # X|0> = |1>; then X and Y flip it back, Z keeps it
        assert np.abs(density_matrix(1, [gate("x", 0)], p)
                      - np.diag([2 * p / 3, 1 - 2 * p / 3])).max() < 1e-12

    @pytest.mark.parametrize("case", range(12))
    def test_noisy_histogram_follows_the_exact_diagonal(self, case):
        shots, n, p = 4000, 2 + case % 5, (0.01, 0.05, 0.2)[case % 3]
        ops = random_circuit(np.random.default_rng(100 + case), n, max_gates=16, min_gates=4)
        histogram = run_program(make_program(n, ops), shots=shots, seed=case, noise_p=p,
                                persist=False).histogram
        probs = np.real(np.diag(density_matrix(n, ops, p)))
        observed = np.zeros(1 << n)
        for key, count in histogram.items():
            observed[int(key, 2)] = count
        assert observed[probs < 1e-12].sum() == 0  # no outcome the channel cannot give
        expected = shots * probs
        small = expected < 5  # pooled into one bin, folded into the least other if still small
        bins_e, bins_o = list(expected[~small]), list(observed[~small])
        if small.any():
            bins_e.append(expected[small].sum())
            bins_o.append(observed[small].sum())
            if bins_e[-1] < 5 and len(bins_e) > 1:
                least = int(np.argmin(bins_e[:-1]))
                bins_e[least] += bins_e.pop()
                bins_o[least] += bins_o.pop()
        bins_e, bins_o = np.array(bins_e), np.array(bins_o)
        statistic = float(((bins_o - bins_e) ** 2 / bins_e).sum())
        assert _chi2_sf(statistic, len(bins_e) - 1) > self.P_VALUE_FLOOR


class TestNoisyTrajectories:
    """Noisy shots run as batches of trajectories, one readout each."""

    # prep_z's outcome is q1's value, so every trajectory must collapse on its own
    OPS = [gate("h", 0), gate("cnot", 0, 1), gate("prep_z", 0), gate("ry", 0, angle=1.1),
           gate("cz", 0, 1), gate("rx", 1, angle=0.5)]

    def test_batched_histogram_matches_per_shot_loop(self):
        shots, p = 2000, 0.1
        batched = run_program(make_program(2, self.OPS), shots=shots, seed=8,
                              noise_p=p, persist=False).histogram
        rng, reference = np.random.default_rng(1234), Counter()
        run = trajectories.lowered_run(2, self.OPS)
        for _ in range(shots):  # one fresh trajectory and one readout per shot
            trajectory, _ = trajectories.noisy_pass(2, run, rng, p, 1)
            reference.update(sample(probabilities(trajectory), 1, rng))
        keys = sorted(set(batched) | set(reference))
        assert len(keys) == 4
        table = np.array([[batched.get(k, 0) for k in keys], [reference[k] for k in keys]])
        expected = table.sum(axis=1, keepdims=True) * table.sum(axis=0) / table.sum()
        statistic = float(((table - expected) ** 2 / expected).sum())
        assert _chi2_sf(statistic, len(keys) - 1) > 1e-6  # false alarm rate 1e-6

    def test_kernel_calls_grow_with_gates_not_shots(self, monkeypatch):
        calls = Counter()
        for name in ("_strided", "_scatter"):
            original = getattr(gates, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(gates, name, counted)
        ops = random_circuit(np.random.default_rng(3), 5, max_gates=20, min_gates=20)
        outcome = run_program(make_program(5, ops), shots=200, seed=2, noise_p=0.01,
                              persist=False)
        assert sum(outcome.histogram.values()) == 200
        slots = sum(len(g.qubits) for g in ops)
        # the ideal and the batched pass, plus one call per Pauli kind and operand
        assert 2 * len(ops) <= sum(calls.values()) <= 2 * len(ops) + 3 * slots

    def test_negligible_noise_records_the_noiseless_run(self):
        program = make_program(5, random_circuit(np.random.default_rng(4), 5, max_gates=30,
                                                 min_gates=30))
        noisy, clean = (run_program(program, shots=50, seed=6, noise_p=p, persist=False).record
                        for p in (1e-12, 0.0))
        assert noisy.metrics.fidelity == pytest.approx(1.0, abs=1e-12)
        assert noisy.final_states == clean.final_states

    def test_same_seed_same_histogram(self):
        program = make_program(2, self.OPS)
        first, second = (run_program(program, shots=300, seed=21, noise_p=0.05, persist=False)
                         for _ in range(2))
        assert first.histogram == second.histogram
        assert first.record.metrics == second.record.metrics
        assert first.record.final_states == second.record.final_states

    def test_batches_are_chunked_and_counted_in_peak_bytes(self, monkeypatch):
        program = make_program(2, self.OPS)
        outcome = run_program(program, shots=200, seed=1, noise_p=0.05, persist=False)
        assert outcome.record.peak_state_bytes == estimate_total_memory(MemoryParams(2, batch=200))
        monkeypatch.setattr(trajectories, "TRAJECTORY_AMPLITUDES", 16)  # 4 shots a batch
        widths = []
        original = trajectories.noisy_pass

        def recorded(n, run, rng, p, batch):
            widths.append(batch)
            return original(n, run, rng, p, batch)

        monkeypatch.setattr(trajectories, "noisy_pass", recorded)
        outcome = run_program(program, shots=10, seed=1, noise_p=0.05, persist=False)
        assert widths == [4, 4, 2]
        assert sum(outcome.histogram.values()) == 10
        assert outcome.record.peak_state_bytes == estimate_total_memory(MemoryParams(2, batch=4))

    #: Traced peaks of 200-shot runs at noise 0.01 of 30-gate random
    #: H/R*/CNOT/CZ/X circuits when each batch ran every gate on all its
    #: trajectories, in buffers of the widest batch.
    PER_GATE_PEAKS = {6: 3.77, 9: 3.78, 12: 3.90, 14: 4.35, 15: 4.86, 16: 5.79}

    @staticmethod
    def random_ops(n, seed, count=30):
        rng = np.random.default_rng(seed)
        ops = []
        for kind in rng.choice(["h", "rx", "ry", "rz", "cnot", "cz", "x"], size=count):
            qubits = rng.choice(n, size=2 if kind in ("cnot", "cz") else 1, replace=False)
            angle = float(rng.uniform(-3, 3)) if kind.startswith("r") else None
            ops.append(gate(str(kind), *(int(q) for q in qubits), angle=angle))
        return ops

    @classmethod
    def traced_run_peak(cls, n):
        """The traced peak of a 200-shot run at noise 0.01 of one of these
        circuits, and its widest batch."""
        program = make_program(n, cls.random_ops(n, n))
        run_program(program, shots=2, seed=1, noise_p=0.01, persist=False)  # tables and imports
        tracemalloc.start()
        try:
            run_program(program, shots=200, seed=1, noise_p=0.01, persist=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, min(200, trajectories.TRAJECTORY_AMPLITUDES >> n)

    @pytest.mark.parametrize("n", sorted(PER_GATE_PEAKS))
    def test_noisy_run_peaks_below_the_per_gate_pass(self, n):
        peak, width = self.traced_run_peak(n)
        assert peak / (16 * width << n) <= self.PER_GATE_PEAKS[n]

    @pytest.mark.parametrize("n", [14, 15, 16])
    def test_noisy_run_holds_the_pass_and_one_ideal_state(self, n):
        # the engine's peak plus the ideal amplitudes the run keeps; at
        # n <= 12 the histogram's objects show on top of that
        peak, width = self.traced_run_peak(n)
        assert peak <= estimate_peak_memory(MemoryParams(n, batch=width)) + (16 << n)

    @classmethod
    def traced_pass_peak(cls, n):
        """The traced peak of one noisy pass at noise 0.01 of one of these
        circuits, as wide as a 200-shot run's widest batch, and that width."""
        width = min(200, trajectories.TRAJECTORY_AMPLITUDES >> n)
        # the run a noisy run's batches share, lowered outside the traced pass
        run = trajectories.lowered_run(n, cls.random_ops(n, n))
        # tables, layouts and imports, the Paulis' too
        trajectories.noisy_pass(n, run, np.random.default_rng(2), 0.01, width)
        tracemalloc.start()
        try:
            trajectories.noisy_pass(n, run, np.random.default_rng(1), 0.01, width)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, width

    @pytest.mark.parametrize("n", sorted(PER_GATE_PEAKS))
    def test_noisy_pass_fits_the_memory_model(self, n):
        # the figure StateVector's capacity check admits a batch against
        peak, width = self.traced_pass_peak(n)
        assert peak <= estimate_peak_memory(MemoryParams(n, batch=width))

    @pytest.mark.parametrize("n", [9, 12, 14])
    def test_noisy_pass_builds_no_buffer_nobody_reads(self, n):
        # the pass holds the carried state, one group and the finished
        # groups, or the batch it assembles; a dead buffer made for the
        # batch it returns puts the peak at about 2.75
        peak, width = self.traced_pass_peak(n)
        assert peak / (16 * width << n) <= 2.0

    def test_group_copies_carry_the_support(self, monkeypatch):
        # 50 batches of 4 trajectories, each a group of its own: one scan of
        # each batch's carried state and one of the ideal state; a group
        # copy scanned before each of its gates took 1,271 scans here
        scans = []
        original = gates._scan
        monkeypatch.setattr(gates, "_scan", lambda src: scans.append(1) or original(src))
        run_program(make_program(14, self.random_ops(14, 30)), shots=200, seed=1, noise_p=0.01,
                    persist=False)
        assert len(scans) <= 64

    def test_a_group_keeps_its_support_through_a_collapse(self, monkeypatch):
        # a prep_z before gate 10 and a measure before gate 20: each group
        # state rescans once after its collapse; one scanned before each of
        # its later gates took 4,208 scans here
        scans = []
        original = gates._scan
        monkeypatch.setattr(gates, "_scan", lambda src: scans.append(1) or original(src))
        ops = self.random_ops(14, 30)
        ops.insert(20, gate("measure", 1))
        ops.insert(10, gate("prep_z", 2))
        run_program(make_program(14, ops), shots=200, seed=1, noise_p=0.01, persist=False)
        assert len(scans) <= 300

    def test_each_batch_is_freed_before_it_is_sampled(self, monkeypatch):
        monkeypatch.setattr(trajectories, "TRAJECTORY_AMPLITUDES", 16)  # 4 shots a batch
        batches, arrays = [], []  # weak references to each batch's arrays
        run, draw = trajectories.noisy_pass, runner.sample

        def traced_run(*args):
            assert all(ref() is None for ref in arrays), "a batch's probabilities outlived it"
            result = run(*args)
            array = result[0]
            while array is not None:  # the batch and any array it views
                batches.append(weakref.ref(array))
                array = array.base
            return result

        def traced_sample(probs, shots, rng):
            assert all(ref() is None for ref in batches), "a batch was sampled while alive"
            arrays.append(weakref.ref(probs))
            return draw(probs, shots, rng)

        monkeypatch.setattr(trajectories, "noisy_pass", traced_run)
        monkeypatch.setattr(runner, "sample", traced_sample)
        outcome = run_program(make_program(2, self.OPS), shots=10, seed=1, noise_p=0.05,
                              persist=False)
        assert sum(outcome.histogram.values()) == 10
        assert len(batches) >= 3 and len(arrays) == 3

    def test_a_finished_run_holds_none_of_its_items(self):
        # batches lowers the run once, and the lowered run goes with the
        # generator: once it is spent and dropped, no item of it is left
        ops = self.random_ops(9, 9)
        runs = trajectories.batches(9, ops, np.random.default_rng(1), 0.01, 200)
        assert sum(1 for _ in runs) == 2
        del runs
        gc.collect()
        program = {id(g) for g in ops}
        kept = [item for item in gc.get_objects() if type(item) is gates._Block
                and any(id(g) in program for g in item.gates)]
        assert not kept


class TestCliExitCodes:
    def test_missing_file_exits_one(self, capsys):
        assert main(["run", "does_not_exist.qasm"]) == 1
        assert "error" in capsys.readouterr().err

    def test_parse_error_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.qasm"
        bad.write_text("version 1.0\nqubits 2\nwarp q[0]\n")
        assert main(["run", str(bad)]) == 1

    def test_mapping_error_exits_two(self, tmp_path):
        qasm = tmp_path / "three.qasm"
        qasm.write_text("version 1.0\nqubits 3\nh q[0]\n")
        assert main(["run", str(qasm), "--topology", "line:2"]) == 2

    def test_capacity_error_exits_three(self, tmp_path, capsys):
        bell = tmp_path / "bell.qasm"
        bell.write_text(BELL)
        argvs = [["run", str(bell), "--topology", "line:20000"]]
        # from 14,280 qubits on, the double buffer's byte count has more
        # digits than Python turns into a string
        for qubits in (31, 20000, 99999999999999999999):
            qasm = tmp_path / f"huge{qubits}.qasm"
            qasm.write_text(f"version 1.0\nqubits {qubits}\nx q[0]\n")
            argvs.append(["run", str(qasm)])
        for argv in argvs:
            assert main(argv + ["--shots", "1"]) == 3, argv
            err = capsys.readouterr().err
            assert err.startswith("capacity error: ") and "Traceback" not in err, argv

    @pytest.mark.parametrize("spec, code", [
        ("line:99999999999", 3), ("full:99999999999", 3), ("grid:99999x99999", 3),
        ("ring:31", 3), ("line:0", 1), ("ring:2", 1), ("grid:-9x-9", 1), ("hex:99999999999", 1),
    ])
    def test_run_checks_a_topology_spec_before_building_it(self, spec, code, tmp_path, capsys,
                                                             monkeypatch):
        # a routed run simulates one qubit per node; building the edges of
        # line:99999999999 first ran until a 300 s timeout
        def unbuilt(*args):
            raise AssertionError(f"topology {args} built")

        monkeypatch.setattr(mapper, "_shared_topology", unbuilt)
        bell = tmp_path / "bell.qasm"
        bell.write_text(BELL)
        assert main(["run", str(bell), "--topology", spec, "--shots", "1"]) == code
        prefix = "capacity error: " if code == 3 else "error: "
        assert capsys.readouterr().err.startswith(prefix)

    def test_topology_beyond_physical_memory_exits_three_unbuilt(self, tmp_path, capsys,
                                                                   monkeypatch):
        def unbuilt(*args):
            raise AssertionError(f"topology {args} built")

        monkeypatch.setattr(mapper, "_shared_topology", unbuilt)
        monkeypatch.setattr(statecore, "physical_memory_bytes", lambda: 1 << 20)
        bell = tmp_path / "bell.qasm"
        bell.write_text(BELL)
        assert main(["run", str(bell), "--topology", "line:29", "--shots", "1"]) == 3
        assert "physical memory" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["line:1_0", "line:\u0663", "grid:2x\u0661", "line:+4"])
    @pytest.mark.parametrize("command", ["run", "map"])
    def test_topology_dimensions_are_ascii_decimal(self, command, spec, tmp_path, capsys):
        # int also reads "_", a "+" and other scripts' digits
        with pytest.raises(ValueError, match="needs ASCII decimal dimensions"):
            parse_topology_spec(spec)
        bell = tmp_path / "bell.qasm"
        bell.write_text(BELL)
        extra = ["--shots", "1", "--store", str(tmp_path / "s")] if command == "run" else []
        assert main([command, str(bell), "--topology", spec] + extra) == 1
        assert capsys.readouterr().err == (
            f"error: topology spec {spec!r} needs ASCII decimal dimensions\n")

    def test_run_and_map_share_one_topology_per_spec(self, tmp_path, capsys, monkeypatch):
        shared, seen = mapper._shared_topology, []
        monkeypatch.setattr(mapper, "_shared_topology",
                            lambda *key: seen.append(shared(*key)) or seen[-1])
        bell = tmp_path / "bell.qasm"
        bell.write_text(BELL)
        assert main(["run", str(bell), "--topology", "grid:2x2", "--shots", "1",
                     "--store", str(tmp_path / "s")]) == 0
        assert main(["map", str(bell), "--topology", " GRID:2X2"]) == 0
        assert len(seen) == 2 and seen[0] is seen[1]

    def test_align_past_the_qubit_cap_exits_three(self, capsys):
        for extra in ([], ["--emit-qasm"]):
            assert main(["align", "--reference", "0" * 16, "--read", "1" * 15] + extra) == 3
            assert capsys.readouterr().err.startswith("capacity error: qubit count 31 ")

    def test_align_emit_qasm_under_the_cap_needs_no_memory(self, capsys, monkeypatch):
        # emitting simulates nothing, so only the range rule applies
        monkeypatch.setattr(statecore, "physical_memory_bytes", lambda: 1 << 20)
        assert main(["align", "--reference", "0" * 15, "--read", "1" * 14, "--emit-qasm"]) == 0
        assert capsys.readouterr().out.startswith("version 1.0\nqubits 29\n")

    def test_bench_qubits_admits_its_largest_register_before_timing(self, capsys,
                                                                   monkeypatch):
        def untimed(*args):
            raise AssertionError(f"register {args} allocated")

        monkeypatch.setattr("qaccel.harness.bench.StateVector", untimed)
        monkeypatch.setattr(statecore, "physical_memory_bytes", lambda: 1 << 20)
        assert main(["bench", "qubits", "--n-max", "30"]) == 3
        assert "physical memory" in capsys.readouterr().err
        assert main(["bench", "qubits", "--n-max", "31"]) == 3
        assert capsys.readouterr().err.startswith("capacity error: qubit count 31 ")

    @pytest.mark.parametrize("argv", [
        ["bench", "qubits", "--n-min", "5", "--n-max", "5"],
        ["bench", "depth", "--counts", "100"],
        ["bench", "depth", "--counts", "100,100"]], ids=["qubits", "depth", "depth-repeated"])
    def test_a_bench_with_one_x_value_exits_one_before_timing(self, argv, capsys, monkeypatch):
        # a line through one x value has no slope: once a NaN fit and exit 0
        def untimed(fns):
            raise AssertionError("a point was timed")

        monkeypatch.setattr("qaccel.harness.bench._median_times_ns", untimed)
        assert main(argv) == 1
        printed = capsys.readouterr()
        assert printed.err.startswith("error: ") and "nan" not in printed.out + printed.err

    def test_a_noisy_run_whose_widest_batch_does_not_fit_exits_three(self, tmp_path, capsys,
                                                                      monkeypatch):
        # the 8-qubit register fits alone but not as a batch of 200 trajectories,
        # which trajectories.batches admits before any pass, the ideal one too
        physical = 1 << 20
        assert (estimate_peak_memory(MemoryParams(8)) < physical
                < estimate_peak_memory(MemoryParams(8, batch=200)))

        def unreached(*args):
            raise AssertionError("a noisy pass ran")

        ideal_passes = []

        def counted(*args, **kwargs):
            ideal_passes.append(args)
            return run_circuit(*args, **kwargs)

        monkeypatch.setattr(trajectories, "noisy_pass", unreached)
        monkeypatch.setattr(runner, "run_circuit", counted)
        monkeypatch.setattr(statecore, "physical_memory_bytes", lambda: physical)
        qasm = tmp_path / "eight.qasm"
        qasm.write_text("version 1.0\nqubits 8\n" + "".join(f"h q[{q}]\n" for q in range(8)))
        store = tmp_path / "runs.jsonl"
        argv = ["run", str(qasm), "--shots", "200", "--seed", "1", "--store", str(store)]
        assert main(argv + ["--noise-p", "0.01"]) == 3
        assert capsys.readouterr().err.startswith("capacity error: 8 qubits x 200 trajectories")
        assert not store.exists() and not ideal_passes
        assert main(argv) == 0
        assert len(store.read_text().splitlines()) == 1 and len(ideal_passes) == 1

    @pytest.mark.parametrize("n, physical, message", [
        (31, None, "qubit count 31 outside"), (20, 1 << 20, "physical memory")],
        ids=["range", "memory"])
    def test_a_run_admits_its_register_before_any_work(self, n, physical, message,
                                                        monkeypatch):
        # a 100,000-gate qubits 31 file was emitted, hashed and fused first
        def unreached(*args, **kwargs):
            raise AssertionError("work done before the register was admitted")

        monkeypatch.setattr(runner, "emit", unreached)
        monkeypatch.setattr(gates, "_fused", unreached)
        if physical is not None:
            monkeypatch.setattr(statecore, "physical_memory_bytes", lambda: physical)
        program = make_program(n, [gate("h", 0), gate("cnot", 0, n - 1)])
        with pytest.raises(CapacityError, match=message):
            run_program(program, shots=1, persist=False)

    def test_register_beyond_physical_memory_exits_three(self, tmp_path, monkeypatch):
        monkeypatch.setattr(statecore, "physical_memory_bytes", lambda: 1 << 20)
        qasm = tmp_path / "big.qasm"
        qasm.write_text("version 1.0\nqubits 16\nx q[0]\n")
        assert main(["run", str(qasm), "--shots", "1"]) == 3

    @pytest.mark.parametrize("argv", [["run", "{qasm}", "--shots", "many"],
                                      ["run", "{qasm}", "--no-such-flag"],
                                      ["run"],
                                      ["run", "{qasm}", "--no-zero-skip"]],
                             ids=["bad-int", "unknown-flag", "missing-file", "removed-flag"])
    def test_usage_error_exits_one(self, argv, tmp_path, capsys):
        qasm = tmp_path / "bell.qasm"
        qasm.write_text(BELL)
        assert main([a.format(qasm=qasm) for a in argv]) == 1
        assert capsys.readouterr().err.startswith("error: qaccel")

    @pytest.mark.parametrize("argv", [["run", "{qasm}"],
                                      ["run", "{qasm}", "--noise-p", "0.1"],
                                      ["align", "--reference", "0110", "--read", "01"]],
                             ids=["run", "noisy-run", "align"])
    def test_shots_beyond_what_numpy_draws_exit_one(self, argv, tmp_path, capsys):
        qasm = tmp_path / "bell.qasm"
        qasm.write_text(BELL)
        argv = [a.format(qasm=qasm) for a in argv] + ["--shots", str(10**20)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: shots must be in 1..2**63 - 1")

    @pytest.mark.parametrize("argv", [["run", "{qasm}", "--topology", "line:2", "--store", "{store}"],
                                      ["align", "--reference", "0110", "--read", "01"]],
                             ids=["run", "align"])
    def test_a_negative_seed_exits_one_before_any_work(self, argv, tmp_path, capsys,
                                                       monkeypatch):
        # numpy's own error named no option, and a run met it after routing
        def unreached(*args, **kwargs):
            raise AssertionError("work done before the seed was checked")

        monkeypatch.setattr(runner, "initial_placement", unreached)
        monkeypatch.setattr(cli, "align", unreached)
        qasm, store = tmp_path / "bell.qasm", tmp_path / "runs.jsonl"
        qasm.write_text(BELL)
        assert main([a.format(qasm=qasm, store=store) for a in argv] + ["--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not store.exists()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--help"])
        assert exit_info.value.code == 0
        assert "--shots" in capsys.readouterr().out

    @pytest.mark.parametrize("noise_p", ["-0.5", "nan"])
    def test_bad_noise_p_exits_one_and_stores_nothing(self, noise_p, tmp_path, capsys):
        qasm = tmp_path / "bell.qasm"
        qasm.write_text(BELL)
        store = tmp_path / "runs.jsonl"
        argv = ["run", str(qasm), "--noise-p", noise_p, "--store", str(store)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not store.exists()

    def test_non_finite_angle_exits_one(self, tmp_path, capsys):
        qasm = tmp_path / "nan.qasm"
        qasm.write_text("version 1.0\nqubits 1\nrx q[0], nan\n")
        assert main(["run", str(qasm), "--shots", "1", "--store", str(tmp_path / "s")]) == 1
        assert capsys.readouterr().err.startswith("error: line 3: ")

    @pytest.mark.parametrize(
        "argv, target",
        [
            (["run", "{qasm}"], "run_file"),
            (["map", "{qasm}", "--topology", "line:2"], "map_circuit"),
            (["align", "--reference", "0110", "--read", "01"], "align"),
            (["bench", "depth", "--counts", "20"], "bench_depth_scaling"),
            (["metrics", "query", "--store", "{store}"], "store_query"),
        ],
        ids=["run", "map", "align", "bench", "metrics"],
    )
    @pytest.mark.parametrize(
        "exc, code, prefix",
        [
            (ParseError("bad token", 3), 1, "error"),
            (OSError("disk gone"), 1, "error"),
            (ValueError("bad value"), 1, "error"),
            (MappingError("no path"), 2, "mapping error"),
            (CapacityError("too big"), 3, "capacity error"),
        ],
        ids=["parse", "os", "value", "mapping", "capacity"],
    )
    def test_exception_exit_table(
        self, argv, target, exc, code, prefix, tmp_path, capsys, monkeypatch
    ):
        qasm = tmp_path / "bell.qasm"
        qasm.write_text(BELL)
        store = tmp_path / "runs.jsonl"

        def fail(*_args, **_kwargs):
            raise exc

        monkeypatch.setattr(f"qaccel.harness.cli.{target}", fail)
        assert main([a.format(qasm=qasm, store=store) for a in argv]) == code
        assert capsys.readouterr().err.startswith(f"{prefix}: {exc}")

    def test_successful_run_exits_zero(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        qasm = tmp_path / "bell.qasm"
        qasm.write_text(BELL)
        code = main(["run", str(qasm), "--shots", "50", "--seed", "9",
                     "--store", str(tmp_path / "runs.jsonl")])
        out = capsys.readouterr().out
        assert code == 0
        assert "fidelity 1.000000" in out


class TestCliSubcommands:
    def test_map_writes_mapped_qasm(self, tmp_path, capsys):
        qasm = tmp_path / "ghz.qasm"
        qasm.write_text("version 1.0\nqubits 3\nh q[0]\ncnot q[0],q[1]\ncnot q[0],q[2]\n")
        out_file = tmp_path / "mapped.qasm"
        code = main(["map", str(qasm), "--topology", "line:3", "--placement",
                     "identity", "-o", str(out_file)])
        assert code == 0
        assert "swap" in out_file.read_text()
        assert "mapping:" in capsys.readouterr().err

    @pytest.mark.parametrize("noise_p", ["0", "0.1"])
    def test_run_top_k_zero_records_and_prints_no_states(self, noise_p, tmp_path, capsys):
        qasm = tmp_path / "bell.qasm"
        qasm.write_text(BELL)
        store = tmp_path / "runs.jsonl"
        argv = ["run", str(qasm), "--shots", "20", "--seed", "2", "--noise-p", noise_p,
                "--top-k", "0", "--store", str(store)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "fidelity" in out and "|" not in out  # no state lines
        (record,) = store_query(store).records
        assert record.final_states == []

    def test_align_ranks_toy(self, capsys):
        code = main(["align", "--reference", "0110", "--read", "01", "--seed", "4"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "position,probability"
        assert lines[1].startswith("0,")

    def test_align_accepts_nucleotides(self, capsys):
        code = main(["align", "--reference", "ACGT", "--read", "CG", "--seed", "1"])
        assert code == 0

    @staticmethod
    def ranking(capsys):
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "position,probability"
        return [(int(pos), float(prob)) for pos, prob in (line.split(",") for line in lines[1:])]

    def test_align_nucleotides_rank_no_window_between_bases(self, capsys):
        # CA is 0100 in bits; the bit window 10 at offset 1 straddles two bases
        assert main(["align", "--reference", "CA", "--read", "G", "--seed", "1"]) == 0
        rows = self.ranking(capsys)
        assert sorted(pos for pos, _ in rows) == [0, 1]
        assert rows[0][1] == rows[1][1]  # no base matches, so none is amplified

    def test_align_histogram_counts_real_positions_only(self, capsys):
        # CA has 2 positions, padded to 4 index values; seeded counts of the
        # real positions are those of one draw over all 4
        assert main(["align", "--reference", "CA", "--read", "G", "--seed", "1"]) == 0
        err = capsys.readouterr().err
        assert "sampled index counts: {0: 246, 1: 232}; padding readouts: 522" in err

    def test_align_nucleotide_positions_count_bases(self, capsys):
        assert main(["align", "--reference", "TAAT", "--read", "AA", "--seed", "1"]) == 0
        rows = self.ranking(capsys)
        assert sorted(pos for pos, _ in rows) == [0, 1, 2]
        assert rows[0][0] == 1 and rows[0][1] > rows[1][1]

    @pytest.mark.parametrize("reference, read", [("0110", "CG"), ("ACGT", "01")])
    def test_align_mixed_alphabets_exit_one(self, reference, read, capsys):
        assert main(["align", "--reference", reference, "--read", read]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_align_emit_qasm_of_a_binary_instance_is_unchanged(self, capsys):
        reference, read = "11100110010010000101111100100001", "00010"
        assert main(["align", "--reference", reference, "--read", read, "--emit-qasm"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == EMITTED_ALIGNMENT_SHA256
        lines = [line for line in out.splitlines()[2:] if line and not line.startswith(".")]
        inst = AlignmentInstance(reference, read)
        assert len(lines) == len(build_alignment_circuit(inst).instructions) == 514

    def test_align_emit_qasm(self, capsys):
        code = main(["align", "--reference", "0110", "--read", "01", "--emit-qasm"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("version 1.0\nqubits 5\n")
        assert ".amplify" in out

    def test_bench_depth_csv(self, capsys):
        code = main(["bench", "depth", "--counts", "20,40,80"])
        assert code == 0
        captured = capsys.readouterr()
        header = captured.out.splitlines()[0]
        assert header == "gates,x_time_ns,h_time_ns,cnot_time_ns"
        assert "fit[x]" in captured.err

    def test_metrics_query_reports_corruption(self, tmp_path, capsys):
        store = tmp_path / "runs.jsonl"
        store_append(_sample_record("zzz"), store)
        with store.open("a") as handle:
            handle.write("garbage\n")
        code = main(["metrics", "query", "--store", str(store)])
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out.splitlines()[0])["run_id"] == "zzz"
        assert "skipped 1" in captured.err

    @pytest.mark.parametrize("bad", [
        b"\xff\n",  # not UTF-8
        b"[" * 100000 + b"\n",  # nested deeper than the recursion limit
        SAMPLE_LINE.replace('"wall_time_ns": 12345', '"wall_time_ns": 1e400').encode() + b"\n",
    ], ids=["invalid-utf8", "too-deep", "int-overflow"])
    def test_metrics_query_skips_a_line_it_cannot_decode(self, bad, tmp_path, capsys):
        store = tmp_path / "runs.jsonl"
        store_append(_sample_record("first"), store)
        with store.open("ab") as handle:
            handle.write(bad)
        store_append(_sample_record("second"), store)
        code = main(["metrics", "query", "--store", str(store)])
        captured = capsys.readouterr()
        assert code == 0
        assert [json.loads(line)["run_id"] for line in captured.out.splitlines()] == [
            "first", "second"]
        assert "skipped 1 corrupt line(s)" in captured.err

    @pytest.mark.parametrize("key, value", [("timestamp", 2021), ("run_id", 7),
                                            ("circuit_hash", None), ("timestamp", ["2021"])])
    def test_metrics_query_counts_a_non_string_identity_field_corrupt(
            self, key, value, tmp_path, capsys):
        store = tmp_path / "runs.jsonl"
        line = json.loads(SAMPLE_LINE)
        line[key] = value
        store.write_text(json.dumps(line) + "\n", encoding="utf-8")
        code = main(["metrics", "query", "--store", str(store), "--since", "2020"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == ""
        assert "skipped 1" in captured.err


    @pytest.mark.parametrize("path, value", [
        (("final_states", 0, "amplitude"), "12"),
        (("final_states", 0, "amplitude"), [0.5]),
        (("final_states", 0, "amplitude"), [0.5, "0"]),
        (("final_states", 0, "amplitude"), [0.5, True]),
        (("wall_time_ns",), 1.9),
        (("wall_time_ns",), True),
        (("wall_time_ns",), "12"),
        (("peak_state_bytes",), 128.0),
        (("final_states", 0, "probability"), "0.5"),
        (("final_states", 0, "probability"), False),
        (("final_states", 0, "bitstring"), 7),
        (("final_states",), ""),
        (("metrics", "total_gates"), "x"),
        (("metrics", "depth"), True),
        (("metrics", "quantum_volume"), 4.0),
        (("metrics", "fidelity"), "1.0"),
        (("metrics", "success_probability"), True),
        (("metrics", "by_kind"), [["h", 1]]),
        (("metrics", "by_kind", "h"), 1.0),
        (("config",), [["shots", 10]]),
    ], ids=lambda v: json.dumps(v) if not isinstance(v, tuple) else ".".join(map(str, v)))
    def test_metrics_query_counts_a_mistyped_field_corrupt(self, path, value, tmp_path, capsys):
        # before, such a line decoded to a record whose line differs from it
        line = json.loads(SAMPLE_LINE)
        *parents, key = path
        target = line
        for step in parents:
            target = target[step]
        target[key] = value
        store = tmp_path / "runs.jsonl"
        store.write_text(json.dumps(line) + "\n" + SAMPLE_LINE + "\n", encoding="utf-8")
        with pytest.raises(TypeError):
            RunRecord.from_dict(line)
        assert main(["metrics", "query", "--store", str(store)]) == 0
        captured = capsys.readouterr()
        assert captured.out == SAMPLE_LINE + "\n"
        assert "skipped 1 corrupt line(s)" in captured.err

    def test_null_metrics_decode(self):
        line = json.loads(SAMPLE_LINE)
        line["metrics"].update(fidelity=None, success_probability=None, quantum_volume=None)
        assert store_line(RunRecord.from_dict(line)) == json.dumps(line)

    @pytest.mark.parametrize("knobs", [{}, {"noise_p": 0.05}, {"topology": "grid:2x2"}],
                             ids=["noiseless", "noisy", "routed"])
    def test_runner_lines_round_trip_byte_for_byte(self, knobs, tmp_path):
        store = tmp_path / "runs.jsonl"
        run_program(parse(BELL), shots=20, seed=3, store_path=store, **knobs)
        (written,) = store.read_text(encoding="utf-8").splitlines()
        assert store_line(RunRecord.from_dict(json.loads(written))) == written


class TestCliSynopsis:
    @staticmethod
    def commands(parser):
        """(prog, option strings, help aside) of each command that has no subcommands."""
        subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subparsers:
            yield parser.prog, {option for a in parser._actions
                                if not isinstance(a, argparse._HelpAction)
                                for option in a.option_strings}
        for action in subparsers:
            for sub in action.choices.values():
                yield from TestCliSynopsis.commands(sub)

    def test_the_readme_names_every_option_of_every_command(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"^## CLI\n\n```bash\n(.*?)^```", readme, re.M | re.S).group(1)
        block = block.replace("\\\n", " ")  # one line per command
        commands = dict(self.commands(cli._build_parser()))
        assert len(commands) == 7 and sum(map(len, commands.values())) > 25
        for prog, options in commands.items():
            words = prog.split()
            lines = " ".join(line for line in block.splitlines()
                             if line.split()[:len(words)] == words)
            named = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", lines))
            assert lines and options <= named, (prog, sorted(options - named))


class TestCliParserReuse:
    def _session(self, tmp_path, capsys):
        """Run, map, metrics query and a usage error, twice over: (exit code,
        stdout) per call, without the line that prints the random run id."""
        qasm = tmp_path / "ghz.qasm"
        qasm.write_text("version 1.0\nqubits 3\nh q[0]\ncnot q[0],q[2]\ntoffoli q[0],q[1],q[2]\n")
        queried = tmp_path / "queried.jsonl"
        if not queried.exists():
            store_append(_sample_record("q-1"), queried)
        argvs = [
            ["run", str(qasm), "--seed", "5", "--topology", "line:3", "--store",
             str(tmp_path / "runs.jsonl")],
            ["map", str(qasm), "--topology", "grid:2x2"],
            ["metrics", "query", "--store", str(queried)],
            ["run", str(qasm), "--shots", "many"],
        ]
        calls = []
        for argv in argvs + argvs:
            code = main(list(argv))
            out = capsys.readouterr().out.splitlines()
            calls.append((code, [line for line in out if not line.startswith("run ")]))
        return calls

    def test_one_parser_gives_the_fresh_parsers_output(self, tmp_path, capsys, monkeypatch):
        shared = self._session(tmp_path, capsys)
        assert cli._build_parser() is cli._build_parser()
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        fresh = self._session(tmp_path, capsys)
        assert shared == fresh
        assert [code for code, _ in shared] == [0, 0, 0, 1] * 2
        assert shared[:4] == shared[4:]


class TestBenches:
    @pytest.mark.timing
    def test_gate_bench_rows_and_stability(self):
        first = bench_gates()
        second = bench_gates()
        expected = ["x", "y", "z", "h", "rx", "ry", "rz", "cnot", "cz", "toffoli"]
        assert first.values == expected
        assert all(t > 0 for t in first.series["time_ns"])
        for a, b in zip(first.series["time_ns"], second.series["time_ns"]):
            assert abs(a - b) / max(a, b) < 0.5

    def test_qubit_scaling_shape(self):
        result = bench_qubit_scaling(4, 8)
        assert result.values == [4, 5, 6, 7, 8]
        assert set(result.series) == {"skip", "noskip"}
        assert set(result.fits) == {"skip", "noskip"}
        assert len(result.notes["skip_over_noskip"]) == 5

    def test_qubit_scaling_argument_error(self):
        with pytest.raises(ValueError):
            bench_qubit_scaling(8, 4)

    def test_depth_scaling_builds_nothing_per_gate(self, monkeypatch):
        # each count is a loop; a list of 10^7 gate references alone is 80 MB
        monkeypatch.setattr("qaccel.harness.bench._median_times_ns",
                            lambda fns: [1.0] * len(fns))
        tracemalloc.start()
        try:
            bench_depth_scaling((1, 10**7))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_depth_scaling_fits(self):
        result = bench_depth_scaling((20, 60, 120))
        assert set(result.series) == {"x", "h", "cnot"}
        for fit in result.fits.values():
            assert fit.model == "linear"
            assert fit.slope > 0

    def test_linear_fit_needs_two_distinct_x_values(self):
        for x in ([], [3], [3, 3]):
            with pytest.raises(ValueError):
                linear_fit(x, [1.0] * len(x))

    def test_linear_fit_recovers_exact_line(self):
        fit = linear_fit([1, 2, 3, 4], [3, 5, 7, 9])
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)
        assert fit.r_squared == pytest.approx(1.0)
