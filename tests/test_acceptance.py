"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import itertools

import numpy as np
import pytest

from helpers import engine_state, make_program, random_circuit, undo_layout_permutation
from qaccel.cqasm import parse, emit
from qaccel.gates import GateKind, gate, run_circuit
from qaccel.genomics import AlignmentInstance, align, build_alignment_circuit
from qaccel.harness.bench import bench_depth_scaling, bench_qubit_scaling
from qaccel.harness.runner import run_file
from qaccel.mapper import build_topology, initial_placement, route
from qaccel.metrics import SpeedupParams, amdahl, fidelity, quantum_volume
from qaccel.statecore import MemoryParams, estimate_total_memory
from qaccel.tensor_oracle import dense_simulate, kron, hadamard_tensor_check, simulate_instructions


def _verdict(num: int, name: str, failures: list):
    ok = not failures
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}")
    assert ok, f"criterion {num} ({name}): {failures[:5]}"


def test_c01_memory_table():
    expected_kib = [0.125, 0.25, 0.5, 1, 2, 4, 8, 16, 32, 64, 128, 256]
    expected_mib = [0.5, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
    failures = []
    for n, kib in zip(range(2, 14), expected_kib):
        got = estimate_total_memory(MemoryParams(n, 8)) / 1024
        if got != kib:
            failures.append((n, got, kib))
    for n, mib in zip(range(14, 26), expected_mib):
        got = estimate_total_memory(MemoryParams(n, 8)) / 2**20
        if got != mib:
            failures.append((n, got, mib))
    _verdict(1, "memory table n=2..25 exact", failures)


def test_c02_kron_block_expansion():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    expected = np.array(
        [[0, 0, 0, -1j],
         [0, 0, 1j, 0],
         [0, -1j, 0, 0],
         [1j, 0, 0, 0]],
        dtype=complex,
    )
    failures = [] if (kron(x, y) == expected).all() else ["kron(X, Y) mismatch"]
    _verdict(2, "kron(X, Y) equals the 4x4 block expansion exactly", failures)


def test_c03_hadamard_tensor_identity():
    failures = []
    for n in range(1, 7):
        for a in range(1 << n):
            ops = [gate("x", q) for q in range(n) if (a >> q) & 1]
            ops += [gate("h", q) for q in range(n)]
            got = simulate_instructions(n, ops)
            want = hadamard_tensor_check(n, a)
            dev = float(np.abs(got - want).max())
            if dev > 1e-12:
                failures.append((n, a, dev))
    _verdict(3, "H^(x)n sign pattern matches dense simulation (1e-12)", failures)


def test_c04_oracle_equivalence_and_zero_skip():
    rng = np.random.default_rng(20260809)
    failures = []
    for i in range(1000):
        n = int(rng.integers(1, 7))
        ops = random_circuit(rng, n, max_gates=20)
        fast = engine_state(n, ops, zero_skip=True)
        slow = engine_state(n, ops, zero_skip=False)
        if fast.tobytes() != slow.tobytes():
            failures.append((i, "zero-skip not bit-identical"))
            continue
        oracle = simulate_instructions(n, ops)
        dev = float(np.abs(oracle - fast).max())
        if dev > 1e-9:
            failures.append((i, f"amplitude deviation {dev}"))
        elif abs(fidelity(oracle, fast) - 1.0) > 1e-9:
            failures.append((i, "fidelity below 1"))
    _verdict(4, "1000 random circuits: engine = oracle (1e-9), skip bit-identical", failures)


def test_c05_speedup_formulas():
    failures = []
    single = amdahl(SpeedupParams(p=0.3, s=2))
    if abs(single - 1.18) > 0.005:
        failures.append(("single", single))
    multi = amdahl(
        SpeedupParams(components=((0.11, 1.0), (0.18, 5.0), (0.23, 20.0), (0.48, 1.6)))
    )
    if abs(multi - 2.19) > 0.005:
        failures.append(("multi", multi))
    _verdict(5, "Amdahl worked examples land on 1.18 and 2.19 (+/-0.005)", failures)


def test_c06_quantum_volume():
    failures = [
        (d, quantum_volume(d)) for d in range(21) if quantum_volume(d) != 2**d
    ]
    _verdict(6, "quantum_volume(D) = 2^D for D = 0..20", failures)


def _adjacency_ok(routed, topo):
    for g in routed.instructions:
        if len(g.qubits) == 2 and not topo.is_adjacent(*g.qubits):
            return False
        if len(g.qubits) == 3:
            c1, c2, t = g.qubits
            if not (topo.is_adjacent(c1, t) and topo.is_adjacent(c2, t)):
                return False
    return True


def test_c07_mapping_semantics():
    rng = np.random.default_rng(7070)
    failures = []
    for i in range(200):
        n = int(rng.integers(2, 6))
        ops = random_circuit(rng, n, max_gates=15)
        program = make_program(n, ops)
        original = simulate_instructions(n, ops)
        strategy = "identity" if i % 2 == 0 else "greedy"
        topologies = [
            build_topology("line", n),
            build_topology("ring", max(n, 3)),
            build_topology("grid", 2, (n + 1) // 2),
        ]
        for topo in topologies:
            layout = initial_placement(program, topo, strategy)
            routed, final_layout, report = route(program, topo, layout)
            if not _adjacency_ok(routed, topo):
                failures.append((i, topo.kind, "adjacency violated"))
                continue
            if report.gates_after != report.gates_before + report.added_swaps:
                failures.append((i, topo.kind, "report arithmetic"))
                continue
            mapped = simulate_instructions(routed.n, routed.instructions)
            virt, leak = undo_layout_permutation(mapped, final_layout, n)
            dev = float(np.abs(virt - original).max())
            if leak > 1e-9 or dev > 1e-9:
                failures.append((i, topo.kind, f"state deviation {max(dev, leak)}"))
        full = build_topology("full", n)
        _routed, _layout, report = route(
            program, full, initial_placement(program, full, strategy)
        )
        if report.added_swaps != 0:
            failures.append((i, "full", "swaps added on full topology"))
    _verdict(7, "200 mapped circuits preserve semantics on line/ring/grid", failures)


def _unique_match(ref: str, read: str):
    hits = [
        i for i in range(len(ref) - len(read) + 1) if ref[i : i + len(read)] == read
    ]
    return hits[0] if len(hits) == 1 else None


def test_c08_genomics_ranking():
    rng = np.random.default_rng(88)
    failures = []
    checked = 0
    for big in range(1, 9):
        for small in range(1, min(big, 3) + 1):
            for ref_bits in itertools.product("01", repeat=big):
                ref = "".join(ref_bits)
                for read_bits in itertools.product("01", repeat=small):
                    read = "".join(read_bits)
                    position = _unique_match(ref, read)
                    if position is None:
                        continue
                    inst = AlignmentInstance(ref, read)
                    result = align(inst, 1, rng)
                    top_pos, top_prob = result.ranking[0]
                    runner_up = result.ranking[1][1] if len(result.ranking) > 1 else -1.0
                    if top_pos != position or top_prob <= runner_up:
                        failures.append((ref, read, result.ranking[:2]))
                    elif checked % 80 == 0:
                        # dense-oracle spot check of the generated circuit
                        program = build_alignment_circuit(inst)
                        oracle = dense_simulate(program)
                        state, _ = run_circuit(program.n, program.instructions)
                        if float(np.abs(state.live - oracle).max()) > 1e-9:
                            failures.append((ref, read, "oracle disagreement"))
                    checked += 1
    toy = dense_simulate(build_alignment_circuit(AlignmentInstance("0110", "01")))
    if abs(toy[0].real - 0.625) > 0.005 or abs(toy[0].imag) > 1e-9:
        failures.append(("toy", toy[0]))
    print(f"  (enumerated {checked} unique-exact-match instances)")
    _verdict(8, "unique exact match ranks first on all R<=8, r<=3; toy amp 0.625", failures)


@pytest.mark.timing
def test_c09_performance_shape():
    failures = []
    depth = bench_depth_scaling((100, 300, 1000, 3000, 10000))
    for kind, fit in depth.fits.items():
        if fit.r_squared < 0.98:
            failures.append((f"depth[{kind}]", fit.r_squared))
        if fit.intercept < -3 * fit.intercept_stderr:
            failures.append((f"depth[{kind}] intercept", fit.intercept))
    if len(depth.fits) != 3:
        failures.append(("depth kinds", len(depth.fits)))
    qubits = bench_qubit_scaling(10, 22)
    for mode, fit in qubits.fits.items():
        if fit.r_squared < 0.95:
            failures.append((f"qubits[{mode}]", fit.r_squared))
    for n, ratio in zip(qubits.values, qubits.notes["skip_over_noskip"]):
        if ratio > 1.10:
            failures.append((f"zero-skip slower at n={n}", ratio))
    _verdict(9, "linear depth fit (R2>=0.98), exponential qubit fit (R2>=0.95), skip wins", failures)


ROUND_TRIP_CORPUS = [
    "version 1.0\nqubits 2\n.bell\nh q[0]\ncnot q[0],q[1]\nmeasure q[0]\nmeasure q[1]\n",
    "version 1.0\nqubits 1\nrx q[0], 1.5708\n",
    "version 1.0\nqubits 2\nry q[1], -2.25\n",
    "version 1.0\nqubits 1\nrz q[0], 3.141592653589793\n",
    "version 1.0\nqubits 1\nrx q[0], 2e-3\n",
    "version 1.0\nqubits 3\ntoffoli q[0],q[1],q[2]\n",
    "version 1.0\nqubits 2\nswap q[0],q[1]\n",
    "version 1.0\nqubits 2\ncz q[0],q[1]\n",
    "version 1.0\nqubits 1\nprep_z q[0]\n",
    "version 1.0\nqubits 1\ny q[0]\nz q[0]\n",
    "version 1.0\nqubits 3\nx q[0]\ny q[1]\nz q[2]\nh q[0]\n",
    "version 1.0\nqubits 2\nx q[0]\ncnot q[0],q[1]\n",
    "version 1.0\nqubits 2\n.alpha\nh q[0]\n.beta\nh q[1]\n.gamma\ncnot q[0],q[1]\n",
    "# leading comment\nversion 1.0\nqubits 1 # trailing\nx q[0] # flip\n",
    "version 1.0\r\nqubits 2\r\nh q[0]\r\ncnot q[0],q[1]\r\n",
    "version 1.0\n\nqubits 2\n\n\nh q[1]\n\n",
    "version 1.0\nqubits 4\nh q[0]\ncnot q[0],q[1]\ncnot q[1],q[2]\ncnot q[2],q[3]\n",
    "version 1.0\nqubits 1\nrx q[0], 0.1\nry q[0], 0.2\nrz q[0], 0.30000000000000004\n",
    "version 1.0\nqubits 1\n" + "x q[0]\n" * 25,
    "VERSION 1.0\nQUBITS 2\nH q[0]\nCNOT q[0],q[1]\n",
    "version 1.0\nqubits 5\n.load\nx q[0]\nx q[2]\n.mix\nh q[1]\ntoffoli q[0],q[2],q[4]\nswap q[1],q[3]\ncz q[0],q[4]\nrx q[2], -0.75\nry q[3], 0.5\nrz q[4], 6.1\nprep_z q[1]\nmeasure q[0]\n",
]


def test_c10_toolchain_round_trip(tmp_path):
    failures = []
    covered = set()
    for i, text in enumerate(ROUND_TRIP_CORPUS):
        try:
            program = parse(text)
            covered.update(g.kind for g in program.instructions)
            once = parse(emit(program))
            twice = parse(emit(once))
            if not (program == once == twice):
                failures.append((i, "round trip not structural identity"))
        except Exception as exc:  # noqa: BLE001 - report, don't abort
            failures.append((i, repr(exc)))
    if len(ROUND_TRIP_CORPUS) < 20:
        failures.append(("corpus too small", len(ROUND_TRIP_CORPUS)))
    missing = set(GateKind) - covered
    if missing:
        failures.append(("mnemonics not covered", missing))

    bell = tmp_path / "bell.qasm"
    bell.write_text(ROUND_TRIP_CORPUS[0])
    first = run_file(bell, shots=300, seed=424242, persist=False).record
    second = run_file(bell, shots=300, seed=424242, persist=False).record
    if first.metrics != second.metrics or first.final_states != second.final_states:
        failures.append(("cli_run not reproducible",))
    if first.run_id == second.run_id:
        failures.append(("run ids must differ",))
    _verdict(10, ">=20-program round-trip corpus; seeded runs reproducible", failures)
