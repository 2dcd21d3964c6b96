"""Seeded store lines of programs, pinned by digest.

A static program measures each qubit only at its end and has no prep_z, so
its record is one noiseless pass, its sampled readout and, for a noisy run,
its batches of trajectories; two pinned programs also reset qubits with
prep_z.  These lines must not move when the runner or the engine changes:
each test compares the sha256 of a store line, less its ``run_id``,
``timestamp`` and ``wall_time_ns``, with the digest recorded when the test
was written (numpy 2.4.6 on x86-64).
"""

import hashlib
import json

import numpy as np
import pytest

from helpers import make_program
from qaccel.cqasm import Program, emit, parse
from qaccel.gates import gate
from qaccel.harness.cli import main
from qaccel.harness.runner import run_program

BELL = "version 1.0\nqubits 2\n.bell\nh q[0]\ncnot q[0],q[1]\nmeasure q[0]\nmeasure q[1]\n"


def _dense_14() -> Program:
    """A sparse prefix of signed permutations and one H, then two layers of
    H, RY, CNOT and TOFFOLI, then a measure on every qubit."""
    n, rng = 14, np.random.default_rng(14)
    ops = [gate("x", 0), gate("cnot", 0, 1), gate("toffoli", 0, 1, 2), gate("h", 3),
           gate("cnot", 3, 4)]
    for _ in range(2):
        ops += [gate("h", q) for q in range(n)]
        ops += [gate("ry", q, angle=float(rng.uniform(-np.pi, np.pi))) for q in range(n)]
        ops += [gate("cnot", int(a), int(b)) for a, b in rng.permutation(n).reshape(-1, 2)]
        ops.append(gate("toffoli", *(int(q) for q in rng.choice(n, 3, replace=False))))
    return make_program(n, ops + [gate("measure", q) for q in range(n)])


def _mirror_8() -> Program:
    """Two random layers on 8 qubits, then their exact inverse."""
    n, rng = 8, np.random.default_rng(8)
    forward = []
    for _ in range(2):
        for q in range(n):
            kind = ("h", "rx", "ry", "rz")[int(rng.integers(4))]
            forward.append(gate(kind, q) if kind == "h"
                           else gate(kind, q, angle=float(rng.uniform(-3, 3))))
        forward += [gate(("cnot", "cz", "swap")[int(rng.integers(3))], int(a), int(b))
                    for a, b in rng.permutation(n).reshape(-1, 2)]
        forward.append(gate("toffoli", *(int(q) for q in rng.choice(n, 3, replace=False))))
    inverse = [g if g.angle is None else gate(g.kind, *g.qubits, angle=-g.angle)
               for g in reversed(forward)]
    return make_program(n, forward + inverse)


def _layers_12() -> Program:
    """Two layers of H, RY and CNOT on 12 qubits, then a measure on each."""
    n, rng = 12, np.random.default_rng(12)
    ops = []
    for _ in range(2):
        ops += [gate("h", q) for q in range(n)]
        ops += [gate("ry", q, angle=float(rng.uniform(-np.pi, np.pi))) for q in range(n)]
        ops += [gate("cnot", int(a), int(b)) for a, b in rng.permutation(n).reshape(-1, 2)]
    return make_program(n, ops + [gate("measure", q) for q in range(n)])


def _sparse_then_dense(n: int, seed: int, reset: bool = False) -> Program:
    """H gates on qubit 0 around two CNOTs that cancel a row back to 0, a
    sparse stretch of signed permutations and H on a few qubits (with a
    prep_z in it when ``reset``), then a layer of H, RY and CNOT on every
    qubit and a TOFFOLI, then a measure on every qubit."""
    rng = np.random.default_rng(seed)
    ops = [gate("h", 0), gate("cnot", 0, 1), gate("cnot", 0, 1), gate("h", 0),
           gate("x", 0), gate("h", 1), gate("cnot", 1, 2), gate("toffoli", 0, 2, n - 1),
           gate("h", 3), gate("swap", 3, 4), gate("cz", 1, 4), gate("z", 2),
           gate("cnot", n - 1, 5), gate("h", 6), gate("toffoli", 5, 6, 7)]
    if reset:
        ops += [gate("prep_z", 2), gate("x", 2), gate("cnot", 2, 8)]
    ops += [gate("h", q) for q in range(n)]
    ops += [gate("ry", q, angle=float(rng.uniform(-np.pi, np.pi))) for q in range(n)]
    ops += [gate("cnot", int(a), int(b)) for a, b in rng.permutation(n)[:n - n % 2].reshape(-1, 2)]
    ops.append(gate("toffoli", *(int(q) for q in rng.choice(n, 3, replace=False))))
    return make_program(n, ops + [gate("measure", q) for q in range(n)])


PREP_Z = """version 1.0
qubits 5
h q[0]
cnot q[0], q[1]
ry q[2], 0.7
prep_z q[1]
cnot q[1], q[2]
h q[3]
rx q[4], 1.3
prep_z q[3]
cz q[0], q[4]
h q[1]
measure q[0]
measure q[1]
measure q[2]
measure q[3]
measure q[4]
"""


def _digest(program: Program, tmp_path, **kwargs) -> str:
    store = tmp_path / "runs.jsonl"
    run_program(program, store_path=store, **kwargs)
    (line,) = store.read_text(encoding="utf-8").splitlines()
    data = json.loads(line)
    assert json.dumps(data) == line  # the line is json.dumps's default form
    for key in ("run_id", "timestamp", "wall_time_ns"):
        del data[key]
    return hashlib.sha256(json.dumps(data).encode("utf-8")).hexdigest()


#: (program, run_program keywords, digest of its store line).
PINNED = {
    "bell": (parse(BELL), {"seed": 1},
             "bd4d9fe7fa424263d22129858ed122f34cae8a6e909b772d57d36a376c618a2e"),
    "fused_sparse_and_strided": (
        _dense_14(), {"seed": 2},
        "775dcb67fab61edbcd99ea2ae9433715bc30f7bb77bc0d9c241049ebff249b0c"),
    "routed_mirror": (
        _mirror_8(), {"seed": 3, "topology": "grid:3x3"},
        "2734e2f117e16ebb18bfb0a6cc23568428291ef19bd2f7dd5adc7e9d72f21e57"),
    "noisy": (
        _mirror_8(), {"seed": 4, "topology": "grid:3x3", "noise_p": 0.01, "shots": 200},
        "dded5e039b814c38e11e1c9739bd245b1c735941f5829927f838c3a8385b5b21"),
    # noisy runs whose trajectories span several groups and batches
    "noisy_groups": (
        _mirror_8(), {"seed": 5, "topology": "grid:3x3", "noise_p": 0.05, "shots": 400},
        "28bebb2bede3c87bb8e4ce7dfc135b7c6fd1cf6d52fef8a6c13ed7f9cb934f15"),
    "noisy_12": (_layers_12(), {"seed": 6, "noise_p": 0.01, "shots": 200},
                 "f27dfc49cb09c338a66bdcd81622048ebe958e8e5b34d9ad5d224c102f356957"),
    # its recorded fidelity is one of the known wrong answers ROADMAP.md lists for prep_z
    "noisy_prep_z": (parse(PREP_Z), {"seed": 7, "noise_p": 0.01, "shots": 300},
                     "d28a61ad7716d5f750668a65210fbe647ae679b208810d95a12f6ee4664a7ed9"),
    # a sparse state carried gate by gate: in every batch's noiseless
    # state, and through a prep_z that collapses the fused pass's state
    "noisy_14_batches": (
        _sparse_then_dense(14, 14), {"seed": 8, "noise_p": 0.02, "shots": 16},
        "591702834813e244d7e8eb26cf895caa3136b5a65494127318a2fc360543681e"),
    "noisy_16": (
        _sparse_then_dense(16, 16), {"seed": 9, "noise_p": 0.01, "shots": 8},
        "304a1a7117f57d942683670253a32f7e0fcf63357e247caecde4169fa39aaaf7"),
    "sparse_dense_prep_z_15": (
        _sparse_then_dense(15, 15, reset=True), {"seed": 10},
        "c3aef0dca7e6ea1a29941600e4f65c788cad63d902c8d39839271020cdfa0ec5"),
}

#: sha256 of ``qaccel map`` stdout for the mirror circuit on grid:3x3.
MAPPED_SHA256 = "ba9316f922ab53ec1ab35026d0c7b7b8bf52aff59934fffb6eef8e4460f66f5f"


@pytest.mark.parametrize("name", PINNED)
def test_static_run_record(name, tmp_path):
    text, kwargs, digest = PINNED[name]
    assert _digest(text, tmp_path, **kwargs) == digest


def test_map_reports_its_mapping(tmp_path, capsys):
    qasm = tmp_path / "mirror.qasm"
    qasm.write_text(emit(_mirror_8()), encoding="utf-8")
    assert main(["map", str(qasm), "--topology", "grid:3x3"]) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == MAPPED_SHA256
    assert captured.err == ("mapping: {'gates_before': 52, 'gates_after': 63, 'added_swaps': 11,"
                            " 'depth_before': 12, 'depth_after': 23}\n")
