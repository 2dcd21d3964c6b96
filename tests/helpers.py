"""Shared test utilities: random circuits, state comparisons and the exact
noisy reference."""

from __future__ import annotations

import numpy as np

from qaccel import gates
from qaccel.cqasm import Kernel, Program
from qaccel.gates import GateInstance, GateKind, run_circuit
from qaccel.statecore import StateVector
from qaccel.tensor_oracle import gate_matrix

UNITARY_1Q = (
    GateKind.X,
    GateKind.Y,
    GateKind.Z,
    GateKind.H,
    GateKind.RX,
    GateKind.RY,
    GateKind.RZ,
)
UNITARY_2Q = (GateKind.CNOT, GateKind.CPHASE, GateKind.SWAP)
UNITARY_3Q = (GateKind.TOFFOLI,)


def random_circuit(rng, n, max_gates=20, min_gates=1) -> list[GateInstance]:
    """Random unitary-only circuit over the full gate set that fits n qubits."""
    pool = list(UNITARY_1Q)
    if n >= 2:
        pool += list(UNITARY_2Q)
    if n >= 3:
        pool += list(UNITARY_3Q)
    ops = []
    for _ in range(int(rng.integers(min_gates, max_gates + 1))):
        kind = pool[int(rng.integers(len(pool)))]
        qubits = tuple(int(q) for q in rng.choice(n, size=kind.arity, replace=False))
        angle = float(rng.uniform(-2 * np.pi, 2 * np.pi)) if kind.takes_angle else None
        ops.append(GateInstance(kind, qubits, angle))
    return ops


def make_program(n, instructions, name=None) -> Program:
    return Program("1.0", n, (Kernel(name, tuple(instructions)),))


def engine_state(n, instructions, zero_skip=True) -> np.ndarray:
    """Final amplitude vector of the mapping-function engine's pass, or,
    with ``zero_skip=False``, of its no-skip replay (:func:`reference_pass`)."""
    state = run_circuit(n, instructions)[0] if zero_skip else reference_pass(n, instructions)
    return state.live.copy()


def reference_pass(n, instructions, batch=None) -> StateVector:
    """``run_circuit``'s pass over unitary gates, replayed through the no-skip
    reference: the items it applies (``gates._lowered``, fused at
    ``gates.SCAN_MIN_QUBITS`` qubits or more), each through
    ``gates.apply_gate(..., zero_skip=False)``."""
    state = StateVector(n, batch)
    for item in gates._lowered(instructions, n, n >= gates.SCAN_MIN_QUBITS):
        gates.apply_gate(state, item, zero_skip=False)
    return state


def random_state(rng, n) -> np.ndarray:
    """Haar-ish random normalized amplitude vector."""
    vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return vec / np.linalg.norm(vec)


def undo_layout_permutation(mapped_amps, final_layout, n_virtual) -> np.ndarray:
    """Express a mapped run's state over the original virtual qubits.

    Physical qubits never assigned a virtual state must be |0>; that is
    asserted by the caller via the returned residual mass.
    """
    n_phys = final_layout.n_physical
    v2p = final_layout.v2p[:n_virtual]
    y = np.arange(1 << n_phys)
    x = np.zeros_like(y)
    for v, node in enumerate(v2p):
        x |= ((y >> node) & 1) << v
    extra_nodes = [p for p in range(n_phys) if p not in v2p]
    extra = np.zeros_like(y, dtype=bool)
    for node in extra_nodes:
        extra |= ((y >> node) & 1) == 1
    leak = float(np.abs(mapped_amps[extra]).max()) if extra.any() else 0.0
    virt = np.zeros(1 << n_virtual, dtype=complex)
    keep = ~extra
    virt[x[keep]] = mapped_amps[keep]
    return virt, leak


def density_matrix(n, instructions, p) -> np.ndarray:
    """The exact density matrix of a run at depolarizing rate p, n <= 6.

    Each gate acts as U rho U^dagger (U from ``tensor_oracle.gate_matrix``),
    then each of its operands goes through the channel
    (1-p) rho + (p/3)(X rho X + Y rho Y + Z rho Z); ``measure`` dephases its
    qubit and ``prep_z`` resets it to |0>, each without noise.  Shares no
    arithmetic with ``gates`` or ``trajectories``.
    """
    assert n <= 6, f"density_matrix takes at most 6 qubits, got {n}"
    dim = 1 << n
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    bits = np.arange(dim)
    for g in instructions:
        if g.kind in (GateKind.MEASURE, GateKind.PREP_Z):
            (q,) = g.qubits
            one = (bits >> q) & 1 == 1
            zero = ~one
            if g.kind is GateKind.MEASURE:  # drops the coherences between q's values
                rho = rho * (np.outer(zero, zero) | np.outer(one, one))
            else:  # Kraus operators |0><0| and |0><1| on q
                flip = gate_matrix(GateInstance(GateKind.X, (q,)), n)
                rho = rho * np.outer(zero, zero) + flip @ (rho * np.outer(one, one)) @ flip
            continue
        u = gate_matrix(g, n)
        rho = u @ rho @ u.conj().T
        for q in g.qubits:
            paulis = [gate_matrix(GateInstance(kind, (q,)), n)
                      for kind in (GateKind.X, GateKind.Y, GateKind.Z)]
            rho = (1 - p) * rho + (p / 3) * sum(m @ rho @ m.conj().T for m in paulis)
    return rho
