"""Dense Kronecker-product reference simulator.

Deliberately naive ground truth for the mapping-function engine: every gate
is materialized as a full 2^n x 2^n unitary and applied by a matrix-vector
product.  Capped at 12 qubits so a single matrix stays under 300 MB.

This module keeps its own gate-matrix table so the two simulation routes
share no arithmetic.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import CapacityError
from .gates import GateInstance, GateKind

if TYPE_CHECKING:  # pragma: no cover
    from .cqasm import Program

MAX_ORACLE_QUBITS = 12
MAX_KRON_DIM = 1 << 12

_S = 1.0 / math.sqrt(2.0)

_MATRIX_1Q = {
    GateKind.X: np.array([[0, 1], [1, 0]], dtype=complex),
    GateKind.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    GateKind.Z: np.array([[1, 0], [0, -1]], dtype=complex),
    GateKind.H: np.array([[_S, _S], [_S, -_S]], dtype=complex),
}

# Operand-subspace matrices index the t-th listed operand as bit t of the
# sub-index, matching the engine's qubit-0-least-significant convention.
_CNOT_SUB = np.array(
    [[1, 0, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0],
     [0, 1, 0, 0]],
    dtype=complex,
)
_CZ_SUB = np.diag([1, 1, 1, -1]).astype(complex)
_SWAP_SUB = np.array(
    [[1, 0, 0, 0],
     [0, 0, 1, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1]],
    dtype=complex,
)
_TOFFOLI_SUB = np.eye(8, dtype=complex)
_TOFFOLI_SUB[3, 3] = _TOFFOLI_SUB[7, 7] = 0
_TOFFOLI_SUB[7, 3] = _TOFFOLI_SUB[3, 7] = 1


def base_unitary(g: GateInstance) -> np.ndarray:
    """The gate's matrix on its own operand subspace (2^arity square)."""
    kind = g.kind
    if kind in _MATRIX_1Q:
        return _MATRIX_1Q[kind]
    if kind is GateKind.RX:
        c, s = math.cos(g.angle / 2), math.sin(g.angle / 2)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if kind is GateKind.RY:
        c, s = math.cos(g.angle / 2), math.sin(g.angle / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind is GateKind.RZ:
        half = g.angle / 2
        return np.diag([complex(math.cos(half), -math.sin(half)),
                        complex(math.cos(half), math.sin(half))])
    if kind is GateKind.CNOT:
        return _CNOT_SUB
    if kind is GateKind.CPHASE:
        return _CZ_SUB
    if kind is GateKind.SWAP:
        return _SWAP_SUB
    if kind is GateKind.TOFFOLI:
        return _TOFFOLI_SUB
    raise ValueError(f"{kind.mnemonic} has no unitary matrix")


def _check_size(n: int) -> None:
    """Refuse registers beyond the oracle's cap."""
    if n > MAX_ORACLE_QUBITS:
        raise CapacityError(f"oracle supports at most {MAX_ORACLE_QUBITS} qubits, got {n}")


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product [A_11 B ... ; ... ; A_n1 B ...] of two dense matrices."""
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    b = np.atleast_2d(np.asarray(b, dtype=complex))
    if a.size == 0 or b.size == 0:
        raise ValueError("kron operands must be non-empty")
    rows = a.shape[0] * b.shape[0]
    cols = a.shape[1] * b.shape[1]
    if rows > MAX_KRON_DIM or cols > MAX_KRON_DIM:
        raise CapacityError(
            f"kron result {rows}x{cols} exceeds the {MAX_KRON_DIM}x{MAX_KRON_DIM} cap"
        )
    return np.kron(a, b)


def gate_matrix(g: GateInstance, n: int) -> np.ndarray:
    """Embed a gate into the full 2^n x 2^n space under the LSB-first ordering.

    Non-adjacent operands are handled by permuting basis indices: the full
    matrix entry (i, j) is the operand-subspace entry for the operand bits
    of i and j whenever the remaining bits agree, else zero.
    """
    _check_size(n)
    if any(q >= n for q in g.qubits):
        raise IndexError(f"operands {g.qubits} out of range for {n} qubits")
    u = base_unitary(g)
    if not np.allclose(u @ u.conj().T, np.eye(u.shape[0]), atol=1e-9):
        raise AssertionError(f"base matrix for {g.kind.mnemonic} is not unitary")

    k = len(g.qubits)
    rest = [q for q in range(n) if q not in g.qubits]
    dim = 1 << n
    all_idx = np.arange(dim)
    op_pat = np.zeros(dim, dtype=np.intp)
    for t, q in enumerate(g.qubits):
        op_pat |= ((all_idx >> q) & 1) << t
    rest_pat = np.zeros(dim, dtype=np.intp)
    for t, q in enumerate(rest):
        rest_pat |= ((all_idx >> q) & 1) << t

    # std_for[p, j] = full-space index whose operand bits spell p and
    # remaining bits spell j
    std_for = np.empty((1 << k, 1 << len(rest)), dtype=np.intp)
    std_for[op_pat, rest_pat] = all_idx

    full = np.zeros((dim, dim), dtype=complex)
    for col in range(1 << k):
        for row in range(1 << k):
            v = u[row, col]
            if v != 0:
                full[std_for[row], std_for[col]] = v
    return full


def dense_simulate(program: "Program") -> np.ndarray:
    """Ground state driven through the program's gates by full matrix products."""
    return simulate_instructions(program.n, program.instructions)


def simulate_instructions(n: int, instructions: Iterable[GateInstance]) -> np.ndarray:
    """Ground state driven through a bare instruction sequence by full matrix products."""
    _check_size(n)
    state = np.zeros(1 << n, dtype=complex)
    state[0] = 1.0
    for g in instructions:
        if not g.kind.is_unitary:
            raise ValueError(f"dense oracle cannot execute {g.kind.mnemonic}")
        state = gate_matrix(g, n) @ state
    return state


def hadamard_tensor_check(n: int, a: int) -> np.ndarray:
    """Predicted amplitudes of H applied to every qubit of basis state |a>.

    Amplitude of |b> is (-1)^(a.b) / sqrt(2^n) where a.b counts shared set
    bits modulo 2.
    """
    _check_size(n)
    if not 0 <= a < (1 << n):
        raise ValueError(f"basis index {a} out of range for {n} qubits")
    b = np.arange(1 << n)
    signs = np.where(np.bitwise_count(a & b) % 2 == 0, 1.0, -1.0)
    return signs / math.sqrt(2.0**n)
