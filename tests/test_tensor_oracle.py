"""Dense-oracle correctness: kron, gate embedding, simulation, H-tensor."""

import math

import numpy as np
import pytest

from helpers import engine_state, make_program, random_circuit
from qaccel.errors import CapacityError
from qaccel.gates import GateInstance, GateKind, gate
from qaccel.tensor_oracle import (
    dense_simulate,
    gate_matrix,
    hadamard_tensor_check,
    kron,
    simulate_instructions,
)

S = 1 / math.sqrt(2)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
H = np.array([[S, S], [S, -S]], dtype=complex)
I2 = np.eye(2, dtype=complex)

# 4x4 block expansion of X (x) Y
X_KRON_Y = np.array(
    [[0, 0, 0, -1j],
     [0, 0, 1j, 0],
     [0, -1j, 0, 0],
     [1j, 0, 0, 0]],
    dtype=complex,
)


class TestKron:
    def test_x_kron_y_matches_published_matrix(self):
        np.testing.assert_array_equal(kron(X, Y), X_KRON_Y)

    def test_column_vectors(self):
        a = np.array([[2.0], [3.0]])
        b = np.array([[5.0], [7.0], [11.0]])
        expected = np.array([[10.0], [14.0], [22.0], [15.0], [21.0], [33.0]])
        np.testing.assert_array_equal(kron(a, b), expected)

    def test_identity_kron_identity(self):
        np.testing.assert_array_equal(kron(I2, I2), np.eye(4))

    def test_associativity_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = rng.integers(-3, 4, size=(2, 3)).astype(complex)
            b = rng.integers(-3, 4, size=(3, 2)).astype(complex)
            c = rng.integers(-3, 4, size=(2, 2)).astype(complex)
            np.testing.assert_array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))

    def test_mixed_product_property(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a, c = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(2))
            b, d = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2))
            left = kron(a, b) @ kron(c, d)
            right = kron(a @ c, b @ d)
            assert np.abs(left - right).max() <= 1e-12

    def test_dimension_cap(self):
        big = np.eye(1 << 7, dtype=complex)
        with pytest.raises(CapacityError):
            kron(big, big)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            kron(np.zeros((0, 0)), I2)


class TestGateMatrix:
    def test_x_on_single_qubit(self):
        np.testing.assert_array_equal(gate_matrix(gate("x", 0), 1), X)

    def test_h_on_qubit_zero_of_two(self):
        # qubit 0 is the least significant index bit, hence the second factor
        np.testing.assert_allclose(gate_matrix(gate("h", 0), 2), kron(I2, H), atol=1e-15)

    def test_h_on_qubit_one_of_two(self):
        np.testing.assert_allclose(gate_matrix(gate("h", 1), 2), kron(H, I2), atol=1e-15)

    def test_operand_out_of_range(self):
        with pytest.raises(IndexError):
            gate_matrix(gate("cnot", 0, 2), 2)

    def test_cnot_maps_index_one_to_three(self):
        m = gate_matrix(gate("cnot", 0, 1), 2)
        column = m[:, 1]
        assert column[3] == 1.0 and not column[[0, 1, 2]].any()

    def test_unitarity_all_kinds_and_placements(self):
        rng = np.random.default_rng(7)
        kinds_by_arity = {
            1: [GateKind.X, GateKind.Y, GateKind.Z, GateKind.H, GateKind.RX, GateKind.RY, GateKind.RZ],
            2: [GateKind.CNOT, GateKind.CPHASE, GateKind.SWAP],
            3: [GateKind.TOFFOLI],
        }
        for n in range(1, 5):
            for arity, kinds in kinds_by_arity.items():
                if arity > n:
                    continue
                for kind in kinds:
                    for _ in range(3):
                        qubits = tuple(int(q) for q in rng.choice(n, arity, replace=False))
                        angle = 0.9 if kind.takes_angle else None
                        u = gate_matrix(GateInstance(kind, qubits, angle), n)
                        np.testing.assert_allclose(
                            u @ u.conj().T, np.eye(1 << n), atol=1e-9
                        )

    def test_non_adjacent_operands_match_swap_conjugation(self):
        # embedding by index permutation must equal the definitional form
        direct = gate_matrix(gate("cnot", 0, 2), 3)
        swap12 = gate_matrix(gate("swap", 1, 2), 3)
        adjacent = gate_matrix(gate("cnot", 0, 1), 3)
        np.testing.assert_allclose(direct, swap12 @ adjacent @ swap12, atol=1e-15)

    def test_oracle_cap(self):
        with pytest.raises(CapacityError):
            gate_matrix(gate("x", 0), 13)


class TestDenseSimulate:
    def test_h_on_one_qubit(self):
        program = make_program(1, [gate("h", 0)])
        np.testing.assert_allclose(dense_simulate(program), [S, S], atol=1e-15)

    def test_bell(self):
        program = make_program(2, [gate("h", 0), gate("cnot", 0, 1)])
        np.testing.assert_allclose(dense_simulate(program), [S, 0, 0, S], atol=1e-15)

    def test_h_everywhere_uniform_positive(self):
        program = make_program(2, [gate("h", 0), gate("h", 1)])
        np.testing.assert_allclose(dense_simulate(program), [0.5] * 4, atol=1e-15)

    def test_rejects_measure(self):
        program = make_program(1, [gate("measure", 0)])
        with pytest.raises(ValueError):
            dense_simulate(program)

    def test_rejects_prep_z(self):
        with pytest.raises(ValueError):
            simulate_instructions(1, [gate("prep_z", 0)])

    def test_qubit_cap(self):
        with pytest.raises(CapacityError):
            simulate_instructions(13, [gate("x", 0)])


class TestHadamardTensorCheck:
    def test_single_qubit_one(self):
        np.testing.assert_allclose(hadamard_tensor_check(1, 1), [S, -S], atol=1e-15)

    def test_two_qubit_zero(self):
        np.testing.assert_allclose(hadamard_tensor_check(2, 0), [0.5] * 4, atol=1e-15)

    def test_two_qubit_three(self):
        np.testing.assert_allclose(
            hadamard_tensor_check(2, 3), [0.5, -0.5, -0.5, 0.5], atol=1e-15
        )

    @pytest.mark.parametrize("a", [-1, 4])
    def test_basis_index_out_of_range(self, a):
        with pytest.raises(ValueError, match="out of range"):
            hadamard_tensor_check(2, a)

    def test_matches_dense_simulation(self):
        for n in range(1, 5):
            for a in range(1 << n):
                ops = [gate("x", q) for q in range(n) if (a >> q) & 1]
                ops += [gate("h", q) for q in range(n)]
                state = simulate_instructions(n, ops)
                np.testing.assert_allclose(
                    state, hadamard_tensor_check(n, a), atol=1e-12
                )


class TestOracleAgainstEngine:
    def test_small_random_circuits_agree(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            ops = random_circuit(rng, n, max_gates=12)
            oracle = simulate_instructions(n, ops)
            fast = engine_state(n, ops)
            assert np.abs(oracle - fast).max() <= 1e-9
