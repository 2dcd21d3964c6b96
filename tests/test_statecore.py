"""State allocation, inspection, and the memory-cost model."""

import tracemalloc

import numpy as np
import pytest

from helpers import random_circuit
from qaccel import gate, gates, statecore
from qaccel.errors import CapacityError
from qaccel.gates import apply_gate
from qaccel.statecore import (
    MAX_QUBITS,
    MemoryParams,
    StateVector,
    alloc_state,
    check_capacity,
    check_qubits,
    estimate_matrix_memory,
    estimate_total_memory,
    estimate_vector_memory,
    probabilities,
)

# KiB for n = 2..13, then MiB for n = 14..25, at 8-byte scalars
MEMORY_TABLE_KIB = [0.125, 0.25, 0.5, 1, 2, 4, 8, 16, 32, 64, 128, 256]
MEMORY_TABLE_MIB = [0.5, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]


class TestAllocState:
    def test_single_qubit_ground(self):
        state = alloc_state(1)
        np.testing.assert_array_equal(state.live, [1.0 + 0j, 0.0 + 0j])

    def test_two_qubit_ground(self):
        state = alloc_state(2)
        assert state.amplitude(0) == 1.0 + 0j
        assert all(state.amplitude(i) == 0j for i in (1, 2, 3))

    def test_over_capacity_names_byte_requirement(self):
        with pytest.raises(CapacityError) as err:
            alloc_state(31)
        assert str(8 * 2 ** (31 + 2)) in str(err.value)

    @pytest.mark.parametrize("n", [5000, 20000])
    def test_a_huge_register_names_its_need_as_a_power_of_two(self, n):
        # 2^20005 has more digits than Python turns into a string
        with pytest.raises(CapacityError, match=rf"would need 2\^{n + 5} bytes$"):
            StateVector(n)

    def test_range_check_is_constant_in_time_and_memory(self):
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                check_qubits(10**8)  # the integer 2^(10^8 + 5) alone is about 12 MiB
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10
        # a 20-digit count is past what a shift can build: a refusal, not an OverflowError
        with pytest.raises(CapacityError, match=r"need 2\^100000000000000000004 bytes$"):
            StateVector(99999999999999999999)

    @pytest.mark.parametrize("n, figure", [(58, "9223372036854775808"), (59, "2^64"),
                                           (20000, "2^20005")])
    def test_refusal_names_the_double_buffer_as_an_int_below_2_to_the_64(self, n, figure):
        with pytest.raises(CapacityError) as err:
            check_capacity(n)
        assert str(err.value) == (f"qubit count {n} outside supported range 1..30: "
                                  f"double-buffered state would need {figure} bytes")

    def test_refuses_register_beyond_physical_memory(self, monkeypatch):
        monkeypatch.setattr(statecore, "physical_memory_bytes", lambda: 1 << 20)
        with pytest.raises(CapacityError, match="physical memory"):
            StateVector(15)  # 1 MiB of buffers plus the kernel scratch and scan
        assert StateVector(14).n == 14
        monkeypatch.setattr(statecore, "physical_memory_bytes", lambda: None)
        assert StateVector(15).n == 15

    def test_capacity_check_counts_the_batch(self, monkeypatch):
        monkeypatch.setattr(statecore, "physical_memory_bytes", lambda: 1 << 20)
        assert StateVector(10).n == 10  # 58 KiB at its peak
        assert StateVector(10, 16).live.shape == (1 << 10, 16)  # 793 KiB, one chunk
        with pytest.raises(CapacityError, match="17 trajectories"):
            StateVector(10, 17)  # 1338 KiB, with three chunks of kernel scratch
        with pytest.raises(ValueError):
            StateVector(10, 0)

    def test_a_copy_into_columns_is_admitted_as_a_batch(self, monkeypatch):
        monkeypatch.setattr(statecore, "physical_memory_bytes", lambda: 1 << 20)
        state = StateVector(10)
        assert state.copy(16).live.shape == (1 << 10, 16)
        with pytest.raises(CapacityError, match="17 trajectories"):
            state.copy(17)
        with pytest.raises(ValueError, match="batch must be >= 1"):
            state.copy(0)

    def test_batch_memory_model(self):
        for batch in (1, 3, 200):
            params = MemoryParams(9, batch=batch)
            assert estimate_vector_memory(params) == batch * 16 << 9
            assert estimate_total_memory(params) == 2 * estimate_vector_memory(params)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_non_positive_rejected(self, bad):
        with pytest.raises(CapacityError):
            alloc_state(bad)

    def test_parity_starts_even(self):
        state = alloc_state(3)
        assert state.parity == 0
        assert state.live is state.buf_even


class TestMemoryModel:
    @pytest.mark.parametrize(
        "n,expected",
        [(10, 16384), (1, 32), (25, 536870912)],
    )
    def test_vector_memory(self, n, expected):
        assert estimate_vector_memory(MemoryParams(n)) == expected

    @pytest.mark.parametrize(
        "n,expected",
        [(2, 128), (13, 262144), (20, 33554432)],
    )
    def test_total_memory(self, n, expected):
        assert estimate_total_memory(MemoryParams(n)) == expected

    @pytest.mark.parametrize(
        "n,expected",
        [(1, 64), (2, 256), (10, 2 * 8 * 2**20)],
    )
    def test_matrix_memory(self, n, expected):
        assert estimate_matrix_memory(MemoryParams(n)) == expected

    def test_total_reproduces_published_table(self):
        for n, kib in zip(range(2, 14), MEMORY_TABLE_KIB):
            assert estimate_total_memory(MemoryParams(n)) / 1024 == kib
        for n, mib in zip(range(14, 26), MEMORY_TABLE_MIB):
            assert estimate_total_memory(MemoryParams(n)) / 2**20 == mib

    def test_total_is_twice_vector(self):
        for n in range(1, 31):
            for width in (4, 8, 16):
                params = MemoryParams(n, width)
                assert estimate_total_memory(params) == 2 * estimate_vector_memory(params)

    def test_matrix_to_vector_ratio_is_two_to_n(self):
        for n in range(1, 21):
            for width in (4, 8, 16):
                params = MemoryParams(n, width)
                ratio = estimate_matrix_memory(params) / estimate_vector_memory(params)
                assert ratio == 2**n

    @pytest.mark.parametrize("kind, qubits, angle", [
        ("x", (5,), None), ("z", (5,), None), ("cnot", (2, 9), None),
        ("toffoli", (1, 7, 12), None), ("h", (5,), None), ("ry", (5,), 0.7)])
    def test_the_no_skip_reference_holds_about_four_buffers_more(self, kind, qubits, angle):
        # estimate_peak_memory's docstring: at most 4.25 buffers of 16 * 2^n
        # bytes on top of the state, on a dense register
        n, g = 14, gate(kind, *qubits, angle=angle)
        state = StateVector(n)
        for q in range(n):
            apply_gate(state, gate("h", q))
        apply_gate(state, g, zero_skip=False)  # its table and layout
        tracemalloc.start()
        try:
            apply_gate(state, g, zero_skip=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4.25 * (16 << n)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            MemoryParams(0)
        with pytest.raises(ValueError):
            MemoryParams(3, 7)


class TestInspection:
    def test_amplitude_ground(self):
        state = alloc_state(2)
        assert state.amplitude(0) == 1.0 + 0j
        assert state.amplitude(3) == 0j

    def test_amplitude_out_of_range(self):
        with pytest.raises(IndexError):
            alloc_state(2).amplitude(4)
        with pytest.raises(IndexError):
            alloc_state(2).amplitude(-1)

    def test_probabilities_ground(self):
        np.testing.assert_array_equal(probabilities(alloc_state(1).live), [1.0, 0.0])

    def test_probabilities_after_h(self):
        state = alloc_state(1)
        apply_gate(state, gate("h", 0))
        np.testing.assert_allclose(probabilities(state.live), [0.5, 0.5], atol=1e-15)

    def test_probabilities_bell(self):
        state = alloc_state(2)
        apply_gate(state, gate("h", 0))
        apply_gate(state, gate("cnot", 0, 1))
        np.testing.assert_allclose(probabilities(state.live), [0.5, 0, 0, 0.5], atol=1e-12)

    def test_probabilities_of_a_batch_view_match_each_column(self):
        state = StateVector(2, 3)
        state.live[:] = np.arange(12).reshape(4, 3) * (0.1 + 0.2j)
        columns = [probabilities(state.live[:, j]) for j in range(3)]
        np.testing.assert_array_equal(state.probabilities(), np.stack(columns, axis=1))

    def test_amplitude_leaves_state_unchanged(self):
        state = alloc_state(2)
        before = state.live.copy()
        state.amplitude(2)
        np.testing.assert_array_equal(state.live, before)


class TestBufferInvariants:
    def test_norm_and_dead_buffer_after_random_gates(self):
        # zero-skipping passes (strided here) and no-skip reference passes
        # in random order; a copy's dead buffer is a new calloc'd +0 array
        rng, skips = np.random.default_rng(11), np.random.default_rng(12)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            state = alloc_state(n)
            for g in random_circuit(rng, n, max_gates=12):
                zero_skip = bool(skips.integers(2))
                apply_gate(state, g, zero_skip=zero_skip)
                assert abs(state.norm_squared() - 1.0) <= 1e-9
            assert not state.copy().dead.view(np.uint64).any()

    def test_reset_ground(self):
        state = alloc_state(2)
        apply_gate(state, gate("h", 0))
        written = state.live.tobytes()
        state.reset_ground()
        assert state.parity == 0
        np.testing.assert_array_equal(state.live, [1, 0, 0, 0])
        assert state.dead.tobytes() == written  # a reset writes only the buffer it makes live

    def test_copy_is_deep(self):
        state = alloc_state(1)
        dup = state.copy()
        apply_gate(state, gate("x", 0))
        np.testing.assert_array_equal(dup.live, [1, 0])

    @pytest.mark.parametrize("dense", [False, True])
    def test_a_copy_holds_the_bytes_the_hints_and_the_scratch(self, dense):
        n = 15  # past one chunk, so the state holds scratch
        state = StateVector(n)
        for q in range(n if dense else 3):
            apply_gate(state, gate("h", q))
        gates._carry(state)
        assert state.dense == dense and (state.support is None) == dense
        before = state.live.tobytes()
        for width in (None, 3):
            dup = state.copy(width)
            columns = state.live if width is None else np.repeat(state.live[:, None], width, 1)
            assert dup.batch == width and dup.live.tobytes() == columns.tobytes()
            assert dup.dense == dense and dup.scratch is state.scratch
            if dense:
                assert dup.support is None
            else:
                assert np.array_equal(dup.support, state.support)
            assert dup.dead.shape == dup.live.shape and not dup.dead.view(np.uint64).any()
            dup.live[:] = 0
            assert state.live.tobytes() == before
        batch = StateVector(2, 2)
        apply_gate(batch, gate("x", 0), columns=np.array([1]))
        assert batch.copy(3).live.tobytes() == np.repeat(batch.live, 3, 1).tobytes()

    def test_from_amplitudes_needs_a_power_of_two(self):
        with pytest.raises(ValueError, match="not a power of two"):
            StateVector.from_amplitudes(np.array([0.6, 0.8, 0.0]))

    def test_from_amplitudes_checks_normalization(self):
        with pytest.raises(ValueError):
            StateVector.from_amplitudes(np.array([1.0, 1.0]))
        state = StateVector.from_amplitudes(np.array([0.6, 0.8j]))
        assert state.n == 1

    @pytest.mark.parametrize("amps", [[np.nan, 0], [1, np.nan], [np.inf, 0], [1, 1j * np.nan]])
    def test_from_amplitudes_rejects_non_finite(self, amps):
        with pytest.raises(ValueError, match="finite"):
            StateVector.from_amplitudes(np.array(amps, complex))

    def test_from_amplitudes_stores_negative_zero_as_positive(self):
        amps = np.array([complex(-0.0, -0.0), complex(0.6, -0.0), complex(-0.0, 0.8), -0.0])
        state = StateVector.from_amplitudes(amps)
        assert state.live.view(np.uint64).tolist() == np.array(
            [0, 0.6, 0.8j, 0]).view(np.uint64).tolist()

    def test_max_qubits_constant(self):
        assert MAX_QUBITS == 30
