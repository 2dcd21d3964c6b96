"""Mapping-function gate semantics, measurement, sampling, and noise."""

import contextlib
import functools
import math

import numpy as np
import pytest

from helpers import engine_state, random_circuit, reference_pass
from qaccel import gates, statecore, trajectories
from qaccel.gates import (
    GateInstance,
    GateKind,
    NoiseConfig,
    apply_depolarizing,
    apply_gate,
    gate,
    measure,
    prep_z,
    run_circuit,
    sample,
)
from qaccel.metrics import fidelity
from qaccel.statecore import StateVector, alloc_state, probabilities
from qaccel.tensor_oracle import base_unitary, gate_matrix, simulate_instructions

S = 1 / math.sqrt(2)


def signed_zero_live(rng, n, support, batch=None):
    """A live buffer (``batch`` columns when given) with ``support`` random
    nonzero rows, a third of them with a -0.0 real part and a third with a
    -0.0 imaginary part (see :func:`keep_signed_zeros`)."""
    columns = []
    for _ in range(batch or 1):
        amps = np.full(1 << n, complex(-0.0, -0.0))
        rows = rng.choice(1 << n, size=support, replace=False)
        amps[rows] = rng.normal(size=support) + 1j * rng.normal(size=support)
        amps.real[rows[::3]] = -0.0
        amps.imag[rows[1::3]] = -0.0
        columns.append(keep_signed_zeros(amps))
    return columns[0] if batch is None else np.stack(columns, axis=1)


def keep_signed_zeros(amps):
    """``amps``, normalized, as a live buffer: the zero entries +0, as
    ``from_amplitudes`` stores them, and the nonzero entries as they are,
    -0.0 parts included, which ``from_amplitudes`` would store as +0.0."""
    amps = amps / np.linalg.norm(amps)
    live = StateVector.from_amplitudes(amps).live
    nonzero = amps != 0
    live[nonzero] = amps[nonzero]
    return live


def fused_block(ops):
    """The block ``_fused`` makes of a run of signed permutation gates, from
    the block cache, which is keyed by each gate's kind and operands."""
    return gates._block(tuple((g.kind, g.qubits) for g in ops))


def block_matrix(block):
    """A fused block's matrix on its subspace, built apart from its table:
    the product of its gates' ``base_unitary`` matrices, each placed on the
    block's qubits by the dense oracle."""
    k = len(block.qubits)
    m = np.eye(1 << k)
    for g in block.gates:
        placed = GateInstance(g.kind, tuple(map(block.qubits.index, g.qubits)), g.angle)
        m = gate_matrix(placed, k) @ m
    return m


def has_negative_zero(state):
    parts = state.live.view(np.float64)
    return bool(np.signbit(parts[parts == 0]).any())


class TestMappingExamples:
    def test_x_maps_zero_to_one(self):
        state = alloc_state(1)
        apply_gate(state, gate("x", 0))
        np.testing.assert_array_equal(state.live, [0, 1])

    def test_h_splits_one_state_into_two(self):
        state = alloc_state(1)
        apply_gate(state, gate("h", 0))
        np.testing.assert_allclose(state.live, [S, S], atol=1e-15)

    def test_h_merges_superposition_back(self):
        # (|00> + |10>)/sqrt(2) with qubit 1 superposed collapses to |00>
        state = alloc_state(2)
        apply_gate(state, gate("h", 1))
        np.testing.assert_allclose(state.live, [S, 0, S, 0], atol=1e-15)
        apply_gate(state, gate("h", 1))
        np.testing.assert_allclose(state.live, [1, 0, 0, 0], atol=1e-15)

    def test_y_adds_i_phase(self):
        state = alloc_state(1)
        apply_gate(state, gate("y", 0))
        np.testing.assert_array_equal(state.live, [0, 1j])

    def test_bell_pair(self):
        state = alloc_state(2)
        apply_gate(state, gate("h", 0))
        apply_gate(state, gate("cnot", 0, 1))
        np.testing.assert_allclose(state.live, [S, 0, 0, S], atol=1e-15)

    def test_z_flips_phase_of_one(self):
        state = alloc_state(1)
        apply_gate(state, gate("x", 0))
        apply_gate(state, gate("z", 0))
        np.testing.assert_array_equal(state.live, [0, -1])

    def test_cz_phase_on_both_ones(self):
        state = alloc_state(2)
        for q in (0, 1):
            apply_gate(state, gate("h", q))
        apply_gate(state, gate("cz", 0, 1))
        np.testing.assert_allclose(state.live, [0.5, 0.5, 0.5, -0.5], atol=1e-15)

    def test_swap_exchanges_bits(self):
        state = alloc_state(2)
        apply_gate(state, gate("x", 0))
        apply_gate(state, gate("swap", 0, 1))
        np.testing.assert_array_equal(state.live, [0, 0, 1, 0])

    def test_toffoli_fires_on_both_controls(self):
        state = alloc_state(3)
        apply_gate(state, gate("x", 0))
        apply_gate(state, gate("x", 1))
        apply_gate(state, gate("toffoli", 0, 1, 2))
        assert state.amplitude(0b111) == 1.0 + 0j


#: Every kind's mnemonic, operand count, angle and whether it is unitary.
KIND_FACTS = [
    (GateKind.X, "x", 1, False, True),
    (GateKind.Y, "y", 1, False, True),
    (GateKind.Z, "z", 1, False, True),
    (GateKind.H, "h", 1, False, True),
    (GateKind.RX, "rx", 1, True, True),
    (GateKind.RY, "ry", 1, True, True),
    (GateKind.RZ, "rz", 1, True, True),
    (GateKind.CNOT, "cnot", 2, False, True),
    (GateKind.CPHASE, "cz", 2, False, True),
    (GateKind.TOFFOLI, "toffoli", 3, False, True),
    (GateKind.SWAP, "swap", 2, False, True),
    (GateKind.PREP_Z, "prep_z", 1, False, False),
    (GateKind.MEASURE, "measure", 1, False, False),
]


class TestGateKindFacts:
    @pytest.mark.parametrize("kind,mnemonic,arity,takes_angle,is_unitary", KIND_FACTS,
                             ids=[row[1] for row in KIND_FACTS])
    def test_facts_and_mnemonic_lookup(self, kind, mnemonic, arity, takes_angle, is_unitary):
        assert kind.value == kind.mnemonic == mnemonic
        assert (kind.arity, kind.takes_angle, kind.is_unitary) == (arity, takes_angle, is_unitary)
        assert GateKind(mnemonic) is kind

    def test_every_kind_is_listed(self):
        assert [row[0] for row in KIND_FACTS] == list(GateKind)


class TestGateInstanceValidation:
    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            GateInstance(GateKind.CNOT, (0,))

    def test_duplicate_operands(self):
        with pytest.raises(ValueError):
            GateInstance(GateKind.CNOT, (1, 1))

    def test_rotation_needs_angle(self):
        with pytest.raises(ValueError):
            GateInstance(GateKind.RX, (0,))

    def test_angle_rejected_elsewhere(self):
        with pytest.raises(ValueError):
            GateInstance(GateKind.X, (0,), 0.5)

    def test_negative_qubit_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            GateInstance(GateKind.CNOT, (0, -1))

    def test_unknown_mnemonic_rejected(self):
        with pytest.raises(ValueError, match="unknown gate mnemonic"):
            gate("nope", 0)

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, angle):
        with pytest.raises(ValueError, match="finite"):
            GateInstance(GateKind.RX, (0,), angle)

    def test_operand_out_of_range_at_apply(self):
        with pytest.raises(IndexError):
            apply_gate(alloc_state(1), gate("x", 1))

    def test_measure_not_a_gate_application(self):
        with pytest.raises(ValueError):
            apply_gate(alloc_state(1), gate("measure", 0))


class TestUnitaryProperties:
    def test_norm_preserved_for_every_kind(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            n = int(rng.integers(3, 6))
            ops = random_circuit(rng, n, max_gates=15)
            state = alloc_state(n)
            for g in ops:
                apply_gate(state, g)
                assert abs(state.norm_squared() - 1.0) <= 1e-9

    def test_involutions_on_random_states(self):
        rng = np.random.default_rng(17)
        squares = [
            gate("x", 0),
            gate("y", 1),
            gate("z", 2),
            gate("h", 0),
            gate("cnot", 0, 1),
            gate("swap", 1, 2),
            gate("toffoli", 0, 1, 2),
        ]
        for _ in range(20):
            prep = random_circuit(rng, 3, max_gates=10)
            for g in squares:
                state = alloc_state(3)
                for p in prep:
                    apply_gate(state, p)
                before = state.live.copy()
                apply_gate(state, g)
                apply_gate(state, g)
                assert np.abs(state.live - before).max() <= 1e-9

    def test_rotation_composition(self):
        rng = np.random.default_rng(23)
        for mnemonic in ("rx", "ry", "rz"):
            for _ in range(10):
                a, b = rng.uniform(-6, 6, size=2)
                prep = random_circuit(rng, 2, max_gates=6)
                state1 = alloc_state(2)
                state2 = alloc_state(2)
                for p in prep:
                    apply_gate(state1, p)
                    apply_gate(state2, p)
                apply_gate(state1, gate(mnemonic, 0, angle=a))
                apply_gate(state1, gate(mnemonic, 0, angle=b))
                apply_gate(state2, gate(mnemonic, 0, angle=a + b))
                assert np.abs(state1.live - state2.live).max() <= 1e-9


class TestZeroSkip:
    def test_bit_identical_with_and_without_skip(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            ops = random_circuit(rng, n, max_gates=20)
            with_skip = engine_state(n, ops, zero_skip=True)
            without = engine_state(n, ops, zero_skip=False)
            assert with_skip.tobytes() == without.tobytes()

    def test_bit_identical_on_sparse_states(self):
        # permutation-heavy circuits keep exact zeros around
        ops = [gate("x", 0), gate("cnot", 0, 1), gate("z", 1), gate("h", 0),
               gate("toffoli", 0, 1, 2), gate("swap", 0, 2), gate("ry", 1, angle=4.0)]
        assert engine_state(3, ops, True).tobytes() == engine_state(3, ops, False).tobytes()

    def test_bit_identical_with_rz_at_sixteen_qubits(self):
        # complex coefficients once rounded differently by array length
        rng = np.random.default_rng(16)
        n = 16
        for _ in range(6):
            ops = []
            for _ in range(24):
                kind = ("h", "rx", "cnot", "rz")[int(rng.integers(4))]
                if kind == "cnot":
                    ops.append(gate(kind, *(int(q) for q in rng.choice(n, 2, replace=False))))
                else:
                    angle = float(rng.uniform(-np.pi, np.pi)) if kind != "h" else None
                    ops.append(gate(kind, int(rng.integers(n)), angle=angle))
            assert engine_state(n, ops, True).tobytes() == engine_state(n, ops, False).tobytes()


class TestKernels:
    """The scatter and the strided kernel, each forced on every gate, against
    the no-skip reference, which scatters every basis state."""

    KERNELS = ("scatter", "strided")

    @classmethod
    def force(cls, monkeypatch, kernel, log=None):
        """Make zero-skip choose ``kernel``; returns live call counts per
        kernel, counting the signed move ``_move`` as the scatter.
        ``log``, when given, gets each kernel call's function name."""
        calls = dict.fromkeys(cls.KERNELS, 0)
        for name, counted_as in (("scatter", "scatter"), ("move", "scatter"),
                                 ("strided", "strided")):
            original = getattr(gates, f"_{name}")

            def counted(*args, _name=name, _as=counted_as, _original=original):
                calls[_as] += 1
                if log is not None:
                    log.append(_name)
                return _original(*args)

            monkeypatch.setattr(gates, f"_{name}", counted)
        scan, fraction = {"scatter": (1, 1.0), "strided": (99, 0.0)}[kernel]
        monkeypatch.setattr(gates, "SCAN_MIN_QUBITS", scan)
        monkeypatch.setattr(gates, "SCATTER_MAX_FRACTION", fraction)
        return calls

    @staticmethod
    def stepwise(n, ops, zero_skip):
        state = StateVector(n)
        for g in ops:
            apply_gate(state, g, zero_skip=zero_skip)
        return state.live.copy()

    @staticmethod
    def sparse_kernels(ops):
        """The sparse kernel each gate should get: the signed move for the
        signed permutation kinds, the term scatter for every other kind."""
        return ["move" if g.kind.mnemonic in TestFusion.SIGNED_KINDS else "scatter" for g in ops]

    def test_kernels_agree_bit_for_bit_and_with_oracle(self, monkeypatch):
        rng = np.random.default_rng(8)
        for _ in range(120):
            n = int(rng.integers(1, 9))
            ops = random_circuit(rng, n, max_gates=20)
            runs = []
            for kernel, zero_skip in (("scatter", True), ("strided", True), ("scatter", False)):
                log = []
                with monkeypatch.context() as patch:
                    calls = self.force(patch, kernel, log)
                    runs.append(self.stepwise(n, ops, zero_skip))
                    assert calls[kernel] == len(ops) and sum(calls.values()) == len(ops)
                assert log == (self.sparse_kernels(ops) if kernel == "scatter"
                               else ["strided"] * len(ops))
            assert runs[0].tobytes() == runs[1].tobytes() == runs[2].tobytes()
            assert np.abs(simulate_instructions(n, ops) - runs[2]).max() <= 1e-9

    @pytest.mark.parametrize("batch", [None, 2])
    def test_sparse_kinds_match_strided_on_signed_zero_inputs(self, monkeypatch, batch):
        # the six signed permutation kinds go to the signed move and every
        # other gate to the term scatter, byte for byte against the strided
        # kernel and the no-skip reference on states built with -0.0 entries
        rng = np.random.default_rng(1010 + (batch or 0))
        for _ in range(40):
            n = int(rng.integers(1, 9))
            columns = []
            for _ in range(batch or 1):
                amps = np.full(1 << n, complex(-0.0, -0.0))
                rows = rng.choice(1 << n, size=max(1, (1 << n) // 4), replace=False)
                amps[rows] = rng.normal(size=rows.size) + 1j * rng.normal(size=rows.size)
                amps[rows[::3]] = complex(-0.0, 1.0)  # signed zeros in nonzero entries
                amps[rows[1::3]] = complex(-0.5, -0.0)
                columns.append(keep_signed_zeros(amps))
            ops = random_circuit(rng, n, max_gates=20, min_gates=10)
            runs = []
            for kernel, zero_skip in (("scatter", True), ("strided", True), ("scatter", False)):
                log = []
                with monkeypatch.context() as patch:
                    self.force(patch, kernel, log)
                    state = StateVector(n, batch)
                    state.live[:] = columns[0] if batch is None else np.stack(columns, axis=1)
                    for g in ops:
                        apply_gate(state, g, zero_skip=zero_skip)
                assert log == (self.sparse_kernels(ops) if kernel == "scatter"
                               else ["strided"] * len(ops))
                parts = state.live.view(np.float64)
                assert not np.signbit(parts[parts == 0]).any()
                runs.append(state.live.tobytes())
            assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("batch", [None, 2])
    def test_signed_permutations_leave_no_negative_zero(self, monkeypatch, batch):
        # in a circuit of signed permutations only, the last gate writes every
        # output, so a kernel that copied its inputs (not adding them to +0)
        # would keep their -0.0 parts; lone gates and blocks alike
        rng = np.random.default_rng(2020 + (batch or 0))
        for _ in range(30):
            n = int(rng.integers(3, 10))
            live = signed_zero_live(rng, n, max(1, (1 << n) // 4), batch)
            ops = TestFusion.signed_circuit(rng, n, 30)
            items = list(gates._fused(ops))
            runs = []
            for kernel, zero_skip in (("scatter", True), ("strided", True), ("scatter", False)):
                for applied in (ops, items):
                    with monkeypatch.context() as patch:
                        self.force(patch, kernel)
                        state = StateVector(n, batch)
                        state.live[:] = live
                        for g in applied:
                            apply_gate(state, g, zero_skip=zero_skip)
                            assert not has_negative_zero(state)
                    runs.append(state.live.tobytes())
            assert runs.count(runs[0]) == len(runs)

    def test_dense_state_stops_scanning_until_reset(self, monkeypatch):
        calls = self.force(monkeypatch, "scatter")
        monkeypatch.setattr(gates, "SCATTER_MAX_FRACTION", 0.25)
        state = StateVector(3)
        for q in (0, 1, 2):
            apply_gate(state, gate("h", q))  # inputs hold 1, 2 and 4 of 8 states
        assert calls == {"scatter": 2, "strided": 1} and state.dense
        assert state.copy().dense
        for q in (0, 1, 2):
            apply_gate(state, gate("h", q))  # back to |000>, still not scanned
        assert calls == {"scatter": 2, "strided": 4}
        state.reset_ground()
        assert not state.dense
        apply_gate(state, gate("x", 0))
        assert calls == {"scatter": 3, "strided": 4}


class TestFusion:
    """Gates fused into blocks in noiseless passes, against the same gates
    applied one at a time: held one-qubit gates multiplied into 2x2 products,
    and runs of signed permutation gates composed into blocks."""

    PERMUTATION_KINDS = ("x", "cnot", "swap", "toffoli")
    OTHER_KINDS = ("h", "ry", "z", "cz")
    SIGNED_KINDS = ("x", "z", "cnot", "cz", "swap", "toffoli")

    @classmethod
    def permutation_heavy(cls, rng, n, count):
        """Mostly X/CNOT/SWAP/TOFFOLI, with H/RY/Z/CZ interleaved."""
        ops = []
        for _ in range(count):
            kinds = cls.PERMUTATION_KINDS if rng.random() < 0.8 else cls.OTHER_KINDS
            kind = kinds[int(rng.integers(len(kinds)))]
            qubits = rng.choice(n, size=gates.MNEMONICS[kind].arity, replace=False)
            angle = float(rng.uniform(-np.pi, np.pi)) if kind == "ry" else None
            ops.append(gate(kind, *(int(q) for q in qubits), angle=angle))
        return ops

    @classmethod
    def signed_circuit(cls, rng, n, count):
        """``count`` gates of the signed permutation kinds."""
        ops = []
        for _ in range(count):
            kind = cls.SIGNED_KINDS[int(rng.integers(len(cls.SIGNED_KINDS)))]
            qubits = rng.choice(n, size=gates.MNEMONICS[kind].arity, replace=False)
            ops.append(gate(kind, *(int(q) for q in qubits)))
        return ops

    @staticmethod
    def stepwise(n, ops, zero_skip, batch=None):
        state = StateVector(n, batch)
        for g in ops:
            apply_gate(state, g, zero_skip=zero_skip)
        return state

    @staticmethod
    def count_blocks(monkeypatch):
        """Record each block that ``apply_gate`` applies: its width, and
        whether the state was dense after it."""
        applied = []
        original = gates.apply_gate

        def counted(state, g, **kwargs):
            original(state, g, **kwargs)
            if len(g.gates) > 1:
                applied.append((len(g.qubits), state.dense))
            return state

        monkeypatch.setattr(gates, "apply_gate", counted)
        return applied

    @staticmethod
    def products(items):
        """The fused one-qubit products among ``_fused`` items (those whose
        matrix is not a signed permutation)."""
        return [i for i in items if isinstance(i, gates._Block) and not i.table.signed]

    @staticmethod
    def expand(items):
        """``_fused`` items back to the gates they apply, in order."""
        return [g for i in items for g in (i.gates if isinstance(i, gates._Block) else (i,))]

    @pytest.mark.parametrize("batch", [None, 2])
    @pytest.mark.parametrize("dense", [False, True])
    def test_fused_runs_match_stepwise_byte_for_byte(self, monkeypatch, dense, batch):
        # byte for byte against the gates one at a time in the fused order
        # unless a one-qubit product forms; in program order within 1e-12,
        # since lone one-qubit gates on different qubits round differently
        # when they swap places
        applied = self.count_blocks(monkeypatch)
        rng = np.random.default_rng(1300 + 2 * dense + (batch or 0))
        kernels = set()
        for n in range(13, 18):
            ops = self.permutation_heavy(rng, n, 40)
            if dense:  # a support of 1/8 of the register marks the state dense
                ops = [gate("h", q) for q in range(n - 3)] + ops
            items = list(gates._fused(ops))
            finals = []
            for zero_skip in (True, False):  # the pass, then its no-skip replay
                del applied[:]
                state = (run_circuit(n, ops, batch=batch)[0] if zero_skip
                         else reference_pass(n, ops, batch))
                if not self.products(items):
                    in_order = self.stepwise(n, self.expand(items), zero_skip, batch)
                    assert state.live.tobytes() == in_order.live.tobytes()
                reference = self.stepwise(n, ops, zero_skip, batch)
                assert np.abs(state.live - reference.live).max() <= 1e-12
                assert applied and all(k <= gates.FUSE_MAX_QUBITS for k, _ in applied)
                finals.append(state.live.tobytes())
                if zero_skip:
                    kernels.update(seen for _, seen in applied)
            assert finals[0] == finals[1]
        # held H gates go out when their qubit is next touched, so in the
        # dense circuits the blocks see sparse states first, then dense ones
        assert kernels == ({False, True} if dense else {False})

    def test_fused_runs_match_the_oracle_on_small_registers(self, monkeypatch):
        applied = self.count_blocks(monkeypatch)
        monkeypatch.setattr(gates, "SCAN_MIN_QUBITS", 3)
        rng = np.random.default_rng(1010)
        for _ in range(40):
            n = int(rng.integers(3, 11))
            ops = self.permutation_heavy(rng, n, 30)
            items = list(gates._fused(ops))
            finals = []
            for zero_skip in (True, False):  # the pass, then its no-skip replay
                state = run_circuit(n, ops)[0] if zero_skip else reference_pass(n, ops)
                if not self.products(items):
                    in_order = self.stepwise(n, self.expand(items), zero_skip).live
                    assert state.live.tobytes() == in_order.tobytes()
                reference = self.stepwise(n, ops, zero_skip).live
                assert np.abs(state.live - reference).max() <= 1e-12
                finals.append(state.live.tobytes())
            assert finals[0] == finals[1]
            assert np.abs(simulate_instructions(n, ops) - state.live).max() <= 1e-9
        assert len(applied) > 100

    def test_blocks_respect_the_qubit_cap(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(3, 18))
            ops = self.permutation_heavy(rng, n, 60)
            items = list(gates._fused(ops))
            blocks = [item for item in items if isinstance(item, gates._Block)]
            assert blocks and all(len(b.qubits) <= gates.FUSE_MAX_QUBITS for b in blocks)

    def test_other_gates_measure_and_prep_z_end_a_block(self):
        # measure and prep_z end a block; H and RZ are held and go out when
        # their qubit is next touched (x(2)) or at the end (rz on q0)
        x, cnot = (lambda q: gate("x", q)), (lambda a, b: gate("cnot", a, b))
        ops = [x(0), cnot(0, 1), gate("h", 2), x(1), x(0), gate("measure", 0), x(2), x(3),
               gate("prep_z", 1), x(1), cnot(1, 2), gate("rz", 0, angle=0.5), x(4)]
        block = fused_block
        assert list(gates._fused(ops)) == [
            block((x(0), cnot(0, 1), x(1), x(0))), ops[5], ops[2], block((x(2), x(3))), ops[8],
            ops[11], block((x(1), cnot(1, 2), x(4)))]

    def test_released_gates_pass_a_run_on_other_qubits_and_close_one_on_theirs(self):
        h, rz, ry = gate("h", 0), gate("rz", 0, angle=0.5), gate("ry", 1, angle=0.3)
        x, cnot = (lambda q: gate("x", q)), (lambda a, b: gate("cnot", a, b))
        # the product of h and rz goes out before the run on qubits 1 and 2
        items = list(gates._fused([h, rz, x(1), cnot(1, 2), x(0)]))
        assert self.products(items) == [items[0]] and items[0].gates == (h, rz)
        assert items[1:] == [fused_block((x(1), cnot(1, 2), x(0)))]
        # a run that touches the released qubit closes first
        held = gate("h", 1)
        items = list(gates._fused([x(1), cnot(1, 2), held, ry, x(1)]))
        assert items[0] == fused_block((x(1), cnot(1, 2)))
        assert items[1].gates == (held, ry) and items[2:] == [x(1)]
        # X is never held, and a lone held gate stays a gate
        assert list(gates._fused([x(0), h, x(0)])) == [x(0), h, x(0)]

    def test_fusion_keeps_each_qubits_gate_order(self):
        rng = np.random.default_rng(1616)
        for _ in range(60):
            n = int(rng.integers(3, 18))
            ops = random_circuit(rng, n, max_gates=60, min_gates=20)
            for i in sorted(rng.choice(len(ops), size=4, replace=False), reverse=True):
                ops.insert(int(i), gate(("measure", "prep_z")[int(i) % 2], int(rng.integers(n))))
            items = list(gates._fused(ops))
            flat = self.expand(items)
            assert sorted(map(repr, flat)) == sorted(map(repr, ops))
            # per-qubit order kept, so no gate crosses a measure or prep_z on its qubit
            for q in range(n):
                assert [g for g in flat if q in g.qubits] == [g for g in ops if q in g.qubits]
            assert [g for g in flat if not g.kind.is_unitary] == [
                g for g in ops if not g.kind.is_unitary]
            for item in items:
                if isinstance(item, gates._Block):
                    assert len(item.gates) > 1 and len(item.qubits) <= gates.FUSE_MAX_QUBITS
                    signed = {g.kind.mnemonic in self.SIGNED_KINDS for g in item.gates}
                    if signed == {True}:  # a block of signed kinds is signed
                        assert item.table.signed
                    else:  # a product is signed exactly when its matrix is a signed permutation
                        assert signed == {False} and len(item.qubits) == 1
                        assert item.table.signed == self.is_signed_permutation(
                            functools.reduce(lambda m, g: base_unitary(g) @ m, item.gates,
                                             np.eye(2)))

    @staticmethod
    def is_signed_permutation(m):
        nonzero = m != 0
        return bool(not m.imag.any() and (nonzero.sum(axis=0) == 1).all()
                    and (np.abs(m[nonzero]) == 1).all())

    def test_a_product_that_is_a_signed_permutation_is_signed(self, monkeypatch):
        y, h = gate("y", 0), gate("h", 0)
        identity, = gates._fused([y, y])  # Y.Y = I exactly
        assert identity.gates == (y, y) and identity.table.signed
        rotation, = gates._fused([h, y])
        assert rotation.gates == (h, y) and not rotation.table.signed
        # so a sparse pass moves it through its terms, as it moves the X
        # before it, with the bytes of X, Y then Y
        log = []
        TestKernels.force(monkeypatch, "scatter", log)
        ops = [gate("ry", 0, angle=0.3), gate("x", 0), y, y]
        items = list(gates._fused(ops))
        assert items[:2] == ops[:2] and items[2].gates == (y, y)
        fused, _ = run_circuit(3, ops)
        assert log == ["scatter", "move", "move"]
        assert fused.live.tobytes() == self.stepwise(3, ops, True).live.tobytes()

    @pytest.mark.parametrize("batch", [None, 2])
    def test_signed_blocks_match_stepwise_byte_for_byte(self, batch):
        # no gate is held, so the fused order is the program order
        rng = np.random.default_rng(1717 + (batch or 0))
        negated = 0
        for n in (13, 14, 15, 16):
            for support in (64, 1 << n):  # sparse, then dense
                columns = []
                for _ in range(batch or 1):
                    amps = np.full(1 << n, complex(-0.0, -0.0))
                    rows = rng.choice(1 << n, size=support, replace=False)
                    amps[rows] = rng.normal(size=support) + 1j * rng.normal(size=support)
                    amps[rows[:8]] = complex(-0.0, 1.0)  # signed zeros in nonzero entries
                    amps[rows[8:16]] = complex(0.5, -0.0)
                    columns.append(keep_signed_zeros(amps))
                ops = self.signed_circuit(rng, n, 60)
                items = list(gates._fused(ops))
                assert self.expand(items) == ops
                negated += sum(isinstance(i, gates._Block) and min(i.table.coefs) < 0
                               for i in items)
                finals = []
                for zero_skip in (True, False):
                    fused, stepwise = StateVector(n, batch), StateVector(n, batch)
                    for state in (fused, stepwise):
                        state.live[:] = columns[0] if batch is None else np.stack(columns, axis=1)
                    for item in items:
                        apply_gate(fused, item, zero_skip=zero_skip)
                    for g in ops:
                        apply_gate(stepwise, g, zero_skip=zero_skip)
                    assert fused.live.tobytes() == stepwise.live.tobytes()
                    parts = fused.live.view(np.float64)
                    assert not np.signbit(parts[parts == 0]).any()
                    finals.append(fused.live.tobytes())
                assert finals[0] == finals[1]
        assert negated > 10

    def test_random_circuits_of_every_kind(self, monkeypatch):
        rng = np.random.default_rng(1919)
        products = 0
        for n in (13, 14, 15, 16):
            ops = random_circuit(rng, n, max_gates=60, min_gates=40)
            products += len(self.products(gates._fused(ops)))
            finals = [engine_state(n, ops, zero_skip) for zero_skip in (True, False)]
            assert finals[0].tobytes() == finals[1].tobytes()
            assert np.abs(finals[0] - self.stepwise(n, ops, True).live).max() <= 1e-12
        monkeypatch.setattr(gates, "SCAN_MIN_QUBITS", 3)
        for _ in range(40):
            n = int(rng.integers(3, 11))
            ops = random_circuit(rng, n, max_gates=40)
            products += len(self.products(gates._fused(ops)))
            finals = [engine_state(n, ops, zero_skip) for zero_skip in (True, False)]
            assert finals[0].tobytes() == finals[1].tobytes()
            assert np.abs(simulate_instructions(n, ops) - finals[0]).max() <= 1e-9
        assert products > 40

    def test_a_full_block_ends_and_a_lone_gate_stays_a_gate(self):
        cap = gates.FUSE_MAX_QUBITS
        ops = [gate("x", q) for q in range(cap + 1)]
        assert list(gates._fused(ops)) == [fused_block(tuple(ops[:cap])), ops[cap]]

    @pytest.mark.parametrize("batch", [None, 2])
    def test_negative_zero_inputs_give_the_no_skip_bytes(self, batch):
        # a sparse pass clears and refills only the rows its scan found
        # nonzero, which is exact because the zero entries, -0.0 in amps, are
        # stored as +0.0
        rng = np.random.default_rng(1415 + (batch or 0))
        for n in (13, 14, 15):
            columns = []
            for _ in range(batch or 1):
                amps = np.full(1 << n, complex(-0.0, -0.0))
                support = rng.choice(1 << n, size=64, replace=False)
                amps[support] = rng.normal(size=64) + 1j * rng.normal(size=64)
                amps[support[:8]] = complex(-0.0, 1.0)  # signed zeros in nonzero entries too
                columns.append(keep_signed_zeros(amps))
            items = list(gates._fused(self.permutation_heavy(rng, n, 40)))
            assert any(isinstance(item, gates._Block) for item in items)
            finals = []
            for zero_skip in (True, False):
                state = StateVector(n, batch)
                state.live[:] = columns[0] if batch is None else np.stack(columns, axis=1)
                for item in items:
                    apply_gate(state, item, zero_skip=zero_skip)
                finals.append(state.live.tobytes())
            assert finals[0] == finals[1]

    @staticmethod
    def calls(items):
        """The ``apply_gate`` calls of a noiseless pass over ``_fused``
        items: one per unitary item."""
        return [item for item in items if isinstance(item, gates._Block) or item.kind.is_unitary]

    @staticmethod
    def spy_applied(monkeypatch):
        """Record what each ``apply_gate`` call applies, noisy passes' too."""
        applied = []
        original = gates.apply_gate

        def spied(state, g, **kwargs):
            applied.append(g)
            return original(state, g, **kwargs)

        for module in (gates, trajectories):
            monkeypatch.setattr(module, "apply_gate", spied)
        return applied

    def test_a_noiseless_pass_calls_apply_gate_once_per_unitary_item(self, monkeypatch):
        # every fused application runs through the public entry point, one
        # item per call, each lowered once: a lone gate as a block of one
        applied = self.spy_applied(monkeypatch)
        rng = np.random.default_rng(1313)
        for _ in range(6):
            ops = random_circuit(rng, 13, max_gates=60, min_gates=40)
            ops.insert(int(rng.integers(len(ops))), gate("measure", int(rng.integers(13))))
            del applied[:]
            run_circuit(13, ops, rng=np.random.default_rng(0))
            calls = self.calls(gates._fused(ops))
            assert any(isinstance(c, gates._Block) for c in calls)
            assert not any(isinstance(c, GateInstance) for c in applied)
            unlowered = [c if len(c.gates) > 1 else c.gates[0] for c in applied]
            assert [type(c) for c in unlowered] == [type(c) for c in calls]
            assert [self.expand([c]) for c in unlowered] == [self.expand([c]) for c in calls]
        # a noisy pass of one group: one call per gate, and one per Pauli
        # (qubit, kind) at each erring gate, on the trajectories it hits
        for n, width in ((9, 1), (9, 32), (13, 2)):
            ops = random_circuit(rng, n, max_gates=40, min_gates=30)
            ops.insert(int(rng.integers(len(ops))), gate("measure", int(rng.integers(n))))
            assert width <= max(1, statecore.CHUNK_AMPLITUDES >> n)  # one group
            calls = []
            monkeypatch.setattr(trajectories, "apply_gate", lambda state, g, **kwargs: (
                calls.append((g, kwargs.get("columns"))) or apply_gate(state, g, **kwargs)))
            run = trajectories.lowered_run(n, ops)
            trajectories.noisy_pass(n, run, np.random.default_rng(n + width), 0.2, width)
            _, (at, qubit, of, pauli), _ = trajectories._schedule(
                run[0], np.random.default_rng(n + width), 0.2, width)
            expected = {}  # (instruction, qubit, Pauli): the trajectories it hits, in draw order
            for i, q, c, k in zip(at.tolist(), qubit.tolist(), of.tolist(), pauli.tolist()):
                expected.setdefault((i, q, gates._PAULIS[k]), []).append(c)
            unitary = [i for i, g in enumerate(ops) if g.kind.is_unitary]
            gate_calls, seen = 0, {}
            for g, columns in calls:
                assert len(g.gates) == 1
                if columns is None:
                    assert g.gates == (ops[unitary[gate_calls]],)
                    gate_calls += 1
                else:
                    key = (unitary[gate_calls - 1], g.qubits[0], g.gates[0].kind)
                    assert key not in seen
                    seen[key] = list(columns)
            assert gate_calls == len(unitary)
            assert seen == expected and expected
        # a plain gate is checked on every call
        state = StateVector(13)
        with pytest.raises(IndexError):
            apply_gate(state, gate("cnot", 0, 13))
        with pytest.raises(ValueError, match="not a gate application"):
            apply_gate(state, gate("measure", 0))
        with pytest.raises(IndexError):
            apply_gate(state, gate("x", 0), columns=np.array([1]))

    def test_noisy_pass_applies_no_block(self, monkeypatch):
        applied = self.spy_applied(monkeypatch)
        ops = self.permutation_heavy(np.random.default_rng(5), 13, 30)
        trajectories.noisy_pass(13, trajectories.lowered_run(13, ops), np.random.default_rng(0),
                                0.01, 2)
        assert applied and not any(len(g.gates) > 1 for g in applied)
        del applied[:]
        run_circuit(13, ops, rng=np.random.default_rng(0), batch=2)
        assert any(len(g.gates) > 1 for g in applied)

    def test_a_noisy_run_builds_each_items_terms_once(self, monkeypatch):
        # a noisy run lowers its items, lone gates and Paulis, once for all
        # its batches, and each keeps the terms its first sparse pass builds
        n = 14
        ops = self.permutation_heavy(np.random.default_rng(14), n, 30)
        built, applied = [], {}
        terms = gates._terms
        monkeypatch.setattr(gates, "_terms", lambda qubits, table: (
            built.append(qubits) or terms(qubits, table)))

        def spied(state, g, **kwargs):
            applied[id(g)] = g
            return apply_gate(state, g, **kwargs)

        monkeypatch.setattr(trajectories, "apply_gate", spied)
        lowered, lower = [], trajectories.lowered_run
        monkeypatch.setattr(trajectories, "lowered_run", lambda *args: (
            lowered.append(lower(*args)) or lowered[-1]))
        shots = 2 * (trajectories.TRAJECTORY_AMPLITUDES >> n)
        runs = trajectories.batches(n, ops, np.random.default_rng(0), 0.05, shots)
        assert sum(1 for _ in runs) == 2
        (_, paulis), = lowered
        assert {id(p) for p in paulis} & applied.keys()
        assert all(g._kept_terms is not None for g in applied.values())  # at least once
        assert len(built) == len(applied)  # and at most once

    def test_block_out_of_range_raises(self):
        with pytest.raises(IndexError):
            run_circuit(13, [gate("x", 0), gate("cnot", 0, 13)])

    def test_product_out_of_range_raises(self):
        # on a dense state, where the strided kernel would fail with another error
        ops = [gate("h", q) for q in range(13)] + [gate("h", 13), gate("rz", 13, angle=0.5)]
        assert len(self.products(gates._fused(ops))) == 1
        with pytest.raises(IndexError):
            run_circuit(13, ops)


class TestGateTables:
    """Gate tables: a rotation's from its kind's probe, and the bounded cache."""

    @staticmethod
    def same(a, b):
        assert a.views == b.views
        assert [(type(c), repr(c)) for c in a.coefs] == [(type(c), repr(c)) for c in b.coefs]
        for x, y in zip((a.cares, a.cols, a.flips), (b.cares, b.cols, b.flips)):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        assert a.signed == b.signed

    def test_a_signed_tables_terms_send_each_column_where_its_matrix_does(self):
        # what _move relies on: the terms of a signed permutation's table
        # partition its subspace columns, and the one term that picks a
        # column flips it to the row the matrix sends it to, with its sign
        rng = np.random.default_rng(2929)
        kinds = [gates.MNEMONICS[kind] for kind in TestFusion.SIGNED_KINDS]
        assert set(kinds) == gates._SIGNED
        y = gate("y", 0)
        identity, = gates._fused([y, y])  # Y.Y = I exactly
        cases = [(base_unitary(GateInstance(kind, tuple(range(kind.arity)))),
                  gates._gate_table(kind, None)) for kind in kinds]
        cases.append((base_unitary(y) @ base_unitary(y), identity.table))
        widths = set()
        for _ in range(60):
            pool = rng.choice(9, size=int(rng.integers(1, gates.FUSE_MAX_QUBITS + 1)),
                              replace=False)
            fits = [kind for kind in kinds if kind.arity <= pool.size]
            block = fused_block(tuple(
                GateInstance(kind, tuple(int(q) for q in rng.choice(pool, kind.arity, False)))
                for kind in (fits[int(i)] for i in rng.integers(len(fits), size=8))))
            widths.add(len(block.qubits))
            cases.append((block_matrix(block), block.table))
        assert widths == set(range(1, gates.FUSE_MAX_QUBITS + 1))
        for m, table in cases:
            assert table.signed
            terms = list(zip(table.cares.tolist(), table.cols.tolist(), table.flips.tolist(),
                             table.coefs))
            for column in range(m.shape[1]):
                (flip, coef), = [(flip, coef) for care, col, flip, coef in terms
                                 if column & care == col]
                assert coef in (1.0, -1.0) and m[column ^ flip, column] == coef
                assert np.count_nonzero(m[:, column]) == 1

    def test_rotation_tables_match_a_full_build(self):
        rng = np.random.default_rng(77)
        special = [0.0, -0.0, np.pi, -np.pi, np.pi / 2, 2 * np.pi, 4 * np.pi, 1e-300, 5e-324, 1e15]
        for kind in (GateKind.RX, GateKind.RY, GateKind.RZ):
            for angle in special + list(rng.uniform(-20, 20, 300)):
                gates._gate_table.cache_clear()
                self.same(gates._gate_table(kind, float(angle)),
                          gates._table(gates._matrix(kind, float(angle))))

    def test_the_cache_keeps_at_most_its_bound(self):
        for angle in np.linspace(-3, 3, 3 * gates.GATE_TABLES_KEPT):
            gates._gate_table(GateKind.RY, float(angle))
        assert gates._gate_table.cache_info().currsize == gates.GATE_TABLES_KEPT

    def test_the_block_cache_keeps_at_most_its_bound(self):
        pairs = [(a, b) for a in range(12) for b in range(12) if a != b]
        for count in range(3 * gates.FUSED_BLOCKS_KEPT):
            a, b = pairs[count % len(pairs)]
            fused_block((gate("cnot", a, b), gate("x", count // len(pairs))))
        assert gates._block.cache_info().currsize == gates.FUSED_BLOCKS_KEPT


def whole_register_strided(src, dst, qubits, table, scratch):
    """The strided kernel as one pass over the whole register per view, each
    product a fresh array, every view added onto an output zeroed first: the
    reference the chunked kernel and its write plan must match."""
    shape, order, _ = gates._layout(qubits)
    if src.ndim > 1:
        shape, order = shape + src.shape[1:], order + (len(shape),)
    s, d = src.reshape(shape).transpose(order), dst.reshape(shape).transpose(order)
    dst.fill(0)
    for out_key, in_key, term, _ in table.views:
        coef, view = table.coefs[term], d[out_key]
        view += s[in_key] if coef == 1 else coef * s[in_key]


class TestChunkedKernel:
    """The strided kernel on registers of more than one chunk, which it
    walks a chunk at a time, copying the chunks whose lowest operand leaves
    short contiguous runs, against a whole-register pass per term, the
    scatter and the no-skip reference."""

    @staticmethod
    def fused_circuit(rng, n, count):
        """An H layer, then gates of every kind on operands drawn from the
        low, middle and top qubits, fused as a noiseless pass fuses them."""
        pool = [0, 1, 2, 3, n // 2 - 1, n // 2, n - 3, n - 2, n - 1]
        kinds = [kind for kind in GateKind if kind.is_unitary]
        ops = [gate("h", q) for q in range(n)]
        for _ in range(count):
            kind = kinds[int(rng.integers(len(kinds)))]
            qubits = tuple(int(q) for q in rng.choice(pool, size=kind.arity, replace=False))
            angle = float(rng.uniform(-2 * np.pi, 2 * np.pi)) if kind.takes_angle else None
            ops.append(GateInstance(kind, qubits, angle))
        return list(gates._fused(ops))

    @pytest.mark.parametrize("batch", [None, 3])
    def test_chunks_match_a_whole_register_pass_the_scatter_and_the_reference(
            self, monkeypatch, batch):
        rng = np.random.default_rng(1517 + (batch or 0))
        chunks = set()  # per chunk of terms: whether it was copied
        original = gates._add_terms

        def spied(s, d, table, product=None):
            if product is not None:
                chunks.add(s.flags.c_contiguous)
            original(s, d, table, product)

        widths = set()
        for n in (15, 16, 17):
            items = self.fused_circuit(rng, n, 40)
            widths.update(len(i.qubits) for i in items if isinstance(i, gates._Block))
            finals = []
            for kernel, zero_skip, whole in (("strided", True, False), ("strided", True, True),
                                             ("scatter", True, False), ("scatter", False, False)):
                with monkeypatch.context() as patch:
                    TestKernels.force(patch, kernel)
                    patch.setattr(gates, "_add_terms", spied)
                    if whole:
                        patch.setattr(gates, "_strided", whole_register_strided)
                    state = StateVector(n, batch)
                    for item in items:
                        apply_gate(state, item, zero_skip=zero_skip)
                finals.append(state.live.tobytes())
            assert finals.count(finals[0]) == len(finals)
        assert max(widths) == gates.FUSE_MAX_QUBITS
        assert chunks == {False, True}

    def test_small_chunks_cross_chunk_edges_in_the_kernel_corpora(self, monkeypatch):
        # the n <= 10 corpora, each against the oracle or the no-skip
        # reference, with chunks of 8 amplitudes (a TOFFOLI's subspace) and
        # of 64 for fused blocks of six qubits
        kernels, batches, fusion = TestKernels(), TestTrajectoryBatch(), TestFusion()
        corpora = [
            (8, kernels.test_kernels_agree_bit_for_bit_and_with_oracle, ()),
            (8, kernels.test_sparse_kinds_match_strided_on_signed_zero_inputs, (2,)),
            (8, batches.test_batch_matches_single_runs_byte_for_byte, ("strided", True, 9)),
            (64, fusion.test_fused_runs_match_the_oracle_on_small_registers, ()),
        ]
        for chunk, test, args in corpora:
            with monkeypatch.context() as patch:
                patch.setattr(statecore, "CHUNK_AMPLITUDES", chunk)
                test(patch, *args)


class TestWritePlan:
    """Each table's write plan, which lets the strided kernel write into a
    dead buffer that holds anything, since each pass writes every output
    once before adding to it."""

    KINDS = [kind for kind in GateKind if kind.is_unitary]

    @classmethod
    def items(cls, rng, n, count):
        """Every unitary kind alone at a random angle, then ``count`` random
        gates as a noiseless pass fuses them (products, blocks and lone
        gates); the operands drawn from the low, middle and top qubits."""
        pool = sorted({0, 1, 2, 3, n // 2 - 1, n // 2, n - 3, n - 2, n - 1})

        def draw(kind):
            qubits = tuple(int(q) for q in rng.choice(pool, size=kind.arity, replace=False))
            angle = float(rng.uniform(-2 * np.pi, 2 * np.pi)) if kind.takes_angle else None
            return GateInstance(kind, qubits, angle)

        fused = gates._fused(draw(cls.KINDS[int(rng.integers(len(cls.KINDS)))])
                             for _ in range(count))
        return [draw(kind) for kind in cls.KINDS] + list(fused)

    @staticmethod
    def reached(key, k):
        """The subspace indices a ``k``-operand view key names, in the order
        of the view's elements, so an output key's and its input key's pair
        up."""
        rows = [0]
        for j, index in zip(reversed(range(k)), key):
            bits = [index] if isinstance(index, int) else [0, 1][index]
            rows = [row | bit << j for row in rows for bit in bits]
        return rows

    @classmethod
    def tables(cls, rng):
        angles = [0.0, np.pi, -np.pi, np.pi / 2, 2 * np.pi] + list(rng.uniform(-20, 20, 20))
        for kind in cls.KINDS:
            for angle in angles if kind.takes_angle else [None]:
                yield gates._matrix(kind, angle), gates._gate_table(kind, angle)
        for item in cls.items(rng, 9, 200):
            if isinstance(item, gates._Block) and not item.table.signed:
                m = gates._matrix(item.gates[0].kind, item.gates[0].angle)
                for g in item.gates[1:]:  # as gates._product multiplies them
                    m = gates._matrix(g.kind, g.angle) @ m
                yield m, item.table
            elif isinstance(item, gates._Block):  # a signed block, from the oracle's matrices
                yield block_matrix(item), item.table

    def test_every_output_row_is_written_once_before_any_term_adds_to_it(self):
        rng = np.random.default_rng(2727)
        widths = set()  # operand counts, negative for signed permutations
        for m, table in self.tables(rng):
            k = m.shape[0].bit_length() - 1
            widths.add(-k if table.signed else k)
            written, planned = set(), np.zeros_like(m, complex)
            terms = [term for _, _, term, _ in table.views]
            assert terms == sorted(terms) and set(terms) == set(range(len(table.coefs)))
            for out_key, in_key, term, writes in table.views:
                rows = self.reached(out_key, k)
                assert len(rows) == len(set(rows))
                assert written.isdisjoint(rows) if writes else written.issuperset(rows)
                written.update(rows)
                planned[rows, self.reached(in_key, k)] += table.coefs[term]
            assert written == set(range(1 << k))
            # the plan holds each entry once: its real part, then its imaginary part
            assert planned.tobytes() == (np.asarray(m, complex) + 0.0).tobytes()
        assert widths == {1, -1, -2, -3, -4, -5, -6}

    @pytest.mark.parametrize("n, batch", [(5, None), (5, 3), (9, None), (9, 3), (15, None),
                                          (15, 3), (16, None), (17, None)])
    def test_a_strided_pass_onto_nan_gives_the_bytes_of_one_onto_zero(self, monkeypatch, n,
                                                                        batch):
        # the dead buffer, the scratch and a column pass's output hold NaN
        # before each strided pass, against the same pass onto +0 and the
        # no-skip reference, byte for byte
        TestKernels.force(monkeypatch, "strided")
        paths = set()  # per chunk of terms: whether it was copied
        original, empty_like = gates._add_terms, np.empty_like

        def spied(s, d, table, product=None):
            if product is not None:
                paths.add(s.flags.c_contiguous)
            original(s, d, table, product)

        def nan_like(a):
            out = empty_like(a)
            out.fill(complex(np.nan, np.nan))
            return out

        monkeypatch.setattr(gates, "_add_terms", spied)
        rng = np.random.default_rng(2828 + n + (batch or 0))
        shape = (1 << n, batch or 1)
        live = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / np.sqrt(1 << n)
        live[rng.random(1 << n) < 0.25] = -0.0  # signed zeros among the inputs
        live = live if batch else live[:, 0]
        columns = [None] if batch is None else [None, np.array([2, 0])]
        for item in self.items(rng, n, 40 if n < 15 else 20):
            for cols in columns:
                runs = []
                for fill in (np.nan, 0.0, None):  # None: the reference
                    state = StateVector(n, batch)
                    state.live[:] = live
                    with monkeypatch.context() as patch:
                        if fill is not None:
                            state.dead.fill(complex(fill, fill))
                            if state.scratch is not None:
                                state.scratch.fill(complex(fill, fill))
                            if np.isnan(fill):
                                patch.setattr(np, "empty_like", nan_like)
                        apply_gate(state, item, zero_skip=fill is not None, columns=cols)
                    runs.append(state.live.tobytes())
                assert runs[0] == runs[1] == runs[2], (item, cols)
        assert paths == ({False, True} if n >= 15 else set())

    @pytest.mark.parametrize("batch", [None, 3])
    def test_a_sparse_pass_onto_nan_gives_the_bytes_of_one_onto_zero(self, monkeypatch, batch):
        # a term scatter and a signed move, on every column of a batch
        # or on some, the no-skip reference and a collapse update the live
        # buffer in place: onto a dead buffer of NaN, which they leave as it
        # is, each gives the bytes of the same pass onto +0 and of the
        # reference, byte for byte
        TestKernels.force(monkeypatch, "scatter")
        n, rng = 9, np.random.default_rng(3030 + (batch or 0))
        live = signed_zero_live(rng, n, 1 << (n - 3), batch)
        uniforms = rng.random(batch)
        collapses = [GateInstance.prevalidated(kind, (q,))
                     for kind in (GateKind.MEASURE, GateKind.PREP_Z) for q in (0, n - 1)]
        columns = [None] if batch is None else [None, np.array([2, 0])]
        for item in self.items(rng, n, 40) + collapses:
            for cols in columns:
                runs = []
                for fill, zero_skip in ((np.nan, True), (0.0, True), (np.nan, False)):
                    state = StateVector(n, batch)
                    state.live[:] = live
                    state.dead.fill(complex(fill, fill))
                    dead = state.dead.tobytes()
                    if item in collapses:
                        gates._collapse(state, item, uniforms)
                    else:
                        apply_gate(state, item, zero_skip=zero_skip, columns=cols)
                    assert state.dead.tobytes() == dead and state.parity == 0
                    runs.append(state.live.tobytes())
                assert runs[0] == runs[1] == runs[2], (item, cols)

    @pytest.mark.parametrize("batch", [None, 2])
    def test_a_sparse_pass_after_a_strided_one_gives_the_bytes_of_one_onto_zero(self, batch):
        # a strided pass leaves its input in what becomes the dead buffer;
        # sparse passes on that state, once it is marked sparse again by
        # hand or reset, onto the buffer as left or filled with NaN give the
        # bytes of the same passes on a new state and of the reference
        n = gates.SCAN_MIN_QUBITS
        spread = [gate("h", q) for q in range(n)] + [gate("rz", 2, angle=0.3)]
        sparse = [gate("ry", 3, angle=0.7), gate("toffoli", 0, 3, 12),
                  fused_block((gate("x", 5), gate("cnot", 5, 9))), gate("swap", 9, 1)]
        for setup in ("sparse by hand", "reset_ground"):
            # back to two basis states, still strided, or reset
            before = spread + spread[:n] if setup == "sparse by hand" else []
            runs = []
            for fill in (None, np.nan, 0.0, "reference"):
                state = StateVector(n, batch)
                if fill == "reference":
                    for g in before:
                        apply_gate(state, g, zero_skip=False)
                else:
                    for g in spread + before[len(spread):]:
                        apply_gate(state, g)
                    assert state.dense
                    if setup == "reset_ground":
                        state.reset_ground()
                    state.dense = False
                    assert state.dead.any()  # the strided passes' bytes
                    if fill is not None:
                        state.dead.fill(complex(fill, fill))
                    dead = state.dead.tobytes()
                for item in sparse:
                    apply_gate(state, item, zero_skip=fill != "reference")
                if fill != "reference":
                    assert not state.dense and state.dead.tobytes() == dead
                runs.append(state.live.tobytes())
            assert runs.count(runs[0]) == len(runs), setup

    def test_one_state_through_every_kernel_and_a_reset(self, monkeypatch):
        # sparse, dense, no-skip reference, reset_ground, sparse again: each
        # phase against a fresh state run gate by gate through the reference
        log = []
        for name in ("_scatter", "_move", "_strided"):
            original = getattr(gates, name)

            def spied(*args, _name=name, _original=original):
                log.append(_name)
                return _original(*args)

            monkeypatch.setattr(gates, name, spied)
        n, rng = 15, np.random.default_rng(2929)
        sparse = [gate("h", 0), gate("cnot", 0, 7), gate("ry", 14, angle=0.7),
                  gate("toffoli", 0, 14, 3), gate("rz", 3, angle=-1.1), gate("swap", 7, 12)]
        dense = [gate("h", q) for q in range(n)] + random_circuit(rng, n, 20, 20)
        reference = random_circuit(rng, n, 10, 10)
        state, done = StateVector(n), []
        for ops, zero_skip, kernels in ((sparse, True, {"_scatter", "_move"}),
                                        (dense, True, {"_scatter", "_strided"}),
                                        (reference, False, {"_scatter", "_move"}),
                                        (None, None, set()),
                                        (sparse, True, {"_scatter", "_move"})):
            del log[:]
            if ops is None:
                state.reset_ground()
                done = []
                continue
            for g in ops:
                apply_gate(state, g, zero_skip=zero_skip)
            done += ops
            assert set(log) == kernels and state.dense == (ops is not sparse)
            stepwise = StateVector(n)
            for g in done:
                apply_gate(stepwise, g, zero_skip=False)
            assert state.live.tobytes() == stepwise.live.tobytes()


class TestMeasurement:
    def test_deterministic_one(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            state = alloc_state(1)
            apply_gate(state, gate("x", 0))
            bit, state = measure(state, 0, rng)
            assert bit == 1
            np.testing.assert_array_equal(state.live, [0, 1])

    def test_born_rule_on_equal_superposition(self):
        rng = np.random.default_rng(42)
        ones = 0
        shots = 10000
        for _ in range(shots):
            state = alloc_state(1)
            apply_gate(state, gate("h", 0))
            bit, _ = measure(state, 0, rng)
            ones += bit
        assert abs(ones / shots - 0.5) <= 0.02

    def test_bell_measurements_correlate(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            state = alloc_state(2)
            apply_gate(state, gate("h", 0))
            apply_gate(state, gate("cnot", 0, 1))
            first, state = measure(state, 0, rng)
            second, state = measure(state, 1, rng)
            assert first == second

    def test_collapse_renormalizes(self):
        rng = np.random.default_rng(3)
        state = alloc_state(2)
        apply_gate(state, gate("h", 0))
        apply_gate(state, gate("h", 1))
        _, state = measure(state, 0, rng)
        assert abs(state.norm_squared() - 1.0) <= 1e-9

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            measure(alloc_state(1), 1, np.random.default_rng(0))

    def test_identical_seed_identical_transcript(self):
        ops = [gate("h", 0), gate("cnot", 0, 1), gate("measure", 0),
               gate("h", 1), gate("measure", 1)]
        _, t1 = run_circuit(2, ops, rng=np.random.default_rng(77))
        _, t2 = run_circuit(2, ops, rng=np.random.default_rng(77))
        assert t1 == t2


class TestPrepZ:
    def test_resets_one_to_zero(self):
        rng = np.random.default_rng(1)
        state = alloc_state(1)
        apply_gate(state, gate("x", 0))
        prep_z(state, 0, rng)
        np.testing.assert_array_equal(state.live, [1, 0])

    def test_resets_superposition_deterministically(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            state = alloc_state(1)
            apply_gate(state, gate("h", 0))
            prep_z(state, 0, rng)
            np.testing.assert_allclose(state.live, [1, 0], atol=1e-12)

    def test_apply_gate_rejects_prep_z(self):
        state = alloc_state(1)
        with pytest.raises(ValueError, match=r"use prep_z\(\)"):
            apply_gate(state, gate("prep_z", 0))
        np.testing.assert_array_equal(state.live, [1, 0])


class TestSample:
    def test_ground_state_all_zero(self):
        hist = sample(alloc_state(2).probabilities(), 100, np.random.default_rng(0))
        assert hist == {"00": 100}

    def test_bell_split(self):
        state = alloc_state(2)
        apply_gate(state, gate("h", 0))
        apply_gate(state, gate("cnot", 0, 1))
        hist = sample(state.probabilities(), 1000, np.random.default_rng(12))
        assert set(hist) == {"00", "11"}
        assert abs(hist["00"] - 500) <= 50
        assert abs(hist["11"] - 500) <= 50

    def test_uniform_four_outcomes(self):
        state = alloc_state(2)
        apply_gate(state, gate("h", 0))
        apply_gate(state, gate("h", 1))
        hist = sample(state.probabilities(), 4000, np.random.default_rng(4))
        assert set(hist) == {"00", "01", "10", "11"}
        assert all(abs(c - 1000) <= 100 for c in hist.values())

    def test_does_not_mutate_state(self):
        state = alloc_state(2)
        apply_gate(state, gate("h", 0))
        probs = state.probabilities()
        before = probs.copy()
        sample(probs, 500, np.random.default_rng(2))
        np.testing.assert_array_equal(probs, before)

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError):
            sample(alloc_state(1).probabilities(), 0, np.random.default_rng(0))

    def test_takes_shots_up_to_the_largest_count_numpy_draws(self):
        probs = StateVector(1).probabilities()
        assert sample(probs, 2**63 - 1, np.random.default_rng(0)) == {"0": 2**63 - 1}
        with pytest.raises(ValueError, match="shots"):
            sample(probs, 2**63, np.random.default_rng(0))

    def test_a_draw_over_the_support_is_the_draw_over_the_whole_array(self):
        # the same counts and the same next draw, the last row in the support
        # or not: without a zero category for it, numpy's multinomial would
        # hand the remainder to the last support row and skip a binomial
        rng, mismatches = np.random.default_rng(3131), []
        for case in range(1200):
            n, last = int(rng.integers(3, 15)), case % 2  # whether row 2^n - 1 is in it
            size = int(rng.integers(1, min(300, (1 << n) - 1) + 1))
            rows = np.sort(rng.choice((1 << n) - 1, size=size, replace=False))
            if last:
                rows[-1] = (1 << n) - 1
            amps = np.zeros(1 << n, complex)
            amps[rows] = rng.normal(size=size) + 1j * rng.normal(size=size)
            probs = probabilities(amps / np.linalg.norm(amps))
            for shots in (1, 7, 1000):
                seed = int(rng.integers(1 << 30))
                full, compressed = np.random.default_rng(seed), np.random.default_rng(seed)
                expected = sample(probs, shots, full)
                got = sample(probs, shots, compressed, rows)
                if got != expected or list(got) != list(expected):
                    mismatches.append((case, shots, "counts"))
                elif full.random() != compressed.random():
                    mismatches.append((case, shots, "next draw"))
        assert not mismatches, mismatches[:5]


def _first_pauli_choice(seed: int) -> int:
    """Which Pauli apply_depolarizing draws first at p=1 for this seed."""
    rng = np.random.default_rng(seed)
    rng.random()
    return int(rng.integers(3))


class TestDepolarizing:
    def test_p_zero_matches_ideal(self):
        rng = np.random.default_rng(8)
        noisy = alloc_state(2)
        ideal = alloc_state(2)
        cfg = NoiseConfig(0.0)
        for g in [gate("h", 0), gate("cnot", 0, 1), gate("ry", 1, angle=1.1)]:
            apply_depolarizing(noisy, g, cfg, rng)
            apply_gate(ideal, g)
        assert noisy.live.tobytes() == ideal.live.tobytes()

    def test_p_one_forced_x_cancels_x(self):
        seed = next(s for s in range(100) if _first_pauli_choice(s) == 0)
        rng = np.random.default_rng(seed)
        state = alloc_state(1)
        apply_depolarizing(state, gate("x", 0), NoiseConfig(1.0), rng)
        np.testing.assert_array_equal(state.live, [1, 0])

    def test_mean_fidelity_degrades(self):
        circuit = [gate("h", 0), gate("cnot", 0, 1), gate("rx", 2, angle=0.9),
                   gate("cz", 1, 2), gate("x", 0), gate("ry", 0, angle=2.2),
                   gate("swap", 1, 2), gate("z", 2), gate("h", 1),
                   gate("cnot", 2, 0)]
        ideal = engine_state(3, circuit)
        rng = np.random.default_rng(2024)
        total = 0.0
        runs, run = 1000, trajectories.lowered_run(3, circuit)
        for _ in range(runs):
            live, _ = trajectories.noisy_pass(3, run, rng, 0.01, 1)
            total += fidelity(ideal, live[:, 0])
        assert total / runs < 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NoiseConfig(1.5)


PAULIS = (GateKind.X, GateKind.Y, GateKind.Z)


class TestTrajectoryBatch:
    """A batch of trajectories, one column each, against the same
    trajectories run one at a time as plain states."""

    @staticmethod
    def run_both(n, ops, errors, zero_skip=True):
        """Apply ``ops`` to a batch and to one plain state per trajectory;
        ``errors[g][j][slot]`` is the Pauli (or None) that trajectory j
        suffers on operand ``slot`` after gate g."""
        width = len(errors[0])
        batch = StateVector(n, width)
        singles = [StateVector(n) for _ in range(width)]
        for g, hits in zip(ops, errors):
            apply_gate(batch, g, zero_skip=zero_skip)
            for single in singles:
                apply_gate(single, g, zero_skip=zero_skip)
            for slot, q in enumerate(g.qubits):
                for kind in PAULIS:
                    columns = np.array([j for j in range(width) if hits[j][slot] is kind], int)
                    if columns.size:
                        pauli = GateInstance(kind, (q,))
                        apply_gate(batch, pauli, zero_skip=zero_skip, columns=columns)
                        for j in columns:
                            apply_gate(singles[j], pauli, zero_skip=zero_skip)
        return batch, singles

    @staticmethod
    def forced_errors(rng, ops, width):
        choices = (None,) + PAULIS
        return [[[choices[int(rng.integers(4))] for _ in g.qubits] for _ in range(width)]
                for g in ops]

    @pytest.mark.parametrize("kernel, zero_skip", [("strided", True), ("scatter", True),
                                                   ("scatter", False)])
    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_batch_matches_single_runs_byte_for_byte(self, monkeypatch, kernel, zero_skip, n):
        rng = np.random.default_rng(100 + n)
        calls = TestKernels.force(monkeypatch, kernel)
        for _ in range(6):
            ops = random_circuit(rng, n, max_gates=16)
            width = int(rng.integers(2, 7))
            batch, singles = self.run_both(n, ops, self.forced_errors(rng, ops, width), zero_skip)
            for j, single in enumerate(singles):
                assert batch.live[:, j].tobytes() == single.live.tobytes()
        other = "strided" if kernel == "scatter" else "scatter"
        assert calls[kernel] > 0 and calls[other] == 0

    def test_batch_scatters_sparse_states_at_thirteen_qubits(self, monkeypatch):
        calls = TestKernels.force(monkeypatch, "scatter")
        monkeypatch.setattr(gates, "SCAN_MIN_QUBITS", 13)  # the shipped crossover
        monkeypatch.setattr(gates, "SCATTER_MAX_FRACTION", 1 / 16)
        rng = np.random.default_rng(13)
        n, width = 13, 4
        ops = [gate("h", 0), gate("ry", 5, angle=0.8)]
        for _ in range(20):  # permutations and phases keep the support small
            kind = ("x", "cnot", "cz", "swap", "toffoli", "z", "rz")[int(rng.integers(7))]
            qubits = (int(q) for q in rng.choice(n, size=gates.MNEMONICS[kind].arity, replace=False))
            ops.append(gate(kind, *qubits, angle=0.4 if kind == "rz" else None))
        batch, singles = self.run_both(n, ops, self.forced_errors(rng, ops, width))
        assert calls["strided"] == 0 and not batch.dense
        for j, single in enumerate(singles):
            assert batch.live[:, j].tobytes() == single.live.tobytes()

    def test_plain_state_noise_draws_one_scalar_stream(self):
        # a pass of one trajectory draws the scalar draws of one shot
        rng = np.random.default_rng(4)
        for seed in range(50):
            n = int(rng.integers(1, 5))
            ops = random_circuit(rng, n, max_gates=12)
            draws = np.random.default_rng(seed)
            expected = StateVector(n)
            for g in ops:
                apply_gate(expected, g)
                for q in g.qubits:
                    if draws.random() < 0.3:
                        apply_gate(expected, GateInstance(PAULIS[int(draws.integers(3))], (q,)))
            live, _ = trajectories.noisy_pass(n, trajectories.lowered_run(n, ops),
                                              np.random.default_rng(seed), 0.3, 1)
            assert live[:, 0].tobytes() == expected.live.tobytes()

    def test_depolarizing_draws_each_trajectory_on_its_own(self):
        width, p = 3000, 0.6
        state = StateVector(1, width)
        apply_depolarizing(state, gate("x", 0), NoiseConfig(p), np.random.default_rng(10))
        outcomes = {"none": [0, 1], "x": [1, 0], "y": [-1j, 0], "z": [0, -1]}
        counts = {name: int((state.live.T == amps).all(axis=1).sum())
                  for name, amps in outcomes.items()}
        assert sum(counts.values()) == width
        for name, count in counts.items():
            share = 1 - p if name == "none" else p / 3
            spread = math.sqrt(width * share * (1 - share))
            assert abs(count - width * share) <= 6 * spread, (name, count)

    def test_measure_and_prep_z_act_per_trajectory(self):
        rng = np.random.default_rng(6)
        state = StateVector(1, 64)
        apply_gate(state, gate("h", 0))
        dead = state.dead.tobytes()  # the strided pass's input, which no collapse touches
        bits, _ = measure(state, 0, rng)
        assert bits.shape == (64,) and 0 < bits.sum() < 64
        np.testing.assert_allclose(state.live, [1 - bits, bits], atol=1e-15)
        prep_z(state, 0, rng)
        np.testing.assert_allclose(state.live, np.repeat([[1], [0]], 64, axis=1), atol=1e-15)
        assert state.dead.tobytes() == dead

    @pytest.mark.parametrize("batch, columns", [
        (2, np.array([0, 0])), (2, np.array([0, 5])), (2, np.array([-1])), (None, np.array([3])),
        (None, np.array([0, 0])), (2, np.array([], int)), (None, np.array([])),
        (2, np.array([True, False])), (2, np.array([0.0, 1.0]))])
    def test_columns_name_distinct_trajectories_in_range(self, batch, columns):
        # anything else, a boolean mask or float numbers too, raises before
        # any amplitude changes; none changes nothing
        state = StateVector(3, batch)
        apply_gate(state, gate("h", 0))
        before = state.live.tobytes()
        with pytest.raises(IndexError) if len(columns) else contextlib.nullcontext():
            apply_gate(state, gate("x", 1), columns=columns)
        assert state.live.tobytes() == before

    @pytest.mark.parametrize("batch", [None, 2])
    @pytest.mark.parametrize("n", [5, 13])
    def test_an_empty_column_list_is_a_no_op(self, n, batch):
        # the bytes and both kernel hints stay as they were, on a state that
        # no pass owns and on one that carries its support
        for carried in (False, True):
            ops = [gate("h", 0), gate("cnot", 0, 1), gate("x", 3)]
            state = run_circuit(n, ops, batch=batch)[0]
            if carried:
                gates._carry(state)
            before = state.live.tobytes(), state.dense, state.support
            assert apply_gate(state, gate("h", 2), columns=np.array([], int)) is state
            assert (state.live.tobytes(), state.dense, state.support) == before

    @pytest.mark.parametrize("zero_skip", [True, False])
    def test_a_reset_gives_the_bytes_of_a_measure_and_a_flip(self, zero_skip):
        # the reference flips each trajectory that read 1 through the kernel
        rng = np.random.default_rng(2626 + zero_skip)
        for n in range(1, 15):
            for batch in (None, int(rng.integers(2, 5))):
                shape = (1 << n, batch or 1)
                amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                amps[rng.random(1 << n) < (0.6 if n % 2 else 0.97)] = 0
                amps[0] += 1  # no column left empty
                amps /= np.linalg.norm(amps, axis=0)
                for q in range(n):
                    state = StateVector(n, batch)
                    state.live[:] = amps if batch else amps[:, 0]
                    reference, uniforms = state.copy(), rng.random(batch)
                    bits = gates._collapse(state, GateInstance(GateKind.PREP_Z, (q,)), uniforms)
                    gates._collapse(reference, GateInstance(GateKind.MEASURE, (q,)), uniforms)
                    if np.any(bits):
                        apply_gate(reference, GateInstance(GateKind.X, (q,)), zero_skip=zero_skip,
                                   columns=np.flatnonzero(bits))
                    assert state.live.tobytes() == reference.live.tobytes(), (n, batch, q)

    def test_sample_reads_each_trajectory(self):
        state = StateVector(2, 6)
        state.live[:] = 0
        state.live[[1, 1, 2, 2, 3, 3], np.arange(6)] = 1.0
        probs = state.probabilities()
        assert sample(probs, 1, np.random.default_rng(0)) == {"01": 2, "10": 2, "11": 2}
        assert sum(sample(probs, 5, np.random.default_rng(0)).values()) == 30



def _per_gate_pass(n, instructions, rng, noise, batch):
    """The noisy pass as it was before trajectories were grouped, kept here
    as the reference: each gate applied to the whole batch and then its
    depolarizing draws, with measure and prep_z acting where they stand.
    Every gate and Pauli goes through ``gates.apply_gate``."""
    state = StateVector(n, batch)
    transcript = []
    for g in instructions:
        if g.kind is GateKind.MEASURE:
            bit, _ = measure(state, g.qubits[0], rng)
            transcript.append((g.qubits[0], bit))
        elif g.kind is GateKind.PREP_Z:
            bits, _ = measure(state, g.qubits[0], rng)
            flipped = np.flatnonzero(bits)
            if flipped.size:
                gates.apply_gate(state, GateInstance(GateKind.X, g.qubits), columns=flipped)
        else:
            apply_depolarizing(state, g, noise, rng)
    return state, transcript


class TestGroupedNoisyPass:
    """The noisy pass runs trajectories in groups from their divergence
    points; every byte it returns is the per-gate pass's."""

    WIDTHS = (1, 2, 31, 33, 128, 200)
    PS = (1e-4, 0.01, 0.3, 1.0)

    @staticmethod
    def program(rng, n, resets):
        ops = random_circuit(rng, n, max_gates=12, min_gates=4)
        if resets:
            for kind in ("prep_z", "measure", "prep_z"):
                ops.insert(int(rng.integers(len(ops) + 1)), gate(kind, int(rng.integers(n))))
        return ops

    @staticmethod
    def assert_same(n, ops, p, zero_skip, batch, seed):
        """The pass against the per-gate pass, whose gates and Paulis go
        through the no-skip reference unless ``zero_skip``."""
        ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        live, transcript = trajectories.noisy_pass(n, trajectories.lowered_run(n, ops), ours, p,
                                                   batch)
        with pytest.MonkeyPatch.context() as patch:
            if not zero_skip:
                patch.setattr(gates, "apply_gate", functools.partial(apply_gate, zero_skip=False))
            expected, expected_transcript = _per_gate_pass(n, ops, reference, NoiseConfig(p),
                                                           batch)
        case = (n, batch, p, zero_skip, [g.kind.mnemonic for g in ops])
        assert live.shape == expected.live.shape, case
        assert live.tobytes() == expected.live.tobytes(), case
        assert len(transcript) == len(expected_transcript), case
        for (q, bits), (q_expected, bits_expected) in zip(transcript, expected_transcript):
            assert q == q_expected and type(bits) is type(bits_expected), case
            assert np.array_equal(bits, bits_expected), case
            assert bits.dtype == bits_expected.dtype, case
        assert ours.random() == reference.random(), case  # the same draws were made

    @pytest.mark.parametrize("resets", [False, True])
    @pytest.mark.parametrize("zero_skip", [True, False])
    def test_every_register_size_matches_the_per_gate_pass(self, zero_skip, resets):
        rng = np.random.default_rng(1400 + 2 * zero_skip + resets)
        for n in range(1, 15):
            for k in range(2):
                width = self.WIDTHS[(2 * n + k) % len(self.WIDTHS)]
                width = min(width, max(1, (1 << 20) >> n))  # buffers of at most 16 MiB
                p = self.PS[(n + 3 * k) % len(self.PS)]
                ops = self.program(rng, n, resets)
                self.assert_same(n, ops, p, zero_skip, width, int(rng.integers(1 << 30)))

    @pytest.mark.parametrize("resets", [False, True])
    @pytest.mark.parametrize("zero_skip", [True, False])
    @pytest.mark.parametrize("n", [5, 9])
    def test_every_width_and_rate_matches_the_per_gate_pass(self, n, zero_skip, resets):
        rng = np.random.default_rng(900 + 10 * n + 2 * zero_skip + resets)
        for width in self.WIDTHS:
            for p in self.PS:
                ops = self.program(rng, n, resets)
                self.assert_same(n, ops, p, zero_skip, width, int(rng.integers(1 << 30)))

    @pytest.mark.parametrize("n, width", [(9, 33), (14, 3), (15, 2), (16, 1)])
    def test_a_lone_trajectory_measures_as_its_batch_would(self, n, width):
        # on a dense state the order of a measurement's sum shows in its
        # bytes; a group of one column takes the batch's order
        rng = np.random.default_rng(n)
        ops = [gate("h", q) for q in range(n)]
        ops += [gate("ry", q, angle=float(rng.uniform(-3, 3))) for q in range(n)]
        ops += [gate("cnot", q, q + 1) for q in range(n - 1)]
        ops += [gate("measure", 0), gate("rx", 1, angle=0.4), gate("prep_z", 2), gate("h", 2)]
        for seed in range(3):
            self.assert_same(n, ops, 0.02, True, width, seed)

    def test_an_operand_out_of_range_raises_before_any_draw(self):
        ours, untouched = np.random.default_rng(8), np.random.default_rng(8)
        with pytest.raises(IndexError, match="out of range"):
            trajectories.batches(3, [gate("h", 0), gate("cnot", 0, 3)], ours, 0.1, 4)
        assert ours.random() == untouched.random()

    @pytest.mark.parametrize("p", [-0.1, 1.5, float("nan")])
    def test_a_rate_outside_zero_to_one_raises_first_and_before_any_draw(self, p):
        ours, untouched = np.random.default_rng(8), np.random.default_rng(8)
        with pytest.raises(ValueError, match="depolarizing probability"):
            trajectories.batches(3, [gate("h", 0), gate("cnot", 0, 3)], ours, p, 4)
        assert ours.random() == untouched.random()

    def test_groups_start_at_their_first_error(self, monkeypatch):
        # at n = 9 a group is 32 trajectories; only gates from a group's
        # first error on are applied to it
        calls = []
        original = trajectories.apply_gate

        def counted(state, g, **kwargs):
            calls.append(1 if state.batch is None else state.batch)
            return original(state, g, **kwargs)

        monkeypatch.setattr(trajectories, "apply_gate", counted)
        ops = random_circuit(np.random.default_rng(9), 9, max_gates=40, min_gates=40)
        trajectories.noisy_pass(9, trajectories.lowered_run(9, ops), np.random.default_rng(3),
                                0.005, 128)
        # the per-gate pass applies every gate to all 128 columns
        assert sum(calls) < 0.75 * 128 * len(ops)
        assert max(calls) == 32


class TestCarriedSupport:
    """A pass that owns its state carries the state's support from item to
    item instead of scanning for it: exactly the rows a scan would find,
    with the same kernel choices, ``dense`` flags and bytes."""

    @staticmethod
    def cancelling(q, r):
        """H on a qubit in a basis state, around two CNOTs it controls: the
        second H cancels every row with qubit q set to exactly 0."""
        return [gate("h", q), gate("cnot", q, r), gate("cnot", q, r), gate("h", q)]

    @classmethod
    def program(cls, rng, n, dense):
        """Held one-qubit products, stretches of signed permutations (blocks
        and lone gates), a measure and a prep_z, rows cancelled to 0, and, when
        ``dense``, an H layer that makes the state dense before the rest."""
        ops = cls.cancelling(0, 1)
        for _ in range(3):
            ops += TestFusion.permutation_heavy(rng, n, 12)
            q = int(rng.integers(n))
            ops += [gate("h", q), gate("ry", q, angle=float(rng.uniform(-3, 3))),
                    gate("rz", q, angle=float(rng.uniform(-3, 3)))]
        r = int(rng.integers(1, n))
        ops += [gate("measure", r), gate("prep_z", 0)] + cls.cancelling(0, r)
        if dense:
            ops += [gate("h", q) for q in range(n - 3)]
        ops += TestFusion.permutation_heavy(rng, n, 12) + [gate("measure", r)]
        return ops + random_circuit(rng, n, max_gates=12, min_gates=8)

    @staticmethod
    def exact(state):
        """Whether a carried support is the set a scan of the live buffer
        would find (no support at all passes)."""
        if state.support is None:
            return True
        occupied = state.live != 0
        rows = np.flatnonzero(occupied if state.batch is None else occupied.any(axis=1))
        return not state.dense and np.array_equal(np.sort(state.support), rows)

    @pytest.mark.parametrize("batch", [None, 2])
    def test_a_noiseless_pass_carries_the_rows_a_scan_would_find(self, monkeypatch, batch):
        # a shadow state that carries nothing takes every call the pass
        # makes, each collapse with the pass's own draws; a collapse calls
        # no kernel, and its own carry is checked once both states collapsed
        failures, checks, shrunk, collapsing = [], [0], [0], [False]
        shadow = {}
        apply_original, collapse_original, carry_original = (
            gates.apply_gate, gates._collapse, gates._carry)

        def check(state, what):
            checks[0] += state.support is not None
            twin = shadow["state"]
            if not self.exact(state):
                failures.append((what, "support"))
            if state.dense != twin.dense or state.live.tobytes() != twin.live.tobytes():
                failures.append((what, "state"))

        def applied(state, g, **kwargs):
            before = None if state.support is None else state.support.size
            if collapsing[0]:
                failures.append((g, "a kernel inside a collapse"))
            apply_original(state, g, **kwargs)
            apply_original(shadow["state"], g, **kwargs)
            if before is not None and state.support is not None and state.support.size < before:
                shrunk[0] += 1
            check(state, g)
            return state

        def collapsed(state, g, uniforms, *args):
            collapsing[0] = True
            try:
                bits = collapse_original(state, g, uniforms, *args)
                collapse_original(shadow["state"], g, uniforms, *args)
            finally:
                collapsing[0] = False
            check(state, (g.kind.mnemonic, g.qubits[0]))
            return bits

        def carried(state):
            carry_original(state)
            if not collapsing[0]:
                check(state, "carry")

        monkeypatch.setattr(gates, "apply_gate", applied)
        monkeypatch.setattr(gates, "_collapse", collapsed)
        monkeypatch.setattr(gates, "_carry", carried)
        rng = np.random.default_rng(2121 + (batch or 0))
        for case in range(6):
            n, dense = 13 + case % 3, case % 2 == 1
            ops = self.program(rng, n, dense)
            seed = int(rng.integers(1 << 30))
            shadow.update(state=StateVector(n, batch))
            state, _ = run_circuit(n, ops, rng=np.random.default_rng(seed), batch=batch)
            if state.live.tobytes() != shadow["state"].live.tobytes():
                failures.append((case, "final bytes"))
            if dense != shadow["state"].dense:
                failures.append((case, "dense at the end"))
        assert not failures, failures[:5]
        assert checks[0] > 100 and shrunk[0] > 0

    @pytest.mark.parametrize("n", [13, 14])
    def test_the_noisy_carried_state_carries_the_rows_a_scan_would_find(self, monkeypatch, n):
        failures, checks = [], [0]
        original = trajectories.apply_gate

        def applied(state, g, **kwargs):
            original(state, g, **kwargs)
            checks[0] += state.support is not None
            if not self.exact(state):
                failures.append(g)
            return state

        monkeypatch.setattr(trajectories, "apply_gate", applied)
        rng = np.random.default_rng(2200 + n)
        for width in (1, 3, 8):
            for p in (0.01, 0.1):
                ops = TestFusion.permutation_heavy(rng, n, 30) + self.cancelling(0, 1)
                ops += random_circuit(rng, n, max_gates=6)
                at = sorted(rng.choice(len(ops), 2, replace=False))
                for i, kind in zip(at, ("measure", "prep_z")):
                    ops.insert(int(i), gate(kind, int(rng.integers(n))))
                TestGroupedNoisyPass.assert_same(n, ops, p, True, width,
                                                 int(rng.integers(1 << 30)))
        assert not failures, failures[:5]
        assert checks[0] > 20

    @pytest.mark.parametrize("batch", [None, 2])
    def test_a_fresh_ground_state_carries_what_a_scan_finds_without_one(self, monkeypatch, batch):
        # row 0 from SCAN_MIN_QUBITS on, nothing below it, never dense: the
        # scan's answer, its dtype and bytes too
        for n in (gates.SCAN_MIN_QUBITS - 1, gates.SCAN_MIN_QUBITS, 15):
            scanned, ground = StateVector(n, batch), gates._ground(n, batch)
            gates._carry(scanned)
            assert ground.dense is scanned.dense is False
            assert (ground.support is None) is (scanned.support is None)
            if n >= gates.SCAN_MIN_QUBITS:
                assert ground.support.dtype == scanned.support.dtype
                assert ground.support.tobytes() == scanned.support.tobytes()
            assert ground.live.tobytes() == scanned.live.tobytes()
        # so neither pass scans a state it starts from the ground state
        scans = []
        original = gates._scan
        monkeypatch.setattr(gates, "_scan", lambda src: scans.append(1) or original(src))
        ops = TestFusion.permutation_heavy(np.random.default_rng(2424), 13, 40)
        state, _ = run_circuit(13, ops, batch=batch)
        assert not scans and not state.dense
        # one trajectory: a Pauli on it covers the whole state, which keeps its support
        trajectories.noisy_pass(13, trajectories.lowered_run(13, ops), np.random.default_rng(5),
                                0.05, 1)
        assert not scans

    def test_a_noiseless_pass_scans_at_most_once(self, monkeypatch):
        scans = []
        original = gates._scan
        monkeypatch.setattr(gates, "_scan", lambda src: scans.append(1) or original(src))
        rng = np.random.default_rng(2323)
        for n, batch in ((13, None), (14, 2), (15, None)):
            for dense in (False, True):
                ops = TestFusion.permutation_heavy(rng, n, 60)
                if dense:
                    ops[30:30] = [gate("h", q) for q in range(n - 3)]
                del scans[:]
                run_circuit(n, ops, batch=batch)
                assert len(scans) <= 1

    def test_apply_gate_scans_a_state_no_pass_owns_on_every_call(self, monkeypatch):
        # what c09 and ``qaccel bench`` time
        scans = []
        original = gates._scan
        monkeypatch.setattr(gates, "_scan", lambda src: scans.append(1) or original(src))
        n = 13
        amps = np.zeros(1 << n, complex)
        amps[[3, 40, 700]] = 1 / np.sqrt(3)
        reset = StateVector(n)
        apply_gate(reset, gate("h", 0))
        reset.reset_ground()
        for state in (StateVector(n), StateVector.from_amplitudes(amps), alloc_state(n), reset):
            del scans[:]
            for g in (gate("x", 2), gate("h", 1), gate("cnot", 1, 5), gate("rz", 5, angle=0.3)):
                apply_gate(state, g)
                assert state.support is None
            assert len(scans) == 4

    def test_a_returned_state_carries_the_rows_a_scan_finds(self):
        # run_circuit hands its support back, support_rows gives it sorted,
        # and a dense or small state carries none
        n, rng = 14, np.random.default_rng(2424)
        ops = TestFusion.permutation_heavy(rng, n, 20) + [gate("measure", 3)]
        for batch in (None, 2):
            state, _ = run_circuit(n, ops, rng=np.random.default_rng(0), batch=batch)
            assert state.support is not None and self.exact(state)
            rows = gates.support_rows(state)
            assert np.array_equal(rows, np.sort(state.support))
            assert np.all(rows[1:] > rows[:-1])
        for m, prefix in ((n, ops[:8] + [gate("h", q) for q in range(n)]), (12, [])):
            state, _ = run_circuit(m, prefix + [gate("h", 0), gate("x", 1)])
            assert state.support is None and gates.support_rows(state) is None
        # a copy carries an equal support, and a collapse an exact one; a
        # columns= application and a reset drop it
        state = StateVector(n, 2)
        apply_gate(state, gate("h", 0))
        for collapse in (measure, prep_z):
            gates._carry(state)
            collapse(state, 0, rng)
            assert state.support is not None and TestCarriedSupport.exact(state)
        for drop in (lambda s: s.reset_ground(),
                     lambda s: apply_gate(s, gate("x", 1), columns=np.array([1]))):
            gates._carry(state)
            assert state.support is not None
            assert np.array_equal(state.copy().support, state.support)
            drop(state)
            assert state.support is None
