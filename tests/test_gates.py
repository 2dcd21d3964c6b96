"""Mapping-function gate semantics, measurement, sampling, and noise."""

import functools
import math

import numpy as np
import pytest

from helpers import engine_state, random_circuit
from qaccel import gates, statecore
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
from qaccel.statecore import StateVector, alloc_state
from qaccel.tensor_oracle import base_unitary, simulate_instructions

S = 1 / math.sqrt(2)


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
        kernel, counting the lookup scatter ``_move`` as the scatter.
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
            assert not state.dead.view(np.uint64).any()
        return state.live.copy()

    @staticmethod
    def sparse_kernels(ops):
        """The sparse kernel each gate should get: the lookup scatter for the
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
        # the six signed permutation kinds go to the lookup scatter and every
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
                columns.append(StateVector.from_amplitudes(amps / np.linalg.norm(amps)).live)
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
                        assert not state.dead.view(np.uint64).any()
                assert log == (self.sparse_kernels(ops) if kernel == "scatter"
                               else ["strided"] * len(ops))
                parts = state.live.view(np.float64)
                assert not np.signbit(parts[parts == 0]).any()
                runs.append(state.live.tobytes())
            assert runs[0] == runs[1] == runs[2]

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
            if isinstance(g, gates._Block):
                applied.append((len(g.qubits), state.dense))
            return state

        monkeypatch.setattr(gates, "apply_gate", counted)
        return applied

    @staticmethod
    def products(items):
        """The fused one-qubit products among ``_fused`` items (those whose
        matrix is not a signed permutation)."""
        return [i for i in items if isinstance(i, gates._Block) and i.table.moves is None]

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
            for zero_skip in (True, False):
                del applied[:]
                state, _ = run_circuit(n, ops, zero_skip=zero_skip, batch=batch)
                if not self.products(items):
                    in_order = self.stepwise(n, self.expand(items), zero_skip, batch)
                    assert state.live.tobytes() == in_order.live.tobytes()
                reference = self.stepwise(n, ops, zero_skip, batch)
                assert np.abs(state.live - reference.live).max() <= 1e-12
                assert not state.dead.view(np.uint64).any()
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
            for zero_skip in (True, False):
                state, _ = run_circuit(n, ops, zero_skip=zero_skip)
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
        block = gates._block
        assert list(gates._fused(ops)) == [
            block((x(0), cnot(0, 1), x(1), x(0))), ops[5], ops[2], block((x(2), x(3))), ops[8],
            ops[11], block((x(1), cnot(1, 2), x(4)))]

    def test_released_gates_pass_a_run_on_other_qubits_and_close_one_on_theirs(self):
        h, rz, ry = gate("h", 0), gate("rz", 0, angle=0.5), gate("ry", 1, angle=0.3)
        x, cnot = (lambda q: gate("x", q)), (lambda a, b: gate("cnot", a, b))
        # the product of h and rz goes out before the run on qubits 1 and 2
        items = list(gates._fused([h, rz, x(1), cnot(1, 2), x(0)]))
        assert self.products(items) == [items[0]] and items[0].gates == (h, rz)
        assert items[1:] == [gates._block((x(1), cnot(1, 2), x(0)))]
        # a run that touches the released qubit closes first
        held = gate("h", 1)
        items = list(gates._fused([x(1), cnot(1, 2), held, ry, x(1)]))
        assert items[0] == gates._block((x(1), cnot(1, 2)))
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
                    if signed == {True}:  # a block of signed kinds has a lookup
                        assert item.table.moves is not None
                    else:  # a product has one exactly when its matrix is a signed permutation
                        assert signed == {False} and len(item.qubits) == 1
                        assert (item.table.moves is not None) == self.is_signed_permutation(
                            functools.reduce(lambda m, g: base_unitary(g) @ m, item.gates,
                                             np.eye(2)))

    @staticmethod
    def is_signed_permutation(m):
        nonzero = m != 0
        return bool(not m.imag.any() and (nonzero.sum(axis=0) == 1).all()
                    and (np.abs(m[nonzero]) == 1).all())

    def test_a_product_that_is_a_signed_permutation_has_a_lookup(self, monkeypatch):
        y, h = gate("y", 0), gate("h", 0)
        identity, = gates._fused([y, y])  # Y.Y = I exactly
        assert identity.gates == (y, y) and identity.table.moves is not None
        rotation, = gates._fused([h, y])
        assert rotation.gates == (h, y) and rotation.table.moves is None
        # so a sparse pass moves it through its lookup, with the bytes of Y then Y
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
                    columns.append(StateVector.from_amplitudes(amps / np.linalg.norm(amps)).live)
                ops = []
                for _ in range(60):
                    kind = self.SIGNED_KINDS[int(rng.integers(len(self.SIGNED_KINDS)))]
                    qubits = rng.choice(n, size=gates.MNEMONICS[kind].arity, replace=False)
                    ops.append(gate(kind, *(int(q) for q in qubits)))
                items = list(gates._fused(ops))
                assert self.expand(items) == ops
                negated += sum(isinstance(i, gates._Block) and i.table.moves[1] is not None
                               for i in items)
                finals = []
                for zero_skip in (True, False):
                    fused, stepwise = StateVector(n, batch), StateVector(n, batch)
                    for state in (fused, stepwise):
                        state.live[:] = columns[0] if batch is None else np.stack(columns, axis=1)
                    for item in items:
                        apply_gate(fused, item, zero_skip=zero_skip)
                        assert not fused.dead.view(np.uint64).any()
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
            finals = [run_circuit(n, ops, zero_skip=zero_skip)[0].live for zero_skip in (True, False)]
            assert finals[0].tobytes() == finals[1].tobytes()
            assert np.abs(finals[0] - self.stepwise(n, ops, True).live).max() <= 1e-12
        monkeypatch.setattr(gates, "SCAN_MIN_QUBITS", 3)
        for _ in range(40):
            n = int(rng.integers(3, 11))
            ops = random_circuit(rng, n, max_gates=40)
            products += len(self.products(gates._fused(ops)))
            finals = [run_circuit(n, ops, zero_skip=zero_skip)[0].live for zero_skip in (True, False)]
            assert finals[0].tobytes() == finals[1].tobytes()
            assert np.abs(simulate_instructions(n, ops) - finals[0]).max() <= 1e-9
        assert products > 40

    def test_a_full_block_ends_and_a_lone_gate_stays_a_gate(self):
        cap = gates.FUSE_MAX_QUBITS
        ops = [gate("x", q) for q in range(cap + 1)]
        assert list(gates._fused(ops)) == [gates._block(tuple(ops[:cap])), ops[cap]]

    @pytest.mark.parametrize("batch", [None, 2])
    def test_negative_zero_inputs_keep_the_dead_buffer_clear(self, batch):
        # a sparse pass clears only the rows its scan found nonzero, which is
        # exact because from_amplitudes stores the -0.0 entries as +0.0
        rng = np.random.default_rng(1415 + (batch or 0))
        for n in (13, 14, 15):
            columns = []
            for _ in range(batch or 1):
                amps = np.full(1 << n, complex(-0.0, -0.0))
                support = rng.choice(1 << n, size=64, replace=False)
                amps[support] = rng.normal(size=64) + 1j * rng.normal(size=64)
                amps[support[:8]] = complex(-0.0, 1.0)  # signed zeros in nonzero entries too
                columns.append(StateVector.from_amplitudes(amps / np.linalg.norm(amps)).live)
            items = list(gates._fused(self.permutation_heavy(rng, n, 40)))
            assert any(isinstance(item, gates._Block) for item in items)
            finals = []
            for zero_skip in (True, False):
                state = StateVector(n, batch)
                state.live[:] = columns[0] if batch is None else np.stack(columns, axis=1)
                for item in items:
                    apply_gate(state, item, zero_skip=zero_skip)
                    assert not state.dead.view(np.uint64).any()
                finals.append(state.live.tobytes())
            assert finals[0] == finals[1]

    def test_a_noiseless_pass_calls_apply_gate_once_per_unitary_item(self, monkeypatch):
        # every fused application runs through the public entry point
        applied = []
        original = gates.apply_gate
        monkeypatch.setattr(gates, "apply_gate", lambda state, g, **kwargs: (
            applied.append(g) or original(state, g, **kwargs)))
        rng = np.random.default_rng(1313)
        for _ in range(6):
            ops = random_circuit(rng, 13, max_gates=60, min_gates=40)
            ops.insert(int(rng.integers(len(ops))), gate("measure", int(rng.integers(13))))
            del applied[:]
            run_circuit(13, ops, rng=np.random.default_rng(0))
            items = [i for i in gates._fused(ops) if isinstance(i, gates._Block) or i.kind.is_unitary]
            assert any(isinstance(i, gates._Block) for i in items)
            assert [self.expand([i]) for i in applied] == [self.expand([i]) for i in items]

    def test_noisy_pass_applies_no_block(self, monkeypatch):
        applied = self.count_blocks(monkeypatch)
        ops = self.permutation_heavy(np.random.default_rng(5), 13, 30)
        run_circuit(13, ops, rng=np.random.default_rng(0), noise=NoiseConfig(0.01), batch=2)
        assert applied == []
        run_circuit(13, ops, rng=np.random.default_rng(0), batch=2)
        assert applied

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
        assert [(o, i, type(c), repr(c)) for o, i, c in a.views] == [
            (o, i, type(c), repr(c)) for o, i, c in b.views]
        for x, y in zip((a.cares, a.cols, a.flips), (b.cares, b.cols, b.flips)):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        assert (a.moves is None) == (b.moves is None)

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


def whole_register_strided(src, dst, qubits, table, scratch):
    """The strided kernel as one pass over the whole register per term, each
    product a fresh array: the reference the chunked kernel must match."""
    shape, order, _ = gates._layout(qubits)
    if src.ndim > 1:
        shape, order = shape + src.shape[1:], order + (len(shape),)
    s, d = src.reshape(shape).transpose(order), dst.reshape(shape).transpose(order)
    for out_key, in_key, coef in table.views:
        view = d[out_key]
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
                        assert not state.dead.view(np.uint64).any()
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
        runs = 1000
        cfg = NoiseConfig(0.01)
        for _ in range(runs):
            state, _ = run_circuit(3, circuit, rng=rng, noise=cfg)
            total += fidelity(ideal, state.live)
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
            assert not batch.dead.view(np.uint64).any()
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
        # a plain state's per-trajectory draws are the scalar draws of one shot
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
            state, _ = run_circuit(n, ops, rng=np.random.default_rng(seed), noise=NoiseConfig(0.3))
            assert state.live.tobytes() == expected.live.tobytes()

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
        bits, _ = measure(state, 0, rng)
        assert bits.shape == (64,) and 0 < bits.sum() < 64
        np.testing.assert_allclose(state.live, [1 - bits, bits], atol=1e-15)
        prep_z(state, 0, rng)
        np.testing.assert_allclose(state.live, np.repeat([[1], [0]], 64, axis=1), atol=1e-15)
        assert not state.dead.view(np.uint64).any()

    def test_sample_reads_each_trajectory(self):
        state = StateVector(2, 6)
        state.live[:] = 0
        state.live[[1, 1, 2, 2, 3, 3], np.arange(6)] = 1.0
        probs = state.probabilities()
        assert sample(probs, 1, np.random.default_rng(0)) == {"01": 2, "10": 2, "11": 2}
        assert sum(sample(probs, 5, np.random.default_rng(0)).values()) == 30

