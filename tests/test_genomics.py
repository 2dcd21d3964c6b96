"""Read-alignment circuit generation and end-to-end ranking."""

import functools
import hashlib
import itertools
import operator

import numpy as np
import pytest

from qaccel.cqasm import emit
from qaccel.errors import CapacityError
from qaccel.genomics import (
    AlignmentInstance,
    AlignmentResult,
    _CircuitWriter,
    align,
    build_alignment_circuit,
    encode_reference,
    index_marginals,
    nucleotides_to_bits,
    sequence_bits,
)
from qaccel import gates, genomics, trajectories
from qaccel.gates import GateInstance, GateKind, apply_gate, run_circuit
from qaccel.statecore import StateVector
from qaccel.tensor_oracle import dense_simulate, simulate_instructions

TOY = AlignmentInstance("0110", "01", iterations=1)


def _stage_state(inst, upto_kernel):
    """Oracle state after running the circuit through the named kernel."""
    program = build_alignment_circuit(inst)
    ops = []
    for kernel in program.kernels:
        ops.extend(kernel.instructions)
        if kernel.name == upto_kernel:
            break
    return simulate_instructions(program.n, ops)


class TestEncodeReference:
    def test_sliding_window_with_sentinel_pad(self):
        assert encode_reference("0110", 2) == [(0, "01"), (1, "11"), (2, "10"), (3, None)]

    def test_single_slice_no_pad(self):
        assert encode_reference("00", 2) == [(0, "00")]

    def test_read_longer_than_reference(self):
        with pytest.raises(ValueError):
            encode_reference("01", 3)

    def test_empty_read(self):
        with pytest.raises(ValueError):
            encode_reference("01", 0)

    def test_nucleotide_windows_start_on_bases(self):
        # TAAT: every window starts on a base, so there are 3, not 5
        assert encode_reference("11000011", 4, 2) == [
            (0, "1100"), (1, "0000"), (2, "0011"), (3, None)]

    def test_two_candidates_pad_to_four(self):
        slices = encode_reference("011", 2)
        assert slices == [(0, "01"), (1, "11"), (2, None), (3, None)]


class TestInstance:
    def test_toy_register_budget(self):
        assert TOY.index_qubits == 2
        assert TOY.data_qubits == 2
        assert TOY.ancilla_qubits == 1
        assert TOY.total_qubits == 5

    def test_single_slice_degenerates(self):
        inst = AlignmentInstance("01", "01")
        assert inst.index_qubits == 0
        program = build_alignment_circuit(inst)
        superpose = program.kernels[0]
        assert superpose.name == "superpose"
        assert superpose.instructions == ()

    def test_zero_iterations_skip_amplify(self):
        inst = AlignmentInstance("0110", "01", iterations=0)
        program = build_alignment_circuit(inst)
        assert program.kernels[3].name == "amplify"
        assert program.kernels[3].instructions == ()

    def test_validation(self):
        with pytest.raises(ValueError):
            AlignmentInstance("0x1", "0")
        with pytest.raises(ValueError):
            AlignmentInstance("01", "011")
        with pytest.raises(ValueError):
            AlignmentInstance("01", "0", iterations=-1)
        with pytest.raises(ValueError):
            AlignmentInstance("01", "0", diffusion="everything")

    def test_an_instance_past_the_qubit_cap_is_a_capacity_error(self):
        assert AlignmentInstance("0" * 15, "1" * 14).total_qubits == 29
        with pytest.raises(CapacityError, match="^qubit count 31 outside"):
            AlignmentInstance("0" * 16, "1" * 15)

    def test_nucleotide_translation(self):
        assert nucleotides_to_bits("ACGT") == "00011011"
        with pytest.raises(ValueError):
            nucleotides_to_bits("ACGU")

    def test_sequences_in_one_alphabet(self):
        assert sequence_bits("0110", "01") == ("0110", "01", 1)
        assert sequence_bits("TAAT", "aa") == ("11000011", "0000", 2)
        for reference, read in (("0110", "CG"), ("ACGT", "01")):
            with pytest.raises(ValueError):
                sequence_bits(reference, read)

    def test_stride_counts_positions_in_symbols(self):
        inst = AlignmentInstance("11000011", "0000", stride=2)
        assert inst.positions == 3 and inst.index_count == 4
        with pytest.raises(ValueError):
            AlignmentInstance("110000110", "0000", stride=2)
        with pytest.raises(ValueError):
            AlignmentInstance("11000011", "000", stride=2)


class TestControlledX:
    @pytest.mark.parametrize("controls,kind", [([], GateKind.X), ([0], GateKind.CNOT),
                                               ([0, 1], GateKind.TOFFOLI)])
    def test_few_controls_give_one_gate_per_target(self, controls, kind):
        w = _CircuitWriter(AlignmentInstance("10110010", "011"))
        w.multi_controlled_x(controls, [4, 5])
        assert w.take() == (GateInstance(kind, (*controls, 4)), GateInstance(kind, (*controls, 5)))

    @pytest.mark.parametrize("controls", [[], [0], [0, 1], [0, 1, 2]])
    def test_no_targets_emit_nothing(self, controls):
        w = _CircuitWriter(AlignmentInstance("10110010", "011"))
        w.multi_controlled_x(controls, [])
        assert w.take() == ()


#: The emitted cQASM of small instances (both diffusions, 0 to 2 Grover
#: rounds, Toffoli ladders and one nucleotide read), by sha256 digest.
EMITTED = [
    (("0110", "01", 0, "joint", 1),
     "1191ef6de48c290a0e10c49d184dd9834a731de6bf11dd1f2ac45a4a54027057"),
    (("0110", "01", 1, "index", 1),
     "bb9795d4a96e3cb8bc6ed0c9a9b2a78283bdbd65ad75234eaba589af12496c40"),
    (("10110010", "011", 2, "joint", 1),
     "bd0064c1163197b21c30e3f084b5a8cf142364b4b69adf98b74a6e70d2664adc"),
    ((*sequence_bits("ACGTTGCA", "GT")[:2], 1, "index", 2),
     "e58406a30b59352b22cb78d1bd661eb9a5d096f836e2afb6970bd2c9dc12a428"),
]


class TestEmittedCircuits:
    @pytest.mark.parametrize("args,digest", EMITTED, ids=["toy-0", "toy-1-index", "ladder-2",
                                                          "acgt-1-index"])
    def test_emitted_cqasm_is_unchanged(self, args, digest):
        text = emit(build_alignment_circuit(AlignmentInstance(*args)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestStageInvariants:
    def test_uniform_index_slice_pairs_after_encode(self):
        state = _stage_state(TOY, "encode")
        probs = np.abs(state) ** 2
        k = TOY.index_qubits
        read_len = TOY.data_qubits
        expected = 1.0 / TOY.index_count
        for position, bits in encode_reference(TOY.reference, read_len):
            if bits is None:
                continue
            data = sum(int(ch) << j for j, ch in enumerate(bits))
            idx = position | (data << k)
            assert abs(probs[idx] - expected) <= 1e-9

    def test_matching_branch_annihilates_after_distance(self):
        state = _stage_state(TOY, "distance")
        # exact match at position 0: its branch sits at index=0, data=0
        assert abs(abs(state[0]) ** 2 - 1.0 / TOY.index_count) <= 1e-9

    def test_amplification_is_monotone_for_one_iteration(self):
        before = _stage_state(TOY, "distance")
        after = _stage_state(TOY, "amplify")
        marg_before = index_marginals(TOY, np.abs(before) ** 2)
        marg_after = index_marginals(TOY, np.abs(after) ** 2)
        assert marg_after[0] > marg_before[0]


class TestToyReproduction:
    def test_all_zero_amplitude_is_0_625(self):
        program = build_alignment_circuit(TOY)
        amps = dense_simulate(program)
        assert amps[0].real == pytest.approx(0.625, abs=0.005)
        assert amps[0].imag == pytest.approx(0.0, abs=1e-9)

    def test_engine_matches_oracle_on_toy(self):
        program = build_alignment_circuit(TOY)
        oracle = dense_simulate(program)
        state, _ = run_circuit(program.n, program.instructions)
        assert np.abs(state.live - oracle).max() <= 1e-9

    def test_match_ranks_first(self):
        result = align(TOY, 200, np.random.default_rng(5))
        assert result.ranking[0][0] == 0
        assert result.ranking[0][1] > result.ranking[1][1]


class TestAlign:
    def test_unique_match_not_at_position_zero(self):
        inst = AlignmentInstance("1101", "10", iterations=1)
        result = align(inst, 100, np.random.default_rng(3))
        assert result.ranking[0][0] == 1
        others = [p for _pos, p in result.ranking[1:]]
        assert all(result.ranking[0][1] > p for p in others)

    def test_two_candidate_instance_pads_and_ranks(self):
        # R - r + 1 == 2 pads to four indices so the mean stays non-zero
        inst = AlignmentInstance("110", "10", iterations=1)
        assert inst.index_count == 4
        result = align(inst, 100, np.random.default_rng(11))
        assert result.ranking[0][0] == 1
        assert result.ranking[0][1] > result.ranking[1][1]

    def test_identical_slices_give_uniform_marginal(self):
        inst = AlignmentInstance("0000", "00", iterations=1)
        result = align(inst, 100, np.random.default_rng(2))
        probs = [p for _pos, p in result.ranking]
        assert max(probs) - min(probs) <= 1e-9

    def test_no_exact_match_stays_uniform(self):
        # the all-zero oracle sees nothing to mark, so the index marginal
        # keeps the post-encode uniformity regardless of Hamming distances
        inst = AlignmentInstance("0000", "11", iterations=1)
        result = align(inst, 100, np.random.default_rng(8))
        probs = [p for _pos, p in result.ranking]
        assert max(probs) - min(probs) <= 1e-9

    def test_histogram_totals_shots(self):
        result = align(TOY, 500, np.random.default_rng(21))
        assert set(result.histogram) <= set(range(TOY.positions))
        assert sum(result.histogram.values()) + result.padding_readouts == 500

    def test_deterministic_given_seed(self):
        a = align(TOY, 100, np.random.default_rng(33))
        b = align(TOY, 100, np.random.default_rng(33))
        assert a == b and isinstance(a, AlignmentResult)

    def test_index_only_diffusion_runs_normalized(self):
        inst = AlignmentInstance("0110", "01", iterations=1, diffusion="index")
        program = build_alignment_circuit(inst)
        state, _ = run_circuit(program.n, program.instructions)
        assert abs(state.norm_squared() - 1.0) <= 1e-9

    def test_oracle_agreement_on_varied_instances(self):
        cases = [
            AlignmentInstance("0110", "01"),
            AlignmentInstance("10101", "101"),
            AlignmentInstance("110010", "10", iterations=2),
            AlignmentInstance("0110", "01", diffusion="index"),
        ]
        for inst in cases:
            program = build_alignment_circuit(inst)
            oracle = dense_simulate(program)
            state, _ = run_circuit(program.n, program.instructions)
            assert np.abs(state.live - oracle).max() <= 1e-9

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError):
            align(TOY, 0, np.random.default_rng(0))


class TestAlignMarginals:
    @staticmethod
    def instances():
        """Perfbench-shaped instances, a 5-bit read in a 32-bit reference on
        17 qubits, then one under ``SCAN_MIN_QUBITS`` qubits and one of 13
        qubits with a single index value."""
        rng = np.random.default_rng(3737)
        for i in range(6):
            reference = "".join(map(str, rng.integers(2, size=32)))
            at = int(rng.integers(28))
            yield AlignmentInstance(reference, reference[at:at + 5], iterations=i % 3)
        yield TOY
        yield AlignmentInstance("10110100", "10110100")

    def test_align_sums_the_whole_states_marginals(self, monkeypatch):
        # byte for byte, whether it sums the carried rows alone or every row
        summed, carried = [], []
        sums, rows_of = genomics.index_marginals, genomics.support_rows
        monkeypatch.setattr(genomics, "index_marginals",
                            lambda *args: summed.append(sums(*args)) or summed[-1])
        monkeypatch.setattr(genomics, "support_rows",
                            lambda state: carried.append(state.support is not None)
                            or rows_of(state))
        for inst in self.instances():
            align(inst, 100, np.random.default_rng(1))
            program = build_alignment_circuit(inst)
            state, _ = run_circuit(program.n, program.instructions)
            assert summed[-1].tobytes() == index_marginals(inst, state.probabilities()).tobytes()
        assert [inst.total_qubits for inst in self.instances()] == [17] * 6 + [5, 13]
        assert carried == [True] * 6 + [False]  # one index value reads every row


#: Final states of noiseless ``align`` engine passes, by sha256 of the live
#: buffer (numpy 2.4.6 on x86-64): two instances of the perfbench ``align``
#: shape, a 5-bit read in a 32-bit reference on 17 qubits, and a 13-qubit
#: one run as a batch of two trajectories.
ENGINE_PASSES = [
    (("00100011010100110101000111100001", "11010"), None, "14158d27ae78311673378cd1700fc7d69796f3fb895a8e419e05d2f6b2f64e7f"),
    (("11101000110000010110000010001000", "10001"), None, "f0fe4a8c8a63c0e87d174279456bc22729fa81748a5a7485b08242debb1976c8"),
    (("1111011000111010", "1101"), 2, "eae01ba52ab60f0ec9ed57fa55203abdf27767a8754b00b7ace828aa9044c347"),
]


class TestAlignEnginePass:
    @staticmethod
    def signed(item):
        """Whether a ``_fused`` item is a signed permutation."""
        if isinstance(item, gates._Block):
            return item.table.signed
        return item.kind in gates._SIGNED

    @pytest.mark.parametrize("args,batch,digest", ENGINE_PASSES,
                             ids=["align-17-a", "align-17-b", "align-13-batch"])
    def test_final_state_bytes_are_unchanged(self, args, batch, digest):
        program = build_alignment_circuit(AlignmentInstance(*args))
        state, _ = run_circuit(program.n, program.instructions, batch=batch)
        assert hashlib.sha256(state.live.tobytes()).hexdigest() == digest
        # the fused items, applied one at a time, give the pass's bytes, and
        # the pass moves a stretch of two or more signed items through a
        # sparse state
        replay, stretch, longest = StateVector(program.n, batch), 0, 0
        for item in gates._fused(program.instructions):
            occupied = (replay.live != 0).reshape(replay.dim, -1).any(axis=1).sum()
            sparse = occupied <= gates.SCATTER_MAX_FRACTION * replay.dim
            stretch = stretch + 1 if sparse and self.signed(item) else 0
            longest = max(longest, stretch)
            apply_gate(replay, item)
        assert replay.live.tobytes() == state.live.tobytes()
        assert longest >= 2


class TestLoweringOnce:
    def test_the_circuit_writers_gates_pass_every_check(self):
        # the writer skips GateInstance's checks (Program checks ranges
        # only): every instruction it writes, over c08's enumeration range,
        # both diffusion modes and iterations 0-3, is one a checked
        # constructor accepts as it is, so no operand repeats
        fields = operator.attrgetter("kind", "qubits", "angle")
        written = set()
        for big in range(1, 9):
            for small in range(1, min(big, 3) + 1):
                for ref, read in itertools.product(
                        map("".join, itertools.product("01", repeat=big)),
                        map("".join, itertools.product("01", repeat=small))):
                    for diffusion, k in itertools.product(("joint", "index"), range(4)):
                        inst = AlignmentInstance(ref, read, k, diffusion)
                        written.update(map(fields, build_alignment_circuit(inst).instructions))
        assert len(written) > 30
        for kind, qubits, angle in written:
            checked = GateInstance(kind, qubits, angle)
            assert GateInstance.prevalidated(kind, qubits, angle) == checked
            assert type(qubits) is tuple and all(type(q) is int for q in qubits)

    def test_caches_stay_bounded_over_repeated_align_ops(self):
        # two rounds of 32 instances of the perfbench align shape (a 5-bit
        # read in a 32-bit reference): the block and gate-table caches stay
        # within their bounds, each block's terms are held in its block
        # cache entry, and no cache or module-level container grows in the
        # second round
        rng = np.random.default_rng(1)
        pool = [AlignmentInstance("".join(map(str, rng.integers(2, size=32))),
                                  "".join(map(str, rng.integers(2, size=5)))) for _ in range(32)]
        modules = (gates, trajectories, genomics)

        def sizes():
            held = {}
            for module in modules:
                for name, value in vars(module).items():
                    if isinstance(value, functools._lru_cache_wrapper):
                        held[module.__name__, name] = value.cache_info().currsize
                    elif isinstance(value, (dict, set, frozenset, list)):
                        held[module.__name__, name] = len(value)
            return held

        rounds = []
        for _ in range(2):
            for inst in pool:
                align(inst, 16, np.random.default_rng(0))
            rounds.append(sizes())
            assert gates._block.cache_info().currsize <= gates.FUSED_BLOCKS_KEPT
            assert gates._gate_table.cache_info().currsize <= gates.GATE_TABLES_KEPT
        assert rounds[0] == rounds[1]
        for inst in pool[:4]:
            for item in gates._fused(build_alignment_circuit(inst).instructions):
                if isinstance(item, gates._Block) and item.table.signed:
                    key = tuple((g.kind, g.qubits) for g in item.gates)
                    assert gates._block(key) is item
                    # made by the block's sparse passes above, and kept with it
                    assert item._kept_terms == gates._terms(item.qubits, item.table)
