"""Read-alignment circuit generation and end-to-end ranking."""

import numpy as np
import pytest

from qaccel.genomics import (
    AlignmentInstance,
    AlignmentResult,
    align,
    build_alignment_circuit,
    encode_reference,
    index_marginals,
    nucleotides_to_bits,
    sequence_bits,
)
from qaccel.gates import run_circuit
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
