"""Grammar, canonical emission and dependency graph."""

import numpy as np
import pytest

from helpers import make_program, random_circuit
from qaccel.cqasm import (
    Kernel,
    Program,
    dependency_graph,
    emit,
    parse,
)
from qaccel.errors import ParseError
from qaccel.gates import GateKind, gate
from qaccel.harness.cli import main
from qaccel.tensor_oracle import simulate_instructions

BELL = "version 1.0\nqubits 2\n.bell\nh q[0]\ncnot q[0],q[1]\nmeasure q[0]\n"


class TestParse:
    def test_bell_program(self):
        program = parse(BELL)
        assert program.version == "1.0"
        assert program.n == 2
        assert len(program.kernels) == 1
        assert program.kernels[0].name == "bell"
        kinds = [g.kind for g in program.instructions]
        assert kinds == [GateKind.H, GateKind.CNOT, GateKind.MEASURE]

    def test_rotation_angle(self):
        program = parse("version 1.0\nqubits 1\nrx q[0], 1.5708\n")
        (instr,) = program.instructions
        assert instr.kind is GateKind.RX
        assert instr.angle == 1.5708

    def test_range_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            parse("version 1.0\nqubits 2\nh q[5]\n")
        assert err.value.line == 3

    def test_missing_version(self):
        with pytest.raises(ParseError) as err:
            parse("qubits 2\nh q[0]\n")
        assert "version" in str(err.value)

    def test_missing_qubits(self):
        with pytest.raises(ParseError) as err:
            parse("version 1.0\nh q[0]\n")
        assert "qubits" in str(err.value)

    def test_file_ends_before_qubits(self):
        with pytest.raises(ParseError, match="'qubits' header") as err:
            parse("version 1.0\n# no register\n")
        assert err.value.line == 1

    def test_empty_source(self):
        with pytest.raises(ParseError):
            parse("")

    def test_unknown_gate(self):
        with pytest.raises(ParseError) as err:
            parse("version 1.0\nqubits 1\nfoo q[0]\n")
        assert "unknown gate" in str(err.value)
        assert err.value.line == 3

    def test_arity_mismatch(self):
        with pytest.raises(ParseError) as err:
            parse("version 1.0\nqubits 2\ncnot q[0]\n")
        assert err.value.line == 3

    def test_duplicate_operand(self):
        with pytest.raises(ParseError):
            parse("version 1.0\nqubits 2\ncnot q[0], q[0]\n")

    def test_missing_angle(self):
        with pytest.raises(ParseError):
            parse("version 1.0\nqubits 1\nrx q[0]\n")

    def test_angle_on_plain_gate(self):
        with pytest.raises(ParseError):
            parse("version 1.0\nqubits 1\nx q[0], 0.5\n")

    def test_malformed_operand(self):
        with pytest.raises(ParseError):
            parse("version 1.0\nqubits 1\nx qubit0\n")

    @pytest.mark.parametrize("line, message", [
        ("cnot q[0], , q[1]", "empty operand"),
        ("rx 0.5, q[0]", "qubit operand after angle"),
        ("rx q[0], 0.5, 0.25", "more than one angle"),
    ])
    def test_operand_list_errors(self, line, message):
        with pytest.raises(ParseError, match=message) as err:
            parse(f"version 1.0\nqubits 2\n{line}\n")
        assert err.value.line == 3

    def test_duplicate_kernel_name(self):
        with pytest.raises(ParseError):
            parse("version 1.0\nqubits 1\n.k\nx q[0]\n.k\ny q[0]\n")

    def test_bad_kernel_name(self):
        with pytest.raises(ParseError):
            parse("version 1.0\nqubits 1\n.9lives\nx q[0]\n")

    def test_bad_version(self):
        with pytest.raises(ParseError):
            parse("version 2.0\nqubits 1\nx q[0]\n")

    def test_bad_qubit_count(self):
        with pytest.raises(ParseError):
            parse("version 1.0\nqubits zero\n")
        with pytest.raises(ParseError):
            parse("version 1.0\nqubits 0\n")

    @pytest.mark.parametrize("line, lineno, message", [
        ("qubits 1_0", 2, "invalid qubit count '1_0'"),
        ("qubits +4", 2, "invalid qubit count '\\+4'"),
        ("qubits \u0664", 2, "invalid qubit count '\u0664'"),
        ("qubits 4\nh q[\u0663]", 3, "malformed operand 'q\\[\u0663\\]'"),
        ("qubits 4\nrx q[0], 1_0.5", 3, "malformed operand '1_0.5'"),
        ("qubits 4\nrx q[0], \u0663", 3, "malformed operand '\u0663'"),
        ("qubits 4\nrx q[0], nan", 3, "angle must be finite"),
        ("qubits 4\nrx q[0], -inf", 3, "angle must be finite"),
    ], ids=["underscore-count", "signed-count", "arabic-indic-count", "arabic-indic-index",
            "underscore-angle", "arabic-indic-angle", "nan-angle", "inf-angle"])
    def test_numbers_are_ascii_decimal(self, line, lineno, message):
        # int and float also read "_", a "+" and other scripts' digits
        with pytest.raises(ParseError, match=message) as err:
            parse(f"version 1.0\n{line}\n")
        assert err.value.line == lineno

    @pytest.mark.parametrize("text, lineno, header", [
        ("version1.0\nqubits 4\n", 1, "version"),
        ("version 1.0\nqubits4\n", 2, "qubits"),
        ("# banner\nVERSION 1.0\nQubits04\n", 3, "qubits"),
    ], ids=["version", "qubits", "qubits-cased"])
    def test_a_header_keyword_needs_whitespace_before_its_value(self, text, lineno, header,
                                                                tmp_path, capsys):
        with pytest.raises(ParseError, match=f"missing '{header}' header") as err:
            parse(text)
        assert err.value.line == lineno
        qasm = tmp_path / "glued.qasm"
        qasm.write_text(text)
        assert main(["run", str(qasm), "--store", str(tmp_path / "runs.jsonl")]) == 1
        assert capsys.readouterr().err == f"error: line {lineno}: missing '{header}' header\n"
        assert not (tmp_path / "runs.jsonl").exists()

    def test_any_whitespace_between_a_header_keyword_and_its_value(self):
        program = parse("version\t1.0\nqubits\t4\nx q[3]\n")
        assert (program.version, program.n) == ("1.0", 4)
        assert parse("version \t 1.0\nQUBITS  \t2\n").n == 2

    def test_negative_qubit_count_keeps_its_message(self):
        with pytest.raises(ParseError, match="qubit count must be >= 1, got -3"):
            parse("version 1.0\nqubits -3\n")

    def test_comments_blanks_and_crlf(self):
        text = "# banner\r\nversion 1.0\r\n\r\nqubits 2  # two wires\r\n.k\r\nx q[0] # flip\r\n"
        program = parse(text)
        assert program.n == 2
        assert [g.kind for g in program.instructions] == [GateKind.X]

    def test_any_whitespace_after_mnemonic(self):
        program = parse("version 1.0\nqubits 2\nh\tq[0]\ncnot \t q[0], q[1]\nrx\tq[1],\t0.5\n")
        assert [g.kind for g in program.instructions] == [GateKind.H, GateKind.CNOT, GateKind.RX]
        assert program.instructions[2].angle == 0.5

    def test_case_insensitive_mnemonics(self):
        program = parse("VERSION 1.0\nQubits 1\nX q[0]\nRx q[0], 0.25\n")
        assert [g.kind for g in program.instructions] == [GateKind.X, GateKind.RX]

    def test_instructions_before_any_kernel(self):
        program = parse("version 1.0\nqubits 1\nx q[0]\n.late\ny q[0]\n")
        assert program.kernels[0].name is None
        assert program.kernels[1].name == "late"

    def test_kernels_keep_their_order_and_empty_markers(self):
        program = parse("version 1.0\nqubits 1\n.a\n.b\nx q[0]\n.c\n")
        assert [(k.name, len(k.instructions)) for k in program.kernels] == [
            ("a", 0), ("b", 1), ("c", 0)]
        assert parse("version 1.0\nqubits 1\n").kernels == ()


class TestEmit:
    def test_bell_round_trip(self):
        program = parse(BELL)
        assert parse(emit(program)) == program

    def test_angle_survives_bit_exact(self):
        theta = 1.5707963267948966
        program = make_program(1, [gate("rz", 0, angle=theta)])
        round_tripped = parse(emit(program))
        assert round_tripped.instructions[0].angle == theta

    def test_header_only_for_empty_kernel_list(self):
        assert emit(Program("1.0", 3, ())) == "version 1.0\nqubits 3\n"

    def test_unnamed_leading_kernel_round_trip(self):
        text = "version 1.0\nqubits 2\nx q[0]\n.rest\ncnot q[0], q[1]\n"
        program = parse(text)
        assert emit(program) == text
        assert parse(emit(program)) == program

    @pytest.mark.parametrize("name", ["k", "_k9", "k\n", "k\n\n", "k\r", "k ", "k.k", "9k"])
    def test_every_kernel_a_program_holds_round_trips(self, name):
        # "$" also matches before a final newline: Kernel("k\n") was accepted
        # and read back as "k"
        try:
            program = Program("1.0", 1, [Kernel(name, [gate("x", 0)])])
        except ValueError as exc:
            assert str(exc) == f"invalid kernel name {name!r}"
            return
        assert parse(emit(program)) == program

    def test_idempotent_canonicalization(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            program = make_program(n, random_circuit(rng, n, max_gates=15), name="body")
            once = parse(emit(program))
            twice = parse(emit(once))
            assert once == twice == program


class TestDependencyGraph:
    def test_disjoint_qubits_no_edges(self):
        program = make_program(2, [gate("h", 0), gate("x", 1)])
        assert dependency_graph(program).edges == frozenset()

    def test_chain_through_shared_operands(self):
        program = make_program(2, [gate("h", 0), gate("cnot", 0, 1), gate("x", 1)])
        assert dependency_graph(program).edges == {(0, 1), (1, 2)}

    def test_no_transitive_edge(self):
        program = make_program(1, [gate("x", 0), gate("y", 0), gate("z", 0)])
        assert dependency_graph(program).edges == {(0, 1), (1, 2)}

    def test_helpers(self):
        program = make_program(2, [gate("h", 0), gate("cnot", 0, 1), gate("x", 1)])
        dag = dependency_graph(program)
        assert dag.predecessors(1) == [0]
        assert dag.successors(1) == [2]

    def test_always_acyclic_and_forward(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            program = make_program(n, random_circuit(rng, n, max_gates=25))
            dag = dependency_graph(program)
            assert all(i < j for i, j in dag.edges)

    def test_topological_order_preserves_semantics(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            ops = random_circuit(rng, n, max_gates=12)
            program = make_program(n, ops)
            dag = dependency_graph(program)
            order = self._random_topological_order(dag, len(ops), rng)
            reordered = [ops[i] for i in order]
            original = simulate_instructions(n, ops)
            shuffled = simulate_instructions(n, reordered)
            assert np.abs(original - shuffled).max() <= 1e-9

    @staticmethod
    def _random_topological_order(dag, count, rng):
        pending = {j: len(dag.predecessors(j)) for j in range(count)}
        order = []
        ready = sorted(j for j, d in pending.items() if d == 0)
        while ready:
            pick = ready.pop(int(rng.integers(len(ready))))
            order.append(pick)
            for succ in dag.successors(pick):
                pending[succ] -= 1
                if pending[succ] == 0:
                    ready.append(succ)
            ready.sort()
        return order


class TestProgramValidation:
    def test_operand_out_of_range(self):
        with pytest.raises(ValueError):
            Program("1.0", 1, (Kernel(None, (gate("x", 1),)),))

    def test_duplicate_kernel_names(self):
        with pytest.raises(ValueError):
            Program("1.0", 1, (Kernel("a", ()), Kernel("a", ())))

    def test_flat_instruction_view(self):
        program = Program(
            "1.0", 2, (Kernel("a", (gate("x", 0),)), Kernel("b", (gate("y", 1),)))
        )
        assert [g.kind for g in program.instructions] == [GateKind.X, GateKind.Y]
