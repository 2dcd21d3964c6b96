"""Parser, emitter and dependency-graph builder for the cQASM subset.

Grammar (line oriented, one statement per line, ``#`` starts a comment):

    version 1.0
    qubits N
    .kernel_name
    gate q[i](, q[j], q[k])(, angle)

Mnemonics are case-insensitive; kernel identifiers are case-sensitive and
match ``[A-Za-z_][A-Za-z0-9_]*``.  Gates are x, y, z, h, rx, ry, rz, cnot,
cz, toffoli, swap, prep_z, measure; the rotation gates take one trailing
angle in radians.  Basis index bit k is qubit k (qubit 0 least
significant); emitted bitstrings print qubit n-1 leftmost.

Instructions that appear before any ``.name`` marker form an unnamed
leading kernel that emits without a marker line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from .errors import ParseError
from .gates import MNEMONICS, GateInstance

_KERNEL_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")  # a whole name, by fullmatch
_OPERAND_RE = re.compile(r"^q\s*\[\s*(\d+)\s*\]$", re.ASCII)
#: A count or dimension in cQASM and topology specs (int also reads "_", "+" and
#: other scripts' digits); a "-" is read so that a least-value check rejects it.
ASCII_INTEGER = re.compile(r"-?[0-9]+")


@dataclass(frozen=True)
class Kernel:
    """A named, purely organizational group of instructions."""

    name: str | None
    instructions: tuple[GateInstance, ...]

    def __post_init__(self):
        object.__setattr__(self, "instructions", tuple(self.instructions))
        if self.name is not None and not _KERNEL_NAME_RE.fullmatch(self.name):
            raise ValueError(f"invalid kernel name {self.name!r}")


@dataclass(frozen=True)
class Program:
    """A parsed circuit: header plus an ordered sequence of kernels."""

    version: str
    n: int
    kernels: tuple[Kernel, ...]

    def __post_init__(self):
        object.__setattr__(self, "kernels", tuple(self.kernels))
        if self.n < 1:
            raise ValueError(f"qubit count must be >= 1, got {self.n}")
        names = [k.name for k in self.kernels if k.name is not None]
        if len(names) != len(set(names)):
            raise ValueError("kernel names must be unique")
        for g in self.instructions:
            if max(g.qubits) >= self.n:
                raise ValueError(f"operand {max(g.qubits)} out of range for {self.n} qubits")

    @cached_property
    def instructions(self) -> tuple[GateInstance, ...]:
        """Every kernel's instructions in order, flattened once per program."""
        return tuple(g for k in self.kernels for g in k.instructions)


def parse(text: str) -> Program:
    """Parse cQASM source; grammar errors carry the offending line number.
    The unnamed leading kernel is kept only if it holds an instruction."""
    version: str | None = None
    n: int | None = None
    kernels: list[tuple[str | None, list[GateInstance]]] = [(None, [])]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        lowered = line.lower()

        if version is None:  # a header keyword, then whitespace, then its value
            if lowered.split()[0] != "version":
                raise ParseError("missing 'version' header", lineno)
            value = line[len("version"):].strip()
            if value != "1.0":
                raise ParseError(f"unsupported version {value!r} (expected 1.0)", lineno)
            version = value
            continue

        if n is None:
            if lowered.split()[0] != "qubits":
                raise ParseError("missing 'qubits' header", lineno)
            value = line[len("qubits"):].strip()
            if not ASCII_INTEGER.fullmatch(value):
                raise ParseError(f"invalid qubit count {value!r}", lineno)
            n = int(value)
            if n < 1:
                raise ParseError(f"qubit count must be >= 1, got {n}", lineno)
            continue

        if line.startswith("."):
            name = line[1:].strip()
            if not _KERNEL_NAME_RE.fullmatch(name):
                raise ParseError(f"invalid kernel name {name!r}", lineno)
            if any(name == seen for seen, _ in kernels):
                raise ParseError(f"duplicate kernel name {name!r}", lineno)
            kernels.append((name, []))
            continue

        kernels[-1][1].append(_parse_instruction(line, n, lineno))

    if version is None:
        raise ParseError("missing 'version' header", 1)
    if n is None:
        raise ParseError("missing 'qubits' header", 1)
    return Program(version, n, [Kernel(name, instrs) for name, instrs in kernels if name or instrs])


def _parse_instruction(line: str, n: int, lineno: int) -> GateInstance:
    head, *rest = line.split(None, 1)
    kind = MNEMONICS.get(head.lower())
    if kind is None:
        raise ParseError(f"unknown gate {head!r}", lineno)
    qubits: list[int] = []
    angle: float | None = None
    for arg in [a.strip() for a in rest[0].split(",")] if rest else []:
        if not arg:
            raise ParseError("empty operand", lineno)
        m = _OPERAND_RE.match(arg)
        if m:
            if angle is not None:
                raise ParseError("qubit operand after angle", lineno)
            qubits.append(int(m.group(1)))
            continue
        try:
            if not arg.isascii() or "_" in arg:  # float reads them; the grammar does not
                raise ValueError
            value = float(arg)
        except ValueError:
            raise ParseError(f"malformed operand {arg!r}", lineno) from None
        if angle is not None:
            raise ParseError("more than one angle", lineno)
        angle = value
    for q in qubits:
        if q >= n:
            raise ParseError(f"qubit index {q} out of range for {n} qubits", lineno)
    try:
        return GateInstance(kind, tuple(qubits), angle)
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from None


def emit(program: Program) -> str:
    """Canonical text form; ``parse(emit(p))`` is structurally equal to p.

    Angles print via repr, the shortest digit string that round-trips the
    exact double.
    """
    lines = [f"version {program.version}", f"qubits {program.n}"]
    for kernel in program.kernels:
        if kernel.name is not None:
            lines.append(f".{kernel.name}")
        for g in kernel.instructions:
            operands = ", ".join(f"q[{q}]" for q in g.qubits)
            if g.angle is not None:
                operands += f", {g.angle!r}"
            lines.append(f"{g.kind.mnemonic} {operands}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DependencyDAG:
    """Ordering constraints between instructions that share an operand qubit.

    Edge (i, j) means instruction i is the latest predecessor of j on some
    shared qubit; the relation is acyclic because edges always point
    forward in program order.
    """

    node_count: int
    edges: frozenset[tuple[int, int]]

    def predecessors(self, j: int) -> list[int]:
        return sorted(i for i, jj in self.edges if jj == j)

    def successors(self, i: int) -> list[int]:
        return sorted(j for ii, j in self.edges if ii == i)


def dependency_graph(program: Program) -> DependencyDAG:
    """Edge i -> j when j is the next instruction touching one of i's qubits."""
    last_on_qubit: dict[int, int] = {}
    edges: set[tuple[int, int]] = set()
    instructions = program.instructions
    for j, g in enumerate(instructions):
        for q in g.qubits:
            i = last_on_qubit.get(q)
            if i is not None:
                edges.add((i, j))
            last_on_qubit[q] = j
    return DependencyDAG(len(instructions), frozenset(edges))
