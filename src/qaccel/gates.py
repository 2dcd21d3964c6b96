"""Gates as basis-state mapping functions over the live amplitude buffer.

No gate matrix is ever materialized.  Each gate walks the input buffer's
basis states and writes the mapped contributions into the output buffer;
afterwards the input buffer is zeroed and the parity flag toggles.  Gates
either move each source state to exactly one target (one-to-one: X, Y, Z,
RZ, CNOT, CPHASE, SWAP, TOFFOLI) or split it across two targets sharing
accumulation (one-to-two: H, RX, RY).

Zero-state skipping drops basis states whose input amplitude is exactly
zero.  Every write below is an accumulating scatter with per-group-unique
targets and a fixed group order, so skipping only removes additions of
exact zeros and the output is bit-identical with the optimization on or
off.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .statecore import StateVector, alloc_state


class GateKind(enum.Enum):
    X = "x"
    Y = "y"
    Z = "z"
    H = "h"
    RX = "rx"
    RY = "ry"
    RZ = "rz"
    CNOT = "cnot"
    CPHASE = "cz"
    TOFFOLI = "toffoli"
    SWAP = "swap"
    PREP_Z = "prep_z"
    MEASURE = "measure"

    @property
    def mnemonic(self) -> str:
        return self.value

    @property
    def arity(self) -> int:
        return _ARITY[self]

    @property
    def takes_angle(self) -> bool:
        return self in _ROTATIONS

    @property
    def is_unitary(self) -> bool:
        return self not in (GateKind.PREP_Z, GateKind.MEASURE)


_ARITY = {
    GateKind.X: 1,
    GateKind.Y: 1,
    GateKind.Z: 1,
    GateKind.H: 1,
    GateKind.RX: 1,
    GateKind.RY: 1,
    GateKind.RZ: 1,
    GateKind.CNOT: 2,
    GateKind.CPHASE: 2,
    GateKind.TOFFOLI: 3,
    GateKind.SWAP: 2,
    GateKind.PREP_Z: 1,
    GateKind.MEASURE: 1,
}

_ROTATIONS = frozenset({GateKind.RX, GateKind.RY, GateKind.RZ})

MNEMONICS: Mapping[str, GateKind] = {kind.mnemonic: kind for kind in GateKind}


@dataclass(frozen=True)
class GateInstance:
    """One instruction: a gate kind, its operand qubits, and an optional angle.

    Operand order is controls before target (CNOT: control, target;
    TOFFOLI: control, control, target).
    """

    kind: GateKind
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        if len(self.qubits) != self.kind.arity:
            raise ValueError(
                f"{self.kind.mnemonic} takes {self.kind.arity} qubit(s), got {len(self.qubits)}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"{self.kind.mnemonic} operands must be distinct: {self.qubits}")
        if any(q < 0 for q in self.qubits):
            raise ValueError(f"negative qubit index in {self.qubits}")
        if self.kind.takes_angle:
            if self.angle is None:
                raise ValueError(f"{self.kind.mnemonic} requires an angle")
            object.__setattr__(self, "angle", float(self.angle))
            if not math.isfinite(self.angle):
                raise ValueError(f"{self.kind.mnemonic} angle must be finite, got {self.angle!r}")
        elif self.angle is not None:
            raise ValueError(f"{self.kind.mnemonic} does not take an angle")


def gate(kind: GateKind | str, *qubits: int, angle: float | None = None) -> GateInstance:
    """Convenience constructor accepting a GateKind or its mnemonic."""
    if isinstance(kind, str):
        try:
            kind = MNEMONICS[kind.lower()]
        except KeyError:
            raise ValueError(f"unknown gate mnemonic {kind!r}") from None
    return GateInstance(kind, qubits, angle)


@dataclass(frozen=True)
class NoiseConfig:
    """Depolarizing noise: each operand qubit of each gate independently
    suffers a uniformly random X, Y or Z with probability p."""

    p: float
    seed: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"depolarizing probability must be in [0, 1], got {self.p}")


_SQRT1_2 = 1.0 / math.sqrt(2.0)


def _sources(src: np.ndarray, zero_skip: bool) -> np.ndarray:
    """Basis states fed to the mapping; the skip pass drops exact zeros."""
    if zero_skip:
        return np.flatnonzero(src)
    return np.arange(src.size, dtype=np.intp)


def _split_on_bit(idx: np.ndarray, mask: int) -> tuple[np.ndarray, np.ndarray]:
    hi = (idx & mask) != 0
    return idx[~hi], idx[hi]


def _map_one_to_two(src, dst, q, u00, u01, u10, u11, zero_skip):
    """Generic single-qubit action: source with qubit value b contributes
    u[t][b] to the target state with the qubit set to t."""
    mask = 1 << q
    lo, hi = _split_on_bit(_sources(src, zero_skip), mask)
    dst[lo] += u00 * src[lo]
    dst[hi ^ mask] += u01 * src[hi]
    dst[lo ^ mask] += u10 * src[lo]
    dst[hi] += u11 * src[hi]


def _map_x(src, dst, q, zero_skip):
    # pure address move: |b> -> |1-b>
    mask = 1 << q
    idx = _sources(src, zero_skip)
    dst[idx ^ mask] += src[idx]


def _map_y(src, dst, q, zero_skip):
    # address move plus a phase of +/- i depending on the source bit
    mask = 1 << q
    lo, hi = _split_on_bit(_sources(src, zero_skip), mask)
    dst[lo ^ mask] += 1j * src[lo]
    dst[hi ^ mask] += -1j * src[hi]


def _map_z(src, dst, q, zero_skip):
    lo, hi = _split_on_bit(_sources(src, zero_skip), 1 << q)
    dst[lo] += src[lo]
    dst[hi] += -src[hi]


def _map_h(src, dst, q, zero_skip):
    _map_one_to_two(src, dst, q, _SQRT1_2, _SQRT1_2, _SQRT1_2, -_SQRT1_2, zero_skip)


def _map_rx(src, dst, q, theta, zero_skip):
    c = math.cos(theta / 2.0)
    s = -1j * math.sin(theta / 2.0)
    _map_one_to_two(src, dst, q, c, s, s, c, zero_skip)


def _map_ry(src, dst, q, theta, zero_skip):
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    _map_one_to_two(src, dst, q, c, -s, s, c, zero_skip)


def _map_rz(src, dst, q, theta, zero_skip):
    lo, hi = _split_on_bit(_sources(src, zero_skip), 1 << q)
    dst[lo] += complex(math.cos(theta / 2.0), -math.sin(theta / 2.0)) * src[lo]
    dst[hi] += complex(math.cos(theta / 2.0), math.sin(theta / 2.0)) * src[hi]


def _map_cnot(src, dst, control, target, zero_skip):
    off, on = _split_on_bit(_sources(src, zero_skip), 1 << control)
    dst[off] += src[off]
    dst[on ^ (1 << target)] += src[on]


def _map_cphase(src, dst, a, b, zero_skip):
    idx = _sources(src, zero_skip)
    both = ((idx & (1 << a)) != 0) & ((idx & (1 << b)) != 0)
    plain = idx[~both]
    flip = idx[both]
    dst[plain] += src[plain]
    dst[flip] += -src[flip]


def _map_swap(src, dst, a, b, zero_skip):
    ma, mb = 1 << a, 1 << b
    idx = _sources(src, zero_skip)
    differ = ((idx & ma) != 0) != ((idx & mb) != 0)
    same = idx[~differ]
    move = idx[differ]
    dst[same] += src[same]
    dst[move ^ (ma | mb)] += src[move]


def _map_toffoli(src, dst, c1, c2, target, zero_skip):
    idx = _sources(src, zero_skip)
    on = ((idx & (1 << c1)) != 0) & ((idx & (1 << c2)) != 0)
    rest = idx[~on]
    fire = idx[on]
    dst[rest] += src[rest]
    dst[fire ^ (1 << target)] += src[fire]


def apply_gate(
    state: StateVector,
    g: GateInstance,
    *,
    zero_skip: bool = True,
    rng: np.random.Generator | None = None,
) -> StateVector:
    """Apply one gate by its mapping function; toggles the buffer parity.

    ``rng`` is only consulted for PREP_Z (which measures internally).
    MEASURE is not a mapping and must go through :func:`measure`.
    """
    if any(q >= state.n for q in g.qubits):
        raise IndexError(f"operands {g.qubits} out of range for {state.n} qubits")
    if g.kind is GateKind.MEASURE:
        raise ValueError("measurement is not a gate application; use measure()")
    if g.kind is GateKind.PREP_Z:
        if rng is None:
            raise ValueError("prep_z needs an rng (it measures before resetting)")
        prep_z(state, g.qubits[0], rng)
        return state

    src, dst = state.live, state.dead
    kind = g.kind
    if kind is GateKind.X:
        _map_x(src, dst, g.qubits[0], zero_skip)
    elif kind is GateKind.Y:
        _map_y(src, dst, g.qubits[0], zero_skip)
    elif kind is GateKind.Z:
        _map_z(src, dst, g.qubits[0], zero_skip)
    elif kind is GateKind.H:
        _map_h(src, dst, g.qubits[0], zero_skip)
    elif kind is GateKind.RX:
        _map_rx(src, dst, g.qubits[0], g.angle, zero_skip)
    elif kind is GateKind.RY:
        _map_ry(src, dst, g.qubits[0], g.angle, zero_skip)
    elif kind is GateKind.RZ:
        _map_rz(src, dst, g.qubits[0], g.angle, zero_skip)
    elif kind is GateKind.CNOT:
        _map_cnot(src, dst, g.qubits[0], g.qubits[1], zero_skip)
    elif kind is GateKind.CPHASE:
        _map_cphase(src, dst, g.qubits[0], g.qubits[1], zero_skip)
    elif kind is GateKind.SWAP:
        _map_swap(src, dst, g.qubits[0], g.qubits[1], zero_skip)
    elif kind is GateKind.TOFFOLI:
        _map_toffoli(src, dst, g.qubits[0], g.qubits[1], g.qubits[2], zero_skip)
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"no mapping function for {kind}")
    state.toggle_after_gate()
    return state


def measure(
    state: StateVector, q: int, rng: np.random.Generator
) -> tuple[int, StateVector]:
    """Projective measurement of one qubit with collapse and renormalization."""
    if not 0 <= q < state.n:
        raise IndexError(f"qubit {q} out of range for {state.n} qubits")
    live = state.live
    view = live.reshape(-1, 2, 1 << q)
    ones = view[:, 1, :]
    p1 = float((ones.real**2 + ones.imag**2).sum())
    p0 = 1.0 - p1
    total = state.norm_squared()
    if total < 0.5:  # cannot happen while the normalization invariant holds
        raise RuntimeError(f"degenerate state: norm^2 = {total!r}")
    bit = 0 if rng.random() < p0 else 1
    surviving = p1 if bit else p0
    view[:, 1 - bit, :] = 0
    live /= math.sqrt(surviving)
    return bit, state


def prep_z(state: StateVector, q: int, rng: np.random.Generator) -> StateVector:
    """Reset a qubit to |0> by measuring and flipping when the outcome is 1."""
    bit, _ = measure(state, q, rng)
    if bit:
        apply_gate(state, GateInstance(GateKind.X, (q,)))
    return state


def sample(state: StateVector, shots: int, rng: np.random.Generator) -> dict[str, int]:
    """Draw full-register samples from the state without mutating it.

    Keys are bitstrings with qubit n-1 leftmost and qubit 0 rightmost.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    probs = state.probabilities()
    counts = rng.multinomial(shots, probs / probs.sum())
    width = state.n
    return {format(i, f"0{width}b"): int(counts[i]) for i in np.flatnonzero(counts)}


def apply_depolarizing(
    state: StateVector,
    g: GateInstance,
    cfg: NoiseConfig,
    rng: np.random.Generator,
    *,
    zero_skip: bool = True,
) -> StateVector:
    """Ideal gate followed by independent depolarizing on each operand qubit."""
    apply_gate(state, g, zero_skip=zero_skip, rng=rng)
    if cfg.p <= 0.0:
        return state
    paulis = (GateKind.X, GateKind.Y, GateKind.Z)
    for q in g.qubits:
        if rng.random() < cfg.p:
            kind = paulis[int(rng.integers(3))]
            apply_gate(state, GateInstance(kind, (q,)), zero_skip=zero_skip)
    return state


def run_circuit(
    n: int,
    instructions: Iterable[GateInstance],
    *,
    rng: np.random.Generator | None = None,
    noise: NoiseConfig | None = None,
    zero_skip: bool = True,
) -> tuple[StateVector, list[tuple[int, int]]]:
    """Execute a gate sequence from the ground state.

    Returns the final state and the measurement transcript as
    (qubit, outcome) pairs in execution order.
    """
    state = alloc_state(n)
    transcript: list[tuple[int, int]] = []
    noisy = noise is not None and noise.p > 0.0
    for g in instructions:
        if g.kind is GateKind.MEASURE:
            if rng is None:
                rng = np.random.default_rng()
            bit, _ = measure(state, g.qubits[0], rng)
            transcript.append((g.qubits[0], bit))
        elif g.kind is GateKind.PREP_Z:
            if rng is None:
                rng = np.random.default_rng()
            prep_z(state, g.qubits[0], rng)
        elif noisy:
            if rng is None:
                rng = np.random.default_rng()
            apply_depolarizing(state, g, noise, rng, zero_skip=zero_skip)
        else:
            apply_gate(state, g, zero_skip=zero_skip)
    return state, transcript
