"""Evaluation quantities: gate counts, depth, fidelity, success probability,
Quantum Volume, and the Amdahl / Gustafson-Barsis speedup models."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .cqasm import Program
from .statecore import check_normalized, probabilities


@dataclass(frozen=True)
class GateCounts:
    by_kind: dict[str, int]
    unitary_total: int
    total: int


def gate_count(program: Program) -> GateCounts:
    """Per-mnemonic instruction counts; measure/prep_z tallied apart from
    the unitary total."""
    by_kind: dict[str, int] = {}
    unitary = 0
    for g in program.instructions:
        by_kind[g.kind.mnemonic] = by_kind.get(g.kind.mnemonic, 0) + 1
        if g.kind.is_unitary:
            unitary += 1
    return GateCounts(by_kind, unitary, len(program.instructions))


def fidelity(ideal: np.ndarray, actual: np.ndarray) -> float:
    """|<ideal|actual>|^2 between two normalized state vectors."""
    ideal = np.asarray(ideal, dtype=complex).ravel()
    actual = np.asarray(actual, dtype=complex).ravel()
    if ideal.shape != actual.shape:
        raise ValueError(f"dimension mismatch: {ideal.shape} vs {actual.shape}")
    for name, vec in (("ideal", ideal), ("actual", actual)):
        check_normalized(probabilities(vec), name)
    # a ufunc product and sum, not np.vdot: a BLAS dot over a large state
    # wakes OpenBLAS worker threads that go on spinning after it returns
    return float(abs((ideal.conj() * actual).sum()) ** 2)


def success_probability(histogram: Mapping[str, int], correct: Iterable[str]) -> float:
    """Fraction of measured shots that landed in the correct-answer set."""
    total = sum(histogram.values())
    if total < 1:
        raise ValueError("histogram holds no shots")
    wanted = set(correct)
    return sum(c for key, c in histogram.items() if key in wanted) / total


def quantum_volume(depth: int) -> int:
    """Capacity figure 2^D for a scheduled circuit of depth D."""
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if depth > 62:
        raise OverflowError(f"2^{depth} exceeds the 64-bit storage range")
    return 1 << depth


@dataclass(frozen=True)
class SpeedupParams:
    """Inputs to the latency speedup models.

    Single-component form: ``p`` is the parallelizable fraction and ``s``
    the factor by which that part accelerates.  Multi-component form:
    ``components`` lists (fraction, factor) pairs whose fractions sum to 1.
    """

    p: float | None = None
    s: float | None = None
    components: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.components is not None:
            comps = tuple((float(pi), float(si)) for pi, si in self.components)
            object.__setattr__(self, "components", comps)
            if not comps:
                raise ValueError("components must be non-empty")
            if any(pi < 0 for pi, _ in comps):
                raise ValueError("component fractions must be >= 0")
            if any(si <= 0 for _, si in comps):
                raise ValueError("component speedups must be > 0")
            if abs(sum(pi for pi, _ in comps) - 1.0) > 1e-9:
                raise ValueError("component fractions must sum to 1")
        else:
            if self.p is None or self.s is None:
                raise ValueError("need either (p, s) or components")
            if not 0.0 <= self.p <= 1.0:
                raise ValueError(f"parallel fraction must be in [0, 1], got {self.p}")
            if self.s <= 0:
                raise ValueError(f"speedup factor must be > 0, got {self.s}")


def amdahl(params: SpeedupParams) -> float:
    """Fixed-workload speedup: 1 / ((1-p) + p/s), or 1 / sum(p_i / s_i)."""
    if params.components is not None:
        return 1.0 / sum(pi / si for pi, si in params.components)
    return 1.0 / ((1.0 - params.p) + params.p / params.s)


def gustafson(processors: int, serial: float) -> float:
    """Scaled-workload speedup on P processors with a serial fraction.

    Computed as P - serial * (P - 1), which stays within [1, P].
    """
    if processors < 1:
        raise ValueError(f"processor count must be >= 1, got {processors}")
    if not 0.0 <= serial <= 1.0:
        raise ValueError(f"serial fraction must be in [0, 1], got {serial}")
    return processors - serial * (processors - 1)


@dataclass
class MetricSet:
    """Everything one run reports; the run store writes it into each record."""

    total_gates: int
    by_kind: dict[str, int] = field(default_factory=dict)
    depth: int = 0
    fidelity: float | None = None
    success_probability: float | None = None
    quantum_volume: int | None = None
