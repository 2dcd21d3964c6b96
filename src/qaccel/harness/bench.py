"""Benchmark suites: per-gate cost, qubit scaling, and circuit-depth scaling.

Timing uses the monotonic clock with a discarded warm-up pass and the
median of 5 measurements per point.  Absolute numbers are machine
dependent and reported, never asserted; the suites exist for the scaling
shapes (exponential in qubits, linear in gate count) and the zero-skip
comparison.  The qubit suite admits its largest register before it times
anything; the depth suite builds no gate list, so only its time grows with
the counts.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from ..gates import GateInstance, GateKind, apply_gate
from ..statecore import StateVector, check_capacity

#: Gate list of the per-gate timing suite, each with the register size it
#: is measured on (1 qubit for single-qubit gates, 2 for two-qubit, 3 for
#: three-qubit).
BENCH_GATES: tuple[tuple[GateInstance, int], ...] = (
    (GateInstance(GateKind.X, (0,)), 1),
    (GateInstance(GateKind.Y, (0,)), 1),
    (GateInstance(GateKind.Z, (0,)), 1),
    (GateInstance(GateKind.H, (0,)), 1),
    (GateInstance(GateKind.RX, (0,), 0.7), 1),
    (GateInstance(GateKind.RY, (0,), 0.7), 1),
    (GateInstance(GateKind.RZ, (0,), 0.7), 1),
    (GateInstance(GateKind.CNOT, (0, 1)), 2),
    (GateInstance(GateKind.CPHASE, (0, 1)), 2),
    (GateInstance(GateKind.TOFFOLI, (0, 1, 2)), 3),
)

MEASUREMENTS_PER_POINT = 5

#: Fast callables are looped inside each timed block until the block takes
#: this long, so scheduler jitter cannot dominate the reading.
MIN_BLOCK_NS = 10_000_000


@dataclass(frozen=True)
class FitResult:
    model: str
    slope: float
    intercept: float
    r_squared: float
    intercept_stderr: float


@dataclass
class BenchResult:
    """One suite's measurements: per-series times over the variable values."""

    suite: str
    variable: str
    values: list
    series: dict[str, list[float]]  # series name -> wall time in ns per value
    fits: dict[str, FitResult] = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        names = list(self.series)
        if len(names) == 1 and names[0] == "time_ns":
            header = f"{self.variable},time_ns"
        else:
            header = ",".join([self.variable] + [f"{name}_time_ns" for name in names])
        rows = [header]
        for i, value in enumerate(self.values):
            cells = [str(value)] + [f"{self.series[name][i]:.1f}" for name in names]
            rows.append(",".join(cells))
        return "\n".join(rows) + "\n"


def linear_fit(x, y) -> FitResult:
    """Least-squares line with R^2 and the intercept's standard error;
    ValueError unless x holds at least two distinct values."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.unique(x).size < 2:
        raise ValueError(f"a line needs two distinct x values, got {x.tolist()}")
    n = x.size
    xbar, ybar = x.mean(), y.mean()
    sxx = float(((x - xbar) ** 2).sum())
    slope = float(((x - xbar) * (y - ybar)).sum() / sxx)
    intercept = float(ybar - slope * xbar)
    residuals = y - (slope * x + intercept)
    ss_res = float((residuals**2).sum())
    ss_tot = float(((y - ybar) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    if n > 2:
        sigma2 = ss_res / (n - 2)
        stderr = math.sqrt(sigma2 * (1.0 / n + xbar**2 / sxx))
    else:
        stderr = 0.0
    return FitResult("linear", slope, intercept, r_squared, stderr)


def _time_ns(fn) -> float:
    start = time.perf_counter_ns()
    fn()
    return float(time.perf_counter_ns() - start)


def _median_times_ns(fns) -> list[float]:
    """Each warmed-up callable's median time per call over
    ``MEASUREMENTS_PER_POINT`` timed blocks, each block looped to at least
    ``MIN_BLOCK_NS``.  The callables' blocks are interleaved so that
    clock-speed drift cannot bias their ratio."""
    # the warm-up call also calibrates each inner loop
    inner = [max(1, int(MIN_BLOCK_NS // max(_time_ns(fn), 1.0))) for fn in fns]
    samples: list[list[float]] = [[] for _ in fns]
    for _ in range(MEASUREMENTS_PER_POINT):
        for fn, loops, times in zip(fns, inner, samples):
            start = time.perf_counter_ns()
            for _ in range(loops):
                fn()
            times.append((time.perf_counter_ns() - start) / loops)
    return [statistics.median(times) for times in samples]


def bench_gates() -> BenchResult:
    """Wall time per gate application, applied back-to-back to one state of
    the gate's natural register size and timed by ``_median_times_ns``."""
    names: list[str] = []
    times: list[float] = []
    for instance, n_qubits in BENCH_GATES:
        state = StateVector(n_qubits)
        names.append(instance.kind.mnemonic)
        times += _median_times_ns([lambda: apply_gate(state, instance)])
    return BenchResult(suite="gates", variable="gate", values=names, series={"time_ns": times})


def _epr_chain(n: int) -> list[GateInstance]:
    """H then a CNOT chain: the EPR-pair generator scaled to n qubits."""
    ops = [GateInstance(GateKind.H, (0,))]
    ops.extend(GateInstance(GateKind.CNOT, (i, i + 1)) for i in range(n - 1))
    return ops


def bench_qubit_scaling(n_min: int, n_max: int) -> BenchResult:
    """Time the EPR chain as the register grows, with zero-skip on and off;
    fit log2(time) against n and record the per-point skip/no-skip ratio."""
    if n_min >= n_max:  # one register size fits no line
        raise ValueError(f"n_min {n_min} must be below n_max {n_max}")
    if n_min < 2:
        raise ValueError(f"n_min must be >= 2, got {n_min}")
    check_capacity(n_max)  # before the first, smallest register is timed
    modes = {"skip": True, "noskip": False}
    values = list(range(n_min, n_max + 1))
    series: dict[str, list[float]] = {name: [] for name in modes}
    for n in values:
        circuit = _epr_chain(n)
        state = StateVector(n)

        def make_runner(skip):
            def run_once():
                state.reset_ground()
                for g in circuit:
                    apply_gate(state, g, zero_skip=skip)

            return run_once

        times = _median_times_ns([make_runner(skip) for skip in modes.values()])
        for name, time_ns in zip(modes, times):
            series[name].append(time_ns)
    fits = {
        name: linear_fit(values, np.log2(times)) for name, times in series.items()
    }
    notes = {
        "circuit": "epr_chain",
        "skip_over_noskip": [s / ns for s, ns in zip(series["skip"], series["noskip"])],
    }
    return BenchResult("qubits", "n", values, series, fits, notes)


def bench_depth_scaling(gate_counts=(100, 300, 1000, 3000, 10000)) -> BenchResult:
    """Time 2-qubit circuits of g repeated gates; one linear fit per kind."""
    values = list(gate_counts)
    if len(set(values)) < 2 or any(g < 1 for g in values):
        raise ValueError(f"gate counts must be positive, two distinct at least: {values}")
    series: dict[str, list[float]] = {}
    fits: dict[str, FitResult] = {}
    state = StateVector(2)
    for kind in (GateKind.X, GateKind.H, GateKind.CNOT):
        template = GateInstance(kind, (0,) if kind.arity == 1 else (0, 1))
        times = []
        for count in values:
            def run_once():
                state.reset_ground()
                for _ in range(count):  # no list of count gates, which --counts leaves unbounded
                    apply_gate(state, template)

            times += _median_times_ns([run_once])
        series[kind.mnemonic] = times
        fits[kind.mnemonic] = linear_fit(values, times)
    return BenchResult("depth", "gates", values, series, fits, {"qubits": 2})
