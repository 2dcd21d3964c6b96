"""Per-layer tracing by wrapping qaccel's public functions from outside.

Nothing under ``src/`` changes.  :meth:`Tracer.install` replaces each target
function in its defining module and in every ``qaccel`` module namespace
that holds the same object (``runner.run_circuit`` and
``genomics.run_circuit`` are both the ``gates`` function), and
:meth:`Tracer.uninstall` puts the originals back.  A target that no longer
exists is listed in ``absent`` instead of raising, so the benchmark keeps
running when a later change deletes a path.

Layer-boundary calls record a span: name, start, end, parent span and op id.
High-frequency calls (``apply_gate``, ``measure``, ...) are aggregated as a
count plus busy time under their parent span; a hot call made inside another
hot call is keyed ``outer>inner`` so busy time is never counted twice.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

SPAN = "span"
HOT = "hot"

#: (module, attribute, mode).  A dotted attribute names a method on a class.
TARGETS = (
    ("qaccel.harness.runner", "run_file", SPAN),
    ("qaccel.harness.runner", "run_program", SPAN),
    ("qaccel.harness.records", "store_append", SPAN),
    ("qaccel.harness.records", "store_query", SPAN),
    ("qaccel.cqasm", "parse", SPAN),
    ("qaccel.cqasm", "emit", SPAN),
    ("qaccel.mapper", "initial_placement", SPAN),
    ("qaccel.mapper", "route", SPAN),
    ("qaccel.mapper", "schedule_asap", SPAN),
    ("qaccel.tensor_oracle", "simulate_instructions", SPAN),
    ("qaccel.tensor_oracle", "dense_simulate", SPAN),
    ("qaccel.tensor_oracle", "gate_matrix", HOT),
    ("qaccel.gates", "run_circuit", SPAN),
    ("qaccel.gates", "sample", SPAN),
    ("qaccel.gates", "apply_gate", HOT),
    ("qaccel.gates", "apply_depolarizing", HOT),
    ("qaccel.gates", "measure", HOT),
    ("qaccel.gates", "prep_z", HOT),
    ("qaccel.statecore", "alloc_state", SPAN),
    ("qaccel.statecore", "StateVector.probabilities", HOT),
    ("qaccel.metrics", "gate_count", SPAN),
    ("qaccel.metrics", "fidelity", SPAN),
    ("qaccel.metrics", "success_probability", SPAN),
    ("qaccel.metrics", "quantum_volume", SPAN),
    ("qaccel.genomics", "build_alignment_circuit", SPAN),
    ("qaccel.genomics", "align", SPAN),
)


def _state_amps(args, kwargs) -> int:
    state = args[0] if args else kwargs["state"]
    return 1 << state.n


def _matrix_bytes(args, kwargs) -> int:
    n = args[1] if len(args) > 1 else kwargs["n"]
    return 16 << (2 * n)  # one complex128 2^n x 2^n matrix


#: Work counted per hot call, beyond the call count itself.
HOT_WEIGHT = {"apply_gate": _state_amps, "gate_matrix": _matrix_bytes}


def _alloc_attrs(args, kwargs, result) -> dict:
    return {"n": result.n, "bytes": 32 << result.n}  # two complex128 buffers


def _route_attrs(args, kwargs, result) -> dict:
    report = result[2]
    return {"added_swaps": report.added_swaps, "gates_before": report.gates_before,
            "gates_after": report.gates_after}


def _circuit_attrs(args, kwargs, result) -> dict:
    return {"gates": len(result.instructions)}


def _query_attrs(args, kwargs, result) -> dict:
    return {"matched": len(result.records)}


#: Attributes recorded on a span from the wrapped call's return value.
SPAN_ATTRS = {"alloc_state": _alloc_attrs, "route": _route_attrs,
              "build_alignment_circuit": _circuit_attrs, "store_query": _query_attrs}


@dataclass
class Span:
    name: str
    parent: int
    op: int
    start: int = 0
    end: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.hot: dict[tuple[int, str], list[int]] = {}  # (span, key) -> [calls, ns, weight]
        self.absent: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._hot_active: str | None = None
        self._installed: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def open(self, name: str) -> int:
        """Start a span under the innermost open one; returns its index."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, parent, self.op))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self.spans[idx].start = time.perf_counter_ns()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter_ns()
        self._stack.pop()

    def _span_wrapper(self, name, fn):
        attrs = SPAN_ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if attrs is not None:
                self.spans[idx].attrs = attrs(args, kwargs, result)
            return result

        return wrapper

    def _hot_wrapper(self, name, fn):
        weight = HOT_WEIGHT.get(name)
        hot = self.hot
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = self._hot_active
            key = name if outer is None else f"{outer}>{name}"
            self._hot_active = name
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self._hot_active = outer
                slot = hot.setdefault((stack[-1] if stack else -1, key), [0, 0, 0])
                slot[0] += 1
                slot[1] += elapsed
                if weight is not None:
                    slot[2] += weight(args, kwargs)

        return wrapper

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "qaccel" or name.startswith("qaccel."))]
        by_name = {m.__name__: m for m in modules}
        for modname, attr, mode in TARGETS:
            owner = by_name.get(modname)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if not callable(original):
                self.absent.append(f"{modname}.{attr}")
                continue
            make = self._span_wrapper if mode == SPAN else self._hot_wrapper
            wrapper = make(leaf, original)
            if path:  # a method: replace it on its class only
                self._replace(owner, leaf, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, original, wrapper)

    def _replace(self, namespace, key, original, wrapper) -> None:
        self._installed.append((namespace, key, original))
        setattr(namespace, key, wrapper)

    def uninstall(self) -> None:
        while self._installed:
            namespace, key, original = self._installed.pop()
            setattr(namespace, key, original)

    # -- analysis --------------------------------------------------------

    def self_times(self) -> list[int]:
        """Each span's duration minus its child spans and the hot calls made
        directly under it."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        for (idx, key), (_, ns, _) in self.hot.items():
            if idx >= 0 and ">" not in key:
                own[idx] -= ns
        return own

    def to_records(self):
        """Spans and hot aggregates as JSON-ready dicts, spans first."""
        for i, s in enumerate(self.spans):
            yield {"span": i, "name": s.name, "start": s.start, "end": s.end,
                   "parent": s.parent, "op": s.op, **s.attrs}
        for (idx, key), (calls, ns, weight) in self.hot.items():
            yield {"hot": key, "parent": idx, "calls": calls, "busy_ns": ns, "weight": weight}


def summarize(tracer: Tracer, op_kinds: dict[int, str], primary: str) -> dict[str, float]:
    """Per-layer figures from a traced run.

    Times and counts are per primary op (``run`` or ``align``); the store
    query time is per query op.  A layer the ops never reached reads 0.
    """
    own = tracer.self_times()
    group = {op: ("p" if kind == primary else "q" if kind == "query" else None)
             for op, kind in op_kinds.items()}
    dur: dict = defaultdict(int)
    self_ns: dict = defaultdict(int)
    calls: dict = defaultdict(int)
    attrs: dict = defaultdict(int)
    for i, s in enumerate(tracer.spans):
        g = group.get(s.op)
        if g is None:
            continue
        name = "cli" if s.name.startswith("cli.") else s.name
        dur[g, name] += s.duration
        self_ns[g, name] += own[i]
        calls[g, name] += 1
        for key, value in s.attrs.items():
            attrs[g, name, key] += value
    hot_calls: dict = defaultdict(int)
    hot_ns: dict = defaultdict(int)
    hot_weight: dict = defaultdict(int)
    for (idx, key), (n, ns, weight) in tracer.hot.items():
        if idx < 0 or group.get(tracer.spans[idx].op) != "p":
            continue
        leaf = key.rsplit(">", 1)[-1]
        for k in {leaf, key}:
            hot_calls[k] += n
            hot_ns[k] += ns
            hot_weight[k] += weight

    n_p = max(1, sum(1 for g in group.values() if g == "p"))
    n_q = max(1, sum(1 for g in group.values() if g == "q"))

    def per_op(value):
        return value / n_p

    def ratio(a, b):
        return a / b if b else 0.0

    oracle = ("simulate_instructions", "dense_simulate")
    return {
        "tensor_oracle.simulate_ns": per_op(sum(dur["p", f] for f in oracle)),
        "tensor_oracle.calls": per_op(sum(calls["p", f] for f in oracle)),
        "tensor_oracle.matrix_bytes": per_op(hot_weight["gate_matrix"]),
        "gates.apply_ns": per_op(hot_ns["apply_gate"]),
        "gates.apply_calls": per_op(hot_calls["apply_gate"]),
        "gates.amp_updates": per_op(hot_weight["apply_gate"]),
        "gates.apply_ns_per_call": ratio(hot_ns["apply_gate"], hot_calls["apply_gate"]),
        "gates.engine_passes": per_op(calls["p", "run_circuit"]),
        "gates.run_circuit_self_ns": per_op(self_ns["p", "run_circuit"]),
        "gates.depolarize_calls": per_op(hot_calls["apply_depolarizing"]),
        "gates.pauli_errors": per_op(hot_calls["apply_depolarizing>apply_gate"]
                                     - hot_calls["apply_depolarizing"]),
        "gates.sample_ns": per_op(dur["p", "sample"]),
        "gates.measure_calls": per_op(hot_calls["measure"]),
        "harness.cli_self_ns": per_op(self_ns["p", "cli"]),
        "harness.run_program_self_ns": per_op(self_ns["p", "run_program"]),
        "harness.store_append_ns": per_op(dur["p", "store_append"]),
        "harness.store_query_ns": dur["q", "store_query"] / n_q,
        "harness.store_matched": attrs["q", "store_query", "matched"] / n_q,
        "mapper.place_ns": per_op(dur["p", "initial_placement"]),
        "mapper.route_ns": per_op(dur["p", "route"]),
        "mapper.schedule_ns": per_op(dur["p", "schedule_asap"]),
        "mapper.added_swaps": per_op(attrs["p", "route", "added_swaps"]),
        "mapper.gate_overhead": ratio(attrs["p", "route", "gates_after"],
                                      attrs["p", "route", "gates_before"]),
        "cqasm.parse_ns": per_op(dur["p", "parse"]),
        "cqasm.emit_ns": per_op(dur["p", "emit"]),
        "statecore.alloc_calls": per_op(calls["p", "alloc_state"]),
        "statecore.alloc_bytes": per_op(attrs["p", "alloc_state", "bytes"]),
        "statecore.probabilities_ns": per_op(hot_ns["probabilities"]),
        "metrics.fidelity_ns": per_op(dur["p", "fidelity"]),
        "metrics.success_ns": per_op(dur["p", "success_probability"]),
        "metrics.gate_count_ns": per_op(dur["p", "gate_count"]),
        "genomics.build_ns": per_op(dur["p", "build_alignment_circuit"]),
        "genomics.align_self_ns": per_op(self_ns["p", "align"]),
        "genomics.circuit_gates": per_op(attrs["p", "build_alignment_circuit", "gates"]),
    }
