"""Closed-loop end-to-end benchmark of the qaccel CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One client, no worker threads: each op calls
``qaccel.harness.cli.main(argv)`` in-process with stdout captured, and the
next op starts only when the previous one returns.  Every op's output is
checked against the generator's analytic answer; a failed check counts the
op as failed and the loop goes on.

Times are reported at a reference host speed.  The benchmark times a fixed
calibration kernel (``stats.calibration_ns``) between ops and multiplies
each run's times by ``CAL_REF_NS`` over the kernel's median time in that
run, because host speed on a shared VM drifts by up to 2x within minutes.
The raw figures follow from the ``scale`` in the detail line.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` measures the
same loop untraced for half the time and traced for the other half, and
prints the per-layer metrics and the tracing overhead.  The last stdout
line is the result object; the line before it records the environment and
the sample details.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"
OUT = ROOT / "perfbench" / "out"

sys.path.insert(0, str(ROOT))
# Modules that import qaccel (checks, tracer) are imported inside functions:
# main() first checks that src/qaccel is there.
from perfbench import gen, stats  # noqa: E402

#: Set-up repetitions whose median is setup_s.
SETUP_REPS = 3
#: Primary ops a run measures at least, however long they take: enough for
#: a steady median on run_dense (about 2 s per op), and more than the 11
#: that op_ms.tail needs to be a percentile rather than the maximum.
MIN_OPS = 16
#: Primary ops per phase of a traced run.
MIN_TRACE_OPS = 3
#: No phase measures longer than this, whatever the op count.
HARD_CAP_S = 100.0


@dataclass
class OpResult:
    kind: str  # "run", "align" or "query"
    ns: int
    ok: bool
    index: int = -1  # the op's place in the pool
    work: int = 0  # routed gates x requested trajectories (run ops)
    appended: int = 0  # run-store bytes the op appended
    store_lines: int = 0  # run-store lines when a query ran


@dataclass
class Phase:
    """The ops of one measured loop and the calibration times taken
    between them."""

    results: list[OpResult]
    cal_ns: list[int]

    @property
    def scale(self) -> float:
        """Reference-host time per measured time: CAL_REF_NS over the median
        calibration time.  Dividing by a whole-run median, not op by op,
        keeps the kernel's own jitter out of the figures."""
        return stats.CAL_REF_NS / stats.p50(self.cal_ns)

    def ms(self, kind: str) -> list[float]:
        """Normalized latencies of the ops of one kind, in order."""
        return [r.ns * self.scale / 1e6 for r in self.results if r.kind == kind]


class Session:
    """One set-up instance of a workload: inputs, run store and loop state."""

    def __init__(self, name: str, seed: int, workdir: Path):
        from qaccel.harness import cli
        from qaccel.harness.records import RunRecord, store_append

        self.cli = cli
        self.name = name
        self.workload, self.ops = gen.generate(name, seed, workdir)
        self.primary = self.workload.primary
        self.store = workdir / "runs.jsonl"
        for data in gen.prefill_records(seed, self.workload.prefill):
            store_append(RunRecord.from_dict(data), self.store)
        self.next_op = 0
        self.since_query = 0
        self.program_hash: dict[int, str] = {}
        self.program_runs: dict[int, int] = {}
        self.recent: list[int] = []  # program of each completed run op
        self._gate_counts: dict[int, int] = {}
        self.failures: list[str] = []
        self.warm_up: OpResult | None = None
        self.tracer = None
        self.op_kinds: dict[int, str] = {}

    # -- one op ----------------------------------------------------------

    def _call(self, kind: str, argv) -> tuple[int, int, str]:
        out = io.StringIO()
        tracer = self.tracer
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if tracer is not None:
                tracer.op += 1
                self.op_kinds[tracer.op] = kind
                span = tracer.open("cli." + kind)
            start = time.perf_counter_ns()
            try:
                rc = self.cli.main(list(argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a traceback is a failed op, not a crash
                rc = -1
                self._fail(f"{argv[0]} raised {exc!r}")
            ns = time.perf_counter_ns() - start
            if tracer is not None:
                tracer.close(span)
        return rc, ns, out.getvalue()

    def _fail(self, reason: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(reason)

    def _store_size(self) -> int:
        return self.store.stat().st_size if self.store.exists() else 0

    def step(self) -> OpResult:
        """Run the next op: a query when one is due, else a primary op."""
        every = self.workload.query_every
        if every and self.since_query >= every and len(self.recent) >= every:
            self.since_query = 0
            return self.query()
        self.since_query += 1
        return self.primary_op()

    def primary_op(self) -> OpResult:
        from perfbench.checks import RUN_CHECKS, CheckError, check_align

        index = self.next_op % len(self.ops)
        self.next_op += 1
        op = self.ops[index]
        before = self._store_size()
        rc, ns, stdout = self._call(op.kind, op.argv)
        result = OpResult(op.kind, ns, ok=False, index=index)
        try:
            if rc != 0:
                raise CheckError(f"exit code {rc}")
            if op.kind == "align":
                check_align(stdout, op.expect)
            else:
                record = self._appended_record(before, result)
                self._note_run(index, record)
                RUN_CHECKS[self.name](record, op.expect)
                trajectories = op.expect.get("shots", 1) if op.expect.get("noise_p") else 1
                result.work = record["metrics"]["total_gates"] * trajectories
            result.ok = True
        except CheckError as exc:
            self._fail(f"{op.kind} op {index}: {exc}")
        except (LookupError, TypeError, ValueError, OSError) as exc:  # malformed or missing record
            self._fail(f"{op.kind} op {index}: {exc!r}")
        return result

    def _appended_record(self, before: int, result: OpResult) -> dict:
        from perfbench.checks import CheckError

        with self.store.open("rb") as handle:
            handle.seek(before)
            data = handle.read()
        result.appended = len(data)
        lines = data.splitlines()
        if len(lines) != 1:
            raise CheckError(f"run appended {len(lines)} store lines, expected 1")
        try:
            return json.loads(lines[0])
        except ValueError as exc:
            raise CheckError(f"stored record does not decode: {exc}") from None

    def _note_run(self, program: int, record: dict) -> None:
        from perfbench.checks import CheckError

        digest = record.get("circuit_hash")
        self.program_runs[program] = self.program_runs.get(program, 0) + 1
        self.recent.append(program)
        known = self.program_hash.setdefault(program, digest)
        if known != digest:
            raise CheckError(f"program {program} hashed to {digest}, earlier {known}")

    def query(self) -> OpResult:
        """metrics query for the program run ``query_every`` run ops ago."""
        from perfbench.checks import CheckError, check_query

        program = self.recent[-self.workload.query_every]
        digest = self.program_hash[program]
        argv = ("metrics", "query", "--circuit-hash", digest, "--store", str(self.store))
        rc, ns, stdout = self._call("query", argv)
        result = OpResult("query", ns, ok=False)
        if self.tracer is not None:
            with self.store.open("rb") as handle:
                result.store_lines = sum(1 for _ in handle)
        try:
            if rc != 0:
                raise CheckError(f"exit code {rc}")
            check_query(stdout, digest, self.program_runs[program])
            result.ok = True
        except CheckError as exc:
            self._fail(f"query: {exc}")
        return result

    def align_gates(self, index: int) -> int:
        """Gate count of an align op's circuit, from ``align --emit-qasm``.
        Call it after the loop: it runs the CLI untimed and untraced."""
        if index not in self._gate_counts:
            with contextlib.redirect_stdout(io.StringIO()) as out:
                self.cli.main(list(self.ops[index].argv) + ["--emit-qasm"])
            self._gate_counts[index] = sum(
                1 for line in out.getvalue().splitlines()
                if line and not line.startswith(("version", "qubits", ".", "#"))
            )
        return self._gate_counts[index]

    # -- loops -----------------------------------------------------------

    def measure(self, seconds: float, min_primary: int) -> Phase:
        """Closed loop for ``seconds``, and on until ``min_primary`` primary
        ops, with the calibration kernel timed between ops."""
        phase = Phase([], [stats.calibration_ns()])
        start = time.perf_counter()
        primary = 0
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= HARD_CAP_S or (elapsed >= seconds and primary >= min_primary):
                return phase
            result = self.step()
            phase.results.append(result)
            phase.cal_ns.append(stats.calibration_ns())
            primary += result.kind == self.primary


def set_up(name: str, seed: int, rep: int) -> tuple[Session, float]:
    """Fresh work directory, generated inputs, prefilled store and one
    discarded warm-up op; returns the session and the seconds it took.

    Set-up ``rep`` warms up with pool op ``rep``: op cost differs from one
    program to the next (up to 2x on run_dense), and the median over
    set-ups should not rest on a single program."""
    start = time.perf_counter_ns()
    workdir = WORK / f"{name}-s{seed}-r{rep}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    session = Session(name, seed, workdir)
    session.next_op = rep
    session.warm_up = session.primary_op()
    return session, (time.perf_counter_ns() - start) / 1e9


def summary(phase: Phase, kind: str) -> dict | None:
    ms = phase.ms(kind)
    if not ms:
        return None
    value, pct, n = stats.tail(ms)
    return {"p50": stats.p50(ms), "tail": value, "tail_percentile": pct, "samples": n,
            "scale": phase.scale, "ms": [round(x, 3) for x in ms]}


def end_to_end(session: Session, phase: Phase, setup_s: float) -> dict:
    ops = summary(phase, session.primary)
    timed = [r for r in phase.results if r.kind == session.primary]
    for r in timed:
        if r.kind == "align":
            r.work = session.align_gates(r.index)
    busy_s = sum(phase.ms(session.primary)) / 1e3
    return {
        "setup_s": (setup_s, "s"),
        "op_ms.p50": (ops["p50"], "ms"),
        "op_ms.tail": (ops["tail"], "ms"),
        "sim_gates_per_s": (sum(r.work for r in timed) / busy_s, "gates/s"),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


#: Units of the per-layer metrics, by name suffix.
def _layer_unit(name: str) -> str:
    if name.endswith("_ns") or "_ns_" in name:
        return "ns"
    if name.endswith("_bytes") or name.endswith("bytes_appended"):
        return "B"
    if name.endswith(("_ms.p50", "_ms.tail")):
        return "ms"
    if name.endswith(("overhead", "ratio")):
        return "ratio"
    return "count"


def per_layer(session: Session, untraced: Phase, traced: Phase, probe_peak: int) -> dict:
    from perfbench.tracer import summarize
    from qaccel.statecore import MemoryParams, estimate_total_memory

    tracer = session.tracer
    values = summarize(tracer, session.op_kinds, session.primary)
    queries = [r for r in traced.results if r.kind == "query"]
    lines = sum(r.store_lines for r in queries)
    values["harness.store_lines_scanned"] = lines / max(1, len(queries))
    matched = values.pop("harness.store_matched") * len(queries)
    values["harness.store_hit_ratio"] = matched / lines if lines else 0.0
    runs = [r for r in traced.results if r.kind == "run"]
    values["harness.store_bytes_appended"] = sum(r.appended for r in runs) / max(1, len(runs))
    query = summary(untraced, "query")
    values["harness.query_ms.p50"] = query["p50"] if query else 0.0
    values["harness.query_ms.tail"] = query["tail"] if query else 0.0
    widths = [s.attrs["n"] for s in tracer.spans if s.name == "alloc_state" and s.attrs]
    values["statecore.model_bytes"] = (
        estimate_total_memory(MemoryParams(max(widths))) if widths else 0)
    values["statecore.traced_peak_bytes"] = probe_peak
    base = summary(untraced, session.primary)["p50"]
    values["trace.overhead"] = summary(traced, session.primary)["p50"] / base
    values["trace.absent"] = len(tracer.absent)
    return {name: (value, _layer_unit(name)) for name, value in values.items()}


def write_trace(session: Session, header: dict) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"trace-{header['workload']}-s{header['seed']}.jsonl"
    with path.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps(header) + "\n")
        for record in session.tracer.to_records():
            handle.write(json.dumps(record) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qaccel" / "__init__.py").is_file():
        print(f"error: no qaccel sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qaccel

    if Path(qaccel.__file__).resolve().parent != SRC / "qaccel":
        print(f"error: imported qaccel from {qaccel.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in gen.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(gen.WORKLOADS)}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START

    sessions: list[Session] = []
    try:
        rep_s, setup_cal = [], [stats.calibration_ns()]
        for rep in range(SETUP_REPS if args.trace == 0 else 1):
            session, took = set_up(args.workload, args.seed, rep)
            sessions.append(session)
            rep_s.append(took)
            setup_cal.append(stats.calibration_ns())
        session = sessions[-1]
        setup = Phase([], setup_cal)
        if args.trace == 0:
            phases = {"measured": session.measure(args.seconds, MIN_OPS)}
            setup_s = (import_s + stats.p50(rep_s)) * setup.scale
            metrics = end_to_end(session, phases["measured"], setup_s)
            untimed = []
        else:
            from perfbench.tracer import Tracer

            untraced = session.measure(args.seconds / 2, MIN_TRACE_OPS)
            session.tracer = Tracer()
            session.tracer.install()
            try:
                traced = session.measure(args.seconds / 2, MIN_TRACE_OPS)
            finally:
                session.tracer.uninstall()
            # peak traced memory of one primary op, untimed and without spans
            tracing, session.tracer = session.tracer, None
            tracemalloc.start()
            try:
                probe = session.primary_op()
                probe_peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            session.tracer = tracing
            metrics = per_layer(session, untraced, traced, probe_peak)
            phases = {"untraced": untraced, "traced": traced}
            untimed = [probe]

        ops = [s.warm_up for s in sessions] + untimed
        ops += [r for phase in phases.values() for r in phase.results]
        failed = sum(not r.ok for r in ops)
        detail = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "environment": stats.environment(ROOT),
            "setup": {"import_s": import_s, "reps_s": rep_s, "scale": setup.scale},
            "ops": {name: {kind: summary(phase, kind) for kind in ("run", "align", "query")}
                    for name, phase in phases.items()},
            "failures": [f for s in sessions for f in s.failures],
        }
        if args.trace:
            detail["absent"] = session.tracer.absent
            detail["spans_file"] = str(write_trace(session, detail).relative_to(ROOT))
        print(json.dumps(detail))
        print(json.dumps({
            "correct": failed == 0,
            "attempted": len(ops),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }))
        return 0
    finally:
        for s in sessions:
            shutil.rmtree(s.store.parent, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
