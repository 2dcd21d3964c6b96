"""Command-line interface.

Subcommands: run, map, align, bench {gates,qubits,depth}, metrics query.
Exit codes: 0 success, 1 parse/input or usage error, 2 mapping error,
3 capacity error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from functools import cache
from pathlib import Path

import numpy as np

from ..cqasm import emit, parse
from ..errors import CapacityError, MappingError, ParseError
from ..genomics import AlignmentInstance, align, build_alignment_circuit, sequence_bits
from ..mapper import map_circuit
from .bench import bench_depth_scaling, bench_gates, bench_qubit_scaling
from .records import store_line, store_query
from .runner import parse_topology_spec, run_file

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_MAPPING = 2
EXIT_CAPACITY = 3

#: Exception type -> (exit code, stderr prefix), applied once in main.
EXIT_TABLE = {
    ParseError: (EXIT_PARSE, "error"),
    OSError: (EXIT_PARSE, "error"),
    ValueError: (EXIT_PARSE, "error"),
    MappingError: (EXIT_MAPPING, "mapping error"),
    CapacityError: (EXIT_CAPACITY, "capacity error"),
}


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ValueError, so they exit 1 through EXIT_TABLE;
    subparsers inherit the class."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


@cache  # one parser per process; parse_args keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="qaccel", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate a cQASM file and record metrics")
    run_p.add_argument("file")
    run_p.add_argument("--shots", type=int, default=1000)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--noise-p", type=float, default=0.0)
    run_p.add_argument("--topology", default=None, help="line:N, ring:N, grid:RxC, full:N")
    run_p.add_argument("--placement", choices=("identity", "greedy"), default="greedy")
    run_p.add_argument("--top-k", type=int, default=16)
    run_p.add_argument("--store", default=None, help="run-store path override")

    map_p = sub.add_parser("map", help="map a cQASM file onto a topology")
    map_p.add_argument("file")
    map_p.add_argument("--topology", required=True)
    map_p.add_argument("--placement", choices=("identity", "greedy"), default="greedy")
    map_p.add_argument("-o", "--output", default=None, help="write mapped cQASM here")

    align_p = sub.add_parser("align", help="run the read-alignment pipeline")
    align_p.add_argument("--reference", required=True, help="01 or ACGT string")
    align_p.add_argument("--read", required=True, help="01 or ACGT string")
    align_p.add_argument("--iterations", type=int, default=1)
    align_p.add_argument("--diffusion", choices=("joint", "index"), default="joint")
    align_p.add_argument("--shots", type=int, default=1000)
    align_p.add_argument("--seed", type=int, default=None)
    align_p.add_argument("--emit-qasm", action="store_true", help="print the circuit instead")

    bench_p = sub.add_parser("bench", help="run a benchmark suite, CSV to stdout")
    bench_sub = bench_p.add_subparsers(dest="suite", required=True)
    bench_sub.add_parser("gates")
    qubits_p = bench_sub.add_parser("qubits")
    qubits_p.add_argument("--n-min", type=int, default=10)
    qubits_p.add_argument("--n-max", type=int, default=22)
    depth_p = bench_sub.add_parser("depth")
    depth_p.add_argument("--counts", default="100,300,1000,3000,10000")

    metrics_p = sub.add_parser("metrics", help="inspect the run store")
    metrics_sub = metrics_p.add_subparsers(dest="action", required=True)
    query_p = metrics_sub.add_parser("query")
    query_p.add_argument("--run-id", default=None)
    query_p.add_argument("--circuit-hash", default=None)
    query_p.add_argument("--since", default=None)
    query_p.add_argument("--until", default=None)
    query_p.add_argument("--store", default=None)

    return top


def _cmd_run(args) -> int:
    outcome = run_file(
        args.file,
        shots=args.shots,
        seed=args.seed,
        noise_p=args.noise_p,
        topology=args.topology,
        placement=args.placement,
        top_k=args.top_k,
        store_path=args.store,
    )
    record = outcome.record
    print(f"run {record.run_id}")
    print(f"circuit sha256 {record.circuit_hash}")
    if outcome.report is not None:
        print(f"mapping: {asdict(outcome.report)}")
    metrics = record.metrics
    print(
        f"gates {metrics.total_gates}  depth {metrics.depth}"
        f"  QV {metrics.quantum_volume}  fidelity {metrics.fidelity:.6f}"
        f"  success {metrics.success_probability:.4f}"
    )
    for fs in record.final_states[:8]:
        re, im = fs.amplitude
        print(f"  |{fs.bitstring}>  amp {re:+.6f}{im:+.6f}i  p {fs.probability:.6f}")
    if outcome.store_path is not None:
        print(f"stored -> {outcome.store_path}")
    return EXIT_OK


def _cmd_map(args) -> int:
    program = parse(Path(args.file).read_text(encoding="utf-8"))
    mapped, report = map_circuit(program, parse_topology_spec(args.topology), args.placement)
    if args.output:
        Path(args.output).write_text(mapped, encoding="utf-8")
    else:
        sys.stdout.write(mapped)
    print(f"mapping: {asdict(report)}", file=sys.stderr)
    return EXIT_OK


def _cmd_align(args) -> int:
    reference, read, stride = sequence_bits(args.reference, args.read)
    inst = AlignmentInstance(reference, read, args.iterations, args.diffusion, stride)
    if args.emit_qasm:
        sys.stdout.write(emit(build_alignment_circuit(inst)))
        return EXIT_OK
    result = align(inst, args.shots, np.random.default_rng(args.seed))
    print("position,probability")
    for pos, prob in result.ranking:
        print(f"{pos},{prob:.6f}")
    print(f"sampled index counts: {result.histogram}; "
          f"padding readouts: {result.padding_readouts}", file=sys.stderr)
    return EXIT_OK


def _cmd_bench(args) -> int:
    if args.suite == "gates":
        result = bench_gates()
    elif args.suite == "qubits":
        result = bench_qubit_scaling(args.n_min, args.n_max)
    else:
        counts = tuple(int(c) for c in args.counts.split(","))
        result = bench_depth_scaling(counts)
    sys.stdout.write(result.to_csv())
    for name, fit in result.fits.items():
        print(
            f"fit[{name}]: slope {fit.slope:.4g} intercept {fit.intercept:.4g}"
            f" R2 {fit.r_squared:.4f}",
            file=sys.stderr,
        )
    return EXIT_OK


def _cmd_metrics(args) -> int:
    result = store_query(
        args.store,
        run_id=args.run_id,
        circuit_hash=args.circuit_hash,
        since=args.since,
        until=args.until,
    )
    for record in result.records:
        print(store_line(record))
    if result.corrupt_lines:
        print(f"warning: skipped {result.corrupt_lines} corrupt line(s)", file=sys.stderr)
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "map": _cmd_map,
    "align": _cmd_align,
    "bench": _cmd_bench,
    "metrics": _cmd_metrics,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except tuple(EXIT_TABLE) as exc:
        code, prefix = next(row for kind, row in EXIT_TABLE.items() if isinstance(exc, kind))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
