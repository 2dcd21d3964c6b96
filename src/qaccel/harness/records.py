"""Append-only JSON-lines run store, and the one owner of its line format.

One record per line, UTF-8, written by :func:`store_line` and read back by
:meth:`RunRecord.from_dict`.  Queries skip and count corrupt lines instead
of aborting the scan.  The store path comes from an explicit argument, the
QACCEL_STORE environment variable, or the default file in the working
directory, in that order.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from ..metrics import MetricSet

ENV_STORE = "QACCEL_STORE"
DEFAULT_STORE = "qaccel_runs.jsonl"


@dataclass(frozen=True)
class FinalState:
    """One retained basis state of a run's final state vector."""

    bitstring: str
    amplitude: tuple[float, float]  # (re, im)
    probability: float


@dataclass
class RunRecord:
    """Identity, configuration, metrics and final-state summary of one run."""

    run_id: str
    timestamp: str
    circuit_hash: str
    config: dict
    metrics: MetricSet
    final_states: list[FinalState] = field(default_factory=list)
    wall_time_ns: int = 0
    peak_state_bytes: int = 0

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        """The record of a decoded store line, which must hold every field,
        its ``run_id``, ``timestamp`` and ``circuit_hash`` as strings; other
        keys are ignored.  Raises KeyError, TypeError or ValueError."""
        identity = [data[key] for key in ("run_id", "timestamp", "circuit_hash")]
        if not all(isinstance(value, str) for value in identity):
            raise TypeError(f"run_id, timestamp and circuit_hash must be strings: {identity!r}")
        m = data["metrics"]
        metrics = MetricSet(m["total_gates"], dict(m["by_kind"]), m["depth"], m["fidelity"],
                            m["success_probability"], m["quantum_volume"])
        states = []
        for fs in data["final_states"]:
            re, im = fs["amplitude"]
            states.append(FinalState(fs["bitstring"], (float(re), float(im)),
                                     float(fs["probability"])))
        return cls(*identity, dict(data["config"]), metrics, states, int(data["wall_time_ns"]),
                   int(data["peak_state_bytes"]))


def store_line(record: RunRecord) -> str:
    """A record's line in the run store, without its newline: each dataclass
    it nests is an object of its fields in declaration order (``vars``, the
    instance dict, which the generated ``__init__`` fills in that order)."""
    return json.dumps(record, default=vars)


def default_store_path() -> Path:
    return Path(os.environ.get(ENV_STORE, DEFAULT_STORE))


def store_append(record: RunRecord, path: str | Path | None = None) -> Path:
    """Append one record as a JSON line; creates parent directories."""
    target = Path(path) if path is not None else default_store_path()
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        with target.open("a", encoding="utf-8") as handle:
            handle.write(store_line(record) + "\n")
    except OSError as exc:
        raise OSError(f"cannot append to run store {target}: {exc}") from exc
    return target


@dataclass(frozen=True)
class QueryResult:
    records: tuple[RunRecord, ...]
    corrupt_lines: int


def store_query(
    path: str | Path | None = None,
    *,
    run_id: str | None = None,
    circuit_hash: str | None = None,
    since: str | None = None,
    until: str | None = None,
) -> QueryResult:
    """Scan the store, newest-last, applying the given filters.

    ``since``/``until`` compare ISO-8601 timestamps lexicographically,
    inclusive on both ends.  Undecodable lines are skipped and counted.
    """
    target = Path(path) if path is not None else default_store_path()
    if not target.exists():
        return QueryResult((), 0)
    records: list[RunRecord] = []
    corrupt = 0
    try:
        with target.open("rb") as handle:
            for line in handle:
                try:
                    line = line.decode("utf-8").strip()
                    if not line:
                        continue
                    record = RunRecord.from_dict(json.loads(line))
                except (KeyError, TypeError, ValueError, RecursionError, OverflowError):
                    corrupt += 1  # ValueError covers bad UTF-8 and bad JSON
                    continue
                if run_id is not None and record.run_id != run_id:
                    continue
                if circuit_hash is not None and record.circuit_hash != circuit_hash:
                    continue
                if since is not None and record.timestamp < since:
                    continue
                if until is not None and record.timestamp > until:
                    continue
                records.append(record)
    except OSError as exc:
        raise OSError(f"cannot read run store {target}: {exc}") from exc
    return QueryResult(tuple(records), corrupt)
