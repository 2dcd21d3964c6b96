"""Per-op correctness checks against the generator's analytic answers.

Each checker raises :class:`CheckError` with a reason; the benchmark loop
counts that op as failed and goes on.
"""

from __future__ import annotations

import json
import math

from qaccel.harness.records import RunRecord

TOL = 1e-9

#: Operand count per mnemonic, for counting depolarizing slots.
ARITY = {"x": 1, "y": 1, "z": 1, "h": 1, "rx": 1, "ry": 1, "rz": 1,
         "cnot": 2, "cz": 2, "swap": 2, "toffoli": 3, "prep_z": 1, "measure": 1}


class CheckError(Exception):
    """An op's output disagrees with its expected answer."""


def _require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckError(reason)


def _states(record: dict, n: int) -> list[tuple[str, float]]:
    out = []
    for fs in record["final_states"]:
        bits, p = fs["bitstring"], fs["probability"]
        re, im = fs["amplitude"]
        _require(len(bits) == n and set(bits) <= {"0", "1"}, f"bad bitstring {bits!r}")
        _require(abs(re * re + im * im - p) <= TOL, f"|{bits}> amplitude disagrees with p {p}")
        out.append((bits, p))
    return out


def check_run_dense(record: dict, expect: dict) -> None:
    """Product state of ry(theta_q): every top-k probability is the product of
    cos^2 or sin^2 of theta_q/2, in descending order, and they are the k largest.
    Success may fall short of 1 only by the few shots the analytic mass
    outside the ideal support allows."""
    metrics = record["metrics"]
    _require(metrics["fidelity"] >= 1 - TOL, f"fidelity {metrics['fidelity']}")
    success = metrics["success_probability"]
    _require(expect["min_success"] <= success <= 1.0, f"success {success}")
    n, thetas = expect["n"], expect["thetas"]
    states = _states(record, n)
    want_top = expect["top_probabilities"]
    _require(len(states) == len(want_top), f"{len(states)} top states, want {len(want_top)}")
    for bits, p in states:
        want = 1.0
        for q, theta in enumerate(thetas):
            half = theta / 2
            want *= math.cos(half) ** 2 if bits[n - 1 - q] == "0" else math.sin(half) ** 2
        _require(abs(p - want) <= TOL, f"|{bits}> p {p}, analytic {want}")
    probs = [p for _, p in states]
    _require(all(a >= b for a, b in zip(probs, probs[1:])), "top states not in descending order")
    for got, want in zip(probs, want_top):
        _require(abs(got - want) <= TOL, f"top-k probability {got}, analytic {want}")


def check_run_small(record: dict, expect: dict) -> None:
    """A noiseless mirror circuit returns every physical qubit to |0>."""
    metrics = record["metrics"]
    states = _states(record, expect["physical"])
    _require(bool(states), "no final states")
    bits, p = states[0]
    _require(bits == "0" * expect["physical"], f"top state |{bits}>")
    _require(abs(p - 1.0) <= TOL, f"top probability {p}")
    _require(abs(metrics["fidelity"] - 1.0) <= TOL, f"fidelity {metrics['fidelity']}")
    _require(metrics["success_probability"] == 1.0, f"success {metrics['success_probability']}")


def noisy_success_bound(record: dict, expect: dict) -> float:
    """q - 5 sigma, q = (1-p)^m over the m operand slots of the routed circuit.

    A trajectory with no Pauli error returns to |0...0>, so q bounds the
    success probability from below."""
    slots = sum(ARITY[kind] * count for kind, count in record["metrics"]["by_kind"].items())
    q = (1.0 - expect["noise_p"]) ** slots
    return q - 5.0 * math.sqrt(q * (1.0 - q) / expect["shots"])


def check_run_noisy(record: dict, expect: dict) -> None:
    metrics = record["metrics"]
    bound = noisy_success_bound(record, expect)
    success = metrics["success_probability"]
    _require(success >= bound, f"success {success} below bound {bound:.4f}")
    fid = metrics["fidelity"]
    _require(-TOL <= fid <= 1 + TOL, f"fidelity {fid} outside [0, 1]")


RUN_CHECKS = {"run_dense": check_run_dense, "run_small": check_run_small, "run_noisy": check_run_noisy}


def check_query(stdout: str, circuit_hash: str, at_least: int) -> int:
    """Every printed line is a RunRecord of the queried hash; returns the count."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    for line in lines:
        try:
            record = RunRecord.from_dict(json.loads(line))
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckError(f"query line does not decode: {exc}") from None
        _require(record.circuit_hash == circuit_hash, f"record of hash {record.circuit_hash}")
    _require(len(lines) >= at_least, f"{len(lines)} records, expected at least {at_least}")
    return len(lines)


def parse_ranking(stdout: str) -> list[tuple[int, float]]:
    lines = stdout.splitlines()
    _require(bool(lines) and lines[0] == "position,probability", "missing ranking header")
    rows = []
    for line in lines[1:]:
        pos, _, prob = line.partition(",")
        try:
            rows.append((int(pos), float(prob)))
        except ValueError:
            raise CheckError(f"bad ranking line {line!r}") from None
    return rows


def check_align(stdout: str, expect: dict) -> None:
    """The top position is an occurrence of the read; marginals lie in
    [0, 1], descend, and sum to at most 1 (up to the 6-digit rounding)."""
    rows = parse_ranking(stdout)
    positions = sorted(pos for pos, _ in rows)
    _require(positions == list(range(expect["positions"])), "ranking does not list every position once")
    top = rows[0][0]
    _require(top in expect["occurrences"], f"top position {top} not in {expect['occurrences']}")
    probs = [p for _, p in rows]
    _require(all(0.0 <= p <= 1.0 for p in probs), "marginal outside [0, 1]")
    _require(all(a >= b for a, b in zip(probs, probs[1:])), "ranking not descending")
    _require(sum(probs) <= 1.0 + 5e-7 * len(probs), f"marginals sum to {sum(probs)}")
