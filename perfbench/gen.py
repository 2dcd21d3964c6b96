"""Seeded input generator for the four workloads.

A workload is a pool of operations.  An operation is an argv list for
``qaccel.harness.cli.main`` plus the analytic answer its output must match.
The program under test sees only the argv and the ``.qasm`` files it names;
the expectations stay with the benchmark.

Run circuits are mirror circuits (a random circuit followed by its exact
inverse), so their output is known at any register size:

* ``run_dense``: an H layer, random layers, the mirror inverse, then
  ``ry q[i], theta_i``.  The final state is the product state
  ``(cos(theta_i/2)|0> + sin(theta_i/2)|1>)`` on every qubit.
* ``run_small`` / ``run_noisy``: an H layer, random layers with SWAPs and a
  TOFFOLI, then the mirror inverse.  The final state is ``|0...0>`` on every
  physical qubit, whatever the router does to the layout.
* ``align``: a random reference with the read planted at a random position;
  the answer is the set of positions where the read occurs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROTATIONS = ("rx", "ry", "rz")
#: Seeds enter numpy's SeedSequence, which takes non-negative integers.
MASK64 = (1 << 64) - 1

#: One gate: (mnemonic, operand qubits, angle or None).
Gate = tuple[str, tuple[int, ...], float | None]


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: CLI argv and the answer it must produce."""

    kind: str  # "run" or "align"
    argv: tuple[str, ...]
    expect: dict


@dataclass(frozen=True)
class Workload:
    """Parameters of one workload; :func:`generate` makes its ops."""

    primary: str  # the op kind timed as op_ms
    pool_size: int
    query_every: int = 0  # one metrics query after this many run ops (0: none)
    prefill: int = 0  # records appended to the store before the first op


WORKLOADS = {
    "run_dense": Workload("run", pool_size=16),
    "run_small": Workload("run", pool_size=32, query_every=10, prefill=1000),
    "run_noisy": Workload("run", pool_size=32),
    "align": Workload("align", pool_size=32),
}

DENSE_QUBITS = 18
DENSE_LAYERS = 2
DENSE_TOP_K = 16
SMALL_QUBITS = 8
SMALL_LAYERS = 3
SMALL_TOPOLOGY = "grid:3x3"
SMALL_PHYSICAL = 9
NOISE_P = 0.01
NOISY_SHOTS = 200
RUN_SHOTS = 1000
#: The runner's ideal support: states whose ideal probability exceeds this.
SUPPORT_THRESHOLD = 1e-9
#: Chance allowed for a correct run to fail an analytic bound on sampled shots.
FALSE_ALARM = 1e-9
ALIGN_REFERENCE = 32
ALIGN_READ = 5


def _balanced(rng: np.random.Generator, kinds: tuple[str, ...], count: int) -> list[str]:
    """``count`` kinds in equal shares (remainder drawn at random), shuffled.

    A fixed mix keeps every generated program about equally expensive, so
    op times vary little from one program or seed to the next."""
    picks = [kinds[i % len(kinds)] for i in range(count - count % len(kinds))]
    picks += [kinds[int(k)] for k in rng.choice(len(kinds), size=count % len(kinds), replace=False)]
    return [picks[int(i)] for i in rng.permutation(count)]


def random_layer(rng: np.random.Generator, n: int, pair_kinds: tuple[str, ...], toffoli: bool) -> list[Gate]:
    """A rotation or H on every qubit, a two-qubit gate on each pair of a
    random pairing, and optionally one TOFFOLI on three random qubits."""
    layer: list[Gate] = []
    for q, kind in enumerate(_balanced(rng, ROTATIONS + ("h",), n)):
        angle = None if kind == "h" else float(rng.uniform(-math.pi, math.pi))
        layer.append((kind, (q,), angle))
    order = rng.permutation(n)
    pairs = order[: n - n % 2].reshape(-1, 2)
    for (a, b), kind in zip(pairs, _balanced(rng, pair_kinds, len(pairs))):
        layer.append((kind, (int(a), int(b)), None))
    if toffoli:
        c1, c2, t = (int(q) for q in rng.choice(n, size=3, replace=False))
        layer.append(("toffoli", (c1, c2, t), None))
    return layer


def inverse(gates: list[Gate]) -> list[Gate]:
    """Exact inverse: reversed order, rotation angles negated.  Every other
    gate in the generated set is its own inverse."""
    return [(m, qs, -a if a is not None else None) for m, qs, a in reversed(gates)]


def mirror_circuit(
    rng: np.random.Generator, n: int, layers: int, pair_kinds: tuple[str, ...], toffoli: bool
) -> list[Gate]:
    forward: list[Gate] = [("h", (q,), None) for q in range(n)]
    for _ in range(layers):
        forward += random_layer(rng, n, pair_kinds, toffoli)
    return forward + inverse(forward)


def to_qasm(n: int, gates: list[Gate]) -> str:
    lines = ["version 1.0", f"qubits {n}", ".mirror"]
    for mnemonic, qubits, angle in gates:
        operands = ", ".join(f"q[{q}]" for q in qubits)
        lines.append(f"{mnemonic} {operands}" + (f", {angle!r}" if angle is not None else ""))
    return "\n".join(lines) + "\n"


def product_probabilities(thetas: list[float]) -> np.ndarray:
    """Basis-state distribution of the ry product state; index bit q is qubit q."""
    probs = np.ones(1)
    for theta in thetas:  # qubit 0 first, so it ends up least significant
        c, s = math.cos(theta / 2) ** 2, math.sin(theta / 2) ** 2
        probs = np.kron(np.array([c, s]), probs)
    return probs


def dense_instance(rng: np.random.Generator, n: int = DENSE_QUBITS, top_k: int = DENSE_TOP_K):
    """Mirror circuit plus a final ry layer; returns (qasm, expectation)."""
    gates = mirror_circuit(rng, n, DENSE_LAYERS, ("cnot", "cz"), toffoli=False)
    # qubit q gets a random theta in the q-th of n equal strata of [0.2, 1.2].
    # The support size and the order of the final probabilities, and so
    # the runner's set-building and sorting cost, are then alike in every
    # program.
    thetas = [0.2 + (q + float(u)) / n for q, u in enumerate(rng.uniform(size=n))]
    gates += [("ry", (q,), thetas[q]) for q in range(n)]
    probs = product_probabilities(thetas)
    order = np.argsort(-probs, kind="stable")[:top_k]
    outside = float(probs[probs <= SUPPORT_THRESHOLD].sum())
    expect = {
        "n": n,
        "thetas": thetas,
        "top_probabilities": [float(probs[i]) for i in order],
        "min_success": 1.0 - max_strays(RUN_SHOTS * outside) / RUN_SHOTS,
    }
    return to_qasm(n, gates), expect


def max_strays(mean: float) -> int:
    """Fewest shots k outside the support such that more than k happen with
    probability at most FALSE_ALARM, for a Poisson count of this mean.

    The ry product state puts a little mass (about 2e-5) on states below
    the support threshold, so an occasional shot lands outside it."""
    k, term = 0, math.exp(-mean)
    below = term
    while 1.0 - below > FALSE_ALARM:
        k += 1
        term *= mean / k
        below += term
    return k


def small_instance(rng: np.random.Generator, n: int = SMALL_QUBITS, physical: int = SMALL_PHYSICAL):
    """Mirror circuit with SWAPs and a TOFFOLI per layer; identity overall."""
    gates = mirror_circuit(rng, n, SMALL_LAYERS, ("cnot", "cz", "swap"), toffoli=True)
    return to_qasm(n, gates), {"n": n, "physical": physical}


def occurrences(reference: str, read: str) -> list[int]:
    r = len(read)
    return [i for i in range(len(reference) - r + 1) if reference[i : i + r] == read]


def align_instance(rng: np.random.Generator, ref_len: int = ALIGN_REFERENCE, read_len: int = ALIGN_READ):
    """Random binary reference with a random read planted at a random position."""
    reference = list("".join(str(b) for b in rng.integers(2, size=ref_len)))
    read = "".join(str(b) for b in rng.integers(2, size=read_len))
    at = int(rng.integers(ref_len - read_len + 1))
    reference[at : at + read_len] = read
    reference = "".join(reference)
    expect = {
        "reference": reference,
        "read": read,
        "positions": ref_len - read_len + 1,
        "occurrences": occurrences(reference, read),
    }
    return reference, read, expect


def generate(name: str, seed: int, workdir: Path) -> tuple[Workload, list[Op]]:
    """Write a workload's input files under ``workdir`` and return its ops.

    The same (name, seed) always yields the same files and ops, up to the
    ``workdir`` prefix in the argv.
    """
    wl = WORKLOADS[name]
    rng = np.random.default_rng([seed & MASK64, sorted(WORKLOADS).index(name)])
    store = str(workdir / "runs.jsonl")
    ops: list[Op] = []
    for i in range(wl.pool_size):
        op_seed = str(int(rng.integers(2**31)))
        if name == "align":
            reference, read, expect = align_instance(rng)
            argv = ("align", "--reference", reference, "--read", read,
                    "--iterations", "1", "--shots", str(RUN_SHOTS), "--seed", op_seed)
            ops.append(Op("align", argv, expect))
            continue
        path = workdir / f"{name}_{i:03d}.qasm"
        if name == "run_dense":
            text, expect = dense_instance(rng)
            argv = ("run", str(path), "--shots", str(RUN_SHOTS), "--top-k", str(DENSE_TOP_K))
        else:
            text, expect = small_instance(rng)
            argv = ("run", str(path), "--topology", SMALL_TOPOLOGY)
            if name == "run_noisy":
                argv += ("--noise-p", str(NOISE_P), "--shots", str(NOISY_SHOTS))
                expect = dict(expect, noise_p=NOISE_P, shots=NOISY_SHOTS)
            else:
                argv += ("--shots", str(RUN_SHOTS))
        path.write_text(text, encoding="utf-8")
        ops.append(Op("run", argv + ("--seed", op_seed, "--store", store), expect))
    return wl, ops


def prefill_records(seed: int, count: int) -> list[dict]:
    """Synthetic run-store records shaped like ``run_small`` results, with
    random circuit hashes that no generated program has."""
    rng = np.random.default_rng([seed & MASK64, len(WORKLOADS)])
    records = []
    for i in range(count):
        records.append({
            "run_id": f"prefill-{i:06d}",
            "timestamp": f"2020-01-01T00:{i // 60 % 60:02d}:{i % 60:02d}+00:00",
            "circuit_hash": rng.bytes(32).hex(),
            "config": {"shots": RUN_SHOTS, "seed": i, "noise_p": 0.0, "topology": SMALL_TOPOLOGY,
                       "placement": "greedy", "top_k": 16, "zero_skip": True},
            "metrics": {"total_gates": 119, "by_kind": {"h": 20, "cnot": 30, "swap": 40, "toffoli": 6},
                        "depth": 60, "fidelity": 1.0, "success_probability": 1.0,
                        "quantum_volume": 1 << 60},
            "final_states": [{"bitstring": "0" * SMALL_PHYSICAL, "amplitude": [1.0, 0.0],
                              "probability": 1.0}],
            "wall_time_ns": 100_000_000,
            "peak_state_bytes": 16384,
        })
    return records
