"""Tests of the benchmark itself: generator, analytic answers, checkers,
tail rule and tracer.  Run with ``python -m pytest perfbench/tests``."""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks, gen, stats, tracer
from qaccel.cqasm import parse
from qaccel.genomics import AlignmentInstance, build_alignment_circuit, index_marginals
from qaccel.harness.cli import main as cli_main
from qaccel.mapper import initial_placement, route
from qaccel.harness.runner import parse_topology_spec
from qaccel.tensor_oracle import dense_simulate

ROOT = Path(__file__).resolve().parents[2]


def _cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli_main(list(argv))
    return rc, out.getvalue()


def _snapshot(tmp: Path, name: str, seed: int):
    _, ops = gen.generate(name, seed, tmp)
    files = {p.name: p.read_text() for p in sorted(tmp.glob("*.qasm"))}
    argv = [tuple(a.replace(str(tmp), "<dir>") for a in op.argv) for op in ops]
    return files, argv, [op.expect for op in ops]


# -- generator ---------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(gen.WORKLOADS))
def test_generator_is_deterministic_per_seed(tmp_path, name):
    a, b, c = (tmp_path / d for d in ("a", "b", "c"))
    for d in (a, b, c):
        d.mkdir()
    first = _snapshot(a, name, 7)
    assert first == _snapshot(b, name, 7)
    assert first != _snapshot(c, name, 8)
    assert gen.prefill_records(7, 5) == gen.prefill_records(7, 5)


def _probs(state: np.ndarray) -> np.ndarray:
    return state.real**2 + state.imag**2


@pytest.mark.parametrize("seed", range(4))
def test_dense_expectation_matches_oracle(seed):
    n = 6
    text, expect = gen.dense_instance(np.random.default_rng(seed), n=n, top_k=8)
    probs = _probs(dense_simulate(parse(text)))
    np.testing.assert_allclose(probs, gen.product_probabilities(expect["thetas"]), atol=1e-12)
    np.testing.assert_allclose(np.sort(probs)[::-1][:8], expect["top_probabilities"], atol=1e-12)
    assert all(0.2 <= t <= 1.2 for t in expect["thetas"])


@pytest.mark.parametrize("seed", range(3))
def test_small_expectation_matches_oracle(seed):
    text, expect = gen.small_instance(np.random.default_rng(seed))
    program = parse(text)
    assert program.n == expect["n"] <= 8
    assert _probs(dense_simulate(program))[0] == pytest.approx(1.0, abs=1e-9)
    # the routed program, as run_small and run_noisy execute it, too
    topo = parse_topology_spec(gen.SMALL_TOPOLOGY)
    routed, _, _ = route(program, topo, initial_placement(program, topo, "greedy"))
    assert routed.n == expect["physical"]
    assert _probs(dense_simulate(routed))[0] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_align_expectation_matches_oracle(seed):
    reference, read, expect = gen.align_instance(np.random.default_rng(seed), ref_len=8, read_len=2)
    inst = AlignmentInstance(reference, read)
    program = build_alignment_circuit(inst)
    assert program.n <= 8
    marginals = index_marginals(inst, _probs(dense_simulate(program)))[: expect["positions"]]
    assert expect["occurrences"] == gen.occurrences(reference, read)
    assert int(np.argmax(marginals)) in expect["occurrences"]


# -- checkers ----------------------------------------------------------------


def _run_record(tmp_path, text, *flags) -> dict:
    path = tmp_path / "c.qasm"
    path.write_text(text)
    store = tmp_path / "store.jsonl"
    rc, _ = _cli(["run", str(path), "--seed", "3", "--store", str(store), *flags])
    assert rc == 0
    return json.loads(store.read_text().splitlines()[-1])


def _rejects(check, record, expect, mutate) -> None:
    bad = json.loads(json.dumps(record))
    mutate(bad)
    with pytest.raises(checks.CheckError):
        check(bad, expect)


def _set_state(fs, p):
    fs["probability"] = p
    fs["amplitude"] = [p**0.5, 0.0]


def test_run_dense_checker(tmp_path):
    text, expect = gen.dense_instance(np.random.default_rng(1), n=6, top_k=8)
    record = _run_record(tmp_path, text, "--top-k", "8")
    checks.check_run_dense(record, expect)
    check = checks.check_run_dense
    _rejects(check, record, expect, lambda r: _set_state(r["final_states"][3], r["final_states"][3]["probability"] + 1e-6))
    _rejects(check, record, expect, lambda r: r["final_states"].reverse())
    _rejects(check, record, expect, lambda r: r["final_states"].pop(0))
    _rejects(check, record, expect, lambda r: r["metrics"].update(fidelity=0.999))
    _rejects(check, record, expect, lambda r: r["metrics"].update(success_probability=0.999))


def test_run_small_checker(tmp_path):
    text, expect = gen.small_instance(np.random.default_rng(1))
    record = _run_record(tmp_path, text, "--topology", gen.SMALL_TOPOLOGY)
    checks.check_run_small(record, expect)
    check = checks.check_run_small
    _rejects(check, record, expect, lambda r: r["final_states"][0].update(bitstring="000000001"))
    _rejects(check, record, expect, lambda r: _set_state(r["final_states"][0], 0.98))
    _rejects(check, record, expect, lambda r: r["metrics"].update(fidelity=0.99))
    _rejects(check, record, expect, lambda r: r["metrics"].update(success_probability=0.5))


def test_run_noisy_checker(tmp_path):
    text, expect = gen.small_instance(np.random.default_rng(2))
    expect = dict(expect, noise_p=gen.NOISE_P, shots=gen.NOISY_SHOTS)
    record = _run_record(tmp_path, text, "--topology", gen.SMALL_TOPOLOGY,
                         "--noise-p", str(gen.NOISE_P), "--shots", str(gen.NOISY_SHOTS))
    checks.check_run_noisy(record, expect)
    assert checks.noisy_success_bound(record, expect) > 0
    check = checks.check_run_noisy
    _rejects(check, record, expect, lambda r: r["metrics"].update(success_probability=0.0))
    _rejects(check, record, expect, lambda r: r["metrics"].update(fidelity=1.5))


def test_query_checker(tmp_path):
    text, _ = gen.small_instance(np.random.default_rng(3))
    record = _run_record(tmp_path, text)
    _run_record(tmp_path, text)
    digest = record["circuit_hash"]
    rc, out = _cli(["metrics", "query", "--circuit-hash", digest, "--store", str(tmp_path / "store.jsonl")])
    assert rc == 0
    assert checks.check_query(out, digest, 2) == 2
    with pytest.raises(checks.CheckError):
        checks.check_query(out, digest, 3)
    with pytest.raises(checks.CheckError):
        checks.check_query(out.replace(digest, "0" * 64, 1), digest, 1)
    with pytest.raises(checks.CheckError):
        checks.check_query(out + "{not json}\n", digest, 1)


def test_align_checker():
    rng = np.random.default_rng(4)
    reference, read, expect = gen.align_instance(rng, ref_len=8, read_len=2)
    rc, out = _cli(["align", "--reference", reference, "--read", read, "--seed", "1"])
    assert rc == 0
    checks.check_align(out, expect)
    header, *rows = out.splitlines()
    wrong = [r for r in rows if int(r.split(",")[0]) not in expect["occurrences"]]
    moved = "\n".join([header, wrong[0]] + [r for r in rows if r != wrong[0]])
    for bad in (moved, out.replace(rows[0], rows[0].split(",")[0] + ",1.500000"),
                "\n".join([header] + rows[:-1]), "\n".join(rows)):
        with pytest.raises(checks.CheckError):
            checks.check_align(bad, expect)


# -- tail rule ---------------------------------------------------------------


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    samples = list(range(1, 1001))[::-1]
    assert stats.tail(samples) == (990, 99.0, 1000)
    assert stats.tail(list(range(20))) == (9, 50.0, 20)
    value, pct, n = stats.tail([5.0] + [1.0] * 10)
    assert (value, n) == (1.0, 11) and pct == pytest.approx(100 / 11)
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    for n in (11, 57, 400):
        value, _, _ = stats.tail(list(range(n)))
        assert sum(1 for x in range(n) if x > value) == 10
    with pytest.raises(ValueError):
        stats.tail([])


# -- tracer ------------------------------------------------------------------


def _qaccel_bindings() -> dict:
    from qaccel.statecore import StateVector

    found = {("StateVector", k): v for k, v in vars(StateVector).items()}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "qaccel" or name.startswith("qaccel.")):
            found.update({(name, k): v for k, v in vars(module).items()})
    return found


def test_traced_run_restores_every_wrapped_function(tmp_path, monkeypatch):
    from perfbench import run

    monkeypatch.setattr(run, "WORK", tmp_path)
    before = _qaccel_bindings()
    session, _ = run.set_up("run_small", 1, 0)
    session.workload = gen.Workload("run", pool_size=32, query_every=2)
    session.tracer = tracer.Tracer()
    session.tracer.install()
    try:
        assert _qaccel_bindings() != before
        results = [session.step() for _ in range(4)]
    finally:
        session.tracer.uninstall()
    after = _qaccel_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert all(r.ok for r in results) and session.tracer.absent == []

    names = {s.name for s in session.tracer.spans}
    assert {"cli.run", "cli.query", "run_program", "parse", "initial_placement", "route",
            "schedule_asap", "simulate_instructions", "run_circuit", "sample", "store_append",
            "store_query", "fidelity", "success_probability", "gate_count"} <= names
    layers = tracer.summarize(session.tracer, session.op_kinds, "run")
    assert layers["gates.apply_calls"] > 0 and layers["tensor_oracle.calls"] == 1
    assert layers["harness.store_query_ns"] > 0
    # self time never exceeds a span's duration
    own = session.tracer.self_times()
    assert all(o <= s.duration for o, s in zip(own, session.tracer.spans))


def test_missing_target_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (("qaccel.gates", "no_such_fn", tracer.SPAN),
                                                              ("qaccel.nowhere", "f", tracer.HOT)))
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.absent == ["qaccel.gates.no_such_fn", "qaccel.nowhere.f"]


# -- the result line and BENCHMARK.json ----------------------------------------


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_reports_the_declared_metrics(trace, section, capsys):
    from perfbench import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert run.main(["--workload", "run_small", "--seed", "1", "--seconds", "0.2",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_malformed_record_fails_the_op_without_stopping_the_loop(tmp_path, monkeypatch):
    from perfbench import run

    monkeypatch.setattr(run, "WORK", tmp_path)
    session, _ = run.set_up("run_small", 1, 0)

    def missing_key(record, expect):
        return record["no such key"]

    monkeypatch.setitem(checks.RUN_CHECKS, "run_small", missing_key)
    result = session.primary_op()
    assert not result.ok and "no such key" in session.failures[-1]
