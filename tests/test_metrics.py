"""Gate counts, fidelity, success probability, QV, and speedup models."""

import json
import math

import numpy as np
import pytest

from helpers import make_program
from qaccel.cqasm import Program, parse
from qaccel.gates import gate
from qaccel.harness.records import RunRecord, store_line
from qaccel.metrics import (
    MetricSet,
    SpeedupParams,
    amdahl,
    fidelity,
    gate_count,
    gustafson,
    quantum_volume,
    success_probability,
)

S = 1 / math.sqrt(2)


class TestGateCount:
    def test_bell_counts(self):
        program = parse("version 1.0\nqubits 2\nh q[0]\ncnot q[0],q[1]\nmeasure q[0]\n")
        counts = gate_count(program)
        assert counts.by_kind == {"h": 1, "cnot": 1, "measure": 1}
        assert counts.unitary_total == 2
        assert counts.total == 3

    def test_empty_program(self):
        counts = gate_count(Program("1.0", 1, ()))
        assert counts.by_kind == {}
        assert counts.unitary_total == 0

    def test_ten_x_gates(self):
        counts = gate_count(make_program(1, [gate("x", 0)] * 10))
        assert counts.by_kind == {"x": 10}

    def test_prep_z_not_in_unitary_total(self):
        counts = gate_count(make_program(1, [gate("prep_z", 0), gate("x", 0)]))
        assert counts.by_kind == {"prep_z": 1, "x": 1}
        assert counts.unitary_total == 1


class TestFidelity:
    def test_identical_states(self):
        psi = np.array([S, 0, 0, S])
        assert fidelity(psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        assert fidelity([1, 0], [0, 1]) == 0.0

    def test_zero_against_plus(self):
        assert fidelity([1, 0], [S, S]) == pytest.approx(0.5, abs=1e-12)

    def test_symmetry_and_phase_invariance(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            a = rng.normal(size=4) + 1j * rng.normal(size=4)
            b = rng.normal(size=4) + 1j * rng.normal(size=4)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-12)
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            assert fidelity(a * phase, b) == pytest.approx(fidelity(a, b), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity([1, 0], [1, 0, 0, 0])

    def test_requires_normalized_inputs(self):
        with pytest.raises(ValueError):
            fidelity([1, 1], [1, 0])


class TestSuccessProbability:
    def test_deterministic_algorithm(self):
        assert success_probability({"00": 1000}, {"00"}) == 1.0

    def test_bell_support(self):
        assert success_probability({"00": 493, "11": 507}, {"00", "11"}) == 1.0

    def test_uniform_quarter(self):
        hist = {"00": 260, "01": 240, "10": 250, "11": 250}
        assert success_probability(hist, {"10"}) == 0.25

    def test_empty_histogram(self):
        with pytest.raises(ValueError):
            success_probability({}, {"0"})


class TestQuantumVolume:
    @pytest.mark.parametrize("depth,expected", [(0, 1), (5, 32), (3, 8)])
    def test_examples(self, depth, expected):
        assert quantum_volume(depth) == expected

    def test_doubles_per_unit_depth(self):
        for depth in range(21):
            assert quantum_volume(depth) == 2**depth
            if depth:
                assert quantum_volume(depth) == 2 * quantum_volume(depth - 1)

    def test_overflow(self):
        with pytest.raises(OverflowError):
            quantum_volume(63)

    def test_negative(self):
        with pytest.raises(ValueError):
            quantum_volume(-1)


class TestAmdahl:
    def test_published_single_value(self):
        assert amdahl(SpeedupParams(p=0.3, s=2)) == pytest.approx(1.18, abs=0.005)

    def test_published_multi_component_value(self):
        params = SpeedupParams(
            components=((0.11, 1.0), (0.18, 5.0), (0.23, 20.0), (0.48, 1.6))
        )
        assert amdahl(params) == pytest.approx(2.19, abs=0.005)

    def test_nothing_parallelized(self):
        assert amdahl(SpeedupParams(p=0.0, s=9.0)) == 1.0

    def test_bounds_and_monotonicity(self):
        rng = np.random.default_rng(67)
        for _ in range(100):
            p = float(rng.uniform(0, 1))
            s = float(rng.uniform(1.0, 50))
            speedup = amdahl(SpeedupParams(p=p, s=s))
            bound = s if p == 1.0 else min(s, 1.0 / (1.0 - p))
            assert speedup <= bound + 1e-12
            assert amdahl(SpeedupParams(p=p, s=s + 1.0)) >= speedup - 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            SpeedupParams(p=1.5, s=2)
        with pytest.raises(ValueError):
            SpeedupParams(p=0.5, s=0)
        with pytest.raises(ValueError):
            SpeedupParams(components=((0.5, 2.0), (0.4, 1.0)))
        with pytest.raises(ValueError):
            SpeedupParams()


class TestGustafson:
    def test_single_processor(self):
        assert gustafson(1, 0.3) == 1.0

    def test_fully_parallel(self):
        assert gustafson(64, 0.0) == 64.0

    def test_fully_serial(self):
        assert gustafson(64, 1.0) == 1.0

    def test_monotonicity_and_bounds(self):
        for processors in (1, 2, 8, 64, 500):
            last = None
            for serial in (0.0, 0.25, 0.5, 0.75, 1.0):
                value = gustafson(processors, serial)
                assert 1.0 <= value <= processors
                if last is not None:
                    assert value <= last
                last = value
        for serial in (0.0, 0.3, 1.0):
            assert gustafson(16, serial) <= gustafson(32, serial)

    def test_validation(self):
        with pytest.raises(ValueError):
            gustafson(0, 0.5)
        with pytest.raises(ValueError):
            gustafson(4, -0.1)


class TestMetricSet:
    def test_round_trip(self):
        metrics = MetricSet(
            total_gates=3,
            by_kind={"h": 1, "cnot": 1, "measure": 1},
            depth=3,
            fidelity=1.0,
            success_probability=1.0,
            quantum_volume=8,
        )
        record = RunRecord("r-1", "2026-01-01T00:00:00+00:00", "abc123", {}, metrics)
        assert RunRecord.from_dict(json.loads(store_line(record))).metrics == metrics
