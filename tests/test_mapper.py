"""Topologies, placement, ASAP scheduling, and SWAP routing."""

import numpy as np
import pytest

from helpers import make_program, random_circuit, undo_layout_permutation
from qaccel import mapper
from qaccel.cqasm import parse
from qaccel.errors import MappingError
from qaccel.gates import GateInstance, GateKind, gate
from qaccel.mapper import (
    LayoutMap,
    Topology,
    build_topology,
    initial_placement,
    map_circuit,
    route,
    schedule_asap,
)
from qaccel.tensor_oracle import simulate_instructions


class TestTopologies:
    def test_line(self):
        topo = build_topology("line", 4)
        assert topo.edges == {(0, 1), (1, 2), (2, 3)}

    def test_ring(self):
        topo = build_topology("ring", 4)
        assert topo.edges == {(0, 1), (1, 2), (2, 3), (0, 3)}

    def test_grid_two_by_two(self):
        topo = build_topology("grid", 2, 2)
        assert topo.edges == {(0, 1), (2, 3), (0, 2), (1, 3)}

    def test_grid_two_by_three(self):
        topo = build_topology("grid", 2, 3)
        assert topo.edges == {(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)}

    def test_full(self):
        topo = build_topology("full", 3)
        assert topo.edges == {(0, 1), (0, 2), (1, 2)}

    @pytest.mark.parametrize(
        "kind,dims",
        [("line", (0,)), ("ring", (2,)), ("grid", (0, 3)), ("full", (0,)), ("hex", (4,))],
    )
    def test_invalid_params(self, kind, dims):
        with pytest.raises(ValueError):
            build_topology(kind, *dims)

    def test_disconnected_rejected(self):
        with pytest.raises(MappingError):
            Topology("custom", 3, [(0, 1)])

    def test_empty_rejected(self):
        with pytest.raises(MappingError):
            Topology("custom", 0, [])

    def test_adjacency_is_sorted(self):
        topo = build_topology("ring", 5)
        assert topo.adjacency[0] == (1, 4)


class TestLayoutMap:
    def test_physical(self):
        layout = LayoutMap((2, 0), 3)
        assert layout.physical(0) == 2

    def test_bijection_enforced(self):
        with pytest.raises(ValueError):
            LayoutMap((0, 0), 2)
        with pytest.raises(ValueError):
            LayoutMap((0, 5), 2)


class TestInitialPlacement:
    def test_identity(self):
        program = make_program(3, [gate("cnot", 0, 2)])
        layout = initial_placement(program, build_topology("line", 4), "identity")
        assert layout.v2p == (0, 1, 2)

    def test_greedy_puts_hot_pair_on_an_edge(self):
        ops = [gate("cnot", 0, 3)] * 5 + [gate("cnot", 1, 2)]
        program = make_program(4, ops)
        topo = build_topology("line", 4)
        layout = initial_placement(program, topo, "greedy")
        assert topo.is_adjacent(layout.physical(0), layout.physical(3))

    def test_greedy_without_two_qubit_gates_is_identity(self):
        program = make_program(3, [gate("h", 0), gate("x", 2)])
        layout = initial_placement(program, build_topology("line", 3), "greedy")
        assert layout.v2p == (0, 1, 2)

    def test_topology_too_small(self):
        program = make_program(3, [gate("h", 0)])
        with pytest.raises(MappingError):
            initial_placement(program, build_topology("line", 2), "greedy")

    def test_unknown_strategy(self):
        program = make_program(1, [gate("h", 0)])
        with pytest.raises(ValueError):
            initial_placement(program, build_topology("line", 1), "optimal")


class TestScheduleAsap:
    def test_independent_gates_share_cycle_zero(self):
        schedule = schedule_asap(make_program(2, [gate("h", 0), gate("h", 1)]))
        assert schedule.cycles == (0, 0)
        assert schedule.depth == 1

    def test_bell_chain(self):
        program = parse("version 1.0\nqubits 2\nh q[0]\ncnot q[0],q[1]\nmeasure q[0]\n")
        schedule = schedule_asap(program)
        assert schedule.cycles == (0, 1, 2)
        assert schedule.depth == 3

    def test_sequential_same_qubit(self):
        schedule = schedule_asap(make_program(1, [gate("x", 0)] * 10))
        assert schedule.depth == 10

    def test_empty_program(self):
        from qaccel.cqasm import Program

        assert schedule_asap(Program("1.0", 1, ())).depth == 0

    def test_shared_qubit_never_shares_cycle(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            program = make_program(n, random_circuit(rng, n, max_gates=20))
            schedule = schedule_asap(program)
            busy = {}
            for g, cycle in zip(schedule.instructions, schedule.cycles):
                for q in g.qubits:
                    assert busy.get((q, cycle)) is None
                    busy[(q, cycle)] = g


def _assert_adjacency(routed, topo):
    for g in routed.instructions:
        if len(g.qubits) == 2:
            assert topo.is_adjacent(*g.qubits), f"{g} not adjacent"
        elif len(g.qubits) == 3:
            c1, c2, t = g.qubits
            assert topo.is_adjacent(c1, t) and topo.is_adjacent(c2, t), f"{g} not adjacent"


class TestRoute:
    def test_adjacent_cnot_untouched(self):
        program = make_program(2, [gate("cnot", 0, 1)])
        topo = build_topology("line", 2)
        routed, _layout, report = route(program, topo, LayoutMap((0, 1), 2))
        assert report.added_swaps == 0
        assert [g.kind for g in routed.instructions] == [GateKind.CNOT]

    def test_distant_cnot_needs_distance_minus_one_swaps(self):
        program = make_program(4, [gate("cnot", 0, 3)])
        topo = build_topology("line", 4)
        routed, _layout, report = route(program, topo, LayoutMap((0, 1, 2, 3), 4))
        assert report.added_swaps == 2
        _assert_adjacency(routed, topo)

    def test_full_topology_never_adds_swaps(self):
        rng = np.random.default_rng(43)
        topo = build_topology("full", 5)
        for _ in range(10):
            program = make_program(5, random_circuit(rng, 5, max_gates=15))
            routed, _layout, report = route(
                program, topo, initial_placement(program, topo, "identity")
            )
            assert report.added_swaps == 0
            assert routed.instructions == program.instructions

    def test_toffoli_on_line(self):
        program = make_program(3, [gate("toffoli", 0, 1, 2)])
        topo = build_topology("line", 3)
        routed, _layout, _report = route(program, topo, LayoutMap((0, 1, 2), 3))
        _assert_adjacency(routed, topo)

    def test_toffoli_against_line_end(self):
        # target starts on a degree-1 node and must be relocated
        program = make_program(4, [gate("toffoli", 1, 2, 0)])
        topo = build_topology("line", 4)
        routed, _layout, _report = route(program, topo, LayoutMap((0, 1, 2, 3), 4))
        _assert_adjacency(routed, topo)

    def test_routing_is_deterministic(self):
        rng = np.random.default_rng(47)
        program = make_program(5, random_circuit(rng, 5, max_gates=20))
        topo = build_topology("grid", 2, 3)
        layout = initial_placement(program, topo, "greedy")
        first = route(program, topo, layout)
        second = route(program, topo, layout)
        assert first[0] == second[0]
        assert first[1] == second[1]
        assert first[2] == second[2]

    def test_report_arithmetic(self):
        rng = np.random.default_rng(53)
        for kind, dims in (("line", (5,)), ("ring", (5,)), ("grid", (2, 3))):
            topo = build_topology(kind, *dims)
            for _ in range(10):
                program = make_program(5, random_circuit(rng, 5, max_gates=15))
                layout = initial_placement(program, topo, "greedy")
                routed, _final, report = route(program, topo, layout)
                assert report.gates_after == report.gates_before + report.added_swaps
                assert report.gates_after == len(routed.instructions)
                assert report.depth_after >= report.depth_before
                _assert_adjacency(routed, topo)

    def test_routed_gates_are_built_unchecked_with_checked_fields(self, monkeypatch):
        checks = []
        original = GateInstance.__post_init__
        monkeypatch.setattr(GateInstance, "__post_init__",
                            lambda g: checks.append(g) or original(g))
        rng = np.random.default_rng(61)
        for kind, dims in (("line", (6,)), ("grid", (3, 3)), ("ring", (7,))):
            topo = build_topology(kind, *dims)
            program = make_program(6, random_circuit(rng, 6, max_gates=40, min_gates=30))
            checks.clear()
            routed, _final, report = route(program, topo, initial_placement(program, topo))
            assert checks == [] and report.added_swaps > 0
            for g in routed.instructions:
                assert type(g.qubits) is tuple and all(type(q) is int for q in g.qubits)
                assert type(g.angle) is (float if g.kind.takes_angle else type(None))
                assert g == GateInstance(g.kind, g.qubits, g.angle)
            assert len(checks) == len(routed.instructions)

    def test_semantic_preservation_small_sample(self):
        rng = np.random.default_rng(59)
        for kind, dims in (("line", (4,)), ("ring", (4,)), ("grid", (2, 2))):
            topo = build_topology(kind, *dims)
            for strategy in ("identity", "greedy"):
                for _ in range(8):
                    ops = random_circuit(rng, 4, max_gates=12)
                    program = make_program(4, ops)
                    layout = initial_placement(program, topo, strategy)
                    routed, final_layout, _report = route(program, topo, layout)
                    mapped = simulate_instructions(routed.n, routed.instructions)
                    virt, leak = undo_layout_permutation(mapped, final_layout, 4)
                    original = simulate_instructions(4, ops)
                    assert leak <= 1e-9
                    assert np.abs(virt - original).max() <= 1e-9


class TestPathCache:
    @pytest.mark.parametrize("spec", [("grid", 3, 3), ("line", 5), ("line", 8)])
    def test_cached_routing_equals_uncached(self, monkeypatch, spec):
        searches = []
        bfs = mapper._bfs_path

        def counted(*args):
            searches.append(args[1:])
            return bfs(*args)

        monkeypatch.setattr(mapper, "_bfs_path", counted)
        rng = np.random.default_rng(len(spec) + spec[-1])
        for _ in range(15):
            topo = build_topology(*spec)
            n = int(rng.integers(3, topo.node_count + 1))
            program = make_program(n, random_circuit(rng, n, max_gates=30))
            layout = initial_placement(program, topo)
            searches.clear()
            cached = route(program, topo, layout)
            assert len(searches) == len(set(searches))  # no query searched twice
            with monkeypatch.context() as patch:  # a fresh search for every query
                patch.setattr(mapper, "_shortest_path", bfs)
                uncached = route(program, build_topology(*spec), layout)
            assert cached == uncached


def _unpruned_search(self, c1, c2, t):
    """The Toffoli plan search without its lower bound: every candidate runs."""
    best_cost, best_paths = None, None
    for pt in range(self.topo.node_count):
        neighbors = self.topo.adjacency[pt]
        if len(neighbors) < 2:
            continue
        for a in neighbors:
            for b in neighbors:
                if b == a:
                    continue
                paths = self._simulate_legs(((t, pt, ()), (c1, a, (pt,)), (c2, b, (pt, a))))
                if paths is None:
                    continue
                cost = sum(len(p) - 1 for p in paths)
                if best_cost is None or cost < best_cost:
                    best_cost, best_paths = cost, paths
    return best_paths


class TestToffoliPlanPruning:
    @pytest.mark.parametrize("spec", [("line", 6), ("ring", 7), ("grid", 3, 3), ("grid", 3, 4),
                                      ("full", 5)])
    @pytest.mark.parametrize("strategy", ["identity", "greedy"])
    def test_pruned_routing_equals_unpruned(self, monkeypatch, spec, strategy):
        simulated = {"pruned": 0, "unpruned": 0}
        legs = mapper._Router._simulate_legs
        mode = "pruned"

        def counted(self, *args):
            simulated[mode] += 1
            return legs(self, *args)

        monkeypatch.setattr(mapper._Router, "_simulate_legs", counted)
        rng = np.random.default_rng([len(spec), spec[-1], len(strategy)])
        for _ in range(12):
            n = int(rng.integers(3, build_topology(*spec).node_count + 1))
            ops = [
                gate("toffoli", *(int(q) for q in rng.choice(n, size=3, replace=False)))
                if rng.random() < 0.5 else op
                for op in random_circuit(rng, n, max_gates=16)
            ]
            program = make_program(n, ops)
            topo = build_topology(*spec)
            layout = initial_placement(program, topo, strategy)
            mode = "pruned"
            pruned = route(program, topo, layout)
            mode = "unpruned"
            with monkeypatch.context() as patch:
                patch.setattr(mapper._Router, "_search_toffoli_plan", _unpruned_search)
                unpruned = route(program, build_topology(*spec), layout)
            assert pruned == unpruned  # program, final layout and report
        if spec[0] != "full":  # full routes every Toffoli without a search
            assert 0 < simulated["pruned"] < simulated["unpruned"]


class TestMapCircuit:
    def test_bell_on_line_two(self):
        program = parse("version 1.0\nqubits 2\n.bell\nh q[0]\ncnot q[0],q[1]\n")
        text, report = map_circuit(program, build_topology("line", 2))
        assert report.added_swaps == 0
        reparsed = parse(text)
        assert len(reparsed.instructions) == 2

    def test_ghz_on_line_three_pays_overhead(self):
        ops = [gate("h", 0), gate("cnot", 0, 1), gate("cnot", 0, 2)]
        program = make_program(3, ops)
        _text, report = map_circuit(program, build_topology("line", 3), "identity")
        assert report.added_swaps >= 1
        assert report.depth_after > report.depth_before

    def test_ghz_on_full_three_is_free(self):
        ops = [gate("h", 0), gate("cnot", 0, 1), gate("cnot", 0, 2)]
        program = make_program(3, ops)
        _text, report = map_circuit(program, build_topology("full", 3), "identity")
        assert report.added_swaps == 0
        assert report.depth_after == report.depth_before
        assert report.gates_after == report.gates_before
