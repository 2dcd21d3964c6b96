"""Adapting circuits to hardware topologies.

Pipeline: initial placement (identity or interaction-greedy), SWAP routing
under the nearest-neighbour constraint, and dependency-aware ASAP
scheduling with unit gate durations.  Routing walks the program in order
and handles each gate in one step: SWAPs first move its operands into
place, then the gate is renamed onto their nodes.  A two-qubit gate moves
its first-listed operand toward the second along BFS shortest paths
(lexicographically smallest path on ties); every inserted SWAP updates the
running virtual-to-physical layout.  Three-qubit gates require both
controls adjacent to the target, found by a search over (target node,
control neighbor) assignments that skips any whose cost lower bound
already reaches the best plan's; each topology caches a bounded number of
shortest paths, since that search asks for the same ones many times, and
the mapper shares one topology per spec so the cache outlives a run.
"""

from __future__ import annotations

import functools
import math
from collections import Counter, deque
from dataclasses import dataclass
from itertools import combinations

from .cqasm import ASCII_INTEGER, Kernel, Program, emit
from .errors import MappingError
from .gates import GateInstance, GateKind

#: Paths one topology caches.  Every (start, goal, banned) query that routing
#: can make on a 3x3 grid fits: 81 node pairs x 22 banned sets.
PATH_CACHE_ENTRIES = 4096


class Topology:
    """Undirected connected graph of physical qubit sites."""

    def __init__(self, kind: str, node_count: int, edges):
        self.kind = kind
        self.node_count = node_count
        self.edges = frozenset(tuple(sorted(e)) for e in edges)
        adj: dict[int, set[int]] = {v: set() for v in range(node_count)}
        for u, v in self.edges:
            if not (0 <= u < node_count and 0 <= v < node_count) or u == v:
                raise ValueError(f"invalid edge ({u}, {v})")
            adj[u].add(v)
            adj[v].add(u)
        self.adjacency = {v: tuple(sorted(ns)) for v, ns in adj.items()}
        self.paths: dict[tuple, tuple[int, ...] | None] = {}  # see _shortest_path
        if node_count == 0 or len(_distances(self, 0)) < node_count:
            raise MappingError(f"{kind} topology with {node_count} nodes is disconnected")

    def is_adjacent(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def __repr__(self) -> str:
        return f"Topology({self.kind!r}, nodes={self.node_count}, edges={len(self.edges)})"


#: Each kind's dimension count, the least value of each dimension, and its
#: edges as a function of the dimensions (a grid's row-major sites link right and down).
KINDS = {
    "line": (1, 1, lambda n: [(i, i + 1) for i in range(n - 1)]),
    "ring": (1, 3, lambda n: [(i, (i + 1) % n) for i in range(n)]),
    "grid": (2, 1, lambda rows, cols: [(v, v + 1) for v in range(rows * cols) if (v + 1) % cols]
             + [(v, v + cols) for v in range(rows * cols - cols)]),
    "full": (1, 1, lambda n: combinations(range(n), 2)),
}

#: Topologies kept for reuse; the least recently used one goes first.
TOPOLOGIES_KEPT = 8


def topology_size(kind: str, *dims: int) -> int:
    """The node count of ``build_topology(kind, *dims)``, found without
    building it; ValueError for the kinds and dimensions it rejects."""
    if kind.lower() not in KINDS:
        raise ValueError(f"unknown topology kind {kind!r}")
    count, least, _ = KINDS[kind.lower()]
    if len(dims) != count or min(dims) < least:
        raise ValueError(f"{kind} needs {count} dimension(s) of at least {least}, got {dims}")
    return math.prod(dims)


def build_topology(kind: str, *dims: int) -> Topology:
    """line(n), ring(n), grid(rows, cols) with 4-neighbour links, or full(n)."""
    n = topology_size(kind, *dims)
    return Topology(kind.lower(), n, KINDS[kind.lower()][2](*dims))


def topology_key(spec: str) -> tuple:
    """(kind, *dimensions) of a spec: line:N, ring:N, grid:RxC, full:N, each
    dimension ASCII decimal; ValueError for a spec without them."""
    kind, _, dims = spec.partition(":")
    if not dims:
        raise ValueError(f"topology spec {spec!r} needs dimensions, e.g. line:4")
    kind = kind.strip().lower()
    parts = dims.lower().split("x") if kind == "grid" else [dims]
    key = (kind, *map(int, parts))  # int's own message for what it cannot read
    if not all(ASCII_INTEGER.fullmatch(part.strip()) for part in parts):
        raise ValueError(f"topology spec {spec!r} needs ASCII decimal dimensions")
    return key


_shared_topology = functools.lru_cache(maxsize=TOPOLOGIES_KEPT)(build_topology)


def parse_topology_spec(spec: str) -> Topology:
    """The topology of a spec: line:N, ring:N, grid:RxC, full:N.

    Specs with the same kind and dimensions share one Topology, so its path
    cache serves every run in the process that routes onto it.
    """
    return _shared_topology(*topology_key(spec))


@dataclass(frozen=True)
class LayoutMap:
    """Bijective assignment of the first n virtual qubits to physical nodes."""

    v2p: tuple[int, ...]
    n_physical: int

    def __post_init__(self):
        object.__setattr__(self, "v2p", tuple(int(p) for p in self.v2p))
        if len(set(self.v2p)) != len(self.v2p):
            raise ValueError(f"layout is not injective: {self.v2p}")
        if any(not 0 <= p < self.n_physical for p in self.v2p):
            raise ValueError(f"layout targets outside 0..{self.n_physical - 1}: {self.v2p}")

    def physical(self, v: int) -> int:
        return self.v2p[v]


@dataclass(frozen=True)
class ScheduledCircuit:
    """Instructions with assigned cycles; unit duration per gate."""

    instructions: tuple[GateInstance, ...]
    cycles: tuple[int, ...]

    @property
    def depth(self) -> int:
        return max(self.cycles) + 1 if self.cycles else 0


@dataclass(frozen=True)
class MappingReport:
    gates_before: int
    gates_after: int
    added_swaps: int
    depth_before: int
    depth_after: int


def initial_placement(program: Program, topo: Topology, strategy: str = "greedy") -> LayoutMap:
    """identity: virtual i on node i.  greedy: most interacting virtual pairs
    onto free adjacent nodes first, ties and leftovers by ascending index."""
    if topo.node_count < program.n:
        raise MappingError(
            f"topology has {topo.node_count} nodes but the program needs {program.n}"
        )
    if strategy == "identity":
        return LayoutMap(tuple(range(program.n)), topo.node_count)
    if strategy != "greedy":
        raise ValueError(f"unknown placement strategy {strategy!r}")

    pair_counts: Counter[tuple[int, int]] = Counter()
    for g in program.instructions:
        if len(g.qubits) >= 2:
            for a, b in combinations(sorted(g.qubits), 2):
                pair_counts[(a, b)] += 1

    place: list[int | None] = [None] * program.n
    free = set(range(topo.node_count))
    sorted_edges = sorted(topo.edges)

    def smallest_free_neighbor(node: int) -> int | None:
        for nb in topo.adjacency[node]:
            if nb in free:
                return nb
        return None

    for (a, b), _count in sorted(pair_counts.items(), key=lambda kv: (-kv[1], kv[0])):
        if place[a] is None and place[b] is None:
            for u, v in sorted_edges:
                if u in free and v in free:
                    place[a], place[b] = u, v
                    free.discard(u)
                    free.discard(v)
                    break
        elif place[a] is None or place[b] is None:
            todo, anchor = (a, b) if place[a] is None else (b, a)
            spot = smallest_free_neighbor(place[anchor])
            if spot is not None:
                place[todo] = spot
                free.discard(spot)
    for v in range(program.n):
        if place[v] is None:
            spot = min(free)
            place[v] = spot
            free.discard(spot)
    return LayoutMap(tuple(place), topo.node_count)


def schedule_asap(program: Program) -> ScheduledCircuit:
    """Each instruction starts one cycle after its latest DAG predecessor."""
    clock: dict[int, int] = {}
    cycles = []
    for g in program.instructions:
        start = max((clock.get(q, 0) for q in g.qubits), default=0)
        cycles.append(start)
        for q in g.qubits:
            clock[q] = start + 1
    return ScheduledCircuit(program.instructions, tuple(cycles))


def _shortest_path(
    topo: Topology, start: int, goal: int, banned=frozenset()
) -> tuple[int, ...] | None:
    """Lexicographically smallest shortest path, avoiding banned nodes;
    cached per topology, up to PATH_CACHE_ENTRIES queries."""
    key = (start, goal, banned)
    if key not in topo.paths:
        if len(topo.paths) >= PATH_CACHE_ENTRIES:  # the oldest entry goes first
            del topo.paths[next(iter(topo.paths))]
        topo.paths[key] = _bfs_path(topo, start, goal, banned)
    return topo.paths[key]


def _distances(topo: Topology, goal: int, banned=frozenset()) -> dict[int, int]:
    """BFS hop counts to ``goal`` from every node it reaches avoiding banned nodes."""
    dist = {goal: 0}
    frontier = deque([goal])
    while frontier:
        node = frontier.popleft()
        for nb in topo.adjacency[node]:
            if nb not in dist and nb not in banned:
                dist[nb] = dist[node] + 1
                frontier.append(nb)
    return dist


def _bfs_path(topo: Topology, start: int, goal: int, banned=frozenset()) -> tuple[int, ...] | None:
    """The search behind :func:`_shortest_path`: BFS distances from the goal."""
    if start == goal:
        return (start,)
    dist = _distances(topo, goal, banned)
    if start not in dist:
        return None
    # dist drops by exactly 1 per hop on any shortest path; taking the
    # smallest qualifying neighbor at each step yields the
    # lexicographically smallest node sequence.
    path = [start]
    node = start
    while node != goal:
        node = min(
            nb
            for nb in topo.adjacency[node]
            if nb not in banned and dist.get(nb, -1) == dist[node] - 1
        )
        path.append(node)
    return tuple(path)


def _exchange(pos: list[int], occ: list[int | None], u: int, v: int) -> None:
    """Swap the states on nodes u and v in an occupancy list and its inverse."""
    a, b = occ[u], occ[v]
    occ[u], occ[v] = b, a
    if a is not None:
        pos[a] = v
    if b is not None:
        pos[b] = u


class _Router:
    """Mutable routing state: tracks node occupancy while gates are routed."""

    def __init__(self, topo: Topology, layout: LayoutMap):
        self.topo = topo
        self.pos = list(layout.v2p)                      # virtual -> node
        self.occ: list[int | None] = [None] * topo.node_count
        for v, p in enumerate(self.pos):
            self.occ[p] = v
        self.added_swaps = 0
        self.out: list[GateInstance] = []

    def emit_swap(self, u: int, v: int) -> None:
        self.out.append(GateInstance.prevalidated(GateKind.SWAP, (u, v)))
        self.added_swaps += 1
        _exchange(self.pos, self.occ, u, v)

    def walk(self, path: tuple[int, ...]) -> None:
        """Swap the state at path[0] along the path to path[-1]."""
        for u, v in zip(path, path[1:]):
            self.emit_swap(u, v)

    def bring_adjacent(self, va: int, vb: int) -> None:
        """Move va's state toward vb until the two sit on adjacent nodes."""
        a, b = self.pos[va], self.pos[vb]
        if self.topo.is_adjacent(a, b):
            return
        path = _shortest_path(self.topo, a, b)
        if path is None:  # pragma: no cover - topologies are connected
            raise MappingError(f"no path between nodes {a} and {b}")
        self.walk(path[:-1])

    def bring_toffoli(self, c1: int, c2: int, t: int) -> None:
        """Move c1's and c2's states until both sit on nodes adjacent to t's."""
        around = self.topo.adjacency[self.pos[t]]
        if self.pos[c1] in around and self.pos[c2] in around:
            return
        plan = self._search_toffoli_plan(c1, c2, t)
        if plan is None:
            raise MappingError(
                "cannot place both controls adjacent to the target on this topology"
            )
        for path in plan:
            self.walk(path)

    def _search_toffoli_plan(self, c1: int, c2: int, t: int):
        """Cheapest (target node, control neighbors) assignment, by simulation.

        Legs run target, first control, second control; each later leg must
        avoid the nodes already finalized so it cannot displace them.  A
        candidate is not simulated when a lower bound on its cost already
        reaches the best cost: leg 1 costs the unbanned distance, and it moves
        any other qubit by at most one node (legs 1 and 2 by at most two), and
        banned nodes only lengthen paths, so the same plan wins as in a full
        search.
        """
        def dist(virt: int, node: int) -> int:
            return len(_shortest_path(self.topo, self.pos[virt], node)) - 1

        best_cost = float("inf")
        best_paths = None
        for pt in range(self.topo.node_count):
            neighbors = self.topo.adjacency[pt]
            lead = dist(t, pt)
            if len(neighbors) < 2 or lead >= best_cost:
                continue
            for a in neighbors:
                bound = lead + max(0, dist(c1, a) - 1)
                for b in neighbors:
                    # lower bound on the plan's cost; plans must be strictly cheaper
                    if b == a or bound + max(0, dist(c2, b) - 2) >= best_cost:
                        continue
                    paths = self._simulate_legs(((t, pt, ()), (c1, a, (pt,)), (c2, b, (pt, a))))
                    if paths is None:
                        continue
                    cost = sum(len(p) - 1 for p in paths)
                    if cost < best_cost:
                        best_cost = cost
                        best_paths = paths
        return best_paths

    def _simulate_legs(self, legs):
        sim_pos = list(self.pos)
        sim_occ = list(self.occ)
        paths = []
        for virt, dest, banned in legs:
            path = _shortest_path(self.topo, sim_pos[virt], dest, frozenset(banned))
            if path is None:
                return None
            for u, v in zip(path, path[1:]):
                _exchange(sim_pos, sim_occ, u, v)
            paths.append(path)
        return paths


def route(
    program: Program, topo: Topology, layout: LayoutMap
) -> tuple[Program, LayoutMap, MappingReport]:
    """Rewrite the program onto physical qubits, inserting SWAPs as needed.

    Two-qubit gates land on adjacent nodes; TOFFOLI gets both controls
    adjacent to its target.  Returns the physical-index program, the final
    layout, and the overhead report.
    """
    if topo.node_count < program.n:
        raise MappingError(
            f"topology has {topo.node_count} nodes but the program needs {program.n}"
        )
    router = _Router(topo, layout)
    out_kernels: list[Kernel] = []
    for kernel in program.kernels:
        start = len(router.out)
        for g in kernel.instructions:
            if len(g.qubits) == 2:
                router.bring_adjacent(*g.qubits)
            elif len(g.qubits) == 3:
                router.bring_toffoli(*g.qubits)
            # a parsed gate's fields, its operands renamed to distinct nodes
            router.out.append(GateInstance.prevalidated(
                g.kind, tuple(router.pos[q] for q in g.qubits), g.angle))
        out_kernels.append(Kernel(kernel.name, tuple(router.out[start:])))

    routed = Program(program.version, topo.node_count, tuple(out_kernels))
    final_layout = LayoutMap(tuple(router.pos), topo.node_count)
    report = MappingReport(
        gates_before=len(program.instructions),
        gates_after=len(routed.instructions),
        added_swaps=router.added_swaps,
        depth_before=schedule_asap(program).depth,
        depth_after=schedule_asap(routed).depth,
    )
    return routed, final_layout, report


def map_circuit(
    program: Program, topo: Topology, strategy: str = "greedy"
) -> tuple[str, MappingReport]:
    """Place and route; returns the mapped cQASM text and the report."""
    layout = initial_placement(program, topo, strategy)
    routed, _final, report = route(program, topo, layout)
    return emit(routed), report
