"""Quantum accelerator toolchain.

Parses a cQASM subset, simulates circuits with a mapping-function
state-vector engine (cross-checked against a dense Kronecker-product
oracle), maps circuits to nearest-neighbour topologies, and reports
depth, gate-count, fidelity, success-probability, Quantum-Volume and
speedup metrics into a persistent run store.
"""

from .cqasm import DependencyDAG, Kernel, Program, dependency_graph, emit, parse
from .errors import CapacityError, MappingError, ParseError
from .gates import (
    GateInstance,
    GateKind,
    NoiseConfig,
    apply_depolarizing,
    apply_gate,
    gate,
    measure,
    prep_z,
    run_circuit,
    sample,
)
from .genomics import AlignmentInstance, align, build_alignment_circuit, encode_reference
from .mapper import (
    LayoutMap,
    MappingReport,
    ScheduledCircuit,
    Topology,
    build_topology,
    initial_placement,
    map_circuit,
    route,
    schedule_asap,
)
from .metrics import (
    GateCounts,
    MetricSet,
    SpeedupParams,
    amdahl,
    fidelity,
    gate_count,
    gustafson,
    quantum_volume,
    success_probability,
)
from .statecore import (
    MAX_QUBITS,
    Amplitude,
    MemoryParams,
    StateVector,
    alloc_state,
    estimate_matrix_memory,
    estimate_total_memory,
    estimate_vector_memory,
    probabilities,
)
from .tensor_oracle import dense_simulate, gate_matrix, hadamard_tensor_check, kron

__version__ = "0.1.0"
