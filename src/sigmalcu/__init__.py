"""Sigma-basis decomposition toolkit.

Decomposes structured sparse matrices over the five-operator sigma basis,
synthesizes unitary-completion and dilation circuits for each term,
evaluates Hadamard-test expectation values, assembles PREP/SELECT block
encodings, and verifies everything by exact statevector simulation.
"""

from .matrices import (
    SparseMatrix,
    frobenius_distance,
    load_matrix_market,
    save_matrix_market,
)
from .sigma import (
    Decomposition,
    SigmaFactor,
    SigmaTerm,
    completion,
    completion_matrix,
    decompose_numerical,
    load_decomposition,
    merge_terms,
    reconstruct,
    save_decomposition,
    term_matrix,
)
from .pauli import PauliDecomposition, decompose_pauli
from .pde import HeatParams, PdeSystem, heat_1d, poisson_1d, wave_1d
from .circuits import (
    CLOSED,
    OPEN,
    Circuit,
    Gate,
    GateCount,
    build_dilation_circuit,
    build_ul_circuit,
    controlled,
    embedded,
    gate_count,
    load_circuit,
    save_circuit,
    to_qasm,
)
from .simulate import (
    StateVector,
    ancilla_probs,
    apply_gate,
    basis_state,
    circuit_to_matrix,
    run,
    zero_state,
)
from .expectation import (
    StateOracle,
    expval_sandwich,
    expval_term,
    sample_expval,
)
from .blockenc import (
    BlockEncoding,
    assemble,
    resource_report,
    select_circuit,
    verify_block_encoding,
)

__version__ = "0.1.0"

__all__ = [
    "BlockEncoding",
    "CLOSED",
    "Circuit",
    "Decomposition",
    "Gate",
    "GateCount",
    "HeatParams",
    "OPEN",
    "PauliDecomposition",
    "PdeSystem",
    "SigmaFactor",
    "SigmaTerm",
    "SparseMatrix",
    "StateOracle",
    "StateVector",
    "ancilla_probs",
    "apply_gate",
    "assemble",
    "basis_state",
    "build_dilation_circuit",
    "build_ul_circuit",
    "circuit_to_matrix",
    "completion",
    "completion_matrix",
    "controlled",
    "decompose_numerical",
    "decompose_pauli",
    "embedded",
    "expval_sandwich",
    "expval_term",
    "frobenius_distance",
    "gate_count",
    "heat_1d",
    "load_circuit",
    "load_decomposition",
    "load_matrix_market",
    "merge_terms",
    "poisson_1d",
    "reconstruct",
    "resource_report",
    "run",
    "sample_expval",
    "save_circuit",
    "save_decomposition",
    "save_matrix_market",
    "select_circuit",
    "term_matrix",
    "to_qasm",
    "verify_block_encoding",
    "wave_1d",
    "zero_state",
]
