"""Sparse Heisenberg-picture Pauli propagation and operator stabilizer entropies."""

__version__ = "0.1.0"

from .paulis import (
    PRUNE_TOL,
    PauliString,
    SparseOperator,
    TruncationResult,
    enumerate_paulis,
    expectation_error_bound,
    from_local,
    parse_pauli_text,
    single_site_pauli,
    truncate_top,
)
from .heisenberg import (
    Circuit,
    Gate,
    brickwork_circuit,
    conjugate_gate,
    doped_circuit,
    evolve_ensemble,
    evolve_heisenberg,
    random_clifford_circuit,
)
from .measures import OseReport, ose, ose_scan, ose_scans, pauli_probs, renyi_entropy, t_count_lower_bound
from .xxz import XxzParams, alpha1_ose, closed_form_ose, commuted_operator

__all__ = [
    "PRUNE_TOL",
    "PauliString",
    "SparseOperator",
    "TruncationResult",
    "enumerate_paulis",
    "expectation_error_bound",
    "from_local",
    "parse_pauli_text",
    "single_site_pauli",
    "truncate_top",
    "Circuit",
    "Gate",
    "brickwork_circuit",
    "conjugate_gate",
    "doped_circuit",
    "evolve_ensemble",
    "evolve_heisenberg",
    "random_clifford_circuit",
    "OseReport",
    "ose",
    "ose_scan",
    "ose_scans",
    "pauli_probs",
    "renyi_entropy",
    "t_count_lower_bound",
    "XxzParams",
    "alpha1_ose",
    "closed_form_ose",
    "commuted_operator",
    "__version__",
]
