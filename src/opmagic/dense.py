"""Dense-matrix ground truth for small registers.

Everything here is brute force on 2^n dimensional matrices and is the
oracle the sparse path is tested against: exact circuit unitaries, full
Pauli spectra, the Pauli transfer matrix, unitary stabilizer nullity, and
state stabilizer entropies. Site 0 is the most significant tensor factor,
matching the leftmost letter of a Pauli label.

Caps: spectra and unitaries at n <= 6, the 16^n nullity pair scan at
n <= 4. Global phases are dropped everywhere; every quantity computed here
is conjugation invariant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .heisenberg import Circuit, Gate, mixing_depth, random_clifford_circuit
from .measures import renyi_entropy
from .paulis import PauliString, SparseOperator, enumerate_paulis

MAX_DENSE_QUBITS = 6
MAX_NULLITY_QUBITS = 4

_P1 = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Per-site change of basis from matrix elements (m = 2r + c) to Pauli
# letters in canonical order I, X, Z, Y: row L, entry sigma_L[c, r].
_PAULI_XFORM = np.array(
    [
        [1, 0, 0, 1],
        [0, 1, 1, 0],
        [1, 0, 0, -1],
        [0, 1j, -1j, 0],
    ],
    dtype=complex,
)


def pauli_matrix(pauli: PauliString) -> np.ndarray:
    """Dense matrix of a Pauli string (kron over sites, site 0 leftmost)."""
    mats = [_P1[pauli.letter(s)] for s in range(pauli.n_qubits)]
    return reduce(np.kron, mats)


def operator_matrix(operator: SparseOperator) -> np.ndarray:
    dim = 1 << operator.n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for p, a in operator.terms.items():
        out += a * pauli_matrix(p)
    return out


def gate_matrix(gate: Gate) -> np.ndarray:
    """Local matrix of a gate on its own sites (first site most significant)."""
    kind = gate.kind
    if kind == "H":
        return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    if kind == "S":
        return np.diag([1, 1j]).astype(complex)
    if kind == "Sdg":
        return np.diag([1, -1j]).astype(complex)
    if kind in ("X", "Y", "Z"):
        return _P1[kind]
    if kind == "CNOT":
        return np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
    if kind == "CZ":
        return np.diag([1, 1, 1, -1]).astype(complex)
    if kind == "SWAP":
        return np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
    if kind in ("T", "Tdg", "RZ"):
        th = gate.angle
        return np.diag([np.exp(-1j * th), np.exp(1j * th)])
    if kind == "RZZ":
        th = gate.angle
        e, f = np.exp(-1j * th), np.exp(1j * th)
        return np.diag([e, f, f, e])
    raise ValueError(f"unknown gate kind {kind!r}")


def embed(local: np.ndarray, sites: tuple[int, ...], n_qubits: int) -> np.ndarray:
    """Embed a k-site gate matrix into the full 2^n dimensional register."""
    k = len(sites)
    if local.shape != (1 << k, 1 << k):
        raise ValueError("local matrix shape does not match site count")
    dim = 1 << n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    shifts = [n_qubits - 1 - s for s in sites]  # site 0 is the MSB
    for col in range(dim):
        j = 0
        base = col
        for idx, sh in enumerate(shifts):
            j |= ((col >> sh) & 1) << (k - 1 - idx)
            base &= ~(1 << sh)
        for i in range(1 << k):
            row = base
            for idx, sh in enumerate(shifts):
                row |= ((i >> (k - 1 - idx)) & 1) << sh
            out[row, col] = local[i, j]
    return out


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Ordered product of gate matrices; global phase is not meaningful."""
    if circuit.n_qubits > MAX_DENSE_QUBITS:
        raise ValueError(f"dense path capped at {MAX_DENSE_QUBITS} qubits")
    dim = 1 << circuit.n_qubits
    u = np.eye(dim, dtype=complex)
    for gate in circuit.gates:
        u = embed(gate_matrix(gate), gate.sites, circuit.n_qubits) @ u
    return u


@lru_cache(maxsize=8)
def _canonical_perm(n_qubits: int) -> np.ndarray:
    """Map site-major letter index to the canonical (z_mask << n) | x_mask index."""
    perm = np.empty(4**n_qubits, dtype=np.int64)
    for flat in range(4**n_qubits):
        x_mask = z_mask = 0
        rest = flat
        for site in range(n_qubits - 1, -1, -1):
            letter = rest & 3
            rest >>= 2
            x_mask |= (letter & 1) << site
            z_mask |= (letter >> 1) << site
        perm[flat] = (z_mask << n_qubits) | x_mask
    return perm


def pauli_coefficients(matrix: np.ndarray, n_qubits: int) -> np.ndarray:
    """tr[A P]/D for all 4^n strings P, in canonical order (complex vector).

    Works by a per-site basis change on the reshaped matrix, so no Pauli
    matrices are materialized.
    """
    dim = 1 << n_qubits
    if matrix.shape != (dim, dim):
        raise ValueError("matrix shape does not match qubit count")
    t = matrix.reshape((2,) * (2 * n_qubits))
    order = [ax for pair in zip(range(n_qubits), range(n_qubits, 2 * n_qubits)) for ax in pair]
    t = np.transpose(t, order).reshape((4,) * n_qubits)
    for site in range(n_qubits):
        t = np.moveaxis(np.tensordot(_PAULI_XFORM, t, axes=(1, site)), 0, site)
    flat = t.reshape(-1) / dim
    out = np.empty_like(flat)
    out[_canonical_perm(n_qubits)] = flat
    return out


def pauli_spectrum(unitary: np.ndarray, seed: SparseOperator) -> np.ndarray:
    """Exact coefficients tr[U^dag O U P]/D over all strings, canonical order.

    Returns the real part; for Hermitian seeds the imaginary parts are
    numerical noise below 1e-10.
    """
    n = seed.n_qubits
    if n > MAX_DENSE_QUBITS:
        raise ValueError(f"dense path capped at {MAX_DENSE_QUBITS} qubits")
    evolved = unitary.conj().T @ operator_matrix(seed) @ unitary
    return pauli_coefficients(evolved, n).real


def ptm(unitary: np.ndarray) -> np.ndarray:
    """Pauli transfer matrix C[a, b] = tr[P_a U^dag P_b U]/D, canonical indices."""
    dim = unitary.shape[0]
    n = dim.bit_length() - 1
    out = np.empty((4**n, 4**n))
    udag = unitary.conj().T
    for b, p in enumerate(enumerate_paulis(n)):
        conj = udag @ pauli_matrix(p) @ unitary
        out[:, b] = pauli_coefficients(conj, n).real
    return out


@dataclass(frozen=True)
class NullityReport:
    """Count of Pauli pairs mapped exactly to Paulis, and the nullity."""

    s_count: int
    nu: float


def stabilizer_nullity(unitary: np.ndarray) -> NullityReport:
    """nu(U) = 2N - log2 #{(P1, P2): |tr(P1 U^dag P2 U)|/D = 1 within 1e-9}."""
    dim = unitary.shape[0]
    n = dim.bit_length() - 1
    if n > MAX_NULLITY_QUBITS:
        raise ValueError(f"nullity pair scan capped at {MAX_NULLITY_QUBITS} qubits")
    c = ptm(unitary)
    s_count = int(np.count_nonzero(np.abs(np.abs(c) - 1.0) < 1e-9))
    return NullityReport(s_count=s_count, nu=2.0 * n - math.log2(s_count))


def avg_linear_ose(unitary: np.ndarray, alpha: float = 2.0) -> float:
    """Mean of 1 - P^(alpha) over all non-identity Pauli seeds."""
    c = ptm(unitary)
    probs = c * c
    row_purity = np.sum(probs**alpha, axis=1)
    return float(np.mean(1.0 - row_purity[1:]))  # row 0 is the identity seed


def random_stabilizer_state(n_qubits: int, seed: int = 0) -> np.ndarray:
    """|0...0> pushed through a random Clifford mixing circuit."""
    if n_qubits > MAX_DENSE_QUBITS:
        raise ValueError(f"dense path capped at {MAX_DENSE_QUBITS} qubits")
    circuit = random_clifford_circuit(n_qubits, mixing_depth(n_qubits), seed)
    return circuit_unitary(circuit)[:, 0]


def state_stabilizer_purity(state: np.ndarray, alpha: float) -> float:
    """zeta_alpha = (1/D) sum_P <psi|P|psi>^(2 alpha); equals 1 on stabilizer states."""
    dim = state.shape[0]
    n = dim.bit_length() - 1
    rho = np.outer(state, state.conj())
    expect = pauli_coefficients(rho, n).real * dim  # <P> per string
    return float(np.sum((expect * expect) ** alpha) / dim)


def state_sre(unitary: np.ndarray, state: np.ndarray, alpha: float) -> float:
    """Stabilizer Renyi entropy of U|state| in bits.

    Normalization used here (declared, since conventions differ):
    zeta_alpha = (1/D) sum_P <P>^(2 alpha), M_alpha = log2(zeta_alpha)/(1-alpha).
    For a pure state <P>^2 / D is a probability vector and M_alpha is its
    measures.renyi_entropy minus N, so alpha = 0, 1, inf are the limits
    taken there. Zero exactly on stabilizer outputs. The linear variant is
    1 - zeta_2.
    """
    psi = unitary @ state
    dim = psi.shape[0]
    n = dim.bit_length() - 1
    rho = np.outer(psi, psi.conj())
    expect = pauli_coefficients(rho, n).real * dim
    return renyi_entropy(expect * expect / dim, alpha) - n


def avg_linear_sre(
    unitary: np.ndarray, n_samples: int, seed: int = 0, alpha: float = 2.0
) -> float:
    """MC mean of the linear SRE 1 - zeta_alpha of U|psi> over stabilizer |psi>."""
    rng = np.random.default_rng(seed)
    total = 0.0
    for _ in range(n_samples):
        psi = random_stabilizer_state(
            unitary.shape[0].bit_length() - 1, int(rng.integers(2**63 - 1))
        )
        total += 1.0 - state_stabilizer_purity(unitary @ psi, alpha)
    return total / n_samples
