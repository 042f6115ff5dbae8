"""Dense-matrix ground truth for small registers.

Everything here is brute force on 2^n dimensional matrices and is the
oracle the sparse path is tested against: exact circuit unitaries, full
Pauli spectra, the Pauli transfer matrix, unitary stabilizer nullity, and
state stabilizer entropies. Site 0 is the most significant tensor factor,
matching the leftmost letter of a Pauli label. Nothing here calls the
Heisenberg engine.

Circuits are applied by contracting each gate's 2^k x 2^k matrix into the
register, held as a (2,)*n tensor, on the gate's k sites. Pauli
coefficients come from index arithmetic on the (x, z) bits of a string:
tr[A P]/D = i^|x & z|/D sum_r A[r, r ^ x] (-1)^|r & z|, one gather and one
+-1 Walsh-Hadamard (Sylvester) product, with its tables built once per n.
pauli_matrix (a kron of the explicit 2x2 letters) and gate_matrix are the
independent references both are tested against.

Caps: spectra and unitaries at n <= 6, the 16^n nullity pair scan at
n <= 4. Global phases are dropped everywhere; every quantity computed here
is conjugation invariant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .heisenberg import Circuit, Gate, random_clifford_circuit
from .measures import renyi_entropy, renyi_purity
from .paulis import PauliString, SparseOperator, enumerate_paulis

MAX_DENSE_QUBITS = 6
MAX_NULLITY_QUBITS = 4

_P1 = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


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


def _contract(register: np.ndarray, circuit: Circuit) -> np.ndarray:
    """Apply the circuit's gates in order to a register of shape (2,)*n + rest.

    Each gate's matrix, reshaped to (2,)*2k, is contracted on its k sites
    with tensordot and the new axes are moved back into place.
    """
    if circuit.n_qubits > MAX_DENSE_QUBITS:
        raise ValueError(f"dense path capped at {MAX_DENSE_QUBITS} qubits")
    for gate in circuit.gates:
        k = len(gate.sites)
        local = gate_matrix(gate).reshape((2,) * (2 * k))
        register = np.tensordot(local, register, axes=(tuple(range(k, 2 * k)), gate.sites))
        register = np.moveaxis(register, tuple(range(k)), gate.sites)
    return register


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Ordered product of gate matrices; global phase is not meaningful."""
    n = circuit.n_qubits
    dim = 1 << n
    eye = np.eye(dim, dtype=complex).reshape((2,) * n + (dim,))
    return _contract(eye, circuit).reshape(dim, dim)


@lru_cache(maxsize=MAX_DENSE_QUBITS)
def _pauli_tables(n_qubits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tables of the n-qubit Pauli transform: gather[r, xm], sylvester[zm, r], phase[zm, xm].

    xm, zm are the canonical masks, whose bit s is site s. In matrix indices
    site 0 is the most significant bit, so a mask stands for its n bits
    reversed, rev(m); |x & z| is the same for both. Then sylvester @ A[gather]
    * phase is indexed [zm, xm], which flattens to (z_mask << n) | x_mask.
    """
    dim = 1 << n_qubits
    idx = np.arange(dim)
    rev = np.zeros(dim, dtype=np.int64)
    for s in range(n_qubits):
        rev |= ((idx >> s) & 1) << (n_qubits - 1 - s)
    parity = np.array([k.bit_count() for k in range(dim)], dtype=np.int64)
    gather = idx[:, None] * dim + (idx[:, None] ^ rev[None, :])  # [r, x]: A[r, r ^ x]
    sylvester = (1 - 2 * (parity[rev[:, None] & idx[None, :]] & 1)).astype(complex)  # [z, r]
    phase = np.array([1, 1j, -1, -1j])[parity[idx[:, None] & idx[None, :]] & 3] / dim
    for table in (gather, sylvester, phase):  # cached and shared by every caller
        table.flags.writeable = False
    return gather, sylvester, phase


def pauli_coefficients(matrix: np.ndarray, n_qubits: int) -> np.ndarray:
    """tr[A P]/D for all 4^n strings P, in canonical order, over the last two axes.

    A (D, D) matrix gives a complex vector and a stack (..., D, D) gives
    (..., 4^n). With x, z the string's bits in matrix-index order,
    P[r ^ x, r] is i^|x & z| (-1)^|r & z|, so tr[A P]/D = i^|x & z|/D
    sum_r A[r, r ^ x] (-1)^|r & z|: one gather and one +-1 Walsh-Hadamard
    product, broadcast over the stack.
    """
    dim = 1 << n_qubits
    if matrix.shape[-2:] != (dim, dim):
        raise ValueError("matrix shape does not match qubit count")
    if n_qubits > MAX_DENSE_QUBITS:
        raise ValueError(f"dense path capped at {MAX_DENSE_QUBITS} qubits")
    gather, sylvester, phase = _pauli_tables(n_qubits)
    stack = matrix.shape[:-2]
    flat = matrix.reshape(stack + (dim * dim,))
    out = sylvester @ flat[..., gather]
    out *= phase
    return out.reshape(stack + (dim * dim,))


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
    """Mean of 1 - P^(alpha) over all non-identity Pauli seeds: one
    measures.renyi_purity call reduces every PTM row."""
    rows = ptm(unitary)[1:]  # row 0 is the identity seed
    return float(np.mean(1.0 - renyi_purity(rows * rows, alpha)))


def random_stabilizer_state(n_qubits: int, seed: int = 0) -> np.ndarray:
    """|0...0> pushed through a random Clifford mixing circuit."""
    circuit = random_clifford_circuit(n_qubits, seed=seed)
    zero = np.zeros((2,) * n_qubits, dtype=complex)
    zero[(0,) * n_qubits] = 1.0
    return _contract(zero, circuit).reshape(-1)


def _state_probs(state: np.ndarray) -> np.ndarray:
    """<psi|P|psi>^2 / D over all strings: a probability vector for a pure state."""
    dim = state.shape[0]
    rho = np.outer(state, state.conj())
    expect = pauli_coefficients(rho, dim.bit_length() - 1).real * dim  # <P> per string
    return expect * expect / dim


def state_stabilizer_purity(state: np.ndarray, alpha: float) -> float:
    """zeta_alpha = (1/D) sum_P <psi|P|psi>^(2 alpha); equals 1 on stabilizer states.

    Evaluated as D^(alpha-1) renyi_purity(<P>^2/D, alpha), so alpha = 0 is
    the count of nonzero <P> over D. D^(alpha-1) is unbounded at alpha = inf,
    so that index raises; state_sre takes it as the min entropy.
    """
    if math.isinf(alpha):
        raise ValueError("state_stabilizer_purity has no alpha = inf form; use state_sre")
    dim = state.shape[0]
    return float(dim ** (alpha - 1.0) * renyi_purity(_state_probs(state), alpha))


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
    return renyi_entropy(_state_probs(psi), alpha) - (psi.shape[0].bit_length() - 1)


def avg_linear_sre(
    unitary: np.ndarray, n_samples: int, seed: int = 0, alpha: float = 2.0
) -> float:
    """MC mean of the linear SRE 1 - zeta_alpha of U|psi> over stabilizer |psi>."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    rng = np.random.default_rng(seed)
    total = 0.0
    for _ in range(n_samples):
        psi = random_stabilizer_state(
            unitary.shape[0].bit_length() - 1, int(rng.integers(2**63 - 1))
        )
        total += 1.0 - state_stabilizer_purity(unitary @ psi, alpha)
    return total / n_samples
