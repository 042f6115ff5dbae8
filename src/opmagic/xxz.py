"""Dual-unitary XXZ brickwork: exact operator entropies and cross-checks.

The brick is SWAP followed by a ZZ rotation RZZ(J), 0 <= J <= pi/4, which
reproduces the interacting two-site gate up to a global phase (the SWAP
and the ZZ rotation commute, so the listed order is immaterial). For a
local seed a_x X + a_y Y + a_z Z the entropy at index alpha after t layers
is, in bits,

    (1/(1-alpha)) * log2[(A + (cos^(2a)(2J) + sin^(2a)(2J))^t) / (A + 1)],
    A = a_z^(2a) / (a_x^(2a) + a_y^(2a)),

growing near-linearly before saturating at (1/(1-alpha)) log2(A/(A+1))
for alpha > 1 (for alpha < 1 it grows without bound). Both forms are
evaluated in log2, with max(a_x^2, a_y^2)^alpha and
M^alpha = max(cos^2 2J, sin^2 2J)^alpha factored out of their sums, so a
large finite index neither underflows nor overflows.
The alpha -> inf limit is log2 p_max - log2 max(a_z^2, m M^t) with
p_max = max(a_x^2, a_y^2, a_z^2) and m = max(a_x^2, a_y^2): the largest
weights of the seed and of the evolved operator. The alpha -> 1 limit is
t (a_x^2 + a_y^2) H2(cos^2 2J) with H2 the binary entropy in bits,
maximal (coefficient 1) at J = pi/8.
At J = 0 (pure SWAPs) and J = pi/4 (Clifford point) every index gives
zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .heisenberg import Circuit, Gate, brickwork_circuit, evolve_heisenberg
from .measures import ose
from .paulis import PauliString, SparseOperator, from_local, single_site_pauli

MAX_SIM_LAYERS = 6
BRANCH_CUT = 1e-28  # PRUNE_TOL^2: a brick branch weight below it is an exact zero


def xxz_brick(j_coupling: float) -> tuple[Gate, Gate]:
    """Brick template on sites (0, 1): ZZ rotation then SWAP."""
    return (Gate("RZZ", (0, 1), j_coupling), Gate("SWAP", (0, 1)))


def xxz_brickwork(n_qubits: int, layers: int, j_coupling: float) -> Circuit:
    return brickwork_circuit(n_qubits, layers, xxz_brick(j_coupling))


def two_site_unitary(j_coupling: float) -> np.ndarray:
    """The interacting two-site gate exp(-i [pi/4 (XX + YY) + (J + pi/4) ZZ]).

    The three terms commute, so the exponential factorizes exactly; this
    equals SWAP . RZZ(J) up to the global phase exp(-i pi/4).
    """
    xx = np.kron(_SX, _SX)
    yy = np.kron(_SY, _SY)
    zz = np.kron(_SZ, _SZ)
    out = np.eye(4, dtype=complex)
    for theta, op in ((math.pi / 4, xx), (math.pi / 4, yy), (j_coupling + math.pi / 4, zz)):
        out = out @ (math.cos(theta) * np.eye(4) - 1j * math.sin(theta) * op)
    return out


_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class XxzParams:
    """Coupling, depth, Renyi index and the local seed coefficients."""

    j: float
    t: int
    alpha: float
    a_x: float = 1.0
    a_y: float = 0.0
    a_z: float = 0.0

    def __post_init__(self) -> None:
        if not -1e-12 <= self.j <= math.pi / 4 + 1e-12:
            raise ValueError("J must lie in [0, pi/4]")
        if self.t < 0 or int(self.t) != self.t:
            raise ValueError("t must be a non-negative integer")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        norm = self.a_x**2 + self.a_y**2 + self.a_z**2
        if abs(norm - 1.0) >= 1e-10:
            raise ValueError(f"seed coefficients not normalized: |a|^2 = {norm}")


def closed_form_ose(params: XxzParams) -> float:
    """Exact OSE in bits for any depth; alpha = 1 lives in alpha1_ose.

    A pure sigma_z seed commutes with every gate, and a Clifford brick
    (J = 0, pi/4) splits no string: both return 0.
    """
    if params.alpha == 1:
        raise ValueError("alpha = 1 is the replica limit; use alpha1_ose")
    if params.a_x == 0.0 and params.a_y == 0.0:
        return 0.0
    p_max, m, big = _max_weights(params)
    if params.alpha == math.inf:
        top = max(_log2(params.a_z**2), math.log2(m) + params.t * math.log2(big))
        return math.log2(p_max) - top
    log_a, log_x = _log2_ratios(params, m, big)
    grown = np.logaddexp2(log_a, params.t * log_x) - np.logaddexp2(log_a, 0.0)
    # no growth (t = 0, or a Clifford brick: log2 x = 0) is +0.0, not the sign of 1 - alpha
    return float(grown) / (1.0 - params.alpha) + 0.0


def alpha1_ose(params: XxzParams) -> float:
    """Replica limit alpha -> 1: t (a_x^2 + a_y^2) H2(cos^2 2J) bits.

    H2 is the binary Shannon entropy, so J = 0 and J = pi/4 give 0 and
    J = pi/8 gives coefficient exactly 1.
    """
    if params.alpha != 1:
        raise ValueError(f"alpha1_ose is the alpha = 1 limit, got alpha = {params.alpha}")
    if params.a_x == 0.0 and params.a_y == 0.0:
        return 0.0
    q = math.cos(2.0 * params.j) ** 2
    return params.t * (params.a_x**2 + params.a_y**2) * _binary_entropy(q)


def _binary_entropy(q: float) -> float:
    # branch amplitudes below the engine prune tolerance are exact zeros,
    # so the Clifford endpoints J = 0, pi/4 give exactly 0
    if min(q, 1.0 - q) < BRANCH_CUT:
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


def saturation_value(params: XxzParams) -> float:
    """t -> infinity limit of closed_form_ose; inf for a Pauli-like seed
    and for alpha < 1."""
    if params.alpha == 1:
        raise ValueError("alpha = 1 grows linearly and does not saturate")
    if params.a_x == 0.0 and params.a_y == 0.0:
        return 0.0
    if 0.0 in _branch_weights(params.j):  # a Clifford brick, as in _log2_ratios
        return 0.0
    p_max, m, big = _max_weights(params)
    if params.alpha == math.inf:
        return math.log2(p_max) - _log2(params.a_z**2)
    log_a, log_x = _log2_ratios(params, m, big)
    if log_x > 0.0:  # alpha < 1
        return math.inf
    return float(log_a - np.logaddexp2(log_a, 0.0)) / (1.0 - params.alpha)


def _max_weights(params: XxzParams) -> tuple[float, float, float]:
    """p_max = max(a_x^2, a_y^2, a_z^2), m = max(a_x^2, a_y^2) and
    M = max(cos^2 2J, sin^2 2J): the largest weights of the seed, of its
    X/Y part and of one brick's split."""
    m = max(params.a_x**2, params.a_y**2)
    return max(m, params.a_z**2), m, max(_branch_weights(params.j))


def _branch_weights(j: float) -> tuple[float, float]:
    """cos^2 2J and sin^2 2J, one brick's split weights; a weight below
    BRANCH_CUT is an exact 0, so one of them is 0 at J = 0 and pi/4."""
    return tuple(w if w >= BRANCH_CUT else 0.0 for w in (math.cos(2.0 * j) ** 2, math.sin(2.0 * j) ** 2))


def _log2_ratios(params: XxzParams, m: float, big: float) -> tuple[float, float]:
    """log2 A and log2 (cos^(2a) 2J + sin^(2a) 2J), with m^alpha and M^alpha
    factored out of the sums; log2 A is -inf at a_z = 0, and log2 x is 0
    at J = 0 and pi/4."""
    alpha = params.alpha
    c2, s2 = _branch_weights(params.j)
    log_x = alpha * math.log2(big) + math.log2((c2 / big) ** alpha + (s2 / big) ** alpha)
    den = (params.a_x**2 / m) ** alpha + (params.a_y**2 / m) ** alpha
    return alpha * _log2(params.a_z**2 / m) - math.log2(den), log_x


def _log2(value: float) -> float:
    """log2 with log2(0) = -inf."""
    return math.log2(value) if value > 0.0 else -math.inf


def commuted_operator(
    site_j: int, t: int, j_coupling: float, axis: str, n_qubits: int
) -> SparseOperator:
    """Expansion of sigma_axis at site j+t times the accumulated ZZ rotations.

    The operator is sigma_{x/y}^(j+t) exp(-i 2J sum_i Z^(j+t) Z^(j+i)),
    expanded over subsets S of the t partner sites: weight
    cos(2J)^(t-|S|) sin(2J)^|S|, letter X/Y toggling with the parity of
    |S|, and an alternating sign from the folded factors of i. At most 2^t
    terms, all real.
    """
    if axis not in ("X", "Y"):
        raise ValueError("axis must be X or Y")
    if n_qubits < site_j + t + 1:
        raise ValueError(f"need at least {site_j + t + 1} qubits")
    if site_j < 0 or t < 0:
        raise ValueError("site and depth must be non-negative")
    head = site_j + t
    c = math.cos(2.0 * j_coupling)
    s = math.sin(2.0 * j_coupling)
    terms: dict[PauliString, float] = {}
    for subset in range(1 << t):
        k = subset.bit_count()
        coeff = c ** (t - k) * s**k
        if axis == "X":
            letter = "X" if k % 2 == 0 else "Y"
            sign = -1.0 if ((k + 1) // 2) % 2 else 1.0
        else:
            letter = "Y" if k % 2 == 0 else "X"
            sign = -1.0 if (k // 2) % 2 else 1.0
        z_mask = 0
        for i in range(t):
            if (subset >> i) & 1:
                z_mask |= 1 << (site_j + i)
        base = single_site_pauli(head, letter, n_qubits)
        terms[PauliString(n_qubits, base.x_mask, base.z_mask | z_mask)] = sign * coeff
    return SparseOperator(n_qubits, terms)


class XxzComparison(NamedTuple):
    simulated: float
    closed: float
    abs_diff: float


def simulate_vs_closed(params: XxzParams, seed_site: int | None = None) -> XxzComparison:
    """Brickwork-evolved OSE on 2t+2 qubits against the closed form.

    The register is sized so the light cone never touches a boundary.
    Capped at t <= 6 layers; the closed form itself has no depth limit.
    """
    if params.t > MAX_SIM_LAYERS:
        raise ValueError(f"sparse cross-check capped at t = {MAX_SIM_LAYERS}")
    n = 2 * params.t + 2
    if seed_site is None:
        seed_site = params.t
    if not 0 <= seed_site < n:
        raise ValueError("seed site out of range")
    circuit = xxz_brickwork(n, params.t, params.j)
    seed = from_local(seed_site, params.a_x, params.a_y, params.a_z, n)
    evolved = evolve_heisenberg(seed, circuit)
    if params.alpha == 1:
        closed = alpha1_ose(params)
    else:
        closed = closed_form_ose(params)
    simulated = ose(evolved, seed, params.alpha).ose
    return XxzComparison(simulated, closed, abs(simulated - closed))
