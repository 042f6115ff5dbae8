"""Dual-unitary XXZ brickwork: exact operator entropies and cross-checks.

The brick is SWAP followed by a ZZ rotation RZZ(J), 0 <= J <= pi/4, which
reproduces the interacting two-site gate up to a global phase (the SWAP
and the ZZ rotation commute, so the listed order is immaterial). For a
local seed a_x X + a_y Y + a_z Z the entropy at index alpha after t layers
is, in bits,

    (1/(1-alpha)) * log2[(A + (cos^(2a)(2J) + sin^(2a)(2J))^t) / (A + 1)],
    A = a_z^(2a) / (a_x^(2a) + a_y^(2a)),

growing near-linearly before saturating at (1/(1-alpha)) log2(A/(A+1))
for alpha > 1 (for alpha < 1 it grows without bound). Every closed form
is evaluated from three log2 sums of w^alpha: z over the seed's Z weight
a_z^2, xy over its X/Y weights a_x^2, a_y^2, and brick over one brick's
branch weights cos^2 2J, sin^2 2J. After t layers the operator's sum is
2^z + 2^(xy + t brick). Each sum is alpha log2 w_max + log2 sum
(w / w_max)^alpha, so a large finite index neither underflows nor
overflows, and at alpha = inf it is log2 w_max, which gives the
largest-weight limit. The alpha -> 1 limit is
t (a_x^2 + a_y^2) H2(cos^2 2J) with H2 the binary entropy in bits,
maximal (coefficient 1) at J = pi/8.
At J = 0 (pure SWAPs) and J = pi/4 (Clifford point) every index gives
zero. `closed_form_ose` is the one function that picks the closed form
for every positive index, alpha1_ose at alpha = 1 included; the seed
coefficients are checked by `paulis.seed_coefficients`, which `from_local`
shares.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .dense import pauli_matrix
from .heisenberg import Circuit, Gate, brickwork_circuit, evolve_heisenberg
from .measures import ose_scan
from .paulis import (PRUNE_TOL, PauliString, SparseOperator, from_local, seed_coefficients,
                     single_site_pauli)

MAX_SIM_LAYERS = 22
BRANCH_CUT = PRUNE_TOL**2  # a brick branch weight below it is an exact zero
_LN2 = math.log(2.0)


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
    xx, yy, zz = (pauli_matrix(PauliString.from_label(label)) for label in ("XX", "YY", "ZZ"))
    out = np.eye(4, dtype=complex)
    for theta, op in ((math.pi / 4, xx), (math.pi / 4, yy), (j_coupling + math.pi / 4, zz)):
        out = out @ (math.cos(theta) * np.eye(4) - 1j * math.sin(theta) * op)
    return out


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
        # the closed forms take t as a float; float() rounds every t below 2^1024 - 2^970 to a finite value
        if not 0 <= self.t < 2**1024 - 2**970 or int(self.t) != self.t:
            raise ValueError("t must be a non-negative integer in the float range")
        if not self.alpha > 0:  # nan too
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        seed_coefficients(self.a_x, self.a_y, self.a_z)


def closed_form_ose(params: XxzParams) -> float:
    """Exact OSE in bits for any depth and every positive index; at
    alpha = 1 it is the replica limit, alpha1_ose.

    A pure sigma_z seed commutes with every gate, and a Clifford brick
    (J = 0, pi/4) splits no string: both return 0.
    """
    if params.alpha == 1:
        return alpha1_ose(params)
    if params.a_x == 0.0 and params.a_y == 0.0:
        return 0.0
    z, xy, brick = _log2_sums(params)
    grown = params.t * brick
    if params.alpha == math.inf:
        # max(z, xy) - max(z, xy + grown) for grown <= 0, without rounding xy + grown
        return max(0.0, min(xy - z, -grown))
    # no growth (t = 0, or a Clifford brick: brick = 0) is +0.0, not the sign of 1 - alpha
    return _log2_growth(z - xy, grown) / (1.0 - params.alpha) + 0.0


def alpha1_ose(params: XxzParams) -> float:
    """Replica limit alpha -> 1: t (a_x^2 + a_y^2) H2(cos^2 2J) bits.

    H2 is the binary Shannon entropy of the branch weights, so J = 0 and
    J = pi/4 give 0 and J = pi/8 gives coefficient exactly 1.
    """
    if params.alpha != 1:
        raise ValueError(f"alpha1_ose is the alpha = 1 limit, got alpha = {params.alpha}")
    if params.a_x == 0.0 and params.a_y == 0.0:
        return 0.0
    small, log2_large = _branch_weights(params.j)
    h2 = -(small * math.log2(small) + (1.0 - small) * log2_large) if small else 0.0
    return params.t * (params.a_x**2 + params.a_y**2) * h2


def saturation_value(params: XxzParams) -> float:
    """t -> infinity limit of closed_form_ose; inf for a Pauli-like seed
    and for alpha < 1."""
    if params.alpha == 1:
        raise ValueError("alpha = 1 grows linearly and does not saturate")
    if params.a_x == 0.0 and params.a_y == 0.0:
        return 0.0
    if _branch_weights(params.j)[0] == 0.0:  # a Clifford brick
        return 0.0
    if params.alpha < 1:
        return math.inf
    z, xy, _ = _log2_sums(params)
    if params.alpha == math.inf:
        return max(0.0, xy - z)
    # -log2(2^z / (2^z + 2^xy)) / (alpha - 1), z = -inf for a Pauli-like seed
    return float(np.logaddexp2(0.0, xy - z)) / (params.alpha - 1.0)


def _branch_weights(j: float) -> tuple[float, float]:
    """One brick's split weights cos^2 2J and sin^2 2J, as the smaller one
    and log2 of the larger one.

    The smaller is taken directly, not as 1 minus the larger, and the
    larger's log2 is log1p(-smaller) / ln 2, so neither rounds near a
    Clifford point. A smaller weight below BRANCH_CUT is an exact 0, and
    so it is at J = 0 and pi/4.
    """
    small = min(math.cos(2.0 * j) ** 2, math.sin(2.0 * j) ** 2)
    if small < BRANCH_CUT:
        return 0.0, 0.0
    return small, math.log1p(-small) / _LN2


def _log2_sums(params: XxzParams) -> tuple[float, float, float]:
    """log2 sum w^alpha over the seed's Z weight, over its X/Y weights and
    over one brick's branch weights: (z, xy, brick).

    Each sum is alpha log2 w_max + log2 sum (w / w_max)^alpha, with the
    largest weight factored out before the power, and log2 w_max at
    alpha = inf. The brick's second term is the log1p of its smaller
    weight's ratio, so a brick near a Clifford point keeps its relative
    accuracy. z is -inf at a_z = 0, and brick is 0 at J = 0 and pi/4.
    """
    alpha = params.alpha

    def log2_sum(weights: Sequence[float]) -> float:
        top = max(weights)
        if top == 0.0:
            return -math.inf
        if alpha == math.inf:
            return math.log2(top)
        return alpha * math.log2(top) + math.log2(sum((w / top) ** alpha for w in weights))

    small, log2_large = _branch_weights(params.j)
    brick = log2_large
    if alpha != math.inf:
        brick = alpha * log2_large + math.log1p((small / (1.0 - small)) ** alpha) / _LN2
    xy = (params.a_x**2, params.a_y**2)
    return log2_sum((params.a_z**2,)), log2_sum(xy), brick


def _log2_growth(d: float, g: float) -> float:
    """log2(2^d + 2^g) - log2(2^d + 1): how far t layers move the log2 sum,
    for d = z - xy and g = t brick.

    It is log2(1 + q), q = (2^g - 1) / (2^d + 1), formed through log2 |q| so
    that no power overflows, and through log1p (in `np.logaddexp2` too) so
    that a small g, a brick near a Clifford point, keeps its relative
    accuracy: the difference of the two logs would cancel it. Only for
    q < -1/2, where the result is at least 1 in size, is that difference
    taken as it stands.
    """
    den = float(np.logaddexp2(d, 0.0))
    if g > 0.0:
        # log2(2^g - 1): by expm1 at small g, where 2^g - 1 cancels
        num = math.log2(math.expm1(g * _LN2)) if g < 1.0 else g + math.log1p(-(2.0**-g)) / _LN2
        return float(np.logaddexp2(0.0, num - den))
    if g == 0.0:
        return 0.0
    q = -(2.0 ** (math.log2(-math.expm1(g * _LN2)) - den))
    if q >= -0.5:
        return math.log1p(q) / _LN2
    return float(np.logaddexp2(d, g)) - den


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
        base = single_site_pauli(head, letter, n_qubits)
        terms[PauliString(n_qubits, base.x_mask, base.z_mask | subset << site_j)] = sign * coeff
    return SparseOperator(n_qubits, terms)


class XxzComparison(NamedTuple):
    simulated: float
    closed: float
    abs_diff: float


def simulate_scan(grid: Sequence[XxzParams]) -> list[XxzComparison]:
    """Brickwork-evolved OSE on 2t+2 qubits against the closed form, for
    every entry of `grid`, which may differ only in alpha: the brickwork is
    built and evolved once for all of them.

    The seed sits at site t, and the register is sized so that its light
    cone never touches a boundary.
    Capped at t <= MAX_SIM_LAYERS = 22 layers, where the evolved operator
    of a three-component seed holds 2^23 + 1 terms; the closed form itself
    has no depth limit. That worst seed takes 0.4-0.55 s and 264 MB peak
    RSS at t = 20, and 2.3 s and 906 MB at t = 22 (one process, evolve and
    score at one index, 2-core Intel Xeon, Python 3.11.7, numpy 2.4.6).
    """
    params = grid[0]
    if any(replace(p, alpha=params.alpha) != params for p in grid):
        raise ValueError("a scan varies alpha only")
    if params.t > MAX_SIM_LAYERS:
        raise ValueError(f"sparse cross-check capped at t = {MAX_SIM_LAYERS}")
    n = 2 * params.t + 2
    circuit = xxz_brickwork(n, params.t, params.j)
    seed = from_local(params.t, params.a_x, params.a_y, params.a_z, n)
    evolved = evolve_heisenberg(seed, circuit)
    comparisons = []
    for p, report in zip(grid, ose_scan(evolved, seed, [p.alpha for p in grid])):
        closed = closed_form_ose(p)
        comparisons.append(XxzComparison(report.ose, closed, abs(report.ose - closed)))
    return comparisons
