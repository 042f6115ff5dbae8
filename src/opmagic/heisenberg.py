"""Exact Heisenberg conjugation of sparse operators and circuit builders.

Gates act on states in list order: for a circuit [g1, g2] the unitary is
U = g2 * g1. Evolving an operator computes U^dag O U, so gates are
conjugated in reverse list order.

Angle convention: RZ(theta) = exp(-i theta Z) and
RZZ(theta) = exp(-i theta Z x Z), so conjugation rotates coefficients by
2*theta and T == RZ(pi/8) exactly.

One kernel, `_propagate`, serves `evolve_heisenberg` and `conjugate_gate`.
It works on raw (x_mask, z_mask) -> coeff dicts in the symplectic form of
Aaronson and Gottesman, on the circuit compiled to Pauli rotations, so
Clifford gates never touch the evolved operator and each rotation splits
the terms that anticommute with its generator. The kernel knows five
Clifford opcodes, H, S, CNOT, SWAP and one Pauli sign rule. Each gate kind
is one `_KINDS` row, and each `Gate` carries its compiled step. A new kind
takes a row, a `dense.gate_matrix` case and a `tests/conftest.py` entry.
"""
from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .paulis import PRUNE_TOL, PauliString, SparseOperator, as_integer, json_fields

# Opcodes of compiled Clifford gates, in dispatch order: the doped ensemble
# draws H, S and CNOT, and the XXZ brick holds a SWAP. An opcode is
# (code, 1 << first site, 1 << last site), and (_PAULI, x_mask, z_mask).
_H, _S, _CNOT, _SWAP, _PAULI = range(5)

# Every gate kind: (site count, Clifford lowering, fixed angle). A Clifford
# kind lowers its first and last site masks (m, m2) to opcodes in Heisenberg
# order: Sdg = S Z, CZ = (I x H) CNOT (I x H), and Y ~ X Z. Any other kind
# rotates about the Z string on its sites, by its fixed angle or by theta.
_KINDS = {
    "H": (1, lambda m, m2: ((_H, m, m),), None),
    "S": (1, lambda m, m2: ((_S, m, m),), None),
    "Sdg": (1, lambda m, m2: ((_S, m, m), (_PAULI, 0, m)), None),
    "X": (1, lambda m, m2: ((_PAULI, m, 0),), None),
    "Y": (1, lambda m, m2: ((_PAULI, m, m),), None),
    "Z": (1, lambda m, m2: ((_PAULI, 0, m),), None),
    "CNOT": (2, lambda m, m2: ((_CNOT, m, m2),), None),
    "CZ": (2, lambda m, m2: ((_H, m2, m2), (_CNOT, m, m2), (_H, m2, m2)), None),
    "SWAP": (2, lambda m, m2: ((_SWAP, m, m2),), None),
    "T": (1, None, math.pi / 8),
    "Tdg": (1, None, -math.pi / 8),
    "RZ": (1, None, None),
    "RZZ": (2, None, None),
}

GATE_KINDS = frozenset(_KINDS)
CLIFFORD_KINDS = frozenset(kind for kind, row in _KINDS.items() if row[1])
ROTATION_KINDS = GATE_KINDS - CLIFFORD_KINDS

_ANGLE_RE = re.compile(r"^([+-]?)(?:(\d+(?:\.\d+)?)\s*\*?\s*)?pi(?:\s*/\s*(\d+(?:\.\d+)?))?$")


def parse_angle(text: str) -> float:
    """Radians, either a float literal or a pi fraction like 'pi/8' or '3*pi/4'."""
    text = text.strip().lower()
    m = _ANGLE_RE.match(text)
    if m:
        sign = -1.0 if m.group(1) == "-" else 1.0
        mult = float(m.group(2)) if m.group(2) else 1.0
        div = float(m.group(3)) if m.group(3) else 1.0
        if div == 0.0:
            raise ValueError(f"angle {text!r} divides by zero")
        return sign * mult * math.pi / div
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"cannot parse angle {text!r}") from None


@dataclass(frozen=True, slots=True)
class Gate:
    """One gate: kind, site tuple, and an angle for RZ/RZZ only. `step` is
    its compiled form: (opcodes, None), or ((), rotation row) for a rotation."""

    kind: str
    sites: tuple[int, ...]
    theta: float | None = None
    step: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or self.kind not in _KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        want, lower, fixed = _KINDS[self.kind]
        if isinstance(self.sites, (str, bytes)) or not hasattr(self.sites, "__iter__"):
            raise ValueError(f"{self.kind} sites must be a list of integers, got {self.sites!r}")
        object.__setattr__(self, "sites", tuple(as_integer(s, f"{self.kind} site") for s in self.sites))
        if len(self.sites) != want:
            raise ValueError(f"{self.kind} takes {want} site(s), got {self.sites}")
        if len(set(self.sites)) != len(self.sites):
            raise ValueError("gate sites must be distinct")
        if any(s < 0 for s in self.sites):
            raise ValueError("site indices must be non-negative")
        if lower is None and fixed is None:
            if self.theta is None:
                raise ValueError(f"{self.kind} needs an angle")
            if not math.isfinite(self.theta):
                raise ValueError(f"{self.kind} angle must be finite, got {self.theta!r}")
        elif self.theta is not None:
            raise ValueError(f"{self.kind} takes no angle")
        if lower is None:  # sites are distinct
            step = ((), (0, sum(1 << s for s in self.sites), 2.0 * self.angle))
        else:
            step = (lower(1 << self.sites[0], 1 << self.sites[-1]), None)
        object.__setattr__(self, "step", step)

    @property
    def angle(self) -> float:
        """Rotation angle, with T/Tdg pinned to +-pi/8."""
        angle = _KINDS[self.kind][2] if self.theta is None else self.theta
        if angle is None:
            raise ValueError(f"{self.kind} has no angle")
        return angle

    def to_json_dict(self) -> dict:
        d: dict = {"kind": self.kind, "sites": list(self.sites)}
        if self.theta is not None:
            d["theta"] = self.theta
        return d

    @classmethod
    def from_json_dict(cls, data: dict) -> "Gate":
        kind, sites = json_fields(data, "a gate", "kind", "sites")
        theta = data.get("theta")
        if theta is not None and (isinstance(theta, bool) or not isinstance(theta, (int, float))):
            raise ValueError(f"gate theta must be a number, got {theta!r}")
        return cls(kind, sites, None if theta is None else float(theta))


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list; the first element acts first on states."""

    n_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        n = as_integer(self.n_qubits, "qubit count n")
        if n <= 0:
            raise ValueError("n_qubits must be positive")
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "gates", tuple(self.gates))
        # one max over the distinct site tuples; the gate is looked up only to name it
        if max(map(max, {g.sites for g in self.gates}), default=-1) >= n:
            bad = next(g for g in self.gates if max(g.sites) >= n)
            raise ValueError(f"gate {bad} out of range for {n} qubits")

    def __len__(self) -> int:
        return len(self.gates)

    def to_json_dict(self) -> dict:
        return {"n": self.n_qubits, "gates": [g.to_json_dict() for g in self.gates]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Circuit":
        n, gates = json_fields(data, "a circuit", "n", "gates")
        if not isinstance(gates, list):
            raise ValueError(f"circuit gates must be a list, got {gates!r}")
        return cls(n, tuple(Gate.from_json_dict(g) for g in gates))

    def to_text(self) -> str:
        lines = [f"qubits {self.n_qubits}"]
        for g in self.gates:
            parts = [g.kind] + [str(s) for s in g.sites]
            if g.theta is not None:
                parts.append(repr(g.theta))
            lines.append(" ".join(parts))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Circuit":
        """Parse the line format: 'qubits N' then one gate per line, e.g. 'RZZ 0 1 pi/8'."""
        n_qubits = None
        gates = []
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if parts[0].lower() == "qubits":
                if len(parts) != 2:
                    raise ValueError(f"expected 'qubits N', got {raw!r}")
                n_qubits = int(parts[1])
                continue
            kind = parts[0]
            if kind not in _KINDS:
                raise ValueError(f"unknown gate kind {kind!r} in line {raw!r}")
            n_sites = _KINDS[kind][0]
            sites = tuple(int(p) for p in parts[1 : 1 + n_sites])
            rest = parts[1 + n_sites :]
            if len(rest) > 1:
                raise ValueError(f"unexpected tokens {rest[1:]} in line {raw!r}")
            theta = parse_angle(rest[0]) if rest else None
            gates.append(Gate(kind, sites, theta))
        if n_qubits is None:
            n_qubits = max((max(g.sites) + 1 for g in gates), default=0)
        return cls(n_qubits, tuple(gates))


def _compile(gates: Sequence[Gate]) -> list:
    """Heisenberg-order steps: one list of Clifford opcodes per maximal run,
    and one row (0, generator z_mask, 2 theta) per rotation.
    """
    steps: list = []
    run = None
    for gate in reversed(gates):
        ops, row = gate.step
        if row is not None:
            run = None
            steps.append(row)
        elif run is None:
            run = list(ops)
            steps.append(run)
        else:
            run += ops
    return steps


def _clifford_run(rows: list, ops: list) -> list:
    """Every (x_mask, z_mask, coeff) row through every gate of the run.

    The images g^dag P g of the letters I, X, Z, Y at a site: H swaps X and
    Z and negates Y; S maps X -> -Y, Y -> X; a Pauli opcode negates the
    letters that anticommute with it. CNOT adds x_c to x_t and z_t to z_c.
    A Clifford maps strings one to one, so nothing merges and a sign flip
    is exact.
    """
    out = []
    for x, z, a in rows:
        for code, m, m2 in ops:
            if code == _H:
                if (x ^ z) & m:
                    x ^= m
                    z ^= m
                elif x & m:
                    a = -a
            elif code == _S:
                if x & m:
                    if not z & m:
                        a = -a
                    z ^= m
            elif code == _CNOT:
                if x & m:
                    if z & m2:
                        if (not x & m2) == (not z & m):
                            a = -a
                        z ^= m
                    x ^= m2
                elif z & m2:
                    z ^= m
            elif code == _SWAP:
                both = m | m2
                t = x & both
                if t and t != both:
                    x ^= both
                t = z & both
                if t and t != both:
                    z ^= both
            elif (x & m2) ^ (z & m):  # _PAULI with masks (m, m2)
                a = -a
        out.append((x, z, a))
    return out


def _rotation(terms: dict, x_g: int, z_g: int, angle: float, prune_tol: float) -> dict:
    """exp(-i theta G) for the string G = (x_g, z_g), with angle = 2 theta.

    A term P that commutes with G is kept; an anticommuting P maps to
    cos(angle) P + sign sin(angle) R with G P = i^k R, where sign is -1
    exactly when the `pauli_mul` exponent k is 1 mod 4. R anticommutes with
    G too, so only split terms merge, each string with at most two
    contributions, whose float sum does not depend on their order: the
    merge needs no sort.
    """
    c2, s2 = math.cos(angle), math.sin(angle)
    out = {}
    split: dict = {}
    get = split.get
    k_g = (x_g & z_g).bit_count()
    for key, a in terms.items():
        x, z = key
        if ((x & z_g) ^ (z & x_g)).bit_count() & 1:
            split[key] = get(key, 0.0) + a * c2
            x_r, z_r = x ^ x_g, z ^ z_g
            b = a * s2
            k = k_g + (x & z).bit_count() + 2 * (z_g & x).bit_count() - (x_r & z_r).bit_count()
            if k & 3 == 1:
                b = -b
            split[x_r, z_r] = get((x_r, z_r), 0.0) + b
        else:
            out[key] = a
    for key, a in split.items():
        if abs(a) >= prune_tol:
            out[key] = a
    return out


def _propagate(operator: SparseOperator, gates: Sequence[Gate], prune_tol: float) -> SparseOperator:
    """The engine: U^dag O U = R^dag (C^dag O C) R, on raw masks.

    C is every Clifford gate, R = exp(-i theta_m Q_m) ... exp(-i theta_1 Q_1)
    and Q_k = +-E_k^dag P_k E_k, E_k the Clifford gates acting before
    rotation k. Walking the gates last first, each Clifford run conjugates
    only the (x_mask, z_mask, coeff) rows of the seed's terms and of the
    rotations passed so far, whose angle 2 theta_k takes the sign of Q_k:
    at most (seed terms + rotations) x Clifford gates single-string steps.
    Then the rotations, last first, act on the operator dict and prune it
    at `prune_tol`; input terms below `prune_tol` are dropped once, on entry.
    An exact zero is never kept, even at `prune_tol` = 0: the sign of a zero
    would depend on whether the Clifford gates came before or after it.
    """
    n = operator.n_qubits
    tol = max(prune_tol, math.ulp(0.0))
    rows = [(p.x_mask, p.z_mask, a) for p, a in operator.terms.items() if abs(a) >= tol]
    n_seed = len(rows)
    for step in _compile(gates):
        if type(step) is list:
            rows = _clifford_run(rows, step)
        else:
            rows.append(step)
    terms = {(x, z): a for x, z, a in rows[:n_seed]}
    for x_g, z_g, angle in rows[n_seed:]:
        terms = _rotation(terms, x_g, z_g, angle, tol)
    return SparseOperator(
        n, {PauliString(n, *key): a for key, a in terms.items()}, prune_tol=prune_tol
    )


def conjugate_gate(
    operator: SparseOperator, gate: Gate, *, prune_tol: float = PRUNE_TOL
) -> SparseOperator:
    """Return g^dag . O . g with real coefficients; result is pruned."""
    n = operator.n_qubits
    if any(s >= n for s in gate.sites):
        raise ValueError(f"gate {gate} out of range for {n} qubits")
    return _propagate(operator, (gate,), prune_tol)


def evolve_heisenberg(
    operator: SparseOperator, circuit: Circuit, *, prune_tol: float = PRUNE_TOL
) -> SparseOperator:
    """U^dag O U for the full circuit: conjugate gates in reverse list order.

    Bit for bit the same as conjugate_gate applied gate by gate.
    """
    if operator.n_qubits != circuit.n_qubits:
        raise ValueError("size mismatch")
    if not circuit.gates:
        return operator
    return _propagate(operator, circuit.gates, prune_tol)


def brickwork_circuit(n_qubits: int, layers: int, brick: Sequence[Gate]) -> Circuit:
    """Alternating even/odd nearest-neighbour layers with open boundaries.

    Even layers couple (0,1),(2,3),...; odd layers (1,2),(3,4),....
    `brick` is a gate template on abstract sites {0, 1}, instantiated on
    each coupled pair.
    """
    if n_qubits % 2 != 0:
        raise ValueError("brickwork needs an even qubit count")
    if layers < 0:
        raise ValueError("layer count must be non-negative")
    brick = tuple(brick)
    for g in brick:
        if any(s > 1 for s in g.sites):
            raise ValueError("brick template gates must act on sites 0 and 1")
    gates: list[Gate] = []
    for layer in range(layers):
        start = layer % 2
        for left in range(start, n_qubits - 1, 2):
            for g in brick:
                gates.append(Gate(g.kind, tuple(left + s for s in g.sites), g.theta))
    return Circuit(n_qubits, tuple(gates))


def mixing_depth(n_qubits: int) -> int:
    """Default depth 3 n^2 for the {H, S, CNOT} mixing ensemble."""
    return 3 * n_qubits * n_qubits


@functools.lru_cache(maxsize=16)
def _clifford_gate_table(n_qubits: int) -> tuple[Gate, ...]:
    """Interned {H, S, CNOT} gates: H on each site, S on each site, then
    CNOT on each ordered pair (c, t), c != t, at c (n - 1) + t - (t > c).
    """
    sites = range(n_qubits)
    return (
        tuple(Gate("H", (q,)) for q in sites)
        + tuple(Gate("S", (q,)) for q in sites)
        + tuple(Gate("CNOT", (c, t)) for c in sites for t in sites if t != c)
    )


def _clifford_gates(n_qubits: int, depth: int, seed: int) -> list[Gate]:
    """`depth` gates of the mixing ensemble from three vectorized draws:
    kind, site, and an ordered CNOT pair.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    rng = np.random.default_rng(seed)
    kind = rng.integers(3 if n_qubits >= 2 else 2, size=depth)
    site = rng.integers(n_qubits, size=depth)
    pair = rng.integers(max(n_qubits * (n_qubits - 1), 1), size=depth)
    index = np.where(kind == 2, 2 * n_qubits + pair, kind * n_qubits + site)
    table = _clifford_gate_table(n_qubits)
    return [table[i] for i in index.tolist()]


def random_clifford_circuit(
    n_qubits: int, depth: int | None = None, seed: int = 0
) -> Circuit:
    """Seeded circuit of uniform {H, S, CNOT} gates on random sites.

    Each gate is H or S on a uniform site, or CNOT on a uniform ordered
    pair of distinct sites, with equal odds of the three kinds (no CNOT on
    one qubit). This is a mixing ensemble, not exact uniform tableau
    sampling; the default depth 3 n^2 is enough for the ensemble averages
    used here.
    """
    if depth is None:
        depth = mixing_depth(n_qubits)
    return Circuit(n_qubits, tuple(_clifford_gates(n_qubits, depth, seed)))


def doped_circuit(
    n_qubits: int,
    tau: int,
    clifford_depth: int | None = None,
    seed: int = 0,
) -> Circuit:
    """Random Clifford blocks with one T gate between consecutive blocks.

    tau = 0 gives a single pure Clifford block. Block k is
    random_clifford_circuit(n_qubits, clifford_depth, seed_k) for a seed
    drawn from `seed`.
    """
    if tau < 0:
        raise ValueError("tau must be non-negative")
    if clifford_depth is None:
        clifford_depth = mixing_depth(n_qubits)
    rng = np.random.default_rng(seed)
    block_seeds = rng.integers(0, 2**63 - 1, size=tau + 1)
    t_sites = rng.integers(0, n_qubits, size=tau) if tau else []
    gates: list[Gate] = []
    for k in range(tau):
        gates += _clifford_gates(n_qubits, clifford_depth, int(block_seeds[k]))
        gates.append(Gate("T", (int(t_sites[k]),)))
    gates += _clifford_gates(n_qubits, clifford_depth, int(block_seeds[tau]))
    return Circuit(n_qubits, tuple(gates))
