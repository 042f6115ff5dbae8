"""Exact Heisenberg conjugation of sparse operators and circuit builders.

Gates act on states in list order: for a circuit [g1, g2] the unitary is
U = g2 * g1. Evolving an operator computes U^dag O U, so gates are
conjugated in reverse list order.

Angle convention: RZ(theta) = exp(-i theta Z) and
RZZ(theta) = exp(-i theta Z x Z), so conjugation rotates coefficients by
2*theta and T == RZ(pi/8) exactly.

One kernel, `_propagate`, serves `evolve_heisenberg` and `conjugate_gate`.
It works on raw (x_mask, z_mask) -> coeff dicts in the symplectic form of
Aaronson and Gottesman: each maximal run of Clifford gates is compiled to
opcodes and applied to one term at a time, and each rotation splits the
terms that anticommute with its generator.
"""
from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .paulis import PRUNE_TOL, PauliString, SparseOperator

CLIFFORD_KINDS = frozenset({"H", "S", "Sdg", "X", "Y", "Z", "CNOT", "CZ", "SWAP"})
ROTATION_KINDS = frozenset({"T", "Tdg", "RZ", "RZZ"})
GATE_KINDS = CLIFFORD_KINDS | ROTATION_KINDS
_TWO_SITE = frozenset({"CNOT", "CZ", "SWAP", "RZZ"})
_FIXED_ANGLE = {"T": math.pi / 8, "Tdg": -math.pi / 8}

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
    """One gate: kind, site tuple, and an angle for RZ/RZZ only."""

    kind: str
    sites: tuple[int, ...]
    theta: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        object.__setattr__(self, "sites", tuple(self.sites))
        want = 2 if self.kind in _TWO_SITE else 1
        if len(self.sites) != want:
            raise ValueError(f"{self.kind} takes {want} site(s), got {self.sites}")
        if len(set(self.sites)) != len(self.sites):
            raise ValueError("gate sites must be distinct")
        if any(s < 0 for s in self.sites):
            raise ValueError("site indices must be non-negative")
        if self.kind in ("RZ", "RZZ"):
            if self.theta is None:
                raise ValueError(f"{self.kind} needs an angle")
            if not math.isfinite(self.theta):
                raise ValueError(f"{self.kind} angle must be finite, got {self.theta!r}")
        elif self.theta is not None:
            raise ValueError(f"{self.kind} takes no angle")

    @property
    def angle(self) -> float:
        """Rotation angle, with T/Tdg pinned to +-pi/8."""
        if self.kind in _FIXED_ANGLE:
            return _FIXED_ANGLE[self.kind]
        if self.theta is None:
            raise ValueError(f"{self.kind} has no angle")
        return self.theta

    def to_json_dict(self) -> dict:
        d: dict = {"kind": self.kind, "sites": list(self.sites)}
        if self.theta is not None:
            d["theta"] = self.theta
        return d

    @classmethod
    def from_json_dict(cls, data: dict) -> "Gate":
        theta = data.get("theta")
        return cls(data["kind"], tuple(data["sites"]), None if theta is None else float(theta))


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list; the first element acts first on states."""

    n_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        if self.n_qubits <= 0:
            raise ValueError("n_qubits must be positive")
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if any(s >= self.n_qubits for s in g.sites):
                raise ValueError(f"gate {g} out of range for {self.n_qubits} qubits")

    def __len__(self) -> int:
        return len(self.gates)

    def __add__(self, other: "Circuit") -> "Circuit":
        if other.n_qubits != self.n_qubits:
            raise ValueError("size mismatch")
        return Circuit(self.n_qubits, self.gates + other.gates)

    def to_json_dict(self) -> dict:
        return {"n": self.n_qubits, "gates": [g.to_json_dict() for g in self.gates]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Circuit":
        return cls(int(data["n"]), tuple(Gate.from_json_dict(g) for g in data["gates"]))

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
            if kind not in GATE_KINDS:
                raise ValueError(f"unknown gate kind {kind!r} in line {raw!r}")
            n_sites = 2 if kind in _TWO_SITE else 1
            sites = tuple(int(p) for p in parts[1 : 1 + n_sites])
            rest = parts[1 + n_sites :]
            if len(rest) > 1:
                raise ValueError(f"unexpected tokens {rest[1:]} in line {raw!r}")
            theta = parse_angle(rest[0]) if rest else None
            gates.append(Gate(kind, sites, theta))
        if n_qubits is None:
            top = max((max(g.sites) for g in gates), default=-1)
            n_qubits = top + 1
        return cls(n_qubits, tuple(gates))


# Opcodes of compiled Clifford gates, in dispatch order: the doped ensemble
# draws H, S and CNOT, and the XXZ brick holds a SWAP.
_H, _S, _CNOT, _SWAP, _CZ, _SDG, _X, _Y, _Z = range(9)
_OPCODES = {
    "H": _H, "S": _S, "CNOT": _CNOT, "SWAP": _SWAP, "CZ": _CZ, "Sdg": _SDG, "X": _X, "Y": _Y, "Z": _Z
}


def _compile(gates: Sequence[Gate]) -> list:
    """Heisenberg-order steps: one list of Clifford opcodes per maximal run,
    and one (generator z_mask, cos 2 theta, sin 2 theta) tuple per rotation.

    An opcode is (code, 1 << first site, 1 << last site).
    """
    steps: list = []
    run = None
    for gate in reversed(gates):
        sites = gate.sites
        code = _OPCODES.get(gate.kind)
        if code is not None:
            if run is None:
                run = []
                steps.append(run)
            run.append((code, 1 << sites[0], 1 << sites[-1]))
        else:
            run = None
            angle = 2.0 * gate.angle
            z_gen = sum(1 << s for s in sites)  # sites are distinct
            steps.append((z_gen, math.cos(angle), math.sin(angle)))
    return steps


def _clifford_run(terms: dict, ops: list, prune_tol: float) -> dict:
    """Every term at or above `prune_tol` through every gate of the run.

    The images g^dag P g of the letters I, X, Z, Y at a site: H swaps X and
    Z and negates Y; S maps X -> -Y, Y -> X; Sdg maps X -> Y, Y -> -X; a
    Pauli gate negates the two letters it anticommutes with. CNOT adds x_c
    to x_t and z_t to z_c; CZ adds x_b to z_a and x_a to z_b. A
    Clifford maps strings one to one, so nothing merges and a sign flip is
    exact; magnitudes are kept, so pruning once per run equals pruning
    after every gate.
    """
    out = {}
    for (x, z), a in terms.items():
        if not abs(a) >= prune_tol:
            continue
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
            elif code == _CZ:
                if x & m:
                    if x & m2 and (not z & m) != (not z & m2):
                        a = -a
                    z ^= m2
                if x & m2:
                    z ^= m
            elif code == _SDG:
                if x & m:
                    if z & m:
                        a = -a
                    z ^= m
            elif code == _X:
                if z & m:
                    a = -a
            elif code == _Y:
                if (x ^ z) & m:
                    a = -a
            elif x & m:  # _Z
                a = -a
        out[x, z] = a
    return out


def _rotation(terms: dict, z_gen: int, c2: float, s2: float, prune_tol: float) -> dict:
    """exp(-i theta G) for a Z-string G, with c2, s2 = cos, sin of 2 theta.

    A term P that commutes with G is kept. An anticommuting P maps to
    c2 P + sign s2 R with G P = i^k R; sign = Re(i^(k+1)), which is -1
    exactly when k = |x & z_G| + 2 |x & z & z_G| is 1 mod 4. R anticommutes
    with G too, so only split terms merge, and each of their strings gets
    at most two contributions (P's own and that of G P). Float addition of
    two numbers does not depend on their order, so the merge needs no sort.
    """
    out = {}
    split: dict = {}
    get = split.get
    for key, a in terms.items():
        x = key[0]
        k = (x & z_gen).bit_count()
        if k & 1:
            z = key[1]
            split[key] = get(key, 0.0) + a * c2
            r = (x, z ^ z_gen)
            b = a * s2
            if (k + 2 * (x & z & z_gen).bit_count()) & 3 == 1:
                b = -b
            split[r] = get(r, 0.0) + b
        elif abs(a) >= prune_tol:
            out[key] = a
    for key, a in split.items():
        if abs(a) >= prune_tol:
            out[key] = a
    return out


def _propagate(operator: SparseOperator, gates: Sequence[Gate], prune_tol: float) -> SparseOperator:
    """The engine: g^dag O g for every gate, last gate first, on raw masks.

    Works on a (x_mask, z_mask) -> coeff dict. PauliString objects are made
    once, for the result, reusing the input's strings that survive. Every
    step prunes its output at `prune_tol`.
    """
    n = operator.n_qubits
    strings = {(p.x_mask, p.z_mask): p for p in operator.terms}
    terms = {key: operator.terms[p] for key, p in strings.items()}
    for step in _compile(gates):
        if type(step) is list:
            terms = _clifford_run(terms, step, prune_tol)
        else:
            terms = _rotation(terms, *step, prune_tol)
    get = strings.get
    return SparseOperator(
        n, {get(key) or PauliString(n, *key): a for key, a in terms.items()}, prune_tol=prune_tol
    )


def conjugate_gate(
    operator: SparseOperator, gate: Gate, *, prune_tol: float = PRUNE_TOL
) -> SparseOperator:
    """Return g^dag . O . g with real coefficients; result is pruned.

    Clifford kinds permute and sign-flip strings one-for-one. A rotation
    exp(-i theta G) leaves commuting terms alone and maps an anticommuting
    term P to cos(2 theta) P + s sin(2 theta) R with (i^k, R) = G*P and
    s = Re(i * i^k), so coefficients stay real by construction.
    """
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
