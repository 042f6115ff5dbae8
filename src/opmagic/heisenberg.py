"""Exact Heisenberg conjugation of sparse operators and circuit builders.

Gates act on states in list order: for a circuit [g1, g2] the unitary is
U = g2 * g1. Evolving an operator computes U^dag O U, so gates are
conjugated in reverse list order.

Angle convention: RZ(theta) = exp(-i theta Z) and
RZZ(theta) = exp(-i theta Z x Z), so conjugation rotates coefficients by
2*theta and T == RZ(pi/8) exactly.

One engine, `_propagate`, serves `evolve_ensemble`, `evolve_heisenberg`
(its one-circuit case) and `conjugate_gate`. It works in the symplectic
form of Aaronson and Gottesman, on the circuit compiled to Pauli
rotations, in three steps. `_compile` moves every Clifford gate to the
front: it conjugates the seed's terms and the rotation generators, held
bit-sliced (one int per site for the X bits, one for the Z bits, bit r
for row r, and one int of sign bits), so each gate costs a few int
operations on all rows at once. The Clifford opcodes are H, S, CNOT and
SWAP, on site indices; every other Clifford kind, the Pauli gates
included, is a word in them. `_rotate` then applies the rotations to the
operator, held as canonically sorted uint64 words and float64
coefficients, and splits the rows that anticommute with each
generator; a rotation whose generator misses the rows' support commutes
with all of them and is skipped before any numpy call, so a local seed
pays only for the rotations in its light cone. These are the arrays a
`SparseOperator` holds: the engine reads the seed's rows as they are and
returns its final rows as the evolved operator, checked, pruned and
sorted, with no conversion. One loop, `_rotations`, holds the one
`_rotate` call: a batch of circuits goes through one call per rotation
index, each row keyed by its circuit, until it would start a step on
more than `_BATCH_ROWS` rows; it is then cut into its circuits, and each
goes through the same loop alone, unkeyed, for the rest of its
rotations. A batch of one circuit carries no key. The packers between
bit-sliced ints, bit matrices and words are those of `paulis`. Each gate
kind is one `_KINDS` row, and each `Gate` carries its compiled opcodes.
A new kind takes a row, a `dense.gate_matrix` case and a
`tests/conftest.py` entry.

`_compile` walks one flat list of opcodes per circuit, in walk order. A
circuit built from the gate table (`doped_circuit`,
`random_clifford_circuit`) carries its list from the build: one `take`
on the opcode array of `_gate_table`, which holds one opcode per gate
drawn so far. Any other circuit flattens its gates' steps once,
when it is evolved. The table's index space has n (n + 2) entries, but
only its int32 slot array spans it, 4 bytes an entry; its gates and
opcodes grow with the entries drawn.
"""
from __future__ import annotations

import functools
import itertools
import math
import re
import sys
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .paulis import (PRUNE_TOL, SparseOperator, as_integer, bits_of_ints, bits_of_xz,
                     ints_of_bits, json_fields, xz_of_bits)

# Opcodes of compiled gates, in dispatch order: the doped ensemble draws H,
# S and CNOT, and the XXZ brick holds an RZZ and a SWAP. An opcode is
# (code, first site, last site); (_ROT, sites, 2 theta) is a rotation about
# the Z string on its sites.
_H, _S, _CNOT, _SWAP, _ROT = range(5)

# Every gate kind: (site count, Clifford lowering, fixed angle). A Clifford
# kind lowers its first and last sites (q, q2) to opcodes in Heisenberg
# order, up to a global phase: Z = S S, Sdg = S S S, X = H Z H, Y ~ Z X and
# CZ = (I x H) CNOT (I x H). Any other kind rotates about the Z string on
# its sites, by its fixed angle or by theta.
_KINDS = {
    "H": (1, lambda q, q2: ((_H, q, q),), None),
    "S": (1, lambda q, q2: ((_S, q, q),), None),
    "Sdg": (1, lambda q, q2: ((_S, q, q),) * 3, None),
    "X": (1, lambda q, q2: ((_H, q, q), (_S, q, q), (_S, q, q), (_H, q, q)), None),
    "Y": (1, lambda q, q2: ((_S, q, q), (_S, q, q), (_H, q, q), (_S, q, q), (_S, q, q), (_H, q, q)), None),
    "Z": (1, lambda q, q2: ((_S, q, q),) * 2, None),
    "CNOT": (2, lambda q, q2: ((_CNOT, q, q2),), None),
    "CZ": (2, lambda q, q2: ((_H, q2, q2), (_CNOT, q, q2), (_H, q2, q2)), None),
    "SWAP": (2, lambda q, q2: ((_SWAP, q, q2),), None),
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
    its compiled form, a tuple of opcodes."""

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
        if lower is None:
            step = ((_ROT, self.sites, 2.0 * self.angle),)
        else:
            step = lower(self.sites[0], self.sites[-1])
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
        try:
            angle = None if theta is None else float(theta)
        except OverflowError:  # an int past the float range
            raise ValueError(f"gate theta {theta} is past the float range") from None
        return cls(kind, sites, angle)


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list; the first element acts first on states."""

    n_qubits: int
    gates: tuple[Gate, ...]
    # the opcode list of a table-built circuit, in walk order; see `_walk`
    _ops: list | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._hold(self.n_qubits, tuple(self.gates))
        n = self.n_qubits
        # one max over the distinct site tuples; the gate is looked up only to name it
        if max(map(max, {g.sites for g in self.gates}), default=-1) >= n:
            bad = next(g for g in self.gates if max(g.sites) >= n)
            raise ValueError(f"gate {bad} out of range for {n} qubits")

    def _hold(self, n_qubits: int, gates: tuple[Gate, ...]) -> "Circuit":
        n = as_integer(n_qubits, "qubit count n")
        if n <= 0:
            raise ValueError("n_qubits must be positive")
        if n > sys.maxsize:  # no sequence or shift can span it
            raise ValueError(f"qubit count n must be at most {sys.maxsize}, got {n}")
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "gates", gates)
        return self

    @classmethod
    def _of(cls, n_qubits: int, gates: tuple[Gate, ...], ops: list | None = None) -> "Circuit":
        """The circuit of a tuple of gates whose every site is below n_qubits.

        The qubit count is checked as by `Circuit(...)`, but the gates' sites
        are not: only a builder whose gates are in range by construction may
        call this, so that the result equals `Circuit(n_qubits, gates)`.
        `ops`, when given, is the gates' opcodes in walk order, exactly
        those that `_walk` would flatten.
        """
        circuit = cls.__new__(cls)._hold(n_qubits, gates)
        if ops is not None:
            object.__setattr__(circuit, "_ops", ops)
        return circuit

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

    @classmethod
    def from_text(cls, text: str) -> "Circuit":
        """Parse the line format: 'qubits N' then one gate per line, e.g. 'RZZ 0 1 pi/8'.

        The qubits line is optional and may appear once; without it, n is one
        past the highest site used."""
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
                if n_qubits is not None:
                    raise ValueError(f"second 'qubits' line {raw!r}")
                n_qubits = _int_field(parts[1], "qubit count", raw)
                continue
            kind = parts[0]
            if kind not in _KINDS:
                raise ValueError(f"unknown gate kind {kind!r} in line {raw!r}")
            n_sites = _KINDS[kind][0]
            sites = tuple(_int_field(p, "site", raw) for p in parts[1 : 1 + n_sites])
            rest = parts[1 + n_sites :]
            if len(rest) > 1:
                raise ValueError(f"unexpected tokens {rest[1:]} in line {raw!r}")
            theta = parse_angle(rest[0]) if rest else None
            gates.append(Gate(kind, sites, theta))
        if n_qubits is None:
            n_qubits = max((max(g.sites) + 1 for g in gates), default=0)
        return cls(n_qubits, tuple(gates))


def _int_field(token: str, field: str, raw: str) -> int:
    """An integer field of a text circuit line; a bad token names the field and line."""
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"{field} must be an integer, got {token!r} in line {raw!r}") from None


def _compile(xs: list, zs: list, rows: int, ops: list) -> tuple[int, list]:
    """Walk a circuit's opcodes, moving every Clifford gate to the front.

    `ops` is one flat list of (code, q, q2) opcodes in walk order, the
    gates last first and each gate's step in order (`_walk`), so the walk
    is one loop with one dispatch per opcode. The rows are bit-sliced: bit
    r of xs[q] and zs[q] is the letter at site q of row r. Rows
    0..rows-1 come in as the seed's terms; each rotation met
    appends one row, its Z-string generator, so every later Clifford gate
    (an earlier one in list order) conjugates it too. A Clifford gate costs
    a few int operations on all rows at once. Its images of the letters I,
    X, Z, Y at a site: H swaps X and Z and negates Y; S maps X -> -Y,
    Y -> X; CNOT adds x_c to x_t and z_t to z_c, and negates when
    x_c z_t (x_t + z_c + 1) is odd; SWAP exchanges two sites. xs and zs
    are updated in place. Returns the sign bits, bit r set when row r ends
    negated, and each rotation's 2 theta in walk order.
    """
    sign = 0
    angles = []
    for code, q, q2 in ops:
        if code == _H:
            sign ^= xs[q] & zs[q]
            xs[q], zs[q] = zs[q], xs[q]
        elif code == _S:
            sign ^= xs[q] & ~zs[q]
            zs[q] ^= xs[q]
        elif code == _CNOT:
            sign ^= xs[q] & zs[q2] & ~(xs[q2] ^ zs[q])
            xs[q2] ^= xs[q]
            zs[q] ^= zs[q2]
        elif code == _SWAP:
            xs[q], xs[q2] = xs[q2], xs[q]
            zs[q], zs[q2] = zs[q2], zs[q]
        else:  # _ROT: q holds the sites, q2 the angle
            for site in q:
                zs[site] |= 1 << rows
            rows += 1
            angles.append(q2)
    return sign, angles


def _rotate(xz, coeff, g, cos, sin, tol):
    """exp(-i theta G) on rows in canonical order, for the string G with
    words g and cos(2 theta), sin(2 theta) in lists cos and sin.

    A row P that commutes with G is kept; an anticommuting P maps to
    cos(2 theta) P + sign sin(2 theta) R with G P = i^k R, where sign is -1
    exactly when k is 1 mod 4, with k = x_G.z_G + x_P.z_P + 2 z_G.x_P -
    x_R.z_R (mod 4), each dot the popcount of an AND. R anticommutes with
    G too, so only split rows merge, each string with at most two
    contributions. The merge sorts the rows into canonical order again,
    where a string's two rows are adjacent, adds the second coefficient of
    each pair into the first (the float sum of two values does not depend
    on their order), and keeps the first row of every string at or above
    `tol`. Columns are gathered with `take`.

    One operator: xz has 2w rows, g is one (2w, 1) column, and cos and sin
    hold one entry. A batch of operators: xz has one more row, the key, that
    holds each row's index in the batch; g holds one column per operator,
    with a zero key row, and cos and sin one entry per operator. Each row
    meets its own operator's generator. The key is the last, so most
    significant, sort key and part of every duplicate test, so rows of
    different operators never merge. A zero column commutes with every
    row, so that operator's rows come back unchanged.
    """
    w = len(xz) >> 1
    batch = len(xz) & 1
    if batch:  # each row takes its own operator's generator, cos and sin
        key = xz[2 * w]
        g, cos, sin = g.take(key, axis=1), np.take(cos, key), np.take(sin, key)
    else:
        cos, sin = cos[0], sin[0]
    x_g, z_g = g[:w], g[w : 2 * w]
    # the symplectic form: the parity of x.z_g + z.x_g over every word
    hit = (np.bitwise_count(np.bitwise_xor.reduce((xz[:w] & z_g) ^ (xz[w : 2 * w] & x_g))) & 1).view(bool)
    split = hit.nonzero()[0]
    if not split.size:
        return xz, coeff
    xz_a, a = xz.take(split, axis=1), coeff.take(split)
    if batch:
        g, sin = g.take(split, axis=1), sin.take(split)
        x_g, z_g = g[:w], g[w : 2 * w]
    r = xz_a ^ g
    # popcounts per word in uint8, whose wrap-around keeps k mod 4
    k = np.bitwise_count(xz_a[:w] & xz_a[w : 2 * w]) + 2 * np.bitwise_count(z_g & xz_a[:w])
    k = (k - np.bitwise_count(r[:w] & r[w : 2 * w])).sum(axis=0, dtype=np.uint8)
    k += np.bitwise_count(x_g & z_g).sum(axis=0, dtype=np.uint8)
    b = a * sin
    b[k & 3 == 1] *= -1.0
    xz = np.concatenate((xz, r), axis=1)
    coeff = np.concatenate((np.where(hit, coeff * cos, coeff), b))
    order = np.lexsort(xz)
    xz, coeff = xz.take(order, axis=1), coeff.take(order)
    # repeat[i]: row i + 1 is the second contribution to row i's string
    repeat = (xz[:, 1:] == xz[:, :-1]).all(axis=0)
    pair = repeat.nonzero()[0]
    if pair.size:
        coeff[pair] += coeff[pair + 1]
    keep = np.abs(coeff) >= tol
    keep[1:] &= ~repeat
    keep = keep.nonzero()[0]
    return xz.take(keep, axis=1), coeff.take(keep)


# Circuits that `evolve_ensemble` evolves together. A batch's kernel calls
# take the numpy overhead of small operators off each circuit, and the gain
# has saturated at 8; a fixed batch keeps memory flat in the ensemble size.
# Once a batch holds more than _BATCH_ROWS rows, its circuits go on one at a
# time: large operators gain nothing from a shared call, and a batch of them
# would hold _BATCH operators and their per-row gathers at once.
_BATCH = 16
_BATCH_ROWS = 4096


def _propagate(
    operator: SparseOperator, circuits: Iterable[list], prune_tol: float
) -> Iterator[SparseOperator]:
    """The engine: U^dag O U = R^dag (C^dag O C) R, for each circuit's
    opcode list (`_walk`).

    C is every Clifford gate, R = exp(-i theta_m Q_m) ... exp(-i theta_1 Q_1)
    and Q_k = +-E_k^dag P_k E_k, E_k the Clifford gates acting before
    rotation k. `_compile` conjugates the seed's terms and the generators,
    bit-sliced, so its cost does not grow with the evolved operator; the
    sign of Q_k moves onto its angle 2 theta_k. Circuits are compiled one by
    one as they arrive and evolved `_BATCH` at a time: each circuit's
    compiled ints are unpacked once, into one bit row per seed term and per
    generator, and the batch stacks these rows, circuit after circuit. Each
    circuit's conjugated seed is sorted into canonical order, and
    `_rotations` applies every circuit's plan, in walk order, pruning at
    `prune_tol`. Input terms below `prune_tol` are dropped once, on entry.

    A circuit's plan maps k to the row of generator Q_k and its signed angle,
    for the rotations that can change its rows. Plans read one layout, the
    int x | z << n of each stacked row. One int holds supersets sx and sz of
    the OR of the rows' x masks and of their z masks, starting from the
    conjugated seed's exact ORs: the OR of its rows' ints, with the x and z
    halves swapped once. Rotation k is left out of the plan when
    x_k & sz and z_k & sx are both 0: the symplectic product with every row
    is then 0, and the rows would come back unchanged. After a rotation that
    stays in, sx |= x_k and sz |= z_k: a split row is P XOR G_k, and pruning
    only removes rows. An exact zero is never kept, even at `prune_tol` = 0:
    the sign of a zero would depend on whether the Clifford gates came
    before or after it.

    The operator is the `SparseOperator`'s own float64 coeff array and
    (2w, rows) uint64 array xz, w = ceil(n / 64): the words of each row's
    x_mask, lowest first, then those of its z_mask. Word-major rows keep
    every per-row operation on contiguous arrays, and every column gather
    is a `take`. A batch of more than one circuit adds a key row, each row's
    circuit, and a zero last column to the words. The rows come out checked,
    pruned and sorted, and are the returned operators. The seed's words
    become bit-sliced ints, and the compiled ints become words, through the
    packers of `paulis`.
    """
    n = operator.n_qubits
    tol = max(prune_tol, math.ulp(0.0))
    keep = (np.abs(operator.coeff) >= tol).nonzero()[0]
    seeds, seed_coeff = keep.size, operator.coeff.take(keep)
    seed_xs, seed_zs = (ints_of_bits(bits.T) for bits in bits_of_xz(operator.xz.take(keep, axis=1), n))
    low = (1 << n) - 1
    circuits = iter(circuits)
    while batch := [
        (xs, zs, *_compile(xs, zs, seeds, ops))
        for ops in itertools.islice(circuits, _BATCH)
        for xs, zs in [(seed_xs[:], seed_zs[:])]
    ]:
        # each circuit's rows, unpacked once and stacked from row firsts[c]:
        # row r's x bits, then its z bits, then its sign bit
        sizes = [seeds + len(angles) for *_, angles in batch]
        bits = np.hstack([bits_of_ints(cx + cz + [sign], size) for (cx, cz, sign, _), size in zip(batch, sizes)]).T
        firsts = [*itertools.accumulate(sizes[:-1], initial=0)]
        flip = bits[:, 2 * n] == 1
        # A generator is the int x_g | z_g << n, and support = sz | sx << n:
        # g & support is 0 exactly when x_g & sz and z_g & sx are
        gens = ints_of_bits(bits[:, : 2 * n])
        plans = []
        for first, (*_, angles) in zip(firsts, batch):
            support = functools.reduce(int.__or__, gens[first : first + seeds], 0)
            support = support >> n | (support & low) << n
            plans.append(plan := {})
            for k, r in enumerate(range(first + seeds, first + seeds + len(angles))):
                if gens[r] & support:
                    support |= gens[r] >> n | (gens[r] & low) << n
                    plan[k] = r, -angles[k] if flip[r] else angles[k]
        words = xz_of_bits(bits[:, :n], bits[:, n : 2 * n])
        seed_cols = (np.array(firsts)[:, None] + np.arange(seeds)).ravel()
        xz, coeff = words.take(seed_cols, axis=1), np.tile(seed_coeff, len(batch))
        coeff[flip[seed_cols]] *= -1.0
        if len(batch) > 1:  # the key row, and a zero last column for a circuit without rotation k
            words = np.pad(words, ((0, 1), (0, 1)))
            xz = np.vstack((xz, np.arange(len(batch), dtype=np.uint64).repeat(seeds)))
        order = np.lexsort(xz)
        evolved = _rotations(xz.take(order, axis=1), coeff.take(order), words, plans, tol)
        for xz, coeff in evolved:
            yield SparseOperator._of(n, xz, coeff)


def _rotations(xz, coeff, words, plans, tol):
    """Apply each circuit's plan to its rows, and yield each circuit's rows,
    in order, without the key row.

    For each k in any plan, one `_rotate` call gives every circuit's rows
    its rotation k; a circuit whose plan has no k meets the zero last column
    of `words`. Before a step that would start on more than `_BATCH_ROWS`
    rows, a batch of several circuits is cut into its circuits, and each
    takes the rest of its plan (from that step on) through this loop again,
    alone and unkeyed; they are evolved and yielded one at a time.
    """
    keyed = len(plans) > 1
    for k in sorted(set().union(*plans)):
        if keyed and coeff.size > _BATCH_ROWS:
            # `next`, not a loop name, hands each circuit its rows, so they are freed at its first rotation
            parts = _by_circuit(xz, coeff, len(plans))
            for plan in plans:
                yield from _rotations(*next(parts), words, [{j: s for j, s in plan.items() if j >= k}], tol)
            return
        cols, cos, sin = [-1] * len(plans), [1.0] * len(plans), [0.0] * len(plans)
        for c, plan in enumerate(plans):
            if k in plan:
                cols[c], angle = plan[k]
                cos[c], sin[c] = math.cos(angle), math.sin(angle)
        # a circuit cut from its batch has no key row, and takes none from words
        xz, coeff = _rotate(xz, coeff, words[: len(xz)].take(cols, axis=1), cos, sin, tol)
    yield from _by_circuit(xz, coeff, len(plans)) if keyed else [(xz, coeff)]


def _by_circuit(xz, coeff, count):
    """The rows of a keyed batch of `count` circuits, one circuit at a
    time, without the key row: the key is the most significant sort key,
    so each circuit's rows are one run, found by one `searchsorted`."""
    bounds = np.searchsorted(xz[-1], np.arange(count + 1, dtype=np.uint64)).tolist()
    for lo, hi in itertools.pairwise(bounds):
        yield xz[:-1, lo:hi].copy(), coeff[lo:hi].copy()


def conjugate_gate(
    operator: SparseOperator, gate: Gate, *, prune_tol: float = PRUNE_TOL
) -> SparseOperator:
    """Return g^dag . O . g with real coefficients; result is pruned."""
    return evolve_heisenberg(operator, Circuit(operator.n_qubits, (gate,)), prune_tol=prune_tol)


def evolve_heisenberg(
    operator: SparseOperator, circuit: Circuit, *, prune_tol: float = PRUNE_TOL
) -> SparseOperator:
    """U^dag O U for the full circuit: conjugate gates in reverse list order.

    Bit for bit the same as conjugate_gate applied gate by gate. This is the
    one-circuit case of `evolve_ensemble`.
    """
    return next(_propagate(operator, (_walk(operator.n_qubits, circuit),), prune_tol))


def evolve_ensemble(
    operator: SparseOperator, circuits: Iterable[Circuit], *, prune_tol: float = PRUNE_TOL
) -> Iterator[SparseOperator]:
    """U^dag O U for each circuit, in order: item i is bit for bit
    `evolve_heisenberg(operator, circuits[i])`.

    Circuits are taken one at a time from any iterable and evolved in
    batches of a fixed size, so a lazy iterable keeps memory flat however
    many circuits it yields.
    """
    return _propagate(operator, (_walk(operator.n_qubits, c) for c in circuits), prune_tol)


def _walk(n_qubits: int, circuit: Circuit) -> list:
    """The circuit's opcodes in walk order: the gates last first, each
    gate's step in order. A table-built circuit carries this list; any
    other is flattened here, once per evolution."""
    if circuit.n_qubits != n_qubits:
        raise ValueError("size mismatch")
    if circuit._ops is not None:
        return circuit._ops
    return [op for gate in reversed(circuit.gates) for op in gate.step]


def brickwork_circuit(n_qubits: int, layers: int, brick: Sequence[Gate]) -> Circuit:
    """Alternating even/odd nearest-neighbour layers with open boundaries.

    Even layers couple (0,1),(2,3),...; odd layers (1,2),(3,4),....
    `brick` is a gate template on abstract sites {0, 1}, instantiated on
    each coupled pair, so every site is below n_qubits. The two layers are
    built once and shared by every layer of their parity; a `Gate` is
    immutable.
    """
    if n_qubits % 2 != 0:
        raise ValueError("brickwork needs an even qubit count")
    if layers < 0:
        raise ValueError("layer count must be non-negative")
    brick = tuple(brick)
    for g in brick:
        if any(s > 1 for s in g.sites):
            raise ValueError("brick template gates must act on sites 0 and 1")
    even, odd = (
        tuple(
            Gate(g.kind, tuple(left + s for s in g.sites), g.theta)
            for left in range(start, n_qubits - 1, 2)
            for g in brick
        )
        for start in (0, 1)
    )
    return Circuit._of(n_qubits, (even + odd) * (layers // 2) + even * (layers % 2))


def mixing_depth(n_qubits: int) -> int:
    """Default depth 3 n^2 for the {H, S, CNOT} mixing ensemble."""
    return 3 * n_qubits * n_qubits


class _GateTable:
    """The interned gates of the doped ensemble on n_qubits, made on first
    draw. Its index space: H on each site q at q, S at n + q, CNOT on each
    ordered pair (c, t), c != t, at 2 n + c (n - 1) + t - (t > c), then T
    at n (n + 1) + q, n (n + 2) entries in all. `slot[i]` is 0 until entry
    i is first drawn, and from then on its place in `gates`, an object
    array of the `Gate`s drawn so far, and in `ops`, their opcodes: each
    gate of the table lowers to exactly one. Place 0 stays empty, so a
    zeroed slot array marks every entry undrawn. Only the int32 slot array
    spans the index space, 4 bytes an entry; `gates` and `ops` grow, by
    doubling, with the entries drawn. `_gate_table(n)` is the table of
    width n, kept for the 16 widths used last.
    """

    __slots__ = ("n", "slot", "gates", "ops", "size")

    def __init__(self, n_qubits: int) -> None:
        self.n = n_qubits
        self.slot = np.zeros(n_qubits * (n_qubits + 2), dtype=np.int32)
        self.gates = np.empty(1, dtype=object)
        self.ops = np.empty(1, dtype=object)
        self.size = 1

    def gate(self, i: int) -> Gate:
        """The gate of entry i."""
        n = self.n
        if i < 2 * n:
            return Gate("S" if i >= n else "H", (i % n,))
        if i >= n * (n + 1):
            return Gate("T", (i - n * (n + 1),))
        c, t = divmod(i - 2 * n, n - 1)
        return Gate("CNOT", (c, t + (t >= c)))

    def circuit(self, index: np.ndarray) -> Circuit:
        """The circuit of the entries `index`, which are in range by
        construction, and its opcode list: one `take` on `gates`, and one on
        `ops` in reverse."""
        slots = self.slot.take(index)
        if not slots.all():
            self._make(sorted(set(index[slots == 0].tolist())))
            slots = self.slot.take(index)
        return Circuit._of(self.n, tuple(self.gates.take(slots).tolist()), self.ops.take(slots[::-1]).tolist())

    def _make(self, new: list) -> None:
        """Make the gates of the entries `new`, drawn for the first time."""
        start, self.size = self.size, self.size + len(new)
        if self.size > self.gates.size:
            grow = np.empty(max(self.size, 2 * self.gates.size) - self.gates.size, dtype=object)
            self.gates, self.ops = np.concatenate((self.gates, grow)), np.concatenate((self.ops, grow))
        for place, i in enumerate(new, start):
            gate = self.gate(i)
            self.gates[place], self.ops[place] = gate, gate.step[0]
        self.slot[new] = np.arange(start, self.size, dtype=np.int32)


_gate_table = functools.lru_cache(maxsize=16)(_GateTable)


def _block_circuit(n_qubits: int, depth: int | None, seeds: Sequence[int], t_sites: Sequence[int]) -> Circuit:
    """Mixing blocks of `depth` gates, by default `mixing_depth(n_qubits)`,
    block k drawn from `seeds[k]` and followed by T on `t_sites[k]`; there
    is one T site fewer than seeds.

    Each block's generator makes three vectorized draws, kind, site and an
    ordered CNOT pair, into one (3, blocks, depth + 1) array, and one
    `where` maps every draw to its `_gate_table` entry: kind n + site for H
    and S, 2 n + pair for CNOT. Column `depth` holds the T gate after each
    block as kind 0 at site n (n + 1) + q, T's entry; the last block's
    column is dropped.
    """
    default = depth is None
    depth = mixing_depth(n_qubits) if default else as_integer(depth, "Clifford depth")
    limit = sys.maxsize // (24 * len(seeds))  # the (3, blocks, depth + 1) int64 draws must fit one array
    if not 1 <= depth < limit:
        given = f"the default 3 n^2 = {depth} for n = {n_qubits}" if default else depth
        raise ValueError(f"Clifford depth must be in 1..{limit - 1} for {len(seeds)} blocks, got {given}")
    n = n_qubits
    draws = np.zeros((3, len(seeds), depth + 1), dtype=np.int64)
    for block, seed in enumerate(seeds):
        rng = np.random.Generator(np.random.PCG64(seed))  # default_rng(seed), without its dispatch
        draws[0, block, :depth] = rng.integers(3 if n >= 2 else 2, size=depth)
        draws[1, block, :depth] = rng.integers(n, size=depth)
        draws[2, block, :depth] = rng.integers(max(n * (n - 1), 1), size=depth)
    draws[1, :-1, depth] = t_sites
    draws[1, :-1, depth] += n * (n + 1)
    kind, site, pair = draws
    return _gate_table(n).circuit(np.where(kind == 2, 2 * n + pair, kind * n + site).ravel()[:-1])


def _qubit_count(n_qubits: int) -> int:
    n = as_integer(n_qubits, "qubit count n")
    if n < 1:
        raise ValueError(f"qubit count n must be positive, got {n}")
    if n * (n + 2) > sys.maxsize // 4:  # `_gate_table`'s int32 slots must fit one array
        raise ValueError(f"qubit count n must be at most {math.isqrt(sys.maxsize // 4 + 1) - 1}")
    return n


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
    return _block_circuit(_qubit_count(n_qubits), depth, [seed], ())


def doped_circuit(
    n_qubits: int,
    tau: int,
    clifford_depth: int | None = None,
    seed: int = 0,
) -> Circuit:
    """Random Clifford blocks with one T gate between consecutive blocks.

    tau = 0 gives a single pure Clifford block. Block k is
    random_clifford_circuit(n_qubits, clifford_depth, seed_k) for a seed
    drawn from `seed`, so every seed names the same gates as building
    the blocks one by one; all blocks are drawn into one array and mapped
    through the table once (`_block_circuit`).
    """
    n = _qubit_count(n_qubits)
    tau = as_integer(tau, "tau")
    if not 0 <= tau < sys.maxsize // 8:  # one int64 seed per block must fit one numpy array
        raise ValueError(f"tau must be an integer in 0..{sys.maxsize // 8 - 1}, got {tau}")
    rng = np.random.default_rng(seed)
    block_seeds = rng.integers(0, 2**63 - 1, size=tau + 1)
    t_sites = rng.integers(0, n, size=tau)
    return _block_circuit(n, clifford_depth, block_seeds.tolist(), t_sites)
