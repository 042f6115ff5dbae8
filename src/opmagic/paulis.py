"""Symplectic Pauli strings and sparse Hermitian operators in the Pauli basis.

A Pauli string on ``n`` qubits is a pair of bitmasks ``(x_mask, z_mask)``.
Bit ``i`` of the pair selects the letter at site ``i``::

    (0, 0) = I    (1, 0) = X    (0, 1) = Z    (1, 1) = Y

The represented matrix is the plain tensor product of the Hermitian
single-site Paulis, carrying no phase of its own. Products of strings pick
up powers of ``i``; those phases are never stored on the string but folded
into term coefficients by the conjugation engine, so Hermitian operators
always have real coefficients and the squared coefficients form a
probability vector.

Canonical order is lexicographic on ``(z_mask, x_mask)``. A SparseOperator
holds its terms in that order from construction, so its probability
vector, l2 weight and JSON follow it, and truncation, a stable sort on
|a|, breaks ties by it: reruns are bit-identical.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Mapping

# Coefficients below this are treated as exact zeros (e.g. cos(pi/2) from a
# rotation at a Clifford point), so rank-based quantities stay meaningful.
PRUNE_TOL = 1e-14

_LETTERS = "IXZY"  # indexed by the digit 2*z_bit + x_bit
# str.translate tables between letters and bits, for whole labels at once
_X_BITS = str.maketrans(_LETTERS, "0101")
_Z_BITS = str.maketrans(_LETTERS, "0011")
_DIGIT_LETTERS = str.maketrans("0123", _LETTERS)
_DROP_LETTERS = str.maketrans("", "", _LETTERS)
_AXIS_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_I_POWERS = (1, 1j, -1, -1j)


@dataclass(frozen=True, slots=True)
class PauliString:
    """Hermitian N-qubit Pauli string in symplectic (x_mask, z_mask) form."""

    n_qubits: int
    x_mask: int
    z_mask: int

    def __post_init__(self) -> None:
        if self.n_qubits <= 0:
            raise ValueError("n_qubits must be positive")
        full = (1 << self.n_qubits) - 1
        if not (0 <= self.x_mask <= full and 0 <= self.z_mask <= full):
            raise ValueError("bitmask out of range for n_qubits")

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliString":
        return cls(n_qubits, 0, 0)

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Parse 'IXZY...' with site 0 as the leftmost character."""
        label = label.strip()
        if not label or label.translate(_DROP_LETTERS):
            raise ValueError(f"invalid Pauli label {label!r}")
        bits = label[::-1]  # site 0 is the lowest bit
        return cls(len(label), int(bits.translate(_X_BITS), 2), int(bits.translate(_Z_BITS), 2))

    def letter(self, site: int) -> str:
        if not 0 <= site < self.n_qubits:
            raise ValueError(f"site {site} out of range")
        return _LETTERS[2 * ((self.z_mask >> site) & 1) + ((self.x_mask >> site) & 1)]

    def label(self) -> str:
        # binary digits read as hex: one bit per hex digit, so each site's digit is 2 z + x
        digits = int(format(self.x_mask, "b"), 16) + 2 * int(format(self.z_mask, "b"), 16)
        return format(digits, f"0{self.n_qubits}x").translate(_DIGIT_LETTERS)[::-1]

    @property
    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0

    @property
    def weight(self) -> int:
        return (self.x_mask | self.z_mask).bit_count()

    def support(self) -> frozenset[int]:
        both = self.x_mask | self.z_mask
        return frozenset(s for s in range(self.n_qubits) if (both >> s) & 1)

    def __lt__(self, other: "PauliString") -> bool:
        return (self.n_qubits, self.z_mask, self.x_mask) < (
            other.n_qubits,
            other.z_mask,
            other.x_mask,
        )

    def __str__(self) -> str:
        return self.label()

    def __repr__(self) -> str:
        return f"PauliString({self.label()!r})"


# The slot setters of a PauliString, to make one from masks already checked
_PAULI_SLOTS = (PauliString.n_qubits.__set__, PauliString.x_mask.__set__, PauliString.z_mask.__set__)


def single_site_pauli(site: int, axis: str, n_qubits: int) -> PauliString:
    """Identity everywhere except `axis` (X, Y or Z) at `site`."""
    if not 0 <= site < n_qubits:
        raise ValueError(f"site {site} out of range for {n_qubits} qubits")
    if axis not in ("X", "Y", "Z"):
        raise ValueError(f"axis must be X, Y or Z, got {axis!r}")
    xb, zb = _AXIS_BITS[axis]
    return PauliString(n_qubits, xb << site, zb << site)


def pauli_mul(p: PauliString, q: PauliString) -> tuple[complex, PauliString]:
    """Matrix product p*q as (phase, string) with phase in {1, -1, i, -i}.

    Writing each Hermitian string as i^(x.z) X^x Z^z gives the phase
    exponent x_p.z_p + x_q.z_q + 2 z_p.x_q - x_r.z_r (mod 4) where the dot
    is a popcount of the AND.
    """
    if p.n_qubits != q.n_qubits:
        raise ValueError("size mismatch")
    x = p.x_mask ^ q.x_mask
    z = p.z_mask ^ q.z_mask
    k = (
        (p.x_mask & p.z_mask).bit_count()
        + (q.x_mask & q.z_mask).bit_count()
        + 2 * (p.z_mask & q.x_mask).bit_count()
        - (x & z).bit_count()
    ) % 4
    return _I_POWERS[k], PauliString(p.n_qubits, x, z)


def commutes(p: PauliString, q: PauliString) -> bool:
    """Symplectic form: true iff pq = qp."""
    if p.n_qubits != q.n_qubits:
        raise ValueError("size mismatch")
    return ((p.x_mask & q.z_mask) ^ (p.z_mask & q.x_mask)).bit_count() % 2 == 0


def enumerate_paulis(n_qubits: int) -> list[PauliString]:
    """All 4^n strings in canonical (z_mask, x_mask) lexicographic order.

    At n=1 the order is I, X, Z, Y. Guarded at n <= 8.
    """
    if n_qubits > 8:
        raise ValueError("enumerate_paulis is capped at 8 qubits")
    if n_qubits < 1:
        raise ValueError("n_qubits must be positive")
    dim = 1 << n_qubits
    return [
        PauliString(n_qubits, x, z) for z in range(dim) for x in range(dim)
    ]


def json_fields(data, what: str, *keys: str) -> list:
    """The values of `keys`, each one required, in the JSON object `data`."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {data!r}")
    for key in keys:
        if key not in data:
            raise ValueError(f"{what} is missing the field {key!r}")
    return [data[key] for key in keys]


def as_integer(value, name: str) -> int:
    """`value` as a Python int; a bool, a float or a string is bad input."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


class SparseOperator:
    """Real linear combination of Pauli strings, stored as a sparse map.

    Terms with |coefficient| below `prune_tol` are dropped on construction;
    a non-finite coefficient is an error. `terms` is in canonical
    (z_mask, x_mask) order from construction on, and every reader takes it
    as stored. Instances are treated as immutable; operations return new objects.
    """

    __slots__ = ("n_qubits", "terms")

    def __init__(
        self,
        n_qubits: int,
        terms: Mapping[PauliString, float] | Iterable[tuple[PauliString, float]] | None = None,
        *,
        prune_tol: float = PRUNE_TOL,
    ) -> None:
        if n_qubits <= 0:
            raise ValueError("n_qubits must be positive")
        self.n_qubits = n_qubits
        items = terms.items() if isinstance(terms, Mapping) else (terms or ())
        kept: dict[PauliString, float] = {}
        for pauli, coeff in items:
            if pauli.n_qubits != n_qubits:
                raise ValueError("term size mismatch")
            if not math.isfinite(coeff):
                raise ValueError(f"coefficient of {pauli} is not finite: {coeff!r}")
            if abs(coeff) >= prune_tol:
                kept[pauli] = float(coeff)
        # z << n | x orders as (z, x)
        self.terms = {p: kept[p] for p in sorted(kept, key=lambda p: p.z_mask << n_qubits | p.x_mask)}

    @classmethod
    def _trusted(cls, n_qubits: int, x_masks: list, z_masks: list, coeffs: list) -> "SparseOperator":
        """The operator over rows that the caller has checked, pruned and put
        in canonical order: its strings are made once, with no second check."""
        new = object.__new__
        set_n, set_x, set_z = _PAULI_SLOTS

        def string(x: int, z: int) -> PauliString:
            p = new(PauliString)
            set_n(p, n_qubits)
            set_x(p, x)
            set_z(p, z)
            return p

        op = cls.__new__(cls)
        op.n_qubits = n_qubits
        op.terms = dict(zip(map(string, x_masks, z_masks), coeffs))
        return op

    @classmethod
    def from_pauli(cls, pauli: PauliString, coeff: float = 1.0) -> "SparseOperator":
        return cls(pauli.n_qubits, {pauli: coeff})

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[tuple[PauliString, float]]:
        return iter(self.terms.items())

    def coefficient(self, pauli: PauliString) -> float:
        """Stored amplitude of `pauli`, 0.0 if absent."""
        if pauli.n_qubits != self.n_qubits:
            raise ValueError("size mismatch")
        return self.terms.get(pauli, 0.0)

    def l2_weight(self) -> float:
        """Sum of squared coefficients; 1 for unitarily evolved unit seeds."""
        return sum(a * a for a in self.terms.values())

    def support(self) -> set[int]:
        both = 0
        for pauli in self.terms:
            both |= pauli.x_mask | pauli.z_mask
        return {s for s in range(self.n_qubits) if (both >> s) & 1}

    def scaled(self, factor: float) -> "SparseOperator":
        return SparseOperator(
            self.n_qubits, {p: a * factor for p, a in self.terms.items()}
        )

    def tensor(self, other: "SparseOperator") -> "SparseOperator":
        """Tensor product; `other` occupies sites n_qubits..n_qubits+m-1."""
        n = self.n_qubits + other.n_qubits
        shift = self.n_qubits
        out: dict[PauliString, float] = {}
        for p, a in self.terms.items():
            for q, b in other.terms.items():
                s = PauliString(
                    n, p.x_mask | (q.x_mask << shift), p.z_mask | (q.z_mask << shift)
                )
                out[s] = a * b
        return SparseOperator(n, out)

    def relabel_sites(self, mapping: Mapping[int, int]) -> "SparseOperator":
        """Permute site labels; `mapping` must be injective on the support."""
        out: dict[PauliString, float] = {}
        for p, a in self.terms.items():
            x = z = 0
            for s in range(self.n_qubits):
                t = mapping.get(s, s)
                if not 0 <= t < self.n_qubits:
                    raise ValueError(f"site {t} out of range")
                x |= ((p.x_mask >> s) & 1) << t
                z |= ((p.z_mask >> s) & 1) << t
            out[PauliString(self.n_qubits, x, z)] = a
        if len(out) != len(self.terms):
            raise ValueError("site relabeling is not injective on the support")
        return SparseOperator(self.n_qubits, out)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n_qubits,
            "terms": [[p.label(), a] for p, a in self.terms.items()],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SparseOperator":
        n, terms = json_fields(data, "an operator", "n", "terms")
        if not isinstance(terms, list):
            raise ValueError(f"operator terms must be a list of [label, number] pairs, got {terms!r}")
        parsed = {}
        for pair in terms:
            if not (isinstance(pair, list) and len(pair) == 2 and isinstance(pair[0], str)
                    and isinstance(pair[1], (int, float)) and not isinstance(pair[1], bool)):
                raise ValueError(f"operator terms must be [label, number] pairs, got {pair!r}")
            parsed[PauliString.from_label(pair[0])] = float(pair[1])
        return cls(as_integer(n, "operator qubit count n"), parsed)

    def __repr__(self) -> str:
        body = " + ".join(f"{a:+.6g}*{p}" for p, a in islice(self.terms.items(), 4))
        more = "" if len(self) <= 4 else f" ... ({len(self)} terms)"
        return f"SparseOperator({body}{more})"


def from_local(site: int, a_x: float, a_y: float, a_z: float, n_qubits: int) -> SparseOperator:
    """Single-site operator a_x X + a_y Y + a_z Z; coefficients must be unit norm."""
    norm = a_x * a_x + a_y * a_y + a_z * a_z
    if abs(norm - 1.0) >= 1e-10:
        raise ValueError(f"coefficients not normalized: |a|^2 = {norm}")
    terms = {}
    for axis, coeff in (("X", a_x), ("Y", a_y), ("Z", a_z)):
        if coeff != 0.0:
            terms[single_site_pauli(site, axis, n_qubits)] = coeff
    return SparseOperator(n_qubits, terms)


def parse_pauli_text(text: str, n_qubits: int | None = None) -> tuple[PauliString, float]:
    """Parse '+XZI' or site-tagged 'X0 Z2' into (string, sign).

    The site-tagged form needs `n_qubits`; the label form infers it unless
    given, in which case the lengths must agree.
    """
    text = text.strip()
    sign = 1.0
    if text.startswith(("+", "-")):
        sign = -1.0 if text[0] == "-" else 1.0
        text = text[1:].strip()
    tokens = text.split()
    if not tokens:
        raise ValueError("empty Pauli text")
    if len(tokens) == 1 and all(ch in _AXIS_BITS for ch in tokens[0]):
        p = PauliString.from_label(tokens[0])
        if n_qubits is not None and p.n_qubits != n_qubits:
            raise ValueError(f"label length {p.n_qubits} != n_qubits {n_qubits}")
        return p, sign
    if n_qubits is None:
        raise ValueError("site-tagged Pauli text needs an explicit qubit count")
    letters = ["I"] * n_qubits
    for tok in tokens:
        axis, rest = tok[0].upper(), tok[1:]
        if axis not in ("X", "Y", "Z") or not rest.isdigit():
            raise ValueError(f"bad Pauli token {tok!r}")
        site = int(rest)
        if not 0 <= site < n_qubits:
            raise ValueError(f"site {site} out of range")
        if letters[site] != "I":
            raise ValueError(f"duplicate site {site}")
        letters[site] = axis
    return PauliString.from_label("".join(letters)), sign


@dataclass(frozen=True)
class TruncationResult:
    """Outcome of keeping the chi largest terms of a unit-weight operator."""

    kept: SparseOperator
    epsilon: float
    kept_weight: float

    def choi_normalized(self) -> SparseOperator:
        """Kept operator rescaled by 1/sqrt(kept_weight) to unit Choi norm."""
        if self.kept_weight <= 0.0:
            raise ValueError("cannot normalize an empty truncation")
        return self.kept.scaled(1.0 / math.sqrt(self.kept_weight))


def truncate_top(operator: SparseOperator, chi: int) -> TruncationResult:
    """Keep the chi largest-|a| terms; a stable sort breaks ties in canonical order.

    The kept coefficients are not rescaled; `TruncationResult.choi_normalized`
    exposes the sqrt-normalized variant. epsilon is the l2 norm of the
    discarded coefficients, which equals sqrt(1 - kept_weight) for unit
    weight input.
    """
    if chi < 1:
        raise ValueError("chi must be a positive integer")
    weight = operator.l2_weight()
    if abs(weight - 1.0) >= 1e-8:
        raise ValueError(f"operator weight {weight} is not 1 within 1e-8")
    ranked = sorted(operator.terms.items(), key=lambda kv: -abs(kv[1]))
    kept_terms = dict(ranked[:chi])
    kept_weight = sum(a * a for a in kept_terms.values())
    discarded = sum(a * a for _, a in ranked[chi:])
    return TruncationResult(
        kept=SparseOperator(operator.n_qubits, kept_terms),
        epsilon=math.sqrt(discarded),
        kept_weight=kept_weight,
    )


def expectation_error_bound(epsilon: float) -> float:
    """Worst-case expectation error 1 - sqrt(1 - eps^2) + eps of a truncation."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    return 1.0 - math.sqrt(1.0 - epsilon * epsilon) + epsilon
