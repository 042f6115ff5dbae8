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

One codec maps letters and bits: `_LETTERS` is the letter of the digit
2 z + x, and `_DIGITS` a `bytes.translate` table from a letter's ASCII code
to its digit. The row packers live here too: `xz_of_bits`/`bits_of_xz`
between bit matrices and uint64 words, `bits_of_ints`/`ints_of_bits`
between bit matrices and Python ints. Each pads its rows to whole bytes
(not words) and makes one flat `packbits` or `unpackbits` call. A label is
read back from the bits by arithmetic: the ASCII codes of I, X, Z and Y are
73 + 16 (x | z) + z - x, so a uint32 matrix of codes, viewed as n-letter
unicode strings, gives the labels of a block of rows in one `tolist()`.
Labels and bit matrices are made `_BLOCK_ROWS` rows at a time.

A SparseOperator holds the propagation engine's arrays, uint64 words and
float64 coefficients, and builds a dict of PauliStrings only when `terms`
is read, its masks straight from the words.
Canonical order is lexicographic on ``(z_mask, x_mask)``. A SparseOperator
holds its strings in that order from construction, so its probability
vector, l2 weight and JSON follow it, and truncation, a stable sort on
|a|, breaks ties by it: reruns are bit-identical.

An operator's JSON holds two columns: ``{"n": n, "labels": [label, ...],
"coeff": text}``, the labels in canonical order and ``coeff`` the base64 of
the little-endian float64 coefficients, 8 bytes a label, so a coefficient
is never printed or parsed as decimal text. Without opmagic,
``numpy.frombuffer(base64.b64decode(data["coeff"]), "<f8")`` reads them.
A file in the older format, a ``terms`` list of [label, number] pairs, is
refused as missing the field ``labels``.
"""
from __future__ import annotations

import base64
import itertools
import math
import operator
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

# Coefficients below this are treated as exact zeros (e.g. cos(pi/2) from a
# rotation at a Clifford point), so rank-based quantities stay meaningful.
PRUNE_TOL = 1e-14

# A unit-weight operator's squared coefficients must sum to 1 within this.
_WEIGHT_TOL = 1e-8

_LETTERS = "IXZY"  # indexed by the digit 2*z_bit + x_bit
# the digit of each ASCII code, 4 where no letter has it (find gives -1)
_DIGITS = bytes(_LETTERS.find(chr(code)) % 5 for code in range(256))

# Labels and bit matrices, several times the size of an operator's words,
# are made this many rows at a time: small blocks reuse freed heap memory,
# where whole-operator temporaries would each take fresh pages.
_BLOCK_ROWS = 2048


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
    def from_label(cls, label: str) -> "PauliString":
        """Parse 'IXZY...' with site 0 as the leftmost character."""
        label = label.strip()
        digits = np.frombuffer(label.encode("ascii", "replace").translate(_DIGITS), np.uint8)
        if not label or (digits > 3).any():
            raise ValueError(f"invalid Pauli label {label!r}")
        return cls(len(label), *ints_of_bits(np.stack((digits & 1, digits >> 1))))

    def letter(self, site: int) -> str:
        if not 0 <= site < self.n_qubits:
            raise ValueError(f"site {site} out of range")
        return _LETTERS[2 * ((self.z_mask >> site) & 1) + ((self.x_mask >> site) & 1)]

    def label(self) -> str:
        return "".join(map(self.letter, range(self.n_qubits)))

    def support(self) -> frozenset[int]:
        both = self.x_mask | self.z_mask
        return frozenset(s for s in range(self.n_qubits) if (both >> s) & 1)

    def __str__(self) -> str:
        return self.label()

    def __repr__(self) -> str:
        return f"PauliString({self.label()!r})"


def single_site_pauli(site: int, axis: str, n_qubits: int) -> PauliString:
    """Identity everywhere except `axis` (X, Y or Z) at `site`."""
    if not 0 <= site < n_qubits:
        raise ValueError(f"site {site} out of range for {n_qubits} qubits")
    if axis not in ("X", "Y", "Z"):
        raise ValueError(f"axis must be X, Y or Z, got {axis!r}")
    digit = _LETTERS.index(axis)
    return PauliString(n_qubits, (digit & 1) << site, (digit >> 1) << site)


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


def _byte_rows(bits: np.ndarray) -> np.ndarray:
    """A bit matrix with its rows padded by zero bits to whole bytes, so that a
    flat `packbits` packs each row into bytes of its own."""
    rows, width = bits.shape
    if not width % 8:
        return bits  # packbits ravels, copying only a strided matrix
    padded = np.zeros((rows, (width + 7) & ~7), np.uint8)
    padded[:, :width] = bits
    return padded


def _word_bytes(xz: np.ndarray) -> np.ndarray:
    """The bytes of (2w, rows) words as a (2, w, rows, 8) view: x or z, word,
    row, byte, the low byte first."""
    words, rows = xz.shape
    return np.ascontiguousarray(xz).view(np.uint8).reshape(2, words >> 1, rows, 8)


def xz_of_bits(x_bits: np.ndarray, z_bits: np.ndarray) -> np.ndarray:
    """The (2w, rows) uint64 words of (rows, n) x and z bit matrices, site i
    at bit i % 64 of word i // 64: the x words lowest first, then the z words."""
    rows, n = x_bits.shape
    size = (n + 7) >> 3  # bytes a row
    xz = np.zeros((((size + 7) >> 3) << 1, rows), np.uint64)
    for out, bits in zip(_word_bytes(xz), (x_bits, z_bits)):
        packed = np.packbits(_byte_rows(bits), bitorder="little").reshape(rows, size)
        for k, word in enumerate(out):
            word[:, : size - 8 * k] = packed[:, 8 * k : 8 * k + 8]
    return xz


def bits_of_xz(xz: np.ndarray, n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """The inverse of `xz_of_bits`: the (rows, n) x and z bit matrices."""
    size, rows = (n_qubits + 7) >> 3, xz.shape[1]
    packed = np.empty((2, rows, size), np.uint8)
    for k, word in enumerate(_word_bytes(xz).transpose(1, 0, 2, 3)):
        packed[:, :, 8 * k : 8 * k + 8] = word[:, :, : size - 8 * k]
    bits = np.unpackbits(packed, bitorder="little").reshape(2, rows, size << 3)
    return bits[0, :, :n_qubits], bits[1, :, :n_qubits]


def bits_of_ints(ints: list, width: int) -> np.ndarray:
    """A (len(ints), width) uint8 matrix: row i holds the low bits of ints[i]."""
    size = (width + 7) >> 3
    packed = np.frombuffer(b"".join(v.to_bytes(size, "little") for v in ints), np.uint8)
    return np.unpackbits(packed, bitorder="little").reshape(len(ints), size << 3)[:, :width]


def ints_of_bits(bits: np.ndarray) -> list:
    """The inverse of `bits_of_ints`: one int per row of a bit matrix."""
    size = (bits.shape[1] + 7) >> 3
    if not size:  # no columns: every row is 0
        return [0] * len(bits)
    data = np.packbits(_byte_rows(bits), bitorder="little").tobytes()
    return [int.from_bytes(data[i : i + size], "little") for i in range(0, len(data), size)]


def _ints_of_words(words: np.ndarray) -> list:
    """One int per column of (w, rows) uint64 words, the lowest word first:
    one `tolist()` per word, OR-ed in 64 bits up at a time."""
    ints = words[0].tolist()
    for k in range(1, len(words)):
        ints = [v | u << 64 * k for v, u in zip(ints, words[k].tolist())]
    return ints


def _labels(n_qubits: int, xz: np.ndarray) -> list[str]:
    """The label of every row, from a (rows, n) matrix of letter codes per
    block of rows."""
    labels = []
    for start in range(0, xz.shape[1], _BLOCK_ROWS):
        x_bits, z_bits = bits_of_xz(xz[:, start : start + _BLOCK_ROWS], n_qubits)
        codes = x_bits | z_bits
        codes <<= 4
        codes += z_bits
        codes -= x_bits  # 16 (x | z) + z - x, never below 0
        codes = np.add(codes, ord("I"), dtype="<u4")
        labels += codes.view(f"<U{n_qubits}")[:, 0].tolist()
    return labels


def _checked(n_qubits: int, labels: list[str], coeffs):
    """`xz` and `coeff` of stripped labels and their coefficients, checked,
    in canonical order, with |a| < PRUNE_TOL dropped."""
    if n_qubits <= 0:
        raise ValueError("n_qubits must be positive")
    pad = "I" * (-n_qubits % 8)  # each row padded to whole bytes with the digit 0
    text = pad.join([*labels, ""]).encode("ascii", "replace")
    if not all(labels) or text.translate(None, _LETTERS.encode()):  # something is no letter
        for label in labels:
            PauliString.from_label(label)  # raises on the first bad label
    if not set(map(len, labels)) <= {n_qubits}:
        raise ValueError("term size mismatch")
    width = n_qubits + len(pad)
    xz = np.empty((2 * ((width + 63) >> 6), len(labels)), np.uint64)
    for start in range(0, len(labels), _BLOCK_ROWS):
        block = text[start * width : (start + _BLOCK_ROWS) * width].translate(_DIGITS)
        digits = np.frombuffer(block, np.uint8).reshape(-1, width)
        xz[:, start : start + _BLOCK_ROWS] = xz_of_bits(digits & 1, digits >> 1)
    return _canonical(n_qubits, xz, np.array(coeffs, float))


def _canonical(n_qubits: int, xz: np.ndarray, coeff: np.ndarray):
    """`xz` and `coeff` with every coefficient checked finite and every string
    given once, in canonical order, with |a| < PRUNE_TOL dropped. A bad row is
    named by its label."""
    finite = np.isfinite(coeff)
    if not finite.all():
        i = finite.argmin()
        raise ValueError(f"coefficient of {_labels(n_qubits, xz[:, [i]])[0]} is not finite: {float(coeff[i])!r}")
    if coeff.size > 1:  # one row is in order and given once
        # lexsort keys the last row first: z's highest word, down to x's lowest
        order = np.lexsort(xz)
        if (order[1:] < order[:-1]).any():  # not given in canonical order
            xz, coeff = xz.take(order, axis=1), coeff.take(order)
        repeated = (xz[:, 1:] == xz[:, :-1]).all(axis=0)
        if repeated.any():
            raise ValueError(f"Pauli string {_labels(n_qubits, xz[:, [repeated.argmax()]])[0]} is given twice")
    small = np.abs(coeff) < PRUNE_TOL
    if small.any():
        keep = (~small).nonzero()[0]
        xz, coeff = xz.take(keep, axis=1), coeff.take(keep)
    return xz, coeff


def _moved(xz: np.ndarray, n_qubits: int, moves: Mapping[int, int], width: int) -> np.ndarray:
    """The words of `xz` on `width` sites, the letter at site s moved to site
    moves[s]; a site not in `moves` is dropped. The targets must differ."""
    bits = np.zeros((2, xz.shape[1], width), np.uint8)
    for out, given in zip(bits, bits_of_xz(xz, n_qubits)):
        out[:, list(moves.values())] = given[:, list(moves)]
    return xz_of_bits(*bits)


class SparseOperator:
    """Real linear combination of Pauli strings, held as arrays.

    `xz` holds one column of uint64 words per string, w = ceil(n / 64) for
    its x_mask, lowest first, then w for its z_mask; `coeff` holds the
    float64 coefficients. The checked constructor rejects a non-finite
    coefficient and a string given twice, sorts the columns into canonical
    order and drops |coefficient| below PRUNE_TOL. `scaled`, `tensor` and
    `relabel_sites` end in the same check (`_canonical`) on the arrays; the
    two site maps move bit columns with `_moved`. `terms` is a read-only
    {PauliString: coefficient} view, built on first read, and truncation's
    ranking a read-only index array, made on the first cut. Instances are
    immutable; operations return new objects.
    """

    __slots__ = ("n_qubits", "xz", "coeff", "_view", "_order")

    def __init__(
        self,
        n_qubits: int,
        terms: Mapping[PauliString, float] | Iterable[tuple[PauliString, float]] | None = None,
    ) -> None:
        items = list(terms.items() if isinstance(terms, Mapping) else (terms or ()))
        labels = [pauli.label() for pauli, _ in items]
        self._hold(n_qubits, *_checked(n_qubits, labels, [a for _, a in items]))

    def _hold(self, n_qubits: int, xz: np.ndarray, coeff: np.ndarray) -> "SparseOperator":
        xz.flags.writeable = coeff.flags.writeable = False
        self.n_qubits, self.xz, self.coeff, self._view, self._order = n_qubits, xz, coeff, None, None
        return self

    @classmethod
    def _of(cls, n_qubits: int, xz: np.ndarray, coeff: np.ndarray) -> "SparseOperator":
        """The operator over rows that are checked, pruned and in canonical order."""
        return cls.__new__(cls)._hold(n_qubits, xz, coeff)

    @classmethod
    def from_pauli(cls, pauli: PauliString, coeff: float = 1.0) -> "SparseOperator":
        return cls(pauli.n_qubits, {pauli: coeff})

    @property
    def terms(self) -> Mapping[PauliString, float]:
        """Read-only {string: coefficient} in canonical order, built on first read."""
        if self._view is None:
            w = self.xz.shape[0] >> 1
            masks = (_ints_of_words(self.xz[:w]), _ints_of_words(self.xz[w:]))
            strings = map(PauliString, itertools.repeat(self.n_qubits), *masks)
            self._view = MappingProxyType(dict(zip(strings, self.coeff.tolist())))
        return self._view

    def __len__(self) -> int:
        return self.coeff.size

    def __iter__(self) -> Iterator[tuple[PauliString, float]]:
        return iter(self.terms.items())

    def coefficient(self, pauli: PauliString) -> float:
        """Stored amplitude of `pauli`, 0.0 if absent."""
        if pauli.n_qubits != self.n_qubits:
            raise ValueError("size mismatch")
        return self.terms.get(pauli, 0.0)

    def l2_weight(self) -> float:
        """Sum of squared coefficients; 1 for unitarily evolved unit seeds."""
        return float(np.sum(self.coeff**2))

    def support(self) -> set[int]:
        words = np.bitwise_or.reduce(self.xz, axis=1)
        w = len(words) >> 1
        both = int.from_bytes((words[:w] | words[w:]).tobytes(), "little")
        return {s for s in range(self.n_qubits) if both >> s & 1}

    def scaled(self, factor: float) -> "SparseOperator":
        return SparseOperator._of(self.n_qubits, *_canonical(self.n_qubits, self.xz, self.coeff * factor))

    def tensor(self, other: "SparseOperator") -> "SparseOperator":
        """Tensor product; `other` occupies sites n_qubits..n_qubits+m-1."""
        n, m = self.n_qubits, other.n_qubits
        mine = _moved(self.xz, n, dict(enumerate(range(n))), n + m)
        theirs = _moved(other.xz, m, dict(enumerate(range(n, n + m))), n + m)
        xz = (mine[:, :, None] | theirs[:, None, :]).reshape(len(mine), -1)
        return SparseOperator._of(n + m, *_canonical(n + m, xz, np.outer(self.coeff, other.coeff).ravel()))

    def relabel_sites(self, mapping: Mapping[int, int]) -> "SparseOperator":
        """Move the letter at site s to mapping.get(s, s); the map must be
        injective on the support."""
        n = self.n_qubits
        targets = [operator.index(mapping.get(s, s)) for s in range(n)]  # a bool is 0 or 1, not a mask
        for t in targets:
            if not 0 <= t < n:
                raise ValueError(f"site {t} out of range")
        moves = {s: targets[s] for s in self.support()}
        if len(set(moves.values())) < len(moves):
            raise ValueError("site relabeling is not injective on the support")
        return SparseOperator._of(n, *_canonical(n, _moved(self.xz, n, moves, n), self.coeff))

    def to_json_dict(self) -> dict:
        """{"n": n, "labels": [label, ...], "coeff": base64 text}: the labels in
        canonical order, and the coefficients as one base64 string of their
        little-endian float64 bytes, 8 a label."""
        coeff = base64.b64encode(self.coeff.astype("<f8").tobytes()).decode("ascii")
        return {"n": self.n_qubits, "labels": _labels(self.n_qubits, self.xz), "coeff": coeff}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SparseOperator":
        """The operator of a `to_json_dict` payload, checked as the constructor
        checks its terms; the rows may come in any order. A payload of the
        older [label, number] `terms` list has no `labels` field and is
        refused as missing it."""
        n, labels, coeff = json_fields(data, "an operator", "n", "labels", "coeff")
        n = as_integer(n, "operator qubit count n")
        if not isinstance(labels, list):
            raise ValueError(f"operator labels must be a list of strings, got {type(labels).__name__}")
        if not set(map(type, labels)) <= {str}:  # walked only to name the first bad one
            for i, label in enumerate(labels):
                if not isinstance(label, str):
                    raise ValueError(f"operator label {i} must be a string, got {label!r}")
        if not isinstance(coeff, str):
            raise ValueError(f"operator coeff must be a base64 string, got {type(coeff).__name__}")
        try:
            raw = base64.b64decode(coeff, validate=True)
        except ValueError as exc:  # binascii.Error, or a non-ASCII character
            raise ValueError(f"operator coeff is not valid base64: {exc}") from None
        if len(raw) != 8 * len(labels):
            raise ValueError(f"operator coeff holds {len(raw)} bytes, not 8 for each of {len(labels)} labels")
        return cls._of(n, *_checked(n, list(map(str.strip, labels)), np.frombuffer(raw, "<f8")))

    def __repr__(self) -> str:
        shown = zip(_labels(self.n_qubits, self.xz[:, :4]), self.coeff[:4].tolist())
        body = " + ".join(f"{a:+.6g}*{label}" for label, a in shown)
        more = "" if len(self) <= 4 else f" ... ({len(self)} terms)"
        return f"SparseOperator({body}{more})"


def seed_coefficients(a_x: float, a_y: float, a_z: float) -> tuple[float, float, float]:
    """The coefficients of a local seed a_x X + a_y Y + a_z Z as floats:
    each finite, and their squares summing to 1 within 1e-10.

    Each is converted with float() first, so that an int past the float
    range, whose square is past it too, is reported as a norm of inf.
    """
    try:
        coeffs = (float(a_x), float(a_y), float(a_z))
    except OverflowError:
        raise ValueError("seed coefficients not normalized: |a|^2 = inf") from None
    for name, value in zip(("a_x", "a_y", "a_z"), coeffs):
        if not math.isfinite(value):
            raise ValueError(f"seed coefficient {name} must be finite, got {value!r}")
    norm = sum(value * value for value in coeffs)
    if abs(norm - 1.0) >= 1e-10:
        raise ValueError(f"seed coefficients not normalized: |a|^2 = {norm}")
    return coeffs


def from_local(site: int, a_x: float, a_y: float, a_z: float, n_qubits: int) -> SparseOperator:
    """Single-site operator a_x X + a_y Y + a_z Z; coefficients as `seed_coefficients` checks them."""
    terms = {}
    for axis, coeff in zip("XYZ", seed_coefficients(a_x, a_y, a_z)):
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
    if len(tokens) == 1 and all(ch in _LETTERS for ch in tokens[0]):
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


def pauli_probs(operator: SparseOperator) -> np.ndarray:
    """Probability vector a_i^2 in canonical term order; requires unit weight."""
    probs = operator.coeff**2
    weight = float(probs.sum())
    if abs(weight - 1.0) >= _WEIGHT_TOL:
        raise ValueError(f"operator weight {weight} is not 1 within {_WEIGHT_TOL}")
    return probs


@dataclass(frozen=True)
class TruncationResult:
    """Outcome of keeping the chi largest terms of a unit-weight operator.

    `state_bound` bounds the operator norm of O - W, W the kept part rescaled
    to unit weight (`choi_normalized`), so |<psi|(O - W)|psi>| for every
    state: the cut moves O by at most the l1 norm of the dropped
    coefficients, and the rescaling by |1/sqrt(kept_weight) - 1| times that
    of the kept ones.
    """

    kept: SparseOperator
    epsilon: float
    kept_weight: float
    state_bound: float

    def choi_normalized(self) -> SparseOperator:
        """Kept operator rescaled by 1/sqrt(kept_weight) to unit Choi norm."""
        if self.kept_weight <= 0.0:
            raise ValueError("cannot normalize an empty truncation")
        return self.kept.scaled(1.0 / math.sqrt(self.kept_weight))


def truncate_top(operator: SparseOperator, chi: int) -> TruncationResult:
    """Keep the chi largest-|a| terms; a stable sort breaks ties in canonical order.

    The kept coefficients are not rescaled; `TruncationResult.choi_normalized`
    exposes the sqrt-normalized variant. epsilon is the l2 norm of the
    discarded coefficients, their squares summed from the smallest up, which
    equals sqrt(1 - kept_weight) for unit weight input. The ranking is made
    once per operator, so cuts of one operator at several chi sort once.
    """
    order, [(kept_weight, epsilon, state_bound)] = _ranked_cuts(operator, [chi])
    kept = np.sort(order[:chi])
    xz, coeff = operator.xz.take(kept, axis=1), operator.coeff.take(kept)
    return TruncationResult(
        kept=SparseOperator._of(operator.n_qubits, xz, coeff),
        epsilon=epsilon,
        kept_weight=kept_weight,
        state_bound=state_bound,
    )


def truncation_sweep(
    operator: SparseOperator, chis: Sequence[int]
) -> list[tuple[int, float, float, float]]:
    """(kept terms, kept_weight, epsilon, state_bound) of
    `truncate_top(operator, chi)` for every chi, bit for bit, from one weight
    check and one ranking."""
    _, cuts = _ranked_cuts(operator, chis)
    return [(min(chi, len(operator)), *cut) for chi, cut in zip(chis, cuts)]


def _ranked_cuts(operator: SparseOperator, chis: Sequence[int]) -> tuple[np.ndarray, list]:
    """The stable ranking of a unit-weight operator's terms by -|a|, and
    (kept_weight, epsilon, state_bound) for keeping the first chi of them,
    per chi.

    The ranking is cached on the operator, read-only. Running sums of the
    ranked squares and of the ranked |a| serve every chi, reproducibly: the
    kept sums add from the largest down, the dropped ones from the smallest
    up, the more accurate order for a tail.
    """
    if any(chi < 1 for chi in chis):
        raise ValueError("chi must be a positive integer")
    probs = pauli_probs(operator)
    if operator._order is None:
        operator._order = np.argsort(-np.abs(operator.coeff), kind="stable")
        operator._order.flags.writeable = False
    order = operator._order
    rank = len(order)
    cuts = [min(chi, rank) for chi in chis]
    # cumsum adds one term at a time: kept[c] is the sum of ranked[:c], and
    # dropped[rank - c] that of ranked[c:]
    (kept2, dropped2), (kept1, dropped1) = [
        (np.cumsum(np.append(0.0, ranked)), np.cumsum(np.append(0.0, ranked[::-1])))
        for ranked in (probs.take(order), np.abs(operator.coeff).take(order))
    ]
    out = []
    for c in cuts:
        kept_weight = float(kept2[c])
        rescale = abs(1.0 / math.sqrt(kept_weight) - 1.0)
        state_bound = float(dropped1[rank - c]) + rescale * float(kept1[c])
        out.append((kept_weight, math.sqrt(dropped2[rank - c]), state_bound))
    return order, out


def expectation_error_bound(epsilon: float) -> float:
    """1 - sqrt(1 - eps^2) + eps: a bound on ||O - W||_2 / sqrt(D) for a
    truncation of a unit-weight O that discards l2 weight eps, W its kept
    part rescaled to unit weight (`TruncationResult.choi_normalized`).

    The cut moves O by eps and the rescaling by 1 - sqrt(1 - eps^2), in the
    normalized Hilbert-Schmidt norm. So the value bounds |tr[(O - W) Q]| / D
    for every Q with ||Q||_2 = sqrt(D), every infinite-temperature
    correlator. It does not bound |<psi|(O - W)|psi>| for every state, which
    the operator norm of O - W sets and which can be several times larger;
    `TruncationResult.state_bound` does.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    return 1.0 - math.sqrt(1.0 - epsilon * epsilon) + epsilon
