import base64
import hashlib
import json
import math
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opmagic import (
    Circuit,
    Gate,
    PauliString,
    SparseOperator,
    commuted_operator,
    conjugate_gate,
    enumerate_paulis,
    evolve_heisenberg,
    expectation_error_bound,
    from_local,
    parse_pauli_text,
    pauli_probs,
    single_site_pauli,
    truncate_top,
)
from opmagic import paulis
from opmagic.paulis import truncation_sweep
from opmagic.xxz import xxz_brickwork
from conftest import random_mixed_circuit, random_pauli


def operator_payload(n, labels, coeffs):
    """The JSON payload of an operator: `labels` joined by single spaces, and
    `coeffs` as the base64 of their little-endian float64 bytes."""
    packed = base64.b64encode(np.asarray(coeffs, "<f8").tobytes()).decode("ascii")
    return {"n": n, "labels": " ".join(labels), "coeff": packed}


X_PAYLOAD = operator_payload(1, ["X"], [1.0])


def payload_coeffs(data):
    return np.frombuffer(base64.b64decode(data["coeff"], validate=True), "<f8")


def assert_json_round_trip(op, shuffled):
    """`op` through JSON text, its rows shuffled or not, gives back the same
    words and coefficient bytes."""
    data = json.loads(json.dumps(op.to_json_dict()))
    labels = data["labels"].split(" ") if len(op) else []
    assert labels == [p.label() for p in op.terms]
    if shuffled:
        order = list(range(len(op)))
        random.Random(7).shuffle(order)
        data = operator_payload(op.n_qubits, [labels[i] for i in order], payload_coeffs(data)[order])
    back = SparseOperator.from_json_dict(data)
    assert back.n_qubits == op.n_qubits and back.xz.shape == op.xz.shape
    assert back.xz.tobytes() == op.xz.tobytes()
    assert back.coeff.tobytes() == op.coeff.tobytes()


class TestPauliString:
    def test_single_site_constructor(self):
        assert single_site_pauli(0, "X", 3).label() == "XII"
        assert single_site_pauli(2, "Y", 3).label() == "IIY"
        assert single_site_pauli(1, "Z", 2).label() == "IZ"

    def test_single_site_out_of_range(self):
        with pytest.raises(ValueError):
            single_site_pauli(3, "Z", 3)

    def test_label_round_trip(self):
        for label in ("I", "XZY", "IIXZ", "YYYY"):
            assert PauliString.from_label(label).label() == label

    @pytest.mark.parametrize("n", [1, 28, 64, 65, 70])
    def test_label_round_trip_random_masks(self, n):
        rng = random.Random(n)
        full = (1 << n) - 1
        for x, z in [(0, 0), (full, full)] + [(rng.getrandbits(n), rng.getrandbits(n)) for _ in range(50)]:
            p = PauliString(n, x, z)
            label = p.label()
            assert label == "".join(p.letter(s) for s in range(n))
            assert PauliString.from_label(label) == p

    @pytest.mark.parametrize("bad", ["", "  ", "XQ", "x", "X_Y", "+X", "X+", "X Y", "01", "0bX"])
    def test_bad_label_rejected(self, bad):
        with pytest.raises(ValueError, match="invalid Pauli label"):
            PauliString.from_label(bad)

    def test_non_ascii_label_is_named(self):
        with pytest.raises(ValueError, match="invalid Pauli label 'XÝ'"):
            PauliString.from_label("XÝ")

    def test_letter_bit_encoding(self):
        p = PauliString.from_label("IXZY")
        assert [p.letter(i) for i in range(4)] == ["I", "X", "Z", "Y"]
        assert p.x_mask == 0b1010 and p.z_mask == 0b1100

    def test_weight_and_support(self):
        p = PauliString.from_label("IXIY")
        assert len(p.support()) == 2
        assert p.support() == frozenset({1, 3})


class TestCodec:
    """The packers between bit matrices, uint64 words and labels."""

    @pytest.mark.parametrize("n", [1, 7, 8, 63, 64, 65, 128])
    @pytest.mark.parametrize("rows", [0, 1, 1000, 2 * paulis._BLOCK_ROWS + 5])
    def test_words_round_trip(self, n, rows):
        rng = np.random.default_rng(1000 * n + rows)
        x, z = rng.integers(0, 2, (2, rows, n), dtype=np.uint8)
        xz = paulis.xz_of_bits(x, z)
        assert xz.dtype == np.uint64 and xz.shape == (2 * ((n + 63) // 64), rows)
        back_x, back_z = paulis.bits_of_xz(xz, n)
        assert np.array_equal(back_x, x) and np.array_equal(back_z, z)
        # site i at bit i % 64 of word i // 64, against Python ints
        w = len(xz) // 2
        for r in range(min(rows, 3)):
            for words, bits in ((xz[:w, r], x[r]), (xz[w:, r], z[r])):
                value = sum(int(v) << (64 * k) for k, v in enumerate(words))
                assert value == sum(int(b) << i for i, b in enumerate(bits))
        labels = paulis._label_text(n, xz).split()
        assert labels == ["".join("IXZY"[2 * b + a] for a, b in zip(xr, zr)) for xr, zr in zip(x, z)]
        ints = paulis.ints_of_bits(x)
        assert ints == [sum(int(b) << i for i, b in enumerate(bits)) for bits in x]
        assert np.array_equal(paulis.bits_of_ints(ints, n), x)

    @pytest.mark.parametrize("n", [28, 64, 65, 130])
    def test_terms_view_is_that_of_the_labels(self, n):
        # the view's masks come straight from the words, 64 bits a word
        rng = np.random.default_rng(n)
        labels = sorted({"".join(row) for row in rng.choice(list("IXZY"), (300, n))} | {"I" * n, "Y" * n})
        coeffs = rng.normal(size=len(labels))
        op = SparseOperator.from_json_dict(operator_payload(n, labels, coeffs))
        data = op.to_json_dict()
        labels = data["labels"].split(" ")
        items = [(PauliString.from_label(label), a) for label, a in zip(labels, payload_coeffs(data).tolist())]
        assert list(op.terms.items()) == items

    @pytest.mark.parametrize("shuffled", [False, True])
    def test_json_round_trip_across_blocks(self, shuffled):
        t, n = 12, 26
        evolved = evolve_heisenberg(from_local(t, 0.6, 0.0, 0.8, n), xxz_brickwork(n, t, 0.3))
        assert len(evolved) > 2 * paulis._BLOCK_ROWS
        assert_json_round_trip(evolved, shuffled)

    @pytest.mark.parametrize("shuffled", [False, True])
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
    def test_json_round_trip_at_every_word_width(self, n, shuffled):
        rng = np.random.default_rng(n)
        labels = sorted({"".join(row) for row in rng.choice(list("IXZY"), (300, n))} | {"I" * n, "Y" * n})
        coeffs = rng.normal(size=len(labels))
        coeffs[:4] = [1e300, -1e300, 1e-13, -5e-14][: len(labels)]  # extremes that survive pruning
        assert_json_round_trip(SparseOperator.from_json_dict(operator_payload(n, labels, coeffs)), shuffled)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
    @pytest.mark.parametrize("rows", [paulis._BLOCK_ROWS - 1, paulis._BLOCK_ROWS, 2 * paulis._BLOCK_ROWS + 1])
    def test_label_text_round_trip_across_blocks(self, n, rows):
        # the writer and the reader of the one-string labels, on raw words:
        # rows may repeat, so every width fills whole blocks and a part block
        rng = np.random.default_rng(1000 * n + rows)
        x, z = rng.integers(0, 2, (2, rows, n), dtype=np.uint8)
        xz = paulis.xz_of_bits(x, z)
        labels = paulis._label_text(n, xz)
        assert labels.split(" ") == ["".join("IXZY"[2 * b + a] for a, b in zip(xr, zr)) for xr, zr in zip(x, z)]
        assert paulis._xz_of_labels(n, labels, rows).tobytes() == xz.tobytes()
        distinct = np.unique(xz, axis=1)
        coeffs = rng.normal(size=distinct.shape[1])
        assert_json_round_trip(SparseOperator._of(n, *paulis._canonical(n, distinct, coeffs)), shuffled=True)

    def test_zero_operator_round_trip(self):
        for n in (1, 64, sys.maxsize):
            data = json.loads(json.dumps(SparseOperator(n).to_json_dict()))
            assert data == {"n": n, "labels": "", "coeff": ""}
            back = SparseOperator.from_json_dict(data)
            assert back.n_qubits == n and len(back) == 0 and repr(back) == "SparseOperator()"


class TestEnumerate:
    def test_single_qubit_order(self):
        assert [p.label() for p in enumerate_paulis(1)] == ["I", "X", "Z", "Y"]

    def test_counts(self):
        assert len(enumerate_paulis(2)) == 16
        assert len(set(enumerate_paulis(3))) == 64

    def test_guard(self):
        with pytest.raises(ValueError):
            enumerate_paulis(9)


class TestSparseOperator:
    def test_from_local_pauli_seed(self):
        op = from_local(0, 1.0, 0.0, 0.0, 4)
        assert list(op.terms.items()) == [(PauliString.from_label("XIII"), 1.0)]

    def test_from_local_two_terms(self):
        r = math.sqrt(0.5)
        op = from_local(1, r, r, 0.0, 2)
        assert op.coefficient(PauliString.from_label("IX")) == pytest.approx(r)
        assert op.coefficient(PauliString.from_label("IY")) == pytest.approx(r)
        assert len(op) == 2

    def test_from_local_norm_guard(self):
        with pytest.raises(ValueError):
            from_local(0, 0.5, 0.5, 0.5, 1)

    def test_coefficient_lookup(self):
        op = SparseOperator.from_pauli(PauliString.from_label("X"))
        assert op.coefficient(PauliString.from_label("X")) == 1.0
        assert op.coefficient(PauliString.from_label("Z")) == 0.0

    def test_l2_weight(self):
        r = math.sqrt(0.5)
        assert SparseOperator.from_pauli(PauliString.from_label("X")).l2_weight() == 1.0
        assert from_local(0, r, r, 0, 1).l2_weight() == pytest.approx(1.0)
        assert SparseOperator(2).l2_weight() == 0.0

    def test_prune_drops_tiny_terms(self):
        op = SparseOperator(1, {PauliString.from_label("X"): 1.0, PauliString.from_label("Z"): 1e-15})
        assert len(op) == 1

    def test_tensor(self):
        a = SparseOperator.from_pauli(PauliString.from_label("X"), 0.5)
        b = SparseOperator.from_pauli(PauliString.from_label("ZY"), 2.0)
        ab = a.tensor(b)
        assert list(ab.terms.items()) == [(PauliString.from_label("XZY"), 1.0)]

    def test_relabel_sites(self):
        op = SparseOperator.from_pauli(PauliString.from_label("XZI"))
        out = op.relabel_sites({0: 2, 2: 0})
        assert list(out.terms.items())[0][0].label() == "IZX"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficient_rejected(self, bad):
        with pytest.raises(ValueError, match="not finite"):
            SparseOperator(1, {PauliString.from_label("X"): bad})
        for labels, coeffs in ((["Z", "X"], [1.0, bad]), (["X", "Z"], [bad, 1.0])):
            data = json.loads(json.dumps(operator_payload(1, labels, coeffs)))
            with pytest.raises(ValueError, match="coefficient of X is not finite"):
                SparseOperator.from_json_dict(data)

    @pytest.mark.parametrize(
        "data, message",
        [
            # cases 0-29 keep their indices from the format of a list of labels
            ({"n": 1, "terms": [["X", 1.0]]}, "missing the field 'labels'"),  # the [label, number] format
            ([1], "JSON object"),
            ({**X_PAYLOAD, "n": 2.7}, "qubit count n must be an integer"),
            ({**X_PAYLOAD, "n": True}, "qubit count n must be an integer"),
            ({**X_PAYLOAD, "labels": ["X"]}, "operator labels must be one string, the labels joined by spaces, got list"),
            ({**X_PAYLOAD, "labels": {"X": 1.0}}, "operator labels must be one string, the labels joined by spaces, got dict"),
            (operator_payload(1, ["X", "Z"], [1.0]), "coeff holds 8 bytes, not 8 for each of 2 labels"),
            ({**X_PAYLOAD, "coeff": [1.0]}, "operator coeff must be a base64 string, got list"),
            ({**X_PAYLOAD, "coeff": "not base64!"}, "operator coeff is not valid base64"),
            ({**X_PAYLOAD, "labels": 1}, "operator labels must be one string, the labels joined by spaces, got int"),
            (operator_payload(2, ["XQ"], [1.0]), "invalid Pauli label 'XQ'"),
            (operator_payload(2, ["XÝ"], [1.0]), "invalid Pauli label 'XÝ'"),
            (operator_payload(2, ["XYZ"], [1.0]), "term size mismatch"),
            (operator_payload(0, [], []), "n_qubits must be positive"),
            ({"n": 1, "labels": "X"}, "missing the field 'coeff'"),
            ({**X_PAYLOAD, "n": "1"}, "qubit count n must be an integer"),
            ({**X_PAYLOAD, "n": None}, "qubit count n must be an integer"),
            (operator_payload(-1, ["X"], [1.0]), "n_qubits must be positive"),
            ({**X_PAYLOAD, "labels": None}, "operator labels must be one string, the labels joined by spaces, got NoneType"),
            ({**X_PAYLOAD, "labels": b"X"}, "operator labels must be one string, the labels joined by spaces, got bytes"),
            ({**X_PAYLOAD, "coeff": 1.0}, "operator coeff must be a base64 string, got float"),
            ({**X_PAYLOAD, "coeff": b"AAAAAAAA8D8="}, "operator coeff must be a base64 string, got bytes"),
            ({**X_PAYLOAD, "coeff": "AAAAAAAA8D8"}, "operator coeff is not valid base64: Incorrect padding"),
            ({**X_PAYLOAD, "coeff": "AAAAAAAA 8D8="}, "operator coeff is not valid base64"),
            ({**X_PAYLOAD, "coeff": "AAAAAAAA8D8=\n"}, "operator coeff is not valid base64"),
            ({**X_PAYLOAD, "coeff": "ÀÀÀÀ"}, "operator coeff is not valid base64"),
            ({**X_PAYLOAD, "coeff": ""}, "coeff holds 0 bytes, not 8 for each of 1 labels"),
            ({**X_PAYLOAD, "coeff": "AAAAAAAAAAAA"}, "coeff holds 9 bytes, not 8 for each of 1 labels"),
            (operator_payload(1, [], [1.0]), "coeff holds 8 bytes, not 8 for each of 0 labels"),
            (operator_payload(2, ["XZ", "XZ"], [0.6, 0.8]), "XZ is given twice"),
            # the first bad label is named by its index and text
            (operator_payload(2, ["XZ", "xZ"], [0.6, 0.8]), "invalid Pauli label 'xZ' at index 1"),
            (operator_payload(2, ["XZ", "IQ", "ZZ"], [0.6, 0.8, 0.0]), "invalid Pauli label 'IQ' at index 1"),
            (operator_payload(2, ["XZ", "XYZ"], [0.6, 0.8]), "label 'XYZ' at index 1 has 3 letters, not 2"),
            (operator_payload(2, ["X", "ZZZ"], [0.6, 0.8]), "label 'X' at index 0 has 1 letters, not 2"),  # the right length
            # the labels are joined by single spaces, and nothing is stripped
            ({**operator_payload(2, [], [0.6, 0.8]), "labels": "XZ  ZZ"}, "invalid Pauli label '' at index 1"),
            ({**operator_payload(2, [], [1.0]), "labels": " XI"}, "invalid Pauli label '' at index 0"),
            ({**operator_payload(2, [], [1.0]), "labels": "XI "}, "invalid Pauli label '' at index 1"),
            ({**operator_payload(2, [], [0.6, 0.8]), "labels": "XZ\tZZ"}, r"invalid Pauli label 'XZ\\tZZ' at index 0"),
            ({**operator_payload(2, [], [0.6, 0.8]), "labels": "XZ\nZZ"}, r"invalid Pauli label 'XZ\\nZZ' at index 0"),
            # one limit on the qubit count, that of a circuit
            ({**X_PAYLOAD, "n": 10**30}, f"qubit count n must be at most {sys.maxsize}, got {10**30}"),
            ({"n": sys.maxsize + 1, "labels": "", "coeff": ""}, f"qubit count n must be at most {sys.maxsize}, got"),
        ],
    )
    def test_malformed_json_operator(self, data, message):
        with pytest.raises(ValueError, match=message):
            SparseOperator.from_json_dict(data)

    def test_numpy_str_label_is_accepted(self):
        # a str subclass is a string
        op = SparseOperator.from_json_dict({**operator_payload(1, [], [0.6, 0.8]), "labels": np.str_("Z X")})
        assert [p.label() for p in op.terms] == ["X", "Z"] and op.coeff.tolist() == [0.8, 0.6]

    def test_tuple_of_labels_is_rejected(self):
        with pytest.raises(ValueError, match="operator labels must be one string, the labels joined by spaces, got tuple"):
            SparseOperator.from_json_dict({**operator_payload(1, ["X"], [1.0]), "labels": ("X",)})

    def test_bad_label_deep_in_a_long_list_is_named(self):
        # a fault past the first block of rows is found, and named by the
        # index and text of the label it is in
        labels = [PauliString(16, i, 0).label() for i in range(12000)]
        coeffs = np.full(12000, 0.01)
        for bad, message in (
            (labels[10000][:-1] + "Q", f"invalid Pauli label '{labels[10000][:-1]}Q' at index 10000"),
            (labels[10000][:-1], f"label '{labels[10000][:-1]}' at index 10000 has 15 letters, not 16"),
            (" " + labels[10000], "invalid Pauli label '' at index 10000"),
        ):
            data = operator_payload(16, labels[:10000] + [bad] + labels[10001:], coeffs)
            with pytest.raises(ValueError, match=message):
                SparseOperator.from_json_dict(json.loads(json.dumps(data)))

    def test_qubit_count_past_sys_maxsize_is_refused(self):
        # the constructor's limit is that of a circuit, and names n
        with pytest.raises(ValueError, match=f"qubit count n must be at most {sys.maxsize}, got {10**30}"):
            SparseOperator(10**30, {})
        with pytest.raises(ValueError, match=f"qubit count n must be at most {sys.maxsize}, got"):
            SparseOperator(sys.maxsize + 1)
        with pytest.raises(ValueError, match="term size mismatch: label 'XYZ' at index 0 has 3 letters, not 2"):
            SparseOperator(2, {PauliString.from_label("XYZ"): 1.0})

    def test_json_round_trip_bit_identical(self):
        r = math.sqrt(0.5)
        op = from_local(0, r, 0, -r, 3)
        back = SparseOperator.from_json_dict(op.to_json_dict())
        assert back.n_qubits == op.n_qubits and back.terms == op.terms


def canonical_keys(op):
    return [(p.z_mask, p.x_mask) for p in op.terms]


class TestCanonicalOrder:
    """Every operator holds its terms in (z_mask, x_mask) order from construction."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_every_producer_is_canonical(self, seed, n, shuffler):
        rng = np.random.default_rng(seed)
        paulis = sorted({random_pauli(rng, n) for _ in range(4)}, key=lambda p: (p.z_mask, p.x_mask))
        coeffs = rng.normal(size=len(paulis))
        coeffs /= np.linalg.norm(coeffs)
        pairs = list(zip(paulis, coeffs.tolist()))
        shuffler.shuffle(pairs)
        seed_op = SparseOperator(n, dict(pairs))
        circuit = random_mixed_circuit(rng, n, 30)
        evolved = evolve_heisenberg(seed_op, circuit)
        gate = circuit.gates[int(rng.integers(len(circuit)))]
        json_payload = operator_payload(n, [p.label() for p, _ in pairs], [a for _, a in pairs])
        sites = rng.permutation(n).tolist()
        local = rng.normal(size=3)
        unit = [
            seed_op,
            SparseOperator(n, iter(pairs)),
            evolved,
            conjugate_gate(seed_op, gate),
            conjugate_gate(evolved, gate),
            SparseOperator.from_json_dict(json_payload),
            seed_op.tensor(evolved),
            evolved.relabel_sites(dict(enumerate(sites))),
            from_local(sites[0], *(local / np.linalg.norm(local)).tolist(), n),
            commuted_operator(0, n - 1, float(rng.uniform(0.0, math.pi / 4)), "XY"[seed % 2], n),
        ]
        chi = int(rng.integers(1, len(evolved) + 1))
        for op in unit + [truncate_top(evolved, chi).kept, evolved.scaled(-0.5)]:
            assert canonical_keys(op) == sorted(canonical_keys(op))
        for op in unit:
            # bit for bit what squaring a (z_mask, x_mask)-sorted copy of the terms gives
            ordered = sorted(op.terms.items(), key=lambda kv: (kv[0].z_mask, kv[0].x_mask))
            want = np.array([a * a for _, a in ordered], dtype=float)
            assert pauli_probs(op).tobytes() == want.tobytes()


class TestParsePauliText:
    def test_label_form(self):
        p, sign = parse_pauli_text("-XZI")
        assert p.label() == "XZI" and sign == -1.0

    def test_site_tagged_form(self):
        p, sign = parse_pauli_text("X0 X1 X2 X3", 4)
        assert p.label() == "XXXX" and sign == 1.0

    def test_site_tagged_sparse(self):
        p, _ = parse_pauli_text("Z2 Y0", 4)
        assert p.label() == "YIZI"

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_pauli_text("X0 X0", 2)
        with pytest.raises(ValueError):
            parse_pauli_text("Q1", 2)
        with pytest.raises(ValueError):
            parse_pauli_text("XZ", 3)


def uniform_operator(labels):
    a = 1.0 / math.sqrt(len(labels))
    return SparseOperator(
        len(labels[0]), {PauliString.from_label(l): a for l in labels}
    )


class TestTruncation:
    def test_no_discard(self):
        op = SparseOperator.from_pauli(PauliString.from_label("X"))
        res = truncate_top(op, 1)
        assert res.epsilon == 0.0 and res.kept_weight == 1.0
        assert res.kept.terms == op.terms

    def test_half_weight_discarded(self):
        op = uniform_operator(["X", "Y"])
        res = truncate_top(op, 1)
        assert res.epsilon == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_uniform_four_terms(self):
        op = uniform_operator(["XI", "YI", "ZI", "IX"])
        res = truncate_top(op, 3)
        assert res.epsilon == pytest.approx(0.5, abs=1e-12)
        assert len(res.kept) == 3

    def test_errors(self):
        op = SparseOperator.from_pauli(PauliString.from_label("X"))
        with pytest.raises(ValueError):
            truncate_top(op, 0)
        with pytest.raises(ValueError):
            truncate_top(op.scaled(0.5), 1)

    def test_tie_break_is_canonical(self):
        # all-equal amplitudes: kept set follows (z_mask, x_mask) order
        op = uniform_operator(["Y", "Z", "X"])
        res = truncate_top(op, 2)
        assert sorted(p.label() for p in res.kept.terms) == ["X", "Z"]

    def test_deterministic_under_insertion_order(self):
        rng = np.random.default_rng(5)
        labels = [p.label() for p in enumerate_paulis(2)[1:]]
        coeffs = rng.normal(size=len(labels))
        coeffs /= np.linalg.norm(coeffs)
        pairs = list(zip(labels, coeffs))
        ops = []
        for order in (pairs, pairs[::-1], sorted(pairs)):
            ops.append(
                SparseOperator(2, {PauliString.from_label(l): c for l, c in order})
            )
        results = [truncate_top(op, 5) for op in ops]
        for res in results[1:]:
            assert res.kept.terms == results[0].kept.terms
            assert res.epsilon == results[0].epsilon

    @given(
        st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=14).filter(
            lambda cs: sum(c * c for c in cs) > 1e-3
        ),
        st.integers(1, 14),
    )
    @settings(max_examples=100, deadline=None)
    def test_epsilon_equals_discarded_weight_root(self, coeffs, chi):
        norm = math.sqrt(sum(c * c for c in coeffs))
        paulis = enumerate_paulis(2)[1 : 1 + len(coeffs)]
        op = SparseOperator(2, {p: c / norm for p, c in zip(paulis, coeffs)})
        chi = min(chi, max(len(op), 1))
        res = truncate_top(op, chi)
        ranked = sorted((a * a for _, a in op), reverse=True)
        discarded = sum(ranked[chi:])
        assert abs(res.epsilon - math.sqrt(discarded)) < 1e-12
        assert abs(res.epsilon - math.sqrt(max(1.0 - res.kept_weight, 0.0))) < 1e-7
        assert len(res.kept) <= chi

    def test_choi_normalized_variant(self):
        op = uniform_operator(["X", "Y"])
        res = truncate_top(op, 1)
        norm = res.choi_normalized()
        assert norm.l2_weight() == pytest.approx(1.0, abs=1e-12)


class TestTruncationSweep:
    """Every chi's truncation from one weight check and one ranking."""

    def evolved(self):
        t, n = 10, 22
        return evolve_heisenberg(from_local(t, 0.6, 0.0, 0.8, n), xxz_brickwork(n, t, 0.3))

    def test_rows_equal_a_per_chi_truncation(self):
        evolved = self.evolved()
        assert len(evolved) == 1025
        chis = list(range(1, len(evolved) + 3))
        swept = [
            (chi, kept, w.hex(), e.hex(), b.hex())
            for chi, (kept, w, e, b) in zip(chis, truncation_sweep(evolved, chis))
        ]
        looped = []
        for chi in chis:
            res = truncate_top(evolved, chi)
            looped.append((chi, len(res.kept), res.kept_weight.hex(), res.epsilon.hex(),
                           res.state_bound.hex()))
        assert swept == looped

    def test_one_ranking_for_every_chi(self, monkeypatch):
        calls = []
        ranked_cuts = paulis._ranked_cuts
        monkeypatch.setattr(paulis, "_ranked_cuts", lambda *a: calls.append(1) or ranked_cuts(*a))
        assert len(truncation_sweep(self.evolved(), range(1, 1026))) == 1025
        assert len(calls) == 1

    def test_tail_is_summed_from_the_smallest_square_up(self):
        evolved = self.evolved()
        ranked = [a * a for a in sorted(evolved.coeff.tolist(), key=abs, reverse=True)]
        chis = range(1, len(evolved) + 2)
        want = [math.sqrt(sum(reversed(ranked[chi:]))).hex() for chi in chis]
        assert [epsilon.hex() for _, _, epsilon, _ in truncation_sweep(evolved, chis)] == want

    def test_errors(self):
        op = SparseOperator.from_pauli(PauliString.from_label("X"))
        with pytest.raises(ValueError, match="chi must be a positive integer"):
            truncation_sweep(op, [1, 0])
        with pytest.raises(ValueError, match="is not 1"):
            truncation_sweep(op.scaled(0.5), [1])


class TestErrorBound:
    def test_values(self):
        assert expectation_error_bound(0.0) == 0.0
        assert expectation_error_bound(1.0) == 2.0
        assert expectation_error_bound(0.1) == pytest.approx(
            1.0 - math.sqrt(1.0 - 0.01) + 0.1, abs=1e-15
        )
        assert expectation_error_bound(0.1) == pytest.approx(0.10501, abs=5e-6)

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            expectation_error_bound(-0.1)
        with pytest.raises(ValueError):
            expectation_error_bound(1.1)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), gates=st.integers(0, 30))
    def test_bounds_the_normalized_hilbert_schmidt_distance(self, n, seed, gates):
        # ||O - W||_2 / sqrt(D) <= value, W the kept part rescaled to unit
        # weight, from the dense oracle at every chi
        from opmagic.dense import operator_matrix

        rng = np.random.default_rng(seed)
        circuit = random_mixed_circuit(rng, n, gates)
        evolved = evolve_heisenberg(SparseOperator.from_pauli(random_pauli(rng, n)), circuit)
        dense = operator_matrix(evolved)
        for chi in range(1, len(evolved) + 1):
            result = truncate_top(evolved, chi)
            distance = np.linalg.norm(dense - operator_matrix(result.choi_normalized())) / math.sqrt(1 << n)
            assert distance <= expectation_error_bound(result.epsilon) + 1e-12


    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), gates=st.integers(0, 30))
    def test_state_bound_covers_every_state(self, n, seed, gates):
        # the largest |eigenvalue| of O - W, the error of the worst state, is
        # at most state_bound at every chi
        from opmagic.dense import operator_matrix

        rng = np.random.default_rng(seed)
        circuit = random_mixed_circuit(rng, n, gates)
        evolved = evolve_heisenberg(SparseOperator.from_pauli(random_pauli(rng, n)), circuit)
        dense = operator_matrix(evolved)
        for chi in range(1, len(evolved) + 1):
            result = truncate_top(evolved, chi)
            worst = np.abs(np.linalg.eigvalsh(dense - operator_matrix(result.choi_normalized()))).max()
            assert worst <= result.state_bound + 1e-12


class TestTruncationExpectationBound:
    def test_raw_truncation_bound_on_stabilizer_states(self):
        # |tr[(O - kept) rho]| <= bound(eps) for stabilizer rho, raw kept
        from opmagic import evolve_heisenberg
        from opmagic.dense import operator_matrix, random_stabilizer_state
        from conftest import random_mixed_circuit

        rng = np.random.default_rng(11)
        for trial in range(12):
            n = int(rng.integers(2, 5))
            circuit = random_mixed_circuit(rng, n, int(rng.integers(4, 12)))
            seed = SparseOperator.from_pauli(
                single_site_pauli(int(rng.integers(n)), "X", n)
            )
            evolved = evolve_heisenberg(seed, circuit)
            psi = random_stabilizer_state(n, seed=trial)
            dense_full = operator_matrix(evolved)
            for chi in range(1, len(evolved) + 1):
                res = truncate_top(evolved, chi)
                delta = abs(
                    np.vdot(psi, (dense_full - operator_matrix(res.kept)) @ psi).real
                )
                assert delta <= expectation_error_bound(res.epsilon) + 1e-9


def reference_truncation(op, chi):
    """truncate_top over the `terms` view: a sorted copy of the (string, a) pairs."""
    ranked = sorted(op.terms.items(), key=lambda kv: -abs(kv[1]))
    kept = dict(ranked[:chi])
    kept_weight = sum(a * a for a in kept.values())
    epsilon = math.sqrt(sum(a * a for _, a in reversed(ranked[chi:])))
    return sorted(kept.items(), key=lambda kv: (kv[0].z_mask, kv[0].x_mask)), epsilon, kept_weight


@st.composite
def evolved_operators(draw):
    """An evolved unit-weight operator of a seeded mixed circuit, on 1..6
    sites, or shifted by 64 sites to n = 65..70, two 64-bit words."""
    small = draw(st.integers(1, 6))
    shift = draw(st.sampled_from([0, 64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    circuit = random_mixed_circuit(rng, small, draw(st.integers(0, 25)))
    paulis = {random_pauli(rng, small) for _ in range(draw(st.integers(1, 4)))}
    paulis = sorted(paulis, key=lambda p: (p.z_mask, p.x_mask))
    coeffs = rng.normal(size=len(paulis))
    coeffs /= np.linalg.norm(coeffs)
    n = small + shift
    shifted = [PauliString(n, p.x_mask << shift, p.z_mask << shift) for p in paulis]
    seed = SparseOperator(n, dict(zip(shifted, coeffs.tolist())))
    gates = (Gate(g.kind, tuple(s + shift for s in g.sites), g.theta) for g in circuit.gates)
    return evolve_heisenberg(seed, Circuit(n, tuple(gates)))


class TestArrayOperator:
    """The readers reduce the operator's arrays; the `terms` view is the reference."""

    @given(op=evolved_operators(), chi_seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_readers_match_the_terms_view(self, op, chi_seed):
        terms = op.terms
        squares = np.array([a * a for a in terms.values()], dtype=float)
        assert pauli_probs(op).tobytes() == squares.tobytes()
        assert op.support() == {s for p in terms for s in p.support()}
        assert op.to_json_dict() == operator_payload(op.n_qubits, [p.label() for p in terms], list(terms.values()))
        chi = 1 + chi_seed % len(op)
        res = truncate_top(op, chi)
        kept, epsilon, kept_weight = reference_truncation(op, chi)
        assert list(res.kept.terms.items()) == kept
        assert res.epsilon.hex() == epsilon.hex()
        assert res.kept_weight.hex() == kept_weight.hex()

    def test_xxz_json_is_pinned(self):
        # recorded at the dict-held operator that these arrays must reproduce, as
        # the [label, number] text that operators were saved in then
        t, n = 10, 22
        evolved = evolve_heisenberg(from_local(t, 0.6, 0.0, 0.8, n), xxz_brickwork(n, t, 0.3))
        assert len(evolved) == 1025
        terms_text = json.dumps({"n": n, "terms": [[p.label(), a] for p, a in evolved.terms.items()]})
        assert hashlib.sha256(terms_text.encode()).hexdigest() == (
            "d7ad498a4e64da0e84606a157dde5ca63d31b1e446894621e8346b2e0936b023"
        )
        # recorded when the labels became one string: the same `n`, `coeff`
        # and labels, in the same order, as the list of labels before it
        text = json.dumps(evolved.to_json_dict())
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "393b96a8247511cb08abf5967dd477701344c385fc94f13c202df4dc8d551757"
        )
        back = SparseOperator.from_json_dict(json.loads(text))
        for mine, theirs in ((back.xz, evolved.xz), (back.coeff, evolved.coeff)):
            assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
            assert mine.tobytes() == theirs.tobytes()

    def test_evolved_operator_retains_only_its_arrays(self):
        t, n = 14, 30
        seed = from_local(t, 0.6, 0.0, 0.8, n)
        circuit = xxz_brickwork(n, t, 0.3)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            evolved = evolve_heisenberg(seed, circuit)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(evolved) == 16385
        assert retained <= 2 * (evolved.xz.nbytes + evolved.coeff.nbytes)

    def test_repeated_json_label_is_bad_input(self):
        with pytest.raises(ValueError, match="XZ is given twice"):
            SparseOperator.from_json_dict(operator_payload(2, ["XZ", "XZ"], [0.6, 0.8]))

    def test_repeated_pair_is_bad_input(self):
        xz = PauliString.from_label("XZ")
        with pytest.raises(ValueError, match="XZ is given twice"):
            SparseOperator(2, [(xz, 0.6), (PauliString.from_label("ZZ"), 0.1), (xz, 0.8)])

    def test_cuts_at_several_chi_equal_cuts_of_fresh_copies(self):
        t, n = 8, 18
        evolved = evolve_heisenberg(from_local(t, 0.6, 0.0, 0.8, n), xxz_brickwork(n, t, 0.3))
        for chi in (1, 16, 100, 4096, 16):
            res = truncate_top(evolved, chi)
            fresh = truncate_top(SparseOperator._of(n, evolved.xz.copy(), evolved.coeff.copy()), chi)
            assert res.kept.xz.tobytes() == fresh.kept.xz.tobytes()
            assert res.kept.coeff.tobytes() == fresh.kept.coeff.tobytes()
            for name in ("epsilon", "kept_weight", "state_bound"):
                assert getattr(res, name).hex() == getattr(fresh, name).hex()
        with pytest.raises(ValueError):
            evolved._order[0] = 1

    def test_operator_is_read_only(self):
        op = from_local(0, 0.6, 0.0, 0.8, 2)
        with pytest.raises(ValueError):
            op.coeff[0] = 1.0
        with pytest.raises(TypeError):
            op.terms[PauliString.from_label("XI")] = 1.0


def dict_scaled(op, factor):
    """`scaled` as it was before the array maps: through the terms dict."""
    return SparseOperator(op.n_qubits, {p: a * factor for p, a in op.terms.items()})


def label_tensor(a, b):
    """`tensor` as it was before the array maps: label strings pair by pair."""
    n = a.n_qubits + b.n_qubits
    mine = zip(paulis._label_text(a.n_qubits, a.xz).split(), a.coeff.tolist())
    theirs = list(zip(paulis._label_text(b.n_qubits, b.xz).split(), b.coeff.tolist()))
    pairs = [(p + q, x * y) for p, x in mine for q, y in theirs]
    xz = paulis._xz_of_labels(n, " ".join(p for p, _ in pairs), len(pairs))
    return SparseOperator._of(n, *paulis._canonical(n, xz, np.array([c for _, c in pairs])))


def dict_relabel_sites(op, mapping):
    """`relabel_sites` as it was before the array maps: bit by bit on the masks."""
    out = {}
    for p, a in op.terms.items():
        x = z = 0
        for s in range(op.n_qubits):
            t = mapping.get(s, s)
            x |= ((p.x_mask >> s) & 1) << t
            z |= ((p.z_mask >> s) & 1) << t
        out[PauliString(op.n_qubits, x, z)] = a
    assert len(out) == len(op)
    return SparseOperator(op.n_qubits, out)


def random_operator(rng, n, rank, sites=None):
    """`rank` distinct strings (fewer if n is too small) with normal
    coefficients, their letters on `sites` (all sites by default)."""
    sites = range(n) if sites is None else sites
    terms = {}
    for _ in range(rank):
        x = z = 0
        for s in sites:
            x |= int(rng.integers(2)) << s
            z |= int(rng.integers(2)) << s
        terms[PauliString(n, x, z)] = float(rng.normal())
    return SparseOperator(n, terms)


def assert_same_arrays(mine, theirs):
    assert mine.n_qubits == theirs.n_qubits
    assert mine.xz.shape == theirs.xz.shape and mine.xz.tobytes() == theirs.xz.tobytes()
    assert mine.coeff.tobytes() == theirs.coeff.tobytes()


class TestArrayMaps:
    """`scaled`, `tensor` and `relabel_sites` on the words equal the dict and
    label maps they replaced, bit for bit, past one 64-site word."""

    SIZES = (1, 7, 63, 64, 65, 70)

    @pytest.mark.parametrize("n", SIZES)
    def test_scaled(self, n):
        rng = np.random.default_rng(n)
        for rank in range(41):
            op = random_operator(rng, n, rank)
            for factor in (-0.5, 1.0, 3.7, float(rng.normal()), 0.0, 1e-15, 1e-14):
                assert_same_arrays(op.scaled(factor), dict_scaled(op, factor))

    @pytest.mark.parametrize("n", SIZES)
    def test_scaled_by_nan_names_the_first_string(self, n):
        op = random_operator(np.random.default_rng(n), n, 5)
        with pytest.raises(ValueError) as theirs:
            dict_scaled(op, math.nan)
        with pytest.raises(ValueError, match=r"coefficient of [IXYZ]+ is not finite: nan") as mine:
            op.scaled(math.nan)
        assert str(mine.value) == str(theirs.value)

    @pytest.mark.parametrize("n, m", [(1, 1), (7, 63), (64, 1), (1, 64), (40, 40), (65, 70), (63, 7)])
    def test_tensor(self, n, m):
        rng = np.random.default_rng(100 * n + m)
        for ra, rb in ((0, 3), (3, 0), (1, 1), (40, 40), (17, 5)) + tuple(
            tuple(rng.integers(0, 41, 2).tolist()) for _ in range(4)
        ):
            a, b = random_operator(rng, n, ra), random_operator(rng, m, rb)
            assert_same_arrays(a.tensor(b), label_tensor(a, b))
        tiny = random_operator(rng, m, 6).scaled(1e-8)
        assert_same_arrays(tiny.tensor(tiny), label_tensor(tiny, tiny))  # products pruned

    @pytest.mark.parametrize("n", SIZES)
    def test_relabel_sites(self, n):
        rng = np.random.default_rng(1000 + n)
        for rank in range(41):
            # letters on some sites; the map is injective there, anything elsewhere
            support = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
            op = random_operator(rng, n, rank, support)
            targets = rng.choice(n, size=len(support), replace=False).tolist()
            mapping = dict(zip(support, targets))
            for s in range(n):
                if s not in mapping and rng.random() < 0.5:
                    mapping[s] = int(rng.integers(n))
            assert_same_arrays(op.relabel_sites(mapping), dict_relabel_sites(op, mapping))
            perm = rng.permutation(n).tolist()
            assert_same_arrays(op.relabel_sites(dict(enumerate(perm))),
                               dict_relabel_sites(op, dict(enumerate(perm))))
        if n > 1:  # bool sites count as 0 and 1
            op = random_operator(rng, n, 9, [0, 1])
            assert_same_arrays(op.relabel_sites({0: True, 1: False}), dict_relabel_sites(op, {0: True, 1: False}))

    def test_a_map_that_merges_two_support_sites_is_rejected(self):
        xzi = SparseOperator.from_pauli(PauliString.from_label("XZI"))
        with pytest.raises(ValueError, match="site relabeling is not injective on the support"):
            xzi.relabel_sites({1: 0})  # X at 0 and Z at 1 would OR into Y
        r = math.sqrt(0.5)
        two = SparseOperator(3, {PauliString.from_label("XZI"): r, PauliString.from_label("XXI"): r})
        with pytest.raises(ValueError, match="site relabeling is not injective on the support"):
            two.relabel_sites({1: 0})

    def test_a_target_out_of_range_is_rejected_for_an_empty_operator(self):
        with pytest.raises(ValueError, match="site 3 out of range"):
            SparseOperator(3).relabel_sites({0: 3})
        with pytest.raises(ValueError, match="site -1 out of range"):
            SparseOperator.from_pauli(PauliString.from_label("IX")).relabel_sites({0: -1})
