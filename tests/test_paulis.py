import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opmagic import (
    PauliString,
    SparseOperator,
    commuted_operator,
    commutes,
    conjugate_gate,
    enumerate_paulis,
    evolve_heisenberg,
    expectation_error_bound,
    from_local,
    parse_pauli_text,
    pauli_mul,
    pauli_probs,
    single_site_pauli,
    truncate_top,
)
from conftest import dense_from_label, random_mixed_circuit, random_pauli


def mask_pair(n):
    return st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1))


def strings(n):
    return mask_pair(n).map(lambda xz: PauliString(n, xz[0], xz[1]))


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

    def test_letter_bit_encoding(self):
        p = PauliString.from_label("IXZY")
        assert [p.letter(i) for i in range(4)] == ["I", "X", "Z", "Y"]
        assert p.x_mask == 0b1010 and p.z_mask == 0b1100

    def test_weight_and_support(self):
        p = PauliString.from_label("IXIY")
        assert p.weight == 2
        assert p.support() == frozenset({1, 3})

    def test_ordering_is_z_major(self):
        ordered = sorted([PauliString.from_label(l) for l in ("Y", "Z", "I", "X")])
        assert [p.label() for p in ordered] == ["I", "X", "Z", "Y"]


class TestPauliMul:
    def test_xz_is_minus_i_y(self):
        phase, r = pauli_mul(PauliString.from_label("X"), PauliString.from_label("Z"))
        assert phase == -1j and r.label() == "Y"

    def test_involution(self):
        z = PauliString.from_label("Z")
        phase, r = pauli_mul(z, z)
        assert phase == 1 and r.is_identity

    def test_disjoint_support(self):
        phase, r = pauli_mul(PauliString.from_label("XI"), PauliString.from_label("IZ"))
        assert phase == 1 and r.label() == "XZ"

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            pauli_mul(PauliString.from_label("X"), PauliString.from_label("XX"))

    @pytest.mark.parametrize("n", [1, 2])
    def test_exhaustive_against_dense(self, n):
        strings_n = enumerate_paulis(n)
        for p in strings_n:
            for q in strings_n:
                phase, r = pauli_mul(p, q)
                want = dense_from_label(p.label()) @ dense_from_label(q.label())
                np.testing.assert_allclose(
                    phase * dense_from_label(r.label()), want, atol=1e-12
                )

    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(strings(n), strings(n))))
    @settings(max_examples=150, deadline=None)
    def test_random_pairs_against_dense(self, pq):
        p, q = pq
        phase, r = pauli_mul(p, q)
        want = dense_from_label(p.label()) @ dense_from_label(q.label())
        assert np.max(np.abs(phase * dense_from_label(r.label()) - want)) < 1e-12

    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(strings(n), strings(n), strings(n))))
    @settings(max_examples=100, deadline=None)
    def test_associative(self, pqr):
        p, q, r = pqr
        ph1, pq = pauli_mul(p, q)
        ph2, left = pauli_mul(pq, r)
        ph3, qr = pauli_mul(q, r)
        ph4, right = pauli_mul(p, qr)
        assert left == right and ph1 * ph2 == ph3 * ph4


class TestCommutes:
    def test_single_qubit_anticommutation(self):
        assert not commutes(PauliString.from_label("X"), PauliString.from_label("Z"))

    def test_two_anticommuting_sites_cancel(self):
        assert commutes(PauliString.from_label("XZ"), PauliString.from_label("ZX"))

    def test_identity_commutes(self):
        p = PauliString.from_label("XYZ")
        assert commutes(p, PauliString.identity(3))

    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(strings(n), strings(n))))
    @settings(max_examples=150, deadline=None)
    def test_against_dense_commutator(self, pq):
        p, q = pq
        a = dense_from_label(p.label())
        b = dense_from_label(q.label())
        dense_commutes = np.max(np.abs(a @ b - b @ a)) < 1e-12
        assert commutes(p, q) == dense_commutes


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
        with pytest.raises(ValueError, match="not finite"):
            SparseOperator.from_json_dict({"n": 1, "terms": [["Z", 1.0], ["X", bad]]})

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"n": 1}, "missing the field 'terms'"),
            ([1], "JSON object"),
            ({"n": 2.7, "terms": [["XX", 1.0]]}, "qubit count n must be an integer"),
            ({"n": True, "terms": [["X", 1.0]]}, "qubit count n must be an integer"),
            ({"n": 1, "terms": "X"}, "operator terms must be a list"),
            ({"n": 1, "terms": {"X": 1.0}}, "operator terms must be a list"),
            ({"n": 1, "terms": [["X"]]}, "operator terms must be"),
            ({"n": 1, "terms": [["X", "1.0"]]}, "operator terms must be"),
            ({"n": 1, "terms": [["X", True]]}, "operator terms must be"),
            ({"n": 1, "terms": [[1, 1.0]]}, "operator terms must be"),
        ],
    )
    def test_malformed_json_operator(self, data, message):
        with pytest.raises(ValueError, match=message):
            SparseOperator.from_json_dict(data)

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
        paulis = sorted({random_pauli(rng, n) for _ in range(4)})
        coeffs = rng.normal(size=len(paulis))
        coeffs /= np.linalg.norm(coeffs)
        pairs = list(zip(paulis, coeffs.tolist()))
        shuffler.shuffle(pairs)
        seed_op = SparseOperator(n, dict(pairs))
        circuit = random_mixed_circuit(rng, n, 30)
        evolved = evolve_heisenberg(seed_op, circuit)
        gate = circuit.gates[int(rng.integers(len(circuit)))]
        json_terms = [[p.label(), a] for p, a in pairs]
        sites = rng.permutation(n).tolist()
        local = rng.normal(size=3)
        unit = [
            seed_op,
            SparseOperator(n, iter(pairs)),
            evolved,
            conjugate_gate(seed_op, gate),
            conjugate_gate(evolved, gate),
            SparseOperator.from_json_dict({"n": n, "terms": json_terms}),
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
