import hashlib
import math

import numpy as np
import pytest

from opmagic import (
    Circuit,
    Gate,
    PauliString,
    SparseOperator,
    enumerate_paulis,
    random_clifford_circuit,
    single_site_pauli,
)
from opmagic.dense import (
    avg_linear_ose,
    circuit_unitary,
    pauli_coefficients,
    pauli_matrix,
    pauli_spectrum,
    ptm,
    random_stabilizer_state,
    stabilizer_nullity,
    state_sre,
    state_stabilizer_purity,
)
from conftest import dense_from_label, random_mixed_circuit


class TestCircuitUnitary:
    def test_empty_is_identity(self):
        np.testing.assert_allclose(circuit_unitary(Circuit(2, ())), np.eye(4))

    def test_hadamard(self):
        u = circuit_unitary(Circuit(1, (Gate("H", (0,)),)))
        want = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        np.testing.assert_allclose(u, want, atol=1e-12)

    def test_gate_order(self):
        # circuit [H, S]: matrix S @ H
        u = circuit_unitary(Circuit(1, (Gate("H", (0,)), Gate("S", (0,)))))
        h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        s = np.diag([1, 1j])
        np.testing.assert_allclose(u, s @ h, atol=1e-12)

    def test_unitarity_random(self):
        rng = np.random.default_rng(31)
        c = random_mixed_circuit(rng, 4, 20)
        u = circuit_unitary(c)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(16), atol=1e-10)

    def test_qubit_cap(self):
        with pytest.raises(ValueError):
            circuit_unitary(Circuit(7, ()))

    # sha256 of circuit_unitary(random_mixed_circuit(default_rng(n), n, 40)).tobytes(),
    # recorded with each gate embedded as a full 2^n x 2^n matrix and multiplied in
    @pytest.mark.parametrize(
        "n, digest",
        [
            (1, "74d5e90b77c57334fc026fc645ed4c907189d49e4b8ae19a74f0ff8db86b29dc"),
            (2, "304547b6bed816a4df53394cc9df5fbd5511a4293ca8ed61cdc89aa48b3208b1"),
            (3, "835e2db74541ca675957faef5eed72eb8e4e48640863c237f542f12be23c9464"),
            (4, "6ad27a79ee82bae2c210df512dfc91ef6a81fbf8e3c0f5cf8fbb7ba2d83c684e"),
            (5, "ed3d027731033d28eab6cb212a082d68d30c525240d02ee9955eb874f11f6926"),
            (6, "450487b8ac28127866e9b792b753d2abd3ce3e325c5367110396715c874d6be7"),
        ],
    )
    def test_pinned_bit_for_bit(self, n, digest):
        u = circuit_unitary(random_mixed_circuit(np.random.default_rng(n), n, 40))
        assert hashlib.sha256(u.tobytes()).hexdigest() == digest

    def test_xxz_brick_matches_interaction_exponential(self):
        from opmagic.xxz import two_site_unitary, xxz_brick

        for j in (0.0, 0.3, math.pi / 8, math.pi / 4):
            brick = circuit_unitary(Circuit(2, xxz_brick(j)))
            target = two_site_unitary(j)
            # align global phase on the largest entry
            idx = np.unravel_index(np.argmax(np.abs(target)), target.shape)
            phase = target[idx] / brick[idx]
            assert abs(abs(phase) - 1.0) < 1e-10
            np.testing.assert_allclose(brick * phase, target, atol=1e-10)


class TestPauliMatrixAndCoefficients:
    def test_matrix_matches_label_builder(self):
        for label in ("XZ", "IY", "YXZ"):
            np.testing.assert_allclose(
                pauli_matrix(PauliString.from_label(label)), dense_from_label(label)
            )

    def test_coefficients_pick_out_terms(self):
        # the kron-built pauli_matrix is the reference: checks the i^|x & z|
        # phase and the bit reversal into canonical order at every size
        rng = np.random.default_rng(37)
        for n in range(1, 7):
            paulis = enumerate_paulis(n)
            real = rng.normal(size=len(paulis))
            for coeffs in (real, real + 1j * rng.normal(size=len(paulis))):
                matrix = sum(c * pauli_matrix(p) for c, p in zip(coeffs, paulis))
                got = pauli_coefficients(matrix, n)
                np.testing.assert_allclose(got, coeffs, rtol=0, atol=1e-12)

    def test_coefficients_reject_wrong_shape(self):
        with pytest.raises(ValueError, match="shape"):
            pauli_coefficients(np.eye(4, dtype=complex), 3)
        with pytest.raises(ValueError, match="shape"):
            pauli_coefficients(np.zeros((4, 8), dtype=complex), 2)
        with pytest.raises(ValueError, match="shape"):
            pauli_coefficients(np.zeros((3, 4, 8), dtype=complex), 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stacked_coefficients_equal_per_matrix_calls(self, n):
        rng = np.random.default_rng(41 + n)
        dim = 1 << n
        stack = rng.normal(size=(2, 3, dim, dim)) + 1j * rng.normal(size=(2, 3, dim, dim))
        got = pauli_coefficients(stack, n)
        assert got.shape == (2, 3, 4**n)
        for i in range(2):
            for j in range(3):
                np.testing.assert_array_equal(got[i, j], pauli_coefficients(stack[i, j], n))


class TestPauliSpectrum:
    def test_identity_circuit(self):
        seed = SparseOperator.from_pauli(single_site_pauli(0, "X", 2))
        spec = pauli_spectrum(np.eye(4, dtype=complex), seed)
        want = np.zeros(16)
        want[1] = 1.0  # canonical index of XI
        np.testing.assert_allclose(spec, want, atol=1e-12)

    def test_t_gate(self):
        seed = SparseOperator.from_pauli(PauliString.from_label("X"))
        u = circuit_unitary(Circuit(1, (Gate("T", (0,)),)))
        spec = pauli_spectrum(u, seed)
        # canonical order I, X, Z, Y
        assert spec[1] == pytest.approx(math.cos(math.pi / 4), abs=1e-12)
        assert spec[3] == pytest.approx(-math.sin(math.pi / 4), abs=1e-12)

    def test_clifford_single_unit_entry(self):
        u = circuit_unitary(random_clifford_circuit(3, 27, seed=41))
        seed = SparseOperator.from_pauli(single_site_pauli(1, "Z", 3))
        spec = pauli_spectrum(u, seed)
        assert np.sum(np.abs(np.abs(spec) - 1.0) < 1e-10) == 1
        assert np.sum(np.abs(spec) > 1e-10) == 1

    def test_unit_square_sum(self):
        rng = np.random.default_rng(43)
        c = random_mixed_circuit(rng, 3, 15)
        seed = SparseOperator.from_pauli(single_site_pauli(0, "Y", 3))
        spec = pauli_spectrum(circuit_unitary(c), seed)
        assert np.sum(spec * spec) == pytest.approx(1.0, abs=1e-10)


class TestNullity:
    def test_clifford_is_zero(self):
        for seed in range(3):
            u = circuit_unitary(random_clifford_circuit(2, 12, seed=seed))
            report = stabilizer_nullity(u)
            assert report.nu == 0.0
            assert report.s_count == 16

    def test_single_t(self):
        u = circuit_unitary(Circuit(1, (Gate("T", (0,)),)))
        report = stabilizer_nullity(u)
        assert report.s_count == 2 and report.nu == 1.0

    def test_t_tensor_t_additivity(self):
        u = circuit_unitary(Circuit(2, (Gate("T", (0,)), Gate("T", (1,)))))
        report = stabilizer_nullity(u)
        assert report.s_count == 4 and report.nu == 2.0

    def test_qubit_cap(self):
        with pytest.raises(ValueError):
            stabilizer_nullity(np.eye(32, dtype=complex))

    def test_nullity_bounds_avg_linear_ose(self):
        rng = np.random.default_rng(47)
        for _ in range(8):
            n = int(rng.integers(1, 4))
            c = random_mixed_circuit(rng, n, int(rng.integers(1, 14)))
            u = circuit_unitary(c)
            nu = stabilizer_nullity(u).nu
            assert avg_linear_ose(u, alpha=2) <= 1.0 - 2.0**-nu + 1e-9

    # every PTM row of a Clifford holds one +-1, so each Renyi limit gives 0
    def test_avg_linear_ose_alpha_zero_on_clifford(self):
        u = circuit_unitary(Circuit(2, (Gate("H", (0,)), Gate("CNOT", (0, 1)))))
        assert avg_linear_ose(u, 0) == pytest.approx(0.0, abs=1e-12)

    def test_avg_linear_ose_alpha_inf_on_clifford(self):
        u = circuit_unitary(Circuit(2, (Gate("H", (0,)), Gate("CNOT", (0, 1)))))
        assert avg_linear_ose(u, math.inf) == pytest.approx(0.0, abs=1e-12)


class TestPtm:
    def test_orthogonal(self):
        rng = np.random.default_rng(53)
        u = circuit_unitary(random_mixed_circuit(rng, 2, 10))
        c = ptm(u)
        np.testing.assert_allclose(c @ c.T, np.eye(16), atol=1e-10)

    def test_identity_row_and_column(self):
        rng = np.random.default_rng(59)
        u = circuit_unitary(random_mixed_circuit(rng, 2, 10))
        c = ptm(u)
        np.testing.assert_allclose(c[0], np.eye(16)[0], atol=1e-12)
        np.testing.assert_allclose(c[:, 0], np.eye(16)[0], atol=1e-12)


class TestStateSre:
    def test_clifford_output_is_zero(self):
        u = circuit_unitary(random_clifford_circuit(2, 12, seed=6))
        zero = np.zeros(4, dtype=complex)
        zero[0] = 1.0
        assert state_sre(u, zero, 2) == pytest.approx(0.0, abs=1e-10)

    def test_identity_on_zero_state(self):
        zero = np.zeros(2, dtype=complex)
        zero[0] = 1.0
        for alpha in (1, 2, 3):
            assert state_sre(np.eye(2, dtype=complex), zero, alpha) == pytest.approx(0.0, abs=1e-12)

    def test_magic_state_is_positive(self):
        # H then T on |0> gives the |H> magic state
        u = circuit_unitary(Circuit(1, (Gate("H", (0,)), Gate("T", (0,)))))
        zero = np.array([1.0, 0.0], dtype=complex)
        assert state_sre(u, zero, 2) > 0.1

    def test_alpha_limits_consistent(self):
        u = circuit_unitary(Circuit(1, (Gate("H", (0,)), Gate("T", (0,)))))
        zero = np.array([1.0, 0.0], dtype=complex)
        h = 1e-4
        mid = state_sre(u, zero, 1)
        near = (state_sre(u, zero, 1 - h) + state_sre(u, zero, 1 + h)) / 2
        assert mid == pytest.approx(near, abs=1e-6)


class TestRandomStabilizerState:
    def test_reproducible(self):
        a = random_stabilizer_state(3, seed=9)
        b = random_stabilizer_state(3, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_single_qubit_orbit(self):
        # every draw is one of the 6 single-qubit stabilizer states
        targets = []
        for vec in ([1, 0], [0, 1], [1, 1], [1, -1], [1, 1j], [1, -1j]):
            v = np.array(vec, dtype=complex)
            targets.append(v / np.linalg.norm(v))
        for seed in range(12):
            psi = random_stabilizer_state(1, seed=seed)
            overlaps = [abs(np.vdot(t, psi)) for t in targets]
            assert max(overlaps) == pytest.approx(1.0, abs=1e-10)

    def test_outputs_are_stabilizer(self):
        for seed in range(5):
            psi = random_stabilizer_state(3, seed=seed)
            assert state_stabilizer_purity(psi, 2) == pytest.approx(1.0, abs=1e-10)

    def test_purity_at_alpha_zero_is_one_on_zero_state(self):
        # four strings (II, IZ, ZI, ZZ) have <P> = 1, over D = 4
        zero = np.zeros(4, dtype=complex)
        zero[0] = 1.0
        assert state_stabilizer_purity(zero, 0) == pytest.approx(1.0, abs=1e-12)

    def test_purity_rejects_alpha_inf(self):
        psi = random_stabilizer_state(3, seed=0)
        with pytest.raises(ValueError, match="state_sre"):
            state_stabilizer_purity(psi, math.inf)


class TestAvgLinearSre:
    def test_clifford_average_is_zero(self):
        from opmagic.dense import avg_linear_sre

        u = circuit_unitary(random_clifford_circuit(2, 12, seed=8))
        assert avg_linear_sre(u, 6, seed=1) == pytest.approx(0.0, abs=1e-10)

    def test_t_layer_average_is_positive(self):
        from opmagic.dense import avg_linear_sre

        u = circuit_unitary(Circuit(2, (Gate("T", (0,)), Gate("T", (1,)))))
        assert avg_linear_sre(u, 10, seed=2) > 0.05

    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_sample_count_below_one_is_named(self, n_samples):
        from opmagic.dense import avg_linear_sre

        u = circuit_unitary(Circuit(1, (Gate("T", (0,)),)))
        with pytest.raises(ValueError, match=f"n_samples must be at least 1, got {n_samples}"):
            avg_linear_sre(u, n_samples)
