import math

import numpy as np
import pytest

from opmagic import (
    Circuit,
    Gate,
    PauliString,
    SparseOperator,
    evolve_heisenberg,
    ose,
    pauli_probs,
    purity,
    random_clifford_circuit,
    single_site_pauli,
    t_count_lower_bound,
)
from opmagic.measures import PROB_FLOOR, renyi_entropy, renyi_purity
from conftest import operator_from_spectrum, random_mixed_circuit, random_pauli

ALPHAS = (0, 0.5, 1, 2, 3, math.inf)


def uniform_op(n_terms, n=4):
    from opmagic.paulis import enumerate_paulis

    a = 1.0 / math.sqrt(n_terms)
    return SparseOperator(n, {p: a for p in enumerate_paulis(n)[1 : 1 + n_terms]})


def t_ladder(tau):
    seed = SparseOperator.from_pauli(PauliString.from_label("X" * tau))
    circuit = Circuit(tau, tuple(Gate("T", (q,)) for q in range(tau)))
    return evolve_heisenberg(seed, circuit), seed


class TestPauliProbs:
    def test_single_pauli(self):
        probs = pauli_probs(SparseOperator.from_pauli(PauliString.from_label("X")))
        assert probs.tolist() == [1.0]

    def test_single_t(self):
        evolved, _ = t_ladder(1)
        assert sorted(pauli_probs(evolved)) == pytest.approx([0.5, 0.5])

    def test_non_normalized_rejected(self):
        op = SparseOperator.from_pauli(PauliString.from_label("X"), 0.9)
        with pytest.raises(ValueError):
            pauli_probs(op)


class TestPurity:
    def test_pauli_is_pure(self):
        assert purity(SparseOperator.from_pauli(PauliString.from_label("X")), 2) == 1.0

    def test_uniform_two_terms(self):
        assert purity(uniform_op(2), 2) == pytest.approx(0.5)

    def test_uniform_scaling_law(self):
        for tau in (1, 2, 3):
            for alpha in (2, 3, 0.7):
                assert purity(uniform_op(2**tau), alpha) == pytest.approx(
                    2.0 ** (tau * (1 - alpha))
                )

    def test_alpha_zero_routes_to_rank(self):
        assert purity(uniform_op(8), 0) == 8.0
        assert purity(uniform_op(8), -1) == 8.0


class TestRenyiLimits:
    PROBS = np.array([0.5, 0.25, 0.25, PROB_FLOOR, 0.0])

    def test_alpha_zero_counts_above_floor(self):
        assert renyi_purity(self.PROBS, 0) == 3.0
        assert renyi_entropy(self.PROBS, 0) == math.log2(3)

    def test_alpha_inf_is_max(self):
        assert renyi_purity(self.PROBS, math.inf) == 0.5
        assert renyi_entropy(self.PROBS, math.inf) == 1.0

    def test_finite_alpha_sums_the_whole_vector(self):
        assert renyi_purity(self.PROBS, 2) == float(np.sum(self.PROBS**2))
        assert renyi_entropy(self.PROBS, 1) == 1.5

    @pytest.mark.parametrize("alpha", [-1, -0.5, -math.inf])
    def test_negative_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="non-negative"):
            renyi_purity(self.PROBS, alpha)
        with pytest.raises(ValueError, match="non-negative"):
            renyi_entropy(self.PROBS, alpha)

    def test_large_index_does_not_underflow(self):
        # 0.6^2000 + 0.4^2000 underflows to 0, so the direct sum gives log2(0)
        value = renyi_entropy([0.6, 0.4], 2000)
        assert math.isfinite(value)
        assert abs(value - 2000 * math.log2(0.6) / (1 - 2000)) < 1e-12

    def test_large_index_lies_between_its_neighbours(self):
        seed = SparseOperator(
            3, {PauliString.from_label("XXZ"): 0.6, PauliString.from_label("YZI"): 0.8}
        )
        evolved = evolve_heisenberg(seed, random_mixed_circuit(np.random.default_rng(5), 3, 30))
        probs = pauli_probs(evolved)
        assert np.sum(probs**2000) == 0.0
        h = renyi_entropy(probs, 2000)
        assert renyi_entropy(probs, math.inf) <= h <= renyi_entropy(probs, 2)


# float.hex of (purity, ose, linear_ose) per index, recorded before the
# Renyi limits moved behind renyi_purity, on random_mixed_circuit(
# default_rng(2), 5, 40) from the seed 0.6 XIIIZ + 0.8 YIIII (rank 24).
OSE_PINS = {
    0: ("0x1.8000000000000p+4", "0x1.cae00d1cfdeb4p+1", "-0x1.7000000000000p+4"),
    0.5: ("0x1.8b06339b89740p+1", "0x1.23ef5211a678ep+1", "-0x1.0b06339b89740p+1"),
    1: ("0x1.0000000000001p+0", "0x1.7f5c8fd6e7a13p+0", "-0x1.0000000000000p-52"),
    2: ("0x1.26a0513b934e9p-2", "0x1.cff2ee3fc2d43p-1", "0x1.6cafd7623658cp-1"),
    3: ("0x1.cf1f351530dd4p-4", "0x1.731233776ef1bp-1", "0x1.c61c195d59e46p-1"),
    math.inf: ("0x1.d3ac07358a076p-2", "0x1.f2793ce8edec8p-2", "0x1.1629fc653afc5p-1"),
}


def test_ose_pinned_per_index():
    circuit = random_mixed_circuit(np.random.default_rng(2), 5, 40)
    seed = SparseOperator(
        5, {PauliString.from_label("XIIIZ"): 0.6, PauliString.from_label("YIIII"): 0.8}
    )
    evolved = evolve_heisenberg(seed, circuit)
    for alpha, pins in OSE_PINS.items():
        rep = ose(evolved, seed, alpha)
        assert (rep.purity.hex(), rep.ose.hex(), rep.linear_ose.hex()) == pins
        assert rep.rank == 24


class TestOse:
    def test_clifford_evolution_is_zero(self):
        seed = SparseOperator.from_pauli(PauliString.from_label("XIZ"))
        circuit = random_clifford_circuit(3, 27, seed=3)
        evolved = evolve_heisenberg(seed, circuit)
        for alpha in ALPHAS:
            assert ose(evolved, seed, alpha).ose == 0.0

    @pytest.mark.parametrize("tau", [1, 2, 3, 4])
    def test_t_ladder_saturates_at_tau(self, tau):
        evolved, seed = t_ladder(tau)
        for alpha in ALPHAS:
            assert ose(evolved, seed, alpha).ose == pytest.approx(tau, abs=1e-12)

    def test_bounded_by_2n(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            circuit = random_mixed_circuit(rng, n, 12)
            seed = SparseOperator.from_pauli(single_site_pauli(0, "X", n))
            evolved = evolve_heisenberg(seed, circuit)
            for alpha in ALPHAS:
                assert ose(evolved, seed, alpha).ose <= 2 * n + 1e-12

    def test_renyi_hierarchy_for_pauli_seeds(self):
        rng = np.random.default_rng(13)
        grid = [0, 0.5, 1, 2, 3, 5, math.inf]
        for _ in range(8):
            n = int(rng.integers(2, 5))
            circuit = random_mixed_circuit(rng, n, 12)
            seed = SparseOperator.from_pauli(single_site_pauli(0, "X", n))
            evolved = evolve_heisenberg(seed, circuit)
            values = [ose(evolved, seed, a).ose for a in grid]
            for lo, hi in zip(values, values[1:]):
                assert hi <= lo + 1e-10

    def test_alpha_one_matches_finite_difference(self):
        evolved, seed = t_ladder(3)
        exact = ose(evolved, seed, 1).ose
        h = 1e-4
        probs = pauli_probs(evolved)
        approx = (renyi_entropy(probs, 1 - h) + renyi_entropy(probs, 1 + h)) / 2
        assert exact == pytest.approx(approx, abs=1e-6)

    def test_report_fields(self):
        evolved, seed = t_ladder(2)
        rep = ose(evolved, seed, 2)
        assert rep.rank == 4
        assert rep.support_size == 2
        assert rep.linear_ose == pytest.approx(1.0 - rep.purity)
        assert rep.purity == pytest.approx(0.25)
        d = rep.to_json_dict()
        assert d["alpha"] == 2 and d["rank"] == 4

    def test_inf_alpha_serialization(self):
        evolved, seed = t_ladder(1)
        assert ose(evolved, seed, math.inf).to_json_dict()["alpha"] == "inf"

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            ose(
                SparseOperator.from_pauli(PauliString.from_label("X")),
                SparseOperator.from_pauli(PauliString.from_label("XX")),
                2,
            )


class TestMonotoneAxioms:
    def test_clifford_stability(self):
        rng = np.random.default_rng(17)
        for trial in range(6):
            n = int(rng.integers(2, 5))
            base = random_mixed_circuit(rng, n, 10)
            cliff = random_clifford_circuit(n, 3 * n * n, seed=trial)
            seed = SparseOperator.from_pauli(single_site_pauli(0, "X", n))
            reference = ose(evolve_heisenberg(seed, base), seed, 2).ose
            pre = ose(evolve_heisenberg(seed, cliff + base), seed, 2).ose
            post = ose(
                evolve_heisenberg(evolve_heisenberg(seed, base), cliff), seed, 2
            ).ose
            assert pre == pytest.approx(reference, abs=1e-10)
            assert post == pytest.approx(reference, abs=1e-10)

    def test_additivity(self):
        rng = np.random.default_rng(19)
        for _ in range(6):
            na, nb = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            ca = random_mixed_circuit(rng, na, 8)
            cb = random_mixed_circuit(rng, nb, 8)
            sa = SparseOperator.from_pauli(single_site_pauli(0, "X", na))
            sb = SparseOperator.from_pauli(single_site_pauli(0, "Y", nb))
            ea, eb = evolve_heisenberg(sa, ca), evolve_heisenberg(sb, cb)
            for alpha in (1, 2, 3):
                lhs = ose(ea.tensor(eb), sa.tensor(sb), alpha).ose
                rhs = ose(ea, sa, alpha).ose + ose(eb, sb, alpha).ose
                assert lhs == pytest.approx(rhs, abs=1e-10)


class TestTCountBound:
    def test_pure_clifford_is_zero(self):
        seed = SparseOperator.from_pauli(PauliString.from_label("XZ"))
        circuit = random_clifford_circuit(2, 12, seed=4)
        evolved = evolve_heisenberg(seed, circuit)
        assert t_count_lower_bound(evolved, seed, 2) == 0.0

    def test_single_t_is_tight(self):
        seed = SparseOperator.from_pauli(PauliString.from_label("X"))
        evolved = evolve_heisenberg(seed, Circuit(1, (Gate("T", (0,)),)))
        assert t_count_lower_bound(evolved, seed, 2) == pytest.approx(1.0, abs=1e-12)

    def test_haar_like_two_qubit_average(self):
        # mean over Haar samples exceeds log2(14/3) ~ 2.222
        from opmagic.dense import pauli_spectrum
        from opmagic.haar import sample_haar_unitary

        rng = np.random.default_rng(23)
        seed = SparseOperator.from_pauli(single_site_pauli(0, "X", 2))
        values = []
        for _ in range(300):
            u = sample_haar_unitary(4, rng)
            evolved = operator_from_spectrum(pauli_spectrum(u, seed), 2)
            values.append(t_count_lower_bound(evolved, seed, 2))
        assert np.mean(values) > 2.22

    def test_non_pauli_seed_offset(self):
        # rank-2 equal-weight seed: H_2 = 1 = log2(2), so the bound is 0
        seed = SparseOperator(
            1,
            {
                PauliString.from_label("X"): math.sqrt(0.5),
                PauliString.from_label("Y"): math.sqrt(0.5),
            },
        )
        assert t_count_lower_bound(seed, seed, 2) == pytest.approx(0.0, abs=1e-12)

    def test_unequal_seed_entropy_is_not_subtracted_twice(self):
        # H_2(evolved) - log2 rank(seed), not (H_2(evolved) - H_2(seed)) - log2 rank(seed)
        seed = SparseOperator(
            2, {PauliString.from_label("XI"): 0.6, PauliString.from_label("ZI"): 0.8}
        )
        want = -math.log2(0.36**2 + 0.64**2) - 1.0
        assert want == pytest.approx(-0.108892, abs=1e-6)
        assert t_count_lower_bound(seed, seed, 2) == pytest.approx(want, abs=1e-12)

    def test_bound_holds_for_random_multi_term_seeds(self):
        from opmagic import doped_circuit

        rng = np.random.default_rng(47)
        for trial in range(24):
            tau = trial % 4
            n_terms = int(rng.integers(2, 5))
            strings = set()
            while len(strings) < n_terms:
                strings.add(random_pauli(rng, 5))
            coeffs = rng.normal(size=n_terms)
            coeffs /= np.linalg.norm(coeffs)
            seed = SparseOperator(5, dict(zip(sorted(strings), coeffs)))
            circuit = doped_circuit(5, tau, clifford_depth=30, seed=trial)
            evolved = evolve_heisenberg(seed, circuit)
            for alpha in (0, 1, 2, math.inf):
                assert t_count_lower_bound(evolved, seed, alpha) <= tau + 1e-9

    def test_doped_respects_bound(self):
        rng = np.random.default_rng(29)
        from opmagic import doped_circuit

        for trial in range(5):
            tau = int(rng.integers(0, 4))
            circuit = doped_circuit(5, tau, clifford_depth=30, seed=trial)
            seed = SparseOperator.from_pauli(single_site_pauli(0, "X", 5))
            evolved = evolve_heisenberg(seed, circuit)
            for alpha in (0, 1, 2, math.inf):
                assert ose(evolved, seed, alpha).ose <= tau + 1e-9
