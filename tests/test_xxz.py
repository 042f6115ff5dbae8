import math

import numpy as np
import pytest

from opmagic import (
    SparseOperator,
    evolve_heisenberg,
    single_site_pauli,
)
from opmagic.dense import pauli_coefficients, pauli_matrix
from opmagic.paulis import PauliString, enumerate_paulis
from opmagic.xxz import (
    XxzParams,
    alpha1_ose,
    closed_form_ose,
    commuted_operator,
    saturation_value,
    simulate_vs_closed,
    xxz_brickwork,
)

MIXED_SEED = (math.sqrt(0.5), math.sqrt(0.2), math.sqrt(0.3))


def params(j, t, alpha, a=(1.0, 0.0, 0.0)):
    return XxzParams(j=j, t=t, alpha=alpha, a_x=a[0], a_y=a[1], a_z=a[2])


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            params(-0.1, 1, 2)
        with pytest.raises(ValueError):
            params(math.pi / 2, 1, 2)
        with pytest.raises(ValueError):
            params(0.1, -1, 2)
        with pytest.raises(ValueError):
            XxzParams(j=0.1, t=1, alpha=2, a_x=0.9, a_y=0.0, a_z=0.0)


class TestClosedForm:
    def test_pauli_seed_pi_over_8_gives_depth(self):
        for t in range(0, 9):
            assert closed_form_ose(params(math.pi / 8, t, 2)) == pytest.approx(t, abs=1e-12)

    def test_clifford_point_vanishes(self):
        for alpha in (0.5, 2, 3):
            for a in ((1.0, 0.0, 0.0), MIXED_SEED):
                assert closed_form_ose(params(math.pi / 4, 3, alpha, a)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("j", [0.0, math.pi / 4])
    @pytest.mark.parametrize("alpha", [0.01, 0.5, 2, 3, 1000, math.inf])
    def test_clifford_points_give_plus_zero(self, j, alpha):
        # the branch of weight cos^2(pi/2) = 3.7e-33 is one the engine prunes
        for a in ((1.0, 0.0, 0.0), MIXED_SEED):
            value = closed_form_ose(params(j, 3, alpha, a))
            assert value == 0.0 and math.copysign(1.0, value) == 1.0

    @pytest.mark.parametrize("j", [0.3, math.pi / 8, 0.7])
    @pytest.mark.parametrize("alpha", [0.01, 0.5, 2, 3, 1000, math.inf])
    def test_depth_zero_gives_plus_zero(self, j, alpha):
        # 0.0 / (1 - alpha) is -0.0 for alpha > 1
        for a in ((1.0, 0.0, 0.0), MIXED_SEED, (0.6, 0.0, 0.8)):
            value = closed_form_ose(params(j, 0, alpha, a))
            assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_swap_circuit_vanishes(self):
        assert closed_form_ose(params(0.0, 5, 2)) == 0.0

    def test_sigma_z_seed_degenerate_case(self):
        assert closed_form_ose(XxzParams(j=0.3, t=4, alpha=2, a_x=0, a_y=0, a_z=1)) == 0.0

    def test_alpha_one_rejected(self):
        with pytest.raises(ValueError):
            closed_form_ose(params(0.3, 2, 1))

    def test_mixed_seed_asymptote(self):
        # saturation for this seed at alpha=2: log(38/9), i.e. 1.4404 nats
        p = params(math.pi / 8, 40, 2, MIXED_SEED)
        bits = closed_form_ose(p)
        assert bits == pytest.approx(math.log2(38 / 9), abs=1e-9)
        assert bits * math.log(2) == pytest.approx(1.44, abs=0.01)
        assert saturation_value(p) == pytest.approx(bits, abs=1e-9)

    def test_saturation_monotone_and_limit(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            raw = rng.normal(size=3)
            a = tuple(raw / np.linalg.norm(raw))
            j = float(rng.uniform(0.05, math.pi / 4 - 0.05))
            alpha = float(rng.choice([1.5, 2, 3]))
            values = [closed_form_ose(params(j, t, alpha, a)) for t in range(0, 60)]
            for lo, hi in zip(values, values[1:]):
                assert hi >= lo - 1e-12
            limit = saturation_value(params(j, 0, alpha, a))
            if math.isfinite(limit):
                # pick a depth where the transient x^t has decayed below 1e-9 A
                x = math.cos(2 * j) ** (2 * alpha) + math.sin(2 * j) ** (2 * alpha)
                big_a = (a[2] ** 2) ** alpha / ((a[0] ** 2) ** alpha + (a[1] ** 2) ** alpha)
                t_star = min(10**6, int(math.log(1e-9 * big_a) / math.log(x)) + 1)
                deep = closed_form_ose(params(j, t_star, alpha, a))
                assert deep == pytest.approx(limit, abs=1e-6)

    def test_pauli_seed_saturation_is_infinite(self):
        assert saturation_value(params(0.3, 0, 2)) == math.inf
        assert saturation_value(params(0.3, 0, math.inf)) == math.inf

    def test_alpha_inf_saturation(self):
        a = (0.8, 0.0, 0.6)
        limit = saturation_value(params(0.3, 0, math.inf, a))
        assert limit == pytest.approx(math.log2(0.64 / 0.36), abs=1e-12)
        assert closed_form_ose(params(0.3, 40, math.inf, a)) == pytest.approx(limit, abs=1e-12)
        assert saturation_value(params(math.pi / 4, 0, math.inf)) == 0.0
        assert saturation_value(params(0.0, 0, math.inf, a)) == 0.0


class TestAlphaOne:
    def test_pi_over_8_pauli_seed(self):
        for t in (0, 1, 5):
            assert alpha1_ose(params(math.pi / 8, t, 1)) == pytest.approx(t, abs=1e-12)

    def test_clifford_point(self):
        assert alpha1_ose(params(math.pi / 4, 7, 1)) == 0.0
        assert alpha1_ose(params(0.0, 7, 1)) == 0.0

    def test_pi_over_16(self):
        q = math.cos(math.pi / 8) ** 2
        h2 = -q * math.log2(q) - (1 - q) * math.log2(1 - q)
        assert alpha1_ose(params(math.pi / 16, 3, 1)) == pytest.approx(3 * h2, abs=1e-12)

    def test_other_index_rejected(self):
        with pytest.raises(ValueError, match="alpha = 2"):
            alpha1_ose(params(0.3, 2, 2))

    def test_matches_replica_limit_of_closed_form(self):
        for a in ((1.0, 0.0, 0.0), MIXED_SEED):
            for j in (0.2, math.pi / 8, 0.7):
                h = 1e-4
                lo = closed_form_ose(params(j, 4, 1 - h, a))
                hi = closed_form_ose(params(j, 4, 1 + h, a))
                assert alpha1_ose(params(j, 4, 1, a)) == pytest.approx((lo + hi) / 2, abs=1e-6)


class TestCommutedOperator:
    def test_depth_zero_is_bare_pauli(self):
        op = commuted_operator(2, 0, 0.3, "X", 4)
        assert list(op.terms.items()) == [(single_site_pauli(2, "X", 4), 1.0)]

    def test_depth_one_weights(self):
        op = commuted_operator(0, 1, 0.3, "X", 2)
        probs = sorted(a * a for _, a in op)
        want = sorted([math.cos(0.6) ** 2, math.sin(0.6) ** 2])
        assert probs == pytest.approx(want, abs=1e-12)

    def test_depth_two_pi_over_8_uniform(self):
        op = commuted_operator(0, 2, math.pi / 8, "X", 3)
        assert len(op) == 4
        for _, a in op:
            assert a * a == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("axis", ["X", "Y"])
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_matches_dense_product(self, axis, t):
        # oracle: sigma_axis^(t) prod_i exp(-2iJ Z_t Z_i) built densely
        j, n = 0.3, t + 1
        dim = 1 << n
        matrix = pauli_matrix(single_site_pauli(t, axis, n)).astype(complex)
        for i in range(t):
            zz = pauli_matrix(PauliString(n, 0, (1 << t) | (1 << i)))
            matrix = matrix @ (
                math.cos(2 * j) * np.eye(dim) - 1j * math.sin(2 * j) * zz
            )
        want = pauli_coefficients(matrix, n)
        op = commuted_operator(0, t, j, axis, n)
        for k, p in enumerate(enumerate_paulis(n)):
            assert abs(op.coefficient(p) - want[k]) < 1e-10
        assert np.max(np.abs(want.imag)) < 1e-12

    def test_insufficient_qubits(self):
        with pytest.raises(ValueError):
            commuted_operator(1, 3, 0.2, "X", 4)

    @pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
    def test_brickwork_reduces_to_single_string_form(self, t):
        # The brickwork-evolved seed is the commuted form up to the site
        # relabeling induced by the swap network: identical coefficient
        # multiset attached through (head, partners) in canonical order.
        j, n, seed_site = 0.3, 2 * t + 4, t + 1
        circuit = xxz_brickwork(n, t, j)
        seed = SparseOperator.from_pauli(single_site_pauli(seed_site, "X", n))
        evolved = evolve_heisenberg(seed, circuit)
        assert len(evolved) == 2**t
        heads, partners = set(), set()
        for p, _ in evolved:
            for s in p.support():
                (heads if p.letter(s) in ("X", "Y") else partners).add(s)
        assert len(heads) == 1 and len(partners) == t
        mapping = {t: heads.pop()}
        for i, site in enumerate(sorted(partners)):
            mapping[i] = site
        used = set(mapping.values())
        spare = iter(s for s in range(n) if s not in used)
        for s in range(n):
            if s not in mapping:
                mapping[s] = next(spare)
        relabeled = commuted_operator(0, t, j, "X", n).relabel_sites(mapping)
        assert set(relabeled.terms) == set(evolved.terms)
        for p, a in relabeled:
            assert evolved.coefficient(p) == pytest.approx(a, abs=1e-10)


class TestSimulateVsClosed:
    @pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("j", [math.pi / 16, math.pi / 8, 0.3, math.pi / 4])
    def test_pauli_seed(self, t, j):
        result = simulate_vs_closed(params(j, t, 2))
        assert result.abs_diff < 1e-9

    def test_mixed_seed(self):
        result = simulate_vs_closed(params(math.pi / 8, 4, 2, MIXED_SEED))
        assert result.abs_diff < 1e-9

    def test_clifford_point_both_zero(self):
        result = simulate_vs_closed(params(math.pi / 4, 3, 2))
        assert result.simulated == 0.0 and result.closed == 0.0

    def test_alpha_one_route(self):
        result = simulate_vs_closed(params(math.pi / 8, 3, 1, MIXED_SEED))
        assert result.abs_diff < 1e-9

    def test_generic_rank(self):
        for t in (1, 2, 3, 4):
            n = 2 * t + 2
            circuit = xxz_brickwork(n, t, 0.3)
            seed = SparseOperator.from_pauli(single_site_pauli(t, "X", n))
            assert len(evolve_heisenberg(seed, circuit)) == 2**t

    @pytest.mark.parametrize("a", [(1.0, 0.0, 0.0), (0.6, 0.0, 0.8), (0.48, 0.6, 0.64), (0.8, 0.0, 0.6)])
    @pytest.mark.parametrize("j", [math.pi / 16, 0.3, math.pi / 8])
    def test_alpha_inf(self, j, a):
        for t in range(1, 7):
            result = simulate_vs_closed(params(j, t, math.inf, a))
            assert result.abs_diff < 1e-9

    def test_depth_cap(self):
        with pytest.raises(ValueError):
            simulate_vs_closed(params(0.3, 7, 2))


class TestLargeIndex:
    """Closed forms in the log domain: no underflow of cos^(2 alpha), sin^(2 alpha) or A."""

    @pytest.mark.parametrize("a", [(0.6, 0.0, 0.8), (0.8, 0.0, 0.6), (1.0, 0.0, 0.0)])
    @pytest.mark.parametrize("alpha", [1000, 2000])
    def test_simulation_agrees(self, alpha, a):
        for t in range(1, 5):
            result = simulate_vs_closed(params(0.3, t, alpha, a))
            assert result.abs_diff < 1e-9

    def test_approaches_the_alpha_inf_limit(self):
        for a in ((0.6, 0.0, 0.8), (0.8, 0.0, 0.6), (1.0, 0.0, 0.0)):
            for t in (1, 3, 200):
                big = closed_form_ose(params(0.3, t, 10**6, a))
                want = closed_form_ose(params(0.3, t, math.inf, a))
                assert big == pytest.approx(want, rel=1e-5, abs=1e-5)
            limit = saturation_value(params(0.3, 0, 10**6, a))
            assert limit == pytest.approx(saturation_value(params(0.3, 0, math.inf, a)), abs=1e-5)

    def test_saturation_below_index_one_is_infinite(self):
        # for alpha < 1 the per-layer factor exceeds 1 and the entropy grows without bound
        assert saturation_value(params(0.3, 0, 0.5, MIXED_SEED)) == math.inf
        assert closed_form_ose(params(0.3, 400, 0.5, MIXED_SEED)) > 100
        assert saturation_value(params(math.pi / 4, 0, 0.5, MIXED_SEED)) == 0.0

    def test_saturation_near_clifford_point_takes_the_branch_cut(self):
        # cos^2 2J = 1e-20 is above BRANCH_CUT: a real branch, so the closed form keeps growing
        j = math.pi / 4 - 5e-11
        values = [closed_form_ose(params(j, t, 0.5, MIXED_SEED)) for t in (10**3, 10**6, 10**8)]
        assert 0.0 < values[0] < values[1] < values[2]
        assert saturation_value(params(j, 0, 0.5, MIXED_SEED)) == math.inf
