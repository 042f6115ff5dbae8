import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from opmagic.haar import (
    McEstimate,
    asymptotic_avg_purity,
    asymptotic_ose,
    closed_form_avg_purity,
    double_factorial,
    mc_average_ose,
    mc_average_purities,
    relative_fluctuation,
    sample_haar_unitary,
)


class TestSampler:
    def test_unitary(self):
        u = sample_haar_unitary(16, seed=1)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(16), atol=1e-10)

    def test_seeds_differ(self):
        assert not np.allclose(sample_haar_unitary(4, 1), sample_haar_unitary(4, 2))

    def test_seed_reproducible(self):
        np.testing.assert_array_equal(sample_haar_unitary(8, 3), sample_haar_unitary(8, 3))

    def test_dim_cap(self):
        with pytest.raises(ValueError):
            sample_haar_unitary(128)

    def test_first_entry_moment(self):
        # E|U_00|^2 = 1/dim, checked at 3 sigma over 1000 samples
        rng = np.random.default_rng(61)
        dim = 4
        samples = np.array(
            [abs(sample_haar_unitary(dim, rng)[0, 0]) ** 2 for _ in range(1000)]
        )
        stderr = samples.std(ddof=1) / math.sqrt(len(samples))
        assert abs(samples.mean() - 1.0 / dim) < 3 * stderr


class TestBatchedPass:
    ALPHAS = (0, 0.5, 2, math.inf)

    @staticmethod
    def batch(n):
        from opmagic.haar import _BATCH_ELEMENTS

        return max(1, _BATCH_ELEMENTS // 4**n)

    @pytest.mark.parametrize("size", [1, 5, 16])
    def test_sampler_is_the_batch_of_one(self, size):
        from opmagic.haar import _haar_batch

        batch = _haar_batch(8, size, np.random.default_rng(23))
        rng = np.random.default_rng(23)
        for u in batch:
            np.testing.assert_array_equal(u, sample_haar_unitary(8, rng))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_one_pass_equals_per_index_calls(self, n, workers):
        # two batches and a partial one per worker, so no count is a multiple
        total = workers * (2 * self.batch(n) + 3)
        one_pass = mc_average_purities(n, self.ALPHAS, total, seed=31, workers=workers)
        for alpha, est in zip(self.ALPHAS, one_pass):
            assert est == mc_average_purities(n, [alpha], total, seed=31, workers=workers)[0]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_one_pass_equals_one_at_a_time_loop(self, n, workers):
        from opmagic.dense import pauli_coefficients, pauli_matrix
        from opmagic.measures import renyi_purity
        from opmagic.paulis import single_site_pauli

        total = workers * (self.batch(n) + 1) + 1
        x0 = pauli_matrix(single_site_pauli(0, "X", n))
        counts = [total // workers + (w < total % workers) for w in range(workers)]
        purities = []
        for count, stream in zip(counts, np.random.SeedSequence(37).spawn(workers)):
            rng = np.random.default_rng(stream)
            for _ in range(count):
                u = sample_haar_unitary(1 << n, rng)
                probs = pauli_coefficients(u.conj().T @ x0 @ u, n).real ** 2
                purities.append([renyi_purity(probs, a) for a in self.ALPHAS])
        purities = np.array(purities).T
        one_pass = mc_average_purities(n, self.ALPHAS, total, seed=37, workers=workers)
        for row, est in zip(purities, one_pass):
            assert est.mean == float(np.mean(row))
            assert est.stderr == float(np.std(row, ddof=1) / math.sqrt(total))

    def test_reduction_must_keep_the_sample_axis(self):
        from opmagic.haar import _haar_samples

        with pytest.raises(ValueError, match="shape"):
            _haar_samples(2, lambda p: np.sum(p**2), 10, seed=1, workers=1)

    def test_workers_bounded_by_samples(self):
        from opmagic.haar import _haar_samples

        with pytest.raises(ValueError, match="11 workers exceed 10 samples"):
            _haar_samples(1, lambda p: np.sum(p**2, axis=-1), 10, seed=1, workers=11)

    def test_peak_memory_does_not_grow_with_samples(self):
        # only the output grows: 8 bytes per sample per index. 40 samples
        # over 2 workers fill batches of up to 20, so a batch that grew with
        # the sample count, or a fixed one above 20 at n = 4, would add
        # hundreds of kilobytes between these two runs.
        alphas = (2, 3, 4, 5)
        mc_average_purities(4, alphas, 40)  # table caches and imports
        peaks = {}
        for total in (40, 4000):
            tracemalloc.start()
            try:
                mc_average_purities(4, alphas, total, seed=1, workers=2)
                peaks[total] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        output_growth = 8 * len(alphas) * (4000 - 40)
        assert peaks[4000] - peaks[40] <= output_growth + 16 * 1024


class TestClosedForms:
    def test_double_factorial(self):
        assert [double_factorial(k) for k in (-1, 0, 1, 3, 5, 7)] == [1, 1, 1, 3, 15, 105]

    def test_alpha2_values(self):
        assert closed_form_avg_purity(4, 2) == pytest.approx(3 / 14, abs=1e-15)
        assert closed_form_avg_purity(2, 2) == pytest.approx(3 / 5, abs=1e-15)
        d2 = 64 * 64
        assert closed_form_avg_purity(64, 2) == pytest.approx(
            3 * (d2 - 8) / (d2 * (d2 - 9)), abs=1e-18
        )

    def test_alpha3_at_two_qubits(self):
        assert closed_form_avg_purity(4, 3) == pytest.approx(1 / 14, abs=1e-15)

    def test_single_qubit_sphere_oracle(self):
        # at D=2 a Haar-evolved Pauli is uniform on the Bloch sphere, so the
        # average purity is 3 E[n^(2a)] = 3/(2a+1)
        for alpha in (2, 3, 4, 5):
            assert closed_form_avg_purity(2, alpha) == pytest.approx(
                3.0 / (2 * alpha + 1), abs=1e-12
            )

    def test_guards(self):
        with pytest.raises(ValueError):
            closed_form_avg_purity(4, 6)
        with pytest.raises(ValueError):
            closed_form_avg_purity(3, 2)  # pole at D^2 = 9


class TestAsymptotics:
    def test_normalization_alpha_one(self):
        assert asymptotic_avg_purity(8, 1) == 1.0

    def test_alpha2_value(self):
        assert asymptotic_avg_purity(4, 2) == pytest.approx(3 / 16)

    def test_ratio_approaches_one(self):
        # closed/asymptotic at alpha=2 is (D^2-8)/(D^2-9)
        for n in (4, 5, 6):
            dim = 1 << n
            ratio = closed_form_avg_purity(dim, 2) / asymptotic_avg_purity(dim, 2)
            assert ratio == pytest.approx((dim**2 - 8) / (dim**2 - 9), abs=1e-12)

    def test_asymptotic_ose_identities(self):
        for n in (2, 5, 10):
            assert asymptotic_ose(n, 2) == 2 * n - math.log2(3)
            assert asymptotic_ose(n, 3) == pytest.approx(2 * n - math.log2(15) / 2)

    def test_correction_grows_sublinearly(self):
        # the (negative) correction magnitude grows with alpha but stays o(alpha)
        corrections = [2 * 4 - asymptotic_ose(4, a) for a in (2, 3, 4, 5)]
        assert all(c > 0 for c in corrections)
        assert corrections == sorted(corrections)
        gaps = [b - a for a, b in zip(corrections, corrections[1:])]
        assert gaps == sorted(gaps, reverse=True)

    def test_alpha_guard(self):
        with pytest.raises(ValueError):
            asymptotic_ose(4, 1)


# Each reference's own message for an index it does not serve; 1000 and
# 1e308 are past the float range at D = 4 (n = 2), and 1e308 is refused
# before (2 alpha - 1)!! is formed.
_NOT_SERVED = {
    math.inf: ("alpha must be a positive integer", "alpha must be an integer >= 2"),
    -math.inf: ("alpha must be a positive integer", "alpha must be an integer >= 2"),
    math.nan: ("alpha must be a positive integer", "alpha must be an integer >= 2"),
    0.5: ("alpha must be a positive integer", "alpha must be an integer >= 2"),
    1000: ("alpha=1000 asymptote at D=4 is past the float range",) * 2,
    1e308: ("alpha=1e+308 asymptote at D=4 is past the float range",) * 2,
}


class TestReferenceGuards:
    @pytest.mark.parametrize("alpha", list(_NOT_SERVED), ids=str)
    def test_every_reference_raises_its_own_message(self, alpha):
        purity_message, ose_message = _NOT_SERVED[alpha]
        start = time.perf_counter()
        with pytest.raises(ValueError, match=re.escape(purity_message)):
            asymptotic_avg_purity(4, alpha)
        with pytest.raises(ValueError, match=re.escape(ose_message)):
            asymptotic_ose(2, alpha)
        with pytest.raises(ValueError, match="closed forms available for alpha in"):
            closed_form_avg_purity(4, alpha)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("dim", [2, 4, 8, 16, 32, 64])
    def test_asymptote_is_the_exact_quotient_wherever_it_is_a_float(self, dim):
        # (2k - 1)!! / D^(2k - 2) as one correctly rounded int division,
        # whose OverflowError marks the index past the float range
        served = refused = 0
        for k in [*range(1, 300), *range(300, 6400, 61)]:
            try:
                exact = double_factorial(2 * k - 1) / dim ** (2 * k - 2)
            except OverflowError:
                with pytest.raises(ValueError, match="past the float range"):
                    asymptotic_avg_purity(dim, k)
                refused += 1
                continue
            value = asymptotic_avg_purity(dim, float(k))
            assert value == exact and math.copysign(1.0, value) == 1.0, k
            served += 1
        assert served and refused

    def test_asymptote_below_the_float_range_is_zero(self):
        # D = 64 underflows for k in a middle band; so does any k at a huge D
        assert double_factorial(3199) / 64**3198 == 0.0
        assert asymptotic_avg_purity(64, 1600) == 0.0
        assert asymptotic_avg_purity(2**100000, 6000) == 0.0

    def test_index_bound_past_the_sampled_dimensions(self):
        # the float range is judged at min(D, MAX_HAAR_DIM): 6230 is the last
        # index served at D = 64, and so at every larger D
        assert asymptotic_avg_purity(64, 6230) == double_factorial(12459) / 64**12458
        assert asymptotic_ose(10, 6230) == 20 + math.log2(double_factorial(12459)) / -6229
        for reference, size in ((asymptotic_avg_purity, 1 << 20), (asymptotic_ose, 20)):
            with pytest.raises(ValueError, match="alpha=6231 asymptote at D=64"):
                reference(size, 6231)
            start = time.perf_counter()
            with pytest.raises(ValueError, match="past the float range"):
                reference(size, 10**12)
            assert time.perf_counter() - start < 1.0

    def test_asymptotic_ose_at_many_qubits(self):
        assert asymptotic_ose(600, 2) == 1200 - math.log2(3)


class TestMonteCarlo:
    @pytest.mark.parametrize(
        "n,alpha,target",
        [(1, 2, 3 / 5), (2, 2, 3 / 14), (2, 3, 1 / 14)],
    )
    def test_matches_closed_form(self, n, alpha, target):
        est = mc_average_purities(n, [alpha], 2000, seed=101)[0]
        assert abs(est.mean - target) < 3 * est.stderr

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [2, 3])
    def test_matches_closed_form_grid(self, n, alpha):
        est = mc_average_purities(n, [alpha], 2000, seed=103 + 7 * n + alpha)[0]
        target = closed_form_avg_purity(1 << n, alpha)
        assert abs(est.mean - target) < 3 * est.stderr

    @pytest.mark.parametrize("alpha", [4, 5])
    def test_high_alpha_smoke(self, alpha):
        for n in (1, 2):
            est = mc_average_purities(n, [alpha], 1500, seed=105 + alpha)[0]
            target = closed_form_avg_purity(1 << n, alpha)
            assert abs(est.mean - target) < 4 * est.stderr

    def test_reproducible_and_worker_partitioned(self):
        a = mc_average_purities(2, [2], 400, seed=7, workers=1)[0]
        b = mc_average_purities(2, [2], 400, seed=7, workers=1)[0]
        assert a == b == mc_average_purities(2, [2], 400, seed=7)[0]
        c = mc_average_purities(2, [2], 400, seed=7, workers=4)[0]
        d = mc_average_purities(2, [2], 400, seed=7, workers=4)[0]
        assert c == d
        assert abs(a.mean - c.mean) < 5 * (a.stderr + c.stderr)

    def test_jensen_direction(self):
        pur = mc_average_purities(2, [2], 2000, seed=109)[0]
        ent = mc_average_ose(2, 2, 2000, seed=109)
        log_stderr = pur.stderr / (pur.mean * math.log(2))
        assert ent.mean >= -math.log2(pur.mean) - 3 * (log_stderr + ent.stderr)

    def test_qubit_cap(self):
        with pytest.raises(ValueError):
            mc_average_purities(6, [2], 100)

    def test_alpha_inf_purity_is_max_probability(self):
        est = mc_average_purities(2, [math.inf], 200, seed=3)[0]
        # the largest of 15 probabilities summing to 1 lies in [1/15, 1]
        assert 1 / 15 <= est.mean <= 1.0
        assert est.mean > mc_average_purities(2, [2], 200, seed=3)[0].mean

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            mc_average_purities(2, [-1], 50)

    def test_nan_alpha_rejected(self):
        with pytest.raises(ValueError, match="non-negative, got nan"):
            mc_average_purities(2, [math.nan], 10)
        with pytest.raises(ValueError, match="non-negative, got nan"):
            mc_average_ose(2, math.nan, 10)

    @pytest.mark.parametrize("n", [0, -1])
    def test_qubit_count_below_one_is_named(self, n):
        with pytest.raises(ValueError, match=f"n_qubits must be at least 1, got {n}"):
            mc_average_purities(n, [2], 10)

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("alpha", [0.5, 2, 3])
    def test_matches_per_sample_loop(self, alpha, workers):
        # the per-sample sum over the same spawned streams, written out
        from opmagic.dense import pauli_coefficients, pauli_matrix
        from opmagic.paulis import single_site_pauli

        n, total = 2, 40
        x0 = pauli_matrix(single_site_pauli(0, "X", n))
        counts = [total // workers + (w < total % workers) for w in range(workers)]
        purities = []
        for count, stream in zip(counts, np.random.SeedSequence(17).spawn(workers)):
            rng = np.random.default_rng(stream)
            for _ in range(count):
                u = sample_haar_unitary(1 << n, rng)
                probs = pauli_coefficients(u.conj().T @ x0 @ u, n).real ** 2
                purities.append(np.sum(probs**alpha))
        est = mc_average_purities(n, [alpha], total, seed=17, workers=workers)[0]
        assert est.mean == float(np.mean(purities))
        assert est.stderr == float(np.std(purities, ddof=1) / math.sqrt(total))

    def test_alpha_zero_purity_is_rank(self):
        # U^dag X U is traceless, so the identity coefficient is 0 and the
        # other 4^n - 1 are nonzero almost surely
        for n in (1, 2):
            est = mc_average_purities(n, [0], 50, seed=4)[0]
            assert est.mean == 4**n - 1 and est.stderr == 0.0


class TestFluctuations:
    def test_reproducible(self):
        a = relative_fluctuation(2, 2, 500, seed=7)
        b = relative_fluctuation(2, 2, 500, seed=7)
        assert a == b
        assert isinstance(a, McEstimate)

    def test_decreases_with_system_size(self):
        values = [relative_fluctuation(n, 2, 1500, seed=113).mean for n in (2, 3, 4)]
        assert values[0] > values[1] > values[2]

    def test_typicality_proxy_at_five_qubits(self):
        # essentially no sample strays beyond 10x the mean purity
        from opmagic.haar import _haar_samples

        purities = _haar_samples(5, lambda p: np.sum(p**2, axis=-1), 400, seed=127, workers=1)
        mean = closed_form_avg_purity(32, 2)
        fraction = np.mean(np.abs(purities - mean) > 10 * mean)
        assert fraction < 0.01
