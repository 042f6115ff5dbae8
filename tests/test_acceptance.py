"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. All tolerances are fixed here, not calibrated.
"""
import math
import time

import numpy as np
import pytest

from opmagic import (
    Circuit,
    Gate,
    PauliString,
    SparseOperator,
    doped_circuit,
    evolve_heisenberg,
    expectation_error_bound,
    ose,
    random_clifford_circuit,
    single_site_pauli,
    truncate_top,
)
from opmagic.dense import (
    avg_linear_ose,
    circuit_unitary,
    operator_matrix,
    pauli_spectrum,
    random_stabilizer_state,
    stabilizer_nullity,
)
from opmagic.haar import (
    asymptotic_avg_purity,
    asymptotic_ose,
    closed_form_avg_purity,
    mc_average_ose,
    mc_average_purities,
    relative_fluctuation,
)
from opmagic.paulis import enumerate_paulis
from opmagic.xxz import XxzParams, closed_form_ose, simulate_scan
from conftest import random_mixed_circuit

MONOTONE_ALPHAS = (0, 1, 2, 3, math.inf)


def report(criterion, detail):
    print(f"PASS {criterion}: {detail}")


def test_criterion_01_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 6))
        circuit = random_mixed_circuit(rng, n, int(rng.integers(1, 13)))
        paulis = enumerate_paulis(n)
        seed = SparseOperator.from_pauli(paulis[int(rng.integers(1, len(paulis)))])
        evolved = evolve_heisenberg(seed, circuit)
        spectrum = pauli_spectrum(circuit_unitary(circuit), seed)
        for k, p in enumerate(paulis):
            worst = max(worst, abs(evolved.coefficient(p) - spectrum[k]))
    elapsed = time.monotonic() - start
    assert worst < 1e-10
    assert elapsed < 60.0
    report("criterion-01 oracle-equivalence",
           f"200 circuits, max coefficient deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_monotone_axioms():
    rng = np.random.default_rng(1002)
    # (i) faithfulness: OSE exactly zero on Clifford circuits, all alphas
    for trial in range(50):
        n = int(rng.integers(1, 6))
        circuit = random_clifford_circuit(n, 3 * n * n, seed=trial)
        seed = SparseOperator.from_pauli(single_site_pauli(int(rng.integers(n)), "X", n))
        evolved = evolve_heisenberg(seed, circuit)
        for alpha in MONOTONE_ALPHAS:
            assert ose(evolved, seed, alpha).ose == 0.0
    # (ii) stability: pre-composed and post-applied Cliffords change nothing
    worst_stab = 0.0
    for trial in range(50):
        n = int(rng.integers(2, 5))
        base = random_mixed_circuit(rng, n, int(rng.integers(3, 12)))
        cliff = random_clifford_circuit(n, 3 * n * n, seed=1000 + trial)
        seed = SparseOperator.from_pauli(single_site_pauli(int(rng.integers(n)), "X", n))
        reference = ose(evolve_heisenberg(seed, base), seed, 2).ose
        pre = ose(evolve_heisenberg(seed, Circuit(n, cliff.gates + base.gates)), seed, 2).ose
        post = ose(evolve_heisenberg(evolve_heisenberg(seed, base), cliff), seed, 2).ose
        worst_stab = max(worst_stab, abs(pre - reference), abs(post - reference))
    assert worst_stab < 1e-10
    # (iii) additivity over tensor products of independent evolutions
    worst_add = 0.0
    for _ in range(50):
        na, nb = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        ca = random_mixed_circuit(rng, na, 8)
        cb = random_mixed_circuit(rng, nb, 8)
        sa = SparseOperator.from_pauli(single_site_pauli(0, "X", na))
        sb = SparseOperator.from_pauli(single_site_pauli(0, "Y", nb))
        ea, eb = evolve_heisenberg(sa, ca), evolve_heisenberg(sb, cb)
        for alpha in MONOTONE_ALPHAS:
            lhs = ose(ea.tensor(eb), sa.tensor(sb), alpha).ose
            rhs = ose(ea, sa, alpha).ose + ose(eb, sb, alpha).ose
            worst_add = max(worst_add, abs(lhs - rhs))
    assert worst_add < 1e-10
    report("criterion-02 monotone-axioms",
           f"faithfulness exact, stability dev {worst_stab:.2e}, additivity dev {worst_add:.2e}")


def test_criterion_03_t_ladder_saturation():
    worst = 0.0
    for tau in range(1, 7):
        seed = SparseOperator.from_pauli(PauliString.from_label("X" * tau))
        circuit = Circuit(tau, tuple(Gate("T", (q,)) for q in range(tau)))
        evolved = evolve_heisenberg(seed, circuit)
        for alpha in (0.5, 1, 2, 3, math.inf):
            worst = max(worst, abs(ose(evolved, seed, alpha).ose - tau))
    assert worst < 1e-12
    report("criterion-03 t-ladder-saturation", f"tau 1..6, max |M - tau| = {worst:.2e}")


def test_criterion_04_xxz_exactness():
    start = time.monotonic()
    seeds = [(1.0, 0.0, 0.0), (math.sqrt(0.5), math.sqrt(0.2), math.sqrt(0.3))]
    worst = 0.0
    for t in range(1, 6):
        for j in (math.pi / 16, math.pi / 8, 0.3, math.pi / 4):
            for alpha in (2, 3):
                for a in seeds:
                    p = XxzParams(j=j, t=t, alpha=alpha, a_x=a[0], a_y=a[1], a_z=a[2])
                    worst = max(worst, simulate_scan([p])[0].abs_diff)
    assert worst < 1e-9
    # exact special points
    for t in range(1, 6):
        exact = simulate_scan([XxzParams(j=math.pi / 8, t=t, alpha=2)])[0]
        assert abs(exact.simulated - t) < 1e-12
        clifford = simulate_scan([XxzParams(j=math.pi / 4, t=t, alpha=2)])[0]
        assert clifford.simulated == 0.0 and clifford.closed == 0.0
    # saturation for the mixed seed at alpha=2 is log(38/9) = 1.4404 nats
    p40 = XxzParams(j=math.pi / 8, t=40, alpha=2,
                    a_x=math.sqrt(0.5), a_y=math.sqrt(0.2), a_z=math.sqrt(0.3))
    asymptote_nats = closed_form_ose(p40) * math.log(2)
    assert abs(asymptote_nats - 1.44) < 0.01
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report("criterion-04 xxz-exactness",
           f"grid max |sim - closed| = {worst:.2e}, t=40 asymptote {asymptote_nats:.4f} nats, {elapsed:.1f}s")


def test_criterion_05_haar_averages():
    start = time.monotonic()
    checks = [(1, 2, 3 / 5), (2, 2, 3 / 14), (2, 3, 1 / 14)]
    sigmas = []
    for n, alpha, target in checks:
        est = mc_average_purities(n, [alpha], 2000, seed=500 + n * 10 + alpha)[0]
        assert abs(est.mean - target) < 3 * est.stderr
        sigmas.append(abs(est.mean - target) / est.stderr)
    # Jensen: MC mean of M2 dominates -log2 of the MC purity mean, and is
    # consistent with the log2(14/3) threshold
    pur = mc_average_purities(2, [2], 2000, seed=551)[0]
    ent = mc_average_ose(2, 2, 2000, seed=551)
    log_stderr = pur.stderr / (pur.mean * math.log(2))
    assert ent.mean >= -math.log2(pur.mean) - 3 * (log_stderr + ent.stderr)
    threshold = math.log2(14 / 3)
    assert ent.mean >= threshold - 3 * ent.stderr
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report("criterion-05 haar-averages",
           f"purity pulls {', '.join(f'{s:.2f}sigma' for s in sigmas)}; "
           f"mean M2 {ent.mean:.3f} >= {threshold:.3f}, {elapsed:.1f}s")


def test_criterion_06_asymptotics():
    ratio = closed_form_avg_purity(64, 2) / asymptotic_avg_purity(64, 2)
    assert abs(ratio - 1.0) < 0.001
    for n in range(1, 12):
        assert asymptotic_ose(n, 2) == 2 * n - math.log2(3)
    report("criterion-06 asymptotics",
           f"n=6 closed/asymptotic ratio deviates {abs(ratio - 1):.2e}; 2N - log2(3) exact")


def test_criterion_07_doped_statistics():
    start = time.monotonic()
    rng = np.random.default_rng(1007)
    n, tau = 10, 4
    m2_values = []
    for _ in range(100):
        circuit = doped_circuit(n, tau, seed=int(rng.integers(2**63 - 1)))
        seed = SparseOperator.from_pauli(single_site_pauli(int(rng.integers(n)), "X", n))
        evolved = evolve_heisenberg(seed, circuit)
        for alpha in MONOTONE_ALPHAS:
            assert ose(evolved, seed, alpha).ose <= tau + 1e-9
        m2_values.append(ose(evolved, seed, 2).ose)
    mean_m2 = float(np.mean(m2_values))
    assert 1.5 <= mean_m2 <= 2.5
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report("criterion-07 doped-statistics",
           f"100 circuits, hard bound respected, mean M2 = {mean_m2:.3f}, {elapsed:.1f}s")


def test_criterion_08_truncation_operationalism():
    rng = np.random.default_rng(1008)
    worst_slack = -1.0
    for trial in range(50):
        n = int(rng.integers(2, 6))
        circuit = random_mixed_circuit(rng, n, int(rng.integers(4, 13)))
        seed = SparseOperator.from_pauli(single_site_pauli(int(rng.integers(n)), "X", n))
        evolved = evolve_heisenberg(seed, circuit)
        psi = random_stabilizer_state(n, seed=trial)
        dense_evolved = operator_matrix(evolved)
        amplitudes = sorted((a * a for _, a in evolved), reverse=True)
        for chi in range(1, len(evolved) + 1):
            result = truncate_top(evolved, chi)
            # reported epsilon equals the discarded-weight square root
            discarded = math.sqrt(sum(amplitudes[chi:]))
            assert abs(result.epsilon - discarded) < 1e-12
            w = operator_matrix(result.choi_normalized())
            delta = abs(np.vdot(psi, (dense_evolved - w) @ psi).real)
            bound = expectation_error_bound(result.epsilon)
            assert delta <= bound + 1e-9
            worst_slack = max(worst_slack, delta - bound)
    report("criterion-08 truncation-operationalism",
           f"50 pairs, every chi; max (delta - bound) = {worst_slack:.2e}")


def test_criterion_08_truncation_worst_case_states():
    # the draws of criterion 08, seen by the states a random stabilizer state
    # misses: the GHZ state, and the top eigenvector of O - W, whose error is
    # the operator norm that `state_bound` bounds
    rng = np.random.default_rng(1008)
    worst_ratio = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 6))
        circuit = random_mixed_circuit(rng, n, int(rng.integers(4, 13)))
        seed = SparseOperator.from_pauli(single_site_pauli(int(rng.integers(n)), "X", n))
        evolved = evolve_heisenberg(seed, circuit)
        dense_evolved = operator_matrix(evolved)
        ghz = np.zeros(2**n)
        ghz[[0, -1]] = math.sqrt(0.5)
        for chi in range(1, len(evolved) + 1):
            result = truncate_top(evolved, chi)
            diff = dense_evolved - operator_matrix(result.choi_normalized())
            values, vectors = np.linalg.eigh(diff)
            top = vectors[:, np.abs(values).argmax()]
            for psi in (ghz, top):
                delta = abs(np.vdot(psi, diff @ psi).real)
                assert delta <= result.state_bound + 1e-9
                if result.state_bound > 0.0:
                    worst_ratio = max(worst_ratio, delta / result.state_bound)
    report("criterion-08 truncation-worst-case",
           f"50 pairs, every chi, GHZ and top eigenvector; max error / state_bound = {worst_ratio:.3f}")


def test_criterion_09_light_cone():
    from opmagic import brickwork_circuit

    for layers in range(1, 7):
        n = 2 * layers + 2
        for brick in (
            (Gate("RZZ", (0, 1), 0.3), Gate("SWAP", (0, 1))),
            (Gate("CNOT", (0, 1)), Gate("RZZ", (0, 1), 0.5)),
            (Gate("CZ", (0, 1)), Gate("RZZ", (0, 1), 0.9), Gate("SWAP", (0, 1))),
        ):
            circuit = brickwork_circuit(n, layers, brick)
            seed = SparseOperator.from_pauli(single_site_pauli(layers, "X", n))
            evolved = evolve_heisenberg(seed, circuit)
            assert len(evolved.support()) <= 1 + 2 * layers
    report("criterion-09 light-cone", "support <= 1 + 2t for t <= 6, three brick types")


def test_criterion_10_nullity():
    assert stabilizer_nullity(circuit_unitary(Circuit(1, (Gate("T", (0,)),)))).nu == 1.0
    assert stabilizer_nullity(
        circuit_unitary(Circuit(2, (Gate("T", (0,)), Gate("T", (1,)))))
    ).nu == 2.0
    for seed in range(3):
        u = circuit_unitary(random_clifford_circuit(3, 27, seed=seed))
        assert stabilizer_nullity(u).nu == 0.0
    rng = np.random.default_rng(1010)
    worst_slack = -1.0
    for _ in range(20):
        n = int(rng.integers(1, 4))
        circuit = random_mixed_circuit(rng, n, int(rng.integers(1, 14)))
        u = circuit_unitary(circuit)
        nu = stabilizer_nullity(u).nu
        slack = avg_linear_ose(u, alpha=2) - (1.0 - 2.0**-nu)
        assert slack <= 1e-9
        worst_slack = max(worst_slack, slack)
    report("criterion-10 nullity",
           f"nu(T)=1, nu(TxT)=2, nu(Clifford)=0 exact; bound slack max {worst_slack:.2e}")


def test_criterion_11_fluctuation_scaling():
    estimates = {n: relative_fluctuation(n, 2, 4000, seed=1100 + n) for n in (2, 3, 4)}
    values = [estimates[n].mean for n in (2, 3, 4)]
    assert values[0] > values[1] > values[2]
    scaled = [estimates[n].mean * (1 << n) for n in (2, 3, 4)]
    assert max(scaled) / min(scaled) < 2.0
    report("criterion-11 fluctuation-scaling",
           f"F = {values[0]:.3f}, {values[1]:.3f}, {values[2]:.3f}; F*D in "
           f"[{min(scaled):.2f}, {max(scaled):.2f}]")
