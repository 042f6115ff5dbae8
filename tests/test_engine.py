"""The propagation kernel: golden coefficients, differential checks, sampler marginals."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opmagic import (
    Circuit,
    Gate,
    PauliString,
    SparseOperator,
    conjugate_gate,
    doped_circuit,
    evolve_heisenberg,
    random_clifford_circuit,
)
from opmagic import heisenberg
from opmagic.dense import circuit_unitary, pauli_spectrum
from opmagic.paulis import enumerate_paulis
from conftest import random_mixed_circuit

# Coefficients (float.hex) of the per-gate, sorted-merge engine this kernel
# replaced, on random_mixed_circuit(default_rng(2), 5, 40) from the seed
# 0.6 XIIIZ + 0.8 YIIII. The circuit holds 13 rotations of four kinds and
# ten Clifford kinds, and its rotations merge split products.
GOLDEN = {
    "XIIXX": "-0x1.f8e7ca19514b8p-6",
    "XZIXX": "0x1.59d2b36572914p-5",
    "YIZXX": "0x1.907fe2faee28ap-4",
    "YZZXX": "0x1.b3f9b09300845p-7",
    "XIIZX": "-0x1.cd18ef31ee16fp-5",
    "XZIZX": "0x1.509a86bb8b87ap-5",
    "YIZZX": "-0x1.22a675b755ad8p-6",
    "YZZZX": "-0x1.0affeca749706p-3",
    "XIIXY": "-0x1.f8e7ca19514b9p-6",
    "YIIXZ": "-0x1.1a7ee53a45a7ep-4",
    "XZIXY": "0x1.59d2b36572915p-5",
    "YZIXZ": "-0x1.03823a38ccf44p-1",
    "XIZXZ": "-0x1.c02926bb3fe87p-3",
    "YIZXY": "0x1.907fe2faee28bp-4",
    "XZZXZ": "0x1.4728e8164e708p-3",
    "YZZXY": "0x1.b3f9b09300847p-7",
    "XIIZY": "-0x1.cd18ef31ee171p-5",
    "YIIZZ": "0x1.5a02f84bbbf05p-1",
    "XZIZY": "0x1.509a86bb8b87ap-5",
    "YZIZZ": "0x1.78a931a3078a8p-4",
    "XIZZZ": "-0x1.b4368ac868960p-3",
    "YIZZY": "-0x1.22a675b755ad9p-6",
    "XZZZZ": "0x1.2ac619d22a9afp-2",
    "YZZZY": "-0x1.0affeca749707p-3",
}
# The same evolution at prune_tol=0.2.
GOLDEN_PRUNED = {
    "YZIXZ": "-0x1.03823a38ccf44p-1",
    "XIZXZ": "-0x1.c02926bb3fe87p-3",
    "YIIZZ": "0x1.5a02f84bbbf05p-1",
    "XIZZZ": "-0x1.b4368ac868960p-3",
    "XZZZZ": "0x1.2ac619d22a9afp-2",
}


def golden_inputs():
    circuit = random_mixed_circuit(np.random.default_rng(2), 5, 40)
    seed = SparseOperator(
        5, {PauliString.from_label("XIIIZ"): 0.6, PauliString.from_label("YIIII"): 0.8}
    )
    return seed, circuit


def as_hex(operator):
    return {p.label(): a.hex() for p, a in operator}


@pytest.mark.parametrize("prune_tol, expected", [(None, GOLDEN), (0.2, GOLDEN_PRUNED)])
def test_golden_coefficients(prune_tol, expected):
    seed, circuit = golden_inputs()
    kwargs = {} if prune_tol is None else {"prune_tol": prune_tol}
    assert as_hex(evolve_heisenberg(seed, circuit, **kwargs)) == expected


def gate_by_gate(operator, circuit, **kwargs):
    for gate in reversed(circuit.gates):
        operator = conjugate_gate(operator, gate, **kwargs)
    return operator


@st.composite
def mixed_cases(draw):
    n = draw(st.integers(1, 4))
    circuit = random_mixed_circuit(
        np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n, draw(st.integers(0, 30))
    )
    dim = 1 << n
    labels = draw(
        st.lists(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1)),
                 min_size=1, max_size=4, unique=True)
    )
    coeffs = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=len(labels), max_size=len(labels))))
    coeffs /= math.sqrt(float(coeffs @ coeffs))
    seed = SparseOperator(n, {PauliString(n, x, z): float(a) for (x, z), a in zip(labels, coeffs)})
    return seed, circuit


@settings(max_examples=60, deadline=None)
@given(case=mixed_cases(), prune_tol=st.sampled_from([None, 0.0, 1e-3, 0.05]))
def test_fused_run_equals_gate_by_gate(case, prune_tol):
    seed, circuit = case
    kwargs = {} if prune_tol is None else {"prune_tol": prune_tol}
    fused = evolve_heisenberg(seed, circuit, **kwargs)
    stepped = gate_by_gate(seed, circuit, **kwargs)
    assert as_hex(fused) == as_hex(stepped)
    assert list(fused.terms) == list(stepped.terms)


@settings(max_examples=40, deadline=None)
@given(case=mixed_cases())
def test_fused_run_matches_dense_oracle(case):
    seed, circuit = case
    evolved = evolve_heisenberg(seed, circuit)
    u = circuit_unitary(circuit)
    spectrum = pauli_spectrum(u, seed)
    for k, p in enumerate(enumerate_paulis(circuit.n_qubits)):
        assert abs(evolved.coefficient(p) - spectrum[k]) < 1e-10


def test_input_terms_below_prune_tol_are_dropped_by_a_clifford_run():
    n = 2
    seed = SparseOperator(n, {PauliString.from_label("XI"): 1.0, PauliString.from_label("ZZ"): 1e-4})
    circuit = Circuit(n, (Gate("H", (0,)), Gate("CNOT", (0, 1))))
    evolved = evolve_heisenberg(seed, circuit, prune_tol=1e-3)
    assert len(evolved) == 1
    assert as_hex(evolved) == as_hex(gate_by_gate(seed, circuit, prune_tol=1e-3))


def test_empty_circuit_returns_the_operator():
    seed, _ = golden_inputs()
    assert evolve_heisenberg(seed, Circuit(5, ())) is seed


class TestCliffordSampler:
    """Marginals of random_clifford_circuit's kind, site and pair draws."""

    def draws(self, n, depth, seeds):
        return [g for s in seeds for g in random_clifford_circuit(n, depth, seed=s).gates]

    def test_cnot_control_never_equals_target(self):
        for n in (2, 3, 7):
            for g in self.draws(n, 400, range(5)):
                if g.kind == "CNOT":
                    assert g.sites[0] != g.sites[1]

    def test_marginals_are_uniform(self):
        n, total = 4, 60_000
        gates = self.draws(n, total // 4, range(4))
        kinds = {k: sum(1 for g in gates if g.kind == k) for k in ("H", "S", "CNOT")}
        assert sum(kinds.values()) == total
        for count in kinds.values():
            assert abs(count / total - 1 / 3) < 4 * math.sqrt((1 / 3) * (2 / 3) / total)
        for kind in ("H", "S"):
            sites = np.bincount([g.sites[0] for g in gates if g.kind == kind], minlength=n)
            p = 1 / n
            sd = math.sqrt(p * (1 - p) / kinds[kind])
            assert np.all(np.abs(sites / kinds[kind] - p) < 4 * sd)
        pairs = {}
        for g in gates:
            if g.kind == "CNOT":
                pairs[g.sites] = pairs.get(g.sites, 0) + 1
        assert set(pairs) == {(c, t) for c in range(n) for t in range(n) if c != t}
        p = 1 / (n * (n - 1))
        sd = math.sqrt(p * (1 - p) / kinds["CNOT"])
        for count in pairs.values():
            assert abs(count / kinds["CNOT"] - p) < 4 * sd

    def test_single_qubit_register_has_no_cnot(self):
        gates = self.draws(1, 200, range(3))
        assert {g.kind for g in gates} == {"H", "S"}
        assert {g.sites for g in gates} == {(0,)}


class TestCompiledRotations:
    """The circuit is compiled to Pauli rotations before the operator is touched."""

    def test_input_terms_below_prune_tol_are_dropped_on_entry(self):
        # a small term is dropped before the rotation, not split by it
        circuit = Circuit(1, (Gate("T", (0,)),))
        x = PauliString.from_label("X")
        seed = SparseOperator(1, {x: 1.0, PauliString.from_label("Y"): 1e-4})
        evolved = evolve_heisenberg(seed, circuit, prune_tol=1e-3)
        alone = evolve_heisenberg(SparseOperator(1, {x: 1.0}), circuit, prune_tol=1e-3)
        assert as_hex(evolved) == as_hex(alone)
        assert list(evolved.terms) == list(alone.terms)

    def test_exact_zero_is_dropped_at_zero_prune_tol(self):
        # T then Tdg cancel the Y term exactly; the Z gate before them would
        # flip that zero's sign in the gate-by-gate order but not once compiled
        circuit = Circuit(1, (Gate("Z", (0,)), Gate("T", (0,)), Gate("Tdg", (0,))))
        seed = SparseOperator.from_pauli(PauliString.from_label("X"))
        evolved = evolve_heisenberg(seed, circuit, prune_tol=0.0)
        assert [p.label() for p in evolved.terms] == ["X"]
        assert as_hex(evolved) == as_hex(gate_by_gate(seed, circuit, prune_tol=0.0))

    def test_clifford_work_does_not_scale_with_rank(self, monkeypatch):
        n, tau = 6, 32
        circuit = doped_circuit(n, tau, seed=3)
        seed = SparseOperator(
            n, {PauliString.from_label("ZIIIII"): 0.6, PauliString.from_label("IXIIIY"): 0.8}
        )
        sizes = []
        run = heisenberg._clifford_run

        def counted(rows, *args):
            sizes.append(len(rows))
            return run(rows, *args)

        monkeypatch.setattr(heisenberg, "_clifford_run", counted)
        evolved = evolve_heisenberg(seed, circuit)
        assert len(evolved) > 1000
        assert len(sizes) == tau + 1
        assert max(sizes) <= len(seed) + tau

    def test_masks_beyond_64_sites(self):
        seed, circuit = golden_inputs()
        shift, n = 64, 69
        wide_seed = SparseOperator(
            n, {PauliString.from_label("I" * shift + p.label()): a for p, a in seed}
        )
        gates = (Gate(g.kind, tuple(s + shift for s in g.sites), g.theta) for g in circuit.gates)
        wide = Circuit(n, tuple(gates))
        expected = {"I" * shift + label: value for label, value in GOLDEN.items()}
        assert as_hex(evolve_heisenberg(wide_seed, wide)) == expected
