import dataclasses
import math

import numpy as np
import pytest

from opmagic import (
    Circuit,
    Gate,
    PauliString,
    SparseOperator,
    brickwork_circuit,
    conjugate_gate,
    doped_circuit,
    evolve_heisenberg,
    ose,
    random_clifford_circuit,
    single_site_pauli,
)
from opmagic.dense import circuit_unitary, gate_matrix, pauli_spectrum
from opmagic.heisenberg import _KINDS, CLIFFORD_KINDS, GATE_KINDS, ROTATION_KINDS
from opmagic.paulis import enumerate_paulis
from conftest import ONE_SITE_KINDS, TWO_SITE_KINDS, random_mixed_circuit


def x_seed(site, n):
    return SparseOperator.from_pauli(single_site_pauli(site, "X", n))


class TestGateValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Gate("Q", (0,))

    def test_site_counts(self):
        with pytest.raises(ValueError):
            Gate("H", (0, 1))
        with pytest.raises(ValueError):
            Gate("CNOT", (0,))
        with pytest.raises(ValueError):
            Gate("SWAP", (1, 1))

    def test_theta_rules(self):
        with pytest.raises(ValueError):
            Gate("RZ", (0,))
        with pytest.raises(ValueError):
            Gate("H", (0,), 0.5)
        assert Gate("T", (0,)).angle == math.pi / 8
        assert Gate("Tdg", (0,)).angle == -math.pi / 8

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Gate("RZ", (0,), bad)
        with pytest.raises(ValueError, match="finite"):
            Gate.from_json_dict({"kind": "RZZ", "sites": [0, 1], "theta": bad})

    def test_circuit_range_check(self):
        with pytest.raises(ValueError):
            Circuit(2, (Gate("H", (2,)),))


class TestGateTable:
    """The gate table, the dense oracle and the test draws name the same kinds."""

    def test_kind_sets(self):
        assert GATE_KINDS == frozenset(_KINDS)
        assert CLIFFORD_KINDS == {"H", "S", "Sdg", "X", "Y", "Z", "CNOT", "CZ", "SWAP"}
        assert ROTATION_KINDS == {"T", "Tdg", "RZ", "RZZ"}

    def test_table_dense_oracle_and_draws_agree(self):
        arity = {kind: row[0] for kind, row in _KINDS.items()}
        draws = {**dict.fromkeys(ONE_SITE_KINDS, 1), **dict.fromkeys(TWO_SITE_KINDS, 2)}
        assert len(draws) == len(ONE_SITE_KINDS) + len(TWO_SITE_KINDS)
        assert draws == arity
        for kind, n_sites in arity.items():
            takes_angle = _KINDS[kind][1] is None and _KINDS[kind][2] is None
            gate = Gate(kind, tuple(range(n_sites)), 0.3 if takes_angle else None)
            matrix = gate_matrix(gate)
            assert matrix.shape == (1 << n_sites, 1 << n_sites)
            assert np.allclose(matrix @ matrix.conj().T, np.eye(1 << n_sites))

    def test_step_is_not_part_of_the_gate_value(self):
        step = {f.name: f for f in dataclasses.fields(Gate)}["step"]
        assert not (step.init or step.repr or step.compare)
        a, b = Gate("RZ", (1,), 0.3), Gate("RZ", (1,), 0.3)
        object.__setattr__(b, "step", ((), (0, 0, 0.0)))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert repr(a) == "Gate(kind='RZ', sites=(1,), theta=0.3)"
        assert a.to_json_dict() == {"kind": "RZ", "sites": [1], "theta": 0.3}
        assert Gate.from_json_dict(a.to_json_dict()).step == a.step == ((), (0, 2, 0.6))


class TestSingleGateOracle:
    """Every kind, every seed string, both site orders, vs the dense spectrum."""

    @pytest.mark.parametrize("kind", sorted(CLIFFORD_KINDS | ROTATION_KINDS))
    def test_gate_matches_dense(self, kind):
        two_site = kind in ("CNOT", "CZ", "SWAP", "RZZ")
        theta = 0.37 if kind in ("RZ", "RZZ") else None
        site_choices = [(0, 1), (1, 0)] if two_site else [(0,), (1,)]
        for sites in site_choices:
            gate = Gate(kind, sites, theta)
            circuit = Circuit(2, (gate,))
            u = circuit_unitary(circuit)
            for seed_p in enumerate_paulis(2):
                seed = SparseOperator.from_pauli(seed_p)
                evolved = conjugate_gate(seed, gate)
                spec = pauli_spectrum(u, seed)
                for k, p in enumerate(enumerate_paulis(2)):
                    assert abs(evolved.coefficient(p) - spec[k]) < 1e-12

    def test_hadamard_tableau(self):
        ev = conjugate_gate(x_seed(0, 1), Gate("H", (0,)))
        assert list(ev.terms.items()) == [(PauliString.from_label("Z"), 1.0)]

    def test_t_splits_x(self):
        ev = conjugate_gate(x_seed(0, 1), Gate("T", (0,)))
        assert ev.coefficient(PauliString.from_label("X")) == pytest.approx(math.cos(math.pi / 4))
        assert ev.coefficient(PauliString.from_label("Y")) == pytest.approx(-math.sin(math.pi / 4))

    def test_rzz_clifford_point(self):
        # cos(2 theta) = 0 at theta = pi/4: one surviving weight-1 string
        ev = conjugate_gate(x_seed(0, 2), Gate("RZZ", (0, 1), math.pi / 4))
        assert len(ev) == 1
        (p, a), = list(ev.terms.items())
        assert p.label() == "YZ" and abs(abs(a) - 1.0) < 1e-12


class TestEvolve:
    def test_empty_circuit(self):
        seed = x_seed(0, 3)
        assert evolve_heisenberg(seed, Circuit(3, ())).terms == seed.terms

    def test_single_t_saturation(self):
        ev = evolve_heisenberg(x_seed(0, 1), Circuit(1, (Gate("T", (0,)),)))
        probs = sorted(a * a for _, a in ev)
        assert probs == pytest.approx([0.5, 0.5])

    def test_two_t_tensor(self):
        seed = SparseOperator.from_pauli(PauliString.from_label("XX"))
        ev = evolve_heisenberg(seed, Circuit(2, (Gate("T", (0,)), Gate("T", (1,)))))
        assert len(ev) == 4
        for _, a in ev:
            assert a * a == pytest.approx(0.25)

    def test_reverse_order_convention(self):
        # circuit [H, T] means U = T H, so U^dag X U = cos Z + sin Y
        ev = evolve_heisenberg(x_seed(0, 1), Circuit(1, (Gate("H", (0,)), Gate("T", (0,)))))
        assert ev.coefficient(PauliString.from_label("Z")) == pytest.approx(math.cos(math.pi / 4))
        assert ev.coefficient(PauliString.from_label("Y")) == pytest.approx(math.sin(math.pi / 4))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            evolve_heisenberg(x_seed(0, 2), Circuit(3, ()))

    def test_weight_conserved_per_gate(self):
        rng = np.random.default_rng(3)
        op = x_seed(2, 4)
        circuit = random_mixed_circuit(rng, 4, 30)
        for gate in reversed(circuit.gates):
            op = conjugate_gate(op, gate)
            assert abs(op.l2_weight() - 1.0) < 1e-12

    def test_rank_law(self):
        rng = np.random.default_rng(4)
        op = x_seed(1, 4)
        circuit = random_mixed_circuit(rng, 4, 40)
        for gate in reversed(circuit.gates):
            before = len(op)
            op = conjugate_gate(op, gate)
            if gate.kind in CLIFFORD_KINDS:
                assert len(op) == before
            else:
                assert len(op) <= 2 * before

    def test_oracle_equivalence_random_circuits(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            circuit = random_mixed_circuit(rng, n, int(rng.integers(1, 13)))
            seeds = enumerate_paulis(n)
            seed = SparseOperator.from_pauli(seeds[int(rng.integers(1, len(seeds)))])
            evolved = evolve_heisenberg(seed, circuit)
            spec = pauli_spectrum(circuit_unitary(circuit), seed)
            for k, p in enumerate(enumerate_paulis(n)):
                assert abs(evolved.coefficient(p) - spec[k]) < 1e-10


class TestBrickwork:
    def brick(self, theta=0.3):
        return (Gate("RZZ", (0, 1), theta), Gate("SWAP", (0, 1)))

    def test_even_layer_structure(self):
        c = brickwork_circuit(4, 1, self.brick())
        pairs = {g.sites for g in c.gates if g.kind == "SWAP"}
        assert pairs == {(0, 1), (2, 3)}

    def test_open_boundary_odd_layer(self):
        c = brickwork_circuit(4, 2, self.brick())
        swaps = [g.sites for g in c.gates if g.kind == "SWAP"]
        assert swaps == [(0, 1), (2, 3), (1, 2)]

    def test_odd_qubit_count_rejected(self):
        with pytest.raises(ValueError):
            brickwork_circuit(3, 1, self.brick())

    def test_template_site_guard(self):
        with pytest.raises(ValueError):
            brickwork_circuit(4, 1, (Gate("RZZ", (0, 2), 0.1),))

    def test_light_cone_after_one_layer(self):
        c = brickwork_circuit(8, 1, self.brick())
        ev = evolve_heisenberg(x_seed(3, 8), c)
        assert ev.support() <= {2, 3}

    @pytest.mark.parametrize("layers", range(1, 7))
    def test_light_cone_bound(self, layers):
        n = 2 * layers + 2
        c = brickwork_circuit(n, layers, self.brick())
        ev = evolve_heisenberg(x_seed(layers, n), c)
        assert len(ev.support()) <= 1 + 2 * layers


class TestRandomCircuits:
    def test_clifford_determinism(self):
        a = random_clifford_circuit(2, 20, seed=7)
        b = random_clifford_circuit(2, 20, seed=7)
        assert a.gates == b.gates

    def test_single_qubit_gate_set(self):
        c = random_clifford_circuit(1, 5, seed=1)
        assert all(g.kind in ("H", "S") for g in c.gates)

    def test_clifford_faithfulness(self):
        for seed in range(5):
            c = random_clifford_circuit(3, 27, seed=seed)
            op = x_seed(0, 3)
            ev = evolve_heisenberg(op, c)
            assert len(ev) == 1
            report = ose(ev, op, 2)
            assert report.ose == 0.0

    def test_doped_tau_zero_is_clifford(self):
        c = doped_circuit(3, 0, clifford_depth=27, seed=2)
        assert all(g.kind != "T" for g in c.gates)
        ev = evolve_heisenberg(x_seed(0, 3), c)
        assert len(ev) == 1

    def test_doped_tau_one_rank(self):
        for seed in range(6):
            c = doped_circuit(4, 1, clifford_depth=48, seed=seed)
            assert sum(g.kind == "T" for g in c.gates) == 1
            ev = evolve_heisenberg(x_seed(0, 4), c)
            assert len(ev) <= 2

    def test_doped_determinism(self):
        assert doped_circuit(4, 3, seed=5).gates == doped_circuit(4, 3, seed=5).gates


class TestSupport:
    def test_single_site(self):
        assert x_seed(3, 8).support() == {3}

    def test_identity_empty(self):
        op = SparseOperator.from_pauli(PauliString.identity(4))
        assert op.support() == set()


class TestSerialization:
    def test_circuit_json_round_trip(self):
        rng = np.random.default_rng(9)
        c = random_mixed_circuit(rng, 3, 10)
        back = Circuit.from_json_dict(c.to_json_dict())
        assert back == c

    def test_circuit_text_round_trip(self):
        c = Circuit(3, (Gate("T", (0,)), Gate("RZZ", (0, 2), 0.3927), Gate("H", (1,))))
        back = Circuit.from_text(c.to_text())
        assert back == c

    def test_text_pi_fractions_and_comments(self):
        text = "qubits 2\n# a comment\nRZ 0 pi/8\nCNOT 0 1  # inline\n"
        c = Circuit.from_text(text)
        assert c.gates[0].theta == pytest.approx(math.pi / 8)
        assert c.gates[1].kind == "CNOT"

    @pytest.mark.parametrize("line", ["RZ 0 0.3 junk", "T 0 pi/8 1", "CNOT 0 1 2 3"])
    def test_text_trailing_tokens_rejected(self, line):
        with pytest.raises(ValueError, match=line):
            Circuit.from_text(f"qubits 4\n{line}\n")
