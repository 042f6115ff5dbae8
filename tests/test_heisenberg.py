import dataclasses
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from opmagic.heisenberg import (_CNOT, _H, _KINDS, _ROT, _S, _SWAP, CLIFFORD_KINDS, GATE_KINDS, ROTATION_KINDS,
                                 _gate_table, _walk)
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

    def test_conjugate_gate_range_check(self):
        with pytest.raises(ValueError, match=r"gate .* out of range for 2 qubits"):
            conjugate_gate(x_seed(0, 2), Gate("CNOT", (0, 2)))

    def test_circuit_needs_a_qubit(self):
        with pytest.raises(ValueError, match="n_qubits must be positive"):
            Circuit(0, ())

    def test_negative_site_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Gate("H", (-1,))


class TestGateTable:
    """The gate table, the dense oracle and the test draws name the same kinds."""

    def test_kind_sets(self):
        assert GATE_KINDS == frozenset(_KINDS)
        assert CLIFFORD_KINDS == {"H", "S", "Sdg", "X", "Y", "Z", "CNOT", "CZ", "SWAP"}
        assert ROTATION_KINDS == {"T", "Tdg", "RZ", "RZZ"}

    @pytest.mark.parametrize("kind", sorted(CLIFFORD_KINDS))
    def test_clifford_kinds_lower_to_chp_opcodes(self, kind):
        # Pauli gates are H and S words, so the compile needs no sign rule of its own
        step = _KINDS[kind][1](3, 5)
        assert step and {code for code, _, _ in step} <= {_H, _S, _CNOT, _SWAP}
        assert all(isinstance(q, int) and isinstance(q2, int) for _, q, q2 in step)

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
        object.__setattr__(b, "step", ())
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert repr(a) == "Gate(kind='RZ', sites=(1,), theta=0.3)"
        assert a.to_json_dict() == {"kind": "RZ", "sites": [1], "theta": 0.3}
        assert Gate.from_json_dict(a.to_json_dict()).step == a.step == ((_ROT, (1,), 0.6),)


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


@pytest.mark.parametrize("n", [2, 4, 8])
@pytest.mark.parametrize("layers", range(4))
def test_brickwork_equals_gate_by_gate_build(n, layers):
    brick = (Gate("RZZ", (0, 1), 0.3), Gate("SWAP", (0, 1)), Gate("T", (1,)))
    gates = [
        Gate(g.kind, tuple(left + s for s in g.sites), g.theta)
        for layer in range(layers)
        for left in range(layer % 2, n - 1, 2)
        for g in brick
    ]
    assert brickwork_circuit(n, layers, brick) == Circuit(n, tuple(gates))


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

    @pytest.mark.parametrize("n", [0, -3])
    def test_bad_qubit_count_is_named(self, n):
        for build in (lambda: random_clifford_circuit(n, 5), lambda: doped_circuit(n, 1, 5)):
            with pytest.raises(ValueError, match=f"qubit count n must be positive, got {n}"):
                build()

    @pytest.mark.parametrize("depth", [0, -2, 2**62])
    def test_bad_clifford_depth_is_named(self, depth):
        for build in (lambda: random_clifford_circuit(3, depth), lambda: doped_circuit(3, 1, depth)):
            with pytest.raises(ValueError, match=rf"Clifford depth must be in 1\.\.\d+ for \d blocks, got {depth}"):
                build()

    def test_default_depth_past_the_limit_names_the_default(self):
        # 3 n^2 at n = 10^9 is past the draw array's limit; the depth was never given
        message = r"got the default 3 n\^2 = 3000000000000000000 for n = 1000000000$"
        for build in (lambda: random_clifford_circuit(10**9), lambda: doped_circuit(10**9, 1)):
            with pytest.raises(ValueError, match=r"Clifford depth must be in 1\.\.\d+ for \d blocks, " + message):
                build()

    def test_non_integer_qubit_count_is_named(self):
        for build, n in ((lambda: random_clifford_circuit(2.5), 2.5), (lambda: doped_circuit(3.0, 1), 3.0)):
            with pytest.raises(ValueError, match=rf"qubit count n must be an integer, got {n}"):
                build()

    def test_non_integer_tau_is_named(self):
        with pytest.raises(ValueError, match=r"tau must be an integer, got 1\.5"):
            doped_circuit(3, 1.5)

    def test_non_integer_clifford_depth_is_named(self):
        for build in (lambda: random_clifford_circuit(3, 2.5), lambda: doped_circuit(3, 1, 2.5)):
            with pytest.raises(ValueError, match=r"Clifford depth must be an integer, got 2\.5"):
                build()

    def test_cnot_entries_made_on_draw_are_the_ordered_pairs(self):
        n = 5
        c = random_clifford_circuit(n, 400, seed=3)
        cnots = {g.sites for g in c.gates if g.kind == "CNOT"}
        assert cnots == {(a, b) for a in range(n) for b in range(n) if a != b}
        table = _gate_table(n)
        made = table.slot[2 * n : n * (n + 1)]
        assert made.all()
        assert [g.sites for g in table.gates.take(made)] == sorted(cnots)
        assert sum(g.kind == "CNOT" for g in table.gates[1 : table.size]) == len(cnots)

    def test_a_wide_register_builds_only_the_gates_it_draws(self):
        # the table of every n (n - 1) CNOT gates took 2.2 s and 129 MB at n = 600
        # in a fresh process; its peak resident size is VmHWM, which, unlike
        # ru_maxrss, does not carry the parent's peak across the exec
        code = (
            "import re, time\n"
            "from opmagic import doped_circuit\n"
            "t0 = time.perf_counter()\n"
            "doped_circuit(600, 1, 5, 0)\n"
            "seconds = time.perf_counter() - t0\n"
            "status = open('/proc/self/status').read()\n"
            "print(seconds, int(re.search(r'VmHWM:\\s*(\\d+) kB', status).group(1)) / 1024)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        seconds, peak_mb = map(float, done.stdout.split())
        assert seconds < 0.2 and peak_mb < 60


def _gates_digest(circuits):
    h = hashlib.sha256()
    for c in circuits:
        h.update(repr((c.n_qubits, [(g.kind, g.sites, g.theta) for g in c.gates])).encode())
    return h.hexdigest()


# (n, clifford depth, seed) of the builder pins, and their sha256 digests of every
# gate's (kind, sites, theta), recorded from the list-building builders: a seed must
# keep naming the same circuits
BUILD_GRID = [(n, depth, seed) for n in (1, 2, 5, 10, 70) for depth in (None, 1, 7) for seed in (0, 99)]


class TestBuilderPins:
    def test_doped_circuits_pinned(self):
        circuits = (doped_circuit(n, tau, depth, seed) for n, depth, seed in BUILD_GRID for tau in (0, 1, 4))
        assert _gates_digest(circuits) == "34677dc06b8dc253ddbb349341d87ebab96e8b0a3b2d48a84b0824c5fbb07f07"

    def test_random_clifford_circuits_pinned(self):
        circuits = (random_clifford_circuit(n, depth, seed) for n, depth, seed in BUILD_GRID)
        assert _gates_digest(circuits) == "009ec806f96543129664ac9df4f08c66bfdfdafbd790762694f666ae5f314c4d"


_BRICK_GATES = st.sampled_from(
    [Gate("RZZ", (0, 1), 0.3), Gate("SWAP", (0, 1)), Gate("CNOT", (1, 0)), Gate("T", (1,)), Gate("H", (0,))]
)


@st.composite
def built_circuits(draw):
    """A circuit from each builder that makes its gates in range by construction."""
    builder = draw(st.sampled_from(["doped", "clifford", "brickwork"]))
    seed = draw(st.integers(0, 2**32))
    depth = draw(st.one_of(st.none(), st.integers(1, 12)))
    if builder == "doped":
        return doped_circuit(draw(st.integers(1, 8)), draw(st.integers(0, 4)), depth, seed)
    if builder == "clifford":
        return random_clifford_circuit(draw(st.integers(1, 8)), depth, seed)
    brick = draw(st.lists(_BRICK_GATES, min_size=1, max_size=3))
    return brickwork_circuit(2 * draw(st.integers(1, 5)), draw(st.integers(0, 4)), brick)


@settings(max_examples=80, deadline=None)
@given(circuit=built_circuits())
def test_builders_pass_every_circuit_check(circuit):
    # the builders skip the site check (Circuit._of): it must be one they cannot fail
    checked = Circuit(circuit.n_qubits, circuit.gates)
    assert checked == circuit
    assert type(circuit.n_qubits) is int and type(circuit.gates) is tuple


def _eager_table(n):
    """Every entry of the gate table, made up front in index order."""
    return (
        [Gate("H", (q,)) for q in range(n)]
        + [Gate("S", (q,)) for q in range(n)]
        + [Gate("CNOT", (c, t)) for c in range(n) for t in range(n) if c != t]
        + [Gate("T", (q,)) for q in range(n)]
    )


def _block_indices(n, depth, seed):
    """One block's table indices, drawn as the per-block builder drew them."""
    rng = np.random.default_rng(seed)
    kind = rng.integers(3 if n >= 2 else 2, size=depth)
    site = rng.integers(n, size=depth)
    pair = rng.integers(max(n * (n - 1), 1), size=depth)
    return np.where(kind == 2, 2 * n + pair, kind * n + site)


def _per_block_doped(n, tau, depth, seed):
    """The gates of `doped_circuit`, built one block at a time."""
    rng = np.random.default_rng(seed)
    block_seeds = rng.integers(0, 2**63 - 1, size=tau + 1)
    t_sites = rng.integers(0, n, size=tau)
    blocks = np.stack([_block_indices(n, depth, s) for s in block_seeds.tolist()])
    body = np.column_stack((blocks[:-1], n * (n + 1) + t_sites))
    table = _eager_table(n)
    return [table[i] for i in np.concatenate((body.ravel(), blocks[-1])).tolist()]


def _gate_tuples(gates):
    return [(g.kind, g.sites, g.theta) for g in gates]


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 12), tau=st.integers(0, 6), depth=st.integers(1, 40), seed=st.integers(0, 2**63 - 1)
)
def test_block_draws_name_the_per_block_gates(n, tau, depth, seed):
    # all blocks drawn into one array and mapped by one where: the same gates,
    # and the table's opcode stream is each gate's step, last gate first
    doped = doped_circuit(n, tau, depth, seed)
    assert _gate_tuples(doped.gates) == _gate_tuples(_per_block_doped(n, tau, depth, seed))
    clifford = random_clifford_circuit(n, depth, seed)
    table = _eager_table(n)
    assert _gate_tuples(clifford.gates) == _gate_tuples(table[i] for i in _block_indices(n, depth, seed).tolist())
    for circuit in (doped, clifford):
        flat = [op for g in reversed(circuit.gates) for op in g.step]
        assert circuit._ops is not None and circuit._ops == flat
        rebuilt = Circuit(n, circuit.gates)
        assert rebuilt._ops is None and _walk(n, rebuilt) == flat


def test_gate_table_memory_follows_the_draws():
    # only the int32 slot array spans the n (n + 2) entries: 36 MB at n = 3000,
    # where the object and bool arrays of every entry held 80 MB
    code = (
        "import tracemalloc\n"
        "import numpy.random\n"
        "from opmagic import doped_circuit\n"
        "tracemalloc.start()\n"
        "doped_circuit(3000, 1, 5, 0)\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert int(done.stdout) <= 40e6


class TestSupport:
    def test_single_site(self):
        assert x_seed(3, 8).support() == {3}

    def test_identity_empty(self):
        op = SparseOperator.from_pauli(PauliString(4, 0, 0))
        assert op.support() == set()


class TestSerialization:
    def test_circuit_json_round_trip(self):
        rng = np.random.default_rng(9)
        c = random_mixed_circuit(rng, 3, 10)
        back = Circuit.from_json_dict(c.to_json_dict())
        assert back == c

    def test_circuit_text_round_trip(self):
        c = Circuit(3, (Gate("T", (0,)), Gate("RZZ", (0, 2), 0.3927), Gate("H", (1,))))
        back = Circuit.from_text("qubits 3\nT 0\nRZZ 0 2 0.3927\nH 1\n")
        assert back == c

    def test_text_pi_fractions_and_comments(self):
        text = "qubits 2\n# a comment\nRZ 0 pi/8\nCNOT 0 1  # inline\n"
        c = Circuit.from_text(text)
        assert c.gates[0].theta == pytest.approx(math.pi / 8)
        assert c.gates[1].kind == "CNOT"

    @pytest.mark.parametrize(
        "text,message",
        [
            ("qubits two\nH 0\n", "qubit count must be an integer, got 'two' in line 'qubits two'"),
            ("qubits 2.0\n", "qubit count must be an integer, got '2.0' in line 'qubits 2.0'"),
            ("qubits 2\nH x\n", "site must be an integer, got 'x' in line 'H x'"),
            ("qubits 2\nRZZ 0 one pi/8\n", "site must be an integer, got 'one' in line 'RZZ 0 one pi/8'"),
        ],
    )
    def test_text_non_integer_field_named(self, text, message):
        with pytest.raises(ValueError) as info:
            Circuit.from_text(text)
        assert str(info.value) == message

    def test_text_without_qubits_line_infers_n(self):
        c = Circuit.from_text("T 0\nCNOT 1 3\n")
        assert c.n_qubits == 4
        assert [g.kind for g in c.gates] == ["T", "CNOT"]

    def test_text_unknown_kind_named(self):
        with pytest.raises(ValueError) as info:
            Circuit.from_text("qubits 2\nFOO 0\n")
        assert str(info.value) == "unknown gate kind 'FOO' in line 'FOO 0'"

    @pytest.mark.parametrize("line", ["RZ 0 0.3 junk", "T 0 pi/8 1", "CNOT 0 1 2 3"])
    def test_text_trailing_tokens_rejected(self, line):
        with pytest.raises(ValueError, match=line):
            Circuit.from_text(f"qubits 4\n{line}\n")
