"""The propagation kernel: golden coefficients, differential checks, sampler marginals."""
import math
from unittest import mock

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
    evolve_ensemble,
    evolve_heisenberg,
    from_local,
    random_clifford_circuit,
)
from opmagic import heisenberg
from opmagic.dense import circuit_unitary, pauli_spectrum
from opmagic.paulis import PRUNE_TOL, enumerate_paulis
from opmagic.xxz import xxz_brickwork
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
def mixed_cases(draw, min_qubits=1, max_qubits=4):
    n = draw(st.integers(min_qubits, max_qubits))
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
    evolved = evolve_heisenberg(seed, Circuit(5, ()))
    assert evolved.xz.tobytes() == seed.xz.tobytes() and evolved.coeff.tobytes() == seed.coeff.tobytes()


def test_empty_circuit_prunes_like_the_identity_circuit():
    # S S S S is the identity, so both circuits must drop the Z term below prune_tol
    seed = SparseOperator(1, {PauliString.from_label("X"): 0.9999995, PauliString.from_label("Z"): 0.001})
    empty = evolve_heisenberg(seed, Circuit(1, ()), prune_tol=0.01)
    identity = evolve_heisenberg(seed, Circuit(1, (Gate("S", (0,)),) * 4), prune_tol=0.01)
    assert empty.xz.tobytes() == identity.xz.tobytes() and empty.coeff.tobytes() == identity.coeff.tobytes()
    assert dict(empty.terms) == {PauliString.from_label("X"): 0.9999995}
    zero = evolve_heisenberg(SparseOperator(1, {}), Circuit(1, ()))
    assert len(zero) == 0 and zero.xz.shape == (2, 0)


class TestZeroOperator:
    """The zero operator evolves to the zero operator."""

    CIRCUIT = Circuit(2, (Gate("T", (0,)), Gate("H", (1,)), Gate("CNOT", (0, 1)), Gate("RZZ", (0, 1), 0.3)))

    @staticmethod
    def assert_zero(operator):
        assert operator.n_qubits == 2 and len(operator) == 0
        assert operator.xz.shape == (2, 0) and dict(operator.terms) == {}

    def test_empty_seed(self):
        self.assert_zero(evolve_heisenberg(SparseOperator(2, {}), self.CIRCUIT))

    def test_every_seed_term_below_prune_tol(self):
        seed = SparseOperator(2, {PauliString.from_label("XI"): 1e-4, PauliString.from_label("ZZ"): -1e-5})
        self.assert_zero(evolve_heisenberg(seed, self.CIRCUIT, prune_tol=1e-3))

    def test_one_gate(self):
        self.assert_zero(conjugate_gate(SparseOperator(2, {}), Gate("T", (0,))))


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
        # every Clifford gate acts on the bit-sliced rows of the compile, one
        # per seed term and one per rotation, never on the evolved operator
        n, tau = 6, 32
        circuit = doped_circuit(n, tau, seed=3)
        seed = SparseOperator(
            n, {PauliString.from_label("ZIIIII"): 0.6, PauliString.from_label("IXIIIY"): 0.8}
        )
        widths = []
        compile_ = heisenberg._compile

        def counted(xs, zs, rows, gates):
            sign, angles = compile_(xs, zs, rows, gates)
            widths.append(max(v.bit_length() for v in [*xs, *zs, sign]))
            return sign, angles

        monkeypatch.setattr(heisenberg, "_compile", counted)
        evolved = evolve_heisenberg(seed, circuit)
        assert len(evolved) > 1000
        assert len(widths) == 1
        assert widths[0] <= len(seed) + tau

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

    def test_generator_with_300_y_letters(self):
        # the phase exponent of a product counts the generator's Y letters,
        # more of them than a uint8 holds
        n = 300
        gates = [Gate("S", (q,)) for q in range(n)] + [Gate("H", (q,)) for q in range(n)]
        gates += [Gate("CNOT", (q, 0)) for q in range(1, n)] + [Gate("RZ", (0,), 0.3)]
        seed = SparseOperator.from_pauli(PauliString(n, 1, 0))
        evolved = evolve_heisenberg(seed, Circuit(n, tuple(gates)))
        assert as_hex(evolved) == {
            "Z" + "I" * (n - 1): math.cos(0.6).hex(),
            "X" + "Y" * (n - 1): (-math.sin(0.6)).hex(),
        }

    @settings(max_examples=40, deadline=None)
    @given(case=mixed_cases(2, 10))
    def test_strings_straddling_two_words(self, case):
        # shifted by 60 sites, to n = 62..70, the strings cross the boundary
        # of their first 64-bit word; order and coefficients must not change
        seed, circuit = case
        shift, n = 60, 60 + circuit.n_qubits
        wide_seed = SparseOperator(
            n, {PauliString(n, p.x_mask << shift, p.z_mask << shift): a for p, a in seed}
        )
        gates = (Gate(g.kind, tuple(s + shift for s in g.sites), g.theta) for g in circuit.gates)
        wide = evolve_heisenberg(wide_seed, Circuit(n, tuple(gates)))
        narrow = evolve_heisenberg(seed, circuit)
        assert [(p.x_mask, p.z_mask, a.hex()) for p, a in wide] == [
            (p.x_mask << shift, p.z_mask << shift, a.hex()) for p, a in narrow
        ]


class TestLightCone:
    """Rotations whose generator meets no row's support are skipped unrun."""

    def count_rotations(self, monkeypatch):
        calls = []
        rotate = heisenberg._rotate

        def counted(*args):
            calls.append(1)
            return rotate(*args)

        monkeypatch.setattr(heisenberg, "_rotate", counted)
        return calls

    def test_xxz_enters_the_kernel_once_per_light_cone_rotation(self, monkeypatch):
        # 868 rotations over t = 1..13; t of them at depth t meet the operator
        calls = self.count_rotations(monkeypatch)
        for t in range(1, 14):
            n = 2 * t + 2
            evolve_heisenberg(from_local(t, 0.6, 0.0, 0.8, n), xxz_brickwork(n, t, 0.3))
        assert len(calls) == 91

    def test_doped_circuit_enters_the_kernel_once_per_t_gate(self, monkeypatch):
        calls = self.count_rotations(monkeypatch)
        seed = SparseOperator.from_pauli(PauliString(10, 1, 0))
        evolve_heisenberg(seed, doped_circuit(10, 4, seed=5))
        assert len(calls) == 4

    def test_a_batch_enters_the_kernel_once_per_step(self, monkeypatch):
        # 20 circuits are a full batch and a batch of 4, each with 4 steps
        calls = self.count_rotations(monkeypatch)
        seed = SparseOperator.from_pauli(PauliString(10, 1, 0))
        circuits = [doped_circuit(10, 4, seed=s) for s in range(heisenberg._BATCH + 4)]
        assert len(list(evolve_ensemble(seed, circuits))) == len(circuits)
        assert len(calls) == 8

    def test_a_batch_past_its_row_limit_goes_on_one_circuit_at_a_time(self, monkeypatch):
        # at a limit of 0 rows every rotation runs on one circuit's rows, without the key row
        calls = []
        rotate = heisenberg._rotate

        def unkeyed(xz, *args):
            calls.append(len(xz))
            return rotate(xz, *args)

        monkeypatch.setattr(heisenberg, "_rotate", unkeyed)
        monkeypatch.setattr(heisenberg, "_BATCH_ROWS", 0)
        seed = SparseOperator.from_pauli(PauliString(10, 1, 0))
        circuits = [doped_circuit(10, 4, seed=s) for s in range(heisenberg._BATCH + 4)]
        assert len(list(evolve_ensemble(seed, circuits))) == len(circuits)
        assert calls == [2] * 4 * len(circuits)

    def test_a_real_ensemble_crosses_the_default_row_limit(self, monkeypatch):
        # 16 circuits of 16 T gates outgrow 4096 rows part way through: the
        # batch runs keyed, then each circuit's last steps run alone, unkeyed
        calls = []
        rotate = heisenberg._rotate

        def keyed(xz, *args):
            calls.append(len(xz) & 1 == 1)
            return rotate(xz, *args)

        monkeypatch.setattr(heisenberg, "_rotate", keyed)
        seed = SparseOperator.from_pauli(PauliString(10, 1, 0))
        circuits = [doped_circuit(10, 16, seed=s) for s in range(16)]
        evolved = list(evolve_ensemble(seed, circuits))
        assert True in calls and False in calls
        monkeypatch.setattr(heisenberg, "_rotate", rotate)
        for circuit, item in zip(circuits, evolved, strict=True):
            alone = evolve_heisenberg(seed, circuit)
            assert item.xz.tobytes() == alone.xz.tobytes() and item.xz.shape == alone.xz.shape
            assert item.coeff.tobytes() == alone.coeff.tobytes()

    @pytest.mark.parametrize("t", [5, 10])
    def test_each_circuit_of_a_keyed_batch_gets_its_own_plan(self, monkeypatch, t):
        # three couplings from one seed on one register: each circuit plans
        # from its own generator rows, so the batch enters the kernel t
        # times, keyed, as one circuit alone does (below the row limit)
        n = 2 * t + 2
        seed = from_local(t, 0.6, 0.0, 0.8, n)
        circuits = [xxz_brickwork(n, t, j) for j in (0.1, 0.3, 0.5)]
        calls = []
        rotate = heisenberg._rotate

        def keyed(xz, *args):
            calls.append(len(xz) & 1 == 1)
            return rotate(xz, *args)

        monkeypatch.setattr(heisenberg, "_rotate", keyed)
        expected = [evolve_heisenberg(seed, c) for c in circuits]
        assert calls == [False] * 3 * t
        calls.clear()
        evolved = list(evolve_ensemble(seed, circuits))
        assert calls == [True] * t
        for item, want in zip(evolved, expected, strict=True):
            assert item.xz.tobytes() == want.xz.tobytes() and item.coeff.tobytes() == want.coeff.tobytes()

    def test_items_past_the_row_limit_come_out_one_circuit_at_a_time(self, monkeypatch):
        # each circuit cut from its batch is evolved only when its item is
        # pulled, so past the cut one large operator is held at a time
        calls = self.count_rotations(monkeypatch)
        monkeypatch.setattr(heisenberg, "_BATCH_ROWS", 0)
        seed = SparseOperator.from_pauli(PauliString(10, 1, 0))
        items = evolve_ensemble(seed, [doped_circuit(10, 4, seed=s) for s in range(heisenberg._BATCH)])
        next(items)
        assert len(calls) == 4
        next(items)
        assert len(calls) == 8

    def test_local_seed_on_two_words_equals_the_narrow_register(self):
        # the evolved operator covers sites 0..9 of the narrow register and
        # 58..67 of the wide one, across the first word's edge; the shift is
        # even, so every brick that meets it is a narrow-register brick moved
        t, shift, n = 5, 58, 70
        narrow = evolve_heisenberg(
            from_local(t, 0.48, 0.6, 0.64, 2 * t + 2), xxz_brickwork(2 * t + 2, t, 0.3)
        )
        wide = evolve_heisenberg(
            from_local(t + shift, 0.48, 0.6, 0.64, n), xxz_brickwork(n, t, 0.3)
        )
        assert len(narrow) == 2 ** (t + 1) + 1
        assert [(p.x_mask, p.z_mask, a.hex()) for p, a in wide] == [
            (p.x_mask << shift, p.z_mask << shift, a.hex()) for p, a in narrow
        ]

    @pytest.mark.parametrize(
        "a, b, labels",
        [
            # Y gets c c - s s, a rounding remainder that is kept at prune_tol 0
            (math.sin(math.pi / 4), math.cos(math.pi / 4), ["XI", "YI", "ZX"]),
            # Y gets s c - c s, an exact zero that is never kept
            (math.cos(math.pi / 4), math.sin(math.pi / 4), ["XI", "ZX"]),
        ],
    )
    def test_split_rows_merge_onto_existing_strings(self, a, b, labels):
        n = 2
        seed = SparseOperator(
            n,
            {PauliString.from_label("XI"): a, PauliString.from_label("YI"): b,
             PauliString.from_label("ZX"): 0.5},
        )
        circuit = Circuit(n, (Gate("T", (0,)),))
        evolved = evolve_heisenberg(seed, circuit, prune_tol=0.0)
        assert [p.label() for p in evolved.terms] == labels
        spectrum = pauli_spectrum(circuit_unitary(circuit), seed)
        for k, p in enumerate(enumerate_paulis(n)):
            assert abs(evolved.coefficient(p) - spectrum[k]) < 1e-10


@st.composite
def ensembles(draw):
    """A seed of 0 to 3 terms, a batch of mixed circuits with rotation counts
    that differ, empty ones included, a prune tolerance, and a batch row
    limit, small ones to split batches part way through their steps."""
    n = draw(st.one_of(st.integers(1, 6), st.integers(62, 70)))
    top = (1 << n) - 1
    terms = draw(st.lists(st.tuples(st.integers(0, top), st.integers(0, top)), max_size=3, unique=True))
    coeffs = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(terms), max_size=len(terms)))
    seed = SparseOperator(n, {PauliString(n, x, z): a for (x, z), a in zip(terms, coeffs)})
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(0, 12), max_size=2 * heisenberg._BATCH + 3))
    circuits = [random_mixed_circuit(rng, n, size) for size in sizes]
    prune_tol = draw(st.sampled_from([PRUNE_TOL, 0.0, 1e-3, 0.2]))
    return seed, circuits, prune_tol, draw(st.sampled_from([heisenberg._BATCH_ROWS, 0, 3, 8]))


@settings(max_examples=60, deadline=None)
@given(case=ensembles())
def test_ensemble_items_equal_single_circuit_runs(case):
    seed, circuits, prune_tol, batch_rows = case
    with mock.patch.object(heisenberg, "_BATCH_ROWS", batch_rows):
        evolved = list(evolve_ensemble(seed, iter(circuits), prune_tol=prune_tol))
    assert len(evolved) == len(circuits)
    for circuit, item in zip(circuits, evolved):
        alone = evolve_heisenberg(seed, circuit, prune_tol=prune_tol)
        assert item.n_qubits == alone.n_qubits
        assert item.xz.tobytes() == alone.xz.tobytes() and item.xz.shape == alone.xz.shape
        assert item.coeff.tobytes() == alone.coeff.tobytes()


def test_ensemble_rejects_a_circuit_of_another_size():
    seed, circuit = golden_inputs()
    with pytest.raises(ValueError, match="size mismatch"):
        list(evolve_ensemble(seed, [circuit, Circuit(4, ())]))
