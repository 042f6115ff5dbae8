"""The three benchmark workloads.

Each workload makes its inputs from the benchmark seed, runs them through
opmagic's public entry points (`plain`), and can replay the same calls one
level down through a probe (`traced`). Both return the same `outputs`,
which the gates check and which the traced replay must reproduce bit for
bit.

- doped_ensemble: `doped-scan` over 100 doped Clifford circuits at n=10,
  tau=4. About 150k gate calls on operators of about 3 terms, so it
  measures per-gate overhead and circuit build.
- xxz_deep: the XXZ brickwork at t = 1..13 from a three-component local
  seed, whose rank is exactly 2^(t+1)+1. Few large operators (up to 16385
  terms) measure the per-term cost of the same engine, then truncation and
  JSON I/O of the largest one.
- haar_mc: `haar-avg` at n=4 over 2000 samples per index. It touches only
  haar, dense and measures, so an engine change must not move it.
"""
from __future__ import annotations

import csv
import io
import json
import math
from contextlib import redirect_stdout

import numpy as np

from opmagic import (
    SparseOperator,
    conjugate_gate,
    doped_circuit,
    evolve_heisenberg,
    expectation_error_bound,
    from_local,
    ose,
    renyi_entropy,
    single_site_pauli,
    truncate_top,
)
from opmagic import cli
from opmagic.dense import pauli_coefficients, pauli_matrix
from opmagic.haar import sample_haar_unitary
from opmagic.heisenberg import CLIFFORD_KINDS
from opmagic.xxz import xxz_brickwork

import gates

DOPED = {"n": 10, "tau": 4, "circuits": 100, "alpha": "0,1,2,inf"}
XXZ = {"j": 0.3, "t_max": 13, "alphas": (1, 2, 3), "chis": (16, 256, 4096), "min_a2": 0.1}
HAAR = {"n": 4, "alpha": "2,3,4,5", "samples": 2000, "workers": 2}


def _run_cli(argv: list[str]) -> str:
    """`opmagic <argv>` in this process; returns what it prints."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"opmagic {argv[0]} exited {code}")
    return buf.getvalue()


def _csv_rows(text: str) -> list[list[str]]:
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.reader(lines))[1:]


def _evolve_traced(probe, op: int, operator: SparseOperator, circuit) -> SparseOperator:
    """evolve_heisenberg, gate by gate: conjugate in reverse list order."""
    for gate in reversed(circuit.gates):
        name = "heisenberg.clifford" if gate.kind in CLIFFORD_KINDS else "heisenberg.rotation"
        operator = probe.call(name, op, conjugate_gate, operator, gate)
    return operator


def _untraced(name: str, op: int, fn, *args):
    return fn(*args)


def _serialize(operator: SparseOperator) -> str:
    return json.dumps(operator.to_json_dict())


def _deserialize(text: str) -> SparseOperator:
    return SparseOperator.from_json_dict(json.loads(text))


class DopedEnsemble:
    name = "doped_ensemble"

    @staticmethod
    def inputs(seed: int) -> dict:
        argv = ["doped-scan", "--seed", str(seed)]
        for key, value in DOPED.items():
            argv += [f"--{key}", str(value)]
        return {"argv": argv, "tau": DOPED["tau"]}

    @staticmethod
    def plain(inp: dict) -> str:
        return _run_cli(inp["argv"])

    @staticmethod
    def traced(inp: dict, probe):
        """The calls `doped-scan` makes, with conjugate_gate in place of evolve_heisenberg."""
        args = cli.build_parser().parse_args(inp["argv"])
        labels = [tok.strip() for tok in args.alpha.split(",")]
        alphas = cli.parse_alphas(args.alpha)
        rng = np.random.default_rng(args.seed)
        rows = []
        for index in range(args.circuits):
            circuit = probe.call(
                "heisenberg.build", index, doped_circuit,
                args.n, args.tau, args.clifford_depth, int(rng.integers(2**63 - 1)),
            )
            seed_op = SparseOperator.from_pauli(single_site_pauli(0, "X", args.n))
            evolved = _evolve_traced(probe, index, seed_op, circuit)
            for label, alpha in zip(labels, alphas):
                rep = probe.call("measures.ose", index, ose, evolved, seed_op, alpha)
                rows.append([index, label, rep.ose, rep.rank])
        return rows

    @staticmethod
    def outputs(raw) -> dict:
        if isinstance(raw, str):
            raw = [[int(c), a, float(v), int(r)] for c, _, a, v, r in _csv_rows(raw)]
        return {"rows": raw}

    @staticmethod
    def check(inp: dict, raw, out: dict) -> list[list[str]]:
        by_circuit: dict[int, list] = {}
        for index, label, value, rank in out["rows"]:
            by_circuit.setdefault(index, []).append([label, value, rank])
        results = [gates.doped_circuit_gate(inp["tau"], rows) for rows in by_circuit.values()]
        m2 = [value for _, label, value, _ in out["rows"] if label == "2"]
        results.append(gates.doped_ensemble_gate(m2))
        return results


class XxzDeep:
    name = "xxz_deep"

    @staticmethod
    def inputs(seed: int) -> dict:
        """Local seed a_x X + a_y Y + a_z Z with every a^2 >= min_a2, drawn from `seed`."""
        rng = np.random.default_rng(seed)
        while True:
            a = rng.standard_normal(3)
            a /= math.sqrt(float(a @ a))
            if float(np.min(a * a)) >= XXZ["min_a2"]:
                break
        return {"j": XXZ["j"], "a": [float(v) for v in a], "t_max": XXZ["t_max"]}

    @staticmethod
    def _run(inp: dict, probe=None):
        call = probe.call if probe else _untraced
        j, (ax, ay, az) = inp["j"], inp["a"]
        ranks, sims = {}, {}
        for t in range(1, inp["t_max"] + 1):
            n = 2 * t + 2
            seed = from_local(t, ax, ay, az, n)
            circuit = call("heisenberg.build", t, xxz_brickwork, n, t, j)
            if probe is None:
                evolved = evolve_heisenberg(seed, circuit)
            else:
                evolved = _evolve_traced(probe, t, seed, circuit)
            sims[t] = {
                alpha: call("measures.ose", t, ose, evolved, seed, alpha).ose
                for alpha in XXZ["alphas"]
            }
            ranks[t] = len(evolved)
        cuts = {}
        for chi in XXZ["chis"]:
            result = call("paulis.truncate", chi, truncate_top, evolved, chi)
            cuts[chi] = (len(result.kept), result.epsilon, result.kept_weight,
                         expectation_error_bound(result.epsilon))
        text = call("paulis.serialize", 0, _serialize, evolved)
        back = call("paulis.deserialize", 0, _deserialize, text)
        return {"ranks": ranks, "sims": sims, "cuts": cuts, "last": evolved, "back": back}

    @staticmethod
    def plain(inp: dict):
        return XxzDeep._run(inp)

    @staticmethod
    def traced(inp: dict, probe):
        return XxzDeep._run(inp, probe)

    @staticmethod
    def outputs(raw) -> dict:
        return {
            "ose": [[t, alpha, v] for t, row in raw["sims"].items() for alpha, v in row.items()],
            "rank": [[t, r] for t, r in raw["ranks"].items()],
            "cuts": [[chi, *vals] for chi, vals in raw["cuts"].items()],
        }

    @staticmethod
    def check(inp: dict, raw, out: dict) -> list[list[str]]:
        a = tuple(inp["a"])
        results = [
            gates.xxz_depth_gate(inp["j"], a, t, raw["ranks"][t], raw["sims"][t])
            for t in raw["ranks"]
        ]
        weight = raw["last"].l2_weight()
        for _, epsilon, kept_weight, bound in raw["cuts"].values():
            results.append(gates.xxz_truncation_gate(weight, epsilon, kept_weight, bound))
        results.append(gates.roundtrip_gate(raw["last"].terms, raw["back"].terms))
        return results


class HaarMc:
    name = "haar_mc"

    @staticmethod
    def inputs(seed: int) -> dict:
        argv = ["haar-avg", "--seed", str(seed)]
        for key, value in HAAR.items():
            argv += [f"--{key}", str(value)]
        return {"argv": argv, "n": HAAR["n"]}

    @staticmethod
    def plain(inp: dict) -> str:
        return _run_cli(inp["argv"])

    @staticmethod
    def traced(inp: dict, probe):
        """The per-sample calls of `haar-avg`, over the same spawned RNG streams."""
        args = cli.build_parser().parse_args(inp["argv"])
        labels = [tok.strip() for tok in args.alpha.split(",")]
        n, total, workers = args.n, args.samples, args.workers
        dim = 1 << n
        seed_op = pauli_matrix(single_site_pauli(0, "X", n))
        base, extra = divmod(total, workers)
        counts = [base + (1 if w < extra else 0) for w in range(workers)]
        rows = []
        for k, (label, alpha) in enumerate(zip(labels, cli.parse_alphas(args.alpha))):
            purities = np.empty(total)
            pos = 0
            for count, stream in zip(counts, np.random.SeedSequence(args.seed).spawn(workers)):
                rng = np.random.default_rng(stream)
                for _ in range(count):
                    op = k * total + pos
                    u = probe.call("haar.sample", op, sample_haar_unitary, dim, rng)
                    evolved = u.conj().T @ seed_op @ u
                    coeff = probe.call("dense.coeff", op, pauli_coefficients, evolved, n).real
                    probs = coeff * coeff
                    purities[pos] = np.sum(probs**alpha)
                    probe.call("measures.renyi", op, renyi_entropy, probs[probs > 1e-30], alpha)
                    pos += 1
            stderr = float(np.std(purities, ddof=1) / math.sqrt(total))
            rows.append([label, float(np.mean(purities)), stderr])
        return rows

    @staticmethod
    def outputs(raw) -> dict:
        if isinstance(raw, str):
            raw = [[a, float(m), float(s)] for _, a, _, m, s, _, _ in _csv_rows(raw)]
        return {"rows": raw}

    @staticmethod
    def check(inp: dict, raw, out: dict) -> list[list[str]]:
        dim = 1 << inp["n"]
        return [gates.haar_gate(dim, int(label), mean, stderr) for label, mean, stderr in out["rows"]]


WORKLOADS = {w.name: w for w in (DopedEnsemble, XxzDeep, HaarMc)}
