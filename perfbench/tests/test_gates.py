"""Self-test of the benchmark: every gate fires on one corrupted result.

    python3 -m pytest -q perfbench/tests

A gate that never fires would let a wrong result count as correct, so each
test feeds a passing result, then the same result with one field
corrupted, and checks that exactly that operation is counted as failed.
"""
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import pytest  # noqa: E402

import gates  # noqa: E402
from opmagic import SparseOperator, XxzParams, alpha1_ose, closed_form_ose  # noqa: E402
from opmagic import expectation_error_bound, single_site_pauli  # noqa: E402
from opmagic.haar import closed_form_avg_purity  # noqa: E402
from probes import CountProbe, SpanProbe  # noqa: E402
from probes import SPAN_METRICS  # noqa: E402
from run import SPEC, Tally  # noqa: E402
from workloads import DopedEnsemble, HaarMc, XxzDeep  # noqa: E402


def failed(results):
    return sum(1 for msgs in results if msgs)


def test_doped_gates_fire():
    good = [["0", 3.0, 8], ["1", 2.5, 8], ["2", 2.0, 8], ["inf", 1.5, 8]]
    rows = [[c, *row] for c in range(3) for row in good]
    inp = {"tau": 4}
    assert failed(DopedEnsemble.check(inp, None, {"rows": rows})) == 0

    over_tau = [list(r) for r in rows]
    over_tau[1][2] = 4.5  # circuit 0, alpha 1
    assert failed(DopedEnsemble.check(inp, None, {"rows": over_tau})) == 1

    not_log2 = [list(r) for r in rows]
    not_log2[4][2] = 3.0 + 1e-12  # circuit 1, alpha 0
    assert failed(DopedEnsemble.check(inp, None, {"rows": not_log2})) == 1

    low_m2 = [list(r) for r in rows]
    for r in low_m2:
        if r[1] == "2":
            r[2] = 1.0
    assert failed(DopedEnsemble.check(inp, None, {"rows": low_m2})) == 1
    assert gates.doped_ensemble_gate([])


def _xxz_sims(j, a, t):
    out = {}
    for alpha in (1, 2, 3):
        p = XxzParams(j=j, t=t, alpha=alpha, a_x=a[0], a_y=a[1], a_z=a[2])
        out[alpha] = alpha1_ose(p) if alpha == 1 else closed_form_ose(p)
    return out


def test_xxz_depth_gate_fires():
    inp = XxzDeep.inputs(7)
    j, a = inp["j"], tuple(inp["a"])
    sims = _xxz_sims(j, a, 5)
    assert gates.xxz_depth_gate(j, a, 5, 2**6 + 1, sims) == []
    assert gates.xxz_depth_gate(j, a, 5, 2**6, sims)
    off = dict(sims)
    off[2] += 1e-8
    assert gates.xxz_depth_gate(j, a, 5, 2**6 + 1, off)


def test_xxz_truncation_gate_fires():
    eps = 0.1
    kept = 1.0 - eps * eps
    bound = expectation_error_bound(eps)
    assert gates.xxz_truncation_gate(1.0, eps, kept, bound) == []
    assert gates.xxz_truncation_gate(1.0 + 1e-9, eps, kept, bound)
    assert gates.xxz_truncation_gate(1.0, eps + 1e-11, kept, bound)
    assert gates.xxz_truncation_gate(1.0, eps, kept, eps / 2)


def test_roundtrip_gate_fires():
    terms = {single_site_pauli(s, "X", 4): 0.5 for s in range(4)}
    assert gates.roundtrip_gate(terms, dict(terms)) == []
    p = single_site_pauli(0, "X", 4)
    assert gates.roundtrip_gate(terms, {**terms, p: math.nextafter(0.5, 1.0)})
    assert gates.roundtrip_gate(terms, {q: a for q, a in terms.items() if q != p})


def test_haar_gate_fires():
    inp = HaarMc.inputs(3)
    rows = [[str(alpha), closed_form_avg_purity(16, alpha), 1e-6] for alpha in (2, 3, 4, 5)]
    assert failed(HaarMc.check(inp, None, {"rows": rows})) == 0
    for bad in (5e-6, 0.0, math.nan, math.inf):
        corrupt = [list(r) for r in rows]
        if bad == 5e-6:
            corrupt[1][1] += bad  # five stderr away
        else:
            corrupt[1][2] = bad
        assert failed(HaarMc.check(inp, None, {"rows": corrupt})) == 1


def test_rank_identity_and_rerun_gates_fire():
    assert gates.rank_identity_gate(3.0, 3.0) == []
    assert gates.rank_identity_gate(3.0, 3.0 + 1e-6)
    tally = Tally()
    tally.same("outputs", {"rows": [[0, "2", 1.5, 4]]}, {"rows": [[0, "2", 1.5, 4]]})
    tally.same("outputs", {"rows": [[0, "2", 1.5, 4]]}, {"rows": [[0, "2", math.nextafter(1.5, 2.0), 4]]})
    assert (tally.attempted, tally.failed) == (2, 1)


def test_traced_replay_reproduces_plain_run():
    """A shallow xxz_deep replay: spans, counts and outputs agree with the plain run."""
    inp = dict(XxzDeep.inputs(11), t_max=3)
    plain = XxzDeep.plain(inp)
    spans = SpanProbe()
    spans.begin()
    traced = XxzDeep.traced(inp, spans)
    spans.end()
    counter = CountProbe()
    counted = XxzDeep.traced(inp, counter)
    reference = XxzDeep.outputs(plain)
    assert XxzDeep.outputs(traced) == reference == XxzDeep.outputs(counted)
    assert failed(XxzDeep.check(inp, plain, reference)) == 0
    assert all(
        gates.rank_identity_gate(counter.rank_steps[op], ose0) == []
        for op, ose0 in counter.ose0.items()
    )
    times = spans.self_times()
    assert sum(times.values()) == pytest.approx(spans.wall_s)
    m = counter.metrics()
    assert m["heisenberg.peak_rank"] == 2**4 + 1
    assert m["heisenberg.rotation_split_terms"] - m["heisenberg.rotation_lost_terms"] == sum(
        2 ** (t + 1) + 1 - 3 for t in (1, 2, 3)
    )

    corrupt = dict(plain, back=SparseOperator(plain["last"].n_qubits, {
        p: -a for p, a in plain["last"].terms.items()
    }))
    assert failed(XxzDeep.check(inp, corrupt, reference)) == 1


def test_xxz_counts_do_not_depend_on_the_seed():
    """Any seed with every a^2 >= 0.1 gives the same engine work, term for term."""
    metrics = []
    for seed in (1, 2):
        counter = CountProbe()
        XxzDeep.traced(dict(XxzDeep.inputs(seed), t_max=6), counter)
        metrics.append({k: v for k, v in counter.metrics().items() if k.startswith("heisenberg.")})
    assert metrics[0] == metrics[1]


def test_layer_metrics_are_declared():
    declared = {m["name"] for m in json.loads(SPEC.read_text())["per_layer"]}
    counter = CountProbe()
    doped = DopedEnsemble.inputs(1)
    doped["argv"] += ["--circuits", "2"]  # the last value of a repeated flag wins
    DopedEnsemble.traced(doped, counter)
    XxzDeep.traced(dict(XxzDeep.inputs(1), t_max=2), counter)
    produced = set(counter.metrics()) | set(SPAN_METRICS.values())
    assert produced <= declared
