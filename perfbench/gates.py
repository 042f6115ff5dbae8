"""Correctness gates for the benchmark workloads.

Each gate takes the results of one operation and returns a list of
failure messages; an empty list means the operation passed. An operation
with any failure counts once into `failed` (and so into ops_failed_frac).
The gates only read values, so `tests/test_gates.py` can feed each one a
corrupted result and check that it fires.
"""
from __future__ import annotations

import math

from opmagic import XxzParams, alpha1_ose, closed_form_ose
from opmagic.haar import closed_form_avg_purity

DOPED_M2_RANGE = (1.5, 2.5)
XXZ_OSE_TOL = 1e-9
XXZ_WEIGHT_TOL = 1e-10
XXZ_EPS_TOL = 1e-12
HAAR_STDERRS = 4.0
IDENTITY_TOL = 1e-9


def doped_circuit_gate(tau: int, rows: list[list]) -> list[str]:
    """rows: [alpha_label, ose, rank] of one circuit.

    Every OSE stays within the T-count tau, and the index-0 OSE of a
    single-Pauli seed is exactly log2(rank).
    """
    bad = []
    for label, value, rank in rows:
        if not value <= tau + 1e-9:
            bad.append(f"ose {value!r} at alpha {label} exceeds tau {tau}")
        if label == "0" and value != math.log2(rank):
            bad.append(f"index-0 ose {value!r} != log2(rank {rank})")
    return bad


def doped_ensemble_gate(m2_values: list[float]) -> list[str]:
    """The ensemble mean of the index-2 OSE lies in DOPED_M2_RANGE."""
    if not m2_values:
        return ["no index-2 OSE values"]
    mean = sum(m2_values) / len(m2_values)
    lo, hi = DOPED_M2_RANGE
    if not lo <= mean <= hi:
        return [f"mean M2 {mean!r} outside [{lo}, {hi}]"]
    return []


def xxz_depth_gate(
    j: float, a: tuple[float, float, float], t: int, rank: int, sims: dict[int, float]
) -> list[str]:
    """Simulated OSE at each index against the closed form, and the exact rank."""
    bad = []
    if rank != 2 ** (t + 1) + 1:
        bad.append(f"t={t}: rank {rank} != 2^(t+1)+1")
    for alpha, sim in sims.items():
        params = XxzParams(j=j, t=t, alpha=alpha, a_x=a[0], a_y=a[1], a_z=a[2])
        closed = alpha1_ose(params) if alpha == 1 else closed_form_ose(params)
        if not abs(sim - closed) <= XXZ_OSE_TOL:
            bad.append(f"t={t} alpha={alpha}: sim {sim!r} vs closed {closed!r}")
    return bad


def xxz_truncation_gate(weight: float, epsilon: float, kept_weight: float, bound: float) -> list[str]:
    """Unit weight in, epsilon = sqrt(1 - kept_weight), and the bound covers epsilon."""
    bad = []
    if not abs(weight - 1.0) <= XXZ_WEIGHT_TOL:
        bad.append(f"l2 weight {weight!r} is not 1")
    if not abs(epsilon - math.sqrt(max(0.0, 1.0 - kept_weight))) <= XXZ_EPS_TOL:
        bad.append(f"epsilon {epsilon!r} != sqrt(1 - {kept_weight!r})")
    if not bound >= epsilon:
        bad.append(f"bound {bound!r} < epsilon {epsilon!r}")
    return bad


def roundtrip_gate(before: dict, after: dict) -> list[str]:
    """The JSON round trip gives back the same terms, coefficient bits included."""
    if before.keys() != after.keys():
        return [f"round trip changed the strings: {len(before)} -> {len(after)} terms"]
    diff = sum(1 for p, a in before.items() if a.hex() != after[p].hex())
    return [f"round trip changed {diff} coefficients"] if diff else []


def haar_gate(dim: int, alpha: int, mean: float, stderr: float) -> list[str]:
    """The MC mean lies within HAAR_STDERRS standard errors of the closed form."""
    if not (math.isfinite(stderr) and stderr > 0.0):
        return [f"alpha={alpha}: stderr {stderr!r} is not finite and positive"]
    closed = closed_form_avg_purity(dim, alpha)
    if not abs(mean - closed) <= HAAR_STDERRS * stderr:
        return [f"alpha={alpha}: mean {mean!r} is {abs(mean - closed) / stderr:.2f} stderr from {closed!r}"]
    return []


def rank_identity_gate(steps: float, ose0: float) -> list[str]:
    """Per-rotation log2(rank) steps sum to the index-0 OSE."""
    if not abs(steps - ose0) <= IDENTITY_TOL:
        return [f"rank steps sum {steps!r} != index-0 ose {ose0!r}"]
    return []

