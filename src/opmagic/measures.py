"""Stabilizer-entropy functionals of sparse Heisenberg operators.

The squared Pauli coefficients of a unit-weight Hermitian operator form a
probability vector; the operator stabilizer entropy at index alpha is its
Renyi entropy minus that of the unevolved seed. Base-2 logarithms
throughout. Every Renyi index goes through `renyi_purity`, the one code
that maps an index to its evaluation: alpha = 0 counts the probabilities
above PROB_FLOOR, alpha = inf takes the largest one, a negative or nan
alpha is rejected, and any other alpha sums p^alpha (non-integer alpha uses
|a_i|^(2 alpha), though the monotone proofs cover integer alpha only).
The entropies are taken from that purity, with the Shannon limit at
alpha = 1 and the min entropy at alpha = inf; within 0.1 of alpha = 1
they are taken from the probabilities, without the cancellation of a
purity near 1. `ose_scans` scores a scan of operators evolved from one
seed, and `ose_scan` and `ose` are its one-operator cases. The Haar
averages and the dense state stabilizer Renyi entropy reduce their
probability vectors here too.
An operator's probability vector and its unit-weight check,
`pauli_probs`, live in `paulis`, which truncation shares.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .paulis import SparseOperator, pauli_probs

# Probabilities at or below this are numerical zeros: they are left out of
# every entropy and of the alpha = 0 count.
PROB_FLOOR = 1e-30


def renyi_purity(probs: np.ndarray, alpha: float) -> float | np.ndarray:
    """Generalized purity sum_i p_i^alpha over the last axis of probabilities.

    A vector gives a float and a stack of vectors an array, one purity per
    vector. alpha = 0 counts the probabilities above PROB_FLOOR and
    alpha = inf gives the largest one.
    """
    if not alpha >= 0:  # nan too
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    p = np.asarray(probs, dtype=float)
    if alpha == 0:
        out = np.count_nonzero(p > PROB_FLOOR, axis=-1).astype(float)
    elif math.isinf(alpha):
        out = np.max(p, axis=-1)
    else:
        out = np.sum(p**alpha, axis=-1)
    return float(out) if out.ndim == 0 else out


def renyi_entropy(probs: np.ndarray, alpha: float) -> float:
    """Renyi-alpha entropy in bits of a probability vector, over p > PROB_FLOOR."""
    p = _above_floor(probs)
    return _entropy(p, alpha, renyi_purity(p, alpha))


def _above_floor(probs: np.ndarray) -> np.ndarray:
    p = np.asarray(probs, dtype=float)
    p = p[p > PROB_FLOOR]
    if p.size == 0:
        raise ValueError("empty probability vector")
    return p


def _entropy(p: np.ndarray, alpha: float, total: float) -> float:
    """Renyi-alpha entropy in bits of probabilities p > PROB_FLOOR whose
    renyi_purity is `total`: log2(total) / (1 - alpha), with the Shannon
    limit at alpha = 1 and -log2(total) at alpha = inf, where the purity is
    the largest p. Within 0.1 of alpha = 1, log2(total) and 1 - alpha both
    cancel, so log(total) is taken as log1p(total - 1) with total - 1 =
    sum p expm1((alpha - 1) ln p) for p summing to 1, a sum of terms of one
    sign. Where total is not a positive normal float (a large finite
    alpha), p_max^alpha is factored out of it in log2.
    """
    if alpha == 1:
        return float(-np.sum(p * np.log2(p)))
    if abs(alpha - 1) < 0.1:  # log2(total) would cancel: total - 1 = sum p (p^(alpha - 1) - 1)
        return float(np.log1p(np.sum(p * np.expm1((alpha - 1) * np.log(p)))) / ((1.0 - alpha) * math.log(2)))
    if total >= sys.float_info.min:
        return float(np.log2(total) / (1.0 - alpha if alpha < math.inf else -1.0))
    p_max = np.max(p)
    return float((alpha * np.log2(p_max) + np.log2(np.sum((p / p_max) ** alpha))) / (1.0 - alpha))


@dataclass(frozen=True)
class OseReport:
    """Operator stabilizer entropy of an evolved operator at one Renyi index."""

    alpha: float
    purity: float
    ose: float
    linear_ose: float
    rank: int
    support_size: int


def ose(evolved: SparseOperator, initial: SparseOperator, alpha: float) -> OseReport:
    """Renyi-alpha entropy of the evolved coefficients, offset by the seed's.

    For a Pauli seed the offset is zero and this is the entropy of the
    distribution {a_i^2}. Bounded by 2 N for any evolution. The purity is
    renyi_purity of the same probabilities, those above PROB_FLOOR: every
    one of an operator pruned at PRUNE_TOL, so that at alpha = 0 it is the
    rank.
    """
    return ose_scan(evolved, initial, (alpha,))[0]


def ose_scan(
    evolved: SparseOperator, initial: SparseOperator, alphas: Sequence[float]
) -> list[OseReport]:
    """`ose` at every index of `alphas`: the one-operator case of `ose_scans`."""
    return next(ose_scans((evolved,), initial, alphas))


def ose_scans(
    evolved: Iterable[SparseOperator], initial: SparseOperator, alphas: Sequence[float]
) -> Iterator[list[OseReport]]:
    """The `ose_scan` reports of each operator of `evolved`, all evolved
    from `initial`, as they are read.

    The seed's entropies are taken once for the scan. Each operator's
    probabilities are checked and filtered once, and its entropy at each
    index comes from the purity summed for its report.
    """
    seed = _above_floor(pauli_probs(initial))
    seed_entropies = [_entropy(seed, alpha, renyi_purity(seed, alpha)) for alpha in alphas]
    for operator in evolved:
        if operator.n_qubits != initial.n_qubits:
            raise ValueError("size mismatch")
        p = _above_floor(pauli_probs(operator))
        rank, support_size = len(operator), len(operator.support())
        reports = []
        for alpha, seed_entropy in zip(alphas, seed_entropies):
            pur = renyi_purity(p, alpha)
            reports.append(OseReport(alpha=alpha, purity=pur, ose=_entropy(p, alpha, pur) - seed_entropy,
                                     linear_ose=1.0 - pur, rank=rank, support_size=support_size))
        yield reports


def t_count_lower_bound(
    evolved: SparseOperator, initial: SparseOperator, alpha: float
) -> float:
    """Lower bound on the circuit's T-count: H_alpha(evolved) - log2 rank(seed).

    A T gate at most doubles the rank while Cliffords preserve it, so
    H_alpha(evolved) <= log2 rank(evolved) <= T + log2 rank(seed). The
    seed's own entropy is not subtracted: that would count it twice.
    """
    if evolved.n_qubits != initial.n_qubits:
        raise ValueError("size mismatch")
    return renyi_entropy(pauli_probs(evolved), alpha) - math.log2(len(initial))
