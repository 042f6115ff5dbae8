"""Stabilizer-entropy functionals of sparse Heisenberg operators.

The squared Pauli coefficients of a unit-weight Hermitian operator form a
probability vector; the operator stabilizer entropy at index alpha is its
Renyi entropy minus that of the unevolved seed. Base-2 logarithms
throughout. This module is the one place that maps a Renyi index to its
evaluation: alpha = 0, 1, inf are taken as limits (count above
PROB_FLOOR, Shannon, min entropy), negative alpha is rejected, and
non-integer alpha is accepted and uses |a_i|^(2 alpha), though the
monotone proofs cover integer alpha only. The Haar averages and the dense
state stabilizer Renyi entropy reduce their probability vectors here too.
An operator's probability vector and its unit-weight check,
`pauli_probs`, live in `paulis`, which truncation shares.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

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
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    p = np.asarray(probs, dtype=float)
    if alpha == 0:
        out = np.count_nonzero(p > PROB_FLOOR, axis=-1).astype(float)
    elif math.isinf(alpha):
        out = np.max(p, axis=-1)
    else:
        out = np.sum(p**alpha, axis=-1)
    return float(out) if out.ndim == 0 else out


def renyi_entropy(probs: np.ndarray, alpha: float) -> float:
    """Renyi-alpha entropy in bits of a probability vector, over p > PROB_FLOOR.

    Where sum_i p_i^alpha is not a positive normal float (a large finite
    alpha), p_max^alpha is factored out of it in log2.
    """
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    p = np.asarray(probs, dtype=float)
    p = p[p > PROB_FLOOR]
    if p.size == 0:
        raise ValueError("empty probability vector")
    if alpha == 0:
        return math.log2(p.size)
    if alpha == 1:
        return float(-np.sum(p * np.log2(p)))
    if math.isinf(alpha):
        return float(-np.log2(np.max(p)))
    total = np.sum(p**alpha)
    if total >= sys.float_info.min:
        return float(np.log2(total) / (1.0 - alpha))
    p_max = np.max(p)
    return float((alpha * np.log2(p_max) + np.log2(np.sum((p / p_max) ** alpha))) / (1.0 - alpha))


def purity(operator: SparseOperator, alpha: float) -> float:
    """Generalized Pauli purity sum_i a_i^(2 alpha); alpha <= 0 returns the rank."""
    if alpha <= 0:
        return float(len(operator))
    return renyi_purity(pauli_probs(operator), alpha)


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
    renyi_purity of the same probabilities, so at alpha = 0 it is the count
    above PROB_FLOOR: the rank of any operator pruned at PRUNE_TOL.
    """
    return ose_scan(evolved, initial, (alpha,))[0]


def ose_scan(
    evolved: SparseOperator, initial: SparseOperator, alphas: Sequence[float]
) -> list[OseReport]:
    """`ose` at every index of `alphas`: both probability vectors, with their
    unit-weight checks, and the support are taken once for all of them."""
    if evolved.n_qubits != initial.n_qubits:
        raise ValueError("size mismatch")
    return _ose_reports(evolved, _entropies(initial, alphas), alphas)


def _entropies(operator: SparseOperator, alphas: Sequence[float]) -> list[float]:
    """The Renyi entropy of the operator's probability vector at each index."""
    probs = pauli_probs(operator)
    return [renyi_entropy(probs, alpha) for alpha in alphas]


def _ose_reports(
    evolved: SparseOperator, seed_entropies: Sequence[float], alphas: Sequence[float]
) -> list[OseReport]:
    """`ose_scan` against a seed whose entropy at alphas[i] is
    seed_entropies[i] (`_entropies`): a scan of many operators evolved from
    one seed takes the seed's entropies once."""
    probs = pauli_probs(evolved)
    rank, support_size = len(evolved), len(evolved.support())
    reports = []
    for alpha, seed_entropy in zip(alphas, seed_entropies):
        value = renyi_entropy(probs, alpha) - seed_entropy
        pur = renyi_purity(probs, alpha)
        reports.append(OseReport(alpha=alpha, purity=pur, ose=value, linear_ose=1.0 - pur,
                                 rank=rank, support_size=support_size))
    return reports


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
