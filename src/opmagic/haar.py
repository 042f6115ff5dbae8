"""Haar sampling and Monte Carlo checks of the average-purity closed forms.

The ensemble averages of the generalized Pauli purity over Haar evolution
have closed rational forms in D for alpha up to 5; those are transcribed
here as reference functions and verified by seeded Monte Carlo rather than
re-deriving the Weingarten sums. Sampling splits into per-worker RNG
streams spawned from the master seed, so estimates are reproducible for a
fixed (seed, worker count) and the merge is order independent. `workers`
only partitions the RNG streams: the streams run one after another in the
calling process. Each sample's probability vector is reduced by
`measures`, which alone decides how a Renyi index (0, 1, inf, negative)
is evaluated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dense import pauli_coefficients, pauli_matrix
from .measures import renyi_entropy, renyi_purity
from .paulis import single_site_pauli

MAX_HAAR_DIM = 64
MAX_MC_QUBITS = 5


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean with standard error and the reproducibility handle."""

    mean: float
    stderr: float
    n_samples: int
    seed: int


def double_factorial(k: int) -> int:
    """k!! for k >= -1 (empty product for k <= 0)."""
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def sample_haar_unitary(dim: int, seed: int | np.random.Generator = 0) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix.

    The R diagonal is phase-corrected so the distribution is exactly
    unitarily invariant.
    """
    if dim > MAX_HAAR_DIM:
        raise ValueError(f"dim capped at {MAX_HAAR_DIM}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _split_counts(n_samples: int, workers: int) -> list[int]:
    base, extra = divmod(n_samples, workers)
    return [base + (1 if w < extra else 0) for w in range(workers)]


def _haar_samples(
    n_qubits: int, reduce: Callable[[np.ndarray], float], n_samples: int, seed: int, workers: int
) -> np.ndarray:
    """`reduce` of each sample's Pauli probabilities of U^dag X_0 U over Haar U."""
    if n_qubits > MAX_MC_QUBITS:
        raise ValueError(f"MC path capped at {MAX_MC_QUBITS} qubits")
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    if workers < 1:
        raise ValueError("workers must be positive")
    dim = 1 << n_qubits
    seed_op = pauli_matrix(single_site_pauli(0, "X", n_qubits))
    streams = np.random.SeedSequence(seed).spawn(workers)
    samples = np.empty(n_samples)
    pos = 0
    for count, stream in zip(_split_counts(n_samples, workers), streams):
        rng = np.random.default_rng(stream)
        for _ in range(count):
            u = sample_haar_unitary(dim, rng)
            evolved = u.conj().T @ seed_op @ u
            coeff = pauli_coefficients(evolved, n_qubits).real
            samples[pos] = reduce(coeff * coeff)
            pos += 1
    return samples


def _estimate(samples: np.ndarray, n_samples: int, seed: int) -> McEstimate:
    return McEstimate(
        mean=float(np.mean(samples)),
        stderr=float(np.std(samples, ddof=1) / math.sqrt(len(samples))),
        n_samples=n_samples,
        seed=seed,
    )


def mc_average_purity(
    n_qubits: int, alpha: float, n_samples: int, seed: int = 0, workers: int = 1
) -> McEstimate:
    """MC estimate of the Haar-averaged purity of an evolved single-site Pauli.

    By unitary invariance any fixed non-identity Pauli seed is equivalent;
    X on qubit 0 is used. Each sample is measures.renyi_purity.
    """
    purities = _haar_samples(n_qubits, lambda p: renyi_purity(p, alpha), n_samples, seed, workers)
    return _estimate(purities, n_samples, seed)


def mc_average_ose(
    n_qubits: int, alpha: float, n_samples: int, seed: int = 0, workers: int = 1
) -> McEstimate:
    """MC estimate of the Haar-averaged OSE (Renyi entropy of the coefficients)."""
    entropies = _haar_samples(n_qubits, lambda p: renyi_entropy(p, alpha), n_samples, seed, workers)
    return _estimate(entropies, n_samples, seed)


def relative_fluctuation(
    n_qubits: int,
    alpha: float = 2.0,
    n_samples: int = 4000,
    seed: int = 0,
    workers: int = 1,
) -> McEstimate:
    """Sample estimate of sqrt(Var[P]) / E[P]; stderr from 10 batch means."""
    purities = _haar_samples(n_qubits, lambda p: renyi_purity(p, alpha), n_samples, seed, workers)
    value = float(np.std(purities, ddof=1) / np.mean(purities))
    n_batches = 10
    if n_samples >= 2 * n_batches:
        batches = np.array_split(purities, n_batches)
        per_batch = [np.std(b, ddof=1) / np.mean(b) for b in batches]
        stderr = float(np.std(per_batch, ddof=1) / math.sqrt(n_batches))
    else:
        stderr = float("nan")
    return McEstimate(mean=value, stderr=stderr, n_samples=n_samples, seed=seed)


def closed_form_avg_purity(dim: int, alpha: int) -> float:
    """Exact Haar-averaged purity as the printed rational function of D.

    Available for alpha in {2, 3, 4, 5}; D = 3 is a pole of every form and
    is rejected (it cannot occur for qubit registers).
    """
    d2 = dim * dim
    if alpha == 2:
        num = 3 * (d2 - 8)
        den = d2 * (d2 - 9)
    elif alpha == 3:
        num = 15 * (d2**3 - 33 * d2**2 + 216 * d2 - 256)
        den = d2**2 * (d2**3 - 35 * d2**2 + 259 * d2 - 225)
    elif alpha == 4:
        num = 105 * (d2**4 - 81 * d2**3 + 1776 * d2**2 - 10432 * d2 + 15360)
        den = d2**3 * (d2**4 - 84 * d2**3 + 1974 * d2**2 - 12916 * d2 + 11025)
    elif alpha == 5:
        num = 945 * (
            d2**6
            - 170 * d2**5
            + 9657 * d2**4
            - 224080 * d2**3
            + 2199488 * d2**2
            - 8985600 * d2
            + 12386304
        )
        den = (
            d2**4
            * (d2 - 9) ** 2
            * (d2**4 - 156 * d2**3 + 7374 * d2**2 - 106444 * d2 + 99225)
        )
    else:
        raise ValueError("closed forms available for alpha in {2, 3, 4, 5}")
    if den == 0:
        raise ValueError(f"dim {dim} is a pole of the alpha={alpha} closed form")
    return num / den


def asymptotic_avg_purity(dim: int, alpha: int) -> float:
    """Large-D limit (2 alpha - 1)!! / D^(2 alpha - 2)."""
    if alpha < 1 or int(alpha) != alpha:
        raise ValueError("alpha must be a positive integer")
    return double_factorial(2 * int(alpha) - 1) / dim ** (2 * int(alpha) - 2)


def asymptotic_ose(n_qubits: int, alpha: int) -> float:
    """Scaling-limit OSE 2N + log2((2 alpha - 1)!!)/(1 - alpha) for alpha >= 2."""
    if alpha < 2 or int(alpha) != alpha:
        raise ValueError("alpha must be an integer >= 2")
    return 2.0 * n_qubits + math.log2(double_factorial(2 * int(alpha) - 1)) / (1 - int(alpha))
