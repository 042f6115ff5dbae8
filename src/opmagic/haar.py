"""Haar sampling and Monte Carlo checks of the average-purity closed forms.

The ensemble averages of the generalized Pauli purity over Haar evolution
have closed rational forms in D for alpha up to 5; those are transcribed
here as reference functions and verified by seeded Monte Carlo rather than
re-deriving the Weingarten sums. `mc_average_purities`, which `haar-avg
--workers` reaches, alone takes `workers`: sampling splits into that many
RNG streams spawned from the master seed, so estimates are reproducible
for a fixed (seed, worker count) and the merge is order independent.
`workers` only partitions the RNG streams, at most one per sample: the
streams run one after another in the calling process. `mc_average_ose`
and `relative_fluctuation` draw one stream.

Sampling is one batched pass. Each stream is walked in batches of at most
_BATCH_ELEMENTS / D^2 unitaries: one Gaussian draw, one stacked QR and
one phase fix give the batch of unitaries (the draw takes the stream in
the order a one-by-one loop would, so every sample is bit-identical to
`sample_haar_unitary`, the batch of one), and one stacked Pauli transform
gives the batch's (b, 4^n) probability matrix. `measures.renyi_purity`
reduces that matrix row by row for every requested index at once, so
`mc_average_purities` draws each unitary once for all indices;
`measures` alone decides how a Renyi index (0, 1, inf, negative) is
evaluated. The batch is fixed by element count, so memory does not grow
with the sample count beyond the one float per sample per index kept.

This module owns the Haar references. `closed_form_avg_purity`,
`asymptotic_avg_purity` and `asymptotic_ose` alone decide which indices
have a reference: each answers any index with a float or with a
ValueError that carries its own message, so a caller asks for every index
and leaves a cell blank where one raises. The float-range rule bounds the
large-D asymptotes: an index is served only while the purity asymptote
(2 alpha - 1)!! / D^(2 alpha - 2) at min(D, MAX_HAAR_DIM) stays below the
float maximum, judged first from Stirling's formula, so that (2 alpha - 1)!!
is never formed for an index past it (alpha = 1e308 is refused at once, and
the largest index served at any D is 6230). A purity asymptote below the
smallest float is 0.0. `asymptotic_ose` serves the indices that
`asymptotic_avg_purity` serves at D = 2^N.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dense import pauli_coefficients, pauli_matrix
from .measures import renyi_entropy, renyi_purity
from .paulis import single_site_pauli

MAX_HAAR_DIM = 64
MAX_MC_QUBITS = 5
# Matrix entries per sampling batch: b = _BATCH_ELEMENTS // D^2 unitaries.
# Kept small so that peak memory stays flat (b = 16 at n = 4).
_BATCH_ELEMENTS = 4096


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean with standard error and the reproducibility handle."""

    mean: float
    stderr: float
    n_samples: int
    seed: int


def double_factorial(k: int) -> int:
    """k!! for k >= -1 (empty product for k <= 0)."""
    return math.prod(range(k, 1, -2))


def _haar_batch(dim: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """`size` Haar unitaries, shape (size, dim, dim), via QR of complex Ginibre matrices.

    Each R diagonal is phase-corrected so the distribution is exactly
    unitarily invariant. Sample k takes the stream's Gaussians 2k D^2 ..
    2(k+1) D^2 - 1, real parts first, as a one-by-one loop would.
    """
    if dim > MAX_HAAR_DIM:
        raise ValueError(f"dim capped at {MAX_HAAR_DIM}")
    gauss = rng.standard_normal((size, 2, dim, dim))
    # (re + 1j im) / sqrt 2, built in place to spare two batch-sized temporaries
    z = 1j * gauss[:, 1]
    z += gauss[:, 0]
    z /= math.sqrt(2)
    del gauss
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (d / np.abs(d))[:, None, :]
    return q


def sample_haar_unitary(dim: int, seed: int | np.random.Generator = 0) -> np.ndarray:
    """One Haar-distributed unitary: the batch of one of `_haar_batch`."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return _haar_batch(dim, 1, rng)[0]


def _evolved_probs(
    seed_op: np.ndarray, n_qubits: int, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Pauli probabilities of U^dag O U for `size` Haar U, one row per U.

    A function of its own so that a batch's unitaries and coefficients are
    freed before the next batch is drawn.
    """
    u = _haar_batch(1 << n_qubits, size, rng)
    coeff = pauli_coefficients(np.swapaxes(u.conj(), -1, -2) @ seed_op @ u, n_qubits).real
    return coeff * coeff


def _haar_samples(
    n_qubits: int,
    reduce: Callable[[np.ndarray], np.ndarray],
    n_samples: int,
    seed: int,
    workers: int = 1,
) -> np.ndarray:
    """`reduce` of the Pauli probabilities of U^dag X_0 U over Haar U, batch by batch.

    `reduce` maps a (b, 4^n) probability matrix, one row per sample, to
    shape (..., b); the result has shape (..., n_samples), samples in
    stream order. Stream w of `workers` draws n_samples // workers samples,
    one more when w < n_samples % workers.
    """
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be at least 1, got {n_qubits}")
    if n_qubits > MAX_MC_QUBITS:
        raise ValueError(f"MC path capped at {MAX_MC_QUBITS} qubits")
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    if n_samples > sys.maxsize // 8:  # one float64 per sample must fit one numpy array
        raise ValueError(f"n_samples must be at most {sys.maxsize // 8}")
    if workers < 1:
        raise ValueError("workers must be positive")
    if workers > n_samples:  # a stream past the sample count draws nothing
        raise ValueError(f"{workers} workers exceed {n_samples} samples")
    dim = 1 << n_qubits
    batch = max(1, _BATCH_ELEMENTS // (dim * dim))
    seed_op = pauli_matrix(single_site_pauli(0, "X", n_qubits))
    base, extra = divmod(n_samples, workers)
    samples = None
    pos = 0
    for w, stream in enumerate(np.random.SeedSequence(seed).spawn(workers)):
        count = base + (w < extra)
        rng = np.random.default_rng(stream)
        for start in range(0, count, batch):
            size = min(batch, count - start)
            values = reduce(_evolved_probs(seed_op, n_qubits, size, rng))
            if values.shape[-1:] != (size,):
                raise ValueError(f"reduce gave shape {values.shape} for {size} samples")
            if samples is None:
                samples = np.empty(values.shape[:-1] + (n_samples,))
            samples[..., pos : pos + size] = values
            pos += size
    return samples


def _estimate(samples: np.ndarray, n_samples: int, seed: int) -> McEstimate:
    return McEstimate(
        mean=float(np.mean(samples)),
        stderr=float(np.std(samples, ddof=1) / math.sqrt(len(samples))),
        n_samples=n_samples,
        seed=seed,
    )


def mc_average_purities(
    n_qubits: int, alphas: Sequence[float], n_samples: int, seed: int = 0, workers: int = 1
) -> list[McEstimate]:
    """MC estimates of the Haar-averaged purity of an evolved single-site Pauli.

    By unitary invariance any fixed non-identity Pauli seed is equivalent;
    X on qubit 0 is used. Each sample is measures.renyi_purity, and one
    sampling pass serves every index: estimate k is for alphas[k].
    """
    def reduce(probs: np.ndarray) -> np.ndarray:
        return np.array([renyi_purity(probs, a) for a in alphas])

    purities = _haar_samples(n_qubits, reduce, n_samples, seed, workers)
    return [_estimate(row, n_samples, seed) for row in purities]


def mc_average_ose(n_qubits: int, alpha: float, n_samples: int, seed: int = 0) -> McEstimate:
    """MC estimate of the Haar-averaged OSE (Renyi entropy of the coefficients)."""
    def reduce(probs: np.ndarray) -> np.ndarray:
        return np.array([renyi_entropy(row, alpha) for row in probs])

    entropies = _haar_samples(n_qubits, reduce, n_samples, seed)
    return _estimate(entropies, n_samples, seed)


def relative_fluctuation(
    n_qubits: int, alpha: float = 2.0, n_samples: int = 4000, seed: int = 0
) -> McEstimate:
    """Sample estimate of sqrt(Var[P]) / E[P]; stderr from 10 batch means."""
    purities = _haar_samples(n_qubits, lambda p: renyi_purity(p, alpha), n_samples, seed)
    value = float(np.std(purities, ddof=1) / np.mean(purities))
    n_batches = 10
    if n_samples >= 2 * n_batches:
        batches = np.array_split(purities, n_batches)
        per_batch = [np.std(b, ddof=1) / np.mean(b) for b in batches]
        stderr = float(np.std(per_batch, ddof=1) / math.sqrt(n_batches))
    else:
        stderr = float("nan")
    return McEstimate(mean=value, stderr=stderr, n_samples=n_samples, seed=seed)


def closed_form_avg_purity(dim: int, alpha: float) -> float:
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


def _asymptote_index(alpha: float, least: int, message: str, dim: int) -> int:
    """alpha as the int k of (2k - 1)!!, under the float-range rule (module docstring).

    A non-integer, nan, +-inf or an index below `least` raises `message`.
    """
    if not least <= alpha <= sys.float_info.max or int(alpha) != alpha:
        raise ValueError(message)
    k = int(alpha)
    checked = min(dim, MAX_HAAR_DIM)
    if _log2_asymptote(checked, k) > sys.float_info.max_exp + 1:
        raise ValueError(f"the alpha={alpha} asymptote at D={checked} is past the float range")
    return k


def _log2_asymptote(dim: int, k: int) -> float:
    """log2 of (2k - 1)!! / D^(2k - 2) from Stirling's sqrt(2) (2k / e)^k,
    which overestimates (2k - 1)!! by less than 0.06 bit."""
    log2_dim = math.log2(dim)
    rate = math.log2(k) + 1 - math.log2(math.e) - 2 * log2_dim
    return k * rate + 2 * log2_dim + 0.5


def asymptotic_avg_purity(dim: int, alpha: float) -> float:
    """Large-D limit (2 alpha - 1)!! / D^(2 alpha - 2); 0.0 below the float range."""
    k = _asymptote_index(alpha, 1, "alpha must be a positive integer", dim)
    if _log2_asymptote(dim, k) < sys.float_info.min_exp - sys.float_info.mant_dig - 1:
        return 0.0  # the exact quotient rounds to 0.0 too
    try:
        return double_factorial(2 * k - 1) / dim ** (2 * k - 2)
    except OverflowError:  # within a bit of the top, where the estimate cannot tell
        raise ValueError(f"the alpha={alpha} asymptote at D={dim} is past the float range") from None


def asymptotic_ose(n_qubits: int, alpha: float) -> float:
    """Scaling-limit OSE 2N + log2((2 alpha - 1)!!)/(1 - alpha) for alpha >= 2,
    for the indices whose purity asymptote at D = 2^N is served."""
    dim = 1 << min(n_qubits, MAX_HAAR_DIM.bit_length())  # 2^N, or past the D the rule checks
    k = _asymptote_index(alpha, 2, "alpha must be an integer >= 2", dim)
    return 2.0 * n_qubits + math.log2(double_factorial(2 * k - 1)) / (1 - k)
