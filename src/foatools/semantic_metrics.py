"""Distribution-level audio quality metrics over pre-extracted features.

Feature matrices (one pooled frame embedding per row) are summarized by a
Gaussian fit; pairs of fits are compared with the Frechet distance
||mu1 - mu2||^2 + Tr(S1 + S2 - 2 (S1 S2)^(1/2)). Class-probability vectors
are compared with a smoothed KL divergence. Feature extraction itself is
out of scope; this module only consumes tensors produced elsewhere.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSamplesError, NotPositiveSemidefiniteError

CHANNEL_NAMES = ("W", "X", "Y", "Z")

_PSD_TOL = 1e-8
_NOISE_CLAMP = 1e-6


@dataclass(frozen=True)
class GaussianStats:
    """Mean vector and covariance matrix summarizing a feature set."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=np.float64)
        cov = np.asarray(self.covariance, dtype=np.float64)
        if mean.ndim != 1:
            raise ValueError("mean must be a 1-D vector")
        d = mean.size
        if cov.shape != (d, d):
            raise ValueError(f"covariance must be {d}x{d}, got {cov.shape}")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValueError("statistics must be finite")
        if np.max(np.abs(cov - cov.T), initial=0.0) > 1e-9:
            raise ValueError("covariance must be symmetric")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    @property
    def dim(self) -> int:
        return self.mean.size


def _as_features(features) -> np.ndarray:
    with np.errstate(invalid="ignore"):  # a float32 signalling NaN; checked just below
        x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("features must be a 2-D (samples x dims) matrix")
    if not np.all(np.isfinite(x)):
        raise ValueError("features must be finite")
    return x


def gaussian_stats(features) -> GaussianStats:
    """Sample mean and unbiased covariance of a feature matrix."""
    x = _as_features(features)
    n, d = x.shape
    if n < 2:
        raise InsufficientSamplesError(f"need at least 2 rows, got {n}")
    if n < d + 1:
        warnings.warn(
            f"{n} rows for {d} dims: covariance estimate is rank deficient",
            stacklevel=2,
        )
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (n - 1)
    cov = (cov + cov.T) / 2.0
    return GaussianStats(mean, cov)


def _psd_eigh(matrix: np.ndarray, what: str) -> tuple:
    """Eigenvalues (clamped at 0) and eigenvectors of symmetric ``matrix``, ``what`` in the error."""
    evals, evecs = np.linalg.eigh(matrix)
    if evals.min(initial=0.0) < -_PSD_TOL:
        raise NotPositiveSemidefiniteError(
            f"{what} has eigenvalue {evals.min():.3e} below -{_PSD_TOL:g}"
        )
    return np.maximum(evals, 0.0), evecs


def frechet_distance(a: GaussianStats, b: GaussianStats) -> float:
    """Frechet distance between two Gaussian fits.

    The cross term Tr((S1 S2)^(1/2)) is evaluated through the symmetric
    product S1^(1/2) S2 S1^(1/2), whose eigendecomposition is stable;
    eigenvalues below -1e-8 raise, small negatives are clamped to zero.
    Tiny negative totals from rounding (|value| < 1e-6) are clamped to 0.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    evals, evecs = _psd_eigh(a.covariance, "first covariance")
    sqrt_a = (evecs * np.sqrt(evals)) @ evecs.T
    inner = sqrt_a @ b.covariance @ sqrt_a
    inner = (inner + inner.T) / 2.0
    trace_sqrt = np.sum(np.sqrt(_psd_eigh(inner, "covariance product")[0]))
    diff = a.mean - b.mean
    value = float(
        diff @ diff + np.trace(a.covariance) + np.trace(b.covariance) - 2.0 * trace_sqrt
    )
    if value < 0.0:
        if value < -_NOISE_CLAMP:
            raise NotPositiveSemidefiniteError(
                f"distance {value:.3e} is negative beyond rounding tolerance"
            )
        value = 0.0
    return value


def _as_distribution(probs, name: str) -> np.ndarray:
    with np.errstate(invalid="ignore"):  # a float32 signalling NaN; checked just below
        p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-D probability vector")
    if not np.all(np.isfinite(p)) or np.min(p) < -1e-12:
        raise ValueError(f"{name} entries must be finite and nonnegative")
    if abs(p.sum() - 1.0) > 1e-6:
        raise ValueError(f"{name} must sum to 1 within 1e-6, got {p.sum()!r}")
    return p


def kld(gen, gt, epsilon: float = 1e-6) -> float:
    """KL divergence D(gt || gen) of two class distributions.

    Both vectors are floored at ``epsilon`` and renormalized before the
    divergence is taken, so zero entries never produce infinities. Per-clip
    values are meant to be averaged by the caller.
    """
    p_gen = _as_distribution(gen, "gen")
    p_gt = _as_distribution(gt, "gt")
    if p_gen.size != p_gt.size:
        raise ValueError(f"length mismatch: {p_gen.size} vs {p_gt.size}")
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    q = np.maximum(p_gen, epsilon)
    q /= q.sum()
    p = np.maximum(p_gt, epsilon)
    p /= p.sum()
    return float(np.sum(p * (np.log(p) - np.log(q))))


def fad_avg(channel_features: dict) -> float:
    """Mean per-channel Frechet distance over the four ambisonics channels.

    ``channel_features`` maps each of "W", "X", "Y", "Z" to a
    (generated_features, reference_features) pair of 2-D matrices.
    """
    missing = [name for name in CHANNEL_NAMES if name not in channel_features]
    if missing:
        raise ValueError(f"missing channel feature pairs: {', '.join(missing)}")
    distances = []
    for name in CHANNEL_NAMES:
        gen_features, gt_features = channel_features[name]
        distances.append(
            frechet_distance(gaussian_stats(gen_features), gaussian_stats(gt_features))
        )
    return float(np.mean(distances))
