"""Patchwise energy maps from patch-embedding tensors.

Each patch of a frame gets a spatial score 2 - 2*cos(x, m_s) against the
mean m_s of its (2N+1)^2 spatial neighborhood and a temporal score
2 - 2*cos(x, m_t) against the mean m_t of its (2T+1) temporal neighborhood.
Patches that differ from their surroundings (moving or locally distinct
content) score high. Scores become per-frame probability maps through a
tempered softmax over the patches, averaging of the two maps, nucleus
(top-p) filtering, and renormalization.
"""

from __future__ import annotations

import warnings

import numpy as np

from ._util import softmax, top_p_mask

DEFAULT_TEMPERATURE = 0.1
DEFAULT_TOP_P = 0.7
DEFAULT_WINDOW = 1


def _as_embeddings(embeddings) -> np.ndarray:
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 4 or min(x.shape) < 1:
        raise ValueError("embeddings must be a (time, rows, cols, dim) tensor")
    if not np.all(np.isfinite(x)):
        raise ValueError("embeddings must be finite")
    if np.any(np.linalg.norm(x, axis=-1) == 0.0):
        raise ValueError("all-zero embedding vectors make cosine similarity undefined")
    return x


def _cosine_scores(x: np.ndarray, neighborhood_mean: np.ndarray) -> np.ndarray:
    """2 - 2*cos(x, mean) per patch; zero-norm means fall back to score 2."""
    dots = np.sum(x * neighborhood_mean, axis=-1)
    norms = np.linalg.norm(x, axis=-1) * np.linalg.norm(neighborhood_mean, axis=-1)
    undefined = norms == 0.0
    n_undefined = int(np.count_nonzero(undefined))
    if n_undefined:
        warnings.warn(
            f"{n_undefined} patches have a zero-norm neighborhood mean; "
            "their score is set to 2 (orthogonal-equivalent)",
            stacklevel=3,
        )
    cos = np.where(undefined, 0.0, dots / np.where(undefined, 1.0, norms))
    return 2.0 - 2.0 * cos


def patch_scores(embeddings, spatial_window: int = DEFAULT_WINDOW, temporal_window: int = DEFAULT_WINDOW):
    """Spatial and temporal distinctiveness scores per patch.

    Neighborhood means use index clamping at the tensor borders (border
    patches are repeated), keeping the divisor fixed at (2N+1)^2 spatially
    and (2T+1) temporally. Scores lie in [0, 4].

    Returns a pair of (time, rows, cols) arrays: spatial scores, temporal
    scores.
    """
    x = _as_embeddings(embeddings)
    if spatial_window < 0 or temporal_window < 0:
        raise ValueError("window sizes must be nonnegative")
    n_time, n_rows, n_cols, _ = x.shape

    spatial_sum = np.zeros_like(x)
    for dr in range(-spatial_window, spatial_window + 1):
        rows = np.clip(np.arange(n_rows) + dr, 0, n_rows - 1)
        for dc in range(-spatial_window, spatial_window + 1):
            cols = np.clip(np.arange(n_cols) + dc, 0, n_cols - 1)
            spatial_sum += x[:, rows][:, :, cols]
    spatial_mean = spatial_sum / (2 * spatial_window + 1) ** 2

    temporal_sum = np.zeros_like(x)
    for dt in range(-temporal_window, temporal_window + 1):
        steps = np.clip(np.arange(n_time) + dt, 0, n_time - 1)
        temporal_sum += x[steps]
    temporal_mean = temporal_sum / (2 * temporal_window + 1)

    return _cosine_scores(x, spatial_mean), _cosine_scores(x, temporal_mean)


def energy_from_scores(
    spatial_scores,
    temporal_scores,
    temperature: float = DEFAULT_TEMPERATURE,
    top_p: float = DEFAULT_TOP_P,
) -> np.ndarray:
    """Turn score maps into per-frame patch probability maps.

    Per frame: softmax(scores / temperature) over all patches for each score
    kind, average the two probability maps, keep the top-p nucleus (ties at
    the boundary included), zero the rest and renormalize to sum 1.
    """
    s = np.asarray(spatial_scores, dtype=np.float64)
    t = np.asarray(temporal_scores, dtype=np.float64)
    if s.shape != t.shape or s.ndim != 3:
        raise ValueError("score tensors must share one (time, rows, cols) shape")
    if not (np.all(np.isfinite(s)) and np.all(np.isfinite(t))):
        raise ValueError("scores must be finite")
    if temperature <= 0.0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    if not 0.0 < top_p <= 1.0:
        raise ValueError(f"top_p must lie in (0, 1], got {top_p}")

    n_time, n_rows, n_cols = s.shape
    flat_s = s.reshape(n_time, -1)
    flat_t = t.reshape(n_time, -1)
    averaged = (softmax(flat_s / temperature, axis=1) + softmax(flat_t / temperature, axis=1)) / 2.0

    kept = averaged * top_p_mask(averaged, top_p)
    return (kept / kept.sum(axis=1, keepdims=True)).reshape(n_time, n_rows, n_cols)
