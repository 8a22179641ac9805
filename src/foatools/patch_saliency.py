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

import itertools
import warnings

import numpy as np

from ._util import softmax, top_p_mask

DEFAULT_TEMPERATURE = 0.1
DEFAULT_TOP_P = 0.7
DEFAULT_WINDOW = 1


def _as_embeddings(embeddings) -> tuple:
    """The checked float64 tensor and the norm of each of its patch vectors."""
    with np.errstate(invalid="ignore"):  # a float32 signalling NaN; checked just below
        x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 4 or min(x.shape) < 1:
        raise ValueError("embeddings must be a (time, rows, cols, dim) tensor")
    if not np.all(np.isfinite(x)):
        raise ValueError("embeddings must be finite")
    norms = np.linalg.norm(x, axis=-1)
    if np.any(norms == 0.0):
        raise ValueError("all-zero embedding vectors make cosine similarity undefined")
    return x, norms


def _window_mean(x: np.ndarray, half_window: int, axes: tuple) -> np.ndarray:
    """Mean over each patch's (2*half_window+1)-wide window along ``axes``: edge padding
    repeats border patches as clamped indices would, even past the tensor's extent."""
    width = 2 * half_window + 1
    pad = [(half_window, half_window) if axis in axes else (0, 0) for axis in range(x.ndim)]
    padded = np.pad(x, pad, mode="edge")
    total = np.zeros_like(x)
    for offsets in itertools.product(range(width), repeat=len(axes)):
        window = [slice(None)] * x.ndim
        for axis, start in zip(axes, offsets):
            window[axis] = slice(start, start + x.shape[axis])
        total += padded[tuple(window)]
    total /= width ** len(axes)  # in place, sparing a second array the size of x
    return total


def _cosine_scores(x: np.ndarray, x_norms: np.ndarray, neighborhood_mean: np.ndarray) -> np.ndarray:
    """2 - 2*cos(x, mean) per patch; zero-norm means fall back to score 2."""
    dots = np.sum(x * neighborhood_mean, axis=-1)
    norms = x_norms * np.linalg.norm(neighborhood_mean, axis=-1)
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

    Neighborhood means repeat the border patches (an edge-padded tensor,
    the same values as clamped indices), keeping the divisor fixed at
    (2N+1)^2 spatially and (2T+1) temporally. Scores lie in [0, 4].

    Returns a pair of (time, rows, cols) arrays: spatial scores, temporal
    scores.
    """
    x, x_norms = _as_embeddings(embeddings)
    if spatial_window < 0 or temporal_window < 0:
        raise ValueError("window sizes must be nonnegative")
    spatial = _cosine_scores(x, x_norms, _window_mean(x, spatial_window, (1, 2)))
    temporal = _cosine_scores(x, x_norms, _window_mean(x, temporal_window, (0,)))
    return spatial, temporal


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

    kept = averaged * top_p_mask(averaged, top_p, np.empty_like(averaged), np.empty_like(averaged))
    return (kept / kept.sum(axis=1, keepdims=True)).reshape(n_time, n_rows, n_cols)
