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
import math
import warnings

import numpy as np

from ._util import softmax, top_p_mask

DEFAULT_TEMPERATURE = 0.1
DEFAULT_TOP_P = 0.7
DEFAULT_WINDOW = 1

# Bytes of float64 per block of frames in ``patch_scores``, which takes at least one frame:
# a block's halo, sums and products stay cache-sized and heap-reused. Blocks of one 14x14x768
# frame ran faster than 2, 4 or 16 (medians of 39, 44, 45 and 60 ms in one process, 2-vCPU VM).
_BLOCK_BYTES = 1 << 20


def patch_scores(embeddings, spatial_window: int = DEFAULT_WINDOW, temporal_window: int = DEFAULT_WINDOW):
    """Spatial and temporal distinctiveness scores per patch.

    Neighborhood means repeat the border patches (clamped indices), keeping
    the divisor fixed at (2N+1)^2 spatially and (2T+1) temporally; a zero-norm
    mean scores 2. Scores lie in [0, 4]. Blocks of whole frames are scored in
    turn, each from its clamped temporal halo in float64, so no float64
    temporary spans the clip and no score depends on its block.

    Returns a pair of (time, rows, cols) arrays: spatial scores, temporal
    scores.
    """
    if spatial_window < 0 or temporal_window < 0:
        raise ValueError("window sizes must be nonnegative")
    x = np.asarray(embeddings)
    if x.ndim != 4 or min(x.shape) < 1:
        raise ValueError("embeddings must be a (time, rows, cols, dim) tensor")
    n_time, n_rows, n_cols, dim = x.shape
    windows = np.array([[0, spatial_window, spatial_window, 0], [temporal_window, 0, 0, 0]])  # spatial, temporal
    pads = np.minimum(windows, np.array(x.shape) - 1)  # past its pad, an offset reads only edge patches
    rows, cols = (np.clip(np.arange(-p, n + p), 0, n - 1) for n, p in zip(x.shape[1:3], pads[0, 1:3]))
    step = max(1, _BLOCK_BYTES // (8 * n_rows * n_cols * dim))
    scores = np.empty((2, n_time, n_rows, n_cols))  # spatial, temporal
    n_undefined = [0, 0]
    any_zero = False
    for t0 in range(0, n_time, step):
        t1 = min(t0 + step, n_time)
        frames = np.clip(np.arange(t0 - pads[1, 0], t1 + pads[1, 0]), 0, n_time - 1)
        with np.errstate(invalid="ignore"):  # a float32 signalling NaN; checked just below
            halo = x[frames].astype(np.float64)
        # A later halo's first 2P frames (P its temporal pad) were checked as the last ones of the halo before.
        if not np.all(np.isfinite(halo[2 * pads[1, 0] if t0 else 0 :])):
            raise ValueError("embeddings must be finite")
        block = halo[pads[1, 0] : pads[1, 0] + t1 - t0]
        block_norms = np.linalg.norm(block, axis=-1)
        any_zero |= bool(np.any(block_norms == 0.0))
        for kind, padded in enumerate((block[:, rows[:, None], cols], halo)):
            # Each patch's window mean: the block-shaped slices of ``padded`` (its border patches clamped)
            # at clip(o, -P, P) per offset o, added in offset order (rows, then columns; time) to zeros, divided once.
            starts = [np.clip(np.arange(-w, w + 1), -p, p) + p for w, p in zip(windows[kind], pads[kind])]
            mean = np.zeros(block.shape)
            for offsets in itertools.product(*starts):
                mean += padded[tuple(slice(start, start + want) for start, want in zip(offsets, block.shape))]
            mean /= math.prod(map(len, starts))
            norms = block_norms * np.linalg.norm(mean, axis=-1)
            mean *= block  # the products of the dots, in place
            undefined = norms == 0.0
            n_undefined[kind] += int(np.count_nonzero(undefined))
            cos = np.where(undefined, 0.0, np.sum(mean, axis=-1) / np.where(undefined, 1.0, norms))
            scores[kind, t0:t1] = 2.0 - 2.0 * cos
            del mean  # before the next sum is made, so that the allocator reuses its pages
    # Raised only once every block proved finite, as a non-finite value comes first.
    if any_zero:
        raise ValueError("all-zero embedding vectors make cosine similarity undefined")
    for count in n_undefined:
        if count:
            warnings.warn(
                f"{count} patches have a zero-norm neighborhood mean; "
                "their score is set to 2 (orthogonal-equivalent)",
                stacklevel=2,
            )
    return scores[0], scores[1]


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

    spatial_p, temporal_p = (softmax(scores.reshape(len(s), -1).copy(), 1, temperature) for scores in (s, t))
    averaged = (spatial_p + temporal_p) / 2.0

    kept = averaged * top_p_mask(averaged, top_p, np.empty_like(averaged), np.empty_like(averaged))
    return (kept / kept.sum(axis=1, keepdims=True)).reshape(s.shape)
