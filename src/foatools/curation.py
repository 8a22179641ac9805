"""Corpus curation filters for raw ambisonic clips and external scores.

Clips are screened by per-second amplitude (all four channels must stay
above a floor), segmented into 1-second validity masks by the RMS of the
omnidirectional channel, merged into nonoverlapping 5-second windows that
keep at least 4 valid seconds, localized by the argmax of their full-clip
energy map, and finally thinned by a relevance-score cut at one population
standard deviation below the mean.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import NoEnergyError
from .foa import Direction, EnergyMap, SphereGrid, power_maps, second_sums, summary, walk_moments, whole_seconds

DEFAULT_AMPLITUDE_FLOOR = 1e-20

WINDOW_SECONDS = 5
MIN_VALID_SECONDS = 4  # strictly more than 3 of 5 one-second segments


@dataclass(frozen=True)
class ClipWindow:
    """A five-second window, in whole seconds from the clip start."""

    start_second: int
    end_second: int

    def __post_init__(self) -> None:
        if self.end_second - self.start_second != WINDOW_SECONDS:
            raise ValueError("clip windows must span exactly 5 seconds")
        if self.start_second < 0:
            raise ValueError("window start must be nonnegative")


# What the filters read of a clip: over each whole second, the mean |amplitude|
# of every channel ``abs_means`` (4, seconds) and the mean squared W ``w_squares``
# (seconds,); over every sample, the summed 4x4 second moment ``whole``.
ClipStats = namedtuple("ClipStats", "n_samples abs_means w_squares whole")


def clip_stats(slabs, n_samples: int, sample_rate: int) -> ClipStats:
    """The ClipStats of a clip that ``slabs`` yields as ``foa.whole_seconds`` checks
    them; ``whole`` is ``foa.walk_moments``'."""
    abs_means, w_squares = [], []
    for slab, whole in walk_moments(whole_seconds(slabs, n_samples, sample_rate), sample_rate):
        k = slab.shape[1] // sample_rate
        abs_means.append(second_sums(np.abs(slab[:, : k * sample_rate]).reshape(4, k, sample_rate)).T / sample_rate)
        w_squares.append((slab[0, : k * sample_rate].reshape(k, sample_rate) ** 2).mean(axis=1))
    return ClipStats(n_samples, np.concatenate(abs_means, axis=1), np.concatenate(w_squares), whole)


def amplitude_gate(clip, threshold: float = DEFAULT_AMPLITUDE_FLOOR) -> bool:
    """True iff every channel keeps a mean |amplitude| >= threshold each second.

    ``clip`` is a ClipStats (as ``tensor_io.read_foa_summary(path, clip_stats)``
    reads it) or a FoaClip, here and in ``segment_mask`` and ``fov_center``; a
    FoaClip's whole ClipStats is built first, through ``foa.summary``.
    """
    if not threshold >= 0.0:
        raise ValueError("threshold must be nonnegative")
    abs_means = summary(clip, clip_stats).abs_means
    if abs_means.shape[1] < 1:
        raise ValueError("amplitude gate needs at least one full second of audio")
    return bool(np.all(abs_means >= threshold))


def segment_mask(clip, rms_threshold: float) -> np.ndarray:
    """Per-second validity: RMS of the W channel at or above the threshold."""
    if not rms_threshold >= 0.0:
        raise ValueError("rms_threshold must be nonnegative")
    return np.sqrt(summary(clip, clip_stats).w_squares) >= rms_threshold


def select_windows(mask) -> list:
    """Nonoverlapping 5 s windows (stride 5 from second 0) with >= 4 valid seconds."""
    valid = np.asarray(mask, dtype=bool)
    if valid.ndim != 1 or valid.size < WINDOW_SECONDS:
        raise ValueError(f"mask must cover at least {WINDOW_SECONDS} seconds")
    windows = []
    for start in range(0, valid.size - WINDOW_SECONDS + 1, WINDOW_SECONDS):
        if int(valid[start : start + WINDOW_SECONDS].sum()) >= MIN_VALID_SECONDS:
            windows.append(ClipWindow(start, start + WINDOW_SECONDS))
    return windows


def fov_center(clip, grid: SphereGrid) -> Direction:
    """Direction of the strongest cell of the full-clip power energy map.

    Exact ties resolve to the lowest (elevation band, azimuth index) cell.
    """
    n, _, _, whole = summary(clip, clip_stats)
    emap = EnergyMap(grid, power_maps(grid, whole[None] / n)[0], (0, n))
    if emap.values.max() <= 0.0:
        raise NoEnergyError("clip carries no energy; argmax direction undefined")
    return grid.direction(emap.argmax_cell())


def relevance_filter(scores) -> np.ndarray:
    """Keep scores at or above mean - 1 population standard deviation."""
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1 or s.size < 2:
        raise ValueError("relevance filter needs at least 2 scores")
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")
    cutoff = s.mean() - s.std()
    return s >= cutoff
