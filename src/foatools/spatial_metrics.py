"""Spatial agreement metrics between sphere energy maps.

Two saliency-style scores compare a generated sound field against a
reference: an area-weighted Pearson correlation of the two maps, and a
ROC AUC where the reference map's top-mass cells act as fixations and the
candidate map's values act as scores. Both are evaluated per temporal
window at three granularities (whole clip, 1000 ms, 200 ms) and averaged
over the usable windows of each granularity.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (
    GridMismatchError,
    IncompatibleClipsError,
    NoUsableWindowsError,
    UndefinedMetricError,
)
from .foa import EnergyMap, SphereGrid, block_moments, power_maps

GRANULARITIES = ("all", "1fps", "5fps")

DEFAULT_FIXATION_PERCENTILE = 95.0

# Windows per block in ``evaluate_windows``: small enough that glibc reuses a block's
# (rows x cells) float64 temporaries from its heap, not from fresh page-faulted maps.
_BLOCK_ROWS = 16


@dataclass(frozen=True)
class SpatialReport:
    """Averaged correlation/AUC scores per temporal granularity."""

    cc_all: float
    cc_1fps: float
    cc_5fps: float
    auc_all: float
    auc_1fps: float
    auc_5fps: float
    windows_used: dict = field(default_factory=dict)
    windows_skipped: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _check_grids(gen: EnergyMap, gt: EnergyMap) -> SphereGrid:
    if gen.grid != gt.grid:
        raise GridMismatchError(f"maps use different grids: {gen.grid} vs {gt.grid}")
    return gen.grid


def correlation_rows(gen: np.ndarray, gt: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Area-weighted Pearson correlation of each row pair of (n, cells) maps;
    NaN where either map is constant or has zero weighted variance. Weighted sums
    add products along the row, so a row's result does not depend on other rows."""
    range_x, range_y = np.ptp(gen, axis=1), np.ptp(gt, axis=1)
    # Each row times 2**-exponent(range): exact, and CC does not depend on
    # scale, so the squares of huge finite maps do not overflow.
    dx = np.ldexp(gen - np.sum(gen * weights, axis=1)[:, None], -np.frexp(range_x)[1][:, None])
    dy = np.ldexp(gt - np.sum(gt * weights, axis=1)[:, None], -np.frexp(range_y)[1][:, None])
    var_x = np.sum(dx * dx * weights, axis=1)
    var_y = np.sum(dy * dy * weights, axis=1)
    ok = (range_x > 0.0) & (range_y > 0.0) & (var_x > 0.0) & (var_y > 0.0)
    cc = np.sum(dx * dy * weights, axis=1) / np.sqrt(np.where(ok, var_x * var_y, 1.0))
    return np.where(ok, np.clip(cc, -1.0, 1.0), np.nan)


def correlation(gen: EnergyMap, gt: EnergyMap) -> float:
    """Area-weighted Pearson correlation of two maps on the same grid.

    Raises UndefinedMetricError when either map is constant, so callers can
    decide whether to skip the window.
    """
    grid = _check_grids(gen, gt)
    if np.ptp(gen.values) == 0.0 or np.ptp(gt.values) == 0.0:
        raise UndefinedMetricError("correlation undefined for a constant map")
    cc = correlation_rows(gen.values[None], gt.values[None], grid.weights)[0]
    if np.isnan(cc):
        raise UndefinedMetricError("correlation undefined for zero weighted variance")
    return float(cc)


def auc_rows(gen: np.ndarray, gt: np.ndarray, weights: np.ndarray, percentile: float) -> np.ndarray:
    """ROC AUC of each row pair of (n, cells) maps, as ``auc`` defines it.

    A row whose reference map gives no fixation split (a constant map
    among them) reads NaN. Neither sort needs to be stable: tied gt values
    fall on one side of the threshold, and tied gen scores share one ROC
    segment. As in ``correlation_rows``, no row depends on the other rows.
    """
    if not 0.0 < percentile < 100.0:
        raise ValueError("fixation_percentile must lie in (0, 100)")
    n_rows, n_cells = gt.shape
    rows = np.arange(n_rows)
    # Threshold: the smallest gt value whose weighted CDF reaches q/100.
    order = np.argsort(gt, axis=1)
    cdf = np.cumsum(weights[order], axis=1)
    cdf /= cdf[:, -1:]
    idx = np.minimum(np.sum(cdf < percentile / 100.0, axis=1), n_cells - 1)
    positive = gt >= gt[rows, order[rows, idx]][:, None]
    total = np.sum(positive * weights, axis=1) * np.sum(~positive * weights, axis=1)

    # ROC over descending gen scores. Each negative cell counts the positive
    # weight ranked above its tie group plus half of the group's own, which
    # is the trapezoid of the group's segment.
    order = np.argsort(-gen, axis=1)
    flat = order + (rows * n_cells)[:, None]
    scores = gen.take(flat)
    w_sorted = weights[order]
    pos = np.where(positive.take(flat), w_sorted, 0.0)
    tp = np.cumsum(pos, axis=1)
    starts = np.diff(scores, axis=1, prepend=np.inf) != 0.0
    ends = np.roll(starts, -1, axis=1)
    above = np.maximum.accumulate(np.where(starts, tp - pos, 0.0), axis=1)
    through = np.minimum.accumulate(np.where(ends, tp, np.inf)[:, ::-1], axis=1)[:, ::-1]
    area = np.sum((w_sorted - pos) * (above + through), axis=1) / 2.0
    ok = total > 0.0
    return np.where(ok, np.clip(area / np.where(ok, total, 1.0), 0.0, 1.0), np.nan)


def auc(
    gen: EnergyMap,
    gt: EnergyMap,
    fixation_percentile: float = DEFAULT_FIXATION_PERCENTILE,
) -> float:
    """ROC AUC of ``gen`` values against fixations from the top of ``gt``.

    Cells with gt value at or above the weighted ``fixation_percentile`` of
    the gt map are positives; every cell contributes its area weight to the
    true/false positive rates, and gen-score ties are split 50/50 (the
    trapezoidal segment over each tie group).
    """
    grid = _check_grids(gen, gt)
    if np.ptp(gt.values) == 0.0:
        raise UndefinedMetricError("fixations undefined for a constant reference map")
    roc = auc_rows(gen.values[None], gt.values[None], grid.weights, fixation_percentile)[0]
    if np.isnan(roc):
        raise UndefinedMetricError("reference map yields no usable fixation split")
    return float(roc)


# Summed 4x4 second moments of a clip: ``whole`` (4, 4) over every sample,
# ``seconds`` and ``blocks`` (n, 4, 4) over each whole 1000 ms and 200 ms window.
WindowMoments = namedtuple("WindowMoments", "n_samples sample_rate whole seconds blocks")


def window_moments(slabs, n_samples: int, sample_rate: int) -> WindowMoments:
    """Window moments of a clip that ``slabs`` yields in order as (4, frames)
    slabs of whole seconds, the last one shorter, walked once. The whole clip
    sums the 200 ms blocks, then the tail; 1000 ms windows add five blocks
    when the rate divides by 5. Else each slab's seconds are taken as they
    come, and the partial block at a slab's end is joined to the next slab."""
    length, split = max(1, sample_rate // 5), sample_rate % 5
    blocks, seconds, tail = [], [], np.zeros((4, 0))
    for slab in slabs:
        if split:
            seconds.append(block_moments(slab, sample_rate))
            slab = np.concatenate([tail, slab], axis=1)
        blocks.append(block_moments(slab, length))
        tail = slab[:, blocks[-1].shape[0] * length :]
    blocks = np.concatenate(blocks)
    if not split:  # five 200 ms blocks make a second
        seconds = [blocks[: 5 * (n_samples // sample_rate)].reshape(-1, 5, 4, 4).sum(axis=1)]
    whole = blocks.sum(axis=0) + tail @ tail.T
    return WindowMoments(n_samples, sample_rate, whole, np.concatenate(seconds), blocks)


def evaluate_windows(
    gen,
    gt,
    grid: SphereGrid,
    fixation_percentile: float = DEFAULT_FIXATION_PERCENTILE,
) -> SpatialReport:
    """Windowed correlation/AUC between two clips at all three granularities.

    ``gen`` and ``gt`` are clips, or their WindowMoments as
    ``tensor_io.read_foa_summary(path, window_moments)`` reads them. The
    whole-clip window keeps every sample; the 1000 ms and 200 ms windows tile
    the clip from its start and drop a trailing partial window. All
    power-mode maps come from one pass over summed second moments of every
    200 ms block. Then each block of ``_BLOCK_ROWS`` windows gets its maps,
    CC and AUC, so no map array spans the clip, and a window's scores do not
    depend on the block it falls in. Each granularity reports the mean over
    its usable windows. Windows where either metric is undefined (a silent or
    otherwise constant map) are counted in ``windows_skipped``; a granularity
    with no usable window raises NoUsableWindowsError.
    """
    if gen.n_samples != gt.n_samples or gen.sample_rate != gt.sample_rate:
        raise IncompatibleClipsError(
            f"clips differ: {gen.n_samples}@{gen.sample_rate} vs "
            f"{gt.n_samples}@{gt.sample_rate}"
        )

    gen, gt = (
        m if isinstance(m, WindowMoments) else window_moments([m.samples], m.n_samples, m.sample_rate)
        for m in (gen, gt)
    )
    counts, length = (1, gen.seconds.shape[0], gen.blocks.shape[0]), max(1, gen.sample_rate // 5)
    # Mean moments of every window, whole clip first, then the 1000 ms and the 200 ms ones.
    gen_means, gt_means = (
        np.concatenate([m.whole[None] / m.n_samples, m.seconds / m.sample_rate, m.blocks / length])
        for m in (gen, gt)
    )
    cc, roc = np.empty(len(gen_means)), np.empty(len(gen_means))
    # A bad percentile is raised only once every block's maps proved finite: non-finite maps come first.
    percentile_ok = 0.0 < fixation_percentile < 100.0
    for start in range(0, len(cc), _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        gen_maps, gt_maps = power_maps(grid, gen_means[rows]), power_maps(grid, gt_means[rows])
        if not (np.all(np.isfinite(gen_maps)) and np.all(np.isfinite(gt_maps))):
            raise ValueError("energy values must be finite")
        cc[rows] = correlation_rows(gen_maps, gt_maps, grid.weights)
        if percentile_ok:
            roc[rows] = auc_rows(gen_maps, gt_maps, grid.weights, fixation_percentile)
    if not percentile_ok:
        auc_rows(gen_maps, gt_maps, grid.weights, fixation_percentile)  # raises
    usable = ~(np.isnan(cc) | np.isnan(roc))

    means, used, skipped = {}, {}, {}
    bounds = np.cumsum((0,) + counts)
    for name, lo, hi in zip(GRANULARITIES, bounds[:-1], bounds[1:]):
        ok = usable[lo:hi]
        if not ok.any():
            raise NoUsableWindowsError(f"no usable {name} window out of {hi - lo}")
        means[f"cc_{name}"] = float(np.mean(cc[lo:hi][ok]))
        means[f"auc_{name}"] = float(np.mean(roc[lo:hi][ok]))
        used[name] = int(ok.sum())
        skipped[name] = int(hi - lo) - used[name]
    return SpatialReport(**means, windows_used=used, windows_skipped=skipped)
