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
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    GridMismatchError,
    IncompatibleClipsError,
    NoUsableWindowsError,
    UndefinedMetricError,
)
from .foa import EnergyMap, SphereGrid, block_moments, power_maps, summary, walk_moments, whole_seconds

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


def _one_row(rows_of, gen: EnergyMap, gt: EnergyMap, undefined: str, *args) -> float:
    """``rows_of``'s one row for two maps on one grid; UndefinedMetricError(``undefined``) where it reads NaN."""
    if gen.grid != gt.grid:
        raise GridMismatchError(f"maps use different grids: {gen.grid} vs {gt.grid}")
    value = float(rows_of(gen.values[None], gt.values[None], gen.grid.weights, *args)[0])
    if np.isnan(value):
        raise UndefinedMetricError(undefined)
    return value


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

    Raises UndefinedMetricError where ``correlation_rows`` reads NaN (either map
    constant or of zero weighted variance), so callers can decide whether to skip the window.
    """
    return _one_row(correlation_rows, gen, gt, "correlation undefined for a constant map or zero weighted variance")


def _sorted_thresholds(gt: np.ndarray, weights: np.ndarray, q: float) -> np.ndarray:
    """Each row's smallest gt value whose weighted CDF over the whole sorted row reaches ``q``."""
    order = np.argsort(gt, axis=1)
    cdf = np.cumsum(weights[order], axis=1)
    cdf /= cdf[:, -1:]
    idx = np.minimum(np.sum(cdf < q, axis=1, keepdims=True), gt.shape[1] - 1)
    return np.take_along_axis(gt, np.take_along_axis(order, idx, axis=1), axis=1)[:, 0]


def auc_rows(gen: np.ndarray, gt: np.ndarray, weights: np.ndarray, percentile: float) -> np.ndarray:
    """ROC AUC of each row pair of (n, cells) maps, as ``auc`` defines it.

    A row whose reference map gives no fixation split (a constant map
    among them) reads NaN. Neither sort needs to be stable: tied gt values
    fall on one side of the threshold, and tied gen scores share one ROC
    segment. As in ``correlation_rows``, no row depends on the other rows.
    The threshold comes from each row's top ``k`` cells (a row within rounding
    of ``q`` takes a full sort, as all do if ``k`` is half the cells), and rows
    without tied gen scores skip the tie-group pass: a full sort's bits.
    """
    if not 0.0 < percentile < 100.0:
        raise ValueError("fixation_percentile must lie in (0, 100)")
    n_rows, n_cells = gt.shape
    rows = np.arange(n_rows)
    q = percentile / 100.0
    # Threshold: the smallest gt value whose weighted CDF, here 1 - (weight above) / total, reaches q.
    # This and the full sort's CDF each lie within (2 n_cells + 1) eps/2 of the exact CDF of their tie
    # order (sums of n_cells weights or fewer, a division, a subtraction): 4 n_cells eps covers both.
    bound = 4.0 * n_cells * np.finfo(np.float64).eps
    cover = (1.0 - q + bound) * weights.sum()
    threshold, unsure = np.empty(n_rows), np.ones(n_rows, dtype=bool)
    if cover < (n_cells // 2) * weights.min():  # k cells of the least weight pass 1 - q + bound
        k = int(cover / weights.min()) + 1
        top = np.argpartition(gt, n_cells - k, axis=1)[:, n_cells - k :]
        top = np.take_along_axis(top, np.argsort(np.take_along_axis(gt, top, axis=1), axis=1)[:, ::-1], axis=1)
        below = 1.0 - np.cumsum(weights[top], axis=1) / weights.sum()  # the CDF of the next cell down
        count = np.sum(below >= q, axis=1)  # top[count] is the last cell whose CDF reaches q; k keeps it in top
        unsure = (count == k) | np.any(np.abs(below - q) <= bound, axis=1)
        threshold = gt[rows, top[rows, np.minimum(count, k - 1)]]
    if unsure.any():
        threshold[unsure] = _sorted_thresholds(gt[unsure], weights, q)
    positive = gt >= threshold[:, None]
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
    # With no equal neighbours, each cell is its own group and a negative cell's segment runs from
    # its tp to its tp: fl(tp_j - pos_j) <= tp_j <= tp_i for j < i. Positive cells add 0 either way.
    span, tied = tp + tp, np.any(scores[:, 1:] == scores[:, :-1], axis=1)
    if tied.any():
        starts = np.diff(scores[tied], axis=1, prepend=np.inf) != 0.0
        ends = np.roll(starts, -1, axis=1)
        above = np.maximum.accumulate(np.where(starts, tp[tied] - pos[tied], 0.0), axis=1)
        through = np.minimum.accumulate(np.where(ends, tp[tied], np.inf)[:, ::-1], axis=1)[:, ::-1]
        span[tied] = above + through
    area = np.sum((w_sorted - pos) * span, axis=1) / 2.0
    ok = total > 0.0
    return np.where(ok, np.clip(area / np.where(ok, total, 1.0), 0.0, 1.0), np.nan)


def auc(
    gen: EnergyMap,
    gt: EnergyMap,
    fixation_percentile: float = DEFAULT_FIXATION_PERCENTILE,
) -> float:
    """ROC AUC of ``gen`` values against fixations from the top of ``gt``.

    Cells with gt value at or above the weighted ``fixation_percentile`` of the gt map are positives;
    every cell contributes its area weight to the true/false positive rates, and gen-score ties are
    split 50/50 (the trapezoidal segment over each tie group). A reference map with no fixation split
    (a constant one among them) raises UndefinedMetricError, where ``auc_rows`` reads NaN.
    """
    return _one_row(auc_rows, gen, gt, "reference map yields no usable fixation split", fixation_percentile)


# Summed 4x4 second moments of a clip: ``whole`` (4, 4) over every sample,
# ``seconds`` and ``blocks`` (n, 4, 4) over each whole 1000 ms and 200 ms window.
WindowMoments = namedtuple("WindowMoments", "n_samples sample_rate whole seconds blocks")


def window_moments(slabs, n_samples: int, sample_rate: int) -> WindowMoments:
    """Window moments of a clip that ``slabs`` yields as ``foa.whole_seconds`` checks them, walked once
    by ``foa.walk_moments`` in 200 ms blocks. 1000 ms windows add five blocks when the rate divides
    by 5; else each slab's seconds are taken as they come."""
    length, split = max(1, sample_rate // 5), sample_rate % 5
    walked, seconds = [], []
    for slab, moments in walk_moments(whole_seconds(slabs, n_samples, sample_rate), length):
        walked.append(moments)
        if split:
            seconds.append(block_moments(slab, sample_rate))
    blocks = np.concatenate(walked[:-1])  # the last item is the whole moment
    if not split:  # five 200 ms blocks make a second
        seconds = [blocks[: 5 * (n_samples // sample_rate)].reshape(-1, 5, 4, 4).sum(axis=1)]
    return WindowMoments(n_samples, sample_rate, walked[-1], np.concatenate(seconds), blocks)


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

    gen, gt = (summary(m, window_moments) for m in (gen, gt))
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
