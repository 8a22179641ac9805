"""Shared fixtures and independent brute-force oracles for the test suite.

The oracles deliberately re-derive every quantity with plain loops and
definitional formulas so they stay independent of the library's vectorized
implementations.
"""

import math
import struct
import warnings

import numpy as np

from foatools import CodeMatrix, Direction, FoaClip, Group, Pattern, Rotation, encode_mono, group_of
from foatools.code_pattern import _schedule
from foatools.errors import IncompatibleClipsError, NoUsableWindowsError
from foatools.spatial_metrics import WindowMoments, window_moments
from foatools.tensor_io import write_wav


def random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, [0, 1]] = q[:, [1, 0]]
    return Rotation(q)


def random_direction(rng):
    # Uniform over the sphere: uniform azimuth, sin(elevation) uniform.
    return Direction(rng.uniform(0.0, 2.0 * np.pi), math.asin(rng.uniform(-1.0, 1.0)))


def turned(rotation, direction):
    """``direction`` turned by ``rotation``: the Direction of its rotated unit vector."""
    v = rotation.matrix @ direction.unit_vector()
    x, y, z = v / np.linalg.norm(v)
    return Direction(math.atan2(y, x), math.asin(min(1.0, max(-1.0, z))))


def random_clip(rng, n_samples=512, sample_rate=44100):
    return FoaClip(rng.normal(size=(4, n_samples)), sample_rate)


def encoded_noise(rng, direction, n_samples=2205, sample_rate=44100):
    return encode_mono(rng.normal(size=n_samples), direction, sample_rate)


def write_foa_wav(clip, path, encoding="float32"):
    """Write a clip as a 4-channel W, X, Y, Z WAV file."""
    write_wav(clip.samples, clip.sample_rate, path, encoding)


def set_float32_sample(path, index, value):
    """Overwrite sample ``index`` (frame-major) of a float32 WAV file in place;
    the writers refuse non-finite samples, so NaN files are made this way.
    ``value`` is a float or its 4 little-endian bytes, as a float32 signalling
    NaN does not survive a Python float."""
    blob = path.read_bytes()
    start = blob.index(b"data") + 8 + 4 * index
    raw = value if isinstance(value, bytes) else struct.pack("<f", value)
    path.write_bytes(blob[:start] + raw + blob[start + 4 :])


def extensible_wav(frames, sample_rate, subformat, bits, payload):
    """A WAVE_FORMAT_EXTENSIBLE (0xFFFE) file, built by hand from its fields."""
    channels = frames.shape[1]
    block_align = channels * bits // 8
    fmt = struct.pack(
        "<HHIIHHHHI", 0xFFFE, channels, sample_rate, sample_rate * block_align,
        block_align, bits, 22, bits, 0x33,  # extension size, valid bits, channel mask
    )
    fmt += struct.pack("<IHH", subformat, 0x0000, 0x0010) + bytes.fromhex("800000aa00389b71")
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", len(body)) + body


def pcm24_bytes(ints):
    """Frame-major 24-bit little-endian PCM payload of integer samples (frames, channels)."""
    return np.asarray(ints, dtype="<i4").view(np.uint8).reshape(-1, 4)[:, :3].tobytes()


def pcm24_wav(ints, sample_rate):
    """A plain format-1 24-bit PCM file of integer samples (frames, channels)."""
    channels = ints.shape[1]
    fmt = struct.pack("<HHIIHH", 1, channels, sample_rate, sample_rate * 3 * channels, 3 * channels, 24)
    payload = pcm24_bytes(ints)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload + b"\x00" * (len(payload) & 1)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def riff(*chunks):
    """A RIFF/WAVE file holding ``chunks`` (id, body) in order, odd bodies padded."""
    body = b"WAVE" + b"".join(
        cid + struct.pack("<I", len(data)) + data + b"\x00" * (len(data) & 1) for cid, data in chunks
    )
    return b"RIFF" + struct.pack("<I", len(body)) + body


def fmt_body(kind, channels, rate):
    """The fmt chunk body of a ``float32``, ``float64``, ``pcm16``, ``pcm24`` or ``pcm32`` file,
    plain or 0xFFFE (``ext-``)."""
    formats = {"float32": (3, 32), "float64": (3, 64), "pcm16": (1, 16), "pcm24": (1, 24), "pcm32": (1, 32)}
    tag, bits = formats[kind.rpartition("-")[2]]
    align = channels * bits // 8
    if not kind.startswith("ext"):
        return struct.pack("<HHIIHH", tag, channels, rate, rate * align, align, bits)
    return struct.pack(
        "<HHIIHHHHIIHH", 0xFFFE, channels, rate, rate * align, align, bits, 22, bits, 0, tag, 0, 0x10
    ) + bytes.fromhex("800000aa00389b71")


WAV_KINDS = [
    "float32", "float64", "pcm16", "pcm24", "pcm32", "ext-float32", "ext-float64", "ext-pcm16", "ext-pcm24", "ext-pcm32"
]


def random_payload(rng, kind, frames):
    """A data chunk of ``frames`` random 4-channel frames in the sample format of ``kind``."""
    if "float" in kind:
        return rng.normal(size=(frames, 4)).astype("<f4" if kind.endswith("32") else "<f8").tobytes()
    if kind.endswith("pcm24"):
        return pcm24_bytes(rng.integers(-(2**23), 2**23, size=(frames, 4)))
    if kind.endswith("pcm32"):
        return rng.integers(-(2**31), 2**31, size=(frames, 4)).astype("<i4").tobytes()
    return rng.integers(-32768, 32768, size=(frames, 4)).astype("<i2").tobytes()


def curation_stats_oracle(clip):
    """Per-second mean |amplitude| (4, seconds) and mean squared W (seconds,)
    of a clip's whole seconds, each from one expression over the whole clip.
    Each channel-second's |amplitude| is added in sample order: the last entry
    of ``np.cumsum``, which is a sequential chain of adds."""
    seconds = clip.n_samples // clip.sample_rate
    trimmed = clip.samples[:, : seconds * clip.sample_rate]
    magnitudes = np.abs(trimmed).reshape(4, seconds, clip.sample_rate)
    abs_means = np.cumsum(magnitudes, axis=-1)[..., -1] / clip.sample_rate
    w_squares = (trimmed[0].reshape(seconds, clip.sample_rate) ** 2).mean(axis=1)
    return abs_means, w_squares


def sphere_grid_cells_loop(n_elevation_bands, max_azimuth_samples):
    """The per-cell loop SphereGrid once filled its cells with: the six cell
    attributes of a grid, as a dict. The library's array construction must
    equal these bit for bit."""
    edges = -0.5 * math.pi + math.pi * np.arange(n_elevation_bands + 1) / n_elevation_bands
    sin_edges = np.sin(edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    samples_per_band = [max(1, int(round(max_azimuth_samples * math.cos(e)))) for e in centers]
    band_index, azimuth_index, azimuths, elevations, weights = [], [], [], [], []
    for band, (center, count) in enumerate(zip(centers, samples_per_band)):
        cell_weight = (sin_edges[band + 1] - sin_edges[band]) / (2.0 * count)
        for j in range(count):
            band_index.append(band)
            azimuth_index.append(j)
            azimuths.append(2.0 * math.pi * j / count)
            elevations.append(center)
            weights.append(cell_weight)
    return {
        "samples_per_band": samples_per_band,
        "band_index": np.asarray(band_index, dtype=np.intp),
        "azimuth_index": np.asarray(azimuth_index, dtype=np.intp),
        "azimuths": np.asarray(azimuths),
        "elevations": np.asarray(elevations),
        "weights": np.asarray(weights),
    }


def grid_cells(grid):
    """Iterate (Direction, area_weight, samples_in_band) per grid cell."""
    for i in range(grid.n_cells):
        yield (
            grid.direction(i),
            float(grid.weights[i]),
            grid.samples_per_band[grid.band_index[i]],
        )


class UniformPredictor:
    """All-zero logits over a fixed vocabulary; counts how often it is queried."""

    def __init__(self, n_rows, vocab_size):
        self.n_rows = n_rows
        self.vocab_size = vocab_size
        self.n_queries = 0

    def __call__(self, prefix, variant):
        self.n_queries += 1
        return np.zeros((self.n_rows, self.vocab_size))


def nearest_cell_bruteforce(grid, direction):
    """Closest grid cell by great-circle angle, via an explicit loop."""
    u = direction.unit_vector()
    best, best_cos = -1, -2.0
    for i in range(grid.n_cells):
        c = float(np.dot(grid.direction(i).unit_vector(), u))
        if c > best_cos:
            best, best_cos = i, c
    return best


def block_moments_bruteforce(samples, length):
    """Summed 4x4 second moment of each whole ``length``-sample block: the
    outer products of the block's (W, X, Y, Z) sample columns, each entry's
    products summed with ``math.fsum``, so only the products round."""
    x = np.asarray(samples, dtype=np.float64)
    moments = np.zeros((x.shape[1] // length, 4, 4))
    for b, moment in enumerate(moments):
        columns = x[:, b * length : (b + 1) * length]
        products = [np.outer(column, column) for column in columns.T]
        for i in range(4):
            for j in range(4):
                moment[i, j] = math.fsum(p[i, j] for p in products)
    return moments


def energy_map_bruteforce(clip, grid, window=None, mode="power"):
    """Per-cell energies by decoding at every cell, one cell at a time."""
    start, end = window if window is not None else (0, clip.n_samples)
    values = np.empty(grid.n_cells)
    w, x, y, z = clip.samples
    for i in range(grid.n_cells):
        ux, uy, uz = grid.direction(i).unit_vector()
        decoded = w[start:end] + ux * x[start:end] + uy * y[start:end] + uz * z[start:end]
        values[i] = np.mean(decoded**2) if mode == "power" else np.mean(decoded)
    return values


def weighted_pearson_bruteforce(x, y, w):
    """Direct-summation weighted Pearson correlation."""
    total = sum(w)
    mx = sum(wi * xi for wi, xi in zip(w, x)) / total
    my = sum(wi * yi for wi, yi in zip(w, y)) / total
    cov = sum(wi * (xi - mx) * (yi - my) for wi, xi, yi in zip(w, x, y)) / total
    vx = sum(wi * (xi - mx) ** 2 for wi, xi in zip(w, x)) / total
    vy = sum(wi * (yi - my) ** 2 for wi, yi in zip(w, y)) / total
    return cov / math.sqrt(vx * vy)


def weighted_percentile_bruteforce(values, weights, q):
    pairs = sorted(zip(values, weights))
    total = sum(weights)
    acc = 0.0
    for value, weight in pairs:
        acc += weight
        if acc / total >= q / 100.0:
            return value
    return pairs[-1][0]


def roc_auc_bruteforce(scores, positives, weights):
    """Trapezoidal ROC integration over every distinct score threshold."""
    total_pos = sum(w for w, p in zip(weights, positives) if p)
    total_neg = sum(w for w, p in zip(weights, positives) if not p)
    thresholds = sorted(set(scores), reverse=True)
    points = [(0.0, 0.0)]
    for threshold in thresholds:
        tp = sum(w for s, p, w in zip(scores, positives, weights) if p and s >= threshold)
        fp = sum(w for s, p, w in zip(scores, positives, weights) if not p and s >= threshold)
        points.append((fp / total_neg, tp / total_pos))
    area = 0.0
    for (fp0, tp0), (fp1, tp1) in zip(points, points[1:]):
        area += (fp1 - fp0) * (tp1 + tp0) / 2.0
    return area


def auc_bruteforce(gen_map, gt_map, percentile=95.0):
    w = list(gt_map.grid.weights)
    threshold = weighted_percentile_bruteforce(list(gt_map.values), w, percentile)
    positives = [v >= threshold for v in gt_map.values]
    return roc_auc_bruteforce(list(gen_map.values), positives, w)


def evaluate_windows_bruteforce(gen, gt, grid, percentile=95.0):
    """The windowed evaluation as a plain loop over every window.

    Maps come from per-cell decoding, CC and AUC from the direct-summation
    oracles. A window is skipped when either map is constant or the
    reference gives no fixation split. Returns the dict that
    ``dataclasses.asdict`` makes of a ``SpatialReport``.
    """
    rate, n = gen.sample_rate, gen.n_samples
    weights = list(grid.weights)
    report = {"windows_used": {}, "windows_skipped": {}}
    for name, length in (("all", n), ("1fps", rate), ("5fps", max(1, rate // 5))):
        ccs, aucs, skipped = [], [], 0
        for k in range(n // length):
            window = (k * length, (k + 1) * length)
            x = list(energy_map_bruteforce(gen, grid, window))
            y = list(energy_map_bruteforce(gt, grid, window))
            threshold = weighted_percentile_bruteforce(y, weights, percentile)
            positives = [v >= threshold for v in y]
            if min(x) == max(x) or min(y) == max(y) or all(positives) or not any(positives):
                skipped += 1
                continue
            ccs.append(weighted_pearson_bruteforce(x, y, weights))
            aucs.append(roc_auc_bruteforce(x, positives, weights))
        report[f"cc_{name}"] = sum(ccs) / len(ccs) if ccs else None
        report[f"auc_{name}"] = sum(aucs) / len(aucs) if aucs else None
        report["windows_used"][name] = len(ccs)
        report["windows_skipped"][name] = skipped
    return report


def correlation_rows_whole(gen, gt, weights):
    """The whole-batch correlation rows: the ``@ weights`` products are BLAS
    calls whose rounding depends on the row count."""
    dx = gen - (gen @ weights)[:, None]
    dy = gt - (gt @ weights)[:, None]
    var_x = (dx * dx) @ weights
    var_y = (dy * dy) @ weights
    ok = (np.ptp(gen, axis=1) > 0.0) & (np.ptp(gt, axis=1) > 0.0) & (var_x > 0.0) & (var_y > 0.0)
    cc = ((dx * dy) @ weights) / np.sqrt(np.where(ok, var_x * var_y, 1.0))
    return np.where(ok, np.clip(cc, -1.0, 1.0), np.nan)


def auc_rows_whole(gen, gt, weights, percentile):
    """The whole-batch AUC rows, with the general tie-group ROC for every row."""
    if not 0.0 < percentile < 100.0:
        raise ValueError("fixation_percentile must lie in (0, 100)")
    n_rows, n_cells = gt.shape
    rows = np.arange(n_rows)
    order = np.argsort(gt, axis=1)
    cdf = np.cumsum(weights[order], axis=1)
    cdf /= cdf[:, -1:]
    idx = np.minimum(np.sum(cdf < percentile / 100.0, axis=1), n_cells - 1)
    positive = gt >= gt[rows, order[rows, idx]][:, None]
    total = (positive @ weights) * (~positive @ weights)

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


# ``spatial_metrics.auc_rows`` as it was before its threshold came from a top-k selection:
# one full argsort and cumsum per row and the tie-group pass on every row. The new form keeps its bits.
def auc_rows_sorted(gen: np.ndarray, gt: np.ndarray, weights: np.ndarray, percentile: float) -> np.ndarray:
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


def evaluate_windows_whole(gen, gt, grid, percentile=95.0):
    """The windowed evaluation over whole-clip (windows x cells) map arrays:
    one (windows, 16) @ (16, cells) product per clip, then CC and AUC over
    every row at once. Returns the dict that ``dataclasses.asdict`` makes of a ``SpatialReport``."""
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
    gen_maps, gt_maps = (
        np.maximum(
            np.concatenate([m.whole[None] / m.n_samples, m.seconds / m.sample_rate, m.blocks / length])
            .reshape(-1, 16) @ grid.quadratic_features,
            0.0,
        )
        for m in (gen, gt)
    )
    if not (np.all(np.isfinite(gen_maps)) and np.all(np.isfinite(gt_maps))):
        raise ValueError("energy values must be finite")
    cc = correlation_rows_whole(gen_maps, gt_maps, grid.weights)
    roc = auc_rows_whole(gen_maps, gt_maps, grid.weights, percentile)
    usable = ~(np.isnan(cc) | np.isnan(roc))

    report = {"windows_used": {}, "windows_skipped": {}}
    bounds = np.cumsum((0,) + counts)
    for name, lo, hi in zip(("all", "1fps", "5fps"), bounds[:-1], bounds[1:]):
        ok = usable[lo:hi]
        if not ok.any():
            raise NoUsableWindowsError(f"no usable {name} window out of {hi - lo}")
        report[f"cc_{name}"] = float(np.mean(cc[lo:hi][ok]))
        report[f"auc_{name}"] = float(np.mean(roc[lo:hi][ok]))
        report["windows_used"][name] = int(ok.sum())
        report["windows_skipped"][name] = int(hi - lo) - report["windows_used"][name]
    return report


def patch_scores_bruteforce(emb, spatial_window, temporal_window):
    """Nested-loop spatial/temporal distinctiveness scores, in float64."""
    emb = np.asarray(emb, dtype=np.float64)
    n_time, n_rows, n_cols, _ = emb.shape

    def cos_sim(a, b):
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        if na * nb == 0.0:
            return 0.0
        return float(np.dot(a, b)) / (na * nb)

    spatial = np.zeros((n_time, n_rows, n_cols))
    temporal = np.zeros((n_time, n_rows, n_cols))
    for t in range(n_time):
        for i in range(n_rows):
            for j in range(n_cols):
                acc = np.zeros(emb.shape[-1])
                for di in range(-spatial_window, spatial_window + 1):
                    for dj in range(-spatial_window, spatial_window + 1):
                        ci = min(max(i + di, 0), n_rows - 1)
                        cj = min(max(j + dj, 0), n_cols - 1)
                        acc = acc + emb[t, ci, cj]
                mean = acc / (2 * spatial_window + 1) ** 2
                spatial[t, i, j] = 2.0 - 2.0 * cos_sim(emb[t, i, j], mean)

                acc = np.zeros(emb.shape[-1])
                for dt in range(-temporal_window, temporal_window + 1):
                    ct = min(max(t + dt, 0), n_time - 1)
                    acc = acc + emb[ct, i, j]
                mean = acc / (2 * temporal_window + 1)
                temporal[t, i, j] = 2.0 - 2.0 * cos_sim(emb[t, i, j], mean)
    return spatial, temporal


def patch_scores_clamped(embeddings, spatial_window, temporal_window):
    """The clamped-index patch scores, with the library's checks and zero-norm
    warning: each neighborhood sum adds fancy-indexed copies of the tensor in
    offset order (spatial rows, then columns; then time), then divides once.
    The library's sums, block by block of frames, must equal these bit for bit."""
    if spatial_window < 0 or temporal_window < 0:
        raise ValueError("window sizes must be nonnegative")
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 4 or min(x.shape) < 1:
        raise ValueError("embeddings must be a (time, rows, cols, dim) tensor")
    if not np.all(np.isfinite(x)):
        raise ValueError("embeddings must be finite")
    if np.any(np.linalg.norm(x, axis=-1) == 0.0):
        raise ValueError("all-zero embedding vectors make cosine similarity undefined")
    n_time, n_rows, n_cols, _ = x.shape

    def cosine_scores(neighborhood_mean):
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

    return cosine_scores(spatial_mean), cosine_scores(temporal_mean)


def top_p_mask_bruteforce(probs, top_p):
    """Nucleus of one probability vector: walk it in descending order until
    the running mass reaches ``top_p``, then keep every entry at or above
    the boundary entry (all of them if the mass never gets there)."""
    order = sorted(range(len(probs)), key=lambda k: -probs[k])
    acc, boundary = 0.0, None
    for k in order:
        acc += probs[k]
        if acc >= top_p:
            boundary = probs[k]
            break
    if boundary is None:
        boundary = probs[order[-1]]
    return np.array([p >= boundary for p in probs], dtype=bool)


def softmax_allocating(x, axis=-1):
    """The allocating softmax: every pass writes a new array."""
    e = np.exp(x - np.max(x, axis=axis, keepdims=True))
    e /= np.sum(e, axis=axis, keepdims=True)
    return e


def top_p_mask_allocating(probs, top_p):
    """The allocating nucleus mask: a sorted copy and a new cumulative sum."""
    if not 0.0 < top_p <= 1.0:
        raise ValueError(f"top_p must lie in (0, 1], got {top_p}")
    p = np.asarray(probs, dtype=np.float64)
    desc = np.sort(p, axis=-1)[..., ::-1]
    csum = np.cumsum(desc, axis=-1)
    k = np.minimum(np.sum(csum < top_p, axis=-1, keepdims=True), p.shape[-1] - 1)
    return p >= np.take_along_axis(desc, k, axis=-1)


def _checked_allocating(name, logits, shape):
    if logits is None:
        raise ValueError(f"guidance mode requires the {name!r} logit set")
    arr = np.asarray(logits, dtype=np.float64)
    if shape is not None and arr.shape != shape:
        raise ValueError(f"{name!r} logits shaped {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name!r} logits must be finite")
    return arr


def combine_allocating(mode, full, direction_only=None, visual_only=None, unconditional=None,
                       omega=2.5, omega2=0.0):
    """Guided logits as the formulas of ``guidance.combine`` read, each
    operation into a new array."""
    base = _checked_allocating("full", full, None)
    if mode == "none":
        return base.copy()
    uncond = _checked_allocating("unconditional", unconditional, base.shape)
    if mode == "directional":
        return base + omega * (_checked_allocating("direction_only", direction_only, base.shape) - uncond)
    if mode == "visual":
        return base + omega * (_checked_allocating("visual_only", visual_only, base.shape) - uncond)
    if mode == "joint":
        return base + omega * (base - uncond)
    return (
        base
        + omega * (_checked_allocating("direction_only", direction_only, base.shape) - uncond)
        + omega2 * (_checked_allocating("visual_only", visual_only, base.shape) - uncond)
    )


def sample_step_allocating(logits, temperature=1.0, top_p=1.0, rng=None, argmax=False):
    """``guidance.sample_step`` with a new array for every pass; the library's
    in-place sampler must draw the same codes from the same generator."""
    arr = np.asarray(logits, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("logits must be a (rows x vocabulary) matrix")
    if not np.all(np.isfinite(arr)):
        raise ValueError("logits must be finite")
    if argmax:
        return np.argmax(arr, axis=1)
    if temperature <= 0.0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    if not 0.0 < top_p <= 1.0:
        raise ValueError(f"top_p must lie in (0, 1], got {top_p}")
    if rng is None:
        raise ValueError("sampling requires a seeded numpy Generator")
    probs = softmax_allocating(arr / temperature, axis=1)
    probs *= top_p_mask_allocating(probs, top_p)
    cdf = np.cumsum(probs, axis=1)
    total = cdf[:, -1:]
    draws = rng.random((arr.shape[0], 1)) * total
    codes = np.sum(cdf <= draws, axis=1)
    return np.minimum(codes, np.argmax(cdf == total, axis=1))


def generate_allocating(predictor, n_codebooks_per_channel, n_frames, pattern, guidance,
                        temperature=1.0, top_p=1.0, seed=0, argmax=False):
    """``guidance.generate`` as a chain of allocating calls: per step, every
    predictor output is checked and its active rows copied out, then
    ``combine_allocating`` and ``sample_step_allocating`` run on new arrays.
    The library's buffered step must produce the same codes bit for bit."""
    pattern = Pattern(pattern)
    n = int(n_codebooks_per_channel)
    index, occupied = _schedule(pattern, n, int(n_frames))
    rng = np.random.default_rng(seed)
    buffer = np.empty(occupied.shape, dtype=np.int64)
    generated = buffer.view()
    generated.flags.writeable = False
    vocab_size = None
    for step, rows in enumerate(map(np.flatnonzero, occupied.T)):
        variant_logits = {}
        for variant in guidance.variants:
            logits = np.asarray(predictor(generated[:, :step], variant), dtype=np.float64)
            if logits.ndim != 2 or logits.shape[0] != 4 * n:
                raise ValueError(f"predictor returned shape {logits.shape}, expected ({4 * n}, V)")
            if vocab_size is None:
                vocab_size = logits.shape[1]
                buffer.fill(vocab_size)
            elif logits.shape[1] != vocab_size:
                raise ValueError("predictor changed vocabulary size between calls")
            variant_logits[variant] = _checked_allocating(variant, logits, None)[rows]
        combined = combine_allocating(guidance.mode, **variant_logits, omega=guidance.omega,
                                      omega2=guidance.omega2)
        buffer[rows, step] = sample_step_allocating(combined, temperature, top_p, rng=rng, argmax=argmax)
    return CodeMatrix(buffer[index], n, vocab_size)


def pack_bruteforce(matrix, pattern):
    """Scheduled codes of ``pack``, placed cell by cell with the per-group
    step rules of the ``code_pattern`` docstring (rows i, frames t and steps
    all 1-based); every slot no cell claims holds the vocabulary size."""
    n, length, pad = matrix.n_codebooks_per_channel, matrix.n_frames, matrix.vocab_size
    pattern = Pattern(pattern)
    if pattern is Pattern.PROPOSED:
        n_steps = 2 * length + 1
    elif pattern is Pattern.SEQUENTIAL_DELAY:
        n_steps = length + 4 * n - 1
    else:
        n_steps = 2 * length
    out = np.full((4 * n, n_steps), pad, dtype=np.int64)
    for i in range(1, 4 * n + 1):
        group = group_of(i, n)
        primary = group in (Group.W_PRIMARY, Group.S_PRIMARY)
        omni = group in (Group.W_PRIMARY, Group.W_RESIDUAL)
        for t in range(1, length + 1):
            if pattern is Pattern.PROPOSED:
                step = {Group.W_PRIMARY: 2 * t - 1, Group.S_RESIDUAL: 2 * t + 1}.get(group, 2 * t)
            elif pattern is Pattern.SEQUENTIAL_DELAY:
                step = t + i - 1
            elif pattern is Pattern.RESIDUAL_ONLY:
                step = 2 * t - 1 if primary else 2 * t
            else:
                step = 2 * t - 1 if omni else 2 * t
            assert out[i - 1, step - 1] == pad, "two cells scheduled into one slot"
            out[i - 1, step - 1] = matrix.codes[i - 1, t - 1]
    return out


def patch_energy_bruteforce(spatial, temporal, temperature, top_p):
    """Step-by-step softmax/average/top-p/renormalize, one frame at a time."""
    n_time = spatial.shape[0]
    out = np.zeros_like(spatial)
    for t in range(n_time):
        s = spatial[t].ravel() / temperature
        q = temporal[t].ravel() / temperature
        ps = np.exp(s - s.max())
        ps /= ps.sum()
        pt = np.exp(q - q.max())
        pt /= pt.sum()
        avg = (ps + pt) / 2.0
        kept = np.where(top_p_mask_bruteforce(avg, top_p), avg, 0.0)
        out[t] = (kept / kept.sum()).reshape(spatial.shape[1:])
    return out


def gaussian_stats_bruteforce(features):
    """Two-pass direct-summation mean and unbiased covariance."""
    n, d = features.shape
    mean = np.zeros(d)
    for row in features:
        mean += row
    mean /= n
    cov = np.zeros((d, d))
    for row in features:
        diff = row - mean
        cov += np.outer(diff, diff)
    return mean, cov / (n - 1)


def kld_bruteforce(gen, gt, epsilon):
    q = [max(v, epsilon) for v in gen]
    p = [max(v, epsilon) for v in gt]
    qs, ps = sum(q), sum(p)
    return sum((pi / ps) * math.log((pi / ps) / (qi / qs)) for pi, qi in zip(p, q))
