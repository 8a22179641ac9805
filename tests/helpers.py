"""Shared fixtures and independent brute-force oracles for the test suite.

The oracles deliberately re-derive every quantity with plain loops and
definitional formulas so they stay independent of the library's vectorized
implementations.
"""

import math

import numpy as np

from foatools import Direction, FoaClip, Rotation, encode_mono


def random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, [0, 1]] = q[:, [1, 0]]
    return Rotation(q)


def random_direction(rng):
    # Uniform over the sphere: uniform azimuth, sin(elevation) uniform.
    return Direction(rng.uniform(0.0, 2.0 * np.pi), math.asin(rng.uniform(-1.0, 1.0)))


def random_clip(rng, n_samples=512, sample_rate=44100):
    return FoaClip(rng.normal(size=(4, n_samples)), sample_rate)


def encoded_noise(rng, direction, n_samples=2205, sample_rate=44100):
    return encode_mono(rng.normal(size=n_samples), direction, sample_rate)


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
        c = float(np.dot(grid.unit_vectors[i], u))
        if c > best_cos:
            best, best_cos = i, c
    return best


def energy_map_bruteforce(clip, grid, window=None, mode="power"):
    """Per-cell energies by decoding at every cell, one cell at a time."""
    start, end = window if window is not None else (0, clip.n_samples)
    values = np.empty(grid.n_cells)
    w, x, y, z = clip.samples
    for i in range(grid.n_cells):
        ux, uy, uz = grid.unit_vectors[i]
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
    reference gives no fixation split. Returns the ``SpatialReport.to_dict``
    layout.
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


def patch_scores_bruteforce(emb, spatial_window, temporal_window):
    """Nested-loop spatial/temporal distinctiveness scores."""
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
        order = sorted(range(avg.size), key=lambda k: -avg[k])
        acc, boundary = 0.0, None
        for k in order:
            acc += avg[k]
            if acc >= top_p:
                boundary = avg[k]
                break
        if boundary is None:
            boundary = avg[order[-1]]
        kept = np.where(avg >= boundary, avg, 0.0)
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
