"""Seeded inputs for the benchmark workloads, with the results they must give.

    python3 perfbench/gen.py --workload spatial_eval --seed 7 --out DIR

writes the workload's input files into DIR and a DIR/inputs.json that
lists them together with the expected outputs. The same seed gives the same
files. foatools only ever sees the input files; the expectations come from
what was planted in them (silent seconds, source directions, outlier
patches) and from the reference code in ``oracle.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil

import numpy as np

import oracle
from oracle import SAMPLE_RATE

WORKLOADS = ("spatial_eval", "generate_guided", "corpus_prep", "patch_energy")

GRID = (32, 64)

# spatial_eval: four 60 s pairs; pair 0 is a clip against a copy of itself,
# pair 1's generated clip starts with 3 s of digital silence.
PAIR_SECONDS = 60
N_PAIRS = 4
SILENT_LEAD_SECONDS = 3

# generate_guided: a raw N=9, L=430, V=1024 code matrix.
N_CODEBOOKS, N_FRAMES, VOCAB = 9, 430, 1024

# corpus_prep: clip lengths are fixed so every seed does the same amount of
# work; one has a trailing half second, which the per-second filters drop.
ROTATE_SECONDS = 60
CURATE_SECONDS = (5, 12.5, 20, 28, 36, 44, 52, 60)
ZEROED_CLIP = 2  # this clip's quiet seconds are digital zero, so its amplitude gate fails
RMS_THRESHOLD = 0.01
LOUD, QUIET = 0.1, 0.001  # source std; W RMS is std / sqrt(2), far either side of the threshold
PROBE_SHORT_SECONDS = 0.5
PROBE_EXTENSIBLE_SECONDS = 10

# patch_energy: 16 frames of 14x14 patches with 768-d embeddings.
PATCH_SHAPE = (16, 14, 14, 768)


def _moving_sources(rng, seconds, params=None):
    """Two noise sources on smooth trajectories plus weak diffuse noise.

    Returns (float32 samples (4, n), params); passing ``params`` back renders
    the same trajectories with fresh noise and a small azimuth offset.
    """
    if params is None:
        params = [
            {
                "az0": rng.uniform(0, 2 * math.pi),
                "az_rate": rng.choice([-1, 1]) * rng.uniform(0.2, 1.0),
                "el0": rng.uniform(-0.6, 0.6),
                "el_amp": rng.uniform(0.0, 0.4),
                "el_hz": rng.uniform(0.05, 0.3),
                "phase": rng.uniform(0, 2 * math.pi),
                "level": rng.uniform(0.05, 0.2),
            }
            for _ in range(2)
        ]
    else:
        params = [dict(p, az0=p["az0"] + rng.normal(0.0, 0.3)) for p in params]
    n = int(seconds * SAMPLE_RATE)
    t = np.arange(n, dtype=np.float32) / np.float32(SAMPLE_RATE)
    out = rng.standard_normal((4, n), dtype=np.float32)
    out *= np.float32(0.005)
    for p in params:
        az = np.float32(p["az0"]) + np.float32(p["az_rate"]) * t
        el = np.float32(p["el0"]) + np.float32(p["el_amp"]) * np.sin(
            np.float32(2 * math.pi * p["el_hz"]) * t + np.float32(p["phase"])
        )
        s = rng.standard_normal(n, dtype=np.float32) * np.float32(p["level"])
        ce = np.cos(el)
        out[0] += s * np.float32(1 / math.sqrt(2))
        out[1] += s * np.cos(az) * ce
        out[2] += s * np.sin(az) * ce
        out[3] += s * np.sin(el)
    return out, params


def _fixed_source(rng, seconds, azimuth, elevation, gains):
    """One noise source at a fixed direction, scaled per whole second by ``gains``."""
    n = int(round(seconds * SAMPLE_RATE))
    s = rng.standard_normal(n) * LOUD
    for second, gain in enumerate(gains):
        s[second * SAMPLE_RATE : (second + 1) * SAMPLE_RATE] *= gain
    u = oracle.unit_vector(azimuth, elevation)
    return np.vstack([s / math.sqrt(2), u[0] * s, u[1] * s, u[2] * s]).astype(np.float32)


def _spatial_eval(rng, out) -> dict:
    grid = oracle.Grid(*GRID)
    pairs = []
    for k in range(N_PAIRS):
        gen_path = os.path.join(out, f"pair{k}_gen.wav")
        gt_path = os.path.join(out, f"pair{k}_gt.wav")
        gt, params = _moving_sources(rng, PAIR_SECONDS)
        if k == 0:
            gen = gt
        else:
            gen, _ = _moving_sources(rng, PAIR_SECONDS, params)
            if k == 1:
                gen[:, : SILENT_LEAD_SECONDS * SAMPLE_RATE] = 0.0
        gt_map = grid.power_map(gt)
        gen_map = gt_map if k == 0 else grid.power_map(gen)
        oracle.write_wav_f32(gt, gt_path)
        if k == 0:
            shutil.copyfile(gt_path, gen_path)
        else:
            oracle.write_wav_f32(gen, gen_path)
        lead = SILENT_LEAD_SECONDS if k == 1 else 0
        pairs.append(
            {
                "gen": gen_path,
                "gt": gt_path,
                "self_pair": k == 0,
                "cc_all": oracle.weighted_cc(gen_map, gt_map, grid.weights),
                "auc_all": oracle.weighted_auc(gen_map, gt_map, grid.weights),
                "windows_used": {"all": 1, "1fps": PAIR_SECONDS - lead, "5fps": 5 * (PAIR_SECONDS - lead)},
                "windows_skipped": {"all": 0, "1fps": lead, "5fps": 5 * lead},
            }
        )
    manifest = os.path.join(out, "pairs.ndjson")
    with open(manifest, "w", encoding="utf-8") as handle:
        for pair in pairs:
            handle.write(json.dumps({"gen": pair["gen"], "gt": pair["gt"]}) + "\n")
    return {"manifest": manifest, "pairs": pairs}


def _generate_guided(rng, out) -> dict:
    codes = rng.integers(0, VOCAB, size=(4 * N_CODEBOOKS, N_FRAMES))
    table = os.path.join(out, "table.cmx")
    oracle.write_code_matrix(codes, N_CODEBOOKS, VOCAB, table)
    return {"table": table}


def _source_direction(rng, grid):
    """A direction well inside one grid cell, away from the poles.

    Offsets stay under a fifth of the cell spacing, so the nearest cell is
    never in doubt and the energy-map argmax must land on it.
    """
    cell = int(rng.choice(np.flatnonzero((grid.band_of >= 6) & (grid.band_of < grid.bands - 6))))
    count = int(np.sum(grid.band_of == grid.band_of[cell]))
    azimuth = grid.az[cell] + rng.uniform(-0.2, 0.2) * 2 * math.pi / count
    elevation = grid.el[cell] + rng.uniform(-0.2, 0.2) * math.pi / grid.bands
    return azimuth, elevation


def _curated_clip(rng, grid, path, seconds, zeroed=False, extensible=False) -> dict:
    """Write a fixed-source clip with planted quiet seconds; return its expected row."""
    azimuth, elevation = _source_direction(rng, grid)
    whole = int(seconds)
    quiet = rng.choice(whole, size=whole // 6 + 1, replace=False) if whole else []
    gains = np.ones(whole)
    gains[quiet] = 0.0 if zeroed else QUIET / LOUD
    oracle.write_wav_f32(_fixed_source(rng, seconds, azimuth, elevation, gains), path, extensible)
    valid = gains == 1.0
    windows = [
        [start, start + 5]
        for start in range(0, whole - 4, 5)
        if int(valid[start : start + 5].sum()) >= 4
    ]
    cell = grid.nearest(azimuth, elevation)
    return {
        "path": path,
        "seconds": seconds,
        # The gate is undefined on a clip with no whole second, so it is not checked there.
        "amplitude_ok": (not zeroed) if whole else None,
        "valid_seconds": int(valid.sum()),
        "windows": windows,
        "fov_center": {"azimuth": float(grid.az[cell]), "elevation": float(grid.el[cell])},
    }


def _corpus_prep(rng, out) -> dict:
    grid = oracle.Grid(*GRID)
    rotate_in = os.path.join(out, "rotate_in.wav")
    oracle.write_wav_f32(_moving_sources(rng, ROTATE_SECONDS)[0], rotate_in)

    clips = [
        _curated_clip(rng, grid, os.path.join(out, f"clip{k}.wav"), seconds, zeroed=k == ZEROED_CLIP)
        for k, seconds in enumerate(CURATE_SECONDS)
    ]
    while True:
        scores = rng.uniform(0.0, 1.0, len(clips))
        cutoff = scores.mean() - scores.std()
        if np.min(np.abs(scores - cutoff)) > 1e-3:
            break
    for clip, score in zip(clips, scores):
        clip["score"] = float(score)
        clip["score_keep"] = bool(score >= cutoff)
        clip["keep"] = clip["amplitude_ok"] and bool(clip["windows"]) and clip["score_keep"]
    manifest = os.path.join(out, "clips.ndjson")
    with open(manifest, "w", encoding="utf-8") as handle:
        for clip in clips:
            handle.write(json.dumps({"path": clip["path"], "score": clip["score"]}) + "\n")

    # Real-corpus records that today's foatools rejects: a clip shorter than
    # one second and a WAVE_FORMAT_EXTENSIBLE float file.
    probes = []
    for name, seconds, extensible in (
        ("probe_short", PROBE_SHORT_SECONDS, False),
        ("probe_extensible", PROBE_EXTENSIBLE_SECONDS, True),
    ):
        probe = _curated_clip(rng, grid, os.path.join(out, f"{name}.wav"), seconds, extensible=extensible)
        probe["manifest"] = os.path.join(out, f"{name}.ndjson")
        with open(probe["manifest"], "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"path": probe["path"]}) + "\n")
        probes.append(probe)

    return {
        "rotate_in": rotate_in,
        "rotate_degrees": 33.5,
        "manifest": manifest,
        "clips": clips,
        "probes": probes,
        "rms_threshold": RMS_THRESHOLD,
    }


def _patch_energy(rng, out) -> dict:
    n_frames, rows, cols, dim = PATCH_SHAPE
    base = rng.standard_normal(dim) / math.sqrt(dim)
    x = base + 0.1 * rng.standard_normal(PATCH_SHAPE) / math.sqrt(dim)
    # One outlier patch per frame, in the interior and never where the
    # previous frame's outlier was.
    outliers = []
    for frame in range(n_frames):
        while True:
            cell = (int(rng.integers(1, rows - 1)), int(rng.integers(1, cols - 1)))
            if not outliers or cell != tuple(outliers[-1]):
                break
        x[frame, cell[0], cell[1]] = rng.standard_normal(dim) / math.sqrt(dim)
        outliers.append(list(cell))
    path = os.path.join(out, "embeddings.tensor")
    oracle.write_tensor_f32(x, path)
    return {"embeddings": path, "outliers": outliers}


_BUILDERS = {
    "spatial_eval": _spatial_eval,
    "generate_guided": _generate_guided,
    "corpus_prep": _corpus_prep,
    "patch_energy": _patch_energy,
}


def generate(workload: str, seed: int, out: str) -> dict:
    """Write one workload's inputs for ``seed`` into ``out``; return inputs.json."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    inputs = {"workload": workload, "seed": seed, "grid": "%dx%d" % GRID}
    inputs.update(_BUILDERS[workload](rng, out))
    with open(os.path.join(out, "inputs.json"), "w", encoding="utf-8") as handle:
        json.dump(inputs, handle, indent=1)
    return inputs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="existing directory for the inputs")
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
