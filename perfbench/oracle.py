"""Reference code the benchmark checks foatools against.

Everything here is written from the file-format and metric definitions in
the foatools README, without importing foatools, so that a defect in the
code under test cannot hide itself in the benchmark's own checks.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

SAMPLE_RATE = 44100

_WAVE_FLOAT = 3
_WAVE_EXTENSIBLE = 0xFFFE
# KSDATAFORMAT_SUBTYPE_IEEE_FLOAT, as its little-endian GUID bytes.
_IEEE_FLOAT_GUID = struct.pack("<IHH", 3, 0x0000, 0x0010) + bytes.fromhex("800000aa00389b71")

CODE_MAGIC = b"ACM1"
_CODE_HEADER = struct.Struct("<4sIIIB")


# ---------------------------------------------------------------------------
# Files


def _write_atomic(path, blobs) -> None:
    tmp = f"{path}.part"
    with open(tmp, "wb") as handle:
        for blob in blobs:
            handle.write(blob)
    os.replace(tmp, path)


def write_wav_f32(samples: np.ndarray, path, extensible: bool = False) -> None:
    """Write (channels, frames) audio as 32-bit float WAVE.

    ``extensible`` writes the WAVE_FORMAT_EXTENSIBLE header (tag 0xFFFE with
    an IEEE-float subformat GUID) that many audio tools use for 4 channels.
    """
    channels, frames = samples.shape
    block = 4 * channels
    tag = _WAVE_EXTENSIBLE if extensible else _WAVE_FLOAT
    fmt = struct.pack("<HHIIHH", tag, channels, SAMPLE_RATE, SAMPLE_RATE * block, block, 32)
    if extensible:
        fmt += struct.pack("<HHI", 22, 32, 0) + _IEEE_FLOAT_GUID
    else:
        fmt += struct.pack("<H", 0)
    payload = np.ascontiguousarray(samples.T, dtype="<f4").tobytes()
    chunks = [(b"fmt ", fmt), (b"fact", struct.pack("<I", frames)), (b"data", payload)]
    body = b"".join(struct.pack("<4sI", cid, len(data)) + data for cid, data in chunks)
    _write_atomic(path, [struct.pack("<4sI4s", b"RIFF", 4 + len(body), b"WAVE"), body])


def read_wav_f32(path):
    """Read a 32-bit float WAVE; returns (samples (channels, frames) float32, rate)."""
    with open(path, "rb") as handle:
        blob = handle.read()
    if blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise ValueError(f"{path}: not RIFF/WAVE")
    fmt = data = None
    offset = 12
    while offset + 8 <= len(blob):
        cid, size = struct.unpack_from("<4sI", blob, offset)
        if cid == b"fmt ":
            fmt = struct.unpack_from("<HHIIHH", blob, offset + 8)
        elif cid == b"data":
            data = (offset + 8, size)
        offset += 8 + size + (size & 1)
    if fmt is None or data is None:
        raise ValueError(f"{path}: missing fmt or data chunk")
    tag, channels, rate, _, _, bits = fmt
    if tag not in (_WAVE_FLOAT, _WAVE_EXTENSIBLE) or bits != 32:
        raise ValueError(f"{path}: expected 32-bit float samples, got tag {tag}, {bits} bits")
    start, size = data
    frames = size // (4 * channels)
    raw = np.frombuffer(blob, dtype="<f4", count=frames * channels, offset=start)
    return raw.reshape(frames, channels).T, rate


def write_code_matrix(codes: np.ndarray, n_codebooks: int, vocab: int, path) -> None:
    """Write a raw (pattern id 0) code matrix file."""
    header = _CODE_HEADER.pack(CODE_MAGIC, n_codebooks, codes.shape[1], vocab, 0)
    _write_atomic(path, [header, codes.astype("<u2").tobytes()])


def read_code_matrix(path):
    """Returns (codes int64 (rows, columns), N, L, V, pattern id)."""
    with open(path, "rb") as handle:
        blob = handle.read()
    magic, n, frames, vocab, pattern_id = _CODE_HEADER.unpack_from(blob)
    if magic != CODE_MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    payload = np.frombuffer(blob, dtype="<u2", offset=_CODE_HEADER.size)
    return payload.reshape(4 * n, -1).astype(np.int64), n, frames, vocab, pattern_id


def write_tensor_f32(tensor: np.ndarray, path) -> None:
    header = json.dumps({"dtype": "f32", "shape": list(tensor.shape)}, separators=(",", ":"))
    _write_atomic(path, [header.encode("ascii") + b"\n", tensor.astype("<f4").tobytes()])


def read_tensor_f32(path) -> np.ndarray:
    with open(path, "rb") as handle:
        blob = handle.read()
    newline = blob.index(b"\n")
    header = json.loads(blob[:newline])
    if header.get("dtype") != "f32":
        raise ValueError(f"{path}: expected an f32 tensor, got {header!r}")
    return np.frombuffer(blob, dtype="<f4", offset=newline + 1).reshape(header["shape"])


# ---------------------------------------------------------------------------
# Sphere grid and metrics


class Grid:
    """Cell centres and area weights of the equirectangular sphere grid.

    A band centred at elevation e holds max(1, round(max_az * cos(e)))
    cells; each cell weighs its band's solid-angle fraction split evenly.
    Cells run band-major from the south pole, azimuth ascending from 0.
    """

    def __init__(self, bands: int = 32, max_az: int = 64):
        self.bands = bands
        az, el, weight, band_of = [], [], [], []
        for b in range(bands):
            low = -math.pi / 2 + math.pi * b / bands
            high = -math.pi / 2 + math.pi * (b + 1) / bands
            centre = (low + high) / 2
            count = max(1, int(round(max_az * math.cos(centre))))
            for j in range(count):
                az.append(2 * math.pi * j / count)
                el.append(centre)
                weight.append((math.sin(high) - math.sin(low)) / (2 * count))
                band_of.append(b)
        self.az = np.array(az)
        self.el = np.array(el)
        self.weights = np.array(weight)
        self.band_of = np.array(band_of)
        self.units = unit_vector(self.az, self.el).T

    def nearest(self, azimuth: float, elevation: float) -> int:
        return int(np.argmax(self.units @ unit_vector(azimuth, elevation)))

    def power_map(self, samples: np.ndarray) -> np.ndarray:
        """Mean squared cardioid decode of (4, frames) audio at every cell."""
        x = samples.astype(np.float64)
        moments = x @ x.T / x.shape[1]
        basis = np.hstack([np.ones((self.units.shape[0], 1)), self.units])
        return np.maximum(np.sum((basis @ moments) * basis, axis=1), 0.0)


def unit_vector(azimuth, elevation) -> np.ndarray:
    ce = np.cos(elevation)
    return np.array([np.cos(azimuth) * ce, np.sin(azimuth) * ce, np.sin(elevation)])


def weighted_cc(gen: np.ndarray, gt: np.ndarray, w: np.ndarray) -> float:
    dx = gen - w @ gen
    dy = gt - w @ gt
    return float((w @ (dx * dy)) / math.sqrt((w @ (dx * dx)) * (w @ (dy * dy))))


def weighted_auc(gen: np.ndarray, gt: np.ndarray, w: np.ndarray, percentile: float = 95.0) -> float:
    """Area-weighted ROC AUC by brute force over every (positive, negative) pair.

    Positives are the cells whose reference value reaches the smallest
    value at which the weighted CDF of the reference map reaches the
    percentile; score ties count one half.
    """
    order = np.argsort(gt, kind="stable")
    cdf = np.cumsum(w[order])
    cdf /= cdf[-1]
    threshold = gt[order[int(np.searchsorted(cdf, percentile / 100.0))]]
    pos = gt >= threshold
    wins = (gen[pos][:, None] > gen[~pos][None, :]) + 0.5 * (gen[pos][:, None] == gen[~pos][None, :])
    pair_w = w[pos][:, None] * w[~pos][None, :]
    return float(np.sum(wins * pair_w) / (w[pos].sum() * w[~pos].sum()))
