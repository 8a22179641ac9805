"""Bit-exact file formats shared by every module.

Tensor file
    One JSON header line, then the raw payload:

        {"dtype":"f32","shape":[4,7,7,16]}\\n<payload>

    dtype is "f32" (IEEE 754 binary32) or "u16" (unsigned 16-bit); the
    payload is row-major little-endian and must hold exactly
    product(shape) values.

Code matrix file
    17-byte header ``<4sIIIB``: magic b"ACM1", N (codebooks per channel),
    L (frames), V (vocabulary size), pattern id (0 = raw matrix,
    1 proposed, 2 sequential_delay, 3 residual_only, 4 spatial_only),
    then row-major little-endian u16 codes. Padding slots store V itself,
    so V must stay below 65536.

WAV
    Canonical RIFF/WAVE with a single data chunk, channels interleaved
    frame-major. 16-bit PCM (format 1, scaled by 32767) and 32-bit float
    (format 3) are supported, also as WAVE_FORMAT_EXTENSIBLE (0xFFFE) with
    a PCM or IEEE-float subformat GUID; ambisonic files carry 4 channels in
    W, X, Y, Z order.

Energy map exports
    PGM (P5, one row per elevation band from the top of the sphere, short
    bands zero-padded to the widest band) and CSV with columns
    azimuth, elevation, weight, value.

All writers are deterministic (identical inputs give byte-identical files)
and atomic: output lands in a temp file that is renamed into place, so a
failure never leaves a partial file.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from contextlib import contextmanager

import numpy as np

from .code_pattern import CodeMatrix, Pattern, ReorgMatrix, pattern_steps
from .errors import (
    HeaderParseError,
    PayloadSizeError,
    UnknownDtypeError,
    WavFormatError,
)
from .foa import EnergyMap, FoaClip

_TENSOR_DTYPES = {"f32": ("<f4", 4), "u16": ("<u2", 2)}

CODE_MAGIC = b"ACM1"
_CODE_HEADER = struct.Struct("<4sIIIB")

_PATTERN_IDS = {
    None: 0,
    Pattern.PROPOSED: 1,
    Pattern.SEQUENTIAL_DELAY: 2,
    Pattern.RESIDUAL_ONLY: 3,
    Pattern.SPATIAL_ONLY: 4,
}
_PATTERNS_BY_ID = {v: k for k, v in _PATTERN_IDS.items()}

WAV_ENCODINGS = ("float32", "pcm16")
_PCM_SCALE = 32767.0
_WAVE_EXTENSIBLE = 0xFFFE
# The PCM and IEEE-float subformat GUIDs of WAVE_FORMAT_EXTENSIBLE, as stored.
_SUBFORMATS = {struct.pack("<IHH", t, 0, 0x10) + bytes.fromhex("800000aa00389b71"): t for t in (1, 3)}


@contextmanager
def atomic_write(path):
    """Open a temp file beside ``path`` and rename it into place on success."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------------------
# Tensor files


def write_tensor(tensor, path) -> None:
    arr = np.asarray(tensor)
    if arr.ndim < 1 or min(arr.shape) < 1:
        raise ValueError("tensors must have at least one element along every axis")
    if np.issubdtype(arr.dtype, np.floating):
        name = "f32"
    elif np.issubdtype(arr.dtype, np.integer):
        if arr.min() < 0 or arr.max() > 0xFFFF:
            raise ValueError("integer tensors must fit in u16")
        name = "u16"
    else:
        raise ValueError(f"unsupported tensor dtype {arr.dtype}")
    header = json.dumps(
        {"dtype": name, "shape": [int(s) for s in arr.shape]},
        sort_keys=True,
        separators=(",", ":"),
    )
    payload = np.ascontiguousarray(arr).astype(_TENSOR_DTYPES[name][0]).tobytes()
    with atomic_write(path) as handle:
        handle.write(header.encode("ascii") + b"\n")
        handle.write(payload)


def read_tensor(path) -> np.ndarray:
    blob = _read_bytes(path)
    newline = blob.find(b"\n")
    if newline < 0:
        raise HeaderParseError(f"{path}: no header line found")
    try:
        header = json.loads(blob[:newline].decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise HeaderParseError(f"{path}: bad header: {exc}") from exc
    if not isinstance(header, dict) or set(header) != {"dtype", "shape"}:
        raise HeaderParseError(f"{path}: header must carry exactly dtype and shape")
    name = header["dtype"]
    if name not in _TENSOR_DTYPES:
        raise UnknownDtypeError(f"{path}: unknown dtype {name!r}")
    shape = header["shape"]
    if (
        not isinstance(shape, list)
        or not shape
        or not all(isinstance(s, int) and s >= 1 for s in shape)
    ):
        raise HeaderParseError(f"{path}: shape must be a list of positive integers")
    dtype, item_size = _TENSOR_DTYPES[name]
    expected = item_size * math.prod(shape)
    payload = blob[newline + 1 :]
    if len(payload) != expected:
        raise PayloadSizeError(
            f"{path}: payload holds {len(payload)} bytes from offset {newline + 1}, "
            f"expected {expected} for {name} shape {shape}"
        )
    return np.frombuffer(payload, dtype=dtype).reshape(shape).astype(
        np.float32 if name == "f32" else np.uint16
    )


# ---------------------------------------------------------------------------
# Code matrix files


def write_code_matrix(matrix, path) -> None:
    """Serialize a CodeMatrix (pattern id 0) or ReorgMatrix."""
    if isinstance(matrix, CodeMatrix):
        pattern_id = _PATTERN_IDS[None]
        n, frames, vocab = matrix.n_codebooks_per_channel, matrix.n_frames, matrix.vocab_size
    elif isinstance(matrix, ReorgMatrix):
        pattern_id = _PATTERN_IDS[matrix.pattern]
        n, frames, vocab = matrix.n_codebooks_per_channel, matrix.n_frames, matrix.vocab_size
    else:
        raise TypeError(f"expected CodeMatrix or ReorgMatrix, got {type(matrix)!r}")
    if vocab > 0xFFFF:
        raise ValueError("vocabulary size must fit the u16 payload (padding stores V)")
    header = _CODE_HEADER.pack(CODE_MAGIC, n, frames, vocab, pattern_id)
    payload = matrix.codes.astype("<u2").tobytes()
    with atomic_write(path) as handle:
        handle.write(header)
        handle.write(payload)


def read_code_matrix(path):
    """Read a code file; returns CodeMatrix or ReorgMatrix per its pattern id."""
    blob = _read_bytes(path)
    if len(blob) < _CODE_HEADER.size:
        raise HeaderParseError(
            f"{path}: {len(blob)} bytes cannot hold the {_CODE_HEADER.size}-byte header"
        )
    magic, n, frames, vocab, pattern_id = _CODE_HEADER.unpack_from(blob)
    if magic != CODE_MAGIC:
        raise HeaderParseError(f"{path}: bad magic {magic!r} at byte 0")
    if pattern_id not in _PATTERNS_BY_ID:
        raise HeaderParseError(f"{path}: unknown pattern id {pattern_id}")
    if n < 1 or frames < 1 or vocab < 1:
        raise HeaderParseError(f"{path}: degenerate header (N={n}, L={frames}, V={vocab})")
    pattern = _PATTERNS_BY_ID[pattern_id]
    columns = frames if pattern is None else pattern_steps(pattern, n, frames)
    expected = 4 * n * columns * 2
    payload = blob[_CODE_HEADER.size :]
    if len(payload) != expected:
        raise PayloadSizeError(
            f"{path}: payload holds {len(payload)} bytes from offset {_CODE_HEADER.size}, "
            f"expected {expected} for {4 * n}x{columns} u16 codes"
        )
    codes = np.frombuffer(payload, dtype="<u2").reshape(4 * n, columns).astype(np.int64)
    if pattern is None:
        return CodeMatrix(codes, n, vocab)
    return ReorgMatrix(codes, pattern, n, vocab)


# ---------------------------------------------------------------------------
# WAV


def write_wav(samples, sample_rate: int, path, encoding: str = "float32") -> None:
    """Write interleaved multichannel audio as RIFF/WAVE."""
    if encoding not in WAV_ENCODINGS:
        raise ValueError(f"encoding must be one of {WAV_ENCODINGS}, got {encoding!r}")
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] < 1:
        raise ValueError("samples must be (channels, frames) with at least one frame")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")
    channels, frames = x.shape
    interleaved = np.ascontiguousarray(x.T)
    if encoding == "pcm16":
        fmt_tag, bits = 1, 16
        data = np.clip(np.rint(interleaved * _PCM_SCALE), -32768, 32767).astype("<i2")
    else:
        fmt_tag, bits = 3, 32
        data = interleaved.astype("<f4")
    payload = data.tobytes()
    block_align = channels * bits // 8
    fmt_body = struct.pack(
        "<HHIIHH", fmt_tag, channels, int(sample_rate), int(sample_rate) * block_align,
        block_align, bits,
    )
    chunks = []
    if fmt_tag == 3:
        # IEEE-float WAVE wants the extension-size field and a fact chunk.
        fmt_body += struct.pack("<H", 0)
        chunks.append((b"fmt ", fmt_body))
        chunks.append((b"fact", struct.pack("<I", frames)))
    else:
        chunks.append((b"fmt ", fmt_body))
    chunks.append((b"data", payload))
    riff_size = 4 + sum(8 + len(body) + (len(body) & 1) for _, body in chunks)
    with atomic_write(path) as handle:
        handle.write(struct.pack("<4sI4s", b"RIFF", riff_size, b"WAVE"))
        for cid, body in chunks:
            handle.write(struct.pack("<4sI", cid, len(body)))
            handle.write(body)
            if len(body) & 1:
                handle.write(b"\x00")


def read_wav(path):
    """Read a RIFF/WAVE file; returns (samples (channels, frames), sample_rate)."""
    blob = _read_bytes(path)
    if len(blob) < 12 or blob[0:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: not a RIFF/WAVE file (bytes 0..11)")
    fmt = None
    data = None
    offset = 12
    while offset + 8 <= len(blob):
        cid, size = struct.unpack_from("<4sI", blob, offset)
        body_start = offset + 8
        if body_start + size > len(blob):
            raise WavFormatError(
                f"{path}: chunk {cid!r} at byte {offset} claims {size} bytes "
                f"but only {len(blob) - body_start} remain"
            )
        if cid == b"fmt ":
            if size < 16:
                raise WavFormatError(f"{path}: fmt chunk at byte {offset} too short")
            fmt = struct.unpack_from("<HHIIHH", blob, body_start)
            if fmt[0] == _WAVE_EXTENSIBLE:
                tag = _SUBFORMATS.get(blob[body_start + 24 : body_start + min(size, 40)])
                if tag is None:
                    raise WavFormatError(
                        f"{path}: WAVE_FORMAT_EXTENSIBLE fmt chunk at byte {offset} has an "
                        "unsupported subformat (need PCM or IEEE float)"
                    )
                fmt = (tag,) + fmt[1:]
        elif cid == b"data" and data is None:
            data = (body_start, size)
        offset = body_start + size + (size & 1)
    if fmt is None:
        raise WavFormatError(f"{path}: missing fmt chunk")
    if data is None:
        raise WavFormatError(f"{path}: missing data chunk")
    fmt_tag, channels, sample_rate, _, block_align, bits = fmt
    if channels < 1:
        raise WavFormatError(f"{path}: channel count {channels} invalid")
    if (fmt_tag, bits) == (1, 16):
        dtype, scale = "<i2", _PCM_SCALE
    elif (fmt_tag, bits) == (3, 32):
        dtype, scale = "<f4", 1.0
    else:
        raise WavFormatError(
            f"{path}: unsupported format tag {fmt_tag} with {bits} bits "
            "(need 16-bit PCM or 32-bit float)"
        )
    start, size = data
    if block_align != channels * bits // 8:
        raise WavFormatError(f"{path}: block align {block_align} inconsistent with format")
    if size % block_align:
        raise WavFormatError(
            f"{path}: data chunk at byte {start - 8} holds {size} bytes, "
            f"not a multiple of the {block_align}-byte frame"
        )
    frames = size // block_align
    if frames < 1:
        raise WavFormatError(f"{path}: data chunk holds no frames")
    raw = np.frombuffer(blob, dtype=dtype, count=frames * channels, offset=start)
    samples = raw.reshape(frames, channels).T.astype(np.float64)
    if scale != 1.0:
        samples /= scale
    return samples, int(sample_rate)


def read_foa_wav(path) -> FoaClip:
    """Read a 4-channel W, X, Y, Z WAV file as a clip."""
    samples, sample_rate = read_wav(path)
    if samples.shape[0] != 4:
        raise WavFormatError(
            f"{path}: ambisonic audio needs 4 channels, found {samples.shape[0]}"
        )
    return FoaClip(samples, sample_rate)


def write_foa_wav(clip: FoaClip, path, encoding: str = "float32") -> None:
    write_wav(clip.samples, clip.sample_rate, path, encoding)


# ---------------------------------------------------------------------------
# Energy map exports


def _scale_to_bytes(values: np.ndarray) -> np.ndarray:
    low = min(0.0, float(values.min()))
    span = float(values.max()) - low
    if span <= 0.0:
        return np.zeros(values.shape, dtype=np.uint8)
    return np.clip(np.rint((values - low) / span * 255.0), 0, 255).astype(np.uint8)


def write_pgm(image, path) -> None:
    """Write a 2-D array as binary PGM (P5), values scaled to 0..255."""
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim != 2 or min(arr.shape) < 1:
        raise ValueError("PGM export needs a nonempty 2-D array")
    body = _scale_to_bytes(arr)
    with atomic_write(path) as handle:
        handle.write(f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii"))
        handle.write(body.tobytes())


def write_energy_map_pgm(emap: EnergyMap, path) -> None:
    """One PGM row per elevation band, top row = highest band, zero padded."""
    grid = emap.grid
    width = max(grid.samples_per_band)
    image = np.zeros((grid.n_elevation_bands, width))
    for band in range(grid.n_elevation_bands):
        row = grid.n_elevation_bands - 1 - band
        cells = grid.band_index == band
        image[row, : int(cells.sum())] = emap.values[cells]
    write_pgm(image, path)


def write_energy_map_csv(emap: EnergyMap, path) -> None:
    grid = emap.grid
    lines = ["azimuth,elevation,weight,value"]
    for i in range(grid.n_cells):
        lines.append(
            f"{grid.azimuths[i]:.17g},{grid.elevations[i]:.17g},"
            f"{grid.weights[i]:.17g},{emap.values[i]:.17g}"
        )
    with atomic_write(path) as handle:
        handle.write(("\n".join(lines) + "\n").encode("ascii"))


def _read_bytes(path) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()
