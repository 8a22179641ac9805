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
    frame-major. 16-bit PCM (format 1, scaled by 32767), 24-bit PCM (read
    only, scaled by 8388607) and 32-bit float (format 3) are supported, also
    as WAVE_FORMAT_EXTENSIBLE (0xFFFE) with a PCM or IEEE-float subformat
    GUID; ambisonic files carry 4 channels in W, X, Y, Z order. Readers skip
    other chunks and use the first data chunk.

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
from collections import namedtuple
from contextlib import contextmanager, suppress

import numpy as np

from .code_pattern import CodeMatrix, Pattern, ReorgMatrix, pattern_steps
from .errors import (
    HeaderParseError,
    PayloadSizeError,
    TensorIOError,
    UnknownDtypeError,
    WavFormatError,
)
from .foa import EnergyMap, FoaClip

_TENSOR_DTYPES = {"f32": "<f4", "u16": "<u2"}

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

# Encoding -> (format tag, bits per sample) of the files the writers make.
_WAV_ENCODINGS = {"float32": (3, 32), "pcm16": (1, 16)}
WAV_ENCODINGS = tuple(_WAV_ENCODINGS)
_PCM_SCALE = 32767.0
# (format tag, bits per sample) -> sample dtype and the scale that maps it to [-1, 1];
# numpy has no 24-bit dtype, so "<i3" is widened to int32 by the slab decoder.
_WAV_DTYPES = {(1, 16): ("<i2", _PCM_SCALE), (1, 24): ("<i3", 8388607.0), (3, 32): ("<f4", 1.0)}
_WAVE_EXTENSIBLE = 0xFFFE
# The PCM and IEEE-float subformat GUIDs of WAVE_FORMAT_EXTENSIBLE, as stored.
_SUBFORMATS = {struct.pack("<IHH", t, 0, 0x10) + bytes.fromhex("800000aa00389b71"): t for t in (1, 3)}
# Seconds per slab of read_wav_slabs, the one slab size of every streamed read.
# On 60 s, 44.1 kHz clips on a 2-core VM, 2 s slabs ran no faster beyond run-to-run
# noise but held 2% more peak memory in rotate and curate, and 25 s slabs (35 MB of
# float64 each) rotate and curate 1.5x more slowly.
_SLAB_SECONDS = 1
# What the WAV header parser says of a file with another channel count, by the count wanted (1 or 4).
_CHANNEL_ERRORS = {
    1: "expected mono audio, found {} channels",
    4: "ambisonic audio needs 4 channels, found {}",
}


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
        with suppress(OSError):
            os.unlink(tmp)
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
    payload = np.ascontiguousarray(arr).astype(_TENSOR_DTYPES[name]).tobytes()
    with atomic_write(path) as handle:
        handle.write(header.encode("ascii") + b"\n")
        handle.write(payload)


def _tensor_header(path, handle) -> tuple:
    """The payload dtype and shape of an open tensor file, its payload size checked."""
    line = handle.readline()
    if not line.endswith(b"\n"):
        raise HeaderParseError(f"{path}: no header line found")
    try:
        header = json.loads(line[:-1].decode("ascii"))
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
    _check_size(path, handle, _TENSOR_DTYPES[name], shape, f"{name} shape {shape}")
    return _TENSOR_DTYPES[name], [int(s) for s in shape]  # JSON true passed the check as 1


def read_tensor(path) -> np.ndarray:
    with open(path, "rb") as handle:
        dtype, shape = _tensor_header(path, handle)
        return np.fromfile(handle, dtype=dtype, count=math.prod(shape)).reshape(shape)


def _check_size(path, handle, dtype: str, shape, what: str) -> None:
    """Refuse an open file whose rest is not exactly a ``shape`` array of ``dtype``."""
    offset = handle.tell()
    size = os.fstat(handle.fileno()).st_size - offset
    expected = math.prod(shape) * np.dtype(dtype).itemsize
    if size != expected:
        raise PayloadSizeError(
            f"{path}: payload holds {size} bytes from offset {offset}, expected {expected} for {what}"
        )


# ---------------------------------------------------------------------------
# Code matrix files


def write_code_matrix(matrix, path) -> None:
    """Serialize a CodeMatrix (pattern id 0) or ReorgMatrix."""
    if isinstance(matrix, CodeMatrix):
        pattern_id = _PATTERN_IDS[None]
    elif isinstance(matrix, ReorgMatrix):
        pattern_id = _PATTERN_IDS[matrix.pattern]
    else:
        raise TypeError(f"expected CodeMatrix or ReorgMatrix, got {type(matrix)!r}")
    n, frames, vocab = matrix.n_codebooks_per_channel, matrix.n_frames, matrix.vocab_size
    if vocab > 0xFFFF:
        raise ValueError("vocabulary size must fit the u16 payload (padding stores V)")
    header = _CODE_HEADER.pack(CODE_MAGIC, n, frames, vocab, pattern_id)
    payload = matrix.codes.astype("<u2").tobytes()
    with atomic_write(path) as handle:
        handle.write(header)
        handle.write(payload)


def _code_header(path, handle) -> tuple:
    """N, L, V, the pattern (None for a raw matrix) and the payload shape of an
    open code file, its payload size checked but not its codes."""
    head = handle.read(_CODE_HEADER.size)
    if len(head) < _CODE_HEADER.size:
        raise HeaderParseError(
            f"{path}: {len(head)} bytes cannot hold the {_CODE_HEADER.size}-byte header"
        )
    magic, n, frames, vocab, pattern_id = _CODE_HEADER.unpack(head)
    if magic != CODE_MAGIC:
        raise HeaderParseError(f"{path}: bad magic {magic!r} at byte 0")
    if pattern_id not in _PATTERNS_BY_ID:
        raise HeaderParseError(f"{path}: unknown pattern id {pattern_id}")
    if n < 1 or frames < 1 or vocab < 1:
        raise HeaderParseError(f"{path}: degenerate header (N={n}, L={frames}, V={vocab})")
    if vocab > 0xFFFF:
        raise HeaderParseError(f"{path}: vocabulary size {vocab} does not fit the u16 payload")
    pattern = _PATTERNS_BY_ID[pattern_id]
    shape = (4 * n, frames if pattern is None else pattern_steps(pattern, n, frames))
    _check_size(path, handle, "<u2", shape, "{}x{} u16 codes".format(*shape))
    return n, frames, vocab, pattern, shape


def read_code_matrix(path):
    """Read a code file; returns CodeMatrix or ReorgMatrix per its pattern id."""
    with open(path, "rb") as handle:
        n, _, vocab, pattern, shape = _code_header(path, handle)
        codes = np.fromfile(handle, dtype="<u2", count=math.prod(shape)).reshape(shape)
    try:
        return CodeMatrix(codes, n, vocab) if pattern is None else ReorgMatrix(codes, pattern, n, vocab)
    except ValueError as exc:
        raise TensorIOError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# WAV


def _wav_header(channels: int, sample_rate: int, frames: int, encoding: str) -> bytes:
    """Every byte the writers put before the samples: RIFF, fmt (and for float
    a fact chunk), then the data chunk header."""
    fmt_tag, bits = _WAV_ENCODINGS[encoding]
    block_align = channels * bits // 8
    fmt_body = struct.pack(
        "<HHIIHH", fmt_tag, channels, int(sample_rate), int(sample_rate) * block_align,
        block_align, bits,
    )
    if fmt_tag == 3:
        # IEEE-float WAVE wants the extension-size field and a fact chunk.
        chunks = struct.pack("<4sI", b"fmt ", 18) + fmt_body + struct.pack("<H4sII", 0, b"fact", 4, frames)
    else:
        chunks = struct.pack("<4sI", b"fmt ", 16) + fmt_body
    size = frames * block_align
    riff = struct.pack("<4sI4s", b"RIFF", 4 + len(chunks) + 8 + size, b"WAVE")
    return riff + chunks + struct.pack("<4sI", b"data", size)


def write_wav_slabs(
    slabs, channels: int, sample_rate: int, frames: int, path, encoding: str = "float32"
) -> None:
    """Write RIFF/WAVE from (channels, n) float64 ``slabs`` in order, ``frames`` in all.
    The slabs must be finite: the caller checks them, as ``write_wav`` does."""
    if encoding not in WAV_ENCODINGS:
        raise ValueError(f"encoding must be one of {WAV_ENCODINGS}, got {encoding!r}")
    try:
        header = _wav_header(channels, sample_rate, frames, encoding)
    except struct.error as exc:
        raise ValueError(f"{path}: WAV header field out of range: {exc}") from None
    dtype = _WAV_DTYPES[_WAV_ENCODINGS[encoding]][0]
    with atomic_write(path) as handle:
        handle.write(header)
        for slab in slabs:
            if encoding == "pcm16":
                slab = np.clip(np.rint(slab * _PCM_SCALE), -32768, 32767)
            handle.write(slab.T.astype(dtype, order="C"))
            frames -= slab.shape[1]
        if frames:
            raise ValueError("slabs do not hold the frames the header announced")


def write_wav(samples, sample_rate: int, path, encoding: str = "float32") -> None:
    """Write interleaved multichannel audio as RIFF/WAVE."""
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] < 1:
        raise ValueError("samples must be (channels, frames) with at least one frame")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")
    write_wav_slabs([x], x.shape[0], sample_rate, x.shape[1], path, encoding)


# What a WAV file's chunk headers say about its data chunk, which starts at byte offset.
WavHeader = namedtuple("WavHeader", "channels sample_rate frames dtype scale offset")


def _parse_wav_header(path, handle, want=None) -> WavHeader:
    """The one WAV header parser: seek from chunk header to chunk header of
    an open file, reading no body but fmt's; with ``want`` (1 or 4), refuse
    another channel count."""
    end = os.fstat(handle.fileno()).st_size
    head = handle.read(12)
    if len(head) < 12 or head[0:4] != b"RIFF" or head[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: not a RIFF/WAVE file (bytes 0..11)")
    fmt = None
    data = None
    offset = 12
    while offset + 8 <= end:
        handle.seek(offset)
        cid, size = struct.unpack("<4sI", handle.read(8))
        body_start = offset + 8
        if body_start + size > end:
            raise WavFormatError(
                f"{path}: chunk {cid!r} at byte {offset} claims {size} bytes "
                f"but only {end - body_start} remain"
            )
        if cid == b"fmt ":
            if size < 16:
                raise WavFormatError(f"{path}: fmt chunk at byte {offset} too short")
            body = handle.read(min(size, 40))
            fmt = struct.unpack_from("<HHIIHH", body)
            if fmt[0] == _WAVE_EXTENSIBLE:
                tag = _SUBFORMATS.get(body[24:])
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
    if sample_rate < 1:
        raise WavFormatError(f"{path}: sample rate {sample_rate} invalid")
    if (fmt_tag, bits) not in _WAV_DTYPES:
        raise WavFormatError(
            f"{path}: unsupported format tag {fmt_tag} with {bits} bits "
            "(need 16- or 24-bit PCM or 32-bit float)"
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
    if want is not None and channels != want:
        raise WavFormatError(f"{path}: " + _CHANNEL_ERRORS[want].format(channels))
    return WavHeader(channels, sample_rate, frames, *_WAV_DTYPES[fmt_tag, bits], start)


def _wav_slabs(handle, header: WavHeader, size: int):
    """Decode the data chunk ``size`` frames at a time into float64 (channels,
    frames) slabs that stay channel-interleaved in memory."""
    handle.seek(header.offset)
    for start in range(0, header.frames, size):
        count = min(size, header.frames - start) * header.channels
        if header.dtype == "<i3":
            # Each 3-byte sample goes to the top of an int32; the shift back keeps its sign.
            wide = np.zeros((count, 4), np.uint8)
            wide[:, 1:] = np.fromfile(handle, np.uint8, 3 * count).reshape(count, 3)
            raw = wide.view("<i4")[:, 0] >> 8
        else:
            raw = np.fromfile(handle, dtype=header.dtype, count=count)
        with np.errstate(invalid="ignore"):  # a float32 signalling NaN; the callers check finiteness
            samples = raw.reshape(-1, header.channels).T.astype(np.float64)
        if header.scale != 1.0:
            samples /= header.scale
        yield samples


def read_wav_header(path) -> WavHeader:
    """The checked header of a RIFF/WAVE file, without decoding a sample."""
    with open(path, "rb") as handle:
        return _parse_wav_header(path, handle)


def read_wav(path, channels=None):
    """Read a RIFF/WAVE file, of ``channels`` channels if given, as one slab;
    returns (samples (channels, frames), sample_rate)."""
    with open(path, "rb") as handle:
        header = _parse_wav_header(path, handle, channels)
        (samples,) = _wav_slabs(handle, header, header.frames)
    return samples, header.sample_rate


def describe_file(path) -> dict:
    """The header fields of a WAV, code or tensor file, told apart by its leading
    bytes; the payload size is checked, but no sample or code is read."""
    with open(path, "rb") as handle:
        head = handle.read(12)
        handle.seek(0)
        if head[:4] == b"RIFF" or head[8:] == b"WAVE":
            header = _parse_wav_header(path, handle)
            return {
                "format": "wav",
                "n_channels": header.channels,
                "n_samples": header.frames,
                "path": path,
                "sample_rate": header.sample_rate,
            }
        if head[:4] == CODE_MAGIC:
            n, frames, vocab, pattern, _ = _code_header(path, handle)
            return {
                "format": "code_matrix",
                "n_codebooks_per_channel": n,
                "n_frames": frames,
                "path": path,
                "pattern": None if pattern is None else pattern.value,
                "vocab_size": vocab,
            }
        dtype, shape = _tensor_header(path, handle)
    return {
        "dtype": str(np.dtype(dtype)),
        "format": "tensor",
        "path": path,
        "shape": shape,
    }


@contextmanager
def read_wav_slabs(path, channels: int):
    """The one streamed WAV reader: the checked header of a ``channels``-channel
    file and ``slabs``, an iterator that decodes the data chunk in order as
    float64 (channels, frames) slabs of ``_SLAB_SECONDS`` whole seconds each,
    the last one shorter. Iterate inside the ``with`` block; the slabs are not
    checked for non-finite samples."""
    with open(path, "rb") as handle:
        header = _parse_wav_header(path, handle, channels)
        yield header, _wav_slabs(handle, header, _SLAB_SECONDS * header.sample_rate)


def read_foa_wav(path) -> FoaClip:
    """Read a 4-channel W, X, Y, Z WAV file as a clip, decoded as one slab."""
    samples, sample_rate = read_wav(path, 4)
    try:
        return FoaClip(samples, sample_rate)
    except ValueError as exc:  # a non-finite sample
        raise WavFormatError(f"{path}: {exc}") from exc


def read_foa_summary(path, summarize):
    """``summarize(slabs, frames, sample_rate)`` of a 4-channel WAV file over the
    whole-second slabs of ``read_wav_slabs``: one walk, and the float64 clip is
    never held. Checked through the summary's ``whole`` 4x4 moment for a
    non-finite sample. ``spatial_metrics.window_moments`` and ``curation.clip_stats``
    are the summaries; each is bit-identical to the one of the ``read_foa_wav`` clip."""
    with read_wav_slabs(path, 4) as (header, slabs):
        summary = summarize(slabs, header.frames, header.sample_rate)
    # A non-finite sample makes its channel's summed square non-finite.
    if not np.all(np.isfinite(np.diagonal(summary.whole))):
        raise WavFormatError(f"{path}: samples must be finite")
    return summary


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
    bands = grid.n_elevation_bands
    image = np.zeros((bands, max(grid.samples_per_band)))
    image[bands - 1 - grid.band_index, grid.azimuth_index] = emap.values
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
