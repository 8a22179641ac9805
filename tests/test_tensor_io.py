import ast
import contextlib
import io
import json
import pathlib
import re
import struct
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from foatools import (
    CodeMatrix,
    EnergyMap,
    FoaClip,
    Pattern,
    SphereGrid,
    amplitude_gate,
    fov_center,
    pack,
    segment_mask,
    tensor_io,
)
from foatools.cli import main
from foatools.curation import clip_stats
from foatools.foa import block_moments
from foatools.spatial_metrics import window_moments
from foatools.errors import (
    HeaderParseError,
    PayloadSizeError,
    TensorIOError,
    UnknownDtypeError,
    WavFormatError,
)
from foatools.tensor_io import (
    atomic_write,
    read_code_matrix,
    read_foa_summary,
    read_foa_wav,
    read_tensor,
    read_wav,
    read_wav_header,
    write_code_matrix,
    write_energy_map_csv,
    write_energy_map_pgm,
    write_pgm,
    write_tensor,
    write_wav,
    write_wav_slabs,
)
from helpers import (
    curation_stats_oracle,
    extensible_wav,
    pcm24_bytes,
    pcm24_wav,
    set_float32_sample,
    write_foa_wav,
)


class TestTensorFiles:
    def test_f32_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        tensor = rng.normal(size=(4, 7, 7, 16)).astype(np.float32)
        path = tmp_path / "a.tensor"
        write_tensor(tensor, path)
        back = read_tensor(path)
        assert back.dtype == np.float32 and back.flags.writeable
        assert np.array_equal(back, tensor)

    def test_u16_round_trip_with_sentinel(self, tmp_path):
        rng = np.random.default_rng(1)
        vocab = 1024
        tensor = rng.integers(0, vocab + 1, size=(36, 50)).astype(np.uint16)
        tensor[0, 0] = vocab  # the padding sentinel itself must survive
        path = tmp_path / "codes.tensor"
        write_tensor(tensor, path)
        back = read_tensor(path)
        assert back.dtype == np.uint16 and back.flags.writeable
        assert np.array_equal(back, tensor)

    def test_header_line_longer_than_the_read_buffer(self, tmp_path):
        # The payload is read from the file position after the buffered header line.
        tensor = np.random.default_rng(3).normal(size=(3, 5)).astype(np.float32)
        path = tmp_path / "padded.tensor"
        header = b'{"dtype":"f32",' + b" " * (io.DEFAULT_BUFFER_SIZE + 100) + b'"shape":[3,5]}\n'
        path.write_bytes(header + tensor.tobytes())
        back = read_tensor(path)
        assert back.dtype == np.float32 and back.flags.writeable
        assert back.tobytes() == tensor.tobytes()

    def test_write_read_deterministic(self, tmp_path):
        tensor = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        a, b = tmp_path / "a", tmp_path / "b"
        write_tensor(tensor, a)
        write_tensor(tensor, b)
        assert a.read_bytes() == b.read_bytes()

    def test_read_then_write_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(12)
        src, copy = tmp_path / "src.tensor", tmp_path / "copy.tensor"
        write_tensor(rng.normal(size=(3, 5)).astype(np.float32), src)
        write_tensor(read_tensor(src), copy)
        assert src.read_bytes() == copy.read_bytes()

    def test_payload_too_long(self, tmp_path):
        path = tmp_path / "long.tensor"
        path.write_bytes(b'{"dtype":"u16","shape":[2]}\n' + b"\x00" * 6)
        with pytest.raises(PayloadSizeError):
            read_tensor(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.tensor"
        path.write_bytes(b'{"dtype":"f32","shape":[2,3]}\n' + b"\x00" * 20)
        with pytest.raises(PayloadSizeError, match="20 bytes"):
            read_tensor(path)

    def test_unknown_dtype(self, tmp_path):
        path = tmp_path / "odd.tensor"
        path.write_bytes(b'{"dtype":"f64","shape":[1]}\n' + b"\x00" * 8)
        with pytest.raises(UnknownDtypeError):
            read_tensor(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.tensor"
        path.write_bytes(b"not json\n\x00\x00")
        with pytest.raises(HeaderParseError):
            read_tensor(path)
        path.write_bytes(b"\x00\x01\x02")  # no newline at all
        with pytest.raises(HeaderParseError):
            read_tensor(path)

    def test_bad_shape(self, tmp_path):
        path = tmp_path / "shape.tensor"
        path.write_bytes(b'{"dtype":"f32","shape":[0]}\n')
        with pytest.raises(HeaderParseError):
            read_tensor(path)

    def test_rejects_out_of_range_ints(self, tmp_path):
        with pytest.raises(ValueError):
            write_tensor(np.array([70000]), tmp_path / "big.tensor")


class TestMangledFiles:
    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(["tensor", "cmx"]),
        cut=st.integers(0, 60),
        at=st.integers(0, 40),
        value=st.binary(min_size=1, max_size=4),
    )
    def test_readers_raise_format_errors_and_info_agrees(self, tmp_path_factory, kind, cut, at, value):
        path = tmp_path_factory.mktemp("mangled") / f"m.{kind}"
        if kind == "tensor":
            write_tensor(np.arange(12, dtype=np.float32).reshape(3, 4), path)
        else:
            write_code_matrix(pack(CodeMatrix(np.arange(8).reshape(4, 2) % 5, 1, 5), Pattern.PROPOSED), path)
        blob = bytearray(path.read_bytes())
        blob[at : at + len(value)] = value
        blob = bytes(blob[: len(blob) - cut])
        path.write_bytes(blob)
        outcomes = {}
        for reader in (read_tensor, read_code_matrix, read_wav_header):
            try:
                outcomes[reader] = reader(path)
            except TensorIOError as exc:  # anything else fails the test
                outcomes[reader] = exc
        # info picks its reader by the leading bytes.
        if blob[:4] == b"RIFF" or blob[8:12] == b"WAVE":
            expected = outcomes[read_wav_header]
        else:
            expected = outcomes[read_code_matrix if blob[:4] == b"ACM1" else read_tensor]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["info", str(path)])
        # info reads headers only: a code file whose header and payload size pass
        # is described even when its codes fail the reader's range check (a plain
        # TensorIOError, not one of the header or payload-size subclasses).
        if isinstance(expected, TensorIOError) and type(expected) is not TensorIOError:
            assert (code, out.getvalue(), err.getvalue()) == (2, "", f"error: {expected}\n")
            return
        assert code == 0
        (described,) = json.loads(out.getvalue())["files"]
        if isinstance(expected, np.ndarray):
            assert (described["shape"], described["dtype"]) == (list(expected.shape), str(expected.dtype))
        else:
            _, n, frames, vocab, _ = struct.unpack("<4sIIIB", blob[:17])
            assert (described["n_codebooks_per_channel"], described["n_frames"]) == (n, frames)
            assert described["vocab_size"] == vocab


class TestCodeMatrixFiles:
    def test_raw_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        matrix = CodeMatrix(rng.integers(0, 1024, size=(36, 50)), 9, 1024)
        path = tmp_path / "raw.codes"
        write_code_matrix(matrix, path)
        back = read_code_matrix(path)
        assert isinstance(back, CodeMatrix)
        assert np.array_equal(back.codes, matrix.codes)
        assert (back.n_codebooks_per_channel, back.vocab_size) == (9, 1024)

    def test_reorg_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        matrix = CodeMatrix(rng.integers(0, 7, size=(8, 5)), 2, 7)
        reorg = pack(matrix, Pattern.SEQUENTIAL_DELAY)
        path = tmp_path / "packed.codes"
        write_code_matrix(reorg, path)
        back = read_code_matrix(path)
        assert back.pattern is Pattern.SEQUENTIAL_DELAY
        assert np.array_equal(back.codes, reorg.codes)
        assert back.n_frames == 5

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.codes"
        path.write_bytes(b"QQQQ" + b"\x00" * 32)
        with pytest.raises(HeaderParseError, match="magic"):
            read_code_matrix(path)

    def test_truncated_codes(self, tmp_path):
        rng = np.random.default_rng(4)
        matrix = CodeMatrix(rng.integers(0, 7, size=(4, 3)), 1, 7)
        path = tmp_path / "cut.codes"
        write_code_matrix(matrix, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-2])
        with pytest.raises(PayloadSizeError):
            read_code_matrix(path)

    @pytest.mark.parametrize("pattern", [None, Pattern.PROPOSED])
    def test_code_out_of_range_names_file(self, tmp_path, pattern):
        matrix = CodeMatrix(np.zeros((4, 2), dtype=np.int64), 1, 5)
        path = tmp_path / "bad.codes"
        write_code_matrix(matrix if pattern is None else pack(matrix, pattern), path)
        blob = bytearray(path.read_bytes())
        blob[17:19] = struct.pack("<H", 6)  # first code, above V and the padding value
        path.write_bytes(bytes(blob))
        with pytest.raises(TensorIOError, match="codes must lie in") as info:
            read_code_matrix(path)
        assert str(info.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("vocab", [0x10000, 0xFFFFFFFF])
    def test_vocab_past_u16_is_header_error(self, tmp_path, vocab):
        path = tmp_path / "big.cmx"
        path.write_bytes(struct.pack("<4sIIIB", b"ACM1", 1, 2, vocab, 0) + bytes(16))
        with pytest.raises(HeaderParseError) as info:
            read_code_matrix(path)
        assert str(info.value) == f"{path}: vocabulary size {vocab} does not fit the u16 payload"

    def test_vocab_too_large(self, tmp_path):
        matrix = CodeMatrix(np.zeros((4, 1), dtype=np.int64), 1, 0x10000)
        with pytest.raises(ValueError):
            write_code_matrix(matrix, tmp_path / "big.codes")


class TestWav:
    def test_float32_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        clip = FoaClip(rng.normal(size=(4, 1000)).astype(np.float32).astype(np.float64), 44100)
        path = tmp_path / "clip.wav"
        write_foa_wav(clip, path, "float32")
        back = read_foa_wav(path)
        assert back.sample_rate == 44100
        assert np.array_equal(back.samples, clip.samples)

    def test_pcm16_round_trip_close(self, tmp_path):
        rng = np.random.default_rng(6)
        clip = FoaClip(rng.uniform(-0.9, 0.9, size=(4, 500)), 22050)
        path = tmp_path / "clip16.wav"
        write_foa_wav(clip, path, "pcm16")
        back = read_foa_wav(path)
        assert np.max(np.abs(back.samples - clip.samples)) < 1.0 / 32767

    def test_mono_round_trip(self, tmp_path):
        signal = np.linspace(-1.0, 1.0, 64)
        path = tmp_path / "mono.wav"
        write_wav(signal, 8000, path)
        samples, rate = read_wav(path)
        assert rate == 8000
        assert samples.shape == (1, 64)
        assert np.allclose(samples[0], signal, atol=1e-7)

    def test_wrong_channel_count(self, tmp_path):
        path = tmp_path / "stereo.wav"
        write_wav(np.zeros((2, 10)), 44100, path)
        with pytest.raises(WavFormatError, match="4 channels"):
            read_foa_wav(path)

    def test_not_riff(self, tmp_path):
        path = tmp_path / "nope.wav"
        path.write_bytes(b"OggS" + b"\x00" * 40)
        with pytest.raises(WavFormatError):
            read_wav(path)

    def test_truncated_chunk_reports_offset(self, tmp_path):
        path = tmp_path / "cut.wav"
        write_wav(np.zeros((1, 100)), 8000, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-50])
        with pytest.raises(WavFormatError, match="byte"):
            read_wav(path)

    def test_determinism(self, tmp_path):
        rng = np.random.default_rng(7)
        samples = rng.normal(size=(4, 64))
        a, b = tmp_path / "a.wav", tmp_path / "b.wav"
        write_wav(samples, 44100, a)
        write_wav(samples, 44100, b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("encoding", ["float32", "pcm16"])
    def test_slabs_write_the_same_file(self, tmp_path, encoding):
        samples = np.random.default_rng(9).uniform(-1.0, 1.0, size=(4, 301))
        whole, cut = tmp_path / "whole.wav", tmp_path / "cut.wav"
        write_wav(samples, 100, whole, encoding)
        write_wav_slabs((samples[:, i : i + 100] for i in range(0, 301, 100)), 4, 100, 301, cut, encoding)
        assert cut.read_bytes() == whole.read_bytes()

    def test_slabs_short_of_the_header_leave_no_file(self, tmp_path):
        path = tmp_path / "short.wav"
        with pytest.raises(ValueError, match="frames the header announced"):
            write_wav_slabs([np.zeros((4, 10))], 4, 100, 11, path)
        assert list(tmp_path.iterdir()) == []

    def test_pcm24_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(10)
        ints = rng.integers(-(2**23), 2**23, size=(7, 4))
        ints[0] = [-(2**23), 2**23 - 1, 0, -1]  # both extremes, zero and the sign boundary
        plain, ext = tmp_path / "plain.wav", tmp_path / "ext.wav"
        plain.write_bytes(pcm24_wav(ints, 48000))
        ext.write_bytes(extensible_wav(ints, 48000, 1, 24, pcm24_bytes(ints)))
        for path in (plain, ext):
            samples, rate = read_wav(path)
            assert rate == 48000
            assert np.array_equal(samples, ints.T / 8388607.0)
            assert read_wav_header(path)[:3] == (4, 48000, 7)


class TestWavExtensible:
    def test_float_four_channels(self, tmp_path):
        rng = np.random.default_rng(8)
        frames = rng.normal(size=(300, 4)).astype("<f4")
        path = tmp_path / "ext_float.wav"
        path.write_bytes(extensible_wav(frames, 48000, 3, 32, frames.tobytes()))
        clip = read_foa_wav(path)
        assert clip.sample_rate == 48000
        assert np.array_equal(clip.samples, frames.T.astype(np.float64))

    def test_pcm16(self, tmp_path):
        frames = np.array([[0, 32767, -32767, 16384]] * 5, dtype="<i2")
        path = tmp_path / "ext_pcm.wav"
        path.write_bytes(extensible_wav(frames, 44100, 1, 16, frames.tobytes()))
        samples, rate = read_wav(path)
        assert rate == 44100
        assert np.array_equal(samples, frames.T / 32767.0)

    def test_unsupported_subformat_names_file(self, tmp_path):
        frames = np.zeros((4, 4), dtype="<i2")
        path = tmp_path / "ext_adpcm.wav"
        path.write_bytes(extensible_wav(frames, 44100, 2, 16, frames.tobytes()))
        with pytest.raises(WavFormatError, match="ext_adpcm.wav.*subformat"):
            read_wav(path)

    def test_nonstandard_guid_tail(self, tmp_path):
        frames = np.zeros((4, 4), dtype="<f4")
        blob = bytearray(extensible_wav(frames, 44100, 3, 32, frames.tobytes()))
        blob[20 + 39] ^= 0xFF  # last GUID byte; the fmt body starts at byte 20
        path = tmp_path / "ext_guid.wav"
        path.write_bytes(bytes(blob))
        with pytest.raises(WavFormatError, match="ext_guid.wav"):
            read_wav(path)

    def test_short_extensible_fmt_chunk(self, tmp_path):
        frames = np.zeros((4, 4), dtype="<f4")
        fmt = struct.pack("<HHIIHHH", 0xFFFE, 4, 44100, 44100 * 16, 16, 32, 0)
        body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        body += b"data" + struct.pack("<I", frames.nbytes) + frames.tobytes()
        path = tmp_path / "ext_short.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(WavFormatError, match="ext_short.wav.*subformat"):
            read_wav(path)


def riff(*chunks):
    """A RIFF/WAVE file holding ``chunks`` (id, body) in order, odd bodies padded."""
    body = b"WAVE" + b"".join(
        cid + struct.pack("<I", len(data)) + data + b"\x00" * (len(data) & 1) for cid, data in chunks
    )
    return b"RIFF" + struct.pack("<I", len(body)) + body


def fmt_body(kind, channels, rate):
    """The fmt chunk body of a ``float32``, ``pcm16`` or ``pcm24`` file, plain or 0xFFFE (``ext-``)."""
    tag, bits = {"float32": (3, 32), "pcm16": (1, 16), "pcm24": (1, 24)}[kind.rpartition("-")[2]]
    align = channels * bits // 8
    if not kind.startswith("ext"):
        return struct.pack("<HHIIHH", tag, channels, rate, rate * align, align, bits)
    return struct.pack(
        "<HHIIHHHHIIHH", 0xFFFE, channels, rate, rate * align, align, bits, 22, bits, 0, tag, 0, 0x10
    ) + bytes.fromhex("800000aa00389b71")


WAV_KINDS = ["float32", "pcm16", "pcm24", "ext-float32", "ext-pcm16", "ext-pcm24"]


def random_payload(rng, kind, frames):
    """A data chunk of ``frames`` random 4-channel frames in the sample format of ``kind``."""
    if kind.endswith("float32"):
        return rng.normal(size=(frames, 4)).astype("<f4").tobytes()
    if kind.endswith("pcm24"):
        return pcm24_bytes(rng.integers(-(2**23), 2**23, size=(frames, 4)))
    return rng.integers(-32768, 32768, size=(frames, 4)).astype("<i2").tobytes()


def moments_oracle(samples, rate):
    """Window moments from the whole float64 clip: 200 ms blocks, the whole
    clip as all blocks then the tail, and 1000 ms windows as five blocks or,
    when the rate does not divide by 5, as 1000 ms blocks."""
    n, length = samples.shape[1], max(1, rate // 5)
    blocks = block_moments(samples, length)
    tail = samples[:, blocks.shape[0] * length :]
    whole = blocks.sum(axis=0) + tail @ tail.T
    if rate % 5:
        return whole, block_moments(samples, rate), blocks
    return whole, blocks[: 5 * (n // rate)].reshape(-1, 5, 4, 4).sum(axis=1), blocks


def with_data_size(blob, size):
    at = blob.index(b"data") + 4
    return blob[:at] + struct.pack("<I", size) + blob[at + 4 :]


# The 4-channel readers: the clip, and each summary streamed from the file.
FOA_READERS = {
    "read_foa_wav": read_foa_wav,
    **{
        summarize.__name__: partial(read_foa_summary, summarize=summarize)
        for summarize in (window_moments, clip_stats)
    },
}

EXTRA_CHUNKS = st.lists(st.tuples(st.sampled_from([b"LIST", b"junk", b"fact"]), st.binary(max_size=7)), max_size=2)

# Header mutations: (name, edit of a valid 4-channel float32 file's bytes).
HEADER_MUTATIONS = [
    ("not riff", lambda b: b"OggS" + b[4:]),
    ("short", lambda b: b[:10]),
    ("truncated chunk", lambda b: b[:-50]),
    ("no fmt", lambda b: b[:12] + b"fmx " + b[16:]),
    ("no data", lambda b: b.replace(b"data", b"datx")),
    ("short fmt", lambda b: b[:16] + struct.pack("<I", 12) + b[20:]),
    ("zero channels", lambda b: b[:22] + struct.pack("<H", 0) + b[24:]),
    ("zero rate", lambda b: b[:24] + struct.pack("<I", 0) + b[28:]),
    ("24-bit", lambda b: b[:34] + struct.pack("<H", 24) + b[36:]),
    ("block align", lambda b: b[:32] + struct.pack("<H", 12) + b[34:]),
    ("ragged data", lambda b: with_data_size(b, 4 * 16 - 2)),
    ("empty data", lambda b: with_data_size(b, 0)),
    ("short extensible fmt", lambda b: b[:20] + struct.pack("<H", 0xFFFE) + b[22:]),
    ("adpcm subformat", lambda b: extensible_wav(np.zeros((4, 4), "<i2"), 44100, 2, 16, bytes(32))),
    ("guid tail", lambda b: extensible_wav(np.zeros((4, 4), "<f4"), 44100, 3, 32, bytes(64))[:59] + b"\xff"),
]


class TestWavWalker:
    @settings(max_examples=120, deadline=None)
    @given(
        kind=st.sampled_from(WAV_KINDS),
        rate=st.integers(1, 120),
        frames=st.integers(1, 1600),
        before=EXTRA_CHUNKS,
        after=EXTRA_CHUNKS,
        seed=st.integers(0, 2**32 - 1),
    )
    def test_streamed_moments_match_the_whole_clip(self, tmp_path_factory, kind, rate, frames, before, after, seed):
        # Up to 1,600 slabs of about one second; rates below 5 use 1-sample blocks.
        payload = random_payload(np.random.default_rng(seed), kind, frames)
        path = tmp_path_factory.mktemp("walker") / "clip.wav"
        path.write_bytes(riff(*before, (b"fmt ", fmt_body(kind, 4, rate)), (b"data", payload), *after))
        samples, sample_rate = read_wav(path)
        assert (sample_rate, samples.shape) == (rate, (4, frames))
        assert read_wav_header(path)[:3] == (4, rate, frames)
        moments = read_foa_summary(path, window_moments)
        assert (moments.n_samples, moments.sample_rate) == (frames, rate)
        for got, want in zip((moments.whole, moments.seconds, moments.blocks), moments_oracle(samples, rate)):
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    @settings(max_examples=120, deadline=None)
    @given(
        kind=st.sampled_from(WAV_KINDS),
        rate=st.integers(1, 120),
        frames=st.integers(1, 1600),
        slab_seconds=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_streamed_clip_stats_match_the_clip(self, tmp_path_factory, kind, rate, frames, slab_seconds, seed):
        # Clips shorter than a second, and partial last seconds and slabs.
        path = tmp_path_factory.mktemp("stats") / "clip.wav"
        payload = random_payload(np.random.default_rng(seed), kind, frames)
        path.write_bytes(riff((b"fmt ", fmt_body(kind, 4, rate)), (b"data", payload)))
        with mock.patch.object(tensor_io, "_SLAB_SECONDS", slab_seconds):
            stats = read_foa_summary(path, clip_stats)
        clip = read_foa_wav(path)
        abs_means, w_squares = curation_stats_oracle(clip)
        assert stats.n_samples == frames
        assert abs_means.shape == stats.abs_means.shape and np.array_equal(stats.abs_means, abs_means)
        assert w_squares.shape == stats.w_squares.shape and np.array_equal(stats.w_squares, w_squares)
        assert np.array_equal(stats.whole, clip_stats([clip.samples], frames, rate).whole)
        direct = clip.samples @ clip.samples.T
        assert np.allclose(stats.whole, direct, rtol=1e-12, atol=1e-12 * np.abs(direct).max())
        assert segment_mask(stats, 0.3).tolist() == segment_mask(clip, 0.3).tolist()
        if frames >= rate:
            assert amplitude_gate(stats, 0.05) == amplitude_gate(clip, 0.05)
        grid = SphereGrid(4, 8)
        assert fov_center(stats, grid) == fov_center(clip, grid)

    @settings(max_examples=100, deadline=None)
    @given(
        rate=st.integers(1, 120),
        frames=st.integers(1, 1600),
        cuts=st.lists(st.integers(1, 6), max_size=30),
        slab_seconds=st.integers(1, 5),
        contiguous=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_any_whole_second_cut_gives_the_same_summary(
        self, tmp_path_factory, rate, frames, cuts, slab_seconds, contiguous, seed
    ):
        # Uneven whole-second slabs from a one-shot iterator, the last one shorter,
        # and the file streamed at each slab size: bit for bit the one-slab clip.
        path = tmp_path_factory.mktemp("cuts") / "clip.wav"
        payload = random_payload(np.random.default_rng(seed), "float32", frames)
        path.write_bytes(riff((b"fmt ", fmt_body("float32", 4, rate)), (b"data", payload)))
        clip = read_foa_wav(path)
        samples = np.ascontiguousarray(clip.samples) if contiguous else clip.samples
        bounds = [0, *(int(end) for end in np.cumsum(cuts) * rate if end < frames), frames]
        fields = {window_moments: ("whole", "seconds", "blocks"), clip_stats: ("whole", "abs_means", "w_squares")}
        for summarize, names in fields.items():
            want = summarize([clip.samples], frames, rate)
            slabs = (samples[:, lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]))
            with mock.patch.object(tensor_io, "_SLAB_SECONDS", slab_seconds):
                streamed = read_foa_summary(path, summarize)
            for got in (summarize(slabs, frames, rate), streamed):
                for name in names:
                    assert getattr(got, name).shape == getattr(want, name).shape
                    assert np.array_equal(getattr(got, name), getattr(want, name))
        oracle = moments_oracle(clip.samples, rate)
        want = window_moments([clip.samples], frames, rate)
        assert all(np.array_equal(a, b) for a, b in zip((want.whole, want.seconds, want.blocks), oracle))

    @pytest.mark.parametrize("summarize", [window_moments, clip_stats], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("rate", [7, 44101])
    def test_each_file_is_decoded_once(self, tmp_path, monkeypatch, summarize, rate):
        path = tmp_path / "clip.wav"
        write_wav(np.random.default_rng(rate).normal(size=(4, 3 * rate + 2)), rate, path)
        decode, walks = tensor_io._wav_slabs, []

        def spy(handle, header, size):
            walks.append(size)
            return decode(handle, header, size)

        monkeypatch.setattr(tensor_io, "_wav_slabs", spy)
        summary = read_foa_summary(path, summarize)
        assert walks == [rate]  # one walk, one second per slab
        assert np.array_equal(summary.whole, summarize([read_foa_wav(path).samples], 3 * rate + 2, rate).whole)

    @pytest.mark.parametrize("name, mutate", HEADER_MUTATIONS, ids=[m[0] for m in HEADER_MUTATIONS])
    def test_header_errors_agree_across_readers(self, tmp_path, capsys, name, mutate):
        path = tmp_path / "bad.wav"
        write_wav(np.zeros((4, 16)), 44100, path)
        path.write_bytes(mutate(path.read_bytes()))
        outcomes = []
        for reader in (read_wav, read_wav_header, *FOA_READERS.values()):
            with pytest.raises(WavFormatError) as info:
                reader(path)
            outcomes.append((type(info.value), str(info.value)))
        assert len(set(outcomes)) == 1
        assert outcomes[0][1].startswith(f"{path}: ")
        blob = path.read_bytes()
        if blob[:4] == b"RIFF" or blob[8:12] == b"WAVE":  # info reads other files as tensors
            assert main(["info", str(path)]) == 2
            assert capsys.readouterr().err == f"error: {outcomes[0][1]}\n"

    @settings(max_examples=150, deadline=None)
    @given(cut=st.integers(0, 120), at=st.integers(0, 80), value=st.binary(min_size=1, max_size=4))
    def test_mangled_headers_give_one_outcome(self, tmp_path_factory, cut, at, value):
        frames = np.arange(40, dtype="<f4").reshape(10, 4)
        chunks = (b"junk", b"abc"), (b"fmt ", fmt_body("ext-float32", 4, 50)), (b"data", frames.tobytes())
        blob = bytearray(riff(*chunks))
        blob[at : at + len(value)] = value
        path = tmp_path_factory.mktemp("mangled") / "m.wav"
        path.write_bytes(bytes(blob[: len(blob) - cut]))
        try:
            header = read_wav_header(path)
        except WavFormatError as exc:
            for reader in (read_wav, *FOA_READERS.values()):
                with pytest.raises(WavFormatError, match="^" + re.escape(str(exc)) + "$"):
                    reader(path)
            return
        samples, rate = read_wav(path)
        assert samples.shape == (header.channels, header.frames) and rate == header.sample_rate
        for reader in FOA_READERS.values():
            try:
                reader(path)
            except WavFormatError as exc:
                assert header.channels != 4 or str(exc) == f"{path}: samples must be finite"

    @pytest.mark.parametrize("reader", FOA_READERS.values(), ids=FOA_READERS)
    def test_non_finite_sample_names_file(self, tmp_path, reader):
        path = tmp_path / "nan.wav"
        write_wav(np.zeros((4, 300)), 1000, path)
        set_float32_sample(path, 517, float("nan"))
        with pytest.raises(WavFormatError, match=f"^{re.escape(str(path))}: samples must be finite$"):
            reader(path)


class TestExportsAndAtomicity:
    def test_pgm_header_and_size(self, tmp_path):
        path = tmp_path / "map.pgm"
        write_pgm(np.arange(12.0).reshape(3, 4), path)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n4 3\n255\n")
        assert len(blob) == len(b"P5\n4 3\n255\n") + 12

    def test_energy_map_pgm_row_per_band(self, tmp_path):
        grid = SphereGrid(4, 8)
        emap = EnergyMap(grid, np.linspace(0.0, 1.0, grid.n_cells), (0, 1))
        path = tmp_path / "emap.pgm"
        write_energy_map_pgm(emap, path)
        header = path.read_bytes().split(b"\n", 3)
        width, height = header[1].split()
        assert int(height) == 4
        assert int(width) == max(grid.samples_per_band)

    def test_energy_map_csv(self, tmp_path):
        grid = SphereGrid(2, 4)
        emap = EnergyMap(grid, np.arange(float(grid.n_cells)), (0, 10))
        path = tmp_path / "emap.csv"
        write_energy_map_csv(emap, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "azimuth,elevation,weight,value"
        assert len(lines) == 1 + grid.n_cells
        first = [float(f) for f in lines[1].split(",")]
        assert first[3] == 0.0

    def test_atomic_write_leaves_nothing_on_failure(self, tmp_path):
        path = tmp_path / "out.bin"
        with pytest.raises(RuntimeError):
            with atomic_write(path) as handle:
                handle.write(b"partial")
                raise RuntimeError("boom")
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_atomic_write_replaces_existing(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")
        with atomic_write(path) as handle:
            handle.write(b"new")
        assert path.read_bytes() == b"new"


def test_tensor_io_imports_no_metric_module():
    # The format layer sits below every metric, so a metric module may use it without an import cycle.
    source = pathlib.Path(__file__).resolve().parents[1] / "src" / "foatools" / "tensor_io.py"
    imported = set()
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names if a.name.split(".")[0] == "foatools"]
            imported |= {name.partition(".")[2] or name for name in names}
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "foatools"):
            module = (node.module or "").removeprefix("foatools").lstrip(".")
            imported |= {module.split(".")[0]} if module else {a.name for a in node.names}
    assert imported <= {"code_pattern", "errors", "foa"}
