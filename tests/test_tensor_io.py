import ast
import contextlib
import io
import json
import os
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
    foa,
    fov_center,
    pack,
    segment_mask,
    tensor_io,
)
from foatools.cli import main
from foatools.curation import clip_stats
from foatools.foa import block_moments, window_sums
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
    describe_file,
    read_code_matrix,
    read_foa_summary,
    read_foa_wav,
    read_tensor,
    read_wav,
    read_wav_slabs,
    write_code_matrix,
    write_energy_map_csv,
    write_energy_map_pgm,
    write_pgm,
    write_tensor,
    write_wav,
    write_wav_slabs,
)
from helpers import (
    WAV_KINDS,
    curation_stats_oracle,
    extensible_wav,
    fmt_body,
    pcm24_bytes,
    pcm24_wav,
    random_payload,
    riff,
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

    @pytest.mark.parametrize("value", [1e300, -1e39])
    def test_refuses_finite_values_past_the_float32_range(self, tmp_path, value):
        path = tmp_path / "big.tensor"
        message = f"{path}: values past the float32 range cannot be written"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            write_tensor(np.array([value, 1.0]), path)
        assert list(tmp_path.iterdir()) == []


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
        for reader in (read_tensor, read_code_matrix, read_wav):
            try:
                outcomes[reader] = reader(path)
            except TensorIOError as exc:  # anything else fails the test
                outcomes[reader] = exc
        # info picks its reader by the leading bytes.
        if blob[:4] == b"RIFF" or blob[8:12] == b"WAVE":
            expected = outcomes[read_wav]
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

    def test_other_wanted_channel_count_names_the_file(self, tmp_path):
        path = tmp_path / "four.wav"
        write_wav(np.zeros((4, 10)), 44100, path)
        with pytest.raises(WavFormatError, match=f"^{re.escape(str(path))}: expected 2 channels, found 4$"):
            read_wav(path, 2)

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

    @pytest.mark.parametrize(
        "samples, message",
        [(np.zeros((1, 2, 3)), "samples must be (channels, frames) with at least one frame"),
         (np.array([0.0, np.inf]), "samples must be finite")],
    )
    def test_write_wav_refuses_bad_samples(self, tmp_path, samples, message):
        with pytest.raises(ValueError) as info:
            write_wav(samples, 100, tmp_path / "bad.wav")
        assert str(info.value) == message
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "samples, rate, message",
        [(np.zeros((1, 10)), 0, "sample_rate must be a positive integer, got 0"),
         (np.zeros((1, 10)), 10.7, "sample_rate must be a positive integer, got 10.7"),
         (np.zeros((1, 10)), -8000, "sample_rate must be a positive integer, got -8000"),
         (np.zeros((0, 10)), 10, "samples need at least one channel")],
        ids=["rate-zero", "rate-fraction", "rate-negative", "no-channel"],
    )
    def test_write_wav_refuses_what_read_wav_would(self, tmp_path, samples, rate, message):
        path = tmp_path / "bad.wav"
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            write_wav(samples, rate, path)
        assert list(tmp_path.iterdir()) == []

    def test_slabs_short_of_the_header_leave_no_file(self, tmp_path):
        path = tmp_path / "short.wav"
        with pytest.raises(ValueError, match="frames the header announced"):
            write_wav_slabs([np.zeros((4, 10))], 4, 100, 11, path)
        assert list(tmp_path.iterdir()) == []

    def test_slab_past_the_header_is_refused_before_it_is_written(self, tmp_path):
        path = tmp_path / "long.wav"

        def slabs():
            yield np.zeros((4, 6))
            yield np.zeros((4, 6))  # 12 frames of the 11 announced
            raise AssertionError("a slab was taken after the one that ran past the header")

        message = f"{path}: slabs hold more than the frames the header announced"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            write_wav_slabs(slabs(), 4, 100, 11, path)
        assert list(tmp_path.iterdir()) == []

    def test_slabs_short_of_the_header_name_the_output(self, tmp_path):
        path = tmp_path / "short.wav"
        message = f"{path}: slabs hold fewer than the frames the header announced"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            write_wav_slabs([np.zeros((4, 10))], 4, 100, 11, path)

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
            with read_wav_slabs(path, 4) as (header, _):
                assert header[:3] == (4, 48000, 7)

    @pytest.mark.parametrize("bits", [32, 64])
    def test_pcm32_and_float64_decode_as_scaled(self, tmp_path, bits):
        # 32-bit PCM reads as integer / (2**31 - 1), like 24-bit PCM; 64-bit float as it is.
        rng = np.random.default_rng(bits)
        if bits == 32:
            tag, frames = 1, rng.integers(-(2**31), 2**31, size=(7, 4)).astype("<i4")
            frames[0] = [-(2**31), 2**31 - 1, 0, -1]  # both extremes, zero and the sign boundary
            want = frames.T / 2147483647.0
        else:
            # Beyond float32's precision and its smallest exponents; the largest it allows is about 3.4e38.
            tag, frames = 3, rng.normal(size=(7, 4)) * np.array([1.0, 1e-300, 1e38, -3.5])
            want = frames.T
        fmt = struct.pack("<HHIIHH", tag, 4, 48000, 48000 * 4 * bits // 8, 4 * bits // 8, bits)
        body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        body += b"data" + struct.pack("<I", frames.nbytes) + frames.tobytes()
        plain, ext = tmp_path / "plain.wav", tmp_path / "ext.wav"
        plain.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        ext.write_bytes(extensible_wav(frames, 48000, tag, bits, frames.tobytes()))
        for path in (plain, ext):
            samples, rate = read_wav(path)
            assert rate == 48000 and np.array_equal(samples, want)
            assert np.array_equal(read_foa_wav(path).samples, want)
            assert describe_file(path) == {
                "encoding": f"{'pcm' if bits == 32 else 'float'}{bits}",
                "format": "wav", "n_channels": 4, "n_samples": 7, "path": path, "sample_rate": 48000,
            }
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["info", str(path)]) == 0
            (described,) = json.loads(out.getvalue())["files"]
            assert (described["n_channels"], described["n_samples"], described["sample_rate"]) == (4, 7, 48000)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("extensible", [False, True])
    def test_non_finite_float64_sample_names_file(self, tmp_path, value, extensible):
        frames = np.zeros((300, 4))
        frames[129, 2] = value
        path = tmp_path / "nan64.wav"
        if extensible:
            path.write_bytes(extensible_wav(frames, 1000, 3, 64, frames.tobytes()))
        else:
            path.write_bytes(riff((b"fmt ", fmt_body("float64", 4, 1000)), (b"data", frames.tobytes())))
        for reader in (read_wav, *FOA_READERS.values()):
            with pytest.raises(WavFormatError, match=f"^{re.escape(str(path))}: samples must be finite$"):
                reader(path)
        assert describe_file(path)["n_samples"] == 300  # info reads the header only

    @pytest.mark.parametrize("value", [3.5e38, -1e300])
    def test_float64_sample_past_the_float32_range_names_file(self, tmp_path, value):
        # Its square would overflow the moment sums (1e300), or it could not be written as float32 (3.5e38).
        frames = np.zeros((300, 4))
        frames[129, 2] = value
        path = tmp_path / "huge64.wav"
        path.write_bytes(riff((b"fmt ", fmt_body("float64", 4, 1000)), (b"data", frames.tobytes())))
        want = f"{path}: samples must lie within the float32 range"
        for reader in (read_wav, *FOA_READERS.values()):
            with pytest.raises(WavFormatError, match=f"^{re.escape(want)}$"):
                reader(path)
        frames[129, 2] = np.copysign(float(np.finfo(np.float32).max), value)  # the edge itself is read
        path.write_bytes(riff((b"fmt ", fmt_body("float64", 4, 1000)), (b"data", frames.tobytes())))
        assert read_wav(path)[0][2, 129] == frames[129, 2]
        assert np.all(np.isfinite(read_foa_summary(path, window_moments).whole))

    def test_other_formats_list_the_supported_ones(self, tmp_path):
        path = tmp_path / "pcm8.wav"
        path.write_bytes(riff((b"fmt ", struct.pack("<HHIIHH", 1, 4, 100, 400, 4, 8)), (b"data", bytes(8))))
        want = "unsupported format tag 1 with 8 bits (need 16-, 24- or 32-bit PCM or 32- or 64-bit float)"
        with pytest.raises(WavFormatError, match=f"^{re.escape(str(path))}: {re.escape(want)}$"):
            read_wav(path)


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


def moments_oracle(samples, rate):
    """Window moments from the whole float64 clip: 200 ms blocks, the whole
    clip as all blocks then the tail, and 1000 ms windows as five blocks or,
    when the rate does not divide by 5, as 1000 ms blocks."""
    n, length = samples.shape[1], max(1, rate // 5)
    blocks = block_moments(samples, length)
    tail = samples[:, blocks.shape[0] * length :]
    whole = blocks.sum(axis=0) + block_moments(tail, max(1, tail.shape[1])).sum(axis=0)
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
        for summarize in (window_moments, clip_stats, window_sums)
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
    ("64-bit pcm", lambda b: b[:20] + struct.pack("<H", 1) + b[22:34] + struct.pack("<H", 64) + b[36:]),
    ("block align", lambda b: b[:32] + struct.pack("<H", 12) + b[34:]),
    ("byte rate", lambda b: b[:28] + struct.pack("<I", 44100 * 16 + 1) + b[32:]),
    ("ragged data", lambda b: with_data_size(b, 4 * 16 - 2)),
    ("empty data", lambda b: with_data_size(b, 0)),
    ("short extensible fmt", lambda b: b[:20] + struct.pack("<H", 0xFFFE) + b[22:]),
    ("adpcm subformat", lambda b: extensible_wav(np.zeros((4, 4), "<i2"), 44100, 2, 16, bytes(32))),
    ("guid tail", lambda b: extensible_wav(np.zeros((4, 4), "<f4"), 44100, 3, 32, bytes(64))[:59] + b"\xff"),
]


class TestWavWalker:
    @pytest.mark.parametrize("kind", WAV_KINDS)
    def test_readers_decode_channel_major_float64(self, tmp_path, kind):
        # Channel-major rows are what block_moments runs its gemm on without a copy.
        path = tmp_path / "clip.wav"
        payload = random_payload(np.random.default_rng(7), kind, 25)
        path.write_bytes(riff((b"fmt ", fmt_body(kind, 4, 10)), (b"data", payload)))
        samples, _ = read_wav(path)
        with read_wav_slabs(path, 4) as (_, slabs):
            decoded = [samples, *slabs]
        assert len(decoded) == 4
        for got in decoded:
            assert got.dtype == np.float64 and got.flags.c_contiguous

    @pytest.mark.parametrize("kind", WAV_KINDS)
    def test_slabs_reuse_one_buffer_and_whole_reads_are_fresh(self, tmp_path, kind):
        # 25 frames at 10 Hz: two whole slabs, then a short one, each taken before the next is decoded.
        path = tmp_path / "clip.wav"
        payload = random_payload(np.random.default_rng(8), kind, 25)
        path.write_bytes(riff((b"fmt ", fmt_body(kind, 4, 10)), (b"data", payload)))
        samples, _ = read_wav(path)
        with read_wav_slabs(path, 4) as (_, slabs):
            taken = []
            for slab in slabs:
                assert not taken or np.shares_memory(slab, taken[-1])
                assert np.array_equal(slab, samples[:, 10 * len(taken) : 10 * len(taken) + 10])
                taken.append(slab)
        assert [slab.shape for slab in taken] == [(4, 10), (4, 10), (4, 5)] and taken[-1].flags.c_contiguous
        for read in (lambda p: read_wav(p)[0], lambda p: read_foa_wav(p).samples):
            first, second = read(path), read(path)
            assert not np.shares_memory(first, second) and not np.shares_memory(first, samples)

    @pytest.mark.parametrize("kind", ["float32", "pcm16", "ext-pcm24"])
    def test_file_cut_short_while_read_names_file(self, tmp_path, kind):
        # 24,000 frames at 8 kHz, cut to 15,900 after the first slab is taken: the header was
        # checked against the whole file, so only the short read can see it.
        path = tmp_path / "cut.wav"
        payload = random_payload(np.random.default_rng(9), kind, 24000)
        path.write_bytes(riff((b"fmt ", fmt_body(kind, 4, 8000)), (b"data", payload)))
        with read_wav_slabs(path, 4) as (header, slabs):
            assert next(slabs).shape == (4, 8000)
            os.truncate(path, header.offset + len(payload) // 24000 * 15900)
            want = f"{path}: data chunk cut short: 15900 of 24000 frames"
            with pytest.raises(WavFormatError, match=f"^{re.escape(want)}$"):
                next(slabs)

    @settings(max_examples=200, deadline=None)
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
        with read_wav_slabs(path, 4) as (header, _):
            assert header[:3] == (4, rate, frames)
        moments = read_foa_summary(path, window_moments)
        assert (moments.n_samples, moments.sample_rate) == (frames, rate)
        for got, want in zip((moments.whole, moments.seconds, moments.blocks), moments_oracle(samples, rate)):
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    @settings(max_examples=200, deadline=None)
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
        edges=st.tuples(st.integers(0, 2**20), st.integers(0, 2**20)),
    )
    def test_any_whole_second_cut_gives_the_same_summary(
        self, tmp_path_factory, rate, frames, cuts, slab_seconds, contiguous, seed, edges
    ):
        # Uneven whole-second slabs from a one-shot iterator, the last one shorter,
        # and the file streamed at each slab size: bit for bit the one-slab clip.
        path = tmp_path_factory.mktemp("cuts") / "clip.wav"
        payload = random_payload(np.random.default_rng(seed), "float32", frames)
        path.write_bytes(riff((b"fmt ", fmt_body("float32", 4, rate)), (b"data", payload)))
        clip = read_foa_wav(path)
        samples = np.ascontiguousarray(clip.samples) if contiguous else clip.samples
        bounds = [0, *(int(end) for end in np.cumsum(cuts) * rate if end < frames), frames]
        # Any window: it may cross slab edges, lie in one second or end in the tail.
        start = edges[0] % frames
        window = (start, start + 1 + edges[1] % (frames - start))
        fields = {
            window_moments: ("whole", "seconds", "blocks"),
            clip_stats: ("whole", "abs_means", "w_squares"),
            window_sums: ("whole", "sums"),
            partial(window_sums, window=window): ("whole", "sums"),
        }
        for summarize, names in fields.items():
            want = summarize([clip.samples], frames, rate)
            slabs = (samples[:, lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]))
            with mock.patch.object(tensor_io, "_SLAB_SECONDS", slab_seconds):
                streamed = read_foa_summary(path, summarize)
            for got in (summarize(slabs, frames, rate), streamed):
                for name in names:
                    assert getattr(got, name).shape == getattr(want, name).shape
                    assert np.array_equal(getattr(got, name), getattr(want, name))
        assert read_foa_summary(path, partial(window_sums, window=window)).window == window
        oracle = moments_oracle(clip.samples, rate)
        want = window_moments([clip.samples], frames, rate)
        assert all(np.array_equal(a, b) for a, b in zip((want.whole, want.seconds, want.blocks), oracle))

    @pytest.mark.parametrize(
        "summarize",
        [window_moments, clip_stats, window_sums, "across", "tail"],
        ids=["window_moments", "clip_stats", "window_sums", "window_sums-across", "window_sums-tail"],
    )
    @pytest.mark.parametrize("rate", [7, 44100, 44101])
    def test_each_file_is_decoded_once(self, tmp_path, monkeypatch, summarize, rate):
        # Windows across two slab edges, and from the third second into the two-frame tail.
        windows = {"across": (rate // 2, 2 * rate + 1), "tail": (2 * rate + 3, 3 * rate + 1)}
        window = windows.get(summarize)
        if window:
            summarize = partial(window_sums, window=window)
        path = tmp_path / "clip.wav"
        write_wav(np.random.default_rng(rate).normal(size=(4, 3 * rate + 2)), rate, path)
        want = summarize([read_foa_wav(path).samples], 3 * rate + 2, rate)
        decode, walks, kernel_inputs = tensor_io._wav_slabs, [], []

        def reusing(handle, header, size):
            # A decoder that reuses its buffer: the slab it yielded last turns to NaN when
            # the next is taken, so a summary that keeps a view of it past that point shows.
            # Each slab is copied first, as the real decoder's own buffer is the next slab.
            walks.append(size)
            previous = None
            for slab in decode(handle, header, size):
                slab = slab.copy()
                if previous is not None:
                    previous.fill(np.nan)
                yield slab
                previous = slab

        def spy(samples, length):
            kernel_inputs.append(np.array(samples))
            return block_moments(samples, length)

        monkeypatch.setattr(tensor_io, "_wav_slabs", reusing)
        monkeypatch.setattr(foa, "block_moments", spy)
        summary = read_foa_summary(path, summarize)
        assert walks == [rate]  # one walk, one second per slab
        assert all(np.array_equal(got, expected) for got, expected in zip(summary, want, strict=True))
        if window:  # a slab wholly outside the window never reaches the moment kernel, which would see only zeros
            assert all(np.any(samples) for samples in kernel_inputs if samples.size)

    @pytest.mark.parametrize("name, mutate", HEADER_MUTATIONS, ids=[m[0] for m in HEADER_MUTATIONS])
    def test_header_errors_agree_across_readers(self, tmp_path, capsys, name, mutate):
        path = tmp_path / "bad.wav"
        write_wav(np.zeros((4, 16)), 44100, path)
        path.write_bytes(mutate(path.read_bytes()))
        outcomes = []
        for reader in (read_wav, describe_file, *FOA_READERS.values()):
            with pytest.raises(WavFormatError) as info:
                reader(path)
            outcomes.append((type(info.value), str(info.value)))
        assert len(set(outcomes)) == 1
        assert outcomes[0][1].startswith(f"{path}: ")
        blob = path.read_bytes()
        if blob[:4] == b"RIFF" or blob[8:12] == b"WAVE":  # info reads other files as tensors
            assert main(["info", str(path)]) == 2
            assert capsys.readouterr().err == f"error: {outcomes[0][1]}\n"

    @settings(max_examples=750, deadline=None)
    @given(
        kind=st.sampled_from(["ext-float32", "ext-float64", "ext-pcm32", "float64", "pcm32"]),
        cut=st.integers(0, 120),
        at=st.integers(0, 80),
        value=st.binary(min_size=1, max_size=4),
    )
    def test_mangled_headers_give_one_outcome(self, tmp_path_factory, kind, cut, at, value):
        dtype = {"float32": "<f4", "float64": "<f8", "pcm32": "<i4"}[kind.rpartition("-")[2]]
        frames = np.arange(40, dtype=dtype).reshape(10, 4)
        chunks = (b"junk", b"abc"), (b"fmt ", fmt_body(kind, 4, 50)), (b"data", frames.tobytes())
        blob = bytearray(riff(*chunks))
        blob[at : at + len(value)] = value
        path = tmp_path_factory.mktemp("mangled") / "m.wav"
        path.write_bytes(bytes(blob[: len(blob) - cut]))
        try:
            samples, rate = read_wav(path)  # a header error, or one slab of a checked header
        except WavFormatError as exc:
            for reader in FOA_READERS.values():
                with pytest.raises(WavFormatError, match="^" + re.escape(str(exc)) + "$"):
                    reader(path)
            return
        described = describe_file(path)
        assert samples.shape == (described["n_channels"], described["n_samples"])
        assert rate == described["sample_rate"]
        for reader in FOA_READERS.values():
            try:
                reader(path)
            except WavFormatError as exc:
                assert samples.shape[0] != 4 or str(exc) == f"{path}: samples must be finite"

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), pytest.param(struct.pack("<I", 0x7F800001), id="signalling-nan")]
    )
    @pytest.mark.parametrize(
        "reader",
        [
            *FOA_READERS.values(),
            *(partial(read_foa_summary, summarize=partial(window_sums, window=w)) for w in [(0, 100), (200, 300)]),
            read_wav,
        ],
        ids=[*FOA_READERS, "window_sums-before-the-sample", "window_sums-after-the-sample", "read_wav"],
    )
    def test_non_finite_sample_names_file(self, tmp_path, reader, value):
        # Among zeros, an infinite sample makes "invalid" products, which must not warn.
        path = tmp_path / "nan.wav"
        write_wav(np.zeros((4, 300)), 1000, path)
        set_float32_sample(path, 517, value)  # frame 129, outside both windows
        with pytest.raises(WavFormatError, match=f"^{re.escape(str(path))}: samples must be finite$"):
            reader(path)

    @pytest.mark.parametrize(
        "summarize",
        [window_moments, clip_stats, window_sums, partial(window_sums, window=(0, 500))],
        ids=["window_moments", "clip_stats", "window_sums", "window_sums-before-the-sample"],
    )
    def test_walk_stops_at_the_slab_with_a_non_finite_sample(self, tmp_path, monkeypatch, summarize):
        # Frame 987 of 1,234 at 100 Hz lies in the tenth of thirteen one-second slabs.
        path = tmp_path / "nan.wav"
        write_wav(np.full((4, 1234), 0.1), 100, path)
        set_float32_sample(path, 4 * 987 + 2, float("nan"))
        decode, yielded = tensor_io._wav_slabs, []

        def spy(handle, header, size):
            for slab in decode(handle, header, size):
                yielded.append(slab.shape[1])
                yield slab

        monkeypatch.setattr(tensor_io, "_wav_slabs", spy)
        with pytest.raises(WavFormatError, match=f"^{re.escape(str(path))}: samples must be finite$"):
            read_foa_summary(path, summarize)
        assert yielded == [100] * 9

    @pytest.mark.parametrize("kind", ["pcm16", "pcm24", "pcm32", "ext-pcm16", "ext-pcm24", "ext-pcm32"])
    def test_full_scale_pcm_is_never_refused(self, tmp_path, kind):
        # Both ends of the integer range, in every channel, over three slabs.
        bits = int(kind[-2:])
        low, high = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
        ints = np.resize([low, high, 0, low, high, -1, high, low], (250, 4))
        payload = pcm24_bytes(ints) if bits == 24 else ints.astype(f"<i{bits // 8}").tobytes()
        path = tmp_path / "full.wav"
        path.write_bytes(riff((b"fmt ", fmt_body(kind, 4, 100)), (b"data", payload)))
        samples, _ = read_wav(path)
        assert np.array_equal(samples, ints.T / high)
        assert (samples.min(), samples.max()) == (low / high, 1.0)
        for reader in FOA_READERS.values():
            reader(path)


class TestExportsAndAtomicity:
    def test_pgm_header_and_size(self, tmp_path):
        path = tmp_path / "map.pgm"
        write_pgm(np.arange(12.0).reshape(3, 4), path)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n4 3\n255\n")
        assert len(blob) == len(b"P5\n4 3\n255\n") + 12

    @pytest.mark.parametrize("value", [0.0, -2.5])
    def test_pgm_of_a_flat_map_is_black(self, tmp_path, value):
        # A silent map (or any constant one at or below zero) has no span to scale.
        path = tmp_path / "map.pgm"
        write_pgm(np.full((3, 4), value), path)
        assert path.read_bytes() == b"P5\n4 3\n255\n" + bytes(12)

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


def test_summaries_leave_the_slab_walk_to_walk_moments():
    # foa.walk_moments alone joins slabs and adds up the whole moment, so a summary that
    # takes block moments of its own would keep a second copy of that rule.
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "foatools"
    modules = ("curation.py", "foa.py", "spatial_metrics.py")
    trees = {module: ast.parse((package / module).read_text()) for module in modules}

    def calls(tree, name):
        """(enclosing function, source) of every call of ``name`` in a module."""
        return [
            (function.name, ast.unparse(call))
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef)
            for call in ast.walk(function)
            if isinstance(call, ast.Call) and name in (getattr(call.func, "id", None), getattr(call.func, "attr", None))
        ]

    assert calls(trees["curation.py"], "block_moments") == []
    # The one call left: per-slab 1000 ms moments, under ``if split:`` (the rate does not divide by 5).
    assert calls(trees["spatial_metrics.py"], "block_moments") == [("window_moments", "block_moments(slab, sample_rate)")]
    branches = [node for node in ast.walk(trees["spatial_metrics.py"]) if isinstance(node, ast.If)]
    (branch,) = [node for node in branches if ast.unparse(node.test) == "split"]
    assert "block_moments(slab, sample_rate)" in ast.unparse(branch.body)
    for module, summary in zip(modules, ("clip_stats", "window_sums", "window_moments")):
        assert [function for function, _ in calls(trees[module], "walk_moments")] == [summary]
    # The walk takes no window: window_sums alone skips and masks its slabs, by comparing
    # sample positions (np.arange) with the window's ends.
    functions = [node for node in ast.walk(trees["foa.py"]) if isinstance(node, ast.FunctionDef)]
    (walk,) = [function for function in functions if function.name == "walk_moments"]
    assert [arg.arg for arg in walk.args.args] == ["slabs", "length"]
    assert not (walk.args.vararg or walk.args.kwonlyargs or walk.args.kwarg)
    assert not any(isinstance(node, ast.Continue) for node in ast.walk(walk))
    nested = {inner for outer in functions for inner in ast.walk(outer) if inner is not outer and inner in functions}
    masks = [
        function.name
        for function in functions
        if function not in nested
        and any(isinstance(node, ast.Compare) and "arange" in ast.unparse(node) for node in ast.walk(function))
    ]
    assert masks == ["window_sums"]


def test_a_clip_reaches_its_summary_through_foa_summary():
    # foa.summary alone summarizes a FoaClip as one slab, ``[clip.samples]``; the map and the
    # metric, and the three curation filters, call it, and curation builds no WindowSums of its own.
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "foatools"
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    functions = [(name, node) for name, tree in trees.items() for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]

    def one_slab(node):
        return [
            item
            for item in ast.walk(node)
            if isinstance(item, ast.List) and len(item.elts) == 1 and getattr(item.elts[0], "attr", None) == "samples"
        ]

    (home,) = [node for name, node in functions if name == "foa.py" and node.name == "summary"]
    assert [ast.unparse(item) for tree in trees.values() for item in one_slab(tree)] == ["[clip.samples]"]
    assert one_slab(home)
    callers = sorted(
        (name, node.name)
        for name, node in functions
        if any(isinstance(call, ast.Call) and getattr(call.func, "id", None) == "summary" for call in ast.walk(node))
    )
    assert callers == [
        ("curation.py", "amplitude_gate"),
        ("curation.py", "fov_center"),
        ("curation.py", "segment_mask"),
        ("foa.py", "energy_map"),
        ("spatial_metrics.py", "evaluate_windows"),
    ]
    # Neither imported (an alias's name) nor read (a Name's id).
    assert "WindowSums" not in {getattr(node, "id", getattr(node, "name", None)) for node in ast.walk(trees["curation.py"])}


def test_wav_samples_are_checked_in_one_place():
    # The slab decoder refuses a non-finite sample before its cast, so the format layer
    # needs no numpy error state, and the CLI checks no sample itself.
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "foatools"

    def numpy_names(module):
        """Every ``np.<name>`` a module uses, and every name it imports from numpy."""
        found = set()
        for node in ast.walk(ast.parse((package / module).read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "np":
                found.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
                found |= {alias.name for alias in node.names}
        return found

    assert "isfinite" in numpy_names("tensor_io.py") and "errstate" not in numpy_names("tensor_io.py")
    assert "isfinite" not in numpy_names("cli.py")


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda path: write_tensor(np.zeros((2, 0)), path), ValueError,
         "tensors must have at least one element along every axis"),
        (lambda path: write_tensor(np.float32(1.0), path), ValueError,
         "tensors must have at least one element along every axis"),
        (lambda path: write_tensor(np.ones(3, dtype=bool), path), ValueError, "unsupported tensor dtype bool"),
        (lambda path: write_tensor(np.ones(3, dtype=complex), path), ValueError, "unsupported tensor dtype complex128"),
        (lambda path: write_code_matrix("codes", path), TypeError, "expected CodeMatrix or ReorgMatrix, got <class 'str'>"),
        (lambda path: write_wav(np.zeros((4, 3)), 10, path, encoding="pcm24"), ValueError,
         "encoding must be one of ('float32', 'pcm16'), got 'pcm24'"),
        (lambda path: write_wav_slabs([np.zeros((4, 3))], 4, 10, 3, path, "f32"), ValueError,
         "encoding must be one of ('float32', 'pcm16'), got 'f32'"),
        (lambda path: write_pgm(np.zeros(3), path), ValueError, "PGM export needs a nonempty 2-D array"),
        (lambda path: write_pgm(np.zeros((0, 3)), path), ValueError, "PGM export needs a nonempty 2-D array"),
    ],
    ids=["tensor-empty-axis", "tensor-0-d", "tensor-bool", "tensor-complex", "code-matrix-type", "wav-encoding",
         "wav-slabs-encoding", "pgm-1-d", "pgm-empty"],
)
def test_writers_refuse_before_they_write(tmp_path, call, error, message):
    path = tmp_path / "out"
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(path)
    assert list(tmp_path.iterdir()) == []
