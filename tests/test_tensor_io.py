import struct

import numpy as np
import pytest

from foatools import CodeMatrix, EnergyMap, FoaClip, Pattern, SphereGrid, pack
from foatools.errors import (
    HeaderParseError,
    PayloadSizeError,
    UnknownDtypeError,
    WavFormatError,
)
from foatools.tensor_io import (
    atomic_write,
    read_code_matrix,
    read_foa_wav,
    read_tensor,
    read_wav,
    write_code_matrix,
    write_energy_map_csv,
    write_energy_map_pgm,
    write_foa_wav,
    write_pgm,
    write_tensor,
    write_wav,
)


class TestTensorFiles:
    def test_f32_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        tensor = rng.normal(size=(4, 7, 7, 16)).astype(np.float32)
        path = tmp_path / "a.tensor"
        write_tensor(tensor, path)
        back = read_tensor(path)
        assert back.dtype == np.float32
        assert np.array_equal(back, tensor)

    def test_u16_round_trip_with_sentinel(self, tmp_path):
        rng = np.random.default_rng(1)
        vocab = 1024
        tensor = rng.integers(0, vocab + 1, size=(36, 50)).astype(np.uint16)
        tensor[0, 0] = vocab  # the padding sentinel itself must survive
        path = tmp_path / "codes.tensor"
        write_tensor(tensor, path)
        back = read_tensor(path)
        assert back.dtype == np.uint16
        assert np.array_equal(back, tensor)

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
