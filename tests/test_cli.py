import ast
import concurrent.futures
import contextlib
import dataclasses
import io
import json
import math
import os
import pathlib
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from foatools import (
    CodeMatrix,
    Direction,
    FoaClip,
    GuidanceConfig,
    Pattern,
    ReorgMatrix,
    Rotation,
    SpatialReport,
    SphereGrid,
    TablePredictor,
    decode_to_mono,
    encode_mono,
    energy_from_scores,
    fov_center,
    pack,
    rotate,
)
from foatools import cli, tensor_io
from foatools.cli import _load_manifest, main
from foatools.errors import FoaToolsError
from foatools.foa import energy_map
from foatools.tensor_io import (
    read_code_matrix,
    read_foa_wav,
    read_tensor,
    read_wav,
    write_code_matrix,
    write_pgm,
    write_tensor,
    write_wav,
)
from helpers import (
    WAV_KINDS,
    extensible_wav,
    fmt_body,
    generate_allocating,
    patch_scores_clamped,
    pcm24_wav,
    random_payload,
    riff,
    set_float32_sample,
    write_foa_wav,
)

SQRT2 = math.sqrt(2.0)

# Every file reader that foatools.cli imports; the tests that refuse reads patch them all.
CLI_READERS = ("describe_file", "read_code_matrix", "read_foa_summary", "read_tensor", "read_wav_slabs")


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def read_rows(path):
    return [json.loads(line) for line in path.read_text().strip().splitlines()]


def run_manifest(capsys, out_path, *argv):
    """Run a manifest subcommand at --jobs 1 and at --jobs 2.

    Both runs must exit alike, write byte-identical NDJSON, print the same
    stderr, and print the same stdout once the output path is normalised.
    Returns the exit code, stdout and stderr of the --jobs 1 run, whose rows
    are in out_path.
    """
    first = run(capsys, *argv, "--out", out_path, "--jobs", 1)
    twin = out_path.with_name(out_path.name + ".jobs2")
    code, out, err = run(capsys, *argv, "--out", twin, "--jobs", 2)
    assert twin.read_bytes() == out_path.read_bytes()
    assert (code, out.replace(str(twin), str(out_path)), err) == first
    return first


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1
        assert "usage error" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "info", "--wat", "x")
        assert code == 1

    def test_missing_file_is_data_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "info", tmp_path / "absent.wav")
        assert code == 2
        assert "error" in err

    def test_bad_direction_is_usage_error(self, capsys, tmp_path):
        wav = tmp_path / "in.wav"
        write_wav(np.zeros(16), 8000, wav)
        code, _, err = run(capsys, "encode", "--dir", "oops", wav, tmp_path / "out.wav")
        assert code == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(argv, message, id=" ".join(argv))
            for argv, message in [
                (["energy-map", "--grid", "8", "IN"], "grid must be 'BANDSxAZIMUTHS', e.g. 32x64, got '8'"),
                (["energy-map", "--window", "x", "IN"], "window must be 'START:END' in samples, got 'x'"),
                (["encode", "--dir", "1,x", "IN", "OUT"], "direction components must be numbers, got '1,x'"),
                (["decode", "--dir", "0,2", "IN", "OUT"], "elevation must lie in [-pi/2, pi/2], got 2.0"),
                (["rotate", "--matrix", "1,2", "IN", "OUT"], "matrix needs 9 comma-separated row-major entries"),
                (["rotate", "--matrix", "1,0,0,0,1,0,0,0,x", "IN", "OUT"], "matrix entries must be numbers"),
                (["rotate", "--matrix", "1,0,0,0,1,0,0,0,2", "IN", "OUT"],
                 "not a proper rotation (orthogonality error 3.000e+00, determinant error 1.000e+00)"),
                (["rotate", "--matrix", "2,0,0,0,2,0,0,0,2", "IN", "OUT"],
                 "not a proper rotation (orthogonality error 3.000e+00, determinant error 7.000e+00)"),
                (["rotate", "--z-degrees", "nan", "IN", "OUT"], "argument --z-degrees: must be finite, got nan"),
                (["curate", "--grid", "0x4", "--rms-threshold", "0.1", "--manifest", "IN", "--out", "OUT"],
                 "grid must be 'BANDSxAZIMUTHS' with positive counts, got '0x4'"),
                (["eval-spatial", "--manifest", "IN"], "--manifest mode needs --out for the NDJSON results"),
                (["eval-spatial", "--manifest", "IN", "--out", "OUT", "IN", "IN"],
                 "give either a gen/gt pair or --manifest, not both"),
                (["eval-spatial", "IN"], "need generated and reference WAV paths (or --manifest)"),
                (["eval-spatial", "--manifest", "IN", "--out", "OUT", "--csv", "OUT"],
                 "--csv goes with a gen/gt pair, not --manifest"),
                (["eval-spatial", "IN", "IN", "--out", "OUT"], "--out goes with --manifest only"),
                (["eval-spatial", "IN", "--out", "OUT"], "need generated and reference WAV paths (or --manifest)"),
                (["eval-spatial", "--manifest", "IN", "--out", "OUT", "IN", "--csv", "OUT"],
                 "give either a gen/gt pair or --manifest, not both"),
                (["eval-semantic", "--manifest", "IN", "--out", "OUT",
                  "--gen-features", "IN", "--gt-features", "IN"],
                 "give either feature, probability or channel inputs or --manifest, not both"),
                (["eval-semantic", "--manifest", "IN", "--out", "OUT", "--channels", "IN"],
                 "give either feature, probability or channel inputs or --manifest, not both"),
                (["eval-semantic", "--gen-probs", "IN", "--gt-probs", "IN", "--out", "OUT"],
                 "--out goes with --manifest only"),
                (["eval-semantic", "--channels", "IN", "--out", "OUT"], "--out goes with --manifest only"),
                (["eval-semantic", "--out", "OUT"], "--out goes with --manifest only"),
                (["eval-spatial", "IN", "IN", "--jobs", "4"], "--jobs goes with --manifest only"),
                (["eval-semantic", "--gen-probs", "IN", "--gt-probs", "IN", "--jobs", "1"],
                 "--jobs goes with --manifest only"),
                (["pattern", "unpack", "--pattern", "residual_only", "IN", "OUT"],
                 "--pattern goes with pack only; unpack reads it from the file header"),
            ]
        ],
    )
    def test_flag_errors_come_before_any_read(self, capsys, tmp_path, monkeypatch, argv, message):
        def refuse(path, *rest):
            raise AssertionError(f"{argv[0]} read {path} before checking its flags")

        for reader in CLI_READERS:
            monkeypatch.setattr(f"foatools.cli.{reader}", refuse)
        paths = {"IN": tmp_path / "missing", "OUT": tmp_path / "out"}
        code, out, err = run(capsys, *(paths.get(arg, arg) for arg in argv))
        assert (code, out, err) == (1, "", f"usage error: {message}\n")
        assert not paths["OUT"].exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(["eval-semantic", "--gen-features", "BAD", "--gt-features", "GOOD"],
                         "BAD: feature tensors must be 2-D, got shape (2, 3, 4)", id="features-3d"),
            pytest.param(["eval-semantic", "--gen-probs", "BAD", "--gt-probs", "GOOD"],
                         "BAD and GOOD hold mismatched shapes (2, 3, 4) vs (4, 3)", id="probs-mismatched"),
            pytest.param(["eval-semantic", "--gen-probs", "BAD", "--gt-probs", "BAD"],
                         "BAD: probability tensors must be 1-D or 2-D", id="probs-3d"),
            pytest.param(["eval-semantic", "--channels", "BAD"], "BAD: bad JSON: ", id="channels-not-json"),
            pytest.param(["patch-energy", "BAD", "OUT"], "BAD: patch embeddings must be 4-D, got shape (2, 3, 4)",
                         id="embeddings-3d"),
            pytest.param(["pattern", "pack", "BAD", "OUT"], "BAD: already pattern-scheduled; unpack it first",
                         id="pack-scheduled"),
            pytest.param(["generate", "--table", "BAD", "OUT"], "BAD: table predictor needs a raw code matrix",
                         id="generate-scheduled"),
            pytest.param(["energy-map", "--window", "0:99999999", "BAD"],
                         "BAD: window [0, 99999999) invalid for clip of 100 samples", id="window-past-the-clip"),
        ],
    )
    def test_data_errors_name_the_file(self, capsys, tmp_path, argv, message):
        paths = {"BAD": tmp_path / "bad", "GOOD": tmp_path / "good.t", "OUT": tmp_path / "out"}
        bad = paths["BAD"]
        write_tensor(np.ones((4, 3), dtype=np.float32), paths["GOOD"])
        if argv[0] in ("pattern", "generate"):
            write_code_matrix(pack(CodeMatrix(np.zeros((4, 2), dtype=np.int64), 1, 5), Pattern.PROPOSED), bad)
        elif argv[0] == "energy-map":
            write_foa_wav(FoaClip(np.ones((4, 100)), 8000), bad)
        elif "--channels" in argv:
            bad.write_text("{W: 1}")
        else:
            write_tensor(np.ones((2, 3, 4), dtype=np.float32), bad)
        code, out, err = run(capsys, *(paths.get(arg, arg) for arg in argv))
        assert (code, out) == (2, "")
        for name, path in paths.items():
            message = message.replace(name, str(path))
        assert err.startswith(f"error: {message}")
        assert not paths["OUT"].exists()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["encode", "--help"])
        assert info.value.code == 0
        assert "azimuth" in capsys.readouterr().out


def test_cli_imports_no_whole_clip_reader():
    # Every command streams its audio: cli names no reader that decodes a whole clip,
    # and CLI_READERS, which the read-refusing tests patch, holds every reader it names.
    names = set()
    for node in ast.walk(ast.parse(pathlib.Path(cli.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert not names & {"read_foa_wav", "read_wav"}
    assert {name for name in names if name.startswith("read_")} | {"describe_file"} == set(CLI_READERS)


class TestEncodeDecode:
    def test_round_trip_gain(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        signal = rng.normal(size=256)
        src = tmp_path / "in.wav"
        write_wav(signal.astype(np.float32).astype(np.float64), 44100, src)
        foa = tmp_path / "foa.wav"
        back = tmp_path / "back.wav"
        code, out, _ = run(capsys, "encode", "--dir", "0,0", src, foa)
        assert code == 0 and last_json(out)["n_samples"] == 256
        code, out, _ = run(capsys, "decode", "--dir", "0,0", foa, back)
        assert code == 0
        decoded, rate = read_wav(back)
        original, _ = read_wav(src)
        assert rate == 44100
        assert np.allclose(decoded[0], original[0] * (1 / SQRT2 + 1), atol=1e-6)

    def test_degrees_flag(self, capsys, tmp_path):
        src = tmp_path / "in.wav"
        write_wav(np.ones(8), 8000, src)
        out_wav = tmp_path / "foa.wav"
        code, out, _ = run(capsys, "encode", "--dir", "90,0", "--degrees", src, out_wav)
        assert code == 0
        assert last_json(out)["direction"]["azimuth"] == pytest.approx(math.pi / 2)

    def test_encode_rejects_multichannel_input(self, capsys, tmp_path):
        src = tmp_path / "quad.wav"
        write_wav(np.zeros((4, 16)), 8000, src)
        code, _, err = run(capsys, "encode", "--dir", "0,0", src, tmp_path / "out.wav")
        assert code == 2
        assert "mono" in err


    def test_header_field_past_u32_names_the_output(self, capsys, tmp_path):
        # A mono pcm16 input at 2**30 Hz holds its byte rate, 2**31; the 4-channel output's does not fit u32.
        src, dst = tmp_path / "in.wav", tmp_path / "out.wav"
        src.write_bytes(riff((b"fmt ", fmt_body("pcm16", 1, 2**30)), (b"data", bytes(32))))
        code, out, err = run(capsys, "encode", "--dir", "0,0", src, dst)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {dst}: WAV header field out of range")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.wav"]

    @pytest.mark.parametrize("argv", [["info"], ["rotate", "--z-quarters", "1"], ["decode", "--dir", "0,0"]])
    def test_inconsistent_byte_rate_names_the_input(self, capsys, tmp_path, argv):
        # A byte rate one past sample rate x block align: read from the input, refused before any output.
        src, dst = tmp_path / "in.wav", tmp_path / "out.wav"
        fmt = fmt_body("pcm16", 4, 8000)
        src.write_bytes(riff((b"fmt ", fmt[:8] + struct.pack("<I", 8000 * 8 + 1) + fmt[12:]), (b"data", bytes(64))))
        code, out, err = run(capsys, *argv, src, *([dst] if argv != ["info"] else []))
        assert (code, out) == (2, "")
        assert err == f"error: {src}: byte rate 64001 inconsistent with format\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.wav"]


class TestRotate:
    def test_quarter_turn_matches_channel_shuffle(self, capsys, tmp_path):
        rng = np.random.default_rng(1)
        clip = FoaClip(rng.normal(size=(4, 64)), 44100)
        src, dst = tmp_path / "a.wav", tmp_path / "b.wav"
        write_foa_wav(clip, src)
        code, _, _ = run(capsys, "rotate", "--z-quarters", 1, src, dst)
        assert code == 0
        rotated = read_foa_wav(dst)
        assert np.allclose(rotated.samples[1], -clip.samples[2], atol=1e-7)

    def test_matrix_flag(self, capsys, tmp_path):
        src, dst = tmp_path / "a.wav", tmp_path / "b.wav"
        write_foa_wav(FoaClip(np.ones((4, 8)), 8000), src)
        code, _, _ = run(capsys, "rotate", "--matrix", "1,0,0,0,1,0,0,0,1", src, dst)
        assert code == 0

    @pytest.mark.parametrize("encoding", ["float32", "pcm16"])
    @pytest.mark.parametrize(
        "argv, channels, whole_clip",
        [
            (
                ["rotate", "--z-degrees", "33.5"], 4,
                lambda src: rotate(read_foa_wav(src), Rotation.about_z(math.radians(33.5))).samples,
            ),
            (
                ["rotate", "--z-quarters", "3"], 4,
                lambda src: rotate(
                    read_foa_wav(src), Rotation(np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
                ).samples,
            ),
            (
                ["rotate", "--matrix", "0.6,-0.8,0,0.8,0.6,0,0,0,1"], 4,
                lambda src: rotate(
                    read_foa_wav(src), Rotation(np.array([[0.6, -0.8, 0.0], [0.8, 0.6, 0.0], [0.0, 0.0, 1.0]]))
                ).samples,
            ),
            (
                ["encode", "--dir", "200,45", "--degrees"], 1,
                lambda src: encode_mono(
                    read_wav(src)[0][0], Direction(math.radians(200), math.radians(45)), 100
                ).samples,
            ),
            (
                ["decode", "--dir", "0.5,0.1"], 4,
                lambda src: decode_to_mono(read_foa_wav(src), Direction(0.5, 0.1)),
            ),
        ],
        ids=["z-degrees", "z-quarters", "matrix", "encode", "decode"],
    )
    @pytest.mark.parametrize("source", ["float32", "pcm24"])
    def test_streamed_output_matches_the_clip_path(
        self, capsys, tmp_path, source, argv, channels, whole_clip, encoding
    ):
        # Each streamed transform against its whole-clip library call. 1,234
        # frames at 100 Hz: thirteen slabs, the last one partial.
        rng = np.random.default_rng(3)
        src, dst, want = tmp_path / "in.wav", tmp_path / "out.wav", tmp_path / "want.wav"
        if source == "pcm24":
            src.write_bytes(pcm24_wav(rng.integers(-(2**23), 2**23, size=(1234, channels)), 100))
        else:
            write_wav(rng.uniform(-1.0, 1.0, size=(channels, 1234)), 100, src)
        code, out, _ = run(capsys, *argv, "--encoding", encoding, src, dst)
        assert code == 0
        assert last_json(out)["n_samples"] == 1234
        write_wav(whole_clip(src), 100, want, encoding)
        assert dst.read_bytes() == want.read_bytes()

    def test_in_place(self, capsys, tmp_path):
        path, want = tmp_path / "a.wav", tmp_path / "want.wav"
        write_foa_wav(FoaClip(np.random.default_rng(4).normal(size=(4, 250)), 100), path)
        write_foa_wav(rotate(read_foa_wav(path), Rotation.about_z(0.3)), want)
        code, _, _ = run(capsys, "rotate", "--z-degrees", math.degrees(0.3), path, path)
        assert code == 0
        assert path.read_bytes() == want.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.wav", "want.wav"]


class TestEnergyMapCommand:
    def test_summary_csv_and_pgm(self, capsys, tmp_path):
        rng = np.random.default_rng(2)
        clip = encode_mono(rng.normal(size=2000), Direction(1.0, 0.2), 44100)
        src = tmp_path / "clip.wav"
        write_foa_wav(clip, src)
        csv, pgm = tmp_path / "map.csv", tmp_path / "map.pgm"
        code, out, _ = run(
            capsys, "energy-map", "--grid", "8x16", "--csv", csv, "--pgm", pgm, src
        )
        assert code == 0
        payload = last_json(out)
        assert payload["n_cells"] == len(csv.read_text().strip().splitlines()) - 1
        assert pgm.read_bytes().startswith(b"P5")
        assert payload["argmax"]["azimuth"] == pytest.approx(1.0, abs=0.25)

    def test_bad_window_is_usage_error(self, capsys, tmp_path):
        src = tmp_path / "clip.wav"
        write_foa_wav(FoaClip(np.ones((4, 100)), 8000), src)
        code, _, _ = run(capsys, "energy-map", "--window", "nope", src)
        assert code == 1

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--grid", "8", "grid must be 'BANDSxAZIMUTHS', e.g. 32x64, got '8'"),
            ("--grid", "AxB", "grid must be 'BANDSxAZIMUTHS', e.g. 32x64, got 'AxB'"),
            ("--grid", "8x16x2", "grid must be 'BANDSxAZIMUTHS' with positive counts, got '8x16x2'"),
            ("--grid", "0X16", "grid must be 'BANDSxAZIMUTHS' with positive counts, got '0X16'"),
            ("--window", "5", "window must be 'START:END' in samples, got '5'"),
            ("--window", "1:x", "window must be 'START:END' in samples, got '1:x'"),
            ("--window", "1:2:3", "window must be 'START:END' in samples, got '1:2:3'"),
        ],
    )
    def test_pair_flag_messages(self, capsys, tmp_path, flag, value, message):
        src = tmp_path / "clip.wav"
        write_foa_wav(FoaClip(np.ones((4, 100)), 8000), src)
        code, _, err = run(capsys, "energy-map", flag, value, src)
        assert (code, err) == (1, f"usage error: {message}\n")

    @pytest.mark.parametrize("grid, built", [("100000x100000", []), ("1025x1024", []), ("1024x1024", [(1024, 1024)])])
    def test_grid_past_the_cell_limit_is_refused_before_it_is_built(self, capsys, tmp_path, monkeypatch, grid, built):
        calls = []
        monkeypatch.setattr(cli, "SphereGrid", lambda *counts: calls.append(counts))
        code, _, err = run(capsys, "energy-map", "--grid", grid, tmp_path / "absent.wav")
        assert calls == built
        if built:  # the grid passes, and the missing input is a data error
            assert code == 2
        else:
            assert (code, err) == (1, f"usage error: grid must have BANDS x AZIMUTHS at most 1048576, got '{grid}'\n")

    def test_literal_linear_mode_and_window(self, capsys, tmp_path):
        src = tmp_path / "clip.wav"
        write_foa_wav(encode_mono(np.ones(100), Direction(0.0, 0.0), 8000), src)
        code, out, _ = run(
            capsys, "energy-map", "--grid", "1x4", "--mode", "literal-linear",
            "--window", "0:50", src,
        )
        assert code == 0
        payload = last_json(out)
        assert payload["mode"] == "literal-linear"
        assert payload["window"] == [0, 50]
        assert payload["value_max"] == pytest.approx(1 / SQRT2 + 1.0)

    @pytest.mark.parametrize("mode", ["power", "literal-linear"])
    @pytest.mark.parametrize(
        "window",
        [None, (120, 190), (50, 210), (120, 321)],
        ids=["whole-clip", "inside-one-second", "across-slab-edges", "ends-in-the-tail"],
    )
    def test_csv_is_the_library_map(self, capsys, tmp_path, mode, window):
        # 321 frames at 100 Hz: three one-second slabs and a 21-frame tail.
        src, csv = tmp_path / "clip.wav", tmp_path / "map.csv"
        write_wav(np.random.default_rng(14).normal(size=(4, 321)), 100, src)
        flags = ["--window", f"{window[0]}:{window[1]}"] if window else []
        code, out, _ = run(capsys, "energy-map", "--grid", "8x16", "--mode", mode, "--csv", csv, *flags, src)
        assert code == 0
        want = energy_map(read_foa_wav(src), SphereGrid(8, 16), window, mode)
        values = [line.rsplit(",", 1)[1] for line in csv.read_text().splitlines()[1:]]
        assert values == [f"{value:.17g}" for value in want.values]
        assert last_json(out)["window"] == list(want.window)

    def test_never_builds_a_clip(self, capsys, tmp_path, monkeypatch):
        src = tmp_path / "clip.wav"
        write_wav(np.random.default_rng(15).normal(size=(4, 3 * 4410 + 7)), 4410, src)

        def refuse(self):
            raise AssertionError("energy-map built a FoaClip")

        monkeypatch.setattr(FoaClip, "__post_init__", refuse)
        for mode in ("power", "literal-linear"):
            code, out, _ = run(capsys, "energy-map", "--grid", "8x16", "--mode", mode, "--window", "100:9000", src)
            assert code == 0 and last_json(out)["window"] == [100, 9000]

    def test_window_error_comes_before_any_sample_is_decoded(self, capsys, tmp_path, monkeypatch):
        src = tmp_path / "clip.wav"
        write_wav(np.zeros((4, 250)), 100, src)

        def refuse(*args):  # the slab generator: it fails when the first slab is taken
            raise AssertionError("energy-map decoded a sample before checking its window")
            yield

        monkeypatch.setattr(tensor_io, "_wav_slabs", refuse)
        code, out, err = run(capsys, "energy-map", "--window", "200:251", src)
        assert (code, out, err) == (2, "", f"error: {src}: window [200, 251) invalid for clip of 250 samples\n")


class TestNonFiniteSamples:
    @pytest.mark.parametrize(
        "argv",
        [["energy-map", "--grid", "8x16"], ["decode", "--dir", "0,0"], ["rotate", "--z-quarters", "1"],
         ["encode", "--dir", "0,0"]],
        ids=lambda argv: argv[0],
    )
    def test_nan_sample_names_file(self, capsys, tmp_path, argv):
        src, out_wav = tmp_path / "nan.wav", tmp_path / "out.wav"
        write_wav(np.zeros((1 if argv[0] == "encode" else 4, 50)), 1000, src)
        set_float32_sample(src, 5, float("nan"))
        outputs = [] if argv[0] == "energy-map" else [out_wav]
        code, out, err = run(capsys, *argv, src, *outputs)
        assert (code, out) == (2, "")
        assert err == f"error: {src}: samples must be finite\n"
        assert not out_wav.exists()

    @pytest.mark.parametrize("command", ["encode", "decode", "rotate", "curate", "energy-map"])
    def test_nan_in_a_later_slab_names_file(self, capsys, tmp_path, command):
        src, out = tmp_path / "nan.wav", tmp_path / "out"
        channels = 1 if command == "encode" else 4
        write_wav(np.full((channels, 1234), 0.1), 100, src)
        # Frame 987, in the tenth of thirteen slabs; channel 2 of a 4-channel file.
        set_float32_sample(src, channels * 987 + channels // 2, float("nan"))
        out.write_bytes(b"kept")
        if command == "curate":
            manifest = tmp_path / "m.ndjson"
            manifest.write_text(json.dumps({"path": str(src)}) + "\n")
            argv = ["curate", "--rms-threshold", 0.01, "--manifest", manifest, "--out", out]
        elif command == "energy-map":  # the window ends before the NaN; the file is still refused
            argv = ["energy-map", "--window", "0:500", "--csv", out, src]
        else:
            flags = ["--z-quarters", 1] if command == "rotate" else ["--dir", "0,0"]
            argv = [command, *flags, src, out]
        code, _, err = run(capsys, *argv)
        assert (code, err) == (2, f"error: {src}: samples must be finite\n")
        if command == "curate":
            assert read_rows(out)[0]["error"]["message"] == f"{src}: samples must be finite"
        else:
            assert out.read_bytes() == b"kept"
            assert sorted(p.name for p in tmp_path.iterdir()) == ["nan.wav", "out"]

    @pytest.mark.parametrize("argv", [["rotate", "--z-degrees", "45"], ["decode", "--dir", "0,0"]], ids=lambda a: a[0])
    def test_output_past_the_float32_range_names_output(self, capsys, tmp_path, argv):
        # Input samples of 3e38 from the second slab on: in range, but rotation grows a component
        # by up to sqrt(3) and decoding by up to 1 + sqrt(3), so a float32 cast would write inf.
        src, dst = tmp_path / "big.wav", tmp_path / "out.wav"
        samples = np.full((4, 250), 0.1)
        samples[:, 150:] = 3e38
        write_wav(samples, 100, src)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *argv, src, dst)
        assert caught == []
        assert (code, out, err) == (2, "", f"error: {dst}: samples past the float32 range cannot be written\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["big.wav"]
        # 16-bit PCM output clips, so the same input is written.
        assert run(capsys, *argv, "--encoding", "pcm16", src, dst)[0] == 0


# A float32 signalling NaN; converting it to float64 raises numpy's "invalid" flag.
SIGNALLING_NAN = struct.pack("<I", 0x7F800001)
SENTINEL = 1234.5


def plant_signalling_nan(path):
    """Replace the one float32 SENTINEL value written to ``path`` by a signalling NaN."""
    blob = path.read_bytes()
    assert blob.count(struct.pack("<f", SENTINEL)) == 1
    path.write_bytes(blob.replace(struct.pack("<f", SENTINEL), SIGNALLING_NAN))


class TestSignallingNan:
    """A signalling NaN in any input file is a data error naming the file, with no warning on the way."""

    @pytest.mark.parametrize(
        "kind, message",
        [
            pytest.param("wav", "BAD: samples must be finite", id="wav"),
            pytest.param("features", "BAD: features must be finite", id="features"),
            pytest.param("probs", "BAD vs GOOD: gen entries must be finite and nonnegative", id="probs"),
            pytest.param("embeddings", "BAD: embeddings must be finite", id="embeddings"),
        ],
    )
    def test_data_error_names_the_file(self, capsys, tmp_path, kind, message):
        bad, good, out = tmp_path / "bad", tmp_path / "good", tmp_path / "out"
        rng = np.random.default_rng(30)
        values = {
            "wav": rng.normal(size=(4, 200)) * 0.1,
            "features": rng.normal(size=(40, 16)),
            "probs": np.full((3, 4), 0.25),
            "embeddings": rng.normal(size=(2, 3, 3, 4)),
        }[kind]
        if kind == "wav":
            write_wav(values, 50, good)
            values[2, 57] = SENTINEL
            write_wav(values, 50, bad)
        else:
            write_tensor(values.astype(np.float32), good)
            values.flat[7] = SENTINEL
            write_tensor(values.astype(np.float32), bad)
        plant_signalling_nan(bad)
        argv = {
            "wav": ["eval-spatial", "--grid", "4x8", bad, good],
            "features": ["eval-semantic", "--gen-features", bad, "--gt-features", good],
            "probs": ["eval-semantic", "--gen-probs", bad, "--gt-probs", good],
            "embeddings": ["patch-energy", bad, out],
        }[kind]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, err = run(capsys, *argv)
        assert [str(w.message) for w in caught] == []
        assert (code, stdout) == (2, "")
        assert err == f"error: {message.replace('BAD', str(bad)).replace('GOOD', str(good))}\n"
        assert not out.exists()


# Every command that reads a 4-channel WAV, with OUT for its output file, IN for the
# mangled file and SEED for the intact file it was made from.
WAV_COMMANDS = {
    "info": ["info", "IN"],
    "energy-map": ["energy-map", "--grid", "4x8", "IN"],
    "eval-spatial": ["eval-spatial", "--grid", "4x8", "IN", "SEED"],
    "curate": ["curate", "--grid", "4x8", "--rms-threshold", "0.01", "--manifest", "MANIFEST", "--out", "OUT"],
    "rotate": ["rotate", "--z-quarters", "1", "IN", "OUT"],
    "decode": ["decode", "--dir", "0,0", "IN", "OUT"],
}


def mangle(blob, data_at, how, at, value):
    """``blob``, a file whose payload starts at byte ``data_at``, with one fault: a header byte
    or u32 field (at a 4-aligned offset) set to ``value``, a cut at byte ``at``, a payload byte
    set, or a signalling NaN written as the first sample."""
    blob = bytearray(blob)
    if how == "header byte":
        blob[at % data_at] = value & 0xFF
    elif how == "u32 field":
        at = 4 * (at % (data_at // 4))
        blob[at : at + 4] = struct.pack("<I", value)
    elif how == "truncation":
        del blob[at % len(blob) :]
    elif how == "payload byte":
        blob[data_at + at % (len(blob) - data_at)] = value & 0xFF
    else:  # a float32 sNaN; in a float64 or PCM file, just another sample value
        blob[data_at : data_at + 4] = struct.pack("<I", 0x7F800001)
    return bytes(blob)


def check_mangled_run(argv, root, named, manifest_run):
    """Run ``main(argv)`` on a mangled input and check the five rules: no warning; exit 0, 1
    or 2; an exit-2 message that names one of ``named``; no temp file left in ``root``; and
    after a failure no stdout and no ``OUT``, but for a manifest run, which writes its rows,
    the failed record's too."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    assert [str(w.message) for w in caught] == [], argv
    assert code in (0, 1, 2), argv
    if code == 2:
        message = err.getvalue()
        # An OSError shows its path as a repr, control characters escaped.
        assert message.startswith("error: ") and any(n in message or repr(n)[1:-1] in message for n in named), argv
    assert not list(root.glob(".tmp-*~")), argv
    if code and not manifest_run:
        assert out.getvalue() == "" and not (root / "OUT").exists(), argv


class TestWavExitCodes:
    @settings(max_examples=120, deadline=None)
    @given(
        kind=st.sampled_from(WAV_KINDS),
        how=st.sampled_from(["header byte", "u32 field", "truncation", "payload byte", "signalling nan"]),
        at=st.integers(0, 2**16),
        value=st.sampled_from([0, 1, 3, 0xFF, 2**31, 2**32 - 1]) | st.integers(0, 2**32 - 1),
    )
    @example(kind="float32", how="signalling nan", at=0, value=0)
    def test_every_wav_command_exits_0_1_or_2(self, tmp_path_factory, kind, how, at, value):
        # 2.5 s at 20 Hz: three slabs, two whole seconds for curate. Each example gets a
        # directory of its own, so a temp file left or an output written there shows.
        root = tmp_path_factory.mktemp("mangled")
        seed = riff((b"fmt ", fmt_body(kind, 4, 20)), (b"data", random_payload(np.random.default_rng(at), kind, 50)))
        paths = {"IN": root / "in.wav", "SEED": root / "seed.wav", "MANIFEST": root / "m.ndjson", "OUT": root / "OUT"}
        paths["IN"].write_bytes(mangle(seed, seed.index(b"data") + 8, how, at, value))
        paths["SEED"].write_bytes(seed)
        paths["MANIFEST"].write_text(json.dumps({"path": str(paths["IN"])}) + "\n")
        named = (str(paths["IN"]),)
        for command, argv in WAV_COMMANDS.items():
            check_mangled_run([str(paths.get(arg, arg)) for arg in argv], root, named, command == "curate")
            with contextlib.suppress(FileNotFoundError):
                paths["OUT"].unlink()


def manifest_paths(blob):
    """Every string value of the records of a (mangled) NDJSON manifest that still parse."""
    found = set()
    for line in blob.decode("utf-8", "surrogateescape").splitlines():
        with contextlib.suppress(ValueError, RecursionError):
            record = json.loads(line)
            found |= {v for v in record.values() if isinstance(v, str)} if isinstance(record, dict) else set()
    return found


# The commands that read tensor, code matrix and NDJSON manifest files; each example
# mangles one file and runs the commands that name it, and ``info`` on it.
FILE_COMMANDS = {
    "patch-energy": ["patch-energy", "EMB", "OUT"],
    "eval-semantic": ["eval-semantic", "--gen-features", "GEN", "--gt-features", "GT",
                      "--gen-probs", "PGEN", "--gt-probs", "PGT"],
    "eval-semantic --manifest": ["eval-semantic", "--manifest", "SEMANTIC", "--out", "OUT"],
    "pattern pack": ["pattern", "pack", "RAW", "OUT"],
    "pattern unpack": ["pattern", "unpack", "PACKED", "OUT"],
    "generate": ["generate", "--table", "RAW", "--argmax", "OUT"],
    "eval-spatial --manifest": ["eval-spatial", "--grid", "4x8", "--manifest", "SPATIAL", "--out", "OUT"],
    "curate": ["curate", "--grid", "4x8", "--rms-threshold", "0.01", "--manifest", "CURATE", "--out", "OUT"],
}


def seed_files(root):
    """Good inputs for FILE_COMMANDS in ``root``: {name: (path, byte where its payload starts)}.
    A manifest's first record counts as its header, the second as its payload."""
    rng = np.random.default_rng(0)
    paths = {name: root / name.lower() for name in ("EMB", "GEN", "GT", "PGEN", "PGT", "RAW", "PACKED", "WAV")}
    for name, values in [("EMB", rng.normal(size=(2, 3, 3, 4))), ("GEN", rng.normal(size=(8, 3))),
                         ("GT", rng.normal(size=(8, 3))), ("PGEN", np.full((2, 4), 0.25)), ("PGT", np.full((2, 4), 0.25))]:
        write_tensor(values.astype(np.float32), paths[name])
    matrix = CodeMatrix(rng.integers(0, 8, size=(4, 3)), 1, 8)
    write_code_matrix(matrix, paths["RAW"])
    write_code_matrix(pack(matrix, Pattern.PROPOSED), paths["PACKED"])
    write_wav(rng.normal(size=(4, 50)) * 0.1, 20, paths["WAV"])
    for name, records in [("SEMANTIC", [{"gen_features": "GEN", "gt_features": "GT"}, {"gen_probs": "PGEN", "gt_probs": "PGT"}]),
                          ("SPATIAL", [{"gen": "WAV", "gt": "WAV"}] * 2), ("CURATE", [{"path": "WAV"}] * 2)]:
        paths[name] = root / f"{name.lower()}.ndjson"
        lines = [json.dumps({key: str(paths[value]) for key, value in record.items()}) for record in records]
        paths[name].write_text("\n".join(lines) + "\n")
    # The channels JSON: its W entry on the first line, the header; X, Y and Z on the second.
    paths["CHANNELS"] = root / "channels.json"
    entries = [json.dumps({c: {"gen": str(paths["GEN"]), "gt": str(paths["GT"])}})[1:-1] for c in "WXYZ"]
    paths["CHANNELS"].write_text("{" + entries[0] + ",\n" + ", ".join(entries[1:]) + "}\n")
    starts = {"RAW": 17, "PACKED": 17}  # past the <4sIIIB header
    return {name: (path, starts.get(name) or path.read_bytes().index(b"\n") + 1) for name, path in paths.items()}


# Every command that writes a file, its output named MISSING: a path in a directory that does
# not exist. The inputs are seed_files' and MONO, a mono WAV.
WRITING_COMMANDS = {
    "encode": ["encode", "--dir", "0,0", "MONO", "MISSING"],
    "decode": ["decode", "--dir", "0,0", "WAV", "MISSING"],
    "rotate": ["rotate", "--z-quarters", "1", "WAV", "MISSING"],
    "energy-map --csv": ["energy-map", "--grid", "4x8", "--csv", "MISSING", "WAV"],
    "energy-map --pgm": ["energy-map", "--grid", "4x8", "--pgm", "MISSING", "WAV"],
    "pattern": ["pattern", "pack", "RAW", "MISSING"],
    "generate": ["generate", "--table", "RAW", "--argmax", "MISSING"],
    "patch-energy": ["patch-energy", "EMB", "MISSING"],
    "eval-spatial --csv": ["eval-spatial", "--grid", "4x8", "--csv", "MISSING", "WAV", "WAV"],
    "eval-spatial --out": ["eval-spatial", "--grid", "4x8", "--manifest", "SPATIAL", "--out", "MISSING"],
    "eval-semantic --out": ["eval-semantic", "--manifest", "SEMANTIC", "--out", "MISSING"],
    "curate": ["curate", "--grid", "4x8", "--rms-threshold", "0.01", "--manifest", "CURATE", "--out", "MISSING"],
}


class TestFileExitCodes:
    @settings(max_examples=150, deadline=None)
    @given(
        name=st.sampled_from(["EMB", "GEN", "PGEN", "RAW", "PACKED", "SEMANTIC", "SPATIAL", "CURATE"]),
        how=st.sampled_from(["header byte", "u32 field", "truncation", "payload byte"]),
        at=st.integers(0, 2**16),
        value=st.sampled_from([0, 1, 3, 0x0A, 0x22, 0xFF, 2**31, 2**32 - 1]) | st.integers(0, 2**32 - 1),
    )
    def test_every_file_command_exits_0_1_or_2(self, tmp_path_factory, name, how, at, value):
        # Each example gets a directory of its own, so a temp file left or an output written there shows.
        root = tmp_path_factory.mktemp("mangled")
        files = seed_files(root)
        path, data_at = files[name]
        path.write_bytes(mangle(path.read_bytes(), data_at, how, at, value))
        named = {str(path), str(root / "OUT"), *(manifest_paths(path.read_bytes()) if path.suffix == ".ndjson" else ())}
        runs = [argv for argv in FILE_COMMANDS.values() if name in argv] + [["info", name]]
        for argv in runs:
            argv = [str(files[arg][0]) if arg in files else str(root / "OUT") if arg == "OUT" else arg for arg in argv]
            check_mangled_run(argv, root, named, "--manifest" in argv)
            with contextlib.suppress(FileNotFoundError):
                (root / "OUT").unlink()


    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(["CHANNELS", "GEN", "GT"]),
        how=st.sampled_from(["header byte", "truncation", "payload byte"]),
        at=st.integers(0, 2**16),
        value=st.sampled_from([0, 0x0A, 0x22, 0x2C, 0x3A, 0x5C, 0x7B, 0x7D, 0xFF]) | st.integers(0, 255),
    )
    def test_channels_run_exits_0_1_or_2(self, tmp_path_factory, name, how, at, value):
        # eval-semantic --channels on a mangled channels JSON, or on a mangled feature file that it names.
        root = tmp_path_factory.mktemp("mangled")
        files = seed_files(root)
        path, data_at = files[name]
        path.write_bytes(mangle(path.read_bytes(), data_at, how, at, value))
        named = {str(path)}
        with contextlib.suppress(ValueError, RecursionError):  # the paths that a mangled JSON still names
            mapping = json.loads(path.read_bytes()) if name == "CHANNELS" else {}
            entries = mapping.values() if isinstance(mapping, dict) else ()
            named |= {v for entry in entries if isinstance(entry, dict) for v in entry.values() if isinstance(v, str)}
        check_mangled_run(["eval-semantic", "--channels", str(files["CHANNELS"][0])], root, named, False)

    @pytest.mark.parametrize("argv", WRITING_COMMANDS.values(), ids=WRITING_COMMANDS)
    def test_output_in_a_missing_directory_names_the_output(self, capsys, tmp_path, argv):
        paths = {name: path for name, (path, _) in seed_files(tmp_path).items()}
        paths["MONO"], paths["MISSING"] = tmp_path / "mono.wav", tmp_path / "absent" / "out"
        write_wav(np.zeros(40), 20, paths["MONO"])
        code, out, err = run(capsys, *(paths.get(arg, arg) for arg in argv))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and str(paths["MISSING"]) in err and ".tmp-" not in err

    @pytest.mark.parametrize("argv", WRITING_COMMANDS.values(), ids=WRITING_COMMANDS)
    def test_output_that_is_a_directory_names_the_output(self, capsys, tmp_path, argv):
        paths = {name: path for name, (path, _) in seed_files(tmp_path).items()}
        paths["MONO"], paths["MISSING"] = tmp_path / "mono.wav", tmp_path / "outdir"
        write_wav(np.zeros(40), 20, paths["MONO"])
        paths["MISSING"].mkdir()
        code, out, err = run(capsys, *(paths.get(arg, arg) for arg in argv))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and str(paths["MISSING"]) in err and ".tmp-" not in err
        assert not [p.name for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]


class TestPatternCommands:
    def test_pack_unpack_bit_identical(self, capsys, tmp_path):
        rng = np.random.default_rng(3)
        matrix = CodeMatrix(rng.integers(0, 1024, size=(36, 50)), 9, 1024)
        raw, packed, unpacked = (tmp_path / n for n in ("raw.cmx", "packed.cmx", "back.cmx"))
        write_code_matrix(matrix, raw)
        code, out, _ = run(capsys, "pattern", "pack", "--pattern", "proposed", raw, packed)
        assert code == 0 and last_json(out)["n_steps"] == 101
        code, _, _ = run(capsys, "pattern", "unpack", packed, unpacked)
        assert code == 0
        assert raw.read_bytes() == unpacked.read_bytes()
        default = tmp_path / "default.cmx"  # proposed is pack's default
        assert run(capsys, "pattern", "pack", raw, default)[0] == 0
        assert default.read_bytes() == packed.read_bytes()

    def test_unpack_of_raw_is_data_error(self, capsys, tmp_path):
        raw = tmp_path / "raw.cmx"
        write_code_matrix(CodeMatrix(np.zeros((4, 2), dtype=np.int64), 1, 3), raw)
        code, _, err = run(capsys, "pattern", "unpack", raw, tmp_path / "x.cmx")
        assert code == 2

    @pytest.mark.parametrize(
        "column, value, message",
        [(0, 5, "padding found in a slot the pattern schedules"),
         (1, 0, "code found in a slot the pattern pads")],
    )
    def test_bad_padding_layout_names_file(self, capsys, tmp_path, column, value, message):
        packed = tmp_path / "packed.cmx"
        reorg = pack(CodeMatrix(np.zeros((4, 2), dtype=np.int64), 1, 5), Pattern.PROPOSED)
        codes = reorg.codes.copy()
        codes[0, column] = value  # row 0 (W_p) is scheduled at step 1 and padded at step 2
        write_code_matrix(ReorgMatrix(codes, Pattern.PROPOSED, 1, 5), packed)
        code, _, err = run(capsys, "pattern", "unpack", packed, tmp_path / "x.cmx")
        assert code == 2
        assert err == f"error: {packed}: {message}\n"
        assert not (tmp_path / "x.cmx").exists()

    def test_malformed_file_leaves_no_output(self, capsys, tmp_path):
        target = tmp_path / "never.cmx"
        bad = tmp_path / "bad.cmx"
        bad.write_bytes(b"ACM1" + b"\x00" * 13)
        code, _, _ = run(capsys, "pattern", "pack", bad, target)
        assert code == 2
        assert not target.exists()


class TestGenerateCommand:
    @pytest.mark.parametrize("pattern", [p.value for p in Pattern])
    def test_reproduces_table(self, capsys, tmp_path, pattern):
        rng = np.random.default_rng(4)
        matrix = CodeMatrix(rng.integers(0, 32, size=(8, 6)), 2, 32)
        table, out_path = tmp_path / "table.cmx", tmp_path / "gen.cmx"
        write_code_matrix(matrix, table)
        code, out, _ = run(
            capsys, "generate", "--table", table, "--pattern", pattern, "--argmax", out_path
        )
        assert code == 0
        generated = read_code_matrix(out_path)
        assert np.array_equal(generated.codes, matrix.codes)
        payload = last_json(out)
        assert payload["predictor_queries"] == payload["n_steps"]

    def test_seeded_sampling_deterministic(self, capsys, tmp_path):
        rng = np.random.default_rng(5)
        matrix = CodeMatrix(rng.integers(0, 8, size=(4, 3)), 1, 8)
        table = tmp_path / "table.cmx"
        write_code_matrix(matrix, table)
        out_a, out_b = tmp_path / "a.cmx", tmp_path / "b.cmx"
        for out_path in (out_a, out_b):
            code, _, _ = run(
                capsys, "generate", "--table", table, "--seed", 7,
                "--guidance", "joint", "--omega", "2.5", out_path,
            )
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_dual_top_p_bytes_match_allocating_oracle(self, capsys, tmp_path):
        rng = np.random.default_rng(19)
        matrix = CodeMatrix(rng.integers(0, 64, size=(12, 10)), 3, 64)
        table, out_path, want = tmp_path / "table.cmx", tmp_path / "gen.cmx", tmp_path / "want.cmx"
        write_code_matrix(matrix, table)
        code, _, _ = run(
            capsys, "generate", "--table", table, "--guidance", "dual", "--omega", "2.5",
            "--omega2", "1.5", "--top-p", "0.9", "--seed", 3, out_path,
        )
        assert code == 0
        config = GuidanceConfig("dual", 2.5, 1.5)
        oracle = generate_allocating(
            TablePredictor(matrix, Pattern.PROPOSED), 3, 10, Pattern.PROPOSED, config, top_p=0.9, seed=3
        )
        write_code_matrix(oracle, want)
        assert out_path.read_bytes() == want.read_bytes()

    def test_temperature_too_small_for_the_table_is_a_data_error(self, capsys, tmp_path):
        matrix = CodeMatrix(np.random.default_rng(20).integers(0, 16, size=(8, 5)), 2, 16)
        table, out_path = tmp_path / "table.cmx", tmp_path / "gen.cmx"
        write_code_matrix(matrix, table)
        code, out, err = run(capsys, "generate", "--table", table, "--temperature", "5e-324", out_path)
        assert (code, out) == (2, "")
        assert err == f"error: {table}: a row maximum divided by temperature 5e-324 is not finite\n"
        assert not out_path.exists()
        # argmax never divides by the temperature
        code, _, err = run(capsys, "generate", "--table", table, "--temperature", "5e-324", "--argmax", out_path)
        assert (code, err) == (0, "")
        assert np.array_equal(read_code_matrix(out_path).codes, matrix.codes)


class TestEvalSpatial:
    def test_self_comparison_scores_one(self, capsys, tmp_path):
        rng = np.random.default_rng(6)
        sr = 4410
        clip = encode_mono(rng.normal(size=5 * sr), Direction(0.7, 0.1), sr)
        gen, gt = tmp_path / "gen.wav", tmp_path / "gt.wav"
        write_foa_wav(clip, gen)
        write_foa_wav(clip, gt)
        csv = tmp_path / "row.csv"
        code, out, _ = run(capsys, "eval-spatial", "--grid", "8x16", "--csv", csv, gen, gt)
        assert code == 0
        payload = last_json(out)
        for key in ("cc_all", "cc_1fps", "cc_5fps", "auc_all", "auc_1fps", "auc_5fps"):
            assert payload[key] == pytest.approx(1.0, abs=1e-9)
        assert payload["windows_used"] == {"all": 1, "1fps": 5, "5fps": 25}
        row = [float(v) for v in csv.read_text().strip().split(",")]
        assert row == pytest.approx([1.0] * 6, abs=1e-9)

    def test_manifest_mode_preserves_order(self, capsys, tmp_path):
        rng = np.random.default_rng(7)
        sr = 4410
        paths = []
        for i in range(3):
            clip = encode_mono(rng.normal(size=sr), Direction(0.3 * i, 0.0), sr)
            path = tmp_path / f"clip{i}.wav"
            write_foa_wav(clip, path)
            paths.append(path)
        manifest = tmp_path / "pairs.ndjson"
        manifest.write_text(
            "\n".join(json.dumps({"gen": str(p), "gt": str(p)}) for p in paths) + "\n"
        )
        out_path = tmp_path / "results.ndjson"
        # OpenBLAS stops its threads at a fork and starts them again for a product this
        # large, unless conftest.py's one BLAS thread holds: then --jobs 2 forks one thread.
        np.ones((300, 300)) @ np.ones((300, 300))
        if os.path.isdir("/proc/self/task"):
            assert len(os.listdir("/proc/self/task")) == 1
        code, out, _ = run_manifest(
            capsys, out_path, "eval-spatial", "--grid", "8x16", "--manifest", manifest
        )
        assert code == 0
        lines = read_rows(out_path)
        assert [l["gen"] for l in lines] == [str(p) for p in paths]
        assert all(l["cc_all"] == pytest.approx(1.0, abs=1e-9) for l in lines)

    def test_never_builds_a_clip(self, capsys, tmp_path, monkeypatch):
        rng = np.random.default_rng(8)
        gen, gt = tmp_path / "gen.wav", tmp_path / "gt.wav"
        write_wav(rng.normal(size=(4, 3 * 4410)), 4410, gen)
        write_wav(rng.normal(size=(4, 3 * 4410)), 4410, gt)
        manifest = tmp_path / "pairs.ndjson"
        manifest.write_text(json.dumps({"gen": str(gen), "gt": str(gt)}) + "\n")

        def refuse(self):
            raise AssertionError("eval-spatial built a FoaClip")

        monkeypatch.setattr(FoaClip, "__post_init__", refuse)
        code, out, _ = run(capsys, "eval-spatial", "--grid", "8x16", gen, gt)
        assert code == 0 and last_json(out)["windows_used"] == {"all": 1, "1fps": 3, "5fps": 15}
        code, _, _ = run_manifest(
            capsys, tmp_path / "rows.ndjson", "eval-spatial", "--grid", "8x16", "--manifest", manifest
        )
        assert code == 0


class TestEvalSemantic:
    def test_fad_and_kld(self, capsys, tmp_path):
        rng = np.random.default_rng(8)
        features = rng.normal(size=(64, 4)).astype(np.float32)
        f_gen, f_gt = tmp_path / "gen.t", tmp_path / "gt.t"
        write_tensor(features, f_gen)
        write_tensor(features, f_gt)
        probs = rng.random((5, 10))
        probs /= probs.sum(axis=1, keepdims=True)
        p_gen, p_gt = tmp_path / "pg.t", tmp_path / "pt.t"
        write_tensor(probs.astype(np.float32), p_gen)
        write_tensor(probs.astype(np.float32), p_gt)
        code, out, _ = run(
            capsys, "eval-semantic",
            "--gen-features", f_gen, "--gt-features", f_gt,
            "--gen-probs", p_gen, "--gt-probs", p_gt,
        )
        assert code == 0
        payload = last_json(out)
        assert payload["fad"] == pytest.approx(0.0, abs=1e-6)
        assert payload["kld"] == pytest.approx(0.0, abs=1e-6)

    def test_channel_manifest(self, capsys, tmp_path):
        rng = np.random.default_rng(9)
        mapping = {}
        for name in "WXYZ":
            gen, gt = tmp_path / f"{name}g.t", tmp_path / f"{name}t.t"
            features = rng.normal(size=(32, 3)).astype(np.float32)
            write_tensor(features, gen)
            write_tensor(features, gt)
            mapping[name] = {"gen": str(gen), "gt": str(gt)}
        channels = tmp_path / "channels.json"
        channels.write_text(json.dumps(mapping))
        code, out, _ = run(capsys, "eval-semantic", "--channels", channels)
        assert code == 0
        assert last_json(out)["fad_avg"] == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize(
        "mapping, message",
        [
            (["W"], "expected an object of channel entries"),
            ({"W": "w.t"}, "channel 'W': record is not a JSON object"),
            ({"W": {"gen": "g.t"}}, "channel 'W': record misses 'gt'"),
            ({"W": {"gen": 7, "gt": "t.t"}}, "channel 'W': 'gen' must be a path string"),
            ({"W": {"gen": "g.t", "gt": ["t.t"]}}, "channel 'W': 'gt' must be a path string"),
        ],
        ids=["file", "entry", "missing-gt", "integer-path", "list-path"],
    )
    def test_bad_channel_entry_names_the_file(self, capsys, tmp_path, mapping, message):
        channels = tmp_path / "channels.json"
        channels.write_text(json.dumps(mapping))
        code, out, err = run(capsys, "eval-semantic", "--channels", channels)
        assert (code, out, err) == (2, "", f"error: {channels}: {message}\n")

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--gen-features"], "--gen-features and --gt-features go together"),
            (["--gt-features"], "--gen-features and --gt-features go together"),
            (["--gen-features", "--gen-probs"], "--gen-features and --gt-features go together"),
            (["--gen-probs"], "--gen-probs and --gt-probs go together"),
            (["--gen-features", "--gt-features", "--gt-probs"], "--gen-probs and --gt-probs go together"),
            ([], "nothing to evaluate; pass feature, probability or channel inputs"),
        ],
        ids=["gen-features", "gt-features", "both-gen", "gen-probs", "gt-probs", "nothing"],
    )
    def test_usage_errors_before_any_read(self, capsys, tmp_path, monkeypatch, flags, message):
        def refuse(path):
            raise AssertionError(f"eval-semantic read {path} before checking its flags")

        monkeypatch.setattr("foatools.cli.read_tensor", refuse)
        argv = [item for flag in flags for item in (flag, tmp_path / "x.t")]
        code, out, err = run(capsys, "eval-semantic", *argv)
        assert (code, out, err) == (1, "", f"usage error: {message}\n")

    def test_needs_some_input(self, capsys):
        code, _, _ = run(capsys, "eval-semantic")
        assert code == 1

    def test_manifest_mode(self, capsys, tmp_path):
        rng = np.random.default_rng(12)
        lines = []
        for i in range(2):
            gen, gt = tmp_path / f"g{i}.t", tmp_path / f"t{i}.t"
            features = rng.normal(size=(24, 3)).astype(np.float32)
            write_tensor(features, gen)
            write_tensor(features, gt)
            lines.append(json.dumps({"gen_features": str(gen), "gt_features": str(gt)}))
        manifest = tmp_path / "m.ndjson"
        manifest.write_text("\n".join(lines) + "\n")
        out_path = tmp_path / "res.ndjson"
        code, _, _ = run_manifest(capsys, out_path, "eval-semantic", "--manifest", manifest)
        assert code == 0
        rows = read_rows(out_path)
        assert len(rows) == 2
        assert all(r["fad"] == pytest.approx(0.0, abs=1e-6) for r in rows)


def semantic_inputs(tmp_path, fault):
    """Four W/X/Y/Z feature pairs whose W generated features carry ``fault``,
    and the message that must name the file: "nan" puts a NaN in them, "psd"
    makes them 3 rank-deficient rows of scale 1e6, whose covariance rounds to
    a clearly negative eigenvalue."""
    rng = np.random.default_rng(20)
    pairs = {}
    for name in "WXYZ":
        gen, gt = tmp_path / f"{name}_gen.t", tmp_path / f"{name}_gt.t"
        write_tensor(rng.normal(size=(40, 16)).astype(np.float32), gen)
        write_tensor(rng.normal(size=(40, 16)).astype(np.float32), gt)
        pairs[name] = {"gen": str(gen), "gt": str(gt)}
    gen, gt = pairs["W"]["gen"], pairs["W"]["gt"]
    if fault == "nan":
        features = rng.normal(size=(40, 16)).astype(np.float32)
        features[5, 3] = np.nan
        message = f"{gen}: features must be finite"
    else:
        features = (rng.normal(size=(3, 16)) * 1e6).astype(np.float32)
        message = f"{gen} vs {gt}: first covariance has eigenvalue"
    write_tensor(features, gen)
    return pairs, message


class TestEvalSemanticDataErrors:
    @pytest.mark.parametrize("fault", ["nan", "psd"])
    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_single_mode_names_the_file(self, capsys, tmp_path, fault):
        pairs, message = semantic_inputs(tmp_path, fault)
        argv = ["--gen-features", pairs["W"]["gen"], "--gt-features", pairs["W"]["gt"]]
        code, out, err = run(capsys, "eval-semantic", *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize("fault", ["nan", "psd"])
    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_channels_mode_names_the_file(self, capsys, tmp_path, fault):
        pairs, message = semantic_inputs(tmp_path, fault)
        channels = tmp_path / "channels.json"
        channels.write_text(json.dumps(pairs))
        code, out, err = run(capsys, "eval-semantic", "--channels", channels)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize("fault", ["nan", "psd"])
    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_manifest_mode_names_the_file(self, capsys, tmp_path, fault):
        pairs, message = semantic_inputs(tmp_path, fault)
        manifest = tmp_path / "m.ndjson"
        manifest.write_text("\n".join(
            json.dumps({"gen_features": pairs[name]["gen"], "gt_features": pairs[name]["gt"]}) for name in "WX"
        ) + "\n")
        out_path = tmp_path / "res.ndjson"
        code, _, err = run_manifest(capsys, out_path, "eval-semantic", "--manifest", manifest)
        assert code == 2
        assert err.startswith(f"error: {message}")
        bad, good = read_rows(out_path)
        assert bad["error"]["message"].startswith(message)
        assert "fad" in good and "error" not in good

    def test_missing_channel_names_the_channels_file(self, capsys, tmp_path):
        pairs, _ = semantic_inputs(tmp_path, "nan")
        del pairs["Y"]
        channels = tmp_path / "channels.json"
        channels.write_text(json.dumps(pairs))
        code, out, err = run(capsys, "eval-semantic", "--channels", channels)
        assert (code, out, err) == (2, "", f"error: {channels}: missing channel feature pairs: Y\n")


class TestPatchEnergy:
    def test_end_to_end(self, capsys, tmp_path):
        rng = np.random.default_rng(10)
        emb = rng.normal(size=(3, 5, 5, 8)).astype(np.float32)
        src, dst = tmp_path / "emb.t", tmp_path / "energy.t"
        write_tensor(emb, src)
        pgm_dir = tmp_path / "frames"
        code, out, _ = run(capsys, "patch-energy", "--pgm-dir", pgm_dir, src, dst)
        assert code == 0
        energy = read_tensor(dst)
        assert energy.shape == (3, 5, 5)
        sums = energy.reshape(3, -1).sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-5)
        assert sorted(p.name for p in pgm_dir.iterdir()) == [
            "frame_0000.pgm", "frame_0001.pgm", "frame_0002.pgm",
        ]

    @pytest.mark.parametrize("windows", [(1, 1), (0, 3), (3, 0)])
    def test_output_bytes_match_clamped_index_oracle(self, capsys, tmp_path, windows):
        emb = np.random.default_rng(12).normal(size=(4, 5, 6, 8)).astype(np.float32)
        src, dst, want = tmp_path / "emb.t", tmp_path / "energy.t", tmp_path / "want.t"
        write_tensor(emb, src)
        pgm_dir = tmp_path / "frames"
        code, _, _ = run(
            capsys, "patch-energy", "--spatial-window", windows[0], "--temporal-window", windows[1],
            "--temperature", "0.2", "--top-p", "0.6", "--pgm-dir", pgm_dir, src, dst,
        )
        assert code == 0
        energy = energy_from_scores(*patch_scores_clamped(emb, *windows), 0.2, 0.6)
        write_tensor(energy.astype(np.float32), want)
        assert dst.read_bytes() == want.read_bytes()
        for i in range(emb.shape[0]):
            write_pgm(energy[i], tmp_path / "want.pgm")
            assert (pgm_dir / f"frame_{i:04d}.pgm").read_bytes() == (tmp_path / "want.pgm").read_bytes()

    @pytest.mark.parametrize(
        "value, message", [(np.nan, "embeddings must be finite"), (0.0, "all-zero embedding vectors")]
    )
    def test_data_errors_name_the_input(self, capsys, tmp_path, value, message):
        emb = np.ones((2, 3, 3, 4), dtype=np.float32)
        emb[1, 2, 0] = value
        src = tmp_path / "emb.t"
        write_tensor(emb, src)
        code, _, err = run(capsys, "patch-energy", src, tmp_path / "energy.t")
        assert code == 2
        assert err.startswith(f"error: {src}: {message}")
        assert not (tmp_path / "energy.t").exists()

    def test_temperature_too_small_for_the_scores_is_a_data_error(self, capsys, tmp_path):
        src, dst = tmp_path / "emb.t", tmp_path / "energy.t"
        write_tensor(np.random.default_rng(21).normal(size=(2, 3, 3, 4)).astype(np.float32), src)
        code, out, err = run(capsys, "patch-energy", "--temperature", "5e-324", src, dst)
        assert (code, out) == (2, "")
        assert err == f"error: {src}: a row maximum divided by temperature 5e-324 is not finite\n"
        assert not dst.exists()

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            *(
                pytest.param("patch-energy", flag, value, id=f"{flag}-{value}")
                for flag, value in [
                    ("--spatial-window", "-1"),
                    ("--temporal-window", "-1"),
                    ("--temperature", "0"),
                    ("--temperature", "nan"),
                    ("--top-p", "0"),
                    ("--top-p", "1.5"),
                ]
            ),
            *(
                pytest.param(command, flag, value, id=f"{command} {flag}={value}")
                for command, flag, value in [
                    ("eval-spatial", "--fixation-percentile", "150"),
                    ("eval-spatial", "--fixation-percentile", "0"),
                    ("eval-spatial", "--fixation-percentile", "100"),
                    ("eval-spatial", "--fixation-percentile", "nan"),
                    ("eval-spatial-manifest", "--fixation-percentile", "150"),
                    ("curate", "--rms-threshold", "-1"),
                    ("curate", "--rms-threshold", "nan"),
                    ("curate", "--amplitude-threshold", "nan"),
                    ("curate", "--amplitude-threshold", "-1"),
                    ("eval-semantic", "--epsilon", "0"),
                    ("eval-semantic", "--epsilon", "nan"),
                    ("eval-semantic-manifest", "--epsilon", "0"),
                    ("generate", "--temperature", "0"),
                    ("generate", "--temperature", "nan"),
                    ("generate-argmax", "--temperature", "0"),
                    ("generate", "--top-p", "0"),
                    ("generate", "--top-p", "1.5"),
                    ("generate", "--omega", "nan"),
                    ("generate", "--omega", "inf"),
                    ("generate", "--omega2", "-inf"),
                    ("generate", "--seed", "-1"),
                ]
            ),
        ],
    )
    def test_bad_flags_are_usage_errors_before_any_read(self, capsys, tmp_path, monkeypatch, command, flag, value):
        def refuse(path, *rest):
            raise AssertionError(f"{command} read {path} before checking its flags")

        for reader in CLI_READERS:
            monkeypatch.setattr(f"foatools.cli.{reader}", refuse)
        wav, tensor, table, out = (tmp_path / name for name in ("clip.wav", "emb.t", "table.cmx", "out"))
        manifest = tmp_path / "in.ndjson"  # missing, so reading it is a data error
        argv = {
            "patch-energy": ["patch-energy", tensor, out],
            "eval-spatial": ["eval-spatial", wav, wav],
            "eval-spatial-manifest": ["eval-spatial", "--manifest", manifest, "--out", out],
            "curate": ["curate", "--manifest", manifest, "--out", out],
            "eval-semantic": ["eval-semantic", "--gen-probs", tensor, "--gt-probs", tensor],
            "eval-semantic-manifest": ["eval-semantic", "--manifest", manifest, "--out", out],
            "generate": ["generate", "--table", table, out],
            "generate-argmax": ["generate", "--argmax", "--table", table, out],
        }[command]
        code, _, err = run(capsys, *argv, f"{flag}={value}")
        assert code == 1
        assert err.startswith(f"usage error: argument {flag}: must be")
        assert not out.exists()


class TestCurate:
    def test_manifest_round_trip(self, capsys, tmp_path):
        rng = np.random.default_rng(11)
        sr = 1000
        records = []
        # Clip 0: audible everywhere; clip 1: silent -> fails the gate.
        loud = encode_mono(0.2 * rng.normal(size=6 * sr), Direction(0.5, 0.1), sr)
        quiet = FoaClip(np.zeros((4, 6 * sr)), sr)
        for i, clip in enumerate((loud, quiet)):
            path = tmp_path / f"c{i}.wav"
            write_foa_wav(clip, path)
            records.append({"path": str(path), "score": 10.0 if i == 0 else 0.0})
        manifest = tmp_path / "in.ndjson"
        manifest.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        out_path = tmp_path / "out.ndjson"
        code, out, _ = run_manifest(
            capsys, out_path, "curate", "--manifest", manifest,
            "--rms-threshold", "0.01", "--grid", "8x16",
        )
        assert code == 0
        lines = read_rows(out_path)
        assert len(lines) == 2
        assert lines[0]["keep"] is True
        assert lines[0]["windows"] == [[0, 5]]
        assert lines[0]["fov_center"]["azimuth"] == pytest.approx(0.5, abs=0.25)
        assert lines[1]["keep"] is False
        assert lines[1]["amplitude_ok"] is False
        assert lines[1]["fov_center"] is None

    def test_sub_second_clip_keeps_its_row(self, capsys, tmp_path):
        rng = np.random.default_rng(12)
        sr = 1000
        direction = Direction(0.5, 0.1)
        paths = []
        for i, n_samples in enumerate((sr // 2, 6 * sr)):
            paths.append(tmp_path / f"c{i}.wav")
            write_foa_wav(encode_mono(0.2 * rng.normal(size=n_samples), direction, sr), paths[-1])
        manifest = tmp_path / "in.ndjson"
        manifest.write_text("".join(json.dumps({"path": str(p)}) + "\n" for p in paths))
        out_path = tmp_path / "out.ndjson"
        code, _, _ = run_manifest(
            capsys, out_path, "curate", "--manifest", manifest,
            "--rms-threshold", "0.01", "--grid", "8x16",
        )
        assert code == 0
        short, long = read_rows(out_path)
        assert short["path"] == str(paths[0]) and long["path"] == str(paths[1])
        # No whole second, so no second passed the gate; the rest is computed as usual.
        assert short["amplitude_ok"] is False
        assert short["valid_seconds"] == 0
        assert short["windows"] == []
        assert short["keep"] is False
        assert short["fov_center"]["azimuth"] == pytest.approx(0.5, abs=0.25)
        assert long["amplitude_ok"] is True
        assert long["keep"] is True

    @staticmethod
    def refuse_clip_reads(monkeypatch):
        def refuse(path, *rest):
            raise AssertionError(f"curate read {path} before checking the scores")

        for reader in CLI_READERS:
            monkeypatch.setattr(f"foatools.cli.{reader}", refuse)

    def test_mixed_scores_rejected(self, capsys, tmp_path, monkeypatch):
        self.refuse_clip_reads(monkeypatch)
        sr = 1000
        path = tmp_path / "c.wav"
        write_foa_wav(FoaClip(np.ones((4, 5 * sr)), sr), path)
        manifest = tmp_path / "in.ndjson"
        manifest.write_text(
            json.dumps({"path": str(path), "score": 1.0}) + "\n" + json.dumps({"path": str(path)}) + "\n"
        )
        code, _, err = run(
            capsys, "curate", "--manifest", manifest, "--out", tmp_path / "o.ndjson",
            "--rms-threshold", "0.1",
        )
        assert code == 2
        assert "score" in err
        assert not (tmp_path / "o.ndjson").exists()

    @pytest.mark.parametrize("score", [None, "abc", [1.0], 10**400, float("nan"), float("inf"), "-inf", True])
    def test_non_numeric_score_rejected(self, capsys, tmp_path, monkeypatch, score):
        path = tmp_path / "c.wav"
        write_foa_wav(FoaClip(np.ones((4, 5 * 1000)), 1000), path)
        self.refuse_clip_reads(monkeypatch)
        manifest = tmp_path / "in.ndjson"
        manifest.write_text(
            json.dumps({"path": str(path), "score": "1.5"}) + "\n"
            + json.dumps({"path": str(path), "score": score}) + "\n"
        )
        code, _, err = run(
            capsys, "curate", "--manifest", manifest, "--out", tmp_path / "o.ndjson",
            "--rms-threshold", "0.1",
        )
        assert code == 2
        assert err == f"error: {manifest}: {path}: score must be a number, got {json.dumps(score)}\n"
        assert not (tmp_path / "o.ndjson").exists()

    def test_one_scored_record_names_the_manifest(self, capsys, tmp_path, monkeypatch):
        self.refuse_clip_reads(monkeypatch)
        manifest, out_path = tmp_path / "in.ndjson", tmp_path / "o.ndjson"
        manifest.write_text(json.dumps({"path": str(tmp_path / "c.wav"), "score": 1.0}) + "\n")
        code, out, err = run(capsys, "curate", "--manifest", manifest, "--out", out_path, "--rms-threshold", "0.1")
        assert (code, out) == (2, "")
        assert err == f"error: {manifest}: relevance filter needs at least 2 scores\n"
        assert not out_path.exists()

    def test_antipodal_tie_matches_the_clip_api(self, capsys, tmp_path):
        # A pure X figure-of-eight ties the front and back cells of a 1x4 grid
        # exactly; the lower cell index must win on both paths.
        samples = np.zeros((4, 2500))
        samples[1] = np.random.default_rng(3).normal(size=2500)
        clip = FoaClip(samples, 1000)
        path, manifest, out_path = tmp_path / "x.wav", tmp_path / "m.ndjson", tmp_path / "o.ndjson"
        write_foa_wav(clip, path)
        manifest.write_text(json.dumps({"path": str(path)}) + "\n")
        code, _, _ = run(
            capsys, "curate", "--grid", "1x4", "--rms-threshold", 0, "--manifest", manifest, "--out", out_path
        )
        assert code == 0
        want = fov_center(read_foa_wav(path), SphereGrid(1, 4))
        assert (want.azimuth, want.elevation) == (0.0, 0.0)
        assert read_rows(out_path)[0]["fov_center"] == {"azimuth": want.azimuth, "elevation": want.elevation}

    def test_numeric_string_score_accepted(self, capsys, tmp_path):
        path = tmp_path / "c.wav"
        write_foa_wav(FoaClip(np.ones((4, 5 * 1000)), 1000), path)
        manifest = tmp_path / "in.ndjson"
        manifest.write_text("".join(json.dumps({"path": str(path), "score": s}) + "\n" for s in ("1.5", 2)))
        out_path = tmp_path / "o.ndjson"
        code, _, _ = run(capsys, "curate", "--manifest", manifest, "--out", out_path, "--rms-threshold", "0.1")
        assert code == 0
        assert [row["score"] for row in read_rows(out_path)] == [1.5, 2.0]


def _write_clip(path, seconds, seed):
    rng = np.random.default_rng(seed)
    signal = 0.2 * rng.normal(size=seconds * 1000)
    write_foa_wav(encode_mono(signal, Direction(0.5, 0.1), 1000), path)
    return str(path)


def _write_probs(path, seed):
    probs = np.random.default_rng(seed).random((3, 5))
    write_tensor((probs / probs.sum(axis=1, keepdims=True)).astype(np.float32), path)
    return str(path)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(["path", "gen_probs", "other"]), children, max_size=3),
    max_leaves=6,
)
TEXT = st.text(st.characters(blacklist_categories=("Cs",)))


def _path_row(record, **_):
    """Stands in for a per-record function: a row naming the pair, no file read."""
    return {"gen": record["gen"], "gt": record["gt"]}


def _crash_on_b(record, **_):
    """A per-record function that fails outside the data errors on b.wav.

    Module-level, so that a worker process can unpickle it.
    """
    if record["gen"] == "b.wav":
        raise RuntimeError(f"not a data error: {record['gen']}")
    return _path_row(record)


def _write_pairs(path, names):
    path.write_text("".join(json.dumps({"gen": name, "gt": name}) + "\n" for name in names))
    return path


class TestManifestRuns:
    @pytest.mark.parametrize("records, jobs, workers", [(3, 64, [3]), (3, 2, [2]), (3, 1, []), (1, 2, [])])
    def test_workers_capped_at_record_count(self, capsys, tmp_path, monkeypatch, records, jobs, workers):
        made = []

        class RecordingPool:
            """Stands in for ProcessPoolExecutor: records its arguments and maps
            in-process, so no worker process starts."""

            def __init__(self, **kwargs):
                made.append(kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, iterable):
                return map(fn, iterable)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli, "_spatial_one", _path_row)
        names = ["a.wav", "b.wav", "c.wav"][:records]
        manifest = _write_pairs(tmp_path / "m.ndjson", names)
        out_path = tmp_path / "rows.ndjson"
        code, _, err = run(capsys, "eval-spatial", "--manifest", manifest, "--out", out_path, "--jobs", jobs)
        assert (code, err) == (0, "")
        assert [row["gen"] for row in read_rows(out_path)] == names
        assert [kwargs["max_workers"] for kwargs in made] == workers
        assert all(kwargs["mp_context"].get_start_method() == "fork" for kwargs in made)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_non_data_error_escapes_main(self, capsys, tmp_path, monkeypatch, jobs):
        monkeypatch.setattr(cli, "_spatial_one", _crash_on_b)
        manifest = _write_pairs(tmp_path / "m.ndjson", ["a.wav", "b.wav", "c.wav"])
        out_path = tmp_path / "rows.ndjson"
        with pytest.raises(RuntimeError, match="not a data error: b.wav"):
            main(["eval-spatial", "--manifest", str(manifest), "--out", str(out_path), "--jobs", str(jobs)])
        assert not out_path.exists()
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "case",
        ["spatial-missing", "spatial-mismatch", "spatial-nan", "semantic-missing", "semantic-half-pair",
         "semantic-empty", "curate-missing", "curate-nan"],
    )
    def test_bad_record_keeps_the_good_rows(self, capsys, tmp_path, case):
        bad_path = str(tmp_path / "absent")
        error = ("FileNotFoundError", bad_path)
        if case.endswith("nan"):
            bad_path = _write_clip(tmp_path / "nan.wav", 3, 2)
            set_float32_sample(tmp_path / "nan.wav", 1234, float("nan"))
            error = ("WavFormatError", f"{bad_path}: samples must be finite")
        single = single_bad = None
        if case.startswith("spatial"):
            clip = _write_clip(tmp_path / "a.wav", 3, 0)
            other = _write_clip(tmp_path / "b.wav", 4, 1) if case == "spatial-mismatch" else bad_path
            argv = ["eval-spatial", "--grid", "8x16"]
            good, bad = {"gen": clip, "gt": clip}, {"gen": clip, "gt": other}
            single, single_bad = argv + [clip, clip], argv + [clip, other]
            if case == "spatial-mismatch":
                error = ("IncompatibleClipsError", f"{clip} vs {other}: clips differ")
        elif case.startswith("semantic"):
            gen, gt = _write_probs(tmp_path / "g.t", 0), _write_probs(tmp_path / "t.t", 1)
            argv = ["eval-semantic"]
            good = {"gen_probs": gen, "gt_probs": gt}
            single = argv + ["--gen-probs", gen, "--gt-probs", gt]
            if case == "semantic-half-pair":
                bad = {"gen_features": gen}
                error = ("FoaToolsError", f"{gen}: gen_features and gt_features go together")
            elif case == "semantic-empty":
                bad = {}
                error = ("FoaToolsError", f"{tmp_path / 'm.ndjson'}: record carries neither features nor probabilities")
            else:
                bad = {"gen_probs": gen, "gt_probs": bad_path}
                single_bad = argv + ["--gen-probs", gen, "--gt-probs", bad_path]
        else:
            argv = ["curate", "--grid", "8x16", "--rms-threshold", "0.01"]
            good, bad = {"path": _write_clip(tmp_path / "a.wav", 6, 0)}, {"path": bad_path}
        manifest = tmp_path / "m.ndjson"
        manifest.write_text(json.dumps(bad) + "\n" + json.dumps(good) + "\n")
        out_path = tmp_path / "rows.ndjson"
        code, _, err = run_manifest(capsys, out_path, *argv, "--manifest", manifest)
        assert code == 2
        error_row, good_row = read_rows(out_path)
        assert error_row == {"schema_version": 1, "error": error_row["error"], **bad}
        assert error_row["error"]["type"] == error[0]
        assert error[1] in error_row["error"]["message"]
        assert err == f"error: {error_row['error']['message']}\n"
        if single is None:
            manifest.write_text(json.dumps(good) + "\n")
            alone = tmp_path / "alone.ndjson"
            assert run_manifest(capsys, alone, *argv, "--manifest", manifest)[0] == 0
            assert good_row == read_rows(alone)[0]
        else:
            code, out, _ = run(capsys, *single)
            assert code == 0
            assert good_row == {**last_json(out), **good}
        if single_bad is not None:
            code, _, single_err = run(capsys, *single_bad)
            assert (code, single_err) == (2, err)

    @pytest.mark.parametrize("n_bad", [0, 1, 3])
    @pytest.mark.parametrize("command", ["eval-spatial", "eval-semantic", "curate"])
    def test_n_failed_counts_the_error_rows(self, capsys, tmp_path, command, n_bad):
        absent = str(tmp_path / "absent")
        if command == "eval-spatial":
            clip = _write_clip(tmp_path / "a.wav", 3, 0)
            argv, good, bad = ["--grid", "8x16"], {"gen": clip, "gt": clip}, {"gen": clip, "gt": absent}
        elif command == "eval-semantic":
            probs = _write_probs(tmp_path / "p.t", 0)
            argv, good, bad = [], {"gen_probs": probs, "gt_probs": probs}, {"gen_probs": probs, "gt_probs": absent}
        else:
            argv = ["--grid", "8x16", "--rms-threshold", "0.01"]
            good, bad = {"path": _write_clip(tmp_path / "a.wav", 6, 0)}, {"path": absent}
        records = [good, bad, good] if n_bad == 1 else [bad if n_bad else good] * 3
        manifest, out_path = tmp_path / "m.ndjson", tmp_path / "rows.ndjson"
        manifest.write_text("".join(json.dumps(record) + "\n" for record in records))
        code, out, err = run_manifest(capsys, out_path, command, *argv, "--manifest", manifest)
        n_errors = sum("error" in row for row in read_rows(out_path))
        assert n_errors == n_bad
        summary = last_json(out)
        assert (summary["n_failed"], summary["output"]) == (n_errors, str(out_path))
        assert code == (2 if n_errors > 0 else 0)
        assert err.count("error: ") == n_errors

    @settings(max_examples=5, deadline=None)
    @given(
        picks=st.lists(
            st.tuples(
                st.integers(0, 4),
                st.dictionaries(
                    st.sampled_from(["error", "schema_version", "fad", "kld", "keep", "note"]),
                    st.none() | st.booleans() | st.integers(-1, 99) | st.text(max_size=2),
                    max_size=3,
                ),
            ),
            min_size=1,
            max_size=3,
        )
    )
    @example(picks=[(0, {"error": "x", "schema_version": 99, "fad": 3, "kld": 4, "keep": True, "note": "n"})])
    @pytest.mark.parametrize("command", ["eval-spatial", "eval-semantic", "curate"])
    def test_rows_hold_their_path_keys_and_results_only(self, tmp_path_factory, command, picks):
        # Each record is one of the command's good or failing records plus keys that are not
        # path keys; no such key reaches a row, however it is named.
        root = tmp_path_factory.mktemp("rows")
        clip, absent = _write_clip(root / "a.wav", 6, 0), str(root / "absent")
        probs = _write_probs(root / "p.t", 0)
        features = str(root / "f.t")
        write_tensor(np.random.default_rng(1).normal(size=(8, 3)).astype(np.float32), features)
        spatial = {field.name for field in dataclasses.fields(SpatialReport)}
        curated = {"amplitude_ok", "fov_center", "valid_seconds", "windows", "keep"}
        argv, bases = {  # bases: (record, the keys of its results, or None for an error row)
            "eval-spatial": (["--grid", "4x8"],
                             [({"gen": clip, "gt": clip}, spatial), ({"gen": clip, "gt": absent}, None)]),
            "eval-semantic": ([], [
                ({"gen_probs": probs, "gt_probs": probs}, {"kld"}),
                ({"gen_features": features, "gt_features": features}, {"fad"}),
                ({"gen_probs": probs, "gt_probs": probs, "gen_features": features, "gt_features": features},
                 {"fad", "kld"}),
                ({"gen_probs": probs, "gt_probs": absent}, None),
                ({"gen_features": features}, None),
            ]),
            "curate": (["--grid", "4x8", "--rms-threshold", "0.01"],
                       [({"path": clip}, curated), ({"path": absent}, None)]),
        }[command]
        chosen = [bases[pick % len(bases)] for pick, _ in picks]
        records = [{**extra, **record} for (record, _), (_, extra) in zip(chosen, picks)]
        manifest = root / "m.ndjson"
        manifest.write_text("".join(json.dumps(record) + "\n" for record in records))
        for jobs in (1, 2):
            out_path = root / f"rows{jobs}.ndjson"
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([command, *argv, "--manifest", str(manifest), "--out", str(out_path), "--jobs", str(jobs)])
            rows = read_rows(out_path)
            assert len(rows) == len(records)
            for row, (base, results) in zip(rows, chosen):
                assert set(row) == {"schema_version", *base, *(results or {"error"})}
                assert {key: row[key] for key in base} == base
                assert row["schema_version"] == 1
            n_errors = sum("error" in row for row in rows)
            assert n_errors == sum(results is None for _, results in chosen)
            assert last_json(stdout.getvalue())["n_failed"] == n_errors
            assert stderr.getvalue().count("error: ") == n_errors
            assert code == (2 if n_errors else 0)

    @pytest.mark.parametrize(
        "argv, line, message",
        [
            (["eval-spatial"], "5", "record is not a JSON object"),
            (["eval-spatial"], "1" * 5000, "bad JSON record: Exceeds the limit"),
            (["eval-spatial"], "[" * 100_000, "bad JSON record: maximum recursion depth"),
            (["curate", "--rms-threshold", "0.1"], '{"path": 7}', "'path' must be a path string"),
            (["eval-semantic"], '{"gen_probs": 0, "gt_probs": "p.t"}',
             "'gen_probs' must be a path string"),
            # Written with surrogateescape, "\udcff" is the lone byte 0xff.
            (["eval-spatial"], '{"gen": "\udcff"}', "not UTF-8 text"),
        ],
    )
    def test_malformed_record_aborts_before_any_row(self, capsys, tmp_path, argv, line, message):
        manifest = tmp_path / "m.ndjson"
        text = '{"gen": "a.wav", "gt": "b.wav", "path": "c.wav"}\n' + line + "\n"
        manifest.write_bytes(text.encode("utf-8", "surrogateescape"))
        out_path = tmp_path / "rows.ndjson"
        code, _, err = run(capsys, *argv, "--manifest", manifest, "--out", out_path)
        assert code == 2
        assert err.startswith(f"error: {manifest}:2: {message}")
        assert not out_path.exists()

    @settings(max_examples=200, deadline=None)
    @given(lines=st.lists(TEXT | JSON_VALUES.map(json.dumps), max_size=5))
    def test_load_manifest_returns_records_or_a_data_error(self, tmp_path_factory, lines):
        path = tmp_path_factory.mktemp("manifest") / "m.ndjson"
        path.write_text("\n".join(lines), encoding="utf-8")
        try:
            records = _load_manifest(path, ("path",), ("gen_probs",))
        except FoaToolsError:
            return
        assert records and all(isinstance(r, dict) for r in records)
        assert all(isinstance(r["path"], str) for r in records)
        assert all(isinstance(r.get("gen_probs", ""), str) for r in records)


class TestVocabularyPastU16:
    @pytest.mark.parametrize("vocab", [0x10000, 0xFFFFFFFF])
    @pytest.mark.parametrize("command", ["info", "pattern-pack", "generate"])
    def test_is_a_header_error_naming_the_file(self, capsys, tmp_path, command, vocab):
        table, dst = tmp_path / "big.cmx", tmp_path / "out.cmx"
        table.write_bytes(struct.pack("<4sIIIB", b"ACM1", 1, 2, vocab, 0) + bytes(16))
        argv = {
            "info": ["info", table],
            "pattern-pack": ["pattern", "pack", table, dst],
            "generate": ["generate", "--table", table, dst],
        }[command]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {table}: vocabulary size {vocab} does not fit the u16 payload\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["big.cmx"]


class TestInfo:
    def test_truncated_code_file_is_data_error(self, capsys, tmp_path):
        stub = tmp_path / "stub.cmx"
        stub.write_bytes(b"ACM1\x01\x00")
        code, _, err = run(capsys, "info", stub)
        assert code == 2
        assert "header" in err

    def test_zero_jobs_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "curate", "--manifest", tmp_path / "m", "--out", tmp_path / "o",
            "--rms-threshold", "0.1", "--jobs", "0",
        )
        assert code == 1

    def test_wav_probe_decodes_no_sample(self, capsys, tmp_path, monkeypatch):
        paths = [tmp_path / name for name in ("f32.wav", "pcm.wav", "mono.wav", "ext.wav", "pcm24.wav")]
        write_wav(np.zeros((4, 10)), 44100, paths[0])
        write_wav(np.zeros((4, 7)), 22050, paths[1], "pcm16")
        write_wav(np.zeros(3), 8000, paths[2])
        frames = np.zeros((5, 4), dtype="<f4")
        paths[3].write_bytes(extensible_wav(frames, 48000, 3, 32, frames.tobytes()))
        paths[4].write_bytes(pcm24_wav(np.zeros((3, 2), dtype=np.int64), 96000))

        def refuse(handle, header, size):
            raise AssertionError(f"info decoded {handle.name}")

        monkeypatch.setattr("foatools.tensor_io._wav_slabs", refuse)
        code, out, _ = run(capsys, "info", *paths)
        assert code == 0
        described = [(f["n_channels"], f["n_samples"], f["sample_rate"]) for f in last_json(out)["files"]]
        assert described == [(4, 10, 44100), (4, 7, 22050), (1, 3, 8000), (4, 5, 48000), (2, 3, 96000)]

    def test_tensor_and_code_probes_read_no_payload(self, capsys, tmp_path, monkeypatch):
        codes, tensor = tmp_path / "a.cmx", tmp_path / "a.t"
        write_code_matrix(pack(CodeMatrix(np.zeros((4, 2), dtype=np.int64), 1, 5), Pattern.PROPOSED), codes)
        blob = bytearray(codes.read_bytes())
        blob[17:19] = struct.pack("<H", 9)  # a code past V: info does not range-check codes
        codes.write_bytes(bytes(blob))
        write_tensor(np.zeros((2, 3), dtype=np.uint16), tensor)

        def refuse(*args, **kwargs):
            raise AssertionError("info read a payload")

        monkeypatch.setattr(np, "fromfile", refuse)
        code, out, _ = run(capsys, "info", codes, tensor)
        assert code == 0
        assert last_json(out)["files"] == [
            {"format": "code_matrix", "n_codebooks_per_channel": 1, "n_frames": 2, "path": str(codes),
             "pattern": "proposed", "vocab_size": 5},
            {"dtype": "uint16", "format": "tensor", "path": str(tensor), "shape": [2, 3]},
        ]
        tensor.write_bytes(tensor.read_bytes()[:-1])
        code, out, err = run(capsys, "info", tensor)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {tensor}: payload holds 11 bytes")

    def test_describes_all_formats(self, capsys, tmp_path):
        wav = tmp_path / "a.wav"
        write_wav(np.zeros((4, 10)), 44100, wav)
        codes = tmp_path / "a.cmx"
        write_code_matrix(CodeMatrix(np.zeros((4, 2), dtype=np.int64), 1, 5), codes)
        tensor = tmp_path / "a.t"
        write_tensor(np.zeros((2, 2), dtype=np.float32), tensor)
        code, out, _ = run(capsys, "info", wav, codes, tensor)
        assert code == 0
        files = last_json(out)["files"]
        assert [f["format"] for f in files] == ["wav", "code_matrix", "tensor"]
