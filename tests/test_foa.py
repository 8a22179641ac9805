import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import foatools
from foatools import (
    Direction,
    EnergyMap,
    FoaClip,
    Rotation,
    SphereGrid,
    decode_to_mono,
    directional_energy,
    encode_mono,
    energy_map,
    rotate,
)
from foatools.curation import clip_stats
from foatools.errors import InvalidRotationError, InvalidWindowError
from foatools.foa import ENERGY_MODES, block_moments, power_maps, walk_moments, window_sums
from helpers import (
    block_moments_bruteforce,
    encoded_noise,
    energy_map_bruteforce,
    grid_cells,
    nearest_cell_bruteforce,
    random_clip,
    random_direction,
    random_rotation,
    sphere_grid_cells_loop,
    turned,
)

SQRT2 = math.sqrt(2.0)


class TestDirection:
    def test_azimuth_normalized(self):
        assert Direction(2 * math.pi + 0.5, 0.0).azimuth == pytest.approx(0.5)
        assert Direction(-0.25, 0.0).azimuth == pytest.approx(2 * math.pi - 0.25)

    def test_elevation_bounds(self):
        Direction(0.0, math.pi / 2)
        Direction(0.0, -math.pi / 2)
        with pytest.raises(ValueError):
            Direction(0.0, math.pi / 2 + 1e-6)
        with pytest.raises(ValueError):
            Direction(float("nan"), 0.0)

    def test_unit_vector_norm(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            d = random_direction(rng)
            assert abs(np.linalg.norm(d.unit_vector()) - 1.0) < 1e-12



class TestRotation:
    def test_identity_and_quarter_turn_valid(self):
        Rotation(np.eye(3))
        Rotation.quarter_turn_z()
        Rotation.about_z(1.234)

    def test_non_orthogonal_rejected(self):
        with pytest.raises(InvalidRotationError):
            Rotation(np.eye(3) * 2.0)

    def test_reflection_rejected(self):
        flip = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(InvalidRotationError):
            Rotation(flip)


class TestFoaClip:
    def test_validation(self):
        with pytest.raises(ValueError):
            FoaClip(np.zeros((3, 10)), 44100)
        with pytest.raises(ValueError):
            FoaClip(np.zeros((4, 0)), 44100)
        with pytest.raises(ValueError):
            FoaClip(np.full((4, 4), np.nan), 44100)
        with pytest.raises(ValueError):
            FoaClip(np.zeros((4, 4)), 0)

    def test_channel_accessors(self):
        clip = FoaClip(np.arange(8.0).reshape(4, 2), 8)
        assert clip.samples[0].tolist() == [0.0, 1.0]
        assert clip.samples[3].tolist() == [6.0, 7.0]
        assert clip.n_samples / clip.sample_rate == pytest.approx(0.25)


class TestEncodeDecode:
    def test_encode_front(self):
        clip = encode_mono([1.0], Direction(0.0, 0.0))
        assert clip.samples[0, 0] == pytest.approx(1.0 / SQRT2)
        assert clip.samples[1, 0] == pytest.approx(1.0)
        assert clip.samples[2, 0] == pytest.approx(0.0, abs=1e-15)
        assert clip.samples[3, 0] == pytest.approx(0.0, abs=1e-15)

    def test_encode_zenith(self):
        clip = encode_mono([1.0], Direction(0.0, math.pi / 2))
        assert clip.samples[0, 0] == pytest.approx(1.0 / SQRT2)
        assert clip.samples[1, 0] == pytest.approx(0.0, abs=1e-15)
        assert clip.samples[2, 0] == pytest.approx(0.0, abs=1e-15)
        assert clip.samples[3, 0] == pytest.approx(1.0)

    def test_w_channel_exact(self):
        rng = np.random.default_rng(0)
        s = rng.normal(size=128)
        clip = encode_mono(s, Direction(1.0, 0.2))
        assert np.array_equal(clip.samples[0], s / SQRT2)

    def test_encoded_rms_ratios(self):
        rng = np.random.default_rng(1)
        s = rng.normal(size=4410)
        az, el = math.pi / 3, math.pi / 6
        clip = encode_mono(s, Direction(az, el))
        rms = np.sqrt(np.mean(clip.samples**2, axis=1))
        expected = SQRT2 * np.array(
            [math.cos(az) * math.cos(el), math.sin(az) * math.cos(el), math.sin(el)]
        )
        assert np.allclose(rms[1:] / rms[0], expected, atol=1e-12)

    def test_encode_rejects_bad_signal(self):
        with pytest.raises(ValueError):
            encode_mono([], Direction(0.0, 0.0))
        with pytest.raises(ValueError):
            encode_mono([np.inf], Direction(0.0, 0.0))

    def test_decode_known_values(self):
        clip = FoaClip(np.array([[1.0], [2.0], [3.0], [4.0]]), 44100)
        assert decode_to_mono(clip, Direction(0.0, 0.0))[0] == pytest.approx(3.0)
        assert decode_to_mono(clip, Direction(math.pi / 2, 0.0))[0] == pytest.approx(4.0)

    def test_decode_of_encode(self):
        rng = np.random.default_rng(2)
        s = rng.normal(size=500)
        d = random_direction(rng)
        decoded = decode_to_mono(encode_mono(s, d), d)
        assert np.allclose(decoded, s * (1.0 / SQRT2 + 1.0), atol=1e-12)


class TestRotate:
    def test_identity_exact(self):
        rng = np.random.default_rng(3)
        clip = random_clip(rng)
        rotated = rotate(clip, Rotation(np.eye(3)))
        assert np.array_equal(rotated.samples, clip.samples)

    def test_quarter_turn_channel_map(self):
        rng = np.random.default_rng(4)
        clip = random_clip(rng)
        rotated = rotate(clip, Rotation.quarter_turn_z())
        assert np.array_equal(rotated.samples[0], clip.samples[0])
        assert np.array_equal(rotated.samples[1], -clip.samples[2])
        assert np.array_equal(rotated.samples[2], clip.samples[1])
        assert np.array_equal(rotated.samples[3], clip.samples[3])

    def test_four_quarter_turns_identity(self):
        rng = np.random.default_rng(5)
        clip = random_clip(rng)
        out = clip
        for _ in range(4):
            out = rotate(out, Rotation.quarter_turn_z())
        assert np.max(np.abs(out.samples - clip.samples)) < 1e-12

    def test_directional_energy_preserved(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            clip = random_clip(rng, n_samples=128)
            rotated = rotate(clip, random_rotation(rng))
            before = np.sum(clip.samples[1:] ** 2, axis=0)
            after = np.sum(rotated.samples[1:] ** 2, axis=0)
            assert np.allclose(after, before, rtol=1e-9)

    def test_decode_commutes_with_rotation(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            clip = random_clip(rng, n_samples=64)
            rotation = random_rotation(rng)
            d = random_direction(rng)
            lhs = decode_to_mono(rotate(clip, rotation), turned(rotation, d))
            rhs = decode_to_mono(clip, d)
            assert np.max(np.abs(lhs - rhs)) < 1e-9


class TestSphereGrid:
    @pytest.mark.parametrize("bands,azimuths", [(1, 1), (2, 3), (8, 16), (32, 64), (33, 7)])
    def test_weights_sum_to_one(self, bands, azimuths):
        grid = SphereGrid(bands, azimuths)
        assert abs(grid.weights.sum() - 1.0) < 1e-9
        assert np.all(grid.weights > 0.0)

    def test_band_sampling_rule(self):
        grid = SphereGrid(16, 48)
        for direction, _, samples_in_band in grid_cells(grid):
            assert samples_in_band == max(1, round(48 * math.cos(direction.elevation)))

    @settings(max_examples=200, deadline=None)
    @given(bands=st.integers(1, 90), azimuths=st.integers(1, 512))
    def test_cells_bit_identical_to_the_per_cell_loop(self, bands, azimuths):
        grid, want = SphereGrid(bands, azimuths), sphere_grid_cells_loop(bands, azimuths)
        assert grid.samples_per_band == want["samples_per_band"]
        assert all(type(count) is int for count in grid.samples_per_band)
        for name in ("band_index", "azimuth_index", "azimuths", "elevations", "weights"):
            assert np.array_equal(getattr(grid, name), want[name]), name
        assert grid.band_index.dtype == np.intp and grid.azimuth_index.dtype == np.intp

    def test_invalid_resolution(self):
        with pytest.raises(ValueError):
            SphereGrid(0, 8)

    def test_equality_is_by_resolution(self):
        assert SphereGrid(8, 16) == SphereGrid(8, 16)
        assert SphereGrid(8, 16) != SphereGrid(8, 17)


class TestBlockMoments:
    @settings(max_examples=80, deadline=None)
    @given(
        length=st.integers(1, 40),
        per_slab=st.integers(1, 5),
        slabs=st.integers(1, 4),
        tail=st.integers(0, 60),
        offset=st.integers(0, 7),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_bits_for_any_layout_and_cut(self, length, per_slab, slabs, tail, offset, seed):
        # Samples over 17 octaves, so a sum taken in another order shows.
        rng = np.random.default_rng(seed)
        rate = per_slab * length  # one decoder slab of whole blocks
        frames = slabs * rate + tail
        x = rng.normal(size=(4, frames)) * np.exp(rng.uniform(-6, 6, size=(4, frames)))
        want = block_moments(x, length)
        padded = np.zeros((6, frames + offset + 3))
        padded[1:5, offset : offset + frames] = x
        spaced = np.zeros((4, 2 * frames))
        spaced[:, ::2] = x
        # Channel-interleaved (Fortran order), an offset view with a longer row, every other column.
        for samples in (np.asfortranarray(x), padded[1:5, offset : offset + frames], spaced[:, ::2]):
            assert np.array_equal(block_moments(samples, length), want)
        # Each slab fresh in memory, as the WAV decoder yields it.
        cut = [block_moments(np.array(x[:, s * rate : (s + 1) * rate]), length) for s in range(slabs)]
        assert np.array_equal(np.concatenate(cut), want[: slabs * per_slab])
        assert np.array_equal(want, want.transpose(0, 2, 1))
        # Relative to sqrt(M_ii M_jj), which bounds |M_ij| and the sum of its |products|.
        oracle = block_moments_bruteforce(x, length)
        scale = np.sqrt(np.einsum("bii,bjj->bij", oracle, oracle))
        assert np.all(np.abs(want - oracle) <= 1e-12 * scale)

    @pytest.mark.parametrize("rate, length", [(44100, 8820), (44100, 44100), (44101, 44101)])
    def test_second_slabs_give_the_clips_bits_at_audio_rates(self, rate, length):
        # Rows as long as the decoder's: how a dot product blocks its sum can depend on length and alignment.
        x = np.random.default_rng(rate).normal(size=(4, 3 * rate + 5))
        cut = [block_moments(np.array(x[:, s * rate : (s + 1) * rate]), length) for s in range(3)]
        assert np.array_equal(np.concatenate(cut), block_moments(x, length)[: 3 * rate // length])

    def test_same_bits_for_any_blas_thread_count(self):
        # OpenBLAS splits a long ddot over its threads, which changes its bits; the conftest
        # only sets a default thread count, so each run here sets its own.
        code = (
            "import hashlib, numpy as np\n"
            "from foatools.foa import block_moments\n"
            "x = np.random.default_rng(5).normal(size=(4, 60 * 44100))\n"
            "moments = [block_moments(x, length) for length in (8820, 44100, x.shape[1])]\n"
            "print(hashlib.sha256(b''.join(m.tobytes() for m in moments)).hexdigest())\n"
        )
        path = str(pathlib.Path(foatools.__file__).parents[1])
        runs = [
            subprocess.run(
                [sys.executable, "-c", code],
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path},
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for threads in ("1", "2")
        ]
        assert len(runs[0]) == 65 and runs[0] == runs[1]


class TestEnergyMap:
    def test_zero_clip_zero_map(self):
        clip = FoaClip(np.zeros((4, 100)), 44100)
        emap = energy_map(clip, SphereGrid(8, 16))
        assert np.all(emap.values == 0.0)

    def test_matches_bruteforce_both_modes(self):
        rng = np.random.default_rng(8)
        grid = SphereGrid(8, 16)
        clip = random_clip(rng, n_samples=256)
        for mode in ("power", "literal-linear"):
            got = energy_map(clip, grid, mode=mode).values
            want = energy_map_bruteforce(clip, grid, mode=mode)
            assert np.allclose(got, want, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("mode", ENERGY_MODES)
    @pytest.mark.parametrize("sample_rate, window", [(44100, (50, 200)), (100, (50, 280))])
    def test_windowed_matches_bruteforce(self, mode, sample_rate, window):
        # At 100 Hz the second window crosses two whole seconds and ends in the tail.
        rng = np.random.default_rng(9)
        grid = SphereGrid(8, 16)
        clip = random_clip(rng, n_samples=300, sample_rate=sample_rate)
        got = energy_map(clip, grid, window=window, mode=mode).values
        want = energy_map_bruteforce(clip, grid, window=window, mode=mode)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray])
    def test_whole_clip_power_map_is_fov_centers(self, layout):
        # curation.fov_center's map: the mean of the clip_stats moment over every sample.
        rng = np.random.default_rng(15)
        clip = FoaClip(layout(rng.normal(size=(4, 2 * 441 + 13))), 441)
        grid = SphereGrid(8, 16)
        moment = clip_stats([clip.samples], clip.n_samples, clip.sample_rate).whole
        assert np.array_equal(energy_map(clip, grid).values, power_maps(grid, moment[None] / clip.n_samples)[0])

    def test_window_sums_carry_their_window(self):
        clip = random_clip(np.random.default_rng(16), n_samples=300, sample_rate=100)
        sums = window_sums([clip.samples[:, :200], clip.samples[:, 200:]], 300, 100, (20, 250))
        grid = SphereGrid(4, 8)
        for mode in ENERGY_MODES:
            got = energy_map(sums, grid, mode=mode)
            assert got.window == (20, 250)
            assert np.array_equal(got.values, energy_map(clip, grid, (20, 250), mode).values)
        with pytest.raises(ValueError, match="carry their window"):
            energy_map(sums, grid, window=(20, 250))

    @settings(max_examples=80, deadline=None)
    @given(
        rate=st.integers(1, 60),
        frames=st.integers(1, 400),
        cuts=st.lists(st.integers(1, 4), max_size=10),
        contiguous=st.booleans(),
        edges=st.tuples(st.integers(0, 2**20), st.integers(0, 2**20)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_window_sums_count_samples_outside_as_zero(self, rate, frames, cuts, contiguous, edges, seed):
        # float64 samples over 25 octaves, so a sum taken in another order shows.
        rng = np.random.default_rng(seed)
        samples = (rng.normal(size=(frames, 4)) * np.exp(rng.uniform(-10, 8, size=(frames, 4)))).T
        samples = np.ascontiguousarray(samples) if contiguous else samples
        start = edges[0] % frames
        window = (start, start + 1 + edges[1] % (frames - start))
        inside = np.zeros(frames)
        inside[window[0] : window[1]] = 1.0
        masked = samples * inside
        bounds = [0, *(int(end) for end in np.cumsum(cuts) * rate if end < frames), frames]
        got = window_sums((samples[:, lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])), frames, rate, window)
        assert got.window == window
        assert np.array_equal(got.whole, clip_stats([masked], frames, rate).whole)
        # Each channel-second summed in sample order, then the seconds in order, then the tail.
        k = frames // rate
        want = np.zeros(4)
        for part in [masked[:, i * rate : (i + 1) * rate] for i in range(k)] + [masked[:, k * rate :]]:
            if part.size:
                want = want + np.cumsum(part, axis=1)[:, -1]
        assert np.array_equal(got.sums, want)

    @settings(max_examples=80, deadline=None)
    @given(
        length=st.integers(1, 9),
        frames=st.integers(1, 120),
        cuts=st.lists(st.integers(0, 25), max_size=12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_walk_moments_does_not_depend_on_the_cuts(self, length, frames, cuts, seed):
        # Slabs of any width, empty ones too, so blocks straddle slab edges.
        rng = np.random.default_rng(seed)
        samples = rng.normal(size=(4, frames)) * np.exp(rng.uniform(-10, 8, size=(4, frames)))
        bounds = [0, *(int(end) for end in np.cumsum(cuts) if end < frames), frames]
        *one, (leftover, whole) = walk_moments([samples], length)
        *cut, (cut_leftover, cut_whole) = walk_moments(
            (samples[:, lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])), length
        )
        assert np.array_equal(cut_whole, whole)
        # Every slab is yielded as it came, with the blocks that end in it.
        assert np.array_equal(cut_leftover, leftover)
        assert np.array_equal(np.concatenate([m for _, m in cut]), one[0][1])
        assert np.array_equal(np.concatenate([s for s, _ in cut], axis=1), samples)

    def test_argmax_is_nearest_cell(self):
        rng = np.random.default_rng(10)
        grid = SphereGrid(16, 32)
        for _ in range(10):
            d = random_direction(rng)
            emap = energy_map(encoded_noise(rng, d, n_samples=1000), grid)
            assert emap.argmax_cell() == nearest_cell_bruteforce(grid, d)

    def test_front_back_ratio(self):
        rng = np.random.default_rng(11)
        front = Direction(0.0, 0.0)
        clip = encoded_noise(rng, front)
        ratio = directional_energy(clip, front) / directional_energy(clip, Direction(math.pi, 0.0))
        expected = ((1.0 + 1.0 / SQRT2) / (1.0 - 1.0 / SQRT2)) ** 2
        assert ratio == pytest.approx(expected, rel=1e-9)

    def test_literal_linear_directional_energy_is_the_decoded_mean(self):
        rng = np.random.default_rng(14)
        clip = random_clip(rng, n_samples=300)
        for window in (None, (40, 250)):
            start, end = window or (0, 300)
            for _ in range(5):
                d = random_direction(rng)
                want = sum(decode_to_mono(clip, d)[start:end]) / (end - start)
                got = directional_energy(clip, d, window=window, mode="literal-linear")
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_invalid_windows(self):
        clip = FoaClip(np.zeros((4, 100)), 44100)
        grid = SphereGrid(4, 8)
        for window in [(5, 5), (10, 5), (-1, 10), (0, 101)]:
            with pytest.raises(InvalidWindowError):
                energy_map(clip, grid, window=window)

    def test_invalid_mode(self):
        clip = FoaClip(np.zeros((4, 10)), 44100)
        with pytest.raises(ValueError):
            energy_map(clip, SphereGrid(4, 8), mode="rms")

    def test_values_length_checked(self):
        with pytest.raises(ValueError):
            EnergyMap(SphereGrid(4, 8), np.zeros(3), (0, 1))

    def test_rotation_invariance_analytic(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            clip = random_clip(rng, n_samples=128)
            rotation = random_rotation(rng)
            d = random_direction(rng)
            lhs = directional_energy(rotate(clip, rotation), turned(rotation, d))
            rhs = directional_energy(clip, d)
            assert lhs == pytest.approx(rhs, rel=1e-6, abs=1e-12)

    def test_source_direction_dominates_grid(self):
        rng = np.random.default_rng(13)
        grid = SphereGrid(16, 32)
        for _ in range(100):
            d = random_direction(rng)
            clip = encoded_noise(rng, d, n_samples=400)
            emap = energy_map(clip, grid)
            assert directional_energy(clip, d) >= emap.values.max() - 1e-12
