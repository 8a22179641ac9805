import math

import numpy as np
import pytest

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
from foatools.errors import InvalidRotationError, InvalidWindowError
from helpers import (
    encoded_noise,
    energy_map_bruteforce,
    grid_cells,
    nearest_cell_bruteforce,
    random_clip,
    random_direction,
    random_rotation,
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

    def test_from_unit_vector_round_trip(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            d = random_direction(rng)
            back = Direction.from_unit_vector(d.unit_vector())
            assert np.allclose(back.unit_vector(), d.unit_vector(), atol=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            Direction.from_unit_vector([0.0, 0.0, 0.0])


class TestRotation:
    def test_identity_and_quarter_turn_valid(self):
        Rotation.identity()
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
        assert clip.w.tolist() == [0.0, 1.0]
        assert clip.z.tolist() == [6.0, 7.0]
        assert clip.duration == pytest.approx(0.25)


class TestEncodeDecode:
    def test_encode_front(self):
        clip = encode_mono([1.0], Direction(0.0, 0.0))
        assert clip.w[0] == pytest.approx(1.0 / SQRT2)
        assert clip.x[0] == pytest.approx(1.0)
        assert clip.y[0] == pytest.approx(0.0, abs=1e-15)
        assert clip.z[0] == pytest.approx(0.0, abs=1e-15)

    def test_encode_zenith(self):
        clip = encode_mono([1.0], Direction(0.0, math.pi / 2))
        assert clip.w[0] == pytest.approx(1.0 / SQRT2)
        assert clip.x[0] == pytest.approx(0.0, abs=1e-15)
        assert clip.y[0] == pytest.approx(0.0, abs=1e-15)
        assert clip.z[0] == pytest.approx(1.0)

    def test_w_channel_exact(self):
        rng = np.random.default_rng(0)
        s = rng.normal(size=128)
        clip = encode_mono(s, Direction(1.0, 0.2))
        assert np.array_equal(clip.w, s / SQRT2)

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
        rotated = rotate(clip, Rotation.identity())
        assert np.array_equal(rotated.samples, clip.samples)

    def test_quarter_turn_channel_map(self):
        rng = np.random.default_rng(4)
        clip = random_clip(rng)
        rotated = rotate(clip, Rotation.quarter_turn_z())
        assert np.array_equal(rotated.w, clip.w)
        assert np.array_equal(rotated.x, -clip.y)
        assert np.array_equal(rotated.y, clip.x)
        assert np.array_equal(rotated.z, clip.z)

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
            lhs = decode_to_mono(rotate(clip, rotation), rotation.apply(d))
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

    def test_invalid_resolution(self):
        with pytest.raises(ValueError):
            SphereGrid(0, 8)

    def test_equality_is_by_resolution(self):
        assert SphereGrid(8, 16) == SphereGrid(8, 16)
        assert SphereGrid(8, 16) != SphereGrid(8, 17)


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

    def test_windowed_matches_bruteforce(self):
        rng = np.random.default_rng(9)
        grid = SphereGrid(8, 16)
        clip = random_clip(rng, n_samples=300)
        got = energy_map(clip, grid, window=(50, 200)).values
        want = energy_map_bruteforce(clip, grid, window=(50, 200))
        assert np.allclose(got, want, rtol=1e-9, atol=1e-12)

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
            lhs = directional_energy(rotate(clip, rotation), rotation.apply(d))
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
