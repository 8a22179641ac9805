import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from foatools import (
    ClipWindow,
    Direction,
    FoaClip,
    SphereGrid,
    amplitude_gate,
    encode_mono,
    fov_center,
    relevance_filter,
    rotate,
    segment_mask,
    select_windows,
)
from foatools.curation import clip_stats
from foatools.errors import NoEnergyError
from helpers import curation_stats_oracle, nearest_cell_bruteforce, random_direction, random_rotation

SR = 1000  # small "sample rate" keeps these tests cheap


def sine_clip(seconds, amplitude=0.1, sample_rate=SR):
    t = np.arange(seconds * sample_rate) / sample_rate
    wave = amplitude * np.sin(2 * math.pi * 50 * t)
    return FoaClip(np.tile(wave, (4, 1)), sample_rate)


class TestAmplitudeGate:
    def test_all_zero_rejected(self):
        assert amplitude_gate(FoaClip(np.zeros((4, 2 * SR)), SR)) is False

    def test_quiet_sine_accepted(self):
        assert amplitude_gate(sine_clip(2)) is True

    def test_any_silent_channel_rejects(self):
        clip = sine_clip(2)
        samples = clip.samples.copy()
        samples[1:] = 0.0  # W-only audio: X, Y, Z fail the per-channel rule
        assert amplitude_gate(FoaClip(samples, SR)) is False

    def test_one_quiet_second_rejects(self):
        clip = sine_clip(3)
        samples = clip.samples.copy()
        samples[2, SR : 2 * SR] = 0.0
        assert amplitude_gate(FoaClip(samples, SR)) is False

    def test_short_clip_errors(self):
        with pytest.raises(ValueError):
            amplitude_gate(FoaClip(np.ones((4, SR // 2)), SR))

    @pytest.mark.parametrize("threshold", [-0.1, np.nan])
    def test_negative_or_nan_threshold_rejected(self, threshold):
        with pytest.raises(ValueError, match="^threshold must be nonnegative$"):
            amplitude_gate(sine_clip(2), threshold)


class TestClipStatsOrder:
    @settings(max_examples=60, deadline=None)
    @given(
        rate=st.integers(1, 300),
        frames=st.integers(1, 1500),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_abs_means_add_each_second_in_sample_order(self, rate, frames, seed):
        # Magnitudes over exp(-40)..exp(5) round on most adds, so a pairwise or
        # blocked sum would change bits that float32 or PCM payloads cannot.
        rng = np.random.default_rng(seed)
        x = rng.choice([-1.0, 1.0], size=(4, frames)) * np.exp(rng.uniform(-40.0, 5.0, size=(4, frames)))
        # Channel-major as the WAV readers decode it, and a caller's channel-interleaved array.
        for samples in (x, np.asfortranarray(x)):
            clip = FoaClip(samples, rate)
            want, _ = curation_stats_oracle(clip)
            got = clip_stats([clip.samples], frames, rate).abs_means
            assert got.shape == want.shape and np.array_equal(got, want)


class TestSegmentMask:
    def test_silence_all_invalid(self):
        mask = segment_mask(FoaClip(np.zeros((4, 3 * SR)), SR), rms_threshold=0.01)
        assert mask.tolist() == [False, False, False]

    def test_alternating_seconds(self):
        samples = np.zeros((4, 4 * SR))
        t = np.arange(SR) / SR
        tone = np.sin(2 * math.pi * 40 * t)
        samples[0, SR : 2 * SR] = tone
        samples[0, 3 * SR :] = tone
        mask = segment_mask(FoaClip(samples, SR), rms_threshold=0.1)
        assert mask.tolist() == [False, True, False, True]

    def test_matches_direct_rms(self):
        rng = np.random.default_rng(0)
        clip = FoaClip(rng.normal(size=(4, 5 * SR)), SR)
        threshold = 1.0
        mask = segment_mask(clip, threshold)
        for second in range(5):
            w = clip.samples[0, second * SR : (second + 1) * SR]
            assert mask[second] == (math.sqrt(float(np.mean(w**2))) >= threshold)

    def test_partial_trailing_second_ignored(self):
        clip = FoaClip(np.ones((4, 2 * SR + SR // 2)), SR)
        assert segment_mask(clip, 0.5).size == 2

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            segment_mask(sine_clip(1), -0.1)

    def test_nan_threshold_rejected(self):
        with pytest.raises(ValueError, match="^rms_threshold must be nonnegative$"):
            segment_mask(sine_clip(1), np.nan)


class TestSelectWindows:
    def test_four_of_five_kept(self):
        assert select_windows([1, 1, 1, 1, 0]) == [ClipWindow(0, 5)]

    def test_two_of_five_dropped(self):
        assert select_windows([1, 1, 0, 0, 0]) == []

    def test_ten_seconds_one_window(self):
        mask = [1] * 5 + [0] * 5
        assert select_windows(mask) == [ClipWindow(0, 5)]

    def test_windows_never_overlap_and_satisfy_rule(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            mask = rng.random(23) < 0.7
            windows = select_windows(mask)
            for window in windows:
                assert window.start_second % 5 == 0
                assert int(np.sum(mask[window.start_second : window.end_second])) >= 4
            starts = [w.start_second for w in windows]
            assert starts == sorted(set(starts))

    def test_short_mask_errors(self):
        with pytest.raises(ValueError):
            select_windows([1, 1, 1, 1])

    def test_clip_window_validation(self):
        with pytest.raises(ValueError):
            ClipWindow(0, 4)
        with pytest.raises(ValueError):
            ClipWindow(-5, 0)


class TestFovCenter:
    def test_matches_nearest_cell(self):
        rng = np.random.default_rng(2)
        grid = SphereGrid(16, 32)
        for _ in range(10):
            d = random_direction(rng)
            clip = encode_mono(rng.normal(size=800), d, SR)
            center = fov_center(clip, grid)
            expected = grid.direction(nearest_cell_bruteforce(grid, d))
            assert center.azimuth == pytest.approx(expected.azimuth)
            assert center.elevation == pytest.approx(expected.elevation)

    def test_zero_clip_errors(self):
        with pytest.raises(NoEnergyError):
            fov_center(FoaClip(np.zeros((4, 100)), SR), SphereGrid(4, 8))

    def test_antipodal_tie_breaks_to_lower_index(self):
        # A pure X figure-of-eight is symmetric front/back; on a 1x4 grid the
        # front cell (azimuth 0) and back cell (azimuth pi) tie exactly and
        # the lower cell index must win.
        rng = np.random.default_rng(3)
        samples = np.zeros((4, 500))
        samples[1] = rng.normal(size=500)
        grid = SphereGrid(1, 4)
        center = fov_center(FoaClip(samples, SR), grid)
        assert center.azimuth == pytest.approx(0.0)
        assert center.elevation == pytest.approx(0.0)


class TestUnderRotation:
    def test_segment_mask_invariant_under_rotation(self):
        # The mask reads only W, which any sound-field rotation leaves alone.
        rng = np.random.default_rng(5)
        clip = encode_mono(rng.normal(size=4 * SR), random_direction(rng), SR)
        turned = rotate(clip, random_rotation(rng))
        threshold = 0.3
        assert segment_mask(turned, threshold).tolist() == segment_mask(clip, threshold).tolist()

    def test_amplitude_gate_runs_on_rotated_clips(self):
        # The full gate reads X, Y, Z too, so rotation may change the verdict;
        # just exercise it on rotated audio.
        rng = np.random.default_rng(6)
        clip = encode_mono(0.2 * rng.normal(size=2 * SR), random_direction(rng), SR)
        assert amplitude_gate(rotate(clip, random_rotation(rng))) in (True, False)


class TestRelevanceFilter:
    def test_equal_scores_all_kept(self):
        assert relevance_filter([3.0, 3.0, 3.0]).tolist() == [True, True, True]

    def test_hand_arithmetic(self):
        # mean 8, population std 4: only the 0 falls below 8 - 4.
        keep = relevance_filter([0.0, 10.0, 10.0, 10.0, 10.0])
        assert keep.tolist() == [False, True, True, True, True]

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(4)
        scores = rng.normal(size=40).tolist()
        mean = sum(scores) / len(scores)
        std = math.sqrt(sum((s - mean) ** 2 for s in scores) / len(scores))
        want = [s >= mean - std for s in scores]
        assert relevance_filter(scores).tolist() == want

    def test_needs_two_scores(self):
        with pytest.raises(ValueError):
            relevance_filter([1.0])

    def test_refuses_non_finite_scores(self):
        with pytest.raises(ValueError, match="^scores must be finite$"):
            relevance_filter([1.0, float("nan"), 2.0])
