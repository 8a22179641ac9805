import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from foatools import energy_from_scores, patch_saliency, patch_scores
from helpers import patch_energy_bruteforce, patch_scores_bruteforce, patch_scores_clamped


@st.composite
def embeddings(draw):
    shape = draw(st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5), st.integers(1, 6)))
    # float32 is what the CLI reads. Small integers cancel inside windows, so zero-norm
    # means (and their warning) occur.
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    width = np.finfo(dtype).bits
    elements = draw(st.sampled_from([st.integers(-2, 2).map(float), st.floats(-1e3, 1e3, width=width)]))
    emb = draw(hnp.arrays(dtype, shape, elements=elements))
    emb[np.linalg.norm(emb, axis=-1) == 0.0, 0] = 1.0  # all-zero vectors are rejected
    return emb


def scores_and_warnings(scores, emb, spatial_window, temporal_window):
    """The scores, and (message, file, line) of each warning: the line that calls ``scores``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = scores(emb, spatial_window, temporal_window)
    return result, [(str(w.message), w.filename, w.lineno) for w in caught]


class TestPatchScores:
    def test_identical_embeddings_score_zero(self):
        emb = np.tile(np.array([1.0, 2.0, 3.0]), (4, 5, 5, 1))
        spatial, temporal = patch_scores(emb)
        assert np.allclose(spatial, 0.0, atol=1e-12)
        assert np.allclose(temporal, 0.0, atol=1e-12)

    def test_parallel_mean_scores_zero(self):
        # Patches [1,0], [0,1], [-1,0] in one row: the middle patch's clamped
        # window mean is [0, 1/3], parallel to the patch, so its score is 0.
        emb = np.zeros((1, 1, 3, 2))
        emb[0, 0, 0] = [1.0, 0.0]
        emb[0, 0, 1] = [0.0, 1.0]
        emb[0, 0, 2] = [-1.0, 0.0]
        spatial, _ = patch_scores(emb, spatial_window=1, temporal_window=0)
        assert spatial[0, 0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_mean_gives_score_two(self):
        # Three collinear-in-pairs patches make the edge patch orthogonal to
        # its clamped-window mean: patches [0,1], [1,0], [-1,0] in one row.
        emb = np.zeros((1, 1, 3, 2))
        emb[0, 0, 0] = [0.0, 1.0]
        emb[0, 0, 1] = [1.0, 0.0]
        emb[0, 0, 2] = [-1.0, 0.0]
        spatial, _ = patch_scores(emb, spatial_window=1, temporal_window=0)
        # Middle patch mean = ([0,1]+[1,0]+[-1,0])*3/9 = [0, 1/3]: orthogonal
        # to [1,0], so the score is exactly 2.
        assert spatial[0, 0, 1] == pytest.approx(2.0, abs=1e-12)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        emb = rng.normal(size=(4, 7, 7, 16))
        spatial, temporal = patch_scores(emb, spatial_window=1, temporal_window=1)
        want_s, want_t = patch_scores_bruteforce(emb, 1, 1)
        assert np.allclose(spatial, want_s, atol=1e-6)
        assert np.allclose(temporal, want_t, atol=1e-6)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        emb = rng.normal(size=(3, 4, 4, 8))
        s1, t1 = patch_scores(emb)
        s2, t2 = patch_scores(173.5 * emb)
        assert np.allclose(s1, s2, atol=1e-9)
        assert np.allclose(t1, t2, atol=1e-9)

    def test_scores_within_range(self):
        rng = np.random.default_rng(2)
        spatial, temporal = patch_scores(rng.normal(size=(3, 5, 5, 6)))
        for scores in (spatial, temporal):
            assert scores.min() >= 0.0 and scores.max() <= 4.0

    def test_time_permutation_equivariance(self):
        # With no temporal window the frames are independent.
        rng = np.random.default_rng(3)
        emb = rng.normal(size=(5, 4, 4, 8))
        perm = rng.permutation(5)
        s_full, t_full = patch_scores(emb, temporal_window=0)
        s_perm, t_perm = patch_scores(emb[perm], temporal_window=0)
        assert np.allclose(s_perm, s_full[perm], atol=1e-12)
        assert np.allclose(t_perm, t_full[perm], atol=1e-12)

    def test_zero_norm_mean_warns_and_scores_two(self):
        emb = np.zeros((1, 1, 3, 1))
        emb[0, 0, 0, 0] = 1.0
        emb[0, 0, 1, 0] = 1.0
        emb[0, 0, 2, 0] = -2.0
        # Middle patch mean: (1 + 1 - 2) * 3 / 9 = 0.
        with pytest.warns(UserWarning, match="zero-norm"):
            spatial, _ = patch_scores(emb, spatial_window=1, temporal_window=0)
        assert spatial[0, 0, 1] == pytest.approx(2.0)

    @settings(max_examples=300, deadline=None)
    @given(emb=embeddings(), spatial_window=st.integers(0, 3), temporal_window=st.integers(0, 3))
    def test_bit_identical_to_clamped_indices(self, emb, spatial_window, temporal_window):
        # Windows up to 3 reach past tensors as small as one patch per axis.
        got, got_warnings = scores_and_warnings(patch_scores, emb, spatial_window, temporal_window)
        want, want_warnings = scores_and_warnings(patch_scores_clamped, emb, spatial_window, temporal_window)
        brute = patch_scores_bruteforce(emb, spatial_window, temporal_window)
        for got_scores, want_scores, brute_scores in zip(got, want, brute):
            assert np.array_equal(got_scores, want_scores)
            assert np.allclose(got_scores, brute_scores, atol=1e-6)
        assert got_warnings == want_warnings

    @settings(max_examples=150, deadline=None)
    @given(emb=embeddings(), spatial_window=st.integers(0, 3), temporal_window=st.integers(0, 3))
    def test_every_block_size_is_bit_identical(self, emb, spatial_window, temporal_window):
        # Blocks of 1 frame, 2 frames and the whole tensor give the clamped-index scores and warnings.
        want, want_warnings = scores_and_warnings(patch_scores_clamped, emb, spatial_window, temporal_window)
        assert all(filename == __file__ for _, filename, _ in want_warnings)
        frame_bytes = 8 * math.prod(emb.shape[1:])
        for frames in (1, 2, len(emb)):
            with mock.patch.object(patch_saliency, "_BLOCK_BYTES", frames * frame_bytes):
                got, got_warnings = scores_and_warnings(patch_scores, emb, spatial_window, temporal_window)
            for got_scores, want_scores in zip(got, want):
                assert np.array_equal(got_scores, want_scores)
            assert got_warnings == want_warnings

    @settings(max_examples=60, deadline=None)
    @given(emb=embeddings(), data=st.data(), value=st.sampled_from([np.nan, np.inf, -np.inf]),
           temporal_window=st.integers(0, 3))
    def test_non_finite_value_comes_first_at_every_block_size(self, emb, data, value, temporal_window):
        # Also past an all-zero vector in frame 0, and with no warning from the sums.
        emb[0, 0, 0] = 0.0
        emb[tuple(data.draw(st.integers(0, n - 1)) for n in emb.shape)] = value
        frame_bytes = 8 * math.prod(emb.shape[1:])
        for frames in (1, 2, len(emb)):
            with mock.patch.object(patch_saliency, "_BLOCK_BYTES", frames * frame_bytes):
                with warnings.catch_warnings(record=True) as caught, pytest.raises(ValueError, match="finite"):
                    warnings.simplefilter("always")
                    patch_scores(emb, 1, temporal_window)
            assert caught == []

    def test_peak_memory_does_not_grow_with_the_frames(self):
        # Only the two (time, rows, cols) float64 outputs span the frames: 28 more frames of
        # 8x8x1024 float32 (7.3 MB) may add their 28 KB, and a margin for Python's free lists.
        rng = np.random.default_rng(6)
        peaks = []
        for n_time in (4, 32):
            emb = rng.normal(size=(n_time, 8, 8, 1024)).astype(np.float32)
            patch_scores(emb)
            tracemalloc.start()
            try:
                patch_scores(emb)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        outputs = 2 * 28 * 8 * 8 * 8
        assert peaks[1] - peaks[0] <= outputs + 32_000, peaks

    @pytest.mark.parametrize(
        "kind, shape, small",
        [("spatial_window", (2, 2, 2, 64), 1), ("spatial_window", (2, 6, 6, 64), 5), ("temporal_window", (2, 6, 6, 64), 1)],
    )
    def test_peak_memory_does_not_grow_past_the_tensor(self, kind, shape, small):
        # An axis is padded by at most its size - 1 patches, so window 40 pads as the window of that
        # size does: window 1 on an axis of 2 patches. A 40-patch pad would take 2-7 MB here.
        emb = np.random.default_rng(8).normal(size=shape).astype(np.float32)
        peaks = []
        for window in (small, 40):
            patch_scores(emb, **{kind: window})
            tracemalloc.start()
            try:
                patch_scores(emb, **{kind: window})
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 16_000, peaks

    def test_window_sizes_are_checked_first(self):
        with pytest.raises(ValueError, match="window sizes must be nonnegative"):
            patch_scores(np.full((2, 2, 2, 3), np.nan), temporal_window=-1)
        with pytest.raises(ValueError, match="window sizes must be nonnegative"):
            patch_scores(np.ones((2, 2, 3)), spatial_window=-1)

    def test_rejects_bad_embeddings(self):
        with pytest.raises(ValueError):
            patch_scores(np.zeros((2, 2, 2, 3)))  # all-zero vectors
        with pytest.raises(ValueError):
            patch_scores(np.ones((2, 2, 3)))  # not 4-D
        with pytest.raises(ValueError):
            patch_scores(np.ones((1, 2, 2, 3)), spatial_window=-1)


class TestEnergyFromScores:
    def test_uniform_scores_uniform_energy(self):
        shape = (2, 3, 4)
        energy = energy_from_scores(np.ones(shape), np.ones(shape))
        assert np.allclose(energy, 1.0 / 12.0, atol=1e-12)

    def test_dominant_patch_takes_all(self):
        scores = np.zeros((1, 3, 3))
        scores[0, 1, 1] = 4.0
        energy = energy_from_scores(scores, scores, temperature=0.1)
        assert energy[0, 1, 1] == pytest.approx(1.0, abs=1e-9)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(4)
        spatial = 4.0 * rng.random((4, 7, 7))
        temporal = 4.0 * rng.random((4, 7, 7))
        got = energy_from_scores(spatial, temporal, temperature=0.1, top_p=0.7)
        want = patch_energy_bruteforce(spatial, temporal, 0.1, 0.7)
        assert np.allclose(got, want, atol=1e-6)

    def test_slices_are_distributions(self):
        rng = np.random.default_rng(5)
        energy = energy_from_scores(rng.random((6, 5, 5)), rng.random((6, 5, 5)))
        flat = energy.reshape(6, -1)
        assert np.all(energy >= 0.0)
        assert np.allclose(flat.sum(axis=1), 1.0, atol=1e-6)

    def test_parameter_validation(self):
        scores = np.ones((1, 2, 2))
        with pytest.raises(ValueError):
            energy_from_scores(scores, scores, temperature=0.0)
        with pytest.raises(ValueError, match="^temperature must be positive, got nan$"):
            energy_from_scores(scores, scores, temperature=np.nan)
        with pytest.raises(ValueError):
            energy_from_scores(scores, scores, top_p=0.0)
        with pytest.raises(ValueError):
            energy_from_scores(scores, scores, top_p=1.5)
        with pytest.raises(ValueError):
            energy_from_scores(scores, np.ones((2, 2, 2)))


@pytest.mark.parametrize("kind", [0, 1])
def test_energy_from_scores_refuses_a_temperature_too_small_for_the_scores(kind):
    # A score of 1 over 5e-324 overflows to inf, and softmax would make the frame NaN.
    scores = [np.zeros((2, 2, 2)), np.zeros((2, 2, 2))]
    scores[kind][1, 0, 1] = 1.0
    with pytest.raises(ValueError, match="^a row maximum divided by temperature 5e-324 is not finite$"):
        energy_from_scores(*scores, temperature=5e-324)


def test_energy_from_scores_gives_no_mass_to_a_score_overflowing_under_the_temperature():
    # -4 / 1e-308 overflows to -inf while each frame's maximum stays 0: a right
    # probability of 0, with no overflow warning (an error under this suite's filters).
    scores = np.array([[[0.0, -4.0]]])
    assert energy_from_scores(scores, scores, temperature=1e-308).tolist() == [[[1.0, 0.0]]]


@pytest.mark.parametrize("kind", [0, 1])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_energy_from_scores_refuses_non_finite_scores(kind, value):
    scores = [np.ones((1, 2, 2)), np.ones((1, 2, 2))]
    scores[kind][0, 1, 0] = value
    with pytest.raises(ValueError, match="^scores must be finite$"):
        energy_from_scores(*scores)
