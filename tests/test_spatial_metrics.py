import math
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from foatools import (
    Direction,
    EnergyMap,
    FoaClip,
    SphereGrid,
    auc,
    correlation,
    encode_mono,
    energy_map,
    evaluate_windows,
    rotate,
)
from foatools import spatial_metrics
from foatools.spatial_metrics import auc_rows, correlation_rows, window_moments
from foatools.tensor_io import read_foa_summary, read_foa_wav
from foatools.errors import (
    GridMismatchError,
    IncompatibleClipsError,
    NoUsableWindowsError,
    UndefinedMetricError,
)
from helpers import (
    auc_bruteforce,
    auc_rows_sorted,
    encoded_noise,
    evaluate_windows_bruteforce,
    evaluate_windows_whole,
    random_direction,
    random_rotation,
    weighted_pearson_bruteforce,
    write_foa_wav,
)

GRID = SphereGrid(8, 16)


def random_map(rng, grid=GRID):
    return EnergyMap(grid, rng.random(grid.n_cells), (0, 1))


class TestCorrelation:
    def test_self_is_one(self):
        rng = np.random.default_rng(0)
        m = random_map(rng)
        assert correlation(m, m) == pytest.approx(1.0, abs=1e-12)

    def test_negative_affine_is_minus_one(self):
        rng = np.random.default_rng(1)
        m = random_map(rng)
        flipped = EnergyMap(GRID, -2.0 * m.values + 5.0, (0, 1))
        assert correlation(flipped, m) == pytest.approx(-1.0, abs=1e-12)

    def test_positive_affine_invariance_both_sides(self):
        rng = np.random.default_rng(2)
        a, b = random_map(rng), random_map(rng)
        scaled_a = EnergyMap(GRID, 3.5 * a.values + 0.25, (0, 1))
        scaled_b = EnergyMap(GRID, 0.01 * b.values + 7.0, (0, 1))
        assert correlation(scaled_a, b) == pytest.approx(correlation(a, b), abs=1e-9)
        assert correlation(a, scaled_b) == pytest.approx(correlation(a, b), abs=1e-9)

    def test_grid_mismatch(self):
        rng = np.random.default_rng(3)
        other = SphereGrid(8, 17)
        with pytest.raises(GridMismatchError):
            correlation(random_map(rng), random_map(rng, other))

    def test_constant_map_undefined(self):
        rng = np.random.default_rng(4)
        constant = EnergyMap(GRID, np.full(GRID.n_cells, 2.0), (0, 1))
        with pytest.raises(UndefinedMetricError):
            correlation(constant, random_map(rng))
        with pytest.raises(UndefinedMetricError):
            correlation(random_map(rng), constant)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a, b = random_map(rng), random_map(rng)
            want = weighted_pearson_bruteforce(
                list(a.values), list(b.values), list(GRID.weights)
            )
            assert correlation(a, b) == pytest.approx(want, abs=1e-9)


class TestAuc:
    def test_self_is_one(self):
        rng = np.random.default_rng(6)
        m = random_map(rng)
        assert auc(m, m) == pytest.approx(1.0, abs=1e-12)

    def test_constant_prediction_is_half(self):
        rng = np.random.default_rng(7)
        constant = EnergyMap(GRID, np.full(GRID.n_cells, 0.3), (0, 1))
        assert auc(constant, random_map(rng)) == pytest.approx(0.5, abs=1e-12)

    def test_constant_reference_undefined(self):
        rng = np.random.default_rng(8)
        constant = EnergyMap(GRID, np.ones(GRID.n_cells), (0, 1))
        with pytest.raises(UndefinedMetricError):
            auc(random_map(rng), constant)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(9)
        gen, gt = random_map(rng), random_map(rng)
        warped = EnergyMap(GRID, np.exp(3.0 * gen.values), (0, 1))
        assert auc(warped, gt) == pytest.approx(auc(gen, gt), abs=1e-12)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            gen, gt = random_map(rng), random_map(rng)
            assert auc(gen, gt) == pytest.approx(auc_bruteforce(gen, gt), abs=1e-9)

    def test_bad_percentile(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError):
            auc(random_map(rng), random_map(rng), fixation_percentile=100.0)


class TestEvaluateWindows:
    def test_self_comparison_all_ones(self):
        rng = np.random.default_rng(12)
        sr = 4410
        gt = encoded_noise(rng, Direction(1.0, 0.2), n_samples=5 * sr, sample_rate=sr)
        report = evaluate_windows(gt, gt, GRID)
        for value in (
            report.cc_all,
            report.cc_1fps,
            report.cc_5fps,
            report.auc_all,
            report.auc_1fps,
            report.auc_5fps,
        ):
            assert value == pytest.approx(1.0, abs=1e-9)
        assert report.windows_used == {"all": 1, "1fps": 5, "5fps": 25}
        assert report.windows_skipped == {"all": 0, "1fps": 0, "5fps": 0}

    def test_window_counts_at_44100(self):
        rng = np.random.default_rng(13)
        sr = 44100
        gt = encoded_noise(rng, Direction(0.5, -0.1), n_samples=5 * sr, sample_rate=sr)
        report = evaluate_windows(gt, gt, GRID)
        assert report.windows_used == {"all": 1, "1fps": 5, "5fps": 25}

    def test_incompatible_clips(self):
        rng = np.random.default_rng(14)
        a = encoded_noise(rng, Direction(0, 0), n_samples=4410, sample_rate=4410)
        b = encoded_noise(rng, Direction(0, 0), n_samples=4410, sample_rate=8820)
        with pytest.raises(IncompatibleClipsError):
            evaluate_windows(a, b, GRID)
        c = encoded_noise(rng, Direction(0, 0), n_samples=8820, sample_rate=4410)
        with pytest.raises(IncompatibleClipsError):
            evaluate_windows(a, c, GRID)

    def test_silent_clips_raise(self):
        sr = 4410
        silent = FoaClip(np.zeros((4, sr)), sr)
        with pytest.raises(NoUsableWindowsError):
            evaluate_windows(silent, silent, GRID)

    def test_partially_silent_windows_are_skipped(self):
        rng = np.random.default_rng(15)
        sr = 4410
        samples = encode_mono(rng.normal(size=3 * sr), Direction(1.0, 0.0), sr).samples.copy()
        samples[:, sr : 2 * sr] = 0.0  # one silent second
        clip = FoaClip(samples, sr)
        report = evaluate_windows(clip, clip, GRID)
        assert report.windows_used["1fps"] == 2
        assert report.windows_skipped["1fps"] == 1
        assert report.windows_used["5fps"] + report.windows_skipped["5fps"] == 15

    def test_noise_degrades_correlation(self):
        # Mean full-clip correlation must fall strictly as gen drifts from gt.
        sr = 4410
        levels = (0.1, 0.8, 3.0)
        means = []
        for level in levels:
            total = 0.0
            for seed in range(20):
                rng = np.random.default_rng(1000 + seed)
                gt = encoded_noise(rng, random_direction(rng), n_samples=sr, sample_rate=sr)
                noisy = FoaClip(gt.samples + level * rng.normal(size=gt.samples.shape), sr)
                total += evaluate_windows(noisy, gt, GRID).cc_all
            means.append(total / 20)
        assert means[0] > means[1] > means[2]

    def test_rotation_symmetry(self):
        rng = np.random.default_rng(16)
        sr = 4410
        grid = SphereGrid(32, 64)
        for _ in range(5):
            base = rng.normal(size=sr)
            gt = encode_mono(base, random_direction(rng), sr)
            gen_src = FoaClip(
                encode_mono(base, random_direction(rng), sr).samples
                + 0.1 * rng.normal(size=(4, sr)),
                sr,
            )
            gt_map = energy_map(gt, grid)
            gen_map = energy_map(gen_src, grid)
            cc_before = correlation(gen_map, gt_map)
            auc_before = auc(gen_map, gt_map)
            rotation = random_rotation(rng)
            gt_rot = energy_map(rotate(gt, rotation), grid)
            gen_rot = energy_map(rotate(gen_src, rotation), grid)
            assert correlation(gen_rot, gt_rot) == pytest.approx(cc_before, abs=0.02)
            assert auc(gen_rot, gt_rot) == pytest.approx(auc_before, abs=0.02)

    def test_huge_finite_clips_score_as_the_clip(self):
        # Scaled by 2**266 (about 1e80), the maps reach 1e160 and their squares would
        # overflow; CC and AUC do not depend on scale, and a power of two is exact.
        rng = np.random.default_rng(17)
        sr = 4410
        gt = encoded_noise(rng, Direction(0.4, 0.3), n_samples=2 * sr, sample_rate=sr)
        gen = FoaClip(gt.samples + 0.5 * rng.normal(size=gt.samples.shape), sr)
        huge_gen, huge_gt = (FoaClip(np.ldexp(c.samples, 266), sr) for c in (gen, gt))
        assert evaluate_windows(huge_gen, huge_gt, GRID) == evaluate_windows(gen, gt, GRID)
        assert evaluate_windows(huge_gt, huge_gt, GRID).cc_all == pytest.approx(1.0, abs=1e-12)

    def test_report_round_trips_to_dict(self):
        rng = np.random.default_rng(17)
        sr = 4410
        gt = encoded_noise(rng, Direction(2.0, 0.4), n_samples=sr, sample_rate=sr)
        report = evaluate_windows(gt, gt, GRID)
        payload = asdict(report)
        assert set(payload) == {
            "cc_all",
            "cc_1fps",
            "cc_5fps",
            "auc_all",
            "auc_1fps",
            "auc_5fps",
            "windows_used",
            "windows_skipped",
        }


def oracle_pair(sr):
    """Two clips with a trailing partial second, a silent generated second
    and a constant reference map in another second."""
    rng = np.random.default_rng(18)
    n = 3 * sr + 777  # trailing partial second
    gt = encode_mono(rng.normal(size=n), Direction(0.7, 0.3), sr).samples.copy()
    gen = encode_mono(rng.normal(size=n), Direction(1.1, 0.1), sr).samples.copy()
    gen += 0.3 * rng.normal(size=gen.shape)
    gen[:, sr : 2 * sr] = 0.0  # a silent second
    gt[1:, 2 * sr : 3 * sr] = 0.0  # W only: a constant reference map
    return FoaClip(gen, sr), FoaClip(gt, sr)


def assert_matches_bruteforce(got, gen_clip, gt_clip, grid):
    want = evaluate_windows_bruteforce(gen_clip, gt_clip, grid)
    assert got["windows_used"] == want["windows_used"]
    assert got["windows_skipped"] == want["windows_skipped"]
    assert want["windows_skipped"]["1fps"] == 2
    for key in ("cc_all", "cc_1fps", "cc_5fps", "auc_all", "auc_1fps", "auc_5fps"):
        assert got[key] == pytest.approx(want[key], abs=1e-9)


class TestEvaluateWindowsOracle:
    @pytest.mark.parametrize("sr", [4410, 4411])  # 1 s = five 200 ms blocks, and not
    def test_matches_per_window_loop(self, sr):
        gen_clip, gt_clip = oracle_pair(sr)
        grid = SphereGrid(8, 16)
        assert_matches_bruteforce(asdict(evaluate_windows(gen_clip, gt_clip, grid)), gen_clip, gt_clip, grid)

    @pytest.mark.parametrize("sr", [4410, 4411])
    def test_file_moments_match_the_clip_api(self, tmp_path, sr):
        paths = [tmp_path / "gen.wav", tmp_path / "gt.wav"]
        for clip, path in zip(oracle_pair(sr), paths):
            write_foa_wav(clip, path)
        gen_clip, gt_clip = (read_foa_wav(path) for path in paths)
        grid = SphereGrid(8, 16)
        got = asdict(evaluate_windows(*(read_foa_summary(path, window_moments) for path in paths), grid))
        assert got == asdict(evaluate_windows(gen_clip, gt_clip, grid))  # bit for bit
        assert_matches_bruteforce(got, gen_clip, gt_clip, grid)

    def test_interleaved_layout_gives_same_report(self):
        # A caller's channel-interleaved (Fortran-order) samples: block_moments copies them
        # channel-major, as WAV reads decode them, so the report is the same bit for bit.
        rng = np.random.default_rng(19)
        sr = 4410
        gt = encoded_noise(rng, Direction(2.0, -0.3), n_samples=2 * sr + 100, sample_rate=sr)
        gen = FoaClip(gt.samples + 0.2 * rng.normal(size=gt.samples.shape), sr)
        fortran = FoaClip(np.asfortranarray(gen.samples), sr)
        assert asdict(evaluate_windows(fortran, gt, GRID)) == asdict(evaluate_windows(gen, gt, GRID))

    def test_bad_percentile(self):
        rng = np.random.default_rng(20)
        clip = encoded_noise(rng, Direction(0.0, 0.0), n_samples=4410, sample_rate=4410)
        with pytest.raises(ValueError):
            evaluate_windows(clip, clip, GRID, fixation_percentile=0.0)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_non_finite_maps_raise(self):
        clip = FoaClip(np.full((4, 4410), 1e200), 4410)  # squares overflow
        with pytest.raises(ValueError, match="finite"):
            evaluate_windows(clip, clip, GRID)


def one_map(values):
    return EnergyMap(GRID, values, (0, 1))


class TestRowKernels:
    def batch(self, seed):
        # Quantized values give many ties; some rows are undefined on purpose.
        rng = np.random.default_rng(seed)
        gen = np.round(rng.random((12, GRID.n_cells)) * 6) / 6
        gt = np.round(rng.random((12, GRID.n_cells)) * 4) / 4
        gen[1] = 0.5  # constant candidate
        gt[2] = 0.25  # constant reference
        gt[3] = 0.0
        gt[3, :2] = 1.0  # below 5% of the weight is nonzero: no fixation split
        gen[4] = gt[4]  # self comparison
        gen[5] = 1.0 - gt[5]  # reversed ranking
        return gen, gt

    def test_correlation_rows_match_one_map_function(self):
        gen, gt = self.batch(21)
        rows = correlation_rows(gen, gt, GRID.weights)
        for x, y, got in zip(gen, gt, rows):
            if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
                assert np.isnan(got)
                with pytest.raises(UndefinedMetricError):
                    correlation(one_map(x), one_map(y))
                continue
            assert got == pytest.approx(correlation(one_map(x), one_map(y)), abs=1e-12)
            want = weighted_pearson_bruteforce(list(x), list(y), list(GRID.weights))
            assert got == pytest.approx(want, abs=1e-9)
        assert np.isnan(rows[[1, 2]]).all()

    def test_auc_rows_match_one_map_function(self):
        gen, gt = self.batch(22)
        rows = auc_rows(gen, gt, GRID.weights, 95.0)
        assert np.isnan(rows[[2, 3]]).all()
        assert rows[4] == pytest.approx(1.0, abs=1e-12)
        assert rows[1] == pytest.approx(0.5, abs=1e-12)
        for x, y, got in zip(gen, gt, rows):
            if np.isnan(got):
                with pytest.raises(UndefinedMetricError):
                    auc(one_map(x), one_map(y))
                continue
            assert got == pytest.approx(auc(one_map(x), one_map(y)), abs=1e-12)
            assert got == pytest.approx(auc_bruteforce(one_map(x), one_map(y)), abs=1e-9)

    def test_auc_rows_other_percentile(self):
        gen, gt = self.batch(23)
        rows = auc_rows(gen, gt, GRID.weights, 60.0)
        for x, y, got in zip(gen, gt, rows):
            if not np.isnan(got):
                assert got == pytest.approx(auc_bruteforce(one_map(x), one_map(y), 60.0), abs=1e-9)

    def test_threshold_at_exact_cdf_boundary(self):
        grid = SphereGrid(1, 4)  # four cells of weight 1/4: the CDF hits 0.5 exactly
        gen, gt = np.array([[0.4, 0.1, 0.3, 0.2]]), np.array([[0.1, 0.2, 0.3, 0.4]])
        want = auc_bruteforce(EnergyMap(grid, gen[0], (0, 1)), EnergyMap(grid, gt[0], (0, 1)), 50.0)
        assert auc_rows(gen, gt, grid.weights, 50.0)[0] == pytest.approx(want, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kinds=st.tuples(*[st.sampled_from(["random", "tied", "sparse", "constant"])] * 2),
        percentile=st.sampled_from([50.0, 95.0, 99.0]),
    )
    def test_one_map_functions_are_one_row_of_the_kernels(self, seed, kinds, percentile):
        rng = np.random.default_rng(seed)
        gen, gt = (
            {
                "random": values,
                "tied": np.round(values * 3) / 3,
                "sparse": np.where(values < 0.97, 0.0, values),  # mostly zero: often no fixation split
                "constant": np.full(GRID.n_cells, values[0]),
            }[kind]
            for kind, values in zip(kinds, rng.random((2, GRID.n_cells)))
        )
        for value, one, undefined in [
            (correlation_rows(gen[None], gt[None], GRID.weights)[0], lambda: correlation(one_map(gen), one_map(gt)),
             "correlation undefined for a constant map or zero weighted variance"),
            (auc_rows(gen[None], gt[None], GRID.weights, percentile)[0],
             lambda: auc(one_map(gen), one_map(gt), percentile), "reference map yields no usable fixation split"),
        ]:
            if np.isnan(value):
                with pytest.raises(UndefinedMetricError) as info:
                    one()
                assert str(info.value) == undefined
            else:
                got = one()
                assert type(got) is float and np.float64(got).tobytes() == value.tobytes()

    def test_no_split_message(self):
        _, gt = self.batch(24)
        with pytest.raises(UndefinedMetricError, match="no usable fixation split"):
            auc(one_map(np.linspace(0.0, 1.0, GRID.n_cells)), one_map(gt[3]))


def noise_pair(seed, sample_rate, n_samples, silent_second):
    """A moving-source reference and a noisy copy; ``silent_second`` zeroes
    the candidate's first second, so some windows are skipped."""
    rng = np.random.default_rng(seed)
    gt = encode_mono(rng.normal(size=n_samples), random_direction(rng), sample_rate).samples.copy()
    gt += 0.5 * rng.normal(size=gt.shape)
    gen = gt + rng.normal(size=gt.shape)
    if silent_second:
        gen[:, :sample_rate] = 0.0
    return FoaClip(gen, sample_rate), FoaClip(gt, sample_rate)


def report_or_error(evaluate):
    """``evaluate()``, or the repr of the NoUsableWindowsError it raises."""
    try:
        return evaluate()
    except NoUsableWindowsError as exc:
        return repr(exc)


class TestBlockedWindows:
    """``evaluate_windows`` scores its windows in blocks of rows."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sample_rate=st.sampled_from([50, 51, 60]),
        seconds=st.integers(1, 4),
        extra=st.integers(0, 49),
        silent_second=st.booleans(),
    )
    def test_any_block_size_matches_whole_arrays(self, seed, sample_rate, seconds, extra, silent_second):
        gen, gt = noise_pair(seed, sample_rate, seconds * sample_rate + extra, silent_second)
        moments = [window_moments([clip.samples], clip.n_samples, sample_rate) for clip in (gen, gt)]
        n = 1 + moments[0].seconds.shape[0] + moments[0].blocks.shape[0]
        reports = []
        for rows in sorted({1, 7, n - 1, n}):
            with mock.patch.object(spatial_metrics, "_BLOCK_ROWS", rows):
                reports.append(report_or_error(lambda: asdict(evaluate_windows(*moments, GRID))))
        assert all(report == reports[0] for report in reports)  # bit for bit
        want = report_or_error(lambda: evaluate_windows_whole(*moments, GRID))
        if isinstance(want, str):
            assert reports[0] == want
            return
        assert reports[0]["windows_used"] == want["windows_used"]
        assert reports[0]["windows_skipped"] == want["windows_skipped"]
        for key in ("cc_all", "cc_1fps", "cc_5fps", "auc_all", "auc_1fps", "auc_5fps"):
            assert reports[0][key] == pytest.approx(want[key], abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(1, 24),
        levels=st.sampled_from([3, 50, 0]),  # many ties, few, none
        data=st.data(),
    )
    def test_row_subsets_match_the_full_batch(self, seed, n_rows, levels, data):
        rng = np.random.default_rng(seed)
        gen, gt = rng.random((n_rows, GRID.n_cells)), rng.random((n_rows, GRID.n_cells))
        if levels:
            gen = np.round(gen * levels) / levels
        gen[rng.random(n_rows) < 0.2] = 0.5  # constant candidates
        gt[rng.random(n_rows) < 0.2] = 0.25  # constant references
        subset = data.draw(st.lists(st.integers(0, n_rows - 1), min_size=1, max_size=n_rows))
        for rows_of in (
            lambda x, y: correlation_rows(x, y, GRID.weights),
            lambda x, y: auc_rows(x, y, GRID.weights, 95.0),
        ):
            assert np.array_equal(rows_of(gen[subset], gt[subset]), rows_of(gen, gt)[subset], equal_nan=True)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    @pytest.mark.parametrize("rows", [1, 7, 48])
    def test_errors_do_not_depend_on_the_block(self, rows):
        # At 5 Hz a 200 ms block is one sample: the last sample's block map
        # overflows, while the whole-clip and 1 s maps stay finite (if huge).
        samples = np.random.default_rng(26).normal(size=(4, 40))
        samples[:, -1] = 1e154
        clip = FoaClip(samples, 5)
        with mock.patch.object(spatial_metrics, "_BLOCK_ROWS", rows):
            with pytest.raises(ValueError, match="finite"):
                evaluate_windows(clip, clip, GRID, fixation_percentile=100.0)
            with pytest.raises(ValueError, match="fixation_percentile"):
                evaluate_windows(*noise_pair(27, 50, 200, False), GRID, fixation_percentile=100.0)


# Equal-weight rows whose weighted CDF lands one ulp above q (20, 40 and 60 cells at
# 95) or exactly on it (100 cells at 95, 4 cells at 75), by (cells, percentile), at
# weights of 1 / cells. At weights of 0.7 (60 cells) and 1/3 (100 cells) the full sort's
# CDF and the top cells' CDF at 95 round to opposite sides of q.
NEAR_Q_ROWS = [(20, 95.0), (40, 95.0), (60, 95.0), (100, 95.0), (4, 75.0)]


def full_sort_calls():
    """A patch that counts the calls to ``auc_rows``' full-sort threshold and passes them on."""
    return mock.patch.object(spatial_metrics, "_sorted_thresholds", wraps=spatial_metrics._sorted_thresholds)


class TestAucBySelection:
    """``auc_rows`` takes its threshold from each row's top cells and skips the tie-group pass
    on rows without tied gen scores; ``auc_rows_sorted`` sorts every row and takes tie groups."""

    @settings(max_examples=400, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(1, 12),
        levels=st.sampled_from([3, 50, 0]),  # many ties, few, none
        gt_levels=st.sampled_from([4, 0]),
        percentile=st.sampled_from([50.0, 60.0, 95.0, 99.0]),
        weights=st.sampled_from(["grid", "random", "near q"]),
    )
    def test_same_bits_as_the_full_sort(self, seed, n_rows, levels, gt_levels, percentile, weights):
        rng = np.random.default_rng(seed)
        if weights == "near q":
            n_cells, percentile = NEAR_Q_ROWS[seed % len(NEAR_Q_ROWS)]
            weights = np.full(n_cells, rng.choice([1.0 / n_cells, 0.7, 1.0 / 3.0]))
        else:
            n_cells = GRID.n_cells
            weights = GRID.weights if weights == "grid" else rng.uniform(0.5, 1.5, n_cells)
        gen, gt = rng.random((n_rows, n_cells)), rng.random((n_rows, n_cells))
        if levels:
            gen = np.round(gen * levels) / levels
        if gt_levels:
            gt = np.round(gt * gt_levels) / gt_levels
        gen[rng.random(n_rows) < 0.2] = 0.5  # constant candidates
        gt[rng.random(n_rows) < 0.2] = 0.25  # constant references
        want = auc_rows_sorted(gen, gt, weights, percentile)
        assert np.array_equal(auc_rows(gen, gt, weights, percentile), want, equal_nan=True)

    @pytest.mark.parametrize("n_cells, percentile", NEAR_Q_ROWS)
    def test_near_q_rows_take_the_full_sort(self, n_cells, percentile):
        rng = np.random.default_rng(n_cells)
        weights = np.full(n_cells, 1.0 / n_cells)
        gen, gt = rng.random((3, n_cells)), rng.random((3, n_cells))
        with full_sort_calls() as sorted_thresholds:
            got = auc_rows(gen, gt, weights, percentile)
        assert sorted_thresholds.call_count == 1
        assert np.array_equal(sorted_thresholds.call_args.args[0], gt)
        assert np.array_equal(got, auc_rows_sorted(gen, gt, weights, percentile), equal_nan=True)

    def test_only_the_near_q_row_takes_the_full_sort(self):
        # Cell 0 holds 5% of the weight: only the row whose top cell it is has a CDF at q.
        rng = np.random.default_rng(30)
        rest = rng.uniform(0.5, 1.5, 59)
        weights = np.concatenate([[0.05], 0.95 * rest / rest.sum()])
        gen, gt = rng.random((4, 60)), rng.random((4, 60))
        gt[2, 0], gt[[0, 1, 3], 0] = 2.0, -1.0
        with full_sort_calls() as sorted_thresholds:
            got = auc_rows(gen, gt, weights, 95.0)
        assert sorted_thresholds.call_count == 1
        assert np.array_equal(sorted_thresholds.call_args.args[0], gt[[2]])
        assert np.array_equal(got, auc_rows_sorted(gen, gt, weights, 95.0), equal_nan=True)

    @pytest.mark.parametrize("seed", [31, 32])
    def test_encoded_noise_never_takes_the_full_sort(self, seed):
        # The fast path must not slide back to sorting every row: no row of these maps is near q.
        grid = SphereGrid(32, 64)
        gen, gt = noise_pair(seed, 50, 4 * 50, False)
        moments = [window_moments([clip.samples], clip.n_samples, 50) for clip in (gen, gt)]
        with full_sort_calls() as sorted_thresholds, mock.patch.object(spatial_metrics, "auc_rows", wraps=auc_rows) as rows_of:
            report = evaluate_windows(*moments, grid)
        assert rows_of.call_count == 2 and report.windows_used == {"all": 1, "1fps": 4, "5fps": 20}
        assert sorted_thresholds.call_count == 0
