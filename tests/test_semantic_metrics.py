import math
import re

import numpy as np
import pytest
import scipy.linalg

from foatools import GaussianStats, fad_avg, frechet_distance, gaussian_stats, kld
from foatools.errors import InsufficientSamplesError, NotPositiveSemidefiniteError
from helpers import gaussian_stats_bruteforce, kld_bruteforce


def random_spd(rng, d):
    a = rng.normal(size=(d, d))
    return a @ a.T + np.eye(d)


def random_stats(rng, d):
    return GaussianStats(rng.normal(size=d), random_spd(rng, d))


def frechet_bruteforce(a, b):
    """Independent route: sqrtm of the plain covariance product."""
    covmean = scipy.linalg.sqrtm(a.covariance @ b.covariance)
    diff = a.mean - b.mean
    return float(
        diff @ diff
        + np.trace(a.covariance)
        + np.trace(b.covariance)
        - 2.0 * np.trace(np.real(covmean))
    )


class TestGaussianStats:
    def test_identical_rows_zero_covariance(self):
        with pytest.warns(UserWarning):  # 2 rows for 2 dims is rank deficient
            stats = gaussian_stats(np.array([[1.0, 2.0], [1.0, 2.0]]))
        assert np.array_equal(stats.covariance, np.zeros((2, 2)))

    def test_unbiased_variance(self):
        stats = gaussian_stats(np.array([[0.0], [2.0]]))
        assert stats.mean[0] == pytest.approx(1.0)
        assert stats.covariance[0, 0] == pytest.approx(2.0)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(100, 4))
        stats = gaussian_stats(x)
        mean, cov = gaussian_stats_bruteforce(x)
        assert np.allclose(stats.mean, mean, atol=1e-10)
        assert np.allclose(stats.covariance, cov, atol=1e-10)

    def test_too_few_rows(self):
        with pytest.raises(InsufficientSamplesError):
            gaussian_stats(np.array([[1.0, 2.0]]))

    def test_rank_deficiency_warns(self):
        rng = np.random.default_rng(1)
        with pytest.warns(UserWarning, match="rank deficient"):
            gaussian_stats(rng.normal(size=(3, 8)))

    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(ValueError):
            GaussianStats(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestFrechetDistance:
    def test_identical_stats_zero(self):
        rng = np.random.default_rng(2)
        stats = random_stats(rng, 4)
        assert abs(frechet_distance(stats, stats)) <= 1e-9

    def test_scalar_closed_form(self):
        a = GaussianStats(np.array([0.0]), np.array([[1.0]]))
        b = GaussianStats(np.array([1.0]), np.array([[1.0]]))
        assert frechet_distance(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_scalar_closed_form_random(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            mu1, mu2 = rng.normal(size=2)
            s1, s2 = rng.uniform(0.1, 3.0, size=2)
            a = GaussianStats(np.array([mu1]), np.array([[s1**2]]))
            b = GaussianStats(np.array([mu2]), np.array([[s2**2]]))
            want = (mu1 - mu2) ** 2 + (s1 - s2) ** 2
            assert frechet_distance(a, b) == pytest.approx(want, abs=1e-9)

    def test_matches_sqrtm_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a, b = random_stats(rng, 6), random_stats(rng, 6)
            assert frechet_distance(a, b) == pytest.approx(
                frechet_bruteforce(a, b), abs=1e-6
            )

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a, b = random_stats(rng, 5), random_stats(rng, 5)
            assert frechet_distance(a, b) == pytest.approx(frechet_distance(b, a), abs=1e-9)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError):
            frechet_distance(random_stats(rng, 3), random_stats(rng, 4))

    def test_non_psd_rejected(self):
        bad = GaussianStats(np.zeros(2), np.array([[1.0, 0.0], [0.0, -1.0]]))
        good = GaussianStats(np.zeros(2), np.eye(2))
        with pytest.raises(NotPositiveSemidefiniteError):
            frechet_distance(bad, good)


class TestKld:
    def test_identical_distributions(self):
        p = np.array([0.2, 0.3, 0.5])
        assert kld(p, p) == pytest.approx(0.0, abs=1e-9)

    def test_analytic_two_class(self):
        value = kld(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        assert value == pytest.approx(math.log(2.0), abs=1e-4)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            gen = rng.random(10)
            gen /= gen.sum()
            gt = rng.random(10)
            gt /= gt.sum()
            assert kld(gen, gt) == pytest.approx(kld_bruteforce(gen, gt, 1e-6), abs=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            gen = rng.random(6)
            gen /= gen.sum()
            gt = rng.random(6)
            gt /= gt.sum()
            assert kld(gen, gt) >= 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            kld(np.array([0.5, 0.5]), np.array([1.0, 0.0, 0.0]))

    def test_not_a_distribution(self):
        with pytest.raises(ValueError):
            kld(np.array([0.9, 0.3]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            kld(np.array([1.2, -0.2]), np.array([0.5, 0.5]))


class TestFadAvg:
    @staticmethod
    def _features(mean, half_spread, n=64):
        # Alternating mean +- half_spread: the sample variance depends only on
        # half_spread and n, so equal spreads cancel in the distance.
        rows = np.empty((n, 1))
        rows[0::2, 0] = mean - half_spread
        rows[1::2, 0] = mean + half_spread
        return rows

    def test_identical_channels_zero(self):
        rng = np.random.default_rng(9)
        pairs = {}
        for name in "WXYZ":
            features = rng.normal(size=(30, 3))
            pairs[name] = (features, features.copy())
        assert fad_avg(pairs) == pytest.approx(0.0, abs=1e-9)

    def test_constructed_channel_distances(self):
        # Mean offsets sqrt(k) with equal spreads give per-channel distances k.
        pairs = {}
        for name, k in zip("WXYZ", (1.0, 2.0, 3.0, 4.0)):
            pairs[name] = (self._features(0.0, 1.0), self._features(math.sqrt(k), 1.0))
        assert fad_avg(pairs) == pytest.approx(2.5, abs=1e-9)

    def test_matches_composition(self):
        rng = np.random.default_rng(10)
        pairs = {name: (rng.normal(size=(40, 3)), rng.normal(size=(40, 3))) for name in "WXYZ"}
        want = np.mean(
            [
                frechet_distance(gaussian_stats(gen), gaussian_stats(gt))
                for gen, gt in pairs.values()
            ]
        )
        assert fad_avg(pairs) == pytest.approx(want, abs=1e-12)

    def test_missing_channel(self):
        rng = np.random.default_rng(11)
        pairs = {name: (rng.normal(size=(10, 2)), rng.normal(size=(10, 2))) for name in "WXY"}
        with pytest.raises(ValueError, match="Z"):
            fad_avg(pairs)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: GaussianStats(np.zeros((2, 2)), np.eye(2)), ValueError, "mean must be a 1-D vector"),
        (lambda: GaussianStats(np.zeros(2), np.eye(3)), ValueError, "covariance must be 2x2, got (3, 3)"),
        (lambda: GaussianStats([0.0, np.nan], np.eye(2)), ValueError, "statistics must be finite"),
        (lambda: GaussianStats(np.zeros(2), np.diag([1.0, np.inf])), ValueError, "statistics must be finite"),
        (lambda: gaussian_stats(np.ones(5)), ValueError, "features must be a 2-D (samples x dims) matrix"),
        # Eigenvalues of -9e-9 pass the -1e-8 check, but 200 of them sum past the -1e-6 clamp.
        (lambda: frechet_distance(*[GaussianStats(np.zeros(100), -9e-9 * np.eye(100))] * 2), NotPositiveSemidefiniteError,
         "distance -1.800e-06 is negative beyond rounding tolerance"),
        (lambda: kld(np.full((2, 2), 0.25), [1.0]), ValueError, "gen must be a nonempty 1-D probability vector"),
        (lambda: kld([1.0], []), ValueError, "gt must be a nonempty 1-D probability vector"),
        (lambda: kld([1.0], [1.0], epsilon=0.0), ValueError, "epsilon must be positive"),
    ],
    ids=["mean-2-d", "covariance-shape", "mean-nan", "covariance-inf", "features-1-d", "negative-distance",
         "gen-2-d", "gt-empty", "epsilon-zero"],
)
def test_refusals_name_the_bad_argument(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
