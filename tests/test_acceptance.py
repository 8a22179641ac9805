"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.linalg

import foatools as ft
from foatools import Direction, GuidanceConfig, Pattern, SphereGrid
from helpers import (
    auc_bruteforce,
    encoded_noise,
    nearest_cell_bruteforce,
    patch_energy_bruteforce,
    patch_scores_bruteforce,
    random_clip,
    random_direction,
    weighted_pearson_bruteforce,
)

SQRT2 = math.sqrt(2.0)


@contextmanager
def criterion(label):
    try:
        yield
    except Exception:
        print(f"[{label}] FAIL")
        raise
    print(f"[{label}] PASS")


def test_c01_rotation_identity():
    with criterion("C01 quarter-turn rotation identity, 200 clips < 5 s"):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        quarter = ft.Rotation.quarter_turn_z()
        for _ in range(200):
            clip = random_clip(rng, n_samples=int(rng.integers(8, 400)))
            turned = ft.rotate(clip, quarter)
            assert np.array_equal(turned.samples[0], clip.samples[0])
            assert np.array_equal(turned.samples[1], -clip.samples[2])
            assert np.array_equal(turned.samples[2], clip.samples[1])
            assert np.array_equal(turned.samples[3], clip.samples[3])
            full = turned
            for _ in range(3):
                full = ft.rotate(full, quarter)
            assert np.max(np.abs(full.samples - clip.samples)) <= 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f} s"


def test_c02_localization():
    with criterion("C02 energy-map localization, 100/100 directions < 30 s"):
        rng = np.random.default_rng(102)
        grid = SphereGrid(32, 64)
        start = time.perf_counter()
        hits = 0
        for _ in range(100):
            d = random_direction(rng)
            emap = ft.energy_map(encoded_noise(rng, d, n_samples=2205), grid)
            hits += emap.argmax_cell() == nearest_cell_bruteforce(grid, d)
        elapsed = time.perf_counter() - start
        assert hits == 100, f"only {hits}/100 argmax cells were nearest"
        assert elapsed < 30.0, f"took {elapsed:.2f} s"


def test_c03_step_counts():
    with criterion("C03 schedule step counts for (2,2), (9,430), (9,86)"):
        expected = {(2, 2): (5, 9), (9, 430): (861, 465), (9, 86): (173, 121)}
        for (n, frames), (proposed, sequential) in expected.items():
            assert ft.pattern_steps(Pattern.PROPOSED, n, frames) == proposed
            assert ft.pattern_steps(Pattern.SEQUENTIAL_DELAY, n, frames) == sequential
            rng = np.random.default_rng(n * frames)
            matrix = ft.CodeMatrix(rng.integers(0, 1024, size=(4 * n, frames)), n, 1024)
            assert ft.pack(matrix, Pattern.PROPOSED).n_steps == proposed
            assert ft.pack(matrix, Pattern.SEQUENTIAL_DELAY).n_steps == sequential


def test_c04_pattern_round_trip():
    with criterion("C04 pack/unpack identity, 200 matrices x 4 patterns"):
        rng = np.random.default_rng(104)
        for _ in range(200):
            matrix = ft.CodeMatrix(rng.integers(0, 1024, size=(36, 50)), 9, 1024)
            for pattern in Pattern:
                back = ft.unpack(ft.pack(matrix, pattern))
                assert np.array_equal(back.codes, matrix.codes)


def test_c05_metric_sanity():
    with criterion("C05 CC/AUC sanity and oracle agreement"):
        rng = np.random.default_rng(105)
        sr = 4410
        grid = SphereGrid(8, 16)
        gt = encoded_noise(rng, Direction(1.0, 0.3), n_samples=5 * sr, sample_rate=sr)
        report = ft.evaluate_windows(gt, gt, grid)
        for value in (
            report.cc_all, report.cc_1fps, report.cc_5fps,
            report.auc_all, report.auc_1fps, report.auc_5fps,
        ):
            assert abs(value - 1.0) <= 1e-9

        constant = ft.EnergyMap(grid, np.full(grid.n_cells, 0.25), (0, 1))
        reference = ft.EnergyMap(grid, rng.random(grid.n_cells), (0, 1))
        assert abs(ft.auc(constant, reference) - 0.5) <= 1e-9

        for _ in range(50):
            a = ft.EnergyMap(grid, rng.random(grid.n_cells), (0, 1))
            b = ft.EnergyMap(grid, rng.random(grid.n_cells), (0, 1))
            want_cc = weighted_pearson_bruteforce(
                list(a.values), list(b.values), list(grid.weights)
            )
            assert abs(ft.correlation(a, b) - want_cc) <= 1e-9
            assert abs(ft.auc(a, b) - auc_bruteforce(a, b)) <= 1e-9


def test_c06_frechet_distance():
    with criterion("C06 Frechet distance closed forms and sqrtm oracle"):
        rng = np.random.default_rng(106)
        for _ in range(100):
            mu1, mu2 = rng.normal(size=2)
            s1, s2 = rng.uniform(0.05, 4.0, size=2)
            a = ft.GaussianStats(np.array([mu1]), np.array([[s1**2]]))
            b = ft.GaussianStats(np.array([mu2]), np.array([[s2**2]]))
            want = (mu1 - mu2) ** 2 + (s1 - s2) ** 2
            assert abs(ft.frechet_distance(a, b) - want) <= 1e-9

        for _ in range(20):
            def spd():
                m = rng.normal(size=(6, 6))
                return m @ m.T + np.eye(6)

            a = ft.GaussianStats(rng.normal(size=6), spd())
            b = ft.GaussianStats(rng.normal(size=6), spd())
            covmean = scipy.linalg.sqrtm(a.covariance @ b.covariance)
            diff = a.mean - b.mean
            want = float(
                diff @ diff + np.trace(a.covariance) + np.trace(b.covariance)
                - 2.0 * np.trace(np.real(covmean))
            )
            assert abs(ft.frechet_distance(a, b) - want) <= 1e-6

        stats = ft.GaussianStats(rng.normal(size=4), np.eye(4) * 2.0)
        assert abs(ft.frechet_distance(stats, stats)) <= 1e-9


def test_c07_guidance_algebra():
    with criterion("C07 guidance combination algebra"):
        rng = np.random.default_rng(107)
        sets = {name: rng.normal(size=(4, 8)) for name in
                ("full", "direction_only", "visual_only", "unconditional")}
        for mode in ("none", "directional", "visual", "joint", "dual"):
            out = ft.combine(mode, sets["full"], sets["direction_only"],
                             sets["visual_only"], sets["unconditional"],
                             omega=0.0, omega2=0.0)
            assert np.array_equal(out, sets["full"])

        worked = ft.combine(
            "directional",
            np.array([[1.0, 2.0]]),
            direction_only=np.array([[0.0, 1.0]]),
            unconditional=np.array([[0.0, 0.0]]),
            omega=2.5,
        )
        assert np.max(np.abs(worked - np.array([[1.0, 4.5]]))) <= 1e-12

        omega = 2.5
        joint = ft.combine("joint", sets["full"], unconditional=sets["unconditional"], omega=omega)
        closed = (1 + omega) * sets["full"] - omega * sets["unconditional"]
        assert np.max(np.abs(joint - closed)) <= 1e-12

        dual = ft.combine("dual", sets["full"], sets["direction_only"],
                          sets["direction_only"], sets["unconditional"],
                          omega=omega, omega2=omega)
        directional = ft.combine("directional", sets["full"], sets["direction_only"],
                                 unconditional=sets["unconditional"], omega=2 * omega)
        assert np.max(np.abs(dual - directional)) <= 1e-12


def test_c08_generation_harness():
    with criterion("C08 table predictor reproduced under every pattern"):
        rng = np.random.default_rng(108)
        table = ft.CodeMatrix(rng.integers(0, 1024, size=(12, 9)), 3, 1024)
        for pattern in Pattern:
            predictor = ft.TablePredictor(table, pattern)
            generated = ft.generate(
                predictor, 3, 9, pattern, GuidanceConfig("none"), argmax=True
            )
            assert np.array_equal(generated.codes, table.codes)


def test_c09_patch_saliency():
    with criterion("C09 patch saliency uniformity and nested-loop oracle"):
        constant = np.tile(np.array([0.3, -0.2, 0.9]), (3, 4, 5, 1))
        spatial, temporal = ft.patch_scores(constant)
        energy = ft.energy_from_scores(spatial, temporal)
        assert np.allclose(energy, 1.0 / 20.0, atol=1e-9)
        assert np.allclose(energy.reshape(3, -1).sum(axis=1), 1.0, atol=1e-6)

        rng = np.random.default_rng(109)
        emb = rng.normal(size=(4, 7, 7, 16))
        spatial, temporal = ft.patch_scores(emb, spatial_window=1, temporal_window=1)
        want_s, want_t = patch_scores_bruteforce(emb, 1, 1)
        assert np.max(np.abs(spatial - want_s)) <= 1e-6
        assert np.max(np.abs(temporal - want_t)) <= 1e-6
        energy = ft.energy_from_scores(spatial, temporal, temperature=0.1, top_p=0.7)
        want_e = patch_energy_bruteforce(spatial, temporal, 0.1, 0.7)
        assert np.max(np.abs(energy - want_e)) <= 1e-6


def test_c10_curation_rules():
    with criterion("C10 curation window, gate, and relevance rules"):
        assert ft.select_windows([1, 1, 1, 1, 0]) == [ft.ClipWindow(0, 5)]
        assert ft.select_windows([1, 1, 0, 0, 0]) == []

        sr = 1000
        quiet = np.full((4, 2 * sr), 1e-3)
        quiet[2, sr:] = 0.0  # one sub-floor channel-second
        assert ft.amplitude_gate(ft.FoaClip(quiet, sr)) is False
        assert ft.amplitude_gate(ft.FoaClip(np.full((4, 2 * sr), 1e-3), sr)) is True

        keep = ft.relevance_filter([0.0, 10.0, 10.0, 10.0, 10.0])
        assert keep.tolist() == [False, True, True, True, True]


def test_c11_runtime_budget():
    with criterion("C11 5 s / 44.1 kHz windowed evaluation < 1 s"):
        rng = np.random.default_rng(111)
        sr = 44100
        gt = encoded_noise(rng, Direction(0.9, -0.2), n_samples=5 * sr, sample_rate=sr)
        gen = ft.FoaClip(gt.samples + 0.1 * rng.normal(size=gt.samples.shape), sr)
        grid = SphereGrid(32, 64)
        start = time.perf_counter()
        report = ft.evaluate_windows(gen, gt, grid)
        elapsed = time.perf_counter() - start
        assert report.windows_used["5fps"] == 25
        assert elapsed < 1.0, f"took {elapsed:.3f} s"
