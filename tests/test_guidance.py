import numpy as np
import pytest

from foatools import CodeMatrix, GuidanceConfig, Pattern, TablePredictor, combine, generate, sample_step
from foatools._util import softmax
from foatools.code_pattern import pattern_steps
from helpers import UniformPredictor


def variant_logits(rng, rows=4, vocab=6):
    return {name: rng.normal(size=(rows, vocab)) for name in
            ("full", "direction_only", "visual_only", "unconditional")}


class TestCombine:
    def test_zero_scale_identity(self):
        rng = np.random.default_rng(0)
        sets = variant_logits(rng)
        for mode in ("none", "directional", "visual", "joint", "dual"):
            out = combine(mode, sets["full"], sets["direction_only"],
                          sets["visual_only"], sets["unconditional"], omega=0.0, omega2=0.0)
            assert np.array_equal(out, sets["full"])

    def test_directional_worked_example(self):
        out = combine(
            "directional",
            np.array([[1.0, 2.0]]),
            direction_only=np.array([[0.0, 1.0]]),
            unconditional=np.array([[0.0, 0.0]]),
            omega=2.5,
        )
        assert np.allclose(out, [[1.0, 4.5]], atol=1e-12)

    def test_joint_closed_form(self):
        rng = np.random.default_rng(1)
        sets = variant_logits(rng)
        omega = 2.5
        out = combine("joint", sets["full"], unconditional=sets["unconditional"], omega=omega)
        want = (1 + omega) * sets["full"] - omega * sets["unconditional"]
        assert np.allclose(out, want, atol=1e-12)

    def test_dual_collapses_to_directional(self):
        rng = np.random.default_rng(2)
        sets = variant_logits(rng)
        omega = 1.7
        dual = combine("dual", sets["full"], sets["direction_only"],
                       sets["direction_only"], sets["unconditional"],
                       omega=omega, omega2=omega)
        directional = combine("directional", sets["full"], sets["direction_only"],
                              unconditional=sets["unconditional"], omega=2 * omega)
        assert np.allclose(dual, directional, atol=1e-12)

    def test_visual_formula(self):
        rng = np.random.default_rng(3)
        sets = variant_logits(rng)
        out = combine("visual", sets["full"], visual_only=sets["visual_only"],
                      unconditional=sets["unconditional"], omega=0.5)
        want = sets["full"] + 0.5 * (sets["visual_only"] - sets["unconditional"])
        assert np.allclose(out, want, atol=1e-12)

    def test_missing_required_set(self):
        rng = np.random.default_rng(4)
        sets = variant_logits(rng)
        with pytest.raises(ValueError, match="direction_only"):
            combine("directional", sets["full"], unconditional=sets["unconditional"])
        with pytest.raises(ValueError, match="unconditional"):
            combine("joint", sets["full"])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            combine("joint", np.zeros((2, 3)), unconditional=np.zeros((2, 4)))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            combine("extra", np.zeros((1, 2)))

    def test_row_constant_shift_keeps_distribution(self):
        # When variants differ from the conditional by per-row constants the
        # combined logits shift by per-row constants too, so the sampling
        # distribution cannot change.
        rng = np.random.default_rng(5)
        base = rng.normal(size=(3, 8))
        shift1 = rng.normal(size=(3, 1))
        shift2 = rng.normal(size=(3, 1))
        out = combine("dual", base, base + shift1, base + shift2, base - shift1,
                      omega=1.3, omega2=0.7)
        assert np.allclose(softmax(out, axis=1), softmax(base, axis=1), atol=1e-9)

    def test_joint_argmax_shift_invariance(self):
        rng = np.random.default_rng(6)
        sets = variant_logits(rng)
        out = combine("joint", sets["full"], unconditional=sets["unconditional"], omega=2.5)
        shifted = combine("joint", sets["full"] + 11.0,
                          unconditional=sets["unconditional"] + 11.0, omega=2.5)
        assert np.array_equal(np.argmax(out, axis=1), np.argmax(shifted, axis=1))


class TestGuidanceConfig:
    def test_validation(self):
        GuidanceConfig("dual", 2.5, 1.0)
        with pytest.raises(ValueError):
            GuidanceConfig("sideways")
        with pytest.raises(ValueError):
            GuidanceConfig("dual", float("inf"))

    def test_variant_sets(self):
        assert GuidanceConfig("none").variants == ("full",)
        assert set(GuidanceConfig("dual").variants) == {
            "full", "direction_only", "visual_only", "unconditional"
        }


class TestSampleStep:
    def test_argmax_mode(self):
        logits = np.array([[0.0, 3.0, 1.0], [5.0, 0.0, 0.0]])
        assert sample_step(logits, argmax=True).tolist() == [1, 0]

    def test_dominant_logit_always_wins(self):
        logits = np.zeros((2, 4))
        logits[0, 2] = 1e9
        logits[1, 0] = 1e9
        rng = np.random.default_rng(7)
        for _ in range(20):
            assert sample_step(logits, rng=rng).tolist() == [2, 0]

    def test_seed_determinism(self):
        logits = np.random.default_rng(8).normal(size=(6, 10))
        draws = [
            sample_step(logits, temperature=0.8, top_p=0.9,
                        rng=np.random.default_rng(123)).tolist()
            for _ in range(3)
        ]
        assert draws[0] == draws[1] == draws[2]

    def test_parameter_validation(self):
        logits = np.zeros((1, 3))
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_step(logits, temperature=0.0, rng=rng)
        with pytest.raises(ValueError):
            sample_step(logits, top_p=0.0, rng=rng)
        with pytest.raises(ValueError):
            sample_step(logits)  # sampling without an rng


class TestGenerate:
    def test_shape_and_query_count(self):
        predictor = UniformPredictor(n_rows=8, vocab_size=5)
        matrix = generate(predictor, 2, 3, Pattern.PROPOSED, GuidanceConfig("none"), seed=1)
        assert matrix.codes.shape == (8, 3)
        assert predictor.n_queries == pattern_steps(Pattern.PROPOSED, 2, 3) == 7

    def test_guided_modes_query_all_variants(self):
        predictor = UniformPredictor(n_rows=8, vocab_size=5)
        generate(predictor, 2, 2, Pattern.RESIDUAL_ONLY, GuidanceConfig("dual", 1.0, 1.0), seed=0)
        assert predictor.n_queries == 4 * pattern_steps(Pattern.RESIDUAL_ONLY, 2, 2)

    @pytest.mark.parametrize("pattern", list(Pattern))
    def test_table_predictor_reproduced(self, pattern):
        rng = np.random.default_rng(9)
        table = CodeMatrix(rng.integers(0, 17, size=(12, 6)), 3, 17)
        predictor = TablePredictor(table, pattern)
        got = generate(predictor, 3, 6, pattern, GuidanceConfig("none"), argmax=True)
        assert np.array_equal(got.codes, table.codes)

    @pytest.mark.parametrize("mode", ["directional", "visual", "joint", "dual"])
    def test_table_predictor_survives_guidance(self, mode):
        rng = np.random.default_rng(10)
        table = CodeMatrix(rng.integers(0, 9, size=(8, 4)), 2, 9)
        predictor = TablePredictor(table, Pattern.PROPOSED)
        config = GuidanceConfig(mode, 2.5, 1.5)
        got = generate(predictor, 2, 4, Pattern.PROPOSED, config, argmax=True)
        assert np.array_equal(got.codes, table.codes)

    def test_zero_scale_matches_unguided(self):
        rng = np.random.default_rng(11)
        table = CodeMatrix(rng.integers(0, 9, size=(8, 4)), 2, 9)
        predictor = TablePredictor(table, Pattern.PROPOSED)
        plain = generate(predictor, 2, 4, Pattern.PROPOSED, GuidanceConfig("none"), seed=42)
        guided = generate(predictor, 2, 4, Pattern.PROPOSED,
                          GuidanceConfig("directional", omega=0.0), seed=42)
        assert np.array_equal(plain.codes, guided.codes)

    def test_bad_predictor_shape(self):
        def predictor(prefix, variant):
            return np.zeros((3, 5))

        with pytest.raises(ValueError, match="shape"):
            generate(predictor, 2, 2, Pattern.PROPOSED, GuidanceConfig("none"))

    def test_prefix_uses_pad_sentinel(self):
        seen = []

        class Recorder(UniformPredictor):
            def __call__(self, prefix, variant):
                seen.append(prefix.copy())
                return super().__call__(prefix, variant)

        generate(Recorder(8, 5), 2, 2, Pattern.PROPOSED, GuidanceConfig("none"), seed=0)
        # After step 1 every exposed padding slot must be the vocab size.
        final = seen[-1]
        assert final.shape == (8, 4)
        assert np.all((final == 5) | ((final >= 0) & (final < 5)))
        assert np.any(final == 5)
