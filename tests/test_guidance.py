import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from foatools import CodeMatrix, GuidanceConfig, Pattern, TablePredictor, combine, generate, sample_step
from foatools._util import softmax, top_p_mask
from foatools.code_pattern import pattern_steps
from foatools.guidance import MODES, VARIANTS
from helpers import (
    UniformPredictor,
    combine_allocating,
    generate_allocating,
    sample_step_allocating,
    softmax_allocating,
    top_p_mask_allocating,
    top_p_mask_bruteforce,
)


def top_p_mask_of(probs, top_p):
    """``top_p_mask`` of ``probs`` as float64 with fresh scratch arrays, checking
    that it leaves ``probs`` unchanged."""
    p = np.asarray(probs, dtype=np.float64)
    before = p.copy()
    mask = top_p_mask(p, top_p, np.empty_like(p), np.empty_like(p))
    assert np.array_equal(p, before)
    return mask


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

    def test_missing_sets_are_named_in_check_order(self):
        full, unconditional = np.zeros((1, 2)), np.zeros((1, 2))
        with pytest.raises(ValueError, match="'unconditional'"):
            combine("dual", full)
        with pytest.raises(ValueError, match="'direction_only'"):
            combine("dual", full, unconditional=unconditional)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            combine("joint", np.zeros((2, 3)), unconditional=np.zeros((2, 4)))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            combine("extra", np.zeros((1, 2)))

    def test_unknown_mode_message(self):
        want = "mode must be one of ('none', 'directional', 'visual', 'joint', 'dual'), got 'bogus'"
        for make in (lambda: combine("bogus", np.zeros((1, 2))), lambda: GuidanceConfig("bogus")):
            with pytest.raises(ValueError) as info:
                make()
            assert str(info.value) == want

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("scale", ["omega", "omega2"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_scales_are_refused(self, mode, scale, value):
        sets = {variant: np.zeros((2, 3)) for variant in VARIANTS}
        with pytest.raises(ValueError, match="^guidance scales must be finite$"):
            combine(mode, **sets, **{scale: value})

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("shape", [(3,), (2, 0), (1, 2, 3)], ids=["1-D", "no-columns", "3-D"])
    def test_full_must_be_a_rows_by_vocabulary_matrix(self, mode, shape):
        # The other sets must match full's shape, so the rule on full covers them too.
        sets = {variant: np.zeros(shape) for variant in VARIANTS}
        with pytest.raises(ValueError, match=r"^'full' logits must be a \(rows x vocabulary\) matrix$"):
            combine(mode, **sets)

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


@st.composite
def probability_rows(draw):
    """(rows x cols) probability matrices; quantized weights give exact ties."""
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 40)))
    if draw(st.booleans()):
        elements = st.integers(0, 3).map(float)
    else:
        elements = st.floats(0.0, 1.0)
    weights = draw(hnp.arrays(np.float64, shape, elements=elements))
    weights[weights.sum(axis=1) == 0.0, 0] = 1.0
    return weights / weights.sum(axis=1, keepdims=True)


class TestTopPMask:
    @settings(max_examples=300, deadline=None)
    @given(
        probs=probability_rows(),
        top_p=st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
    )
    def test_rows_match_oracle(self, probs, top_p):
        mask = top_p_mask_of(probs, top_p)
        assert mask.shape == probs.shape
        for row, row_mask in zip(probs, mask):
            assert np.array_equal(row_mask, top_p_mask_bruteforce(row, top_p))
            assert np.array_equal(top_p_mask_of(row, top_p), row_mask)

    def test_boundary_ties_kept(self):
        probs = np.array([[0.4, 0.3, 0.3], [0.25, 0.25, 0.5]])
        assert top_p_mask_of(probs, 0.5).tolist() == [[True, True, True], [False, False, True]]

    def test_full_mass_and_one_column(self):
        probs = np.array([[0.5, 0.25, 0.25, 0.0]])
        assert top_p_mask_of(probs, 1.0).tolist() == [[True, True, True, False]]
        assert top_p_mask_of(np.ones((3, 1)), 0.2).tolist() == [[True]] * 3
        assert top_p_mask_of(np.array([0.1, 0.6, 0.3]), 0.6).tolist() == [False, True, False]

    @pytest.mark.parametrize("top_p", [0.0, 1.5, float("nan")])
    def test_refuses_top_p_outside_0_1(self, top_p):
        with pytest.raises(ValueError, match=r"^top_p must lie in \(0, 1\], got "):
            top_p_mask_of(np.array([[0.5, 0.5]]), top_p)


class EdgeRng:
    """Stands in for a Generator whose every draw is ``value``."""

    def __init__(self, value):
        self.value = value

    def random(self, size):
        return np.full(size, self.value)


class TestSampleStep:
    def test_frequencies_match_nucleus(self):
        logits = np.log([0.4, 0.25, 0.15, 0.1, 0.06, 0.04])
        temperature, top_p, n = 0.8, 0.75, 20000
        probs = softmax(logits / temperature)
        want = np.where(top_p_mask_of(probs, top_p), probs, 0.0)
        want /= want.sum()
        assert np.count_nonzero(want) == 3
        rng = np.random.default_rng(13)
        codes = np.concatenate([
            sample_step(np.tile(logits, (n // 20, 1)), temperature, top_p, rng=rng)
            for _ in range(20)
        ])
        freq = np.bincount(codes, minlength=logits.size) / n
        # Five binomial standard errors per code; codes outside the nucleus get 0.
        assert np.all(np.abs(freq - want) <= 5.0 * np.sqrt(want * (1.0 - want) / n))

    def test_masked_and_zero_mass_codes_never_drawn(self):
        # exp underflows to exactly 0 at -1e4, so the trailing columns and the
        # second row's first column carry no mass.
        logits = np.array([[2.0, 1.0, 0.5, -1e4, -1e4], [-1e4, 3.0, 0.0, 1.0, -1e4]])
        probs = softmax(logits.copy(), axis=1)
        rows = np.repeat([0, 1], 5000)
        for top_p in (1.0, 0.6):
            allowed = top_p_mask_of(probs, top_p) & (probs > 0.0)
            codes = sample_step(logits[rows], top_p=top_p, rng=np.random.default_rng(14))
            assert np.all(allowed[rows, codes])
            # Draws at both ends of [0, total] land on the first and last code
            # with mass, never on a zero-mass neighbour.
            first, last = np.argmax(allowed, axis=1), 4 - np.argmax(allowed[:, ::-1], axis=1)
            assert sample_step(logits, top_p=top_p, rng=EdgeRng(0.0)).tolist() == first.tolist()
            assert sample_step(logits, top_p=top_p, rng=EdgeRng(1.0)).tolist() == last.tolist()

    def test_argmax_unchanged_and_draws_nothing(self):
        logits = np.random.default_rng(15).normal(size=(40, 17))
        logits[3, [2, 9]] = 10.0  # a tie goes to the lower code
        rng = np.random.default_rng(16)
        state = rng.bit_generator.state
        codes = sample_step(logits, top_p=0.5, rng=rng, argmax=True)
        assert np.array_equal(codes, np.argmax(logits, axis=1))
        assert codes[3] == 2
        assert rng.bit_generator.state == state

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
        with pytest.raises(ValueError, match="^temperature must be positive, got nan$"):
            sample_step(logits, temperature=np.nan, rng=rng)
        with pytest.raises(ValueError):
            sample_step(logits, top_p=0.0, rng=rng)
        with pytest.raises(ValueError):
            sample_step(logits)  # sampling without an rng

    @pytest.mark.parametrize("logits", [[[0.0, 1.0, 2.0]], [[-1.0, -2.0, -3.0]], [[0.0, 0.0], [4.0, 1.0]]])
    def test_temperature_too_small_for_the_logits_is_refused(self, logits):
        # 2 / 5e-324 overflows to inf, and -1 / 5e-324 to -inf: softmax would give NaN rows.
        with pytest.raises(ValueError, match="^a row maximum divided by temperature 5e-324 is not finite$"):
            sample_step(logits, temperature=5e-324, rng=np.random.default_rng(0))
        assert sample_step(logits, temperature=5e-324, argmax=True).tolist() == np.argmax(logits, axis=1).tolist()

    def test_lower_entry_overflowing_under_the_temperature_gets_no_mass(self):
        # -1e300 / 1e-10 overflows to -inf while the row maximum stays 0: a right
        # probability of 0, with no overflow warning (an error under this suite's filters).
        assert softmax(np.array([[0.0, -1e300]]), axis=1, temperature=1e-10).tolist() == [[1.0, 0.0]]
        assert sample_step([[0.0, -1e300]], temperature=1e-10, rng=np.random.default_rng(0)).tolist() == [0]

    @pytest.mark.parametrize(
        "logits, message",
        [(np.zeros(3), "logits must be a (rows x vocabulary) matrix"),
         (np.zeros((2, 0)), "logits must be a (rows x vocabulary) matrix"), ([[0.0, np.nan]], "logits must be finite")],
    )
    def test_refuses_bad_logits(self, logits, message):
        for argmax in (False, True):
            with pytest.raises(ValueError) as info:
                sample_step(logits, rng=np.random.default_rng(0), argmax=argmax)
            assert str(info.value) == message


class TestGenerate:
    def test_shape_and_query_count(self):
        predictor = UniformPredictor(n_rows=8, vocab_size=5)
        matrix = generate(predictor, 2, 3, Pattern.PROPOSED, GuidanceConfig("none"), seed=1)
        assert matrix.codes.shape == (8, 3)
        assert predictor.n_queries == pattern_steps(Pattern.PROPOSED, 2, 3) == 7

    def test_nan_temperature_rejected(self):
        predictor = UniformPredictor(n_rows=8, vocab_size=5)
        with pytest.raises(ValueError, match="^temperature must be positive, got nan$"):
            generate(predictor, 2, 3, Pattern.PROPOSED, GuidanceConfig("none"), temperature=np.nan, seed=1)

    def test_temperature_too_small_for_the_table_is_refused(self):
        table = CodeMatrix(np.random.default_rng(12).integers(0, 9, size=(8, 4)), 2, 9)
        predictor = TablePredictor(table, Pattern.PROPOSED)
        with pytest.raises(ValueError, match="^a row maximum divided by temperature 1e-305 is not finite$"):
            generate(predictor, 2, 4, Pattern.PROPOSED, GuidanceConfig("dual", 1.0, 1.0), temperature=1e-305)

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

    @pytest.mark.parametrize("argmax", [False, True])
    def test_empty_vocabulary_refused(self, argmax):
        with pytest.raises(ValueError, match=re.escape("predictor returned shape (8, 0), expected (8, V)")):
            generate(UniformPredictor(8, 0), 2, 2, Pattern.PROPOSED, GuidanceConfig("none"), argmax=argmax)

    def test_predictor_changing_vocabulary_raises(self):
        def predictor(prefix, variant):
            return np.zeros((4, 3 + prefix.shape[1]))

        with pytest.raises(ValueError, match="changed vocabulary size"):
            generate(predictor, 1, 2, Pattern.PROPOSED, GuidanceConfig("none"))

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

    def test_prefix_is_read_only_view(self):
        seen = []

        class Recorder(UniformPredictor):
            def __call__(self, prefix, variant):
                seen.append((prefix.shape, prefix.flags.writeable))
                with pytest.raises(ValueError, match="read-only"):
                    prefix[...] = 0
                return super().__call__(prefix, variant)

        generate(Recorder(8, 5), 2, 2, Pattern.PROPOSED, GuidanceConfig("dual", 1.0, 1.0), seed=0)
        assert seen[0] == ((8, 0), False)
        assert [shape for shape, _ in seen[::4]] == [(8, step) for step in range(5)]
        assert not any(writeable for _, writeable in seen)

    @pytest.mark.parametrize("mode", ["none", "dual"])
    def test_non_finite_logits_in_inactive_row_raise(self, mode):
        def predictor(prefix, variant):
            logits = np.zeros((4, 3))
            if prefix.shape[1] == 0 and variant == GuidanceConfig(mode).variants[-1]:
                logits[3, 0] = np.nan
            return logits

        # Step 1 of the proposed pattern activates only row 0 (the primary omni
        # code), so the NaN sits in a row that is not sampled.
        with pytest.raises(ValueError, match="finite"):
            generate(predictor, 1, 2, Pattern.PROPOSED, GuidanceConfig(mode))


class SeededPredictor:
    """Logits drawn from a generator seeded by (seed, step, variant), so two
    runs see the same outputs. ``kind`` "normal" gives distinct values,
    "tied" small integers with exact ties, "constant" one value per row."""

    def __init__(self, n_rows, vocab_size, seed, kind, dtype):
        self.shape = (n_rows, vocab_size)
        self.seed, self.kind, self.dtype = seed, kind, dtype

    def __call__(self, prefix, variant):
        rng = np.random.default_rng([self.seed, prefix.shape[1], VARIANTS.index(variant)])
        if self.kind == "normal":
            logits = rng.normal(scale=3.0, size=self.shape)
        elif self.kind == "tied":
            logits = rng.integers(-2, 3, size=self.shape).astype(np.float64)
        else:
            logits = np.repeat(rng.normal(size=(self.shape[0], 1)), self.shape[1], axis=1)
        return logits.astype(self.dtype)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


top_ps = st.one_of(st.just(1.0), st.floats(0.01, 1.0))
temperatures = st.sampled_from((0.1, 0.7, 1.0, 3.0))
scales = st.floats(-3.0, 3.0)


class TestAllocatingOracles:
    """The in-place combine and sampler against the allocating formulation."""

    @settings(max_examples=150, deadline=None)
    @given(
        mode=st.sampled_from(MODES),
        pattern=st.sampled_from(list(Pattern)),
        n=st.integers(1, 3),
        n_frames=st.integers(1, 5),
        vocab_size=st.integers(1, 40),
        kind=st.sampled_from(("normal", "tied", "constant")),
        dtype=st.sampled_from((np.float64, np.float32)),
        argmax=st.booleans(),
        temperature=temperatures,
        top_p=top_ps,
        omegas=st.tuples(scales, scales),
        seed=st.integers(0, 2**16),
    )
    def test_generate_codes_match(self, mode, pattern, n, n_frames, vocab_size, kind, dtype,
                                  argmax, temperature, top_p, omegas, seed):
        config = GuidanceConfig(mode, *omegas)
        args = (n, n_frames, pattern, config, temperature, top_p, seed, argmax)
        got = generate(SeededPredictor(4 * n, vocab_size, seed, kind, dtype), *args)
        want = generate_allocating(SeededPredictor(4 * n, vocab_size, seed, kind, dtype), *args)
        assert np.array_equal(got.codes, want.codes)
        assert got.vocab_size == want.vocab_size == vocab_size

    @settings(max_examples=100, deadline=None)
    @given(
        mode=st.sampled_from(MODES),
        rows=st.integers(1, 6),
        vocab_size=st.integers(1, 40),
        kind=st.sampled_from(("normal", "tied", "constant")),
        dtype=st.sampled_from((np.float64, np.float32)),
        temperature=temperatures,
        top_p=top_ps,
        omegas=st.tuples(scales, scales),
        seed=st.integers(0, 2**16),
    )
    def test_public_functions_match_and_keep_inputs(self, mode, rows, vocab_size, kind, dtype,
                                                    temperature, top_p, omegas, seed):
        predictor = SeededPredictor(rows, vocab_size, seed, kind, dtype)
        sets = {variant: predictor(np.zeros((rows, 0)), variant) for variant in VARIANTS}
        before = {variant: logits.copy() for variant, logits in sets.items()}
        guided = combine(mode, **sets, omega=omegas[0], omega2=omegas[1])
        assert same_bits(guided, combine_allocating(mode, **sets, omega=omegas[0], omega2=omegas[1]))
        for argmax in (False, True):
            got = sample_step(guided, temperature, top_p, rng=np.random.default_rng(seed), argmax=argmax)
            want = sample_step_allocating(guided, temperature, top_p, rng=np.random.default_rng(seed),
                                          argmax=argmax)
            assert np.array_equal(got, want)
        logits = sets["full"]
        assert same_bits(softmax(logits.copy(), axis=1), softmax_allocating(logits, axis=1))
        probs = softmax_allocating(np.asarray(logits, dtype=np.float64), axis=1)
        assert same_bits(top_p_mask_of(probs, top_p), top_p_mask_allocating(probs, top_p))
        assert all(same_bits(sets[variant], before[variant]) for variant in VARIANTS)

    @settings(max_examples=100, deadline=None)
    @given(
        mode=st.sampled_from(MODES),
        rows=st.integers(1, 6),
        vocab_size=st.integers(1, 40),
        kind=st.sampled_from(("normal", "tied", "constant")),
        omegas=st.tuples(scales, scales),
        seed=st.integers(0, 2**16),
    )
    def test_combine_takes_exactly_the_variants_of_its_mode(self, mode, rows, vocab_size, kind, omegas, seed):
        predictor = SeededPredictor(rows, vocab_size, seed, kind, np.float64)
        variants = GuidanceConfig(mode).variants
        sets = {variant: predictor(np.zeros((rows, 0)), variant) for variant in variants}
        got = combine(mode, **sets, omega=omegas[0], omega2=omegas[1])
        assert same_bits(got, combine_allocating(mode, **sets, omega=omegas[0], omega2=omegas[1]))
        for missing in variants:
            with pytest.raises(ValueError, match=f"^guidance mode requires the {missing!r} logit set$"):
                combine(mode, **{**sets, missing: None}, omega=omegas[0], omega2=omegas[1])

    @settings(max_examples=150, deadline=None)
    @given(
        logits=hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 6)), elements=st.floats(-1e6, 1e6)),
        temperature=st.floats(1e-3, 1e3),
    )
    def test_softmax_temperature_matches_dividing_first(self, logits, temperature):
        # softmax takes the row maxima before it divides: rounding keeps order, so no bit moves.
        want = softmax_allocating(logits / temperature, axis=1)
        assert same_bits(softmax(logits.copy(), axis=1, temperature=temperature), want)

    def test_sample_step_keeps_its_input(self):
        logits = np.random.default_rng(17).normal(size=(5, 9))
        before = logits.copy()
        sample_step(logits, 0.5, 0.8, rng=np.random.default_rng(0))
        sample_step(logits, argmax=True)
        assert same_bits(logits, before)

    def test_table_predictor_shares_one_read_only_matrix_per_step(self):
        table = CodeMatrix(np.random.default_rng(18).integers(0, 9, size=(8, 4)), 2, 9)
        predictor = TablePredictor(table, Pattern.PROPOSED)
        prefix = np.zeros((8, 2), dtype=np.int64)
        first = [predictor(prefix, variant) for variant in VARIANTS]
        assert all(logits is first[0] for logits in first)
        assert not first[0].flags.writeable
        later = predictor(np.zeros((8, 3), dtype=np.int64), "full")
        assert later is not first[0]
        assert predictor.n_queries == 5


@pytest.mark.parametrize("name", ["full", "direction_only", "unconditional"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_combine_refuses_non_finite_logits(name, value):
    sets = {variant: np.zeros((2, 3)) for variant in ("full", "direction_only", "unconditional")}
    sets[name][1, 2] = value
    with pytest.raises(ValueError, match=f"^{re.escape(repr(name))} logits must be finite$"):
        combine("directional", **sets)
