import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from foatools import CodeMatrix, Group, Pattern, ReorgMatrix, group_of, pack, pattern_steps, unpack
from foatools.errors import MalformedPatternError
from foatools.tensor_io import read_code_matrix, write_code_matrix
from helpers import pack_bruteforce


def random_matrix(rng, n, frames, vocab=1024):
    return CodeMatrix(rng.integers(0, vocab, size=(4 * n, frames)), n, vocab)


class TestGroupOf:
    def test_n2_layout(self):
        groups = [group_of(i, 2) for i in range(1, 9)]
        assert groups[0] is Group.W_PRIMARY
        assert groups[1] is Group.W_RESIDUAL
        assert [groups[i - 1] for i in (3, 5, 7)] == [Group.S_PRIMARY] * 3
        assert [groups[i - 1] for i in (4, 6, 8)] == [Group.S_RESIDUAL] * 3

    def test_n9_boundaries(self):
        assert group_of(10, 9) is Group.S_PRIMARY  # first spatial primary row
        assert group_of(9, 9) is Group.W_RESIDUAL

    def test_n1_degenerate(self):
        # One codebook per channel: every row is primary.
        assert group_of(1, 1) is Group.W_PRIMARY
        assert [group_of(i, 1) for i in (2, 3, 4)] == [Group.S_PRIMARY] * 3

    def test_bounds(self):
        with pytest.raises(ValueError):
            group_of(0, 2)
        with pytest.raises(ValueError):
            group_of(9, 2)


class TestStepCounts:
    @pytest.mark.parametrize(
        "n,frames,proposed,sequential",
        [(2, 2, 5, 9), (9, 430, 861, 465), (9, 86, 173, 121)],
    )
    def test_formulas(self, n, frames, proposed, sequential):
        assert pattern_steps(Pattern.PROPOSED, n, frames) == proposed
        assert pattern_steps(Pattern.SEQUENTIAL_DELAY, n, frames) == sequential
        assert pattern_steps(Pattern.RESIDUAL_ONLY, n, frames) == 2 * frames
        assert pattern_steps(Pattern.SPATIAL_ONLY, n, frames) == 2 * frames

    def test_packed_shapes_match(self):
        rng = np.random.default_rng(0)
        for n, frames in [(2, 2), (9, 86)]:
            matrix = random_matrix(rng, n, frames)
            for pattern in Pattern:
                reorg = pack(matrix, pattern)
                assert reorg.n_steps == pattern_steps(pattern, n, frames)
                assert reorg.n_frames == frames


class TestProposedLayout:
    def test_exact_placement_n2_l2(self):
        codes = np.arange(16).reshape(8, 2)
        matrix = CodeMatrix(codes, 2, 16)
        reorg = pack(matrix, Pattern.PROPOSED)
        pad = 16
        expected = np.full((8, 5), pad)
        expected[0, 0] = codes[0, 0]  # step 1: W_p frame 1
        for row in (1, 2, 4, 6):  # step 2: W_r and S_p frame 1
            expected[row, 1] = codes[row, 0]
        expected[0, 2] = codes[0, 1]  # step 3: W_p frame 2 ...
        for row in (3, 5, 7):  # ... and S_r frame 1
            expected[row, 2] = codes[row, 0]
        for row in (1, 2, 4, 6):  # step 4: W_r and S_p frame 2
            expected[row, 3] = codes[row, 1]
        for row in (3, 5, 7):  # step 5: S_r frame 2
            expected[row, 4] = codes[row, 1]
        assert np.array_equal(reorg.codes, expected)

    def test_hand_built_matrix_unpacks(self):
        codes = np.arange(16).reshape(8, 2)
        reorg = pack(CodeMatrix(codes, 2, 16), Pattern.PROPOSED)
        rebuilt = ReorgMatrix(reorg.codes.copy(), Pattern.PROPOSED, 2, 16)
        assert np.array_equal(unpack(rebuilt).codes, codes)

    def test_residual_lags_primary_by_one_frame(self):
        rng = np.random.default_rng(1)
        n, frames = 3, 6
        matrix = random_matrix(rng, n, frames)
        reorg = pack(matrix, Pattern.PROPOSED)
        groups = [group_of(i, n) for i in range(1, 4 * n + 1)]
        for step in range(3, 2 * frames, 2):  # odd steps, not first or last
            for row, group in enumerate(groups):
                if group is Group.W_PRIMARY:
                    assert reorg.codes[row, step - 1] == matrix.codes[row, (step + 1) // 2 - 1]
                elif group is Group.S_RESIDUAL:
                    assert reorg.codes[row, step - 1] == matrix.codes[row, (step - 1) // 2 - 1]
                else:
                    assert reorg.codes[row, step - 1] == reorg.pad_value


class TestOtherLayouts:
    def test_residual_only_single_frame(self):
        rng = np.random.default_rng(2)
        n = 2
        matrix = random_matrix(rng, n, 1, vocab=7)
        reorg = pack(matrix, Pattern.RESIDUAL_ONLY)
        assert reorg.n_steps == 2
        for row in range(4 * n):
            primary = group_of(row + 1, n) in (Group.W_PRIMARY, Group.S_PRIMARY)
            step = 0 if primary else 1
            assert reorg.codes[row, step] == matrix.codes[row, 0]
            assert reorg.codes[row, 1 - step] == reorg.pad_value

    def test_spatial_only_splits_omni_first(self):
        rng = np.random.default_rng(3)
        n = 2
        matrix = random_matrix(rng, n, 3, vocab=11)
        reorg = pack(matrix, Pattern.SPATIAL_ONLY)
        for frame in range(3):
            assert np.array_equal(reorg.codes[:n, 2 * frame], matrix.codes[:n, frame])
            assert np.array_equal(reorg.codes[n:, 2 * frame + 1], matrix.codes[n:, frame])
            assert np.all(reorg.codes[n:, 2 * frame] == reorg.pad_value)
            assert np.all(reorg.codes[:n, 2 * frame + 1] == reorg.pad_value)

    def test_sequential_delay_row_occupancy(self):
        rng = np.random.default_rng(4)
        n, frames = 2, 5
        matrix = random_matrix(rng, n, frames, vocab=9)
        reorg = pack(matrix, Pattern.SEQUENTIAL_DELAY)
        for row in range(4 * n):
            occupied = np.nonzero(reorg.codes[row] != reorg.pad_value)[0]
            assert occupied.tolist() == list(range(row, row + frames))
            assert np.array_equal(reorg.codes[row, row : row + frames], matrix.codes[row])


class TestRoundTrip:
    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_all_patterns(self, n):
        rng = np.random.default_rng(5)
        for _ in range(10):
            matrix = random_matrix(rng, n, int(rng.integers(1, 20)))
            for pattern in Pattern:
                back = unpack(pack(matrix, pattern))
                assert np.array_equal(back.codes, matrix.codes)
                assert back.vocab_size == matrix.vocab_size

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 9),
        frames=st.integers(1, 40),
        vocab=st.integers(1, 0xFFFF),
        pattern=st.sampled_from(list(Pattern)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pack_matches_oracle_and_round_trips(self, tmp_path_factory, n, frames, vocab, pattern, seed):
        matrix = random_matrix(np.random.default_rng(seed), n, frames, vocab)
        reorg = pack(matrix, pattern)
        assert np.array_equal(reorg.codes, pack_bruteforce(matrix, pattern))
        assert np.array_equal(unpack(reorg).codes, matrix.codes)
        path = tmp_path_factory.mktemp("codes") / "m.cmx"
        for original in (matrix, reorg):
            write_code_matrix(original, path)
            back = read_code_matrix(path)
            assert type(back) is type(original)
            assert np.array_equal(back.codes, original.codes)
            assert (back.n_codebooks_per_channel, back.n_frames, back.vocab_size) == (n, frames, vocab)

    def test_every_cell_packed_exactly_once(self):
        rng = np.random.default_rng(6)
        matrix = random_matrix(rng, 3, 7)
        for pattern in Pattern:
            reorg = pack(matrix, pattern)
            assert int(np.count_nonzero(reorg.codes != reorg.pad_value)) == matrix.codes.size


class TestValidation:
    def test_code_matrix_bounds(self):
        with pytest.raises(ValueError):
            CodeMatrix(np.array([[5]]), 1, 5)  # code == vocab
        with pytest.raises(ValueError):
            CodeMatrix(-np.ones((4, 2), dtype=np.int64), 1, 5)
        with pytest.raises(ValueError):
            CodeMatrix(np.zeros((6, 2), dtype=np.int64), 2, 5)  # rows != 4N

    def test_upper_bounds(self):
        with pytest.raises(ValueError, match=r"\[0, 4\] for V=5"):
            CodeMatrix(np.full((4, 3), 5), 1, 5)
        ReorgMatrix(np.full((4, 3), 5), Pattern.PROPOSED, 1, 5)  # padding = V is allowed
        with pytest.raises(ValueError, match=r"\[0, 5\] for V=5"):
            ReorgMatrix(np.full((4, 3), 6), Pattern.PROPOSED, 1, 5)
        with pytest.raises(ValueError):
            ReorgMatrix(-np.ones((4, 3), dtype=np.int64), Pattern.PROPOSED, 1, 5)

    def test_zero_columns(self):
        empty = np.zeros((8, 0), dtype=np.int64)
        with pytest.raises(ValueError, match="at least one column"):
            CodeMatrix(empty, 2, 5)
        with pytest.raises(ValueError, match="at least one column"):
            ReorgMatrix(empty, Pattern.PROPOSED, 2, 5)

    def test_malformed_pad_in_scheduled_slot(self):
        rng = np.random.default_rng(7)
        reorg = pack(random_matrix(rng, 2, 3, vocab=7), Pattern.PROPOSED)
        codes = reorg.codes.copy()
        codes[0, 0] = reorg.pad_value  # step 1 must hold the first W_p code
        bad = ReorgMatrix(codes, Pattern.PROPOSED, 2, 7)
        with pytest.raises(MalformedPatternError):
            unpack(bad)

    def test_malformed_code_in_padded_slot(self):
        rng = np.random.default_rng(8)
        reorg = pack(random_matrix(rng, 2, 3, vocab=7), Pattern.PROPOSED)
        codes = reorg.codes.copy()
        codes[1, 0] = 3  # W_r row is padding at step 1
        bad = ReorgMatrix(codes, Pattern.PROPOSED, 2, 7)
        with pytest.raises(MalformedPatternError):
            unpack(bad)

    def test_bad_schedule_length(self):
        with pytest.raises(MalformedPatternError):
            ReorgMatrix(np.zeros((8, 4), dtype=np.int64), Pattern.PROPOSED, 2, 5)
