"""Scheduling patterns for 4-channel residual-vector-quantizer code matrices.

A code matrix holds 4N rows (N codebooks for each of the W, X, Y, Z
channels, channel-major) by L time frames. Rows split into four groups by
1-based row index i:

    W_p  primary omni codebooks      (i - 1) % N == 0 and i <= N
    W_r  residual omni codebooks     (i - 1) % N != 0 and i <= N
    S_p  primary spatial codebooks   (i - 1) % N == 0 and i > N
    S_r  residual spatial codebooks  (i - 1) % N != 0 and i > N

Each pattern maps the cell (row i, frame t) to one sequential step, filling
every other slot with a padding sentinel (the vocabulary size):

    interleaved ("proposed"): 2L+1 steps. W_p at step 2t-1, W_r and S_p at
        2t, S_r at 2t+1, so residual spatial codes of frame t arrive one
        step after the primary codes they depend on.
    sequential_delay: L+4N-1 steps; row i is delayed by i-1 steps
        (cell (i, t) at step t+i-1).
    residual_only: 2L steps; primaries at 2t-1, residuals at 2t.
    spatial_only: 2L steps; omni rows at 2t-1, spatial rows at 2t.

Every pattern is a bijection onto its non-padding slots, so unpacking is
exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import MalformedPatternError


class Pattern(str, Enum):
    PROPOSED = "proposed"
    SEQUENTIAL_DELAY = "sequential_delay"
    RESIDUAL_ONLY = "residual_only"
    SPATIAL_ONLY = "spatial_only"


class Group(str, Enum):
    W_PRIMARY = "W_p"
    W_RESIDUAL = "W_r"
    S_PRIMARY = "S_p"
    S_RESIDUAL = "S_r"


def group_of(row_index: int, n_codebooks_per_channel: int) -> Group:
    """Codebook group of a 1-based row in a 4N-row code matrix.

    Written as (i-1) % N == 0 so that N == 1 (a single codebook per channel,
    all rows primary) degenerates cleanly.
    """
    n = int(n_codebooks_per_channel)
    if n < 1:
        raise ValueError("n_codebooks_per_channel must be at least 1")
    i = int(row_index)
    if not 1 <= i <= 4 * n:
        raise ValueError(f"row index {i} outside 1..{4 * n}")
    primary = (i - 1) % n == 0
    omni = i <= n
    if omni:
        return Group.W_PRIMARY if primary else Group.W_RESIDUAL
    return Group.S_PRIMARY if primary else Group.S_RESIDUAL


def _step_shape(pattern: Pattern, n: int) -> tuple:
    """(steps per frame, extra steps): a pattern spans per_frame * L + extra steps."""
    return {Pattern.PROPOSED: (2, 1), Pattern.SEQUENTIAL_DELAY: (1, 4 * n - 1)}.get(pattern, (2, 0))


def pattern_steps(pattern: Pattern, n_codebooks_per_channel: int, n_frames: int) -> int:
    """Number of sequential steps a pattern needs for an (4N x L) matrix."""
    n, length = int(n_codebooks_per_channel), int(n_frames)
    if n < 1 or length < 1:
        raise ValueError("need at least one codebook and one frame")
    per_frame, extra = _step_shape(Pattern(pattern), n)
    return per_frame * length + extra


def _schedule(pattern: Pattern, n: int, n_frames: int) -> tuple:
    """Where a pattern puts the cells of a (4N x L) matrix.

    Returns ``index``, the fancy-index pair that places cell (i, t) at its
    0-based step, and ``occupied``, the (4N x steps) mask of scheduled slots.
    """
    occupied = np.zeros((4 * n, pattern_steps(pattern, n, n_frames)), dtype=bool)
    rows = np.arange(4 * n)[:, None]
    frames = np.arange(n_frames)[None, :]
    primary = rows % n == 0
    omni = rows < n
    if pattern is Pattern.PROPOSED:
        # 0 for W_p, 2 for S_r, 1 for the middle groups.
        step = 2 * frames + np.where(primary & omni, 0, np.where(~primary & ~omni, 2, 1))
    elif pattern is Pattern.SEQUENTIAL_DELAY:
        step = frames + rows
    elif pattern is Pattern.RESIDUAL_ONLY:
        step = 2 * frames + ~primary
    else:
        step = 2 * frames + ~omni
    index = (rows, step)
    occupied[index] = True
    return index, occupied


def _validate(matrix, padded: bool) -> None:
    """Check and normalize codes, N and V in place; a ``padded`` matrix may also hold V."""
    codes = np.asarray(matrix.codes)
    if codes.ndim != 2 or not np.issubdtype(codes.dtype, np.integer):
        raise ValueError("codes must be a 2-D integer matrix")
    n = int(matrix.n_codebooks_per_channel)
    v = int(matrix.vocab_size)
    if n < 1 or v < 1:
        raise ValueError("need positive codebook count and vocabulary size")
    if codes.shape[0] != 4 * n:
        raise ValueError(f"expected {4 * n} rows for N={n}, got {codes.shape[0]}")
    if codes.shape[1] < 1:
        raise ValueError("code matrix must hold at least one column")
    top = v if padded else v - 1
    if codes.min() < 0 or codes.max() > top:
        raise ValueError(f"codes must lie in [0, {top}] for V={v}")
    object.__setattr__(matrix, "codes", codes.astype(np.int64))
    object.__setattr__(matrix, "n_codebooks_per_channel", n)
    object.__setattr__(matrix, "vocab_size", v)


@dataclass(frozen=True)
class CodeMatrix:
    """Raw (4N x L) code matrix: entries in [0, vocab_size)."""

    codes: np.ndarray
    n_codebooks_per_channel: int
    vocab_size: int

    def __post_init__(self) -> None:
        _validate(self, padded=False)

    @property
    def n_frames(self) -> int:
        return self.codes.shape[1]


@dataclass(frozen=True)
class ReorgMatrix:
    """Pattern-scheduled (4N x steps) matrix; padding slots hold vocab_size."""

    codes: np.ndarray
    pattern: Pattern
    n_codebooks_per_channel: int
    vocab_size: int

    def __post_init__(self) -> None:
        _validate(self, padded=True)
        pattern = Pattern(self.pattern)
        n, steps = self.n_codebooks_per_channel, self.codes.shape[1]
        per_frame, extra = _step_shape(pattern, n)
        n_frames, rem = divmod(steps - extra, per_frame)
        if rem != 0 or n_frames < 1:
            raise MalformedPatternError(
                f"{steps} steps is not a valid {pattern.value} schedule length for N={n}"
            )
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "_n_frames", n_frames)

    @property
    def pad_value(self) -> int:
        return self.vocab_size

    @property
    def n_steps(self) -> int:
        return self.codes.shape[1]

    @property
    def n_frames(self) -> int:
        return self._n_frames


def pack(matrix: CodeMatrix, pattern: Pattern) -> ReorgMatrix:
    """Reorganize a code matrix onto a pattern's step schedule."""
    pattern = Pattern(pattern)
    n = matrix.n_codebooks_per_channel
    index, occupied = _schedule(pattern, n, matrix.n_frames)
    out = np.full(occupied.shape, matrix.vocab_size, dtype=np.int64)
    out[index] = matrix.codes
    return ReorgMatrix(out, pattern, n, matrix.vocab_size)


def unpack(reorg: ReorgMatrix) -> CodeMatrix:
    """Invert :func:`pack`, validating the padding layout first."""
    n = reorg.n_codebooks_per_channel
    index, occupied = _schedule(reorg.pattern, n, reorg.n_frames)
    pad = reorg.codes == reorg.pad_value
    if np.any(pad & occupied):
        raise MalformedPatternError("padding found in a slot the pattern schedules")
    if np.any(~pad & ~occupied):
        raise MalformedPatternError("code found in a slot the pattern pads")
    return CodeMatrix(reorg.codes[index], n, reorg.vocab_size)
