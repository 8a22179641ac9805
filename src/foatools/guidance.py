"""Classifier-free-guidance logit combination and pattern-driven generation.

A predictor stands in for the autoregressive decoder: a callable
``predictor(prefix, variant) -> logits`` returning one (4N x V) logit row
per codebook row for the next step. ``prefix`` holds the already generated
reorganized columns (padding slots = vocabulary size) and ``variant`` names
the conditioning:

    "full"            conditioned on visuals and direction
    "direction_only"  visuals dropped
    "visual_only"     direction dropped
    "unconditional"   both dropped

Guided logits extrapolate between these variants at scale omega; the
generation harness walks a pattern's step schedule, sampling only the rows
active at each step and unpacking the finished schedule back to a raw code
matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import softmax, top_p_mask
from .code_pattern import CodeMatrix, Pattern, ReorgMatrix, _step_table, pack, pattern_steps, unpack

MODES = ("none", "directional", "visual", "joint", "dual")

DEFAULT_OMEGA = 2.5

VARIANTS = ("full", "direction_only", "visual_only", "unconditional")

_VARIANTS_BY_MODE = {
    "none": ("full",),
    "directional": ("full", "direction_only", "unconditional"),
    "visual": ("full", "visual_only", "unconditional"),
    "joint": ("full", "unconditional"),
    "dual": VARIANTS,
}


@dataclass(frozen=True)
class GuidanceConfig:
    """Guidance mode and scales; ``omega2`` only matters in dual mode."""

    mode: str = "none"
    omega: float = DEFAULT_OMEGA
    omega2: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not (np.isfinite(self.omega) and np.isfinite(self.omega2)):
            raise ValueError("guidance scales must be finite")

    @property
    def variants(self) -> tuple:
        """Conditioning variants this mode needs from the predictor."""
        return _VARIANTS_BY_MODE[self.mode]


def _checked(name: str, logits, shape) -> np.ndarray:
    if logits is None:
        raise ValueError(f"guidance mode requires the {name!r} logit set")
    arr = np.asarray(logits, dtype=np.float64)
    if shape is not None and arr.shape != shape:
        raise ValueError(f"{name!r} logits shaped {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name!r} logits must be finite")
    return arr


def combine(
    mode: str,
    full,
    direction_only=None,
    visual_only=None,
    unconditional=None,
    omega: float = DEFAULT_OMEGA,
    omega2: float = 0.0,
) -> np.ndarray:
    """Guided logits for one step.

    directional: full + omega * (direction_only - unconditional)
    visual:      full + omega * (visual_only - unconditional)
    joint:       full + omega * (full - unconditional)
    dual:        full + omega * (direction_only - unconditional)
                      + omega2 * (visual_only - unconditional)
    none:        full, unchanged.

    Only the logit sets the mode consumes must be provided.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    base = _checked("full", full, None)
    if mode == "none":
        return base.copy()
    uncond = _checked("unconditional", unconditional, base.shape)
    if mode == "directional":
        return base + omega * (_checked("direction_only", direction_only, base.shape) - uncond)
    if mode == "visual":
        return base + omega * (_checked("visual_only", visual_only, base.shape) - uncond)
    if mode == "joint":
        return base + omega * (base - uncond)
    return (
        base
        + omega * (_checked("direction_only", direction_only, base.shape) - uncond)
        + omega2 * (_checked("visual_only", visual_only, base.shape) - uncond)
    )


def sample_step(
    logits,
    temperature: float = 1.0,
    top_p: float = 1.0,
    rng: np.random.Generator | None = None,
    argmax: bool = False,
) -> np.ndarray:
    """Draw one code per logit row.

    Each row goes through softmax(logits / temperature), top-p truncation
    (boundary ties kept) and a categorical draw from ``rng``; with
    ``argmax`` the most likely code is taken and no randomness is consumed.
    """
    arr = np.asarray(logits, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("logits must be a (rows x vocabulary) matrix")
    if not np.all(np.isfinite(arr)):
        raise ValueError("logits must be finite")
    if argmax:
        return np.argmax(arr, axis=1)
    if temperature <= 0.0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    if not 0.0 < top_p <= 1.0:
        raise ValueError(f"top_p must lie in (0, 1], got {top_p}")
    if rng is None:
        raise ValueError("sampling requires a seeded numpy Generator")
    probs = softmax(arr / temperature, axis=1)
    codes = np.empty(arr.shape[0], dtype=np.int64)
    for row in range(arr.shape[0]):
        p = probs[row] * top_p_mask(probs[row], top_p)
        p /= p.sum()
        codes[row] = rng.choice(arr.shape[1], p=p)
    return codes


def generate(
    predictor,
    n_codebooks_per_channel: int,
    n_frames: int,
    pattern: Pattern,
    guidance: GuidanceConfig = GuidanceConfig(),
    temperature: float = 1.0,
    top_p: float = 1.0,
    seed: int = 0,
    argmax: bool = False,
) -> CodeMatrix:
    """Autoregressively generate a code matrix along a pattern's schedule.

    At each sequential step the predictor is queried once per conditioning
    variant the guidance mode needs, the variants are combined, and codes
    are sampled only for the rows the schedule activates at that step.
    The finished schedule is unpacked to a raw (4N x L) matrix with no
    padding left.
    """
    pattern = Pattern(pattern)
    n = int(n_codebooks_per_channel)
    table = _step_table(pattern, n, int(n_frames))
    n_steps = pattern_steps(pattern, n, int(n_frames))
    rng = np.random.default_rng(seed)

    buffer = np.full((4 * n, n_steps), -1, dtype=np.int64)
    vocab_size = None
    for step in range(1, n_steps + 1):
        prefix = buffer[:, : step - 1].copy()
        if vocab_size is not None:
            prefix[prefix == -1] = vocab_size
        variant_logits = {}
        for variant in guidance.variants:
            logits = np.asarray(predictor(prefix, variant), dtype=np.float64)
            if logits.ndim != 2 or logits.shape[0] != 4 * n:
                raise ValueError(
                    f"predictor returned shape {logits.shape}, expected ({4 * n}, V)"
                )
            if vocab_size is None:
                vocab_size = logits.shape[1]
            elif logits.shape[1] != vocab_size:
                raise ValueError("predictor changed vocabulary size between calls")
            variant_logits[variant] = logits
        combined = combine(
            guidance.mode,
            variant_logits.get("full"),
            variant_logits.get("direction_only"),
            variant_logits.get("visual_only"),
            variant_logits.get("unconditional"),
            omega=guidance.omega,
            omega2=guidance.omega2,
        )
        active_rows = np.nonzero(np.any(table == step, axis=1))[0]
        if active_rows.size:
            codes = sample_step(
                combined[active_rows], temperature, top_p, rng=rng, argmax=argmax
            )
            buffer[active_rows, step - 1] = codes

    buffer[buffer == -1] = vocab_size
    reorg = ReorgMatrix(buffer, pattern, n, vocab_size)
    return unpack(reorg)


class TablePredictor:
    """Replays a known code matrix: a huge logit marks each scheduled code.

    Useful as a deterministic end-to-end fixture; any guidance mode leaves
    the argmax unchanged because every variant returns the same logits.
    """

    PEAK = 1e4

    def __init__(self, matrix: CodeMatrix, pattern: Pattern):
        self.pattern = Pattern(pattern)
        self.matrix = matrix
        self._packed = pack(matrix, self.pattern).codes
        self.vocab_size = matrix.vocab_size
        self.n_queries = 0

    def __call__(self, prefix: np.ndarray, variant: str) -> np.ndarray:
        self.n_queries += 1
        step = prefix.shape[1] + 1
        logits = np.zeros((self._packed.shape[0], self.vocab_size))
        if step <= self._packed.shape[1]:
            column = self._packed[:, step - 1]
            for row, code in enumerate(column):
                if code != self.vocab_size:
                    logits[row, code] = self.PEAK
        return logits
