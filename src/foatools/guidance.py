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

Guided logits extrapolate between these variants at scale omega, in the terms
of the mode's one entry in ``_TERMS``, which its queried variants also read. The
generation harness walks a pattern's step schedule, sampling only the rows active
at each step and reading the finished schedule back into a raw code matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import softmax, top_p_mask
from .code_pattern import CodeMatrix, Pattern, _schedule, pack

DEFAULT_OMEGA = 2.5

VARIANTS = ("full", "direction_only", "visual_only", "unconditional")

# Each mode's terms: guided = full + omega * (first - unconditional) [+ omega2 * (second - unconditional)].
_TERMS = {
    "none": (),
    "directional": ("direction_only",),
    "visual": ("visual_only",),
    "joint": ("full",),
    "dual": ("direction_only", "visual_only"),
}

MODES = tuple(_TERMS)


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
        """Conditioning variants this mode needs from the predictor, in ``VARIANTS`` order."""
        terms = _TERMS[self.mode]
        return tuple(v for v in VARIANTS if v == "full" or terms and v in (*terms, "unconditional"))


def _checked(name: str, logits, shape) -> np.ndarray:
    """A float64 copy of ``logits``, checked for presence, shape and finiteness."""
    if logits is None:
        raise ValueError(f"guidance mode requires the {name!r} logit set")
    arr = np.array(logits, dtype=np.float64)
    if shape is not None and arr.shape != shape:
        raise ValueError(f"{name!r} logits shaped {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name!r} logits must be finite")
    return arr


def _combine(config: GuidanceConfig, sets: dict) -> np.ndarray:
    """``combine`` in place on ``sets``, each variant's float64 logits by name. Each term ``c`` of
    the mode, in ``_TERMS`` order, is ``t = c - u; t *= omega; t += guided``: the bits of ``guided
    + omega * (c - u)``, as rounded sums and products commute. A term overwrites ``c`` (``u`` for
    ``full``), never ``full``; the last is the guided logits (``full`` itself in mode none)."""
    guided = sets["full"]
    for name, scale in zip(_TERMS[config.mode], (config.omega, config.omega2)):
        term = np.subtract(sets[name], sets["unconditional"], out=sets["unconditional" if name == "full" else name])
        term *= scale
        guided = np.add(term, guided, out=term)
    return guided


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
    config = GuidanceConfig(mode, omega, omega2)
    base = _checked("full", full, None)
    # Checked in this order, so a missing unconditional set is named first.
    given = {"unconditional": unconditional, "direction_only": direction_only, "visual_only": visual_only}
    sets = {name: _checked(name, logits, base.shape) for name, logits in given.items() if name in config.variants}
    return _combine(config, {"full": base, **sets})


def _sample(logits: np.ndarray, temperature, top_p, rng, argmax, scratch) -> np.ndarray:
    """``sample_step``'s codes for float64 ``logits``, which becomes its softmax;
    ``scratch`` holds two more arrays shaped like it, to sort and sum into."""
    if argmax:
        return np.argmax(logits, axis=1)
    probs = softmax(logits, axis=1, temperature=temperature)
    if rng is None:
        raise ValueError("sampling requires a seeded numpy Generator")
    probs *= top_p_mask(probs, top_p, *scratch)
    cdf = np.cumsum(probs, axis=1, out=scratch[1])
    total = cdf[:, -1:]
    draws = rng.random((probs.shape[0], 1)) * total
    codes = np.sum(cdf <= draws, axis=1)
    # A draw that rounds up to the total must still land on a kept code:
    # the last one, where the CDF first reaches the total.
    return np.minimum(codes, np.argmax(cdf == total, axis=1))


def sample_step(
    logits,
    temperature: float = 1.0,
    top_p: float = 1.0,
    rng: np.random.Generator | None = None,
    argmax: bool = False,
) -> np.ndarray:
    """Draw one code per logit row.

    Each row goes through softmax(logits / temperature) and top-p truncation
    (boundary ties kept); then one ``rng.random(rows)`` call draws every row
    by inverse CDF over the kept mass, in row order. With ``argmax`` the
    most likely code is taken and no randomness is consumed.
    """
    arr = np.array(logits, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("logits must be a (rows x vocabulary) matrix")
    if not np.all(np.isfinite(arr)):
        raise ValueError("logits must be finite")
    return _sample(arr, temperature, top_p, rng, argmax, np.empty((2, *arr.shape)))


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
    The predictor sees a read-only view of the generated columns, and the
    finished schedule is read back into a raw (4N x L) matrix without padding.
    Each step combines and samples in work buffers allocated once, so its
    codes are those of ``combine`` and ``sample_step`` on the active rows.
    """
    pattern = Pattern(pattern)
    n = int(n_codebooks_per_channel)
    index, occupied = _schedule(pattern, n, int(n_frames))
    rng = np.random.default_rng(seed)

    # Filled with the pad value once the predictor reveals the vocabulary.
    buffer = np.empty(occupied.shape, dtype=np.int64)
    generated = buffer.view()
    generated.flags.writeable = False
    vocab_size = None
    for step, rows in enumerate(map(np.flatnonzero, occupied.T)):
        active = {}
        for variant in guidance.variants:
            logits = np.asarray(predictor(generated[:, :step], variant), dtype=np.float64)
            if logits.ndim != 2 or logits.shape[0] != 4 * n or logits.shape[1] == 0:
                raise ValueError(
                    f"predictor returned shape {logits.shape}, expected ({4 * n}, V)"
                )
            if vocab_size is None:
                vocab_size = logits.shape[1]
                buffer.fill(vocab_size)
                # The active rows of each variant, then sort and cumsum scratch.
                work = np.empty((len(guidance.variants) + 2, 4 * n, vocab_size))
            elif logits.shape[1] != vocab_size:
                raise ValueError("predictor changed vocabulary size between calls")
            if not np.all(np.isfinite(logits)):
                raise ValueError(f"{variant!r} logits must be finite")
            out = work[len(active), : rows.size]
            active[variant] = np.take(logits, rows, axis=0, out=out, mode="clip")
        guided = _combine(guidance, active)
        buffer[rows, step] = _sample(guided, temperature, top_p, rng, argmax, work[-2:, : rows.size])
    return CodeMatrix(buffer[index], n, vocab_size)


class TablePredictor:
    """Replays a known code matrix: a huge logit marks each scheduled code.

    Useful as a deterministic end-to-end fixture; any guidance mode leaves
    the argmax unchanged because every variant returns the same logits: one
    read-only matrix per step, built at the step's first query and shared by
    every variant queried at that step.
    """

    PEAK = 1e4

    def __init__(self, matrix: CodeMatrix, pattern: Pattern):
        self.pattern = Pattern(pattern)
        self._packed = pack(matrix, self.pattern).codes
        self.vocab_size = matrix.vocab_size
        self.n_queries = 0
        self._step = self._logits = None

    def __call__(self, prefix: np.ndarray, variant: str) -> np.ndarray:
        self.n_queries += 1
        step = prefix.shape[1] + 1
        if step != self._step:
            logits = np.zeros((self._packed.shape[0], self.vocab_size))
            if step <= self._packed.shape[1]:
                column = self._packed[:, step - 1]
                rows = np.flatnonzero(column != self.vocab_size)
                logits[rows, column[rows]] = self.PEAK
            logits.flags.writeable = False
            self._step, self._logits = step, logits
        return self._logits
