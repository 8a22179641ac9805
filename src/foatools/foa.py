"""First-order ambisonics: encoding, decoding, rotation and sphere energy maps.

A sound field is carried by four channels (W, X, Y, Z): W is the
omnidirectional pressure scaled by 1/sqrt(2), and X, Y, Z are
figure-of-eight pickups along the front, left and up axes. Azimuth is
measured counterclockwise from the front in [0, 2*pi), elevation from the
horizon in [-pi/2, pi/2], both in radians.

All operations are pure functions over immutable values; nothing here keeps
shared mutable state, so values can be handed across threads freely.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import InvalidRotationError, InvalidWindowError

TWO_PI = 2.0 * math.pi

ENERGY_MODE_POWER = "power"
ENERGY_MODE_LINEAR = "literal-linear"
ENERGY_MODES = (ENERGY_MODE_POWER, ENERGY_MODE_LINEAR)

_ROTATION_TOL = 1e-9


@dataclass(frozen=True)
class Direction:
    """A look direction on the sphere, azimuth and elevation in radians.

    Azimuth is normalized into [0, 2*pi) on construction; elevation must lie
    in [-pi/2, pi/2].
    """

    azimuth: float
    elevation: float

    def __post_init__(self) -> None:
        az = float(self.azimuth)
        el = float(self.elevation)
        if not math.isfinite(az):
            raise ValueError("azimuth must be finite")
        if not -0.5 * math.pi <= el <= 0.5 * math.pi:
            raise ValueError(f"elevation must lie in [-pi/2, pi/2], got {el!r}")
        object.__setattr__(self, "azimuth", az % TWO_PI)
        object.__setattr__(self, "elevation", el)

    def unit_vector(self) -> np.ndarray:
        """Cartesian unit vector (front, left, up) for this direction."""
        ce = math.cos(self.elevation)
        return np.array(
            [
                math.cos(self.azimuth) * ce,
                math.sin(self.azimuth) * ce,
                math.sin(self.elevation),
            ]
        )


@dataclass(frozen=True)
class Rotation:
    """A proper rotation of 3-space: orthogonal matrix with determinant +1."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.shape != (3, 3) or not np.all(np.isfinite(m)):
            raise InvalidRotationError("rotation must be a finite 3x3 matrix")
        gram_err = float(np.max(np.abs(m.T @ m - np.eye(3))))
        det_err = abs(float(np.linalg.det(m)) - 1.0)
        if gram_err > _ROTATION_TOL or det_err > _ROTATION_TOL:
            raise InvalidRotationError(
                f"not a proper rotation (orthogonality error {gram_err:.3e}, "
                f"determinant error {det_err:.3e})"
            )
        object.__setattr__(self, "matrix", m)

    @classmethod
    def about_z(cls, angle: float) -> "Rotation":
        """Counterclockwise rotation about the vertical axis by ``angle`` radians."""
        c, s = math.cos(angle), math.sin(angle)
        return cls(np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]))

    @classmethod
    def quarter_turn_z(cls) -> "Rotation":
        """Exact 90-degree turn about the vertical axis.

        The matrix entries are exact 0/+-1, so applying it permutes and
        negates channels bit-exactly: (W, X, Y, Z) -> (W, -Y, X, Z).
        """
        return cls(np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))


@dataclass(frozen=True)
class FoaClip:
    """A first-order ambisonics clip: samples shaped (4, L), rows W, X, Y, Z."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 2 or samples.shape[0] != 4:
            raise ValueError("samples must be a 4xL array in W, X, Y, Z order")
        if samples.shape[1] < 1:
            raise ValueError("clip must hold at least one sample")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        if not isinstance(self.sample_rate, (int, np.integer)) or self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be a positive integer, got {self.sample_rate!r}")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", int(self.sample_rate))

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]


class SphereGrid:
    """Equirectangular sphere sampling with per-band azimuth thinning.

    The sphere is split into ``n_elevation_bands`` equal-height elevation
    bands. A band centred at elevation ``e`` holds
    ``max(1, round(max_azimuth_samples * cos(e)))`` azimuth samples, which
    keeps cell density roughly uniform over the sphere instead of
    oversampling the poles. Each cell's area weight is its band's exact
    solid-angle fraction split evenly across the band, so weights sum to 1.

    Cells are ordered band-major, bands ascending from the south pole,
    azimuths ascending from 0 within each band.
    """

    def __init__(self, n_elevation_bands: int = 32, max_azimuth_samples: int = 64):
        if int(n_elevation_bands) < 1 or int(max_azimuth_samples) < 1:
            raise ValueError("grid resolution must be at least 1 band and 1 azimuth sample")
        self.n_elevation_bands = int(n_elevation_bands)
        self.max_azimuth_samples = int(max_azimuth_samples)

        edges = -0.5 * math.pi + math.pi * np.arange(self.n_elevation_bands + 1) / self.n_elevation_bands
        sin_edges = np.sin(edges)
        centers = 0.5 * (edges[:-1] + edges[1:])

        counts = np.maximum(1, np.rint(self.max_azimuth_samples * np.cos(centers))).astype(np.intp)
        self.samples_per_band = counts.tolist()
        # Cells run band-major; a cell's azimuth index counts from its band's first cell.
        self.band_index = np.repeat(np.arange(self.n_elevation_bands, dtype=np.intp), counts)
        first_cell = np.cumsum(counts) - counts
        self.azimuth_index = np.arange(self.band_index.size) - first_cell[self.band_index]
        self.azimuths = TWO_PI * self.azimuth_index / counts[self.band_index]
        self.elevations = centers[self.band_index]
        # Band solid angle 2*pi*(sin top - sin bottom); the per-band sines
        # telescope, so the weights sum to 1 up to rounding.
        self.weights = (np.diff(sin_edges) / (2.0 * counts))[self.band_index]
        ce = np.cos(self.elevations)
        # Power at cell u is b M b^T with b = (1, u); the 16 products b_i b_j
        # per cell turn that quadratic form into one row-times-column product.
        basis = np.column_stack(
            [np.ones(self.n_cells), np.cos(self.azimuths) * ce, np.sin(self.azimuths) * ce, np.sin(self.elevations)]
        )
        self.quadratic_features = (basis[:, :, None] * basis[:, None, :]).reshape(-1, 16).T

    @property
    def n_cells(self) -> int:
        return self.weights.size

    def direction(self, cell: int) -> Direction:
        """Direction of one cell center."""
        return Direction(float(self.azimuths[cell]), float(self.elevations[cell]))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SphereGrid)
            and self.n_elevation_bands == other.n_elevation_bands
            and self.max_azimuth_samples == other.max_azimuth_samples
        )

    def __hash__(self) -> int:
        return hash((self.n_elevation_bands, self.max_azimuth_samples))

    def __repr__(self) -> str:
        return (
            f"SphereGrid({self.n_elevation_bands}x{self.max_azimuth_samples}, "
            f"{self.n_cells} cells)"
        )


@dataclass(frozen=True)
class EnergyMap:
    """Per-cell acoustic energy over a sphere grid for one analysis window."""

    grid: SphereGrid
    values: np.ndarray
    window: tuple
    mode: str = ENERGY_MODE_POWER

    def __post_init__(self) -> None:
        if self.mode not in ENERGY_MODES:
            raise ValueError(f"mode must be one of {ENERGY_MODES}, got {self.mode!r}")
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != (self.grid.n_cells,):
            raise ValueError("one value per grid cell required")
        if not np.all(np.isfinite(values)):
            raise ValueError("energy values must be finite")
        if self.mode == ENERGY_MODE_POWER and np.any(values < 0.0):
            raise ValueError("power-mode energies must be nonnegative")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "window", (int(self.window[0]), int(self.window[1])))

    def argmax_cell(self) -> int:
        """First cell index attaining the maximum value."""
        return int(np.argmax(self.values))


def encode_mono(signal, direction: Direction, sample_rate: int = 44100) -> FoaClip:
    """Pan a mono signal to first-order ambisonics at ``direction``.

    Channel gains are W = 1/sqrt(2), X = cos(az)cos(el),
    Y = sin(az)cos(el), Z = sin(el).

    Parameters
    ----------
    signal : array_like
        Mono waveform, finite, at least one sample.
    direction : Direction
        Source direction.
    sample_rate : int
        Sample rate of the returned clip (samples/second).
    """
    s = np.asarray(signal, dtype=np.float64)
    if s.ndim != 1 or s.size == 0 or not np.all(np.isfinite(s)):
        raise ValueError("signal must be a nonempty finite 1-D array")
    return FoaClip(_encode(s[None], direction), sample_rate)


# The array cores of encode_mono, decode_to_mono and rotate: (channels, n) float64 slabs
# in and out, unchecked, so a streamed caller checks each slab once, where it reads it.
def _encode(s: np.ndarray, direction: Direction) -> np.ndarray:
    ux, uy, uz = direction.unit_vector()
    return np.vstack([s / math.sqrt(2.0), ux * s, uy * s, uz * s])


def _decode(samples: np.ndarray, direction: Direction) -> np.ndarray:
    return samples[:1] + direction.unit_vector() @ samples[1:]


def _rotate(samples: np.ndarray, rotation: Rotation) -> np.ndarray:
    turned = np.empty(samples.shape)
    turned[0] = samples[0]
    np.matmul(rotation.matrix, samples[1:], out=turned[1:])
    return turned


def decode_to_mono(clip: FoaClip, direction: Direction) -> np.ndarray:
    """Virtual-microphone signal of ``clip`` heading ``direction``.

    Returns W + X cos(az)cos(el) + Y sin(az)cos(el) + Z sin(el) per sample,
    the 3-D cardioid pickup at that heading.
    """
    return _decode(clip.samples, direction)[0]


def rotate(clip: FoaClip, rotation: Rotation) -> FoaClip:
    """Rotate the sound field: W is untouched, (X, Y, Z) go through the matrix."""
    return FoaClip(_rotate(clip.samples, rotation), clip.sample_rate)


def _resolve_window(window, n_samples: int) -> tuple:
    if window is None:
        return 0, n_samples
    start, end = int(window[0]), int(window[1])
    if not 0 <= start < end <= n_samples:
        raise InvalidWindowError(
            f"window [{start}, {end}) invalid for clip of {n_samples} samples"
        )
    return start, end


def block_moments(samples: np.ndarray, length: int) -> np.ndarray:
    """Summed 4x4 second moments of each whole ``length``-sample block of ``samples`` (4, L),
    as (n_blocks, 4, 4): exactly symmetric, the same bits for any layout. A block of the
    channel-major rows (other layouts are copied) times its X, Y, Z rows is one 4x3 gemm,
    not OpenBLAS's 2-5x slower syrk; W.W is a (2,K)@(K,1) gemv, as a ddot's bits vary with threads."""
    samples = np.ascontiguousarray(samples)
    blocks = samples[:, : samples.shape[1] // length * length].reshape(4, -1, length).transpose(1, 0, 2)
    moments = np.empty((len(blocks), 4, 4))
    np.matmul(blocks, blocks[:, 1:].transpose(0, 2, 1), out=moments[:, :, 1:])
    moments[:, 0, 0] = (blocks[:, :2] @ blocks[:, 0, :, None])[:, 0, 0]
    moments[:, [1, 2, 3, 2, 3, 3], [0, 0, 0, 1, 1, 2]] = moments[:, [0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3]]
    return moments


def power_maps(grid: SphereGrid, moments: np.ndarray) -> np.ndarray:
    """Power-mode cell energies, clamped at 0, for a stack of mean second moments
    (n, 4, 4): one (1, 16) @ (16, cells) product per row gives (n, cells), so a
    row's rounding, unlike in one (n, 16) product, does not depend on the stack."""
    return np.maximum((moments.reshape(-1, 1, 16) @ grid.quadratic_features)[:, 0], 0.0)


def second_sums(seconds: np.ndarray) -> np.ndarray:
    """Sums (k, 4) over t of ``seconds`` (4, k, t) in sample order, any layout (einsum's own order blocks a contiguous t).
    An empty stack drops its t axis first, as einsum steps along t even when there are no seconds to sum."""
    return np.einsum("ckt->kc", seconds if seconds.size else seconds[..., :0], order="F", out=np.empty(seconds.shape[1::-1]))


# What a map reads of a clip over its ``window`` (start, end): the samples'
# summed 4x4 second moment ``whole`` and their channel sums ``sums`` (4,).
WindowSums = namedtuple("WindowSums", "window whole sums")


def whole_seconds(slabs, n_samples: int, sample_rate: int):
    """The summaries' slab contract: ``slabs`` as they come, refusing one after a partial second or a total not n_samples."""
    taken = 0
    for slab in slabs:
        if taken % sample_rate:
            raise ValueError(f"slab at sample {taken} follows a partial second of {sample_rate} samples")
        taken += slab.shape[1]
        yield slab
    if taken != n_samples:
        raise ValueError(f"slabs hold {taken} samples, not {n_samples}")


def walk_moments(slabs, length: int):
    """Yield each (4, frames) slab of ``slabs`` with the ``block_moments`` of its whole ``length``-sample blocks, counted
    from the clip start (a block cut at a slab's end joins the next slab), then the leftover samples and the whole moment:
    the blocks in order, then the leftover, the same sum however the clip was cut. The leftover is a copy: no slab is
    viewed once the next is taken."""
    moments, tail = [], np.zeros((4, 0))
    for slab in slabs:
        joined = np.concatenate([tail, slab], axis=1) if tail.shape[1] else slab
        moments.append(block_moments(joined, length))
        tail = joined[:, len(moments[-1]) * length :].copy()
        yield slab, moments[-1]
    yield tail, np.concatenate(moments).sum(axis=0) + block_moments(tail, max(1, tail.shape[1])).sum(axis=0)


def window_sums(slabs, n_samples: int, sample_rate: int, window=None) -> WindowSums:
    """The WindowSums of a clip that ``slabs`` yields as ``whole_seconds`` checks them; the window is checked
    before a slab is taken. A slab wholly outside ``[start, end)`` is skipped, and one the window
    cuts is multiplied by its 0/1 mask (a copy). ``whole`` is ``walk_moments``' over the rest, whose 1 s blocks no skip
    moves (with no window, ``curation.clip_stats``'s); the channel sums add the seconds in order, then the leftover:
    both sum the clip times its mask, but for the sign of an exact-zero sum, which adds of skipped zeros could move."""
    start, end = _resolve_window(window, n_samples)

    def inside(offset=0):
        for slab in whole_seconds(slabs, n_samples, sample_rate):
            lo, offset = offset, offset + slab.shape[1]
            cut = lo < start or end < offset  # a slab the window cuts is a copy, times 1 inside it and 0 outside
            if start < offset and lo < end:
                yield slab * ((start <= np.arange(lo, offset)) & (np.arange(lo, offset) < end)) if cut else slab
    sums = []
    for part, whole in walk_moments(inside(), sample_rate):
        k = part.shape[1] // sample_rate
        sums.append(second_sums(part[:, : k * sample_rate].reshape(4, k, sample_rate)))
    return WindowSums((start, end), whole, np.concatenate(sums).sum(axis=0) + second_sums(part[:, None])[0])


def summary(clip, build):
    """``build([clip.samples], clip.n_samples, clip.sample_rate)``, the summary of a FoaClip
    as one slab; any other ``clip`` is a summary already and comes back unchanged."""
    return build([clip.samples], clip.n_samples, clip.sample_rate) if isinstance(clip, FoaClip) else clip


def energy_map(
    clip,
    grid: SphereGrid,
    window=None,
    mode: str = ENERGY_MODE_POWER,
) -> EnergyMap:
    """Acoustic energy of ``clip`` at every grid cell over a sample window.

    ``clip`` is a FoaClip, taken through ``summary``, or its ``window_sums``,
    which carry their window (``window`` is then None); both give one map.

    In ``power`` mode each cell holds the time mean of the squared decoded
    signal at the cell direction. The ``literal-linear`` mode returns the
    time mean of the decoded signal itself; it vanishes for zero-mean audio
    and is kept only for completeness.

    The decoded signal at unit vector u is b . (W, X, Y, Z) with
    b = (1, u); its windowed mean square is the quadratic form b M b^T on
    the 4x4 channel second-moment matrix M, which is what is evaluated here
    (identical to decoding per cell, without the per-cell passes).
    """
    if isinstance(clip, WindowSums) and window is not None:
        raise ValueError("WindowSums carry their window; pass window=None")
    (start, end), whole, sums = summary(clip, partial(window_sums, window=window))
    if mode == ENERGY_MODE_POWER:
        values = power_maps(grid, whole[None] / (end - start))[0]
    else:
        # The first four feature rows are 1 * b_j, the basis itself.
        values = (sums / (end - start)) @ grid.quadratic_features[:4]
    return EnergyMap(grid=grid, values=values, window=(start, end), mode=mode)


def directional_energy(
    clip: FoaClip,
    direction: Direction,
    window=None,
    mode: str = ENERGY_MODE_POWER,
) -> float:
    """Energy of ``clip`` at one exact direction (no grid involved)."""
    if mode not in ENERGY_MODES:
        raise ValueError(f"mode must be one of {ENERGY_MODES}, got {mode!r}")
    start, end = _resolve_window(window, clip.n_samples)
    decoded = decode_to_mono(clip, direction)[start:end]
    if mode == ENERGY_MODE_POWER:
        return float(np.mean(decoded * decoded))
    return float(np.mean(decoded))
