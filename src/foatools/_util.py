"""Small numeric helpers shared by the saliency and sampling modules."""

from __future__ import annotations

import numpy as np


def softmax(x: np.ndarray, axis: int = -1, temperature: float = 1.0) -> np.ndarray:
    """Numerically stable softmax of ``x / temperature`` along ``axis``, computed in float ``x``, which it
    returns. ValueError for a ``temperature`` that is not positive or leaves a row maximum not finite."""
    if not temperature > 0.0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    with np.errstate(over="ignore"):  # a row maximum's overflow is refused below; a lower entry's is -inf, p = 0
        peak = np.max(x, axis=axis, keepdims=True) / temperature  # the maxima of x / temperature: rounding keeps order
        x /= temperature
    if not np.isfinite(peak).all():
        raise ValueError(f"a row maximum divided by temperature {temperature} is not finite")
    x -= peak
    np.exp(x, out=x)
    x /= np.sum(x, axis=axis, keepdims=True)
    return x


def top_p_mask(p: np.ndarray, top_p: float, desc: np.ndarray, csum: np.ndarray) -> np.ndarray:
    """Boolean mask of the smallest probability set with mass >= ``top_p`` in (0, 1].

    Works row-wise along the last axis of float64 ``p``, which it does not write,
    sorting each row descending into ``desc`` and summing it into ``csum``, scratch
    arrays shaped like ``p``. The minimal prefix whose cumulative mass reaches
    ``top_p`` is kept, together with every entry tied with the boundary
    probability, so exact ties never break nondeterministically.
    """
    if not 0.0 < top_p <= 1.0:
        raise ValueError(f"top_p must lie in (0, 1], got {top_p}")
    # Ties cannot change the sorted values, so no argsort is needed.
    np.copyto(desc, p)
    desc.sort(axis=-1)
    desc = desc[..., ::-1]
    np.cumsum(desc, axis=-1, out=csum)
    # Cumulative mass may fall short of top_p by rounding; keep everything then.
    k = np.minimum(np.sum(csum < top_p, axis=-1, keepdims=True), p.shape[-1] - 1)
    return p >= np.take_along_axis(desc, k, axis=-1)
