"""Small numeric helpers shared by the saliency and sampling modules."""

from __future__ import annotations

import numpy as np


def softmax_(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """``softmax`` computed in the array ``x``, which it returns."""
    x -= np.max(x, axis=axis, keepdims=True)
    np.exp(x, out=x)
    x /= np.sum(x, axis=axis, keepdims=True)
    return x


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    x = np.asarray(x)
    return softmax_(x.astype(np.result_type(x, 1.0)), axis)


def top_p_mask_(p: np.ndarray, top_p: float, desc: np.ndarray, csum: np.ndarray) -> np.ndarray:
    """``top_p_mask`` of float64 ``p``, sorted into ``desc`` and summed into
    ``csum``, scratch arrays shaped like ``p``."""
    # Ties cannot change the sorted values, so no argsort is needed.
    np.copyto(desc, p)
    desc.sort(axis=-1)
    desc = desc[..., ::-1]
    np.cumsum(desc, axis=-1, out=csum)
    # Cumulative mass may fall short of top_p by rounding; keep everything then.
    k = np.minimum(np.sum(csum < top_p, axis=-1, keepdims=True), p.shape[-1] - 1)
    return p >= np.take_along_axis(desc, k, axis=-1)


def top_p_mask(probs: np.ndarray, top_p: float) -> np.ndarray:
    """Boolean mask of the smallest probability set with mass >= ``top_p``.

    Works row-wise along the last axis. Each row's probabilities are ranked
    descending; the minimal prefix whose cumulative mass reaches ``top_p`` is
    kept, together with every entry tied with the boundary probability, so
    exact ties never break nondeterministically.
    """
    if not 0.0 < top_p <= 1.0:
        raise ValueError(f"top_p must lie in (0, 1], got {top_p}")
    p = np.asarray(probs, dtype=np.float64)
    return top_p_mask_(p, top_p, np.empty_like(p), np.empty_like(p))
