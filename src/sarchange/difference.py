"""Difference-image generation for co-registered acquisition pairs, the
package's one column-standardisation rule, :func:`zscore_channels`, and
its one box filter, :func:`box_mean`."""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, ShapeError
from .raster import Raster

# Additive guard against log(0); SAR intensities can be exactly zero.
LOG_RATIO_EPS = 1e-6


def _column_stats(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``flat.mean(axis=0)`` and ``flat.std(axis=0)`` of an ``(n, c)`` array, bit for bit.

    For c >= 2 numpy's axis-0 reduce adds the rows in order from a +0.0
    start, with an inner loop only c long; each column is summed here in
    1-D passes in the same order, as ``np.cumsum(col)[-1] + 0.0``.  A
    single column is reduced pairwise, so numpy's own calls serve it.
    """
    n, c = flat.shape
    if c == 1:
        return flat.mean(axis=0), flat.std(axis=0)
    mean, std = np.empty(c), np.empty(c)
    for j in range(c):
        col = flat[:, j]
        mean[j] = (np.cumsum(col)[-1] + 0.0) / n
        dev = col - mean[j]
        std[j] = np.sqrt((np.cumsum(np.square(dev, out=dev))[-1] + 0.0) / n)
    return mean, std


def zscore_channels(data: np.ndarray) -> np.ndarray:
    """Zero mean and unit variance per channel, the last axis of ``data``
    (``(n, c)`` or ``(h, w, c)``); flat channels become zero."""
    flat = data.reshape(-1, data.shape[-1])
    mean, std = _column_stats(flat)
    safe = np.where(std > 1e-12, std, 1.0)
    out = np.subtract(flat, mean)
    out /= safe
    out[:, std <= 1e-12] = 0.0
    return out.reshape(data.shape)


def box_mean(data: np.ndarray, size: int) -> np.ndarray:
    """Mean over a ``size``-by-``size`` window of the first two axes of
    ``data``, reflected at the borders (``d c b a | a b c d | d c b a``).

    Bit for bit ``scipy.ndimage.uniform_filter(data, mode="reflect")``
    with size 1 on any trailing axis.  Axis 0 goes first, then axis 1;
    along each line a window sum ``s`` adds the first ``size`` values in
    order from 0.0, then steps ``s += x[i + size - 1] - x[i - 1]``, and
    each output is ``s / size``.  One cumulative sum over the padded
    line's steps takes them in that order.  Size 1 copies ``data``, as
    scipy skips such an axis.
    """
    out = np.asarray(data, dtype=np.float64)
    if size == 1:
        return out.copy()
    for axis in (0, 1):
        line = np.moveaxis(out, axis, 0)
        pad = [(size // 2, size - 1 - size // 2)] + [(0, 0)] * (line.ndim - 1)
        x = np.pad(line, pad, mode="symmetric")
        steps = np.concatenate([np.zeros_like(x[:1]), x[:size], x[size:] - x[:-size]])
        out = np.moveaxis(np.cumsum(steps, axis=0)[size:] / size, 0, axis)
    return np.ascontiguousarray(out)


def log_ratio_di(i1: Raster, i2: Raster) -> Raster:
    """Absolute log-ratio of two intensity images, min-max rescaled to [0, 1].

    The per-pixel map ``|ln((i2 + eps) / (i1 + eps))|`` is symmetric in its
    arguments and insensitive to the multiplicative speckle level shared by
    both acquisitions.  Rescaling pins the output to [0, 1] so downstream
    thresholds behave consistently across scenes; a constant pre-rescale
    map (the degenerate no-change case) maps to all zeros.
    """
    if (i1.height, i1.width) != (i2.height, i2.width):
        raise ShapeError(
            f"image dimensions disagree: {i1.height}x{i1.width} vs {i2.height}x{i2.width}"
        )
    if i1.channels != 1 or i2.channels != 1:
        raise ShapeError("difference image needs single-channel inputs")
    a = i1.band(0)
    b = i2.band(0)
    if (a < 0).any() or (b < 0).any():
        raise ParameterError("intensity images must be non-negative")
    d = np.abs(np.log((b + LOG_RATIO_EPS) / (a + LOG_RATIO_EPS)))
    lo, hi = d.min(), d.max()
    if hi - lo < 1e-300:
        return Raster.from_array(np.zeros_like(d))
    return Raster.from_array((d - lo) / (hi - lo))
