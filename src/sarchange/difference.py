"""Difference-image generation for co-registered acquisition pairs."""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, ShapeError
from .raster import Raster

# Additive guard against log(0); SAR intensities can be exactly zero.
LOG_RATIO_EPS = 1e-6


def _min_max(a: np.ndarray) -> Raster:
    """``a`` rescaled to [0, 1]; a constant ``a`` maps to all zeros."""
    lo = a.min()
    hi = a.max()
    if hi - lo < 1e-300:
        return Raster.from_array(np.zeros_like(a))
    return Raster.from_array((a - lo) / (hi - lo))


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
    return _min_max(np.abs(np.log((b + LOG_RATIO_EPS) / (a + LOG_RATIO_EPS))))
