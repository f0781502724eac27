"""Hierarchical features from patch-sampled convolution kernels.

Instead of learning kernels, each layer samples ``m`` patches straight
from its input and uses them as cross-correlation kernels.  In
"distinctive" mode the patch centres are drawn from pixels whose
min-max-normalised activation exceeds a threshold (salient structure);
in "random" mode they are drawn uniformly, which serves as the baseline.
Layer outputs are reduced to three channels each, z-scored, and stacked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage

from .config import PipelineConfig, check
from .difference import _column_stats, _min_max
from .errors import ParameterError, ShapeError
from .raster import Raster
from .seeds import derive_seed

_TILE_PIXELS = 4096  # pixels per block of windows convolved at once


@dataclass
class KernelSet:
    kernels: np.ndarray   # (m, k, k, c)
    centers: np.ndarray   # (m, 2) row/col source coordinates
    mode: str             # "distinctive" | "random"
    fallback: bool = False  # distinctive pool was smaller than m; used top-m


def normalize_activation(f: Raster) -> Raster:
    """Min-max normalise the activation map to [0, 1].

    Multi-channel input is first reduced to its per-pixel L2 magnitude.
    A constant map normalises to all zeros.
    """
    if f.channels == 1:
        return _min_max(f.band(0))
    return _min_max(np.sqrt((f.data ** 2).sum(axis=2)))


def _windows(data: np.ndarray, k: int) -> np.ndarray:
    """The k-by-k window around every pixel, symmetric-reflected at borders.

    A view of shape (height, width, channels, k, k) over the padded input.
    """
    half = k // 2
    padded = np.pad(data, ((half, half), (half, half), (0, 0)), mode="symmetric")
    return sliding_window_view(padded, (k, k), axis=(0, 1))


def select_kernels(
    f: Raster,
    mode: str,
    m: int,
    k: int,
    threshold: float = PipelineConfig.threshold,
    seed: int = 0,
) -> KernelSet:
    """Sample ``m`` patch kernels from ``f``.

    A kernel is the window :func:`conv_layer` slides over ``f``, taken at
    a centre pixel, so kernels and convolution share one border rule.

    distinctive: centres drawn without replacement from pixels whose
    normalised activation exceeds ``threshold``; if fewer than ``m``
    qualify, the top-``m`` pixels by activation are taken instead and the
    fallback flag is set.  random: centres drawn uniformly over all
    pixels (with replacement).  Every kernel is scaled to unit L2 norm so
    bright patches cannot dominate the activations; the mean is kept, as
    removing it would strip the kernels' response to local averages, the
    main carrier of contextual evidence.  An all-zero patch stays zero.
    """
    check("kernel_mode", mode)
    check("kernels_per_layer", m)
    n_pixels = f.height * f.width
    if m > n_pixels:
        raise ParameterError(f"cannot draw {m} centres from {n_pixels} pixels")
    check("kernel_size", k)
    if k > min(f.height, f.width):
        raise ParameterError(
            f"kernel size {k} exceeds image extent {f.height}x{f.width}"
        )
    check("threshold", threshold)
    check("seed", seed)

    rng = np.random.default_rng(seed)
    fallback = False
    if mode == "random":
        flat = rng.integers(0, n_pixels, size=m)
    else:
        activation = normalize_activation(f).band(0).ravel()
        pool = np.flatnonzero(activation > threshold)
        if pool.size >= m:
            flat = rng.choice(pool, size=m, replace=False)
        else:
            fallback = True
            # Highest activations first; ties broken by flat index.
            order = np.lexsort((np.arange(n_pixels), -activation))
            flat = order[:m]
    centers = np.stack([flat // f.width, flat % f.width], axis=1)

    patches = np.ascontiguousarray(
        _windows(f.data, k)[centers[:, 0], centers[:, 1]].transpose(0, 2, 3, 1)
    )
    norm = np.sqrt((patches ** 2).sum(axis=(1, 2, 3)))[:, None, None, None]
    kernels = np.zeros_like(patches)
    np.divide(patches, norm, out=kernels, where=norm > 1e-12)
    return KernelSet(kernels=kernels, centers=centers, mode=mode, fallback=fallback)


def conv_layer(f: Raster, kernels: KernelSet) -> Raster:
    """Cross-correlate ``f`` with every kernel and clamp negatives to zero.

    Symmetric-reflection padding keeps the spatial dimensions; channel
    counts of image and kernels must agree.  Output has one channel per
    kernel.
    """
    m, k, k2, kc = kernels.kernels.shape
    if k != k2:
        raise ShapeError("kernels must be square")
    if kc != f.channels:
        raise ShapeError(
            f"kernel channels ({kc}) disagree with image channels ({f.channels})"
        )
    windows = _windows(f.data, k)
    kmat = kernels.kernels.transpose(0, 3, 1, 2).reshape(m, kc * k * k)
    # One reused tile bounds the im2col copy: blocks of whole rows, about
    # _TILE_PIXELS each (a wider row is one block), sized within one row of
    # each other so none is a lone pixel: numpy would multiply that by GEMV,
    # whose bits differ from GEMM's.
    blocks = min(f.height, -(-f.height * f.width // _TILE_PIXELS))
    tile = np.empty((-(-f.height // blocks),) + windows.shape[1:])
    out = np.empty((f.height, f.width, m))
    for i in range(blocks):
        top, bottom = f.height * i // blocks, f.height * (i + 1) // blocks
        block = tile[: bottom - top]
        block[...] = windows[top:bottom]
        res = out[top:bottom].reshape(-1, m)
        np.matmul(block.reshape(res.shape[0], -1), kmat.T, out=res)
        np.maximum(res, 0.0, out=res)
    return Raster(out)


def pca_reduce(f: Raster, keep: int) -> Raster:
    """Project pixels onto the top principal directions of their channels.

    Pixels are the samples; channels the variables.  Components come out
    in descending explained-variance order, each sign-fixed so its
    largest-magnitude loading is positive.  Directions whose eigenvalue
    falls below 1e-12 of the total variance are dropped rather than
    padded, so the output may have fewer than ``keep`` channels.
    """
    if keep < 1:
        raise ParameterError(f"keep must be >= 1, got {keep}")
    n = f.height * f.width
    c = f.channels
    if n <= c:
        raise ParameterError(f"need more pixels ({n}) than channels ({c}) for PCA")
    x = f.data.reshape(n, c)
    centred = x - x.mean(axis=0)
    cov = centred.T @ centred / (n - 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals, kind="stable")[::-1]
    evals = np.maximum(evals[order], 0.0)
    evecs = evecs[:, order]
    total = evals.sum()
    significant = evals > 1e-12 * total if total > 0 else np.zeros(c, dtype=bool)
    n_keep = min(keep, int(np.count_nonzero(significant)))
    if n_keep == 0:
        raise ParameterError("input has no variance; nothing to retain")
    basis = evecs[:, :n_keep].copy()
    for j in range(n_keep):
        pivot = int(np.argmax(np.abs(basis[:, j])))
        if basis[pivot, j] < 0:
            basis[:, j] = -basis[:, j]
    return Raster((centred @ basis).reshape(f.height, f.width, n_keep))


def zscore_channels(data: np.ndarray) -> np.ndarray:
    """Zero-mean, unit-variance per channel; flat channels become zero."""
    flat = data.reshape(-1, data.shape[2])
    mean, std = _column_stats(flat)
    safe = np.where(std > 1e-12, std, 1.0)
    out = (flat - mean) / safe
    out[:, std <= 1e-12] = 0.0
    return out.reshape(data.shape)


def check_shape(cfg: PipelineConfig, height: int, width: int) -> None:
    """Raise :class:`ParameterError` unless ``cfg``'s convolution stack fits a
    ``height`` x ``width`` image: kernels inside it, more pixels than kernels."""
    image = f"{height}x{width} image"
    if cfg.kernel_size > min(height, width):
        raise ParameterError(f"kernel_size {cfg.kernel_size} exceeds the {image}")
    if cfg.kernels_per_layer >= height * width:
        raise ParameterError(f"kernels_per_layer {cfg.kernels_per_layer} must be below the "
                             f"{height * width} pixels of the {image}, for each layer's PCA")


def stack_features(channels: Raster, cfg: PipelineConfig, seed: int = 0) -> Raster:
    """Run ``cfg.depth`` patch-convolution layers and stack their features.

    Layer 1 convolves the raw ``channels`` averaged over the kernel
    footprint, which lifts the kernels' signal-to-speckle ratio at their
    own scale, and z-scored, so background variance cannot drown the
    change evidence; every later layer convolves the previous layer's
    output reduced to 3 principal channels.  These reductions are
    z-scored and concatenated in layer order.  Kernel selection at layer
    d uses the child seed ``(seed, d)`` and reads ``kernel_mode``,
    ``kernels_per_layer``, ``kernel_size`` and ``threshold`` from ``cfg``;
    :func:`check_shape` runs first.
    """
    check_shape(cfg, channels.height, channels.width)
    k = cfg.kernel_size
    current = Raster(zscore_channels(ndimage.uniform_filter(
        channels.data, size=(k, k, 1), mode="reflect")))
    reduced: list[Raster] = []
    for d in range(1, cfg.depth + 1):
        if d > 1:
            current = reduced[-1]
        kernels = select_kernels(
            current, cfg.kernel_mode, cfg.kernels_per_layer, k,
            cfg.threshold, derive_seed(seed, d),
        )
        reduced.append(pca_reduce(conv_layer(current, kernels), 3))
    return Raster(np.concatenate([zscore_channels(r.data) for r in reduced], axis=2))
