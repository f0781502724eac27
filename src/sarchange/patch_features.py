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

from .config import POSITIVE_INT, PipelineConfig, check
from .difference import _min_max, box_mean, zscore_channels
from .errors import ParameterError, ShapeError
from .raster import Raster
from .seeds import derive_seed

_TILE_PIXELS = 4096  # pixels per block of windows convolved at once
_PIXEL_STEP = 8  # a block's pixel columns are padded to a multiple of this


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


def _padded_planes(data: np.ndarray, k: int) -> np.ndarray:
    """The channels of ``data`` as planes padded for a k-by-k window around
    every pixel, symmetric-reflected at borders.

    Shape (channels, height + 2 * (k // 2), width + 2 * (k // 2)); the
    window around pixel (r, c) is ``[:, r : r + k, c : c + k]``.
    """
    half = k // 2
    return np.pad(data.transpose(2, 0, 1), ((0, 0), (half, half), (half, half)),
                  mode="symmetric")


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

    windows = sliding_window_view(_padded_planes(f.data, k), (k, k), axis=(1, 2))
    patches = np.ascontiguousarray(
        windows[:, centers[:, 0], centers[:, 1]].transpose(1, 2, 3, 0)
    )
    norm = np.sqrt((patches ** 2).sum(axis=(1, 2, 3)))[:, None, None, None]
    kernels = np.zeros_like(patches)
    np.divide(patches, norm, out=kernels, where=norm > 1e-12)
    return KernelSet(kernels=kernels, centers=centers, mode=mode, fallback=fallback)


def conv_layer(f: Raster, kernels: KernelSet) -> Raster:
    """Cross-correlate ``f`` with every kernel and clamp negatives to zero.

    Symmetric-reflection padding keeps the spatial dimensions; channel
    counts of image and kernels must agree.  Output has one channel per
    kernel, pixel-major: shape (height, width, kernels).

    Blocks of whole rows, about ``_TILE_PIXELS`` pixels each (a wider row
    is one block) and within one row of each other in height, are
    multiplied as ``kernels @ columns``: one im2col row per (channel, dy,
    dx), in the kernels' flattened order, cut from shifted slices of the
    padded planes, and one column per pixel, padded with zeros to a
    multiple of ``_PIXEL_STEP``.  With two or more kernels this has the
    bits of the pixel-major product ``windows @ kernels.T`` (OpenBLAS
    rounds a remainder of fewer than ``_PIXEL_STEP`` columns differently),
    except in blocks of at most 1200 outputs over 32 or more terms, which
    OpenBLAS sends to a small-matrix kernel.  One kernel makes both
    products GEMVs, whose bits may differ.
    """
    m, k, k2, kc = kernels.kernels.shape
    if k != k2:
        raise ShapeError("kernels must be square")
    if kc != f.channels:
        raise ShapeError(
            f"kernel channels ({kc}) disagree with image channels ({f.channels})"
        )
    h, w = f.height, f.width
    planes = _padded_planes(f.data, k)
    kmat = kernels.kernels.transpose(0, 3, 1, 2).reshape(m, kc * k * k)
    blocks = min(h, -(-h * w // _TILE_PIXELS))
    tallest = -(-h // blocks)
    most = -(-tallest * w // _PIXEL_STEP) * _PIXEL_STEP  # padded columns of a block
    # The output is allocated before the two reused scratch blocks, so it
    # does not land above them in the heap.  Padding columns stay finite.
    out = np.empty((h, w, m))
    cols_buf = np.zeros(kc * k * k * most)
    prod_buf = np.empty(m * most)
    for i in range(blocks):
        top, bottom = h * i // blocks, h * (i + 1) // blocks
        n = (bottom - top) * w
        padded = -(-n // _PIXEL_STEP) * _PIXEL_STEP
        cols = cols_buf[: kc * k * k * padded].reshape(-1, padded)
        pixels = cols[:, :n].reshape(kc, k, k, bottom - top, w)
        for dy in range(k):
            for dx in range(k):
                pixels[:, dy, dx] = planes[:, top + dy : bottom + dy, dx : dx + w]
        prod = np.matmul(kmat, cols, out=prod_buf[: m * padded].reshape(m, padded))
        np.maximum(prod[:, :n].T, 0.0, out=out[top:bottom].reshape(n, m))
    # Free the scratch before Raster's finiteness check allocates its
    # n * m mask, so the two do not stack on top of the output.
    del planes, cols_buf, prod_buf, cols, pixels, prod
    return Raster(out)


def _centred_tiles(x: np.ndarray, mean: np.ndarray):
    """Yield ``(rows, x[rows] - mean)`` for tiles of ``_TILE_PIXELS`` rows of
    ``x``; every tile is written into one reused scratch array."""
    n, c = x.shape
    scratch = np.empty(min(n, _TILE_PIXELS) * c)
    for top in range(0, n, _TILE_PIXELS):
        rows = slice(top, min(top + _TILE_PIXELS, n))
        yield rows, np.subtract(x[rows], mean, out=scratch[: (rows.stop - top) * c].reshape(-1, c))


def pca_reduce(f: Raster, keep: int) -> Raster:
    """Project pixels onto the top principal directions of their channels.

    Pixels are the samples; channels the variables.  Components come out
    in descending explained-variance order, each sign-fixed so its
    largest-magnitude loading is positive.  Directions whose eigenvalue
    falls below 1e-12 of the total variance are dropped rather than
    padded, so the output may have fewer than ``keep`` channels.

    No centred copy of the input is made: the covariance sums each tile's
    centred ``t.T @ t`` (Chan, Golub & LeVeque, 1979), and the projection
    centres and projects tile by tile into the output, so beyond the
    output only a tile of ``_TILE_PIXELS`` rows is allocated.
    """
    check("keep", keep, POSITIVE_INT)
    n = f.height * f.width
    c = f.channels
    if n <= c:
        raise ParameterError(f"need more pixels ({n}) than channels ({c}) for PCA")
    x = f.data.reshape(n, c)
    mean = x.mean(axis=0)
    cov = np.zeros((c, c))
    for _, t in _centred_tiles(x, mean):
        cov += t.T @ t
    cov /= n - 1
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
    out = np.empty((n, n_keep))
    for rows, t in _centred_tiles(x, mean):
        np.matmul(t, basis, out=out[rows])
    return Raster(out.reshape(f.height, f.width, n_keep))


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
    current = Raster(zscore_channels(box_mean(channels.data, k)))
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
