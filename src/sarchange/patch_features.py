"""Hierarchical features from patch-sampled convolution kernels.

Instead of learning kernels, each layer samples ``m`` patches straight
from its input and uses them as cross-correlation kernels.  In
"distinctive" mode the patch centres are drawn from the most active
1.5% of the pixels (salient structure); in "random" mode they are
drawn uniformly, which serves as the baseline.
Layer outputs are reduced to three channels each, z-scored, and stacked,
the z-scored inputs last.  Kernels and convolution reflect the input at
its borders by one index, :func:`_reflected`; a layer without variance
is refused by one rule, in :func:`_fit`.

No layer's (pixels, kernels) output is ever stored.  Each layer's PCA
is first fitted on 16 evenly spaced stripes of whole rows, about 4096
pixels in all (2 rows each at 128², one row from 256² up), each
convolved as its own block; then every block of whole rows of about
2048 pixels is convolved and projected.  A 128² layer is thus
convolved 1.25 times, not twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import POSITIVE_INT, PipelineConfig, check
from .difference import box_mean, zscore_channels
from .errors import ParameterError, ShapeError
from .raster import Raster
from .seeds import derive_seed

_TILE_PIXELS = 2048  # pixels per block of rows convolved or reduced at once
_FIT_PIXELS = 1 << 12  # about the pixels sampled to fit each layer's PCA
_FIT_STRIPES = 16  # the row stripes that sample holds
_PIXEL_STEP = 8  # a block's pixel columns are padded to a multiple of this
_POOL_SHARE = 0.015  # distinctive centres come from this share of the most active pixels


@dataclass
class KernelSet:
    kernels: np.ndarray   # (m, k, k, c)
    centers: np.ndarray   # (m, 2) row/col source coordinates
    mode: str             # "distinctive" | "random"
    fallback: bool = False  # the share was under m pixels; the pool is the top m


def _reflected(n: int, half: int) -> np.ndarray:
    """The source index of each of ``n + 2 * half`` positions along an axis
    of length ``n`` padded by ``half`` on both sides, reflected at the
    borders edge-inclusively: the k-by-k window around pixel (r, c) reads
    rows ``_reflected(h, k // 2)[r : r + k]`` and the columns alike."""
    return np.pad(np.arange(n), half, mode="symmetric")


def select_kernels(
    f: Raster,
    mode: str,
    m: int,
    k: int,
    seed: int = 0,
) -> KernelSet:
    """Sample ``m`` patch kernels from ``f``.

    A kernel is the window :func:`conv_layer` slides over ``f``, taken at
    a centre pixel: both reflect ``f`` at its borders through
    :func:`_reflected`, and a kernel gathers its rows and columns from it.

    distinctive: centres drawn without replacement from the pool of the
    ``max(m, ceil(_POOL_SHARE * n))`` most active of the ``n`` pixels,
    and every pixel tied with the least active of them.  A pixel's
    activation is the squared L2 norm of its channels, so one channel
    and its negation give the same pool.  The fallback flag is set when
    the share is under ``m`` pixels, so the pool is the top ``m``.
    random: centres drawn uniformly over all pixels (with replacement).
    Every kernel is scaled to unit L2 norm so bright patches cannot
    dominate the activations; the mean is kept, as removing it would
    strip the kernels' response to local averages, the main carrier of
    contextual evidence.  An all-zero patch stays zero.
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
    check("seed", seed)

    rng = np.random.default_rng(seed)
    fallback = False
    if mode == "random":
        flat = rng.integers(0, n_pixels, size=m)
    else:
        # Plane by plane: 5x faster than a reduction over the inner axis, same bits.
        activation = np.square(f.data[:, :, 0]).ravel()
        for j in range(1, f.channels):
            activation += np.square(f.data[:, :, j]).ravel()
        size = max(m, math.ceil(_POOL_SHARE * n_pixels))
        fallback = size == m
        cut = np.partition(activation, n_pixels - size)[n_pixels - size]
        flat = rng.choice(np.flatnonzero(activation >= cut), size=m, replace=False)
    centers = np.stack([flat // f.width, flat % f.width], axis=1)

    half, window = k // 2, np.arange(k)
    rows = _reflected(f.height, half)[centers[:, :1] + window]
    cols = _reflected(f.width, half)[centers[:, 1:] + window]
    patches = f.data[rows[:, :, None], cols[:, None, :]]
    norm = np.sqrt((patches ** 2).sum(axis=(1, 2, 3)))[:, None, None, None]
    kernels = np.zeros_like(patches)
    np.divide(patches, norm, out=kernels, where=norm > 1e-12)
    return KernelSet(kernels=kernels, centers=centers, mode=mode, fallback=fallback)


def _padded(n: int) -> int:
    """``n`` rounded up to a multiple of ``_PIXEL_STEP``."""
    return -(-n // _PIXEL_STEP) * _PIXEL_STEP


def _row_blocks(h: int, w: int) -> list[tuple[int, int]]:
    """The blocks of whole rows that an h-by-w image is read in, as
    ``(top, bottom)`` bounds.

    A block has about ``_TILE_PIXELS`` pixels (a wider row is one block),
    and heights differ by at most one row.
    """
    blocks = min(h, -(-h * w // _TILE_PIXELS))
    return [(h * i // blocks, h * (i + 1) // blocks) for i in range(blocks)]


def _fit_stripes(h: int, w: int) -> list[tuple[int, int]]:
    """The row stripes an h-by-w image's PCA is fitted on, as ``(top,
    bottom)`` bounds: ``_FIT_STRIPES`` stripes of ``ceil(_FIT_PIXELS /
    (_FIT_STRIPES * w))`` whole rows each, evenly spaced from the first
    row to the last.  Empty when they would overlap or cover every row,
    as for every image of at most ``_FIT_PIXELS`` pixels.
    """
    rows = -(-_FIT_PIXELS // (_FIT_STRIPES * w))
    if _FIT_STRIPES * rows >= h:
        return []
    tops = [(h - rows) * i // (_FIT_STRIPES - 1) for i in range(_FIT_STRIPES)]
    return [(top, top + rows) for top in tops]


def _conv_blocks(f: Raster, kernels: KernelSet, bounds: list[tuple[int, int]]):
    """Yield ``(top, bottom, block)`` for the row blocks ``bounds`` of ``f``,
    in order: ``block`` is the rectified response of every kernel at the
    block's pixels, shape (kernels, pixels), a view of scratch that the
    next block overwrites and that the caller may write to.

    A block is multiplied as ``kernels @ columns``: one im2col row per
    (channel, dy, dx), in the kernels' flattened order, cut from shifted
    slices of a band of the block's rows reflected by :func:`_reflected`,
    and one column per pixel, padded with zeros to a multiple of
    ``_PIXEL_STEP``.  The views into the scratch are built once per
    block height.  Raises :class:`ShapeError`, on the first block, for
    non-square kernels or a channel mismatch.
    """
    m, k, k2, kc = kernels.kernels.shape
    if k != k2:
        raise ShapeError("kernels must be square")
    if kc != f.channels:
        raise ShapeError(
            f"kernel channels ({kc}) disagree with image channels ({f.channels})"
        )
    h, w = f.height, f.width
    half = k // 2
    # A band holds a block's reflected rows: the image row of each band
    # row, and each band column outside the image filled from the one
    # inside that it reflects.  This takes about a fifth of the time of
    # one 2-D gather of the band.
    rows = _reflected(h, half)
    edges = np.r_[:half, half + w : w + 2 * half]
    edge_sources = half + _reflected(w, half)[edges]
    kmat = kernels.kernels.transpose(0, 3, 1, 2).reshape(m, kc * k * k)
    tallest = max(bottom - top for top, bottom in bounds)
    most = _padded(tallest * w)
    cols_buf = np.zeros(kc * k * k * most)  # padding columns stay finite
    prod_buf = np.empty(m * most)
    band_buf = np.empty((kc, tallest + 2 * half, w + 2 * half))
    views = {}
    for top, bottom in bounds:
        height = bottom - top
        if height not in views:
            n = height * w
            padded = _padded(n)
            cols = cols_buf[: kc * k * k * padded].reshape(-1, padded)
            band = band_buf[:, : height + 2 * half]
            prod = prod_buf[: m * padded].reshape(m, padded)
            views[height] = (band, sliding_window_view(band, (height, w), axis=(1, 2)),
                             cols, cols[:, :n].reshape(kc, k, k, height, w), prod, prod[:, :n])
        band, windows, cols, pixels, prod, block = views[height]
        band[:, :, half : half + w] = f.data[rows[top : bottom + 2 * half]].transpose(2, 0, 1)
        band[:, :, edges] = band[:, :, edge_sources]
        pixels[...] = windows
        np.matmul(kmat, cols, out=prod)
        yield top, bottom, np.maximum(block, 0.0, out=block)


def _raster_blocks(f: Raster, bounds: list[tuple[int, int]]):
    """Yield ``(top, bottom, block)`` for the row blocks ``bounds`` of ``f``,
    in order: ``block`` is a copy of the block's pixels as (channels,
    pixels), which the caller may write to.  Arithmetic on it gives the
    bits it gives on :func:`_conv_blocks`' strided blocks."""
    for top, bottom in bounds:
        yield top, bottom, f.data[top:bottom].reshape(-1, f.channels).T.copy()


def conv_layer(f: Raster, kernels: KernelSet) -> Raster:
    """Cross-correlate ``f`` with every kernel and clamp negatives to zero.

    Symmetric-reflection padding keeps the spatial dimensions; channel
    counts of image and kernels must agree.  Output has one channel per
    kernel, pixel-major: shape (height, width, kernels).

    The output is assembled from the blocks of whole rows that
    :func:`pca_reduce` streams, about ``_TILE_PIXELS`` pixels each, each a
    ``kernels @ columns`` product over an im2col block whose pixel
    columns are padded to a multiple of ``_PIXEL_STEP``.  With two or more
    kernels this has the bits of the pixel-major product ``windows @
    kernels.T`` (OpenBLAS rounds a remainder of fewer than ``_PIXEL_STEP``
    columns differently), except in blocks of at most 1200 outputs over 32
    or more terms, which OpenBLAS sends to a small-matrix kernel.  One
    kernel makes both products GEMVs, whose bits may differ.
    """
    m = kernels.kernels.shape[0]
    # Allocated before the block scratch, so it does not land above it in the heap.
    out = np.empty((f.height, f.width, m))
    for top, bottom, block in _conv_blocks(f, kernels, _row_blocks(f.height, f.width)):
        out[top:bottom].reshape(-1, m)[...] = block.T
    return Raster(out)


def _mean_and_scatter(blocks, c: int) -> tuple[int, np.ndarray, np.ndarray]:
    """The count, the mean and the centred scatter matrix of the pixels of
    ``blocks`` over ``c`` channels.  Each block's own mean and centred
    scatter are merged into the running ones by the pairwise update of
    Chan, Golub & LeVeque (1979), so no sum of squares far from the mean
    cancels.  The blocks are centred in place."""
    count, mean, scatter = 0, np.zeros(c), np.zeros((c, c))
    for _, _, block in blocks:
        size = block.shape[1]
        block_mean = block.mean(axis=1)
        centred = np.subtract(block, block_mean[:, None], out=block)
        delta = block_mean - mean
        count += size
        mean += delta * (size / count)
        scatter += centred @ centred.T
        scatter += np.outer(delta, delta) * ((count - size) * size / count)
    return count, mean, scatter


def _fit(blocks, c: int, keep: int) -> tuple[np.ndarray, np.ndarray]:
    """The mean of the pixels of ``blocks`` over ``c`` channels and their
    top principal directions, as the columns of a (c, at most ``keep``)
    basis, sign-fixed so each column's largest-magnitude loading is
    positive.  Directions whose eigenvalue is at most 1e-12 of the total
    variance are dropped.  The basis is empty when the pixels have no
    variance: a total of at most 1e-24 of the mean's squared norm, as
    rounding the mean leaves of a constant, convolved or not."""
    count, mean, scatter = _mean_and_scatter(blocks, c)
    evals, evecs = np.linalg.eigh(scatter / (count - 1))
    order = np.argsort(evals, kind="stable")[::-1]
    evals = np.maximum(evals[order], 0.0)
    evecs = evecs[:, order]
    total = evals.sum()
    kept = 0 if total <= 1e-24 * (mean @ mean) else np.count_nonzero(evals > 1e-12 * total)
    basis = evecs[:, : min(keep, kept)].copy()
    for j in range(basis.shape[1]):
        pivot = int(np.argmax(np.abs(basis[:, j])))
        if basis[pivot, j] < 0:
            basis[:, j] = -basis[:, j]
    return mean, basis


def pca_reduce(f: Raster, keep: int, kernels: KernelSet | None = None) -> Raster:
    """Project pixels onto the top principal directions of their channels.

    With ``kernels``, the channels are those of ``conv_layer(f, kernels)``,
    which is never built, and the result has the bits of ``pca_reduce(
    conv_layer(f, kernels), keep)``.

    Pixels are the samples; channels the variables.  Components come out
    in descending explained-variance order, each sign-fixed so its
    largest-magnitude loading is positive.  Directions whose eigenvalue
    falls below 1e-12 of the total variance are dropped rather than
    padded, so the output may have fewer than ``keep`` channels; an input
    without variance, by :func:`_fit`'s one rule, is refused.

    The channels are read twice (convolved again on each read when
    ``kernels`` is given).  The first read fits the mean and covariance,
    merged block by block, on the row stripes of :func:`_fit_stripes`,
    each one block: at 128², 16 stripes of 2 rows about 8 rows apart; at
    256², 16 single rows about 17 apart; at 1024², 16 single rows about
    68 apart.  An image of at most ``_FIT_PIXELS`` pixels, or one whose
    stripes would cover every row, is read whole.  If the stripes have
    no variance, the fit reads every block instead, before the input is
    refused.  The second read centres each row block of
    :func:`conv_layer` and projects it into the output.  Beyond the
    output, only one block's scratch is allocated.
    """
    check("keep", keep, POSITIVE_INT)
    n = f.height * f.width
    c = f.channels if kernels is None else kernels.kernels.shape[0]
    if n <= c:
        raise ParameterError(f"need more pixels ({n}) than channels ({c}) for PCA")

    def blocks(bounds):
        return _raster_blocks(f, bounds) if kernels is None else _conv_blocks(f, kernels, bounds)

    bounds = _row_blocks(f.height, f.width)
    stripes = _fit_stripes(f.height, f.width)
    mean, basis = _fit(blocks(stripes or bounds), c, keep)
    if stripes and basis.shape[1] == 0:
        # The stripes are constant; the variance, if any, lies between them.
        mean, basis = _fit(blocks(bounds), c, keep)
    if basis.shape[1] == 0:
        raise ParameterError("input has no variance; nothing to retain")
    out = np.empty((n, basis.shape[1]))
    w = f.width
    for top, bottom, block in blocks(bounds):
        centred = np.subtract(block, mean[:, None], out=block)
        np.matmul(centred.T, basis, out=out[top * w : bottom * w])
    return Raster(out.reshape(f.height, f.width, basis.shape[1]))


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
    """Run ``cfg.depth`` patch-convolution layers over ``channels`` and
    return the feature raster: their features, then the z-scored inputs.

    Layer 1 convolves the raw ``channels`` averaged over the kernel
    footprint, which lifts the kernels' signal-to-speckle ratio at their
    own scale, and z-scored, so background variance cannot drown the
    change evidence; every later layer convolves the previous layer's
    output reduced to 3 principal channels.  These reductions are
    z-scored and written in layer order, as they come, into one
    C-contiguous array that the z-scored ``channels`` end; each layer's
    convolution streams through its PCA (:func:`pca_reduce` with
    ``kernels``).  Kernel selection at layer d uses the child seed
    ``(seed, d)`` and reads ``kernel_mode``, ``kernels_per_layer`` and
    ``kernel_size`` from ``cfg``; :func:`check_shape` runs first.  No
    layer follows an all-zero input, such as a constant image's.
    """
    check_shape(cfg, channels.height, channels.width)
    k = cfg.kernel_size
    current = Raster(zscore_channels(box_mean(channels.data, k)))
    out = np.empty((channels.height, channels.width, 3 * cfg.depth + channels.channels))
    used = 0
    for d in range(1, cfg.depth + 1):
        if not current.data.any():
            break  # a flat input: every layer would be refused as without variance
        kernels = select_kernels(
            current, cfg.kernel_mode, cfg.kernels_per_layer, k, derive_seed(seed, d)
        )
        current = pca_reduce(current, 3, kernels)
        out[:, :, used : used + current.channels] = zscore_channels(current.data)
        used += current.channels
    out[:, :, used : used + channels.channels] = zscore_channels(channels.data)
    return Raster(np.ascontiguousarray(out[:, :, : used + channels.channels]))
