"""Compact homogeneous-region segmentation.

A small SLIC-style segmenter: cluster centres start on a regular grid,
pixels are assigned within a 2S-by-2S window around each centre using a
combined intensity + spatial distance, and centres are updated to the
mean of their members.  After a fixed number of sweeps each non-empty
centre's pixels form one region, connected or not; region ids are
renumbered to be contiguous.  The procedure is deterministic.

Each sweep assigns all pixels in a few whole-array passes, one grid row
of centres at a time.  A pixel goes to the centre j of least distance d
among the windows that hold it, and a tie in d goes to the lower j: the
least (d, j) in lexicographic order.  A pixel in no window goes to the
spatially nearest centre.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig, check
from .errors import ParameterError
from .raster import Raster

# Intensities live in [0, 1]; scaling them to a 0-100 range makes the
# conventional compactness ~10 balance intensity against spatial distance.
INTENSITY_SCALE = 100.0

N_SWEEPS = 10


@dataclass
class RegionMap:
    region_id: np.ndarray  # (height, width) int32, values in [0, region_count)
    region_count: int

    def __post_init__(self):
        ids = self.region_id = np.asarray(self.region_id, dtype=np.int32)
        if ids.size == 0 or ids.min() < 0 or ids.max() >= self.region_count:
            raise ParameterError("region ids out of range")
        if not np.bincount(ids.ravel(), minlength=self.region_count).all():
            raise ParameterError("region ids are not contiguous")

    @property
    def height(self) -> int:
        return self.region_id.shape[0]

    @property
    def width(self) -> int:
        return self.region_id.shape[1]

    def size_groups(self) -> list[np.ndarray]:
        """Flat pixel indices of the regions, grouped by pixel count.

        One ``(regions, count)`` array per distinct count, in increasing
        count; its rows are the regions of that count in region-id order,
        each row in increasing pixel index.
        """
        flat = self.region_id.ravel()
        sizes = np.bincount(flat)
        order = np.argsort(sizes[flat] * self.region_count + flat, kind="stable")
        pixels, regions = np.unique(sizes, return_counts=True)
        ends = np.cumsum(pixels * regions)
        return [order[end - n * r : end].reshape(r, n)
                for n, r, end in zip(pixels, regions, ends)]


def _grid_centres(h: int, w: int, n_regions: int) -> tuple[np.ndarray, np.ndarray]:
    """Centre rows and columns of a regular grid, each ``(n_rows, n_cols)``."""
    n_rows = max(1, min(h, round(np.sqrt(n_regions * h / w))))
    n_cols = max(1, min(w, round(n_regions / n_rows)))
    rows = (np.arange(n_rows) + 0.5) * h / n_rows - 0.5
    cols = (np.arange(n_cols) + 0.5) * w / n_cols - 0.5
    return np.meshgrid(rows, cols, indexing="ij")


def _relabel(ids: np.ndarray) -> RegionMap:
    rank = np.cumsum(np.bincount(ids.ravel()) > 0) - 1
    return RegionMap(region_id=rank[ids], region_count=int(rank[-1]) + 1)


def _assign(
    flat_colour: np.ndarray, shape: tuple[int, int], cen_r: np.ndarray,
    cen_c: np.ndarray, cen_colour: np.ndarray, step: float, spatial_w: float,
    block: int,
) -> np.ndarray:
    """One assignment step: each pixel's lexicographically least (d, j)
    over the centres j whose window holds it, or -1 if none has a finite d.

    Centres go ``block`` at a time in descending j.  All windows are
    padded to one (rows, cols) box whose padding gets d = NaN, and every
    pair's d is scattered into ``best`` with ``np.fmin.at``, which skips
    NaN.  The pairs that reach their pixel's best then scatter j with
    ``np.minimum.at``; each block's j are below every earlier block's, so
    a pixel a block reaches takes that block's least j.
    """
    h, w = shape
    n_cen = cen_r.size
    best = np.full(h * w, np.inf)
    ids = np.full(h * w, n_cen, dtype=np.int32)
    r0 = np.maximum(0, np.floor(cen_r - step).astype(np.intp))
    r1 = np.minimum(h, np.ceil(cen_r + step).astype(np.intp) + 1)
    c0 = np.maximum(0, np.floor(cen_c - step).astype(np.intp))
    c1 = np.minimum(w, np.ceil(cen_c + step).astype(np.intp) + 1)
    rr = r0[:, None] + np.arange((r1 - r0).max())  # (n_cen, rows)
    cc = c0[:, None] + np.arange((c1 - c0).max())  # (n_cen, cols)
    dr2 = np.where(rr < r1[:, None], (rr - cen_r[:, None]) ** 2, np.nan)
    dc2 = np.where(cc < c1[:, None], (cc - cen_c[:, None]) ** 2, np.nan)
    row_pix = np.minimum(rr, h - 1) * w
    col_pix = np.minimum(cc, w - 1)
    per_centre = rr.shape[1] * cc.shape[1]
    for first in reversed(range(0, n_cen, block)):
        b = slice(first, first + block)
        pix = row_pix[b, :, None] + col_pix[b, None, :]  # (nb, rows, cols)
        sq = np.take(flat_colour, pix, axis=0)  # (nb, rows, cols, c)
        sq -= cen_colour[b, None, None, :]
        np.square(sq, out=sq)
        # d = d_col + spatial_w * d_sp, each step rounded in that order
        d = dr2[b, :, None] + dc2[b, None, :]
        d *= spatial_w
        d += sq[..., 0] if sq.shape[3] == 1 else sq.sum(axis=3)
        d, pix = d.ravel(), pix.ravel()
        np.fmin.at(best, pix, d)
        won = np.flatnonzero(d == best[pix])
        np.minimum.at(ids, pix[won], (first + won // per_centre).astype(np.int32))
    ids[best == np.inf] = -1  # no candidate, or only infinite distances
    return ids


def segment_superpixels(
    img: Raster,
    n_regions: int | None = PipelineConfig.n_regions,
    compactness: float = PipelineConfig.compactness,
) -> RegionMap:
    """Partition ``img`` into roughly ``n_regions`` compact homogeneous regions.

    ``n_regions`` None asks for one region per 64 pixels (at least one).
    ``compactness`` (a finite number >= 0) trades intensity coherence
    against spatial regularity; larger values give squarer regions.
    Requesting at least as many regions as pixels yields the identity
    segmentation.
    """
    check("n_regions", n_regions)
    check("compactness", compactness)
    h, w = img.height, img.width
    n_pixels = h * w
    if n_regions is None:
        n_regions = max(1, n_pixels // 64)
    if n_regions >= n_pixels:
        return RegionMap(
            region_id=np.arange(n_pixels, dtype=np.int32).reshape(h, w),
            region_count=n_pixels,
        )

    colour = img.data * INTENSITY_SCALE  # (h, w, c)
    c = colour.shape[2]
    flat_colour = colour.reshape(n_pixels, c)
    step = np.sqrt(n_pixels / n_regions)
    grid_r, grid_c = _grid_centres(h, w, n_regions)
    cen_r, cen_c = grid_r.ravel(), grid_c.ravel()
    n_cen = cen_r.size
    cen_colour = colour[
        np.clip(np.round(cen_r).astype(int), 0, h - 1),
        np.clip(np.round(cen_c).astype(int), 0, w - 1),
    ]
    spatial_w = (compactness / step) ** 2

    pixel_r = np.repeat(np.arange(h, dtype=np.float64), w)
    pixel_c = np.tile(np.arange(w, dtype=np.float64), h)
    for _ in range(N_SWEEPS):
        flat = _assign(flat_colour, (h, w), cen_r, cen_c, cen_colour, step,
                       spatial_w, grid_r.shape[1])
        # Pixels outside every window (possible on extreme aspect ratios)
        # fall back to the nearest centre spatially.
        missing = flat < 0
        if missing.any():
            mr, mc = np.divmod(np.flatnonzero(missing), w)
            d = (mr[:, None] - cen_r[None, :]) ** 2 + (mc[:, None] - cen_c[None, :]) ** 2
            flat[missing] = np.argmin(d, axis=1)
        counts = np.bincount(flat, minlength=n_cen).astype(np.float64)
        occupied = counts > 0
        sum_r = np.bincount(flat, weights=pixel_r, minlength=n_cen)
        sum_c = np.bincount(flat, weights=pixel_c, minlength=n_cen)
        cen_r[occupied] = sum_r[occupied] / counts[occupied]
        cen_c[occupied] = sum_c[occupied] / counts[occupied]
        for ch in range(c):
            sum_col = np.bincount(flat, weights=flat_colour[:, ch], minlength=n_cen)
            cen_colour[occupied, ch] = sum_col[occupied] / counts[occupied]

    return _relabel(flat.reshape(h, w))
