"""Compact, 4-connected homogeneous-region segmentation.

A small SLIC-style segmenter: cluster centres start on a regular grid,
pixels are assigned within a 2S-by-2S window around each centre using a
combined intensity + spatial distance, centres are updated to the mean
of their members, and after a fixed number of sweeps any disconnected
fragment is absorbed into the largest adjacent region so every region
ends up 4-connected.  The procedure is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import ParameterError
from .raster import Raster

# Intensities live in [0, 1]; scaling them to a 0-100 range makes the
# conventional compactness ~10 balance intensity against spatial distance.
INTENSITY_SCALE = 100.0

N_SWEEPS = 10

_CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


@dataclass
class RegionMap:
    region_id: np.ndarray  # (height, width) int32, values in [0, region_count)
    region_count: int

    def __post_init__(self):
        self.region_id = np.asarray(self.region_id, dtype=np.int32)
        present = np.unique(self.region_id)
        if present[0] < 0 or present[-1] >= self.region_count:
            raise ParameterError("region ids out of range")
        if present.size != self.region_count:
            raise ParameterError("region ids are not contiguous")

    @property
    def height(self) -> int:
        return self.region_id.shape[0]

    @property
    def width(self) -> int:
        return self.region_id.shape[1]

    def pixel_indices(self) -> list[np.ndarray]:
        """Flat pixel indices per region, in region-id order."""
        flat = self.region_id.ravel()
        order = np.argsort(flat, kind="stable")
        bounds = np.searchsorted(flat[order], np.arange(self.region_count + 1))
        return [order[bounds[i] : bounds[i + 1]] for i in range(self.region_count)]


def _grid_centres(h: int, w: int, n_regions: int) -> tuple[np.ndarray, np.ndarray]:
    n_rows = max(1, min(h, round(np.sqrt(n_regions * h / w))))
    n_cols = max(1, min(w, round(n_regions / n_rows)))
    rows = (np.arange(n_rows) + 0.5) * h / n_rows - 0.5
    cols = (np.arange(n_cols) + 0.5) * w / n_cols - 0.5
    rr, cc = np.meshgrid(rows, cols, indexing="ij")
    return rr.ravel(), cc.ravel()


def _absorb_orphans(ids: np.ndarray) -> np.ndarray:
    """Merge every non-largest 4-connected fragment into its largest neighbour.

    Merging a connected fragment into an adjacent region never splits any
    region, so one pass over the regions split on entry leaves none.  A
    region's bounding box holds every 4-path between its pixels, so
    labeling the region inside its box finds the split ones exactly.
    """
    ids = ids.copy()
    split = [rid for rid, box in enumerate(ndimage.find_objects(ids + 1))
             if box is not None and ndimage.label(ids[box] == rid, _CROSS)[1] > 1]
    for rid in split:
        comp, n_comp = ndimage.label(ids == rid, structure=_CROSS)
        sizes = np.bincount(comp.ravel())[1:]
        keep = int(np.argmax(sizes)) + 1
        for ci in range(1, n_comp + 1):
            if ci == keep:
                continue
            cmask = comp == ci
            grown = ndimage.binary_dilation(cmask, structure=_CROSS)
            neighbour_ids = np.unique(ids[grown & ~cmask])
            counts = np.bincount(ids.ravel())
            ids[cmask] = neighbour_ids[int(np.argmax(counts[neighbour_ids]))]
    return ids


def _relabel(ids: np.ndarray) -> RegionMap:
    present, rank = np.unique(ids, return_inverse=True)
    return RegionMap(region_id=rank.reshape(ids.shape), region_count=int(present.size))


def segment_superpixels(
    img: Raster, n_regions: int, compactness: float = 10.0
) -> RegionMap:
    """Partition ``img`` into roughly ``n_regions`` compact homogeneous regions.

    ``compactness`` trades intensity coherence against spatial regularity;
    larger values give squarer regions.  Requesting at least as many
    regions as pixels yields the identity segmentation.
    """
    if n_regions < 1:
        raise ParameterError(f"n_regions must be >= 1, got {n_regions}")
    h, w = img.height, img.width
    n_pixels = h * w
    if n_regions >= n_pixels:
        return RegionMap(
            region_id=np.arange(n_pixels, dtype=np.int32).reshape(h, w),
            region_count=n_pixels,
        )

    colour = img.data * INTENSITY_SCALE  # (h, w, c)
    c = colour.shape[2]
    step = np.sqrt(n_pixels / n_regions)
    cen_r, cen_c = _grid_centres(h, w, n_regions)
    n_cen = cen_r.size
    cen_colour = colour[
        np.clip(np.round(cen_r).astype(int), 0, h - 1),
        np.clip(np.round(cen_c).astype(int), 0, w - 1),
    ]
    spatial_w = (compactness / step) ** 2

    rows = np.arange(h)
    cols = np.arange(w)
    ids = np.zeros((h, w), dtype=np.int32)
    for _ in range(N_SWEEPS):
        best = np.full((h, w), np.inf)
        ids.fill(-1)
        for j in range(n_cen):
            r0 = max(0, int(np.floor(cen_r[j] - step)))
            r1 = min(h, int(np.ceil(cen_r[j] + step)) + 1)
            c0 = max(0, int(np.floor(cen_c[j] - step)))
            c1 = min(w, int(np.ceil(cen_c[j] + step)) + 1)
            window = colour[r0:r1, c0:c1]
            d_col = ((window - cen_colour[j]) ** 2).sum(axis=2)
            d_sp = ((rows[r0:r1, None] - cen_r[j]) ** 2
                    + (cols[None, c0:c1] - cen_c[j]) ** 2)
            d = d_col + spatial_w * d_sp
            view = best[r0:r1, c0:c1]
            better = d < view
            view[better] = d[better]
            ids[r0:r1, c0:c1][better] = j
        # Pixels outside every window (possible on extreme aspect ratios)
        # fall back to the nearest centre spatially.
        missing = ids < 0
        if missing.any():
            mr, mc = np.nonzero(missing)
            d = (mr[:, None] - cen_r[None, :]) ** 2 + (mc[:, None] - cen_c[None, :]) ** 2
            ids[mr, mc] = np.argmin(d, axis=1)
        flat = ids.ravel()
        counts = np.bincount(flat, minlength=n_cen).astype(np.float64)
        occupied = counts > 0
        sum_r = np.bincount(flat, weights=np.repeat(rows, w), minlength=n_cen)
        sum_c = np.bincount(flat, weights=np.tile(cols, h), minlength=n_cen)
        cen_r[occupied] = sum_r[occupied] / counts[occupied]
        cen_c[occupied] = sum_c[occupied] / counts[occupied]
        for ch in range(c):
            sum_col = np.bincount(flat, weights=colour[:, :, ch].ravel(), minlength=n_cen)
            cen_colour[occupied, ch] = sum_col[occupied] / counts[occupied]

    return _relabel(_absorb_orphans(ids))
