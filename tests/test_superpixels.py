import numpy as np
import pytest

from sarchange.errors import ParameterError
from sarchange import superpixels
from sarchange.raster import Raster
from sarchange.superpixels import INTENSITY_SCALE, RegionMap, segment_superpixels


def slic_objective(values, ids, n_regions, compactness):
    """Sum of combined squared distances to each region's centroid."""
    h, w = values.shape
    step = np.sqrt(h * w / n_regions)
    spatial_w = (compactness / step) ** 2
    rr, cc = np.mgrid[0:h, 0:w]
    total = 0.0
    for rid in np.unique(ids):
        m = ids == rid
        dv = INTENSITY_SCALE * (values[m] - values[m].mean())
        dr = rr[m] - rr[m].mean()
        dc = cc[m] - cc[m].mean()
        total += (dv**2).sum() + spatial_w * ((dr**2).sum() + (dc**2).sum())
    return total


def reference_grid_centres(h, w, n_regions):
    """The earlier grid helper, kept verbatim: raveled centre coordinates."""
    n_rows = max(1, min(h, round(np.sqrt(n_regions * h / w))))
    n_cols = max(1, min(w, round(n_regions / n_rows)))
    rows = (np.arange(n_rows) + 0.5) * h / n_rows - 0.5
    cols = (np.arange(n_cols) + 0.5) * w / n_cols - 0.5
    rr, cc = np.meshgrid(rows, cols, indexing="ij")
    return rr.ravel(), cc.ravel()


def reference_segment_superpixels(img, n_regions, compactness=10.0):
    """The earlier segmenter, kept verbatim as the reference: a Python loop
    over every centre's window per sweep, then a ``np.unique`` relabel."""
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
    cen_r, cen_c = reference_grid_centres(h, w, n_regions)
    n_cen = cen_r.size
    cen_colour = colour[
        np.clip(np.round(cen_r).astype(int), 0, h - 1),
        np.clip(np.round(cen_c).astype(int), 0, w - 1),
    ]
    spatial_w = (compactness / step) ** 2

    rows = np.arange(h)
    cols = np.arange(w)
    ids = np.zeros((h, w), dtype=np.int32)
    for _ in range(superpixels.N_SWEEPS):
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

    present, rank = np.unique(ids, return_inverse=True)
    return RegionMap(region_id=rank.reshape(ids.shape), region_count=int(present.size))


def random_segment_case(rng):
    """An image, region count and compactness: 1-3 channels; strips, thin
    bands with few regions (pixels outside every window) and small
    rectangles; quantised values (exact distance ties) or uniform ones."""
    shape = rng.integers(0, 4)
    if shape == 0:
        h, w = 1, int(rng.integers(2, 60))
    elif shape == 1:
        h, w = int(rng.integers(2, 60)), 1
    elif shape == 2:
        h, w = int(rng.integers(2, 5)), int(rng.integers(20, 80))
        if rng.random() < 0.5:
            h, w = w, h
    else:
        h, w = (int(v) for v in rng.integers(2, 24, size=2))
    c = int(rng.integers(1, 4))
    if rng.random() < 0.4:
        values = rng.integers(0, 3, size=(h, w, c)) / 2.0
    else:
        values = rng.random((h, w, c))
    n_regions = int(rng.integers(1, max(2, h * w // 3)))
    compactness = float(rng.choice([0.0, 0.5, 10.0, 40.0]))
    return Raster(values), n_regions, compactness


def test_segment_matches_per_centre_loop_reference(monkeypatch):
    real_assign = superpixels._assign
    fallback_sweeps = []

    def counting_assign(*args):
        ids = real_assign(*args)
        fallback_sweeps.append(bool((ids < 0).any()))
        return ids

    monkeypatch.setattr(superpixels, "_assign", counting_assign)
    rng = np.random.default_rng(808)
    n_fallback_cases = 0
    for _ in range(300):
        img, n_regions, compactness = random_segment_case(rng)
        fallback_sweeps.clear()
        expected = reference_segment_superpixels(img, n_regions, compactness)
        got = segment_superpixels(img, n_regions, compactness)
        np.testing.assert_array_equal(got.region_id, expected.region_id)
        assert got.region_count == expected.region_count
        n_fallback_cases += any(fallback_sweeps)
    assert n_fallback_cases > 20  # the nearest-centre fallback is exercised


@pytest.mark.parametrize("n_sweeps", [None, 1, 3])
def test_segment_assigns_once_per_sweep(monkeypatch, n_sweeps):
    if n_sweeps is not None:
        monkeypatch.setattr(superpixels, "N_SWEEPS", n_sweeps)
    real_assign = superpixels._assign
    calls = []

    def counting_assign(*args):
        calls.append(args)
        return real_assign(*args)

    monkeypatch.setattr(superpixels, "_assign", counting_assign)
    img = Raster.from_array(np.random.default_rng(4).random((24, 20)))
    rm = segment_superpixels(img, 12)
    assert len(calls) == superpixels.N_SWEEPS
    # the same map as the per-centre loop, which updates after every sweep
    expected = reference_segment_superpixels(img, 12)
    np.testing.assert_array_equal(rm.region_id, expected.region_id)


def test_constant_image_gives_near_equal_tiles():
    rm = segment_superpixels(Raster.from_array(np.full((8, 8), 0.4)), 4)
    assert rm.region_count == 4
    sizes = np.bincount(rm.region_id.ravel())
    assert sizes.min() == sizes.max() == 16
    # each tile contiguous and rectangular on a constant image
    for rid in range(4):
        rows, cols = np.nonzero(rm.region_id == rid)
        assert (rows.max() - rows.min() + 1) * (cols.max() - cols.min() + 1) == 16


def test_two_tone_image_matches_enumerated_optimum():
    values = np.full((8, 8), 0.2)
    values[:, 3:] = 0.8  # split after column 2, off the spatial midline
    rm = segment_superpixels(Raster.from_array(values), 2, compactness=10.0)
    assert rm.region_count == 2
    # regions coincide with the tones
    left = rm.region_id[:, :3]
    right = rm.region_id[:, 3:]
    assert len(np.unique(left)) == 1 and len(np.unique(right)) == 1
    assert left[0, 0] != right[0, 0]
    # exhaustive single-boundary placements: the tone split must be optimal
    ours = slic_objective(values, rm.region_id, 2, 10.0)
    best = np.inf
    for col in range(1, 8):
        ids = np.zeros((8, 8), dtype=int)
        ids[:, col:] = 1
        best = min(best, slic_objective(values, ids, 2, 10.0))
    for row in range(1, 8):
        ids = np.zeros((8, 8), dtype=int)
        ids[row:, :] = 1
        best = min(best, slic_objective(values, ids, 2, 10.0))
    assert ours == pytest.approx(best)


def test_one_region_per_pixel_is_identity():
    rm = segment_superpixels(Raster.from_array(np.random.default_rng(0).random((4, 5))), 20)
    assert rm.region_count == 20
    assert len(np.unique(rm.region_id)) == 20


def test_more_regions_than_pixels_degrades_to_identity():
    rm = segment_superpixels(Raster.from_array(np.zeros((3, 3))), 50)
    assert rm.region_count == 9


def test_region_ids_are_compact():
    rng = np.random.default_rng(5)
    img = Raster.from_array(rng.gamma(4.0, 0.25, size=(64, 64)))
    rm = segment_superpixels(img, 64)
    present = np.unique(rm.region_id)
    np.testing.assert_array_equal(present, np.arange(rm.region_count))


def test_region_count_within_30_percent():
    rng = np.random.default_rng(6)
    img = Raster.from_array(rng.gamma(4.0, 0.25, size=(64, 64)))
    for target in (32, 64, 128):
        rm = segment_superpixels(img, target)
        assert 0.7 * target <= rm.region_count <= 1.3 * target


def test_segmentation_is_deterministic():
    rng = np.random.default_rng(9)
    img = Raster.from_array(rng.random((32, 32)))
    a = segment_superpixels(img, 16)
    b = segment_superpixels(img, 16)
    np.testing.assert_array_equal(a.region_id, b.region_id)


@pytest.mark.parametrize("shape", [(40, 56), (7, 9)])
def test_default_region_count_is_one_per_64_pixels(shape):
    h, w = shape
    img = Raster.from_array(np.random.default_rng(3).random(shape))
    default = segment_superpixels(img)
    explicit = segment_superpixels(img, max(1, h * w // 64))
    assert default.region_count == explicit.region_count
    np.testing.assert_array_equal(default.region_id, explicit.region_id)


def test_invalid_region_count_rejected():
    with pytest.raises(ParameterError):
        segment_superpixels(Raster.from_array(np.zeros((4, 4))), 0)


def test_region_map_validates_ids():
    with pytest.raises(ParameterError, match="not contiguous"):
        RegionMap(region_id=np.array([[0, 2]]), region_count=3)  # id 1 missing
    with pytest.raises(ParameterError, match="out of range"):
        RegionMap(region_id=np.array([[0, -1]]), region_count=2)
    with pytest.raises(ParameterError, match="out of range"):
        RegionMap(region_id=np.array([[0, 2]]), region_count=2)
    with pytest.raises(ParameterError, match="out of range"):
        RegionMap(region_id=np.zeros((0, 3), dtype=np.int32), region_count=0)
    assert RegionMap(region_id=np.array([[1, 0], [1, 2]]), region_count=3).region_count == 3


def test_size_groups_hold_each_region_once_by_size_then_id():
    region_id = np.array([[2, 0, 0, 3],
                          [2, 1, 0, 3],
                          [4, 1, 1, 3]])
    groups = RegionMap(region_id=region_id, region_count=5).size_groups()
    # sizes: region 4 has 1 pixel, 2 has 2, regions 0, 1 and 3 have 3
    expected = [[[8]], [[0, 4]], [[1, 2, 6], [5, 9, 10], [3, 7, 11]]]
    assert [g.tolist() for g in groups] == expected


def test_size_groups_cover_a_segmentation_in_region_order():
    img = Raster.from_array(np.random.default_rng(6).random((40, 30)))
    rm = segment_superpixels(img, 20)
    groups = rm.size_groups()
    sizes = [g.shape[1] for g in groups]
    assert sizes == sorted(set(sizes))
    flat = rm.region_id.ravel()
    for g in groups:
        ids = flat[g]
        assert (ids == ids[:, :1]).all()  # one region per row
        assert (np.diff(ids[:, 0]) > 0).all()  # rows in region-id order
        assert (np.diff(g, axis=1) > 0).all()  # pixels in index order
    assert sum(g.size for g in groups) == flat.size


@pytest.mark.parametrize("compactness", [np.nan, np.inf, -np.inf, -1.0, -1e-9])
def test_non_finite_or_negative_compactness_rejected(compactness):
    img = Raster.from_array(np.random.default_rng(1).random((8, 8)))
    with pytest.raises(ParameterError, match="compactness"):
        segment_superpixels(img, 4, compactness)


def test_zero_compactness_is_a_pure_intensity_split():
    values = np.full((6, 6), 0.2)
    values[:, 3:] = 0.8
    rm = segment_superpixels(Raster.from_array(values), 2, compactness=0.0)
    assert rm.region_count == 2
    assert len(np.unique(rm.region_id[:, :3])) == len(np.unique(rm.region_id[:, 3:])) == 1
