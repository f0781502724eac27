import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage

from sarchange import patch_features
from sarchange.config import PipelineConfig
from sarchange.difference import zscore_channels
from sarchange.errors import ParameterError, ShapeError
from sarchange.patch_features import (
    _FIT_PIXELS,
    _POOL_SHARE,
    _TILE_PIXELS,
    KernelSet,
    conv_layer,
    pca_reduce,
    select_kernels,
    stack_features,
)
from sarchange.raster import Raster
from sarchange.seeds import derive_seed


def test_distinctive_centres_of_one_channel_ignore_its_sign():
    """One channel is ranked by its magnitude as many are, so a layer
    whose PCA keeps one direction draws the same distinctive centres
    whichever sign that direction was fixed to."""
    x = np.random.default_rng(18).standard_normal((16, 16, 1))
    a = select_kernels(Raster(x), "distinctive", 10, 3, seed=3)
    b = select_kernels(Raster(-x), "distinctive", 10, 3, seed=3)
    np.testing.assert_array_equal(a.centers, b.centers)


def reference_extract_patch(f, center, k):
    """The k-by-k window around ``center``, indices reflected edge-inclusively."""

    def reflect(idx, size):
        period = 2 * size
        idx = np.mod(idx, period)
        return np.where(idx < size, idx, period - 1 - idx)

    half = k // 2
    rows = reflect(center[0] + np.arange(-half, half + 1), f.height)
    cols = reflect(center[1] + np.arange(-half, half + 1), f.width)
    return f.data[np.ix_(rows, cols)]


def edge_and_corner_centres(h, w):
    """Every pixel on the image's border, corners included."""
    return [(r, c) for r in range(h) for c in range(w) if r in (0, h - 1) or c in (0, w - 1)]


@pytest.mark.parametrize("mode", ["distinctive", "random"])
@pytest.mark.parametrize("channels", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 3, 5, 7])
def test_select_kernels_are_reference_patches_over_their_norm(mode, channels, k):
    for seed in range(4):
        rng = np.random.default_rng([seed, channels, k])
        h, w = int(rng.integers(k, 12)), int(rng.integers(k, 12))
        img = Raster(rng.random((h, w, channels)))
        m = int(rng.integers(1, h * w + 1)) if mode == "random" else min(h * w, 10)
        ks = select_kernels(img, mode, m, k, seed=seed)
        for kernel, (r, c) in zip(ks.kernels, ks.centers):
            patch = reference_extract_patch(img, (int(r), int(c)), k)
            np.testing.assert_array_equal(kernel, patch / np.sqrt((patch ** 2).sum()))


def reference_windows(data, k):
    """The earlier pixel-major window helper, kept verbatim as the reference:
    a (height, width, channels, k, k) view over the padded input."""
    half = k // 2
    padded = np.pad(data, ((half, half), (half, half), (0, 0)), mode="symmetric")
    return sliding_window_view(padded, (k, k), axis=(0, 1))


@pytest.mark.parametrize("mode", ["distinctive", "random"])
@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_select_kernels_have_the_bits_of_pixel_major_windows(mode, channels, k):
    rng = np.random.default_rng([channels, k, 7])
    img = Raster(rng.standard_normal((13, 17, channels)))
    ks = select_kernels(img, mode, 30, k, seed=k)
    patches = np.ascontiguousarray(
        reference_windows(img.data, k)[ks.centers[:, 0], ks.centers[:, 1]].transpose(0, 2, 3, 1)
    )
    norm = np.sqrt((patches ** 2).sum(axis=(1, 2, 3)))[:, None, None, None]
    assert ks.kernels.tobytes() == (patches / norm).tobytes()


@pytest.mark.parametrize("k", [1, 3, 5, 7])
def test_select_kernels_cut_border_centres_like_the_reference(k):
    rng = np.random.default_rng(k)
    h, w = k + 2, k + 3
    img = Raster(rng.random((h, w, 2)))
    border = edge_and_corner_centres(h, w)
    # Border pixels outnumber the share, so the pool is the top m: plant
    # them as the maxima so each one becomes a kernel.
    data = img.data.copy()
    for r, c in border:
        data[r, c] += 10.0
    img = Raster(data)
    ks = select_kernels(img, "distinctive", len(border), k, seed=0)
    assert ks.fallback
    assert sorted(map(tuple, ks.centers.tolist())) == border
    for kernel, (r, c) in zip(ks.kernels, ks.centers):
        patch = reference_extract_patch(img, (int(r), int(c)), k)
        np.testing.assert_array_equal(kernel, patch / np.sqrt((patch ** 2).sum()))


def test_select_kernels_all_zero_patch_stays_zero():
    values = np.zeros((7, 7))
    values[0, 0] = 1.0
    ks = select_kernels(Raster.from_array(values), "random", 40, 3, seed=0)
    for kernel, (r, c) in zip(ks.kernels, ks.centers):
        patch = reference_extract_patch(Raster.from_array(values), (int(r), int(c)), 3)
        if not patch.any():
            np.testing.assert_array_equal(kernel, 0.0)
        else:
            np.testing.assert_array_equal(kernel, patch / np.sqrt((patch ** 2).sum()))
    assert any(not kernel.any() for kernel in ks.kernels)


def test_select_kernels_forced_set_when_pool_equals_m():
    # 64 * 1.5% is under one pixel, so the pool is the top 3, whatever the seed.
    values = np.zeros((8, 8))
    chosen = [(1, 2), (4, 4), (6, 1)]
    for r, c in chosen:
        values[r, c] = 1.0
    img = Raster.from_array(values)
    for seed in (0, 1, 99):
        ks = select_kernels(img, "distinctive", 3, 3, seed=seed)
        assert ks.fallback
        assert sorted(map(tuple, ks.centers.tolist())) == sorted(chosen)


def test_select_kernels_topm_fallback():
    rng = np.random.default_rng(5)
    values = rng.uniform(0.0, 0.5, size=(8, 8))
    values[0, 0], values[3, 3], values[5, 6] = 2.0, 1.9, 1.8  # a known top 3
    img = Raster.from_array(values)
    ks = select_kernels(img, "distinctive", 3, 3, seed=7)
    assert ks.fallback
    assert sorted(map(tuple, ks.centers.tolist())) == [(0, 0), (3, 3), (5, 6)]


def test_select_kernels_draw_from_the_share_when_it_exceeds_m():
    # 40 * 40 * 1.5% = 24 planted maxima form the pool; 5 centres come from it.
    rng = np.random.default_rng(8)
    values = rng.uniform(0.0, 0.5, size=(40, 40))
    planted = rng.choice(values.size, size=24, replace=False)
    values.flat[planted] = rng.uniform(1.0, 2.0, size=24)
    img = Raster.from_array(values)
    drawn = set()
    for seed in range(8):
        ks = select_kernels(img, "distinctive", 5, 3, seed=seed)
        assert not ks.fallback
        flat = ks.centers[:, 0] * 40 + ks.centers[:, 1]
        assert set(flat.tolist()) <= set(planted.tolist())
        drawn |= set(flat.tolist())
    assert len(drawn) > 5  # the draw spreads over the pool, not its top 5


def test_select_kernels_deterministic_and_seed_sensitive():
    rng = np.random.default_rng(6)
    img = Raster.from_array(rng.random((64, 64)))
    a = select_kernels(img, "random", 10, 5, seed=3)
    b = select_kernels(img, "random", 10, 5, seed=3)
    c = select_kernels(img, "random", 10, 5, seed=4)
    np.testing.assert_array_equal(a.centers, b.centers)
    np.testing.assert_array_equal(a.kernels, b.kernels)
    assert sorted(map(tuple, a.centers.tolist())) != sorted(map(tuple, c.centers.tolist()))


def test_select_kernels_distinctive_centres_are_in_the_top_share():
    rng = np.random.default_rng(9)
    img = Raster.from_array(rng.standard_normal((32, 32)))
    ks = select_kernels(img, "distinctive", 15, 3, seed=1)
    assert not ks.fallback  # 1024 * 1.5% rounds up to 16 pixels
    top = np.argsort(-np.abs(img.band(0)), axis=None)[:16]
    assert set((ks.centers[:, 0] * 32 + ks.centers[:, 1]).tolist()) <= set(top.tolist())


@given(
    shape=st.tuples(st.integers(1, 24), st.integers(1, 24), st.integers(1, 3)),
    levels=st.integers(1, 6),
    m_share=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    data_seed=st.integers(0, 2**32 - 1),
)
def test_distinctive_centres_are_distinct_seeded_and_in_the_top_share(
    shape, levels, m_share, seed, data_seed
):
    # Few levels make ties at the cut common; tied pixels all join the pool.
    data = np.random.default_rng(data_seed).integers(-levels, levels + 1, size=shape) * 1.0
    img = Raster(data)
    n = shape[0] * shape[1]
    m = max(1, round(m_share * n))
    ks = select_kernels(img, "distinctive", m, 1, seed=seed)
    again = select_kernels(img, "distinctive", m, 1, seed=seed)
    np.testing.assert_array_equal(ks.centers, again.centers)
    flat = ks.centers[:, 0] * shape[1] + ks.centers[:, 1]
    assert np.unique(flat).size == m
    size = max(m, int(np.ceil(_POOL_SHARE * n)))
    activation = (data ** 2).sum(axis=2).ravel()
    cut = np.sort(activation)[::-1][size - 1]
    assert (activation[flat] >= cut).all()
    assert ks.fallback == (size == m)


def test_a_few_outliers_do_not_shrink_the_pool():
    """Five huge pixels in a 64² raster: the pool still holds the top
    1.5%, 62 pixels, so 30 centres are drawn from it, not forced."""
    rng = np.random.default_rng(4)
    values = rng.random((64, 64))
    outliers = rng.choice(values.size, size=5, replace=False)
    values.flat[outliers] = 1e6
    ks = select_kernels(Raster.from_array(values), "distinctive", 30, 3, seed=2)
    assert not ks.fallback
    flat = ks.centers[:, 0] * 64 + ks.centers[:, 1]
    top = np.argsort(-values, axis=None)[:62]
    assert set(flat.tolist()) <= set(top.tolist())


def test_select_kernels_rejects_more_centres_than_pixels():
    img = Raster.from_array(np.random.default_rng(0).random((3, 3)))
    with pytest.raises(ParameterError):
        select_kernels(img, "random", 10, 3, seed=0)


def test_conv_layer_delta_kernel_is_identity():
    rng = np.random.default_rng(2)
    values = rng.random((6, 6))
    delta = np.zeros((1, 3, 3, 1))
    delta[0, 1, 1, 0] = 1.0
    ks = KernelSet(kernels=delta, centers=np.array([[0, 0]]), mode="random")
    out = conv_layer(Raster.from_array(values), ks)
    np.testing.assert_allclose(out.band(0), values, atol=1e-12)


def test_conv_layer_uniform_kernel_on_constant_image():
    uniform = np.full((1, 3, 3, 1), 1.0 / 9.0)
    ks = KernelSet(kernels=uniform, centers=np.array([[0, 0]]), mode="random")
    out = conv_layer(Raster.from_array(np.full((5, 5), 0.4)), ks)
    np.testing.assert_allclose(out.band(0), 0.4, atol=1e-12)


def naive_conv(values, kernels):
    """Direct quadruple-loop cross-correlation with symmetric reflection."""
    h, w, c = values.shape
    m, k, _, _ = kernels.shape
    half = k // 2
    out = np.zeros((h, w, m))

    def reflect(i, size):
        period = 2 * size
        i %= period
        return i if i < size else period - 1 - i

    for q in range(m):
        for i in range(h):
            for j in range(w):
                acc = 0.0
                for u in range(k):
                    for v in range(k):
                        ri = reflect(i + u - half, h)
                        rj = reflect(j + v - half, w)
                        for ch in range(c):
                            acc += values[ri, rj, ch] * kernels[q, u, v, ch]
                out[i, j, q] = max(acc, 0.0)
    return out


def test_conv_layer_matches_naive_oracle():
    rng = np.random.default_rng(3)
    # One kernel (m = 1) makes the product a GEMV, whose sums may round
    # differently from a GEMM's: only the tolerance holds for it.
    for (h, w, c), m, k in [((6, 6, 1), 2, 3), ((6, 6, 1), 1, 3), ((9, 7, 3), 1, 5),
                            ((1, 40, 2), 1, 1), ((40, 1, 3), 1, 1)]:
        values = rng.standard_normal((h, w, c))
        kernels = rng.standard_normal((m, k, k, c))
        ks = KernelSet(kernels=kernels, centers=np.zeros((m, 2), dtype=int), mode="random")
        out = conv_layer(Raster(values), ks)
        np.testing.assert_allclose(out.data, naive_conv(values, kernels), atol=1e-10)


def one_shot_conv(values, kernels):
    """The untiled convolution: one im2col matrix over every pixel, one GEMM."""
    h, w, c = values.shape
    m, k = kernels.shape[:2]
    half = k // 2
    padded = np.pad(values, ((half, half), (half, half), (0, 0)), mode="symmetric")
    cols = sliding_window_view(padded, (k, k), axis=(0, 1)).reshape(h * w, c * k * k)
    kmat = kernels.transpose(0, 3, 1, 2).reshape(m, c * k * k)
    return np.maximum(cols @ kmat.T, 0.0).reshape(h, w, m)


@pytest.mark.parametrize("h, w, c, k", [
    (131, 64, 3, 5),   # five blocks, of 26 rows and one of 27
    (131, 64, 1, 1),
    (3, 4500, 1, 3),   # rows wider than the tile: one row per block; k = the extent
    (3, 4500, 3, 1),
    (1, 5000, 3, 1),   # a single row
    (9, 600, 3, 9),    # three blocks; k = the extent
    (9, 600, 1, 9),
    (4097, 1, 3, 1),   # a one-pixel-wide column of three blocks
])
def test_conv_layer_tiles_equal_the_one_shot_product_bit_for_bit(h, w, c, k):
    """Row tiling and the kernels-by-pixels product change no bit of a layer
    of two or more kernels, the default 30 among them, on shapes that put
    block edges between, inside and at the end of rows."""
    assert h * w > _TILE_PIXELS
    rng = np.random.default_rng(h * w + c + k)
    values = rng.standard_normal((h, w, c))
    for m in (2, 3, PipelineConfig.kernels_per_layer):
        kernels = rng.standard_normal((m, k, k, c))
        ks = KernelSet(kernels=kernels, centers=np.zeros((m, 2), dtype=int), mode="random")
        out = conv_layer(Raster(values), ks)
        assert out.data.tobytes() == one_shot_conv(values, kernels).tobytes(), m


def test_conv_layer_rejects_channel_mismatch():
    ks = KernelSet(
        kernels=np.zeros((1, 3, 3, 2)), centers=np.zeros((1, 2), dtype=int),
        mode="random",
    )
    with pytest.raises(ShapeError):
        conv_layer(Raster.from_array(np.zeros((4, 4))), ks)
    with pytest.raises(ShapeError):
        pca_reduce(Raster.from_array(np.zeros((4, 4))), 3, ks)


def exact_covariance_data(variances, n=400, seed=0):
    """Samples whose sample covariance (ddof=1) is exactly diag(variances)."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, len(variances)))
    g -= g.mean(axis=0)
    q, _ = np.linalg.qr(g)
    return q * np.sqrt((n - 1) * np.asarray(variances))


def test_pca_reduce_recovers_known_spectrum():
    x = exact_covariance_data([4.0, 1.0, 0.25])
    out = pca_reduce(Raster(x.reshape(20, 20, 3)), keep=3)
    flat = out.data.reshape(-1, 3)
    np.testing.assert_allclose(flat.var(axis=0, ddof=1), [4.0, 1.0, 0.25], atol=1e-8)
    # components align with the original axes, up to the fixed sign
    for j in range(3):
        ratio = flat[:, j] / x[:, j]
        np.testing.assert_allclose(np.abs(ratio), 1.0, atol=1e-8)


def test_pca_reduce_full_keep_preserves_total_variance():
    rng = np.random.default_rng(4)
    values = rng.standard_normal((10, 10, 4)) @ rng.standard_normal((4, 4))
    out = pca_reduce(Raster(values), keep=4)
    assert out.channels == 4
    total_in = values.reshape(-1, 4).var(axis=0, ddof=1).sum()
    total_out = out.data.reshape(-1, 4).var(axis=0, ddof=1).sum()
    assert total_out == pytest.approx(total_in, rel=1e-8)


def test_pca_reduce_drops_constant_channel():
    rng = np.random.default_rng(5)
    values = rng.standard_normal((8, 8, 3))
    values = np.concatenate([values, np.full((8, 8, 1), 2.5)], axis=2)
    out = pca_reduce(Raster(values), keep=4)
    assert out.channels == 3  # the flat direction is never fabricated


def test_pca_reduce_sign_fix_is_deterministic():
    rng = np.random.default_rng(6)
    values = rng.standard_normal((9, 9, 3))
    a = pca_reduce(Raster(values), keep=2)
    b = pca_reduce(Raster(values.copy()), keep=2)
    np.testing.assert_array_equal(a.data, b.data)
    for j in range(a.channels):
        col = a.data.reshape(-1, a.channels)[:, j]
        assert col.std() > 0


def reference_pca_reduce(f, keep):
    """The earlier one-shot body, kept verbatim as the reference: it centres
    a copy of the whole input and takes the covariance in one product."""
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


@pytest.mark.parametrize("h, w", [
    (37, 29),                     # fewer pixels than a tile
    (64, _TILE_PIXELS // 64),     # exactly one tile
    (3, (2 * _TILE_PIXELS + 1) // 3),  # two tiles and one pixel
])
@pytest.mark.parametrize("case", ["keep < c", "constant channel", "keep > rank", "offset"])
def test_pca_reduce_tiles_match_the_one_shot_reference(h, w, case):
    """Merging the covariance block by block moves scores by rounding only:
    the same channels, the same component signs, scores within 1e-12 of
    their largest magnitude.  The offset case adds 1e3 to every channel,
    so a covariance taken from uncentred sums would cancel most of its
    digits."""
    rng = np.random.default_rng([h, w])
    n = h * w
    if case == "keep > rank":  # rank 2 in 5 channels; keep asks for all 5
        values, keep, channels = rng.standard_normal((n, 2)) @ rng.standard_normal((2, 5)), 5, 2
    else:  # conv-layer-like: 12 rectified mixtures
        values = np.maximum(rng.standard_normal((n, 12)) @ rng.standard_normal((12, 12)), 0.0)
        keep, channels = 3, 3
        if case == "constant channel":
            values = np.concatenate([values[:, :2], np.full((n, 1), 2.5)], axis=1)
            keep, channels = 3, 2
        if case == "offset":
            values += 1e3
    f = Raster(values.reshape(h, w, -1))
    out, ref = pca_reduce(f, keep).data, reference_pca_reduce(f, keep).data
    assert out.shape == ref.shape == (h, w, channels)
    out, ref = out.reshape(n, channels), ref.reshape(n, channels)
    top = np.argmax(np.abs(ref), axis=0)
    assert np.array_equal(np.sign(out[top, range(channels)]), np.sign(ref[top, range(channels)]))
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("h, w", [
    (37, 29),                  # fewer pixels than a block, 1073: not a multiple of 8
    (64, _TILE_PIXELS // 64),  # exactly one block
    (131, 64),                 # five blocks, of 26 rows and one of 27
    (13, 331),                 # blocks of 1324, 1324 and 1655 pixels, none a multiple of 8
    (3, 4500),                 # rows wider than a block: one row per block
    (4097, 1),                 # a one-pixel-wide column of three blocks
    (160, 128),                # the covariance reads 16 stripes of 2 rows
    (200, 64),                 # 16 stripes of 4 rows, each 256 pixels
    (40, 300),                 # 16 stripes of one row wider than 256 pixels
])
@pytest.mark.parametrize("c, k", [(1, 3), (3, 1), (3, 5)])
def test_pca_reduce_of_kernels_has_the_bits_of_reducing_the_layer_output(h, w, c, k):
    """Streaming a layer through its PCA gives the bits of reducing the
    assembled layer: both read the same blocks of rows in the same
    (channels, pixels) layout, and fit on the same row stripes."""
    rng = np.random.default_rng([h, w, c, k])
    f = Raster(rng.standard_normal((h, w, c)))
    for m, keep in [(2, 3), (5, 3), (PipelineConfig.kernels_per_layer, 3),
                    (PipelineConfig.kernels_per_layer, 40)]:
        kernels = rng.standard_normal((m, k, k, c))
        ks = KernelSet(kernels=kernels, centers=np.zeros((m, 2), dtype=int), mode="random")
        streamed = pca_reduce(f, keep, ks)
        assembled = pca_reduce(conv_layer(f, ks), keep)
        assert streamed.data.shape == assembled.data.shape
        assert streamed.data.tobytes() == assembled.data.tobytes(), (m, keep)


def stripe_rows(h, w):
    """The rows the covariance of an h-by-w input is fitted on: 16 stripes
    of ceil(4096 / (16 w)) rows, the i-th from row (h - rows) * i // 15,
    or every row when the stripes would overlap or cover the input."""
    rows = -(-4096 // (16 * w))
    if 16 * rows >= h:
        return np.arange(h)
    return np.concatenate([np.arange(top, top + rows) for top in (h - rows) * np.arange(16) // 15])


def passes(monkeypatch, f, keep, ks=None):
    """The row bounds of each pass that ``pca_reduce(f, keep, ks)`` reads."""
    name = "_raster_blocks" if ks is None else "_conv_blocks"
    read, reads = getattr(patch_features, name), []

    def spy(*args):
        reads.append(list(args[-1]))
        return read(*args)

    monkeypatch.setattr(patch_features, name, spy)
    pca_reduce(f, keep, ks)
    return reads


@pytest.mark.parametrize("h, w, rows", [
    (128, 128, 2),
    (256, 256, 1),
    (1024, 64, 4),   # stripes of 4 rows, each 256 pixels
    (40, 300, 1),    # rows wider than 256 pixels: 16 single rows of 40
    (4097, 1, 256),  # a one-pixel-wide column just above _FIT_PIXELS
])
@pytest.mark.parametrize("conv", [False, True])
def test_pca_reduce_fits_on_16_stripes_from_the_first_row_to_the_last(monkeypatch, h, w, rows,
                                                                      conv):
    """Above ``_FIT_PIXELS`` pixels the fit reads 16 stripes of ``rows``
    whole rows, each of at least 256 pixels, which together hold at least
    ``_FIT_PIXELS`` pixels and less than one more row per stripe.  The
    first starts at row 0 and the last ends at the last row; the gaps
    between them differ by at most one row.  The projection then reads
    every row once, in row blocks."""
    rng = np.random.default_rng([h, w])
    f = Raster(rng.standard_normal((h, w, 2)))
    ks = None
    if conv:
        ks = KernelSet(kernels=rng.standard_normal((4, 1, 1, 2)),
                       centers=np.zeros((4, 2), dtype=int), mode="random")
    fit, projection = passes(monkeypatch, f, 2, ks)
    assert len(fit) == 16
    assert {bottom - top for top, bottom in fit} == {rows}
    assert rows * w >= 256
    assert _FIT_PIXELS <= 16 * rows * w < _FIT_PIXELS + 16 * w
    tops = np.array([top for top, _ in fit])
    assert (tops[0], fit[-1][1]) == (0, h)
    assert np.ptp(np.diff(tops)) <= 1 and np.diff(tops).min() >= rows
    assert np.array_equal(np.concatenate([np.arange(*b) for b in fit]), stripe_rows(h, w))
    assert np.array_equal(np.concatenate([np.arange(*b) for b in projection]), np.arange(h))


@pytest.mark.parametrize("h, w", [
    (64, 64),    # exactly _FIT_PIXELS
    (37, 29),
    (4096, 1),
    (15, 300),   # above _FIT_PIXELS, but 16 single rows would cover every row
    (3, 6000),   # rows wider than a block
])
def test_pca_reduce_reads_a_small_input_whole_to_fit(monkeypatch, h, w):
    """At or below ``_FIT_PIXELS`` pixels, or wherever 16 stripes would
    overlap or cover every row, the fit reads every row block, as the
    projection does, and nothing else is read."""
    f = Raster(np.random.default_rng([h, w]).standard_normal((h, w, 3)))
    fit, projection = passes(monkeypatch, f, 2)
    assert fit == projection
    assert np.array_equal(np.concatenate([np.arange(*b) for b in fit]), np.arange(h))
    assert np.array_equal(stripe_rows(h, w), np.arange(h))


def reference_sampled_pca(values, keep, rows):
    """Principal directions fitted on the pixels of ``rows`` of ``values``
    alone, in one shot, and the scores of every pixel on them."""
    h, w, c = values.shape
    sample = values[rows].reshape(-1, c)
    mean = sample.mean(axis=0)
    centred = sample - mean
    evals, evecs = np.linalg.eigh(centred.T @ centred / (len(sample) - 1))
    basis = evecs[:, np.argsort(evals, kind="stable")[::-1][:keep]]
    basis *= np.where(basis[np.argmax(np.abs(basis), axis=0), range(keep)] < 0, -1.0, 1.0)
    return ((values.reshape(-1, c) - mean) @ basis).reshape(h, w, keep)


@pytest.mark.parametrize("h, w", [
    (160, 128),   # 16 stripes of 2 rows
    (256, 256),   # 16 single rows
    (40, 300),    # 16 single rows wider than 256 pixels
    (20000, 1),   # a one-pixel-wide column: 16 stripes of 256 rows
])
@pytest.mark.parametrize("conv", [False, True])
def test_pca_reduce_above_the_budget_fits_on_the_stripes_only(h, w, conv):
    """Above ``_FIT_PIXELS`` pixels the mean and covariance come from the
    16 row stripes only, and every pixel is projected: the scores, and so
    the basis, match a one-shot reference fitted on exactly those rows,
    within 1e-12 of the largest score, and not one fitted on every row.
    The input's spread grows down the rows, so the two fits differ."""
    assert len(stripe_rows(h, w)) < h
    rng = np.random.default_rng([h, w, conv])
    grow = np.linspace(1.0, 4.0, h)[:, None, None]
    if conv:
        f = Raster(rng.standard_normal((h, w, 2)) * grow)
        m, k = 12, 3 if min(h, w) >= 3 else 1
        kernels = rng.standard_normal((m, k, k, 2))
        ks = KernelSet(kernels=kernels, centers=np.zeros((m, 2), dtype=int), mode="random")
        out, values = pca_reduce(f, 3, ks).data, one_shot_conv(f.data, kernels)
    else:
        mix = rng.standard_normal((12, 12))
        values = np.maximum(rng.standard_normal((h, w, 12)) * grow @ mix, 0.0) + 1e3
        out = pca_reduce(Raster(values), 3).data
    ref = reference_sampled_pca(values, 3, stripe_rows(h, w))
    atol = 1e-12 * np.abs(ref).max()
    np.testing.assert_allclose(out, ref, rtol=0, atol=atol)
    every_row = reference_sampled_pca(values, 3, np.arange(h))
    assert np.abs(out - every_row).max() > 1e3 * atol


@pytest.mark.parametrize("conv", [False, True])
def test_pca_reduce_reads_every_block_before_refusing_an_input_without_variance(conv):
    """An input whose variance lies only between the fit's stripes is
    reduced on a fit over every block, also when the stripes' convolved
    values vary by the rounding of their mean alone; one with no variance
    anywhere is still refused, also when its convolved values vary by
    that rounding alone, with the fit striped (160x128) or whole (40x40)."""
    h, w = 160, 128  # stripes of 2 rows; the 2nd and 3rd start at rows 10 and 21
    assert not np.isin(np.arange(12, 21), stripe_rows(h, w)).any()
    rng = np.random.default_rng(17)
    values = np.full((h, w, 2), 0.5)
    values[12:21] += rng.standard_normal((9, w, 2))  # rows 12-20 alone vary
    if conv:
        kernels = rng.standard_normal((6, 1, 1, 2))
        ks = KernelSet(kernels=kernels, centers=np.zeros((6, 2), dtype=int), mode="random")
        out = pca_reduce(Raster(values), 2, ks).data
        values = one_shot_conv(values, kernels)
    else:
        ks = None
        out = pca_reduce(Raster(values), 2).data
    ref = reference_sampled_pca(values, 2, np.arange(h))
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
    with pytest.raises(ParameterError, match="no variance"):
        pca_reduce(Raster(np.zeros((h, w, 2))), 2, ks)
    ones = KernelSet(kernels=rng.standard_normal((6, 1, 1, 2)),
                     centers=np.zeros((6, 2), dtype=int), mode="random")
    for shape in [(h, w, 2), (40, 40, 2)]:
        with pytest.raises(ParameterError, match="no variance"):
            pca_reduce(Raster(np.full(shape, 0.5)), 2, ones)


@pytest.mark.parametrize("keep", [2.5, True, "2", 0])
def test_pca_reduce_rejects_a_keep_that_is_not_a_positive_integer(keep):
    values = np.random.default_rng(12).standard_normal((6, 6, 3))
    with pytest.raises(ParameterError, match="keep must be an integer >= 1"):
        pca_reduce(Raster(values), keep)


def test_stack_features_single_layer_vector_len():
    rng = np.random.default_rng(7)
    img = Raster.from_array(rng.random((12, 12)))
    cfg = PipelineConfig(depth=1, kernels_per_layer=8, kernel_size=3)
    fs = stack_features(img, cfg, seed=11)
    assert fs.channels == 3 + 1


def test_stack_features_vector_len_arithmetic():
    rng = np.random.default_rng(8)
    img = Raster(rng.random((12, 12, 2)))
    cfg = PipelineConfig(depth=3, kernels_per_layer=8, kernel_size=3)
    fs = stack_features(img, cfg, seed=11)
    assert fs.channels == 3 * 3 + 2  # three per layer, then the two input channels
    assert (fs.height, fs.width) == (12, 12)


def test_stack_features_channels_are_zscored():
    rng = np.random.default_rng(9)
    img = Raster.from_array(rng.random((16, 16)))
    cfg = PipelineConfig(depth=2, kernels_per_layer=6, kernel_size=3)
    fs = stack_features(img, cfg, seed=2)
    assert fs.channels == 3 * 2 + 1
    flat = fs.data.reshape(-1, fs.channels)
    np.testing.assert_array_less(np.abs(flat.mean(axis=0)), 1e-9)
    np.testing.assert_array_less(np.abs(flat.std(axis=0) - 1.0), 1e-6)


def test_stack_features_matches_stepwise_composition():
    rng = np.random.default_rng(10)
    cfg = PipelineConfig(depth=2, kernels_per_layer=5, kernel_size=3,
                         kernel_mode="distinctive")
    seed = 21
    for channels in (1, 3):
        img = Raster(rng.random((8, 8, channels)))
        fs = stack_features(img, cfg, seed=seed)

        # manual composition out of the module's own primitives
        prepared = Raster(zscore_channels(
            ndimage.uniform_filter(img.data, size=(3, 3, 1), mode="reflect")
        ))
        k1 = select_kernels(prepared, cfg.kernel_mode, 5, 3, derive_seed(seed, 1))
        f1 = conv_layer(prepared, k1)
        r1 = pca_reduce(f1, 3)
        k2 = select_kernels(r1, cfg.kernel_mode, 5, 3, derive_seed(seed, 2))
        f2 = conv_layer(r1, k2)
        r2 = pca_reduce(f2, 3)
        expected = np.concatenate(
            [zscore_channels(r1.data), zscore_channels(r2.data), zscore_channels(img.data)],
            axis=2,
        )
        np.testing.assert_array_equal(fs.data, expected)


def test_a_stack_of_short_layers_is_contiguous_and_ends_with_the_zscored_inputs():
    """With fewer than 3 kernels a layer keeps fewer than 3 channels, so the
    raster is cut to the channels written: it is still C-contiguous, and the
    z-scored input channels come right after the 2 * depth layer channels."""
    img = Raster(np.random.default_rng(17).random((32, 32, 3)))
    cfg = PipelineConfig(depth=2, kernels_per_layer=2, kernel_size=3)
    fs = stack_features(img, cfg, seed=1)
    assert fs.channels == 2 * cfg.depth + 3
    assert fs.data.flags.c_contiguous
    np.testing.assert_array_equal(fs.data[:, :, 2 * cfg.depth :], zscore_channels(img.data))


def test_a_flat_input_adds_no_layer_though_its_pca_is_still_refused():
    """A constant image's prepared input is all zero, so the stack holds its
    z-scored inputs alone, zero as well; ``pca_reduce`` on its own still
    refuses the image, with the convolution or without."""
    img = Raster(np.full((32, 32, 3), 0.5))
    cfg = PipelineConfig(depth=2, kernels_per_layer=8, kernel_size=3)
    fs = stack_features(img, cfg, seed=1)
    assert fs.channels == 3 and fs.data.flags.c_contiguous and not fs.data.any()
    ks = select_kernels(img, "random", 8, 3, seed=1)
    for kernels in (None, ks):
        with pytest.raises(ParameterError, match="no variance"):
            pca_reduce(img, 3, kernels)


@pytest.mark.parametrize("h, w", [(40, 40), (160, 128)])  # the PCA fits on every block; on stripes
def test_the_feature_stack_leaves_its_input_unchanged(h, w):
    """Blocks are centred in place, so every entry point must read its input
    into copies: each leaves the input raster's bytes as they were."""
    f = Raster(np.random.default_rng([h, w]).standard_normal((h, w, 3)))
    before = f.data.tobytes()
    ks = select_kernels(f, "distinctive", 8, 3, seed=1)
    pca_reduce(f, 2)
    pca_reduce(f, 2, ks)
    conv_layer(f, ks)
    stack_features(f, PipelineConfig(depth=2, kernels_per_layer=8, kernel_size=3), seed=1)
    assert f.data.tobytes() == before


def test_stack_features_deterministic_per_seed():
    rng = np.random.default_rng(11)
    img = Raster.from_array(rng.random((10, 10)))
    cfg = PipelineConfig(depth=2, kernels_per_layer=4, kernel_size=3)
    a = stack_features(img, cfg, seed=5)
    b = stack_features(img, cfg, seed=5)
    np.testing.assert_array_equal(a.data, b.data)


def test_stack_features_memory_has_no_layer_output_term():
    """Peak traced memory of the default stack on a 256x256x3 input.

    With n pixels, m = 30 kernels of k = 5 over c = 3 channels and depth 4,
    the bound is 13.8 MB and has no n * m term:
    - the stack's output, n * (3 * depth + c) float64 (7.9 MB), allocated
      once: the layer channels and the z-scored input channels;
    - two (n, 3) float64 arrays (3.1 MB): a layer's input, which is the
      prepared input (the raw channels averaged and z-scored) at layer 1
      and the previous reduction later, and the reduction being projected;
    - one block of ``_TILE_PIXELS`` pixels: its im2col columns, c * k * k
      float64 each (1.2 MB), and its m kernel responses (0.5 MB);
    - 1 MB for the block's padded input rows (0.1 MB), the kernels and
      the per-channel statistics.
    The peak comes while a layer's PCA projects: everything above is alive
    at once.  One (n, m) float64 array (15.7 MB), such as an assembled
    layer output, breaks the bound (the stack that reduced the assembled
    output peaked at 25.6 MB), as do padded planes of the whole input
    (1.6 MB) and an im2col copy of the whole image (n * c * k * k float64,
    39 MB).
    """
    n, m, c, k, depth = 256 * 256, 30, 3, 5, 4
    cfg = PipelineConfig()
    assert (cfg.kernels_per_layer, cfg.kernel_size, cfg.depth) == (m, k, depth)
    img = Raster(np.random.default_rng(16).standard_normal((256, 256, c)))
    bound = 8 * (n * (3 * depth + c) + 2 * n * 3 + _TILE_PIXELS * (c * k * k + m)) + 2**20
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        stack_features(img, cfg, seed=1)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert peak < bound, (peak, bound)
