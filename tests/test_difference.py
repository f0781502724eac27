import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sarchange.difference import LOG_RATIO_EPS, _column_stats, log_ratio_di
from sarchange.errors import ShapeError
from sarchange.raster import Raster

images = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(2, 8), st.integers(2, 8)),
    elements=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)


def test_identical_inputs_give_all_zeros():
    img = Raster.from_array(np.random.default_rng(0).random((5, 5)) * 3)
    di = log_ratio_di(img, img)
    np.testing.assert_array_equal(di.band(0), np.zeros((5, 5)))


def test_single_log_ratio_of_one():
    # One pixel where ln((i2+eps)/(i1+eps)) is exactly 1; everything else 0.
    i1 = Raster.from_array(np.zeros((3, 3)))
    b = np.zeros((3, 3))
    b[1, 1] = math.e * LOG_RATIO_EPS - LOG_RATIO_EPS
    i2 = Raster.from_array(b)
    di = log_ratio_di(i1, i2)
    assert di.band(0)[1, 1] == pytest.approx(1.0)
    assert di.band(0).sum() == pytest.approx(1.0)


def test_matches_scalar_formula_per_pixel():
    rng = np.random.default_rng(3)
    a = rng.random((8, 8)) * 5
    b = rng.random((8, 8)) * 5
    di = log_ratio_di(Raster.from_array(a), Raster.from_array(b))
    raw = np.empty((8, 8))
    for i in range(8):
        for j in range(8):
            raw[i, j] = abs(
                math.log((b[i, j] + LOG_RATIO_EPS) / (a[i, j] + LOG_RATIO_EPS))
            )
    expected = (raw - raw.min()) / (raw.max() - raw.min())
    np.testing.assert_allclose(di.band(0), expected, atol=1e-12)


@given(images, images.map(np.asarray))
def test_symmetry_and_range(a, b):
    if a.shape != b.shape:
        b = np.resize(b, a.shape)
    d1 = log_ratio_di(Raster.from_array(a), Raster.from_array(b)).band(0)
    d2 = log_ratio_di(Raster.from_array(b), Raster.from_array(a)).band(0)
    np.testing.assert_allclose(d1, d2, atol=1e-12)
    assert d1.min() >= 0.0 and d1.max() <= 1.0
    pre = np.abs(np.log((b + LOG_RATIO_EPS) / (a + LOG_RATIO_EPS)))
    if pre.max() - pre.min() > 1e-300:
        assert d1.max() == pytest.approx(1.0)


def test_dimension_mismatch_raises():
    with pytest.raises(ShapeError):
        log_ratio_di(
            Raster.from_array(np.zeros((2, 2))), Raster.from_array(np.zeros((3, 2)))
        )


def _same_bits(got, expected):
    assert got.dtype == expected.dtype == np.float64 and got.shape == expected.shape
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


# Zeros of both signs and repeated values make constant and -0.0 columns likely.
_stat_values = st.sampled_from([0.0, -0.0, 1.0, -2.5]) | st.floats(-1e6, 1e6)


@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(1, 5)),
                  elements=_stat_values))
def test_column_stats_have_the_bits_of_numpy_mean_and_std(flat):
    mean, std = _column_stats(flat)
    _same_bits(mean, flat.mean(axis=0))
    _same_bits(std, flat.std(axis=0))


@pytest.mark.parametrize("shape", [(65536, 1), (65536, 2), (65536, 3), (1000, 7)])
def test_column_stats_have_the_bits_of_numpy_on_many_rows(shape):
    # numpy sums one column pairwise but several columns row by row.
    rng = np.random.default_rng(shape[1])
    flat = rng.normal(size=shape) * np.logspace(0, 6, shape[1]) + 3.0
    flat[:, -1] = -0.0 if shape[1] > 1 else flat[:, -1]
    before = flat.copy()
    mean, std = _column_stats(flat)
    _same_bits(mean, flat.mean(axis=0))
    _same_bits(std, flat.std(axis=0))
    np.testing.assert_array_equal(flat, before)


def test_column_stats_run_on_strided_views():
    data = np.random.default_rng(3).random((50, 40, 4))[:, ::3, 1:]
    flat = data.reshape(-1, 3)
    mean, std = _column_stats(flat)
    _same_bits(mean, flat.mean(axis=0))
    _same_bits(std, flat.std(axis=0))
