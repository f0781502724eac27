import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import sarchange as sc
from sarchange.errors import ConstructionError, ParameterError, ShapeError
from sarchange.labels import CHANGED, UNCHANGED, UNLABELED, LabelField
from sarchange.preclassify import sample_training
from sarchange.propagation import (
    CleanConfig,
    TransitionMatrix,
    build_transition,
    clean_labels,
    majority_vote,
    propagate,
)
from sarchange.raster import Raster
from sarchange.superpixels import RegionMap, segment_superpixels


def single_region(values):
    """A 1-row image whose pixels all belong to one region."""
    values = np.asarray(values, dtype=float)
    img = Raster.from_array(values[np.newaxis, :])
    rm = RegionMap(
        region_id=np.zeros((1, values.size), dtype=np.int32), region_count=1
    )
    return img, rm


def anchors(labels):
    """(pixels, 2) one-hot anchor scores of a hard label array."""
    return LabelField(labels=np.asarray(labels, dtype=np.int8)).one_hot().reshape(-1, 2)


def test_weights_identical_pixels_are_all_ones():
    # All-ones affinities normalise to a uniform transition block.
    img, rm = single_region([0.4, 0.4, 0.4])
    tm = build_transition(img, rm)
    np.testing.assert_array_equal(tm.blocks[0], np.full((3, 3), 1 / 3))


def test_weights_analytic_kernel_value():
    # Pixels {0, 1, c} with c = (1 + sqrt(6)) / 2 give variance exactly 1/2,
    # so the (0, 1) pair has distance^2 equal to 2 sigma^2 and weight 1/e.
    # Column normalisation cancels in a ratio within one column, and the
    # self-affinity is 1, so T[0, 1] / T[1, 1] is the weight itself.
    c = (1 + math.sqrt(6)) / 2
    img, rm = single_region([0.0, 1.0, c])
    t = build_transition(img, rm).blocks[0]
    assert t[0, 1] / t[1, 1] == pytest.approx(math.exp(-1.0), abs=1e-12)
    assert t[1, 0] / t[0, 0] == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_weights_never_cross_regions():
    img = Raster.from_array(np.array([[0.1, 0.2, 0.8, 0.9]]))
    rm = RegionMap(
        region_id=np.array([[0, 0, 1, 1]], dtype=np.int32), region_count=2
    )
    tm = build_transition(img, rm)
    assert [b.shape for b in tm.blocks] == [(2, 2), (2, 2)]
    # anchors in one region never leak into the other
    out = propagate(tm, anchors([[CHANGED, CHANGED, UNLABELED, UNLABELED]]), alpha=0.7)
    np.testing.assert_array_equal(out[2:, :], 0.0)


def test_transition_uniform_for_identical_pair():
    img, rm = single_region([0.5, 0.5])
    tm = build_transition(img, rm)
    np.testing.assert_allclose(tm.blocks[0], [[0.5, 0.5], [0.5, 0.5]])


def test_transition_matches_hand_normalisation():
    values = np.array([0.1, 0.5, 0.6])
    tm = build_transition(*single_region(values))
    sigma2 = values.var()
    w = np.exp(-((values[:, None] - values[None, :]) ** 2) / (2 * sigma2))
    np.testing.assert_allclose(tm.blocks[0], w / w.sum(axis=0, keepdims=True),
                               atol=1e-15)


@given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=10**6))
def test_transition_columns_stochastic(n, seed):
    rng = np.random.default_rng(seed)
    img, rm = single_region(rng.random(n))
    tm = build_transition(img, rm)
    block = tm.blocks[0]
    assert block.min() >= 0.0 and block.max() <= 1.0
    np.testing.assert_allclose(block.sum(axis=0), 1.0, atol=1e-9)


def test_propagate_alpha_near_zero_returns_anchors():
    rng = np.random.default_rng(4)
    img, rm = single_region(rng.random(6))
    tm = build_transition(img, rm)
    y0 = anchors([[1, 0, 1, -1, 0, -1]])
    out = propagate(tm, y0, alpha=1e-12)
    np.testing.assert_allclose(out, y0, atol=1e-9)


def test_propagate_singleton_regions_fixpoint_is_anchor():
    img = Raster.from_array(np.array([[0.3, 0.7]]))
    rm = RegionMap(region_id=np.array([[0, 1]], dtype=np.int32), region_count=2)
    tm = build_transition(img, rm)
    y0 = anchors([[CHANGED, UNCHANGED]])
    out = propagate(tm, y0, alpha=0.7)
    np.testing.assert_allclose(out, y0, atol=1e-12)


def test_propagate_matches_closed_form_on_chain():
    rng = np.random.default_rng(8)
    img, rm = single_region(rng.random(3))
    tm = build_transition(img, rm)
    y0 = anchors([[CHANGED, UNLABELED, UNCHANGED]])
    alpha = 0.7
    out = propagate(tm, y0, alpha)
    t = tm.blocks[0]
    expected = np.linalg.solve(np.eye(3) - alpha * t, (1 - alpha) * y0)
    np.testing.assert_allclose(out, expected, atol=1e-12)
    # the fixpoint of the anchored iteration
    np.testing.assert_allclose(alpha * (t @ out) + (1 - alpha) * y0, out, atol=1e-12)


def test_propagate_stacked_columns_equal_separate_calls():
    rng = np.random.default_rng(21)
    img = Raster.from_array(rng.random((6, 8)))
    tm = build_transition(img, segment_superpixels(img, 5))
    y0 = rng.random((48, 7))
    stacked = propagate(tm, y0, alpha=0.7)
    for j in range(y0.shape[1]):
        single = propagate(tm, y0[:, j : j + 1], alpha=0.7)
        np.testing.assert_allclose(stacked[:, j : j + 1], single, rtol=0, atol=1e-14)


def test_propagate_rejects_mismatched_anchor_shape():
    tm = build_transition(*single_region([0.1, 0.9, 0.4]))
    for bad in (np.zeros((2, 2)), np.zeros(3), np.zeros((1, 3, 2))):
        with pytest.raises(ShapeError):
            propagate(tm, bad, alpha=0.7)


@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([0.3, 0.7, 0.9]),
)
def test_propagate_nonnegative_and_mass_conserving(n, seed, alpha):
    rng = np.random.default_rng(seed)
    img, rm = single_region(rng.random(n))
    tm = build_transition(img, rm)
    y0 = anchors(rng.integers(-1, 2, size=(1, n)))
    out = propagate(tm, y0, alpha)
    assert out.min() >= 0.0
    # column-stochastic propagation conserves per-channel total mass exactly
    np.testing.assert_allclose(out.sum(axis=0), y0.sum(axis=0), atol=1e-9)


def test_propagate_residual_shrinks_after_transient():
    rng = np.random.default_rng(12)
    img, rm = single_region(rng.random(8))
    tm = build_transition(img, rm)
    y0 = anchors(rng.integers(-1, 2, size=(1, 8)))
    t = tm.blocks[0]
    alpha = 0.7
    y = y0.copy()
    residuals = []
    for _ in range(40):
        y_next = alpha * (t @ y) + (1 - alpha) * y0
        residuals.append(np.abs(y_next - y).max())
        y = y_next
    for a, b in zip(residuals[3:], residuals[4:]):
        assert b <= a + 1e-15
    # and the iteration approaches the exact solve
    np.testing.assert_allclose(y, propagate(tm, y0, alpha), atol=1e-5)


def test_propagate_soft_in_unit_range_on_pipeline_instance():
    # Verified for anchored one-hot/zero initialisation at the operating alpha;
    # not a theorem for arbitrary anchor patterns.
    i1, i2, gt = sc.gen_pair(sc.default_scene(seed=2))
    di = sc.log_ratio_di(i1, i2)
    rm = segment_superpixels(di, 256)
    tm = build_transition(di, rm)
    init = sample_training(sc.preclassify_di(di, 7, seed=0), 0.12, seed=1)
    out = propagate(tm, init.one_hot().reshape(-1, 2), alpha=0.7)
    assert out.min() >= 0.0
    assert out.max() <= 1.0 + 1e-9


def test_propagate_rejects_alpha_outside_open_interval():
    img, rm = single_region([0.1, 0.9])
    tm = build_transition(img, rm)
    y0 = anchors([[0, 1]])
    for alpha in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(ParameterError):
            propagate(tm, y0, alpha)


def test_majority_vote_tie_goes_to_unchanged():
    votes = np.array([0, 1, 2, 3, 4])
    np.testing.assert_array_equal(
        majority_vote(votes, 4),
        np.array([UNCHANGED, UNCHANGED, UNCHANGED, CHANGED, CHANGED], dtype=np.int8),
    )


def test_clean_labels_identity_when_nothing_demoted():
    values = np.full((16, 16), 0.2)
    values[:, 8:] = 0.8
    labels = np.zeros((16, 16), dtype=np.int8)
    labels[:, 8:] = CHANGED
    cfg = CleanConfig(rounds=1, labeled_fraction=1.0, n_regions=4)
    cleaned = clean_labels(Raster.from_array(values), LabelField(labels=labels), cfg, seed=3)
    np.testing.assert_array_equal(cleaned.labels, labels)


def test_clean_labels_reduces_injected_noise():
    improved = 0
    for s in range(5):
        spec = sc.default_scene(seed=s)
        i1, i2, gt = sc.gen_pair(spec)
        di = sc.log_ratio_di(i1, i2)
        training = sample_training(gt, 0.12, seed=40 + s)
        noisy = sc.inject_label_noise(training, 0.10, seed=50 + s)
        mask = noisy.labels != UNLABELED
        before = (noisy.labels[mask] != gt.labels[mask]).mean()
        cleaned = clean_labels(di, noisy, CleanConfig(), seed=60 + s)
        after = (cleaned.labels[mask] != gt.labels[mask]).mean()
        improved += after < before
    assert improved >= 4


def test_clean_labels_never_touches_unlabeled_and_is_deterministic():
    i1, i2, gt = sc.gen_pair(sc.default_scene(seed=1))
    di = sc.log_ratio_di(i1, i2)
    training = sample_training(gt, 0.1, seed=3)
    a = clean_labels(di, training, CleanConfig(rounds=4), seed=9)
    b = clean_labels(di, training, CleanConfig(rounds=4), seed=9)
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(
        a.labels == UNLABELED, training.labels == UNLABELED
    )


def test_clean_labels_no_harm_with_aligned_regions():
    # Zero injected noise, regions aligned with the truth: cleaning never
    # disagrees with its input more than the input disagrees with the truth.
    for s in range(20):
        gt = sc.change_truth(sc.default_scene(seed=s))
        img = Raster.from_array(np.where(gt.labels == CHANGED, 0.8, 0.2))
        training = sample_training(gt, 0.12, seed=100 + s)
        cleaned = clean_labels(img, training, CleanConfig(), seed=200 + s)
        mask = training.labels != UNLABELED
        assert (cleaned.labels[mask] == training.labels[mask]).all()


def test_clean_labels_requires_two_labeled_pixels_per_class():
    labels = np.full((4, 4), UNLABELED, dtype=np.int8)
    labels[0, 0] = CHANGED
    labels[1, 1] = UNCHANGED
    labels[2, 2] = UNCHANGED
    with pytest.raises(ParameterError):
        clean_labels(
            Raster.from_array(np.random.default_rng(0).random((4, 4))),
            LabelField(labels=labels),
            CleanConfig(),
            seed=0,
        )


def test_transition_matrix_validates_on_construction():
    bad = np.array([[0.6, 0.3], [0.6, 0.7]])  # first column sums to 1.2
    with pytest.raises(ConstructionError):
        TransitionMatrix(shape=(1, 2), indices=[np.array([0, 1])], blocks=[bad])
