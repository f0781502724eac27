import gc
import math
import warnings
import weakref
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import ndimage

import sarchange as sc
from sarchange import propagation
from sarchange.config import PipelineConfig
from sarchange.errors import ParameterError, ShapeError
from sarchange.labels import CHANGED, UNCHANGED, UNLABELED, LabelField
from sarchange.preclassify import sample_training
from sarchange.propagation import (
    build_transition,
    clean_labels,
    majority_vote,
    propagate,
)
from sarchange.raster import Raster
from sarchange.superpixels import RegionMap, segment_superpixels

from test_synth import inject_label_noise

# The earlier two-pass design, kept verbatim as the reference: every
# region's block is built and checked into one TransitionMatrix first, and
# only then are the regions solved.

_STOCHASTIC_TOL = 1e-9


@dataclass
class TransitionMatrix:
    """Block-diagonal column-stochastic transition probabilities."""

    shape: tuple[int, int]
    indices: list[np.ndarray]  # flat pixel indices per region
    blocks: list[np.ndarray]   # (n_r, n_r) per region

    def __post_init__(self):
        for block in self.blocks:
            if block.min() < -_STOCHASTIC_TOL or block.max() > 1.0 + _STOCHASTIC_TOL:
                raise ValueError("transition entries must lie in [0, 1]")
            col_sums = block.sum(axis=0)
            if np.abs(col_sums - 1.0).max() > _STOCHASTIC_TOL:
                raise ValueError("transition columns must sum to 1")


def pixel_indices(rm: RegionMap) -> list[np.ndarray]:
    """Flat pixel indices per region, in region-id order."""
    flat = rm.region_id.ravel()
    order = np.argsort(flat, kind="stable")
    bounds = np.searchsorted(flat[order], np.arange(rm.region_count + 1))
    return [order[bounds[i] : bounds[i + 1]] for i in range(rm.region_count)]


def reference_build_transition(img: Raster, rm: RegionMap) -> TransitionMatrix:
    if (img.height, img.width) != (rm.height, rm.width):
        raise ShapeError("image and region map dimensions disagree")
    values = img.data.reshape(-1, img.channels)
    indices = pixel_indices(rm)
    blocks: list[np.ndarray] = []
    for idx in indices:
        v = values[idx]
        centred = v - v.mean(axis=0)
        sigma2 = float((centred ** 2).sum(axis=1).mean())
        if sigma2 < 1e-24:
            w = np.ones((idx.size, idx.size))
        else:
            d2 = ((v[:, np.newaxis, :] - v[np.newaxis, :, :]) ** 2).sum(axis=2)
            w = np.exp(-d2 / (2.0 * sigma2))
            np.fill_diagonal(w, 1.0)
        blocks.append(w / w.sum(axis=0))
    return TransitionMatrix(shape=(img.height, img.width), indices=indices, blocks=blocks)


def reference_propagate_blocks(t: TransitionMatrix, y0: np.ndarray, alpha: float) -> np.ndarray:
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must be strictly inside (0, 1), got {alpha}")
    y0 = np.asarray(y0, dtype=np.float64)
    if y0.ndim != 2 or y0.shape[0] != t.shape[0] * t.shape[1]:
        raise ShapeError(
            f"anchor scores must have shape ({t.shape[0] * t.shape[1]}, k), "
            f"got {y0.shape}"
        )
    out = np.zeros_like(y0)
    for idx, block in zip(t.indices, t.blocks):
        system = np.eye(idx.size) - alpha * block
        out[idx] = np.linalg.solve(system, (1.0 - alpha) * y0[idx])
    return out


def reference_propagate(img, rm, y0, alpha):
    return reference_propagate_blocks(reference_build_transition(img, rm), y0, alpha)


def single_region(values):
    """A 1-row image whose pixels all belong to one region."""
    values = np.asarray(values, dtype=float)
    img = Raster.from_array(values[np.newaxis, :])
    rm = RegionMap(
        region_id=np.zeros((1, values.size), dtype=np.int32), region_count=1
    )
    return img, rm


def column(values):
    """``(n, 1)`` single-channel region values."""
    return np.asarray(values, dtype=float)[:, np.newaxis]


def one_hot(labels):
    """Per-class scores (unchanged, changed): one-hot where labeled, zero where not."""
    labels = np.asarray(labels)
    out = np.zeros(labels.shape + (2,), dtype=np.float64)
    out[..., 0] = labels == UNCHANGED
    out[..., 1] = labels == CHANGED
    return out


def anchors(labels):
    """(pixels, 2) one-hot anchor scores of a hard label array."""
    return one_hot(labels).reshape(-1, 2)


def test_weights_identical_pixels_are_all_ones():
    # All-ones affinities normalise to a uniform transition block.
    t = build_transition(column([0.4, 0.4, 0.4]))
    np.testing.assert_array_equal(t, np.full((3, 3), 1 / 3))


def test_weights_analytic_kernel_value():
    # Pixels {0, 1, c} with c = (1 + sqrt(6)) / 2 give variance exactly 1/2,
    # so the (0, 1) pair has distance^2 equal to 2 sigma^2 and weight 1/e.
    # Column normalisation cancels in a ratio within one column, and the
    # self-affinity is 1, so T[0, 1] / T[1, 1] is the weight itself.
    c = (1 + math.sqrt(6)) / 2
    t = build_transition(column([0.0, 1.0, c]))
    assert t[0, 1] / t[1, 1] == pytest.approx(math.exp(-1.0), abs=1e-12)
    assert t[1, 0] / t[0, 0] == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_weights_never_cross_regions(monkeypatch):
    img = Raster.from_array(np.array([[0.1, 0.2, 0.8, 0.9]]))
    rm = RegionMap(
        region_id=np.array([[0, 0, 1, 1]], dtype=np.int32), region_count=2
    )
    shapes = []

    def recording(values):
        block = build_transition(values)
        shapes.append(block.shape)
        return block

    monkeypatch.setattr(propagation, "build_transition", recording)
    # anchors in one region never leak into the other
    out = propagate(img, rm, anchors([[CHANGED, CHANGED, UNLABELED, UNLABELED]]), alpha=0.7)
    assert shapes == [(2, 2, 2)]  # both regions in one stack, one block each
    np.testing.assert_array_equal(out[2:, :], 0.0)


def test_transition_uniform_for_identical_pair():
    t = build_transition(column([0.5, 0.5]))
    np.testing.assert_allclose(t, [[0.5, 0.5], [0.5, 0.5]])


def test_transition_matches_hand_normalisation():
    values = np.array([0.1, 0.5, 0.6])
    t = build_transition(column(values))
    sigma2 = values.var()
    w = np.exp(-((values[:, None] - values[None, :]) ** 2) / (2 * sigma2))
    np.testing.assert_allclose(t, w / w.sum(axis=0, keepdims=True),
                               atol=1e-15)


@given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=10**6))
def test_transition_columns_stochastic(n, seed):
    rng = np.random.default_rng(seed)
    block = build_transition(column(rng.random(n)))
    assert block.min() >= 0.0 and block.max() <= 1.0
    np.testing.assert_allclose(block.sum(axis=0), 1.0, atol=1e-9)


def test_propagate_alpha_near_zero_returns_anchors():
    rng = np.random.default_rng(4)
    img, rm = single_region(rng.random(6))
    y0 = anchors([[1, 0, 1, -1, 0, -1]])
    out = propagate(img, rm, y0, alpha=1e-12)
    np.testing.assert_allclose(out, y0, atol=1e-9)


def test_propagate_singleton_regions_fixpoint_is_anchor():
    img = Raster.from_array(np.array([[0.3, 0.7]]))
    rm = RegionMap(region_id=np.array([[0, 1]], dtype=np.int32), region_count=2)
    y0 = anchors([[CHANGED, UNCHANGED]])
    out = propagate(img, rm, y0, alpha=0.7)
    np.testing.assert_allclose(out, y0, atol=1e-12)


def test_propagate_matches_closed_form_on_chain():
    rng = np.random.default_rng(8)
    values = rng.random(3)
    img, rm = single_region(values)
    y0 = anchors([[CHANGED, UNLABELED, UNCHANGED]])
    alpha = 0.7
    out = propagate(img, rm, y0, alpha)
    t = build_transition(column(values))
    expected = np.linalg.solve(np.eye(3) - alpha * t, (1 - alpha) * y0)
    np.testing.assert_allclose(out, expected, atol=1e-12)
    # the fixpoint of the anchored iteration
    np.testing.assert_allclose(alpha * (t @ out) + (1 - alpha) * y0, out, atol=1e-12)


def test_propagate_stacked_columns_equal_separate_calls():
    rng = np.random.default_rng(21)
    img = Raster.from_array(rng.random((6, 8)))
    rm = segment_superpixels(img, 5)
    y0 = rng.random((48, 7))
    stacked = propagate(img, rm, y0, alpha=0.7)
    for j in range(y0.shape[1]):
        single = propagate(img, rm, y0[:, j : j + 1], alpha=0.7)
        np.testing.assert_allclose(stacked[:, j : j + 1], single, rtol=0, atol=1e-14)


def test_propagate_rejects_mismatched_anchor_shape():
    img, rm = single_region([0.1, 0.9, 0.4])
    for bad in (np.zeros((2, 2)), np.zeros(3), np.zeros((1, 3, 2))):
        with pytest.raises(ShapeError):
            propagate(img, rm, bad, alpha=0.7)


@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([0.3, 0.7, 0.9]),
)
def test_propagate_nonnegative_and_mass_conserving(n, seed, alpha):
    rng = np.random.default_rng(seed)
    img, rm = single_region(rng.random(n))
    y0 = anchors(rng.integers(-1, 2, size=(1, n)))
    out = propagate(img, rm, y0, alpha)
    assert out.min() >= 0.0
    # column-stochastic propagation conserves per-channel total mass exactly
    np.testing.assert_allclose(out.sum(axis=0), y0.sum(axis=0), atol=1e-9)


def test_propagate_residual_shrinks_after_transient():
    rng = np.random.default_rng(12)
    values = rng.random(8)
    img, rm = single_region(values)
    y0 = anchors(rng.integers(-1, 2, size=(1, 8)))
    t = build_transition(column(values))
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
    np.testing.assert_allclose(y, propagate(img, rm, y0, alpha), atol=1e-5)


def test_propagate_soft_in_unit_range_on_pipeline_instance():
    # Verified for anchored one-hot/zero initialisation at the operating alpha;
    # not a theorem for arbitrary anchor patterns.
    i1, i2, gt = sc.gen_pair(sc.default_scene(seed=2))
    di = sc.log_ratio_di(i1, i2)
    rm = segment_superpixels(di, 256)
    init = sample_training(sc.preclassify_di(di, 7, seed=0), 0.12, seed=1)
    out = propagate(di, rm, anchors(init.labels), alpha=0.7)
    assert out.min() >= 0.0
    assert out.max() <= 1.0 + 1e-9


def test_propagate_rejects_alpha_outside_open_interval():
    img, rm = single_region([0.1, 0.9])
    y0 = anchors([[0, 1]])
    for alpha in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(ParameterError):
            propagate(img, rm, y0, alpha)


def test_build_transition_rejects_values_that_are_not_2d():
    # one region's (n, c) values or a (b, n, c) stack; nothing else
    assert build_transition(np.zeros((1, 3, 1))).shape == (1, 3, 3)
    for bad in (np.zeros(3), np.zeros((1, 1, 3, 1))):
        with pytest.raises(ShapeError):
            build_transition(bad)


@pytest.mark.parametrize("channels", [1, 2, 3])
def test_stacked_build_transition_has_the_bits_of_per_region_calls(channels):
    rng = np.random.default_rng(channels)
    stack = rng.random((6, 9, channels))
    stack[2] = stack[2, 0]  # identical pixels: sigma2 == 0
    stack[4] = 0.5 + 1e-13 * rng.random((9, channels))  # near-flat: 0 < sigma2 < 1e-24
    centred = stack[4] - stack[4].mean(axis=0)
    assert 0.0 < (centred ** 2).sum(axis=1).mean() < 1e-24
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        blocks = build_transition(stack)
    assert blocks.shape == (6, 9, 9)
    for values, block in zip(stack, blocks):
        np.testing.assert_array_equal(block, build_transition(values))
    np.testing.assert_array_equal(blocks[[2, 4]], np.full((2, 9, 9), 1 / 9))


def test_propagate_rejects_mismatched_region_map():
    img = Raster.from_array(np.random.default_rng(5).random((2, 3)))
    rm = RegionMap(region_id=np.zeros((3, 2), dtype=np.int32), region_count=1)
    with pytest.raises(ShapeError):
        propagate(img, rm, np.zeros((6, 2)), alpha=0.7)


def assert_matches_reference(img, rm, seed):
    rng = np.random.default_rng(seed)
    n = img.height * img.width
    y0 = np.concatenate([anchors(rng.integers(-1, 2, size=n)), rng.random((n, 3))], axis=1)
    for alpha in (0.3, 0.7, 0.9):
        np.testing.assert_array_equal(
            propagate(img, rm, y0, alpha), reference_propagate(img, rm, y0, alpha)
        )


@pytest.mark.parametrize("channels", [1, 2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_propagate_matches_reference_on_superpixels(channels, seed):
    rng = np.random.default_rng(seed)
    h, w = rng.integers(4, 24, size=2)
    img = Raster(rng.random((h, w, channels)))
    rm = segment_superpixels(img, max(1, (h * w) // int(rng.integers(4, 40))))
    assert_matches_reference(img, rm, seed)


@pytest.mark.parametrize("shape", [(1, 37), (37, 1), (1, 2), (2, 1)])
def test_propagate_matches_reference_on_strips(shape):
    img = Raster.from_array(np.random.default_rng(7).random(shape))
    assert_matches_reference(img, segment_superpixels(img, 5), seed=11)


def test_propagate_matches_reference_with_identical_and_singleton_regions():
    values = np.random.default_rng(3).random((4, 6, 2))
    values[:2, :3] = (0.25, 0.5)  # region 0: identical pixels
    region_id = np.zeros((4, 6), dtype=np.int32)
    region_id[2:, :3] = 1
    region_id[:, 3:] = 2
    region_id[0, 5], region_id[3, 5] = 3, 4  # singletons
    img = Raster(values)
    assert_matches_reference(img, RegionMap(region_id=region_id, region_count=5), seed=4)
    # the identity segmentation: every region a singleton
    assert_matches_reference(img, segment_superpixels(img, 24), seed=5)


def test_propagate_drops_each_block_before_building_the_next(monkeypatch):
    img = Raster.from_array(np.random.default_rng(9).random((12, 12)))
    rm = segment_superpixels(img, 144)  # 144 single-pixel regions
    built = []
    alive_at_build = []

    def tracking(values):
        gc.collect()
        alive_at_build.append(sum(ref() is not None for ref in built))
        block = build_transition(values)
        built.append(weakref.ref(block))
        return block

    monkeypatch.setattr(propagation, "build_transition", tracking)
    propagate(img, rm, np.zeros((144, 2)), alpha=0.7)
    chunks = -(-rm.region_count // propagation._CHUNK_REGIONS)
    assert len(alive_at_build) == chunks > 1
    assert alive_at_build == [0] * chunks


def test_propagate_matches_reference_where_a_size_group_spans_several_chunks(monkeypatch):
    img = Raster.from_array(np.random.default_rng(13).random((16, 16)))
    identity = segment_superpixels(img, 256)
    assert identity.region_count > 3 * propagation._CHUNK_REGIONS
    assert_matches_reference(img, identity, seed=13)

    i1, i2, _ = sc.gen_pair(sc.default_scene(seed=3))
    di = sc.log_ratio_di(i1, i2).band(0)[:96, :96]
    scene = Raster.from_array(ndimage.uniform_filter(di, size=7, mode="reflect"))  # as cleaned
    rm = segment_superpixels(scene)
    chunks = []
    monkeypatch.setattr(propagation, "_CHUNK_REGIONS", 3)
    monkeypatch.setattr(propagation, "_CHUNK_ENTRIES", 3 * 64 * 64)  # under 3 regions above 64 px
    monkeypatch.setattr(propagation, "build_transition",
                        lambda values: chunks.append(values.shape[:2]) or build_transition(values))
    assert_matches_reference(scene, rm, seed=14)  # three alphas
    groups = [g.shape for g in rm.size_groups()]
    steps = {n: max(1, min(3, 3 * 64 * 64 // (n * n))) for _, n in groups}
    assert max(r for r, n in groups if steps[n] == 3) > 3
    assert max(r for r, n in groups if steps[n] < 3) > 1
    expected = [(min(steps[n], r - first), n) for r, n in groups for first in range(0, r, steps[n])]
    assert chunks == 3 * expected


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
    cfg = PipelineConfig(rounds=1, labeled_fraction=1.0, n_regions=4)
    cleaned = clean_labels(Raster.from_array(values), LabelField(labels=labels), cfg, seed=3)
    np.testing.assert_array_equal(cleaned.labels, labels)


def test_clean_labels_reduces_injected_noise():
    improved = 0
    for s in range(5):
        spec = sc.default_scene(seed=s)
        i1, i2, gt = sc.gen_pair(spec)
        di = sc.log_ratio_di(i1, i2)
        training = sample_training(gt, 0.12, seed=40 + s)
        noisy = inject_label_noise(training, 0.10, seed=50 + s)
        mask = noisy.labels != UNLABELED
        before = (noisy.labels[mask] != gt.labels[mask]).mean()
        cleaned = clean_labels(di, noisy, PipelineConfig(), seed=60 + s)
        after = (cleaned.labels[mask] != gt.labels[mask]).mean()
        improved += after < before
    assert improved >= 4


def test_clean_labels_never_touches_unlabeled_and_is_deterministic():
    i1, i2, gt = sc.gen_pair(sc.default_scene(seed=1))
    di = sc.log_ratio_di(i1, i2)
    training = sample_training(gt, 0.1, seed=3)
    a = clean_labels(di, training, PipelineConfig(rounds=4), seed=9)
    b = clean_labels(di, training, PipelineConfig(rounds=4), seed=9)
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
        cleaned = clean_labels(img, training, PipelineConfig(), seed=200 + s)
        mask = training.labels != UNLABELED
        assert (cleaned.labels[mask] == training.labels[mask]).all()


@pytest.mark.parametrize("label", [CHANGED, UNCHANGED])
def test_clean_labels_keeps_a_single_class(label):
    # Every anchor holds the one class present, so every labeled pixel
    # whose region holds an anchor votes for it.
    img = Raster.from_array(np.random.default_rng(0).random((16, 16)))
    labels = np.full((16, 16), label, dtype=np.int8)
    labels[::5, ::3] = UNLABELED
    cleaned = clean_labels(img, LabelField(labels=labels), PipelineConfig(n_regions=4), seed=0)
    np.testing.assert_array_equal(cleaned.labels, labels)


def test_clean_labels_requires_a_labeled_pixel():
    labels = np.full((4, 4), UNLABELED, dtype=np.int8)
    with pytest.raises(ParameterError, match="labeled pixel"):
        clean_labels(
            Raster.from_array(np.random.default_rng(0).random((4, 4))),
            LabelField(labels=labels),
            PipelineConfig(),
            seed=0,
        )

