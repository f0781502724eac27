import itertools
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy import ndimage

import sarchange as sc
from sarchange import pipeline, preclassify
from sarchange.errors import ConvergenceError, ParameterError, PipelineStageError
from sarchange.labels import CHANGED, UNCHANGED, UNLABELED, LabelField
from sarchange.preclassify import kmeans_cluster, preclassify_di, sample_training
from sarchange.raster import Raster


def reference_kmeans(
    points: np.ndarray, k: int, seed: int = 0, max_iter: int = 100, reseeds: list | None = None
) -> np.ndarray:
    """Lloyd's algorithm with seeded distinct-point initialisation.

    Iterates until the assignment reaches a fixpoint or ``max_iter``.
    Clusters that empty out are re-seeded to the point currently farthest
    from its own centroid, and their ids are appended to ``reseeds`` if it
    is given.  Returns per-point cluster ids in ``[0, k)``.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, np.newaxis]
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ParameterError("points must be a non-empty (n, d) array")
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    n = pts.shape[0]

    distinct = np.unique(pts, axis=0)
    rng = np.random.default_rng(seed)
    if distinct.shape[0] < k:
        warnings.warn(
            f"k={k} exceeds the {distinct.shape[0]} distinct points; "
            "clustering is degenerate",
            RuntimeWarning,
            stacklevel=2,
        )
        extra = distinct[np.zeros(k - distinct.shape[0], dtype=int)]
        centroids = np.concatenate([distinct, extra], axis=0)
    else:
        chosen = rng.choice(distinct.shape[0], size=k, replace=False)
        centroids = distinct[chosen].copy()

    ids = np.full(n, -1, dtype=np.int64)
    prev_objective = np.inf
    for _ in range(max_iter):
        d2 = ((pts[:, np.newaxis, :] - centroids[np.newaxis, :, :]) ** 2).sum(axis=2)
        new_ids = np.argmin(d2, axis=1)
        own = d2[np.arange(n), new_ids]
        objective = float(own.sum())
        # Lloyd's iterations never increase the within-cluster sum of squares.
        if objective > prev_objective * (1.0 + 1e-12) + 1e-12:
            raise ConvergenceError(
                f"k-means objective rose from {prev_objective!r} to {objective!r}"
            )
        prev_objective = objective
        if np.array_equal(new_ids, ids):
            break
        ids = new_ids
        for j in range(k):
            members = ids == j
            if members.any():
                centroids[j] = pts[members].mean(axis=0)
        for j in range(k):
            if not (ids == j).any():
                if reseeds is not None:
                    reseeds.append(j)
                centroids[j] = pts[int(np.argmax(own))]
                own[int(np.argmax(own))] = 0.0
    return ids


def reference_sample_training(lf: LabelField, ratio: float, seed: int = 0) -> LabelField:
    """The earlier stratified draw, with its size clamps and empty-class
    backfill, kept verbatim as the reference."""
    if not 0.0 < ratio <= 1.0:
        raise ParameterError(f"sample ratio must be in (0, 1], got {ratio}")
    flat = lf.labels.ravel()
    changed_idx = np.flatnonzero(flat == CHANGED)
    unchanged_idx = np.flatnonzero(flat == UNCHANGED)
    n_labeled = changed_idx.size + unchanged_idx.size
    n_total = preclassify._round_half_up(ratio * n_labeled)
    n_ch = min(preclassify._round_half_up(ratio * changed_idx.size), changed_idx.size)
    n_un = min(preclassify._round_half_up(ratio * unchanged_idx.size), unchanged_idx.size)
    # Correct the rounding drift on the larger stratum, clamped to its size.
    drift = n_total - (n_ch + n_un)
    if changed_idx.size >= unchanged_idx.size:
        n_ch = int(np.clip(n_ch + drift, 0, changed_idx.size))
    else:
        n_un = int(np.clip(n_un + drift, 0, unchanged_idx.size))
    # Backfill whatever is still missing from the other stratum.
    missing = n_total - (n_ch + n_un)
    if missing > 0:
        n_ch = int(np.clip(n_ch + missing, 0, changed_idx.size))
        missing = n_total - (n_ch + n_un)
        n_un = int(np.clip(n_un + missing, 0, unchanged_idx.size))

    rng = np.random.default_rng(seed)
    keep_ch = rng.choice(changed_idx, size=n_ch, replace=False) if n_ch else np.empty(0, int)
    keep_un = rng.choice(unchanged_idx, size=n_un, replace=False) if n_un else np.empty(0, int)
    keep = np.concatenate([keep_ch, keep_un])

    out = np.full(flat.shape, UNLABELED, dtype=np.int8)
    out[keep] = flat[keep]
    return LabelField(labels=out.reshape(lf.labels.shape))


def wcss(points, ids, k):
    total = 0.0
    for j in range(k):
        members = points[ids == j]
        if len(members):
            total += ((members - members.mean(axis=0)) ** 2).sum()
    return total


def scene_points(seed):
    """The standardised (value, 7x7 mean) points preclassify_di clusters."""
    di = sc.log_ratio_di(*sc.gen_pair(sc.default_scene(seed=seed))[:2])
    band = di.band(0)
    local_mean = ndimage.uniform_filter(band, size=7, mode="reflect")
    pts = np.stack([band.ravel(), local_mean.ravel()], axis=1)
    spread = pts.std(axis=0)
    return (pts - pts.mean(axis=0)) / np.where(spread > 1e-12, spread, 1.0)


def assign_step(pts, ids):
    """One Lloyd assignment from the centroids of ``ids``, ties to cluster 0."""
    c0, c1 = pts[ids == 0].mean(axis=0), pts[ids == 1].mean(axis=0)
    d0 = (pts[:, 0] - c0[0]) ** 2 + (pts[:, 1] - c0[1]) ** 2
    d1 = (pts[:, 0] - c1[0]) ** 2 + (pts[:, 1] - c1[1]) ** 2
    return (d1 < d0).astype(np.int64)


def test_kmeans_separates_well_separated_1d_clusters():
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0]])
    ids = kmeans_cluster(pts, seed=0)
    assert ids[0] == ids[1] and ids[2] == ids[3] and ids[0] != ids[2]


def test_kmeans_identical_points_give_one_cluster():
    ids = kmeans_cluster(np.ones((6, 2)), seed=0)
    np.testing.assert_array_equal(ids, np.zeros(6, dtype=np.int64))


def test_kmeans_rejects_points_that_are_not_n_by_2():
    for bad in (np.ones(4), np.ones((4, 3)), np.ones((0, 2))):
        with pytest.raises(ParameterError):
            kmeans_cluster(bad, seed=0)


def test_kmeans_rejects_non_finite_points():
    for value in (np.nan, np.inf, -np.inf):
        pts = np.ones((5, 2))
        pts[3, 1] = value
        with pytest.raises(ParameterError, match="finite"):
            kmeans_cluster(pts, seed=0)


# Few values, so rows repeat and share first columns; both signs of zero.
_coordinate = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.5e-300, -7.0, 1e150])


@given(st.lists(st.tuples(_coordinate, _coordinate), min_size=1, max_size=40),
       st.integers(0, 3))
@example([(0.0, 1.0), (-0.0, 1.0), (1.0, 0.0), (1.0, -0.0), (0.0, 1.0)], 0)
def test_distinct_rows_match_unique_rows(rows, n_repeats):
    pts = np.array(rows * (n_repeats + 1), dtype=np.float64)
    np.random.default_rng(len(rows)).shuffle(pts)
    expected = np.unique(pts, axis=0)
    got = preclassify._distinct_rows(pts)
    assert got.shape == expected.shape
    np.testing.assert_array_equal(got, expected)  # == equates 0.0 and -0.0


def test_kmeans_with_restarts_finds_enumerated_optimum():
    rng = np.random.default_rng(11)
    pts = rng.random((6, 2))
    best_restart = min(
        wcss(pts, kmeans_cluster(pts, seed=s), 2) for s in range(10)
    )
    # Exhaustive optimum over all 2-partitions (point 0 pinned to cluster 0).
    best_exact = np.inf
    for bits in itertools.product((0, 1), repeat=5):
        ids = np.array((0,) + bits)
        best_exact = min(best_exact, wcss(pts, ids, 2))
    assert best_restart == pytest.approx(best_exact, abs=1e-9)


def random_point_sets():
    rng = np.random.default_rng(2024)
    for n in (2, 3, 7, 50, 500):
        yield rng.normal(size=(n, 2))
    # Every row duplicated, some many times.
    base = rng.normal(size=(40, 2))
    yield base[rng.integers(0, 40, size=300)]
    yield np.repeat(base[:3], [1, 5, 9], axis=0)
    # Integer grids: many exact distance ties between the two centroids.
    for side in (2, 3, 6):
        yield rng.integers(0, side, size=(200, 2)).astype(np.float64)
    yield np.stack(np.meshgrid(np.arange(5.0), np.arange(4.0)), axis=-1).reshape(-1, 2)
    yield np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])


def test_kmeans_matches_general_k_reference_at_its_fixpoint():
    for pts in random_point_sets():
        for seed in range(4):
            np.testing.assert_array_equal(
                kmeans_cluster(pts, seed=seed),
                reference_kmeans(pts, 2, seed=seed, max_iter=10**6),
            )


@pytest.mark.parametrize("scene_seed", [0, 3, 41, 76])
def test_kmeans_matches_general_k_reference_on_scenes(scene_seed):
    pts = scene_points(scene_seed)
    np.testing.assert_array_equal(
        kmeans_cluster(pts, seed=scene_seed),
        reference_kmeans(pts, 2, seed=scene_seed, max_iter=10**6),
    )


# Integer grids times one magnitude tie exactly; both signs of zero; any
# float from the subnormals up to 1e6.
_lloyd_coordinate = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda i, m: i * m, st.integers(-3, 3), st.sampled_from([1e-300, 1e-8, 1.0, 1e6])),
    st.floats(min_value=-1e6, max_value=1e6),
)


@st.composite
def lloyd_point_sets(draw):
    """Small point sets with repeated rows and at least 2 distinct rows."""
    rows = draw(st.lists(st.tuples(_lloyd_coordinate, _lloyd_coordinate), min_size=1, max_size=30))
    repeats = draw(st.lists(st.integers(0, len(rows) - 1), max_size=30))
    pts = np.array(rows + [rows[i] for i in repeats], dtype=np.float64)
    assume(np.unique(pts, axis=0).shape[0] >= 2)
    return pts


def outcome(cluster, pts, seed):
    """The ids ``cluster`` returns, or the type and text of its ConvergenceError."""
    try:
        return cluster(pts, seed).tolist()
    except ConvergenceError as err:
        return (type(err), str(err))


@given(lloyd_point_sets(), st.integers(0, 3))
@example(np.array([[0.0, 0.0]] * 5 + [[1e6, 1e6]]), 0)  # a one-member cluster
@example(np.array([[-0.0, -0.0], [-0.0, -0.0], [1.0, 1.0], [-0.0, 0.0]]), 1)
@example(np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0], [1.0, 5.0], [1.0, -5.0]]), 2)
# Seeds (0, 0) and (0, 1e-300): every squared distance is 1 or underflows to 0,
# so every point ties into cluster 0 and cluster 1 empties.
@example(np.array([[0.0, 0.0], [0.0, 1e-300], [0.0, 1.0]]), 1)
def test_kmeans_matches_general_k_reference_on_drawn_points(pts, seed):
    reseeds = []
    expected = outcome(
        lambda p, s: reference_kmeans(p, 2, seed=s, max_iter=10**6, reseeds=reseeds), pts, seed
    )
    if reseeds:  # an underflowed distance emptied a cluster, which is one cluster here
        expected = [0] * len(pts)
    assert outcome(kmeans_cluster, pts, seed) == expected


def _same_bits(got, expected):
    assert got.dtype == expected.dtype == np.float64 and got.shape == expected.shape == (2,)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


@given(st.lists(st.tuples(_lloyd_coordinate, _lloyd_coordinate), min_size=1, max_size=60))
@example([(-0.0, -0.0)])
@example([(-0.0, 1.0), (-0.0, -1.0)])
def test_mean_row_has_the_bits_of_the_row_mean(rows):
    pts = np.array(rows, dtype=np.float64)
    every = np.ones(len(pts), dtype=bool)
    _same_bits(preclassify._mean_row(pts.view(np.complex128).ravel(), every), pts.mean(axis=0))


@pytest.mark.parametrize("n", [1000, 65536])
def test_mean_row_has_the_bits_of_the_masked_row_mean_on_many_rows(n):
    # numpy's pairwise sum of a contiguous column rounds differently here.
    pts = np.random.default_rng(n).normal(size=(n, 2)) * np.array([1.0, 1e6])
    mask = np.random.default_rng(n + 1).random(n) < 0.7
    before = pts.copy()
    for members in (mask, ~mask):
        _same_bits(preclassify._mean_row(pts.view(np.complex128).ravel(), members),
                   pts[members].mean(axis=0))
    np.testing.assert_array_equal(pts, before)  # the sums run in a copy


def test_kmeans_returns_a_lloyd_fixpoint():
    # This clustering needs more than 100 steps; a 100-step cap left 3 labels off.
    pts = scene_points(76)
    ids = kmeans_cluster(pts, seed=0)
    np.testing.assert_array_equal(assign_step(pts, ids), ids)


def test_kmeans_step_cap_raises_convergence_error(monkeypatch):
    monkeypatch.setattr(preclassify, "MAX_LLOYD_STEPS", 1)
    with pytest.raises(ConvergenceError, match="1 steps"):
        kmeans_cluster(scene_points(0), seed=0)


def test_pipeline_reports_the_step_cap_at_preclassify(monkeypatch, tmp_path):
    t1, t2, _ = sc.write_scene(sc.default_scene(seed=0), tmp_path / "scene")
    monkeypatch.setattr(preclassify, "MAX_LLOYD_STEPS", 1)
    cfg = pipeline.PipelineConfig(t1=t1, t2=t2, out_dir=tmp_path / "out")
    with pytest.raises(PipelineStageError) as exc_info:
        pipeline.run_pipeline(cfg)
    assert exc_info.value.stage == "preclassify"
    assert isinstance(exc_info.value.cause, ConvergenceError)


def test_preclassify_bright_block():
    di = np.zeros((24, 24))
    di[8:15, 8:15] = 1.0  # one bright 7x7 block
    lf = preclassify_di(Raster.from_array(di), w=7, seed=0)
    assert (lf.labels[10:13, 10:13] == CHANGED).all()  # block interior
    assert (lf.labels[:4, :] == UNCHANGED).all()  # far field
    assert (lf.labels != UNLABELED).all()


def test_preclassify_constant_di_all_unchanged():
    lf = preclassify_di(Raster.from_array(np.full((8, 8), 0.3)), w=3, seed=0)
    assert (lf.labels == UNCHANGED).all()


def test_preclassify_error_rate_on_synthetic_scenes():
    errors = []
    for seed in range(5):
        i1, i2, gt = sc.gen_pair(sc.default_scene(seed=seed))
        di = sc.log_ratio_di(i1, i2)
        lf = preclassify_di(di, w=7, seed=seed)
        errors.append((lf.labels != gt.labels).mean())
    assert max(errors) < 0.20


def test_sample_training_ratio_one_is_identity():
    labels = np.array([[CHANGED, UNCHANGED], [UNCHANGED, CHANGED]], dtype=np.int8)
    lf = LabelField(labels=labels)
    out = sample_training(lf, 1.0, seed=3)
    np.testing.assert_array_equal(out.labels, labels)


def test_sample_training_stratified_counts():
    labels = np.full(100, UNCHANGED, dtype=np.int8)
    labels[:20] = CHANGED
    lf = LabelField(labels=labels.reshape(10, 10))
    out = sample_training(lf, 0.1, seed=5)
    kept = out.labels.ravel()
    assert (kept != UNLABELED).sum() == 10
    assert (kept == CHANGED).sum() == 2
    assert (kept == UNCHANGED).sum() == 8


def test_sample_training_deterministic():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 2, size=(16, 16)).astype(np.int8)
    lf = LabelField(labels=labels)
    a = sample_training(lf, 0.3, seed=9)
    b = sample_training(lf, 0.3, seed=9)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_sample_training_backfills_empty_stratum():
    labels = np.full((5, 5), UNCHANGED, dtype=np.int8)
    out = sample_training(LabelField(labels=labels), 0.2, seed=1)
    assert (out.labels != UNLABELED).sum() == 5
    assert (out.labels == CHANGED).sum() == 0


@given(
    st.integers(min_value=2, max_value=200),
    st.floats(min_value=0.01, max_value=1.0),
    st.integers(min_value=0, max_value=2**31),
)
def test_sample_training_exact_count(n, ratio, seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n).astype(np.int8)
    lf = LabelField(labels=labels.reshape(1, n))
    out = sample_training(lf, ratio, seed=seed)
    expected = int(np.floor(ratio * n + 0.5))
    assert (out.labels != UNLABELED).sum() == expected
    kept = out.labels != UNLABELED
    np.testing.assert_array_equal(out.labels[kept], lf.labels[kept])


@given(
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=0, max_value=20),
    st.one_of(
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        # shares that land exactly on a half-integer
        st.builds(lambda k, n: k / (2 * n), st.integers(1, 400), st.integers(1, 200)).filter(
            lambda r: 0.0 < r <= 1.0
        ),
    ),
    st.integers(min_value=0, max_value=2**31),
)
@example(1, 1, 0, 0.5, 0)  # equal classes: the tie picks which share is rounded
@example(0, 25, 4, 0.2, 1)  # an empty class
@example(7, 0, 0, 0.5, 2)
def test_sample_training_matches_clamped_reference(n_changed, n_unchanged, n_unlabeled,
                                                   ratio, seed):
    flat = np.repeat(np.array([CHANGED, UNCHANGED, UNLABELED], dtype=np.int8),
                     [n_changed, n_unchanged, n_unlabeled])
    lf = LabelField(labels=np.random.default_rng(seed).permutation(flat)[np.newaxis])
    np.testing.assert_array_equal(
        sample_training(lf, ratio, seed=seed).labels,
        reference_sample_training(lf, ratio, seed=seed).labels,
    )


def test_sample_training_rejects_bad_ratio():
    lf = LabelField(labels=np.zeros((2, 2), dtype=np.int8))
    with pytest.raises(ParameterError):
        sample_training(lf, 0.0, seed=0)


@pytest.mark.parametrize("value", [257, 255, 0.7, np.nan, -2])
def test_label_field_rejects_values_before_the_int8_cast(value):
    # The cast alone would turn 257 into CHANGED, 255 into UNLABELED and
    # 0.7 into UNCHANGED.
    with pytest.raises(ParameterError, match="unknown values"):
        LabelField(labels=np.array([[0, value]]))


def test_label_field_keeps_valid_values_of_any_dtype():
    for dtype in (np.int8, np.int64, np.float64):
        lf = LabelField(labels=np.array([[UNLABELED, UNCHANGED, CHANGED]], dtype=dtype))
        assert lf.labels.dtype == np.int8
        np.testing.assert_array_equal(lf.labels, [[UNLABELED, UNCHANGED, CHANGED]])
