"""Cluster the difference image into pseudo-labels and draw training subsets."""

from __future__ import annotations

import numpy as np

from .config import check
from .difference import box_mean, zscore_channels
from .errors import ConvergenceError, ParameterError
from .labels import CHANGED, UNCHANGED, UNLABELED, LabelField
from .raster import Raster


MAX_LLOYD_STEPS = 1000  # the benchmark's scenes reach their fixpoint within 150
# Points per block of a Lloyd step, so that its temporaries stay in cache; the
# fastest of 1024-32768 at 256x256 and 1024x1024 on one core.
_LLOYD_BLOCK = 16384
# Pixels per chunk in which sample_training finds the pixels of its ranks.
_SAMPLE_CHUNK = 65536


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def _seed_rows(pts: np.ndarray, seed: int) -> np.ndarray | None:
    """The two initial centroids, or None when all rows are equal (0.0 and
    -0.0 are).  Of the first column that holds m >= 2 distinct values,
    ``default_rng(seed).choice(m, 2, replace=False)`` draws two by rank in
    increasing order, and each seed is the first row that holds its value.
    Where that column has no ties, these are the rows of the same draw among
    the distinct rows in lexicographic order."""
    for column in pts.T:
        # np.unique's values, without the numpy.ma import (3 MB) it makes, and
        # with no second copy of an untied column.
        values = np.sort(column)
        new = values[1:] != values[:-1]
        if not new.all():
            values = values[np.concatenate([[True], new])]
        if values.size >= 2:
            chosen = np.random.default_rng(seed).choice(values.size, size=2, replace=False)
            return np.stack([pts[np.argmax(column == x)] for x in values[chosen]])
    return None


def _centroids(pts: np.ndarray, in1: np.ndarray, n1: int,
               w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The means of the rows of ``pts`` outside and inside ``in1``, which
    holds ``n1`` of them.  Each cluster's row sum adds one BLAS dot
    product per block of ``w.size`` rows, whose 0/1 weights are written
    into the scratch ``w``.  It is a matrix-vector product of the block's
    rows, whose bits do not depend on the BLAS thread count as those of a
    dot product of one column do."""
    n = pts.shape[0]
    total0, total1 = np.zeros(2), np.zeros(2)
    for start in range(0, n, w.size):
        rows = pts[start : start + w.size]
        weights = w[: rows.shape[0]]
        np.copyto(weights, in1[start : start + w.size])
        total1 += rows.T @ weights
        np.subtract(1.0, weights, out=weights)
        total0 += rows.T @ weights
    return total0 / (n - n1), total1 / n1


def kmeans_cluster(points: np.ndarray, seed: int = 0) -> np.ndarray:
    """Two-cluster Lloyd's algorithm on ``(n, 2)`` points, run to its fixpoint.

    The initial centroids are two distinct points drawn with ``seed`` by
    :func:`_seed_rows`, by value of one column: 8-bit inputs tie there, and
    then each is the first point that holds its value.  Distance ties go to
    cluster 0.  Returns per-point ids in ``{0, 1}``, all 0 (one cluster)
    when the points have fewer than 2 distinct rows or squared distances
    that underflow to 0 empty a cluster.
    Raises :class:`ParameterError` unless the points are a finite
    ``(n, 2)`` array with n >= 1 and ``seed`` meets the config's rule,
    and :class:`ConvergenceError` if ``MAX_LLOYD_STEPS`` assignment steps
    do not repeat an assignment, or if the within-cluster sum of squares
    rises.

    Each step runs over blocks of ``_LLOYD_BLOCK`` points in preallocated
    scratch: distances, assignment and the fixpoint test.  Each point's
    least distance goes into one n-long buffer, summed once, so the
    labels and objective of a step have the bits of whole-array passes
    from its centroids.  The centroids are means whose row sums come
    from :func:`_centroids`' BLAS dot products, which round differently
    from a sequential sum: a label can differ from sequential-mean
    Lloyd's only where a point's two squared distances tie within that
    rounding.
    """
    check("seed", seed)
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
        raise ParameterError("points must be a non-empty (n, 2) array")
    if not np.isfinite(pts).all():
        raise ParameterError("points must be finite")
    seeds = _seed_rows(pts, seed)
    if seeds is None:
        return np.zeros(pts.shape[0], dtype=np.int64)
    c0, c1 = seeds

    # Each distinct seed lands in its own cluster, and afterwards each centroid
    # is the mean of its members, which cannot all be nearer the other centroid
    # without their mean being nearer too, unless squared distances underflow.
    n = pts.shape[0]
    p0, p1 = pts[:, 0].copy(), pts[:, 1].copy()
    block = min(n, _LLOYD_BLOCK)
    d0, d1, sq = np.empty(block), np.empty(block), np.empty(block)
    least = np.empty(n)
    in1, new_in1 = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
    prev_objective = np.inf
    for step in range(MAX_LLOYD_STEPS):
        same = step > 0
        n1 = 0
        for start in range(0, n, block):
            stop = min(start + block, n)
            k = stop - start
            for d, (x, y) in ((d0[:k], c0), (d1[:k], c1)):
                np.square(np.subtract(p0[start:stop], x, out=d), out=d)
                d += np.square(np.subtract(p1[start:stop], y, out=sq[:k]), out=sq[:k])
            mask = np.less(d1[:k], d0[:k], out=new_in1[start:stop])
            np.minimum(d0[:k], d1[:k], out=least[start:stop])
            same = same and np.array_equal(mask, in1[start:stop])
            n1 += np.count_nonzero(mask)
        objective = float(least.sum())
        # Lloyd's steps never increase the within-cluster sum of squares.
        if objective > prev_objective * (1.0 + 1e-12) + 1e-12:
            raise ConvergenceError(
                f"k-means objective rose from {prev_objective!r} to {objective!r}"
            )
        prev_objective = objective
        if same:
            return in1.astype(np.int64)
        in1, new_in1 = new_in1, in1
        if n1 in (0, n):  # emptied by underflow: one cluster
            return np.zeros(n, dtype=np.int64)
        c0, c1 = _centroids(pts, in1, n1, sq)
    raise ConvergenceError(f"k-means reached no fixpoint within {MAX_LLOYD_STEPS} steps")


def preclassify_di(di: Raster, w: int, seed: int = 0) -> LabelField:
    """Two-class clustering of the difference image into pseudo-labels.

    Each pixel is described by its value and the mean of its w-by-w
    neighbourhood (symmetric reflection at borders), so isolated speckle
    spikes do not flip labels on their own.  The two features are
    standardised and split by :func:`kmeans_cluster`, run to its
    fixpoint.  The cluster with the higher mean difference value becomes
    "changed"; tied means, or a difference image with fewer than 2
    distinct feature rows (one cluster), leave everything unchanged.
    Every pixel receives a label.
    """
    check("patch_size", w)
    if di.channels != 1:
        raise ParameterError("preclassification expects a single-channel difference image")
    band = di.band(0)
    local_mean = box_mean(band, w)
    pts = np.stack([band.ravel(), local_mean.ravel()], axis=1)
    # Standardise the two feature dimensions so the raw value's larger spread
    # does not drown out the smoothed neighbourhood mean in the cluster metric.
    ids = kmeans_cluster(zscore_channels(pts), seed=seed)

    values = band.ravel()
    labels = np.full(values.shape, UNCHANGED, dtype=np.int8)
    in0 = ids == 0
    in1 = ids == 1
    # An empty cluster or tied means offers no contrast evidence: nothing changed.
    if in0.any() and in1.any():
        mean0 = values[in0].mean()
        mean1 = values[in1].mean()
        if mean1 > mean0:
            labels[in1] = CHANGED
        elif mean0 > mean1:
            labels[in0] = CHANGED
    return LabelField(labels=labels.reshape(band.shape))


def sample_training(lf: LabelField, ratio: float, seed: int = 0) -> LabelField:
    """Keep a stratified random subset of the labels, drop the rest to unlabeled.

    Exactly ``round(ratio * n_labeled)`` pixels stay labeled.  The smaller
    class contributes its share rounded to nearest and the larger class
    the rest, which is its own rounded share give or take one.
    """
    check("sample_ratio", ratio)
    check("seed", seed)
    flat = lf.labels.ravel()
    n_changed = int(np.count_nonzero(flat == CHANGED))
    n_unchanged = int(np.count_nonzero(flat == UNCHANGED))
    n_total = _round_half_up(ratio * (n_changed + n_unchanged))
    if n_changed >= n_unchanged:
        n_un = _round_half_up(ratio * n_unchanged)
        n_ch = n_total - n_un
    else:
        n_ch = _round_half_up(ratio * n_changed)
        n_un = n_total - n_ch

    # Ranks among a class's pixels in flat order, drawn as ``rng.choice`` of
    # the class's index array would draw them, without that array.  They are
    # drawn before ``out`` exists: the index range the draw builds inside is
    # the peak.
    rng = np.random.default_rng(seed)
    kept = [(value, rng.choice(count, size=size, replace=False))
            for value, count, size in ((CHANGED, n_changed, n_ch), (UNCHANGED, n_unchanged, n_un))
            if size]
    out = np.full(flat.shape, UNLABELED, dtype=np.int8)
    for value, ranks in kept:
        ranks.sort()
        seen = 0  # pixels of the class before the chunk
        for start in range(0, flat.size, _SAMPLE_CHUNK):
            where = np.flatnonzero(flat[start : start + _SAMPLE_CHUNK] == value)
            lo, hi = np.searchsorted(ranks, (seen, seen + where.size))
            out[start + where[ranks[lo:hi] - seen]] = value
            seen += where.size
    return LabelField(labels=out.reshape(lf.labels.shape))
