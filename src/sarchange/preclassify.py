"""Cluster the difference image into pseudo-labels and draw training subsets."""

from __future__ import annotations

import warnings

import numpy as np
from scipy import ndimage

from .errors import ConvergenceError, ParameterError
from .labels import CHANGED, UNCHANGED, UNLABELED, LabelField
from .raster import Raster


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def kmeans_cluster(
    points: np.ndarray, k: int, seed: int = 0, max_iter: int = 100
) -> np.ndarray:
    """Lloyd's algorithm with seeded distinct-point initialisation.

    Iterates until the assignment reaches a fixpoint or ``max_iter``.
    Clusters that empty out are re-seeded to the point currently farthest
    from its own centroid.  Returns per-point cluster ids in ``[0, k)``.
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
                centroids[j] = pts[int(np.argmax(own))]
                own[int(np.argmax(own))] = 0.0
    return ids


def preclassify_di(di: Raster, w: int, seed: int = 0) -> LabelField:
    """Two-class clustering of the difference image into pseudo-labels.

    Each pixel is described by its value and the mean of its w-by-w
    neighbourhood (symmetric reflection at borders), so isolated speckle
    spikes do not flip labels on their own.  The cluster with the higher
    mean difference value becomes "changed"; a tie leaves everything
    unchanged.  Every pixel receives a label.
    """
    if w < 3 or w % 2 == 0:
        raise ParameterError(f"patch size must be odd and >= 3, got {w}")
    if di.channels != 1:
        raise ParameterError("preclassification expects a single-channel difference image")
    band = di.band(0)
    local_mean = ndimage.uniform_filter(band, size=w, mode="reflect")
    pts = np.stack([band.ravel(), local_mean.ravel()], axis=1)
    # Standardise the two feature dimensions so the raw value's larger spread
    # does not drown out the smoothed neighbourhood mean in the cluster metric.
    spread = pts.std(axis=0)
    pts = (pts - pts.mean(axis=0)) / np.where(spread > 1e-12, spread, 1.0)
    ids = kmeans_cluster(pts, k=2, seed=seed)

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

    Exactly ``round(ratio * n_labeled)`` pixels stay labeled.  Each class
    contributes its share rounded to nearest; any off-by-one from the two
    roundings is corrected on the larger class.  An empty class whose share
    rounds above zero is backfilled from the other class.
    """
    if not 0.0 < ratio <= 1.0:
        raise ParameterError(f"sample ratio must be in (0, 1], got {ratio}")
    flat = lf.labels.ravel()
    changed_idx = np.flatnonzero(flat == CHANGED)
    unchanged_idx = np.flatnonzero(flat == UNCHANGED)
    n_labeled = changed_idx.size + unchanged_idx.size
    n_total = _round_half_up(ratio * n_labeled)
    n_ch = min(_round_half_up(ratio * changed_idx.size), changed_idx.size)
    n_un = min(_round_half_up(ratio * unchanged_idx.size), unchanged_idx.size)
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
