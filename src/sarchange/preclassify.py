"""Cluster the difference image into pseudo-labels and draw training subsets."""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from .config import check
from .difference import _column_stats
from .errors import ConvergenceError, ParameterError
from .labels import CHANGED, UNCHANGED, UNLABELED, LabelField
from .raster import Raster


MAX_LLOYD_STEPS = 1000  # the benchmark's scenes reach their fixpoint within 150


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def _distinct_rows(pts: np.ndarray) -> np.ndarray:
    """The distinct rows of finite ``(n, 2)`` points in lexicographic order,
    as ``np.unique(pts, axis=0)`` gives them (up to the sign of a zero).

    Each row is viewed as one complex number, which numpy orders by real
    part, then imaginary part; a flat sort of those is far cheaper than a
    sort of rows.
    """
    keys = np.sort(np.ascontiguousarray(pts).view(np.complex128).ravel())
    keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
    return keys.view(np.float64).reshape(-1, 2)


def _mean_row(z: np.ndarray, members: np.ndarray) -> np.ndarray:
    """``pts[members].mean(axis=0)`` bit for bit, from ``(n, 2)`` points viewed as complex ``z``:
    cumsum adds in row order as the axis-0 reduce does; ``+ 0.0`` is that reduce's +0.0 start."""
    m = z[members]
    return (np.cumsum(m, out=m)[-1:].view(np.float64) + 0.0) / m.size


def kmeans_cluster(points: np.ndarray, seed: int = 0) -> np.ndarray:
    """Two-cluster Lloyd's algorithm on ``(n, 2)`` points, run to its fixpoint.

    The initial centroids are two distinct points drawn with ``seed``;
    distance ties go to cluster 0.  Returns per-point ids in ``{0, 1}``,
    all 0 (one cluster) when the points have fewer than 2 distinct rows
    or squared distances that underflow to 0 empty a cluster.
    Raises :class:`ParameterError` unless the points are a finite
    ``(n, 2)`` array with n >= 1 and ``seed`` meets the config's rule,
    and :class:`ConvergenceError` if ``MAX_LLOYD_STEPS`` assignment steps
    do not repeat an assignment, or if the within-cluster sum of squares
    rises.
    """
    check("seed", seed)
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
        raise ParameterError("points must be a non-empty (n, 2) array")
    if not np.isfinite(pts).all():
        raise ParameterError("points must be finite")
    distinct = _distinct_rows(pts)
    if distinct.shape[0] < 2:
        return np.zeros(pts.shape[0], dtype=np.int64)
    chosen = np.random.default_rng(seed).choice(distinct.shape[0], size=2, replace=False)
    c0, c1 = distinct[chosen]

    # Each distinct seed lands in its own cluster, and afterwards each centroid
    # is the mean of its members, which cannot all be nearer the other centroid
    # without their mean being nearer too, unless squared distances underflow.
    z = np.ascontiguousarray(pts).view(np.complex128).ravel()
    p0, p1 = z.real.copy(), z.imag.copy()
    in1 = None
    prev_objective = np.inf
    for _ in range(MAX_LLOYD_STEPS):
        d0 = (p0 - c0[0]) ** 2 + (p1 - c0[1]) ** 2
        d1 = (p0 - c1[0]) ** 2 + (p1 - c1[1]) ** 2
        new_in1 = d1 < d0
        objective = float(np.minimum(d0, d1).sum())
        # Lloyd's steps never increase the within-cluster sum of squares.
        if objective > prev_objective * (1.0 + 1e-12) + 1e-12:
            raise ConvergenceError(
                f"k-means objective rose from {prev_objective!r} to {objective!r}"
            )
        prev_objective = objective
        if in1 is not None and np.array_equal(new_in1, in1):
            return in1.astype(np.int64)
        in1 = new_in1
        if not in1.any() or in1.all():  # emptied by underflow: one cluster
            return np.zeros(pts.shape[0], dtype=np.int64)
        c0, c1 = _mean_row(z, ~in1), _mean_row(z, in1)
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
    local_mean = ndimage.uniform_filter(band, size=w, mode="reflect")
    pts = np.stack([band.ravel(), local_mean.ravel()], axis=1)
    # Standardise the two feature dimensions so the raw value's larger spread
    # does not drown out the smoothed neighbourhood mean in the cluster metric.
    mean, spread = _column_stats(pts)
    pts = (pts - mean) / np.where(spread > 1e-12, spread, 1.0)
    ids = kmeans_cluster(pts, seed=seed)

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
    changed_idx = np.flatnonzero(flat == CHANGED)
    unchanged_idx = np.flatnonzero(flat == UNCHANGED)
    n_total = _round_half_up(ratio * (changed_idx.size + unchanged_idx.size))
    if changed_idx.size >= unchanged_idx.size:
        n_un = _round_half_up(ratio * unchanged_idx.size)
        n_ch = n_total - n_un
    else:
        n_ch = _round_half_up(ratio * changed_idx.size)
        n_un = n_total - n_ch

    rng = np.random.default_rng(seed)
    keep_ch = rng.choice(changed_idx, size=n_ch, replace=False) if n_ch else np.empty(0, int)
    keep_un = rng.choice(unchanged_idx, size=n_un, replace=False) if n_un else np.empty(0, int)
    keep = np.concatenate([keep_ch, keep_un])

    out = np.full(flat.shape, UNLABELED, dtype=np.int8)
    out[keep] = flat[keep]
    return LabelField(labels=out.reshape(lf.labels.shape))
