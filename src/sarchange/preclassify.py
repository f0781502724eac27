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


def _add_rows(total: np.ndarray | None, rows: np.ndarray) -> np.ndarray | None:
    """The running sum ``total`` (None before the first row) carried through
    the complex ``rows``, overwritten with their prefix sums: the running
    sum of one ``cumsum`` over all rows so far, in the same additions."""
    if rows.size == 0:
        return total
    if total is not None:
        rows[:1] += total
    return np.cumsum(rows, out=rows)[-1:]


def _mean(total: np.ndarray, count: int) -> np.ndarray:
    """The ``(2,)`` mean of ``count`` points whose row sum :func:`_add_rows`
    carried as ``total``, with the bits of ``pts[members].mean(axis=0)``:
    cumsum adds in row order as the axis-0 reduce does, and ``+ 0.0`` is
    that reduce's +0.0 start."""
    return (total.view(np.float64) + 0.0) / count


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

    Each step runs over blocks of ``_LLOYD_BLOCK`` points in preallocated
    scratch: distances, assignment, the fixpoint test and each cluster's
    row sum, carried from block to block by :func:`_add_rows`.  Each
    point's least distance goes into one n-long buffer, summed once.  So
    labels, centroids and objective have the bits of whole-array passes.
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
    n = z.size
    p0, p1 = z.real.copy(), z.imag.copy()
    block = min(n, _LLOYD_BLOCK)
    d0, d1, sq = np.empty(block), np.empty(block), np.empty(block)
    in0 = np.empty(block, dtype=bool)
    least = np.empty(n)
    in1, new_in1 = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
    prev_objective = np.inf
    for step in range(MAX_LLOYD_STEPS):
        same = step > 0
        n1, total0, total1 = 0, None, None
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
            total1 = _add_rows(total1, np.compress(mask, z[start:stop]))
            total0 = _add_rows(total0, np.compress(np.logical_not(mask, out=in0[:k]), z[start:stop]))
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
        c0, c1 = _mean(total0, n - n1), _mean(total1, n1)
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
