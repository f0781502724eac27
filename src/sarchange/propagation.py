"""Label-noise cleaning by region-constrained random label propagation.

Labels propagate only inside homogeneous regions.  Within a region the
affinity between two pixels is a Gaussian kernel on their intensity
distance, with the kernel width set by the region's own intensity
standard deviation; across regions the affinity is zero, so the system
decomposes into independent per-region blocks.  Column-normalising the
affinities yields a transition matrix, and anchored propagation

    y(t+1) = alpha * T y(t) + (1 - alpha) * y(0)

converges to the fixpoint y = (1 - alpha) (I - alpha T)^-1 y(0) (Zhou et
al., "Learning with Local and Global Consistency", NIPS 2003), which is
solved exactly per region.  Regions of equal pixel count are built and
solved together as stacked dense blocks, a bounded chunk at a time, with
the bits each region gets when solved alone; a region with no anchor
has the fixpoint 0 and is neither built nor solved.
Cleaning repeats this over several rounds, each time keeping a random
subset of the labeled pixels as anchors and demoting the rest, then
takes a majority vote over the per-round predictions.  A round's anchors
are one signed column, +1 CHANGED and -1 UNCHANGED: the fixpoint is
linear, so in exact arithmetic its sign is that of the changed score
minus the unchanged score of one-hot anchors.  All rounds share one
solve as stacked right-hand sides.

Only regions whose labeled pixels hold both classes need that solve.
Every affinity is positive, W_ij >= e^(-n) in a region of n pixels,
so T is entrywise positive and so is (I - alpha T)^-1 = sum_k (alpha T)^k.
In a region whose labels hold one class, every pixel therefore scores
with that class's sign in a round that kept an anchor there, and
exactly 0 in a round that kept none; those scores are set directly.
"""

from __future__ import annotations

import numpy as np

from .config import PipelineConfig, check
from .errors import ParameterError, ShapeError
from .labels import CHANGED, UNCHANGED, UNLABELED, LabelField
from .raster import Raster
from .seeds import derive_seed
from .superpixels import RegionMap, segment_superpixels


# A chunk holds at most this many regions of one size, and its (regions, n, n)
# blocks at most this many entries (1 MB of float64 per temporary).
_CHUNK_REGIONS = 32
_CHUNK_ENTRIES = 1 << 17


def build_transition(values: np.ndarray) -> np.ndarray:
    """Column-stochastic transition blocks of one region or a stack of them.

    ``values`` holds one region's ``(n, channels)`` pixel values, giving
    its ``(n, n)`` block, or a ``(b, n, channels)`` stack of b regions of
    n pixels each, giving their ``(b, n, n)`` blocks, each with the bits
    it gets alone.  The affinity is W_ij = exp(-|v_i - v_j|^2 / (2 sigma^2))
    with sigma the region's root-mean-square deviation of pixel values
    (the standard deviation for single-channel input), so W_ii = 1; a
    region of identical pixels gets the all-ones limit of the kernel.
    Then T_ij = W_ij / sum_k W_kj.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim not in (2, 3):
        raise ShapeError(
            f"region values must be (n, channels) or (b, n, channels), got shape {v.shape}"
        )
    centred = v - v.mean(axis=-2, keepdims=True)
    sigma2 = (centred ** 2).sum(axis=-1).mean(axis=-1)
    flat = sigma2 < 1e-24
    # Channel by channel, in the order numpy's sum over the last axis adds them
    w = v[..., :, np.newaxis, 0] - v[..., np.newaxis, :, 0]
    np.square(w, out=w)
    for ch in range(1, v.shape[-1]):
        d = v[..., :, np.newaxis, ch] - v[..., np.newaxis, :, ch]
        w += np.square(d, out=d)
    # x / (-s) has the bits of -x / s; flat blocks divide by 1 and are then overwritten
    w /= (-2.0 * np.where(flat, 1.0, sigma2))[..., np.newaxis, np.newaxis]
    np.exp(w, out=w)
    w[flat] = 1.0
    w /= w.sum(axis=-2, keepdims=True)
    return w


def propagate(img: Raster, rm: RegionMap, y0: np.ndarray, alpha: float) -> np.ndarray:
    """Exact fixpoint of anchored propagation, per region.

    ``y0`` is a ``(pixels, k)`` matrix of anchor scores over the flat
    pixels of ``img``; any number of columns propagate independently in
    one solve.  Each region r of ``rm`` returns
    ``(1 - alpha) (I - alpha T_r)^-1 y0[r]``, the limit of the iteration
    in the module docstring, with ``T_r`` from :func:`build_transition`.
    Regions of one pixel count are solved together, in chunks of at most
    ``_CHUNK_REGIONS`` regions and ``_CHUNK_ENTRIES`` block entries: one
    stacked build and one stacked solve per chunk, each chunk's blocks
    turned into ``I - alpha T`` in place and dropped before the next
    chunk's are built.  Every region gets the bits of a solve on its own.
    A region whose rows of ``y0`` are all zero gets exact zeros, its
    fixpoint, and no block is built for it.
    """
    if (img.height, img.width) != (rm.height, rm.width):
        raise ShapeError("image and region map dimensions disagree")
    check("alpha", alpha)
    y0 = np.asarray(y0, dtype=np.float64)
    if y0.ndim != 2 or y0.shape[0] != img.height * img.width:
        raise ShapeError(
            f"anchor scores must have shape ({img.height * img.width}, k), "
            f"got {y0.shape}"
        )
    values = img.data.reshape(-1, img.channels)
    anchored = (y0 != 0.0).any(axis=1)
    out = np.zeros_like(y0)
    for group in rm.size_groups():
        group = group[anchored[group].any(axis=1)]
        n = group.shape[1]
        step = max(1, min(_CHUNK_REGIONS, _CHUNK_ENTRIES // (n * n)))
        for first in range(0, group.shape[0], step):
            idx = group[first : first + step]
            out[idx] = _solve(build_transition(values[idx]), (1.0 - alpha) * y0[idx], alpha)
    return out


def _solve(t: np.ndarray, rhs: np.ndarray, alpha: float) -> np.ndarray:
    """Solve (I - alpha T) x = rhs for a (b, n, n) stack ``t``, overwritten
    with I - alpha T: the bits of ``np.eye(n) - alpha * t``, except that an
    off-diagonal zero of ``t`` becomes -0.0."""
    t *= -alpha
    t.reshape(t.shape[0], -1)[:, :: t.shape[1] + 1] += 1.0
    return np.linalg.solve(t, rhs)


def clean_labels(
    img: Raster, pseudo: LabelField, cfg: PipelineConfig, seed: int = 0
) -> LabelField:
    """Clean noisy labels by repeated random keep/demote propagation rounds.

    Each round keeps a random ``labeled_fraction`` of the labeled pixels
    as anchors and demotes the rest to unlabeled; each round's signed
    anchor column (+1 CHANGED, -1 UNCHANGED, 0 elsewhere) propagates
    within regions, all rounds in a single solve, and each round predicts
    CHANGED where its score is above zero.  A region with no anchor in a
    round scores exactly zero there, so its pixels vote unchanged.  Only
    regions whose labeled pixels hold both classes are solved: the
    inverse (I - alpha T)^-1 of a region's positive transition block is
    entrywise positive (module docstring), so in a region of one class
    every pixel scores with that class's sign, +1 or -1, in a round that
    kept an anchor there, and 0 in a round that kept none.  The
    output label of every originally labeled pixel is the majority vote
    across rounds, CHANGED only where strictly more than half the rounds
    say so; pixels unlabeled in ``pseudo`` stay unlabeled.  A
    round whose anchor set misses a class is redrawn (at most 10 retries,
    so a ``pseudo`` of one class keeps the last draw).  Reads ``alpha``,
    ``n_regions``, ``rounds``, ``labeled_fraction`` and ``compactness``
    from ``cfg``.
    """
    flat_labels = pseudo.labels.ravel()
    labeled_idx = np.flatnonzero(flat_labels != UNLABELED)
    if labeled_idx.size == 0:
        raise ParameterError("label cleaning needs at least one labeled pixel")

    rm = segment_superpixels(img, cfg.n_regions, cfg.compactness)
    labeled_region = rm.region_id.ravel()[labeled_idx]
    n_changed = np.bincount(labeled_region[flat_labels[labeled_idx] == CHANGED],
                            minlength=rm.region_count)
    n_labeled = np.bincount(labeled_region, minlength=rm.region_count)
    mixed = ((n_changed > 0) & (n_changed < n_labeled))[labeled_region]

    n_keep = max(1, int(np.floor(cfg.labeled_fraction * labeled_idx.size + 0.5)))
    # Column rnd holds round rnd's signed anchors: +1 CHANGED, -1 UNCHANGED.
    y0 = np.zeros((flat_labels.size, cfg.rounds))
    for rnd in range(cfg.rounds):
        rng = np.random.default_rng(derive_seed(seed, 1 + rnd))
        for _ in range(11):  # after the retries, proceed with the last draw
            keep = rng.choice(labeled_idx.size, size=n_keep, replace=False)
            kept_labels = flat_labels[labeled_idx[keep]]
            if (kept_labels == CHANGED).any() and (kept_labels == UNCHANGED).any():
                break
        y0[labeled_idx[keep], rnd] = np.where(kept_labels == CHANGED, 1.0, -1.0)
    # A one-class region's anchor sum in a round has its class's sign, or is 0.
    # Anchors lie on labeled pixels only, so only their rows are summed.
    signs = np.sign(np.stack([np.bincount(labeled_region, weights=col, minlength=rm.region_count)
                              for col in y0[labeled_idx].T], axis=1))
    y0[labeled_idx[~mixed]] = 0.0
    y = np.where(mixed[:, np.newaxis], propagate(img, rm, y0, cfg.alpha)[labeled_idx],
                 signs[labeled_region])
    changed_votes = np.count_nonzero(y > 0.0, axis=1)

    cleaned = np.full(flat_labels.shape, UNLABELED, dtype=np.int8)
    cleaned[labeled_idx] = np.where(2 * changed_votes > cfg.rounds, CHANGED, UNCHANGED)
    return LabelField(labels=cleaned.reshape(pseudo.labels.shape))
