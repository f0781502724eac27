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
the bits each region gets when solved alone.
Cleaning repeats this over several rounds, each time keeping a random
subset of the labeled pixels as anchors and demoting the rest, then
takes a majority vote over the per-round predictions; all rounds share
one solve as stacked right-hand sides.
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
    w = v[..., :, np.newaxis, :] - v[..., np.newaxis, :, :]
    w = np.square(w, out=w).sum(axis=-1)
    # x / (-s) has the bits of -x / s; flat blocks divide by 1 and are then overwritten
    w /= (-2.0 * np.where(flat, 1.0, sigma2))[..., np.newaxis, np.newaxis]
    np.exp(w, out=w)
    w[flat] = 1.0
    w /= w.sum(axis=-2, keepdims=True)
    return w


def propagate(img: Raster, rm: RegionMap, y0: np.ndarray, alpha: float) -> np.ndarray:
    """Exact fixpoint of anchored propagation, per region.

    ``y0`` is a ``(pixels, k)`` matrix of anchor scores over the flat
    pixels of ``img``, one column per class channel; any number of
    columns propagate independently in one solve.  Each region r of
    ``rm`` returns ``(1 - alpha) (I - alpha T_r)^-1 y0[r]``, the limit of
    the iteration in the module docstring, with ``T_r`` from
    :func:`build_transition`.  Regions of one pixel count are solved
    together, in chunks of at most ``_CHUNK_REGIONS`` regions and
    ``_CHUNK_ENTRIES`` block entries: one stacked build and one stacked
    solve per chunk, each chunk's blocks dropped before the next chunk's
    are built.  Every region gets the bits of a solve on its own.
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
    out = np.empty_like(y0)  # the size groups cover every pixel
    for group in rm.size_groups():
        n = group.shape[1]
        step = max(1, min(_CHUNK_REGIONS, _CHUNK_ENTRIES // (n * n)))
        for first in range(0, group.shape[0], step):
            idx = group[first : first + step]
            system = np.eye(n) - alpha * build_transition(values[idx])
            out[idx] = np.linalg.solve(system, (1.0 - alpha) * y0[idx])
    return out


def majority_vote(changed_votes: np.ndarray, rounds: int) -> np.ndarray:
    """Label CHANGED where strictly more than half the votes say so; ties
    fall to UNCHANGED."""
    return np.where(2 * changed_votes > rounds, CHANGED, UNCHANGED).astype(np.int8)


def clean_labels(
    img: Raster, pseudo: LabelField, cfg: PipelineConfig, seed: int = 0
) -> LabelField:
    """Clean noisy labels by repeated random keep/demote propagation rounds.

    Each round keeps a random ``labeled_fraction`` of the labeled pixels
    as anchors and demotes the rest to unlabeled; the rounds' one-hot
    anchor scores propagate within regions in a single solve, and each
    round predicts CHANGED where its changed score beats its unchanged
    score (ties go to unchanged).  The output label of every originally
    labeled pixel is the majority vote across rounds; pixels unlabeled in
    ``pseudo`` stay unlabeled.  A round whose anchor set misses a class
    is redrawn (at most 10 retries, so a ``pseudo`` of one class keeps
    the last draw).  Reads ``alpha``, ``n_regions``, ``rounds``,
    ``labeled_fraction`` and ``compactness`` from ``cfg``.
    """
    flat_labels = pseudo.labels.ravel()
    labeled_idx = np.flatnonzero(flat_labels != UNLABELED)
    if labeled_idx.size == 0:
        raise ParameterError("label cleaning needs at least one labeled pixel")

    rm = segment_superpixels(img, cfg.n_regions, cfg.compactness)

    n_keep = max(1, int(np.floor(cfg.labeled_fraction * labeled_idx.size + 0.5)))
    # Column pair (2 * rnd, 2 * rnd + 1) holds round rnd's (unchanged,
    # changed) anchor scores; labels 0/1 index the pair directly.
    y0 = np.zeros((flat_labels.size, cfg.rounds, 2))
    for rnd in range(cfg.rounds):
        rng = np.random.default_rng(derive_seed(seed, 1 + rnd))
        for _ in range(11):  # after the retries, proceed with the last draw
            keep = rng.choice(labeled_idx.size, size=n_keep, replace=False)
            kept_labels = flat_labels[labeled_idx[keep]]
            if (kept_labels == CHANGED).any() and (kept_labels == UNCHANGED).any():
                break
        y0[labeled_idx[keep], rnd, kept_labels] = 1.0
    y = propagate(img, rm, y0.reshape(flat_labels.size, -1), cfg.alpha)
    y = y.reshape(flat_labels.size, cfg.rounds, 2)[labeled_idx]
    changed_votes = np.count_nonzero(y[..., 1] > y[..., 0], axis=1)

    cleaned = np.full(flat_labels.shape, UNLABELED, dtype=np.int8)
    cleaned[labeled_idx] = majority_vote(changed_votes, cfg.rounds)
    return LabelField(labels=cleaned.reshape(pseudo.labels.shape))
