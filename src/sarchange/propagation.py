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
solved exactly per region, building one region's dense block at a time.
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


def build_transition(values: np.ndarray) -> np.ndarray:
    """Column-stochastic ``(n, n)`` transition block of one region.

    ``values`` holds the region's ``(n, channels)`` pixel values.  The
    affinity is W_ij = exp(-|v_i - v_j|^2 / (2 sigma^2)) with sigma the
    region's root-mean-square deviation of pixel values (the standard
    deviation for single-channel input), so W_ii = 1; a region of
    identical pixels gets the all-ones limit of the kernel.  Then
    T_ij = W_ij / sum_k W_kj.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 2:
        raise ShapeError(f"region values must be (n, channels), got shape {v.shape}")
    centred = v - v.mean(axis=0)
    sigma2 = float((centred ** 2).sum(axis=1).mean())
    if sigma2 < 1e-24:
        w = np.ones((v.shape[0], v.shape[0]))
    else:
        d2 = ((v[:, np.newaxis, :] - v[np.newaxis, :, :]) ** 2).sum(axis=2)
        w = np.exp(-d2 / (2.0 * sigma2))
    return w / w.sum(axis=0)


def propagate(img: Raster, rm: RegionMap, y0: np.ndarray, alpha: float) -> np.ndarray:
    """Exact fixpoint of anchored propagation, per region.

    ``y0`` is a ``(pixels, k)`` matrix of anchor scores over the flat
    pixels of ``img``, one column per class channel; any number of
    columns propagate independently in one solve.  Each region r of
    ``rm`` returns ``(1 - alpha) (I - alpha T_r)^-1 y0[r]``, the limit of
    the iteration in the module docstring, with ``T_r`` from
    :func:`build_transition`; each block is built just before its solve
    and dropped after it.
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
    out = np.zeros_like(y0)
    for idx in rm.pixel_indices():
        system = np.eye(idx.size) - alpha * build_transition(values[idx])
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
