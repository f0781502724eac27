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
solved exactly per region.  Cleaning repeats this over several rounds,
each time keeping a random subset of the labeled pixels as anchors and
demoting the rest, then takes a majority vote over the per-round
predictions; all rounds share one solve as stacked right-hand sides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, ParameterError, ShapeError
from .labels import CHANGED, UNCHANGED, UNLABELED, LabelField
from .raster import Raster
from .seeds import derive_seed
from .superpixels import RegionMap, segment_superpixels

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
                raise ConstructionError("transition entries must lie in [0, 1]")
            col_sums = block.sum(axis=0)
            if np.abs(col_sums - 1.0).max() > _STOCHASTIC_TOL:
                raise ConstructionError("transition columns must sum to 1")


def build_transition(img: Raster, rm: RegionMap) -> TransitionMatrix:
    """Column-normalised Gaussian intensity affinities inside each region.

    The affinity is W_ij = exp(-|v_i - v_j|^2 / (2 sigma^2)) with sigma the
    region's root-mean-square deviation of pixel values (the standard
    deviation for single-channel input), and W_ii = 1; a region of
    identical pixels gets the all-ones limit of the kernel.  Then
    T_ij = W_ij / sum_k W_kj.
    """
    if (img.height, img.width) != (rm.height, rm.width):
        raise ShapeError("image and region map dimensions disagree")
    values = img.data.reshape(-1, img.channels)
    indices = rm.pixel_indices()
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


def propagate(t: TransitionMatrix, y0: np.ndarray, alpha: float) -> np.ndarray:
    """Exact fixpoint of anchored propagation, per region.

    ``y0`` is a ``(pixels, k)`` matrix of anchor scores over the flat
    pixels of ``t``, one column per class channel; any number of columns
    propagate independently in one solve.  Each region returns
    ``(1 - alpha) (I - alpha T_r)^-1 y0[region]``, the limit of the
    iteration in the module docstring.
    """
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


@dataclass(frozen=True)
class CleanConfig:
    alpha: float = 0.7
    n_regions: int | None = None  # None: one region per ~64 pixels
    rounds: int = 10
    labeled_fraction: float = 0.5
    compactness: float = 10.0


def majority_vote(changed_votes: np.ndarray, rounds: int) -> np.ndarray:
    """Label CHANGED where strictly more than half the votes say so; ties
    fall to UNCHANGED."""
    return np.where(2 * changed_votes > rounds, CHANGED, UNCHANGED).astype(np.int8)


def clean_labels(
    img: Raster, pseudo: LabelField, cfg: CleanConfig, seed: int = 0
) -> LabelField:
    """Clean noisy labels by repeated random keep/demote propagation rounds.

    Each round keeps a random ``labeled_fraction`` of the labeled pixels
    as anchors and demotes the rest to unlabeled; the rounds' one-hot
    anchor scores propagate within regions in a single solve, and each
    round predicts CHANGED where its changed score beats its unchanged
    score (ties go to unchanged).  The output label of every originally
    labeled pixel is the majority vote across rounds; pixels unlabeled in
    ``pseudo`` stay unlabeled.  A round whose anchor set misses a class
    is redrawn (at most 10 retries).
    """
    flat_labels = pseudo.labels.ravel()
    labeled_idx = np.flatnonzero(flat_labels != UNLABELED)
    n_changed = int(np.count_nonzero(flat_labels[labeled_idx] == CHANGED))
    n_unchanged = labeled_idx.size - n_changed
    if n_changed < 2 or n_unchanged < 2:
        raise ParameterError(
            "label cleaning needs at least 2 labeled pixels per class, got "
            f"{n_changed} changed / {n_unchanged} unchanged"
        )
    if cfg.rounds < 1:
        raise ParameterError(f"rounds must be >= 1, got {cfg.rounds}")
    if not 0.0 < cfg.labeled_fraction <= 1.0:
        raise ParameterError(
            f"labeled_fraction must be in (0, 1], got {cfg.labeled_fraction}"
        )

    n_regions = cfg.n_regions
    if n_regions is None:
        n_regions = max(1, (img.height * img.width) // 64)
    rm = segment_superpixels(img, n_regions, cfg.compactness)
    tm = build_transition(img, rm)

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
    y = propagate(tm, y0.reshape(flat_labels.size, -1), cfg.alpha)
    y = y.reshape(flat_labels.size, cfg.rounds, 2)[labeled_idx]
    changed_votes = np.count_nonzero(y[..., 1] > y[..., 0], axis=1)

    cleaned = np.full(flat_labels.shape, UNLABELED, dtype=np.int8)
    cleaned[labeled_idx] = majority_vote(changed_votes, cfg.rounds)
    return LabelField(labels=cleaned.reshape(pseudo.labels.shape))
