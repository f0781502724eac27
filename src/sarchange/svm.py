"""Linear soft-margin classifier.

The target objective is the classic primal

    F(w, b) = 0.5 * ||w||^2 + C * sum_i max(0, 1 - y_i (w . x_i + b))

Training runs dual coordinate descent with the intercept folded into the
weight vector as a constant feature (so the solver actually minimises
F + 0.5 b^2; with standardised features the optimal intercept is small
and the extra term is negligible).  Coordinates are swept in seeded
shuffled passes, so training is deterministic for a given seed, and the
iterates converge to the optimum at a linear rate; stochastic subgradient
schedules of the 1/(lambda t) family were measured orders of magnitude
short of the optimum at this objective's weak regularisation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTrainingError, ParameterError, ShapeError
from .labels import CHANGED, UNCHANGED, UNLABELED, LabelField
from .raster import Raster


@dataclass
class FeatureScaler:
    """Per-dimension standardisation fitted on the labeled pixels.

    Dimensions with (near) zero spread are dropped entirely; ``kept``
    records which of the ``n_features`` original dimensions survive.
    """

    mean: np.ndarray  # (d_kept,)
    std: np.ndarray   # (d_kept,), strictly positive
    kept: np.ndarray  # (d_kept,) indices into the original feature vector
    n_features: int   # width of the vectors the scaler was fitted on

    def transform(self, x: np.ndarray) -> np.ndarray:
        if x.shape[1] != self.n_features:
            raise ShapeError(
                f"scaler was fitted on {self.n_features}-dim vectors, got {x.shape[1]}"
            )
        return (x[:, self.kept] - self.mean) / self.std

    @classmethod
    def identity(cls, dims: int) -> "FeatureScaler":
        return cls(mean=np.zeros(dims), std=np.ones(dims), kept=np.arange(dims),
                   n_features=dims)


@dataclass
class SvmModel:
    weights: np.ndarray  # (d_kept,)
    bias: float
    scaler: FeatureScaler

    def decision(self, x: np.ndarray) -> np.ndarray:
        """Raw scores w . x + b for standardised-on-the-fly rows of x."""
        return self.scaler.transform(x) @ self.weights + self.bias


def build_samples(
    fs: Raster, labels: LabelField
) -> tuple[np.ndarray, np.ndarray, FeatureScaler]:
    """Design matrix, +/-1 targets and fitted scaler from the labeled pixels.

    One row per labeled pixel; changed maps to +1, unchanged to -1.
    Features are standardised per dimension using statistics of the
    labeled pixels only.
    """
    if (fs.height, fs.width) != (labels.height, labels.width):
        raise ShapeError("feature raster and label field dimensions disagree")
    flat_labels = labels.labels.ravel()
    mask = flat_labels != UNLABELED
    if not (flat_labels == CHANGED).any() or not (flat_labels == UNCHANGED).any():
        raise DegenerateTrainingError("training labels contain a single class")
    x_full = fs.data.reshape(-1, fs.channels)[mask]
    y = np.where(flat_labels[mask] == CHANGED, 1.0, -1.0)
    mean = x_full.mean(axis=0)
    std = x_full.std(axis=0)
    kept = np.flatnonzero(std > 1e-12)
    if kept.size == 0:
        raise DegenerateTrainingError("every feature dimension is constant")
    scaler = FeatureScaler(mean=mean[kept], std=std[kept], kept=kept,
                          n_features=fs.channels)
    x = (x_full[:, kept] - scaler.mean) / scaler.std
    return x, y, scaler


def hinge_objective(
    w: np.ndarray, b: float, x: np.ndarray, y: np.ndarray, c: float
) -> float:
    margins = y * (x @ w + b)
    return 0.5 * float(w @ w) + c * float(np.maximum(0.0, 1.0 - margins).sum())


def train_svm(
    x: np.ndarray,
    y: np.ndarray,
    c: float = 1.0,
    epochs: int = 200,
    seed: int = 0,
    scaler: FeatureScaler | None = None,
    tol: float = 1e-8,
) -> SvmModel:
    """Fit the linear classifier; deterministic for a given seed.

    ``epochs`` caps the number of coordinate passes; the solver stops
    as soon as a full pass moves no dual variable by more than ``tol``.
    ``scaler`` is stored on the model so predictions can standardise raw
    feature vectors the same way the training rows were; pass the scaler
    returned by :func:`build_samples`, or leave None for identity.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ShapeError("x must be (n, d) and y (n,)")
    if not np.isfinite(x).all() or not np.isfinite(y).all():
        raise ParameterError("training data contains non-finite values")
    if c <= 0:
        raise ParameterError(f"C must be positive, got {c}")
    if epochs < 1:
        raise ParameterError(f"epochs must be >= 1, got {epochs}")
    if not ((y == 1.0).any() and (y == -1.0).any()):
        raise DegenerateTrainingError("both classes are required for training")
    n, d = x.shape
    aug = np.hstack([x, np.ones((n, 1))])  # intercept as a constant feature
    diag = (aug * aug).sum(axis=1)
    rng = np.random.default_rng(seed)
    alpha = np.zeros(n)
    w_aug = np.zeros(d + 1)
    for _ in range(epochs):
        largest_step = 0.0
        for i in rng.permutation(n):
            gradient = y[i] * (aug[i] @ w_aug) - 1.0
            updated = min(max(alpha[i] - gradient / diag[i], 0.0), c)
            step = updated - alpha[i]
            if step != 0.0:
                w_aug += step * y[i] * aug[i]
                alpha[i] = updated
                largest_step = max(largest_step, abs(step))
        if largest_step < tol:
            break
    return SvmModel(
        weights=w_aug[:-1],
        bias=float(w_aug[-1]),
        scaler=scaler if scaler is not None else FeatureScaler.identity(d),
    )


def predict_map(model: SvmModel, fs: Raster) -> tuple[LabelField, Raster]:
    """Score every pixel; changed exactly where the score is positive."""
    if model.weights.shape != model.scaler.kept.shape:
        raise ShapeError("model weights and scaler dimensions disagree")
    x = fs.data.reshape(-1, fs.channels)
    scores = model.decision(x).reshape(fs.height, fs.width)
    labels = np.where(scores > 0.0, CHANGED, UNCHANGED).astype(np.int8)
    return LabelField(labels=labels), Raster.from_array(scores)
