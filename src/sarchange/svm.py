"""Linear soft-margin classifier.

The intercept is folded into the weight vector as a constant feature:
with a_i = (x_i, 1) and v = (w, b), training minimises

    P(v) = 0.5 * ||v||^2 + C * sum_i max(0, 1 - y_i v . a_i),

the classic primal plus 0.5 b^2 (with standardised features the optimal
intercept is small and the extra term is negligible).

The solver is the primal Newton method of Chapelle, "Training a Support
Vector Machine in the Primal" (Neural Computation 2007).  With
z_i = y_i a_i and t_i = 1 - z_i . v, the hinge max(0, t) is replaced by
a smoothed loss of width h, (t + h)^2 / 4h on |t| < h and the hinge
elsewhere.  Each smoothed objective is minimised by Newton steps with
Armijo backtracking; its Hessian I + (C / 2h) sum_{|t_i| < h} z_i z_i^T
is (d+1) x (d+1) and always positive definite.  h starts at 1 and
shrinks tenfold per stage.

A stage ends with a partition of the rows: on the margin (|t_i| < h),
violating it (t_i >= h) or clear of it.  The optimum of P for that
partition is exact: the projection of C * sum_violating z_i onto
{v : z_i . v = 1 on the margin}, whose multipliers alpha (C on the
violators, 0 on the clear rows), clipped into [0, C], are a feasible
dual point.  By weak duality P(v) exceeds the optimum by at most
P(v) - D(alpha), where D(alpha) = sum_i alpha_i - 0.5 ||sum_i alpha_i z_i||^2.
Training returns that v once the gap is at most ``GAP_TOL`` of P(v), and
raises :class:`ConvergenceError` when ``MAX_NEWTON_STEPS`` run out
first.  (The smoothed slope C clip((t + h) / 2h, 0, 1) is a feasible
dual point too, but it certifies far later: with C large against the
optimum, or with many rows on the margin, its small errors add up.)
The solver draws no random numbers, so training is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DegenerateTrainingError, ParameterError, ShapeError
from .labels import CHANGED, UNCHANGED, UNLABELED, LabelField
from .raster import Raster

GAP_TOL = 1e-6  # relative duality gap certified on return
MAX_NEWTON_STEPS = 200  # over all stages; the benchmark's training sets take 20-60
_STAGE_TOL = 1e-12  # Newton decrement, relative to the objective, that ends a stage
_ARMIJO = 0.25  # share of the predicted decrease a step must achieve
_MAX_HALVINGS = 40


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


def _smoothed_objective(v: np.ndarray, t: np.ndarray, h: float, c: float) -> float:
    loss = np.where(t >= h, t, np.maximum(t + h, 0.0) ** 2 / (4.0 * h))
    return 0.5 * float(v @ v) + c * float(loss.sum())


def train_svm(
    x: np.ndarray,
    y: np.ndarray,
    c: float = 1.0,
    scaler: FeatureScaler | None = None,
) -> SvmModel:
    """Fit the linear classifier to a certified optimum; deterministic.

    Minimises the folded objective P of the module docstring: Newton
    steps on the smoothed hinge find which rows lie on the margin, and
    the exact optimum for that partition is returned once a feasible
    dual point certifies its relative duality gap to be at most
    ``GAP_TOL``, so its objective exceeds the optimum by at most that
    fraction.  Raises :class:`ConvergenceError` when
    ``MAX_NEWTON_STEPS`` Newton steps do not reach it.  The rows of
    ``x`` are expected standardised as :func:`build_samples` returns
    them (zero mean, unit spread per column, constant columns dropped);
    on raw rows with features far apart in scale, a large ``c`` can run
    out of steps.  ``scaler`` is stored on the model so predictions can
    standardise raw feature vectors the same way the training rows were;
    pass the scaler returned by :func:`build_samples`, or leave None for
    identity.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ShapeError("x must be (n, d) and y (n,)")
    if not np.isfinite(x).all() or not np.isfinite(y).all():
        raise ParameterError("training data contains non-finite values")
    if c <= 0:
        raise ParameterError(f"C must be positive, got {c}")
    if not ((y == 1.0).any() and (y == -1.0).any()):
        raise DegenerateTrainingError("both classes are required for training")
    n, d = x.shape
    z = y[:, np.newaxis] * np.hstack([x, np.ones((n, 1))])  # y_i v . a_i = z_i . v
    eye = np.eye(d + 1)
    v = np.zeros(d + 1)
    t = np.ones(n)  # 1 - z_i . v
    h = 1.0
    steps = 0
    while True:
        f = _smoothed_objective(v, t, h, c)
        while True:  # Newton steps on the objective smoothed at width h
            if steps == MAX_NEWTON_STEPS:
                raise ConvergenceError(
                    f"no relative duality gap <= {GAP_TOL:g} within "
                    f"{MAX_NEWTON_STEPS} Newton steps (smoothing width {h:g})"
                )
            steps += 1
            gradient = v - c * np.clip((t + h) / (2.0 * h), 0.0, 1.0) @ z
            band = z[np.abs(t) < h]
            delta = np.linalg.solve(eye + (c / (2.0 * h)) * (band.T @ band), -gradient)
            decrement = -float(gradient @ delta)
            if decrement <= _STAGE_TOL * f:
                break
            z_delta = z @ delta
            for halving in range(_MAX_HALVINGS):
                step = 0.5 ** halving
                t_new = t - step * z_delta
                f_new = _smoothed_objective(v + step * delta, t_new, h, c)
                if f_new <= f - _ARMIJO * step * decrement:
                    break
            else:
                break  # no step decreases the objective at working precision
            v, t, f = v + step * delta, t_new, f_new
        t = 1.0 - z @ v  # afresh: the line search updates t incrementally
        margin = np.abs(t) < h
        violating = t >= h
        pull = c * z[violating].sum(axis=0)
        z_margin = z[margin]
        exact = pull + np.linalg.lstsq(z_margin, 1.0 - z_margin @ pull, rcond=None)[0]
        alpha = np.where(violating, c, 0.0)
        alpha[margin] = np.clip(
            np.linalg.lstsq(z_margin.T, exact - pull, rcond=None)[0], 0.0, c
        )
        u = alpha @ z
        primal = 0.5 * float(exact @ exact) + c * float(np.maximum(0.0, 1.0 - z @ exact).sum())
        dual = float(alpha.sum()) - 0.5 * float(u @ u)
        if primal - dual <= GAP_TOL * primal:
            return SvmModel(
                weights=exact[:-1],
                bias=float(exact[-1]),
                scaler=scaler if scaler is not None else FeatureScaler.identity(d),
            )
        h *= 0.1


def predict_map(model: SvmModel, fs: Raster) -> tuple[LabelField, Raster]:
    """Score every pixel; changed exactly where the score is positive."""
    if model.weights.shape != model.scaler.kept.shape:
        raise ShapeError("model weights and scaler dimensions disagree")
    x = fs.data.reshape(-1, fs.channels)
    scores = model.decision(x).reshape(fs.height, fs.width)
    labels = np.where(scores > 0.0, CHANGED, UNCHANGED).astype(np.int8)
    return LabelField(labels=labels), Raster.from_array(scores)
