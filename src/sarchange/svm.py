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

Training runs on the rows of :func:`build_samples` as the feature
stack holds them, z-scored over all pixels by
:func:`~sarchange.difference.zscore_channels`; raw features go through
it first.  The model scores those same features, so :func:`predict_map`
needs one product.  A flat column is zero in every row and gets weight
exactly 0: the Newton steps leave it there, and the partition solve,
whose least-squares step leaves rounding, sets it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig, check
from .errors import ConvergenceError, DegenerateTrainingError, ParameterError, ShapeError
from .labels import CHANGED, UNCHANGED, UNLABELED, LabelField
from .raster import Raster

GAP_TOL = 1e-6  # relative duality gap certified on return
MAX_NEWTON_STEPS = 200  # over all stages; the benchmark's training sets take 20-60
_STAGE_TOL = 1e-12  # Newton decrement, relative to the objective, that ends a stage
_ARMIJO = 0.25  # share of the predicted decrease a step must achieve
_MAX_HALVINGS = 40


@dataclass
class SvmModel:
    """The linear score ``x . weights + bias`` of a feature vector x."""

    weights: np.ndarray  # (d,)
    bias: float


def build_samples(fs: Raster, labels: LabelField) -> tuple[np.ndarray, np.ndarray]:
    """Design matrix and +/-1 targets from the labeled pixels.

    One row per labeled pixel, its features as ``fs`` holds them; changed
    maps to +1, unchanged to -1.  :func:`train_svm` expects ``fs``
    z-scored as :func:`~sarchange.difference.zscore_channels` gives it,
    as the pipeline's feature stack is; raw features go through it first.
    """
    if (fs.height, fs.width) != (labels.height, labels.width):
        raise ShapeError("feature raster and label field dimensions disagree")
    flat_labels = labels.labels.ravel()
    mask = flat_labels != UNLABELED
    if not mask.any():
        raise DegenerateTrainingError("no labeled pixels to train on")
    return (fs.data.reshape(-1, fs.channels)[mask],
            np.where(flat_labels[mask] == CHANGED, 1.0, -1.0))


def _smoothed_objective(v: np.ndarray, t: np.ndarray, h: float, c: float) -> float:
    loss = np.where(t >= h, t, np.maximum(t + h, 0.0) ** 2 / (4.0 * h))
    return 0.5 * float(v @ v) + c * float(loss.sum())


def train_svm(x: np.ndarray, y: np.ndarray, c: float = PipelineConfig.svm_c) -> SvmModel:
    """Fit the linear classifier to a certified optimum; deterministic.

    Minimises the folded objective P of the module docstring: Newton
    steps on the smoothed hinge find which rows lie on the margin, and
    the exact optimum for that partition is returned once a feasible
    dual point certifies its relative duality gap to be at most
    ``GAP_TOL``, so its objective exceeds the optimum by at most that
    fraction.  Raises :class:`ConvergenceError` when
    ``MAX_NEWTON_STEPS`` Newton steps do not reach it.  The rows of
    ``x`` are expected z-scored as
    :func:`~sarchange.difference.zscore_channels` gives them (zero mean
    and unit spread per column over all pixels, flat columns zero); raw
    rows go through it first, since with features far apart in scale a
    large ``c`` can run out of steps.  A flat column gets weight exactly
    0.  A single class needs no special case: on rows of zero column
    mean its optimum is w = 0 and b = +/-min(1, C n), that class
    everywhere.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ShapeError("x must be (n, d) and y (n,)")
    if not np.isfinite(x).all() or not np.isfinite(y).all():
        raise ParameterError("training data contains non-finite values")
    check("svm_c", c)
    if y.size == 0:
        raise DegenerateTrainingError("no training rows")
    n, d = x.shape
    z = y[:, np.newaxis] * np.hstack([x, np.ones((n, 1))])  # y_i v . a_i = z_i . v
    unused = np.append(~x.any(axis=0), False)  # zero in every row: optimal weight 0
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
        exact[unused] = 0.0  # the least-squares solve leaves rounding there
        alpha = np.where(violating, c, 0.0)
        alpha[margin] = np.clip(
            np.linalg.lstsq(z_margin.T, exact - pull, rcond=None)[0], 0.0, c
        )
        u = alpha @ z
        primal = 0.5 * float(exact @ exact) + c * float(np.maximum(0.0, 1.0 - z @ exact).sum())
        dual = float(alpha.sum()) - 0.5 * float(u @ u)
        if primal - dual <= GAP_TOL * primal:
            return SvmModel(weights=exact[:-1], bias=float(exact[-1]))
        h *= 0.1


def predict_map(model: SvmModel, fs: Raster) -> tuple[LabelField, Raster]:
    """Score every pixel's feature vector x as ``x . weights + bias``, with
    one weight per channel of ``fs``; changed exactly where the score is
    positive."""
    if model.weights.shape != (fs.channels,):
        raise ShapeError(f"{model.weights.size} weights for {fs.channels} feature channels")
    scores = fs.data.reshape(-1, fs.channels) @ model.weights
    scores += model.bias
    scores = scores.reshape(fs.height, fs.width)
    labels = np.where(scores > 0.0, CHANGED, UNCHANGED).astype(np.int8)
    return LabelField(labels=labels), Raster.from_array(scores)
