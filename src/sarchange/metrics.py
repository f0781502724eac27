"""Change-map evaluation: confusion counts, agreement scores, ROC/AUC."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParameterError, ShapeError
from .labels import CHANGED, UNLABELED, LabelField
from .raster import Raster

# numpy renamed trapz to trapezoid in 2.0
_trapezoid = getattr(np, "trapezoid", None) or np.trapz


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        for name in ("tp", "fp", "fn", "tn"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be non-negative")

    @property
    def n_changed(self) -> int:
        """Changed pixels in the reference map."""
        return self.tp + self.fn

    @property
    def n_unchanged(self) -> int:
        return self.tn + self.fp

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def confusion(pred: LabelField, gt: LabelField) -> ConfusionCounts:
    if pred.labels.shape != gt.labels.shape:
        raise ShapeError(
            f"prediction {pred.labels.shape} and reference {gt.labels.shape} disagree"
        )
    if (pred.labels == UNLABELED).any() or (gt.labels == UNLABELED).any():
        raise ParameterError("confusion counts require fully labeled fields")
    p = pred.labels == CHANGED
    g = gt.labels == CHANGED
    return ConfusionCounts(
        tp=int(np.count_nonzero(p & g)),
        fp=int(np.count_nonzero(p & ~g)),
        fn=int(np.count_nonzero(~p & g)),
        tn=int(np.count_nonzero(~p & ~g)),
    )


def pcc(c: ConfusionCounts) -> float:
    """Fraction of pixels classified correctly: 1 - (FP + FN) / N."""
    if c.total == 0:
        raise ParameterError("empty confusion counts")
    return 1.0 - (c.fp + c.fn) / c.total


def kappa(c: ConfusionCounts) -> float:
    """Chance-corrected agreement.

    Defined as (PCC - PRE) / (1 - PRE) with the expected-agreement term
    PRE = ((N_c + FP - FN) * N_c + (N_uc + FN - FP) * N_uc) / N^2.
    When PRE reaches 1 (single-class reference predicted single-class)
    the ratio degenerates and the value is defined as 0.
    """
    if c.total == 0:
        raise ParameterError("empty confusion counts")
    n = c.total
    pre = ((c.n_changed + c.fp - c.fn) * c.n_changed
           + (c.n_unchanged + c.fn - c.fp) * c.n_unchanged) / (n * n)
    if abs(1.0 - pre) < 1e-15:
        return 0.0
    return (pcc(c) - pre) / (1.0 - pre)


def f1(c: ConfusionCounts) -> float:
    """Harmonic mean of precision and recall on the changed class; 0 when undefined."""
    denom = 2 * c.tp + c.fp + c.fn
    if denom == 0:
        return 0.0
    return 2 * c.tp / denom


def roc_auc(scores: Raster, gt: LabelField) -> tuple[list[tuple[float, float]], float]:
    """ROC curve and area from decision scores.

    The threshold sweeps the unique score values in descending order, so
    tied scores collapse into a single curve step; the area is computed
    by the trapezoidal rule over every step, which makes it equal to the
    rank-based (Mann-Whitney) estimate with half credit for ties.  The
    returned curve holds the vertices of that polyline only: both ends,
    and each point where the (false, true) positive count steps turn.
    """
    if scores.channels != 1:
        raise ShapeError("scores raster must be single channel")
    if (scores.height, scores.width) != (gt.height, gt.width):
        raise ShapeError("scores and reference dimensions disagree")
    if (gt.labels == UNLABELED).any():
        raise ParameterError("ROC requires a fully labeled reference")
    s = scores.band(0).ravel()
    positive = (gt.labels == CHANGED).ravel()
    n_pos = int(np.count_nonzero(positive))
    n_neg = positive.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ParameterError("ROC requires both classes in the reference")

    order = np.argsort(-s)  # ties share a group end, so their order is free
    s_sorted = s[order]
    pos_sorted = positive[order]
    # Last index of each group of equal scores.
    boundary = np.nonzero(np.diff(s_sorted))[0]
    ends = np.concatenate([boundary, [s_sorted.size - 1]])
    cum_tp = np.cumsum(pos_sorted)[ends]
    cum_fp = (ends + 1) - cum_tp
    tpr = np.concatenate([[0.0], cum_tp / n_pos])
    fpr = np.concatenate([[0.0], cum_fp / n_neg])
    auc = float(_trapezoid(tpr, fpr))
    d_tp = np.diff(cum_tp, prepend=0)
    d_fp = np.diff(cum_fp, prepend=0)
    turns = d_fp[:-1] * d_tp[1:] != d_tp[:-1] * d_fp[1:]
    vertex = np.concatenate([[True], turns, [True]])
    curve = list(zip(fpr[vertex].tolist(), tpr[vertex].tolist()))
    return curve, auc


@dataclass(frozen=True)
class MetricReport:
    pcc: float
    kc: float
    f1: float
    auc: float | None  # None when the reference holds one class
    counts: ConfusionCounts

    def to_dict(self) -> dict:
        return {
            "pcc": self.pcc,
            "kc": self.kc,
            "f1": self.f1,
            "auc": self.auc,
            "tp": self.counts.tp,
            "fp": self.counts.fp,
            "fn": self.counts.fn,
            "tn": self.counts.tn,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def evaluate(
    pred: LabelField, gt: LabelField, scores: Raster
) -> tuple[MetricReport, list[tuple[float, float]]]:
    """Full report for a predicted change map against a reference, plus
    the ROC curve of ``scores`` (see ``roc_auc``).  A one-class reference
    has no ROC: the AUC is None and the curve empty."""
    c = confusion(pred, gt)
    curve, auc = roc_auc(scores, gt) if c.n_changed and c.n_unchanged else ([], None)
    return MetricReport(pcc=pcc(c), kc=kappa(c), f1=f1(c), auc=auc, counts=c), curve


def write_roc_csv(curve: list[tuple[float, float]], path: str | Path) -> None:
    lines = ["fpr,tpr"] + [f"{x:.10g},{y:.10g}" for x, y in curve]
    Path(path).write_text("\n".join(lines) + "\n")
