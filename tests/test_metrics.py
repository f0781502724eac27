import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sarchange.errors import ParameterError, ShapeError
from sarchange.labels import UNLABELED, LabelField
from sarchange.metrics import (
    ConfusionCounts,
    MetricReport,
    confusion,
    evaluate,
    f1,
    kappa,
    pcc,
    roc_auc,
    write_roc_csv,
)
from sarchange.raster import Raster

counts_strategy = st.builds(
    ConfusionCounts,
    tp=st.integers(0, 500),
    fp=st.integers(0, 500),
    fn=st.integers(0, 500),
    tn=st.integers(1, 500),
)


def field(arr):
    return LabelField(labels=np.asarray(arr, dtype=np.int8))


def test_confusion_identity_and_complement():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 2, size=(6, 6)).astype(np.int8)
    same = confusion(field(labels), field(labels))
    assert same.fp == same.fn == 0
    flipped = confusion(field(1 - labels), field(labels))
    assert flipped.tp == flipped.tn == 0


def test_confusion_matches_loop_oracle():
    rng = np.random.default_rng(1)
    pred = rng.integers(0, 2, size=(16, 16)).astype(np.int8)
    gt = rng.integers(0, 2, size=(16, 16)).astype(np.int8)
    c = confusion(field(pred), field(gt))
    tp = fp = fn = tn = 0
    for i in range(16):
        for j in range(16):
            if pred[i, j] == 1 and gt[i, j] == 1:
                tp += 1
            elif pred[i, j] == 1:
                fp += 1
            elif gt[i, j] == 1:
                fn += 1
            else:
                tn += 1
    assert (c.tp, c.fp, c.fn, c.tn) == (tp, fp, fn, tn)


def test_confusion_rejects_unlabeled_and_mismatch():
    with pytest.raises(ShapeError):
        confusion(field(np.zeros((2, 2))), field(np.zeros((3, 2))))
    with pytest.raises(ParameterError):
        confusion(field([[UNLABELED, 0]]), field([[0, 0]]))


def test_pcc_worked_values():
    assert pcc(ConfusionCounts(tp=5, fp=0, fn=0, tn=5)) == 1.0
    c = ConfusionCounts(tp=100, fp=10, fn=20, tn=870)
    assert pcc(c) == pytest.approx(0.97, abs=1e-12)


@given(counts_strategy)
def test_pcc_equals_accuracy(c):
    assert pcc(c) == pytest.approx((c.tp + c.tn) / c.total, abs=1e-12)


def test_kappa_worked_example():
    c = ConfusionCounts(tp=80, fn=20, fp=10, tn=890)
    assert kappa(c) == pytest.approx((0.97 - 0.828) / (1 - 0.828), abs=1e-9)


def test_kappa_perfect_and_constant_predictors():
    assert kappa(ConfusionCounts(tp=40, fp=0, fn=0, tn=60)) == pytest.approx(1.0)
    # all-unchanged predictor
    assert kappa(ConfusionCounts(tp=0, fp=0, fn=25, tn=75)) == pytest.approx(0.0)
    # all-changed predictor
    assert kappa(ConfusionCounts(tp=25, fp=75, fn=0, tn=0)) == pytest.approx(0.0)


def test_kappa_degenerate_agreement_defined_as_zero():
    # single-class truth predicted single-class: expected agreement is 1
    assert kappa(ConfusionCounts(tp=0, fp=0, fn=0, tn=50)) == 0.0


def test_f1_values():
    assert f1(ConfusionCounts(tp=10, fp=0, fn=0, tn=5)) == 1.0
    assert f1(ConfusionCounts(tp=80, fp=10, fn=20, tn=0)) == pytest.approx(160 / 190)
    assert f1(ConfusionCounts(tp=0, fp=0, fn=0, tn=9)) == 0.0


def pairwise_auc(scores, positive):
    """Mann-Whitney estimator with half credit for ties; O(n^2)."""
    pos = scores[positive]
    neg = scores[~positive]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def test_roc_perfect_ranking():
    scores = Raster.from_array(np.array([[0.9, 0.8], [0.1, 0.2]]))
    gt = field([[1, 1], [0, 0]])
    curve, auc = roc_auc(scores, gt)
    assert auc == pytest.approx(1.0)
    assert curve[0] == (0.0, 0.0) and curve[-1] == (1.0, 1.0)


def test_roc_all_tied_scores_is_diagonal():
    scores = Raster.from_array(np.full((2, 3), 0.5))
    gt = field([[1, 0, 1], [0, 0, 1]])
    curve, auc = roc_auc(scores, gt)
    assert auc == pytest.approx(0.5)
    assert curve == [(0.0, 0.0), (1.0, 1.0)]


def test_roc_matches_pairwise_oracle_with_ties():
    rng = np.random.default_rng(2)
    scores = np.round(rng.standard_normal(200), 1)  # rounding forces ties
    positive = rng.random(200) < 0.3
    positive[0], positive[1] = True, False
    _, auc = roc_auc(
        Raster.from_array(scores.reshape(10, 20)),
        field(positive.reshape(10, 20).astype(np.int8)),
    )
    assert auc == pytest.approx(pairwise_auc(scores, positive), abs=1e-9)


@given(st.integers(0, 10**6))
def test_roc_invariant_under_monotone_transform(seed):
    rng = np.random.default_rng(seed)
    scores = rng.standard_normal(64)
    positive = rng.random(64) < 0.4
    positive[0], positive[1] = True, False
    labels = field(positive.reshape(8, 8).astype(np.int8))
    _, auc1 = roc_auc(Raster.from_array(scores.reshape(8, 8)), labels)
    transformed = np.exp(scores * 2.0) + 5.0  # strictly increasing
    _, auc2 = roc_auc(Raster.from_array(transformed.reshape(8, 8)), labels)
    assert auc1 == pytest.approx(auc2, abs=1e-12)


def reference_roc_points(s, positive):
    """Every threshold step of the ROC curve, as the earlier ``roc_auc``
    returned it: (fpr, tpr) after each group of tied scores."""
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    pos_sorted = positive[order]
    boundary = np.nonzero(np.diff(s_sorted))[0]
    ends = np.concatenate([boundary, [s_sorted.size - 1]])
    cum_tp = np.cumsum(pos_sorted)[ends]
    cum_fp = (ends + 1) - cum_tp
    tpr = np.concatenate([[0.0], cum_tp / positive.sum()])
    fpr = np.concatenate([[0.0], cum_fp / (~positive).sum()])
    return list(zip(fpr.tolist(), tpr.tolist()))


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


@given(st.integers(0, 10**6), st.integers(2, 120), st.sampled_from([2, 5, 1000]))
def test_roc_curve_is_the_vertices_of_every_step(seed, n, n_levels):
    rng = np.random.default_rng(seed)
    scores = rng.integers(0, n_levels, size=n) / n_levels  # few levels: many ties
    positive = rng.random(n) < rng.random()
    positive[0], positive[1] = True, False
    curve, auc = roc_auc(Raster.from_array(scores.reshape(1, n)),
                         field(positive.reshape(1, n).astype(np.int8)))
    full = reference_roc_points(scores, positive)
    assert auc == pytest.approx(pairwise_auc(scores, positive), abs=1e-12)
    # the vertices are points of the full curve, in order, with both ends
    at = [full.index(v) for v in curve]
    assert at == sorted(at) and at[0] == 0 and at[-1] == len(full) - 1
    for a, b in zip(at[:-1], at[1:]):
        # every dropped point lies on the segment between its two vertices
        for k in range(a + 1, b):
            assert _cross(full[a], full[b], full[k]) == pytest.approx(0.0, abs=1e-12)
            assert full[a] <= full[k] <= full[b]
    for o, a, b in zip(curve[:-2], curve[1:-1], curve[2:]):
        assert abs(_cross(o, a, b)) > 1e-12  # no vertex could be dropped


def test_roc_rejects_single_class():
    scores = Raster.from_array(np.zeros((2, 2)))
    with pytest.raises(ParameterError):
        roc_auc(scores, field(np.zeros((2, 2))))


@pytest.mark.parametrize("value", [0.0, 1.0])
def test_evaluate_one_class_reference_has_no_auc(value):
    gt = field(np.full((2, 3), value))
    pred = field(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    report, curve = evaluate(pred, gt, Raster.from_array(np.arange(6.0).reshape(2, 3)))
    assert report.auc is None and curve == []
    assert report.counts == confusion(pred, gt)
    assert report.pcc == pcc(report.counts) and report.kc == kappa(report.counts)
    assert report.to_dict()["auc"] is None


def test_metric_report_flat_json():
    report = MetricReport(
        pcc=0.97, kc=0.8, f1=0.85, auc=0.99,
        counts=ConfusionCounts(tp=1, fp=2, fn=3, tn=4),
    )
    d = report.to_dict()
    assert d == {"pcc": 0.97, "kc": 0.8, "f1": 0.85, "auc": 0.99,
                 "tp": 1, "fp": 2, "fn": 3, "tn": 4}


def test_roc_csv(tmp_path):
    path = tmp_path / "roc.csv"
    write_roc_csv([(0.0, 0.0), (0.5, 1.0), (1.0, 1.0)], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "fpr,tpr"
    assert lines[1] == "0,0"
    assert len(lines) == 4
