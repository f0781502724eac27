import numpy as np
import pytest

from sarchange.errors import DegenerateTrainingError, ParameterError, ShapeError
from sarchange.labels import CHANGED, UNCHANGED, UNLABELED, LabelField
from sarchange.raster import Raster
from sarchange.svm import (
    SvmModel,
    build_samples,
    hinge_objective,
    predict_map,
    train_svm,
)


def hinge_subgradient(w, b, x, y, c):
    """Subgradient of the primal objective; at a kink the active side is 0."""
    margins = y * (x @ w + b)
    active = margins < 1.0
    gw = w - c * (y[active, np.newaxis] * x[active]).sum(axis=0)
    gb = -c * float(y[active].sum())
    return gw, gb


def blobs(n_per_class=40, gap=3.0, seed=0):
    """Two well-separated 2-D Gaussian blobs with margin >= 1."""
    rng = np.random.default_rng(seed)
    a = rng.normal((-gap, 0.0), 0.4, size=(n_per_class, 2))
    b = rng.normal((gap, 0.0), 0.4, size=(n_per_class, 2))
    x = np.vstack([a, b])
    y = np.concatenate([-np.ones(n_per_class), np.ones(n_per_class)])
    return x, y


def stack_from(features):
    return Raster(features)


def test_build_samples_arity_and_standardisation():
    rng = np.random.default_rng(1)
    features = rng.random((4, 4, 5))
    labels = np.full((4, 4), UNLABELED, dtype=np.int8)
    labels[0, 0] = CHANGED
    labels[1, 2] = UNCHANGED
    labels[3, 3] = UNCHANGED
    x, y, scaler = build_samples(stack_from(features), LabelField(labels=labels))
    assert x.shape == (3, 5)
    assert sorted(y.tolist()) == [-1.0, -1.0, 1.0]
    np.testing.assert_array_less(np.abs(x.mean(axis=0)), 1e-9)
    np.testing.assert_array_less(np.abs(x.std(axis=0) - 1.0), 1e-6)


def test_build_samples_drops_constant_dimensions():
    rng = np.random.default_rng(2)
    features = rng.random((3, 3, 4))
    features[:, :, 2] = 7.0
    labels = np.array(
        [[CHANGED, UNCHANGED, UNLABELED]] * 3, dtype=np.int8
    )
    x, y, scaler = build_samples(stack_from(features), LabelField(labels=labels))
    assert x.shape[1] == 3
    np.testing.assert_array_equal(scaler.kept, [0, 1, 3])


def test_build_samples_single_class_raises():
    features = np.random.default_rng(3).random((2, 2, 3))
    labels = np.full((2, 2), CHANGED, dtype=np.int8)
    with pytest.raises(DegenerateTrainingError):
        build_samples(stack_from(features), LabelField(labels=labels))


def test_separable_toy_reaches_full_training_accuracy():
    x, y = blobs()
    model = train_svm(x, y, c=1.0, epochs=20, seed=4)
    pred = np.sign(x @ model.weights + model.bias)
    assert (pred == y).all()


def test_subgradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    x, y = blobs(n_per_class=15, gap=1.0, seed=5)
    c = 0.7
    eps = 1e-6
    checked = 0
    while checked < 10:
        w = rng.standard_normal(2)
        b = float(rng.standard_normal())
        margins = y * (x @ w + b)
        if np.abs(margins - 1.0).min() < 1e-3:
            continue  # too close to a hinge kink for finite differences
        gw, gb = hinge_subgradient(w, b, x, y, c)
        for j in range(2):
            step = np.zeros(2)
            step[j] = eps
            fd = (hinge_objective(w + step, b, x, y, c)
                  - hinge_objective(w - step, b, x, y, c)) / (2 * eps)
            assert fd == pytest.approx(gw[j], rel=1e-4, abs=1e-6)
        fd_b = (hinge_objective(w, b + eps, x, y, c)
                - hinge_objective(w, b - eps, x, y, c)) / (2 * eps)
        assert fd_b == pytest.approx(gb, rel=1e-4, abs=1e-6)
        checked += 1


def test_duplicated_samples_keep_the_boundary():
    x, y = blobs(n_per_class=30, seed=6)
    base = train_svm(x, y, c=1.0, epochs=300, seed=7)
    dup = train_svm(
        np.vstack([x, x]), np.concatenate([y, y]), c=1.0, epochs=300, seed=7
    )
    u1 = base.weights / np.linalg.norm(base.weights)
    u2 = dup.weights / np.linalg.norm(dup.weights)
    np.testing.assert_allclose(u1, u2, atol=1e-3)
    assert base.bias / np.linalg.norm(base.weights) == pytest.approx(
        dup.bias / np.linalg.norm(dup.weights), abs=1e-3
    )


def test_training_never_worse_than_null_model():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((60, 4))
    y = np.sign(rng.standard_normal(60))
    y[y == 0] = 1.0
    if (y == 1).all() or (y == -1).all():
        y[0] = -y[0]
    c = 2.0
    model = train_svm(x, y, c=c, epochs=20, seed=9)
    trained = hinge_objective(model.weights, model.bias, x, y, c)
    null = hinge_objective(np.zeros(4), 0.0, x, y, c)
    assert trained <= null


def test_training_deterministic_per_seed():
    x, y = blobs(seed=10)
    a = train_svm(x, y, epochs=5, seed=11)
    b = train_svm(x, y, epochs=5, seed=11)
    np.testing.assert_array_equal(a.weights, b.weights)
    assert a.bias == b.bias


def test_training_rejects_zero_epochs():
    x, y = blobs()
    with pytest.raises(ParameterError, match="epochs"):
        train_svm(x, y, epochs=0)


def test_predict_map_constant_negative_model():
    features = np.random.default_rng(12).random((3, 4, 2))
    model = SvmModel(
        weights=np.zeros(2), bias=-1.0,
        scaler=__import__("sarchange.svm", fromlist=["FeatureScaler"]).FeatureScaler.identity(2),
    )
    labels, scores = predict_map(model, stack_from(features))
    assert (labels.labels == UNCHANGED).all()
    np.testing.assert_array_equal(scores.band(0), -1.0)


def test_predict_map_sign_flip_antisymmetry():
    from sarchange.svm import FeatureScaler

    rng = np.random.default_rng(13)
    features = rng.standard_normal((5, 5, 3))
    model = SvmModel(weights=rng.standard_normal(3), bias=0.3,
                     scaler=FeatureScaler.identity(3))
    flipped = SvmModel(weights=-model.weights, bias=-model.bias,
                       scaler=FeatureScaler.identity(3))
    la, sa = predict_map(model, stack_from(features))
    lb, sb = predict_map(flipped, stack_from(features))
    nonzero = sa.band(0) != 0.0
    assert (la.labels[nonzero] != lb.labels[nonzero]).all()
    # exactly-zero scores land on unchanged under both signs
    zero_model = SvmModel(weights=np.zeros(3), bias=0.0,
                          scaler=FeatureScaler.identity(3))
    lz, _ = predict_map(zero_model, stack_from(features))
    assert (lz.labels == UNCHANGED).all()


def test_predict_map_separable_training_pixels_recovered():
    x, y = blobs(n_per_class=32, seed=14)
    model = train_svm(x, y, epochs=20, seed=15)
    features = x.reshape(8, 8, 2)
    labels, _ = predict_map(model, stack_from(features))
    expected = np.where(y > 0, CHANGED, UNCHANGED).reshape(8, 8)
    np.testing.assert_array_equal(labels.labels, expected)


def test_predict_map_dimension_guard():
    from sarchange.svm import FeatureScaler

    model = SvmModel(weights=np.zeros(5), bias=0.0,
                     scaler=FeatureScaler(mean=np.zeros(5), std=np.ones(5),
                                          kept=np.arange(5), n_features=5))
    features = np.zeros((2, 2, 3))
    with pytest.raises(ShapeError):
        predict_map(model, stack_from(features))
