import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sarchange import svm
from sarchange.errors import (
    ChangeDetectionError,
    ConvergenceError,
    DegenerateTrainingError,
    ParameterError,
    ShapeError,
)
from sarchange.labels import CHANGED, UNCHANGED, UNLABELED, LabelField
from sarchange.raster import Raster
from sarchange.svm import (
    FeatureScaler,
    SvmModel,
    build_samples,
    predict_map,
    train_svm,
)


def hinge_objective(w, b, x, y, c):
    """The classic primal: 0.5 ||w||^2 plus C times the summed hinge losses."""
    margins = y * (x @ w + b)
    return 0.5 * float(w @ w) + c * float(np.maximum(0.0, 1.0 - margins).sum())


def hinge_subgradient(w, b, x, y, c):
    """Subgradient of the primal objective; at a kink the active side is 0."""
    margins = y * (x @ w + b)
    active = margins < 1.0
    gw = w - c * (y[active, np.newaxis] * x[active]).sum(axis=0)
    gb = -c * float(y[active].sum())
    return gw, gb


def reference_train_svm(
    x: np.ndarray,
    y: np.ndarray,
    c: float = 1.0,
    epochs: int = 200,
    seed: int = 0,
    scaler: FeatureScaler | None = None,
    tol: float = 1e-8,
) -> SvmModel:
    """The earlier dual coordinate descent (Hsieh et al., ICML 2008), kept
    verbatim as the reference."""
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


def folded_objective(model, x, y, c):
    """The objective both solvers minimise: the primal plus 0.5 b^2."""
    return hinge_objective(model.weights, model.bias, x, y, c) + 0.5 * model.bias ** 2


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
    model = train_svm(x, y, c=1.0)
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
    base = train_svm(x, y, c=1.0)
    dup = train_svm(np.vstack([x, x]), np.concatenate([y, y]), c=1.0)
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
    model = train_svm(x, y, c=c)
    trained = hinge_objective(model.weights, model.bias, x, y, c)
    null = hinge_objective(np.zeros(4), 0.0, x, y, c)
    assert trained <= null


def test_training_deterministic_per_seed():
    x, y = blobs(seed=10)
    a = train_svm(x, y)
    b = train_svm(x, y)
    np.testing.assert_array_equal(a.weights, b.weights)
    assert a.bias == b.bias


def overlapping_problem(seed, n=80, d=4):
    """Noisy linear labels: many rows inside the margin or misclassified."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    y = np.where(x[:, 0] + 0.8 * rng.standard_normal(n) > 0.3, 1.0, -1.0)
    return x, y


# At these seeds the reference's own step test stops it before 5000
# epochs; at seeds 0 and 1 it is still 1e-5 to 1e-4 above the optimum there.
@pytest.mark.parametrize("seed", [2, 3, 4, 5])
def test_newton_matches_coordinate_descent_reference(seed):
    x, y = overlapping_problem(seed)
    c = 10.0
    new = folded_objective(train_svm(x, y, c=c), x, y, c)
    capped = folded_objective(reference_train_svm(x, y, c=c, epochs=200, seed=seed), x, y, c)
    converged = folded_objective(
        reference_train_svm(x, y, c=c, epochs=5000, seed=seed), x, y, c
    )
    assert new <= capped
    assert abs(new - converged) <= 1e-6 * converged


@pytest.mark.parametrize("c, w1", [(1.0, 0.5), (0.05, 0.2)])
def test_two_symmetric_points_analytic_optimum(c, w1):
    # b = 0 by symmetry; 0.5 w1^2 + 2C max(0, 1 - 2 w1) is least at
    # w1 = min(4C, 1/2): the margin when C is large, the hinge slope otherwise.
    x = np.array([[-2.0, 0.0], [2.0, 0.0]])
    y = np.array([-1.0, 1.0])
    model = train_svm(x, y, c=c)
    np.testing.assert_allclose(model.weights, [w1, 0.0], atol=1e-6)
    assert model.bias == pytest.approx(0.0, abs=1e-6)


def test_step_cap_raises_convergence_error(monkeypatch):
    monkeypatch.setattr(svm, "MAX_NEWTON_STEPS", 1)
    x, y = blobs(seed=16)
    with pytest.raises(ConvergenceError, match="1 Newton steps"):
        train_svm(x, y)


# Raw, these rows are outside train_svm's domain: one feature is constant,
# the other spans three orders of magnitude, and at C = 1000 training runs
# out of Newton steps.
UNSCALED_ROWS = np.array([[2.0, 1000.0], [2.0, -1.0], [2.0, 0.5], [2.0, 2.0], [2.0, 0.5]])
UNSCALED_Y = np.array([-1.0, 1.0, -1.0, 1.0, -1.0])


@pytest.mark.parametrize("c", [1e-3, 1.0, 1e3])
def test_rows_standardised_by_build_samples_certify(c):
    labels = np.where(UNSCALED_Y > 0, CHANGED, UNCHANGED)[np.newaxis]
    x, y, scaler = build_samples(Raster(UNSCALED_ROWS[np.newaxis]), LabelField(labels=labels))
    assert scaler.kept.tolist() == [1]  # the constant column is dropped
    model = train_svm(x, y, c=c, scaler=scaler)
    assert np.isfinite(model.weights).all() and np.isfinite(model.bias)


@st.composite
def degenerate_training_sets(draw):
    n = draw(st.integers(1, 5))
    d = draw(st.integers(1, 3))
    value = st.sampled_from([-3.0, -1.0, 0.0, 0.5, 2.0, 1e3])
    x = np.array(draw(st.lists(st.lists(value, min_size=d, max_size=d),
                               min_size=n, max_size=n)))
    y = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    if draw(st.booleans()):  # every row again with the opposite label
        x, y = np.vstack([x, x]), np.concatenate([y, -y])
    if draw(st.booleans()):
        x[:, draw(st.integers(0, d - 1))] = draw(value)
    return x, y, draw(st.sampled_from([1e-3, 1.0, 1e3]))


@given(degenerate_training_sets())
def test_degenerate_training_sets_give_a_finite_model_or_a_typed_error(case):
    x, y, c = case
    try:
        model = train_svm(x, y, c=c)
    except ChangeDetectionError:
        return
    assert np.isfinite(model.weights).all() and np.isfinite(model.bias)


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
    model = train_svm(x, y)
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
