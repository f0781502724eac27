import json
import re

import numpy as np
import pytest

from sarchange.errors import ParameterError
from sarchange.labels import CHANGED, UNCHANGED, UNLABELED, LabelField
from sarchange.raster import load_raster
from sarchange.synth import (
    BaseField,
    Ellipse,
    Rect,
    SceneSpec,
    change_truth,
    default_scene,
    gen_pair,
    load_scene,
    reflectance_fields,
    write_scene,
)


def inject_label_noise(lf: LabelField, rate: float, seed: int) -> LabelField:
    """Flip exactly ``floor(rate * n_labeled)`` labels, chosen uniformly.

    Unlabeled pixels are never touched.
    """
    if not 0.0 <= rate <= 1.0:
        raise ParameterError(f"noise rate must be in [0, 1], got {rate}")
    out = LabelField(labels=lf.labels.copy())
    labeled = np.flatnonzero(out.labels.ravel() != UNLABELED)
    n_flip = int(np.floor(rate * labeled.size))
    if n_flip == 0:
        return out
    rng = np.random.default_rng(seed)
    chosen = rng.choice(labeled, size=n_flip, replace=False)
    flat = out.labels.ravel()
    flat[chosen] = np.where(flat[chosen] == CHANGED, UNCHANGED, CHANGED)
    out.labels = flat.reshape(lf.labels.shape)
    return out


def flat_scene(width=256, height=256, value=1.0, looks=4.0, seed=0):
    return SceneSpec(
        width=width, height=height,
        base=BaseField(low=value, high=value), changes=(), looks=looks, seed=seed,
    )


def test_unit_multiplier_means_no_change():
    spec = SceneSpec(
        width=32, height=32,
        changes=((Rect(top=4, left=4, height=8, width=8), 1.0),),
        seed=3,
    )
    i1, i2, gt = gen_pair(spec)
    assert (gt.labels == UNCHANGED).all()
    r1, r2 = reflectance_fields(spec)
    np.testing.assert_array_equal(r1, r2)


def test_speckle_moments_match_gamma_model():
    # constant unit reflectance: the pair is the raw speckle field
    i1, _, _ = gen_pair(flat_scene(looks=4.0, seed=123))
    s = i1.band(0)
    assert s.mean() == pytest.approx(1.0, abs=0.02)
    assert s.var() == pytest.approx(0.25, abs=0.02)


def test_same_seed_is_bitwise_identical():
    spec = default_scene(seed=9)
    a1, a2, _ = gen_pair(spec)
    b1, b2, _ = gen_pair(spec)
    np.testing.assert_array_equal(a1.data, b1.data)
    np.testing.assert_array_equal(a2.data, b2.data)


def test_truth_is_independent_of_looks_and_seed():
    base = default_scene(seed=1)
    variants = [
        default_scene(seed=2),
        SceneSpec(width=base.width, height=base.height, base=base.base,
                  changes=base.changes, looks=9.0, seed=1),
    ]
    reference = change_truth(base)
    for spec in variants:
        np.testing.assert_array_equal(change_truth(spec).labels, reference.labels)


def test_region_mean_tracks_reflectance():
    value, looks, n = 0.6, 4.0, 128 * 128
    i1, _, _ = gen_pair(flat_scene(128, 128, value=value, looks=looks, seed=5))
    sigma = value / np.sqrt(looks * n)
    assert abs(i1.band(0).mean() - value) <= 3 * sigma


def test_inject_noise_rate_zero_and_one():
    labels = np.array([[CHANGED, UNCHANGED], [UNLABELED, CHANGED]], dtype=np.int8)
    lf = LabelField(labels=labels)
    np.testing.assert_array_equal(inject_label_noise(lf, 0.0, 1).labels, labels)
    flipped = inject_label_noise(lf, 1.0, 1).labels
    np.testing.assert_array_equal(
        flipped, np.array([[UNCHANGED, CHANGED], [UNLABELED, UNCHANGED]], dtype=np.int8)
    )


def test_inject_noise_exact_count_and_unlabeled_untouched():
    rng = np.random.default_rng(7)
    labels = rng.integers(0, 2, size=1250).astype(np.int8)
    labels[rng.random(1250) < 0.2] = UNLABELED
    lf = LabelField(labels=labels.reshape(25, 50))
    n_labeled = (labels != UNLABELED).sum()
    out = inject_label_noise(lf, 0.1, seed=11)
    flips = (out.labels != lf.labels).sum()
    assert flips == int(np.floor(0.1 * n_labeled))
    np.testing.assert_array_equal(
        out.labels == UNLABELED, lf.labels == UNLABELED
    )


def test_inject_noise_deterministic():
    labels = np.zeros((10, 10), dtype=np.int8)
    lf = LabelField(labels=labels)
    a = inject_label_noise(lf, 0.3, seed=2)
    b = inject_label_noise(lf, 0.3, seed=2)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_scene_json_round_trip(tmp_path):
    spec = default_scene(seed=4)
    path = tmp_path / "scene.json"
    path.write_text(spec.to_json())
    loaded = load_scene(path)
    assert loaded == spec
    # json is self-describing
    d = json.loads(spec.to_json())
    assert d["width"] == 128 and len(d["changes"]) == 3


def test_write_scene_files_load_back_as_generated(tmp_path):
    spec = default_scene(seed=6)
    out = tmp_path / "nested" / "scene"
    t1, t2, gt_path = write_scene(spec, out)
    assert (t1, t2, gt_path) == (out / "t1.f32", out / "t2.f32", out / "gt.pgm")
    i1, i2, gt = gen_pair(spec)
    # f32raw stores float32 samples; the ground truth is exact 0/1
    np.testing.assert_array_equal(load_raster(t1).data,
                                  i1.data.astype(np.float32))
    np.testing.assert_array_equal(load_raster(t2).data,
                                  i2.data.astype(np.float32))
    np.testing.assert_array_equal(load_raster(gt_path).band(0), gt.labels)
    assert load_scene(out / "scene.json") == spec


def test_default_scene_geometry():
    spec = default_scene()
    gt = change_truth(spec)
    changed_fraction = (gt.labels == CHANGED).mean()
    assert 0.05 <= changed_fraction <= 0.12
    r1, r2 = reflectance_fields(spec)
    assert (r1 > 0).all() and (r2 > 0).all()


def test_shape_validation():
    with pytest.raises(ParameterError):
        Rect(top=-1, left=0, height=4, width=4)
    with pytest.raises(ParameterError):
        Ellipse(row=5, col=5, r_row=0, r_col=2)
    with pytest.raises(ParameterError):
        SceneSpec(width=16, height=16,
                  changes=((Rect(top=10, left=10, height=10, width=10), 2.0),))
    with pytest.raises(ParameterError):
        SceneSpec(width=16, height=16, looks=0.0)


@pytest.mark.parametrize("keys, value, field", [
    (("width",), 32.7, "width"),
    (("height",), True, "height"),
    (("changes", 0, "top"), 1.9, "rect top"),
    (("changes", 0, "width"), 4.0, "rect width"),
    (("base", "regions", 0, "left"), "3", "rect left"),
], ids=["width-fraction", "height-bool", "top-fraction", "rect-width-float", "left-string"])
def test_load_scene_rejects_geometry_that_is_not_an_integer(tmp_path, keys, value, field):
    d = default_scene().to_dict()
    target = d
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(d))
    with pytest.raises(ParameterError, match=f"^{field} must be an integer"):
        load_scene(path)


@pytest.mark.parametrize("keys, value, message", [
    (("changes", 1, "row"), "66", "ellipse row must be a finite number,"),
    (("changes", 1, "col"), None, "ellipse col must be a finite number,"),
    (("changes", 1, "r_row"), True, "ellipse r_row must be a finite number > 0"),
    (("changes", 1, "r_col"), 0, "ellipse r_col must be a finite number > 0"),
    (("changes", 0, "multiplier"), float("nan"), "change multiplier must be a finite number,"),
    (("looks",), "4", "looks must be a finite number > 0"),
    (("looks",), float("inf"), "looks must be a finite number > 0"),
    (("looks",), 10**400, "looks must be a finite number > 0"),
    (("base", "low"), "0.25", "base low must be a finite number,"),
    (("base", "high"), False, "base high must be a finite number,"),
    (("base", "regions", 1, "value"), [0.12], "region value must be a finite number,"),
], ids=["row-string", "col-null", "r_row-bool", "r_col-zero", "multiplier-nan",
        "looks-string", "looks-inf", "looks-huge-int", "low-string", "high-bool", "value-list"])
def test_load_scene_rejects_a_float_field_that_is_not_a_finite_number(tmp_path, keys, value,
                                                                      message):
    d = default_scene().to_dict()
    target = d
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(d))
    with pytest.raises(ParameterError, match="^" + re.escape(message)):
        load_scene(path)


def test_omitted_scene_keys_take_the_dataclass_defaults(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"width": 16, "height": 16}))
    assert load_scene(path) == SceneSpec(16, 16)
    path.write_text(json.dumps({"width": 16, "height": 16, "base": {"high": 0.7}}))
    assert load_scene(path) == SceneSpec(16, 16, base=BaseField(high=0.7))


def test_load_scene_takes_integers_as_numbers(tmp_path):
    d = default_scene().to_dict()
    d["looks"], d["changes"][1]["row"], d["changes"][0]["multiplier"] = 4, 66, 3
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(d))
    spec = load_scene(path)
    assert spec == default_scene()
    for got, expected in zip(gen_pair(spec)[:2], gen_pair(default_scene())[:2]):
        np.testing.assert_array_equal(got.data, expected.data)
