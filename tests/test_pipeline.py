import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import ndimage
from scipy.stats import rankdata

from sarchange import cli, pipeline
from sarchange.cli import main
from sarchange.config import _FIELD_RULES
from sarchange.difference import log_ratio_di, zscore_channels
from sarchange.errors import ParameterError, PipelineStageError, ShapeError
from sarchange.labels import CHANGED, UNCHANGED, UNLABELED, LabelField
from sarchange.patch_features import (
    _TILE_PIXELS,
    conv_layer,
    pca_reduce,
    select_kernels,
    stack_features,
)
from sarchange.pipeline import (
    ABLATION_ROWS,
    PipelineConfig,
    config_overrides,
    run_pipeline,
    run_synth_bench,
)
from sarchange.preclassify import kmeans_cluster, preclassify_di, sample_training
from sarchange.propagation import propagate
from sarchange.raster import Raster, load_raster, save_raster
from sarchange.seeds import derive_seed
from sarchange.superpixels import segment_superpixels
from sarchange.svm import build_samples, train_svm
from sarchange.synth import BaseField, Ellipse, Rect, SceneSpec, default_scene, write_scene


def small_scene(seed=0):
    return SceneSpec(
        width=64, height=64,
        base=BaseField(low=0.25, high=0.55,
                       regions=((Rect(top=6, left=40, height=16, width=18), 0.85),)),
        changes=(
            (Rect(top=10, left=8, height=14, width=12), 3.0),
            (Ellipse(row=44.0, col=40.0, r_row=8.0, r_col=10.0), 0.3),
        ),
        looks=4.0,
        seed=seed,
    )


@pytest.fixture
def scene_files(tmp_path):
    return write_scene(small_scene(), tmp_path)


def test_run_pipeline_writes_all_artifacts(scene_files, tmp_path):
    t1, t2, gtp = scene_files
    out = tmp_path / "out"
    cfg = PipelineConfig(t1=t1, t2=t2, gt=gtp, out_dir=out, seed=1)
    result = run_pipeline(cfg)
    assert result.change_map_path.exists()
    assert result.scores_path.exists()
    assert result.metrics_path.exists()
    assert result.timing_path.exists()
    assert (out / "roc.csv").exists()
    change = load_raster(result.change_map_path)
    assert set(np.unique(change.band(0))) <= {0.0, 1.0}
    metrics = json.loads(result.metrics_path.read_text())
    assert set(metrics) == {"pcc", "kc", "f1", "auc", "tp", "fp", "fn", "tn"}
    assert 0.0 <= metrics["pcc"] <= 1.0
    timing = json.loads(result.timing_path.read_text())
    assert "total" in timing and timing["total"] > 0


def test_run_pipeline_without_truth_omits_metrics(scene_files, tmp_path):
    t1, t2, _ = scene_files
    out = tmp_path / "nogt"
    result = run_pipeline(PipelineConfig(t1=t1, t2=t2, out_dir=out, seed=1))
    assert result.report is None
    assert result.metrics_path is None
    assert not (out / "metrics.json").exists()
    assert result.change_map_path.exists()
    assert result.scores_path.exists()


def test_run_pipeline_deterministic_outputs(scene_files, tmp_path):
    t1, t2, gtp = scene_files
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        run_pipeline(PipelineConfig(t1=t1, t2=t2, gt=gtp, out_dir=out, seed=7))
        outputs.append(
            tuple((out / f).read_bytes()
                  for f in ("change_map.pgm", "scores.f32", "metrics.json"))
        )
    assert outputs[0] == outputs[1]


def test_metrics_are_those_of_the_scores_as_written(scene_files, tmp_path):
    t1, t2, gtp = scene_files
    # At seed 3, float64 scores that round to equal float32 values split
    # changed from unchanged pixels: their AUC is 2.6e-6 off this one.
    result = run_pipeline(PipelineConfig(t1=t1, t2=t2, gt=gtp, out_dir=tmp_path / "out", seed=3))
    written = load_raster(result.scores_path)
    np.testing.assert_array_equal(result.scores.data, written.data)
    scores = written.band(0).ravel()
    positive = load_raster(gtp).band(0).ravel() > 0.5
    n_pos, n_neg = positive.sum(), (~positive).sum()
    rank_auc = (rankdata(scores)[positive].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)
    assert abs(json.loads(result.metrics_path.read_text())["auc"] - rank_auc) <= 1e-12


def test_stage_error_carries_stage_name(tmp_path):
    cfg = PipelineConfig(t1=tmp_path / "missing.f32", t2=tmp_path / "missing.f32",
                         out_dir=tmp_path / "o")
    with pytest.raises(PipelineStageError) as exc_info:
        run_pipeline(cfg)
    assert exc_info.value.stage == "load"


def test_smoothing_the_difference_image_is_part_of_the_clean_stage(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("smoothing failed")

    monkeypatch.setattr(pipeline, "box_mean", broken)
    t1, t2, _ = write_scene(small_scene(), tmp_path / "scene")
    with pytest.raises(PipelineStageError) as exc_info:
        run_pipeline(PipelineConfig(t1=t1, t2=t2, out_dir=tmp_path / "o"))
    assert exc_info.value.stage == "clean"
    assert isinstance(exc_info.value.cause, ValueError)


@pytest.mark.parametrize(
    "shape, overrides, field",
    [
        ((4, 64), {}, "kernel_size"),
        ((12, 12), {"kernels_per_layer": 144}, "kernels_per_layer"),
        ((12, 12), {"kernels_per_layer": 145}, "kernels_per_layer"),
    ],
)
def test_conv_shape_errors_come_before_preclassify(tmp_path, monkeypatch, shape, overrides, field):
    def not_reached(*args, **kwargs):
        raise AssertionError("preclassify ran on a shape the convolution stack rejects")

    monkeypatch.setattr(pipeline, "preclassify_di", not_reached)
    rng = np.random.default_rng(0)
    paths = []
    for name in ("t1.f32", "t2.f32"):
        save_raster(Raster.from_array(rng.gamma(4.0, 0.25, size=shape)), tmp_path / name)
        paths.append(tmp_path / name)
    cfg = PipelineConfig(t1=paths[0], t2=paths[1], out_dir=tmp_path / "o", **overrides)
    with pytest.raises(ParameterError, match=field) as exc_info:
        run_pipeline(cfg)
    assert f"{shape[0]}x{shape[1]}" in str(exc_info.value)
    # A library caller of the stack gets the same error from the same rule.
    with pytest.raises(ParameterError) as direct:
        stack_features(Raster(rng.random(shape + (3,))), cfg)
    assert str(direct.value) == str(exc_info.value)
    # Without the convolution stack the same shape passes the check.
    with pytest.raises(PipelineStageError) as reached:
        run_pipeline(replace(cfg, conv=False))
    assert reached.value.stage == "preclassify"


@pytest.mark.parametrize("gt_case", ["smaller", "missing"])
def test_a_bad_reference_fails_at_load_before_preclassify(tmp_path, monkeypatch, gt_case):
    def not_reached(*args, **kwargs):
        raise AssertionError("preclassify ran with a reference that cannot be scored")

    monkeypatch.setattr(pipeline, "preclassify_di", not_reached)
    t1, t2, _ = write_scene(default_scene(seed=1), tmp_path / "scene")
    if gt_case == "smaller":
        gt = write_scene(small_scene(), tmp_path / "small")[2]  # 64x64
    else:
        gt = tmp_path / "no_such_gt.pgm"
    with pytest.raises(PipelineStageError) as exc_info:
        run_pipeline(PipelineConfig(t1=t1, t2=t2, gt=gt, out_dir=tmp_path / "o"))
    assert exc_info.value.stage == "load"
    if gt_case == "smaller":
        assert isinstance(exc_info.value.cause, ShapeError)
        assert "64x64" in str(exc_info.value) and "128x128" in str(exc_info.value)


def _reference_features(channels: np.ndarray, cfg: PipelineConfig, seed: int) -> np.ndarray:
    """The feature raster written out step by step: with the stack, the raw
    channels averaged over the kernel footprint and z-scored, each layer's
    kernels, convolution and 3-channel PCA, the z-scored reductions, then
    the z-scored raw channels; without it, the z-scored raw channels."""
    raw = zscore_channels(channels)
    if not cfg.conv:
        return raw
    k = cfg.kernel_size
    current = Raster(zscore_channels(
        ndimage.uniform_filter(channels, size=(k, k, 1), mode="reflect")
    ))
    reduced = []
    for d in range(1, cfg.depth + 1):
        kernels = select_kernels(current, cfg.kernel_mode, cfg.kernels_per_layer, k,
                                 derive_seed(seed, d))
        current = pca_reduce(conv_layer(current, kernels), 3)
        reduced.append(zscore_channels(current.data))
    return np.concatenate(reduced + [raw], axis=2)


@pytest.mark.parametrize(
    "conv, overrides",
    [(True, {}), (False, {}), (True, {"kernels_per_layer": 2})],  # 2: layers of 2 channels
    ids=["True", "False", "True-short-layers"],
)
def test_feature_raster_equals_the_reference_assembly_bit_for_bit(
    scene_files, tmp_path, monkeypatch, conv, overrides
):
    seen = []

    def recording(features, training):
        seen.append(features.data)
        return build_samples(features, training)

    monkeypatch.setattr(pipeline, "build_samples", recording)
    t1, t2, _ = scene_files
    cfg = PipelineConfig(t1=t1, t2=t2, out_dir=tmp_path / "o", seed=3, conv=conv,
                         clean=False, depth=2, **overrides)
    run_pipeline(cfg)
    i1, i2 = load_raster(t1), load_raster(t2)
    channels = np.stack([i1.band(0), i2.band(0), log_ratio_di(i1, i2).band(0)], axis=2)
    expected = _reference_features(
        channels, cfg, derive_seed(cfg.seed, pipeline.STAGE_FEATURES)
    )
    per_layer = min(3, cfg.kernels_per_layer)
    assert seen[0].shape == (64, 64, per_layer * cfg.depth + 3 if conv else 3)
    np.testing.assert_array_equal(seen[0], expected)


def test_the_feature_raster_is_written_once(tmp_path, monkeypatch):
    """The classifier gets the very array that the stack returned, and the
    ``features`` stage's traced peak at 256x256 stays under 16.4 MB.

    With n pixels, m = 30 kernels of k = 5 over the c = 3 input channels
    and depth 4, the bound, in float64, is:
    - the feature raster, n * (3 * depth + c) (7.9 MB);
    - the stacked (t1, t2, difference) channels, n * c (1.6 MB);
    - a layer's input and its reduction, n * 3 each (3.1 MB);
    - one activation temporary, n * 3 (1.6 MB);
    - one block of ``_TILE_PIXELS`` pixels: its im2col columns and kernel
      responses, c * k * k + m each (1.7 MB);
    - 0.5 MB for the kernels and the per-channel statistics.
    A join that copies the stack's output into the raster holds both at
    once (264 B/px, 17.3 MB) and breaks the bound.
    """
    n, m, c, k, depth = 256 * 256, 30, 3, 5, 4
    stacked, received, peaks = [], [], []

    def stacking(*args, **kwargs):
        stacked.append(stack_features(*args, **kwargs))
        return stacked[-1]

    def recording(features, training):
        received.append(features.data)
        return build_samples(features, training)

    def tracing(self, stage, fn, *args, **kwargs):
        if stage != "features":
            return run(self, stage, fn, *args, **kwargs)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            result = run(self, stage, fn, *args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1] - entry)
        finally:
            tracemalloc.stop()
        return result

    run = pipeline._StageTimer.run
    monkeypatch.setattr(pipeline, "stack_features", stacking)
    monkeypatch.setattr(pipeline, "build_samples", recording)
    monkeypatch.setattr(pipeline._StageTimer, "run", tracing)
    spec = replace(default_scene(seed=1), width=256, height=256)
    t1, t2, _ = write_scene(spec, tmp_path / "scene")
    cfg = PipelineConfig(t1=t1, t2=t2, out_dir=tmp_path / "o", seed=1, clean=False)
    assert (cfg.kernels_per_layer, cfg.kernel_size, cfg.depth) == (m, k, depth)
    run_pipeline(cfg)
    assert received[0] is stacked[0].data
    bound = 8 * (n * (3 * depth + c) + n * c + 3 * n * 3 + _TILE_PIXELS * (c * k * k + m)) + 2**19
    assert peaks[0] < bound, (peaks[0], bound)


BAD_FIELD_VALUES = [
    ("alpha", 1.0), ("patch_size", 4), ("sample_ratio", 0), ("depth", 0), ("depth", True),
    ("kernels_per_layer", 0), ("kernel_size", 4), ("kernel_mode", "learned"), ("rounds", 2.0),
    ("labeled_fraction", 1.5), ("n_regions", 0), ("compactness", -1.0),
    ("svm_c", float("inf")), ("svm_c", 0.0), ("seed", -1), ("clean", "false"), ("conv", 0),
    # NaN fails every comparison, so a range rule must reject it rather than let it through.
    ("alpha", float("nan")), ("sample_ratio", float("nan")), ("labeled_fraction", float("nan")),
    ("compactness", float("nan")), ("compactness", float("-inf")), ("svm_c", float("nan")),
]


@pytest.mark.parametrize("field, value", BAD_FIELD_VALUES)
def test_config_is_checked_when_built_or_replaced(field, value):
    with pytest.raises(ParameterError, match=field):
        PipelineConfig(**{field: value})
    with pytest.raises(ParameterError, match=field):
        replace(PipelineConfig(), **{field: value})


@pytest.mark.parametrize("field", ["compactness", "svm_c"])
def test_an_int_too_large_for_a_float_is_not_a_finite_number(field):
    with pytest.raises(ParameterError, match=f"^{field} must be a finite number"):
        PipelineConfig(**{field: 10**400})


def test_every_settable_field_has_a_rule():
    paths = {"t1", "t2", "gt", "out_dir"}
    assert set(_FIELD_RULES) == {f.name for f in fields(PipelineConfig)} - paths


def _stage_calls():
    """field -> calls of the stage functions that take its value raw."""
    rng = np.random.default_rng(0)
    img = Raster.from_array(rng.random((16, 16)))
    labels = LabelField(labels=rng.choice([UNLABELED, UNCHANGED, CHANGED], size=(16, 16)))
    rm = segment_superpixels(img, 4)
    y0 = np.eye(2)[rng.integers(0, 2, size=256)]
    x = rng.normal(size=(20, 2))
    y = np.where(x[:, 0] > 0, 1.0, -1.0)
    return {
        "patch_size": [lambda v: preclassify_di(img, v)],
        "sample_ratio": [lambda v: sample_training(labels, v)],
        "alpha": [lambda v: propagate(img, rm, y0, v)],
        "n_regions": [lambda v: segment_superpixels(img, v)],
        "compactness": [lambda v: segment_superpixels(img, 4, v)],
        "kernel_mode": [lambda v: select_kernels(img, v, 2, 3)],
        "kernels_per_layer": [lambda v: select_kernels(img, "random", v, 3)],
        "kernel_size": [lambda v: select_kernels(img, "random", 2, v)],
        "svm_c": [lambda v: train_svm(x, y, v)],
        "seed": [
            lambda v: derive_seed(v, 1),
            lambda v: sample_training(labels, 0.5, seed=v),
            lambda v: kmeans_cluster(x, seed=v),
            lambda v: select_kernels(img, "random", 2, 3, seed=v),
            lambda v: SceneSpec(width=8, height=8, seed=v),
        ],
    }


_STAGE_FIELDS = sorted(_stage_calls())
_INTEGER_FIELDS = ["kernel_size", "kernels_per_layer", "n_regions", "patch_size", "seed"]


@pytest.mark.parametrize("field, value", [
    (field, value) for field, value in BAD_FIELD_VALUES if field in _STAGE_FIELDS
] + [(field, 2.5) for field in _INTEGER_FIELDS] + [(field, True) for field in _STAGE_FIELDS])
def test_stage_functions_check_raw_values_with_the_config_rule(field, value):
    with pytest.raises(ParameterError) as built:
        PipelineConfig(**{field: value})
    for call in _stage_calls()[field]:
        with pytest.raises(ParameterError) as called:
            call(value)
        assert str(called.value) == str(built.value)


def test_cli_run_with_a_one_class_reference_writes_a_null_auc(scene_files, tmp_path, capsys):
    t1, t2, _ = scene_files
    gt = tmp_path / "no_change.pgm"
    save_raster(Raster.from_array(np.zeros((64, 64))), gt)
    out = tmp_path / "o"
    code = main(["run", "--t1", str(t1), "--t2", str(t2), "--gt", str(gt),
                 "--out-dir", str(out), "--seed", "1"])
    assert code == 0
    assert "auc=n/a" in capsys.readouterr().out
    for name in ("change_map.pgm", "scores.f32"):
        assert (out / name).exists()
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["auc"] is None
    assert metrics["tp"] == metrics["fn"] == 0
    assert metrics["fp"] + metrics["tn"] == 64 * 64
    assert metrics["pcc"] == metrics["tn"] / (64 * 64)
    assert metrics["kc"] == 0.0 and metrics["f1"] == 0.0
    assert (out / "roc.csv").read_text() == "fpr,tpr\n"


def test_bench_row_with_a_one_class_reference_has_a_null_auc(tmp_path):
    spec = replace(small_scene(seed=2), changes=())
    summary = run_synth_bench(spec, n_seeds=2, out_dir=tmp_path, rows={"1": ABLATION_ROWS["1"]})
    row = json.loads((tmp_path / "summary.json").read_text())["rows"]["1"]
    assert row == summary["rows"]["1"]
    assert row["auc"] == {"mean": None, "stdev": None}
    assert 0.0 <= row["pcc"]["mean"] <= 1.0


@pytest.mark.parametrize("row", sorted(ABLATION_ROWS))
def test_identical_pair_gives_an_all_unchanged_map(tmp_path, row):
    image = Raster.from_array(np.random.default_rng(0).gamma(4.0, 0.25, size=(64, 64)))
    paths = [tmp_path / "t1.f32", tmp_path / "t2.f32"]
    for path in paths:
        save_raster(image, path)
    cfg = PipelineConfig(t1=paths[0], t2=paths[1], out_dir=tmp_path / "o", seed=1,
                         **ABLATION_ROWS[row])
    result = run_pipeline(cfg)
    assert (result.change.labels == UNCHANGED).all()
    assert (load_raster(result.change_map_path).band(0) == 0.0).all()


@pytest.mark.parametrize("row", ["1", "3", "4", "6"])
@pytest.mark.parametrize("levels", [(0.5, 0.5), (0.5, 2.0)])
def test_a_flat_pair_gives_an_all_unchanged_map(tmp_path, row, levels):
    # Every feature column is flat, so z-scored to zero: the model is its bias alone.
    # With the convolution on, the flat input adds no layer to convolve.
    paths = [tmp_path / "t1.f32", tmp_path / "t2.f32"]
    for level, path in zip(levels, paths):
        save_raster(Raster.from_array(np.full((64, 64), level)), path)
    cfg = PipelineConfig(t1=paths[0], t2=paths[1], out_dir=tmp_path / "o", seed=1,
                         **ABLATION_ROWS[row])
    result = run_pipeline(cfg)
    assert (result.change.labels == UNCHANGED).all()
    assert (load_raster(result.change_map_path).band(0) == 0.0).all()


def test_config_overrides_rejects_unknown_fields():
    with pytest.raises(ParameterError):
        config_overrides(PipelineConfig(), {"not_a_field": 1})


def test_bench_single_seed_summary(tmp_path):
    summary = run_synth_bench(small_scene(), {"depth": 2}, n_seeds=1,
                              out_dir=tmp_path / "bench")
    assert summary["n_seeds"] == 1
    assert set(summary["rows"]) == set(ABLATION_ROWS)
    for row in summary["rows"].values():
        for metric in ("pcc", "kc", "f1", "auc"):
            assert 0.0 <= row[metric]["mean"] <= 1.0
            assert row[metric]["stdev"] == 0.0  # single seed
        assert "total" in row["stage_seconds"]
    assert (tmp_path / "bench" / "summary.json").exists()


def test_cli_bench_sweep_rows_and_unknown_field(tmp_path, capsys):
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(small_scene(seed=1).to_json())
    out = tmp_path / "sweep"
    code = main([
        "bench", "--scene", str(scene_path), "--seeds", "1", "--out-dir", str(out),
        "--no-clean", "--sweep", "depth=1,2",
    ])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_seeds"] == 1
    assert list(summary["rows"]) == ["depth=1", "depth=2"]
    for row in summary["rows"].values():
        assert 0.0 <= row["pcc"]["mean"] <= 1.0
        assert row["pcc"]["stdev"] == 0.0
    capsys.readouterr()

    code = main(["bench", "--scene", str(scene_path), "--seeds", "1",
                 "--out-dir", str(tmp_path / "bad"), "--sweep", "no_such_field=1,2"])
    assert code == 1
    assert "unknown config fields" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()  # rejected before any scene is written
    assert main(["bench", "--sweep", "depth"]) == 1
    capsys.readouterr()

    bad_values = [
        "depth=0", "depth=x", "kernel_size=4", "kernels_per_layer=0", "rounds=0",
        "svm_c=-1", "svm_epochs=0", "patch_size=4", "labeled_fraction=0",
        "n_regions=0", "alpha=x", "compactness=NaN", "compactness=Infinity",
        "compactness=-1", "svm_c=Infinity",
        "clean=False",
    ]
    for sweep in bad_values:
        out = tmp_path / "bad_value"
        code = main(["bench", "--scene", str(scene_path), "--seeds", "1",
                     "--out-dir", str(out), "--sweep", sweep])
        assert code == 1, sweep
        assert sweep.partition("=")[0] in capsys.readouterr().err, sweep
        assert not out.exists(), sweep


@pytest.mark.parametrize("flag, content", [
    ("--config", None),  # missing file
    ("--config", '{"depth": 2'),  # truncated
    ("--config", "[1, 2]"),  # not an object
    ("--scene", '{"width": 32}'),  # no height
    ("--scene", '{"width": 32, "height": 32, "base": []}'),
], ids=["config-missing", "config-truncated", "config-list", "scene-no-height", "scene-base-list"])
def test_cli_malformed_json_is_an_error_not_a_traceback(tmp_path, capsys, flag, content):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content)
    out = tmp_path / "bench"
    code = main(["bench", "--seeds", "1", "--out-dir", str(out), flag, str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("geometry", [
    {"width": 32.7}, {"changes": [{"kind": "rect", "top": 1.9, "left": 0, "height": 4,
                                   "width": 4, "multiplier": 2.0}]},
], ids=["width-fraction", "top-fraction"])
def test_cli_synth_fractional_geometry_is_an_error_not_a_traceback(tmp_path, capsys, geometry):
    scene_path = tmp_path / "bad.json"
    scene_path.write_text(json.dumps({**small_scene().to_dict(), **geometry}))
    out = tmp_path / "scene_out"
    assert main(["synth", "--scene", str(scene_path), "--out-dir", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: "), captured.err
    assert "must be an integer" in captured.err
    assert "Traceback" not in captured.out + captured.err
    assert not out.exists()


def test_cli_synth_non_numeric_scene_field_is_an_error_not_a_traceback(tmp_path, capsys):
    scene_path = tmp_path / "bad.json"
    scene_path.write_text(json.dumps({**small_scene().to_dict(), "looks": "4"}))
    out = tmp_path / "scene_out"
    assert main(["synth", "--scene", str(scene_path), "--out-dir", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: looks must be a finite number > 0, got '4'"), captured.err
    assert "Traceback" not in captured.out + captured.err
    assert not out.exists()


def test_an_out_dir_that_is_a_file_fails_before_load(tmp_path, monkeypatch, scene_files):
    def not_reached(*args, **kwargs):
        raise AssertionError("a stage ran although the output directory is a file")

    monkeypatch.setattr(pipeline, "load_raster", not_reached)
    monkeypatch.setattr(pipeline, "preclassify_di", not_reached)
    afile = tmp_path / "afile"
    afile.write_text("")
    t1, t2, gt = scene_files
    with pytest.raises(ParameterError, match=f"output directory {afile}: "):
        run_pipeline(PipelineConfig(t1=t1, t2=t2, gt=gt, out_dir=afile))


@pytest.mark.parametrize("command", [
    ["run", "--t1", "t1.f32", "--t2", "t2.f32"], ["synth"], ["bench", "--seeds", "1"],
], ids=["run", "synth", "bench"])
def test_cli_out_dir_that_is_a_file_is_an_error_not_a_traceback(tmp_path, capsys, command):
    afile = tmp_path / "afile"
    afile.write_text("")
    assert main(command + ["--out-dir", str(afile)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: "), captured.err
    assert "cannot create output directory" in captured.err
    assert "Traceback" not in captured.out + captured.err
    assert afile.read_text() == ""


@pytest.mark.parametrize("source, seed", [
    ("flag", "-1"), ("scene", -1), ("scene", 1.5),
], ids=["flag-negative", "scene-negative", "scene-fraction"])
def test_cli_synth_bad_seed_is_an_error_not_a_traceback(tmp_path, capsys, source, seed):
    out = tmp_path / "scene_out"
    argv = ["synth", "--out-dir", str(out)]
    if source == "flag":
        argv += ["--seed", seed]
    else:
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps({**small_scene().to_dict(), "seed": seed}))
        argv += ["--scene", str(scene_path)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: seed must be"), captured.err
    assert "Traceback" not in captured.out + captured.err
    assert not out.exists()


def test_cli_synth_then_run_and_config_precedence(tmp_path, capsys):
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(small_scene(seed=2).to_json())
    out_scene = tmp_path / "scene_out"
    assert main(["synth", "--scene", str(scene_path), "--out-dir", str(out_scene)]) == 0
    for name in ("t1.f32", "t2.f32", "gt.pgm", "scene.json"):
        assert (out_scene / name).exists()

    config_path = tmp_path / "overrides.json"
    config_path.write_text(json.dumps({"depth": 2, "alpha": 0.6, "rounds": 4}))
    out_run = tmp_path / "run_out"
    code = main([
        "run",
        "--t1", str(out_scene / "t1.f32"),
        "--t2", str(out_scene / "t2.f32"),
        "--gt", str(out_scene / "gt.pgm"),
        "--out-dir", str(out_run),
        "--config", str(config_path),
        "--alpha", "0.7",  # explicit flag beats the config file
        "--seed", "5",
    ])
    assert code == 0
    assert (out_run / "change_map.pgm").exists()
    assert (out_run / "metrics.json").exists()
    printed = capsys.readouterr().out
    assert "pcc=" in printed


def test_cli_reports_stage_errors_with_nonzero_exit(tmp_path, capsys):
    code = main([
        "run", "--t1", str(tmp_path / "nope.f32"), "--t2", str(tmp_path / "nope.f32"),
        "--out-dir", str(tmp_path / "o"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "load" in err and f"cannot read raster {tmp_path / 'nope.f32'}: " in err
    assert "nope.f32.json" not in err


def test_cli_run_into_a_closed_pipe_exits_without_a_traceback(scene_files, tmp_path):
    t1, t2, gt = scene_files
    out = tmp_path / "o"
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    argv = [sys.executable, "-m", "sarchange", "run", "--t1", str(t1), "--t2", str(t2),
            "--gt", str(gt), "--out-dir", str(out), "--depth", "1", "--rounds", "2"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # the reader goes away before the first line
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in stderr, stderr
    for name in ("change_map.pgm", "scores.f32", "metrics.json"):
        assert (out / name).exists()


def test_runtime_imports_no_scipy():
    """Importing every module of the package, and the CLI's help, load numpy
    but no scipy module; ``-X importtime`` lists each module loaded."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    import_all = ("import importlib, pkgutil, sarchange\n"
                  "for m in pkgutil.walk_packages(sarchange.__path__, 'sarchange.'):\n"
                  "    importlib.import_module(m.name)")
    for argv in (["-c", import_all], ["-m", "sarchange", "--help"]):
        proc = subprocess.run([sys.executable, "-X", "importtime", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        loaded = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                  if line.startswith("import time:")}
        assert {"numpy", "sarchange.pipeline"} <= loaded, argv
        assert not [m for m in loaded if m == "scipy" or m.startswith("scipy.")], argv


def test_cli_no_clean_no_conv_flags(tmp_path):
    scene_dir = tmp_path / "s"
    assert main(["synth", "--out-dir", str(scene_dir), "--seed", "3"]) == 0
    out = tmp_path / "fast"
    code = main([
        "run",
        "--t1", str(scene_dir / "t1.f32"),
        "--t2", str(scene_dir / "t2.f32"),
        "--out-dir", str(out),
        "--no-clean", "--no-conv",
    ])
    assert code == 0
    scores = load_raster(out / "scores.f32")
    assert scores.channels == 1


# One command-line value for every settable field: (tokens, value in the config).
FLAG_VALUES = {
    "alpha": (["--alpha", "0.6"], 0.6),
    "patch_size": (["--patch-size", "9"], 9),
    "sample_ratio": (["--sample-ratio", "0.2"], 0.2),
    "depth": (["--depth", "2"], 2),
    "kernels_per_layer": (["--kernels-per-layer", "12"], 12),
    "kernel_size": (["--kernel-size", "3"], 3),
    "kernel_mode": (["--kernel-mode", "random"], "random"),
    "clean": (["--no-clean"], False),
    "conv": (["--no-conv"], False),
    "rounds": (["--rounds", "3"], 3),
    "labeled_fraction": (["--labeled-fraction", "0.4"], 0.4),
    "n_regions": (["--n-regions", "50"], 50),
    "compactness": (["--compactness", "5.5"], 5.5),
    "svm_c": (["--svm-c", "2.5"], 2.5),
    "seed": (["--seed", "7"], 7),
}


def run_cli_capturing_config(monkeypatch, tmp_path, flags):
    """Run ``sarchange run`` with ``flags``; return the config it would run."""
    seen = []

    def fake_run(cfg):
        seen.append(cfg)
        return SimpleNamespace(change_map_path="m", scores_path="s", report=None,
                               timings={"total": 0.0})

    monkeypatch.setattr(cli, "run_pipeline", fake_run)
    argv = ["run", "--t1", "a.f32", "--t2", "b.f32", "--out-dir", str(tmp_path / "o")]
    assert main(argv + flags) == 0
    return seen[0]


def test_cli_has_one_flag_per_config_field(tmp_path, monkeypatch):
    paths = {"t1", "t2", "gt", "out_dir"}
    assert set(FLAG_VALUES) == {f.name for f in fields(PipelineConfig)} - paths
    flags = [token for tokens, _ in FLAG_VALUES.values() for token in tokens]
    cfg = run_cli_capturing_config(monkeypatch, tmp_path, flags)
    for name, (_, value) in FLAG_VALUES.items():
        assert getattr(cfg, name) == value, name


def test_cli_flag_overrides_config_file_with_null(tmp_path, monkeypatch):
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps({"n_regions": 40, "kernels_per_layer": 8}))
    cfg = run_cli_capturing_config(
        monkeypatch, tmp_path, ["--config", str(config_path), "--n-regions", "null"])
    assert cfg.n_regions is None and cfg.kernels_per_layer == 8
    # A unique prefix of a flag still reads as the flag.
    cfg = run_cli_capturing_config(monkeypatch, tmp_path, ["--kernels", "9"])
    assert cfg.kernels_per_layer == 9


@pytest.mark.parametrize("flag, value, field", [
    ("--seed", "1.5", "seed"),
    ("--kernel-mode", "x", "kernel_mode"),
    ("--compactness", "-1", "compactness"),
    ("--compactness=-inf", None, "compactness"),
])
def test_cli_bad_flag_value_names_the_field(tmp_path, capsys, flag, value, field):
    out = tmp_path / "o"
    argv = ["run", "--t1", "a.f32", "--t2", "b.f32", "--out-dir", str(out), flag]
    assert main(argv + ([value] if value is not None else [])) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be"), err
    assert not out.exists()


def test_cli_dash_value_needs_the_equals_form(tmp_path, capsys):
    # argparse reads "-inf" after a space as a flag, not as a value.
    with pytest.raises(SystemExit) as exc:
        main(["run", "--t1", "a.f32", "--t2", "b.f32", "--compactness", "-inf"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err
