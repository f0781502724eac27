"""End-to-end orchestration of the change-detection pipeline.

Stages: load the acquisition pair and any reference, build the log-ratio
difference image, cluster it into pseudo-labels, draw the training
subset, optionally clean the labels by region-constrained propagation,
build features (patch convolution stack or the pointwise fallback),
train the linear classifier, predict the change map, and score it
against the reference when one is supplied.

Every stochastic stage derives its seed from the configured root seed
and a fixed stage index, so toggling one ablation flag leaves the other
stages' randomness untouched and paired comparisons stay paired.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import metrics as metrics_mod
from .config import PipelineConfig
from .difference import box_mean, log_ratio_di, zscore_channels
from .errors import ParameterError, PipelineStageError, ShapeError
from .labels import CHANGED, UNCHANGED, LabelField
from .patch_features import check_shape, stack_features
from .preclassify import preclassify_di, sample_training
from .propagation import clean_labels
from .raster import Raster, load_raster, make_out_dir, save_raster
from .seeds import derive_seed
from .svm import build_samples, predict_map, train_svm
from .synth import SceneSpec, write_scene

# Per-stage seed derivation indices (frozen; new stages append).
STAGE_PRECLASSIFY = 1
STAGE_SAMPLE = 2
STAGE_CLEAN = 3
STAGE_FEATURES = 4


@dataclass
class PipelineResult:
    change_map_path: Path
    scores_path: Path
    metrics_path: Path | None
    timing_path: Path
    report: metrics_mod.MetricReport | None
    timings: dict[str, float]
    change: LabelField
    scores: Raster


class _StageTimer:
    def __init__(self):
        self.timings: dict[str, float] = {}
        self._t0 = time.perf_counter()

    def run(self, stage: str, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            raise PipelineStageError(stage, exc) from exc
        self.timings[stage] = time.perf_counter() - start
        return result

    def total(self) -> float:
        return time.perf_counter() - self._t0


def _load(cfg: PipelineConfig) -> tuple[Raster, Raster, LabelField | None]:
    """The acquisition pair and, when configured, the reference as labels,
    which must have the pair's shape."""
    i1, i2 = load_raster(cfg.t1), load_raster(cfg.t2)
    if cfg.gt is None:
        return i1, i2, None
    gt = load_raster(cfg.gt)
    if (gt.height, gt.width) != (i1.height, i1.width):
        raise ShapeError(
            f"reference {gt.height}x{gt.width} and t1 {i1.height}x{i1.width} disagree"
        )
    return i1, i2, LabelField(
        labels=np.where(gt.band(0) > 0.5, CHANGED, UNCHANGED).astype(np.int8)
    )


def run_pipeline(cfg: PipelineConfig) -> PipelineResult:
    """Execute the full pipeline and write its artifacts to ``cfg.out_dir``.

    Writes ``change_map.pgm`` (0/255), ``scores.f32`` (+ JSON sidecar) and
    ``timing.json`` always; ``metrics.json`` and ``roc.csv`` only when a
    ground-truth path is configured, both from the scores as written, so
    they can be reproduced from ``scores.f32``.  Deterministic: identical
    configurations produce byte-identical change map, scores and metrics.
    """
    out_dir = make_out_dir(cfg.out_dir)
    timer = _StageTimer()

    i1, i2, gt = timer.run("load", _load, cfg)
    if cfg.conv:
        check_shape(cfg, i1.height, i1.width)
    di = timer.run("difference", log_ratio_di, i1, i2)
    pseudo = timer.run(
        "preclassify", preclassify_di, di, cfg.patch_size,
        derive_seed(cfg.seed, STAGE_PRECLASSIFY),
    )
    training = timer.run(
        "sample", sample_training, pseudo, cfg.sample_ratio,
        derive_seed(cfg.seed, STAGE_SAMPLE),
    )
    if cfg.clean:
        # Segment the contextually smoothed difference image: regions that
        # follow raw speckle texture scramble the propagation domains.
        training = timer.run("clean", lambda: clean_labels(
            Raster.from_array(box_mean(di.band(0), cfg.patch_size)), training, cfg,
            derive_seed(cfg.seed, STAGE_CLEAN),
        ))

    def _features():
        channels = Raster(np.stack([i1.band(0), i2.band(0), di.band(0)], axis=2))
        if cfg.conv:
            return stack_features(channels, cfg, derive_seed(cfg.seed, STAGE_FEATURES))
        return Raster(zscore_channels(channels.data))

    features = timer.run("features", _features)

    model = timer.run("train", lambda: train_svm(*build_samples(features, training), cfg.svm_c))
    change, scores = timer.run("predict", predict_map, model, features)
    del features  # so the metrics stage's temporaries do not stack on top of it
    scores = Raster(scores.data.astype(np.float32))  # the values scores.f32 holds

    report = None
    curve = None
    if gt is not None:
        report, curve = timer.run("metrics", metrics_mod.evaluate, change, gt, scores)

    change_path = out_dir / "change_map.pgm"
    scores_path = out_dir / "scores.f32"
    save_raster(Raster.from_array(change.labels.astype(np.float64)), change_path)
    save_raster(scores, scores_path)
    metrics_path = None
    if report is not None:
        metrics_path = out_dir / "metrics.json"
        metrics_path.write_text(report.to_json())
        metrics_mod.write_roc_csv(curve, out_dir / "roc.csv")
    timings = dict(timer.timings)
    timings["total"] = timer.total()
    timing_path = out_dir / "timing.json"
    timing_path.write_text(json.dumps(timings, indent=2, sort_keys=True))
    return PipelineResult(
        change_map_path=change_path,
        scores_path=scores_path,
        metrics_path=metrics_path,
        timing_path=timing_path,
        report=report,
        timings=timings,
        change=change,
        scores=scores,
    )


# The four ablation configurations benchmarked against each other:
# 1: no convolution stack, no label cleaning (pointwise baseline)
# 3: random-patch convolution, no cleaning
# 4: no convolution stack, cleaning on
# 6: distinctive-patch convolution, cleaning on (the full method)
ABLATION_ROWS: dict[str, dict] = {
    "1": {"conv": False, "clean": False},
    "3": {"conv": True, "kernel_mode": "random", "clean": False},
    "4": {"conv": False, "clean": True},
    "6": {"conv": True, "kernel_mode": "distinctive", "clean": True},
}


def config_overrides(cfg: PipelineConfig, overrides: dict) -> PipelineConfig:
    names = {f.name for f in fields(PipelineConfig)}
    unknown = set(overrides) - names
    if unknown:
        raise ParameterError(f"unknown config fields: {sorted(unknown)}")
    return replace(cfg, **overrides)


def run_synth_bench(
    spec: SceneSpec,
    overrides: dict | None = None,
    n_seeds: int = 5,
    out_dir: str | Path = "bench_out",
    rows: dict[str, dict] = ABLATION_ROWS,
) -> dict:
    """Benchmark configuration rows on generated scenes.

    ``rows`` maps a row name to config overrides applied on top of
    ``overrides``; the default is the four-row ablation grid.  For each of
    ``n_seeds`` scene realisations, runs every row with paired pipeline
    seeds and reports per-row mean/stdev of PCC/KC/F1/AUC plus mean
    per-stage wall-clock seconds; a row's AUC mean and stdev are None
    when one of its scenes has a one-class reference.  The summary is
    returned and written to ``<out_dir>/summary.json``.
    """
    if n_seeds < 1:
        raise ParameterError(f"n_seeds must be >= 1, got {n_seeds}")
    base = config_overrides(PipelineConfig(), overrides or {})
    row_cfgs = {row: config_overrides(base, flags) for row, flags in rows.items()}
    out_dir = Path(out_dir)

    per_row: dict[str, dict[str, list[float]]] = {
        row: {"pcc": [], "kc": [], "f1": [], "auc": []} for row in rows
    }
    stage_seconds: dict[str, dict[str, list[float]]] = {row: {} for row in rows}
    for s in range(n_seeds):
        scene_dir = out_dir / f"scene_{s}"
        t1, t2, gt = write_scene(replace(spec, seed=derive_seed(spec.seed, s)), scene_dir)
        for row, row_cfg in row_cfgs.items():
            cfg = replace(
                row_cfg, t1=t1, t2=t2, gt=gt, out_dir=scene_dir / f"row_{row}",
                seed=row_cfg.seed + s,
            )
            result = run_pipeline(cfg)
            for metric, vals in per_row[row].items():
                vals.append(getattr(result.report, metric))
            for stage, seconds in result.timings.items():
                stage_seconds[row].setdefault(stage, []).append(seconds)
    summary = {
        "n_seeds": n_seeds,
        "scene": spec.to_dict(),
        "rows": {
            row: {
                **{
                    metric: {"mean": None, "stdev": None} if None in vals else {
                        "mean": float(np.mean(vals)),
                        "stdev": float(np.std(vals)),
                    }
                    for metric, vals in row_metrics.items()
                },
                "stage_seconds": {
                    stage: float(np.mean(vals))
                    for stage, vals in stage_seconds[row].items()
                },
            }
            for row, row_metrics in per_row.items()
        },
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    return summary
