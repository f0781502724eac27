"""End-to-end orchestration of the change-detection pipeline.

Stages: load the acquisition pair, build the log-ratio difference image,
cluster it into pseudo-labels, draw the training subset, optionally clean
the labels by region-constrained propagation, build features (patch
convolution stack or the pointwise fallback), train the linear
classifier, predict the change map, and score it against ground truth
when one is supplied.

Every stochastic stage derives its seed from the configured root seed
and a fixed stage index, so toggling one ablation flag leaves the other
stages' randomness untouched and paired comparisons stay paired.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, fields, replace
from numbers import Integral, Real
from pathlib import Path

import numpy as np
from scipy import ndimage

from . import metrics as metrics_mod
from .difference import log_ratio_di
from .errors import ParameterError, PipelineStageError
from .labels import CHANGED, UNCHANGED, LabelField
from .patch_features import StackConfig, stack_features, zscore_channels
from .preclassify import preclassify_di, sample_training
from .propagation import CleanConfig, clean_labels
from .raster import Raster, detect_format, load_raster, save_raster
from .seeds import derive_seed
from .svm import build_samples, predict_map, train_svm
from .synth import SceneSpec, with_seed, write_scene

# Per-stage seed derivation indices (frozen; new stages append).
STAGE_PRECLASSIFY = 1
STAGE_SAMPLE = 2
STAGE_CLEAN = 3
STAGE_FEATURES = 4


@dataclass(frozen=True)
class PipelineConfig:
    t1: str | Path = ""
    t2: str | Path = ""
    gt: str | Path | None = None
    out_dir: str | Path = "out"

    alpha: float = 0.7            # anchor weight in label propagation
    patch_size: int = 7           # neighbourhood for preclassification features
    sample_ratio: float = 0.12    # fraction of pixels kept as training labels
    depth: int = 4                # convolution layers in the feature stack
    kernels_per_layer: int = 30
    kernel_size: int = 5
    threshold: float = 0.7        # distinctive-region activation threshold
    kernel_mode: str = "distinctive"
    clean: bool = True            # run label-noise cleaning
    conv: bool = True             # run the convolution stack (else pointwise)
    rounds: int = 10              # cleaning rounds for the majority vote
    labeled_fraction: float = 0.5
    n_regions: int | None = None  # None: about one region per 64 pixels
    compactness: float = 10.0
    svm_c: float = 1.0
    seed: int = 0

    def validate(self) -> None:
        """Reject, before any stage runs, every value a stage would reject;
        the checks against the image shape stay in the stages."""
        for name, (kind, rule, ok) in _FIELD_RULES.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind) or not ok(value):
                raise ParameterError(f"{name} must be {rule}, got {value!r}")


# (accepted types, rule, check) of every PipelineConfig field a stage reads.
_FIELD_RULES = {
    "alpha": (Real, "a number in (0, 1)", lambda v: 0 < v < 1),
    "patch_size": (Integral, "an odd integer >= 3", lambda v: v >= 3 and v % 2 == 1),
    "sample_ratio": (Real, "a number in (0, 1]", lambda v: 0 < v <= 1),
    "depth": (Integral, "an integer >= 1", lambda v: v >= 1),
    "kernels_per_layer": (Integral, "an integer >= 1", lambda v: v >= 1),
    "kernel_size": (Integral, "an odd integer >= 1", lambda v: v >= 1 and v % 2 == 1),
    "threshold": (Real, "a number", lambda v: True),
    "kernel_mode": (str, "'distinctive' or 'random'", lambda v: v in ("distinctive", "random")),
    "rounds": (Integral, "an integer >= 1", lambda v: v >= 1),
    "labeled_fraction": (Real, "a number in (0, 1]", lambda v: 0 < v <= 1),
    "n_regions": ((Integral, type(None)), "None or an integer >= 1", lambda v: v is None or v >= 1),
    "compactness": (Real, "a number", lambda v: True),
    "svm_c": (Real, "a number > 0", lambda v: v > 0),
    "seed": (Integral, "an integer >= 0", lambda v: v >= 0),
}


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


def _load_input(path: str | Path) -> Raster:
    return load_raster(path, detect_format(path))


def _input_channels(i1: Raster, i2: Raster, di: Raster) -> Raster:
    return Raster(np.stack([i1.band(0), i2.band(0), di.band(0)], axis=2))


def _build_features(
    i1: Raster, i2: Raster, di: Raster, cfg: PipelineConfig, seed: int
) -> Raster:
    """Assemble the per-pixel feature vectors.

    The convolution stack sees the acquisition pair plus the difference
    image, each channel pre-averaged over the kernel footprint and then
    z-scored: the averaging lifts the kernels' signal-to-speckle ratio at
    the kernels' own receptive scale, and the channel balancing keeps the
    change evidence from being drowned by background variance.  The
    z-scored raw triple is appended after the layer channels.  Without
    the stack the z-scored triple alone is the feature vector.
    """
    channels = _input_channels(i1, i2, di)
    if not cfg.conv:
        return Raster(zscore_channels(channels.data))
    k = cfg.kernel_size
    averaged = ndimage.uniform_filter(channels.data, size=(k, k, 1), mode="reflect")
    stack_cfg = StackConfig(
        depth=cfg.depth,
        kernels_per_layer=cfg.kernels_per_layer,
        kernel_size=k,
        threshold=cfg.threshold,
        mode=cfg.kernel_mode,
    )
    layers = stack_features(Raster(zscore_channels(averaged)), stack_cfg, seed)
    return Raster(np.concatenate([layers.data, zscore_channels(channels.data)], axis=2))


def run_pipeline(cfg: PipelineConfig) -> PipelineResult:
    """Execute the full pipeline and write its artifacts to ``cfg.out_dir``.

    Writes ``change_map.pgm`` (0/255), ``scores.f32`` (+ JSON sidecar) and
    ``timing.json`` always; ``metrics.json`` and ``roc.csv`` only when a
    ground-truth path is configured.  Deterministic: identical
    configurations produce byte-identical change map, scores and metrics.
    """
    cfg.validate()
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    timer = _StageTimer()

    i1, i2 = timer.run("load", lambda: (_load_input(cfg.t1), _load_input(cfg.t2)))
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
        clean_cfg = CleanConfig(
            alpha=cfg.alpha,
            n_regions=cfg.n_regions,
            rounds=cfg.rounds,
            labeled_fraction=cfg.labeled_fraction,
            compactness=cfg.compactness,
        )
        # Segment the contextually smoothed difference image: regions that
        # follow raw speckle texture scramble the propagation domains.
        smoothed_di = Raster.from_array(
            ndimage.uniform_filter(di.band(0), size=cfg.patch_size, mode="reflect")
        )
        training = timer.run(
            "clean", clean_labels, smoothed_di, training, clean_cfg,
            derive_seed(cfg.seed, STAGE_CLEAN),
        )
    features = timer.run(
        "features", _build_features, i1, i2, di, cfg,
        derive_seed(cfg.seed, STAGE_FEATURES),
    )

    def _train():
        x, y, scaler = build_samples(features, training)
        return train_svm(x, y, cfg.svm_c, scaler)

    model = timer.run("train", _train)
    change, scores = timer.run("predict", predict_map, model, features)

    report = None
    curve = None
    if cfg.gt is not None:
        gt = timer.run("load_gt", _load_input, cfg.gt)
        gt_labels = LabelField(
            labels=np.where(gt.band(0) > 0.5, CHANGED, UNCHANGED).astype(np.int8)
        )
        report, curve = timer.run(
            "metrics", metrics_mod.evaluate, change, gt_labels, scores
        )

    change_path = out_dir / "change_map.pgm"
    scores_path = out_dir / "scores.f32"
    save_raster(
        Raster.from_array(change.labels.astype(np.float64)), change_path, "pgm8"
    )
    save_raster(scores, scores_path, "f32raw")
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
    per-stage wall-clock seconds.  The summary is returned and written to
    ``<out_dir>/summary.json``.
    """
    if n_seeds < 1:
        raise ParameterError(f"n_seeds must be >= 1, got {n_seeds}")
    base = config_overrides(PipelineConfig(), overrides or {})
    row_cfgs = {row: config_overrides(base, flags) for row, flags in rows.items()}
    for cfg in row_cfgs.values():
        cfg.validate()
    out_dir = Path(out_dir)

    per_row: dict[str, dict[str, list[float]]] = {
        row: {"pcc": [], "kc": [], "f1": [], "auc": []} for row in rows
    }
    stage_seconds: dict[str, dict[str, list[float]]] = {row: {} for row in rows}
    for s in range(n_seeds):
        scene_dir = out_dir / f"scene_{s}"
        t1, t2, gt = write_scene(with_seed(spec, derive_seed(spec.seed, s)), scene_dir)
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
                    metric: {
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
