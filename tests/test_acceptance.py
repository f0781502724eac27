"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one ``[ACCEPTANCE] <name>: PASS|FAIL`` line (visible with
``pytest -s`` or in failure output), so the suite doubles as a release
checklist.  The statistical criteria run the full pipeline on the bundled
synthetic scenes with frozen seeds; everything here is deterministic.
"""

import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import sarchange as sc
from sarchange.labels import CHANGED, UNLABELED, LabelField
from sarchange.metrics import ConfusionCounts, f1, kappa, pcc, roc_auc
from sarchange.patch_features import KernelSet, conv_layer, pca_reduce
from sarchange.pipeline import ABLATION_ROWS, PipelineConfig, config_overrides, run_pipeline
from sarchange.preclassify import sample_training
from sarchange.propagation import build_transition, clean_labels, propagate
from sarchange.raster import Raster
from sarchange.superpixels import RegionMap
from sarchange.svm import train_svm
from scipy import ndimage

from test_patch_features import naive_conv
from test_propagation import one_hot
from test_metrics import pairwise_auc
from test_svm import hinge_objective, hinge_subgradient
from test_synth import inject_label_noise


@contextmanager
def criterion(name):
    try:
        yield
    except Exception:
        print(f"[ACCEPTANCE] {name}: FAIL")
        raise
    print(f"[ACCEPTANCE] {name}: PASS")


def single_region_instance(n, seed):
    rng = np.random.default_rng(seed)
    img = Raster.from_array(rng.random(n)[np.newaxis, :])
    rm = RegionMap(region_id=np.zeros((1, n), dtype=np.int32), region_count=1)
    return img, rm, rng


@pytest.fixture(scope="module")
def grid_runs(tmp_path_factory):
    """Paired ablation runs: rows 1/3/4/6 on scene seeds 0..4 (cfg seed 100+s).

    Returns {(row, scene_seed): (pcc, wall_seconds)}."""
    tmp = tmp_path_factory.mktemp("grid")
    runs = {}
    for s in range(5):
        t1, t2, gt = sc.write_scene(sc.default_scene(seed=s), tmp)
        for row, flags in ABLATION_ROWS.items():
            cfg = config_overrides(
                PipelineConfig(t1=t1, t2=t2, gt=gt, out_dir=tmp / "out",
                               seed=100 + s),
                flags,
            )
            start = time.perf_counter()
            result = run_pipeline(cfg)
            runs[(row, s)] = (result.report.pcc, time.perf_counter() - start)
    return runs


def test_equation_oracles():
    with criterion("equation oracles (pcc/kappa/f1 + accuracy identity)"):
        start = time.perf_counter()
        c = ConfusionCounts(tp=80, fn=20, fp=10, tn=890)
        assert pcc(c) == pytest.approx(0.97, abs=1e-9)
        assert kappa(c) == pytest.approx((0.97 - 0.828) / (1 - 0.828), abs=1e-9)
        assert f1(c) == pytest.approx(160 / 190, abs=1e-9)
        rng = np.random.default_rng(42)
        for _ in range(1000):
            tp, fp, fn = rng.integers(0, 1000, size=3)
            tn = int(rng.integers(1, 1000))
            cc = ConfusionCounts(tp=int(tp), fp=int(fp), fn=int(fn), tn=tn)
            assert pcc(cc) == pytest.approx((cc.tp + cc.tn) / cc.total, abs=1e-12)
        assert time.perf_counter() - start < 1.0


def test_transition_stochasticity():
    with criterion("transition-matrix stochasticity (100 random blocks)"):
        start = time.perf_counter()
        for trial in range(100):
            n = 2 + trial % 29
            img, rm, _ = single_region_instance(n, seed=trial)
            block = build_transition(img.data.reshape(n, 1))
            assert block.min() >= 0.0 and block.max() <= 1.0
            assert np.abs(block.sum(axis=0) - 1.0).max() <= 1e-9
        assert time.perf_counter() - start < 1.0


def test_propagation_matches_closed_form():
    with criterion("propagation fixpoint vs dense linear solve"):
        start = time.perf_counter()
        for trial in range(50):
            n = 2 + trial % 9  # up to 10 pixels
            img, rm, rng = single_region_instance(n, seed=1000 + trial)
            block = build_transition(img.data.reshape(n, 1))
            labels = rng.integers(-1, 2, size=(1, n)).astype(np.int8)
            y0 = one_hot(labels).reshape(n, 2)
            for alpha in (0.6, 0.7, 0.9):
                out = propagate(img, rm, y0, alpha)
                expected = np.linalg.solve(
                    np.eye(n) - alpha * block, (1 - alpha) * y0
                )
                assert np.abs(out - expected).max() <= 1e-10
        assert time.perf_counter() - start < 5.0


def test_label_noise_reduction():
    with criterion("label-noise cleaning (>=18/20 seeds, >=25% mean reduction)"):
        start = time.perf_counter()
        improved = 0
        reductions = []
        for s in range(20):
            spec = sc.default_scene(seed=1000 + s)
            i1, i2, gt = sc.gen_pair(spec)
            di = sc.log_ratio_di(i1, i2)
            # same cleaning input as the pipeline: contextually smoothed map
            smoothed = Raster.from_array(
                ndimage.uniform_filter(di.band(0), size=7, mode="reflect")
            )
            training = sample_training(gt, 0.12, seed=2000 + s)
            noisy = inject_label_noise(training, 0.10, seed=3000 + s)
            mask = noisy.labels != UNLABELED
            before = (noisy.labels[mask] != gt.labels[mask]).mean()
            cleaned = clean_labels(smoothed, noisy, PipelineConfig(), seed=4000 + s)
            after = (cleaned.labels[mask] != gt.labels[mask]).mean()
            improved += after < before
            reductions.append((before - after) / before)
        assert improved >= 18
        assert np.mean(reductions) >= 0.25
        assert time.perf_counter() - start < 120.0


def test_ablation_ordering(grid_runs):
    with criterion("ablation ordering (full >= single branches >= baseline)"):
        means = {
            row: np.mean([grid_runs[(row, s)][0] for s in range(5)])
            for row in ABLATION_ROWS
        }
        assert means["6"] >= means["4"] >= means["1"]
        assert means["6"] >= means["3"] >= means["1"]


def test_distinctive_vs_random_kernels(tmp_path):
    with criterion("distinctive kernels beat random in mean and spread"):
        start = time.perf_counter()
        t1, t2, gt = sc.write_scene(sc.default_scene(seed=0), tmp_path)
        results = {"distinctive": [], "random": []}
        for s in range(10):
            for mode in results:
                # 16 kernels/layer: at the desk scale the default 30 draws
                # average away per-draw selection risk, hiding the contrast
                # this criterion measures.
                cfg = config_overrides(
                    PipelineConfig(t1=t1, t2=t2, gt=gt, out_dir=tmp_path / "o",
                                   seed=200 + s),
                    {"kernel_mode": mode, "kernels_per_layer": 16},
                )
                results[mode].append(run_pipeline(cfg).report.pcc)
        assert np.mean(results["distinctive"]) >= np.mean(results["random"])
        assert np.std(results["distinctive"]) <= np.std(results["random"])
        assert time.perf_counter() - start < 600.0


def test_convolution_and_pca_numerics():
    with criterion("convolution vs naive oracle, pca vs eigen-solve"):
        rng = np.random.default_rng(7)
        for trial in range(20):
            h = int(rng.integers(4, 9))
            w = int(rng.integers(4, 9))
            c = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            values = rng.standard_normal((h, w, c))
            kernels = rng.standard_normal((m, 3, 3, c))
            ks = KernelSet(kernels=kernels, centers=np.zeros((m, 2), dtype=int),
                           mode="random")
            out = conv_layer(Raster(values), ks)
            assert np.abs(out.data - naive_conv(values, kernels)).max() <= 1e-10
        for trial in range(10):
            c = int(rng.integers(2, 6))
            values = rng.standard_normal((12, 12, c)) @ rng.standard_normal((c, c))
            flat = values.reshape(-1, c)
            cov = np.cov(flat, rowvar=False)
            evals = np.sort(np.linalg.eigvalsh(cov))[::-1]
            out = pca_reduce(Raster(values), keep=c)
            got = out.data.reshape(-1, out.channels).var(axis=0, ddof=1)
            assert np.abs(got - evals[: out.channels]).max() <= 1e-8


def test_svm_gradient_and_separable_toy():
    with criterion("hinge subgradient vs finite differences; separable toy"):
        rng = np.random.default_rng(9)
        x = np.vstack([
            rng.normal((-2.0, 0.0), 0.4, size=(30, 2)),
            rng.normal((2.0, 0.0), 0.4, size=(30, 2)),
        ])
        y = np.concatenate([-np.ones(30), np.ones(30)])
        c = 1.3
        eps = 1e-6
        checked = 0
        while checked < 10:
            w = rng.standard_normal(2)
            b = float(rng.standard_normal())
            if np.abs(y * (x @ w + b) - 1.0).min() < 1e-3:
                continue
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
        model = train_svm(x, y, c=1.0)
        assert (np.sign(x @ model.weights + model.bias) == y).all()


def test_auc_against_pairwise_oracle():
    with criterion("trapezoidal AUC equals rank estimator (with ties)"):
        rng = np.random.default_rng(11)
        for trial in range(20):
            scores = rng.standard_normal(200)
            if trial % 2 == 0:
                scores = np.round(scores, 1)  # force tied scores
            positive = rng.random(200) < 0.35
            positive[:2] = [True, False]
            _, auc = roc_auc(
                Raster.from_array(scores.reshape(10, 20)),
                LabelField(labels=positive.reshape(10, 20).astype(np.int8)),
            )
            assert auc == pytest.approx(pairwise_auc(scores, positive), abs=1e-9)


def test_end_to_end_desk_scale(grid_runs):
    with criterion("end-to-end: pcc >= 0.95 over 5 seeds, < 60 s per run"):
        # scene validity: a threshold sweep on the noise-free reflectance
        # ratio must exceed 0.98 accuracy, so the task itself is learnable
        for s in range(5):
            spec = sc.default_scene(seed=s)
            r1, r2 = sc.reflectance_fields(spec)
            gt = sc.change_truth(spec).labels == CHANGED
            evidence = np.abs(np.log(r2 / r1)).ravel()
            best = 0.0
            for thr in np.unique(evidence):
                best = max(best, ((evidence > thr) == gt.ravel()).mean(),
                           ((evidence >= thr) == gt.ravel()).mean())
            assert best >= 0.98
        pccs = [grid_runs[("6", s)][0] for s in range(5)]
        seconds = [grid_runs[("6", s)][1] for s in range(5)]
        assert np.mean(pccs) >= 0.95
        assert max(seconds) < 60.0


def test_cli_determinism(tmp_path):
    with criterion("byte-identical outputs for identical invocations"):
        scene = sc.SceneSpec(
            width=48, height=48,
            base=sc.synth.BaseField(low=0.3, high=0.5),
            changes=((sc.synth.Rect(top=8, left=8, height=12, width=12), 3.0),
                     (sc.synth.Ellipse(row=32.0, col=32.0, r_row=6.0, r_col=8.0), 0.3)),
            looks=4.0, seed=5,
        )
        t1, t2, gt = sc.write_scene(scene, tmp_path)
        # The child interpreter imports the package under test, installed or not.
        src = str(Path(sc.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        blobs = []
        for name in ("first", "second"):
            out = tmp_path / name
            argv = [
                sys.executable, "-m", "sarchange", "run",
                "--t1", str(t1), "--t2", str(t2), "--gt", str(gt),
                "--out-dir", str(out), "--seed", "3",
                "--depth", "2", "--rounds", "4",
            ]
            proc = subprocess.run(argv, capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            blobs.append(
                tuple((out / f).read_bytes()
                      for f in ("change_map.pgm", "scores.f32", "metrics.json"))
            )
        assert blobs[0] == blobs[1]
