"""The benchmark's view of the package.

``perfbench/layers.py`` wraps module bindings by name and reads call
arguments by parameter name; a binding or parameter that goes away only
reports as missing, and its metrics read 0.  One memory pass and one
traced pass over the default scene pin what the harness relies on.
"""

import sys
from pathlib import Path

from sarchange import pipeline
from sarchange.raster import load_raster
from sarchange.synth import default_scene, write_scene

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# Bindings the harness still names although the package dropped them earlier.
STALE = {"pipeline.raw_feature_stack", "propagation.build_weights"}


def test_memory_and_traced_passes_find_every_binding(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # write nothing into perfbench/
    import layers

    t1, t2, gt = write_scene(default_scene(seed=1), tmp_path / "scene")
    truth = load_raster(gt).band(0) > 0.5

    def cfg(name):
        return pipeline.PipelineConfig(t1=t1, t2=t2, gt=gt, out_dir=tmp_path / name, seed=1)

    with layers.MemoryProbe() as probe:
        pipeline.run_pipeline(cfg("memory"))
    with layers.Tracer() as tracer:
        tracer.run(pipeline.run_pipeline, cfg("traced"), truth)

    assert set(probe.missing) <= STALE
    assert set(tracer.missing) <= STALE
    assert all(peak > 0 for peak in probe.peaks.values()), probe.peaks
    metrics = tracer.metrics()
    for name in ("superpixels.regions", "svm.n_train", "svm.support_vectors",
                 "patch_features.pca_channels", "svm.objective"):
        assert metrics[name] > 0, name
    assert metrics["propagation.propagate_calls"] == 1
