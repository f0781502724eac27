"""Benchmark of the sarchange change-detection pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload full-256 --seed 0 --seconds 30 --trace 0

Generates the workload's seeded scene pairs as files, runs
``sarchange.pipeline.run_pipeline`` on them from this single process,
checks every run's artifacts, prints each metric by name with its unit
and ends with one JSON line: ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics of untraced
runs repeated for ``--seconds``; ``--trace 1`` reports the per-layer
metrics of one untraced, one traced and one memory pass over the
workload's first scene.  See README.md in this directory.
"""

import os

# Pin the BLAS pool before numpy loads, so every commit runs with the
# same single-threaded setting whatever the environment says.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import layers  # noqa: E402
import scenes  # noqa: E402
import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

HELD_OUT_SEED = 2_718_281_828  # scene seed used only to check the generator
SETUP_REPEATS = 5

# The paper's ablation grid, as PipelineConfig overrides.
ROWS = {
    "1": {"conv": False, "clean": False},
    "3": {"conv": True, "kernel_mode": "random", "clean": False},
    "4": {"conv": False, "clean": True},
    "6": {"conv": True, "kernel_mode": "distinctive", "clean": True},
}
FULL = "6"


@dataclass(frozen=True)
class Workload:
    scale: int                 # scene side is 128 * scale pixels
    looks: float               # speckle looks of both acquisitions
    rows: tuple[str, ...]      # ablation rows run on every scene
    scenes: int                # scenes per run; quality is averaged over them
    pcc_floor: float | None    # gate on the full method's mean PCC over the scenes
    ordering: bool             # mean PCC of row 6 >= row 3 >= row 1


WORKLOADS = {
    "full-256": Workload(2, 4.0, (FULL,), 2, 0.95, False),
    "ablation-128": Workload(1, 4.0, ("1", "3", "4", "6"), 3, 0.95, True),
    "lowlook-256": Workload(2, 2.0, (FULL,), 2, None, False),
}

END_TO_END_UNITS = {
    "run_s": "s", "mpix_per_s": "Mpx/s", "peak_rss_mb": "MB", "setup_s": "s",
    "pcc": "1", "kc": "1", "auc": "1", "pass_ratio": "1",
}


# ---------------------------------------------------------------- setup


def import_package():
    """Import sarchange from this checkout's ``src``; return (pipeline, seconds)."""
    if not (SRC / "sarchange" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import sarchange.pipeline as pipeline
    seconds = time.perf_counter() - start
    if not Path(pipeline.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported sarchange from {pipeline.__file__}, not {SRC}")
    return pipeline, seconds


def fresh_import_seconds() -> float:
    """``import sarchange`` time in a new interpreter (numpy preloaded, as here)."""
    code = ("import time, numpy; t = time.perf_counter(); import sarchange.pipeline; "
            "print(time.perf_counter() - t)")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.split()[-1])


def write_inputs(wl: Workload, seed: int, work: Path) -> list[scenes.Scene]:
    return [scenes.write_scene(work / f"scene{k}", wl.scale, wl.looks,
                               scenes.scene_seed(seed, k)) for k in range(wl.scenes)]


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception as exc:  # the build record is informational only
        blas = {"unavailable": repr(exc)}
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "sarchange": getattr(sys.modules["sarchange"], "__version__", "?"),
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------- checks


def read_pgm(path: Path) -> np.ndarray:
    blob = path.read_bytes()
    head = re.match(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s", blob)
    if head is None or int(head.group(3)) != 255:
        raise ValueError("change map is not an 8-bit binary PGM")
    w, h = int(head.group(1)), int(head.group(2))
    payload = np.frombuffer(blob[head.end():], dtype=np.uint8)
    if payload.size != w * h:
        raise ValueError(f"change map payload {payload.size} bytes, header says {w * h}")
    return payload.reshape(h, w)


def read_f32(path: Path) -> np.ndarray:
    meta = json.loads(path.with_name(path.name + ".json").read_text())
    shape = (int(meta["height"]), int(meta["width"]), int(meta["channels"]))
    data = np.fromfile(path, dtype="<f4")
    if data.size != shape[0] * shape[1] * shape[2]:
        raise ValueError(f"scores payload {data.size} values, sidecar says {shape}")
    return data.reshape(shape)


def auc(scores: np.ndarray, positive: np.ndarray) -> float:
    """Mann-Whitney area under the ROC curve, ties at half credit."""
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    mean_rank = np.cumsum(counts) - (counts - 1) / 2.0
    ranks = mean_rank[inverse.ravel()]
    n_pos = int(positive.sum())
    n_neg = positive.size - n_pos
    return float((ranks[positive].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def check_artifacts(out_dir: Path, truth: np.ndarray) -> tuple[dict, bytes]:
    """Validate one run's change map and scores; return its quality scores
    and a digest of both files.  Raises ValueError on a failed check."""
    change = read_pgm(out_dir / "change_map.pgm")
    scores = read_f32(out_dir / "scores.f32")
    if change.shape != truth.shape or scores.shape != truth.shape + (1,):
        raise ValueError(f"artifact shapes {change.shape}, {scores.shape} != scene {truth.shape}")
    if not np.isin(change, (0, 255)).all():
        raise ValueError("change map holds values other than 0 and 255")
    if not np.isfinite(scores).all():
        raise ValueError("scores hold non-finite values")
    pred = change == 255
    n = truth.size
    tp = int((pred & truth).sum())
    tn = int((~pred & ~truth).sum())
    fp = int((pred & ~truth).sum())
    fn = n - tp - tn - fp
    pcc = (tp + tn) / n
    pre = ((tp + fp) * (tp + fn) + (fn + tn) * (fp + tn)) / (n * n)
    quality = {"pcc": pcc, "kc": (pcc - pre) / (1.0 - pre),
               "auc": auc(scores.ravel(), truth.ravel())}
    digest = hashlib.sha256((out_dir / "change_map.pgm").read_bytes()
                            + (out_dir / "scores.f32").read_bytes()).digest()
    return quality, digest


# ---------------------------------------------------------------- runs


@dataclass
class Run:
    row: str
    seconds: float
    quality: dict | None  # None when the run raised or failed a check
    start: float          # perf_counter when the run began


class Runner:
    """Runs the pipeline and checks each run; artifacts of a (scene, row)
    pair must be byte-identical every time it runs, in any pass."""

    def __init__(self, pipeline, wl: Workload, seed: int, inputs: list[scenes.Scene]):
        self.pipeline, self.wl, self.seed, self.inputs = pipeline, wl, seed, inputs
        self.digests: dict[tuple[int, str], bytes] = {}
        self.runs: list[Run] = []

    def round(self, k: int, out: Path, call) -> float:
        """Run every row of the workload on scene ``k``; return pipeline seconds."""
        scene = self.inputs[k]
        seed = scenes.scene_seed(self.seed, 1000 + k)  # pipeline seed, apart from scene seeds
        total = 0.0
        for row in self.wl.rows:
            cfg = self.pipeline.PipelineConfig(
                t1=scene.t1, t2=scene.t2, gt=scene.gt, out_dir=out / f"scene{k}" / f"row{row}",
                seed=seed, **ROWS[row])
            start = time.perf_counter()
            quality = None
            try:
                seconds = call(cfg, scene.truth)
                quality, digest = check_artifacts(Path(cfg.out_dir), scene.truth)
                first = self.digests.setdefault((k, row), digest)
                if digest != first:
                    raise ValueError("artifacts differ from an earlier run of this scene and row")
            except Exception:  # one failed run must not end the benchmark
                print(f"run failed: scene {k} row {row}", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
                seconds, quality = time.perf_counter() - start, None
            self.runs.append(Run(row, seconds, quality, start))
            total += seconds
        return total

    def untraced(self, cfg, truth) -> float:
        start = time.perf_counter()
        self.pipeline.run_pipeline(cfg)
        return time.perf_counter() - start

    @property
    def failed(self) -> int:
        return sum(r.quality is None for r in self.runs)


def first_pass(runner: Runner, wl: Workload) -> list[Run]:
    """The runs of the first round over each scene."""
    return runner.runs[: wl.scenes * len(wl.rows)]


def quality_problems(runs: list[Run], wl: Workload) -> list[str]:
    """The acceptance gates, on means over the workload's scenes as
    ``tests/test_acceptance.py`` takes them over seeds: full-method PCC at
    least ``pcc_floor``, and with ``ordering`` row 6 >= row 3 >= row 1."""
    rows = ("1", "3", FULL) if wl.ordering else (FULL,)
    pccs = {row: [r.quality["pcc"] for r in runs if r.row == row and r.quality] for row in rows}
    if not all(pccs.values()):
        return ["quality gates unknown: a row has no passing run"]
    mean = {row: round(float(np.mean(v)), 4) for row, v in pccs.items()}
    print(f"mean PCC by row {mean}")
    problems = []
    if wl.pcc_floor and mean[FULL] < wl.pcc_floor:
        problems.append(f"full-method mean PCC {mean[FULL]} below {wl.pcc_floor}")
    if wl.ordering and not mean[FULL] >= mean["3"] >= mean["1"]:
        problems.append(f"ablation ordering broken: mean PCC by row {mean}")
    return problems


def measure(runner: Runner, wl: Workload, seconds: float, setup_s: float) -> dict:
    """Untraced rounds over the workload's scenes, cycling, until every scene
    has run once and another round would end further past ``seconds`` than
    stopping now falls short of it.

    Each run's wall time is scaled to the core's speed while it ran: times
    ``speed.NOMINAL_S`` over the mean probe time sampled during the run.
    ``run_s`` is the mean over the workload's rows of each row's median
    scaled time."""
    rounds = 0
    start = time.perf_counter()
    last = 0.0
    with speed.SpeedProbe() as probe:
        while rounds < wl.scenes or time.perf_counter() - start + last / 2 < seconds:
            last = runner.round(rounds % wl.scenes, WORK / "runs", runner.untraced)
            rounds += 1
            if rounds == wl.scenes:  # the same work on every run, however long it lasts
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    runs = runner.runs
    whole = probe.mean_between(start, time.perf_counter())
    scaled = [r.seconds * speed.NOMINAL_S / (probe.mean_between(r.start, r.start + r.seconds) or whole)
              for r in runs]

    def row_medians(times):
        return statistics.mean(
            statistics.median(t for t, r in zip(times, runs) if r.row == row) for row in wl.rows)

    full = [r for r in first_pass(runner, wl) if r.row == FULL and r.quality]
    side = 128 * wl.scale
    metrics = {
        "run_s": row_medians(scaled),
        "mpix_per_s": len(runs) * side * side / sum(scaled) / 1e6,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
        **{q: float(np.mean([r.quality[q] for r in full])) if full else 0.0
           for q in ("pcc", "kc", "auc")},
        "pass_ratio": 1.0 - runner.failed / len(runs),
    }
    print(f"run_s is the mean over {len(wl.rows)} row(s) of the median over "
          f"{rounds} rounds; {len(runs)} pipeline runs in {time.perf_counter() - start:.1f} s; "
          f"unscaled {row_medians([r.seconds for r in runs]):.4f} s; "
          f"{len(probe.samples)} probes, mean {whole * 1e3:.4f} ms "
          f"(nominal {speed.NOMINAL_S * 1e3} ms)")
    return {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}


def trace(runner: Runner) -> dict:
    """Memory, untraced and traced passes over scene 0; per-layer metrics.

    The memory pass goes first and doubles as the warm-up, so the first-run
    costs of a fresh process fall on neither of the two timed passes."""
    with layers.MemoryProbe() as probe:
        runner.round(0, WORK / "memory", runner.untraced)
    untraced_s = runner.round(0, WORK / "untraced", runner.untraced)
    with layers.Tracer() as tracer:
        traced_s = runner.round(0, WORK / "traced",
                                lambda cfg, truth: tracer.run(runner.pipeline.run_pipeline, cfg, truth))
    missing = sorted(set(tracer.missing) | set(probe.missing))
    if missing:
        print(f"note: bindings not found, their metrics read 0: {missing}", file=sys.stderr)
    (WORK / "spans.json").write_text(json.dumps(
        [[s.name, s.start, s.end, s.parent] for s in tracer.spans]))

    per_layer = tracer.metrics()
    split = {"train_share_of_run": per_layer["svm.train_s"] / traced_s,
             "segment_share_of_clean":
                 per_layer["superpixels.segment_s"] / max(per_layer["propagation.clean_s"], 1e-12),
             "untraced_s": untraced_s, "traced_s": traced_s}
    print("split " + json.dumps(split))
    per_layer.update(probe.peaks)
    per_layer["trace.overhead_s"] = traced_s - untraced_s
    return {name: (value, unit_of(name)) for name, value in per_layer.items()}


def unit_of(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), ("_bytes", "B")):
        if name.endswith(suffix):
            return unit
    return "count" if name in layers.COUNTS else "1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    # One core for the whole process, so that the speed probe's thread
    # samples the core the pipeline runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    setup_start = time.perf_counter()
    with speed.SpeedProbe() as probe:  # set-up is scaled like the runs, see measure()
        pipeline, import_s = import_package()
        shutil.rmtree(WORK, ignore_errors=True)
        WORK.mkdir()
        imports = [import_s] + [fresh_import_seconds() for _ in range(SETUP_REPEATS - 1)]
        writes = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            inputs = write_inputs(wl, args.seed, WORK / "inputs")
            writes.append(time.perf_counter() - start)
    setup_s = ((statistics.median(imports) + statistics.median(writes)) * speed.NOMINAL_S
               / probe.mean_between(setup_start, time.perf_counter()))

    env = environment()
    (WORK / "env.json").write_text(json.dumps(env, indent=2))
    print("env " + json.dumps(env, sort_keys=True))
    problems = scenes.check_generator(wl.scale, wl.looks, HELD_OUT_SEED, inputs[0].truth)

    runner = Runner(pipeline, wl, args.seed, inputs)
    if args.trace:
        metrics = trace(runner)
    else:
        metrics = measure(runner, wl, args.seconds, setup_s)
        # means over the workload's scenes, so not checked when tracing
        problems += quality_problems(first_pass(runner, wl), wl)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0 and not problems,
        "attempted": len(runner.runs),
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
