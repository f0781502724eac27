"""Digests of the artifacts the benchmark's runs write, for byte-identity checks.

Usage, from the root of a checkout:

    python3 tools/output_digests.py --src <checkout>/src --seeds 1-10 > digests.json

For every perfbench workload, seed, scene and ablation row, writes the
benchmark's scene pair with perfbench's own generator and seeding, runs
``run_pipeline`` of the package under ``--src`` on it once, and prints
one JSON object that maps ``workload/seed/scene/row`` to the sha256 of
each of that run's ``change_map.pgm``, ``scores.f32`` and
``metrics.json``, by file name, plus the run's PCC, KC and AUC as
perfbench scores them, under ``quality``, or to ``"failed"``.  For
every seed it also adds ``synth/<seed>``: the sha256 of every file that
the package's own ``write_scene(default_scene(seed))`` writes, under
``scene/<name>``, and of every file but ``timing.json`` that a default
``run_pipeline`` on that scene writes, under ``run/<name>``, so the
package's writers are covered too.  Two checkouts give byte-identical outputs when their maps
are equal; when they are not, the per-file digests tell which artifacts
moved, for instance how many change maps stayed the same.  The
workloads, rows and seeding are imported from ``perfbench/`` and only
read, so the inputs are exactly the benchmark's, BLAS is pinned to one
thread as there, and nothing is written under ``perfbench/``.  Scenes
and run outputs go to ``.digests_work/<key>/`` at the root of this
checkout, where the key is a digest of the resolved ``--src``: runs on
different checkouts can go on at the same time, and each run first
empties only its own directory.  When the reader closes the pipe before
the map is written, as ``| head`` does, it exits 1 without a traceback.
"""

import sys

sys.dont_write_bytecode = True  # keep perfbench/ free of bytecode caches

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import run as perfbench  # noqa: E402  (pins BLAS before numpy loads)

WORK = ROOT / ".digests_work"
ARTIFACTS = ("change_map.pgm", "scores.f32", "metrics.json")


def work_dir(src: Path) -> Path:
    """The work directory of runs on ``src``, keyed by its resolved path."""
    return WORK / hashlib.sha256(str(src.resolve()).encode()).hexdigest()[:16]


def parse_seeds(spec: str) -> list[int]:
    """Seeds from a range ``"1-10"`` or a single ``"3"``."""
    first, _, last = spec.partition("-")
    return list(range(int(first), int(last or first) + 1))


def file_digests(paths: list[Path], base: Path) -> dict:
    """The sha256 of each file in ``paths``, keyed by its path relative to ``base``."""
    return {p.relative_to(base).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in paths}


def synth_digests(pipeline, synth, seed: int, work: Path) -> dict | str:
    """Digests of the files of ``synth.write_scene(synth.default_scene(seed))``
    and of a default ``pipeline.run_pipeline`` on them, keyed ``scene/<name>``
    and ``run/<name>``; ``"failed"`` when either raises."""
    try:
        t1, t2, gt = synth.write_scene(synth.default_scene(seed), work / "scene")
        pipeline.run_pipeline(pipeline.PipelineConfig(t1=t1, t2=t2, gt=gt, out_dir=work / "run"))
    except Exception:  # a failed run is recorded in the map, as perfbench's are
        return "failed"
    files = sorted((work / "scene").iterdir()) + sorted(
        p for p in (work / "run").iterdir() if p.name != "timing.json"
    )
    return file_digests(files, work)


def output_digests(pipeline, synth, seeds: list[int], workloads: list[str], work: Path) -> dict:
    """Run every (workload, seed, scene, row) once with ``pipeline``, the
    imported ``sarchange.pipeline`` module, and every seed's ``synth/<seed>``
    scene with it and ``synth``, under ``work``; return the map of keys to
    artifact digests and, for workload runs, quality."""
    out = {f"synth/{seed}": synth_digests(pipeline, synth, seed, work / "synth" / str(seed))
           for seed in seeds}
    for name in workloads:
        wl = perfbench.WORKLOADS[name]
        for seed in seeds:
            base = work / name / str(seed)
            inputs = perfbench.write_inputs(wl, seed, base / "inputs")
            runner = perfbench.Runner(pipeline, wl, seed, inputs)
            for k in range(wl.scenes):
                runner.round(k, base / "runs", runner.untraced)
                for run in runner.runs[-len(wl.rows):]:
                    run_dir = base / "runs" / f"scene{k}" / f"row{run.row}"
                    out[f"{name}/{seed}/{k}/{run.row}"] = (
                        "failed" if run.quality is None
                        else {**file_digests([run_dir / a for a in ARTIFACTS], run_dir),
                              "quality": run.quality})
    return out


def import_modules(src: Path) -> list:
    """``sarchange.pipeline`` and ``sarchange.synth`` imported from ``src``,
    and from nowhere else."""
    sys.path.insert(0, str(src))
    modules = [importlib.import_module(f"sarchange.{name}") for name in ("pipeline", "synth")]
    for module in modules:
        if not Path(module.__file__).resolve().is_relative_to(src):
            raise SystemExit(f"output_digests: imported sarchange from {module.__file__}, not {src}")
    return modules


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, type=Path,
                        help="the src/ directory of the checkout under test")
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="workload seeds, e.g. 1-10 or 3")
    args = parser.parse_args(argv)
    pipeline, synth = import_modules(args.src.resolve())
    work = work_dir(args.src)
    shutil.rmtree(work, ignore_errors=True)
    digests = output_digests(pipeline, synth, args.seeds, list(perfbench.WORKLOADS), work)
    try:
        print(json.dumps(digests, indent=1, sort_keys=True))
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
    except BrokenPipeError:
        # The reader has gone: point stdout at devnull so the flush at exit cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
