"""Command-line entry points.

Subcommands:

* ``run``: execute the pipeline on an acquisition pair.
* ``bench``: ablation benchmark (or a one-field sweep with ``--sweep``)
  over generated synthetic scenes.
* ``synth``: generate a speckled scene pair with ground truth.

Option precedence for ``run`` and ``bench``: built-in defaults, then the
``--config`` JSON file, then explicit command-line flags, one per
``PipelineConfig`` field.  A value that starts with ``-`` but is not a
plain negative number, such as ``-inf``, is passed as ``--flag=VALUE``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

from .errors import ChangeDetectionError, ParameterError
from .pipeline import (
    ABLATION_ROWS,
    PipelineConfig,
    config_overrides,
    run_pipeline,
    run_synth_bench,
)
from .raster import load_json_object
from .synth import default_scene, load_scene, write_scene

# Fields set by the subcommands' own arguments; every other field is a flag.
_PATH_FIELDS = ("t1", "t2", "gt", "out_dir")
_FLAG_FIELDS = [f for f in fields(PipelineConfig) if f.name not in _PATH_FIELDS]


def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per config field: ``--no-<field>`` for a bool, else
    ``--<field>`` read as JSON or text; ``PipelineConfig`` checks values.
    Unset flags stay out of the namespace, so they override nothing."""
    for field in _FLAG_FIELDS:
        if isinstance(field.default, bool):
            parser.add_argument(
                f"--no-{field.name}", dest=field.name, action="store_false",
                default=argparse.SUPPRESS,
            )
        else:
            parser.add_argument(
                f"--{field.name.replace('_', '-')}", dest=field.name, type=_json_or_text,
                default=argparse.SUPPRESS,
            )
    parser.add_argument(
        "--config", dest="config", default=None,
        help="JSON file whose keys override the built-in defaults",
    )


def _collect_overrides(args: argparse.Namespace) -> dict:
    overrides = load_json_object(args.config) if args.config else {}
    overrides.update({f.name: getattr(args, f.name) for f in _FLAG_FIELDS if f.name in args})
    return overrides


def _cmd_run(args: argparse.Namespace) -> int:
    overrides = _collect_overrides(args)
    overrides.update(
        {"t1": args.t1, "t2": args.t2, "gt": args.gt, "out_dir": args.out_dir}
    )
    cfg = config_overrides(PipelineConfig(), overrides)
    result = run_pipeline(cfg)
    print(f"change map: {result.change_map_path}")
    print(f"scores:     {result.scores_path}")
    if result.report is not None:
        r = result.report
        auc = "n/a" if r.auc is None else f"{r.auc:.4f}"
        print(
            f"pcc={r.pcc:.4f} kc={r.kc:.4f} f1={r.f1:.4f} auc={auc} "
            f"fp={r.counts.fp} fn={r.counts.fn}"
        )
    print(f"total time: {result.timings['total']:.2f}s")
    return 0


def _json_or_text(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _sweep_rows(spec: str) -> dict[str, dict]:
    """Rows ``{"field=v": {field: v}}`` from ``FIELD=V1,V2,...``."""
    field, sep, values = spec.partition("=")
    if not sep or not field or not values:
        raise ParameterError(f"--sweep expects FIELD=V1,V2,..., got {spec!r}")
    return {f"{field}={v}": {field: _json_or_text(v)} for v in values.split(",")}


def _cmd_bench(args: argparse.Namespace) -> int:
    overrides = _collect_overrides(args)
    rows = _sweep_rows(args.sweep) if args.sweep else ABLATION_ROWS
    scene = load_scene(args.scene) if args.scene else default_scene()
    summary = run_synth_bench(scene, overrides, args.seeds, args.out_dir, rows)
    print(json.dumps(summary["rows"], indent=2, sort_keys=True))
    print(f"summary written to {Path(args.out_dir) / 'summary.json'}")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = load_scene(args.scene) if args.scene else default_scene()
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    write_scene(spec, args.out_dir)
    print(f"scene written to {args.out_dir} (t1.f32, t2.f32, gt.pgm, scene.json)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sarchange",
        description="Unsupervised SAR change detection with label cleaning "
        "and patch-convolution features",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the pipeline on an image pair")
    p_run.add_argument("--t1", required=True, help="first acquisition (pgm or f32)")
    p_run.add_argument("--t2", required=True, help="second acquisition")
    p_run.add_argument("--gt", default=None, help="optional ground-truth change map")
    p_run.add_argument("--out-dir", default="out")
    _add_pipeline_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_bench = sub.add_parser("bench", help="ablation benchmark on synthetic scenes")
    p_bench.add_argument("--scene", default=None, help="scene JSON (default: built-in)")
    p_bench.add_argument("--seeds", type=int, default=5)
    p_bench.add_argument("--out-dir", default="bench_out")
    p_bench.add_argument(
        "--sweep", default=None, metavar="FIELD=V1,V2,...",
        help="run one row per value of a config field instead of the ablation rows",
    )
    _add_pipeline_flags(p_bench)
    p_bench.set_defaults(func=_cmd_bench)

    p_synth = sub.add_parser("synth", help="generate a synthetic scene pair")
    p_synth.add_argument("--scene", default=None, help="scene JSON (default: built-in)")
    p_synth.add_argument("--out-dir", default="scene_out")
    p_synth.add_argument("--seed", type=int, default=None)
    p_synth.set_defaults(func=_cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except ChangeDetectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader has gone: point stdout at devnull so the flush at exit cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
