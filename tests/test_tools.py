"""Smoke tests of the scripts under ``tools/``."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from sarchange import pipeline, synth

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _tree(path: Path) -> dict:
    return {p.relative_to(path): p.stat().st_mtime_ns for p in path.rglob("*")}


def _import_output_digests(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # restored after the test; perfbench sets them
    monkeypatch.syspath_prepend(str(ROOT / "tools"))  # sys.path is restored whole
    import output_digests

    return output_digests


def test_output_digests_cover_a_workload_and_write_nothing_into_perfbench(
    tmp_path, monkeypatch
):
    before = _tree(PERFBENCH)
    output_digests = _import_output_digests(monkeypatch)
    digests = output_digests.output_digests(pipeline, synth, [1], ["ablation-128"], tmp_path)
    assert set(digests) == {"synth/1"} | {
        f"ablation-128/1/{k}/{row}" for k in range(3) for row in ("1", "3", "4", "6")
    }
    runs = [d for key, d in digests.items() if key != "synth/1"]
    assert all(set(d) == {*output_digests.ARTIFACTS, "quality"} for d in runs), digests
    for d in runs:  # perfbench's scores of the run
        assert set(d.pop("quality")) == {"pcc", "kc", "auc"}
    assert set(digests["synth/1"]) == {
        f"scene/{name}" for name in ("t1.f32", "t1.f32.json", "t2.f32", "t2.f32.json",
                                     "gt.pgm", "scene.json")
    } | {f"run/{name}" for name in ("change_map.pgm", "scores.f32", "scores.f32.json",
                                    "metrics.json", "roc.csv")}
    every = [h for d in digests.values() for h in d.values()]
    assert all(re.fullmatch("[0-9a-f]{64}", h) for h in every), digests
    assert len({d["scores.f32"] for d in runs}) == 12  # each run is hashed on its own
    assert output_digests.parse_seeds("1-3") == [1, 2, 3]
    assert output_digests.parse_seeds("7") == [7]
    assert _tree(PERFBENCH) == before


def test_output_digests_runs_on_two_checkouts_use_their_own_work_directories(
    tmp_path, monkeypatch
):
    output_digests = _import_output_digests(monkeypatch)
    monkeypatch.setattr(output_digests, "WORK", tmp_path / "work")
    parent, change = tmp_path / "parent" / "src", tmp_path / "change" / "src"
    parent.mkdir(parents=True)
    change.mkdir(parents=True)
    (tmp_path / "link").symlink_to(parent)
    key = output_digests.work_dir
    assert key(parent) == key(tmp_path / "change" / ".." / "parent" / "src") == key(tmp_path / "link")
    assert key(parent) != key(change) and key(parent).parent == key(change).parent == tmp_path / "work"

    for src in (parent, change):
        key(src).mkdir(parents=True)
        (key(src) / "stale").write_text("")
    used = []
    monkeypatch.setattr(output_digests, "import_modules", lambda src: (None, None))
    monkeypatch.setattr(output_digests, "output_digests",
                        lambda pipeline, synth, seeds, workloads, work: used.append(work) or {})
    assert output_digests.main(["--src", str(tmp_path / "link"), "--seeds", "1"]) == 0
    assert used == [key(parent)]
    assert not (key(parent) / "stale").exists()  # its own directory is emptied
    assert (key(change) / "stale").exists()  # the other checkout's is left alone


def test_compare_digests_reports_moved_failed_and_missing_keys(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import compare_digests

    run = {"change_map.pgm": "a", "scores.f32": "b", "metrics.json": "c",
           "quality": {"pcc": 0.5, "kc": 0.25, "auc": 0.75}}
    parent = {"w/1/0/1": run, "w/1/0/3": run, "w/1/0/4": run, "w/1/0/6": "failed",
              "synth/1": {"run/roc.csv": "d"}}
    change = {"w/1/0/1": {**run, "metrics.json": "x"}, "w/1/0/3": run,
              "w/1/0/4": "failed", "w/1/0/6": run, "synth/1": {"run/roc.csv": "d"},
              "synth/2": {"run/roc.csv": "e"}}
    paths = []
    for name, digests in (("parent", parent), ("change", change)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(digests))
    assert compare_digests.main([str(p) for p in paths]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "change_map.pgm: 0 of 2 keys moved",
        "metrics.json: 1 of 2 keys moved: w/1/0/1",
        "run/roc.csv: 0 of 1 keys moved",
        "scores.f32: 0 of 2 keys moved",
        "failed in parent: 1: w/1/0/6",
        "failed in change: 1: w/1/0/4",
        "only in change: 1: synth/2",
        "quality w row 1, 1 keys: auc +0.000000 (min +0.000000, max +0.000000; 0 worse, 0 better); "
        "kc +0.000000 (min +0.000000, max +0.000000; 0 worse, 0 better); "
        "pcc +0.000000 (min +0.000000, max +0.000000; 0 worse, 0 better)",
        "quality w row 3, 1 keys: auc +0.000000 (min +0.000000, max +0.000000; 0 worse, 0 better); "
        "kc +0.000000 (min +0.000000, max +0.000000; 0 worse, 0 better); "
        "pcc +0.000000 (min +0.000000, max +0.000000; 0 worse, 0 better)",
    ]
    assert compare_digests.main([str(paths[0]), str(paths[0])]) == 1  # a failed run
    paths[0].write_text(json.dumps({"w/1/0/1": run}))
    assert compare_digests.main([str(paths[0]), str(paths[0])]) == 0
    assert capsys.readouterr().out.splitlines()[-4:-1] == [
        "scores.f32: 0 of 1 keys moved", "failed in parent: 0", "failed in change: 0",
    ]


def test_compare_digests_reports_quality_deltas_outside_its_exit_rule(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import compare_digests

    def run(pcc, kc, auc):
        return {"change_map.pgm": "a", "quality": {"pcc": pcc, "kc": kc, "auc": auc}}

    parent = {"w/1/0/6": run(0.9, 0.5, 0.75), "w/2/0/6": run(0.9, 0.5, 0.75),
              "w/1/0/1": run(0.5, 0.25, 0.5), "v/1/0/6": run(0.5, 0.5, 0.5),
              "synth/1": {"run/roc.csv": "d"}}
    change = {"w/1/0/6": run(0.95, 0.25, 0.75), "w/2/0/6": run(0.9, 0.625, 0.875),
              "w/1/0/1": run(0.5, 0.25, 0.5), "v/1/0/6": run(0.5, 0.5, 0.5),
              "synth/1": {"run/roc.csv": "d"}}
    paths = []
    for name, digests in (("parent", parent), ("change", change)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(digests))
    # Only quality moved.  Row 6's mean KC change, -0.0625, hides key
    # w/1/0/6's -0.25: the per-key minimum shows it.
    assert compare_digests.main([str(p) for p in paths]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "change_map.pgm: 0 of 4 keys moved",
        "run/roc.csv: 0 of 1 keys moved",
        "failed in parent: 0",
        "failed in change: 0",
        "quality v row 6, 1 keys: auc +0.000000 (min +0.000000, max +0.000000; 0 worse, 0 better); "
        "kc +0.000000 (min +0.000000, max +0.000000; 0 worse, 0 better); "
        "pcc +0.000000 (min +0.000000, max +0.000000; 0 worse, 0 better)",
        "quality w row 1, 1 keys: auc +0.000000 (min +0.000000, max +0.000000; 0 worse, 0 better); "
        "kc +0.000000 (min +0.000000, max +0.000000; 0 worse, 0 better); "
        "pcc +0.000000 (min +0.000000, max +0.000000; 0 worse, 0 better)",
        "quality w row 6, 2 keys: "
        "auc +0.062500 (min +0.000000, max +0.125000; 0 worse, 1 better); "
        "kc -0.062500 (min -0.250000, max +0.125000; 1 worse, 1 better); "
        "pcc +0.025000 (min +0.000000, max +0.050000; 0 worse, 1 better)",
    ]
    # A map written before quality was recorded compares on its digests alone.
    paths[0].write_text(json.dumps({k: {n: h for n, h in d.items() if n != "quality"}
                                    for k, d in parent.items()}))
    assert compare_digests.main([str(p) for p in paths]) == 0
    assert not any(line.startswith("quality") for line in capsys.readouterr().out.splitlines())


def _run_into_a_closed_pipe(args: list[str]) -> subprocess.CompletedProcess:
    """Run ``python -B args`` with its stdout on a pipe whose read end is
    closed before the child starts, as ``| head`` leaves it once it is done."""
    read, write = os.pipe()
    os.close(read)
    try:
        return subprocess.run([sys.executable, "-B", *args], stdout=write,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write)


@pytest.mark.parametrize("equal", [True, False])
def test_compare_digests_into_a_closed_pipe_keeps_its_exit_code(tmp_path, equal):
    run = {"change_map.pgm": "a"}
    paths = [tmp_path / "parent.json", tmp_path / "change.json"]
    paths[0].write_text(json.dumps({"w/1/0/6": run}))
    paths[1].write_text(json.dumps({"w/1/0/6": run if equal else {"change_map.pgm": "b"}}))
    proc = _run_into_a_closed_pipe([str(ROOT / "tools" / "compare_digests.py"), *map(str, paths)])
    assert (proc.returncode, proc.stderr) == (0 if equal else 1, "")


def test_output_digests_into_a_closed_pipe_exits_1_without_a_traceback(tmp_path):
    script = f"""
import sys
sys.path.insert(0, {str(ROOT / "tools")!r})
import output_digests
output_digests.WORK = output_digests.Path({str(tmp_path / "work")!r})
output_digests.import_modules = lambda src: (None, None)
output_digests.output_digests = lambda pipeline, synth, seeds, workloads, work: {{"k": "failed"}}
sys.exit(output_digests.main(["--src", {str(tmp_path)!r}, "--seeds", "1"]))
"""
    proc = _run_into_a_closed_pipe(["-c", script])
    assert (proc.returncode, proc.stderr) == (1, "")


_STUB_RUN = '''
import json, sys
from pathlib import Path

checkout = Path(__file__).resolve().parent.parent
log = checkout.parent / "log.txt"
calls = log.read_text().split() if log.exists() else []
log.write_text(" ".join(calls + [checkout.name]))
assert sys.argv[1:] == ["--workload", "full-256", "--seed", "7", "--seconds", "0.5",
                        "--trace", "0"], sys.argv
n = calls.count(checkout.name)  # this side's earlier runs
if n == int((checkout / "crash_at").read_text()):
    sys.exit("no result")
run_s = json.loads((checkout / "run_s.json").read_text())[n]
print("run_s", run_s)
print(json.dumps({"correct": True, "attempted": 2, "failed": 0, "metrics": {
    "run_s": {"value": run_s, "unit": "s"}, "pcc": {"value": 0.9, "unit": "1"}}}))
'''


def _stub_checkouts(tmp_path: Path, crash_at: dict, run_s: dict | None = None) -> list[Path]:
    """Checkouts named parent and change whose perfbench/run.py is a stub
    that logs its side, reports the side's ``run_s`` values in turn, and
    exits without a result on its ``crash_at``-th run."""
    run_s = run_s or {"parent": [1.0, 1.2, 0.9], "change": [0.8, 1.25, 0.7]}
    benchmark = {"end_to_end": [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
                                {"name": "mpix_per_s", "unit": "Mpx/s", "better": "higher"},
                                {"name": "pcc", "unit": "1", "better": "higher", "bound": 0.05}]}
    checkouts = []
    for side in ("parent", "change"):
        root = tmp_path / side
        (root / "perfbench").mkdir(parents=True)
        (root / "perfbench" / "run.py").write_text(_STUB_RUN)
        (root / "BENCHMARK.json").write_text(json.dumps(benchmark))
        (root / "crash_at").write_text(str(crash_at.get(side, -1)))
        (root / "run_s.json").write_text(json.dumps(run_s[side]))
        checkouts.append(root)
    return checkouts


def _ab_bench(checkouts, out: Path) -> subprocess.CompletedProcess:
    args = [*map(str, checkouts), "--workload", "full-256", "--pairs", "3",
            "--seconds", "0.5", "--seed", "7", "--out", str(out)]
    return subprocess.run([sys.executable, "-B", str(ROOT / "tools" / "ab_bench.py"), *args],
                          capture_output=True, text=True, timeout=120)


def test_ab_bench_alternates_sides_and_counts_pairs_won(tmp_path):
    checkouts = _stub_checkouts(tmp_path, {})
    proc = _ab_bench(checkouts, tmp_path / "ab.json")
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "log.txt").read_text() == "parent change change parent parent change"
    assert proc.stdout.splitlines() == [
        f"full-256, seed 7, 0.5 s, 3 pairs; raw runs in {tmp_path / 'ab.json'}",
        "run_s [s, lower is better]: parent median 1 (quartiles 0.95-1.1, min-max 0.9-1.2); "
        "change median 0.8 (quartiles 0.75-1.025, min-max 0.7-1.25); "
        "change better in 2 of 3 pairs, worse in 1",
        "  median shift -0.2 clears the parent's IQR 0.15; "
        "not worse than the parent by more than the bound, 0.25 of its median; no gain shown",
        "pcc [1, higher is better]: parent median 0.9 (quartiles 0.9-0.9, min-max 0.9-0.9); "
        "change median 0.9 (quartiles 0.9-0.9, min-max 0.9-0.9); "
        "change better in 0 of 3 pairs, worse in 0",
        "  median shift +0 does not clear the parent's IQR 0; "
        "not worse than the parent by more than the bound, 0.05 of its median; no gain shown",
    ]
    raw = json.loads((tmp_path / "ab.json").read_text())
    assert [p["order"] for p in raw["pairs"]] == [["parent", "change"], ["change", "parent"],
                                                  ["parent", "change"]]
    assert [p["change"]["metrics"]["run_s"]["value"] for p in raw["pairs"]] == [0.8, 1.25, 0.7]


def test_ab_bench_exits_1_on_a_run_without_a_correct_result(tmp_path):
    checkouts = _stub_checkouts(tmp_path, {"change": 1})
    proc = _ab_bench(checkouts, tmp_path / "ab.json")
    assert proc.returncode == 1
    lines = proc.stdout.splitlines()
    assert lines[-1] == "not correct: pair 2 change"
    assert "change better in 2 of 2 pairs" in lines[1]  # the pairs that ran correctly
    assert lines[2].startswith("  median shift -0.2 clears the parent's IQR 0.05;")
    assert lines[2].endswith("; no gain shown")  # 2 of the 3 pairs run were won
    raw = json.loads((tmp_path / "ab.json").read_text())
    assert raw["pairs"][1]["change"]["correct"] is False
    assert "no result" in raw["pairs"][1]["change"]["error"]


@pytest.mark.parametrize("change, verdict", [
    ([1.3, 1.2, 1.25], "not worse"),  # +0.25 on a median of 1: at the bound, not beyond it
    ([1.3, 1.4, 1.26], "worse"),
])
def test_ab_bench_flags_a_median_worse_than_the_bound(tmp_path, change, verdict):
    checkouts = _stub_checkouts(tmp_path, {}, {"parent": [1.0, 1.2, 0.9], "change": change})
    proc = _ab_bench(checkouts, tmp_path / "ab.json")
    assert proc.returncode == 0, proc.stderr  # the timings decide nothing
    line = proc.stdout.splitlines()[2]
    assert line.endswith(f"; {verdict} than the parent by more than the bound, 0.25 of its median"
                         "; no gain shown")
    assert "clears the parent's IQR 0.15" in line


@pytest.mark.parametrize("change, verdict", [
    ([0.8, 1.0, 0.7], "gain shown"),        # 3 of 3 pairs won, median shift -0.2
    ([0.95, 1.15, 0.85], "no gain shown"),  # 3 of 3 won, but a shift of -0.05 is inside the IQR
    ([0.8, 1.25, 0.7], "no gain shown"),    # a shift of -0.2, but 2 of 3 won, under 9 in 10
])
def test_ab_bench_shows_a_gain_only_on_9_in_10_pairs_won_and_a_shift_past_the_iqr(
        tmp_path, change, verdict):
    checkouts = _stub_checkouts(tmp_path, {}, {"parent": [1.0, 1.2, 0.9], "change": change})
    proc = _ab_bench(checkouts, tmp_path / "ab.json")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "the parent's IQR 0.15;" in lines[2]
    assert lines[2].endswith(f"of its median; {verdict}")
    assert lines[4].endswith("; no gain shown")  # pcc: equal in every pair
