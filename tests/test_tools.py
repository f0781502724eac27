"""Smoke tests of the scripts under ``tools/``."""

import re
import sys
from pathlib import Path

from sarchange import pipeline, synth

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _tree(path: Path) -> dict:
    return {p.relative_to(path): p.stat().st_mtime_ns for p in path.rglob("*")}


def test_output_digests_cover_a_workload_and_write_nothing_into_perfbench(
    tmp_path, monkeypatch
):
    before = _tree(PERFBENCH)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # restored after the test; perfbench sets them
    monkeypatch.syspath_prepend(str(ROOT / "tools"))  # sys.path is restored whole
    import output_digests

    digests = output_digests.output_digests(pipeline, synth, [1], ["ablation-128"], tmp_path)
    assert set(digests) == {"synth/1"} | {
        f"ablation-128/1/{k}/{row}" for k in range(3) for row in ("1", "3", "4", "6")
    }
    assert all(re.fullmatch("[0-9a-f]{64}", d) for d in digests.values()), digests
    assert len(set(digests.values())) == 13
    assert output_digests.parse_seeds("1-3") == [1, 2, 3]
    assert output_digests.parse_seeds("7") == [7]
    assert _tree(PERFBENCH) == before
