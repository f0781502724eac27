"""The repository's pytest settings, run on a throwaway test file."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 10


def test_later_test_passes():
    pass
'''


def test_a_failing_property_does_not_end_the_session(tmp_path):
    # On a failure hypothesis imports libcst, which warns DeprecationWarning;
    # the settings turn other DeprecationWarnings into errors.
    (tmp_path / "test_probe.py").write_text(_PROBE)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout, done.stdout
    assert done.returncode == 1
