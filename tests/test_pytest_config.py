"""The test suite's own settings: a failing test fails alone, and a
warning still fails the test that raises it."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 0


def test_warning_fails():
    warnings.warn("a dlrt deprecation", DeprecationWarning)


def test_later_test_runs():
    pass
'''


def test_failing_property_test_does_not_abort_the_run(tmp_path):
    # reporting a falsifying example must not turn into an internal error,
    # which would end the run with exit code 3 before the later files
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "2 failed, 1 passed" in run.stdout
