"""The test harness: a failing property test is reported under ``-W error``."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import randmera

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_runs_after_it():
    pass
'''


def test_a_failing_hypothesis_test_is_reported_under_dev_mode_errors(tmp_path):
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path)
    (tmp_path / "test_failing.py").write_text(FAILING, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(randmera.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "pytest", "-q",
         "-p", "no:cacheprovider", "test_failing.py"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1
    assert "Falsifying example: test_fails(" in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout
