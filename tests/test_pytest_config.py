"""The suite's own pytest settings: a failing hypothesis property is
reported as a failure, and the session goes on to the tests after it."""

import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 5


def test_later_test_still_runs():
    pass
'''


def test_failing_property_does_not_abort_the_session(tmp_path):
    # filterwarnings = "error" made hypothesis's failure report raise a
    # DeprecationWarning inside pytest's hooks, an INTERNALERROR that ended
    # the run without the failure message or the tests after it
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_probe.py").write_text(TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
    assert "assert 5 < 5" in out
