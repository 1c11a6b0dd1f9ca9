import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_GIVEN = """
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_falsified(n):
    assert n < 0


def test_passes():
    pass


def test_warns():
    warnings.warn("still an error", DeprecationWarning)
"""


def test_failing_hypothesis_test_is_reported(tmp_path):
    # Hypothesis's failure report imports libcst, whose DeprecationWarning
    # must not turn into an INTERNALERROR that hides the failing test; any
    # other warning still fails its test.
    (tmp_path / "test_falsified.py").write_text(FAILING_GIVEN)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "-q", "test_falsified.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "FAILED" in run.stdout and "test_falsified - " in run.stdout
    assert "test_warns - DeprecationWarning: still an error" in run.stdout
    assert "2 failed, 1 passed" in run.stdout
