"""The test settings of pyproject.toml keep a failing test's report
readable."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

FAILING = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(x=st.integers(0, 10))
def test_fails(x):
    assert x < 0
"""


def test_failing_property_test_prints_its_example(tmp_path):
    # Hypothesis imports libcst to print a failure's patch hint, and that
    # import raises a DeprecationWarning from mypy_extensions. Under the
    # ini file's warning filters the failure must still be reported with
    # its falsifying example, not as an INTERNALERROR.
    pytest.importorskip("hypothesis")
    (tmp_path / "test_fails.py").write_text(FAILING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
