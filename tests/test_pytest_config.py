"""The repo's pytest configuration, run on a throwaway test file in a fresh
pytest process, so that what it does to a failing run is seen from outside.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''\
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_fails_on_an_example(n):
    assert n < 0


def test_passes():
    pass


def test_warns():
    warnings.warn("deprecated", DeprecationWarning)
'''


def test_a_failing_hypothesis_example_is_one_failure(tmp_path):
    """A failing @given test is reported like any other failure and the
    tests after it still run, while a DeprecationWarning raised by other
    code still fails its test under `filterwarnings`."""
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1
    assert "2 failed, 1 passed" in proc.stdout.splitlines()[-1]
    assert "FAILED test_probe.py::test_warns - DeprecationWarning" in proc.stdout
