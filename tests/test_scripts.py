"""Each script under scripts/ runs in a fresh process with small arguments
and ends with its exit code, never a traceback."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from derange import verify
from derange.series import Family

ROOT = Path(__file__).resolve().parents[1]
NO_CLOSED_FORM = {"r-derangement", "r-derangement-poly"}


def run_script(name, *args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": path})
    assert "Traceback" not in proc.stderr
    return proc


def assert_one_error_line(proc):
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("family", [f.value for f in Family])
def test_hankel_table(family):
    proc = run_script("hankel_table.py", "--family", family, "--nmax", "3")
    if family in NO_CLOSED_FORM:
        assert_one_error_line(proc)
    else:
        assert proc.returncode == 0
        rows = proc.stdout.splitlines()[1:]
        assert len(rows) == 4 and all(row.endswith(" pass") for row in rows)


def test_mc_sweep():
    proc = run_script("mc_sweep.py", "--rmax", "2", "--kmax", "2",
                      "--samples", "2000")
    assert proc.returncode == 0
    assert len(proc.stdout.splitlines()) == 1 + 2 * 3


@pytest.mark.parametrize("script,args", [
    ("hankel_table.py", ["--nmax", "-1"]),
    ("mc_sweep.py", ["--rmax", "0"]),
    ("mc_sweep.py", ["--kmax", "-1"]),
])
def test_empty_table_exits_2(script, args):
    assert_one_error_line(run_script(script, *args))


def test_run_verification():
    proc = run_script("run_verification.py")
    assert proc.returncode == 0
    assert len(proc.stdout.splitlines()) == len(verify.SUITES)
