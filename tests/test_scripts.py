"""Each script under scripts/ runs in a fresh process with small arguments
and ends with its exit code, never a traceback."""

import importlib.util
import os
import subprocess
import sys
from dataclasses import replace
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


def load_script(name):
    spec = importlib.util.spec_from_file_location(
        name.removesuffix(".py"), ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mc_sweep_fails_rows_outside_the_gate(monkeypatch, capsys):
    sweep = load_script("mc_sweep.py")
    real = sweep.mc_moment

    def far_off(r, k, samples, seed):  # every k >= 1 row 100 stderr off
        est = real(r, k, samples, seed)
        mean = sweep.erlang_moment_exact(r, k) + 100 * est.stderr
        return est if k == 0 else replace(est, mean=mean)

    argv = ["--rmax", "2", "--kmax", "1", "--samples", "2000"]
    assert sweep.main(argv) == 0
    assert capsys.readouterr().err == ""
    monkeypatch.setattr(sweep, "mc_moment", far_off)
    assert sweep.main(argv) == 1
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 1 + 2 * 2
    assert captured.err == "FAIL r=1 k=1 z=100.00\nFAIL r=2 k=1 z=100.00\n"


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
