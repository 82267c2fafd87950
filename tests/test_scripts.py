"""Each script under scripts/ runs in a fresh process with small arguments
and ends with its exit code, never a traceback."""

import importlib.util
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from derange import stochastic

ROOT = Path(__file__).resolve().parents[1]


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
    ("mc_sweep.py", ["--seed", "-1"]),  # a seed the stream does not take
    ("mc_sweep.py", ["--rmax", "0"]),
    ("mc_sweep.py", ["--kmax", "-1"]),
])
def test_empty_table_exits_2(script, args):
    assert_one_error_line(run_script(script, *args))


def test_mc_sweep_draws_each_stream_once(monkeypatch):
    drawn, blocks = [], stochastic._erlang_blocks

    def counting(r, samples, seed):
        drawn.append((r, samples, seed))
        return blocks(r, samples, seed)

    monkeypatch.setattr(stochastic, "_erlang_blocks", counting)
    stochastic._moment_table.cache_clear()
    load_script("mc_sweep.py").table(5, 6, 2000, 7)
    assert drawn == [(r, 2000, 7) for r in range(1, 6)]
