import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from derange import cli, polys, series, stochastic, verify
from derange.cli import SUITE_NAMES, build_parser, main
from derange.exact import rising_factorial
from derange.series import Family

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


# argv that runs the CLI in a fresh interpreter
CLI = ("-m", "derange.cli")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def fresh_process(*args, stdout=subprocess.PIPE):
    """`python *args` in a fresh process with src on its path, every warning
    an error, and the defaults of the int-to-str digit limit and of stdout's
    buffering (so a failed write may surface only at the flush)."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONWARNINGS": "error"}
    for name in ("PYTHONINTMAXSTRDIGITS", "PYTHONUNBUFFERED"):
        env.pop(name, None)
    return subprocess.run([sys.executable, *args], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=60, env=env)


def assert_one_error_line(proc) -> str:
    """Exit 2 with one `error:` line, nothing on stdout (when it was read)
    and no traceback; returns the error line."""
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 2 and proc.stdout in ("", None)
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1
    return proc.stderr


def imported_modules(proc) -> set:
    """The modules a `-X importtime` run lists on its stderr."""
    return {line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def test_seq_classic(capsys):
    code, out = run(capsys, "seq", "--family", "classic", "--count", "5")
    assert code == 0
    assert out.splitlines() == ["0 1", "1 0", "2 1", "3 2", "4 9"]


def test_seq_cyclic_r1_matches_classic(capsys):
    _, classic = run(capsys, "seq", "--family", "classic", "--count", "5")
    _, cyclic = run(capsys, "seq", "--family", "cyclic", "--r", "1",
                    "--count", "5")
    assert classic == cyclic


def test_seq_generalized_rational(capsys):
    code, out = run(capsys, "seq", "--family", "generalized", "--r", "2",
                    "--x", "1/2", "--count", "4")
    assert code == 0
    # explicit formula values at x = 1/2: 1, 2, 9/2, 23/2
    assert out.splitlines() == ["0 1", "1 2", "2 9/2", "3 23/2"]


def test_poly_coefficients(capsys):
    code, out = run(capsys, "poly", "--which", "D", "--n", "2", "--r", "2")
    assert (code, out.strip()) == (0, "1 4 6")
    code, out = run(capsys, "poly", "--which", "d", "--n", "2", "--r", "2")
    assert (code, out.strip()) == (0, "6 4 1")
    code, out = run(capsys, "poly", "--which", "D", "--n", "0", "--r", "7")
    assert (code, out.strip()) == (0, "1")


def test_hankel_pass_cases(capsys):
    code, out = run(capsys, "hankel", "--family", "classic", "--n", "2")
    assert code == 0
    assert "value=4" in out

    code, out = run(capsys, "hankel", "--family", "cyclic", "--r", "2",
                    "--n", "2")
    assert code == 0
    assert "value=256" in out

    code, out = run(capsys, "hankel", "--family", "generalized", "--r", "0",
                    "--z", "3", "--n", "2")
    assert code == 0
    assert "value=0" in out

    # the order-r numbers take the order-r polynomials' closed form
    code, out = run(capsys, "hankel", "--family", "order-r", "--r", "3",
                    "--n", "4")
    assert code == 0
    assert "value=223948800" in out


# the r and x each family takes, for one `hankel` cell per n
HANKEL_ARGS = {
    "classic": [],
    "order-r": ["--r", "2"],
    "r-derangement": ["--r", "2"],
    "cyclic": ["--r", "2"],
    "generalized": ["--r", "2", "--x", "1/2"],
    "order-r-poly": ["--r", "2", "--x", "1/2"],
    "r-derangement-poly": ["--r", "2", "--x", "1/2"],
}
NO_CLOSED_FORM = {"r-derangement", "r-derangement-poly"}


@pytest.mark.parametrize("family", sorted(f.value for f in Family))
def test_hankel_for_n_0_to_3(capsys, family):
    for n in range(4):
        argv = ["hankel", "--family", family, *HANKEL_ARGS[family],
                "--n", str(n)]
        code = main(argv)
        captured = capsys.readouterr()
        if family in NO_CLOSED_FORM:
            assert (code, captured.out) == (2, "")
            assert captured.err.startswith("error: ")
            assert captured.err.count("\n") == 1
        else:
            assert code == 0, argv
            assert captured.out.startswith("pass  ")
            assert captured.out.endswith("summary: pass=1 fail=0 skipped=0\n")


def _hankel_params(capsys, *argv):
    code, out = run(capsys, "hankel", *argv, "--format", "json")
    assert code == 0
    return json.loads(out)["cells"][0]["params"]


def test_hankel_shows_every_determinant(capsys):
    # the oracles run up to 6x6; the J-fraction route at every size
    params = _hankel_params(capsys, "--family", "cyclic", "--r", "2", "--n", "5")
    assert params == {"family": "cyclic", "n": "5", "r": "2",
                      "jfraction": "1282470362637926400",
                      "condensation": "1282470362637926400",
                      "cofactor": "1282470362637926400"}
    params = _hankel_params(capsys, "--family", "generalized", "--r", "2",
                            "--z", "1/2", "--n", "6")
    assert params == {"family": "generalized", "n": "6", "r": "2", "x": "1/2",
                      "jfraction": "11625271875/16384",
                      "condensation": "n/a", "cofactor": "n/a"}
    # r = 0: every moment is 1, so H_2 = 0 and both fast routes degenerate
    params = _hankel_params(capsys, "--family", "generalized", "--r", "0",
                            "--x", "1/2", "--n", "3")
    assert params == {"family": "generalized", "n": "3", "r": "0", "x": "1/2",
                      "jfraction": "degenerate",
                      "condensation": "degenerate", "cofactor": "0"}


def test_usage_error_exit_code(capsys):
    assert main(["seq", "--family", "nonsense", "--count", "3"]) == 2
    capsys.readouterr()
    assert main(["seq", "--family", "classic"]) == 2  # missing --count
    capsys.readouterr()
    assert main(["seq", "--family", "generalized", "--r", "2",
                 "--count", "3"]) == 2  # missing --x
    capsys.readouterr()
    # the J-fraction coefficients are cells of the hankel suite, not a suite
    assert main(["verify", "--suite", "jfraction"]) == 2
    err = capsys.readouterr().err
    assert "--suite: invalid choice" in err and "Traceback" not in err


DOMAIN_ERRORS = [
    ["seq", "--family", "classic", "--count", "0"],
    ["poly", "--which", "D", "--n", "-1", "--r", "2"],
    ["hankel", "--family", "r-derangement", "--r", "2", "--n", "2"],
    ["mc", "--r", "0", "--k", "2", "--samples", "100"],
    ["mc", "--r", "2", "--k", "2", "--samples", "1"],
    ["verify", "--suite", "derivative-hankel", "--z", "1"],
    ["verify", "--suite", "hankel", "--r", "-1"],
    ["mc", "--r", "-1", "--n", "2", "--x", "1", "--samples", "100"],
    ["mc", "--r", "0", "--n", "2", "--x", "1", "--samples", "100"],
    ["seq", "--family", "classic", "--count", "3",
     "--output", "/nonexistent/dir/out.txt"],
    ["seq", "--family", "classic", "--r", "5", "--count", "3"],
    ["seq", "--family", "classic", "--x", "1", "--count", "3"],
    ["poly", "--which", "D", "--n", "3", "--r", "-2"],
    ["poly", "--which", "d", "--n", "3", "--r", "-1"],
    ["mc", "--n", "2", "--r", "1", "--x", "1e400", "--samples", "100"],
    ["mc", "--n", "8", "--r", "1", "--x", "1e38", "--samples", "100"],
    ["mc", "--n", "8", "--r", "1", "--x", "1e30", "--samples", "100"],
    ["hankel", "--family", "classic", "--n", "-1"],
    # the stream takes seeds 0..2^64-1 only; any other would alias one of them
    ["mc", "--r", "2", "--k", "3", "--samples", "100", "--seed", "-1"],
    ["mc", "--n", "2", "--r", "1", "--x", "1", "--samples", "100",
     "--seed", str(2 ** 64)],
    # the stream has 2^64 distinct uniforms, and samples * r past them would
    # read its first ones again: refused before anything is drawn
    ["mc", "--r", str(10 ** 30), "--k", "1", "--samples", "2"],
    ["mc", "--n", "2", "--x", "1", "--r", str(10 ** 30), "--samples", "2"],
    # --n and --x choose D_n(x), --k the moments: both, one of --n and --x
    # alone, or neither is refused
    ["mc", "--r", "2", "--k", "3", "--x", "5", "--samples", "100"],
    ["mc", "--r", "2", "--k", "3", "--n", "2", "--samples", "100"],
    ["mc", "--r", "2", "--k", "3", "--n", "2", "--x", "1", "--samples", "100"],
    ["mc", "--r", "2", "--x", "1", "--samples", "100"],
    ["mc", "--r", "2", "--samples", "100"],
    ["mc", "--r", "2", "--k", "-1", "--samples", "100"],
    ["mc", "--r", "2", "--k", "9", "--samples", "100"],
    ["mc", "--r", "2", "--n", "-1", "--x", "1", "--samples", "100"],
    ["mc", "--r", "2", "--n", "9", "--x", "1", "--samples", "100"],
    # a grid on which the suite checks nothing is refused, not passed
    ["verify", "--suite", "reflection", "--x", "0"],
    ["verify", "--suite", "derivative-hankel", "--r", "0"],
]


@pytest.mark.parametrize("argv", DOMAIN_ERRORS,
                         ids=[" ".join(a) for a in DOMAIN_ERRORS])
def test_domain_error_exits_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("suite,flag", [("reflection", "--x"),
                                        ("derivative-hankel", "--r")])
def test_a_grid_without_cells_is_refused(capsys, suite, flag):
    assert main(["verify", "--suite", suite, flag, "0"]) == 2
    assert capsys.readouterr().err == (
        f"error: suite {suite} has no cells on this grid\n")


@pytest.mark.parametrize("argv", [
    ["mc", "--r", "2", "--k", "8", "--samples", "100", "--seed", "-1"],
    ["mc", "--r", "0", "--k", "8", "--samples", "100"],
], ids=["seed -1", "r 0"])
def test_mc_refusal_in_a_fresh_process_exits_2(argv):
    """A refused whole-table request ends the process with exit 2 and one
    error line, never a traceback."""
    assert_one_error_line(fresh_process(*CLI, *argv))


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python prints an int of any size")
@pytest.mark.parametrize("argv", [
    "seq --family classic --count 1560",
    "poly --which D --n 3000 --r 5",
    "hankel --family generalized --r 3 --x 7/3 --n 50",
    "hankel --family generalized --r 3 --x 7/3 --n 50 --format json",
    "mc --r 1 --n 1 --x 1e5000 --samples 2",
    "mc --r 1 --n 1 --x=-1e5000 --samples 2",
])
def test_a_value_past_the_digit_limit_exits_2_in_a_fresh_process(argv):
    """Each command prints, or names in its refusal, a value of more than
    4,300 digits, the default int-to-str limit: one error line and exit 2,
    not a ValueError traceback and exit 1, which would read as a failed
    identity."""
    err = assert_one_error_line(fresh_process(*CLI, *argv.split()))
    limit = sys.int_info.default_max_str_digits
    assert err.startswith(f"error: Exceeds the limit ({limit} digits)")
    assert err.endswith("; set PYTHONINTMAXSTRDIGITS=0 to lift it\n")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python prints an int of any size")
def test_a_closed_form_past_the_digit_limit_is_refused_before_any_route(
        monkeypatch):
    """H_100 of classic has more digits than the default limit: `hankel`
    exits 2 with the one error line a computed report would give, and no
    determinant route runs."""
    from derange import hankel

    def no_route(spec, n):
        raise AssertionError("a Hankel route ran")

    monkeypatch.setattr(hankel, "verify_hankel", no_route)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        code, err = run_quietly(["hankel", "--family", "classic", "--n", "100"])
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 2
    assert err == (f"error: Exceeds the limit "
                   f"({sys.int_info.default_max_str_digits} digits) for "
                   "integer string conversion; set PYTHONINTMAXSTRDIGITS=0 "
                   "to lift it\n")


@contextlib.contextmanager
def default_digit_limit():
    """The default int-to-str digit limit, whatever the environment sets."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python prints an int of any size")
def test_seq_stops_at_its_first_value_past_the_digit_limit(monkeypatch):
    """Value 1,559 of classic is the first past the default limit: `seq`
    exits 2 once the recurrence has yielded it, not after all 20,000."""
    stream, yielded = series.egf_stream, []

    def counting(spec, count):
        for value in stream(spec, count):
            yielded.append(None)
            yield value

    monkeypatch.setattr(series, "egf_stream", counting)
    with default_digit_limit():
        code, err = run_quietly(["seq", "--family", "classic",
                                 "--count", "20000"])
    assert code == 2
    assert err.startswith("error: Exceeds the limit")
    assert 0 < len(yielded) <= 1560


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python prints an int of any size")
@pytest.mark.parametrize("which", ["D", "d"])
def test_poly_refuses_before_it_builds_the_polynomial(monkeypatch, which):
    """The largest coefficient, r^(n), is made into text first: at n =
    20,000 it is past the default limit, and no coefficient is computed."""
    def no_poly(n, r):
        raise AssertionError("the polynomial was built")

    for name in ("generalized_D_poly", "order_d_poly"):
        monkeypatch.setattr(polys, name, no_poly)
    with default_digit_limit():
        code, err = run_quietly(["poly", "--which", which, "--r", "5",
                                 "--n", "20000"])
    assert code == 2
    assert err.startswith("error: Exceeds the limit")
    assert err.count("\n") == 1


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python prints an int of any size")
@pytest.mark.parametrize("argv", ["verify --suite hankel --nmax 52",
                                  "verify --suite all --nmax 61"])
def test_a_suite_closed_form_past_the_digit_limit_is_refused_before_any_route(
        monkeypatch, argv):
    """At n = 52 a closed form of the hankel suite's grid has more digits
    than the default limit: `verify` exits 2 with one error line, and no
    determinant route runs."""
    from derange import hankel

    def no_route(*args):
        raise AssertionError("a Hankel route ran")

    for name in ("bareiss_minors", "det_jfraction", "condensation_minors",
                 "cofactor_minors"):
        monkeypatch.setattr(hankel, name, no_route)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        code, err = run_quietly(argv.split())
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 2
    assert err == (f"error: Exceeds the limit "
                   f"({sys.int_info.default_max_str_digits} digits) for "
                   "integer string conversion; set PYTHONINTMAXSTRDIGITS=0 "
                   "to lift it\n")


@contextlib.contextmanager
def failing_stdout(sink):
    """A file descriptor whose every write fails: /dev/full (no space left),
    or a pipe whose read end is closed before anything is written."""
    if sink == "full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        with open("/dev/full", "w") as full:
            yield full.fileno()
        return
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        yield write_end
    finally:
        os.close(write_end)


@pytest.mark.parametrize("sink", ["full", "closed-pipe"])
@pytest.mark.parametrize("argv", [
    "seq --family classic --count 5",
    "mc --r 2 --k 2 --samples 1000",
    "verify --suite all --format json",
])
def test_a_failed_stdout_write_exits_2_in_a_fresh_process(argv, sink):
    """A write to stdout that fails is one error line and exit 2, as a failed
    --output write is: not a traceback and exit 1, and no "Exception
    ignored" line from the flush at exit."""
    with failing_stdout(sink) as fd:
        proc = fresh_process(*CLI, *argv.split(), stdout=fd)
    reason = "No space left on device" if sink == "full" else "Broken pipe"
    assert assert_one_error_line(proc) == (
        f"error: cannot write '<stdout>': {reason}\n")


def test_verify_passes_only_the_grid_flags_given(capsys, monkeypatch):
    grids = []
    monkeypatch.setattr(verify, "run_suite",
                        lambda name, grid: grids.append(grid) or [])
    main(["verify", "--suite", "hankel", "--nmax", "4", "--z", "0"])
    main(["verify", "--suite", "hankel", "--r", "0", "--x=-1/2"])
    default = verify.Grid()
    assert grids == [default._replace(n_max=4, deriv_z=(0,)),
                     default._replace(r_max=0, points=(F(-1, 2),))]
    assert (default.n_max, default.r_max, default.points) == (
        6, 3, verify.DEFAULT_POINTS)


# Upper bounds of the integer options in generated argv; every other
# integer option is drawn from [-1, 10]. Required options and the sizes in
# ALWAYS_GIVEN are left out only one time in twenty: the defaults of the
# sizes (10^6 samples, nmax 6) cost more than a property example should.
INT_BOUNDS = {"samples": 2000, "nmax": 3}
ALWAYS_GIVEN = {"samples", "nmax", "count", "n"}


def subcommands():
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sorted(sub.choices.items())


@st.composite
def argvs(draw, out_dir):
    """argv for one subcommand, from its parser's own options and choices:
    sometimes a required option is left out or a value is malformed."""
    cmd, parser = draw(st.sampled_from(subcommands()))
    argv = [cmd]
    for action in parser._actions:
        if not action.option_strings or action.dest == "help":
            continue
        if action.required or action.dest in ALWAYS_GIVEN:
            if draw(st.integers(0, 19)) == 19:
                continue
        elif not draw(st.booleans()):
            continue
        flag = draw(st.sampled_from(action.option_strings))
        if action.nargs == 0:
            argv.append(flag)
            continue
        if action.dest == "output":
            name = draw(st.sampled_from(["out.txt", "missing/out.txt", "."]))
            value = str(out_dir / name)
        elif draw(st.integers(0, 19)) == 19:
            value = draw(st.sampled_from(["abc", "1/0", ""]))
        elif action.choices:
            value = draw(st.sampled_from(sorted(action.choices)))
        elif action.type is int:
            value = str(draw(st.integers(-1, INT_BOUNDS.get(action.dest, 10))))
        else:
            value = str(draw(st.fractions(-10, 10, max_denominator=7)))
        argv.append(f"{flag}={value}")
    return argv


def run_quietly(argv):
    """main(argv) with its output discarded: the exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_argv_exits_0_1_or_2_without_traceback(tmp_path, data):
    code, err = run_quietly(data.draw(argvs(tmp_path)))
    assert code in (0, 1, 2)
    assert "Traceback" not in err


# argv whose values reach either side of the default int-to-str digit limit
# (4,300 digits): classic prints 1,559 values and refuses 1,560, both
# polynomials at r = 5 print n = 1,554 and refuse 1,555, and this Hankel
# determinant prints at n = 48 and is refused at n = 49
LARGE_ARGVS = st.one_of(
    st.builds("seq --family classic --count {}".format, st.integers(1550, 1570)),
    st.builds("poly --which {} --r 5 --n {}".format, st.sampled_from("Dd"),
              st.integers(1540, 1570)),
    st.builds("hankel --family generalized --r 3 --x 7/3 --n {}".format,
              st.integers(44, 51)))


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python prints an int of any size")
@settings(max_examples=10, deadline=None)
@given(argv=LARGE_ARGVS, fmt=st.sampled_from(["text", "json", "csv"]))
def test_argv_past_the_digit_limit_exits_0_or_2_without_traceback(argv, fmt):
    """The fuzzer's large-size branch, at the default digit limit whatever
    the environment sets: a value either prints or is one error line."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        code, err = run_quietly([*argv.split(), "--format", fmt])
    finally:
        sys.set_int_max_str_digits(limit)
    assert code in (0, 2)
    assert "Traceback" not in err
    assert err.count("\n") == (code == 2)


def test_verify_suite_exit_code(capsys):
    code, out = run(capsys, "verify", "--suite", "reflection", "--nmax", "4")
    assert code == 0
    assert "fail=0" in out


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_each_suite_passes_on_the_default_grid(capsys, suite):
    code, out = run(capsys, "verify", "--suite", suite)
    assert code == 0
    assert re.fullmatch(r"summary: pass=[1-9]\d* fail=0 skipped=\d+",
                        out.splitlines()[-1])


def test_verify_derivative_hankel_flags(capsys):
    code, out = run(capsys, "verify", "--suite", "derivative-hankel",
                    "--r", "2", "--z", "1/2", "--nmax", "4")
    assert code == 0


def test_json_report_roundtrip_byte_stable(capsys):
    code, out = run(capsys, "verify", "--suite", "oracles", "--nmax", "3",
                    "--format", "json")
    assert code == 0
    parsed = json.loads(out)
    assert parsed["summary"]["fail"] == 0
    assert json.dumps(parsed, indent=2) + "\n" == out


# strings that the JSON writer must escape as json does, beside arbitrary text
TRICKY = st.sampled_from(['"', "\\", '\\"', "\n\t\x00\x1f\x7f", "\u00e9\u2212",
                          "\U0001d4b3", "\ud800", "", " ", "a\u2028b"])
TEXT = st.one_of(TRICKY, st.text(max_size=8))
# a cell takes any value and holds its text
VALUES = st.one_of(TEXT, st.integers(), st.fractions())
CELLS = st.builds(verify.Cell, st.dictionaries(TEXT, VALUES, max_size=4),
                  VALUES, VALUES, st.one_of(st.none(), TEXT))
SCALARS = st.one_of(st.integers(), st.floats(), st.booleans(), st.none(), TEXT)
EXTRAS = st.dictionaries(TEXT, st.one_of(
    SCALARS, st.dictionaries(TEXT, SCALARS, max_size=3),
    st.lists(SCALARS, max_size=3)), max_size=3)


@st.composite
def reports(draw):
    """A cell report of render_report, or a values report of _write_values,
    with extra keys after its own."""
    if draw(st.booleans()):
        head = {"command": draw(TEXT), "cells": draw(st.lists(CELLS, max_size=4)),
                "summary": draw(st.dictionaries(TEXT, st.integers(), max_size=3))}
    else:
        head = {"command": draw(TEXT), "n": draw(st.integers()),
                "values": draw(st.lists(TEXT, max_size=5))}
    return {**draw(EXTRAS), **head} if draw(st.booleans()) else {
        **head, **draw(EXTRAS)}


@settings(max_examples=200, deadline=None)
@given(report=reports())
def test_json_writer_matches_json_dumps(report):
    assert cli._json(report) == json.dumps(report, indent=2, default=vars) + "\n"


def test_oracles_suite_skips_nothing_up_to_n_9(capsys):
    # the cyclic oracle expands its permanent for every r, capped at n = 9
    code, out = run(capsys, "verify", "--suite", "oracles", "--nmax", "9",
                    "--r", "4", "--format", "json")
    assert code == 0
    assert json.loads(out)["summary"] == {"pass": 10 + 4 * 10, "fail": 0,
                                          "skipped": 0}


def test_oracles_suite_runs_every_r_of_the_grid(capsys):
    code, out = run(capsys, "verify", "--suite", "oracles", "--r", "6",
                    "--format", "json")
    assert code == 0
    cyclic = [cell for cell in json.loads(out)["cells"]
              if cell["params"]["oracle"] == "cyclic"]
    assert [cell["params"]["r"] for cell in cyclic] == [
        str(r) for r in range(1, 7) for _ in range(7)]
    assert all(cell["verdict"] == "pass" for cell in cyclic)


def test_oracles_suite_skips_above_the_cap(capsys):
    argv = ("verify", "--suite", "oracles", "--nmax", "10")
    code, out = run(capsys, *argv)
    assert code == 0
    lines = out.splitlines()
    assert [line for line in lines if line.startswith("skip")] == [
        f"skip  oracle=cyclic n=10 r={r}" for r in (1, 2, 3)]
    assert lines[-1] == "summary: pass=40 fail=0 skipped=3"
    code, out = run(capsys, *argv, "--format", "json")
    report = json.loads(out)
    assert code == 0 and report["summary"] == {"pass": 40, "fail": 0,
                                               "skipped": 3}
    skipped = [cell for cell in report["cells"] if cell["verdict"] == "skipped"]
    assert skipped == [{"params": {"oracle": "cyclic", "n": "10", "r": str(r)},
                        "expected": "", "actual": "", "verdict": "skipped"}
                       for r in (1, 2, 3)]
    code, out = run(capsys, *argv, "--format", "csv")
    assert code == 0
    rows = [row for row in csv.reader(io.StringIO(out)) if row[-1] == "skipped"]
    assert rows == [[f"oracle=cyclic;n=10;r={r}", "", "", "skipped"]
                    for r in (1, 2, 3)]


def test_json_cell_schema(capsys):
    _, out = run(capsys, "verify", "--suite", "reflection", "--nmax", "2",
                 "--format", "json")
    parsed = json.loads(out)
    assert set(parsed) >= {"command", "cells", "summary"}
    cell = parsed["cells"][0]
    assert set(cell) == {"params", "expected", "actual", "verdict"}
    assert set(parsed["summary"]) == {"pass", "fail", "skipped"}


def test_csv_format(capsys):
    code, out = run(capsys, "verify", "--suite", "oracles", "--nmax", "2",
                    "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "params,expected,actual,verdict"


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["verify", "--suite", "reflection", "--nmax", "2",
                 "--format", "json", "--output", str(target)])
    capsys.readouterr()
    assert code == 0
    assert json.loads(target.read_text())["summary"]["fail"] == 0


def test_mc_moment_pass(capsys):
    code, out = run(capsys, "mc", "--r", "2", "--k", "3",
                    "--samples", "20000", "--seed", "42")
    assert code == 0
    assert "24" in out


def test_mc_zeroth_moment(capsys):
    code, out = run(capsys, "mc", "--r", "1", "--k", "0", "--samples", "100")
    assert code == 0


def test_mc_dn_target(capsys):
    code, out = run(capsys, "mc", "--n", "2", "--r", "1", "--x", "1",
                    "--samples", "20000", "--seed", "42")
    assert code == 0


def test_mc_missing_flags(capsys):
    assert main(["mc", "--r", "2"]) == 2
    capsys.readouterr()
    assert main(["mc", "--r", "2", "--n", "2", "--samples", "100"]) == 2
    capsys.readouterr()


def test_mc_n_and_x_print_the_report_of_the_removed_dn_flag(capsys):
    # the bytes of `mc --dn --n 2 --r 1 --x 1 --samples 1000 --seed 7`
    # before --dn was dropped, since --n and --x alone choose D_n(x)
    code, out = run(capsys, "mc", "--n", "2", "--x", "1", "--r", "1",
                    "--samples", "1000", "--seed", "7")
    assert code == 0
    assert out == (
        "pass  r=1 samples=1000 seed=7 stderr=0.2025348379851736 "
        "zscore=-0.5235546983244975 n=2 x=1  estimate=4.8939619339984715 "
        "target=5\n"
        "summary: pass=1 fail=0 skipped=0\n")


def test_mc_has_no_dn_flag(capsys):
    assert main(["mc", "--dn", "--n", "2", "--r", "1", "--x", "1",
                 "--samples", "100"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: derange ")
    assert err.endswith("\nderange: error: unrecognized arguments: --dn\n")
    assert "Traceback" not in err


def test_mc_seed_comes_from_argv_alone(capsys, monkeypatch):
    monkeypatch.setenv("DERANGE_SEED", "7")
    _, out = run(capsys, "mc", "--r", "1", "--k", "1", "--samples", "1000",
                 "--format", "json")
    assert json.loads(out)["cells"][0]["params"]["seed"] == "42"
    code, out = run(capsys, "mc", "--help")
    assert code == 0 and "(default: 42)" in " ".join(out.split())


def test_mc_reports_every_order_up_to_k(capsys):
    code, out = run(capsys, "mc", "--r", "2", "--k", "2", "--samples", "2000",
                    "--format", "json")
    assert code == 0
    cells = json.loads(out)["cells"]
    assert [c["params"]["k"] for c in cells] == ["0", "1", "2"]
    assert [c["expected"] for c in cells] == ["1", "2", "6"]  # 2^(k), rising
    assert all(c["verdict"] == "pass" for c in cells)


def test_mc_fails_each_order_outside_the_gate(capsys, monkeypatch):
    real = stochastic.mc_moment

    def far_off(r, k, samples, seed):  # every k >= 1 estimate 100 stderr off
        est = real(r, k, samples, seed)
        mean = rising_factorial(r, k) + 100 * est.stderr
        return est if k == 0 else est._replace(mean=mean)

    monkeypatch.setattr(stochastic, "mc_moment", far_off)
    code, out = run(capsys, "mc", "--r", "2", "--k", "2", "--samples", "2000",
                    "--seed", "42", "--format", "json")
    assert code == 1
    cells = json.loads(out)["cells"]
    assert [c["verdict"] for c in cells] == ["pass", "fail", "fail"]
    assert [c["params"]["zscore"] for c in cells[1:]] == ["100.0", "100.0"]


@pytest.mark.parametrize("r", range(1, 6))
def test_mc_draws_one_stream_for_every_order(capsys, monkeypatch, r):
    drawn, blocks = [], stochastic._erlang_blocks

    def counting(r, samples, seed):
        drawn.append((r, samples, seed))
        return blocks(r, samples, seed)

    monkeypatch.setattr(stochastic, "_erlang_blocks", counting)
    stochastic._moment_table.cache_clear()
    code, out = run(capsys, "mc", "--r", str(r), "--k", "8",
                    "--samples", "2000", "--seed", "7")
    assert code == 0 and len(out.splitlines()) == 9 + 1
    assert drawn == [(r, 2000, 7)]


# SHA-256 of stdout in text, json and csv for fixed argv; every run exits
# 0. The wall_time_s line of a verify JSON report is dropped first, since
# it is the one value that differs from run to run.
GOLDEN = {
    "seq --family classic --count 8": (
        "330fb268398af212f4d93ff7f44740b74c164ad58fbca6c2a959c086efa29e1f",
        "812fd0e1b539abdc29074c7aa7fe775c4a8e914cc4bef1b8596ac7fdd24c11b7",
        "e77be95ddaef9dc98f5c7fd39c7aedcb22bddd30060d9d225b1529e71218cc93"),
    "seq --family generalized --r 2 --x 1/2 --count 8": (
        "6d3d7ba9dbc69b323290ba90110f4ad9b532eb0096ddd815541215cc14d64674",
        "d5db3c8bc8cc272785c077d91c0747c18225071e61c4c03c269fd7021d310a69",
        "3d1f47360932719f702596db312b1c8df006cde3b794b3f62da04174ab4ccfd7"),
    "seq --family order-r --r 2 --count 6": (
        "bfd33d47d895f1f975841a260352b607e198483193242f4dafa728837f45bb2c",
        "4d664d18b3481fb6ae669a33c16cfb1b51eea9b614eef905a6369446e7aea03e",
        "bf52131ae177ef9ce72f4d60a250d13ee2aab9023f18523c1d35209c16ffbc5a"),
    "seq --family order-r-poly --r 1 --x 2 --count 5": (
        "05e460a702aedd5ddf89423172c37790b47bc296409179e25535454775c56e0a",
        "092d41789f771970d508c8651c6aa68484cf11a9d53fc14363bc3bc9a2f12317",
        "3c06dc4902fecdaa66af3b8af0b57ff502a1711ec88fe8dbc69dc7313f536625"),
    "seq --family r-derangement --r 2 --count 6": (
        "e0176f266ce8a6ac8245971825b5adcf9bf4df497aebd89edb7904aba3944e88",
        "37e2baa8516104e1d7898c47536a575378a83274863d3f55fb9c2f00780d1e30",
        "be3a0554782da4074998ee1fb684d5efbddf8efbb2f8b73e87259fbc743468af"),
    "seq --family r-derangement-poly --r 2 --x=-3/5 --count 6": (
        "d9a62d33c2e25c138c69499512bf5876e28578b7881d10a75bb0d7722688bf60",
        "f0bfa32ba7e25f5af1ba5af6355a0a182642152d6bbce8625fca140675640f0d",
        "3be6f1172e9f1fdba2f11d69c14adee15a6c32a2d211df80b548ba3d93e8e377"),
    "seq --family cyclic --r 3 --count 6": (
        "3667a571a9925b9b049e24da7a1e748df407e7de5c7464d683a0b75459811513",
        "b9357c8ff0293e7e15515ff076887471c308b9519e6be9508200c5d71660b82f",
        "8f397f0c6667f0ea4f1ec65c450bd1e6237b85717522475409ae87ac17a74b65"),
    "poly --which D --n 4 --r 2": (
        "fcc506e7eb6290463dea95fe818c8ed66adc94966de065f697c5f96e22b38b14",
        "c8c2f5754f896aa08a00c69cb788f26eec9c62f22ee81ff66984bd964cfc50b6",
        "c46c73cdc31f07c303885e197237e55b431980ee20c6db64f2cd519bb018ec61"),
    "poly --which d --n 3 --r 3": (
        "c55a09851347a02309e5de591345f2dd0f8eac9aca18e7b46867fcbcf56f797f",
        "e9b5ae8e6c6e4446b50d3a8230a01bbadeb2c554d1248f8f122fa5eee6125a22",
        "78976e416a6a3ef580f6dc809ae2446be89b67ed787839b007257d95ed293e90"),
    "hankel --family classic --n 3": (
        "fa7ef2878aa8da6af62f3dfa7732ff6cd8778a706416769554c4e68a29d8685a",
        "a4d461e3482f699531622d1c02393f1857aa3c7b09f29aee81b90c38f37fb0b8",
        "f707032711209d64f2650ef7d2da9022c1009723bfbe6ac49be9ce9eba11c268"),
    "hankel --family cyclic --r 2 --n 5": (
        "65a7516f188015e980a68412d08c8a76bf9a50a0b226c8e2cda5cd652f727356",
        "ff6f1158be8af4bfa5c60e15951a44eab1c09184573f8630907df3e6cc6b57b6",
        "1a4512629058620df90b5097d875dc84e0a2683b636e3463e1358d4207da0079"),
    "hankel --family generalized --r 2 --x 1/2 --n 6": (
        "89111f277ca185d7453142f3866a8d09cf28b2fc7c5ecabb13fc883064755de8",
        "c177e1682e53600ea0b4d0f059e172844b435961250302378e0135baca0d6d35",
        "f98384ad98eec977211276fefb2de6d34c8122d94734caadce6db1984e4d7eb2"),
    "hankel --family generalized --r 0 --x 1/2 --n 3": (
        "91ab1e893eb5c30f6ae6211a4f4fe32aa2c5b3af18428f014d03ce7cc45ca977",
        "9ae48a74e1cbd1f62a07addc2f0c395ace913f1497bb90cde38a55881e9642bb",
        "b44a24f7e504af1e03e755174ba1f99521f1df9fb288498d66dc03fd5e673848"),
    "hankel --family order-r-poly --r 3 --x=-3/5 --n 4": (
        "babde7dce3194d8396712f581a646208b03945e2eb7dc37c2f18ddb0d2ce5280",
        "d38f01d631c88d8f3c3c66257f5af9f1733ce6c9ad533696494f97055984181b",
        "137f23f3043867782f02639ddc1421d5c02ec5e148ea8a09850643690e161bec"),
    "verify --suite recurrences --nmax 2 --r 1": (
        "e978da606680c312c24708469ffe855978221ef4a137d562288e3a38d02e1799",
        "85981b11d29bb4317efc415f8c12c11f4094566d2c5797ba5f3e630754a2ae29",
        "f31e403deca688883e98a8c5e244a3700ccd355765aeba2cf5d9ceab07df4a58"),
    "verify --suite reflection --nmax 2": (
        "bd7f34564a45d2f269d607f1b105f125959975cb1ae43fbf6bb1470e98ff6316",
        "95bb8a5f1179887b70f254c1b75d35ba522b013ed2ae1b18c746123563275052",
        "bf534c7ba0e6d80e91fbf243c5c7e87eb4022efaa52356c094dda2a1fbc1bd10"),
    "verify --suite hankel --nmax 3 --r 2 --x=-1/2": (
        "cf727095dbad0940fe50faf3583df14bc5f2eacd654d25b410ba15949b2a1467",
        "cfac34d26867ae6704a30ff403d46bacb150e743e758a19097ad2754ff47bb89",
        "efc14b464abb903e0dbfea82aa2d4f6f9468ad4c52034c854715f3a6765d9913"),
    "verify --suite derivative-hankel --r 2 --z 1/2 --nmax 3": (
        "0170a3c23011aceeb228f3c6864ef966eaa172d6445aa07e9c198a66d32efd73",
        "ef1c9e512eae201dce884c5bdc57e2732ede08b30bc90bbc49dd54539dc72e27",
        "ac1da215797fd45f8791f9ffbae726e1e81beef6388578523647ff1434dab75c"),
    "verify --suite mgf --r 1 --x 2": (
        "0c60d6cec1ea35c9e9b8e0c2ebb958b4c46bdc3847a920730dfe6f5672e2af2a",
        "a2ddfdd4e02ffb522a70ffd2f184b0a234ec2716fed13a99bed83ed5cd3d96d8",
        "f9c0eb23ec81773bccb1544bbebf696d848de929307bcd24ad71063f1b62b095"),
    "verify --suite oracles --nmax 3": (
        "b0ff9e9f0f577f3dc1a864f7147d7f77834cffc3ec253afe3adae1bf08f4d4af",
        "0e5a34a8171b58b6b82a3798615538336422ab1f30dd4be662731f3da8deaf15",
        "f4c6e379c135359d490ea418e6b653a8fb87d464051372e3e1c71b322b29f671"),
    "verify --suite all": (
        "c8dbd499eecddcff9401b350e37f886fd2a35b9ca57c254b30952698f31a6aea",
        "0eefdc1fe2a1637ca60d1fd23da95fc6e40208acb421829b433e0a6f8dc8b9e4",
        "0be3fecd5454d432128f3d6268b274e22e46417753e67ab1acb518a8a232ab68"),
}
FORMATS = ("text", "json", "csv")
WALL_TIME = re.compile(r',\n  "wall_time_s": [0-9.e+-]+')


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_report_bytes_are_golden(capsys, argv, fmt):
    code, out = run(capsys, *argv.split(), "--format", fmt)
    assert code == 0
    digest = hashlib.sha256(WALL_TIME.sub("", out).encode()).hexdigest()
    assert digest == GOLDEN[argv][FORMATS.index(fmt)]


OUTPUT_ARGV = [
    "seq --family cyclic --r 3 --count 6",
    "poly --which d --n 3 --r 3",
    "hankel --family cyclic --r 2 --n 5",
    "verify --suite reflection --nmax 2",
    "mc --r 2 --k 3 --samples 2000 --seed 7",
]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("argv", OUTPUT_ARGV)
def test_output_file_has_the_stdout_bytes(tmp_path, capsys, argv, fmt):
    code, out = run(capsys, *argv.split(), "--format", fmt)
    target = tmp_path / "out"
    assert main([*argv.split(), "--format", fmt, "--output", str(target)]) == code
    assert capsys.readouterr().out == ""
    with open(target, newline="") as fh:
        written = fh.read()
    assert WALL_TIME.sub("", written) == WALL_TIME.sub("", out)


# what a text-format command that verifies nothing must not import
NOTHING_VERIFIED = {"dataclasses", "inspect", "derange.hankel",
                    "derange.oracle", "derange.verify", "json", "csv"}
# per command: `seq` loads no polynomial layer, `hankel` loads its own
# layer only, and `mc` (whose numpy brings inspect) loads no exact check
# at all, nor dataclasses
NOT_IMPORTED = {
    "seq --family classic --count 5": NOTHING_VERIFIED | {"derange.polys"},
    "poly --which D --n 4 --r 2": NOTHING_VERIFIED,
    "hankel --family cyclic --r 2 --n 3 --format text":
        NOTHING_VERIFIED - {"derange.hankel"},
    "mc --r 2 --k 3 --samples 2000":
        {"derange.hankel", "derange.oracle", "derange.verify", "dataclasses",
         "copy"},
}


@pytest.mark.parametrize("argv", NOT_IMPORTED)
def test_commands_import_only_what_they_run(argv):
    proc = fresh_process("-X", "importtime", *CLI, *argv.split())
    assert proc.returncode == 0 and proc.stdout
    imported = imported_modules(proc)
    assert "derange.series" in imported  # the probe sees the package
    assert not imported & NOT_IMPORTED[argv]


@pytest.mark.parametrize("statement, loaded", [
    ("import derange", set()),
    ("import derange.stochastic",
     {"derange.exact", "derange.polys", "derange.stochastic"}),
    # the set-up imports of the exact and the CLI workloads
    ("import derange.hankel",
     {"derange.exact", "derange.polys", "derange.series", "derange.hankel"}),
    ("import derange.cli", {"derange.cli", "derange.exact", "derange.series"}),
], ids=["package", "stochastic", "hankel", "cli"])
def test_the_package_root_loads_no_submodule(statement, loaded):
    """The package root holds only its docstring: importing it loads no
    submodule, and a submodule loads itself and what it imports, no more.
    numpy is loaded only with the Monte Carlo layer."""
    proc = fresh_process("-X", "importtime", "-c", statement)
    assert proc.returncode == 0
    modules = imported_modules(proc)
    assert {m for m in modules if m.startswith("derange.")} == loaded
    assert ("numpy" in modules) == ("derange.stochastic" in loaded)


def readme_cli_lines():
    """The `derange ...` lines of README's "## CLI" code block."""
    text = (ROOT / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("derange ")]


def test_readme_cli_lines_exit_0(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # for the lines that write a report file
    lines = readme_cli_lines()
    assert lines
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
        assert capsys.readouterr().err == "", line


def test_readme_names_no_missing_file():
    text = (ROOT / "README.md").read_text()
    named = set(re.findall(r"\b(?:src|tests|bench|scripts)/[\w./-]*\w", text))
    assert named
    assert sorted(p for p in named if not (ROOT / p).exists()) == []


def test_suite_choices_are_the_verify_suites():
    assert SUITE_NAMES == tuple(sorted(verify.SUITES))


def test_readme_tables_loop_names_every_suite_in_order():
    """The `for s in ...` loop under README's "## Tables" runs exactly the
    verify suites, in the order of verify.SUITES."""
    text = (ROOT / "README.md").read_text()
    block = text.split("\n## Tables\n", 1)[1].split("\n## ", 1)[0]
    (loop,) = re.findall(r"^for s in (.*); do$", block, re.MULTILINE)
    assert loop.split() == list(verify.SUITES)


def test_cli_still_names_verify_hankel():
    from derange import cli, hankel
    assert cli.verify_hankel is hankel.verify_hankel
    with pytest.raises(AttributeError):
        cli.no_such_name
