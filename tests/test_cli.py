import argparse
import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from derange.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


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


DOMAIN_ERRORS = [
    ({}, ["seq", "--family", "classic", "--count", "0"]),
    ({}, ["poly", "--which", "D", "--n", "-1", "--r", "2"]),
    ({}, ["hankel", "--family", "r-derangement", "--r", "2", "--n", "2"]),
    ({}, ["mc", "--r", "0", "--k", "2", "--samples", "100"]),
    ({}, ["mc", "--r", "2", "--k", "2", "--samples", "1"]),
    ({}, ["verify", "--suite", "derivative-hankel", "--z", "1"]),
    ({"DERANGE_SEED": "abc"}, ["mc", "--r", "2", "--k", "2", "--samples", "100"]),
    ({}, ["verify", "--suite", "hankel", "--r", "-1"]),
    ({}, ["mc", "--dn", "--r", "-1", "--n", "2", "--x", "1", "--samples", "100"]),
    ({}, ["mc", "--dn", "--r", "0", "--n", "2", "--x", "1", "--samples", "100"]),
    ({}, ["seq", "--family", "classic", "--count", "3",
          "--output", "/nonexistent/dir/out.txt"]),
]


@pytest.mark.parametrize("env,argv", DOMAIN_ERRORS,
                         ids=[" ".join(a) for _, a in DOMAIN_ERRORS])
def test_domain_error_exits_2(capsys, monkeypatch, env, argv):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


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


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_argv_exits_0_1_or_2_without_traceback(tmp_path, data):
    argv = data.draw(argvs(tmp_path))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def test_verify_suite_exit_code(capsys):
    code, out = run(capsys, "verify", "--suite", "reflection", "--nmax", "4")
    assert code == 0
    assert "fail=0" in out


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
    code, out = run(capsys, "mc", "--dn", "--n", "2", "--r", "1", "--x", "1",
                    "--samples", "20000", "--seed", "42")
    assert code == 0


def test_mc_missing_flags(capsys):
    assert main(["mc", "--r", "2"]) == 2
    capsys.readouterr()
    assert main(["mc", "--r", "2", "--dn", "--samples", "100"]) == 2
    capsys.readouterr()


def test_seed_env_precedence(capsys, monkeypatch):
    monkeypatch.setenv("DERANGE_SEED", "7")
    _, out_env = run(capsys, "mc", "--r", "1", "--k", "1", "--samples", "1000",
                     "--format", "json")
    assert json.loads(out_env)["cells"][0]["params"]["seed"] == "7"
    # explicit flag wins over the env var
    _, out_flag = run(capsys, "mc", "--r", "1", "--k", "1", "--samples", "1000",
                      "--seed", "42", "--format", "json")
    assert json.loads(out_flag)["cells"][0]["params"]["seed"] == "42"
