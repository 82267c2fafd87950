import argparse
import contextlib
import hashlib
import io
import json
import re

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

    # the order-r numbers take the order-r polynomials' closed form
    code, out = run(capsys, "hankel", "--family", "order-r", "--r", "3",
                    "--n", "4")
    assert code == 0
    assert "value=223948800" in out


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
    ({}, ["seq", "--family", "classic", "--r", "5", "--count", "3"]),
    ({}, ["seq", "--family", "classic", "--x", "1", "--count", "3"]),
    ({}, ["poly", "--which", "D", "--n", "3", "--r", "-2"]),
    ({}, ["poly", "--which", "d", "--n", "3", "--r", "-1"]),
    ({}, ["mc", "--dn", "--n", "2", "--r", "1", "--x", "1e400",
          "--samples", "100"]),
    ({}, ["mc", "--dn", "--n", "8", "--r", "1", "--x", "1e38",
          "--samples", "100"]),
    ({}, ["mc", "--dn", "--n", "8", "--r", "1", "--x", "1e30",
          "--samples", "100"]),
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


def test_oracles_suite_skips_nothing_up_to_n_9(capsys):
    # the cyclic oracle walks n! permutations for every r, capped at n = 9
    code, out = run(capsys, "verify", "--suite", "oracles", "--nmax", "9",
                    "--r", "4", "--format", "json")
    assert code == 0
    assert json.loads(out)["summary"] == {"pass": 10 + 4 * 10, "fail": 0,
                                          "skipped": 0}


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
        "60611a41be87db5b0184510b67e10451925b0ea34bf3817a2ae5cf4b7334962c",
        "e9f89b8326d02f20ced1a001cfc9ae1674e8adb7f0b23dc7e2fd63a1f7bb5b1c",
        "26efc42697465f0f79421499078b65570854c967edb7790352d7d6eb5ba974db"),
    "verify --suite reflection --nmax 2": (
        "bd7f34564a45d2f269d607f1b105f125959975cb1ae43fbf6bb1470e98ff6316",
        "95bb8a5f1179887b70f254c1b75d35ba522b013ed2ae1b18c746123563275052",
        "bf534c7ba0e6d80e91fbf243c5c7e87eb4022efaa52356c094dda2a1fbc1bd10"),
    "verify --suite hankel --nmax 3 --r 2 --x=-1/2": (
        "f4e46921f157a69a18f939942072c94346b78b4fee8f31a0958975ed81851e7e",
        "59ff2cc6303515b8e79449afa86dac4230dac67c6e8aa41d37ea8b900cc55baf",
        "8e9923f1bf5e891b85961d413bcb8517047dfdb54d85615075122155d088f925"),
    "verify --suite jfraction --nmax 4": (
        "eb8017c3f3e44d3f2f8d04823b06594d4d56709f5db335c51cf4317d85c7b2f0",
        "42999bac2b898faea91a1d625b15d0380e9173a791c4c97f7b0d9328607ec05c",
        "cce0958f15d0e477a5d4f1d5f36e957d8c973d825e45f108ff4ad5c2050951d2"),
    "verify --suite derivative-hankel --r 2 --z 1/2 --nmax 3": (
        "17dfa02077ebff93700eff888f08c56c218b64f14f27b7eb55cfbac0c36508ea",
        "783fa3d7ce29a408485d17d85b296ec6a0da93b9351160e5a310a55f6b5dc87a",
        "cd7a40663ac25bad24bfcbf68cb346a37c539f3152cb737961caf94984b7c93c"),
    "verify --suite mgf --r 1 --x 2": (
        "0c60d6cec1ea35c9e9b8e0c2ebb958b4c46bdc3847a920730dfe6f5672e2af2a",
        "a2ddfdd4e02ffb522a70ffd2f184b0a234ec2716fed13a99bed83ed5cd3d96d8",
        "f9c0eb23ec81773bccb1544bbebf696d848de929307bcd24ad71063f1b62b095"),
    "verify --suite oracles --nmax 3": (
        "b0ff9e9f0f577f3dc1a864f7147d7f77834cffc3ec253afe3adae1bf08f4d4af",
        "0e5a34a8171b58b6b82a3798615538336422ab1f30dd4be662731f3da8deaf15",
        "f4c6e379c135359d490ea418e6b653a8fb87d464051372e3e1c71b322b29f671"),
    "verify --suite all": (
        "faeca77665d738d6edd03ef7d0e6063fb2dd21cffaa98c2451574f00c40d20f4",
        "7a636fc2655ac5639ed7a2093656fd7ee1e17ab3d1977a30b5e3e4229167845d",
        "59bfe6c7eeb9a115ed67ee51099db826c2dfeeb3a83483c66085ce46b863b130"),
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
