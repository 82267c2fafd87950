"""Command-line front door.

Exit codes: 0 all checks pass, 1 a verification/tolerance failure,
2 usage or domain error.  Rationals cross the boundary as exact "p/q" strings.
Seed precedence: --seed flag > DERANGE_SEED env var > 42.
numpy is imported only by `mc`, the one command that samples.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from fractions import Fraction

from . import polys, series, verify
from .exact import DerangeDomainError
from .hankel import verify_hankel
from .series import Family, FamilySpec

FAMILY_NAMES = {f.value: f for f in Family}


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}")


def _default_seed() -> int:
    env = os.environ.get("DERANGE_SEED")
    if not env:
        return 42
    try:
        return int(env)
    except ValueError:
        raise DerangeDomainError(f"DERANGE_SEED is not an integer: {env!r}")


def _make_spec(args) -> FamilySpec:
    family = FAMILY_NAMES[args.family]
    r = args.r if family is not Family.CLASSIC else None
    return FamilySpec(family, r, args.x)


def _emit(args, text: str) -> None:
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise DerangeDomainError(
                f"cannot write {args.output!r}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _report_text(report: dict) -> str:
    out = io.StringIO()
    for cell in report["cells"]:
        params = " ".join(f"{k}={v}" for k, v in cell["params"].items())
        if cell["verdict"] == "pass":
            if cell["expected"] == cell["actual"]:
                out.write(f"pass  {params}  value={cell['actual']}\n")
            else:
                out.write(f"pass  {params}  estimate={cell['actual']} "
                          f"target={cell['expected']}\n")
        elif cell["verdict"] == "skipped":
            out.write(f"skip  {params}\n")
        else:
            out.write(f"FAIL  {params}  expected={cell['expected']} "
                      f"actual={cell['actual']}\n")
    s = report["summary"]
    out.write(f"summary: pass={s['pass']} fail={s['fail']} "
              f"skipped={s['skipped']}\n")
    return out.getvalue()


def _report_csv(report: dict) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["params", "expected", "actual", "verdict"])
    for cell in report["cells"]:
        params = ";".join(f"{k}={v}" for k, v in cell["params"].items())
        writer.writerow([params, cell["expected"], cell["actual"],
                         cell["verdict"]])
    return out.getvalue()


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    if fmt == "csv":
        return _report_csv(report)
    return _report_text(report)


def _build_report(command: str, cells) -> dict:
    summary = {"pass": 0, "fail": 0, "skipped": 0}
    out_cells = []
    for c in cells:
        summary[c.verdict if c.verdict in summary else "fail"] += 1
        out_cells.append({"params": c.params, "expected": c.expected,
                          "actual": c.actual, "verdict": c.verdict})
    return {"command": command, "cells": out_cells, "summary": summary}


def cmd_seq(args) -> int:
    spec = _make_spec(args)
    values = series.egf_values(spec, args.count)
    if args.format == "json":
        obj = {"command": "seq", "family": args.family,
               "values": [str(v) for v in values]}
        _emit(args, json.dumps(obj, indent=2) + "\n")
    elif args.format == "csv":
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["n", "value"])
        for n, v in enumerate(values):
            writer.writerow([n, str(v)])
        _emit(args, out.getvalue())
    else:
        _emit(args, "".join(f"{n} {v}\n" for n, v in enumerate(values)))
    return 0


def cmd_poly(args) -> int:
    if args.which == "D":
        p = polys.generalized_D_poly(args.n, args.r)
    else:
        p = polys.order_d_poly(args.n, args.r)
    coeffs = [str(c) for c in p.coeffs]
    if args.format == "json":
        obj = {"command": "poly", "which": args.which, "n": args.n,
               "r": args.r, "coeffs": coeffs}
        _emit(args, json.dumps(obj, indent=2) + "\n")
    elif args.format == "csv":
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["k", "coeff"])
        for k, c in enumerate(coeffs):
            writer.writerow([k, c])
        _emit(args, out.getvalue())
    else:
        _emit(args, " ".join(coeffs) + "\n")
    return 0


def cmd_hankel(args) -> int:
    spec = _make_spec(args)
    rep = verify_hankel(spec, args.n)
    cell = verify.Cell(
        params={"family": args.family, "n": str(args.n),
                **verify.spec_params(spec), **rep.shown_dets()},
        expected=str(rep.closed_form), actual=str(rep.det_bareiss),
        verdict=rep.verdict)
    report = _build_report("hankel", [cell])
    _emit(args, render_report(report, args.format))
    return 0 if rep.verdict == "pass" else 1


def cmd_verify(args) -> int:
    grid = verify.Grid(
        n_max=args.nmax if args.nmax is not None else verify.Grid.n_max,
        r_max=args.r if args.r is not None else verify.Grid.r_max,
        points=(args.x,) if args.x is not None else verify.Grid.points,
        deriv_z=(args.z,) if args.z is not None else verify.Grid.deriv_z)
    start = time.monotonic()
    cells = verify.run_suite(args.suite, grid)
    report = _build_report(f"verify {args.suite}", cells)
    report["wall_time_s"] = round(time.monotonic() - start, 3)
    _emit(args, render_report(report, args.format))
    return 0 if report["summary"]["fail"] == 0 else 1


def cmd_mc(args) -> int:
    from . import stochastic  # numpy, so only the sampling command pays for it

    seed = args.seed if args.seed is not None else _default_seed()
    if args.dn:
        if args.n is None or args.x is None:
            print("error: --dn needs --n and --x", file=sys.stderr)
            return 2
        est = stochastic.mc_generalized_D(args.n, args.r, args.x,
                                          args.samples, seed)
        target = polys.eval_poly(polys.generalized_D_poly(args.n, args.r),
                                 args.x)
    else:
        if args.k is None:
            print("error: need --k (or --dn with --n/--x)", file=sys.stderr)
            return 2
        est = stochastic.mc_moment(args.r, args.k, args.samples, seed)
        target = Fraction(stochastic.erlang_moment_exact(args.r, args.k))
    z = 0.0 if est.stderr == 0 else (est.mean - float(target)) / est.stderr
    ok = abs(z) <= 6 and (est.stderr > 0 or est.mean == float(target))
    cell = verify.Cell(
        params={"r": str(args.r), "samples": str(args.samples),
                "seed": str(seed), "stderr": repr(est.stderr),
                "zscore": repr(z),
                **({"n": str(args.n), "x": str(args.x)} if args.dn
                   else {"k": str(args.k)})},
        expected=str(target), actual=repr(est.mean),
        verdict="pass" if ok else "fail")
    report = _build_report("mc", [cell])
    _emit(args, render_report(report, args.format))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="derange",
        description="Exact derangement polynomials, Hankel determinants, "
                    "and their verification suites.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--format", choices=["text", "json", "csv"],
                       default="text")
        p.add_argument("--output", metavar="FILE", default=None)

    p = sub.add_parser("seq", help="generate sequence values")
    p.add_argument("--family", choices=sorted(FAMILY_NAMES), required=True)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--x", type=_fraction, default=None)
    p.add_argument("--count", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_seq)

    p = sub.add_parser("poly", help="polynomial coefficients, low to high")
    p.add_argument("--which", choices=["D", "d"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_poly)

    p = sub.add_parser("hankel", help="verify one Hankel closed form")
    p.add_argument("--family", choices=sorted(FAMILY_NAMES), required=True)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--x", "--z", dest="x", type=_fraction, default=None)
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_hankel)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True,
                   choices=sorted(verify.SUITES) + ["all"])
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--x", type=_fraction, default=None)
    p.add_argument("--z", type=_fraction, default=None)
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("mc", help="Monte Carlo moment estimate vs exact target")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--dn", action="store_true",
                   help="estimate the generalized polynomial value instead")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--x", type=_fraction, default=None)
    p.add_argument("--samples", type=int, default=10 ** 6)
    p.add_argument("--seed", type=int, default=None)
    common(p)
    p.set_defaults(fn=cmd_mc)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except DerangeDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
