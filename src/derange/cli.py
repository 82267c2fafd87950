"""Command-line front door.

Exit codes: 0 all checks pass, 1 a verification/tolerance failure,
2 usage or domain error.  Rationals cross the boundary as exact "p/q" strings.
Seed precedence: --seed flag > DERANGE_SEED env var > 42.
numpy is imported only by `mc`, the one command that samples.
`render_report` writes the cell report of `hankel`, `verify` and `mc` and
returns their exit code; `seq` and `poly` share `_write_values`. Every
domain error reaches `main` as a DerangeDomainError, and `main` alone
prints the `error:` line.
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
    return FamilySpec(FAMILY_NAMES[args.family], args.r, args.x)


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


def _report_text(cells, summary: dict) -> str:
    out = io.StringIO()
    for cell in cells:
        params = " ".join(f"{k}={v}" for k, v in cell.params.items())
        if cell.verdict == "pass":
            if cell.expected == cell.actual:
                out.write(f"pass  {params}  value={cell.actual}\n")
            else:
                out.write(f"pass  {params}  estimate={cell.actual} "
                          f"target={cell.expected}\n")
        elif cell.verdict == "skipped":
            out.write(f"skip  {params}\n")
        else:
            out.write(f"FAIL  {params}  expected={cell.expected} "
                      f"actual={cell.actual}\n")
    out.write(f"summary: pass={summary['pass']} fail={summary['fail']} "
              f"skipped={summary['skipped']}\n")
    return out.getvalue()


def _report_csv(cells) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["params", "expected", "actual", "verdict"])
    for cell in cells:
        params = ";".join(f"{k}={v}" for k, v in cell.params.items())
        writer.writerow([params, cell.expected, cell.actual, cell.verdict])
    return out.getvalue()


def render_report(args, command: str, cells, **extra) -> int:
    """Write the report of `cells` in args.format, with the `extra` keys
    after the summary in JSON; the exit code is 0 when no cell failed."""
    summary = {"pass": 0, "fail": 0, "skipped": 0}
    for cell in cells:
        summary[cell.verdict if cell.verdict in summary else "fail"] += 1
    if args.format == "json":
        report = {"command": command, "cells": cells, "summary": summary,
                  **extra}
        text = json.dumps(report, indent=2, default=vars) + "\n"
    elif args.format == "csv":
        text = _report_csv(cells)
    else:
        text = _report_text(cells, summary)
    _emit(args, text)
    return 0 if summary["fail"] == 0 else 1


def _write_values(args, head: dict, columns: tuple, values,
                  numbered: bool) -> int:
    """Write a list of exact values in args.format. JSON is `head` with the
    values under the plural of the value column; CSV has the index and
    value columns; text has one "index value" line per value when
    `numbered`, else every value on one line."""
    values = [str(v) for v in values]
    if args.format == "json":
        text = json.dumps({**head, columns[1] + "s": values}, indent=2) + "\n"
    elif args.format == "csv":
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(columns)
        writer.writerows(enumerate(values))
        text = out.getvalue()
    elif numbered:
        text = "".join(f"{n} {v}\n" for n, v in enumerate(values))
    else:
        text = " ".join(values) + "\n"
    _emit(args, text)
    return 0


def cmd_seq(args) -> int:
    values = series.egf_values(_make_spec(args), args.count)
    return _write_values(args, {"command": "seq", "family": args.family},
                         ("n", "value"), values, numbered=True)


def cmd_poly(args) -> int:
    family, make = ((Family.GENERALIZED, polys.generalized_D_poly)
                    if args.which == "D" else
                    (Family.ORDER_R_POLY, polys.order_d_poly))
    min_r = series.FAMILY_TABLE[family].min_r
    if args.r < min_r:
        raise DerangeDomainError(f"{family.value} needs r >= {min_r}")
    head = {"command": "poly", "which": args.which, "n": args.n, "r": args.r}
    return _write_values(args, head, ("k", "coeff"), make(args.n, args.r),
                         numbered=False)


def cmd_hankel(args) -> int:
    spec = _make_spec(args)
    rep = verify_hankel(spec, args.n)
    cell = verify.Cell(
        params={"family": args.family, "n": str(args.n),
                **verify.spec_params(spec), **rep.shown_dets()},
        expected=str(rep.closed_form), actual=str(rep.det_bareiss),
        verdict=rep.verdict)
    return render_report(args, "hankel", [cell])


def cmd_verify(args) -> int:
    grid = verify.Grid(
        n_max=args.nmax if args.nmax is not None else verify.Grid.n_max,
        r_max=args.r if args.r is not None else verify.Grid.r_max,
        points=(args.x,) if args.x is not None else verify.Grid.points,
        deriv_z=(args.z,) if args.z is not None else verify.Grid.deriv_z)
    start = time.monotonic()
    cells = verify.run_suite(args.suite, grid)
    return render_report(args, f"verify {args.suite}", cells,
                         wall_time_s=round(time.monotonic() - start, 3))


def cmd_mc(args) -> int:
    from . import stochastic  # numpy, so only the sampling command pays for it

    seed = args.seed if args.seed is not None else _default_seed()
    if args.dn:
        if args.n is None or args.x is None:
            raise DerangeDomainError("--dn needs --n and --x")
        est = stochastic.mc_generalized_D(args.n, args.r, args.x,
                                          args.samples, seed)
        target = polys.eval_poly(polys.generalized_D_poly(args.n, args.r),
                                 args.x)
    else:
        if args.k is None:
            raise DerangeDomainError("need --k (or --dn with --n/--x)")
        est = stochastic.mc_moment(args.r, args.k, args.samples, seed)
        target = Fraction(stochastic.erlang_moment_exact(args.r, args.k))
    z, ok = stochastic.zscore_gate(est, target)
    cell = verify.Cell(
        params={"r": str(args.r), "samples": str(args.samples),
                "seed": str(seed), "stderr": repr(est.stderr),
                "zscore": repr(z),
                **({"n": str(args.n), "x": str(args.x)} if args.dn
                   else {"k": str(args.k)})},
        expected=str(target), actual=repr(est.mean),
        verdict="pass" if ok else "fail")
    return render_report(args, "mc", [cell])


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
