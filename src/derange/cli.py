"""Command-line front door.

Exit codes: 0 all checks pass, 1 a verification/tolerance failure,
2 usage or domain error, which `_emit` makes of a failed write to stdout or
to --output.  Rationals cross the boundary as exact "p/q" strings.
Each command imports only what it runs: `seq` and `poly` import neither
`verify` nor `hankel`, `polys` comes only with `poly` and `mc`, numpy only
with `mc`, the one command that samples, and json and csv only with a
report in those formats.
`mc` estimates D_n^{(r)}(x) when --n or --x is given, and the moments up
to --k otherwise; its seed is --seed, 42 by default.
`render_report` writes the cell report of `hankel`, `verify` and `mc` and
returns their exit code; `hankel`'s one cell is `HankelReport.cell`, as in
`verify`, and a closed form too long to print is refused before any route
runs. `seq` and `poly` share `_write_values`, and each stops at its first
value too long to print: `seq` streams its values, and `poly` makes its
largest coefficient into text before it computes any. JSON has one
writer, `_json`, for both: its bytes are those of
`json.dumps(..., indent=2)`, but each cell is written from a template and
each string by the json module's C escaper.
Every domain error reaches `main` as a DerangeDomainError, and `main` alone
prints the `error:` line.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
import time
from fractions import Fraction

from . import series
from .exact import DerangeDomainError, as_text, rising_factorial
from .series import Cell, Family, FamilySpec

FAMILY_NAMES = {f.value: f for f in Family}
# the keys of verify.SUITES, sorted, so that parsing argv needs no verify
SUITE_NAMES = ("derivative-hankel", "hankel", "mgf", "oracles", "recurrences",
               "reflection")


def __getattr__(name: str):
    # `cli.verify_hankel` is still hankel.verify_hankel, imported on first use
    if name == "verify_hankel":
        from .hankel import verify_hankel
        return verify_hankel
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}")


def _make_spec(args) -> FamilySpec:
    return FamilySpec(FAMILY_NAMES[args.family], args.r, args.x)


def _emit(args, text: str) -> None:
    try:
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        if not args.output:  # or the flush at exit fails again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise DerangeDomainError(f"cannot write {args.output or '<stdout>'!r}: "
                                 f"{exc.strerror or exc}") from exc


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


def _csv(header, rows) -> str:
    import csv

    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _json(obj: dict) -> str:
    """json.dumps(obj, indent=2, default=vars) + "\n", byte for byte. A
    string is encoded by the C escaper, a Cell from a template, a non-empty
    list or string-keyed dict item by item; any other value by json.dumps
    itself, its lines indented to the depth it sits at."""
    import json
    from json.encoder import encode_basestring_ascii as quote

    def encode(v, pad: str) -> str:
        inner = pad + "  "
        if isinstance(v, str):
            return quote(v)
        if type(v) is Cell:
            params = f",\n{inner}  ".join([f"{quote(k)}: {quote(x)}"
                                            for k, x in v.params.items()])
            params = f"{{\n{inner}  {params}\n{inner}}}" if params else "{}"
            return (f'{{\n{inner}"params": {params},\n'
                    f'{inner}"expected": {quote(v.expected)},\n'
                    f'{inner}"actual": {quote(v.actual)},\n'
                    f'{inner}"verdict": {quote(v.verdict)}\n{pad}}}')
        if isinstance(v, list) and v:
            items = ",\n".join(inner + encode(x, inner) for x in v)
            return f"[\n{items}\n{pad}]"
        if isinstance(v, dict) and v and all(type(k) is str for k in v):
            items = ",\n".join(f"{inner}{quote(k)}: {encode(x, inner)}"
                                for k, x in v.items())
            return f"{{\n{items}\n{pad}}}"
        return json.dumps(v, indent=2, default=vars).replace("\n", "\n" + pad)

    return encode(obj, "") + "\n"


def render_report(args, command: str, cells, **extra) -> int:
    """Write the report of `cells` in args.format, with the `extra` keys
    after the summary in JSON; the exit code is 0 when no cell failed."""
    summary = {"pass": 0, "fail": 0, "skipped": 0}
    for cell in cells:
        summary[cell.verdict if cell.verdict in summary else "fail"] += 1
    if args.format == "json":
        text = _json({"command": command, "cells": cells, "summary": summary,
                      **extra})
    elif args.format == "csv":
        text = _csv(("params", "expected", "actual", "verdict"),
                    ((";".join(f"{k}={v}" for k, v in cell.params.items()),
                      cell.expected, cell.actual, cell.verdict)
                     for cell in cells))
    else:
        text = _report_text(cells, summary)
    _emit(args, text)
    return 0 if summary["fail"] == 0 else 1


def _write_values(args, head: dict, columns: tuple, values,
                  numbered: bool) -> int:
    """Write exact values in args.format, each made into text in turn, so
    the first one too long to print stops `values` there. JSON is `head`
    with the values under the plural of the value column; CSV has the index
    and value columns; text has one "index value" line per value when
    `numbered`, else every value on one line."""
    values = [as_text(v) for v in values]
    if args.format == "json":
        text = _json({**head, columns[1] + "s": values})
    elif args.format == "csv":
        text = _csv(columns, enumerate(values))
    elif numbered:
        text = "".join(f"{n} {v}\n" for n, v in enumerate(values))
    else:
        text = " ".join(values) + "\n"
    _emit(args, text)
    return 0


def cmd_seq(args) -> int:
    values = series.egf_stream(_make_spec(args), args.count)
    return _write_values(args, {"command": "seq", "family": args.family},
                         ("n", "value"), values, numbered=True)


def cmd_poly(args) -> int:
    from . import polys

    family, make = ((Family.GENERALIZED, polys.generalized_D_poly)
                    if args.which == "D" else
                    (Family.ORDER_R_POLY, polys.order_d_poly))
    FamilySpec.check_r(family, args.r)
    if args.n >= 0:
        # c_n = r^(n) is the largest coefficient, as c_{k+1}/c_k =
        # (n-k)(r+k)/(k+1) >= 1 for r >= 1 (at r = 0 all but c_0 = 1 are
        # 0), so one too long to print is refused before any is computed
        as_text(rising_factorial(args.r, args.n))
    head = {"command": "poly", "which": args.which, "n": args.n, "r": args.r}
    return _write_values(args, head, ("k", "coeff"), make(args.n, args.r),
                         numbered=False)


def cmd_hankel(args) -> int:
    from . import hankel

    spec = _make_spec(args)
    if args.n >= 0:  # a closed form too long to print refuses before any route
        as_text(hankel.closed_form(spec, args.n))
    return render_report(args, "hankel",
                         [hankel.verify_hankel(spec, args.n).cell()])


def cmd_verify(args) -> int:
    from . import verify

    given = {"n_max": args.nmax, "r_max": args.r, "points": args.x,
             "deriv_z": args.z}
    grid = verify.Grid(**{k: v for k, v in given.items() if v is not None})
    start = time.monotonic()
    cells = verify.run_suite(args.suite, grid)
    return render_report(args, f"verify {args.suite}", cells,
                         wall_time_s=round(time.monotonic() - start, 3))


def cmd_mc(args) -> int:
    from . import polys, stochastic

    def cell(est, target, **order) -> Cell:
        z, ok = stochastic.zscore_gate(est, target)
        return Cell({"r": args.r, "samples": args.samples, "seed": args.seed,
                     "stderr": est.stderr, "zscore": z, **order},
                    target, est.mean, "pass" if ok else "fail")

    if args.n is not None or args.x is not None:
        if args.k is not None:
            raise DerangeDomainError("--k takes no --n or --x")
        if args.n is None or args.x is None:
            raise DerangeDomainError("--n and --x go together")
        est = stochastic.mc_generalized_D(args.n, args.r, args.x,
                                          args.samples, args.seed)
        target = polys.eval_poly(polys.generalized_D_poly(args.n, args.r),
                                 args.x)
        cells = [cell(est, target, n=args.n, x=args.x)]
    else:
        if args.k is None:
            raise DerangeDomainError("need --k, or --n and --x")
        # order K first: it checks the request and K, and draws the one
        # stream that every lower order is then read from
        top = stochastic.mc_moment(args.r, args.k, args.samples, args.seed)
        ests = [stochastic.mc_moment(args.r, k, args.samples, args.seed)
                for k in range(args.k)] + [top]
        cells = [cell(est, rising_factorial(args.r, k), k=k)
                 for k, est in enumerate(ests)]
    return render_report(args, "mc", cells)


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
                   choices=SUITE_NAMES + ("all",))
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    for flag in ("--x", "--z"):  # one grid point, as a tuple
        p.add_argument(flag, type=lambda text: (_fraction(text),), default=None)
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("mc", help="Monte Carlo moment estimate vs exact target")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--n", type=int, default=None,
                   help="with --x, estimate D_n(x) instead of the moments")
    p.add_argument("--x", type=_fraction, default=None)
    p.add_argument("--samples", type=int, default=10 ** 6)
    p.add_argument("--seed", type=int, default=42,
                   help="the stream's seed, 0..2^64-1 (default: %(default)s)")
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
