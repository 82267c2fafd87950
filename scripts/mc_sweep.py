#!/usr/bin/env python3
"""Sweep the Monte-Carlo Erlang moment estimator over (r, k) and report the
z-score against the exact rising-factorial moment. Every row is held to the
6-standard-error gate of `derange mc`: each failing row adds one
"FAIL r=.. k=.. z=.." line on stderr, after the table, and the exit code is
1. A domain error, such as an --rmax or --kmax that leaves no rows or a
--seed outside 0..2^64-1, prints one "error:" line and exits 2; the table
is built before anything is printed."""

import argparse
import sys

from derange.exact import DerangeDomainError
from derange.stochastic import erlang_moment_exact, mc_moment, zscore_gate


def table(rmax: int, kmax: int, samples: int, seed: int):
    """The table text and one FAIL line per row outside the gate."""
    if rmax < 1 or kmax < 0:
        raise DerangeDomainError("need rmax >= 1 and kmax >= 0: the table "
                                 "has no rows")
    lines = [f"{'r':>2} {'k':>2} {'exact':>12} {'estimate':>16} "
             f"{'stderr':>12} {'z':>8}"]
    fails = []
    for r in range(1, rmax + 1):
        for k in range(kmax + 1):
            est = mc_moment(r, k, samples, seed)
            exact = erlang_moment_exact(r, k)
            z, ok = zscore_gate(est, exact)
            lines.append(f"{r:>2} {k:>2} {exact:>12} {est.mean:>16.6f} "
                         f"{est.stderr:>12.6f} {z:>8.2f}")
            if not ok:
                fails.append(f"FAIL r={r} k={k} z={z:.2f}")
    return "\n".join(lines) + "\n", fails


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--rmax", type=int, default=5)
    parser.add_argument("--kmax", type=int, default=6)
    parser.add_argument("--samples", type=int, default=10 ** 6)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)

    try:
        text, fails = table(args.rmax, args.kmax, args.samples, args.seed)
    except DerangeDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    for line in fails:
        print(line, file=sys.stderr)
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main())
