#!/usr/bin/env python3
"""Sweep the Monte-Carlo Erlang moment estimator over (r, k) and report the
z-score against the exact rising-factorial moment. A domain error, such as
an --rmax or --kmax that leaves no rows, prints one "error:" line and exits
2; the table is built before anything is printed."""

import argparse
import sys

from derange.exact import DerangeDomainError
from derange.stochastic import erlang_moment_exact, mc_moment


def table(rmax: int, kmax: int, samples: int, seed: int) -> str:
    if rmax < 1 or kmax < 0:
        raise DerangeDomainError("need rmax >= 1 and kmax >= 0: the table "
                                 "has no rows")
    lines = [f"{'r':>2} {'k':>2} {'exact':>12} {'estimate':>16} "
             f"{'stderr':>12} {'z':>8}"]
    for r in range(1, rmax + 1):
        for k in range(kmax + 1):
            est = mc_moment(r, k, samples, seed)
            exact = erlang_moment_exact(r, k)
            z = 0.0 if est.stderr == 0 else (est.mean - exact) / est.stderr
            lines.append(f"{r:>2} {k:>2} {exact:>12} {est.mean:>16.6f} "
                         f"{est.stderr:>12.6f} {z:>8.2f}")
    return "\n".join(lines) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--rmax", type=int, default=5)
    parser.add_argument("--kmax", type=int, default=6)
    parser.add_argument("--samples", type=int, default=10 ** 6)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    try:
        sys.stdout.write(table(args.rmax, args.kmax, args.samples, args.seed))
    except DerangeDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
