#!/usr/bin/env python3
"""Print a table of Hankel determinants against their closed forms for a
chosen family, showing all four algorithms side by side. A column reads
"degenerate" when its algorithm degenerated and "n/a" when it did not run
(condensation and cofactor run up to ORACLE_CAP x ORACLE_CAP). The family
gets --r and --x only if it takes them. A domain error, such as a family
with no closed form or an --nmax that leaves no rows, prints one "error:"
line and exits 2."""

import argparse
import sys
from fractions import Fraction

from derange.exact import DerangeDomainError
from derange.hankel import verify_hankel
from derange.series import FAMILY_TABLE, Family, FamilySpec


def table(spec: FamilySpec, nmax: int) -> str:
    if nmax < 0:
        raise DerangeDomainError("need nmax >= 0: the table has no rows")
    lines = [f"{'n':>3} {'bareiss':>24} {'jfraction':>24} "
             f"{'condensation':>24} {'cofactor':>24} {'closed form':>24} "
             f"verdict"]
    for n in range(nmax + 1):
        rep = verify_hankel(spec, n)
        shown = rep.shown_dets()
        lines.append(f"{n:>3} {str(rep.det_bareiss):>24} "
                     f"{shown['jfraction']:>24} {shown['condensation']:>24} "
                     f"{shown['cofactor']:>24} {str(rep.closed_form):>24} "
                     f"{rep.verdict}")
    return "\n".join(lines) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--family", default="generalized",
                        choices=[f.value for f in Family])
    parser.add_argument("--r", type=int, default=2)
    parser.add_argument("--x", "--z", dest="x", type=Fraction,
                        default=Fraction(1, 2))
    parser.add_argument("--nmax", type=int, default=6)
    args = parser.parse_args()

    family = Family(args.family)
    row = FAMILY_TABLE[family]
    try:
        spec = FamilySpec(family, args.r if row.min_r is not None else None,
                          args.x if row.takes_x else None)
        sys.stdout.write(table(spec, args.nmax))
    except DerangeDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
