#!/usr/bin/env python3
"""Print a table of Hankel determinants against their closed forms for a
chosen family, showing all four algorithms side by side. A column reads
"degenerate" when its algorithm degenerated and "n/a" when it did not run
(condensation and cofactor run up to ORACLE_CAP x ORACLE_CAP)."""

import argparse
from fractions import Fraction

from derange.hankel import verify_hankel
from derange.series import Family, FamilySpec


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--family", default="generalized",
                        choices=[f.value for f in Family])
    parser.add_argument("--r", type=int, default=2)
    parser.add_argument("--x", "--z", dest="x", type=Fraction,
                        default=Fraction(1, 2))
    parser.add_argument("--nmax", type=int, default=6)
    args = parser.parse_args()

    family = Family(args.family)
    r = None if family is Family.CLASSIC else args.r
    x = args.x if family in (Family.GENERALIZED, Family.ORDER_R_POLY) else None
    spec = FamilySpec(family, r, x)

    print(f"{'n':>3} {'bareiss':>24} {'jfraction':>24} {'condensation':>24} "
          f"{'cofactor':>24} {'closed form':>24} verdict")
    for n in range(args.nmax + 1):
        rep = verify_hankel(spec, n)
        shown = rep.shown_dets()
        print(f"{n:>3} {str(rep.det_bareiss):>24} {shown['jfraction']:>24} "
              f"{shown['condensation']:>24} {shown['cofactor']:>24} "
              f"{str(rep.closed_form):>24} {rep.verdict}")


if __name__ == "__main__":
    main()
