"""Exact integer/rational scalars: rising factorials, factorials, binomials.

Python ints are arbitrary precision and `fractions.Fraction` keeps a
canonical form (positive denominator, reduced) after every operation, so
they serve directly as the Integer/Rational scalars of the whole package.
No floating point enters any function in this module.
"""

from fractions import Fraction
from math import comb

__all__ = ["Fraction", "DerangeDomainError", "SizeTooLarge", "rising_factorial",
           "factorial", "binomial"]


class DerangeDomainError(ValueError):
    """An argument outside the domain of a derange function.

    The package raises no other exception, so the CLI can report any of
    them as a usage/domain error (exit 2) and keep exit 1 for a failed
    identity. Two subclasses remain, each caught by type in the package and
    counted by name in the benchmark's tracing: SizeTooLarge, which
    `verify` turns into a skipped oracle cell, and hankel.DegenerateInterior,
    which `verify_hankel` shows as a degenerate condensation.
    """


class SizeTooLarge(DerangeDomainError):
    """An input above the size cap of an enumeration or expansion oracle."""


def rising_factorial(r: int, k: int) -> int:
    """r(r+1)...(r+k-1), with the empty product = 1 for k = 0.

    r = 0 gives 0 for every k >= 1, which makes the degenerate r = 0
    closed forms downstream collapse to 0 without special-casing.
    """
    if k < 0:
        raise DerangeDomainError(f"rising_factorial needs k >= 0, got {k}")
    out = 1
    for i in range(k):
        out *= r + i
    return out


def factorial(n: int) -> int:
    if n < 0:
        raise DerangeDomainError(f"factorial needs n >= 0, got {n}")
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def binomial(n: int, k: int) -> int:
    """C(n, k); zero outside 0 <= k <= n."""
    if n < 0:
        raise DerangeDomainError(f"binomial needs n >= 0, got {n}")
    if k < 0 or k > n:
        return 0
    return comb(n, k)
