"""Exact integer/rational scalars: rising factorials and factorials.

Python ints are arbitrary precision and `fractions.Fraction` keeps a
canonical form (positive denominator, reduced) after every operation, so
they serve directly as the Integer/Rational scalars of the whole package.
No floating point enters any function in this module. It also holds the one
column-set expansion, `_laplace`, behind the cofactor determinant and the
brute-force permanents.
"""

from math import factorial as _factorial
from typing import List, Sequence

__all__ = ["DerangeDomainError", "as_text", "rising_factorial", "factorial"]


class DerangeDomainError(ValueError):
    """An argument outside the domain of a derange function.

    The package raises no other exception, so the CLI can report any of
    them as a usage/domain error (exit 2) and keep exit 1 for a failed
    identity; `as_text` holds printing to that rule. It has no subclasses:
    a route with no value at some order says so with None in its chain, and
    a caller that skips an input above a size cap tests the cap first.
    """


def as_text(value) -> str:
    """str(value) for every printed value; an int past the interpreter's
    int-to-str digit limit is a DerangeDomainError, not a ValueError."""
    try:
        return str(value)
    except ValueError as exc:  # CPython's message, without its advice
        raise DerangeDomainError(str(exc).split(";")[0] + "; set "
                                 "PYTHONINTMAXSTRDIGITS=0 to lift it") from None


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
    return _factorial(n)


def _laplace(rows: Sequence[Sequence[int]], signed: bool) -> List[int]:
    """Every minor of the n x n matrix on its last k rows and a k-set of
    columns, indexed by the set's bitmask; the last is the determinant (if
    signed) or the permanent, by Laplace expansion along the first row.

    Each minor is computed once, bottom-up: the minor on the last k rows
    and a k-set S of columns is the sum, along its first row, of entry
    (n-k, j) times the minor on the last k-1 rows and S - {j}, signed by
    the parity of j's rank in S when signed. That is 2^n minors, where a
    top-down recursion recomputes them in about e * n! calls. It neither
    divides nor pivots."""
    size = len(rows)
    flip = -1 if signed else 1
    # minors[S] for the bitmask S of a column set, over the last |S| rows;
    # S - {j} < S, so ascending order meets every smaller minor first
    minors = [0] * (1 << size)
    minors[0] = 1
    for mask in range(1, 1 << size):
        row = rows[size - mask.bit_count()]
        total, sign = 0, 1
        for j in range(size):
            if mask >> j & 1:
                if row[j]:
                    total += sign * row[j] * minors[mask ^ (1 << j)]
                sign *= flip
        minors[mask] = total
    return minors
